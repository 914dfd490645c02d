"""Command-line interface.

Every command prints one envelope {command, inputs, result, warnings} in the
selected format (json, csv, or text) with numbers rounded to 12 significant
digits and deterministic key order. Exit codes: 0 success, 2 validation or
domain failure, 3 no-valid-root or ambiguity, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import applications as apps
from . import balance as bal
from .errors import (
    AmbiguousRootError,
    DegenerateWeightsError,
    DomainError,
    InvalidTableError,
    NoValidRootError,
    UndefinedPairError,
    UnsupportedClassError,
)
from .estimators import balanced_p, equiprobability, maximin_alt_p, maximin_p, payoff_max_p
from .iteration import iterate2
from .nplayer import balanced_p_asym, balanced_p3, cubic_coefficients, equiprobability3
from .tables import (
    AsymmetricTable2,
    Estimate,
    NumericPolicy,
    PayoffTable2,
    PayoffTable3,
    classify2,
    classify3,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_ROOT = 3
EXIT_USAGE = 64

MAXIMIN_VARIANT_NOTE = (
    "two printed maximin forms disagree on general tables: "
    "'value' is (c-d)/((c-d)-(a-b)), 'alt_value' is (a-c)/((a-b)-(c-d))"
)
ATTRITION_PAPER_NOTE = (
    "attrition mode 'paper' applies the dilemma-branch formula uniformly, even to "
    "bid gaps above x/2 whose pairwise tables classify as Chicken; "
    "class-aware roots are available with mode 'dispatch'"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not sys.exit."""

    def error(self, message):  # noqa: D102 - argparse override
        raise UsageError(message)


def _parse_number(text: str, what: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise DomainError(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise DomainError(f"{what}: {text!r} is not finite")
    return value


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise DomainError(f"{what}: {text!r} is not an integer") from None


def _parse_table_values(text: str, arity: int, what: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != arity:
        raise DomainError(f"{what} needs {arity} comma-separated payoffs, got {len(parts)}")
    return tuple(_parse_number(p, what) for p in parts)


def _round12(value):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    if value == 0.0 or not math.isfinite(value):
        return value
    return float(f"{value:.12g}")


def _rounded(obj):
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return _round12(obj)


# the exponents for which repr prints fixed notation but .12g does not
_FIXED_IN_REPR = ("e+12", "e+13", "e+14", "e+15")


def _float_reprs(values: list[float]) -> list[str]:
    """``repr(_round12(v))`` for each float in ``values``, formatted in bulk.

    ``.12g`` already prints that repr except where repr adds ".0" (no point
    and no exponent), prints fixed notation (exponents 12 to 15) or prints
    fewer digits (subnormals, whose exponents all start with e-3). Strings
    that may be one of these go through ``repr(float(s))``.
    """
    return [
        s if "e" not in s and "." in s or "e" in s and s[-4:] not in _FIXED_IN_REPR and "e-3" not in s
        else repr(float(s))
        for s in map("{:.12g}".format, values)
    ]


class _Numbers:
    """An array of floats, rounded and rendered once, one string per value.

    The renderers write these strings as they stand instead of visiting
    each value. JSON does so too, so the values must be finite, as they are
    in every ``OptionDistribution``.
    """

    __slots__ = ("strs",)

    def __init__(self, values: list[float]):
        self.strs = _float_reprs(values)


def _class_payload(game_class) -> dict:
    return {
        "class": game_class.tag.value,
        "boundary_flags": sorted(game_class.boundary_flags),
    }


def _estimate_payload(est: Estimate) -> dict:
    payload = {"p": est.p, "q": est.q, "method": est.method}
    payload.update(_class_payload(est.class_used))
    payload["roots"] = list(est.roots)
    return payload


def _distribution_payload(dist) -> dict:
    return {
        "probabilities": _Numbers(dist.probabilities.tolist()),
        "weights": _Numbers(dist.weights.tolist()),
        "total": dist.total,
    }


def _boundary_warnings(game_class) -> list[str]:
    return [f"classification hit boundary equality {f}" for f in sorted(game_class.boundary_flags)]


def _global_opt(args, name: str, fallback=None):
    """Resolve a global flag that may sit before or after the subcommand."""
    late = getattr(args, name + "_sub", None)
    early = getattr(args, name, None)
    return late if late is not None else (early if early is not None else fallback)


def _policy_from(args) -> NumericPolicy:
    kwargs = {}
    policy_eps = _global_opt(args, "policy_eps")
    policy_tol = _global_opt(args, "policy_tol")
    if policy_eps is not None:
        kwargs["eps_root"] = _parse_number(policy_eps, "--policy-eps")
    if policy_tol is not None:
        kwargs["fp_tol"] = _parse_number(policy_tol, "--policy-tol")
    return NumericPolicy(**kwargs)


# ------------------------------------------------------------- commands


def _cmd_classify(args, policy) -> tuple[dict, dict, list[str]]:
    values = _parse_table_values(args.table, 4, "--table")
    table = PayoffTable2(*values)
    cls = classify2(table)
    inputs = {"table": table.to_dict()}
    return inputs, _class_payload(cls), _boundary_warnings(cls)


def _cmd_estimate(args, policy) -> tuple[dict, dict, list[str]]:
    values = _parse_table_values(args.table, 4, "--table")
    table = PayoffTable2(*values)
    method = args.method
    inputs = {"table": table.to_dict(), "method": method}
    warnings: list[str] = []
    if method == "balanced":
        est = balanced_p(table, policy)
        warnings += _boundary_warnings(est.class_used)
        return inputs, _estimate_payload(est), warnings
    if method == "maximin":
        res = maximin_p(table)
        alt = maximin_alt_p(table)
        payload: dict = {
            "method": "maximin",
            "value": res.value,
            "defined": res.defined,
            "degenerate": res.degenerate,
            "alt_value": alt,
        }
        payload.update(_class_payload(classify2(table)))
        if res.defined:
            payload["p"] = res.estimate.p
            payload["q"] = res.estimate.q
        warnings.append(MAXIMIN_VARIANT_NOTE)
        return inputs, payload, warnings
    if method == "payoff-max":
        est = payoff_max_p(table)
        return inputs, _estimate_payload(est), warnings
    if method == "oracle":
        p0 = _parse_number(args.p0, "--p0")
        inputs["p0"] = p0
        cls = classify2(table)
        trace = iterate2(table, cls, p0, policy)
        payload = {
            "method": "oracle",
            "p": trace.limit,
            "q": 1.0 - trace.limit,
            "converged": trace.converged,
            "iterations_used": trace.iterations_used,
        }
        payload.update(_class_payload(cls))
        warnings += _boundary_warnings(cls)
        return inputs, payload, warnings
    raise UsageError(f"unknown method {method!r}")


def _cmd_estimate3(args, policy) -> tuple[dict, dict, list[str]]:
    values = _parse_table_values(args.table, 6, "--table")
    table = PayoffTable3(*values)
    est = balanced_p3(table, policy)
    coeffs = cubic_coefficients(table)
    payload = _estimate_payload(est)
    payload["coefficients"] = list(coeffs.as_tuple())
    inputs = {"table": table.to_dict()}
    return inputs, payload, _boundary_warnings(est.class_used)


def _cmd_asym(args, policy) -> tuple[dict, dict, list[str]]:
    values = _parse_table_values(args.table, 8, "--table")
    table = AsymmetricTable2(*values)
    est_x, est_y = balanced_p_asym(table, policy)
    inputs = {"table": table.to_dict()}
    payload = {"x": _estimate_payload(est_x), "y": _estimate_payload(est_y)}
    warnings = _boundary_warnings(est_x.class_used) + _boundary_warnings(est_y.class_used)
    return inputs, payload, warnings


def _cmd_equiprob(args, policy) -> tuple[dict, dict, list[str]]:
    parts = [p for p in args.table.split(",") if p.strip()]
    players = args.players
    if players is None:
        players = 2 if len(parts) == 4 else 3 if len(parts) == 6 else 0
    if players == 2:
        table2 = PayoffTable2(*_parse_table_values(args.table, 4, "--table"))
        report = equiprobability(table2)
        inputs = {"table": table2.to_dict(), "players": 2}
    elif players == 3:
        table3 = PayoffTable3(*_parse_table_values(args.table, 6, "--table"))
        report = equiprobability3(table3)
        inputs = {"table": table3.to_dict(), "players": 3}
    else:
        raise DomainError("--players must be 2 or 3 (or --table must hold 4 or 6 payoffs)")
    payload = {"players": players, "gap": report.gap, "verdict": report.verdict.value}
    return inputs, payload, []


def _cmd_app_diner(args, policy) -> tuple[dict, dict, list[str]]:
    r = _parse_number(args.r, "--r")
    s = _parse_number(args.s, "--s")
    u = _parse_number(args.u, "--u")
    w = _parse_number(args.w, "--w")
    n = _parse_int(args.n, "--n")
    spec = apps.DinerSpec(r=r, s=s, u=u, w=w, n=n)
    inputs = {"r": r, "s": s, "u": u, "w": w, "n": n}
    if n in (2, 3):
        est = apps.diner_p(spec, policy)
        payload = {"n": n, "r_cb": spec.r_cb, "p": est.p, "q": est.q}
        if n == 2:
            payload["table"] = apps.diner_table2(spec).to_dict()
        else:
            payload["table"] = apps.diner_table3(spec).to_dict()
        payload.update(_class_payload(est.class_used))
        return inputs, payload, _boundary_warnings(est.class_used)
    report = apps.diner_conjecture_test(spec.r_cb, n, policy)
    payload = {
        "n": n,
        "r_cb": report.r_cb,
        "p_solver": report.p_solver,
        "p_conjecture": report.p_conjecture,
        "gap": report.gap,
    }
    return inputs, payload, []


def _cmd_app_public_goods(args, policy) -> tuple[dict, dict, list[str]]:
    r = _parse_number(args.r, "--r")
    k = _parse_number(args.k, "--k")
    options = _parse_int(args.options, "--options")
    spec = apps.PublicGoodsSpec(r=r, k=k, options=options)
    dist = apps.public_goods_distribution(spec)
    inputs = {"r": r, "k": k, "options": options}
    payload = {
        "p_star": apps.public_goods_p_star(k),
        "options": options,
        **_distribution_payload(dist),
    }
    return inputs, payload, []


def _cmd_app_traveler(args, policy) -> tuple[dict, dict, list[str]]:
    r = _parse_number(getattr(args, "max"), "--max")
    s = _parse_number(getattr(args, "min"), "--min")
    t = _parse_number(args.bonus, "--bonus")
    steps = _parse_int(args.steps, "--steps")
    spec = apps.TravelerSpec(r=r, s=s, t=t, steps=steps)
    dist = apps.traveler_distribution(spec, policy)
    inputs = {"max": r, "min": s, "bonus": t, "steps": steps}
    payload = {
        "steps": steps,
        "v": spec.v,
        **_distribution_payload(dist),
    }
    if args.mean:
        payload["mean"] = apps.traveler_mean(spec, policy)
    return inputs, payload, []


def _cmd_app_attrition(args, policy) -> tuple[dict, dict, list[str]]:
    x = _parse_number(args.x, "--x")
    max_bid = _parse_int(args.max_bid, "--max-bid")
    spec = apps.AttritionSpec(x=x, max_bid=max_bid)
    dist = apps.attrition_distribution(spec, args.mode, policy)
    inputs = {"x": x, "max_bid": max_bid, "mode": args.mode}
    payload = {
        "max_bid": max_bid,
        "mode": args.mode,
        **_distribution_payload(dist),
    }
    warnings = [ATTRITION_PAPER_NOTE] if args.mode == "paper" else []
    return inputs, payload, warnings


def _cmd_verify(args, policy) -> tuple[dict, dict, list[str]]:
    entries = bal.load_table_entries(args.file)
    inputs = {"file": args.file}
    rows = []
    all_passed = True
    for entry in entries:
        report = bal.verify_table(entry.table, entry.target, policy)
        all_passed = all_passed and report.passed
        rows.append(
            {
                "name": entry.name,
                "players": entry.players,
                "class": report.game_class.tag.value,
                "p_computed": report.p_computed,
                "mu_computed": report.mu_computed,
                "delta_p": report.delta_p,
                "delta_mu": report.delta_mu,
                "passed": report.passed,
            }
        )
    payload = {"entries": rows, "all_passed": all_passed}
    return inputs, payload, []


# ------------------------------------------------------------ rendering


def _flatten(prefix: str, value, out: list[tuple[str, object]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        for idx, v in enumerate(value):
            _flatten(f"{prefix}.{idx}", v, out)
    else:
        out.append((prefix, value))


def _is_probability_key(key: str) -> bool:
    """Keys whose values read naturally as percentages in text mode."""
    leaf = key.rsplit(".", 1)[-1]
    if leaf in ("p", "q", "p_star", "p_x", "p_y", "p_computed", "p_solver", "p_conjecture"):
        return True
    parent = key.split(".")
    return len(parent) >= 2 and parent[-2] == "probabilities"


def _json(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` nested at ``indent``, with ``_Numbers``
    written as arrays of their strings."""
    inner = indent + "  "
    if isinstance(value, dict):
        items, brackets = [f"{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_json(v, inner) for v in value], "[]"
    elif isinstance(value, _Numbers):
        items, brackets = value.strs, "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _render(envelope: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(envelope, "") + "\n"
    if fmt == "csv":
        flat: list[tuple[str, object]] = []
        _flatten("", envelope, flat)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in flat:
            if isinstance(value, _Numbers):
                # neither the keys nor the numbers need csv quoting
                buf.write("".join([f"{key}.{i},{s}\n" for i, s in enumerate(value.strs)]))
            elif value is None:
                writer.writerow([key, ""])
            elif isinstance(value, bool):
                writer.writerow([key, "true" if value else "false"])
            else:
                writer.writerow([key, value])
        return buf.getvalue()
    if fmt == "text":
        flat = []
        _flatten("", envelope["result"], flat)
        lines = [f"{envelope['command']}:"]
        for key, value in flat:
            if isinstance(value, _Numbers):
                # every element key ends in its index, so one test covers them all
                if _is_probability_key(f"{key}.0"):
                    percents = _float_reprs([float(s) * 100.0 for s in value.strs])
                    lines += [f"  {key}.{i} = {s} ({pc}%)" for i, (s, pc) in enumerate(zip(value.strs, percents))]
                else:
                    lines += [f"  {key}.{i} = {s}" for i, s in enumerate(value.strs)]
            elif _is_probability_key(key) and isinstance(value, float) and not isinstance(value, bool):
                lines.append(f"  {key} = {value} ({_round12(value * 100.0)}%)")
            else:
                lines.append(f"  {key} = {value}")
        for note in envelope["warnings"]:
            lines.append(f"  warning: {note}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def _add_globals(parser, suffix: str = "") -> None:
    parser.add_argument(
        "--format", dest="format" + suffix, choices=("json", "csv", "text"), default=None
    )
    parser.add_argument(
        "--policy-eps", dest="policy_eps" + suffix, default=None,
        help="override the root-matching epsilon (eps_root)",
    )
    parser.add_argument(
        "--policy-tol", dest="policy_tol" + suffix, default=None,
        help="override fixed-point tolerance",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="cooprob", description="Balanced cooperation-probability toolkit")
    _add_globals(parser)
    # leaf commands re-declare the globals under shadow dests so the flags
    # also work after the subcommand name
    common = argparse.ArgumentParser(add_help=False)
    _add_globals(common, "_sub")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a 2-player table", parents=[common])
    p.add_argument("--table", required=True, help="a,b,c,d")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("estimate", help="estimate cooperation probability (2-player)", parents=[common])
    p.add_argument("--table", required=True, help="a,b,c,d")
    p.add_argument("--method", choices=("balanced", "maximin", "payoff-max", "oracle"), default="balanced")
    p.add_argument("--p0", default="0.5", help="oracle starting point")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("estimate3", help="balanced estimate for a 3-player table", parents=[common])
    p.add_argument("--table", required=True, help="f,g,h,j,k,m")
    p.set_defaults(func=_cmd_estimate3)

    p = sub.add_parser("asym", help="coupled estimates for a two-sided table", parents=[common])
    p.add_argument("--table", required=True, help="ax,bx,cx,dx,ay,by,cy,dy")
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("equiprob", help="signed distance from the p = 1/2 locus", parents=[common])
    p.add_argument("--table", required=True, help="4 or 6 payoffs")
    p.add_argument("--players", type=int, choices=(2, 3), default=None)
    p.set_defaults(func=_cmd_equiprob)

    app = sub.add_parser("app", help="applied multi-option games")
    app_sub = app.add_subparsers(dest="app_command", required=True)

    p = app_sub.add_parser("diner", help="split-the-bill game", parents=[common])
    p.add_argument("--r", required=True, help="expensive dish cost")
    p.add_argument("--s", required=True, help="expensive dish value")
    p.add_argument("--u", required=True, help="cheap dish value")
    p.add_argument("--w", required=True, help="cheap dish cost")
    p.add_argument("--n", default="2", help="number of diners")
    p.set_defaults(func=_cmd_app_diner)

    p = app_sub.add_parser("public-goods", help="contribution game", parents=[common])
    p.add_argument("--r", required=True, help="endowment")
    p.add_argument("--k", required=True, help="pot multiplier, 1 < k < 2")
    p.add_argument("--options", required=True, help="number of contribution steps")
    p.set_defaults(func=_cmd_app_public_goods)

    p = app_sub.add_parser("traveler", help="claim game", parents=[common])
    p.add_argument("--max", required=True, help="highest claim")
    p.add_argument("--min", required=True, help="lowest claim")
    p.add_argument("--bonus", required=True, help="undercutting bonus/penalty")
    p.add_argument("--steps", required=True, help="number of claim increments")
    p.add_argument("--mean", action="store_true", help="also report the expected claim")
    p.set_defaults(func=_cmd_app_traveler)

    p = app_sub.add_parser("attrition", help="bidding contest", parents=[common])
    p.add_argument("--x", required=True, help="prize value")
    p.add_argument("--max-bid", dest="max_bid", required=True, help="highest bid level")
    p.add_argument("--mode", choices=("paper", "dispatch"), default="paper")
    p.set_defaults(func=_cmd_app_attrition)

    p = sub.add_parser("verify", help="verify tables in a JSON file against targets", parents=[common])
    p.add_argument("--file", required=True, help="path to tables JSON")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        policy = _policy_from(args)
        inputs, result, warnings = args.func(args, policy)
        command = args.command if args.command != "app" else f"app {args.app_command}"
        envelope = {
            "command": command,
            "inputs": _rounded(inputs),
            "result": _rounded(result),
            "warnings": warnings,
        }
        sys.stdout.write(_render(envelope, _global_opt(args, "format", "json")))
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoValidRootError, AmbiguousRootError, DegenerateWeightsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except (InvalidTableError, DomainError, UnsupportedClassError, UndefinedPairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
