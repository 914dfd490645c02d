"""Command-line interface.

Every command prints one envelope {command, inputs, result, warnings} in the
selected format (json, csv, or text) with numbers rounded to 12 significant
digits and deterministic key order. Exit codes: 0 success, 2 validation or
domain failure, 3 no-valid-root or ambiguity, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from .errors import (
    AmbiguousRootError,
    DegenerateWeightsError,
    DomainError,
    InvalidTableError,
    NoValidRootError,
    UndefinedPairError,
    UnsupportedClassError,
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


# ---------------------------------------------------------- array writer
#
# The probabilities and weights of the applied games run to 10^5 options and
# more, so they are written as whole arrays. Each value becomes a row of four
# NUL-padded words (sign and lead, two of digits and point, exponent or ".0"
# tail); the rows of one array are laid out with their keys, indices and
# separators in one uint8 matrix, which is compacted (NULs dropped) and
# decoded once. The output is byte for byte that of ``repr(_round12(v))``
# for each value.

# the exponents the lookup tables cover, those of every normal float and more
_E = 330
# rows per pass: a pass's temporaries stay small enough for the allocator to
# reuse, where whole-array ones would be fresh pages each time
_CHUNK = 8192


def _packed(strings):
    """ASCII strings of up to 8 bytes as NUL-padded little-endian words, so
    that byte j of a word is its bits 8j to 8j + 7 and a byte shift is a bit
    shift by 8."""
    import numpy as np

    return np.frombuffer(b"".join(s.encode().ljust(8, b"\0") for s in strings), dtype="<u8")


@functools.cache
def _writer_tables():
    """Lookup tables of the array writer, built on first use."""
    import numpy as np

    # the groups 0000..9999 of 4 digits, and the length of each before its
    # trailing zeros (the place of its last nonzero digit, -12 for 0000: the
    # most of the three groups' lengths, offset by 0, 4 and 8, is then the
    # length of a 12-digit mantissa before its trailing zeros)
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    groups = np.zeros((10000, 8), np.uint8)
    groups[:, :4] = digits + ord("0")
    lengths = np.max((digits != 0) * np.arange(1, 5), axis=1)
    lengths[0] = -12
    prefixes, suffixes = [], []
    for e in range(-_E, _E + 1):
        fixed = -4 <= e < 16
        lead = "0." + "0" * (-e - 1) if fixed and e < 0 else ""
        prefixes += [lead, "-" + lead]  # by sign
        if not fixed:
            suffixes += [f"e{e:+03d}"] * 2
        elif e >= 11:
            suffixes += ["0" * (e - 11) + ".0"] * 2
        else:  # by whether a fraction is left
            suffixes += ["", "0" if e >= 0 else ""]
    low = [(1 << 8 * min(q, 8)) - 1 for q in range(18)]
    high = [(1 << 8 * min(max(q - 8, 0), 8)) - 1 for q in range(18)]
    return {
        # 10^k for |k| <= _E, correctly rounded
        "powers": np.array([float(f"1e{k}") for k in range(-_E, _E + 1)]),
        "groups": groups.view("<u8").ravel(),
        "lengths": lengths,
        "prefixes": _packed(prefixes),
        "suffixes": _packed(suffixes),
        # the first q bytes of a 16-byte pair of words, the bytes after byte
        # q, and a point at byte q
        "low": np.array(low, dtype=np.uint64),
        "high": np.array(high, dtype=np.uint64),
        "after_low": ~np.array(low[1:] + [2**64 - 1], dtype=np.uint64),
        "after_high": ~np.array(high[1:] + [2**64 - 1], dtype=np.uint64),
        "point_low": np.array([ord(".") << 8 * q if q < 8 else 0 for q in range(18)], dtype=np.uint64),
        "point_high": np.array([ord(".") << 8 * (q - 8) if 8 <= q < 16 else 0 for q in range(18)], dtype=np.uint64),
    }


def _decimals(values):
    """``(m, e, special)`` for an array of floats: the 12-digit mantissa m in
    [1e11, 1e12), as exact float64 integers, and the exponent e with
    ``_round12(|v|) = m 10^(e - 11)``; and the zeros, subnormals and
    non-finite values, which have no such form that repr prints.

    For |v| in [1e-280, 1e280], y = |v| 10^(11 - e) takes two roundings, the
    power's and the product's, so it lies within 3e-4 of the exact product,
    and ``rint(y)`` is the correctly rounded mantissa wherever frac(y) is
    more than 1e-3 from 1/2. The rows nearer a tie than that (about 0.2 % of
    random values) and the normal values outside that range take m and e
    from Python's correctly rounded ``"{:.11e}"`` instead.
    """
    import numpy as np

    powers = _writer_tables()["powers"]
    a = np.abs(values)
    special = ~((a >= sys.float_info.min) & (a < math.inf))
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * powers[_E + 11 - e]
    # log10 may land one off next to a power of ten; the range test mends it
    e += y >= 1e12
    e -= y < 1e11
    np.multiply(a, powers[_E + 11 - e], out=y)
    m = np.rint(y)
    y -= np.floor(y)
    fast &= np.abs(y - 0.5) > 1e-3
    top = m == 1e12
    m[top] = 1e11
    e += top
    at = np.flatnonzero(~fast & ~special)
    if len(at):
        strings = [f"{v:.11e}" for v in np.abs(values[at]).tolist()]  # d.ddddddddddde±XX
        m[at] = [float(s[0] + s[2:13]) for s in strings]
        e[at] = [int(s[14:]) for s in strings]
    return m, e, special


def _repr_columns(values) -> list:
    """``repr(_round12(v))`` for each float in ``values``, as a list of
    NUL-padded (n, w) uint8 column blocks: the four words of each row, each
    cut after the last byte some row uses, so a word no row uses is gone.
    Special values (see :func:`_decimals`) take the scalar rule, written
    from the first word of digits on."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    words = np.empty((len(values), 4), "<u8")
    for start in range(0, len(values), _CHUNK):
        _write_reprs(values[start:start + _CHUNK], words[start:start + _CHUNK])
    rows = words.view(np.uint8)
    widths = [(int(np.bitwise_or.reduce(words[:, j])).bit_length() + 7) // 8 for j in range(4)]
    return [rows[:, 8 * j:8 * j + width] for j, width in enumerate(widths) if width]


def _write_reprs(values, words) -> None:
    """The rows of :func:`_repr_columns` for one chunk, written into its
    (n, 4) ``words``."""
    import numpy as np

    t = _writer_tables()
    m, e, special = _decimals(values)
    # m's three groups of 4 digits, split exactly in float64
    g0 = np.floor(m / 1e8)
    rest = m - g0 * 1e8
    g1 = np.floor(rest / 1e4)
    g2 = (rest - g1 * 1e4).astype(np.intp)
    g0, g1 = g0.astype(np.intp), g1.astype(np.intp)
    lo = t["groups"][g0] | t["groups"][g1] << np.uint64(32)
    hi = t["groups"][g2]
    lengths = t["lengths"]
    # the digits of m before its trailing zeros
    sig = np.maximum(np.maximum(lengths[g0], lengths[g1] + 4), lengths[g2] + 8)
    fixed = (e >= -4) & (e < 16)
    # a fixed-point number keeps the zeros of its integer part
    keep = np.minimum(np.where(fixed, np.maximum(sig, e + 1), sig), 12)
    lo &= t["low"][keep]
    hi &= t["high"][keep]
    # the point follows digit e in fixed notation below e = 11, and the
    # first digit in exponent notation when a second one follows; 16 is none
    q = np.where(fixed, np.where((e >= 0) & (e < 11), e + 1, 16), np.where(sig > 1, 1, 16))
    eight = np.uint64(8)
    words[:, 0] = t["prefixes"][(e + _E) * 2 + np.signbit(values)]
    words[:, 1] = lo & t["low"][q] | lo << eight & t["after_low"][q] | t["point_low"][q]
    words[:, 2] = hi & t["high"][q] | (hi << eight | lo >> np.uint64(56)) & t["after_high"][q] | t["point_high"][q]
    words[:, 3] = t["suffixes"][(e + _E) * 2 + (sig <= e + 1)]
    if special.any():
        at = np.flatnonzero(special)
        text = np.zeros((len(at), 32), np.uint8)
        text[:, 8:] = np.array([repr(_round12(v)) for v in values[at].tolist()], dtype="S24").view(np.uint8).reshape(-1, 24)
        words[at] = text.view("<u8")


def _rounded_array(values):
    """``_round12(v)`` for each float in ``values``: m / 10^(11 - e) is one
    correctly rounded operation, as ``float`` of the 12-digit string is,
    where the power is exact (|11 - e| <= 22). The scalar rule takes the
    other rows."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    m, e, special = _decimals(values)
    k = 11 - e
    power = _writer_tables()["powers"][_E + np.minimum(np.abs(k), 22)]
    rounded = np.where(k >= 0, m / power, m * power)
    np.copysign(rounded, values, out=rounded)
    at = np.flatnonzero(special | (np.abs(k) > 22))
    rounded[at] = [_round12(v) for v in values[at].tolist()]
    return rounded


def _index_rows(n: int):
    """The indices 0..n-1 in decimal, as the rows of a NUL-padded uint8 matrix."""
    import numpy as np

    width = len(str(max(n - 1, 0)))
    words = -(-width // 4)
    groups = np.empty((n, words), "<u4")
    index = np.arange(n)
    for j in range(words):
        groups[:, words - 1 - j] = _writer_tables()["groups"][index // 10 ** (4 * j) % 10**4]
    digits = groups.view(np.uint8)[:, 4 * words - width:]
    for col in range(width - 1):  # the leading zeros, in the rows below the column's place
        digits[: 10 ** (width - 1 - col), col] = 0
    return digits


def _block(n: int, *parts) -> str:
    """n rows of ``parts`` side by side, NULs dropped, as one string. A part
    is bytes, the same in every row, or an (n, w) uint8 matrix."""
    import numpy as np

    widths = [len(part) if isinstance(part, bytes) else part.shape[1] for part in parts]
    out = np.empty((min(n, _CHUNK), sum(widths)), np.uint8)
    starts = np.cumsum([0] + widths).tolist()
    arrays = []
    for part, col in zip(parts, starts):
        if isinstance(part, bytes):
            out[:, col:col + len(part)] = np.frombuffer(part, np.uint8)
        else:
            arrays.append((part, col))
    text = []
    for start in range(0, n, _CHUNK):
        chunk = out[: min(n - start, _CHUNK)]
        for part, col in arrays:
            chunk[:, col:col + part.shape[1]] = part[start:start + _CHUNK]
        flat = chunk.ravel()
        text.append(flat[flat != 0].tobytes().decode())
    return "".join(text)


def _float_reprs(values) -> list[str]:
    """``repr(_round12(v))`` for each float in ``values``, one string per
    value, by the renderers' bulk rule. It is exact for every float: numpy's
    mantissa is taken only where it is more than 1e-3 from a rounding tie
    and 1e-280 <= |v| <= 1e280 (see :func:`_decimals`), and the other rows
    take Python's formatting."""
    return _block(len(values), *_repr_columns(values), b"\n").split("\n")[:-1]


class _Numbers:
    """An array of floats, rounded and written once by :func:`_repr_columns`.

    The renderers lay its columns out in whole blocks instead of visiting
    each value, with the bytes of ``repr(_round12(v))`` for every value
    (exact as :func:`_float_reprs` is). JSON does so too, so the values must
    be finite, as they are in every ``OptionDistribution``.
    """

    __slots__ = ("values", "columns")

    def __init__(self, values):
        self.values = values
        self.columns = _repr_columns(values)


def _class_payload(game_class) -> dict:
    return {
        "class": game_class.tag.value,
        "boundary_flags": sorted(game_class.boundary_flags),
    }


def _estimate_payload(est) -> dict:
    payload = {"p": est.p, "q": est.q, "method": est.method}
    payload.update(_class_payload(est.class_used))
    payload["roots"] = list(est.roots)
    return payload


def _distribution_payload(dist) -> dict:
    return {
        "probabilities": _Numbers(dist.probabilities),
        "weights": _Numbers(dist.weights),
        "total": dist.total,
    }


def _boundary_warnings(game_class) -> list[str]:
    return [f"classification hit boundary equality {f}" for f in sorted(game_class.boundary_flags)]


# ------------------------------------------------------------- commands


def _cmd_classify(args) -> tuple[dict, dict, list[str]]:
    from .tables import PayoffTable2, classify2

    values = _parse_table_values(args.table, 4, "--table")
    table = PayoffTable2(*values)
    cls = classify2(table)
    inputs = {"table": table.to_dict()}
    return inputs, _class_payload(cls), _boundary_warnings(cls)


def _cmd_estimate(args) -> tuple[dict, dict, list[str]]:
    from .estimators import balanced_p, maximin_alt_p, maximin_p, payoff_max_p
    from .tables import NumericPolicy, PayoffTable2, classify2

    values = _parse_table_values(args.table, 4, "--table")
    table = PayoffTable2(*values)
    method = args.method
    inputs = {"table": table.to_dict(), "method": method}
    warnings: list[str] = []
    if method == "balanced":
        est = balanced_p(table)
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
        from .iteration import iterate2

        p0 = _parse_number(args.p0, "--p0")
        inputs["p0"] = p0
        cls = classify2(table)
        tol = args.policy_tol
        policy = NumericPolicy() if tol is None else NumericPolicy(fp_tol=_parse_number(tol, "--policy-tol"))
        trace = iterate2(table, p0, policy)
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


def _cmd_estimate3(args) -> tuple[dict, dict, list[str]]:
    from .nplayer import balanced_p3, cubic_coefficients
    from .tables import PayoffTable3

    values = _parse_table_values(args.table, 6, "--table")
    table = PayoffTable3(*values)
    est = balanced_p3(table)
    coeffs = cubic_coefficients(table)
    payload = _estimate_payload(est)
    payload["coefficients"] = list(coeffs.as_tuple())
    inputs = {"table": table.to_dict()}
    return inputs, payload, _boundary_warnings(est.class_used)


def _cmd_asym(args) -> tuple[dict, dict, list[str]]:
    from .nplayer import balanced_p_asym
    from .tables import AsymmetricTable2

    values = _parse_table_values(args.table, 8, "--table")
    table = AsymmetricTable2(*values)
    est_x, est_y = balanced_p_asym(table)
    inputs = {"table": table.to_dict()}
    payload = {"x": _estimate_payload(est_x), "y": _estimate_payload(est_y)}
    warnings = _boundary_warnings(est_x.class_used) + _boundary_warnings(est_y.class_used)
    return inputs, payload, warnings


def _cmd_equiprob(args) -> tuple[dict, dict, list[str]]:
    parts = [p for p in args.table.split(",") if p.strip()]
    players = 2 if len(parts) == 4 else 3 if len(parts) == 6 else 0
    if players == 2:
        from .estimators import equiprobability
        from .tables import PayoffTable2

        table2 = PayoffTable2(*_parse_table_values(args.table, 4, "--table"))
        report = equiprobability(table2)
        inputs = {"table": table2.to_dict(), "players": 2}
    elif players == 3:
        from .nplayer import equiprobability3
        from .tables import PayoffTable3

        table3 = PayoffTable3(*_parse_table_values(args.table, 6, "--table"))
        report = equiprobability3(table3)
        inputs = {"table": table3.to_dict(), "players": 3}
    else:
        raise DomainError("--table must hold 4 or 6 payoffs")
    payload = {"players": players, "gap": report.gap, "verdict": report.verdict.value}
    return inputs, payload, []


def _cmd_app_diner(args) -> tuple[dict, dict, list[str]]:
    from . import applications as apps

    r = _parse_number(args.r, "--r")
    s = _parse_number(args.s, "--s")
    u = _parse_number(args.u, "--u")
    w = _parse_number(args.w, "--w")
    n = _parse_int(args.n, "--n")
    spec = apps.DinerSpec(r=r, s=s, u=u, w=w, n=n)
    inputs = {"r": r, "s": s, "u": u, "w": w, "n": n}
    if n in (2, 3):
        est = apps.diner_p(spec)
        payload = {"n": n, "r_cb": spec.r_cb, "p": est.p, "q": est.q}
        if n == 2:
            payload["table"] = apps.diner_table2(spec).to_dict()
        else:
            payload["table"] = apps.diner_table3(spec).to_dict()
        payload.update(_class_payload(est.class_used))
        return inputs, payload, _boundary_warnings(est.class_used)
    report = apps.diner_conjecture_test(spec.r_cb, n)
    payload = {
        "n": n,
        "r_cb": report.r_cb,
        "p_solver": report.p_solver,
        "p_conjecture": report.p_conjecture,
        "gap": report.gap,
    }
    return inputs, payload, []


def _cmd_app_public_goods(args) -> tuple[dict, dict, list[str]]:
    from . import applications as apps

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


def _cmd_app_traveler(args) -> tuple[dict, dict, list[str]]:
    from . import applications as apps

    r = _parse_number(getattr(args, "max"), "--max")
    s = _parse_number(getattr(args, "min"), "--min")
    t = _parse_number(args.bonus, "--bonus")
    steps = _parse_int(args.steps, "--steps")
    spec = apps.TravelerSpec(r=r, s=s, t=t, steps=steps)
    dist = apps.traveler_distribution(spec)
    inputs = {"max": r, "min": s, "bonus": t, "steps": steps}
    payload = {
        "steps": steps,
        "v": spec.v,
        **_distribution_payload(dist),
    }
    if args.mean:
        payload["mean"] = apps._traveler_mean(spec, dist)
    return inputs, payload, []


def _cmd_app_attrition(args) -> tuple[dict, dict, list[str]]:
    from . import applications as apps

    x = _parse_number(args.x, "--x")
    max_bid = _parse_int(args.max_bid, "--max-bid")
    spec = apps.AttritionSpec(x=x, max_bid=max_bid)
    dist = apps.attrition_distribution(spec, args.mode)
    inputs = {"x": x, "max_bid": max_bid, "mode": args.mode}
    payload = {
        "max_bid": max_bid,
        "mode": args.mode,
        **_distribution_payload(dist),
    }
    warnings = [ATTRITION_PAPER_NOTE] if args.mode == "paper" else []
    return inputs, payload, warnings


def _cmd_verify(args) -> tuple[dict, dict, list[str]]:
    from . import balance as bal

    entries = bal.load_table_entries(args.file)
    inputs = {"file": args.file}
    rows = []
    all_passed = True
    for entry in entries:
        report = bal.verify_table(entry.table, entry.target)
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


def _json(value, indent: str, out: list[str]) -> None:
    """Append ``json.dumps(value, indent=2)``, nested at ``indent``, to
    ``out`` piece by piece, with ``_Numbers`` written as arrays of their
    rows. The pieces are joined once, so a large array is not copied again
    at each level of nesting."""
    inner = indent + "  "
    if isinstance(value, dict):
        items, brackets = [(f"{json.dumps(k)}: ", v) for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [("", v) for v in value], "[]"
    elif isinstance(value, _Numbers):
        # every row takes a separator, and the last one's is cut off
        sep = f",\n{inner}"
        body = _block(len(value.values), *value.columns, sep.encode())
        out.append(f"[\n{inner}{body[: -len(sep)]}\n{indent}]" if body else "[]")
        return
    else:
        out.append(json.dumps(value))
        return
    if not items:
        out.append(brackets)
        return
    out.append(brackets[0])
    for i, (head, item) in enumerate(items):
        out.append(f"{',' if i else ''}\n{inner}{head}")
        _json(item, inner, out)
    out.append(f"\n{indent}{brackets[1]}")


def _render(envelope: dict, fmt: str) -> str:
    if fmt == "json":
        out: list[str] = []
        _json(envelope, "", out)
        return "".join(out) + "\n"
    if fmt == "csv":
        flat: list[tuple[str, object]] = []
        _flatten("", envelope, flat)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in flat:
            if isinstance(value, _Numbers):
                # neither the keys nor the numbers need csv quoting
                n = len(value.values)
                buf.write(_block(n, f"{key}.".encode(), _index_rows(n), b",", *value.columns, b"\n"))
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
                n = len(value.values)
                tail = [b"\n"]
                # every element key ends in its index, so one test covers them all
                if _is_probability_key(f"{key}.0"):
                    tail = [b" (", *_repr_columns(_rounded_array(value.values) * 100.0), b"%)\n"]
                if n:
                    lines.append(_block(n, f"  {key}.".encode(), _index_rows(n), b" = ", *value.columns, *tail)[:-1])
            elif _is_probability_key(key) and isinstance(value, float) and not isinstance(value, bool):
                lines.append(f"  {key} = {value} ({_round12(value * 100.0)}%)")
            else:
                lines.append(f"  {key} = {value}")
        for note in envelope["warnings"]:
            lines.append(f"  warning: {note}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def _add_globals(parser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"))


def build_parser() -> _Parser:
    parser = _Parser(prog="cooprob", description="Balanced cooperation-probability toolkit")
    _add_globals(parser)
    # leaf commands re-declare the globals so the flags also work after the
    # subcommand name; with no default there, a flag given only before the
    # subcommand keeps its value, and one given in both places takes the later
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _add_globals(common)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a 2-player table", parents=[common])
    p.add_argument("--table", required=True, help="a,b,c,d")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("estimate", help="estimate cooperation probability (2-player)", parents=[common])
    p.add_argument("--table", required=True, help="a,b,c,d")
    p.add_argument("--method", choices=("balanced", "maximin", "payoff-max", "oracle"), default="balanced")
    p.add_argument("--p0", default="0.5", help="oracle starting point")
    p.add_argument("--policy-tol", help="step tolerance of the oracle")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("estimate3", help="balanced estimate for a 3-player table", parents=[common])
    p.add_argument("--table", required=True, help="f,g,h,j,k,m")
    p.set_defaults(func=_cmd_estimate3)

    p = sub.add_parser("asym", help="coupled estimates for a two-sided table", parents=[common])
    p.add_argument("--table", required=True, help="ax,bx,cx,dx,ay,by,cy,dy")
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("equiprob", help="signed distance from the p = 1/2 locus", parents=[common])
    p.add_argument("--table", required=True, help="4 or 6 payoffs")
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


@functools.cache
def _parser() -> _Parser:
    """The parser of :func:`main`, built on first use. Each parse fills a new
    namespace, so nothing from one call reaches the next."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        inputs, result, warnings = args.func(args)
        command = args.command if args.command != "app" else f"app {args.app_command}"
        envelope = {
            "command": command,
            "inputs": _rounded(inputs),
            "result": _rounded(result),
            "warnings": warnings,
        }
        sys.stdout.write(_render(envelope, args.format or "json"))
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
