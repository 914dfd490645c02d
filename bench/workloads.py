"""The two workloads: seeded inputs, rounds of operations, their checks.

A workload hands out its operations one round at a time. Every round of a
workload holds the same operations in the same proportions, so a run that
ends on a round boundary has the same mix, and the same share of failed
operations, whatever its seed and length. ``run.py`` times each call of
``op`` and nothing else; generating a round, ``digest``-ing each output and
``final_errors`` are untimed. ``solvers`` is made of three parts, each a
workload of its own kind (``NPlayer``, ``Games``, ``Cli``), and runs one
round of each per round.

``digest`` reduces an output to what the final checks need, or checks it on
the spot when the output is large (distributions of 10^5 - 10^6 options,
CLI envelopes), so memory does not grow with the run.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stdout

import numpy as np

import cooprob as cp
import cooprob.cli
import checks
import model

# sorted-descending positions realizing each class ordering
PATTERNS = {
    model.PD: (0, 1, 2, 3),  # a > b > c >= d
    model.CHICKEN: (0, 1, 3, 2),  # a > b > d > c
    model.BOS: (0, 3, 2, 1),  # a > d > c >= b
    model.STAG: (1, 0, 2, 3),  # b > a >= c > d
    model.TRANSLATORS: (0, 2, 1, 3),  # a > c >= b > d
}
CLASS_CODE = {name: code for code, name in enumerate(model.CLASS_NAMES)}

# a strict 3-player chain whose only root (0.6404) has map slope -1.27
OSCILLATING = (95.0, 68.0, 67.0, 66.0, 10.0, 9.0)


class Failed:
    """Stands in for the output of an operation that raised CooprobError."""

    def __init__(self, error: str):
        self.error = error


def class_tables(rng, cls: int, size: int, integer: bool) -> np.ndarray:
    """``size`` tables (rows a, b, c, d) of one class.

    Float tables are strict; small-integer tables (0..9) may hit the weak
    inequality of their ordering, and with it the boundary flags and the
    degenerate linear branches, at the rate integers hit them.
    """
    out = np.empty((0, 4))
    cols = list(PATTERNS[cls])
    while len(out) < size:
        if integer:
            vals = np.sort(rng.integers(0, 10, (2 * size, 4)), axis=1)[:, ::-1].astype(float)
        else:
            vals = np.sort(rng.uniform(-50.0, 50.0, (2 * size, 4)), axis=1)[:, ::-1]
        cand = vals[:, cols]
        keep = model.classify(*cand.T) == cls
        out = np.vstack([out, cand[keep]])
    return out[:size]


def attracting_chain(rng, players: int, draw) -> list[float]:
    """A strict ladder whose balance function has one root in [0, 1] with map
    slope at least -1, counted by the benchmark's own root count."""
    while True:
        ladder = draw(rng, players)
        count, _, slope = model.ladder_profile(ladder)
        if count == 1 and slope >= -1.0:
            return [float(v) for v in ladder]


def uniform_chain(rng, players):
    return np.sort(rng.uniform(0.0, 10.0, 2 * players))[::-1]


def exponential_ladder(rng, players):
    return np.cumsum(rng.exponential(1.0, 2 * players))[::-1]


class Workload:
    name = ""
    tail_pct = 0  # the tail percentile reported (README.md)
    block_rounds = 1  # rounds per block; op_p50_ms and op_tail_ms are means over blocks
    trace_rounds = 1  # rounds of the traced run, fixed so its counts repeat

    def __init__(self, seed: int | list[int], workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.records: list = []
        self.errors: list[str] = []

    def warm_up(self) -> None:
        raise NotImplementedError

    def next_round(self) -> list[tuple]:
        """[(callable, argument), ...]; the timed call is callable(argument)."""
        raise NotImplementedError

    def digest(self, op: tuple, out) -> None:
        self.records.append((op, out))

    def final_errors(self) -> list[str]:
        return self.errors


# ------------------------------------------------------------------ tables2


class Tables2(Workload):
    """One round: one float and one small-integer table of each class."""

    name = "tables2"
    tail_pct = 99
    block_rounds = 100
    trace_rounds = 20000
    BLOCK = 2000  # rounds generated, and checked, at a time
    DEEP_EVERY = 487  # every 487th table is also checked against mpmath

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.buffer: list = []
        self.block_in: list = []
        self.block_out: list = []
        self.count = 0

    @staticmethod
    def op(row):
        a, b, c, d, with_payoff_max = row
        table = cp.PayoffTable2(a, b, c, d)
        game_class = cp.classify2(table)
        est = cp.balanced_p(table)
        mu = cp.expected_payoff2(table, est.p)
        eq = cp.equiprobability(table)
        mm = cp.maximin_p(table)
        pm = cp.payoff_max_p(table).p if with_payoff_max else None
        return game_class.tag.value, est.p, mu, eq.gap, eq.verdict.value, mm.value, pm

    def warm_up(self):
        for row in ((9, 8, 5, 2), (8, 6, 1, 3), (9, 1, 3, 5), (8, 9, 3, 1), (9, 2, 5, 1)):
            self.op((*map(float, row), True))

    def _refill(self):
        per_class = [
            (class_tables(self.rng, cls, self.BLOCK, False), class_tables(self.rng, cls, self.BLOCK, True))
            for cls in PATTERNS
        ]
        for r in range(self.BLOCK):
            rnd = []
            for cls, (floats, ints) in zip(PATTERNS, per_class):
                # payoff_max_p is left out on Translators: it raises or
                # answers p = 1 there when defection pays more (CHANGES.md)
                for row in (floats[r], ints[r]):
                    rnd.append((self.op, (*row.tolist(), cls != model.TRANSLATORS)))
            self.buffer.append(rnd)
        self.buffer.reverse()

    def next_round(self):
        if not self.buffer:
            self._refill()
        return self.buffer.pop()

    def digest(self, op, out):
        self.block_in.append(op[1])
        self.block_out.append(out)
        if len(self.block_in) >= 10 * self.BLOCK:
            self._check_block()

    def _check_block(self):
        if not self.block_in:
            return
        rows = np.array([r[:4] for r in self.block_in])
        ok = [not isinstance(o, Failed) for o in self.block_out]
        rows = rows[ok]
        outs = [o for o in self.block_out if not isinstance(o, Failed)]
        nan = float("nan")
        arrays = {
            "cls": np.array([CLASS_CODE[o[0]] for o in outs]),
            "p": np.array([o[1] for o in outs]),
            "mu": np.array([o[2] for o in outs]),
            "gap": np.array([o[3] for o in outs]),
            "maximin": np.array([nan if o[5] is None else o[5] for o in outs]),
            "payoff_max": np.array([nan if o[6] is None else o[6] for o in outs]),
        }
        verdict_ok = [
            o[4] == ("balanced" if o[3] == 0 else "cooperationLeaning" if o[3] > 0 else "defectionLeaning")
            for o in outs
        ]
        if not all(verdict_ok):
            self.errors.append("equiprobability verdict disagrees with the sign of its gap")
        idx = np.arange(self.count, self.count + len(rows))
        self.count += len(self.block_in)
        self.errors += checks.check_tables2(rows, arrays, idx % self.DEEP_EVERY == 0)
        self.block_in, self.block_out = [], []

    def final_errors(self):
        self._check_block()
        return self.errors


# ------------------------------------------------------------------ nplayer


class NPlayer(Workload):
    """One round: the oscillating 3-player table and its ladder (fixed), 100
    strict 3-player chains, 30 two-sided dilemma tables and 8 ladders for
    each n = 3..8 (seeded)."""

    name = "nplayer"

    @staticmethod
    def p3(values):
        return cp.balanced_p3(cp.PayoffTable3(*values)).p

    @staticmethod
    def asym(values):
        est_x, est_y = cp.balanced_p_asym(cp.AsymmetricTable2(*values))
        return est_x.p, est_y.p

    @staticmethod
    def pn(ladder):
        return cp.balanced_pn(ladder).p

    def warm_up(self):
        self.p3((10.0, 8.0, 7.0, 5.0, 4.0, 2.0))
        self.asym((10.0, 7.0, 5.0, 1.0, 9.0, 8.0, 5.0, 2.0))
        self.pn([10.0, 8.0, 7.0, 5.0, 4.0, 2.0, 1.5, 0.5])

    def next_round(self):
        rng = self.rng
        ops = [(self.p3, OSCILLATING), (self.pn, list(OSCILLATING))]
        ops += [(self.p3, tuple(attracting_chain(rng, 3, uniform_chain))) for _ in range(100)]
        for _ in range(30):
            x = np.sort(rng.uniform(0.0, 10.0, 4))[::-1]
            y = np.sort(rng.uniform(0.0, 10.0, 4))[::-1]
            ops.append((self.asym, tuple(x.tolist() + y.tolist())))
        for players in range(3, 9):
            ops += [(self.pn, attracting_chain(rng, players, exponential_ladder)) for _ in range(8)]
        return ops

    def final_errors(self):
        for (fn, arg), out in self.records:
            if isinstance(out, Failed):
                continue
            if fn == self.p3:
                self.errors += checks.check_p3(arg, out)
            elif fn == self.asym:
                self.errors += checks.check_asym(arg[:4], arg[4:], *out)
            else:
                self.errors += checks.check_ladder(arg, out)
        return self.errors


# -------------------------------------------------------------------- games


def diner_spec(rng, n: int, r_cb: float) -> tuple:
    """(r, s, u, w) with r > s > u > w > 0 realizing the ratio R_cb."""
    w = rng.uniform(0.5, 2.0)
    g = rng.uniform(0.5, 2.0)  # s - u
    u = w + rng.uniform(0.1, 0.9) * (r_cb - 1.0) * g
    s = u + g
    r = w + r_cb * g
    return (float(r), float(s), float(u), float(w))


class Games(Workload):
    """One round: Diner's Dilemma for n = 2..14, three public-goods and three
    traveler distributions (1e5, 3e5 and 1e6 options), attrition in paper
    and dispatch mode (2e4 bids) and 200 balance_search jobs."""

    name = "games"
    SIZES = (100_000, 300_000, 1_000_000)
    BIDS = 20_000
    SEARCHES = 200
    SAMPLE_LEVELS = 4

    @staticmethod
    def diner(arg):
        *spec, n = arg
        return cp.diner_p(cp.DinerSpec(*spec, n=n)).p

    @staticmethod
    def conjecture(arg):
        r_cb, n = arg
        return cp.diner_conjecture_test(r_cb, n).p_solver

    @staticmethod
    def public_goods(arg):
        return cp.public_goods_distribution(cp.PublicGoodsSpec(*arg))

    @staticmethod
    def traveler(arg):
        return cp.traveler_distribution(cp.TravelerSpec(*arg))

    @staticmethod
    def attrition(arg):
        x, bids, mode = arg
        return cp.attrition_distribution(cp.AttritionSpec(x, bids), mode)

    @staticmethod
    def search(arg):
        start, target, step = arg
        res = cp.balance_search(cp.PayoffTable2(*start), cp.BalanceTarget(*target), step=step, max_iters=100)
        return res.table.values(), res.met_target, res.report.p_computed

    def warm_up(self):
        self.diner((4.0, 3.5, 1.5, 1.0, 2))
        self.conjecture((3.0, 4))
        self.public_goods((100.0, 1.5, 100))
        self.traveler((100.0, 2.0, 1.5, 98))
        self.attrition((2.0, 100, "dispatch"))
        self.search(((8.0, 2.0, -2.0, -4.0), (0.5, 1.0, 0.01, 0.05), 0.5))

    def next_round(self):
        rng = self.rng
        ops = []
        for n in range(2, 15):
            lo, hi = (1.0, 2.0) if n == 2 else (n / 2.0, float(n))
            r_cb = lo + rng.uniform(0.1, 0.9) * (hi - lo)
            if n <= 3:
                ops.append((self.diner, (*diner_spec(rng, n, r_cb), n)))
            else:
                ops.append((self.conjecture, (float(r_cb), n)))
        for size in self.SIZES:
            ops.append((self.public_goods, (float(rng.uniform(10, 1000)), float(rng.uniform(1.05, 1.95)), size)))
            s = float(rng.uniform(1.0, 10.0))
            ops.append((self.traveler, (float(s + rng.uniform(50, 500)), s, float(s * rng.uniform(0.1, 1.0)), size)))
        for mode in ("paper", "dispatch"):
            ops.append((self.attrition, (float(rng.uniform(1.0, 100.0)), self.BIDS, mode)))
        for _ in range(self.SEARCHES):
            cls = int(rng.integers(0, 4))  # every class but Translators
            start = class_tables(rng, cls, 1, bool(rng.integers(0, 2)))[0]
            p0 = float(model.balance_root(cls, *start))
            a, b, c, d = start
            mu0 = p0 * p0 * b + p0 * (1 - p0) * (a + d) + (1 - p0) ** 2 * c
            target = (float(np.clip(p0 + rng.uniform(-0.15, 0.15), 0.01, 0.99)), float(mu0 + rng.uniform(-1, 1)), 0.02, 0.25)
            ops.append((self.search, (tuple(start.tolist()), target, float(rng.uniform(0.1, 0.5)))))
        return ops

    def digest(self, op, out):
        fn, arg = op
        if isinstance(out, Failed) or fn not in (self.public_goods, self.traveler, self.attrition):
            self.records.append((op, out))
            return
        probs = np.asarray(out.probabilities)
        total, n = out.total, len(probs) - 1
        del out
        sample = sorted({0, n, *self.rng.integers(0, n + 1, self.SAMPLE_LEVELS).tolist()})
        if fn == self.public_goods:
            self.errors += checks.check_public_goods(arg[2], arg[1], probs, total)
        elif fn == self.traveler:
            r, s, t, steps = arg
            self.errors += checks.check_traveler((r - s) / steps, t, probs, total, sample)
        else:
            self.errors += checks.check_attrition(arg[0], arg[2], probs, total, sample)

    def final_errors(self):
        for (fn, arg), out in self.records:
            if isinstance(out, Failed):
                continue
            if fn == self.diner:
                r, s, u, w, n = arg
                self.errors += checks.check_diner(n, (r - w) / (s - u), out)
            elif fn == self.conjecture:
                self.errors += checks.check_diner(arg[1], arg[0], out)
            elif fn == self.search:
                final, met, p_final = out
                self.errors += checks.check_search(arg[0], arg[1], final, met, p_final)
        return self.errors


# ---------------------------------------------------------------------- cli

FORMATS = ("json", "csv", "text")


def _fmt(x: float) -> str:
    return repr(float(x))


def _table_arg(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _ref(expected: dict, **values) -> dict:
    expected.update({k: (float(v) if isinstance(v, (float, np.floating)) else v) for k, v in values.items()})
    return expected


def _distribution_expect(probs_ref: np.ndarray, total: float, prefix="") -> dict:
    out = {f"{prefix}probabilities.{i}": float(v) for i, v in enumerate(probs_ref)}
    out[f"{prefix}total"] = float(total)
    return out


class Cli(Workload):
    """One round: every subcommand once through ``cooprob.cli.main`` with its
    output captured, formats rotating json/csv/text between rounds."""

    name = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rounds = 0
        self.output_bytes = 0

    @staticmethod
    def run_cli(arg):
        argv, fmt = arg[0], arg[1]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cooprob.cli.main(argv + ["--format", fmt])
        return Failed(f"exit code {code}") if code != 0 else buf.getvalue()

    def warm_up(self):
        with redirect_stdout(io.StringIO()):
            cooprob.cli.main(["classify", "--table", "9,8,5,2"])

    def _tables_file(self, rng) -> tuple[str, dict]:
        entries, expected = [], {}
        for i in range(4):
            if i < 2:
                vals = class_tables(rng, model.PD if i == 0 else model.CHICKEN, 1, bool(i))[0]
                a, b, c, d = vals
                p = float(model.balance_root(int(model.classify(a, b, c, d)), a, b, c, d))
                mu = p * p * b + p * (1 - p) * (a + d) + (1 - p) ** 2 * c
                table = dict(zip("abcd", vals.tolist()))
            else:
                vals = attracting_chain(rng, 3, uniform_chain)
                p = checks.mp_cubic_roots(vals)[0]
                f, g, h, j, k, m = vals
                q = 1 - p
                mu = p**3 * g + q**3 * k + p * p * q * (f + 2 * j) + p * q * q * (2 * h + m)
                table = dict(zip("fghjkm", vals))
            entries.append({
                "name": f"t{i}", "players": 2 if i < 2 else 3, "table": table,
                "target": {"p": round(p, 6), "mu": round(mu, 6), "p_tol": 0.01, "mu_tol": 0.05},
            })
            _ref(expected, **{f"entries.{i}.p_computed": p, f"entries.{i}.mu_computed": mu, f"entries.{i}.passed": True})
        expected["all_passed"] = True
        path = os.path.join(self.workdir, f"tables-{self.rounds}.json")
        with open(path, "w") as fh:
            json.dump(entries, fh)
        return path, expected

    def next_round(self):
        rng = self.rng
        cmds = []  # (argv, expected values, extra check)

        cls = int(rng.integers(0, 5))
        t = class_tables(rng, cls, 1, True)[0]
        exp = {"class": model.CLASS_NAMES[cls]}
        for i, flag in enumerate(model.boundary_flags(cls, *t)):
            exp[f"boundary_flags.{i}"] = flag
        cmds.append((["classify", "--table=" + _table_arg(t)], exp, None))

        cls = int(rng.integers(0, 5))
        t = class_tables(rng, cls, 1, False)[0]
        p = checks.mp_balance_root(cls, *t)
        cmds.append((["estimate", "--table=" + _table_arg(t)], _ref({"class": model.CLASS_NAMES[cls]}, p=p, q=1 - p), None))

        t = class_tables(rng, int(rng.integers(0, 5)), 1, False)[0]
        a, b, c, d = t
        x = (c - d) / ((b - a) + (c - d))
        cmds.append((["estimate", "--table=" + _table_arg(t), "--method", "maximin"],
                     _ref({"defined": bool(0 <= x <= 1)}, value=x), None))

        t = class_tables(rng, model.PD, 1, False)[0]
        best = float(checks.payoff_argmax(*(np.array([v]) for v in t))[0])
        cmds.append((["estimate", "--table=" + _table_arg(t), "--method", "payoff-max"], _ref({}, p=best), None))

        t = class_tables(rng, model.PD, 1, False)[0]
        p = checks.mp_balance_root(model.PD, *t)
        p0 = float(rng.uniform(0.0, 1.0))
        cmds.append((["estimate", "--table=" + _table_arg(t), "--method", "oracle", "--p0", _fmt(p0)],
                     {"converged": True}, lambda got, p=p: [] if abs(got.get("p", -1) - p) <= 1e-8 else [f"oracle p={got.get('p')!r}, reference {p!r}"]))

        chain = attracting_chain(rng, 3, uniform_chain)
        p = checks.mp_cubic_roots(chain)[0]
        cmds.append((["estimate3", "--table=" + _table_arg(chain)], _ref({"class": "prisoners-dilemma"}, p=p), None))

        xs = np.sort(rng.uniform(0.0, 10.0, 4))[::-1].tolist()
        ys = np.sort(rng.uniform(0.0, 10.0, 4))[::-1].tolist()
        cmds.append((["asym", "--table=" + _table_arg(xs + ys)], {},
                     lambda got, xs=xs, ys=ys: checks.check_asym(xs, ys, got.get("x.p", -1.0), got.get("y.p", -1.0))))

        t = class_tables(rng, int(rng.integers(0, 5)), 1, True)[0]
        gap = -4.0 * float(model.balance(model.PD, *t, 0.5))
        cmds.append((["equiprob", "--table=" + _table_arg(t)], _ref({"players": 2}, gap=gap), None))
        chain = attracting_chain(rng, 3, uniform_chain)
        gap = -8.0 * float(model.ladder_balance(chain, 0.5))
        cmds.append((["equiprob", "--table=" + _table_arg(chain)], _ref({"players": 3}, gap=gap), None))

        n = 2 + self.rounds % 2
        lo, hi = (1.0, 2.0) if n == 2 else (1.5, 3.0)
        r_cb = lo + rng.uniform(0.1, 0.9) * (hi - lo)
        r, s, u, w = diner_spec(rng, n, r_cb)
        cmds.append((["app", "diner", "--r", _fmt(r), "--s", _fmt(s), "--u", _fmt(u), "--w", _fmt(w), "--n", str(n)],
                     _ref({}, p=2.0 - n * (s - u) / (r - w)), None))
        n = int(rng.integers(4, 11))
        r_cb = n / 2.0 + rng.uniform(0.1, 0.9) * n / 2.0
        r, s, u, w = diner_spec(rng, n, r_cb)
        _, root, _ = model.ladder_profile(model.diner_ladder((r - w) / (s - u), n))
        cmds.append((["app", "diner", "--r", _fmt(r), "--s", _fmt(s), "--u", _fmt(u), "--w", _fmt(w), "--n", str(n)],
                     _ref({}, p_solver=root), None))

        options = 40_000
        k = float(rng.uniform(1.05, 1.95))
        p_star = 2.0 - 2.0 / k
        i = np.arange(options + 1)
        probs = (i * p_star + (options - i) * (1 - p_star)) / (options * (options + 1) / 2.0)
        cmds.append((["app", "public-goods", "--r", _fmt(rng.uniform(10, 1000)), "--k", _fmt(k), "--options", str(options)],
                     _ref(_distribution_expect(probs, options * (options + 1) / 2.0), p_star=p_star), None))

        steps = int(rng.integers(500, 2001))
        smin = float(rng.uniform(1.0, 10.0))
        smax = smin + float(rng.uniform(50, 500))
        bonus = smin * float(rng.uniform(0.1, 1.0))
        v = (smax - smin) / steps
        weights = model.pairwise_distribution(checks.traveler_p(v, bonus, steps), True)
        w_total = steps * (steps + 1) / 2.0
        claims = smin + v * np.arange(steps + 1)
        exp = _distribution_expect(weights / w_total, w_total)
        exp["mean"] = math.fsum(claims * weights / w_total)
        cmds.append((["app", "traveler", "--max", _fmt(smax), "--min", _fmt(smin), "--bonus", _fmt(bonus), "--steps", str(steps), "--mean"], exp, None))

        bids = int(rng.integers(200, 1001))
        x = float(rng.uniform(1.0, 100.0))
        mode = ("paper", "dispatch")[self.rounds % 2]
        weights = model.pairwise_distribution(checks.attrition_p(x, bids, mode), False)
        cmds.append((["app", "attrition", "--x", _fmt(x), "--max-bid", str(bids), "--mode", mode],
                     _distribution_expect(weights / (bids * (bids + 1) / 2.0), bids * (bids + 1) / 2.0), None))

        path, exp = self._tables_file(rng)
        cmds.append((["verify", "--file", path], exp, None))

        ops = []
        for i, (argv, expected, extra) in enumerate(cmds):
            fmt = FORMATS[(i + self.rounds) % 3]
            ops.append((self.run_cli, (argv, fmt, expected, extra)))
        self.rounds += 1
        return ops

    def digest(self, op, out):
        argv, fmt, expected, extra = op[1]
        label = f"cooprob {' '.join(argv[:2])} --format {fmt}"
        if isinstance(out, Failed):
            return
        text = out
        self.output_bytes += len(text.encode())
        try:
            got = checks.parse_cli_output(fmt, text)
        except (ValueError, KeyError) as exc:
            self.errors.append(f"{label}: unreadable output ({exc})")
            return
        self.errors += checks.check_cli_values(label, got, expected)
        if extra is not None:
            self.errors += [f"{label}: {e}" for e in extra(got)]


# ------------------------------------------------------------------ solvers


class Solvers(Workload):
    """One round: a round of ``NPlayer``, of ``Games`` and of ``Cli``, each
    part with its own random stream drawn from the seed."""

    name = "solvers"
    tail_pct = 99
    trace_rounds = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.parts = [part([seed, k], workdir) for k, part in enumerate((NPlayer, Games, Cli), 1)]
        self.owner: dict = {}  # operation callable -> the part that made it

    @property
    def output_bytes(self):
        return self.parts[-1].output_bytes

    def warm_up(self):
        for part in self.parts:
            part.warm_up()

    def next_round(self):
        ops = []
        for part in self.parts:
            part_ops = part.next_round()
            self.owner.update((fn, part) for fn, _ in part_ops)
            ops += part_ops
        return ops

    def digest(self, op, out):
        self.owner[op[0]].digest(op, out)

    def final_errors(self):
        return [err for part in self.parts for err in part.final_errors()]


WORKLOADS = {cls.name: cls for cls in (Tables2, Solvers)}
