"""Per-layer tracing from the benchmark's side of the library's boundary.

The layers are cooprob's modules. ``Tracer.install`` wraps their public
functions (and a few private ones named in the README) and rebinds every
name that refers to them in any ``cooprob`` module, so calls between modules,
such as ``cooprob.nplayer.iterate3`` or the recursive calls of
``psi_omega_coeffs``, go through the wrappers too. A wrapper counts calls
and self time: its own wall time minus the time of wrapped calls made
inside it. Nothing is added inside ``src/``.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import cooprob
import cooprob.cli
from cooprob import applications, balance, estimators, iteration, nplayer, tables
from cooprob.errors import CooprobError

APP_FUNCTIONS = (
    "diner_p", "diner_conjecture_test", "public_goods_distribution",
    "traveler_distribution", "attrition_distribution",
)

# every per-layer metric, with its unit, in the order the traced run prints them
METRICS = {
    "import.cooprob_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "tables.construct.calls": "count", "tables.construct.self_s": "s",
    "tables.classify.calls": "count", "tables.classify.self_s": "s",
    "estimators.balanced_p.calls": "count", "estimators.balanced_p.self_s": "s",
    "estimators.aux.self_s": "s",
    "iteration.calls": "count", "iteration.self_s": "s", "iteration.steps": "count",
    "iteration.converged_ratio": "ratio",
    "nplayer.balanced_p3.calls": "count", "nplayer.balanced_p3.self_s": "s",
    "nplayer.balanced_p3.failed": "count",
    "nplayer.balanced_p_asym.calls": "count", "nplayer.balanced_p_asym.self_s": "s",
    "nplayer.balanced_pn.calls": "count", "nplayer.balanced_pn.self_s": "s",
    "nplayer.ladder_expand.calls": "count", "nplayer.ladder_expand.self_s": "s",
    "nplayer.brentq.self_s": "s", "nplayer.np_roots.self_s": "s",
    **{f"applications.{name}.self_s": "s" for name in APP_FUNCTIONS},
    "applications.options": "count",
    "balance.search.calls": "count", "balance.search.self_s": "s",
    "balance.verify.calls": "count", "balance.verify.self_s": "s",
    "cli.main.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead.wall_s": "s", "trace.overhead.op_p50_ms": "ms",
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []

    def _wrap(self, key: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in wrapped calls made inside this one
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except CooprobError:
                tracer.counts[key + ".failed"] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                tracer._stack.pop()
                tracer.calls[key] += 1
                tracer.self_s[key] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("cooprob"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)
                    self._patches.append((mod, name, original))

    def _on_trace(self, trace) -> None:
        if isinstance(trace, iteration.IterationTrace):
            self.counts["iteration.runs"] += 1
            self.counts["iteration.steps"] += trace.iterations_used
            self.counts["iteration.converged"] += bool(trace.converged)

    def _on_distribution(self, dist) -> None:
        self.counts["applications.options"] += len(dist.probabilities)

    def install(self) -> None:
        for cls in (tables.PayoffTable2, tables.PayoffTable3, tables.AsymmetricTable2):
            original = cls.__dict__["__post_init__"]
            setattr(cls, "__post_init__", self._wrap("tables.construct", original))
            self._patches.append((cls, "__post_init__", original))
        targets = [
            (tables, "classify2", "tables.classify", None),
            (tables, "classify3", "tables.classify", None),
            (estimators, "balanced_p", "estimators.balanced_p", None),
            *[(estimators, name, "estimators.aux", None) for name in (
                "equiprobability", "expected_payoff2", "maximin_p", "maximin_alt_p",
                "payoff_max_p", "phi_chi", "best_response", "best_response_threshold")],
            *[(iteration, name, "iteration", self._on_trace) for name in (
                "iterate2", "iterate3", "iterate_asym", "iterate2_limits", "iterate3_limits")],
            (nplayer, "balanced_p3", "nplayer.balanced_p3", None),
            (nplayer, "balanced_p_asym", "nplayer.balanced_p_asym", None),
            (nplayer, "balanced_pn", "nplayer.balanced_pn", None),
            (nplayer, "psi_omega_coeffs", "nplayer.ladder_expand", None),
            (nplayer, "brentq", "nplayer.brentq", None),
            (nplayer, "_real_roots", "nplayer.np_roots", None),
            *[(applications, name, f"applications.{name}",
               self._on_distribution if name.endswith("_distribution") else None) for name in APP_FUNCTIONS],
            (balance, "balance_search", "balance.search", None),
            (balance, "verify_table", "balance.verify", None),
            (cooprob.cli, "main", "cli.main", None),
        ]
        for module, name, key, hook in targets:
            original = getattr(module, name)
            self._rebind(original, self._wrap(key, original, hook))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def metrics(self) -> dict:
        c, s, n = self.calls, self.self_s, self.counts
        runs = n["iteration.runs"]
        out = {
            "tables.construct.calls": c["tables.construct"], "tables.construct.self_s": s["tables.construct"],
            "tables.classify.calls": c["tables.classify"], "tables.classify.self_s": s["tables.classify"],
            "estimators.balanced_p.calls": c["estimators.balanced_p"],
            "estimators.balanced_p.self_s": s["estimators.balanced_p"],
            "estimators.aux.self_s": s["estimators.aux"],
            "iteration.calls": c["iteration"], "iteration.self_s": s["iteration"],
            "iteration.steps": n["iteration.steps"],
            "iteration.converged_ratio": n["iteration.converged"] / runs if runs else 0.0,
            "nplayer.balanced_p3.failed": n["nplayer.balanced_p3.failed"],
            "nplayer.ladder_expand.calls": c["nplayer.ladder_expand"],
            "nplayer.ladder_expand.self_s": s["nplayer.ladder_expand"],
            "nplayer.brentq.self_s": s["nplayer.brentq"], "nplayer.np_roots.self_s": s["nplayer.np_roots"],
            "applications.options": n["applications.options"],
            "balance.search.calls": c["balance.search"], "balance.search.self_s": s["balance.search"],
            "balance.verify.calls": c["balance.verify"], "balance.verify.self_s": s["balance.verify"],
            "cli.main.self_s": s["cli.main"],
        }
        for name in ("balanced_p3", "balanced_p_asym", "balanced_pn"):
            out[f"nplayer.{name}.calls"] = c[f"nplayer.{name}"]
            out[f"nplayer.{name}.self_s"] = s[f"nplayer.{name}"]
        for name in APP_FUNCTIONS:
            out[f"applications.{name}.self_s"] = s[f"applications.{name}"]
        return out


def import_times(env: dict, repeats: int = 3) -> dict:
    """Medians over fresh interpreters of `python -X importtime -c 'import cooprob'`:
    the cumulative time of cooprob, and the self time of every scipy and numpy
    module summed."""
    samples: dict[str, list[float]] = {"import.cooprob_s": [], "import.scipy_s": [], "import.numpy_s": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cooprob"],
            env=env, capture_output=True, text=True, check=True,
        )
        total = {"cooprob": 0, "scipy": 0, "numpy": 0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the header line
            name = name.strip()
            root = name.split(".")[0]
            if name == "cooprob":
                total["cooprob"] = int(cumulative_us)
            elif root in ("scipy", "numpy"):
                total[root] += int(self_us)
        for key, us in total.items():
            samples[f"import.{key}_s"].append(us / 1e6)
    return {key: statistics.median(vals) for key, vals in samples.items()}
