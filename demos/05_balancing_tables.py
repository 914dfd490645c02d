"""
Balancing a game table against a target
=======================================

A designer wants players near 50/50 cooperation with a given expected
payoff. verify_table scores a candidate; balance_search moves the payoffs
to the target without letting the table fall out of its class. It solves
the two target equations (p and mu) first, and walks the payoffs step by
step only where that solve misses, and always in integer mode.
"""

import json
import tempfile
from pathlib import Path

from cooprob import (
    BalanceTarget,
    PayoffTable2,
    balance_search,
    load_table_entries,
    verify_table,
)

# this table sits exactly on a 50/50, unit-payoff target
report = verify_table(PayoffTable2(8, 2, -2, -4), BalanceTarget(0.5, 1.0, 0.01, 0.05))
print(f"(8, 2, -2, -4): p = {report.p_computed:.6f}, mu = {report.mu_computed:.6f}, "
      f"passed = {report.passed}")

# this one leans cooperative of a 50/50 target; the deltas say how far
target = BalanceTarget(p=0.5, mu=6.0, p_tol=0.01, mu_tol=0.05)
off = PayoffTable2(9, 8, 5, 2)
report = verify_table(off, target)
print(f"(9, 8, 5, 2):   delta_p = {report.delta_p:+.4f}, delta_mu = {report.delta_mu:+.4f}, "
      f"passed = {report.passed}")

# the search fixes it while keeping the table a dilemma: the nearest table
# with p = 0.5 and mu = 6 is still a dilemma, so no step-by-step walk runs
result = balance_search(off, target)
print()
print(f"search met target by the solve ({result.iterations} iterations): {result.met_target}")
print("adjusted table:", tuple(round(v, 3) for v in result.table.values()))
print(f"now p = {result.report.p_computed:.6f}, mu = {result.report.mu_computed:.6f}")

# integer mode keeps whole-number payoffs, handy for printed rulebooks; it
# walks whole steps from the start instead of solving
result = balance_search(off, target, step=1.0, integer_mode=True)
print("integer-mode table:", result.table.values(), "passed:", result.report.passed,
      f"after {result.iterations} iterations")

# a far-off target is no harder for the solve than a near one
far = BalanceTarget(p=0.99, mu=100.0, p_tol=0.001, mu_tol=0.01)
result = balance_search(off, far, max_iters=10)
print(f"far target: met = {result.met_target} after {result.iterations} iterations")

# p = 0 needs b = c, which no dilemma has: the solve misses, and the walk
# reports failure within its small budget instead of lying
hopeless = BalanceTarget(p=0.0, mu=-100.0, p_tol=0.001, mu_tol=0.01)
result = balance_search(off, hopeless, max_iters=10)
print(f"unreachable target: met = {result.met_target}, stalled = {result.stalled}, "
      f"iterations = {result.iterations}")

# batch verification from a tables.json manifest, as the CLI does it
entries = [
    {
        "name": "duel",
        "players": 2,
        "table": {"a": 8, "b": 2, "c": -2, "d": -4},
        "target": {"p": 0.5, "mu": 1.0, "p_tol": 0.01, "mu_tol": 0.05},
    },
    {
        "name": "trio",
        "players": 3,
        "table": {"f": 10, "g": 8, "h": 7, "j": 5, "k": 4, "m": 2},
        "target": {"p": 0.3333333333, "mu": 5.34, "p_tol": 0.01, "mu_tol": 0.05},
    },
]
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "tables.json"
    path.write_text(json.dumps(entries))
    print()
    for entry in load_table_entries(path):
        report = verify_table(entry.table, entry.target)
        print(f"{entry.name}: passed = {report.passed}")
