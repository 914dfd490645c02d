"""
Fixed-point traces of the balance map
=====================================
"""

# the iteration p <- phi / (phi + chi) is the slow-but-honest way to find
# the balanced probability; it never sees the closed-form roots, which is
# what makes it useful as a cross-check
from cooprob import PayoffTable2, balanced_p, iterate2

t = PayoffTable2(9, 8, 5, 2)

for p0 in (0.0, 0.25, 0.5, 0.75, 1.0):
    trace = iterate2(t, p0=p0)
    head = ", ".join(f"{x:.6f}" for x in trace.iterates[:4])
    print(f"p0 = {p0:.2f}: limit {trace.limit:.12f} "
          f"after {trace.iterations_used} steps   [{head}, ...]")

print("closed form:", f"{balanced_p(t).p:.12f}")

# stag hunt corners: p = 1 is always a fixed point, but when an interior
# root exists the corner repels and the iteration is restarted from the
# middle rather than left to sit on it
print()
for vals in ((2, 3, 1, 0), (10, 11, 1, -30)):
    t = PayoffTable2(*vals)
    trace = iterate2(t, p0=1.0)
    print(f"{vals}: seeded at 1.0, limit {trace.limit:.6f} "
          f"({trace.iterations_used} steps)")

# convergence is geometric; watch the error shrink on the harsh dilemma
print()
t = PayoffTable2(100, 51, 50, 0)
target = balanced_p(t).p
trace = iterate2(t, p0=0.5)
for n in (0, 1, 2, 3, 5, 8, 12):
    if n < len(trace.iterates):
        print(f"step {n:2d}: error {abs(trace.iterates[n] - target):.3e}")
