"""
Beyond symmetric 2x2: three players, two-sided tables, option ladders
=====================================================================

The three-player estimate solves a cubic whose coefficients collapse when
payoff rungs line up; the two-sided solver handles tables where the row
and column players face different payoffs; the ladder form generalizes to
any player count.
"""

from cooprob import (
    AsymmetricTable2,
    PayoffTable3,
    balanced_p3,
    balanced_p_asym,
    balanced_pn,
    classify3,
    cubic_coefficients,
    equiprobability3,
)

# a table whose cubic degenerates to a linear equation: p = 1/3 exactly
t = PayoffTable3(10, 8, 7, 5, 4, 2)
print("class:", classify3(t).tag.value)
print("cubic coefficients:", cubic_coefficients(t))
est = balanced_p3(t)
print(f"p = {est.p:.12f}  (balance roots in [0, 1]: {est.roots})")

# a full cubic: two balance roots in [0, 1] (a third lies below 0), only
# one of which attracts the balance map; the solver reports both and picks
# the attracting one
print()
t = PayoffTable3(10, 4, 1, -2, -2, -4)
est = balanced_p3(t)
print("roots in [0, 1]:", tuple(round(r, 6) for r in est.roots))
print(f"attracting root: {est.p:.12f}")
print("equiprobability gap:", equiprobability3(t).gap)

# two-sided: each side keeps its own dilemma, the pair of probabilities
# solves both balance conditions at once
print()
asym = AsymmetricTable2(10, 7, 5, 1, 9, 8, 5, 2)
ex, ey = balanced_p_asym(asym)
print(f"side x: p = {ex.p:.12f}")
print(f"side y: p = {ey.p:.12f}")

# feeding both sides the same table recovers the symmetric answer
sym = AsymmetricTable2(9, 8, 5, 2, 9, 8, 5, 2)
ex, ey = balanced_p_asym(sym)
print(f"symmetric check: {ex.p:.12f} == {ey.p:.12f}")

# ladders: [D1, C0, D2, C1, ...] alternates defection/cooperation payoffs
# by co-player cooperation count; n = 2 and n = 3 reduce to the tables
# above, larger n just keeps going
print()
print("n=2 ladder:", f"{balanced_pn([9, 8, 5, 2]).p:.12f}")
print("n=3 ladder:", f"{balanced_pn([10, 8, 7, 5, 4, 2]).p:.12f}")
print("n=4 ladder:", f"{balanced_pn([12, 10, 8.5, 7, 5, 3.5, 2, 0.5]).p:.12f}")
