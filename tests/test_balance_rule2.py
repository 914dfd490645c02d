"""The two-player degree-2 balance rule: old class formulas, high precision
and the subdivision path as references."""

import math

import numpy as np
import pytest

from cooprob import (
    AsymmetricTable2,
    GameTag,
    PayoffTable2,
    balanced_p,
    balanced_p_asym,
    balanced_pn,
    classify2,
)
from cooprob import Estimate, estimators, nplayer, payoff_scale
from cooprob.errors import AmbiguousRootError, CooprobError, DomainError, NoValidRootError, UnsupportedClassError
from cooprob.estimators import _balance_root2, _balanced_p_batch, _stable_quadratic_roots, weights2
from conftest import sample_class_boundary_tables, sample_near_linear_tables

# ------------------------------------------ the per-class closed forms, kept


def _old_unit_root(roots, eps_root):
    inside = [r for r in roots if -eps_root <= r <= 1.0 + eps_root]
    if not inside:
        raise NoValidRootError(f"no root in [0, 1] among {roots!r}")
    uniq = []
    for r in inside:
        if not any(abs(r - u) <= eps_root for u in uniq):
            uniq.append(r)
    if len(uniq) > 1:
        raise AmbiguousRootError(f"several roots in [0, 1]: {uniq!r}", tuple(uniq))
    return min(1.0, max(0.0, uniq[0]))


def old_balanced_p(a, b, c, d, tol, eps_root=1e-9):
    """(p, roots, degenerate) from the hand-derived form of each class that
    ``balanced_p`` used before the classes shared one rule. Translators
    reports both real roots, as the shared rule does."""
    tag = classify2(PayoffTable2(a, b, c, d)).tag
    if tag is GameTag.PRISONERS_DILEMMA:
        k = a - b - c + d
        if abs(k) <= tol:
            p = (b - c) / (a - c)
            return p, (p,), True
        disc = (b - d) * (b - d) + 4.0 * (b - c) * k
        p = min(1.0, max(0.0, 2.0 * (b - c) / (math.sqrt(disc) + (b - d))))
        return p, _stable_quadratic_roots(k, b - d, c - b), False
    if tag is GameTag.CHICKEN:
        k = a - b + c - d
        if abs(k) <= tol:
            p = (a - c) / (2.0 * a - b - c)
            return p, (p,), True
        roots = _stable_quadratic_roots(k, b + 2.0 * d - 3.0 * c, -(b + d - 2.0 * c))
        return _old_unit_root(roots, eps_root), roots, False
    if tag is GameTag.BATTLE_OF_SEXES:
        k = a - b + c - d
        if abs(k) <= tol:
            p = (a - b) / (a + d - 2.0 * b)
            return p, (p,), True
        roots = _stable_quadratic_roots(k, 2.0 * d - b - c, c - d)
        return _old_unit_root(roots, eps_root), roots, False
    if tag is GameTag.STAG_HUNT:
        k = b - a - c + d
        if abs(k) <= tol:
            return 1.0, (1.0,), True
        r2 = (c - b) / (-a + b - c + d)
        p = 1.0 if (b - c) / (a - d) >= 0.5 else min(1.0, max(0.0, r2))
        return p, (min(1.0, r2), max(1.0, r2)), False
    if tag is GameTag.TRANSLATORS:
        k = a - b - c + d
        if abs(k) <= tol:
            return 0.0, (0.0,), True
        return 0.0, tuple(sorted((0.0, (2.0 * c - b - d) / (b + c - a - d)))), False
    raise AssertionError("unclassified")


def _seeded_draws():
    rng = np.random.default_rng(0)
    return np.concatenate(
        (rng.uniform(-50.0, 50.0, (20_000, 4)), rng.integers(0, 10, (20_000, 4)).astype(float))
    )


def _classified(rows):
    return [r for r in np.asarray(rows).tolist() if classify2(PayoffTable2(*r)).tag is not GameTag.UNCLASSIFIED]


SAMPLES = {
    "seeded": _seeded_draws,
    "near_linear": lambda: sample_near_linear_tables(2_000, seed=1),
    "class_boundary": lambda: sample_class_boundary_tables(20_000, seed=2),
}


@pytest.mark.parametrize("sample", sorted(SAMPLES))
def test_balanced_p_is_the_old_class_formula(sample):
    rows = _classified(SAMPLES[sample]())
    assert len(rows) > 1000
    for row in rows:
        a, b, c, d = row
        est = balanced_p(PayoffTable2(*row))
        want = old_balanced_p(a, b, c, d, 0.0)[0]
        if est.p != pytest.approx(want, rel=1e-14, abs=0.0):
            # an old form that lost digits, as b + 2d - 3c does in Chicken
            # when d - c is one ulp; high precision settles it
            assert est.p == pytest.approx(mp_balance_root(*row), rel=1e-15, abs=0.0), row


@pytest.mark.parametrize("sample", sorted(SAMPLES))
def test_balanced_p_reports_the_old_class_roots(sample):
    for row in _classified(SAMPLES[sample]()):
        a, b, c, d = row
        scale = max(row) - min(row)
        est = balanced_p(PayoffTable2(*row))
        _, roots, degenerate = old_balanced_p(a, b, c, d, 0.0)
        mixed = est.class_used.tag in (GameTag.CHICKEN, GameTag.BATTLE_OF_SEXES, GameTag.STAG_HUNT)
        k = abs(a - b + c - d) if mixed else abs(a - b - c + d)
        linear = len(est.roots) == 1
        if k <= 1e-14 * scale and linear != degenerate:
            continue  # k is 0 within rounding: either form is right
        assert linear == degenerate, row
        if degenerate:
            assert est.roots == (est.p,)
            continue
        # the large root of a nearly linear quadratic carries the rounding of k
        rel = 1e-12 * max(1.0, scale / k)
        assert est.roots == pytest.approx(roots, rel=rel, abs=1e-300), row


def test_translators_reports_both_real_roots():
    est = balanced_p(PayoffTable2(5, 3, 4, 1))
    assert est.p == 0.0
    assert est.roots == (0.0, 4.0)
    assert math.copysign(1.0, est.roots[0]) == 1.0
    # a - b - c + d = 0: the quadratic term vanishes
    flat = balanced_p(PayoffTable2(6, 3, 4, 1))
    assert flat.class_used.tag is GameTag.TRANSLATORS
    assert flat.roots == (0.0,)


def test_a_double_root_at_one_is_reported_not_refused():
    # Stag Hunt with (b - c) / (a - d) = 1/2 to rounding: the balance quadratic
    # has a double root at 1, and its computed discriminant is -5.7e-14
    table = PayoffTable2(23.182698895027688, 26.619840923303233, 16.28429525167992, 2.5116075517810668)
    est = balanced_p(table)
    assert est.p == pytest.approx(1.0, abs=1e-7)
    assert est.roots == pytest.approx((1.0, 1.0), abs=1e-7)


# ------------------------------------------------- the end-weight table


def reference_balance2(tag, values):
    """``estimators._balance2`` with its weights from the payoff scale and
    ``weights2`` at p = 0 and p = 1, as it ran before the end-weight table."""
    scale = payoff_scale(values)
    if tag is GameTag.UNCLASSIFIED:
        raise UnsupportedClassError("balanced_p requires a classified table")
    if scale > estimators._WIDE_SCALE:
        values = tuple(v * 0.125 for v in values)
    s0, w0 = weights2(tag, *values, 0.0)
    s1, w1 = weights2(tag, *values, 1.0)
    return _balance_root2(s0, s1, w0, w1), s0, s1, w0, w1


def reference_balanced_p(table):
    """``balanced_p`` on :func:`reference_balance2`."""
    cls = classify2(table)
    p, s0, s1, w0, w1 = reference_balance2(cls.tag, table.values())
    k = (w1 - w0) + (s1 - s0)
    roots = _stable_quadratic_roots(k, w0 + 2.0 * s0 - s1, -s0) if k else (p,)
    return Estimate(p, "balanced", cls, roots=roots)


def _end_weight_rows():
    """Integers that hit every boundary tie, also with zeros made -0.0,
    uniform and log-uniform payoffs, and payoffs near 1.7e308, whose scale
    passes 2**1020 or float64."""
    rng = np.random.default_rng(23)
    n = 4000
    ints = np.concatenate((rng.integers(0, 10, (n, 4)), rng.integers(-3, 4, (n, 4)))).astype(float)
    signed_zeros = np.where((ints == 0.0) & (rng.random(ints.shape) < 0.5), -0.0, ints)
    signs = rng.choice([-1.0, 1.0], (2, n, 4))
    log_uniform = 10.0 ** rng.uniform(-300.0, 300.0, (n, 4)) * signs[0]
    huge = rng.uniform(1.0, 1.7, (n, 4)) * 1e308 * signs[1]
    return np.concatenate((ints, signed_zeros, rng.uniform(-50.0, 50.0, (n, 4)), log_uniform, huge)).tolist()


def test_the_end_weight_table_is_weights2_at_the_ends():
    signed = 0
    for row in _classified(_end_weight_rows()):
        tag = classify2(PayoffTable2(*row)).tag
        scale, *ends = estimators._END_WEIGHTS[tag](*row)
        assert scale == max(row) - min(row), row
        if not math.isfinite(scale):
            continue  # refused
        if scale > estimators._WIDE_SCALE:  # the weights are formed from the payoffs / 8
            row = [v * 0.125 for v in row]
            ends = estimators._END_WEIGHTS[tag](*row)[1:]
        (s0, w0), (s1, w1) = weights2(tag, *row, 0.0), weights2(tag, *row, 1.0)
        assert tuple(ends) == (s0, s1, w0, w1), row  # == counts -0.0 as 0.0
        signed += any(math.copysign(1.0, x) != math.copysign(1.0, y) for x, y in zip(ends, (s0, s1, w0, w1)))
    assert signed  # weights2 adds 0.0 to a gap of -0.0


def _outcome(solve, row):
    try:
        est = solve(PayoffTable2(*row))
    except CooprobError as exc:
        return type(exc), str(exc)
    return repr((est.p, est.roots))  # repr tells -0.0 from 0.0


def test_balanced_p_on_the_end_weight_table_is_the_weights2_rule():
    outcomes = [(_outcome(balanced_p, row), _outcome(reference_balanced_p, row), row) for row in _end_weight_rows()]
    for got, want, row in outcomes:
        assert got == want, row
    # answered rows, Unclassified rows and rows whose payoff scale overflows
    kinds = {got[0] if isinstance(got, tuple) else str for got, _, _ in outcomes}
    assert {str, UnsupportedClassError, DomainError} <= kinds


# --------------------------------------------- 40-digit mpmath references


def mp_balance_root(a, b, c, d):
    """The balance root of a classified 2x2 table in 40-digit arithmetic: the
    one root of p omega - q psi in [0, 1], else the attracting one."""
    mpmath = pytest.importorskip("mpmath")
    tag = classify2(PayoffTable2(a, b, c, d)).tag
    with mpmath.workdps(40):
        a, b, c, d = map(mpmath.mpf, (a, b, c, d))
        (s0, w0), (s1, w1) = weights2(tag, a, b, c, d, mpmath.mpf(0)), weights2(tag, a, b, c, d, mpmath.mpf(1))
        k, qb, qc = (w1 - w0) + (s1 - s0), w0 + 2 * s0 - s1, -s0
        if k == 0:
            roots = [-qc / qb]
        else:  # the cancellation-free pair; h changes sign on [0, 1], so disc >= 0
            t = -(qb + (1 if qb >= 0 else -1) * mpmath.sqrt(qb * qb - 4 * k * qc)) / 2
            roots = [t / k, qc / t] if t != 0 else [mpmath.mpf(0)]
        ends = [mpmath.mpf(e) for e, w in ((0, s0), (1, w1)) if w == 0]  # h(0) = -s0, h(1) = w1
        roots = ends + [r for r in roots if 0 <= r <= 1 and all(abs(r - e) > 1e-30 for e in ends)]
        if len(roots) > 1:

            def slope(p):  # of psi / (psi + omega)
                psi, omega = s0 + (s1 - s0) * p, w0 + (w1 - w0) * p
                return ((s1 - s0) * omega - psi * (w1 - w0)) / (psi + omega) ** 2

            roots = [r for r in roots if abs(slope(r)) < 1]
        (root,) = roots
        return float(root)


@pytest.mark.parametrize(
    "table, tag",
    [
        ((5e18, 1.0, 0.0, 0.5), GameTag.CHICKEN),  # AmbiguousRootError under eps_root
        ((1e19, 1.0, 0.0, 0.5), GameTag.CHICKEN),  # clamped to 0 by eps_root
        ((1e18, 0.0, 0.0, 0.5), GameTag.BATTLE_OF_SEXES),  # AmbiguousRootError under eps_root
        ((14.0, -1.0, -16.0, -5.0), GameTag.CHICKEN),
        ((1e300, 1e200, 0.0, -1e200), GameTag.PRISONERS_DILEMMA),  # (b - d)^2 overflows
        ((1e-12, 0.0, -1.0, -2.0), GameTag.PRISONERS_DILEMMA),  # nearly a double root at 1
        ((10.0, 11.0, 1.0, -30.0), GameTag.STAG_HUNT),
        ((2.0, 3.0, 1.0, 0.0), GameTag.STAG_HUNT),
        ((5.0, 3.0, 4.0, 1.0), GameTag.TRANSLATORS),
        # a weight that adds two gaps overflows float64 unless the payoffs are scaled
        ((1.2622183693639228e-38, 9.260821095056685e307, -2.35849865450657e-96, -2.8327044581411546e119), GameTag.STAG_HUNT),
        ((9e307, 8e307, -8.5e307, 1e307), GameTag.CHICKEN),
        # gaps spanning more than float64: scaled by the largest weight, b - c would vanish
        ((4.110884694220435e171, -4.1283388468738405e-249, -1.0091951910674286e-191, -38708841235.31141), GameTag.PRISONERS_DILEMMA),
        ((6.777791567485758e290, -6.129433080487882e-118, -5.770351792813794e-26, -3.55925148837825e-97), GameTag.CHICKEN),
    ],
)
def test_balanced_p_is_the_high_precision_root(table, tag):
    est = balanced_p(PayoffTable2(*table))
    assert est.class_used.tag is tag
    assert est.p == pytest.approx(mp_balance_root(*table), rel=1e-15, abs=0.0)
    rows = np.array([(9.0, 8.0, 5.0, 2.0), table])
    assert _balanced_p_batch(*rows.T)[1] == est.p


def test_a_near_double_root_keeps_its_digits_in_the_two_sided_game():
    table = (1e-12, 0.0, -1.0, -2.0)
    want = mp_balance_root(*table)
    assert abs(want - 0.999999000001000001) < 1e-18
    px, py = balanced_p_asym(AsymmetricTable2(*table, *table))
    assert px.p == pytest.approx(want, rel=1e-15, abs=0.0)
    assert py.p == pytest.approx(want, rel=1e-15, abs=0.0)


def test_an_underflowing_discriminant_keeps_the_root():
    table = (6.494538561587685e-135, 2.4673574662583986e-253, 2.863414778051908e-254, 1.30252259684e-312)
    want = mp_balance_root(*table)
    assert want == pytest.approx(5.795e-60, rel=1e-3)
    est = balanced_p(PayoffTable2(*table))
    assert est.p == pytest.approx(want, rel=1e-12, abs=0.0)
    assert _balanced_p_batch(*np.array([table]).T)[0] == est.p


@pytest.mark.parametrize(
    "table, p",
    [
        # psi = 1e300 (q + p) against omega = 1e300 q + 1e-320 p: p = 1 - 1e-160
        ((1e-320, 0.0, -1e300, -2e300), 1.0),
        # psi = 1e-320 against omega = 1e300 p: p = sqrt(1e-320 / 1e300), subnormal
        ((1e300, 1e-320, 0.0, 0.0), 9.9999443357585e-311),
    ],
)
def test_a_weight_past_float64_of_the_others_gives_the_rounded_root(table, p):
    # scaling these weights to the size of the root's terms would overflow the other one
    assert balanced_p(PayoffTable2(*table)).p == p
    assert _balanced_p_batch(*np.array([table]).T)[0] == p


def test_the_batch_is_bitwise_the_scalar_path_across_float64():
    # log-uniform payoffs in +-[1e-320, 1e308]: subnormal roots, wide payoff
    # scales and gaps that span more than float64 can hold
    rng = np.random.default_rng(8)
    rows = 10.0 ** rng.uniform(-320.0, 308.0, (8000, 4)) * rng.choice([-1.0, 1.0], (8000, 4))
    rows = np.concatenate((rows, [(1.143525756716131e80, 4.47271290978775e-229, 0.0, -1.6288764421009996e84)]))
    rows = _classified(rows)
    assert len(rows) > 1000
    want = np.array([balanced_p(PayoffTable2(*r)).p for r in rows])
    got = _balanced_p_batch(*np.array(rows).T)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stable_quadratic_roots_normalise_without_changing_bits():
    rng = np.random.default_rng(3)
    for qa, qb, qc in rng.uniform(-10.0, 10.0, (2000, 3)).tolist():
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            continue
        s = math.sqrt(disc)
        t = -(qb + s) / 2.0 if qb >= 0.0 else -(qb - s) / 2.0
        assert _stable_quadratic_roots(qa, qb, qc) == tuple(sorted((t / qa, qc / t)))
    # unnormalised, qb * qb overflows and the roots came out as (-inf, 0.0)
    lo, hi = _stable_quadratic_roots(-1e300, 1e300, -1e250)
    assert (lo, hi) == pytest.approx((1e-50, 1.0), rel=1e-15)


def _mp_quadratic_roots(mp, qa, qb, qc):
    """Both roots of qa x^2 + qb x + qc, qa qc < 0, ascending, with 40 digits."""
    with mp.workdps(40):
        qa, qb, qc = mp.mpf(qa), mp.mpf(qb), mp.mpf(qc)
        t = -(qb + mp.sign(qb) * mp.sqrt(qb * qb - 4 * qa * qc)) / 2  # no cancellation
        return sorted((t / qa, qc / t))


def test_balanced_p_reports_roots_its_coefficients_span_past_float64():
    # normalised by its largest coefficient, the quadratic 1e300 p^2 + 1e-300 p
    # - 1e-300 lost its small coefficients, and the roots read (0.0, 0.0)
    mp = pytest.importorskip("mpmath")
    est = balanced_p(PayoffTable2(1e300, 1e-300, 0.0, 0.0))
    want = [float(r) for r in _mp_quadratic_roots(mp, 1e300, 1e-300, -1e-300)]
    assert est.roots == pytest.approx(want, rel=1e-15, abs=0.0)
    assert est.roots[1] == pytest.approx(1e-300, rel=1e-15, abs=0.0)


def test_stable_quadratic_roots_across_float64():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(3000):
        ma, mb, mc = (rng.uniform(0.5, 1.0, 3) * rng.choice([-1.0, 1.0], 3)).tolist()
        ea, eb, ec = rng.integers(-1070, 1020, 3).tolist()
        # qa and qc of opposite signs: two real roots
        qa, qb, qc = math.ldexp(ma, ea), math.ldexp(mb, eb), -math.copysign(math.ldexp(mc, ec), ma)
        want = _mp_quadratic_roots(mp, qa, qb, qc)
        if max(abs(w) for w in want) > 2.0**1000:
            continue  # a root that float64 cannot hold
        checked += 1
        got = _stable_quadratic_roots(qa, qb, qc)
        assert got == pytest.approx([float(w) for w in want], rel=1e-14, abs=2.0**-1000), (qa, qb, qc)
    assert checked > 1000


# ------------------------------------------------ the subdivision path


def _raised(w):
    """The same polynomial one degree up, by the factor p + q: S'_k = S_k + S_{k-1}."""
    return [s + r for s, r in zip(w + [0.0], [0.0] + w)]


def _two_sided_weights(table):
    """Per side, the composed weights ``balanced_p_asym`` hands the core."""
    x, y = table[:4], table[4:]
    out = []
    for (a, b, c, d), (a2, b2, c2, d2) in ((x, y), (y, x)):
        f, fab, cd = b - c, (b2 - c2) * (a - b), c - d
        out.append(([f * (b2 - d2), f * (a2 - c2)], [fab + (c2 - d2) * cd, fab + (a2 - b2) * cd]))
    return out


def _weight_pairs():
    rng = np.random.default_rng(5)
    pairs = []
    for row in _classified(_seeded_draws()[::8]):
        (s0, w0), (s1, w1) = (weights2(classify2(PayoffTable2(*row)).tag, *row, p) for p in (0.0, 1.0))
        pairs.append(([s0, s1], [w0, w1]))
    for _ in range(500):
        table = np.concatenate([np.sort(rng.uniform(0.0, 10.0, 4))[::-1] for _ in range(2)]).tolist()
        pairs += _two_sided_weights(table)
    for _ in range(500):  # n = 2 ladders
        ladder = np.sort(rng.uniform(0.0, 10.0, 4))[::-1].tolist()
        pairs.append(nplayer._ladder_bernstein(ladder))
    return pairs


def test_the_degree_two_rule_is_the_subdivision_path():
    for wpsi, womega in _weight_pairs():
        p, roots = nplayer._balance_root(wpsi, womega)
        assert p == _balance_root2(wpsi[0], wpsi[-1], womega[0], womega[-1])
        p3, roots3 = nplayer._balance_root(_raised(wpsi), _raised(womega))
        # Brent's method stops within 1e-15 + 8.9e-16 |p| of the root
        assert p3 == pytest.approx(p, rel=4e-15, abs=2e-15), (wpsi, womega)
        assert roots3 == pytest.approx(roots, rel=4e-15, abs=2e-15), (wpsi, womega)


def test_the_core_solves_degree_two_without_subdivision(monkeypatch):
    def no_brent(*args, **kwargs):
        raise AssertionError("a degree-2 balance polynomial reached Brent's method")

    monkeypatch.setattr(nplayer, "brentq", no_brent)
    assert balanced_pn([9, 8, 5, 2]).p == balanced_p(PayoffTable2(9, 8, 5, 2)).p
    px, py = balanced_p_asym(AsymmetricTable2(10, 7, 5, 1, 9, 8, 5, 2))
    assert 0.0 < px.p < 1.0 and 0.0 < py.p < 1.0


@pytest.mark.parametrize(
    "weights, p, roots",
    [
        (([1.0, 1.0], [1.0, 1.0]), 0.5, [0.5]),  # degree 1, raised to 2
        (([2.0, 3.0], [4.0, 0.0]), 2.0 / 3.0, [2.0 / 3.0, 1.0]),  # 1 repels
        (([2.0, 3.0], [1.0, 0.0]), 1.0, [1.0]),  # 1 attracts
        (([0.0, 1.0], [2.0, 4.0]), 0.0, [0.0]),  # 0 attracts
        (([0.0, 3.0], [1.0, 2.0]), 0.5, [0.0, 0.5]),  # 0 repels
        (([0.0, 1.0], [2.0, 0.0]), 0.0, [0.0, 1.0]),  # psi = p, omega = 2q
    ],
)
def test_the_degree_two_rule_at_the_ends(weights, p, roots):
    got, got_roots = nplayer._balance_root(*weights)
    assert got == pytest.approx(p, abs=1e-15)
    assert got_roots == pytest.approx(roots, abs=1e-15)


def test_the_identity_map_keeps_the_cores_error():
    # psi = p and omega = q: every p balances
    with pytest.raises(AmbiguousRootError) as err:
        nplayer._balance_root([0.0, 1.0], [1.0, 0.0])
    assert err.value.candidates == (0.0, 1.0)
    with pytest.raises(AmbiguousRootError):
        estimators._balance_root2(0.0, 1.0, 1.0, 0.0)
