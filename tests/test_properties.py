"""Property-based invariants over randomized tables.

The heavyweight randomized sweeps (1e4 tables per class) live in the
acceptance module; here hypothesis shrinks counterexamples for the same
invariants at a friendlier example count.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cooprob import (
    AsymmetricTable2,
    AttritionSpec,
    CooprobError,
    GameTag,
    PayoffTable2,
    PublicGoodsSpec,
    TravelerSpec,
    attrition_distribution,
    attrition_pij,
    balanced_p,
    balanced_p_asym,
    classify2,
    equiprobability,
    iterate2,
    phi_chi,
    public_goods_distribution,
    traveler_distribution,
)
from cooprob.estimators import _balanced_p_batch
from conftest import CLASS_PATTERNS

CLASS_TAGS = sorted(CLASS_PATTERNS, key=lambda t: t.value)


@st.composite
def strict_quads(draw):
    """Four strictly separated payoffs, descending, built constructively."""
    base = draw(st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False))
    gaps = [draw(st.floats(0.05, 25.0)) for _ in range(3)]
    w0 = base + gaps[0] + gaps[1] + gaps[2]
    w1 = base + gaps[1] + gaps[2]
    w2 = base + gaps[2]
    return (w0, w1, w2, base)


def table_for(tag: GameTag, quad) -> PayoffTable2:
    cols = CLASS_PATTERNS[tag]
    return PayoffTable2(*(quad[i] for i in cols))


@pytest.mark.parametrize("tag", CLASS_TAGS)
@given(quad=strict_quads())
@settings(max_examples=120, deadline=None)
def test_classification_matches_the_sampled_pattern(tag, quad):
    t = table_for(tag, quad)
    cls = classify2(t)
    assert cls.tag is tag
    assert not cls.boundary_flags


@pytest.mark.parametrize("tag", CLASS_TAGS)
@given(quad=strict_quads(), offset=st.floats(-30.0, 30.0), factor=st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_balanced_p_invariant_under_translation_and_scaling(tag, quad, offset, factor):
    t = table_for(tag, quad)
    p = balanced_p(t).p
    assert 0.0 <= p <= 1.0
    assert balanced_p(t.translated(offset)).p == pytest.approx(p, abs=1e-9)
    assert balanced_p(t.scaled(factor)).p == pytest.approx(p, abs=1e-9)


@pytest.mark.parametrize("tag", CLASS_TAGS)
@given(quad=strict_quads())
@settings(max_examples=100, deadline=None)
def test_estimate_is_a_probability_pair(tag, quad):
    est = balanced_p(table_for(tag, quad))
    assert 0.0 <= est.p <= 1.0
    assert est.p + est.q == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("tag", CLASS_TAGS)
@given(quad=strict_quads(), p=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_weights_are_nonnegative_for_every_class(tag, quad, p):
    t = table_for(tag, quad)
    w = phi_chi(t, p)
    assert w.phi >= 0.0
    assert w.chi >= 0.0


@given(quad=strict_quads())
@settings(max_examples=100, deadline=None)
def test_dilemma_root_is_the_positive_branch(quad):
    a, b, c, d = quad
    scale = a - d
    assume(abs(a - b - c + d) > 0.01 * scale)
    est = balanced_p(PayoffTable2(a, b, c, d))
    disc = (b - d) ** 2 + 4.0 * (b - c) * (a - b - c + d)
    plus_branch = 2.0 * (b - c) / (math.sqrt(disc) + (b - d))
    assert est.p == pytest.approx(plus_branch, abs=1e-12 * max(1.0, abs(plus_branch)))


@given(quad=strict_quads())
@settings(max_examples=100, deadline=None)
def test_dilemma_sign_test_matches_the_estimate(quad):
    a, b, c, d = quad
    gap = 3.0 * (b - c) - (a - d)
    assume(abs(gap) > 0.01 * (a - d))
    t = PayoffTable2(a, b, c, d)
    assert (balanced_p(t).p > 0.5) == (gap > 0.0)
    assert (equiprobability(t).gap > 0.0) == (gap > 0.0)


# small integers give ties on class boundaries; huge floats overflow
payoffs = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-100.0, 100.0),
    st.floats(-1e300, 1e300),
)


@given(row=st.tuples(payoffs, payoffs, payoffs, payoffs))
@settings(max_examples=400, deadline=None)
def test_balanced_p_batch_matches_the_scalar_path_or_its_error(row):
    try:
        want = balanced_p(PayoffTable2(*row)).p
    except (CooprobError, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            _balanced_p_batch(*np.array([row]).T)
        assert got.type is type(exc)
        return
    got = _balanced_p_batch(*np.array([row]).T)
    assert got.view(np.uint64).tolist() == [np.float64(want).view(np.uint64)]


@given(quad=strict_quads())
@settings(max_examples=60, deadline=None)
def test_oracle_confirms_the_dilemma_closed_form(quad):
    t = PayoffTable2(*quad)
    closed = balanced_p(t).p
    for p0 in (0.0, 0.5, 1.0):
        trace = iterate2(t, p0=p0)
        assert trace.converged
        assert trace.limit == pytest.approx(closed, abs=1e-9)


@given(quad=strict_quads())
@settings(max_examples=60, deadline=None)
def test_asym_on_symmetric_input_matches_symmetric_solver(quad):
    a, b, c, d = quad
    sym = balanced_p(PayoffTable2(a, b, c, d)).p
    ex, ey = balanced_p_asym(AsymmetricTable2(a, b, c, d, a, b, c, d))
    assert ex.p == pytest.approx(sym, abs=1e-12)
    assert ey.p == pytest.approx(sym, abs=1e-12)


@st.composite
def tied_dilemma_quads(draw):
    """a > b > c >= d from small integers or floats up to 1e3, ties c = d
    included, unlike strict_quads. Gaps of at least 1e-3 keep balanced_p away
    from a - b -> 0, where its root nears a double root at 1 and loses digits."""
    gap = st.one_of(st.integers(1, 9).map(float), st.floats(1e-3, 1e3))
    d = draw(st.one_of(st.integers(-9, 9).map(float), st.floats(-1e3, 1e3)))
    c = d + draw(st.one_of(st.just(0.0), gap))
    b = c + draw(gap)
    return b + draw(gap), b, c, d


@given(quad=tied_dilemma_quads())
@settings(max_examples=300, deadline=None)
def test_asym_of_a_table_against_itself_is_the_symmetric_balance(quad):
    sym = balanced_p(PayoffTable2(*quad)).p
    ex, ey = balanced_p_asym(AsymmetricTable2(*quad, *quad))
    assert ex.p == pytest.approx(sym, abs=1e-12)
    assert ey.p == pytest.approx(sym, abs=1e-12)


@given(
    k=st.floats(1.01, 1.99),
    options=st.integers(1, 40),
)
@settings(max_examples=80, deadline=None)
def test_public_goods_distribution_sums_to_one(k, options):
    dist = public_goods_distribution(PublicGoodsSpec(r=100.0, k=k, options=options))
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= 0.0 for p in dist.probabilities)


@given(
    r=st.floats(10.0, 300.0),
    t=st.floats(1.0, 5.0),
    steps=st.integers(1, 60),
)
@settings(max_examples=60, deadline=None)
def test_traveler_distribution_sums_to_one(r, t, steps):
    spec = TravelerSpec(r=r, s=5.0, t=t, steps=steps)
    dist = traveler_distribution(spec)
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
    assert dist.total == pytest.approx(steps * (steps + 1) / 2.0, abs=1e-9)


@given(x=st.floats(0.5, 10.0), max_bid=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_attrition_distribution_sums_to_one(x, max_bid):
    for mode in ("paper", "dispatch"):
        dist = attrition_distribution(AttritionSpec(x=x, max_bid=max_bid), mode=mode)
        assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)


def test_attrition_concession_grows_with_the_gap():
    spec = AttritionSpec(x=2.0, max_bid=64)
    ps = [attrition_pij(spec, d, 0, mode="paper") for d in range(1, 65)]
    assert all(x < y for x, y in zip(ps, ps[1:]))
    assert all(0.0 < p < 1.0 for p in ps)


def test_equiprobability_gap_scales_linearly():
    rng = np.random.default_rng(11)
    for _ in range(50):
        vals = np.sort(rng.uniform(-20, 20, 4))[::-1]
        t = PayoffTable2(*vals)
        gap = equiprobability(t).gap
        assert equiprobability(t.translated(7.5)).gap == pytest.approx(gap, abs=1e-9)
        assert equiprobability(t.scaled(3.0)).gap == pytest.approx(3.0 * gap, abs=1e-9)
