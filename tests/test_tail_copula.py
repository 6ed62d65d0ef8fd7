"""Tail copula evaluation: routes, bounds, identities, index calculus."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tailmax import (
    Archimax,
    Comonotone,
    EvaluationError,
    Independence,
    Logistic,
    MarshallOlkin,
    Mixture,
    MixtureTail,
    NacCopula,
    NacTree,
    SpecError,
    SurvivalEvc,
    TawnTypeI,
    TawnTypeII,
    rv_index,
)

from _support import mo_tail_value, naive_survival_tail

TC_MODELS = [
    SurvivalEvc(Logistic(1.59, 3)),
    SurvivalEvc(MarshallOlkin((0.2, 0.5, 0.8))),
    SurvivalEvc(TawnTypeI(s=7.44, r=2.21, theta=(0.23, 0.23, 0.55))),
    SurvivalEvc(TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74)),
    Archimax(MarshallOlkin((0.3, 0.7)), alpha=1.2),
    Archimax(Independence(3), 0.7),
    NacCopula(NacTree.from_dict({"alpha": 2.0, "children": [{"leaf": 1}, {"alpha": 1.0, "children": [{"leaf": 2}, {"leaf": 3}]}]})),
    MixtureTail(0.4, Archimax(Independence(3), 0.5), SurvivalEvc(Logistic(2.0, 3))),
    SurvivalEvc(Mixture(0.4, MarshallOlkin((0.3, 0.6, 0.8, 0.5)), MarshallOlkin((0.7, 0.2, 0.4, 0.9)))),
    SurvivalEvc(Logistic(1.8, 6)),
    SurvivalEvc(Logistic(200.0, 5)),
]


# ---------------------------------------------------------------------------
# reference point values
# ---------------------------------------------------------------------------

def test_survival_comonotone_is_min():
    assert_allclose(SurvivalEvc(Comonotone(3)).value([2.0, 3.0, 5.0]), 2.0, rtol=1e-14)


def test_survival_independence_is_zero():
    # the Marshall-Olkin corner a = 0: min_j 0 * x_j, with no round-off
    tc = SurvivalEvc(Independence(4))
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert tc.value(rng.uniform(0.1, 5.0, 4)) == 0.0


def test_survival_logistic_diagonal_reference():
    val = SurvivalEvc(Logistic(1.59, 3)).diagonal()
    assert abs(val - 0.356) <= 1e-3


def test_archimedean_unit_alpha_pair():
    assert_allclose(Archimax(Independence(2), 1.0).value([1.0, 1.0]), 0.5, rtol=1e-15)


def test_archimedean_diagonal_power_law():
    for alpha in (0.3, 1.0, 2.5):
        for d in (2, 3, 5):
            assert_allclose(Archimax(Independence(d), alpha).diagonal(), d ** -alpha, rtol=1e-13)


def test_comonotone_tdc_is_one():
    assert_allclose(SurvivalEvc(Comonotone(3)).diagonal(), 1.0, rtol=1e-14)


# ---------------------------------------------------------------------------
# survival route vs independent oracles
# ---------------------------------------------------------------------------

def test_survival_mo_equals_min_closed_form():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4, 5):
        for _ in range(25):
            alpha = tuple(rng.uniform(0.05, 0.95, d))
            x = rng.uniform(0.1, 5.0, d)
            got = SurvivalEvc(MarshallOlkin(alpha)).value(x)
            assert abs(got - mo_tail_value(alpha, x)) <= 1e-12


@pytest.mark.parametrize(
    "stdf",
    [
        Logistic(1.59, 3),
        MarshallOlkin((0.2, 0.5, 0.8)),
        TawnTypeI(s=2.48, r=1.0, theta=(1.0, 1.0, 0.25)),
        TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74),
        Mixture(0.5, Logistic(3.0, 4), MarshallOlkin((0.4, 0.2, 0.9, 0.6))),
        *(Logistic(s, d) for d in (5, 6, 8) for s in (1.0, 200.0)),
        MarshallOlkin.with_boundary((0.0, 1.0, 0.5, 1.0)),
        MarshallOlkin.with_boundary((1.0, 1.0, 1.0)),
        Mixture(
            0.3,
            Mixture(0.6, MarshallOlkin((0.2, 0.5, 0.8)), Logistic(2.5, 3)),
            Mixture(0.5, TawnTypeI(s=7.44, r=2.21, theta=(0.23, 0.23, 0.55)), MarshallOlkin((0.7, 0.4, 0.3))),
        ),
        TawnTypeI(s=2.48, r=1.5, theta=(0.6, 0.0, 0.4)),  # a zero weight: L = 0
        TawnTypeI(s=2.48, r=1.5, theta=(1.0, 1.0, 1.0)),  # the logistic, exponent s
        TawnTypeII(s=1.59, r=1.27, t=3.0, phi=0.0),  # L = 0
        TawnTypeII(s=1.59, r=1.27, t=3.0, phi=1.0),
    ],
)
def test_survival_route_matches_naive_subset_sum(stdf):
    rng = np.random.default_rng(19)
    tc = SurvivalEvc(stdf)
    X = rng.uniform(0.1, 4.0, (20, stdf.dim))
    # far-out points: coordinate ratios up to e^20
    far = np.exp(rng.uniform(-20.0, 0.0, (20, stdf.dim)))
    far[0] = 1.0
    far[0, 0] = math.exp(-20.0)
    X = np.vstack([X, far])
    naive = [naive_survival_tail(stdf, x) for x in X]
    assert_allclose([tc.value(x) for x in X], naive, atol=1e-12)
    assert_allclose(tc.value_batch(X), naive, atol=1e-12)


def test_survival_tawn_identities():
    x = [0.7, 1.9, 1.3]
    assert SurvivalEvc(TawnTypeI(s=2.48, r=1.5, theta=(0.6, 0.0, 0.4))).value(x) == 0.0
    assert SurvivalEvc(TawnTypeII(s=1.59, r=1.27, t=3.0, phi=0.0)).value(x) == 0.0
    assert_allclose(
        SurvivalEvc(TawnTypeI(s=2.48, r=1.5, theta=(1.0, 1.0, 1.0))).value(x),
        SurvivalEvc(Logistic(2.48, 3)).value(x),
        rtol=1e-15,
    )
    # t_j x_j can underflow to 0 on a positive point: L = 0 on both paths
    tc = SurvivalEvc(TawnTypeI(s=2.48, r=1.5, theta=(1.0, 1.0, 0.3)))
    X = np.array([[5e-324] * 3, [1.0, 1.0, 5e-324], [1.0, 2.0, 3.0]])
    assert_allclose(tc.value_batch(X), [tc.value(x) for x in X], rtol=1e-15, atol=0.0)
    assert list(tc.value_batch(X)[:2]) == [0.0, 0.0]


def _exact_survival_tawn2(m, x):
    """phi times the survival nested logistic, in 60-digit decimals."""
    getcontext().prec = 60
    s, rs = Decimal(m.s), Decimal(m.r * m.s)

    def norm(vs, p):
        return sum(Decimal(v) ** p for v in vs) ** (1 / p)

    x1, x2, x3 = (Decimal(v) for v in x)
    u = norm((x1, x2), rs)
    return float(Decimal(m.phi) * (x1 + x2 + x3 - u - norm((x1, x3), s) - norm((x2, x3), s)
                                   + norm((u, x3), s)))


def test_survival_tawn2_far_out_on_its_line():
    # x3 dwarfs x1 = x2: the value is far below the round-off of the margins
    m = TawnTypeII(s=1.0 + 1e-7, r=2.2, t=4.0, phi=0.6)
    tc, x = SurvivalEvc(m), (6.8e-6, 6.8e-6, 2.1e10)
    bound = m.phi * SurvivalEvc(Logistic(m.s, 2)).value((x[0], x[2]))
    exact = _exact_survival_tawn2(m, x)
    for v in (tc.value(x), float(tc.value_batch([x])[0])):
        assert v <= bound
        assert_allclose(v, exact, rtol=1e-8)


def test_survival_logistic_sorts_wide_points():
    # unsorted, (x_j / x_i)^200 overflows for x_j > x_i on points this spread
    stdf = Logistic(200.0, 6)
    tc = SurvivalEvc(stdf)
    X = np.exp(np.random.default_rng(23).uniform(-20.0, 20.0, (20, 6)))
    naive = [naive_survival_tail(stdf, x) for x in X]
    assert_allclose([tc.value(x) for x in X], naive, atol=1e-12)
    assert_allclose(tc.value_batch(X), naive, atol=1e-12)


def test_archimax_comonotone_is_min_for_any_alpha():
    rng = np.random.default_rng(41)
    for alpha in (0.2, 1.0, 4.0):
        tc = Archimax(Comonotone(3), alpha)
        for _ in range(30):
            x = rng.uniform(0.05, 10.0, 3)
            assert abs(tc.value(x) - min(x)) <= 1e-12 * max(1.0, min(x))


def test_mixture_tail_is_convex_combination():
    first = Archimax(Independence(3), 0.5)
    second = SurvivalEvc(Logistic(2.0, 3))
    mix = MixtureTail(0.25, first, second)
    rng = np.random.default_rng(43)
    for _ in range(30):
        x = rng.uniform(0.1, 5.0, 3)
        expected = 0.25 * first.value(x) + 0.75 * second.value(x)
        assert mix.value(x) == expected


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", TC_MODELS)
def test_min_bound_and_monotonicity(model):
    rng = np.random.default_rng(47)
    X = np.exp(rng.uniform(-2.5, 2.5, size=(400, model.dim)))
    vals = model.value_batch(X)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= X.min(axis=1) + 1e-12)
    Y = X + rng.uniform(0.0, 1.0, X.shape)
    assert np.all(model.value_batch(Y) >= vals - 1e-12)


@pytest.mark.parametrize("model", TC_MODELS)
def test_homogeneity_and_lipschitz(model):
    rng = np.random.default_rng(53)
    X = np.exp(rng.uniform(-2.0, 2.0, size=(300, model.dim)))
    vals = model.value_batch(X)
    for t in (0.5, 2.0):
        tv = model.value_batch(t * X)
        assert np.all(np.abs(tv - t * vals) <= 1e-10 * np.maximum(1.0, t * vals))
    Y = np.exp(rng.uniform(-2.0, 2.0, size=(300, model.dim)))
    lhs = np.abs(model.value_batch(Y) - vals)
    assert np.all(lhs <= np.abs(Y - X).sum(axis=1) + 1e-12)


@pytest.mark.parametrize("model", TC_MODELS)
def test_zero_coordinate_gives_zero(model):
    x = [1.0] * model.dim
    x[0] = 0.0
    assert model.value(x) == 0.0
    if isinstance(model, SurvivalEvc):
        # the search calls _value without the zero check, and exp can underflow there
        x[1] = math.exp(-800.0)
        assert 0.0 <= model._value(x) <= 1e-15


@pytest.mark.parametrize("model", TC_MODELS)
def test_batch_matches_scalar(model):
    rng = np.random.default_rng(59)
    X = np.exp(rng.uniform(-2.0, 2.0, size=(50, model.dim)))
    vals = model.value_batch(X)
    for row, expected in zip(X, vals):
        assert_allclose(model.value(row), expected, rtol=1e-12, atol=1e-300)


def test_rejects_negative_and_nonfinite():
    tc = SurvivalEvc(Logistic(2.0, 3))
    with pytest.raises(EvaluationError):
        tc.value([1.0, -1.0, 1.0])
    with pytest.raises(EvaluationError):
        tc.value([1.0, float("nan"), 1.0])
    with pytest.raises(EvaluationError):
        tc.value([1.0, 1.0])


def test_survival_dimension_cap():
    # only a route that enumerates the 2^d - 1 subsets is capped
    with pytest.raises(SpecError):
        SurvivalEvc(Logistic(2.0, 21))
    with pytest.raises(SpecError):
        SurvivalEvc(Mixture(0.5, Independence(21), Logistic(2.0, 21)))
    SurvivalEvc(Logistic(2.0, 20))  # at the cap: fine
    SurvivalEvc(Independence(21))
    SurvivalEvc(Mixture(0.5, MarshallOlkin((0.5,) * 21), Comonotone(21)))
    assert SurvivalEvc(MarshallOlkin((0.5,) * 21)).diagonal() == 0.5


def test_survival_flags_inconsistent_margins():
    # a deliberately broken "function" whose full-set value is inflated makes
    # the alternating sum land far below zero: that is a bug, not round-off
    # a subclass of the independence corner: routed by exact type, it takes
    # the generic subset sum of its (altered) margins
    class Inconsistent(MarshallOlkin):
        def _value(self, xs):
            full = all(v > 0.0 for v in xs)
            return (2.0 if full else 1.0) * super()._value(xs)

        def _value_batch(self, X):
            full = np.all(X > 0.0, axis=1)
            return np.where(full, 2.0, 1.0) * super()._value_batch(X)

    tc = SurvivalEvc(Inconsistent.with_boundary((0.0, 0.0)))
    from tailmax import NumericalError

    with pytest.raises(NumericalError):
        tc.value([1.0, 1.0])
    with pytest.raises(NumericalError):
        tc.value_batch(np.array([[1.0, 1.0]]))


# ---------------------------------------------------------------------------
# regular-variation index calculus
# ---------------------------------------------------------------------------

def test_rv_index_clayton():
    assert rv_index({"kind": "clayton", "theta": 2.0}) == 0.5


def test_rv_index_outer_power():
    desc = {"kind": "outer_power", "base": {"kind": "clayton", "theta": 2.0}, "beta": 2.0}
    assert rv_index(desc) == 0.25


def test_rv_index_inner_power():
    desc = {"kind": "inner_power", "base": {"kind": "clayton", "theta": 2.0}, "gamma": 0.5}
    assert rv_index(desc) == 1.0


def test_rv_index_tilted_clayton_ignores_c():
    for c in (0.0, 1.0, 9.0):
        assert rv_index({"kind": "tilted_clayton", "theta": 2.0, "beta": 4.0, "c": c}) == 0.125


def test_rv_index_shifted_clayton_ignores_h():
    for h in (0.0, 7.0):
        assert rv_index({"kind": "shifted_clayton", "theta": 2.0, "h": h}) == 0.5


def test_rv_index_nested_transforms_compose():
    desc = {
        "kind": "outer_power",
        "beta": 3.0,
        "base": {"kind": "inner_power", "gamma": 0.25, "base": {"kind": "clayton", "theta": 2.0}},
    }
    assert_allclose(rv_index(desc), (0.5 / 0.25) / 3.0, rtol=1e-15)


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "clayton", "theta": 0.0},
        {"kind": "clayton", "theta": -1.0},
        {"kind": "inner_power", "base": {"kind": "clayton", "theta": 1.0}, "gamma": 1.5},
        {"kind": "outer_power", "base": {"kind": "clayton", "theta": 1.0}, "beta": 0.5},
        {"kind": "tilted_clayton", "theta": 1.0, "beta": 0.9, "c": 1.0},
        {"kind": "tilted_clayton", "theta": 1.0, "beta": 2.0, "c": -1.0},
        {"kind": "shifted_clayton", "theta": 1.0, "h": -2.0},
        {"kind": "unknown_thing"},
        "not a mapping",
    ],
)
def test_rv_index_rejects_bad_descriptors(desc):
    with pytest.raises(SpecError):
        rv_index(desc)
