"""Stable tail dependence functions: construction, values, margins, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tailmax import (
    Comonotone,
    EvaluationError,
    Independence,
    Logistic,
    MarshallOlkin,
    Mixture,
    SpecError,
    TawnTypeI,
    TawnTypeII,
    validate_stdf,
)

from _support import mo_stdf_value

# independently computed: 3 ** (1 / 1.59)
LOGISTIC_159_AT_ONES = 1.9956127079090119

ALL_FAMILIES = [
    Independence(3),
    Comonotone(3),
    Logistic(1.59, 3),
    Logistic(7.44, 3),
    MarshallOlkin((0.2, 0.5, 0.8)),
    TawnTypeI(s=2.48, r=1.0, theta=(1.0, 1.0, 0.25)),
    TawnTypeI(s=7.44, r=2.21, theta=(0.23, 0.23, 0.55)),
    TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74),
    Mixture(0.3, Logistic(2.0, 3), MarshallOlkin((0.2, 0.5, 0.8))),
]


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda: Independence(1),
        lambda: Logistic(0.99, 3),
        lambda: Logistic(float("nan"), 3),
        lambda: MarshallOlkin((0.2, 1.0 + 1e-12)),
        lambda: MarshallOlkin((-1e-12, 0.5)),
        lambda: MarshallOlkin((0.5,)),
        lambda: TawnTypeI(s=0.5, r=1.0, theta=(1, 1, 1)),
        lambda: TawnTypeI(s=2.0, r=1.0, theta=(1, 1, 1.2)),
        lambda: TawnTypeII(s=2.0, r=1.0, t=0.0, phi=0.5),
        lambda: TawnTypeII(s=2.0, r=1.0, t=1.0, phi=-0.1),
        lambda: Mixture(1.5, Independence(2), Comonotone(2)),
        lambda: Mixture(0.5, Independence(2), Comonotone(3)),
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(SpecError):
        build()


def test_marshall_olkin_boundary_constructor():
    m = MarshallOlkin((1.0, 1.0, 1.0))
    assert m.value([2.0, 3.0, 5.0]) == 5.0  # reduces to the max
    with pytest.raises(SpecError):
        MarshallOlkin((1.1, 0.5))


def test_corners_are_marshall_olkin():
    from tailmax import to_spec

    for build, a, family in ((Independence, 0.0, "independence"), (Comonotone, 1.0, "comonotone")):
        m = build(4)
        assert type(m) is MarshallOlkin
        assert m == MarshallOlkin((a,) * 4)
        assert m.family == family and m.params() == {}
        assert to_spec(m) == {"family": family, "dimension": 4, "params": {}}
    # any other point of the closed box is Marshall-Olkin
    m = MarshallOlkin((0.0, 1.0))
    assert m.family == "marshall_olkin" and m.params() == {"alpha": [0.0, 1.0]}
    with pytest.raises(SpecError, match="^dimension must be >= 2$"):
        Comonotone(1)


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def test_independence_is_sum():
    assert Independence(3).value([1.0, 1.0, 1.0]) == 3.0


def test_comonotone_is_max():
    assert Comonotone(3).value([2.0, 3.0, 5.0]) == 5.0


def test_logistic_at_ones():
    assert_allclose(Logistic(1.59, 3).value([1.0, 1.0, 1.0]), LOGISTIC_159_AT_ONES, rtol=1e-14)


def test_logistic_large_exponent_no_overflow():
    # raw powers would overflow; the max-factored power sum must not
    val = Logistic(500.0, 2).value([1e8, 1e8])
    assert_allclose(val, 1e8 * 2 ** (1 / 500.0), rtol=1e-12)


def test_marshall_olkin_matches_hand_formula():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        alpha = tuple(rng.uniform(0.05, 0.95, d))
        x = rng.uniform(0.1, 5.0, d)
        m = MarshallOlkin(alpha)
        assert_allclose(m.value(x), mo_stdf_value(alpha, x), rtol=1e-14)


def test_mixture_is_convex_combination():
    m = Mixture(0.5, Independence(3), Comonotone(3))
    x = [1.0, 2.0, 4.0]
    assert_allclose(m.value(x), 0.5 * 7.0 + 0.5 * 4.0, rtol=1e-15)


@pytest.mark.parametrize(
    "x",
    [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, -0.5, 2.0], [1.0, float("inf"), 2.0], [1.0, float("nan"), 2.0]],
)
def test_bad_points_rejected(x):
    with pytest.raises(EvaluationError):
        Logistic(2.0, 3).value(x)


# ---------------------------------------------------------------------------
# margins: l_S is l at the point with the coordinates outside S set to 0
# ---------------------------------------------------------------------------

def _zeroed(x, keep):
    return [v if j in keep else 0.0 for j, v in enumerate(x)]


def test_independence_margin_sums_over_subset():
    assert Independence(3).value(_zeroed([1.0, 2.0, 3.0], [0, 2])) == 4.0


def test_comonotone_singleton_margin():
    assert Comonotone(3).value(_zeroed([1.0, 2.0, 3.0], [1])) == 2.0


def test_marshall_olkin_margin_hand_value():
    m = MarshallOlkin((0.2, 0.5, 0.8))
    assert_allclose(m.value(_zeroed([1.0, 1.0, 1.0], [0, 1])), 1.8, rtol=1e-15)


def test_marshall_olkin_margin_matches_hand_formula():
    rng = np.random.default_rng(11)
    alpha = (0.3, 0.6, 0.2, 0.9)
    m = MarshallOlkin(alpha)
    for _ in range(30):
        x = rng.uniform(0.2, 3.0, 4)
        keep = rng.choice(4, size=int(rng.integers(1, 5)), replace=False).tolist()
        y = _zeroed(x, keep)
        assert_allclose(m.value(y), mo_stdf_value(alpha, y), rtol=1e-14)


@pytest.mark.parametrize("model", ALL_FAMILIES)
def test_singleton_margins_are_identity(model):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(0.1, 10.0, model.dim)
        for j in range(model.dim):
            assert abs(model.value(_zeroed(x, [j])) - x[j]) <= 1e-12 * max(1.0, x[j])


# ---------------------------------------------------------------------------
# bounds, homogeneity, batch consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_FAMILIES)
def test_bounds_and_homogeneity_sampled(model):
    rng = np.random.default_rng(17)
    X = np.exp(rng.uniform(-3.0, 3.0, size=(500, model.dim)))
    vals = model.value_batch(X)
    sums = X.sum(axis=1)
    maxs = X.max(axis=1)
    assert np.all(vals >= maxs - 1e-12 * np.maximum(1.0, sums))
    assert np.all(vals <= sums + 1e-12 * np.maximum(1.0, sums))
    for t in (0.1, 1.0, 10.0):
        tv = model.value_batch(t * X)
        assert np.all(np.abs(tv - t * vals) <= 1e-12 * np.maximum(1.0, t * vals))


@pytest.mark.parametrize("model", ALL_FAMILIES)
def test_batch_matches_scalar(model):
    rng = np.random.default_rng(23)
    X = np.exp(rng.uniform(-2.0, 2.0, size=(40, model.dim)))
    X[::7, 0] = 0.0  # include boundary points
    vals = model.value_batch(X)
    for row, expected in zip(X, vals):
        assert_allclose(model.value(row), expected, rtol=1e-13, atol=1e-300)


@given(
    s=st.floats(min_value=1.0, max_value=50.0),
    x=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=3, max_size=3),
    t=st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_logistic_homogeneity_property(s, x, t):
    m = Logistic(s, 3)
    lhs = m.value([t * v for v in x])
    rhs = t * m.value(x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(
    a=st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_marshall_olkin_bounds_property(a, data):
    x = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=len(a), max_size=len(a)
        )
    )
    m = MarshallOlkin(tuple(a))
    val = m.value(x)
    assert max(x) - 1e-12 * max(1.0, sum(x)) <= val <= sum(x) + 1e-12 * max(1.0, sum(x))


# ---------------------------------------------------------------------------
# family-specific identities
# ---------------------------------------------------------------------------

def test_tawn1_all_theta_one_equals_logistic():
    rng = np.random.default_rng(31)
    t1 = TawnTypeI(s=1.59, r=1.0, theta=(1.0, 1.0, 1.0))
    t2 = TawnTypeI(s=1.59, r=3.7, theta=(1.0, 1.0, 1.0))  # r must be inert here
    logi = Logistic(1.59, 3)
    for _ in range(50):
        x = rng.uniform(0.05, 8.0, 3)
        ref = logi.value(x)
        assert abs(t1.value(x) - ref) <= 1e-12 * max(1.0, ref)
        assert t1.value(x) == t2.value(x)


def test_tawn2_phi_one_ignores_t():
    rng = np.random.default_rng(37)
    models = [TawnTypeII(s=1.59, r=1.27, t=t, phi=1.0) for t in (1.0, 2.5, 7.44)]
    for _ in range(50):
        x = rng.uniform(0.05, 8.0, 3).tolist()
        vals = {m.value(x) for m in models}
        assert len(vals) == 1


def test_tawn_zero_sum_point():
    assert TawnTypeI(s=2.0, r=1.5, theta=(0.5, 0.5, 0.5)).value([0.0, 0.0, 0.0]) == 0.0
    assert TawnTypeII(s=2.0, r=1.5, t=2.0, phi=0.5).value([0.0, 0.0, 0.0]) == 0.0


def _pnorm(vs, p):
    m = max(vs)
    return 0.0 if m == 0.0 else m * sum((v / m) ** p for v in vs) ** (1.0 / p)


def _tawn1_on_weights(m, x):
    """The T-normalised Tawn I formula of the class docstring."""
    T = sum(x)
    if T == 0.0:
        return 0.0
    (t1, t2, t3), (w1, w2, w3) = m.theta, (v / T for v in x)
    return T * ((1.0 - t3) * w3 + _pnorm(((1.0 - t1) * w1, (1.0 - t2) * w2), m.r)
                + _pnorm((t1 * w1, t2 * w2, t3 * w3), m.s))


def _tawn2_on_weights(m, x):
    """The T-normalised Tawn II formula of the class docstring."""
    T = sum(x)
    if T == 0.0:
        return 0.0
    w1, w2, w3 = (v / T for v in x)
    nested = ((w1 ** (m.r * m.s) + w2 ** (m.r * m.s)) ** (1.0 / m.r) + w3 ** m.s) ** (1.0 / m.s)
    return T * (m.phi * nested + (1.0 - m.phi) * ((w1 ** m.t + w2 ** m.t) ** (1.0 / m.t) + w3))


@pytest.mark.parametrize("model, reference", [
    (TawnTypeI(s=2.48, r=1.0, theta=(1.0, 1.0, 0.25)), _tawn1_on_weights),
    (TawnTypeI(s=7.44, r=2.21, theta=(0.23, 0.23, 0.55)), _tawn1_on_weights),
    (TawnTypeI(s=1.0, r=40.0, theta=(0.0, 0.7, 1.0)), _tawn1_on_weights),
    (TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74), _tawn2_on_weights),
    (TawnTypeII(s=1.0, r=1.0, t=1.0, phi=0.5), _tawn2_on_weights),
    (TawnTypeII(s=6.3, r=4.1, t=1.2, phi=1.0), _tawn2_on_weights),
    (TawnTypeII(s=1.2, r=2.5, t=30.0, phi=0.0), _tawn2_on_weights),
])
def test_tawn_homogeneous_form_matches_weight_form(model, reference):
    X = np.exp(np.random.default_rng(43).uniform(-3.0, 3.0, (1000, 3)))
    zeros = np.array([[0.0, 0.0, 0.0], [0.0, 1.3, 2.1], [0.7, 0.0, 4.0], [2.2, 0.9, 0.0],
                      [0.0, 0.0, 3.3], [0.0, 1.1, 0.0], [5.0, 0.0, 0.0]])
    X = np.vstack([X, zeros])
    ref = [reference(model, x) for x in X.tolist()]
    assert_allclose([model.value(x) for x in X], ref, rtol=1e-14, atol=0.0)
    assert_allclose(model.value_batch(X), ref, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# randomized self-check
# ---------------------------------------------------------------------------

def test_validate_passes_for_valid_families():
    for model in [
        Logistic(2.0, 2),
        TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74),
        Mixture(0.5, Independence(2), Comonotone(2)),
    ]:
        rep = validate_stdf(model, samples=1000, seed=42)
        assert rep.passed, rep


def test_validate_flags_a_broken_model():
    class Broken(Logistic):
        def _value_batch(self, X):
            return super()._value_batch(X) * 1.01  # breaks the upper bound at s=1

    rep = validate_stdf(Broken(1.0, 2), samples=200, seed=1)
    assert not rep.passed


def test_validate_rejects_zero_samples():
    with pytest.raises(EvaluationError):
        validate_stdf(Independence(2), samples=0, seed=0)
