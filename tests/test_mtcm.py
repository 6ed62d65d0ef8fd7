"""Closed forms, direct search, grid oracle, dispatch and result contracts."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tailmax import (
    Archimax,
    Comonotone,
    Diagnostics,
    EvaluationError,
    Independence,
    Logistic,
    MarshallOlkin,
    Mixture,
    MixtureTail,
    MtcmResult,
    NacCopula,
    NacTree,
    NumericalError,
    OptimizerConfig,
    SpecError,
    SurvivalEvc,
    TawnTypeI,
    TawnTypeII,
    archimax_mtcm,
    closed_form_mo,
    closed_form_mo_mixture,
    dispatch,
    grid_oracle,
    is_exchangeable,
    optimize,
)

from tailmax.mtcm import _nelder_mead, _pruned_objective

from _support import mo_mtcm

# independently computed: (0.2 * 0.5 * 0.8) ** (1/3) and lam / alpha_j
MO_LAMBDA = 0.43088693800637674
MO_B = (2.1544346900318837, 0.8617738760127535, 0.5386086725079716)

NESTED_PAIR = NacTree.from_dict(
    {"alpha": 2.0, "children": [{"leaf": 1}, {"alpha": 1.0, "children": [{"leaf": 2}, {"leaf": 3}]}]}
)

FAST = OptimizerConfig(starts=6)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_mo_frozen_values():
    r = closed_form_mo((0.2, 0.5, 0.8))
    assert r.method == "closed_mo"
    assert_allclose(r.lambda_star, MO_LAMBDA, rtol=1e-14)
    assert_allclose(r.b_star, MO_B, rtol=1e-14)


def test_closed_mo_symmetric_cases():
    r = closed_form_mo((0.6, 0.6, 0.6))
    assert_allclose(r.lambda_star, 0.6, rtol=1e-14)
    assert_allclose(r.b_star, (1.0, 1.0, 1.0), rtol=1e-14)
    r2 = closed_form_mo((0.5, 0.5))
    assert_allclose(r2.lambda_star, 0.5, rtol=1e-15)


def test_closed_mo_matches_hand_formula():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        alpha = tuple(rng.uniform(0.05, 0.95, d))
        lam, b = mo_mtcm(alpha)
        r = closed_form_mo(alpha)
        assert_allclose(r.lambda_star, lam, rtol=1e-13)
        assert_allclose(r.b_star, b, rtol=1e-13)


def test_closed_mo_covers_closed_box():
    for alpha in ((0.5,), (0.5, 1.1), (-0.1, 0.5), (0.5, float("nan"))):
        with pytest.raises(SpecError):
            closed_form_mo(alpha)
    r = closed_form_mo((0.5, 1.0))
    assert_allclose(r.lambda_star, math.sqrt(0.5), rtol=1e-15)
    assert_allclose(r.b_star, (math.sqrt(2.0), math.sqrt(0.5)), rtol=1e-15)
    # a zero parameter makes L vanish everywhere
    r = closed_form_mo((0.0, 0.5))
    assert r.method == "closed_mo"
    assert r.lambda_star == 0.0
    assert r.b_star == (1.0, 1.0)


def test_archimax_exchangeable_closed_forms():
    for alpha in (0.5, 1.0, 2.0):
        for d in (2, 3, 5):
            r = archimax_mtcm(Independence(d), alpha)
            assert r.method == "closed_archimax_exchangeable"
            assert_allclose(r.lambda_star, d ** -alpha, rtol=1e-13)
            assert r.b_star == (1.0,) * d
    r = archimax_mtcm(Comonotone(3), 1.7)
    assert_allclose(r.lambda_star, 1.0, rtol=1e-15)
    assert r.b_star == (1.0, 1.0, 1.0)


def test_archimax_logistic_closed_form():
    r = archimax_mtcm(Logistic(1.59, 3), 0.8)
    assert_allclose(r.lambda_star, (3 ** (1 / 1.59)) ** -0.8, rtol=1e-13)


def test_is_exchangeable_detection():
    assert is_exchangeable(Logistic(2.0, 3))
    assert is_exchangeable(MarshallOlkin((0.4, 0.4, 0.4)))
    assert not is_exchangeable(MarshallOlkin((0.4, 0.5, 0.4)))
    assert is_exchangeable(TawnTypeI(s=2.0, r=1.0, theta=(1.0, 1.0, 1.0)))
    assert not is_exchangeable(TawnTypeI(s=2.0, r=2.0, theta=(0.5, 0.5, 0.5)))
    assert is_exchangeable(TawnTypeII(s=2.0, r=1.0, t=3.0, phi=1.0))
    assert not is_exchangeable(TawnTypeII(s=2.0, r=1.3, t=3.0, phi=1.0))


def test_archimax_asymmetric_route_vs_oracle():
    model = Archimax(MarshallOlkin((0.2, 0.5, 0.8)), alpha=1.0)
    r = archimax_mtcm(model.stdf, model.alpha, config=FAST)
    assert r.method == "optimizer"
    o = grid_oracle(model, 201, math.log(10.0))
    assert abs(r.lambda_star - o.lambda_star) <= 1e-3
    # the maximizer must actually attain the value
    assert abs(model.value(r.b_star) - r.lambda_star) <= 1e-9


def _non_exchangeable_archimax_cases():
    rng = np.random.default_rng(2031)

    def mo(d):
        return MarshallOlkin(tuple(rng.uniform(0.05, 0.95, d)))

    stdfs = []
    for d in (3, 4):
        stdfs += [
            mo(d),
            Mixture(rng.uniform(0.1, 0.9), Logistic(rng.uniform(1.0, 4.0), d), mo(d)),
            Mixture(rng.uniform(0.1, 0.9), mo(d), mo(d)),
        ]
    for _ in range(2):
        stdfs.append(TawnTypeI(s=rng.uniform(1.0, 8.0), r=rng.uniform(1.0, 3.0),
                               theta=tuple(rng.uniform(0.0, 1.0, 3))))
        stdfs.append(TawnTypeII(s=rng.uniform(1.0, 4.0), r=rng.uniform(1.01, 3.0),
                                t=rng.uniform(1.0, 8.0), phi=rng.uniform(0.0, 1.0)))
    return [
        pytest.param(stdf, float(rng.uniform(0.3, 2.5)), id=f"{type(stdf).__name__}-d{stdf.dim}-{i}")
        for i, stdf in enumerate(stdfs)
    ]


@pytest.mark.parametrize("stdf, alpha", _non_exchangeable_archimax_cases())
def test_archimax_single_start_matches_direct_search(stdf, alpha):
    # x -> l(e^x) is convex, so one start from the diagonal finds the maximum
    # that the multi-start search of the tail copula itself finds
    assert not is_exchangeable(stdf)
    r = archimax_mtcm(stdf, alpha)
    assert r.method == "optimizer"
    assert r.diagnostics.starts_used == 1
    direct = optimize(Archimax(stdf, alpha), OptimizerConfig(starts=8))
    assert abs(r.lambda_star - direct.lambda_star) <= 1e-7
    assert abs(Archimax(stdf, alpha).value(r.b_star) - r.lambda_star) <= 1e-9


def test_archimax_large_alpha_keeps_unit_product():
    # b* = b_h ** alpha multiplies the round-off in prod b_h = 1 by alpha
    r = archimax_mtcm(MarshallOlkin((0.5, 0.5, 0.5000001)), 1e9)
    assert (r.lambda_star, r.b_star) == (0.0, (1.0, 1.0, 1.0))
    near_max = MarshallOlkin((1.0 - 1e-12, 1.0 - 2e-12, 1.0 - 3e-12))
    for alpha in (1e6, 1e9):
        r = archimax_mtcm(near_max, alpha)
        assert r.lambda_star > 0.99
        assert abs(math.fsum(math.log(v) for v in r.b_star)) <= 1e-12


# ---------------------------------------------------------------------------
# exact survival mixtures of two Marshall-Olkin models
# ---------------------------------------------------------------------------

def _mo_mixture(w, a, c):
    return SurvivalEvc(Mixture(w, MarshallOlkin.with_boundary(a), MarshallOlkin.with_boundary(c)))


def _mo_mixture_cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for i in range(50):
        d = 2 + i % 5
        w = float(rng.uniform(0.05, 0.95))
        a, c = tuple(rng.uniform(0.05, 0.95, d)), tuple(rng.uniform(0.05, 0.95, d))
        cases.append(pytest.param(w, a, c, id=f"d{d}-{i}"))
    return cases


def _assert_attained(model, r):
    assert abs(model.value(r.b_star) - r.lambda_star) <= 1e-14
    assert abs(math.fsum(math.log(v) for v in r.b_star)) <= 1e-14


@pytest.mark.parametrize("w, a, c", _mo_mixture_cases())
def test_mo_mixture_closed_form_never_below_search(w, a, c):
    model = _mo_mixture(w, a, c)
    r = dispatch(model)
    assert r.method == "closed_mo"
    assert r.diagnostics.function_evals == 0
    _assert_attained(model, r)
    search = optimize(model, OptimizerConfig(starts=64))
    assert r.lambda_star >= search.lambda_star - 1e-12
    d = len(a)
    if d <= 4:
        # the lattice lies below the maximum, by at most its spacing's reach
        n, L = {2: 201, 3: 101, 4: 41}[d], math.log(50.0)
        o = grid_oracle(model, n, L)
        h = 2.0 * L / (n - 1) / 10.0
        assert 0.0 <= r.lambda_star - o.lambda_star <= r.lambda_star * (1.0 - math.exp(-(d - 1) * h / 2.0))


def test_mo_mixture_breakpoint_formula():
    # L(b) = w min a b + (1-w) min c b; at rho = c_j / a_j the bound
    # f(rho) = (w + (1-w) rho) / geomean_j max(1/a_j, rho/c_j) is attained
    w, a, c = 0.3, (0.2, 0.5, 0.8), (0.7, 0.3, 0.4)
    vals = []
    for rho in sorted(cj / aj for aj, cj in zip(a, c)):
        m = [max(1.0 / aj, rho / cj) for aj, cj in zip(a, c)]
        vals.append((w + (1.0 - w) * rho) / math.prod(m) ** (1.0 / 3.0))
    r = closed_form_mo_mixture(w, a, c)
    assert_allclose(r.lambda_star, max(vals), rtol=1e-14)
    assert r.method == "closed_mo"


def test_mo_mixture_zero_weight_or_parameter_is_single_mo():
    a, c = (0.2, 0.5, 0.8), (0.7, 0.3, 0.4)
    assert dispatch(_mo_mixture(0.0, a, c)) == closed_form_mo(c)
    assert dispatch(_mo_mixture(1.0, a, c)) == closed_form_mo(a)
    for w in (0.25, 0.6):
        # an independence component (a = 0) vanishes; the other term is scaled
        r = dispatch(_mo_mixture(w, (0.0, 0.0, 0.0), c))
        single = closed_form_mo(c)
        assert (r.method, r.b_star) == ("closed_mo", single.b_star)
        assert_allclose(r.lambda_star, (1.0 - w) * single.lambda_star, rtol=1e-15)
        r = dispatch(_mo_mixture(w, a, (0.7, 0.0, 0.4)))
        assert r.b_star == closed_form_mo(a).b_star
        assert_allclose(r.lambda_star, w * closed_form_mo(a).lambda_star, rtol=1e-15)
    r = dispatch(_mo_mixture(0.5, (0.0, 0.0, 0.0), (0.0, 1.0, 1.0)))
    assert (r.lambda_star, r.b_star) == (0.0, (1.0, 1.0, 1.0))


def test_mo_mixture_with_comonotone_component():
    model = SurvivalEvc(Mixture(0.4, Comonotone(3), MarshallOlkin((0.2, 0.5, 0.8))))
    r = dispatch(model)
    assert r.method == "closed_mo"
    _assert_attained(model, r)
    assert r.lambda_star >= optimize(model, OptimizerConfig(starts=64)).lambda_star - 1e-12
    o = grid_oracle(model, 101)
    assert 0.0 <= r.lambda_star - o.lambda_star <= 2e-3


def test_mo_mixture_equal_components_is_single_mo():
    a = (0.2, 0.5, 0.8, 0.35)
    r = dispatch(_mo_mixture(0.3, a, a))
    single = closed_form_mo(a)
    assert r.method == "closed_mo"
    assert_allclose(r.lambda_star, single.lambda_star, rtol=1e-14)
    assert_allclose(r.b_star, single.b_star, rtol=1e-14)


def test_mo_mixture_tie_takes_smallest_breakpoint():
    # swapping the coordinates swaps the components, so the breakpoints
    # rho = 1/2 and rho = 2 give the same value; the smaller one wins
    r = closed_form_mo_mixture(0.5, (0.25, 0.5), (0.5, 0.25))
    assert_allclose(r.b_star, (math.sqrt(2.0), math.sqrt(0.5)), rtol=1e-15)
    assert_allclose(r.lambda_star, 0.75 / math.sqrt(8.0), rtol=1e-15)


def test_mo_mixture_rejects_bad_parameters():
    for args in ((1.5, (0.2, 0.5), (0.3, 0.4)), (0.5, (0.2, 0.5), (0.3, 0.4, 0.5)),
                 (0.5, (0.2, 1.5), (0.3, 0.4)), (0.5, (0.2,), (0.3,))):
        with pytest.raises(SpecError):
            closed_form_mo_mixture(*args)


def test_mo_mixture_with_subclass_component_keeps_search():
    class Shock(MarshallOlkin):
        pass

    model = SurvivalEvc(Mixture(0.5, Shock((0.2, 0.5, 0.8)), MarshallOlkin((0.7, 0.3, 0.4))))
    r = dispatch(model, FAST)
    assert r.method == "optimizer"
    assert r.diagnostics.starts_used == FAST.starts + 1


# ---------------------------------------------------------------------------
# diagonal-only search for the log-concave survival logistic and Tawn I
# ---------------------------------------------------------------------------

def _logistic_diagonal(d, s):
    """L(1_d) = sum_k (-1)^(k-1) C(d, k) k^(1/s)."""
    return math.fsum((-1) ** (k - 1) * math.comb(d, k) * k ** (1.0 / s) for k in range(1, d + 1))


def _logistic_cases():
    rng = np.random.default_rng(88)
    cases = [(d, round(float(rng.uniform(1.05, 20.0)), 4)) for d in range(2, 9)]
    cases += [(3, 1.05), (5, 20.0)]
    return [pytest.param(d, s, id=f"d{d}-s{s}") for d, s in cases]


@pytest.mark.parametrize("d, s", _logistic_cases())
def test_survival_logistic_runs_diagonal_start_only(d, s):
    model = SurvivalEvc(Logistic(s, d))
    r = dispatch(model)
    assert r.method == "optimizer"
    assert r.diagnostics.starts_used == 1
    assert_allclose(r.lambda_star, _logistic_diagonal(d, s), rtol=0, atol=1e-9)
    assert_allclose(r.b_star, (1.0,) * d, rtol=0, atol=1e-6)
    search = optimize(model, OptimizerConfig(starts=16))
    assert abs(r.lambda_star - search.lambda_star) <= 1e-9
    assert_allclose(r.b_star, search.b_star, rtol=0, atol=1e-6)


def _tawn1_cases():
    rng = np.random.default_rng(1990)
    cases = [
        (float(rng.uniform(1.05, 12.0)), float(rng.uniform(1.0, 4.0)), tuple(rng.uniform(0.05, 1.0, 3)))
        for _ in range(6)
    ]
    cases.append((2.48, 1.0, (1.0, 1.0, 0.25)))
    return [pytest.param(s, r, t, id=f"tawn1-{i}") for i, (s, r, t) in enumerate(cases)]


@pytest.mark.parametrize("s, r, theta", _tawn1_cases())
def test_survival_tawn1_runs_diagonal_start_only(s, r, theta):
    # L is the symmetric survival logistic at theta * x: its maximum over
    # prod b = 1 is g L_sym(1_3) at b_j = g / theta_j, g = geomean(theta)
    model = SurvivalEvc(TawnTypeI(s=s, r=r, theta=theta))
    res = dispatch(model)
    assert res.method == "optimizer"
    assert res.diagnostics.starts_used == 1
    g = math.prod(theta) ** (1.0 / 3.0)
    assert_allclose(res.lambda_star, g * _logistic_diagonal(3, s), rtol=0, atol=1e-9)
    assert_allclose(res.b_star, [g / t for t in theta], rtol=0, atol=1e-6)
    search = optimize(model, OptimizerConfig(starts=16))
    assert abs(res.lambda_star - search.lambda_star) <= 1e-9
    assert_allclose(res.b_star, search.b_star, rtol=0, atol=1e-6)


def test_survival_tawn1_with_zero_weight_is_degenerate():
    r = dispatch(SurvivalEvc(TawnTypeI(s=2.0, r=1.5, theta=(0.4, 0.0, 0.9))))
    assert r.method == "optimizer"
    assert r.diagnostics.starts_used == 1
    assert (r.lambda_star, r.b_star) == (0.0, (1.0, 1.0, 1.0))


def test_logistic_subclass_keeps_multi_start_search():
    class Gumbel(Logistic):
        pass

    r = dispatch(SurvivalEvc(Gumbel(2.0, 3)))
    assert r.method == "optimizer"
    assert r.diagnostics.starts_used == OptimizerConfig().starts + 1


# ---------------------------------------------------------------------------
# one-coordinate searches: survival Tawn II on b1 = b2, survival logistic/MO
# mixtures on their water-filling curve
# ---------------------------------------------------------------------------

def _assert_curve_result(model, r):
    """Route tag, the invariants, at least the 64-start search, and at least
    the grid oracle's lattice value (d <= 4) less the lattice's reach."""
    assert r.method == "optimizer"
    assert r.diagnostics.converged
    assert r.lambda_star <= min(r.b_star)
    if r.lambda_star > 0.0:
        _assert_attained(model, r)
    assert r.lambda_star >= optimize(model, OptimizerConfig(starts=64)).lambda_star - 1e-12
    d = model.dim
    if d <= 4:
        n, L = {2: 201, 3: 101, 4: 41}[d], math.log(50.0)
        o = grid_oracle(model, n, L)
        h = 2.0 * L / (n - 1) / 10.0
        assert o.lambda_star - r.lambda_star <= 1e-12
        assert r.lambda_star - o.lambda_star <= r.lambda_star * (1.0 - math.exp(-(d - 1) * h / 2.0))


def _tawn2_cases():
    rng = np.random.default_rng(1991)
    cases = [
        (float(rng.uniform(1.0, 8.0)), float(rng.uniform(1.0, 6.0)),
         float(rng.uniform(1.0, 8.0)), float(rng.uniform(0.0, 1.0)))
        for _ in range(48)
    ]
    cases += [(2.5, 1.7, 3.0, 0.0), (1.0, 2.2, 4.0, 0.6)]  # L = 0: phi = 0, s = 1
    # s near 1: the line reaches far out, where x3 dwarfs x1 = x2
    cases += [(1.0 + 1e-7, 2.2, 4.0, 0.6), (1.0 + 1e-11, 1.3, 2.0, 0.9)]
    return [pytest.param(*c, id=f"tawn2-{i}") for i, c in enumerate(cases)]


@pytest.mark.parametrize("s, r, t, phi", _tawn2_cases())
def test_survival_tawn2_searches_its_line(s, r, t, phi):
    model = SurvivalEvc(TawnTypeII(s=s, r=r, t=t, phi=phi))
    res = dispatch(model)
    _assert_curve_result(model, res)
    assert res.b_star[0] == res.b_star[1]
    if phi == 0.0 or s == 1.0:
        assert (res.lambda_star, res.b_star) == (0.0, (1.0, 1.0, 1.0))


def test_survival_tawn2_oracle_stays_below_line_search_far_out():
    # a lattice out to e^150 reaches points where x3 dwarfs x1 = x2
    model = SurvivalEvc(TawnTypeII(s=1.0 + 1e-7, r=2.2, t=4.0, phi=0.6))
    assert grid_oracle(model, 11, 150.0).lambda_star <= dispatch(model).lambda_star + 1e-12


def _logistic_mo(w, s, a, mo_first=False):
    logistic, mo = Logistic(s, len(a)), MarshallOlkin.with_boundary(a)
    if mo_first:
        return SurvivalEvc(Mixture(1.0 - w, mo, logistic))
    return SurvivalEvc(Mixture(w, logistic, mo))


def _logistic_mo_cases():
    rng = np.random.default_rng(2009)
    cases = []
    for i in range(50):
        d = 2 + i % 5
        w, s = float(rng.uniform(0.02, 0.98)), float(rng.uniform(1.05, 8.0))
        a = tuple(float(v) for v in rng.uniform(0.02, 1.0, d))
        cases.append(pytest.param(w, s, a, i % 2 == 1, id=f"d{d}-{i}"))
    return cases


@pytest.mark.parametrize("w, s, a, mo_first", _logistic_mo_cases())
def test_survival_logistic_mo_mixture_searches_its_curve(w, s, a, mo_first):
    model = _logistic_mo(w, s, a, mo_first)
    _assert_curve_result(model, dispatch(model))


# d = 5, where the default 17-start search fell short of the 64-start value
# by up to 2e-5 on these models
@pytest.mark.parametrize("w, s, a", [
    (0.4086, 2.8195, (0.2385, 0.6075, 0.7221, 0.3364, 0.7373)),
    (0.43, 2.7093, (0.3899, 0.2894, 0.6191, 0.4691, 0.6794)),
    (0.3942, 1.9797, (0.6799, 0.5042, 0.5038, 0.3417, 0.2087)),
    (0.6489, 1.5278, (0.6245, 0.2007, 0.502, 0.462, 0.322)),
])
def test_survival_logistic_mo_mixture_d5_reaches_wide_search(w, s, a):
    model = _logistic_mo(w, s, a)
    _assert_curve_result(model, dispatch(model))


def test_survival_logistic_mo_mixture_component_order():
    w, s, a = 0.35, 2.2, (0.3, 0.8, 0.55, 0.4)
    r1, r2 = dispatch(_logistic_mo(w, s, a)), dispatch(_logistic_mo(w, s, a, mo_first=True))
    assert (r1.method, r2.method) == ("optimizer", "optimizer")
    assert r1.diagnostics.function_evals < 500
    assert_allclose(r2.lambda_star, r1.lambda_star, rtol=0, atol=1e-12)
    assert_allclose(r2.b_star, r1.b_star, rtol=0, atol=1e-6)


def test_survival_logistic_mo_mixture_edge_weights_and_zero_parameter():
    s, a = 2.2, (0.3, 0.8, 0.55, 0.4)
    d = len(a)
    # w = 1: the survival logistic, at 1_d; w = 0: the MO closed form
    r = dispatch(_logistic_mo(1.0, s, a))
    assert_allclose(r.lambda_star, _logistic_diagonal(d, s), rtol=0, atol=1e-12)
    assert_allclose(r.b_star, (1.0,) * d, rtol=0, atol=1e-6)
    r, closed = dispatch(_logistic_mo(0.0, s, a)), closed_form_mo(a)
    assert r.method == "optimizer"
    assert_allclose(r.lambda_star, closed.lambda_star, rtol=0, atol=1e-12)
    assert_allclose(r.b_star, closed.b_star, rtol=0, atol=1e-6)
    # a zero a_j makes the MO term 0: w times the survival logistic
    for mo_first in (False, True):
        r = dispatch(_logistic_mo(0.3, s, (0.3, 0.0, 0.55, 0.4), mo_first))
        assert (r.method, r.diagnostics.starts_used) == ("optimizer", 1)
        assert_allclose(r.lambda_star, 0.3 * _logistic_diagonal(d, s), rtol=0, atol=1e-9)
        assert_allclose(r.b_star, (1.0,) * d, rtol=0, atol=1e-6)


def test_survival_logistic_mo_mixture_with_subclass_component_keeps_search():
    class Gumbel(Logistic):
        pass

    class Shock(MarshallOlkin):
        pass

    for stdf in (Mixture(0.5, Gumbel(2.0, 3), MarshallOlkin((0.2, 0.5, 0.8))),
                 Mixture(0.5, Logistic(2.0, 3), Shock((0.2, 0.5, 0.8)))):
        r = dispatch(SurvivalEvc(stdf), FAST)
        assert r.method == "optimizer"
        assert r.diagnostics.starts_used == FAST.starts + 1


def test_curve_routes_spend_at_most_max_evals():
    for model in (SurvivalEvc(TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74)),
                  _logistic_mo(0.5, 2.0, (0.3, 0.6, 0.45))):
        for max_evals in (10, 12, 49, 60, 100):
            r = dispatch(model, OptimizerConfig(max_evals=max_evals))
            assert r.diagnostics.function_evals <= max_evals
            assert not r.diagnostics.converged
        assert dispatch(model).diagnostics.converged


# ---------------------------------------------------------------------------
# direct search
# ---------------------------------------------------------------------------

def test_optimize_comonotone_hits_one_at_diagonal():
    r = optimize(SurvivalEvc(Comonotone(3)), FAST)
    assert_allclose(r.lambda_star, 1.0, atol=1e-9)
    assert_allclose(r.b_star, (1.0, 1.0, 1.0), atol=1e-6)
    assert r.diagnostics.converged


def test_optimize_independence_reports_degenerate_zero():
    r = optimize(SurvivalEvc(Independence(3)), FAST)
    assert r.lambda_star == 0.0
    assert r.b_star == (1.0, 1.0, 1.0)
    assert r.diagnostics.converged


def test_optimize_matches_mo_closed_form():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        alpha = tuple(rng.uniform(0.1, 0.9, d))
        closed = closed_form_mo(alpha)
        r = optimize(SurvivalEvc(MarshallOlkin(alpha)), FAST)
        assert abs(r.lambda_star - closed.lambda_star) <= 1e-6
        assert max(abs(a - b) for a, b in zip(r.b_star, closed.b_star)) <= 1e-4


def test_optimize_matches_archimedean_closed_form():
    for alpha, d in ((0.7, 3), (1.5, 2)):
        r = optimize(Archimax(Independence(d), alpha), FAST)
        assert abs(r.lambda_star - d ** -alpha) <= 1e-6
        assert max(abs(b - 1.0) for b in r.b_star) <= 1e-4


def test_optimize_matches_nac_closed_form():
    lam = NESTED_PAIR.mtcm_closed()
    b = NESTED_PAIR.maximizer()
    r = optimize(NacCopula(NESTED_PAIR), FAST)
    assert abs(r.lambda_star - lam) <= 1e-6
    assert max(abs(u - v) for u, v in zip(r.b_star, b)) <= 1e-4


def test_optimize_finds_off_diagonal_maximum():
    # diagonal value 0.233, true maximum 0.372 at (0.63, 0.63, 2.52)
    tc = SurvivalEvc(TawnTypeI(s=2.48, r=1.0, theta=(1.0, 1.0, 0.25)))
    r = optimize(tc)
    assert r.lambda_star > 0.37
    assert r.b_star[2] > 2.0


def test_optimize_value_attained_at_maximizer():
    tc = SurvivalEvc(TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74))
    r = optimize(tc, FAST)
    assert abs(tc.value(r.b_star) - r.lambda_star) <= 1e-9
    assert abs(math.prod(r.b_star) - 1.0) <= 1e-10


def test_optimize_diagonal_is_lower_bound():
    for model in [
        SurvivalEvc(TawnTypeI(s=7.44, r=2.21, theta=(0.23, 0.23, 0.55))),
        Archimax(Independence(3), 0.7),
        NacCopula(NESTED_PAIR),
    ]:
        r = optimize(model, FAST)
        assert r.lambda_star >= model.diagonal() - 1e-9


def test_optimize_deterministic_across_runs():
    tc = SurvivalEvc(TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74))
    cfg = OptimizerConfig(starts=5, seed=99)
    r1 = optimize(tc, cfg)
    r2 = optimize(tc, cfg)
    assert r1 == r2  # bit-identical dataclasses


def test_optimize_seed_changes_starts_not_optimum():
    tc = SurvivalEvc(TawnTypeI(s=2.48, r=1.0, theta=(1.0, 1.0, 0.25)))
    r1 = optimize(tc, OptimizerConfig(starts=8, seed=1))
    r2 = optimize(tc, OptimizerConfig(starts=8, seed=2))
    assert abs(r1.lambda_star - r2.lambda_star) <= 1e-7


def test_optimize_diagnostics_populated():
    r = optimize(SurvivalEvc(Logistic(2.0, 3)), OptimizerConfig(starts=3))
    d = r.diagnostics
    assert d.starts_used == 4  # 3 random + the diagonal
    assert 0 <= d.best_start < 4
    assert d.function_evals > 4
    assert d.final_step >= 0.0


def test_optimize_respects_eval_budget():
    cfg = OptimizerConfig(starts=2, max_evals=50)
    r = optimize(SurvivalEvc(TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74)), cfg)
    assert r.diagnostics.function_evals <= 3 * 50 + 10


# ---------------------------------------------------------------------------
# the simplex against scipy's Nelder-Mead
# ---------------------------------------------------------------------------

def _scipy_nelder_mead(f, x0, tol, max_evals):
    """scipy's Nelder-Mead from the simplex the search uses, on a list objective."""
    sp_optimize = pytest.importorskip("scipy.optimize")
    sim = [list(x0)]
    for i in range(len(x0)):
        v = list(x0)
        v[i] += 0.25
        sim.append(v)
    res = sp_optimize.minimize(
        lambda x: f(x.tolist()), np.array(x0), method="Nelder-Mead",
        options={"xatol": tol, "fatol": 1e-12, "maxfev": max_evals, "initial_simplex": np.array(sim)},
    )
    sim, fsim = res.final_simplex
    return res.nfev, bool(res.success), sim.tolist(), fsim.tolist()


def _assert_same_run(make_f, x0, tol, max_evals):
    """Run both simplexes on fresh objectives; return whether the budget ran
    out in the middle of a shrink (a final vertex was never evaluated)."""
    seen = set()
    f = make_f()

    def recorded(x):
        seen.add(tuple(x))
        return f(x)

    ours = _nelder_mead(recorded, list(x0), tol, max_evals)
    assert ours == _scipy_nelder_mead(make_f(), x0, tol, max_evals)
    return any(tuple(v) not in seen for v in ours[2])


def _quadratic(n, rng):
    a = rng.normal(size=(n, n))
    q = (a @ a.T + 0.5 * np.eye(n)).tolist()
    c = rng.normal(size=n).tolist()

    def f(x):
        y = [v - w for v, w in zip(x, c)]
        return math.fsum(y[i] * q[i][j] * y[j] for i in range(n) for j in range(n))

    return f


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_simplex_matches_scipy_on_convex_quadratics(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        f = _quadratic(n, rng)
        x0 = rng.uniform(-2.0, 2.0, n).tolist()
        for max_evals in (10, 23, 60, 100_000):
            _assert_same_run(lambda: f, x0, 1e-9, max_evals)


@pytest.mark.parametrize("d, exponents", [(3, (1.7, 3.5)), (4, (1.4, 2.6))])
def test_simplex_matches_scipy_on_pruned_objective(d, exponents):
    # the search's own objective: min-bound pruning and surrogates included;
    # budgets of 10..60 evaluations also end some runs in the middle of a shrink
    cut_in_shrink = 0
    for s in exponents:
        value = SurvivalEvc(Logistic(s, d))._value
        v0 = value([1.0] * d)
        rng = np.random.default_rng(d * 10 + int(s * 10))
        starts = [[0.0] * (d - 1)] + [
            rng.uniform(-math.log(10.0), math.log(10.0), d - 1).tolist() for _ in range(3)
        ]
        for x0 in starts:
            for max_evals in [*range(10, 61), 100_000]:
                cut_in_shrink += _assert_same_run(
                    lambda: _pruned_objective(value, v0, d)[0], x0, 1e-9, max_evals
                )
    assert cut_in_shrink > 0


def test_simplex_keeps_tied_vertices_in_order():
    # vertices 1..5 tie below vertex 0; a stable order keeps them as they came
    x0 = [0.0] * 5

    def f(x):
        return 1.0 if x == x0 else 0.0

    nfev, converged, sim, fsim = _nelder_mead(f, x0, 1e-9, 6)
    assert (nfev, converged) == (6, False)
    assert fsim == [0.0] * 5 + [1.0]
    assert sim == [[0.25 if j == i else 0.0 for j in range(5)] for i in range(5)] + [x0]


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def test_oracle_independence_is_zero():
    r = grid_oracle(SurvivalEvc(Independence(3)), 41, math.log(10.0))
    assert r.lambda_star == 0.0
    assert r.method == "oracle"


def test_oracle_logistic_reference_value():
    r = grid_oracle(SurvivalEvc(Logistic(1.59, 3)), 201, math.log(10.0))
    assert abs(r.lambda_star - 0.356) <= 2e-3


def test_oracle_mo_reference_value():
    r = grid_oracle(SurvivalEvc(MarshallOlkin((0.2, 0.5, 0.8))), 401, math.log(50.0))
    assert abs(r.lambda_star - 0.4309) <= 1e-3


def test_oracle_refinement_beats_coarse_grid():
    model = SurvivalEvc(MarshallOlkin((0.2, 0.5, 0.8)))
    coarse = grid_oracle(model, 51, math.log(50.0))
    fine = grid_oracle(model, 401, math.log(50.0))
    assert coarse.lambda_star <= fine.lambda_star + 1e-12
    assert abs(fine.lambda_star - MO_LAMBDA) <= 1e-3


def test_oracle_rejects_bad_requests():
    with pytest.raises(EvaluationError):
        grid_oracle(SurvivalEvc(Logistic(2.0, 5)), 11)  # d = 5 unsupported
    with pytest.raises(EvaluationError):
        grid_oracle(SurvivalEvc(Logistic(2.0, 3)), 2)
    with pytest.raises(EvaluationError):
        grid_oracle(SurvivalEvc(Logistic(2.0, 4)), 500)  # 500^3 > cap
    with pytest.raises(EvaluationError):
        grid_oracle(SurvivalEvc(Logistic(2.0, 3)), 11, 0.0)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_dispatch_routes_to_closed_mo():
    r = dispatch(SurvivalEvc(MarshallOlkin((0.2, 0.5, 0.8))))
    assert r.method == "closed_mo"
    assert_allclose(r.lambda_star, MO_LAMBDA, rtol=1e-14)


def test_dispatch_routes_nac():
    r = dispatch(NacCopula(NESTED_PAIR))
    assert r.method == "closed_nac"
    assert_allclose(r.lambda_star, NESTED_PAIR.mtcm_closed(), rtol=1e-14)


def test_dispatch_routes_archimedean():
    r = dispatch(Archimax(Independence(4), 0.7))
    assert r.method == "closed_archimax_exchangeable"
    assert_allclose(r.lambda_star, 4.0 ** -0.7, rtol=1e-13)


def test_dispatch_routes_tawn_to_optimizer():
    r = dispatch(SurvivalEvc(TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74)), FAST)
    assert r.method == "optimizer"


def test_dispatch_boundary_mo_uses_closed_form():
    stdf = MarshallOlkin.with_boundary((1.0, 1.0, 1.0))
    r = dispatch(SurvivalEvc(stdf), FAST)
    assert r.method == "closed_mo"
    assert r.lambda_star == 1.0
    assert r.b_star == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# properties from the measure's basic theory
# ---------------------------------------------------------------------------

def test_mixture_value_is_convex_small_case():
    a = SurvivalEvc(MarshallOlkin((0.3, 0.6, 0.8)))
    b = Archimax(Independence(3), 0.9)
    la = dispatch(a).lambda_star
    lb = dispatch(b).lambda_star
    for t in (0.25, 0.5, 0.75):
        mix = MixtureTail(t, a, b)
        lm = optimize(mix, FAST).lambda_star
        assert lm <= t * la + (1 - t) * lb + 1e-9


def test_dominated_tail_copula_has_smaller_maximum():
    strong = MarshallOlkin((0.8, 0.8, 0.8))
    weak = MarshallOlkin((0.5, 0.6, 0.7))
    rng = np.random.default_rng(6)
    X = np.exp(rng.uniform(-2.0, 2.0, size=(10_000, 3)))
    sv, wv = SurvivalEvc(strong).value_batch(X), SurvivalEvc(weak).value_batch(X)
    assert np.all(sv >= wv - 1e-12)  # pointwise dominance holds here
    assert dispatch(SurvivalEvc(strong)).lambda_star >= dispatch(SurvivalEvc(weak)).lambda_star - 1e-9


def test_continuity_smoke_archimedean_sequence():
    d, alpha = 3, 0.8
    target = d ** -alpha
    prev = -1.0
    for n in (1, 2, 4, 8, 16, 32):
        lam_n = dispatch(Archimax(Independence(d), alpha + 1.0 / n)).lambda_star
        assert lam_n > prev  # monotone increase toward the limit
        prev = lam_n
    assert abs(prev - target) <= target * 0.05


# ---------------------------------------------------------------------------
# result and config contracts
# ---------------------------------------------------------------------------

def test_result_serialization_round_trip_fields():
    r = dispatch(SurvivalEvc(MarshallOlkin((0.2, 0.5, 0.8))))
    d = r.to_dict()
    assert d["method"] == "closed_mo"
    assert d["lambda_star"] == r.lambda_star
    assert d["b_star"] == list(r.b_star)
    assert set(d["diagnostics"]) == {
        "starts_used", "best_start", "function_evals", "converged", "final_step",
    }


def test_result_invariants_enforced():
    diag = Diagnostics(1, 0, 1, True, 0.0)
    with pytest.raises(NumericalError):
        MtcmResult(0.5, (2.0, 2.0), "optimizer", diag)  # product 4 != 1
    with pytest.raises(NumericalError):
        MtcmResult(1.5, (1.0, 1.0), "optimizer", diag)  # above 1
    with pytest.raises(NumericalError):
        MtcmResult(0.9, (0.5, 2.0), "optimizer", diag)  # exceeds min component
    with pytest.raises(SpecError):
        MtcmResult(0.5, (1.0, 1.0), "not_a_method", diag)


def test_embed_budget_lands_on_unit_product_set():
    from tailmax import embed_budget

    rng = np.random.default_rng(8)
    for d in (2, 3, 6):
        for _ in range(50):
            b = embed_budget(rng.uniform(-5.0, 5.0, d - 1))
            assert len(b) == d and all(v > 0.0 for v in b)
            assert abs(math.prod(b) - 1.0) <= 1e-12
    assert embed_budget([0.0, 0.0]) == (1.0, 1.0, 1.0)
    with pytest.raises(EvaluationError):
        embed_budget([])
    with pytest.raises(EvaluationError):
        embed_budget([float("inf")])


def test_config_round_trip_and_validation():
    cfg = OptimizerConfig(starts=4, seed=7, max_evals=5000, range_log=1.5, tol=1e-8)
    assert OptimizerConfig(**cfg.to_dict()) == cfg
    with pytest.raises(SpecError):
        OptimizerConfig(starts=-1)
    with pytest.raises(SpecError, match="seed must be >= 0"):
        OptimizerConfig(seed=-1)
    with pytest.raises(SpecError):
        OptimizerConfig(tol=0.0)
    with pytest.raises(SpecError):
        OptimizerConfig(range_log=-1.0)
