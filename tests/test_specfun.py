"""Hypergeometric building blocks: values, identities, error paths.

Reference values marked "30-digit" were computed with an independent
arbitrary-precision evaluation (direct series or gamma-product formulas)
and are frozen here as decimal literals.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from biaxpot import (ConvergenceError, DivergenceError, DomainError, F2Args,
                     appell_f2, appell_f2_many, appell_f2_series,
                     f2_kernel_families, f2_param_shift, gauss_2f1,
                     gauss_2f1_at_one, ln_gamma, log_singular_3f2, pochhammer)
from biaxpot.specfun import (_euler_prefactor, _f2_euler_many, _stair_axis,
                             gauss_rule)

REL = lambda got, want: abs(got - want) / abs(want)


# -- pochhammer -------------------------------------------------------------------

def test_pochhammer_empty_product():
    assert pochhammer(0.7, 0) == 1.0


def test_pochhammer_integer_rise():
    assert pochhammer(2.0, 3) == 24.0


def test_pochhammer_half():
    assert pochhammer(0.5, 2) == 0.75


def test_pochhammer_negative_order_rejected():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


# -- ln_gamma ---------------------------------------------------------------------

def test_ln_gamma_at_one():
    assert abs(ln_gamma(1.0)) <= 1.0e-14


def test_ln_gamma_factorial():
    assert REL(ln_gamma(5.0), math.log(24.0)) <= 1.0e-13


def test_ln_gamma_half():
    assert REL(ln_gamma(0.5), 0.5 * math.log(math.pi)) <= 1.0e-13


def test_ln_gamma_matches_stdlib_on_working_range():
    xs = np.concatenate([np.linspace(0.1, 2.0, 200),
                         np.linspace(2.0, 50.0, 200)])
    for x in xs:
        want = math.lgamma(x)
        got = ln_gamma(float(x))
        assert abs(got - want) <= 1.0e-13 * max(1.0, abs(want))


# 21-digit references for log Gamma at the exact double inputs, computed at
# 40-digit precision and frozen here; they avoid the neighbourhoods of
# the zeros at 1 and 2, where only an absolute accuracy is meaningful.
LN_GAMMA_REFERENCES = (
    (1e-06, 13.8155099807494317145),
    (0.001, 6.90717888538385366168),
    (0.1, 2.25271265173420590201),
    (0.3, 1.09579799481807556056),
    (0.75, 0.203280951431295371481),
    (1.5, -0.120782237635245222346),
    (2.5, 0.284682870472919159632),
    (3.7, 1.4280723266653881292),
    (12.125, 17.8083170332209730631),
    (33.3, 82.6037235816549430078),
    (150.5, 602.513954870585411951),
    (2500.75, 17062.9899730112323819),
    (1.0e6, 12815504.56914761166),
)


@pytest.mark.parametrize("x, want", LN_GAMMA_REFERENCES)
def test_ln_gamma_frozen_references(x, want):
    assert abs(ln_gamma(x) - want) <= 2.0e-15 * max(1.0, abs(want))
    got = ln_gamma(np.array([x]))
    assert abs(got[0] - want) <= 2.0e-15 * max(1.0, abs(want))


def test_ln_gamma_duplication_identity():
    # Legendre: ln G(2x) = (2x - 1) ln 2 - ln(pi)/2 + ln G(x) + ln G(x + 1/2)
    for x in np.geomspace(1.0e-4, 300.0, 120):
        lhs = ln_gamma(2.0 * x)
        rhs = ((2.0 * x - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
               + ln_gamma(x) + ln_gamma(x + 0.5))
        assert abs(lhs - rhs) <= 1.0e-13 * max(1.0, abs(lhs))


def test_ln_gamma_array_matches_scalar():
    xs = np.concatenate([np.geomspace(1.0e-6, 1.0, 50),
                         np.linspace(1.0, 60.0, 150)])
    arr = ln_gamma(xs)
    assert isinstance(arr, np.ndarray) and arr.shape == xs.shape
    for x, got in zip(xs, arr):
        want = ln_gamma(float(x))
        assert isinstance(want, float)
        assert abs(got - want) <= 1.0e-14 * max(1.0, abs(want))
    with pytest.raises(DomainError):
        ln_gamma(np.array([1.0, 0.0]))


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-1.5)


# -- gauss_2f1 --------------------------------------------------------------------

def test_2f1_at_zero_is_one():
    assert gauss_2f1(0.7, 1.3, 2.1, 0.0) == 1.0


def test_2f1_log_case_value():
    # F(1,1;2;z) = -ln(1-z)/z
    assert REL(gauss_2f1(1.0, 1.0, 2.0, 0.5), 2.0 * math.log(2.0)) <= 1.0e-12


def test_2f1_at_unit_argument():
    # 30-digit gamma-product value of F(0.3, 0.2; 1; 1)
    want = 1.17285156427413214005
    assert REL(gauss_2f1(0.3, 0.2, 1.0, 1.0), want) <= 1.0e-12


def test_2f1_rejects_argument_beyond_one():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.5, 1.0 + 1.0e-12)


def test_2f1_divergent_at_one():
    with pytest.raises(DivergenceError):
        gauss_2f1(1.0, 1.0, 1.5, 1.0)


def test_2f1_rejects_nonpositive_integer_c():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, -2.0, 0.3)


def test_at_one_collapses_for_zero_numerator_parameter():
    assert gauss_2f1_at_one(0.0, 0.37, 1.4) == pytest.approx(1.0, rel=1e-14)


def test_at_one_gamma_product():
    want = 1.17285156427413214005
    assert REL(gauss_2f1_at_one(0.3, 0.2, 1.0), want) <= 1.0e-13


def test_at_one_terminating_two_terms():
    # a = -1 terminates: 1 - b/c
    for b, c in [(0.4, 1.3), (1.1, 2.6)]:
        assert REL(gauss_2f1_at_one(-1.0, b, c), 1.0 - b / c) <= 1.0e-13


def test_at_one_divergent_excess():
    with pytest.raises(DivergenceError):
        gauss_2f1_at_one(0.8, 0.9, 1.5)


def test_2f1_symmetric_in_upper_parameters():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = rng.uniform(0.1, 2.5, 2)
        c = rng.uniform(0.6, 3.0)
        z = rng.uniform(-5.0, 0.9)
        va = gauss_2f1(a, b, c, z)
        vb = gauss_2f1(b, a, c, z)
        assert abs(va - vb) <= 1.0e-12 * max(abs(va), 1.0)


def test_2f1_pfaff_reflection():
    # F(a,b;c;z) = (1-z)^(-b) F(c-a, b; c; z/(z-1))
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b = rng.uniform(0.1, 2.0, 2)
        c = rng.uniform(0.8, 3.0)
        z = rng.uniform(-50.0, 0.9)
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1.0 - z) ** (-b) * gauss_2f1(c - a, b, c, z / (z - 1.0))
        assert REL(lhs, rhs) <= 1.0e-10


# -- appell F2 series -------------------------------------------------------------

def test_f2_series_at_origin():
    assert appell_f2_series(F2Args(1.5, 0.75, 0.75, 1.5, 1.5, 0.0, 0.0)) == 1.0


def test_f2_series_collapses_on_axis():
    args = F2Args(1.1, 0.6, 0.9, 1.4, 1.7, -0.45, 0.0)
    want = gauss_2f1(1.1, 0.6, 1.4, -0.45)
    assert REL(appell_f2_series(args), want) <= 1.0e-13


def test_f2_series_unit_for_zero_a():
    assert appell_f2_series(
        F2Args(0.0, 0.6, 0.9, 1.4, 1.7, -0.3, -0.4)) == 1.0


def test_f2_series_rejects_divergent_arguments():
    with pytest.raises(DomainError):
        appell_f2_series(F2Args(1.5, 0.75, 0.75, 1.5, 1.5, -0.6, -0.5))


def test_f2_series_sums_past_the_crest_of_a_row():
    # near the disk edge at positive arguments the terms of late rows grow
    # before they decay; 30-digit reference of the double series
    args = F2Args(1.5749078802178267, 0.9678725010533668, 1.4484874592602872,
                  1.6511501723072097, 1.8005905651157152,
                  0.32149970052137294, 0.5520107184548619)
    assert REL(appell_f2_series(args), 7.31237123279686245233) <= 1.0e-13


# -- appell F2 continuation -------------------------------------------------------

def test_f2_at_origin():
    assert appell_f2(F2Args(1.5, 0.75, 0.75, 1.5, 1.5, 0.0, 0.0)) == 1.0


def test_f2_reference_value():
    # 30-digit direct double series at (-0.2, -0.3)
    args = F2Args(1.5, 0.75, 0.75, 1.5, 1.5, -0.2, -0.3)
    want = 0.726984689365876771752
    assert REL(appell_f2(args), want) <= 1.0e-12


def test_f2_matches_series_inside_disk():
    args = F2Args(1.5, 0.75, 0.75, 1.5, 1.5, -0.2, -0.3)
    assert REL(appell_f2(args), appell_f2_series(args)) <= 1.0e-10


def test_f2_single_variable_reduction():
    # y = 0 reduces to a reflected Gauss function:
    # F2(a;b1,b2;c1,c2;-1/2,0) = (3/2)^(-b1) F(c1-a, b1; c1; 1/3)
    a, b1, b2, c1, c2 = 1.3, 0.7, 0.9, 1.6, 1.8
    got = appell_f2(F2Args(a, b1, b2, c1, c2, -0.5, 0.0))
    want = 1.5 ** (-b1) * gauss_2f1(c1 - a, b1, c1, 1.0 / 3.0)
    assert REL(got, want) <= 1.0e-11


def test_f2_agrees_with_series_randomized():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(0.3, 2.5)
        b1, b2 = rng.uniform(0.2, 1.5, 2)
        c1, c2 = rng.uniform(0.9, 2.5, 2)
        x = -rng.uniform(0.0, 0.85)
        y = -rng.uniform(0.0, 0.88 - abs(x))
        args = F2Args(a, b1, b2, c1, c2, x, y)
        worst = max(worst, REL(appell_f2(args), appell_f2_series(args)))
    assert worst <= 1.0e-10


def test_f2_contiguous_relation():
    # (b1/c1) x F2(a+1; b1+1, b2; c1+1, c2) + (b2/c2) y F2(a+1; b1, b2+1;
    # c1, c2+1) = F2(a+1; ...) - F2(a; ...)
    rng = np.random.default_rng(22)
    for _ in range(100):
        a = rng.uniform(0.3, 2.0)
        b1, b2 = rng.uniform(0.2, 1.2, 2)
        c1 = b1 + rng.uniform(0.4, 1.8)
        c2 = b2 + rng.uniform(0.4, 1.8)
        x, y = -rng.uniform(0.05, 3.0, 2)
        base = (a, b1, b2, c1, c2, x, y)
        lhs = (b1 / c1 * x * appell_f2(F2Args(a + 1, b1 + 1, b2, c1 + 1, c2,
                                              x, y))
               + b2 / c2 * y * appell_f2(F2Args(a + 1, b1, b2 + 1, c1, c2 + 1,
                                                x, y)))
        up = appell_f2(F2Args(a + 1, b1, b2, c1, c2, x, y))
        at = appell_f2(F2Args(*base))
        scale = max(abs(up), abs(at), 1.0)
        assert abs(lhs - (up - at)) <= 1.0e-9 * scale


def test_f2_contiguous_relation_at_near_integer_excess():
    # a - b2 = -2.08e-4: the inner connection formula of the product
    # expansion would cancel two nearly opposite gamma factors here
    a, b1, b2 = 1.1670268095962184, 1.0106648752340812, 1.1672350250846228
    c1, c2 = 2.749182427100841, 2.8078362358953264
    x, y = -0.08482690459446762, -1.4024856848406408
    lhs = (b1 / c1 * x * appell_f2(F2Args(a + 1, b1 + 1, b2, c1 + 1, c2,
                                          x, y))
           + b2 / c2 * y * appell_f2(F2Args(a + 1, b1, b2 + 1, c1, c2 + 1,
                                            x, y)))
    rhs = (appell_f2(F2Args(a + 1, b1, b2, c1, c2, x, y))
           - appell_f2(F2Args(a, b1, b2, c1, c2, x, y)))
    assert abs(lhs - rhs) <= 1.0e-12 * abs(rhs)


def test_f2_rejects_non_finite_arguments():
    for bad in (math.nan, -math.inf):
        with pytest.raises(DomainError):
            appell_f2(F2Args(1.5, 0.75, 0.75, 1.5, 1.5, bad, -0.1))
        with pytest.raises(DomainError):
            appell_f2_many(1.5, 0.75, 0.75, 1.5, 1.5,
                           np.array([-0.2, -0.1]), np.array([-0.3, bad]))
        with pytest.raises(DomainError):
            f2_kernel_families(1.5, 0.75, 0.75, 1.5, 1.5,
                               np.array([bad]), np.array([-0.1]))


def test_f2_leaves_the_rule_caches_alone():
    # appell_f2 serves a new parameter set on almost every call; its tensor
    # axes and prefactors must not pile up in the caches the kernel route
    # relies on
    def cache_state():
        # misses as well as sizes, so that a full cache that evicts still
        # shows a new entry
        return [(cached.cache_info().currsize, cached.cache_info().misses)
                for cached in (gauss_rule, _stair_axis, _euler_prefactor)]

    rng = np.random.default_rng(27)
    appell_f2(F2Args(1.5, 0.75, 0.75, 1.5, 1.5, -0.2, -0.3))
    before = cache_state()
    for _ in range(20):
        b1, b2 = rng.uniform(0.2, 1.2, 2)
        args = F2Args(rng.uniform(0.3, 2.0), b1, b2,
                      b1 + rng.uniform(0.4, 1.8), b2 + rng.uniform(0.4, 1.8),
                      -rng.uniform(0.05, 30.0), -rng.uniform(0.05, 30.0))
        appell_f2(args)
    assert cache_state() == before


# -- frozen high-precision references (tests/data/make_references.py) -------------

F2_REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "f2_references.json").read_text())


@pytest.mark.parametrize("case", F2_REFERENCES["kernel"],
                         ids=lambda c: f"{c['alpha']}-{c['beta']}")
def test_f2_matches_frozen_kernel_references(case):
    # 30-digit values through Appell's transformation and the series,
    # which share no representation with either Euler route
    x, y = np.array(F2_REFERENCES["points"]).T
    families = kernel_families(case["alpha"], case["beta"])
    batched = f2_kernel_families(*families[0], x, y)
    for params, got, name in zip(families, batched, ("main", "dx", "dy", "da")):
        want = np.array([float(v) for v in case["values"][name]])
        assert np.max(np.abs(got - want) / want) <= 1.0e-13
        single = appell_f2_many(*params, x, y)
        assert np.max(np.abs(single - want) / want) <= 1.0e-13


@pytest.mark.parametrize("case", F2_REFERENCES["general"],
                         ids=lambda c: f"{c['x']}-{c['y']}")
def test_f2_matches_frozen_references_for_c_below_b(case):
    # c1 < b1: outside the Euler integral, served through Appell's
    # transformation to the double series
    args = F2Args(*case["params"], case["x"], case["y"])
    assert REL(appell_f2(args), float(case["value"])) <= 1.0e-13


def test_f2_for_c_below_b_fails_loudly_where_the_series_underflows():
    # at (-150, -150) the transformed series' leading terms underflow
    # while its rows still carry about 1e-9 of the sum; summing on gave a
    # value 6.6e-8 off the single-sum continuation
    with pytest.raises(ConvergenceError):
        appell_f2(F2Args(1.3, 1.1, 0.9, 1.05, 1.8, -150.0, -150.0))


# -- the four kernel families on one Euler node set --------------------------------

KERNEL_PARAMS = [(0.25, 0.25), (0.1, 0.4), (0.01, 0.49), (0.49, 0.01)]


def kernel_families(alpha, beta):
    """The (a; b1, b2; c1, c2) sets that f2_kernel_families returns, in its
    order main, dx, dy, da; it takes the first as its input."""
    a, b1, b2 = 2.0 - alpha - beta, 1.0 - alpha, 1.0 - beta
    c1, c2 = 2.0 - 2.0 * alpha, 2.0 - 2.0 * beta
    return [(a, b1, b2, c1, c2), (a + 1, b1 + 1, b2, c1 + 1, c2),
            (a + 1, b1, b2 + 1, c1, c2 + 1), (a + 1, b1, b2, c1, c2)]


@pytest.mark.parametrize("alpha, beta", KERNEL_PARAMS)
def test_f2_kernel_families_match_series_inside_disk(alpha, beta):
    families = kernel_families(alpha, beta)
    rng = np.random.default_rng(24)
    x = -rng.uniform(0.0, 0.9, 30)
    y = -rng.uniform(0.0, 1.0, 30) * (0.95 - np.abs(x))
    values = f2_kernel_families(*families[0], x, y)
    for params, got in zip(families, values):
        for j in range(x.size):
            want = appell_f2_series(F2Args(*params, x[j], y[j]))
            assert REL(got[j], want) <= 1.0e-13


@pytest.mark.parametrize("alpha, beta", KERNEL_PARAMS)
def test_f2_kernel_families_match_continuation(alpha, beta):
    families = kernel_families(alpha, beta)
    # mid range, one axis large, and near-singular pairs at |xi| ~ 1e6, 1e9
    x = np.array([-0.6, -1.7, -4.0, -25.0, -0.02, -300.0,
                  -1.0e6, -2.5e6, -1.0e9, -3.0e9, -0.4])
    y = np.array([-1.2, -0.3, -9.0, -2.0, -40.0, -0.05,
                  -2.0e6, -0.7e6, -2.0e9, -1.1e9, -1.0e9])
    values = f2_kernel_families(*families[0], x, y)
    for params, got in zip(families, values):
        want = appell_f2_many(*params, x, y)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1.0e-12


@pytest.mark.parametrize("alpha, beta", KERNEL_PARAMS)
def test_f2_kernel_families_batch_equals_single_points(alpha, beta):
    # a point's values must not depend on the batch or chunk it lands in,
    # or identical configs could write different artifacts
    main = kernel_families(alpha, beta)[0]
    rng = np.random.default_rng(25)
    x = -np.exp(rng.uniform(math.log(1.0e-3), math.log(1.0e9), 500))
    y = -np.exp(rng.uniform(math.log(1.0e-3), math.log(1.0e9), 500))
    batch = f2_kernel_families(*main, x, y)
    for j in range(0, x.size, 5):
        single = f2_kernel_families(*main, x[j:j + 1], y[j:j + 1])
        for fam_batch, fam_single in zip(batch, single):
            assert fam_batch[j] == fam_single[0]


STAIRCASE_PARAMS = [(0.25, 0.25), (0.1, 0.4), (0.01, 0.49), (0.49, 0.01),
                    (0.45, 0.45), (0.05, 0.05)]


@pytest.mark.parametrize("alpha, beta", STAIRCASE_PARAMS)
def test_f2_kernel_families_staircase_matches_tensor_route(alpha, beta):
    # the staircase node set of f2_kernel_families against the full tensor
    # product of the same axis panels (appell_f2_many's Euler route), per
    # family: log-uniform |xi|, |eta| over [1e-3, 1e11] plus correlated
    # near-singular pairs, where xi and eta grow together
    families = kernel_families(alpha, beta)
    rng = np.random.default_rng(26)
    span = (math.log(1.0e-3), math.log(1.0e11))
    x = -np.exp(rng.uniform(*span, 300))
    y = -np.exp(rng.uniform(*span, 300))
    near = np.exp(rng.uniform(math.log(1.0e2), span[1], 100))
    x = np.concatenate((x, -near))
    y = np.concatenate((y, -near * rng.uniform(0.2, 5.0, 100)))
    values = f2_kernel_families(*families[0], x, y)
    for params, got in zip(families, values):
        want = _f2_euler_many(*params, x, y)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 2.0e-13


def test_f2_kernel_families_rejects_bad_input():
    main = kernel_families(0.25, 0.25)[0]
    with pytest.raises(DomainError):
        f2_kernel_families(*main, np.array([0.1]), np.array([-0.1]))
    with pytest.raises(DomainError):
        f2_kernel_families(*main, np.array([-0.1, -0.2]), np.array([-0.1]))
    with pytest.raises(DomainError):
        f2_kernel_families(1.5, 1.5, 0.75, 1.2, 1.5,
                           np.array([-0.1]), np.array([-0.1]))


def test_gauss_rule_integrates_jacobi_moments():
    # on u = (1 + t)/2 the rule integrates u^e u^k over [0, 1] to 1/(e+k+1)
    # for k up to 2n - 1
    n = 6
    for e in (0.0, -0.5, 0.3):
        nodes, weights = gauss_rule(n, e)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert gauss_rule(n, e)[0] is nodes
        u = 0.5 * (nodes + 1.0)
        for k in range(2 * n):
            got = 0.5 ** (e + 1.0) * np.dot(weights, u ** k)
            assert REL(got, 1.0 / (e + k + 1.0)) <= 1.0e-14


# -- parameter shifts -------------------------------------------------------------

def test_param_shift_identity():
    args = F2Args(1.5, 0.75, 0.75, 1.5, 1.5, -0.2, -0.3)
    coef, shifted = f2_param_shift(args, 0, 0)
    assert coef == 1.0
    assert shifted == args


def test_param_shift_first_x():
    args = F2Args(1.5, 0.75, 0.8, 1.5, 1.6, -0.2, -0.3)
    coef, shifted = f2_param_shift(args, 1, 0)
    assert coef == pytest.approx(1.5 * 0.75 / 1.5, rel=1e-15)
    assert (shifted.a, shifted.b1, shifted.b2) == (2.5, 1.75, 0.8)
    assert (shifted.c1, shifted.c2) == (2.5, 1.6)
    assert (shifted.x, shifted.y) == (args.x, args.y)


def test_param_shift_matches_finite_differences():
    rng = np.random.default_rng(23)
    h = 1.0e-5
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        b1, b2 = rng.uniform(0.3, 1.2, 2)
        c1, c2 = rng.uniform(1.0, 2.0, 2)
        x, y = -rng.uniform(0.1, 0.6, 2)
        args = F2Args(a, b1, b2, c1, c2, x, y)
        cx, sx = f2_param_shift(args, 1, 0)
        dx = cx * appell_f2(sx)
        fd = (appell_f2(F2Args(a, b1, b2, c1, c2, x + h, y))
              - appell_f2(F2Args(a, b1, b2, c1, c2, x - h, y))) / (2 * h)
        assert REL(dx, fd) <= 1.0e-6
        cy, sy = f2_param_shift(args, 0, 1)
        dy = cy * appell_f2(sy)
        fd = (appell_f2(F2Args(a, b1, b2, c1, c2, x, y + h))
              - appell_f2(F2Args(a, b1, b2, c1, c2, x, y - h))) / (2 * h)
        assert REL(dy, fd) <= 1.0e-6


# -- log-singular 3F2 -------------------------------------------------------------

BAL = (1.5, 0.75, 0.75, 1.5, 1.5)  # zero-balanced parameter set


def direct_3f2(a1, a2, a3, b1, b2, z, terms=500):
    total, t = 1.0, 1.0
    for n in range(terms):
        t *= (a1 + n) * (a2 + n) * (a3 + n) * z / ((b1 + n) * (b2 + n)
                                                   * (n + 1))
        total += t
    return total


def test_3f2_tends_to_one_at_zero():
    assert abs(log_singular_3f2(*BAL, 1.0e-8) - 1.0) <= 1.0e-7


def test_3f2_matches_direct_series():
    got = log_singular_3f2(*BAL, 0.3)
    assert abs(got - direct_3f2(*BAL, 0.3)) <= 1.0e-8
    # 30-digit reference at the same point
    assert REL(got, 1.13903179138800218534) <= 1.0e-12


def test_3f2_reference_values():
    # 30-digit references at z = 0.4 and deep in the log regime
    assert REL(log_singular_3f2(*BAL, 0.4),
               1.20229852611730671744) <= 1.0e-12
    assert REL(log_singular_3f2(*BAL, 0.999),
               4.67953797942472297215) <= 1.0e-11


def test_3f2_log_law_near_one():
    # F(z) ~ -K ln(1-z) + L with K the gamma-product constant; the ratio
    # deviates from K by O(1/ln(1/(1-z)))
    a1, a2, a3, b1, b2 = BAL
    K = math.exp(ln_gamma(b1) + ln_gamma(b2) - ln_gamma(a1) - ln_gamma(a2)
                 - ln_gamma(a3))
    assert REL(K, 0.590170299508048113023) <= 1.0e-13
    devs = []
    for ex in (6, 9, 12):
        z = 1.0 - 10.0 ** (-ex)
        ratio = log_singular_3f2(*BAL, z) / (-math.log1p(-z))
        dev = abs(ratio - K)
        assert dev <= 1.5 / abs(math.log1p(-z))
        devs.append(dev)
    assert devs[2] < devs[1] < devs[0]
    # 30-digit value of the bounded offset F + K ln(1-z) at z = 1 - 1e-9;
    # the summed remainder is truncated, which caps the absolute accuracy
    # of the offset near 2e-8 this close to the unit argument
    offset = log_singular_3f2(*BAL, 1.0 - 1.0e-9) + K * math.log(1.0e-9)
    assert abs(offset - 0.60037460461987610586) <= 5.0e-8


def test_3f2_rejects_unbalanced_parameters():
    with pytest.raises(DomainError):
        log_singular_3f2(1.5, 0.75, 0.75, 1.5, 1.6, 0.3)


def test_3f2_rejects_arguments_outside_unit_interval():
    with pytest.raises(DomainError):
        log_singular_3f2(*BAL, 0.0)
    with pytest.raises(DomainError):
        log_singular_3f2(*BAL, 1.0)
