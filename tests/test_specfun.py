"""Hypergeometric building blocks: values, identities, error paths.

Reference values marked "30-digit" were computed with an independent
arbitrary-precision evaluation (direct series or gamma-product formulas)
and are frozen here as decimal literals.
"""

import json
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest

from biaxpot import (ConvergenceError, DivergenceError, DomainError,
                     appell_f2, appell_f2_many, appell_f2_series_sets,
                     appell_f2_sets, f2_kernel_families, gauss_2f1,
                     gauss_2f1_at_one, ln_gamma)
from biaxpot import specfun
from biaxpot.specfun import (_f2_euler_many, _kernel_axis, gauss_rule,
                             jacobi_rules)

REL = lambda got, want: abs(got - want) / abs(want)


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


def test_ln_gamma_duplication_identity():
    # Legendre: ln G(2x) = (2x - 1) ln 2 - ln(pi)/2 + ln G(x) + ln G(x + 1/2)
    for x in np.geomspace(1.0e-4, 300.0, 120):
        lhs = ln_gamma(2.0 * x)
        rhs = ((2.0 * x - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
               + ln_gamma(x) + ln_gamma(x + 0.5))
        assert abs(lhs - rhs) <= 1.0e-13 * max(1.0, abs(lhs))


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
    # gauss_2f1 against the y = 0 edge of F2, an independent tree:
    # F2(a; b, 1; c, 2; z, 0) = 2F1(a, b; c; z), for z > 0 through Pfaff's
    # (1-z)^(-b) F2(c-a; b, 1; c, 2; z/(z-1), 0).  gauss_2f1 reflects z < 0
    # itself, and z < -1 lands on its connection branch
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(200):
        a, b = rng.uniform(0.1, 2.0, 2)
        c = rng.uniform(0.8, 3.0)
        z = rng.uniform(-50.0, 0.9)
        cases.append((a, b, c, z))
    a, b, c, z = np.array(cases).T
    pos = z > 0.0
    edge = np.where(pos, (1.0 - z) ** -b, 1.0) * appell_f2_sets(
        np.where(pos, c - a, a), b, 1.0, c, 2.0,
        np.where(pos, z / (z - 1.0), z), 0.0)
    for case, want in zip(cases, edge.tolist()):
        assert REL(gauss_2f1(*case), want) <= 1.0e-10


# The kernel's inner-integral 2F1 sets against 30-digit values
# (tests/data/make_references.py), at z from -1e-3 to -1e11.
GAUSS_REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "gauss_2f1_references.json").read_text())


@pytest.mark.parametrize("case", GAUSS_REFERENCES["sets"],
                         ids=lambda c: "{}-{}-{}".format(
                             c["alpha"], c["beta"], c["params"][1]))
def test_gauss_2f1_matches_frozen_kernel_references(case):
    # the batched route, its scalar wrapper, and the set's values and its
    # neighbour's on the slope of one series, each within 1e-14
    z = np.array(GAUSS_REFERENCES["points"])
    want = np.array([float(v) for v in case["values"]])
    got = gauss_2f1(*case["params"], z)
    assert np.max(np.abs(got - want) / want) <= 1.0e-14
    assert [gauss_2f1(*case["params"], v) for v in z] == got.tolist()
    a, b, c = case["params"]
    sets = [s["params"] for s in GAUSS_REFERENCES["sets"]]
    if [a, b + 1.0, c + 1.0] in sets:
        shifted = GAUSS_REFERENCES["sets"][sets.index([a, b + 1.0, c + 1.0])]
        value, neighbour = specfun._gauss_2f1_sets([(a, b, c)], [z.size], z,
                                                   neighbours=True)
        assert np.max(np.abs(value - want) / want) <= 1.0e-14
        want = np.array([float(v) for v in shifted["values"]])
        assert np.max(np.abs(neighbour - want) / want) <= 1.0e-14


def test_gauss_2f1_batch_equals_single_points():
    # a point's value, and its neighbour's, must not depend on the batch:
    # kernel sets (one terminating, one near an integer excess), generic
    # sets, z on every branch, and one call over all sets at once against
    # one call per point; the batches are large enough that their series
    # take terms one at a time before the running products of the tail
    rng = np.random.default_rng(41)
    sets = [(2.5, 0.75, 1.5), (2.5, 0.6, 1.2), (2.5, 0.51, 1.02),
            (1.3, 0.4, 2.1), (0.7, 1.6, 1.1), (1.2, 0.8, 2.9)]
    z = np.concatenate((-np.exp(rng.uniform(-7.0, 25.0, 520)),
                        rng.uniform(0.0, 0.98, 80), [0.0, 1.0]))
    for p in sets:
        # z = 1 only where 2F1 converges there
        zs = z if p[2] - p[0] - p[1] > 0.0 else z[:-1]
        batch = gauss_2f1(*p, zs.reshape(-1, 1))
        assert batch.shape == (zs.size, 1)
        assert [gauss_2f1(*p, v) for v in zs] == batch.ravel().tolist()
    z = -np.exp(rng.uniform(-7.0, 25.0, 200))
    counts = rng.integers(0, 200, len(sets))
    mixed = specfun._gauss_2f1_sets(
        sets, counts, np.concatenate([z[:n] for n in counts]),
        neighbours=True)
    at = 0
    for p, n in zip(sets, counts):
        for j in range(n):
            single = specfun._gauss_2f1_sets([p], [1], z[j:j + 1],
                                             neighbours=True)
            assert np.array_equal(single[:, 0], mixed[:, at])
            at += 1


def edge_check_draws(count=200, seed=0):
    """The (a, b, c, z) draws of the edge check of ``verify specfun``."""
    rng = np.random.default_rng(seed)
    return np.array([(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                      rng.uniform(0.6, 3.0), rng.uniform(-3.0, 0.85))
                     for _ in range(count)])


def test_gauss_2f1_arrays_equal_scalar_calls_bitwise():
    # one call over many parameter sets gives each point's scalar value bit
    # for bit: the edge check's draws, and every kernel reference set over
    # all its points as one (sets, points) block
    cases = edge_check_draws()
    got = gauss_2f1(*cases.T)
    assert got.shape == (len(cases),)
    assert got.tolist() == [gauss_2f1(*case) for case in cases.tolist()]
    params = np.array([c["params"] for c in GAUSS_REFERENCES["sets"]])
    z = np.array(GAUSS_REFERENCES["points"])
    block = gauss_2f1(*(params.T[:, :, None]), z)
    assert block.shape == (len(params), z.size)
    assert block.tolist() == [[gauss_2f1(*p, v) for v in z.tolist()]
                              for p in params.tolist()]


def test_gauss_2f1_broadcasts_and_gives_floats_for_scalars():
    assert type(gauss_2f1(0.5, 0.7, 1.5, -0.3)) is float
    assert type(gauss_2f1(*(np.float64(v) for v in (0.5, 0.7, 1.5, -0.3)))) \
        is float
    assert type(gauss_2f1(1, 1, 2, 0)) is float
    assert gauss_2f1(0.5, 0.7, 1.5, [-0.3]).shape == (1,)
    b = np.array([0.2, 0.7, 1.1])
    z = np.array([[-0.4], [0.0], [0.6], [1.0]])
    got = gauss_2f1(0.5, b, 2.5, z)
    assert got.shape == (4, 3)
    for i, j in np.ndindex(got.shape):
        assert got[i, j] == gauss_2f1(0.5, b[j], 2.5, z[i, 0])
    assert gauss_2f1(0.5, b, 2.5, np.empty((0, 1))).shape == (0, 3)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, b, 2.5, np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gauss_2f1_rejects_non_finite_parameters(bad):
    # a typed error, not the ValueError or OverflowError of round(), and no
    # NaN from the Gauss summation
    for column in range(3):
        params = [0.5, 0.7, 1.5]
        params[column] = bad
        with pytest.raises(DomainError):
            gauss_2f1(*params, -0.3)
        with pytest.raises(DomainError):
            gauss_2f1_at_one(*params)
        params[column] = np.array([params[column], 0.6])
        with pytest.raises(DomainError):
            gauss_2f1(*params, np.array([-0.3, 0.2]))
    with pytest.raises(DomainError):
        gauss_2f1_at_one(1, 1, bad)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.7, 1.5, np.array([-0.3, bad]))


def test_gauss_2f1_arrays_raise_the_scalar_domain_errors():
    # a z beyond 1 or a nonpositive integer c anywhere in an array call
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.5, np.array([0.2, 1.0 + 1.0e-12, -3.0]))
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, np.array([1.5, -2.0]), 0.3)
    with pytest.raises(DomainError):
        gauss_2f1(np.array([0.5, 0.6]), 0.5, -1.0, np.array([0.3, -0.2]))


def series_table_loop(a, b, c, terms, moment):
    """One set's (ratios, first, degrees) as the table was built set by set,
    each bucket's degree by a binary search: the reference of the batched
    ``specfun._series_tables``."""
    m = np.arange(terms, dtype=float)
    ratio = (a + m) * (b + m) / ((c + m) * (m + 1.0))
    log_tol = math.log2(0.25 * specfun.SERIES_RTOL)
    with np.errstate(divide="ignore"):
        log_coef = np.cumsum(np.log2(np.abs(ratio)))
    bounds = [(log_coef, m + 1.0)]
    if moment:
        bounds.append((log_coef + np.log2(m + 1.0) - log_coef[0],
                       np.maximum(m, 0.5)))
    reach = np.ones(terms)
    for log_size, power in bounds:
        r = np.exp2(np.minimum((log_tol - log_size) / power, 0.0))
        for _ in range(2):
            r = np.exp2(np.minimum((log_tol + np.log2(1.0 - np.minimum(
                r, 0.5 + 0.5 * specfun.Z_SERIES_MAX)) - log_size) / power,
                0.0))
        reach = np.minimum(reach, r)
    if moment:
        reach[0] = 0.0
    admits = np.minimum.accumulate(reach[::-1])[::-1]
    buckets = specfun._BUCKETS
    degrees = np.searchsorted(admits, np.exp2(-np.exp2(
        buckets / specfun._SERIES_BUCKETS)))
    served = np.flatnonzero(degrees < (
        terms if terms == specfun.MAX_TERMS else terms // 2 + 1))
    first = served[0] if served.size else buckets.size
    degrees = degrees[first:].astype(np.int16)
    return ratio, int(buckets[0]) + int(first), degrees


def test_series_tables_batch_equals_one_set_bitwise():
    # a table built with many others is the table built alone, and the
    # table of the set-by-set loop, for both kinds of degree and lengths up
    # to MAX_TERMS; among the sets are terminating ones, and ones whose
    # coefficients grow before they fall
    rng = np.random.default_rng(42)
    sets = [(float(a), float(b), float(c)) for a, b, c in zip(
        rng.uniform(-3.0, 4.0, 40), rng.uniform(-3.0, 4.0, 40),
        rng.uniform(0.05, 5.0, 40))]
    sets += [(2.5, 0.75, 1.5), (-2.0, 0.5, 1.5), (1.0, 1.0, 2.0)]
    for terms in (64, 512, specfun.MAX_TERMS):
        for moment in (False, True):
            batch = specfun._series_tables(sets, terms, moment)
            for p, (ratio, first, degrees) in zip(sets, batch):
                for one in (specfun._series_tables([p], terms, moment)[0],
                            series_table_loop(*p, terms, moment)):
                    assert np.array_equal(ratio, one[0]) and first == one[1]
                    assert degrees.dtype == one[2].dtype
                    assert np.array_equal(degrees, one[2])


@pytest.mark.parametrize("moment", [False, True])
def test_series_degrees_batch_equals_one_set_bitwise(monkeypatch, moment):
    # sets that grow their tables to MAX_TERMS (|z| up to 0.994) and sets
    # that stop at 64 terms, all in one call and each in a call alone
    sets = [(0.3, 0.45, 1.2), (1.7, 0.2, 2.6), (0.75, 1.25, 2.1),
            (2.5, 0.75, 1.5)]
    counts = [3, 2, 1, 2]
    size = np.array([0.994, 0.1, 1.0e-5, 0.5, 0.9, 0.3, 0.02, 0.2])
    built = []
    build = specfun._series_tables

    def spy(params, terms, moment):
        built.append((len(params), terms))
        return build(params, terms, moment)

    monkeypatch.setattr(specfun, "_series_tables", spy)
    specfun._SERIES_TABLES.clear()
    degree, table = specfun._series_degrees(sets, counts, size, moment)
    # every length once, all sets together at 64 terms
    assert built[0] == (len(sets), 64)
    assert built[-1][1] == specfun.MAX_TERMS
    assert len({terms for _, terms in built}) == len(built)
    lo = 0
    for i, (p, n) in enumerate(zip(sets, counts)):
        specfun._SERIES_TABLES.clear()
        one, ratios = specfun._series_degrees([p], [n], size[lo:lo + n],
                                              moment)
        assert np.array_equal(degree[lo:lo + n], one)
        assert np.array_equal(table[:ratios.shape[0], i], ratios[:, 0])
        assert not table[ratios.shape[0]:, i].any()
        lo += n


@pytest.mark.parametrize("moment", [False, True])
def test_series_degrees_keeps_a_bounded_cache(moment):
    # one call with more distinct sets than the cache holds leaves the cache
    # at its bound, and every set reads as in a call of its own
    rng = np.random.default_rng(31)
    sets = [(float(a), float(b), float(c)) for a, b, c in zip(
        rng.uniform(0.1, 3.0, 100), rng.uniform(0.1, 3.0, 100),
        rng.uniform(0.5, 4.0, 100))]
    size = rng.uniform(0.0, 0.9, 2 * len(sets))
    specfun._SERIES_TABLES.clear()
    degree, table = specfun._series_degrees(sets, [2] * len(sets), size,
                                            moment)
    assert len(specfun._SERIES_TABLES) == specfun._SERIES_TABLES_MAX == 64
    for i, p in enumerate(sets):
        specfun._SERIES_TABLES.clear()
        one, ratios = specfun._series_degrees([p], [2], size[2 * i:2 * i + 2],
                                              moment)
        assert np.array_equal(degree[2 * i:2 * i + 2], one)
        assert np.array_equal(table[:ratios.shape[0], i], ratios[:, 0])
        assert not table[ratios.shape[0]:, i].any()


# -- appell F2 series -------------------------------------------------------------

def test_f2_series_at_origin():
    assert appell_f2_series_sets(1.5, 0.75, 0.75, 1.5, 1.5, 0.0, 0.0) == 1.0


def test_f2_series_collapses_on_axis():
    args = (1.1, 0.6, 0.9, 1.4, 1.7, -0.45, 0.0)
    want = gauss_2f1(1.1, 0.6, 1.4, -0.45)
    assert REL(appell_f2_series_sets(*args), want) <= 1.0e-13


def test_f2_series_unit_for_zero_a():
    assert appell_f2_series_sets(0.0, 0.6, 0.9, 1.4, 1.7, -0.3, -0.4) == 1.0


def test_f2_series_rejects_divergent_arguments():
    with pytest.raises(DomainError):
        appell_f2_series_sets(1.5, 0.75, 0.75, 1.5, 1.5, -0.6, -0.5)


# appell_f2_series_sets at y = 0, as the edge check takes its c <= b cases
# through Appell's map, frozen bit for bit: a row there is its lead term
Y_ZERO_EDGE = (
    "0x1.d18995fd8504bp-1", "0x1.f037551af5c13p-1", "0x1.de0d2de53319ap-1",
    "0x1.8914af4db2507p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f36d883913537p-1",
    "0x1.fc30e30fa016dp-1", "0x1.fb46f94bfc9dbp-1", "0x1.ed9df49ba0f70p-1",
    "0x1.317882067a63cp-1", "0x1.c323c26772168p-1", "0x1.055fdc6d01062p+0",
    "0x1.101209ccb6eeep+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.c07fea21eef84p-1",
    "0x1.f0df796cd5b77p-1", "0x1.02cd478598c86p+0", "0x1.087ff05252429p+0",
    "0x1.d4ccfcfeb9e2cp-4", "0x1.9120ece207863p-1", "0x1.1999999999999p+0",
    "0x1.4444444444444p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5df58484b436fp-1",
    "0x1.e392c05ac503fp-1", "0x1.07371ce909730p+0", "0x1.124f870e7f9ddp+0",
)


def test_f2_series_at_y_zero_keeps_its_values():
    cases = np.array([(a, b, c, z) for a in (0.3, 1.1, 1.9)
                      for b, c in ((1.2, 0.9), (1.9, 1.9), (0.7, 0.65))
                      for z in (-2.5, -0.4, 0.3, 0.8)])
    a, b, c, z = cases.T
    w = np.where(z > 0.0, z / (z - 1.0), z)
    a = np.where(z > 0.0, c - a, a)
    d = w - 1.0
    got = appell_f2_series_sets(a, c - b, 1.0, c, 2.0, w / d, 0.0 / d)
    assert [v.hex() for v in got.tolist()] == list(Y_ZERO_EDGE)


def test_f2_series_sums_past_the_crest_of_a_row():
    # near the disk edge at positive arguments the terms of late rows grow
    # before they decay; 30-digit reference of the double series
    args = (1.5749078802178267, 0.9678725010533668, 1.4484874592602872,
            1.6511501723072097, 1.8005905651157152,
            0.32149970052137294, 0.5520107184548619)
    assert REL(appell_f2_series_sets(*args),
               7.31237123279686245233) <= 1.0e-13


# Values of the point-by-point summation loop that appell_f2_series_sets
# replaced, frozen as float.hex: third-quadrant points with |x| + |y| from
# 0.05 to 0.9, positive and mixed signs up to |x| + |y| = 0.97, points on
# an axis, the origin, and the transformed arguments of the c <= b branch
# of appell_f2_sets (a, c1 - b1, c2 - b2, c1, c2, x/(x+y-1), y/(x+y-1)).
SERIES_FROZEN = [
    ((2.13788412616668, 0.6684805730426748, 1.047999462167448,
      2.362414052118509, 1.9873898478687189, -0.02799072653990651,
      -0.022009273460093494),
     "0x1.eb67105c66dd3p-1"),
    ((2.189002995252705, 1.1515940811856835, 0.643458541741865,
      2.12869519952981, 1.8387942984162085, -0.04317727747735855,
      -0.10126716696708588),
     "0x1.c527ed722027fp-1"),
    ((0.67783899350774, 1.1295242001938293, 1.4813092651845672,
      1.8977330243026185, 2.195677712948843, -0.037483871296822895,
      -0.20140501759206597),
     "0x1.d013234455a19p-1"),
    ((1.3295014794326119, 0.8858949546906723, 0.5674516555891139,
      1.6868798638898725, 2.0995663818023305, -0.18088090303147297,
      -0.15245243030186034),
     "0x1.b267ef5f20777p-1"),
    ((0.6342244741181912, 1.3452912534066641, 0.742814979629137,
      2.7586617716750554, 2.1128593880968145, -0.28344008162229034,
      -0.14433769615548744),
     "0x1.cbedfac1a4267p-1"),
    ((1.6237769692655326, 1.2846037605242047, 1.1368883221991515,
      1.7980446722435106, 2.809358940493456, -0.24265204324400638,
      -0.27957017897821584),
     "0x1.584a1c73b6927p-1"),
    ((0.34906347280804556, 1.5280869611616825, 1.2527732415411683,
      3.269823677022873, 1.8166760008741203, -0.4671658469376109,
      -0.1495008197290558),
     "0x1.d172749ed48ccp-1"),
    ((1.075422294389793, 0.7814352327813323, 1.1286342340659268,
      2.3368384950860923, 2.6855062813192387, -0.2457750812402956,
      -0.46533602987081557),
     "0x1.8e4c5034b5918p-1"),
    ((0.42438790424937034, 0.6645608746051561, 1.4491348555897687,
      2.229701528883443, 2.6891787997046324, -0.6977937892757445,
      -0.1077617662798111),
     "0x1.d1e646e4cc536p-1"),
    ((1.870275692909612, 0.5717318310603703, 1.3013952537721425,
      1.0477750908953634, 2.917446739733002, -0.20061613322082317,
      -0.699383866779177),
     "0x1.16559ec6802a8p-1"),
    ((0.6064049406210719, 1.4896649862437745, 0.33047436748538006,
      3.250804368973772, 1.531437791436595, 0.18132212222293326,
      0.4186778777770667),
     "0x1.22b039d07246bp+0"),
    ((1.0101405334697477, 0.962926015649, 1.4537724359970459,
      1.9928597244832356, 2.2656108667685313, 0.2916095503801381,
      -0.508390449619862),
     "0x1.b7d844657da53p-1"),
    ((1.1637371116140554, 1.0660859349290688, 0.3805252950825977,
      2.025031989442211, 1.3050148389371043, -0.2774390040533204,
      0.6225609959466796),
     "0x1.1f0ec01aa19d3p+0"),
    ((1.069601381899443, 1.2059807936594715, 1.1952589832520966,
      2.5096907862152724, 1.6769415240479368, 0.6284997903877744,
      0.32150020961222553),
     "0x1.7c650e91f0e33p+1"),
    ((2.214275011105824, 1.075937708908376, 1.3125296625500673,
      2.5157189773033912, 2.0726530285947953, 0.19940206320093395,
      0.770597936799066),
     "0x1.9303c6e21f710p+4"),
    ((1.2392713304693617, 0.697420198826708, 0.30544826327182784,
      2.01177389104312, 1.9757941028560368, -0.5648837953077241,
      -0.40511620469227577),
     "0x1.8b3c860036cc7p-1"),
    ((0.3118084322631799, 1.4566684037814785, 1.4925173449584626,
      1.9428249929626715, 2.6798790250405036, -0.7, 0.0),
     "0x1.c2460088d2ed9p-1"),
    ((2.1410371126387924, 0.5338737680914414, 0.6105801730962779,
      2.3230769290044924, 1.7156155567282727, 0.0, -0.8),
     "0x1.4b55335e23409p-1"),
    ((1.8543218836344315, 1.1839877043727975, 1.0731811816763321,
      2.7656249278049687, 2.530570747326201, 0.5, 0.0),
     "0x1.b03f3d100cbe6p+0"),
    ((0.31390280471216236, 0.49670601868726444, 0.44824689334684986,
      1.1326103098141653, 1.7009351067963574, 0.0, 0.0),
     "0x1.0000000000000p+0"),
    ((2.303533518629706, 1.084844430826631, -0.06616807441191547,
      1.7653344451520026, 0.4629178769150633, 0.03363031985533189,
      0.48907619712242956),
     "0x1.579d87735fe94p-1"),
    ((0.4334081742270152, -0.23972865469433224, 0.5024162921319628,
      1.1866135998008098, 1.9757481021675796, 0.04633035279719354,
      0.244107949181456),
     "0x1.066c2885b326fp+0"),
    ((0.5208397144764316, 1.1685216743891307, -0.19123672290180882,
      2.7581160329173278, 1.0753426810267546, 0.2579009566079888,
      0.6707652357739824),
     "0x1.eb07f24b99b5fp-1"),
    ((0.44111300640144063, -0.2243958006558609, 0.6469980929321453,
      0.48857995981108776, 1.8732523145961455, 0.016931054645167597,
      0.06562501376512354),
     "0x1.01b7a915f6428p+0"),
    ((0.672297412825281, 0.6988820111310516, -0.11005275168509032,
      0.9592680136707061, 0.5413335845876325, 0.8958204998566703,
      0.0010597485450872942),
     "0x1.71c3e74939c25p+1"),
    ((0.3985344546689088, -0.27948464495992664, 0.6999214914860976,
      0.8839354259138616, 2.146275299498668, 0.613519269330128,
      0.2924710966231588),
     "0x1.da067f5141495p-1"),
    ((1.7098600291678332, 0.9909417075282738, -0.08931624178423253,
      2.1540423782309515, 0.39402846589244117, 0.6503678185170967,
      0.017713324568320997),
     "0x1.1780ad532d368p+1"),
    ((1.9047954225157495, -0.26807574150988356, 0.3954012370513611,
      0.3614064559367366, 1.9700182487576872, 0.011496607485431158,
      0.8815277433406042),
     "0x1.10b6963480631p+1"),
    ((2.320821115240521, 1.2423680373768553, -0.2905271681894446,
      2.63258720700931, 0.8025839750539234, 0.6359721910454655,
      0.3070357282898967),
     "0x1.a5705eb024a8cp-3"),
    ((1.7029148233671751, -0.290213398213903, 1.0676890577070475,
      0.6985605130076897, 2.4014803037244827, 0.2058439997970419,
      0.02522421332519337),
     "0x1.b2423bd40f519p-1"),
]


def test_f2_series_sets_keep_the_frozen_loop_values_bitwise():
    # alone, shuffled and as a (5, 6) block: each point's terms, partial
    # sums and stopping tests are its own, whatever else the batch holds
    sets = np.array([case for case, _ in SERIES_FROZEN])
    want = np.array([float.fromhex(value) for _, value in SERIES_FROZEN])
    for case, value in zip(sets.tolist(), want.tolist()):
        assert appell_f2_series_sets(*case) == value
    order = np.random.default_rng(15).permutation(len(sets))
    assert np.array_equal(appell_f2_series_sets(*sets[order].T), want[order])
    block = appell_f2_series_sets(*sets.T.reshape(7, 5, 6))
    assert block.shape == (5, 6)
    assert np.array_equal(block.ravel(), want)


def series_loop(a, b1, b2, c1, c2, x, y):
    """The double series summed point by point, the loop the batched
    series must repeat operation for operation (for converging sums)."""
    rtol, run = specfun.SERIES_RTOL, specfun.SERIES_RUN
    total, lead, prev_row, small_rows = 0.0, 1.0, math.inf, 0
    for m in range(specfun.MAX_TERMS):
        term = row = lead
        small = 0
        for n in range(specfun.MAX_TERMS):
            prev = abs(term)
            term *= (a + m + n) * (b2 + n) * y / ((c2 + n) * (n + 1))
            row += term
            if abs(term) <= prev and abs(term) <= rtol * max(
                    abs(row), rtol * abs(total), 1e-300):
                small += 1
                if small >= run:
                    break
            else:
                small = 0
        total += row
        floor = rtol * max(abs(total), 1e-300)
        if abs(row) <= min(prev_row, floor) and abs(lead) <= floor:
            small_rows += 1
            if small_rows >= run:
                return total
        else:
            small_rows = 0
        prev_row = abs(row)
        lead *= (a + m) * (b1 + m) * x / ((c1 + m) * (m + 1))
    raise AssertionError("the reference loop did not converge")


def test_f2_series_sets_repeat_the_loop_bitwise():
    # random sets anywhere on the disk up to |x| + |y| = 0.9, both signs,
    # negative b and c below b included
    rng = np.random.default_rng(16)
    radius = rng.uniform(0.0, 0.9, 40)
    share = rng.uniform(0.0, 1.0, 40)
    sets = np.column_stack((
        rng.uniform(0.2, 2.5, 40), rng.uniform(-0.4, 1.6, (40, 2)),
        rng.uniform(0.3, 2.8, (40, 2)),
        radius * share * rng.choice([-1.0, 1.0], 40),
        radius * (1.0 - share) * rng.choice([-1.0, 1.0], 40)))
    batch = appell_f2_series_sets(*sets.T)
    for case, value in zip(sets.tolist(), batch.tolist()):
        assert series_loop(*case) == value


def test_f2_series_sets_broadcast_one_set_over_points():
    x = -np.linspace(0.0, 0.45, 7)
    y = np.linspace(0.4, -0.5, 7)
    got = appell_f2_series_sets(1.1, 0.6, 0.9, 1.4, 1.7, x, y)
    for xj, yj, value in zip(x.tolist(), y.tolist(), got.tolist()):
        assert appell_f2_series_sets(1.1, 0.6, 0.9, 1.4, 1.7, xj, yj) == value


def test_f2_series_sets_empty_input_gives_an_empty_result():
    for shape in ((0,), (2, 0)):
        got = appell_f2_series_sets(1.5, 0.75, 0.75, 1.5, 1.5,
                                    np.zeros(shape), np.zeros(shape))
        assert got.shape == shape


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_f2_series_rejects_non_finite_arguments(bad):
    # a NaN argument used to sum on to the term cap and end in
    # ConvergenceError; it is a domain error, in any of the seven
    for k in range(7):
        args = [1.5, 0.75, 0.75, 1.5, 1.5, -0.2, 0.3]
        args[k] = bad
        with pytest.raises(DomainError):
            appell_f2_series_sets(*args)
        batch = np.tile([1.5, 0.75, 0.75, 1.5, 1.5, -0.2, 0.3], (3, 1))
        batch[1, k] = bad
        with pytest.raises(DomainError):
            appell_f2_series_sets(*batch.T)


def test_f2_series_sets_reject_bad_arguments():
    good = [1.5, 0.75, 0.75, 1.5, 1.5, -0.2, -0.3]
    for column, value in ((5, -0.71), (6, 0.8), (5, 1.0), (3, 0.0),
                          (4, -2.0)):
        bad = np.tile(good, (3, 1))
        bad[1, column] = value
        with pytest.raises(DomainError):
            appell_f2_series_sets(*bad.T)
    with pytest.raises(DomainError):
        appell_f2_series_sets(*good[:5], np.full(3, -0.2), np.full(2, -0.3))


def test_f2_series_sets_raise_convergence_errors(monkeypatch):
    # the transformed series of F2(1.3; 1.1, 0.9; 1.05, 1.8; -150, -150):
    # its leading terms underflow before its rows decay, alone or among
    # points that converge
    x = -150.0 / (-150.0 - 150.0 - 1.0)
    underflow = [1.3, 1.05 - 1.1, 0.9, 1.05, 1.8, x, x]
    with pytest.raises(ConvergenceError, match="underflow"):
        appell_f2_series_sets(*underflow)
    with pytest.raises(ConvergenceError, match="underflow"):
        appell_f2_series_sets(*np.array([[1.5, 0.75, 0.75, 1.5, 1.5, -0.2,
                                          -0.3], underflow]).T)
    # a row longer than the term cap, and more rows than the cap
    monkeypatch.setattr(specfun, "MAX_TERMS", 20)
    with pytest.raises(ConvergenceError, match="inner"):
        appell_f2_series_sets(1.5, 0.75, 0.75, 1.5, 1.5, -0.05, -0.9)
    with pytest.raises(ConvergenceError, match="outer"):
        appell_f2_series_sets(1.5, 0.75, 0.75, 1.5, 1.5, -0.9, 0.0)


# -- appell F2 continuation -------------------------------------------------------

def test_f2_at_origin():
    assert appell_f2(1.5, 0.75, 0.75, 1.5, 1.5, 0.0, 0.0) == 1.0


def test_f2_reference_value():
    # 30-digit direct double series at (-0.2, -0.3)
    args = (1.5, 0.75, 0.75, 1.5, 1.5, -0.2, -0.3)
    want = 0.726984689365876771752
    assert REL(appell_f2(*args), want) <= 1.0e-12


def test_f2_matches_series_inside_disk():
    args = (1.5, 0.75, 0.75, 1.5, 1.5, -0.2, -0.3)
    assert REL(appell_f2(*args), appell_f2_series_sets(*args)) <= 1.0e-10


def test_f2_single_variable_reduction():
    # y = 0 reduces to a reflected Gauss function:
    # F2(a;b1,b2;c1,c2;-1/2,0) = (3/2)^(-b1) F(c1-a, b1; c1; 1/3)
    a, b1, b2, c1, c2 = 1.3, 0.7, 0.9, 1.6, 1.8
    got = appell_f2(a, b1, b2, c1, c2, -0.5, 0.0)
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
        args = (a, b1, b2, c1, c2, x, y)
        worst = max(worst,
                    REL(appell_f2(*args), appell_f2_series_sets(*args)))
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
        lhs = (b1 / c1 * x * appell_f2(a + 1, b1 + 1, b2, c1 + 1, c2, x, y)
               + b2 / c2 * y * appell_f2(a + 1, b1, b2 + 1, c1, c2 + 1, x, y))
        up = appell_f2(a + 1, b1, b2, c1, c2, x, y)
        at = appell_f2(*base)
        scale = max(abs(up), abs(at), 1.0)
        assert abs(lhs - (up - at)) <= 1.0e-9 * scale


def test_f2_contiguous_relation_at_near_integer_excess():
    # a - b2 = -2.08e-4: the inner connection formula of the product
    # expansion would cancel two nearly opposite gamma factors here
    a, b1, b2 = 1.1670268095962184, 1.0106648752340812, 1.1672350250846228
    c1, c2 = 2.749182427100841, 2.8078362358953264
    x, y = -0.08482690459446762, -1.4024856848406408
    lhs = (b1 / c1 * x * appell_f2(a + 1, b1 + 1, b2, c1 + 1, c2, x, y)
           + b2 / c2 * y * appell_f2(a + 1, b1, b2 + 1, c1, c2 + 1, x, y))
    rhs = (appell_f2(a + 1, b1, b2, c1, c2, x, y)
           - appell_f2(a, b1, b2, c1, c2, x, y))
    assert abs(lhs - rhs) <= 1.0e-12 * abs(rhs)


def test_f2_rejects_non_finite_arguments():
    for bad in (math.nan, -math.inf):
        with pytest.raises(DomainError):
            appell_f2(1.5, 0.75, 0.75, 1.5, 1.5, bad, -0.1)
        with pytest.raises(DomainError):
            appell_f2_many(1.5, 0.75, 0.75, 1.5, 1.5,
                           np.array([-0.2, -0.1]), np.array([-0.3, bad]))
        with pytest.raises(DomainError):
            f2_kernel_families(1.5, 0.75, 0.75, 1.5, 1.5,
                               np.array([bad]), np.array([-0.1]))


def test_f2_leaves_the_rule_caches_alone():
    # appell_f2 serves a new parameter set on almost every call; its tensor
    # axes must not pile up in the caches the kernel route relies on
    def cache_state():
        # misses as well as sizes, so that a full cache that evicts still
        # shows a new entry
        return [(cached.cache_info().currsize, cached.cache_info().misses)
                for cached in (gauss_rule, _kernel_axis)]

    rng = np.random.default_rng(27)
    appell_f2(1.5, 0.75, 0.75, 1.5, 1.5, -0.2, -0.3)
    before = cache_state()
    for _ in range(20):
        b1, b2 = rng.uniform(0.2, 1.2, 2)
        args = (rng.uniform(0.3, 2.0), b1, b2,
                b1 + rng.uniform(0.4, 1.8), b2 + rng.uniform(0.4, 1.8),
                -rng.uniform(0.05, 30.0), -rng.uniform(0.05, 30.0))
        appell_f2(*args)
    assert cache_state() == before


def random_f2_sets(rng, count):
    """count parameter sets and points: Euler sets with |x|, |y| in
    [1e-3, 1e4], a fifth of them c1 < b1 sets inside |x| + |y| < 20, and
    the origin at every tenth."""
    rows = []
    for k in range(count):
        b1, b2 = rng.uniform(0.2, 1.4, 2)
        c1 = b1 + rng.uniform(0.3, 1.8)
        c2 = b2 + rng.uniform(0.3, 1.8)
        x, y = -np.exp(rng.uniform(math.log(1.0e-3), math.log(1.0e4), 2))
        if k % 5 == 3:
            c1 = b1 - rng.uniform(0.05, 0.15)
            x, y = -rng.uniform(0.0, 10.0, 2)
        if k % 10 == 7:
            x = y = 0.0
        rows.append((rng.uniform(0.3, 2.2), b1, b2, c1, c2, x, y))
    return np.array(rows)


def test_f2_sets_values_do_not_depend_on_the_batch():
    # a set's value alone, inside a 200-set batch, in the shuffled batch
    # and as a (40, 5) block must be bitwise the same: rules, axes and
    # reductions are per point, whatever else the batch holds
    rng = np.random.default_rng(34)
    sets = random_f2_sets(rng, 200)
    batch = appell_f2_sets(*sets.T)
    order = rng.permutation(len(sets))
    assert np.array_equal(appell_f2_sets(*sets[order].T), batch[order])
    block = appell_f2_sets(*sets.T.reshape(7, 40, 5))
    assert block.shape == (40, 5)
    assert np.array_equal(block.ravel(), batch)
    for j in range(0, len(sets), 7):
        assert appell_f2_sets(*sets[j]) == batch[j]


def test_f2_sets_equal_one_set_at_a_time():
    # appell_f2_many at one parameter set, point by point and for several
    # points of that set at once, against one appell_f2_sets call over all
    # sets, c1 < b1 sets (the series branch) and the origin included
    rng = np.random.default_rng(35)
    sets = random_f2_sets(rng, 60)
    assert np.any(sets[:, 3] < sets[:, 1]) and np.any(sets[:, 5] == 0.0)
    batch = appell_f2_sets(*sets.T)
    for (a, b1, b2, c1, c2, x, y), want in zip(sets.tolist(), batch):
        assert appell_f2_many(a, b1, b2, c1, c2, [x], [y])[0] == want
        assert appell_f2(a, b1, b2, c1, c2, x, y) == want
    assert np.all(batch[sets[:, 5] + sets[:, 6] == 0.0] == 1.0)
    # one set over many points, and the same points as many sets
    a, b1, b2, c1, c2 = sets[0, :5]
    x, y = sets[:, 5], sets[:, 6]
    many = appell_f2_many(a, b1, b2, c1, c2, x, y)
    each = appell_f2_sets(np.full(x.size, a), b1, b2, c1, c2, x, y)
    assert np.array_equal(many, each)


def test_f2_sets_reject_bad_arguments():
    good = [1.5, 0.75, 0.75, 1.5, 1.5, -0.2, -0.3]
    sets = np.tile(good, (3, 1))
    appell_f2_sets(*sets.T)
    bad_cases = []
    for column, value in ((3, 0.0), (4, -2.0), (3, -1.0 + 1.0e-14),
                          (5, 0.1), (6, 1.0e-300), (0, math.nan),
                          (2, math.inf), (5, -math.inf), (6, math.nan)):
        bad = sets.copy()
        bad[1, column] = value
        bad_cases.append(bad.T)
    for args in bad_cases:
        with pytest.raises(DomainError):
            appell_f2_sets(*args)
    # parameters and arguments that do not broadcast to one shape
    with pytest.raises(DomainError):
        appell_f2_sets(*good[:5], np.full(3, -0.2), np.full(2, -0.3))
    with pytest.raises(DomainError):
        appell_f2_sets(np.full(4, 1.5), *good[1:5], np.full(3, -0.2),
                       np.full(3, -0.3))


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
    args = (*case["params"], case["x"], case["y"])
    assert REL(appell_f2(*args), float(case["value"])) <= 1.0e-13


# F2 on the edges of the quadrant, a Gauss function of the other argument
# (tests/data/make_references.py): 40 sets with end exponents down to -0.99
F2_EDGE_REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "f2_edge_references.json").read_text())


def test_f2_sets_match_frozen_edge_references():
    # every set at |x| from 1e-3 to 1e6 on the y = 0 edge and on the x = 0
    # edge, in one call; the tensor route read 4.4e-14 here, and at most
    # 7.4e-14 over 1200 more sets of the same draw
    points = np.array(F2_EDGE_REFERENCES["points"])
    zero = np.zeros(points.size)
    rows, want = [], []
    for case in F2_EDGE_REFERENCES["sets"]:
        for x, y, edge in ((points, zero, "y_zero"), (zero, points, "x_zero")):
            rows.append(np.broadcast_arrays(*case["params"], x, y))
            want.append([float(v) for v in case[edge]])
    args = np.concatenate(rows, axis=1)
    assert np.all((args[3] > args[1]) & (args[1] > 0.0))
    assert min(np.min(args[1] - 1.0), np.min(args[3] - args[1] - 1.0)) < -0.98
    want = np.ravel(want)
    got = appell_f2_sets(*args)
    assert np.max(np.abs(got - want) / want) <= 2.0e-13


def test_f2_for_c_below_b_fails_loudly_where_the_series_underflows():
    # at (-150, -150) the transformed series' leading terms underflow
    # while its rows still carry about 1e-9 of the sum; summing on gave a
    # value 6.6e-8 off the single-sum continuation
    with pytest.raises(ConvergenceError):
        appell_f2(1.3, 1.1, 0.9, 1.05, 1.8, -150.0, -150.0)


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
            want = appell_f2_series_sets(*params, x[j], y[j])
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


FAMILY_PARAMS = [(0.25, 0.25), (0.1, 0.4), (0.01, 0.49), (0.49, 0.01),
                 (0.45, 0.45), (0.05, 0.05)]


def tensor_route_draws():
    """Log-uniform |xi|, |eta| over [1e-3, 1e11] plus correlated
    near-singular pairs, where xi and eta grow together."""
    rng = np.random.default_rng(26)
    span = (math.log(1.0e-3), math.log(1.0e11))
    x = -np.exp(rng.uniform(*span, 300))
    y = -np.exp(rng.uniform(*span, 300))
    near = np.exp(rng.uniform(math.log(1.0e2), span[1], 100))
    x = np.concatenate((x, -near))
    y = np.concatenate((y, -near * rng.uniform(0.2, 5.0, 100)))
    return x, y


def tensor_route_error(alpha, beta, x, y):
    """The largest relative deviation of the four families from the tensor
    route."""
    families = kernel_families(alpha, beta)
    values = f2_kernel_families(*families[0], x, y)
    return max(np.max(np.abs(got - want) / np.abs(want)) for got, want in zip(
        values, (_f2_euler_many(*params, x, y) for params in families)))


@pytest.mark.parametrize("alpha, beta", FAMILY_PARAMS)
def test_f2_kernel_families_match_tensor_route(alpha, beta):
    # the one graded axis and exact inner 2F1 of f2_kernel_families against
    # the full tensor product of two graded axes (appell_f2_many's Euler
    # route), per family
    assert tensor_route_error(alpha, beta, *tensor_route_draws()) <= 2.0e-13


def test_f2_kernel_families_need_both_connection_terms(monkeypatch):
    # mutation check: with the second term of the 1-z connection formula
    # dropped, the families at 0.1/0.4 must miss the tensor route by more
    # than the bound above
    exact = specfun._connection_coefficients
    monkeypatch.setattr(specfun, "_connection_coefficients",
                        lambda a, b, c: (exact(a, b, c)[0], 0.0))
    assert tensor_route_error(0.1, 0.4, *tensor_route_draws()) > 2.0e-13


@pytest.mark.parametrize("alpha, beta", FAMILY_PARAMS + [(0.001, 0.001)])
def test_f2_kernel_families_keep_the_tensor_route_digits(alpha, beta):
    # the kernel route grades its one axis from two dyadic levels shallower
    # than the tensor route and takes a 10-point right panel; it must still
    # agree with the tensor route to 5e-14 per family, at log-uniform |xi|,
    # |eta| and at and just above every power of two up to 2^36, where
    # levels change
    families = kernel_families(alpha, beta)
    rng = np.random.default_rng(33)
    span = (math.log(1.0e-3), math.log(1.0e11))
    x = -np.exp(rng.uniform(*span, 150))
    y = -np.exp(rng.uniform(*span, 150))
    edges = 2.0 ** np.arange(37)
    edges = np.concatenate((edges, edges * (1.0 + 2.0 ** -40)))
    small = rng.uniform(0.0, 2.0, edges.size)
    x = np.concatenate((x, -edges, -edges, -small))
    y = np.concatenate((y, -edges[::-1], -small, -edges))
    values = f2_kernel_families(*families[0], x, y)
    for params, got in zip(families, values):
        want = _f2_euler_many(*params, x, y)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 5.0e-14


@pytest.mark.parametrize("alpha, beta", FAMILY_PARAMS)
def test_f2_kernel_families_exact_at_a_minus_one(alpha, beta):
    # at a = -1 the integrand is B itself: the shifted families are F2 with
    # a = 0, exactly 1, and main = 1 - (b1/c1) x - (b2/c2) y.  This checks
    # that the graded axis and the exact inner integral carry both moments,
    # with either axis outer; log-uniform |xi|, |eta| up to 1e11 reach every
    # outer level up to 35
    _, b1, b2, c1, c2 = kernel_families(alpha, beta)[0]
    rng = np.random.default_rng(28)
    span = (math.log(1.0e-3), math.log(1.0e11))
    x = -np.exp(rng.uniform(*span, 400))
    y = -np.exp(rng.uniform(*span, 400))
    main, *shifted = f2_kernel_families(-1.0, b1, b2, c1, c2, x, y)
    for got in shifted:
        assert np.max(np.abs(got - 1.0)) <= 1.0e-14
    want = 1.0 - (b1 / c1) * x - (b2 / c2) * y
    assert np.max(np.abs(main - want) / want) <= 1.0e-14


def test_f2_kernel_families_chunk_boundaries_move_no_bits(monkeypatch):
    # one point per chunk, and one chunk per level group, must both give
    # bitwise the values of the default chunking
    rng = np.random.default_rng(29)
    span = (math.log(1.0e-3), math.log(1.0e11))
    x = -np.exp(rng.uniform(*span, 500))
    y = -np.exp(rng.uniform(*span, 500))
    for alpha, beta in [(0.25, 0.25), (0.1, 0.4)]:
        main = kernel_families(alpha, beta)[0]
        default = f2_kernel_families(*main, x, y)
        for chunk_bytes in (1, 1 << 30):
            monkeypatch.setattr(specfun, "EULER_CHUNK_BYTES", chunk_bytes)
            for got, want in zip(f2_kernel_families(*main, x, y), default):
                assert np.array_equal(got, want)
            monkeypatch.undo()


def test_f2_kernel_families_repeat_builds_no_series_table(monkeypatch):
    # the kernel brings the same 2F1 sets call after call: the second of
    # two identical calls finds every series table cached
    built = []
    build = specfun._series_tables

    def spy(params, terms, moment):
        built.extend(params)
        return build(params, terms, moment)

    monkeypatch.setattr(specfun, "_series_tables", spy)
    specfun._SERIES_TABLES.clear()
    main = kernel_families(0.1, 0.4)[0]
    rng = np.random.default_rng(30)
    x = -np.exp(rng.uniform(math.log(1.0e-3), math.log(1.0e9), 300))
    y = -np.exp(rng.uniform(math.log(1.0e-3), math.log(1.0e9), 300))
    first = f2_kernel_families(*main, x, y)
    assert built
    built.clear()
    second = f2_kernel_families(*main, x, y)
    assert built == []
    for got, want in zip(second, first):
        assert np.array_equal(got, want)


# Nodes of the kernel route's outer axis per half-octave bin of the smaller
# argument |u|, bins -4 (|u| <= 1/4) to 70 (|u| <= 2^35).
KERNEL_AXIS_NODES = [
    7, 8, 9, 10, 12, 13, 15, 18, 27, 37, 39, 46, 48, 49, 51, 51, 53, 52, 54,
    60, 62, 62, 64, 64, 66, 65, 66, 72, 74, 72, 74, 74, 76, 75, 76, 82, 84,
    84, 86, 84, 86, 85, 86, 92, 92, 93, 94, 93, 95, 94, 95, 101, 102, 101,
    102, 101, 103, 102, 103, 109, 110, 109, 110, 109, 111, 110, 111, 117,
    118, 117, 119, 117, 119, 118, 119]


def test_kernel_axis_nodes_per_bin_are_pinned():
    # a change of the Bernstein target or of a panel's singularities moves
    # these counts; growth would go unseen by the accuracy tests
    bins = range(-4, 71)
    assert [sum(n for *_, n in specfun._kernel_panels(k))
            for k in bins] == KERNEL_AXIS_NODES
    for k in (-4, 3, 4, 20, 66):
        s, ws = _kernel_axis(0.9, 0.7, k)
        assert s.size == ws.size == KERNEL_AXIS_NODES[k + 4]
        assert np.all((s > 0.0) & (s < 1.0) & (ws > 0.0))
    # every point of a bin stays inside it; a rounded odd half-octave may
    # land in the next bin, which covers it too
    edges = 2.0 ** (0.5 * np.arange(-4, 71))
    bins = specfun._kernel_bins(edges)
    assert np.array_equal(bins[::2], np.arange(-4, 71, 2))
    assert np.all((bins == np.arange(-4, 71)) | (bins == np.arange(-3, 72)))
    assert np.array_equal(specfun._kernel_bins(edges * (1.0 + 2.0 ** -40)),
                          np.arange(-3, 72))
    assert np.all(specfun._kernel_bins([0.0, -1.0e-300, -0.25]) == -4)
    # arguments far past the kernel's singular-pair guard still get an axis:
    # the one panel's pole rounds onto its end from 1.8e16 on, and the last
    # bin takes the doubles above 2^1023.5
    huge = np.array([-1.0e20, -1.0e300, -1.5e308, -sys.float_info.max])
    assert specfun._kernel_bins(huge)[-2:].tolist() == [2047, 2047]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = f2_kernel_families(2.5, 0.75, 0.75, 1.5, 1.5, huge, huge)
    assert all(np.all(np.isfinite(v) & (v >= 0.0)) for v in values)


def test_kernel_axis_of_a_near_overflow_bin_builds_without_warning():
    # bin 2045 sizes its panels for poles whose ellipse parameter overflows;
    # building them must not warn
    specfun._kernel_panels.cache_clear()
    huge = np.array([-5.0e307])
    assert specfun._kernel_bins(huge).tolist() == [2045]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = f2_kernel_families(2.5, 0.75, 0.75, 1.5, 1.5, huge, huge)
    assert all(np.all(np.isfinite(v) & (v >= 0.0)) for v in values)


def test_kernel_axis_integrates_the_euler_weight():
    # the weights carry s^(b-1) (1-s)^(cb-1) / B(b, cb), so they sum to 1
    # and the first moment is b / (b + cb), on every layout
    for b, cb in [(0.75, 0.75), (0.9, 0.7), (0.51, 0.99)]:
        for k in (-4, 2, 4, 9, 30, 66):
            s, ws = _kernel_axis(b, cb, k)
            assert abs(np.sum(ws) - 1.0) <= 1.0e-14
            assert abs(np.sum(ws * s) - b / (b + cb)) <= 1.0e-14


def test_gauss_2f1_negative_is_the_sets_route_bitwise():
    # f2_kernel_families calls Pfaff's branch directly; its values and
    # neighbours are those of _gauss_2f1_sets, which routes its z < 0
    # points through it, including a set with c = a whose neighbour takes
    # its own call
    rng = np.random.default_rng(34)
    z = -np.exp(rng.uniform(math.log(1.0e-4), math.log(1.0e10), 300))
    sets = [(2.5, 0.75, 1.5), (2.6, 0.9, 1.8), (1.3, 0.6, 1.3)]
    counts = [120, 100, 80]
    direct = specfun._gauss_2f1_negative(sets, counts, z, neighbours=True)
    routed = specfun._gauss_2f1_sets(sets, counts, z, neighbours=True)
    assert np.array_equal(direct, routed)
    assert np.array_equal(specfun._gauss_2f1_negative(sets, counts, z),
                          specfun._gauss_2f1_sets(sets, counts, z))
    # c = a: F(a, b; a; z) = (1 - z)^(-b), and its neighbour
    # F(a, b+1; a+1; z) against the scalar route
    lo = sum(counts[:2])
    assert np.allclose(direct[0, lo:], (1.0 - z[lo:]) ** -0.6, rtol=1e-14,
                       atol=0.0)
    a, b, c = sets[2]
    want = gauss_2f1(a, b + 1.0, c + 1.0, z[lo:])
    assert np.array_equal(direct[1, lo:], want)


# -- the kernel's inner 2F1 from per-set tables ---------------------------------

TABLE_PARAMS = [(0.1, 0.4), (0.06, 0.44), (0.44, 0.06), (0.3, 0.15),
                (0.49, 0.2)]


def inner_sets(alpha, beta):
    """The two 2F1 sets of f2_kernel_families' inner integral, x outer
    first, and their Pfaff-mapped sets (c - a, b, c)."""
    a = 2.0 - alpha - beta
    sets = [(a + 1.0, 1.0 - beta, 2.0 - 2.0 * beta),
            (a + 1.0, 1.0 - alpha, 2.0 - 2.0 * alpha)]
    return sets, [(c - p, b, c) for p, b, c in sets]


# The kernel's 2F1 sets and their neighbours at alpha != beta, z from -1e-6
# to -1e14 and around w = z/(z-1) = 1/2 and 3/4 (tests/data/make_references.py)
GAUSS_TABLE_REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "gauss_table_references.json").read_text())


@pytest.mark.parametrize("case", [
    c for c in GAUSS_TABLE_REFERENCES["sets"]
    if [c["params"][0], c["params"][1] + 1.0, c["params"][2] + 1.0]
    in [s["params"] for s in GAUSS_TABLE_REFERENCES["sets"]]],
    ids=lambda c: "{}-{}-{}".format(c["alpha"], c["beta"], c["params"][1]))
def test_gauss_tables_match_frozen_references(case):
    # value and neighbour read from the set's tables; measured 1.8e-15 and
    # 4.7e-15 at most
    a, b, c = case["params"]
    assert specfun._gauss_tables([(c - a, b, c)])[0] is not None
    z = np.array(GAUSS_TABLE_REFERENCES["points"])
    sets = {tuple(s["params"]): s for s in GAUSS_TABLE_REFERENCES["sets"]}
    value, neighbour = specfun._gauss_2f1_negative(
        [(a, b, c)], [z.size], z, neighbours=True, tables=True)
    for got, ref in ((value, case),
                     (neighbour, sets[(a, b + 1.0, c + 1.0)])):
        want = np.array([float(v) for v in ref["values"]])
        assert np.max(np.abs(got - want) / want) <= 1.0e-14


@pytest.mark.parametrize("alpha, beta", TABLE_PARAMS)
def test_gauss_tables_match_the_series_route(alpha, beta):
    # against the series route at log-uniform z from -1e-6 to -1e14 and at
    # w uniform on [0.3, 0.95], both sides of the switch: measured 2.8e-15
    # for values and 1.5e-14 for neighbours (0.06/0.44), where the series
    # route itself loses up to 1.5e-14 just past w = 1/2
    rng = np.random.default_rng(42)
    w = rng.uniform(0.3, 0.95, 1000)
    z = np.concatenate((-np.exp(rng.uniform(math.log(1.0e-6),
                                            math.log(1.0e14), 2000)),
                        w / (w - 1.0)))
    sets, mapped = inner_sets(alpha, beta)
    assert all(t is not None for t in specfun._gauss_tables(mapped))
    z = np.concatenate((z, z))
    want = specfun._gauss_2f1_negative(sets, [z.size // 2] * 2, z,
                                       neighbours=True)
    got = specfun._gauss_2f1_negative(sets, [z.size // 2] * 2, z,
                                      neighbours=True, tables=True)
    error = np.max(np.abs(got - want) / np.abs(want), axis=1)
    assert error[0] <= 1.0e-14 and error[1] <= 5.0e-14


def test_gauss_tables_leave_the_series_sets_alone(monkeypatch):
    # alpha = beta (a terminating G), alpha = 0.01 (the x-outer set's excess
    # 1.99 near an integer) and a = -1 (a + 1 = 0 stops the series) build
    # no table for those sets; 0.01/0.49's y-outer set, at excess 1.51,
    # builds one
    built = []
    build = specfun._build_gauss_tables

    def spy(params):
        built.extend(params)
        return build(params)

    monkeypatch.setattr(specfun, "_build_gauss_tables", spy)
    specfun._SERIES_TABLES.clear()
    rng = np.random.default_rng(43)
    x = -np.exp(rng.uniform(math.log(1.0e-3), math.log(1.0e9), 200))
    y = -np.exp(rng.uniform(math.log(1.0e-3), math.log(1.0e9), 200))
    for alpha, beta in [(0.25, 0.25), (0.01, 0.01), (0.45, 0.45)]:
        f2_kernel_families(*kernel_families(alpha, beta)[0], x, y)
    _, b1, b2, c1, c2 = kernel_families(0.1, 0.4)[0]
    f2_kernel_families(-1.0, b1, b2, c1, c2, x, y)
    assert built == []
    f2_kernel_families(*kernel_families(0.01, 0.49)[0], x, y)
    assert built == [inner_sets(0.01, 0.49)[1][1]]
    built.clear()
    f2_kernel_families(*kernel_families(0.1, 0.4)[0], x, y)
    assert built == inner_sets(0.1, 0.4)[1]
    built.clear()
    f2_kernel_families(*kernel_families(0.1, 0.4)[0], x, y)
    assert built == []


def test_gauss_tables_batch_equals_single_points():
    # a tabled point's value and neighbour do not depend on the batch, with
    # a series set (0.01/0.49's x-outer set) in the same call
    rng = np.random.default_rng(44)
    w = rng.uniform(0.6, 0.9, 40)
    z = np.concatenate((-np.exp(rng.uniform(math.log(1.0e-6),
                                            math.log(1.0e14), 260)),
                        w / (w - 1.0)))
    sets = inner_sets(0.1, 0.4)[0] + inner_sets(0.01, 0.49)[0][:1]
    counts = [100, 120, 80]
    batch = specfun._gauss_2f1_negative(sets, counts, z, neighbours=True,
                                        tables=True)
    lo = 0
    for params, count in zip(sets, counts):
        for j in range(lo, lo + count, 7):
            single = specfun._gauss_2f1_negative(
                [params], [1], z[j:j + 1], neighbours=True, tables=True)
            assert np.array_equal(batch[:, j], single[:, 0])
        lo += count


# F2 kernel families at far arguments (tests/data/make_references.py):
# Euler integrals over the smaller argument's axis at 55 digits, stored to
# 30, |u| from 1e-3 to 1e10, with x and with y the smaller
F2_FAR_REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "f2_far_references.json").read_text())


@pytest.mark.parametrize("case", F2_FAR_REFERENCES["kernel"],
                         ids=lambda c: f"{c['alpha']}-{c['beta']}")
def test_f2_kernel_families_match_frozen_far_references(case):
    # orders from a Bernstein target of 1e-12 instead of 1e-17 read
    # 2.8e-13 here, and log panels blind to s = 1 read 7.8e-10
    x, y = np.array(F2_FAR_REFERENCES["points"]).T
    smaller = np.minimum(np.abs(x), np.abs(y))
    assert smaller.min() <= 1.0e-3 and smaller.max() >= 1.0e10
    assert np.any(np.abs(x) < np.abs(y)) and np.any(np.abs(y) < np.abs(x))
    families = kernel_families(case["alpha"], case["beta"])
    values = f2_kernel_families(*families[0], x, y)
    for got, name in zip(values, ("main", "dx", "dy", "da")):
        want = np.array([float(v) for v in case["values"][name]])
        assert np.max(np.abs(got - want) / want) <= 1.0e-14


def test_level_groups_match_the_scan_per_group():
    # the sort-and-split grouping against one scan of all points per group:
    # the same level pairs in the same order, with the same ascending
    # indices, on random level pairs including points below level 0
    rng = np.random.default_rng(31)
    for size in (0, 1, 7, 2000):
        x = -np.exp(rng.uniform(-3.0, 25.0, size))
        y = -np.exp(rng.uniform(-3.0, 25.0, size))
        kx = np.ceil(np.log2(np.maximum(np.abs(x), 1.0))).astype(np.int64)
        ky = np.ceil(np.log2(np.maximum(np.abs(y), 1.0))).astype(np.int64)
        keys, group = np.unique(kx * 2048 + ky, return_inverse=True)
        want = [(key // 2048, key % 2048, np.nonzero(group == g)[0])
                for g, key in enumerate(keys.tolist())]
        got = list(specfun._level_groups(x, y))
        assert [g[:2] for g in got] == [w[:2] for w in want]
        for (_, _, idx), (_, _, ref) in zip(got, want):
            assert idx.dtype == ref.dtype and np.array_equal(idx, ref)
    assert len(want) > 100


def test_f2_kernel_families_rejects_bad_input():
    main = kernel_families(0.25, 0.25)[0]
    with pytest.raises(DomainError):
        f2_kernel_families(*main, np.array([0.1]), np.array([-0.1]))
    with pytest.raises(DomainError):
        f2_kernel_families(*main, np.array([-0.1, -0.2]), np.array([-0.1]))
    with pytest.raises(DomainError):
        f2_kernel_families(1.5, 1.5, 0.75, 1.2, 1.5,
                           np.array([-0.1]), np.array([-0.1]))


@pytest.mark.parametrize("bad", [
    (math.nan, 0.75, 0.75, 1.5, 1.5, [-0.1], [-0.1]),
    (2.5, 0.75, math.inf, 1.5, 1.5, [-0.1], [-0.1]),
    (2.5, 0.75, 0.75, 1.5, 1.5, [-0.1, math.nan], [-0.1, -0.2]),
    (2.5, 0.75, 0.75, 1.5, 1.5, [-0.1], [math.inf]),
    (2.5, 0.75, 0.75, 1.5, 1.5, [0.1], [-0.1]),
    (2.5, 0.75, 0.75, 1.5, 1.5, [[-0.1, -0.2]], [[-0.3, 1.0e-300]]),
    (2.5, 0.75, 0.75, 0.0, 1.5, [-0.1], [-0.1]),
    (2.5, 0.75, 0.75, 1.5, -2.0, [-0.1], [-0.1]),
    (2.5, 0.75, 0.75, -1.0, 1.5, [-0.1], [math.nan]),
    (2.5, -0.75, 0.75, 1.5, 1.5, [0.1], [-0.1]),
])
def test_f2_kernel_families_checks_scalar_parameters_like_f2(bad):
    # the scalar checks raise the DomainError of the broadcast F2 checks
    with pytest.raises(DomainError) as want:
        specfun._f2_arguments(*bad)
    with pytest.raises(DomainError) as got:
        f2_kernel_families(*bad[:5], np.array(bad[5]), np.array(bad[6]))
    assert str(got.value) == str(want.value)


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


# -- Gauss-Jacobi rules against 40-digit references (tests/data/make_references.py)

RULE_REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "gauss_jacobi_references.json").read_text())["rules"]
RULE_ORDERS = sorted({case["n"] for case in RULE_REFERENCES})


def assert_rule_matches(nodes, weights, case):
    # nodes to 2e-15 absolute, weights to 5e-13 relative; scipy's
    # roots_jacobi misses the weight bound by three orders at -0.999
    want_nodes = np.array([float(v) for v in case["nodes"]])
    want_weights = np.array([float(v) for v in case["weights"]])
    assert np.max(np.abs(nodes - want_nodes)) <= 2.0e-15
    assert np.max(np.abs(weights / want_weights - 1.0)) <= 5.0e-13


@pytest.mark.parametrize(
    "case", RULE_REFERENCES,
    ids=lambda c: f"{c['n']}-{c['exponent']}-{c['right_exponent']}")
def test_gauss_rule_matches_mpmath_references(case):
    nodes, weights = gauss_rule(case["n"], case["exponent"],
                                case["right_exponent"])
    assert_rule_matches(nodes, weights, case)


@pytest.mark.parametrize("n", RULE_ORDERS)
def test_jacobi_rules_batch_matches_references_and_single_rows(n):
    cases = [case for case in RULE_REFERENCES if case["n"] == n]
    exponents = [case["exponent"] for case in cases]
    right = [case["right_exponent"] for case in cases]
    nodes, weights = jacobi_rules(n, exponents, right)
    assert nodes.shape == weights.shape == (len(cases), n)
    for i, case in enumerate(cases):
        assert_rule_matches(nodes[i], weights[i], case)
        # a row of the batch is bitwise the rule of that pair alone
        one_nodes, one_weights = jacobi_rules(n, [exponents[i]], [right[i]])
        assert np.array_equal(one_nodes[0], nodes[i])
        assert np.array_equal(one_weights[0], weights[i])


def test_jacobi_rules_in_slices_keep_every_row_its_own_rule():
    # more rules than one JACOBI_SLICE: every row, in the first, a middle
    # and the last partial slice, is bitwise the rule of its pair alone
    rng = np.random.default_rng(36)
    m = 2 * specfun.JACOBI_SLICE + 5
    exponents = rng.uniform(-0.99, 3.0, m)
    right = rng.uniform(-0.99, 3.0, m)
    nodes, weights = jacobi_rules(24, exponents, right)
    assert nodes.shape == weights.shape == (m, 24)
    for i in range(m):
        one_nodes, one_weights = jacobi_rules(24, exponents[i], right[i])
        assert np.array_equal(one_nodes[0], nodes[i])
        assert np.array_equal(one_weights[0], weights[i])


def test_jacobi_rules_reject_bad_orders_and_exponents():
    for bad in (-1.0, -1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            gauss_rule(6, bad)
        with pytest.raises(DomainError):
            gauss_rule(6, 0.0, bad)
        with pytest.raises(DomainError):
            jacobi_rules(6, [0.5, bad])
        with pytest.raises(DomainError):
            jacobi_rules(6, [0.5, 0.5], [0.0, bad])
    for n in (0, -3, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            gauss_rule(n)
        with pytest.raises(DomainError):
            jacobi_rules(n, [0.0])


# -- parameter shifts -------------------------------------------------------------

def test_param_shift_matches_finite_differences():
    # dF2/dx = (a b1 / c1) F2(a+1; b1+1, b2; c1+1, c2; x, y), and likewise
    # in y with (b2, c2)
    rng = np.random.default_rng(23)
    h = 1.0e-5
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        b1, b2 = rng.uniform(0.3, 1.2, 2)
        c1, c2 = rng.uniform(1.0, 2.0, 2)
        x, y = -rng.uniform(0.1, 0.6, 2)
        dx = a * b1 / c1 * appell_f2(a + 1, b1 + 1, b2, c1 + 1, c2, x, y)
        fd = (appell_f2(a, b1, b2, c1, c2, x + h, y)
              - appell_f2(a, b1, b2, c1, c2, x - h, y)) / (2 * h)
        assert REL(dx, fd) <= 1.0e-6
        dy = a * b2 / c2 * appell_f2(a + 1, b1, b2 + 1, c1, c2 + 1, x, y)
        fd = (appell_f2(a, b1, b2, c1, c2, x, y + h)
              - appell_f2(a, b1, b2, c1, c2, x, y - h)) / (2 * h)
        assert REL(dy, fd) <= 1.0e-6

