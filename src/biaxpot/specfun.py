"""Gauss and Appell hypergeometric functions on the real domain used by the
weighted potential kernels.

The functions here are deliberately narrow: real parameters, real arguments,
double precision.  ``gauss_2f1`` covers z <= 1 through a three-way strategy
(direct series, Pfaff reflection for negative z, connection formula near
z = 1 with the Gauss summation handling z = 1 itself).  It broadcasts
a, b, c and z and hands the points of every distinct parameter set to the
batched route ``_gauss_2f1_sets``, which takes many parameter sets over
one argument array, so that all their series share one loop over terms.
``appell_f2`` continues the F2 double series to the third
quadrant x <= 0, y <= 0, which is the regime produced by the chord
variables of the fundamental solution.
For c1 > b1 > 0, c2 > b2 > 0, which all kernel parameter families satisfy,
it takes the Euler integral representation (Erdelyi et al., Higher
Transcendental Functions I, 5.8)

    F2 = C * int_0^1 int_0^1 s^(b1-1) (1-s)^(c1-b1-1) t^(b2-1) (1-t)^(c2-b2-1)
             * (1 - s x - t y)^(-a) ds dt

at every point of the quadrant.  The integrand is elementary and positive
for x, y <= 0, so graded Gauss-Jacobi/Legendre panels give uniform
relative accuracy arbitrarily close to the kernel singularity.  Any other
parameter set goes through Appell's transformation (ibid., 5.11)

    F2(a; b1, b2; c1, c2; x, y) = (1-x-y)^(-a)
        * F2(a; c1-b1, c2-b2; c1, c2; x/(x+y-1), y/(x+y-1)),

which maps the whole quadrant into the series disk: both new arguments
are nonnegative and sum to (|x|+|y|)/(1+|x|+|y|) < 1.  Near the disk
edge the leading terms of the series underflow before its rows have
decayed, so from about |x| + |y| = 100 on (x and y alike) this branch
raises ConvergenceError; it serves moderate arguments, and the kernel
never takes it.

Two routes therefore serve F2:

* ``f2_kernel_families`` evaluates the main family and its x-, y- and
  a-shifted families (the four the kernel derivatives need) together, from
  one graded axis per point and an exact inner integral, over whole
  argument vectors.  Every batched kernel evaluation goes through it, at
  any distance.
* ``appell_f2_sets`` takes one parameter set per point, many sets in one
  call, including sets with c <= b that the Euler integral cannot take;
  ``appell_f2_many`` (one set over many points) and ``appell_f2`` (one
  point) wrap it.  The kernel uses it only in ``kernel.dq4_dn_many``, the
  independent evaluation tree the batched route is checked against.

``appell_f2_series_sets`` sums the double series itself on its disk
|x| + |y| < 1, one parameter set per point, row by row across all points
of a call.  It serves the c <= b points of ``appell_f2_sets``, all in one
call, and it is the reference the Euler routes are checked against.

``appell_f2_sets`` grades both axes from dyadic levels L =
ceil(log2 max(|x|, 1)): a left Gauss-Jacobi panel [0, 2^-(L+1)]
absorbing s^(b-1), no longer than 1/(2|x|), L dyadic Gauss-Legendre panels
up to 1/2, and a right Gauss-Jacobi panel [1/2, 1] absorbing
(1-s)^(c-b-1), with 12 points on every panel, and takes the full tensor
product of the two axes: (24 + 12 L)^2 nodes per point at L = Lx = Ly.

``f2_kernel_families`` grades only the axis of the smaller argument u and
integrates the other exactly (DLMF 15.6.1): for x outer, A = 1 - x s,

    int_0^1 t^(b2-1) (1-t)^(c2-b2-1) (A - y t)^(-a-1) dt
        = A^(-a-1) B(b2, c2-b2) F(a+1, b2; c2; y/A),

and the t moment takes F(a+1, b2+1; c2+1; y/A), which Pfaff's map turns
into the slope of the same series.  At 0 <= y/A the map gives
G = F(c2-a-1, b2; c2; w); for the main family at alpha = beta, c2 - a - 1
= -1 and the series stops after two terms.  At alpha != beta each set's G
and G' come from piecewise quintic Hermite tables on uniform cells, built
once per set from the series and the hypergeometric equation (the direct
function up to w = 3/4, the connection formula's two series beyond).
Each outer node thus costs one 2F1 value with its slope.  The outer axis
is sized per half-octave bin of |u| by Bernstein's ellipse bound for the
integrand's singularities at s = -1/|u|, 0 and 1 (``_kernel_panels``):
one two-sided Gauss-Jacobi panel of 7 to 18 points up to |u| = 2^1.5, and
beyond, Gauss-Jacobi end panels with Gauss-Legendre panels in sigma =
ln s between, 27 nodes at |u| = 4, 66 at 1e3 and 119 at 2^33.

Log-gamma comes from the library (``math.lgamma``, mapped over arrays).
Gauss rules come from ``jacobi_rules`` by Golub-Welsch.  ``gauss_rule``,
the kernel route's graded axes and the 2F1 connection coefficients are
cached per parameter set.  The 2F1 series' coefficient tables and degree
maps, and the kernel route's Hermite tables of G, are kept in one dict,
``_SERIES_TABLES``, of the 64 most recently used; the tables that a call
does not find there are built together, in one pass per table length (one
series call for the Hermite tables) over all its sets.
``appell_f2_sets`` caches nothing: each call builds the end-panel rules of
its distinct exponents in one ``jacobi_rules`` call, the prefactor of each
distinct parameter set, and the axes of its points, since most callers
bring new parameter sets; a point's rules, axes and reduction are its own,
so its value is bitwise the same in any batch.  Otherwise every function
is a pure function of its arguments.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError

# Series controls.  A term sequence is considered converged once
# consecutive terms stay below SERIES_RTOL relative to the running sum
# SERIES_RUN times in a row; MAX_TERMS is a hard cap per summation index.
SERIES_RTOL = 1.0e-15
SERIES_RUN = 3
MAX_TERMS = 10000

# Switch point between the direct 2F1 series and the 1-z connection formula.
Z_SWITCH = 0.5

# Below this distance of c-a-b from an integer the connection formula loses
# digits to cancellation and the direct series is used instead (unless z is
# so close to 1 that the series cannot finish under the term cap).
EXCESS_INT_TOL = 5.0e-2
Z_SERIES_MAX = 0.995

# Threshold on t = xy/((1-x)(1-y)) by which the benchmark tracer
# perfbench/tracing.py splits appell_f2_many points into two route counts.
# That tracer is its only reader; nothing in biaxpot uses it.
BC_T_MAX = 0.96

_INT_TOL = 1.0e-12


# ---------------------------------------------------------------------------
# log-gamma and friends
# ---------------------------------------------------------------------------

def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    x = float(x)
    if x <= 0.0:
        raise DomainError("ln_gamma requires x > 0")
    return math.lgamma(x)


def _sinpi(x: float) -> float:
    # sin(pi x) with argument reduction so large |x| keeps full precision
    n = math.floor(x)
    f = x - n
    s = math.sin(math.pi * f)
    return -s if n % 2 else s


def _ln_gamma_signed(x: float) -> tuple[float, float]:
    """Return (log|Gamma(x)|, sign).  Poles report sign 0 and +inf."""
    if x > 0.0:
        return ln_gamma(x), 1.0
    if abs(x - round(x)) < _INT_TOL * max(1.0, abs(x)):
        return math.inf, 0.0
    # reflection: Gamma(x) = pi / (sin(pi x) Gamma(1 - x))
    s = _sinpi(x)
    return (math.log(math.pi) - math.log(abs(s)) - ln_gamma(1.0 - x),
            math.copysign(1.0, s))


def _is_nonpos_int(x: float) -> bool:
    # -inf and NaN are no integers (and round() rejects them)
    return (-math.inf < x <= 0.5
            and abs(x - round(x)) < _INT_TOL * max(1.0, abs(x)))


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------

# The 2F1 routes below take several parameter sets at once: a list of
# (a, b, c) sets and, for each set in turn, a run of points of one array
# (``counts`` points of set i after those of the sets before it), so that
# the points of all sets share each loop over series terms.
#
# The direct series takes each point straight to an a priori degree: the
# first past which every term of its set's coefficient table stays below
# SERIES_RTOL / 4 (1 - |z|) of the leading term, read per bucket of |z|,
# _SERIES_BUCKETS buckets per doubling of -log2 |z|.  A sum that ends below a
# quarter of its leading term goes on _SERIES_CHECK_BLOCK terms at a time
# until its last term is at most SERIES_RTOL (1 - |z|) of it.  Once so few
# points are left that _SERIES_CHECK_BLOCK terms of each make at most
# _SERIES_SMALL_BLOCK terms in all, as many terms as make _SERIES_SMALL_BLOCK
# take one running product and one running sum.
_SERIES_BUCKETS = 16
_SERIES_CHECK_BLOCK = 8
_SERIES_SMALL_BLOCK = 4096


def _runs(counts):
    """(lo, hi) of each set's run of points."""
    ends = np.cumsum(counts, dtype=np.int64).tolist()
    return zip([0] + ends[:-1], ends)


# The buckets of |z| from 1 - 2^-53 to the least normal double: bucket j
# holds 2^(j/B) <= -log2 |z| < 2^((j+1)/B), and its largest |z| is
# 2^(-2^(j/B)); _BUCKET_TOPS holds those largest |z|, ascending.
_BUCKETS = np.arange(-55 * _SERIES_BUCKETS, 10 * _SERIES_BUCKETS + 1)
_BUCKET_TOPS = np.exp2(-np.exp2(_BUCKETS / _SERIES_BUCKETS))[::-1].copy()

# The tables of _series_tables by (a, b, c, terms, moment), least recently
# used first; every _series_degrees call that returns leaves at most
# _SERIES_TABLES_MAX of them.
_SERIES_TABLES: dict = {}
_SERIES_TABLES_MAX = 64


def _trim_series_tables():
    """Drop the least recently used tables past _SERIES_TABLES_MAX."""
    for key in list(_SERIES_TABLES)[:-_SERIES_TABLES_MAX]:
        del _SERIES_TABLES[key]


def _series_tables(params, terms: int, moment: bool):
    """(ratios, first, degrees) of the direct series of every set (a, b, c)
    of ``params``, built in one pass: the term ratios
    (a+m)(b+m)/((c+m)(m+1)), m < ``terms``, and the a priori degree of
    every bucket of |z| from ``first`` on that the table serves, to at most
    half its length or short of its end at MAX_TERMS.

    A degree N admits |z| when every term t_n past N up to the table's end
    stays below SERIES_RTOL / 4 (1 - |z|) of t_0, and with ``moment`` n t_n
    below as much of t_1 as well.  Past the coefficients' first irregular
    stretch the largest such |z| of a single term grows with its index, so
    a longer table leaves the degrees of a shorter one as they are.  Every
    step is elementwise along a set's row or a sum along it, so a set's
    table is bitwise the same in any batch.  Returns read-only arrays.
    """
    a, b, c = (np.array(v)[:, None] for v in zip(*params))
    m = np.arange(terms, dtype=float)
    ratio = (a + m) * (b + m) / ((c + m) * (m + 1.0))
    log_tol = math.log2(0.25 * SERIES_RTOL)
    with np.errstate(divide="ignore"):
        # of terms 1 .. terms
        log_coef = np.cumsum(np.log2(np.abs(ratio)), axis=1)
    # each term against t_0 = 1 over the power m + 1 of z, and n t_n against
    # t_1 = ratio_0 z over the power m; t_1 itself is never small against
    # itself
    bounds = [(log_coef, m + 1.0)]
    if moment:
        bounds.append((log_coef + np.log2(m + 1.0) - log_coef[:, :1],
                       np.maximum(m, 0.5)))
    reach = np.ones(ratio.shape)
    for log_size, power in bounds:
        # two conservative steps to the fixed point |size| r^power = tol (1-r)
        r = np.exp2(np.minimum((log_tol - log_size) / power, 0.0))
        for _ in range(2):
            r = np.exp2(np.minimum((log_tol + np.log2(1.0 - np.minimum(
                r, 0.5 + 0.5 * Z_SERIES_MAX)) - log_size) / power, 0.0))
        reach = np.minimum(reach, r)
    if moment:
        reach[:, 0] = 0.0
    admits = np.minimum.accumulate(reach[:, ::-1], axis=1)[:, ::-1]
    # the degree of bucket j counts the terms whose admitted |z| lies below
    # the bucket's top, that is the terms past the first top above it
    tops = _BUCKET_TOPS.size
    above = tops - np.searchsorted(_BUCKET_TOPS, admits, side="right")
    above += (tops + 1) * np.arange(len(params))[:, None]
    degrees = np.bincount(above.ravel(), minlength=(tops + 1) * len(params))
    degrees = np.cumsum(degrees.reshape(-1, tops + 1)[:, :0:-1],
                        axis=1)[:, ::-1]
    # the degrees fall with the bucket; those served form a tail
    first = np.count_nonzero(
        degrees >= (terms if terms == MAX_TERMS else terms // 2 + 1), axis=1)
    ratio.flags.writeable = False
    out = []
    for row, start, served in zip(ratio, first.tolist(), degrees):
        served = served[start:].astype(np.int16)
        served.flags.writeable = False
        out.append((row, int(_BUCKETS[0]) + start, served))
    return out


def _series_degrees(params, counts, size: np.ndarray, moment: bool):
    """The a priori degree of each point of the direct series at |z| =
    ``size`` < 1 (of the sum of n t_n too with ``moment``), and the term
    ratios of every set as a (terms, sets) table.

    Each set starts from a 64-term table and doubles it until the table
    serves its smallest bucket; the tables that _SERIES_TABLES misses are
    built in one ``_series_tables`` call per length.  Once the call is done,
    the least recently used tables past _SERIES_TABLES_MAX are dropped."""
    bucket = np.log2(np.maximum(size, sys.float_info.min))
    np.negative(bucket, out=bucket)
    np.log2(bucket, out=bucket)
    bucket = np.floor(_SERIES_BUCKETS * bucket).astype(np.int64)
    degree = np.empty(size.size, dtype=np.int64)
    runs = list(_runs(counts))
    # each set's smallest bucket; a set without points takes any table
    least = [int(bucket[lo:hi].min()) if hi > lo else math.inf
             for lo, hi in runs]
    found = [None] * len(params)
    todo = dict.fromkeys(range(len(params)), 64)  # set: table length
    while todo:
        missing = {}
        for i, terms in list(todo.items()):
            while (key := (*params[i], terms, moment)) in _SERIES_TABLES:
                # a hit moves to the most recently used end
                table = _SERIES_TABLES[key] = _SERIES_TABLES.pop(key)
                if table[1] <= least[i]:
                    found[i] = table
                    del todo[i]
                    break
                if terms >= MAX_TERMS:
                    raise ConvergenceError(
                        "2F1 series did not converge within {} terms "
                        "(a={}, b={}, c={})".format(MAX_TERMS, *params[i]))
                terms = min(2 * terms, MAX_TERMS)
            else:
                missing.setdefault(terms, {})[key] = None
                todo[i] = terms
        for terms, keys in missing.items():
            _SERIES_TABLES.update(zip(keys, _series_tables(
                [key[:3] for key in keys], terms, moment)))
    _trim_series_tables()
    ratios = []
    for (ratio, first, degrees), (lo, hi) in zip(found, runs):
        degree[lo:hi] = degrees.take(bucket[lo:hi] - first)
        ratios.append(ratio)
    table = np.zeros((max(r.size for r in ratios), len(ratios)))
    for i, r in enumerate(ratios):
        table[:r.size, i] = r
    return degree, table


def _hyp2f1_series(params, counts, z: np.ndarray,
                   moment: bool = False) -> np.ndarray:
    """Direct 2F1 power series over a 1-d array z, |z| < 1, in runs of
    ``counts`` points per set of ``params``; with ``moment``, a (2, points)
    array of the sums of t_n and of n t_n over the terms t_n.

    Each point sums its terms up to its own degree (``_series_degrees``),
    with the roundings of term *= ratio_n z, total += term, whether in a
    loop over terms or as running products and sums; its degree and any
    continuation follow from its set and its own z, so its value is
    bitwise the same in any batch.  The points run in order of falling
    degree, so the ones still summing are a leading slice.
    """
    degree, table = _series_degrees(params, counts, np.abs(z), moment)
    which = np.repeat(np.arange(len(params)), counts)
    # falling degree: a one-byte key sorts fast; the few points past 255
    # terms are put in order among themselves
    order = np.argsort((255 - np.minimum(degree, 255)).astype(np.uint8),
                       kind="stable")
    long = np.count_nonzero(degree > 255)
    if long > 1:
        order[:long] = order[:long][np.argsort(-degree[order[:long]],
                                               kind="stable")]
    z, which, degree = z[order], which[order], degree[order]
    term = np.ones(z.size)
    total = np.ones(z.size)
    first = np.zeros(z.size)  # sum of n t_n
    step = np.empty(z.size)
    # live[m]: how many points take term m + 1
    live = np.searchsorted(-degree, -np.arange(degree[0] if z.size else 0),
                           side="left").tolist()
    m = 0
    while m < len(live):
        k = live[m]
        if k * _SERIES_CHECK_BLOCK > _SERIES_SMALL_BLOCK:
            ratio = (table[m, 0] if len(params) == 1
                     else table[m].take(which[:k]))
            np.multiply(z[:k], ratio, out=step[:k])
            term[:k] *= step[:k]
            total[:k] += term[:k]
            if moment:
                np.multiply(term[:k], m + 1.0, out=step[:k])
                first[:k] += step[:k]
            m += 1
            continue
        # rows: the terms m .. end of each point, and its row at its degree
        end = min(m + _SERIES_SMALL_BLOCK // k, len(live))
        terms = np.multiply.accumulate(np.concatenate(
            (term[None, :k], table[m:end].take(which[:k], axis=1) * z[:k])),
            axis=0)
        last = (np.minimum(degree[:k], end) - m) * k + np.arange(k)
        term[:k] = terms.take(last)
        total[:k] = np.add.accumulate(np.concatenate(
            (total[None, :k], terms[1:])), axis=0).take(last)
        if moment:
            terms[1:] *= np.arange(m + 1.0, end + 1.0)[:, None]
            terms[0] = first[:k]
            first[:k] = np.add.accumulate(terms, axis=0).take(last)
        m = end
    # a sum well below its leading term goes on until its last term is small
    going = np.flatnonzero(np.abs(total) < 0.25)
    rtol = np.zeros(z.size)
    rtol[going] = SERIES_RTOL * (1.0 - np.abs(z[going]))
    going = going[np.abs(term[going]) > rtol[going] * np.abs(total[going])]
    a, b, c = (np.array(v)[which[going]] for v in zip(*params))
    while going.size:
        if degree[going].max() + _SERIES_CHECK_BLOCK > MAX_TERMS:
            raise ConvergenceError(
                f"2F1 series did not converge within {MAX_TERMS} terms")
        for _ in range(_SERIES_CHECK_BLOCK):
            n = degree[going].astype(float)
            term[going] *= z[going] * ((a + n) * (b + n)
                                       / ((c + n) * (n + 1.0)))
            total[going] += term[going]
            first[going] += (n + 1.0) * term[going]
            degree[going] += 1
        keep = np.abs(term[going]) > rtol[going] * np.abs(total[going])
        going, a, b, c = going[keep], a[keep], b[keep], c[keep]
    out = np.empty((2, z.size) if moment else z.size)
    for row, value in zip(out.reshape(-1, z.size), (total, first)):
        row[order] = value
    return out


def gauss_2f1_at_one(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) by Gauss summation; requires c - a - b > 0."""
    if not all(math.isfinite(v) for v in (a, b, c)):
        raise DomainError("gauss_2f1_at_one parameters must be finite")
    if c <= 0.0 and _is_nonpos_int(c):
        raise DomainError("gauss_2f1_at_one: c must not be a nonpositive integer")
    s = c - a - b
    if s <= 0.0:
        raise DivergenceError(
            f"2F1 diverges at z = 1 for c - a - b = {s} <= 0")
    ln_num, sg_num = 0.0, 1.0
    for v in (c, s):
        lg, sg = _ln_gamma_signed(v)
        ln_num += lg
        sg_num *= sg
    ln_den, sg_den = 0.0, 1.0
    for v in (c - a, c - b):
        lg, sg = _ln_gamma_signed(v)
        if sg == 0.0:
            return 0.0  # pole in the denominator kills the value
        ln_den += lg
        sg_den *= sg
    return sg_num * sg_den * math.exp(ln_num - ln_den)


@functools.lru_cache(maxsize=256)
def _connection_coefficients(a: float, b: float, c: float):
    """(c1, c2) of the 1-z connection formula

        F(a, b; c; z) = c1 F(a, b; 1-s; u) + c2 u^s F(c-a, c-b; 1+s; u),

    u = 1 - z, s = c - a - b; raises ConvergenceError for an integer s.
    Cached."""
    s = c - a - b
    lgc, sgc = _ln_gamma_signed(c)

    def coeff(top: float, bot1: float, bot2: float) -> float:
        lt, st = _ln_gamma_signed(top)
        l1, s1 = _ln_gamma_signed(bot1)
        l2, s2 = _ln_gamma_signed(bot2)
        if s1 == 0.0 or s2 == 0.0:
            return 0.0
        if st == 0.0:
            raise ConvergenceError(
                "connection formula unusable: integer parameter excess")
        return sgc * st * s1 * s2 * math.exp(lgc + lt - l1 - l2)

    return coeff(s, c - a, c - b), coeff(-s, a, b)


def _hyp2f1_connection(a: float, b: float, c: float, u: np.ndarray,
                       first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """2F1 at z = 1 - u, 0 < u < 1 - Z_SWITCH, by the 1-z connection
    formula, from the direct series of its two terms at u, ``first`` and
    ``second`` (zero where the coefficient vanishes).  Series given as the
    sums of t_n give the values; given as (2, points) arrays of the sums of
    t_n and of n t_n they give a (2, points) array of the values and their
    z-derivatives.  The caller forms u itself, so that a z near 1 reached
    from a map keeps the digits of u."""
    c1, c2 = _connection_coefficients(a, b, c)
    s = c - a - b
    power = np.power(u, s)
    out = c1 * first + c2 * power * second
    if first.ndim == 2:
        # d/dz = -d/du, and u dS/du is the sum of n t_n
        out[1] = -(c1 * first[1] / u
                   + c2 * (power / u) * (s * second[0] + second[1]))
    return out


def _terminating(a: float, b: float) -> int | None:
    """The last term index of a series that a nonpositive integer a or b
    stops, else None."""
    stops = [-round(v) for v in (a, b) if _is_nonpos_int(v)]
    return int(min(stops)) if stops else None


def _positions(pick: np.ndarray, lo: int):
    """The positions lo + i of the true entries of ``pick``: a slice when
    all are true, which spares the copies of gathering them."""
    return (slice(lo, lo + pick.size) if pick.all()
            else lo + np.flatnonzero(pick))


def _hyp2f1_unit(params, counts, z: np.ndarray, u: np.ndarray,
                 slope: bool = False) -> np.ndarray:
    """2F1 on 0 <= z < 1 with u = 1 - z given, in runs of ``counts`` points
    per set of ``params``; with ``slope``, a (2, points) array of the
    values and their z-derivatives.

    A series that its set stops is summed as it stands (at any z);
    otherwise the direct series on [0, Z_SWITCH] and the connection formula
    beyond, falling back to the direct series up to Z_SERIES_MAX when
    c - a - b sits within EXCESS_INT_TOL of an integer.  Every direct
    series, the connection formula's two included, runs in one
    ``_hyp2f1_series`` call.
    """
    out = np.empty((2, z.size) if slope else z.size)
    direct, linked = [], []  # (set, points) by the series, by connection
    for (a, b, c), (lo, hi) in zip(params, _runs(counts)):
        n_stop = _terminating(a, b)
        zi = z[lo:hi]
        if n_stop is not None:
            term, total = np.ones(zi.size), np.ones(zi.size)
            first = np.zeros(zi.size)
            for m in range(n_stop):
                term = term * ((a + m) * (b + m) * zi / ((c + m) * (m + 1)))
                total = total + term
                first = first + (m + 1.0) * term
            if slope:
                out[0, lo:hi] = total
                out[1, lo:hi] = _slope(a, b, c, zi, first)
            else:
                out[lo:hi] = total
            continue
        s = c - a - b
        series = zi <= (Z_SERIES_MAX if abs(s - round(s)) <= EXCESS_INT_TOL
                        else Z_SWITCH)
        for group, pick in ((direct, series), (linked, ~series)):
            if pick.any():
                group.append(((a, b, c), _positions(pick, lo)))
    # the direct series, then the connection terms with a nonzero
    # coefficient, set by set
    sets = [p for p, _ in direct]
    args = [z[place] for _, place in direct]
    for (a, b, c), place in linked:
        s = c - a - b
        for coeff, term in zip(_connection_coefficients(a, b, c),
                               ((a, b, 1.0 - s), (c - a, c - b, 1.0 + s))):
            if coeff != 0.0:
                sets.append(term)
                args.append(u[place])
    if not sets:
        return out
    sizes = [v.size for v in args]
    sums = iter(np.split(_hyp2f1_series(sets, sizes, np.concatenate(args),
                                        slope), np.cumsum(sizes)[:-1],
                         axis=-1))
    for (a, b, c), place in direct:
        value = next(sums)
        if slope:
            value[1] = _slope(a, b, c, z[place], value[1])
        out[..., place] = value
    for p, place in linked:
        ui = u[place]
        first, second = (next(sums) if coeff != 0.0 else
                         np.zeros((2, ui.size) if slope else ui.size)
                         for coeff in _connection_coefficients(*p))
        out[..., place] = _hyp2f1_connection(*p, ui, first, second)
    return out


def _slope(a: float, b: float, c: float, z: np.ndarray,
           first: np.ndarray) -> np.ndarray:
    """dF/dz from the sum of n t_n of the direct series at z: that sum over
    z, and a b / c at z = 0."""
    return np.divide(first, z, out=np.full(z.size, a * b / c), where=z != 0.0)


# -- the kernel's inner 2F1 from tables --------------------------------------

# f2_kernel_families reads the Pfaff-mapped inner 2F1 G = F(A, B; C; w) of
# a set at alpha != beta from tables: A = +-(alpha - beta) - 1, B = 1 -
# beta or 1 - alpha and C = 2 B put it in _GAUSS_BOX, the box of A, B and C
# ranges, and sets whose excess s = C - A - B lies within EXCESS_INT_TOL of
# an integer, or that a nonpositive integer A or B stops, keep the series.
# The tables are piecewise quintic Hermites on _GAUSS_CELLS uniform cells:
# of G and G' on [0, _GAUSS_SWITCH], and of the connection formula's two
# regular series and their slopes in u = 1 - w on [0, 1 - _GAUSS_SWITCH].
# A quintic Hermite of f misses by at most max|f^(6)| h^6 / 46080 on a cell
# of width h.  Over the box's kernel sets (alpha, beta in {0.05, 0.1, 0.2,
# 0.3, 0.4, 0.49}), |G^(6)| stays below 1.8e3 |G| and |G^(7)| below 6.1e4
# |G'| up to w = 3/4, so 256 cells bound the value tables' error by 2.4e-17
# and the slope tables' by 8.3e-16 relative, where 128 cells would allow
# 5.3e-14; the connection tables, on the shorter span u <= 1/4, by 5e-17.
# The switch sits at w = 3/4, not at Z_SWITCH: just past w = 1/2 the
# connection formula's neighbour loses up to 5e-14 to cancellation, and from
# 3/4 on it is within 6e-15 where the direct tables hold 2e-15.
_GAUSS_CELLS = 256
_GAUSS_SWITCH = 0.75
_GAUSS_BOX = ((-1.5, -0.5), (0.5, 1.0), (1.0, 2.0))


def _quintic_cells(h, y, dy, d2y) -> np.ndarray:
    """The (6, ..., cells) coefficients in t = (x - x_k) / h of the piecewise
    quintic that matches the values y, slopes dy and second derivatives d2y
    at the knots x_k along the last axis, cells of width h apart."""
    d0, d1 = h * dy[..., :-1], h * dy[..., 1:]
    c0, c1 = 0.5 * h * h * d2y[..., :-1], 0.5 * h * h * d2y[..., 1:]
    # in t: y + d0 t + c0 t^2, plus the t^3, t^4 and t^5 terms that fit the
    # value, slope and curvature at t = 1
    r0, r1, r2 = np.diff(y) - d0 - c0, d1 - d0 - 2.0 * c0, c1 - c0
    return np.array((y[..., :-1], d0, c0, 10.0 * r0 - 4.0 * r1 + r2,
                     -15.0 * r0 + 7.0 * r1 - 2.0 * r2,
                     6.0 * r0 - 3.0 * r1 + r2))


def _build_gauss_tables(params):
    """The tables of ``_gauss_tables`` for the sets (A, B, C) of ``params``:
    per set, the (6, 2, cells) quintics of G and G' in w, and the (6, 4,
    cells) quintics of S1, S1', S2 and S2' in u, the two regular series of
    the connection formula G = c1 S1(u) + c2 u^s S2(u) and their slopes.

    The values and slopes at the knots of all sets come from one
    ``_hyp2f1_series`` call; the second and third derivatives from the
    hypergeometric equation x (1-x) y'' = A B y - (C - (A+B+1) x) y' and its
    derivative, and at x = 0 from the series' coefficients."""
    knots = np.arange(_GAUSS_CELLS + 1) / _GAUSS_CELLS
    spans, sets = [], []
    for a, b, c in params:
        s = c - a - b
        spans += [_GAUSS_SWITCH, 1.0 - _GAUSS_SWITCH, 1.0 - _GAUSS_SWITCH]
        sets += [(a, b, c), (a, b, 1.0 - s), (c - a, c - b, 1.0 + s)]
    x = np.array(spans)[:, None] * knots
    y, first = _hyp2f1_series(sets, [knots.size] * len(sets), x.ravel(),
                              moment=True).reshape(2, len(sets), knots.size)
    a, b, c = (np.array(v)[:, None] for v in zip(*sets))
    dy = np.divide(first, x, out=np.broadcast_to(a * b / c, x.shape).copy(),
                   where=x != 0.0)
    inner = np.where(x == 0.0, 1.0, x * (1.0 - x))
    d2y = np.where(x == 0.0, a * (a + 1.0) * b * (b + 1.0) / (c * (c + 1.0)),
                   (a * b * y - (c - (a + b + 1.0) * x) * dy) / inner)
    d3y = np.where(x == 0.0, d2y * (a + 2.0) * (b + 2.0) / (c + 2.0),
                   ((a + 1.0) * (b + 1.0) * dy
                    - (c + 1.0 - (a + b + 3.0) * x) * d2y) / inner)
    h = np.array(spans)[:, None] / _GAUSS_CELLS
    values = _quintic_cells(h, y, dy, d2y)
    slopes = _quintic_cells(h, dy, d2y, d3y)
    return [(np.stack((values[:, j], slopes[:, j]), axis=1),
             np.stack((values[:, j + 1], slopes[:, j + 1],
                       values[:, j + 2], slopes[:, j + 2]), axis=1))
            for j in range(0, len(sets), 3)]


def _gauss_tables(params):
    """The tables of each set (A, B, C) of ``params`` that f2_kernel_families
    reads from tables (see _GAUSS_CELLS), else None.

    They are kept in _SERIES_TABLES by (A, B, C, "hermite"); the tables
    that it misses are built together, in one ``_build_gauss_tables``
    call."""
    keys, missing = [], {}
    for a, b, c in params:
        s = c - a - b
        if (_terminating(a, b) is not None
                or abs(s - round(s)) <= EXCESS_INT_TOL
                or not all(lo <= v <= hi for v, (lo, hi) in zip(
                    (a, b, c), _GAUSS_BOX))):
            keys.append(None)
            continue
        key = (a, b, c, "hermite")
        if key in _SERIES_TABLES:
            _SERIES_TABLES[key] = _SERIES_TABLES.pop(key)
        else:
            missing[key] = None
        keys.append(key)
    if missing:
        _SERIES_TABLES.update(zip(missing, _build_gauss_tables(
            [key[:3] for key in missing])))
    tables = [None if key is None else _SERIES_TABLES[key] for key in keys]
    _trim_series_tables()
    return tables


def _quintic_at(coef, t):
    """The quintics of (6, functions, cells) coefficients at t, a cell index
    plus the offset in it, as a (functions, points) array."""
    k = np.minimum(t.astype(np.int64), coef.shape[-1] - 1)
    t = t - k
    out = coef[5].take(k, axis=-1)
    for j in range(4, -1, -1):
        out *= t
        out += coef[j].take(k, axis=-1)
    return out


def _hyp2f1_tabled(params, counts, z, u):
    """``_hyp2f1_unit`` with slopes, with the sets that ``_gauss_tables``
    serves read from their tables: G and G' up to z = _GAUSS_SWITCH, beyond
    it the connection formula from its series' tables at u.  Every value is
    an elementwise function of its own point, so it is bitwise the same in
    any batch."""
    tables = _gauss_tables(params)
    if all(table is None for table in tables):
        return _hyp2f1_unit(params, counts, z, u, slope=True)
    out = np.empty((2, z.size))
    rest_sets, rest_runs = [], []
    for p, table, (lo, hi) in zip(params, tables, _runs(counts)):
        if table is None:
            rest_sets.append(p)
            rest_runs.append((lo, hi))
            continue
        direct, linked = table
        near = z[lo:hi] <= _GAUSS_SWITCH
        place = _positions(near, lo)
        out[:, place] = _quintic_at(
            direct, z[place] * (_GAUSS_CELLS / _GAUSS_SWITCH))
        if near.all():
            continue
        place = _positions(~near, lo)
        ui = u[place]
        series = _quintic_at(linked,
                             ui * (_GAUSS_CELLS / (1.0 - _GAUSS_SWITCH)))
        # the connection formula takes each series with u times its slope
        series[1::2] *= ui
        out[:, place] = _hyp2f1_connection(*p, ui, series[:2], series[2:])
    if rest_sets:
        rest = np.concatenate([np.arange(lo, hi) for lo, hi in rest_runs])
        sizes = [hi - lo for lo, hi in rest_runs]
        out[:, rest] = _hyp2f1_unit(rest_sets, sizes, z[rest], u[rest],
                                    slope=True)
    return out


def _gauss_2f1_negative(params, counts, z, neighbours: bool = False,
                        tables: bool = False):
    """2F1(a, b; c; z) over a 1-d array of z <= 0, in runs of ``counts``
    points per set (a, b, c) of ``params``, none of which a nonpositive
    integer a or b stops; with ``neighbours``, a (2, points) array of the
    values and of each set's neighbour F(a, b+1; c+1; z).

    Pfaff's map F(a,b;c;z) = (1-z)^(-b) G(w), G = F(c-a, b; c; w),
    w = z/(z-1), takes every point to 0 <= w < 1, whose complement 1 - w is
    formed as 1/(1-z), not by a subtraction that would lose its digits at
    large |z|; ``_hyp2f1_unit`` sums G for all sets in one call, or with
    ``tables`` ``_hyp2f1_tabled`` reads G and G' from tables where it can.
    The neighbour maps to (1-z)^(-b-1) c G'(w) / ((c-a) b), from the slope
    of G on the same series terms; a set with c = a, whose G is 1, takes it
    from ``_gauss_2f1_sets`` for the neighbour's set instead.  Each value
    is bitwise the same in any batch.
    """
    q = 1.0 - z
    args = ([(c - a, b, c) for a, b, c in params], counts, z / (z - 1.0),
            1.0 / q)
    values = (_hyp2f1_tabled(*args) if tables
              else _hyp2f1_unit(*args, neighbours).reshape(-1, z.size))
    out = np.empty((2, z.size) if neighbours else (1, z.size))
    for (a, b, c), (lo, hi) in zip(params, _runs(counts)):
        rest = np.power(q[lo:hi], -b)
        out[0, lo:hi] = rest * values[0, lo:hi]
        if not neighbours:
            continue
        if (c - a) * b != 0.0:
            out[1, lo:hi] = (rest / q[lo:hi] * (c / ((c - a) * b))
                             * values[1, lo:hi])
        else:
            out[1, lo:hi] = _gauss_2f1_sets([(a, b + 1.0, c + 1.0)],
                                            [hi - lo], z[lo:hi])
    return out if neighbours else out[0]


def _gauss_2f1_sets(params, counts, z, neighbours: bool = False):
    """Gauss hypergeometric 2F1(a, b; c; z) over a 1-d array of z <= 1, in
    runs of ``counts`` points per set (a, b, c) of ``params``; with
    ``neighbours``, a (2, points) array of the values and of each set's
    neighbour F(a, b+1; c+1; z).

    Strategy: a series that a nonpositive integer a or b stops is summed
    as it stands; z = 1 takes Gauss summation; z < 0 takes Pfaff's map in
    ``_gauss_2f1_negative``, for the mapped points of every set in one
    call; on 0 <= z < 1 ``_hyp2f1_unit`` takes over, for the unmapped
    points of every set in one call.  The neighbour of an unmapped point
    comes from a call for the neighbour's set.  Each value is bitwise the
    same in any batch.

    Raises DomainError for z > 1, non-finite z or a nonpositive integer c,
    and DivergenceError at z = 1 when c - a - b <= 0.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("gauss_2f1 needs finite z")
    if np.any(z > 1.0):
        raise DomainError(f"gauss_2f1 defined for z <= 1, got z = {z.max()}")
    if any(_is_nonpos_int(c) for _, _, c in params):
        raise DomainError("gauss_2f1: c must not be a nonpositive integer")
    out = np.empty((2, z.size) if neighbours else (1, z.size))
    # requests by the unit interval and by Pfaff's map: sets and points
    plain_sets, plain_places = [], []
    mapped_sets, mapped_places = [], []
    for (a, b, c), (lo, hi) in zip(params, _runs(counts)):
        zi = z[lo:hi]
        # terminating series bypass every transformation
        stops = _terminating(a, b) is not None
        mapped = (zi < 0.0) & (not stops)
        plain = ~mapped if stops else (zi >= 0.0) & (zi < 1.0)
        one = ~(mapped | plain)
        if one.any():
            out[0, lo + np.flatnonzero(one)] = gauss_2f1_at_one(a, b, c)
        if neighbours and not mapped.all():
            place = _positions(~mapped, lo)
            out[1, place] = _gauss_2f1_sets([(a, b + 1.0, c + 1.0)],
                                            [z[place].size], z[place])
        for sets, places, pick in ((plain_sets, plain_places, plain),
                                   (mapped_sets, mapped_places, mapped)):
            if pick.any():
                sets.append((a, b, c))
                places.append(_positions(pick, lo))
    if plain_sets:
        sizes = [z[place].size for place in plain_places]
        zs = np.concatenate([z[place] for place in plain_places])
        values = _hyp2f1_unit(plain_sets, sizes, zs, 1.0 - zs)
        for place, (lo, hi) in zip(plain_places, _runs(sizes)):
            out[0, place] = values[lo:hi]
    if mapped_sets:
        sizes = [z[place].size for place in mapped_places]
        zs = np.concatenate([z[place] for place in mapped_places])
        values = _gauss_2f1_negative(mapped_sets, sizes, zs,
                                     neighbours).reshape(-1, zs.size)
        for place, (lo, hi) in zip(mapped_places, _runs(sizes)):
            out[:, place] = values[:, lo:hi]
    return out if neighbours else out[0]


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 1; a, b, c and z
    are broadcast to one shape, the shape of the result, and four scalars
    give a float.

    The points of each distinct parameter set go to ``_gauss_2f1_sets``
    together, all sets in one call, whose strategy and errors it shares;
    each value is bitwise that of its point alone.  Raises DomainError
    unless the arguments broadcast and a, b and c are finite.
    """
    *params, z = (np.asarray(v, dtype=float) for v in (a, b, c, z))
    # checked before broadcasting, so scalar parameters are checked once
    if not np.isfinite(np.concatenate([v.ravel() for v in params])).all():
        raise DomainError("gauss_2f1 parameters must be finite")
    try:
        shape = np.broadcast(z, *params).shape
    except ValueError:
        raise DomainError("gauss_2f1 arguments must broadcast to one "
                          "shape") from None
    if z.shape != shape:
        z = np.broadcast_to(z, shape)
    z = z.ravel()
    if all(v.size == 1 for v in params):
        out = _gauss_2f1_sets([tuple(v.item() for v in params)], [z.size], z)
    else:
        # the points of each set in a run, the runs in order of their sets
        sets, which = np.unique(np.stack(
            [np.broadcast_to(v, shape).ravel() for v in params], axis=1),
            axis=0, return_inverse=True)
        which = which.ravel()
        order = np.argsort(which, kind="stable")
        out = np.empty(z.size)
        out[order] = _gauss_2f1_sets(
            [tuple(p) for p in sets.tolist()],
            np.bincount(which, minlength=len(sets)), z[order])
    # four scalars give a float
    return out.reshape(shape) if shape else float(out[0])


# ---------------------------------------------------------------------------
# Appell F2
# ---------------------------------------------------------------------------

def appell_f2_series_sets(a, b1, b2, c1, c2, x, y) -> np.ndarray:
    """F2 by its double power series, one parameter set per point, on the
    disk |x| + |y| < 1; all seven arguments are broadcast to one shape, the
    shape of the result.

    The series is summed row by row, a row being the sum over n at fixed
    m.  A term (or row) counts towards convergence only once it is small
    and no larger than its predecessor: near the disk edge the terms of a
    row grow towards a crest first, and a growing term that is still small
    says nothing about the tail.  Each row is summed to its own relative
    accuracy, so that the truncation errors of the rows do not pile up in
    the total; the floor at SERIES_RTOL of the total keeps a row that
    cancels to nearly zero finite.  A row ends at the SERIES_RUN-th small
    term in a row, the sum at the SERIES_RUN-th small row in a row.

    Row m of every unfinished point is summed at once, in blocks of terms
    (``_series_rows``); each term, partial sum and test is the same
    floating-point operation as in a point-by-point loop, so each point's
    value is bitwise the same in any batch.  Raises DomainError for
    arguments that are not finite, outside the disk or with c a
    nonpositive integer, and ConvergenceError once the leading term of a
    row underflows before the sum has converged, or once a sum reaches
    MAX_TERMS rows or a row MAX_TERMS terms.
    """
    args = _f2_arguments(a, b1, b2, c1, c2, x, y, disk=True)
    shape = args[0].shape
    a, b1, b2, c1, c2, x, y = (v.ravel() for v in args)
    out = np.empty(x.size)
    live = np.arange(x.size)  # the points still summing, and their state:
    total = np.zeros(x.size)
    lead = np.ones(x.size)  # (a)_m (b1)_m / ((c1)_m m!) x^m
    prev_row = np.full(x.size, math.inf)
    small_rows = np.zeros(x.size, dtype=np.int64)
    # terms a finished row never uses may overflow; the loop drops them
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(MAX_TERMS):
            row = _series_rows(a + m, b2, c2, y, lead, np.maximum(
                SERIES_RTOL * np.abs(total), 1e-300))
            total = total + row
            floor = SERIES_RTOL * np.maximum(np.abs(total), 1e-300)
            small = ((np.abs(row) <= np.minimum(prev_row, floor))
                     & (np.abs(lead) <= floor))
            small_rows = np.where(small, small_rows + 1, 0)
            done = small_rows >= SERIES_RUN
            out[live[done]] = total[done]
            prev_row = np.abs(row)
            if done.any():
                keep = ~done
                live, a, b1, b2, c1, c2, x, y = (v[keep] for v in (
                    live, a, b1, b2, c1, c2, x, y))
                total, lead, prev_row, small_rows = (v[keep] for v in (
                    total, lead, prev_row, small_rows))
            if live.size == 0:
                return out.reshape(shape)
            lead = lead * ((a + m) * (b1 + m) * x / ((c1 + m) * (m + 1)))
            lead_size = np.abs(lead)
            if np.any((0.0 < lead_size) & (lead_size < sys.float_info.min)):
                # rows built on a subnormal lead lose digits, then vanish
                raise ConvergenceError(
                    "F2 series: terms underflow before the sum converges")
    raise ConvergenceError("F2 series: outer index hit the term cap")


# The batched series takes the terms of a row in blocks, this many first and
# twice as many in each next block up to 16 times as many: its (rows, terms)
# arrays stay small, and a long row near the disk edge takes few blocks.
SERIES_BLOCK = 64


def _series_rows(am, b2, c2, y, lead, floor) -> np.ndarray:
    """Row sums lead * sum_n prod_(k < n) ratio_k of the double series, one
    row per point, with ratio_n = (am + n)(b2 + n) y / ((c2 + n)(n + 1)).

    A term counts as small when it is no larger than its predecessor and
    at most SERIES_RTOL * max(|partial sum|, floor); a row ends at the
    SERIES_RUN-th small term in a row.  cumprod and cumsum along n give
    every term and partial sum with the roundings of the recurrences
    term *= ratio_n, row += term, and the last SERIES_RUN - 1 tests of a
    block carry a run into the next.  At y = 0 a row is its lead, which
    the sums reproduce exactly, so those rows take no block.
    """
    rows = np.empty(lead.size)
    flat = y == 0.0
    rows[flat] = lead[flat]
    todo = np.flatnonzero(~flat)
    if todo.size == 0:
        return rows
    am, b2, c2, y, lead, floor = (v[todo] for v in (am, b2, c2, y, lead,
                                                    floor))
    term = row = lead
    run = np.zeros((lead.size, SERIES_RUN - 1), dtype=bool)
    n0, width = 0, SERIES_BLOCK
    while n0 < MAX_TERMS:
        n = np.arange(n0, min(n0 + width, MAX_TERMS), dtype=float)
        n0, width = n0 + width, min(2 * width, 16 * SERIES_BLOCK)
        ratio = ((am[:, None] + n) * (b2[:, None] + n) * y[:, None]
                 / ((c2[:, None] + n) * (n + 1.0)))
        terms = np.cumprod(np.concatenate((term[:, None], ratio), axis=1),
                           axis=1)
        sums = np.cumsum(np.concatenate((row[:, None], terms[:, 1:]), axis=1),
                         axis=1)[:, 1:]
        size = np.abs(terms)
        small = np.concatenate((run, (size[:, 1:] <= size[:, :-1]) & (
            size[:, 1:] <= SERIES_RTOL * np.maximum(np.abs(sums),
                                                    floor[:, None]))), axis=1)
        # ends[:, j]: term j of the block closes a run of SERIES_RUN
        ends = small[:, SERIES_RUN - 1:].copy()
        for k in range(1, SERIES_RUN):
            ends &= small[:, SERIES_RUN - 1 - k:SERIES_RUN - 1 - k + n.size]
        stop = ends.any(axis=1)
        rows[todo[stop]] = sums[stop, ends[stop].argmax(axis=1)]
        if stop.all():
            return rows
        going = ~stop
        todo, am, b2, c2, y, floor = (v[going] for v in (todo, am, b2, c2, y,
                                                         floor))
        term, row = terms[going, -1], sums[going, -1]
        run = small[going, small.shape[1] - (SERIES_RUN - 1):]
    raise ConvergenceError("F2 series: inner index hit the term cap")


# -- Euler integral route ----------------------------------------------------

# jacobi_rules builds its rules this many at a time: for 32 rules of 12
# points, the order of the tensor route's end panels, each of its four
# largest arrays takes about 37 kB.
JACOBI_SLICE = 32


def jacobi_rules(n: int, exponents, right_exponents=0.0):
    """Gauss-Jacobi rules on [-1, 1] for the weights
    (1 - t)^right_exponents[i] (1 + t)^exponents[i], all exponents > -1.

    Returns (nodes, weights) as (m, n) arrays, one rule per exponent pair,
    nodes ascending; each row is bitwise the rule of its pair alone.
    Golub-Welsch (Golub & Welsch 1969, Math. Comp. 23:221): the nodes are
    the eigenvalues of the symmetric Jacobi matrices, the weights the
    Christoffel numbers mu0 / sum_k p_k(t)^2 of the orthonormal
    polynomials, a sum of positive terms with nothing to cancel.  The rules
    are built JACOBI_SLICE at a time, so that the transient matrices stay
    small however many rules a caller asks for.
    """
    beta, alpha = np.broadcast_arrays(
        np.atleast_1d(np.asarray(exponents, dtype=float)),
        np.asarray(right_exponents, dtype=float))
    if not (n >= 1 and float(n).is_integer()) or not np.all(
            (alpha > -1.0) & (beta > -1.0) & np.isfinite(alpha + beta)):
        raise DomainError("jacobi_rules needs an integer n >= 1 and finite "
                          "exponents > -1")
    n = int(n)
    nodes = np.empty(alpha.shape + (n,))
    weights = np.empty(alpha.shape + (n,))
    for lo in range(0, alpha.size, JACOBI_SLICE):
        part = slice(lo, lo + JACOBI_SLICE)
        nodes[part], weights[part] = _golub_welsch(n, alpha[part], beta[part])
    return nodes, weights


def _golub_welsch(n: int, alpha: np.ndarray, beta: np.ndarray):
    """The n-point rules of ``jacobi_rules`` for the exponent vectors
    alpha (at t = 1) and beta (at t = -1), in one batch."""
    k = np.arange(n)[:, None]
    t = 2.0 * k + alpha + beta
    # recurrence coefficients over (k, rule), the removable 0/0 at k = 0 of
    # the diagonal and at k = 1 of the subdiagonal cancelled by hand
    diag = ((beta - alpha) * np.where(k == 0, 1.0, alpha + beta)
            / (np.where(k == 0, 1.0, t) * (t + 2.0)))
    sub = np.zeros_like(diag)  # sub[k] couples p_k and p_(k-1)
    sub[1:] = 2.0 / t[1:] * np.sqrt(
        k[1:] * (k[1:] + alpha) * (k[1:] + beta) / (t[1:] + 1.0)
        * np.where(k[1:] == 1, 1.0, k[1:] + alpha + beta)
        / np.where(k[1:] == 1, 1.0, t[1:] - 1.0))
    jac = np.zeros((alpha.size, n * n))
    jac[:, ::n + 1] = diag.T  # the diagonal, and below it the subdiagonal
    jac[:, n::n + 1] = sub[1:].T
    nodes = np.linalg.eigvalsh(jac.reshape(-1, n, n))
    # p_(k+1) = x_k p_k - c_k p_(k-1) at every node, c_0 = 0
    x = (nodes - diag[:-1, :, None]) / sub[1:, :, None]
    c = sub[:-1, :, None] / sub[1:, :, None]
    p = np.ones((n,) + nodes.shape)
    for j in range(n - 1):
        np.multiply(x[j], p[j], out=p[j + 1])
        p[j + 1] -= c[j] * p[j - 1]
    mu0 = np.array([math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                             + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
                    for a, b in zip(alpha.tolist(), beta.tolist())])
    return nodes, mu0[:, None] / np.sum(p * p, axis=0)


@functools.lru_cache(maxsize=256)
def gauss_rule(n: int, exponent: float = 0.0,
               right_exponent: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [-1, 1] for the weight
    (1 - t)^right_exponent (1 + t)^exponent, both exponents > -1; the
    defaults give the Gauss-Legendre rule.  One row of ``jacobi_rules``.

    Cached; the returned arrays are read-only.
    """
    nodes, weights = (v[0] for v in jacobi_rules(n, exponent, right_exponent))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# The Gauss order of every panel of the tensor layout of appell_f2_sets'
# Euler route.  Every tensor panel's nearest singularity maps to |t| >= 3 of
# its [-1, 1], so Bernstein's ellipse bound rho^(-2n), rho = 3 + sqrt(8),
# puts 12 points at 4e-19.
_TENSOR_N = 12

# The outer axis of f2_kernel_families takes each panel's Gauss order from
# the same bound (Trefethen 2008, SIAM Rev. 50:67): the least n with
# rho^(-2n) <= _KERNEL_EPS, rho that of the largest Bernstein ellipse about
# the panel that leaves out every singularity of its integrand.
_KERNEL_EPS = 1.0e-17

# The most points of the kernel route's one two-sided Gauss-Jacobi panel on
# [0, 1].  Past about 20 points the Golub-Welsch weights of a rule's end
# nodes, where this integrand puts most of its mass, carry errors of 5e-14
# relative and more (7.7e-14 at 34 points for exponents -0.4, -0.2), and
# recorded kernel values drift from 4.5e-15 to 1.2e-14 off the tensor route.
_KERNEL_JACOBI_MAX = 20

# Euler batches are cut so that one float array over a chunk's nodes stays
# near EULER_CHUNK_BYTES: the kernel route holds some forty such arrays at
# once in its 2F1 series, and a larger chunk buys little speed for the
# memory.  The tensor route of appell_f2_sets holds one (points, nodes,
# nodes) tensor, with each chunk's axes built for it, so that a batch of
# many parameter sets adds little to the transient memory of its
# single-point calls.
EULER_CHUNK_BYTES = 1 << 16
TENSOR_CHUNK_BYTES = 1 << 18


def _powers(base, exponent) -> np.ndarray:
    """base ** exponent over the broadcast of the two, element by element
    by Python's float power (the libm rounding, which np.power's vector
    loops do not always match)."""
    # a list of floats, not np.frompyfunc: its object casts allocate
    # buffers that raised the solve's peak resident set
    base, exponent = np.broadcast_arrays(base, exponent)
    return np.array([u ** e for u, e in zip(base.ravel().tolist(),
                                            exponent.ravel().tolist())],
                    dtype=float).reshape(base.shape)


def _euler_axes(b, cb, left, right, level: int):
    """Nodes/weights for int_0^1 s^(b-1) (1-s)^(cb-1) g(s|x|) ds, one axis
    for each of P points with exponents b, cb given as (P,) arrays.

    Returns nodes s_k and weights that already include the full beta-type
    weight s^(b-1) (1-s)^(cb-1), both (P, nodes).  Panels are graded
    dyadically from h0 = 2^-(level+1), so that the remaining factor
    (1 + s|x| + ...)^(-a) is smooth on every panel (h0 <= 1/(2|x|) for
    |x| <= 2^level): panel 0 is [0, h0], panels 1..level are
    [h0 2^(k-1), h0 2^k] (_TENSOR_N Gauss-Legendre nodes each), and panel
    level + 1 is [1/2, 1].  The end panels take the caller's Golub-Welsch
    Gauss-Jacobi rules on [-1, 1] as (nodes, weights) pairs of (P, n)
    arrays: ``left`` for the weight (1 + t)^(b-1), ``right`` for
    (1 + t)^(cb-1).  Every value is an elementwise function of its own
    point's exponents and rules.
    """
    b = b[:, None]
    cb = cb[:, None]
    h0 = 0.5 ** (level + 1)
    # left Gauss-Jacobi panel [0, h0] absorbing s^(b-1)
    tj, wj = left
    s_left = 0.5 * h0 * (tj + 1.0)
    w_left = wj * _powers(0.5 * h0, b) * (1.0 - s_left) ** (cb - 1.0)
    # dyadic Gauss-Legendre panels [h0 2^k, h0 2^(k+1)] up to 1/2
    tl, wl = gauss_rule(_TENSOR_N)
    lo = h0 * 2.0 ** np.arange(level)[:, None]
    hi = 2.0 * lo
    s_mid = (0.5 * (hi + lo) + 0.5 * (hi - lo) * tl).ravel()
    w_mid = ((wl * 0.5 * (hi - lo)).ravel() * s_mid ** (b - 1.0)
             * (1.0 - s_mid) ** (cb - 1.0))
    # right Gauss-Jacobi panel [1/2, 1] absorbing (1-s)^(cb-1)
    tj, wj = right
    s_right = 1.0 - 0.25 * (tj + 1.0)
    w_right = wj * _powers(0.25, cb) * s_right ** (b - 1.0)
    nodes = np.concatenate(
        (s_left, np.broadcast_to(s_mid, w_mid.shape), s_right), axis=1)
    weights = np.concatenate((w_left, w_mid, w_right), axis=1)
    return nodes, weights


def _kernel_bins(u) -> np.ndarray:
    """The half-octave bins ceil(2 log2 max(|u|, 1/4)) of the smaller
    arguments u of the kernel route, as int64: bin k holds
    2^((k-1)/2) < |u| <= 2^(k/2), bin -4 every |u| <= 1/4, and bin 2047,
    whose top is the last finite half-octave, the doubles above it too."""
    return np.minimum(np.ceil(2.0 * np.log2(np.maximum(np.abs(u), 0.25))),
                      2047).astype(np.int64)


def _bernstein_order(lo: float, hi: float, poles) -> int:
    """The least Gauss order n with rho^(-2n) <= _KERNEL_EPS on the panel
    [lo, hi], rho the parameter of the largest Bernstein ellipse about it
    (foci lo and hi) that leaves out every point of ``poles``."""
    # scalar float and complex arithmetic overflows to inf without a
    # warning: a pole beyond the largest double is as good as none
    ts = [(2.0 * pole - (lo + hi)) / (hi - lo) for pole in poles]
    # the ellipse through t has foci -1 and 1, semi-major axis half and
    # semi-axis sum rho = exp(arccosh(half)); a pole that rounds onto the
    # panel's end (log rho = 0) asks for more points than any rule has
    log_rho = max(min(math.acosh(0.5 * (abs(t - 1.0) + abs(t + 1.0)))
                      for t in ts), sys.float_info.epsilon)
    return math.ceil(-math.log(_KERNEL_EPS) / (2.0 * log_rho))


@functools.lru_cache(maxsize=None)
def _kernel_panels(k: int):
    """The panels of the outer axis for the smaller arguments of bin k
    (``_kernel_bins``), as (kind, lo, hi, n) tuples: a Gauss rule of n
    points on [lo, hi], for s or, where kind is "log", for sigma = ln s.

    The integrand (1 - u s)^(-a-1) F(a+1, b2; c2; v / (1 - u s)), u <= v
    <= 0, is singular at s = -1/|u|, where the power and the inner 2F1's
    argument blow up; the inner 2F1's own branch point z = 1 sits at
    s = -(1+|v|)/|u|, farther out (in sigma, past the s = 1 point
    sigma = 0).  The Euler weight adds s = 0 wherever a panel does not
    absorb s^(b-1), and s = 1 wherever it does not absorb (1-s)^(cb-1).
    Each panel takes its ``_bernstein_order`` for its singularities at
    both ends of the bin; every pole stays off the panel's span as |u|
    runs over the bin, so one of the two ends is the nearest.  Two
    layouts:

    * "jacobi": one two-sided Gauss-Jacobi panel on [0, 1], while it takes
      at most _KERNEL_JACOBI_MAX points (up to bin 3, |u| <= 2^1.5);
    * beyond, with h0 = 2^-(L+1) <= 2/|u|, L = max(ceil(k/2 - 2), 0):
      "left", a Gauss-Jacobi panel on [0, h0]; "log", Gauss-Legendre
      panels in sigma over [h0, 1/4], equal and at most four octaves long;
      "legendre", one Gauss-Legendre panel on [1/4, 1/2]; and "right", a
      Gauss-Jacobi panel on [1/2, 1].  In sigma the singularities are
      -ln|u| +- i pi (and their 2 pi i copies) and 0, s = 1; s = 0 has
      gone to -infinity.

    The layout depends on k alone.  Cached.
    """
    sizes = [2.0 ** (0.5 * k)]
    if k > -4:
        sizes.append(2.0 ** (0.5 * (k - 1)))

    def panel(kind, lo, hi, poles):
        return kind, lo, hi, max(_bernstein_order(lo, hi, poles(r))
                                 for r in sizes)

    one = panel("jacobi", 0.0, 1.0, lambda r: [-1.0 / r])
    if one[3] <= _KERNEL_JACOBI_MAX:
        return (one,)
    level = max((k - 3) // 2, 0)
    h0 = 0.5 ** (level + 1)
    graded = [panel("left", 0.0, h0, lambda r: [-1.0 / r, 1.0])]
    if level >= 2:
        ends = np.linspace(math.log(h0), math.log(0.25),
                           (level + 2) // 4 + 1).tolist()
        graded += [panel("log", lo, hi,
                         lambda r: [complex(-math.log(r), math.pi), 0.0])
                   for lo, hi in zip(ends[:-1], ends[1:])]
    if level >= 1:
        graded.append(panel("legendre", 0.25, 0.5,
                            lambda r: [-1.0 / r, 0.0, 1.0]))
    graded.append(panel("right", 0.5, 1.0, lambda r: [-1.0 / r, 0.0]))
    return tuple(graded)


@functools.lru_cache(maxsize=256)
def _kernel_axis(b: float, cb: float, k: int):
    """The outer axis of ``f2_kernel_families`` for the smaller arguments of
    bin k, on the panels of ``_kernel_panels(k)``.

    Returns (s, ws): the nodes, and weights that carry the Euler weight
    s^(b-1) (1-s)^(cb-1) divided by its integral B(b, cb), as (nodes,)
    arrays.  Cached per bin; the returned arrays are read-only.
    """
    nodes, weights = [], []
    for kind, lo, hi, n in _kernel_panels(k):
        half = 0.5 * (hi - lo)
        if kind == "jacobi":
            t, w = gauss_rule(n, b - 1.0, cb - 1.0)
            s = half * (t + 1.0)
            ws = w * half ** (b + cb - 1.0)
        elif kind == "left":
            t, w = gauss_rule(n, b - 1.0)
            s = half * (t + 1.0)
            ws = w * half ** b * (1.0 - s) ** (cb - 1.0)
        elif kind == "right":
            t, w = gauss_rule(n, cb - 1.0)
            s = 1.0 - half * (t + 1.0)
            ws = w * half ** cb * s ** (b - 1.0)
        else:
            t, w = gauss_rule(n)
            s = lo + half * (t + 1.0)
            ws = half * w
            if kind == "log":
                # ds = s dsigma
                s = np.exp(s)
                ws = ws * s
            ws = ws * s ** (b - 1.0) * (1.0 - s) ** (cb - 1.0)
        nodes.append(s)
        weights.append(ws)
    s = np.concatenate(nodes)
    ws = np.concatenate(weights) * math.exp(
        ln_gamma(b + cb) - ln_gamma(b) - ln_gamma(cb))
    s.flags.writeable = False
    ws.flags.writeable = False
    return s, ws


def _euler_prefactor(b1: float, c1: float, b2: float, c2: float) -> float:
    """C = G(c1) G(c2) / (G(b1) G(c1-b1) G(b2) G(c2-b2)) of the Euler integral."""
    return math.exp(ln_gamma(c1) + ln_gamma(c2) - ln_gamma(b1)
                    - ln_gamma(c1 - b1) - ln_gamma(b2) - ln_gamma(c2 - b2))


def _levels(x) -> np.ndarray:
    """The dyadic levels ceil(log2 max(|x|, 1)), as int64."""
    return np.ceil(np.log2(np.maximum(np.abs(x), 1.0))).astype(np.int64)


def _level_groups(x, y):
    """Group points by their dyadic levels ceil(log2 max(|x|, 1)) and
    ceil(log2 max(|y|, 1)); yields (level_x, level_y, indices)."""
    # one key per level pair; levels of finite doubles stay below 1025
    keys, group, counts = np.unique(_levels(x) * 2048 + _levels(y),
                                    return_inverse=True, return_counts=True)
    # one stable sort keeps each group's indices ascending
    members = np.split(np.argsort(group, kind="stable"),
                       np.cumsum(counts)[:-1])
    for key, idx in zip(keys.tolist(), members):
        yield key // 2048, key % 2048, idx


def _node_chunks(count: np.ndarray, limit: int):
    """Cut points with ``count`` nodes each into runs (lo, hi) of at most
    ``limit`` nodes, or of one point where that alone is more."""
    ends = np.cumsum(count)
    lo = 0
    while lo < count.size:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + limit, "right")))
        yield lo, hi
        lo = hi


def _f2_euler_many(a, b1, b2, c1, c2, x, y) -> np.ndarray:
    """F2 by the 2-D Euler integral, one parameter set per point; the seven
    arguments broadcast to one flat vector, with x, y <= 0, c1 > b1 > 0 and
    c2 > b2 > 0.

    Uses the full tensor product of the two axes' panels, an evaluation
    tree independent of the one graded axis of ``f2_kernel_families``.  The
    end-panel rules of the call's distinct exponents come from one
    ``jacobi_rules`` call, and each chunk of a level group builds the axes
    of all its points at once; every point is then reduced on its own, so
    its value does not depend on the batch it arrives in.
    """
    a, b1, b2, c1, c2, x, y = (np.ravel(v) for v in np.broadcast_arrays(
        a, b1, b2, c1, c2, x, y))
    out = np.empty(x.size)
    exponents, rule = np.unique(
        np.stack((b1 - 1.0, c1 - b1 - 1.0, b2 - 1.0, c2 - b2 - 1.0)),
        return_inverse=True)
    tj, wj = jacobi_rules(_TENSOR_N, exponents)
    # one prefactor per distinct (b1, c1, b2, c2)
    sets = list(zip(b1.tolist(), c1.tolist(), b2.tolist(), c2.tolist()))
    known = {v: _euler_prefactor(*v) for v in set(sets)}
    pref = np.array([known[v] for v in sets])
    for level_x, level_y, group in _level_groups(x, y):
        nodes = _TENSOR_N ** 2 * (2 + level_x) * (2 + level_y)
        for idx in (group[lo:hi] for lo, hi in _node_chunks(
                np.full(group.size, nodes), TENSOR_CHUNK_BYTES // 8)):
            left_x, right_x, left_y, right_y = rule[:, idx]
            s, ws = _euler_axes(b1[idx], c1[idx] - b1[idx],
                                   (tj[left_x], wj[left_x]),
                                   (tj[right_x], wj[right_x]), level_x)
            t, wt = _euler_axes(b2[idx], c2[idx] - b2[idx],
                                   (tj[left_y], wj[left_y]),
                                   (tj[right_y], wj[right_y]), level_y)
            # B = 1 - s x - t y on the (points, s, t) tensor
            core = ((1.0 - x[idx][:, None, None] * s[:, :, None])
                    - y[idx][:, None, None] * t[:, None, :])
            np.power(core, -a[idx][:, None, None], out=core)
            # one matrix-vector product per point, then a row reduction
            inner = np.matmul(core, wt[:, :, None])[:, :, 0]
            out[idx] = pref[idx] * np.sum(inner * ws, axis=1)
            # free this tensor before the next chunk builds its own
            del core
    return out


def _f2_arguments(a, b1, b2, c1, c2, x, y, disk: bool = False):
    """The seven F2 arguments as float arrays of one broadcast shape;
    raises DomainError unless they broadcast, are finite, no c is a
    nonpositive integer and x, y <= 0 (with ``disk``, |x| + |y| < 1)."""
    args = [np.asarray(v, dtype=float) for v in (a, b1, b2, c1, c2, x, y)]
    # checked before broadcasting, so scalar parameters are checked once
    if not all(np.all(np.isfinite(v)) for v in args):
        raise DomainError("F2 arguments must be finite")
    if not disk and (np.any(args[5] > 0.0) or np.any(args[6] > 0.0)):
        raise DomainError("appell_f2 is defined for x <= 0 and y <= 0")
    for c in args[3:5]:
        if np.any((c <= 0.5) & (np.abs(c - np.round(c))
                                < _INT_TOL * np.maximum(1.0, np.abs(c)))):
            raise DomainError(
                "appell_f2: c parameters must not be nonpositive integers")
    try:
        args = np.broadcast_arrays(*args)
    except ValueError:
        raise DomainError("F2 arguments must broadcast to one shape") from None
    if disk:
        radius = np.abs(args[5]) + np.abs(args[6])
        if np.any(radius >= 1.0):
            raise DomainError("F2 series requires |x| + |y| < 1 "
                              f"(got {radius.max()})")
    return args


def f2_kernel_families(a: float, b1: float, b2: float, c1: float, c2: float,
                       x, y):
    """F2 and its three first-shift families from one graded axis.

    Returns (main, dx, dy, da) over argument vectors x <= 0, y <= 0:

        main = F2(a; b1, b2; c1, c2; x, y)
        dx   = F2(a+1; b1+1, b2; c1+1, c2; x, y)
        dy   = F2(a+1; b1, b2+1; c1, c2+1; x, y)
        da   = F2(a+1; b1, b2; c1, c2; x, y)

    With B = 1 - s x - t y, P = B^(-a-1) and w the Euler weight of the main
    family, da = C int w P, dx = C (c1/b1) int w s P, dy = C (c2/b2)
    int w t P, and main = C int w B P = da - x C int w s P - y C int w t P.
    Every term of the last sum is nonnegative for x, y <= 0, so nothing
    cancels.

    Each point grades only the axis of its smaller argument, here s with
    |x| <= |y|, on the axis of its half-octave bin of |x|
    (``_kernel_axis``), and integrates the other exactly (DLMF 15.6.1):
    with A = 1 - x s,

        int_0^1 t^(b2-1) (1-t)^(c2-b2-1) (A - y t)^(-a-1) dt
            = A^(-a-1) B(b2, c2-b2) F(a+1, b2; c2; y/A),

    and the t moment is the same with b2 + 1, c2 + 1: the neighbour of the
    first 2F1.  So every outer node takes A^(-a-1) and one 2F1 value with
    its neighbour at y/A <= 0; the nodes of a chunk, for both choices of
    the outer axis, take theirs from one ``_gauss_2f1_negative`` call
    (``_gauss_2f1_sets`` where a nonpositive integer a + 1 stops the
    series, as at a = -1).  Chunks hold about EULER_CHUNK_BYTES / 8 nodes.

    Pfaff's map turns each 2F1 into G = F(c-a-1, b; c; w), 0 <= w < 1.  At
    alpha = beta the main family's G is a two-term series.  Otherwise G is
    read from its set's tables (``_hyp2f1_tabled``), built once per set from
    the series and kept with the series tables: a quintic Hermite of G and
    one of G' on 256 uniform cells up to w = 3/4, and beyond it the
    connection formula on tables of its two regular series in 1 - w.  A
    point then costs a cell index, a gather and two degree-5 Horner passes
    (plus u^s past w = 3/4) instead of 20 to 58 series terms.  A set whose
    G is no kernel set at alpha != beta, or whose excess c - (c-a-1) - b
    lies within EXCESS_INT_TOL of an integer (alpha or beta below about
    0.05), takes the series route of ``_hyp2f1_unit``.

    Requires c1 > b1 > 0 and c2 > b2 > 0; the five parameters are checked
    as scalars.  Each point's values are independent of the batch it is
    evaluated in.
    """
    if np.shape(x) != np.shape(y):
        raise DomainError("F2 arguments x and y must have equal shapes")
    # the checks of _f2_arguments, with the five parameters as scalars
    a, b1, b2, c1, c2 = (float(v) for v in (a, b1, b2, c1, c2))
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (all(map(math.isfinite, (a, b1, b2, c1, c2)))
            and np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("F2 arguments must be finite")
    if np.any(x > 0.0) or np.any(y > 0.0):
        raise DomainError("appell_f2 is defined for x <= 0 and y <= 0")
    if _is_nonpos_int(c1) or _is_nonpos_int(c2):
        raise DomainError(
            "appell_f2: c parameters must not be nonpositive integers")
    if not ((c1 > b1 > 0.0) and (c2 > b2 > 0.0)):
        raise DomainError(
            "f2_kernel_families needs c1 > b1 > 0 and c2 > b2 > 0")
    shape = x.shape
    if x.size == 0:
        return tuple(np.empty(shape) for _ in range(4))
    x = x.ravel()
    y = y.ravel()
    # the outer axis is y where |y| < |x|; u, v: outer and inner arguments,
    # and the points taken with x outer first, so that the nodes of every
    # chunk come in two runs, one per 2F1 set
    swap = np.abs(y) < np.abs(x)
    order = np.argsort(swap, kind="stable")
    y_outer = swap[order]
    u = np.where(y_outer, y[order], x[order])
    v = np.where(y_outer, x[order], y[order])
    # the 2F1 set of the inner integral for x outer and for y outer; the t
    # moment takes its neighbour.  Every node has z <= 0, so the sets go to
    # Pfaff's map directly, unless their own a or b stops them
    sets = [(a + 1.0, b2, c2), (a + 1.0, b1, c1)]
    gauss = (_gauss_2f1_sets if any(_terminating(p, q) is not None
                                    for p, q, _ in sets)
             else functools.partial(_gauss_2f1_negative, tables=True))
    # the outer axes present, end to end, and each point's as a segment
    present, axis = np.unique(2 * _kernel_bins(u) + y_outer,
                              return_inverse=True)
    axes = [_kernel_axis(b2, c2 - b2, k // 2) if k % 2
            else _kernel_axis(b1, c1 - b1, k // 2) for k in present.tolist()]
    s_all = np.concatenate([s for s, _ in axes])
    w_all = np.concatenate([w for _, w in axes])
    sizes = np.array([s.size for s, _ in axes])
    first = np.cumsum(sizes) - sizes
    moments = np.empty((3, x.size))
    for lo, hi in _node_chunks(sizes[axis], EULER_CHUNK_BYTES // 8):
        count = sizes[axis[lo:hi]]
        start = np.cumsum(count) - count
        take = (np.repeat(first[axis[lo:hi]] - start, count)
                + np.arange(count.sum()))
        s = s_all[take]
        lead = 1.0 - np.repeat(u[lo:hi], count) * s
        z = np.repeat(v[lo:hi], count) / lead
        np.power(lead, -a - 1.0, out=lead)
        lead *= w_all[take]
        x_outer = count[~y_outer[lo:hi]].sum()
        f0, ft = gauss(sets, [x_outer, z.size - x_outer], z, neighbours=True)
        f0 *= lead
        ft *= lead
        # one sum over its own nodes per point: a point's values do not
        # depend on the batch it arrives in
        moments[:, order[lo:hi]] = [np.add.reduceat(f0, start),
                                    np.add.reduceat(f0 * s, start),
                                    np.add.reduceat(ft, start)]
    i0, outer, inner = moments
    inner *= np.where(swap, b1 / c1, b2 / c2)
    i_s = np.where(swap, inner, outer)
    i_t = np.where(swap, outer, inner)
    main = i0 - x * i_s - y * i_t
    dx = (c1 / b1) * i_s
    dy = (c2 / b2) * i_t
    return (main.reshape(shape), dx.reshape(shape), dy.reshape(shape),
            i0.reshape(shape))


def appell_f2_sets(a, b1, b2, c1, c2, x, y) -> np.ndarray:
    """Appell F2 with one parameter set per point, x <= 0, y <= 0; all
    seven arguments are broadcast to one shape, the shape of the result.

    Points with c1 > b1 > 0 and c2 > b2 > 0 take the Euler double integral
    on the tensor product of the two graded axes, all in one batch; the
    origin, where the quadrature leaves a last-digit error, is set to
    exactly 1.  All other points go through Appell's transformation to the
    double series at x/(x+y-1), y/(x+y-1), in one ``appell_f2_series_sets``
    call; that series raises ConvergenceError where its terms underflow
    before it converges (see the module docstring).  Agrees with
    ``appell_f2_series_sets`` on the disk |x| + |y| < 1, and each point's
    value is bitwise the same in any batch.
    """
    args = _f2_arguments(a, b1, b2, c1, c2, x, y)
    shape = args[0].shape
    a, b1, b2, c1, c2, x, y = (v.ravel() for v in args)
    euler = (c1 > b1) & (b1 > 0.0) & (c2 > b2) & (b2 > 0.0)
    out = np.empty(x.size)
    out[euler] = _f2_euler_many(*(v[euler] for v in (a, b1, b2, c1, c2,
                                                      x, y)))
    if not euler.all():
        # the rest through Appell's transformation, in one series call
        ar, b1r, b2r, c1r, c2r, xr, yr = (v[~euler] for v in (
            a, b1, b2, c1, c2, x, y))
        out[~euler] = _powers(1.0 - xr - yr, -ar) * appell_f2_series_sets(
            ar, c1r - b1r, c2r - b2r, c1r, c2r, xr / (xr + yr - 1.0),
            yr / (xr + yr - 1.0))
    out[(x == 0.0) & (y == 0.0)] = 1.0
    return out.reshape(shape)


def appell_f2_many(a: float, b1: float, b2: float, c1: float, c2: float,
                   x, y) -> np.ndarray:
    """Appell F2 at one fixed parameter set over argument arrays x <= 0,
    y <= 0 (broadcast to one shape): ``appell_f2_sets`` with scalar
    parameters."""
    return appell_f2_sets(a, b1, b2, c1, c2, x, y)


def appell_f2(a: float, b1: float, b2: float, c1: float, c2: float,
              x: float, y: float) -> float:
    """Appell F2 continued to x <= 0, y <= 0 at one point."""
    return float(appell_f2_sets(a, b1, b2, c1, c2, x, y))

