"""Gauss and Appell hypergeometric functions on the real domain used by the
weighted potential kernels.

The functions here are deliberately narrow: real parameters, real arguments,
double precision.  ``gauss_2f1`` covers z <= 1 through a three-way strategy
(direct series, Pfaff reflection for negative z, connection formula near
z = 1 with the Gauss summation handling z = 1 itself).  ``appell_f2``
continues the F2 double series to the third quadrant x <= 0, y <= 0, which
is the regime produced by the chord variables of the fundamental solution.
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
  a-shifted families (the four the kernel derivatives need) together, on
  the main family's Euler nodes, over whole argument vectors.  Every
  batched kernel evaluation goes through it, at any distance.
* ``appell_f2`` / ``appell_f2_many`` serve one parameter set at a time,
  including sets with c <= b that the Euler integral cannot take.  The
  kernel uses them only in ``kernel.dq4_dn``, the independent evaluation
  tree the batched route is checked against.

Both Euler routes grade each axis for its dyadic level
L = ceil(log2 max(|x|, 1)): a left Gauss-Jacobi panel [0, 2^-(L+1)]
absorbing s^(b-1), L dyadic Gauss-Legendre panels up to 1/2, and a right
Gauss-Jacobi panel [1/2, 1] absorbing (1-s)^(c-b-1).  They differ in how
the two axes combine:

* ``appell_f2_many`` takes the full tensor product of the two axes, with
  12-point Legendre and 24-point Jacobi panels: (48 + 12 L)^2 nodes per
  point at L = Lx = Ly.
* ``f2_kernel_families`` takes a staircase.  The integrand is non-smooth
  only toward the corner s = t = 0, so the square splits into rectangles
  that are each smooth in both variables: every s-panel k against
  [0, end of t-panel k], and every t-panel k >= 1 against
  [0, end of s-panel k - 1] (past an axis's last panel, the whole of
  [0, 1]).  The side of each rectangle that reaches down to an axis takes
  one 20-point Gauss-Jacobi prefix rule, cached per axis and level, and
  the other side keeps its panel's nodes; the panels use
  10-point Legendre and 20-point Jacobi rules.  That is
  (60 + 10 Lx + 10 Ly) rows of 20 nodes per point: 1,200 at L = 0, 6,000
  at L = 12 and 14,400 at L = 33, against 2,304, 36,864 and 197,136 for
  the tensor product.

Log-gamma comes from the library (``math.lgamma``, ``scipy.special.gammaln``).
The Gauss rules, the staircase axes and prefix rules, and the Euler
prefactors are cached; a level pair's staircase is gathered from its two
axes on each call, since one workload touches hundreds of level pairs.
The tensor axes and the prefactor of ``appell_f2_many`` are computed on
each call, past those caches: its callers draw a new parameter set for
almost every call, and caching them only grows memory.
Otherwise every function is a pure function of its arguments.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_jacobi

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

def ln_gamma(x):
    """Natural log of Gamma(x) for x > 0 (scalar or ndarray)."""
    if np.ndim(x) == 0:
        x = float(x)
        if x <= 0.0:
            raise DomainError("ln_gamma requires x > 0")
        return math.lgamma(x)
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("ln_gamma requires x > 0")
    return gammaln(arr)


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


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0 or n != int(n):
        raise DomainError("pochhammer requires an integer n >= 0")
    out = 1.0
    for k in range(int(n)):
        out *= a + k
    return out


def _is_nonpos_int(x: float) -> bool:
    return x <= 0.5 and abs(x - round(x)) < _INT_TOL * max(1.0, abs(x))


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------

def _hyp2f1_series(a: float, b: float, c: float, z: float,
                   max_terms: int = MAX_TERMS) -> float:
    """Direct 2F1 power series; caller guarantees |z| < 1 or termination."""
    term = 1.0
    total = 1.0
    small = 0
    for m in range(max_terms):
        term *= (a + m) * (b + m) * z / ((c + m) * (m + 1))
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            small += 1
            if small >= SERIES_RUN:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"2F1 series did not converge within {max_terms} terms "
        f"(a={a}, b={b}, c={c}, z={z})")


def gauss_2f1_at_one(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) by Gauss summation; requires c - a - b > 0."""
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


def _hyp2f1_connection(a: float, b: float, c: float, z: float) -> float:
    """2F1 on (Z_SWITCH, 1) through the 1-z connection formula.

    Requires c - a - b not an integer; both component series run at
    argument u = 1 - z < 1 - Z_SWITCH.
    """
    u = 1.0 - z
    s = c - a - b
    lg_c = ln_gamma(c) if c > 0 else None
    if lg_c is None:
        lgc, sgc = _ln_gamma_signed(c)
    else:
        lgc, sgc = lg_c, 1.0

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

    c1 = coeff(s, c - a, c - b)
    c2 = coeff(-s, a, b)
    out = 0.0
    if c1 != 0.0:
        out += c1 * _hyp2f1_series(a, b, 1.0 - s, u)
    if c2 != 0.0:
        out += c2 * u ** s * _hyp2f1_series(c - a, c - b, 1.0 + s, u)
    return out


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 1.

    Strategy: direct series on [0, Z_SWITCH]; Pfaff reflection
    F(a,b;c;z) = (1-z)^(-b) F(c-a, b; c; z/(z-1)) for z < 0; the 1-z
    connection formula on (Z_SWITCH, 1) falling back to the plain series
    when c - a - b sits too close to an integer; Gauss summation at z = 1.

    Raises DomainError for z > 1 or a nonpositive integer c, and
    DivergenceError at z = 1 when c - a - b <= 0.
    """
    if z > 1.0:
        raise DomainError(f"gauss_2f1 defined for z <= 1, got z = {z}")
    if _is_nonpos_int(c):
        raise DomainError("gauss_2f1: c must not be a nonpositive integer")
    # terminating series bypass every transformation
    if _is_nonpos_int(a) or _is_nonpos_int(b):
        if _is_nonpos_int(a) and _is_nonpos_int(b):
            n_stop = int(-max(round(a), round(b)))
        else:
            n_stop = int(-round(a)) if _is_nonpos_int(a) else int(-round(b))
        term, total = 1.0, 1.0
        for m in range(n_stop):
            term *= (a + m) * (b + m) * z / ((c + m) * (m + 1))
            total += term
        return total
    if z == 1.0:
        return gauss_2f1_at_one(a, b, c)
    if z < 0.0:
        return (1.0 - z) ** (-b) * gauss_2f1(c - a, b, c, z / (z - 1.0))
    if z <= Z_SWITCH:
        return _hyp2f1_series(a, b, c, z)
    s = c - a - b
    if abs(s - round(s)) > EXCESS_INT_TOL or z > Z_SERIES_MAX:
        return _hyp2f1_connection(a, b, c, z)
    return _hyp2f1_series(a, b, c, z)


# ---------------------------------------------------------------------------
# Appell F2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class F2Args:
    """Parameter/argument bundle for Appell F2(a; b1, b2; c1, c2; x, y)."""
    a: float
    b1: float
    b2: float
    c1: float
    c2: float
    x: float
    y: float

    def __post_init__(self):
        for name in ("c1", "c2"):
            if _is_nonpos_int(getattr(self, name)):
                raise DomainError(f"F2Args: {name} must not be a nonpositive integer")


def appell_f2_series(args: F2Args) -> float:
    """F2 by its double power series; requires |x| + |y| < 1.

    A term (or row) counts towards convergence only once it is small and
    no larger than its predecessor: near the disk edge the terms of a row
    grow towards a crest first, and a growing term that is still small
    says nothing about the tail.  Each row is summed to its own relative
    accuracy, so that the truncation errors of the rows do not pile up in
    the total; the floor at SERIES_RTOL of the total keeps a row that
    cancels to nearly zero finite.  Raises ConvergenceError once the
    leading term of a row underflows before the sum has converged.
    """
    if abs(args.x) + abs(args.y) >= 1.0:
        raise DomainError(
            "appell_f2_series requires |x| + |y| < 1 "
            f"(got {abs(args.x) + abs(args.y)})")
    a, b1, b2, c1, c2 = args.a, args.b1, args.b2, args.c1, args.c2
    x, y = args.x, args.y
    total = 0.0
    lead = 1.0  # (a)_m (b1)_m / ((c1)_m m!) x^m
    prev_row = math.inf
    small_rows = 0
    for m in range(MAX_TERMS):
        # row over n at fixed m
        term = lead
        row = term
        small = 0
        for n in range(MAX_TERMS):
            prev = abs(term)
            term *= (a + m + n) * (b2 + n) * y / ((c2 + n) * (n + 1))
            row += term
            if (abs(term) <= prev
                    and abs(term) <= SERIES_RTOL * max(
                        abs(row), SERIES_RTOL * abs(total), 1e-300)):
                small += 1
                if small >= SERIES_RUN:
                    break
            else:
                small = 0
        else:
            raise ConvergenceError("appell_f2_series: inner index hit the term cap")
        total += row
        floor = SERIES_RTOL * max(abs(total), 1e-300)
        if abs(row) <= min(prev_row, floor) and abs(lead) <= floor:
            small_rows += 1
            if small_rows >= SERIES_RUN:
                return total
        else:
            small_rows = 0
        prev_row = abs(row)
        lead *= (a + m) * (b1 + m) * x / ((c1 + m) * (m + 1))
        if 0.0 < abs(lead) < sys.float_info.min:
            # rows built on a subnormal lead lose digits, then vanish
            raise ConvergenceError(
                "appell_f2_series: terms underflow before the sum converges")
    raise ConvergenceError("appell_f2_series: outer index hit the term cap")


def f2_param_shift(args: F2Args, m: int, n: int) -> tuple[float, F2Args]:
    """Coefficient and shifted parameters of the mixed derivative
    d^(m+n) F2 / dx^m dy^n = coef * F2(a+m+n; b1+m, b2+n; c1+m, c2+n; x, y).
    """
    if m < 0 or n < 0:
        raise DomainError("f2_param_shift requires m, n >= 0")
    coef = (pochhammer(args.a, m + n) * pochhammer(args.b1, m)
            * pochhammer(args.b2, n)
            / (pochhammer(args.c1, m) * pochhammer(args.c2, n)))
    shifted = F2Args(args.a + m + n, args.b1 + m, args.b2 + n,
                     args.c1 + m, args.c2 + n, args.x, args.y)
    return coef, shifted


# -- Euler integral route ----------------------------------------------------

@functools.lru_cache(maxsize=256)
def gauss_rule(n: int, exponent: float = 0.0,
               right_exponent: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [-1, 1] for the weight
    (1 - t)^right_exponent (1 + t)^exponent, both exponents > -1; the
    defaults give the Gauss-Legendre rule.

    Cached; the returned arrays are read-only.
    """
    nodes, weights = roots_jacobi(n, right_exponent, exponent)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# Gauss orders of the dyadic Legendre panels and of the Jacobi panels: the
# tensor layout of appell_f2_many's Euler route, and the staircase layout
# of f2_kernel_families.
_EULER_LEG_N = 12
_EULER_JAC_N = 24
_STAIR_LEG_N = 10
_STAIR_JAC_N = 20

# Euler batches are cut so that the (points, nodes) tensor stays near this
# many bytes.
EULER_CHUNK_BYTES = 1 << 20


def _euler_axis(b: float, cb: float, level: int, leg: int = _EULER_LEG_N,
                jac: int = _EULER_JAC_N):
    """Nodes/weights for int_0^1 s^(b-1) (1-s)^(cb-1) g(s|x|) ds, |x| <= 2^level.

    Returns nodes s_k, weights that already include the full beta-type
    weight s^(b-1) (1-s)^(cb-1), and the panel index of each node.  Panels
    are graded dyadically from h0 = 2^-(level+1) <= 1/(2|x|), so that the
    remaining factor (1 + s|x| + ...)^(-a) is smooth on every panel: panel
    0 is [0, h0] (``jac`` Gauss-Jacobi nodes), panels 1..level are
    [h0 2^(k-1), h0 2^k] (``leg`` Gauss-Legendre nodes each), and panel
    level + 1 is [1/2, 1] (``jac`` Gauss-Jacobi nodes).  Built on each call,
    with the two parameter-dependent Jacobi rules taken past the rule cache;
    the returned arrays are read-only.
    """
    nodes = []
    weights = []
    h0 = 0.5 ** (level + 1)
    # left Gauss-Jacobi panel [0, h0] absorbing s^(b-1)
    tj, wj = gauss_rule.__wrapped__(jac, b - 1.0)
    s = 0.5 * h0 * (tj + 1.0)
    w = wj * (0.5 * h0) ** b * (1.0 - s) ** (cb - 1.0)
    nodes.append(s)
    weights.append(w)
    # dyadic Gauss-Legendre panels [h0 2^k, h0 2^(k+1)] up to 1/2
    tl, wl = gauss_rule(leg)
    lo = h0
    while lo < 0.5:
        hi = 2.0 * lo
        s = 0.5 * (hi + lo) + 0.5 * (hi - lo) * tl
        w = wl * 0.5 * (hi - lo) * s ** (b - 1.0) * (1.0 - s) ** (cb - 1.0)
        nodes.append(s)
        weights.append(w)
        lo = hi
    # right Gauss-Jacobi panel [1/2, 1] absorbing (1-s)^(cb-1)
    tj, wj = gauss_rule.__wrapped__(jac, cb - 1.0)
    s = 1.0 - 0.25 * (tj + 1.0)
    w = wj * 0.25 ** cb * s ** (b - 1.0)
    nodes.append(s)
    weights.append(w)
    panel = np.repeat(np.arange(len(nodes)), [v.size for v in nodes])
    out = (np.concatenate(nodes), np.concatenate(weights), panel)
    for arr in out:
        arr.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def _stair_axis(b: float, cb: float, level: int):
    """One axis of the staircase layout, |x| <= 2^level.

    Returns (s, ws, panel, qs, qw): the panels of ``_euler_axis`` at the
    staircase orders, and the prefix rules as (level + 2, J) arrays, where
    row k holds J Gauss-Jacobi nodes and weights for the weight
    s^(b-1) (1-s)^(cb-1) on [0, end of panel k].  The rows below the last
    absorb s^(b-1); the last covers the whole of [0, 1] and absorbs both
    ends.  Cached per dyadic level; the returned arrays are read-only.
    """
    s, ws, panel = _euler_axis(b, cb, level, _STAIR_LEG_N, _STAIR_JAC_N)
    half = 0.5 ** np.arange(level + 2, 1, -1)[:, None]  # half of each end
    tj, wj = gauss_rule(_STAIR_JAC_N, b - 1.0)
    qs = half * (tj + 1.0)
    qw = wj * half ** b * (1.0 - qs) ** (cb - 1.0)
    tj, wj = gauss_rule(_STAIR_JAC_N, b - 1.0, cb - 1.0)
    qs = np.vstack((qs, 0.5 * (tj + 1.0)))
    qw = np.vstack((qw, wj * 0.5 ** (b + cb - 1.0)))
    qs.flags.writeable = False
    qw.flags.writeable = False
    return s, ws, panel, qs, qw


def _staircase(b1: float, cb1: float, level_x: int, b2: float, cb2: float,
               level_y: int):
    """Nodes (S, T) and weights W of the staircase layout, as (rows, J)
    arrays, for one pair of dyadic levels.

    The lower part pairs every s-node with the t prefix rule up to the end
    of the s-node's panel; the upper part pairs every t-node of panel
    k >= 1 with the s prefix rule up to the end of panel k - 1 (panel
    indices past an axis's last panel mean the whole of [0, 1]).  The two
    parts tile the unit square, and on each tile the integrand is smooth
    in both variables.
    """
    s, ws, ps, qs, qws = _stair_axis(b1, cb1, level_x)
    t, wt, pt, qt, qwt = _stair_axis(b2, cb2, level_y)
    ky = np.minimum(ps, qt.shape[0] - 1)
    up = pt >= 1
    kx = np.minimum(pt[up] - 1, qs.shape[0] - 1)
    nt = int(np.count_nonzero(up))
    S = np.concatenate((np.broadcast_to(s[:, None], (s.size, _STAIR_JAC_N)),
                        qs[kx]))
    T = np.concatenate((qt[ky], np.broadcast_to(t[up][:, None],
                                                 (nt, _STAIR_JAC_N))))
    W = np.concatenate((ws[:, None] * qwt[ky], wt[up][:, None] * qws[kx]))
    return S, T, W


@functools.lru_cache(maxsize=256)
def _euler_prefactor(b1: float, c1: float, b2: float, c2: float) -> float:
    """C = G(c1) G(c2) / (G(b1) G(c1-b1) G(b2) G(c2-b2)) of the Euler integral."""
    return math.exp(ln_gamma(c1) + ln_gamma(c2) - ln_gamma(b1)
                    - ln_gamma(c1 - b1) - ln_gamma(b2) - ln_gamma(c2 - b2))


def _level_groups(x, y):
    """Group points by their dyadic levels ceil(log2 max(|x|, 1)) and
    ceil(log2 max(|y|, 1)); yields (level_x, level_y, indices)."""
    kx = np.ceil(np.log2(np.maximum(np.abs(x), 1.0))).astype(np.int64)
    ky = np.ceil(np.log2(np.maximum(np.abs(y), 1.0))).astype(np.int64)
    # one key per level pair; levels of finite doubles stay below 1025
    keys, group = np.unique(kx * 2048 + ky, return_inverse=True)
    for g, key in enumerate(keys.tolist()):
        yield key // 2048, key % 2048, np.nonzero(group == g)[0]


def _chunks(idx: np.ndarray, nodes: int):
    """Cut a group's point indices so that each (points, nodes) tensor
    stays near EULER_CHUNK_BYTES."""
    per = max(1, EULER_CHUNK_BYTES // (8 * nodes))
    for lo in range(0, idx.size, per):
        yield idx[lo:lo + per]


def _f2_euler_many(a, b1, b2, c1, c2, x, y) -> np.ndarray:
    """F2 by the 2-D Euler integral over flat argument vectors x, y <= 0;
    requires c1 > b1 > 0, c2 > b2 > 0.

    Uses the full tensor product of the two axes' panels, an evaluation
    tree independent of the staircase of ``f2_kernel_families``.
    """
    out = np.empty(x.size)
    pref = _euler_prefactor.__wrapped__(b1, c1, b2, c2)
    # each axis is built once per level for this call only
    x_axis = functools.cache(functools.partial(_euler_axis, b1, c1 - b1))
    y_axis = functools.cache(functools.partial(_euler_axis, b2, c2 - b2))
    for level_x, level_y, group in _level_groups(x, y):
        s, ws, _ = x_axis(level_x)
        t, wt, _ = y_axis(level_y)
        for idx in _chunks(group, s.size * t.size):
            # B = 1 - s x - t y on the (points, s, t) tensor
            core = ((1.0 - x[idx][:, None, None] * s[None, :, None])
                    - y[idx][:, None, None] * t[None, None, :])
            np.power(core, -a, out=core)
            # one matrix-vector product per point, then a row reduction, so
            # a point's value does not depend on the batch it arrives in
            out[idx] = pref * np.sum((core @ wt) * ws, axis=1)
    return out


def _check_f2_arguments(x, y, c1, c2):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DomainError("F2 arguments x and y must have equal shapes")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("F2 arguments x and y must be finite")
    if np.any(x > 0.0) or np.any(y > 0.0):
        raise DomainError("appell_f2 is defined for x <= 0 and y <= 0")
    if _is_nonpos_int(c1) or _is_nonpos_int(c2):
        raise DomainError("appell_f2: c parameters must not be nonpositive integers")
    return x, y


def f2_kernel_families(a: float, b1: float, b2: float, c1: float, c2: float,
                       x, y):
    """F2 and its three first-shift families on one Euler node set.

    Returns (main, dx, dy, da) over argument vectors x <= 0, y <= 0:

        main = F2(a; b1, b2; c1, c2; x, y)
        dx   = F2(a+1; b1+1, b2; c1+1, c2; x, y)
        dy   = F2(a+1; b1, b2+1; c1, c2+1; x, y)
        da   = F2(a+1; b1, b2; c1, c2; x, y)

    With B = 1 - s x - t y, P = B^(-a-1) and w the Euler weight of the main
    family, da = C int w P, dx = C (c1/b1) int w s P, dy = C (c2/b2)
    int w t P, and main = C int w B P = da - x C int w s P - y C int w t P.
    Every term of the last sum is nonnegative for x, y <= 0, so nothing
    cancels.  One power per node serves all four families.  Requires
    c1 > b1 > 0 and c2 > b2 > 0.  Each point's values are independent of
    the batch it is evaluated in.
    """
    x, y = _check_f2_arguments(x, y, c1, c2)
    if not ((c1 > b1 > 0.0) and (c2 > b2 > 0.0)):
        raise DomainError(
            "f2_kernel_families needs c1 > b1 > 0 and c2 > b2 > 0")
    shape = x.shape
    x = x.ravel()
    y = y.ravel()
    i0 = np.empty(x.size)
    i_s = np.empty(x.size)
    i_t = np.empty(x.size)
    pref = _euler_prefactor(b1, c1, b2, c2)
    for level_x, level_y, group in _level_groups(x, y):
        S, T, W = _staircase(b1, c1 - b1, level_x, b2, c2 - b2, level_y)
        WS = W * S
        WT = W * T
        for idx in _chunks(group, S.size):
            # B = 1 - s x - t y on the (points, rows, J) tensor, in place
            # so that one chunk holds at most two such tensors at a time
            core = x[idx][:, None, None] * S
            np.subtract(1.0, core, out=core)
            core -= y[idx][:, None, None] * T
            np.power(core, -a - 1.0, out=core)
            # a dot product per node row, then a row reduction per point,
            # so a point's values do not depend on the batch it arrives in
            i0[idx] = np.sum(np.vecdot(core, W), axis=1)
            i_s[idx] = np.sum(np.vecdot(core, WS), axis=1)
            i_t[idx] = np.sum(np.vecdot(core, WT), axis=1)
    da = pref * i0
    i_s *= pref
    i_t *= pref
    main = da - x * i_s - y * i_t
    dx = (c1 / b1) * i_s
    dy = (c2 / b2) * i_t
    return (main.reshape(shape), dx.reshape(shape), dy.reshape(shape),
            da.reshape(shape))


def appell_f2_many(a: float, b1: float, b2: float, c1: float, c2: float,
                   x, y) -> np.ndarray:
    """Appell F2 at fixed parameters over argument vectors x <= 0, y <= 0.

    For c1 > b1 > 0 and c2 > b2 > 0 the Euler double integral on the
    tensor product of the two graded axes takes every point; the origin,
    where the quadrature leaves a last-digit error, is set to exactly 1.
    Any other parameter set goes through Appell's transformation to the
    double series at x/(x+y-1), y/(x+y-1), one point at a time; that series
    raises ConvergenceError where its terms underflow before it converges
    (see the module docstring).  Agrees with ``appell_f2_series`` on the
    disk |x| + |y| < 1.
    """
    x, y = _check_f2_arguments(x, y, c1, c2)
    shape = x.shape
    x = x.ravel()
    y = y.ravel()
    if (c1 > b1 > 0.0) and (c2 > b2 > 0.0):
        out = _f2_euler_many(a, b1, b2, c1, c2, x, y)
        out[(x == 0.0) & (y == 0.0)] = 1.0
    else:
        out = np.array([
            (1.0 - xj - yj) ** (-a) * appell_f2_series(F2Args(
                a, c1 - b1, c2 - b2, c1, c2,
                xj / (xj + yj - 1.0), yj / (xj + yj - 1.0)))
            for xj, yj in zip(x.tolist(), y.tolist())], dtype=float)
    return out.reshape(shape)


def appell_f2(args: F2Args) -> float:
    """Appell F2 continued to x <= 0, y <= 0 (single point)."""
    return float(appell_f2_many(args.a, args.b1, args.b2, args.c1, args.c2,
                                np.array([args.x]), np.array([args.y]))[0])


# ---------------------------------------------------------------------------
# zero-balanced 3F2 near unit argument
# ---------------------------------------------------------------------------

def _li2(z: float) -> float:
    if z < -1.0 or z > 1.0:
        raise DomainError("_li2 wants z in [-1, 1]")
    if z > 0.5:
        w = 1.0 - z
        return (math.pi ** 2 / 6.0 - math.log(z) * math.log(w) - _li2(w))
    term_z = z
    total = 0.0
    zk = 1.0
    for k in range(1, 2000):
        zk *= z
        t = zk / (k * k)
        total += t
        if abs(t) <= 1e-17 * max(abs(total), 1e-300):
            break
    return total


def _li3(z: float) -> float:
    if z > 0.5:
        w = 1.0 - z
        lz = math.log(z)
        zeta3 = 1.2020569031595942854
        return (zeta3 + lz ** 3 / 6.0 + (math.pi ** 2 / 6.0) * lz
                - 0.5 * lz ** 2 * math.log(w) - _li3(w) - _li3(-w / z))
    total = 0.0
    zk = 1.0
    for k in range(1, 2000):
        zk *= z
        t = zk / (k * k * k)
        total += t
        if abs(t) <= 1e-17 * max(abs(total), 1e-300):
            break
    return total


def _gamma_ratio_g1(p: float, q: float) -> float:
    # Gamma(n+p)/Gamma(n+q) ~ n^(p-q) (1 + G1/n + G2/n^2 + ...)
    return 0.5 * (p - q) * (p + q - 1.0)


def _gamma_ratio_g2(p: float, q: float) -> float:
    d = p - q
    return d * (d - 1.0) * (3.0 * (p + q - 1.0) ** 2 - (d + 1.0)) / 24.0


_LOG3F2_NMAX = 30000


def log_singular_3f2(a1: float, a2: float, a3: float,
                     b1: float, b2: float, z: float) -> float:
    """Zero-balanced 3F2(a1, a2, a3; b1, b2; z) on 0 < z < 1.

    Requires b1 + b2 = a1 + a2 + a3 (the logarithmic case at z = 1) and
    positive parameters.  The value is assembled from the standard
    logarithmic-case expansion: the gamma-ratio asymptotics of the series
    coefficients turn the tail into polylogarithms Li1..Li3 (Li1 carries
    the ln(1-z) factor, the reflection identities of Li2/Li3 carry the
    higher (1-z)^k ln(1-z) terms) plus an explicitly summed, absolutely
    convergent remainder.
    """
    if not (0.0 < z < 1.0):
        raise DomainError("log_singular_3f2 requires 0 < z < 1")
    if min(a1, a2, a3, b1, b2) <= 0.0:
        raise DomainError("log_singular_3f2 requires positive parameters")
    bal = b1 + b2 - a1 - a2 - a3
    if abs(bal) > 1e-12:
        raise DomainError(
            f"log_singular_3f2 requires zero parameter balance, got {bal}")
    K = math.exp(ln_gamma(b1) + ln_gamma(b2)
                 - ln_gamma(a1) - ln_gamma(a2) - ln_gamma(a3))
    pairs = ((a1, b1), (a2, b2), (a3, 1.0))
    g1s = [_gamma_ratio_g1(p, q) for p, q in pairs]
    g2s = [_gamma_ratio_g2(p, q) for p, q in pairs]
    u1 = sum(g1s)
    u2 = sum(g2s) + g1s[0] * g1s[1] + g1s[0] * g1s[2] + g1s[1] * g1s[2]

    n = np.arange(1.0, _LOG3F2_NMAX + 1.0)
    ratios = ((a1 + n - 1.0) * (a2 + n - 1.0) * (a3 + n - 1.0)
              / ((b1 + n - 1.0) * (b2 + n - 1.0) * n))
    t_n = np.cumprod(ratios)  # T_n for n = 1..N
    model = (K / n) * (1.0 + u1 / n + u2 / n ** 2)
    rem = float(np.sum((t_n - model) * z ** n))

    li1 = -math.log1p(-z)
    return 1.0 + K * (li1 + u1 * _li2(z) + u2 * _li3(z)) + rem
