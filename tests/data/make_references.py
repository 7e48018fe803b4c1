"""Generate the frozen Appell F2 references in ``f2_references.json``,
the kernel families at far arguments in ``f2_far_references.json``, the F2
values on the two edges of the quadrant in
``f2_edge_references.json``, the Gauss 2F1 values of the kernel's inner
integrals in ``gauss_2f1_references.json``, the Gauss-Jacobi rules in
``gauss_jacobi_references.json``, the same kernel Gauss functions at
alpha != beta over a wider range of arguments in
``gauss_table_references.json``, and the superellipse points at given
arclengths in ``arclength_references.json``.

Run once, offline, from the repository root:

    python tests/data/make_references.py

It needs mpmath, which is not a dependency of biaxpot; the tests read only
the JSON this script writes.  Every value is computed at 40 significant
digits and stored with 30, through Appell's transformation

    F2(a; b1, b2; c1, c2; x, y) = (1-x-y)^(-a)
        * F2(a; c1-b1, c2-b2; c1, c2; x/(x+y-1), y/(x+y-1)),

which maps the third quadrant into the disk where ``mpmath.appellf2`` sums
the double series directly.  That representation shares nothing with the
Euler-integral node sets of ``biaxpot.specfun``.  As a second, independent
check the script also sums the single series over the smaller argument,
with ``mpmath.hyp2f1`` continuing the inner Gauss function,

    F2 = sum_m (a)_m (b1)_m / ((c1)_m m!) x^m 2F1(a+m, b2; c2; y),

(or the same with the roles of x and y swapped), and stops unless the two
agree to 25 digits.

The far-argument references take the four kernel families at points
whose smaller argument u runs from -1e-3 to -1e10, the larger v at FAR_RATIOS
times u in turn, each point with x and with y as the smaller argument.
Beyond |x| + |y| of a few hundred the double series no longer serves, so
these values come from the Euler integral over the smaller argument's
axis, with the other integrated exactly (DLMF 15.6.1), for u = x:

    F2 = G(c1) / (G(b1) G(c1-b1)) int_0^1 s^(b1-1) (1-s)^(c1-b1-1)
             * (1 - x s)^(-a) 2F1(a, b2; c2; y / (1 - x s)) ds,

by ``mpmath.quad`` split at the dyadic points 2^-j down to about 1/|u|,
where the integrand turns, with ``mpmath.hyp2f1`` inside.  The script stops
unless the main family agrees to 25 digits with the same integral over the
other axis, and, where |x| + |y| <= FAR_ORACLE_RADIUS, every family with the
transformed double series above.  The series does not reach farther:
within its default term cap at WORK_DPS, ``mpmath.appellf2`` already fails
the da family at (-20, -50), alpha = beta = 1/4, and every family tried
at (-60, -66).  Beyond the radius, only the main family's second axis
checks the values, by the same Euler representation.  The integrals run at
FAR_DPS digits.

The 2F1 references take the sets F(a+1, b; c; z) and F(a+1, b+1; c+1; z)
with (b, c) = (1 - alpha, 2 - 2 alpha) and (1 - beta, 2 - 2 beta), a =
2 - alpha - beta, that the inner Euler integral of the kernel families
needs, at z from -1e-3 to -1e11.  ``mpmath.hyp2f1`` gives each value at z
and again through Pfaff's map, (1-z)^(-b) F(c-a, b; c; z/(z-1)), and the
script stops unless the two agree to 25 digits.  The table references
take the same sets and their neighbours at GAUSS_TABLE_PARAMS, all with
alpha != beta, at z from -1e-6 to -1e14 and at GAUSS_TABLE_EXTRA, which
Pfaff's map sends to w = z/(z-1) around 1/2 and on both sides of 3/4.

On its edges F2 is a Gauss function of the other argument,

    F2(a; b1, b2; c1, c2; x, 0) = 2F1(a, b1; c1; x),

and F2(a; b1, b2; c1, c2; 0, y) = 2F1(a, b2; c2; y) by symmetry.  The edge
references take EDGE_SETS parameter sets with c1 > b1 > 0, c2 > b2 > 0 and
end exponents b - 1, c - b - 1 from -0.99 up, drawn by a seeded generator,
each at EDGE_POINTS on both edges, from -1e-3 to -1e6.  ``mpmath.hyp2f1``
gives each value at its argument and again through Pfaff's map, and the
script stops unless the two agree to 25 digits.

The Gauss-Jacobi nodes for the weight (1 - t)^r (1 + t)^e are the zeros of
the Jacobi polynomial P_n^(r, e), summed from its explicit binomial form,
bracketed by sign changes on a grid uniform in arccos t, bisected and
polished by Newton's method.  The weights come from the closed form

    w_j = 2^(r+e+1) G(n+r+1) G(n+e+1) / (G(n+r+e+1) n!)
          / ((1 - t_j^2) P_n'(t_j)^2),

and the script stops unless there are n zeros and the weights sum to the
weight's integral to 30 digits.  Neither step shares anything with the
Golub-Welsch eigenvalue route of ``biaxpot.specfun.jacobi_rules``.

The arclength references place points at given arclengths s on the quarter
superellipse (x/a)^q + (y/b)^q = 1, s = 0 at B = (0, b).  The arc is the
graph y(x) from B up to the glue point x/a = y/b and the graph x(y) from
there to A = (a, 0); each s is the double nearest the arclength of a point
at a given fraction of its branch's parameter range, and Newton's method on
the arclength integral finds the parameter at that double.  The integral of
the graph's speed sqrt(1 + y'^2) is summed twice: by tanh-sinh over the
parameter, and by Gauss-Legendre over w with parameter = end * w^2, which
makes the integrand's fractional powers at q = 2.5 integer ones.  Both split
their range at points graded toward the glue end, which the graph's branch
point at parameter = a (or b) nears for large q.  The script stops unless
the two routes place every point and give the length to 25 digits.
"""

import json
import pathlib
import random

import mpmath as mp

WORK_DPS = 40
STORE_DIGITS = 30
AGREE = mp.mpf(10) ** -25

# (alpha, beta) of the kernel parameter families
KERNEL_PARAMS = [(0.25, 0.25), (0.1, 0.4), (0.01, 0.49)]

# arguments with 1 <= |x| + |y| <= 40, outside the series disk
KERNEL_POINTS = [(-0.6, -0.5), (-1.7, -0.3), (-4.0, -9.0), (-25.0, -2.0),
                 (-0.02, -39.0), (-15.0, -15.0)]

# (alpha, beta) of the 2F1 references, and their arguments
GAUSS_PARAMS = [(0.25, 0.25), (0.1, 0.4), (0.4, 0.1), (0.01, 0.49),
                (0.49, 0.01), (0.001, 0.001), (0.45, 0.45), (0.3, 0.05)]
GAUSS_POINTS = [-(10.0 ** k) for k in range(-3, 12)]
GAUSS_TABLE_PARAMS = [(0.1, 0.4), (0.06, 0.44), (0.44, 0.06), (0.3, 0.15),
                      (0.49, 0.2)]
GAUSS_TABLE_EXTRA = [-0.3, -0.9, -1.1, -2.9, -3.1, -9.0, -99.0]
GAUSS_TABLE_POINTS = ([-(10.0 ** k) for k in range(-6, 15)]
                      + GAUSS_TABLE_EXTRA)

# far-argument kernel references: (alpha, beta), the smaller argument's
# sizes (every few half-octave bins of the kernel route's outer axis, from
# 1e-3 to 1e10), the ratios of the larger to the smaller in turn, and the
# radius |x| + |y| up to which the double series cross-checks them
FAR_PARAMS = [(0.25, 0.25), (0.1, 0.4), (0.01, 0.49)]
FAR_SMALLER = [1.0e-3, 0.03, 0.9, 2.6, 6.0, 40.0, 900.0, 5.0e4, 3.0e6,
               2.0e8, 1.0e10]
FAR_RATIOS = [1.1, 2.5, 40.0]
FAR_ORACLE_RADIUS = 50.0
# the far integrals' working digits: at WORK_DPS the quad over the larger
# axis kept 21 digits at x = y = -1e10
FAR_DPS = 55

# parameter sets with c1 <= b1, outside the Euler integral's range
GENERAL_CASES = [((1.3, 1.1, 0.9, 1.05, 1.8), (-3.0, -2.0)),
                 ((1.3, 1.1, 0.9, 1.05, 1.8), (-2.0, -5.0))]


# F2 on the edges y = 0 and x = 0: the number of parameter sets, the seed of
# their draw, and the arguments on each edge
EDGE_SETS = 40
EDGE_SEED = 29
EDGE_POINTS = [-1.0e-3, -0.1, -3.0, -100.0, -1.0e4, -1.0e6]

# Gauss-Jacobi rules: orders, one-ended exponents e (r = 0), and two-ended
# pairs (e, r) with weight at both ends of [-1, 1]
RULE_ORDERS = [6, 12, 20, 24]
RULE_EXPONENTS = [-0.999, -0.99, -0.75, -0.5, 0.0, 0.6, 0.99]
RULE_PAIRS = [(-0.25, -0.25), (-0.49, -0.49), (-0.9, 0.3)]
RULE_GRID = 400

# superellipse exponents, semi-axes (a, b), and the parameter fractions of
# the reference points on each branch; 0.999 sits next to the glue point
ARC_EXPONENTS = [2, 2.5, 3, 8, 40]
ARC_SHAPES = [(1, 1), (6, 1), (1, 6)]
ARC_FRACTIONS = ["0.02", "0.3", "0.7", "0.95", "0.999"]


def kernel_families(alpha, beta):
    """Main, dx, dy and da families in the order of f2_kernel_families,
    the shifts applied to the double-precision main parameters exactly."""
    main = (2.0 - alpha - beta, 1.0 - alpha, 1.0 - beta,
            2.0 - 2.0 * alpha, 2.0 - 2.0 * beta)
    a, b1, b2, c1, c2 = (mp.mpf(v) for v in main)
    return {"main": (a, b1, b2, c1, c2),
            "dx": (a + 1, b1 + 1, b2, c1 + 1, c2),
            "dy": (a + 1, b1, b2 + 1, c1, c2 + 1),
            "da": (a + 1, b1, b2, c1, c2)}


def f2_transformed(a, b1, b2, c1, c2, x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    d = x + y - 1
    return (1 - x - y) ** (-a) * mp.appellf2(a, c1 - b1, c2 - b2, c1, c2,
                                             x / d, y / d)


def f2_single_sum(a, b1, b2, c1, c2, x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    if abs(x) > abs(y):
        b1, b2, c1, c2, x, y = b2, b1, c2, c1, y, x
    return mp.nsum(lambda m: mp.rf(a, m) * mp.rf(b1, m)
                   / (mp.rf(c1, m) * mp.factorial(m)) * x ** m
                   * mp.hyp2f1(a + m, b2, c2, y), [0, mp.inf])


def reference(params, x, y):
    value = f2_transformed(*params, x, y)
    check = f2_single_sum(*params, x, y)
    if abs(value - check) > AGREE * abs(value):
        raise SystemExit(f"oracles disagree at {params}, ({x}, {y}): "
                         f"{value} against {check}")
    return mp.nstr(value, STORE_DIGITS)


def f2_outer_integral(a, b1, b2, c1, c2, x, y):
    """F2 by the Euler integral over the x axis with the y axis exact.

    The halves [0, 1/2] of s and of r = 1 - s take w = s^b1 and
    w = r^(c1-b1) as their variables, which absorb the end powers of the
    weight into dw: the integrand stays bounded, and rounded nodes next to
    an end cost no digits."""
    x, y = mp.mpf(x), mp.mpf(y)

    def smooth(s):
        return (1 - x * s) ** (-a) * mp.hyp2f1(a, b2, c2, y / (1 - x * s))

    deepest = max(2, int(mp.ceil(mp.log(1 - x, 2))) + 3)
    split = [mp.mpf(0)] + [mp.mpf(2) ** (-j * b1)
                           for j in range(deepest, 0, -1)]
    left = mp.quad(lambda w: (1 - w ** (1 / b1)) ** (c1 - b1 - 1)
                   * smooth(w ** (1 / b1)), split) / b1
    e = c1 - b1
    right = mp.quad(lambda w: (1 - w ** (1 / e)) ** (b1 - 1)
                    * smooth(1 - w ** (1 / e)), [0, mp.mpf(0.5) ** e]) / e
    return (left + right) * mp.gamma(c1) / (mp.gamma(b1) * mp.gamma(e))


def far_points():
    """(x, y) with the smaller argument from FAR_SMALLER, x and y in turn."""
    points = []
    for k, u in enumerate(FAR_SMALLER):
        v = u * FAR_RATIOS[k % len(FAR_RATIOS)]
        points += [(-u, -v), (-v, -u)]
    return points


def far_reference(name, params, x, y):
    """The value of one family at (x, y), over the smaller argument's axis;
    the main family is checked over the other axis too."""
    outer = (params if abs(x) <= abs(y) else
             (params[0], params[2], params[1], params[4], params[3]))
    if abs(x) > abs(y):
        x, y = y, x
    with mp.workdps(FAR_DPS):
        value = f2_outer_integral(*outer, x, y)
        checks = []
        if name == "main":
            checks.append(f2_outer_integral(outer[0], outer[2], outer[1],
                                            outer[4], outer[3], y, x))
    if abs(x) + abs(y) <= FAR_ORACLE_RADIUS:
        checks.append(f2_transformed(*outer, x, y))
    for check in checks:
        if abs(value - check) > AGREE * abs(value):
            raise SystemExit(f"far-argument oracles disagree at {params}, "
                             f"({x}, {y}): {value} against {check}")
    return mp.nstr(value, STORE_DIGITS)


def far():
    cases = []
    for alpha, beta in FAR_PARAMS:
        families = {}
        for name, params in kernel_families(alpha, beta).items():
            families[name] = [far_reference(name, params, x, y)
                              for x, y in far_points()]
        cases.append({"alpha": alpha, "beta": beta, "values": families})
    return {"points": [list(p) for p in far_points()], "kernel": cases}


def gauss_sets(alpha, beta):
    """The distinct 2F1 sets of the kernel's inner integrals, the shifts
    applied to the double-precision main parameters exactly."""
    a = 2.0 - alpha - beta
    sets = []
    for b, c in ((1.0 - alpha, 2.0 - 2.0 * alpha),
                 (1.0 - beta, 2.0 - 2.0 * beta)):
        for p in ((a + 1.0, b, c), (a + 1.0, b + 1.0, c + 1.0)):
            if p not in sets:
                sets.append(p)
    return sets


def gauss_reference(params, z):
    a, b, c = (mp.mpf(v) for v in params)
    z = mp.mpf(z)
    value = mp.hyp2f1(a, b, c, z)
    check = (1 - z) ** (-b) * mp.hyp2f1(c - a, b, c, z / (z - 1))
    if abs(value - check) > AGREE * abs(value):
        raise SystemExit(f"2F1 oracles disagree at {params}, {z}: "
                         f"{value} against {check}")
    return mp.nstr(value, STORE_DIGITS)


def gauss(pairs=GAUSS_PARAMS, points=GAUSS_POINTS):
    cases = []
    for alpha, beta in pairs:
        for params in gauss_sets(alpha, beta):
            cases.append({"alpha": alpha, "beta": beta,
                          "params": list(params),
                          "values": [gauss_reference(params, z)
                                     for z in points]})
    return {"points": points, "sets": cases}


def edge_sets():
    """EDGE_SETS sets (a, b1, b2, c1, c2) with the four end exponents
    b1 - 1, c1 - b1 - 1, b2 - 1, c2 - b2 - 1 in [-0.99, 0.61], one of them
    at -0.99 in turn."""
    rng = random.Random(EDGE_SEED)
    sets = []
    for k in range(EDGE_SETS):
        ends = [round(-0.99 + 1.6 * rng.random(), 2) for _ in range(4)]
        ends[k % 4] = -0.99
        a = round(0.1 + 2.9 * rng.random(), 2)
        b1, b2 = 1.0 + ends[0], 1.0 + ends[2]
        sets.append((a, b1, b2, b1 + 1.0 + ends[1], b2 + 1.0 + ends[3]))
    return sets


def edges():
    cases = []
    for params in edge_sets():
        a, b1, b2, c1, c2 = params
        cases.append({"params": list(params),
                      "y_zero": [gauss_reference((a, b1, c1), x)
                                 for x in EDGE_POINTS],
                      "x_zero": [gauss_reference((a, b2, c2), y)
                                 for y in EDGE_POINTS]})
    return {"points": EDGE_POINTS, "sets": cases}


def jacobi_p(n, r, e):
    """P_n^(r, e) as a function of t, from its explicit binomial sum."""
    coeffs = [mp.binomial(n + r, n - k) * mp.binomial(n + e, k)
              for k in range(n + 1)]
    return lambda t: mp.fsum(c * ((t - 1) / 2) ** k * ((t + 1) / 2) ** (n - k)
                             for k, c in enumerate(coeffs))


def gauss_jacobi(n, e, r):
    e, r = mp.mpf(e), mp.mpf(r)
    p = jacobi_p(n, r, e)
    dp_scaled = jacobi_p(n - 1, r + 1, e + 1)
    dp = lambda t: (n + r + e + 1) / 2 * dp_scaled(t)
    grid = [mp.cos(mp.pi * (RULE_GRID - i) / RULE_GRID)
            for i in range(RULE_GRID + 1)]
    signs = [mp.sign(p(t)) for t in grid]
    nodes = []
    for i in range(RULE_GRID):
        if signs[i] * signs[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(60):
                mid = (lo + hi) / 2
                if mp.sign(p(mid)) == signs[i]:
                    lo = mid
                else:
                    hi = mid
            t = (lo + hi) / 2
            for _ in range(3):
                t -= p(t) / dp(t)
            nodes.append(t)
    if len(nodes) != n:
        raise SystemExit(f"found {len(nodes)} zeros of P_{n}^({r}, {e})")
    scale = (2 ** (r + e + 1) * mp.gamma(n + r + 1) * mp.gamma(n + e + 1)
             / (mp.gamma(n + r + e + 1) * mp.factorial(n)))
    weights = [scale / ((1 - t * t) * dp(t) ** 2) for t in nodes]
    mu0 = 2 ** (r + e + 1) * mp.beta(r + 1, e + 1)
    if abs(mp.fsum(weights) - mu0) > mp.mpf(10) ** -30 * mu0:
        raise SystemExit(f"weights of P_{n}^({r}, {e}) miss the integral")
    return ([mp.nstr(t, STORE_DIGITS) for t in nodes],
            [mp.nstr(w, STORE_DIGITS) for w in weights])


def rules():
    cases = []
    for n in RULE_ORDERS:
        for e, r in [(e, 0.0) for e in RULE_EXPONENTS] + RULE_PAIRS:
            nodes, weights = gauss_jacobi(n, e, r)
            cases.append({"n": n, "exponent": e, "right_exponent": r,
                          "nodes": nodes, "weights": weights})
    return {"rules": cases}


def graph_speed(q, a, b):
    """sqrt(1 + y'(t)^2) of the graph y = b (1 - (t/a)^q)^(1/q)."""
    def speed(t):
        g = (1 - (t / a) ** q) ** (1 / q)
        slope = -(b / a) * (t / a) ** (q - 1) * g ** (1 - q)
        return mp.sqrt(1 + slope * slope)
    return speed


def graded(end):
    """Split points of [0, end], halving toward end eleven times."""
    return [mp.mpf(0)] + [end * (1 - mp.mpf(2) ** -j) for j in range(1, 12)] \
        + [end]


def arc_tanh_sinh(speed, end):
    return mp.quad(speed, graded(end))


def arc_gauss_legendre(speed, end):
    pts = [mp.sqrt(t / end) for t in graded(end)]
    return mp.quad(lambda w: 2 * w * end * speed(end * w * w), pts,
                   method="gauss-legendre")


def branch_point(speed, arc, start, s):
    """The parameter whose arc from 0 is s, by Newton from start."""
    t = start
    for _ in range(40):
        step = (arc(speed, t) - s) / speed(t)
        t -= step
        if abs(step) <= mp.mpf(10) ** (-WORK_DPS + 2) * max(t, 1):
            return t
    raise SystemExit(f"Newton stalled at arclength {s}")


def curve_points(q, a, b, extra):
    """Length and (s, x, y, tx, ty) rows of one curve by both routes."""
    q, a, b = mp.mpf(q), mp.mpf(a), mp.mpf(b)
    glue = mp.mpf(0.5) ** (1 / q)
    over_x, over_y = graph_speed(q, a, b), graph_speed(q, b, a)
    routes = []
    for arc in (arc_tanh_sinh, arc_gauss_legendre):
        head, tail = arc(over_x, a * glue), arc(over_y, b * glue)
        routes.append((arc, head, tail, head + tail))
    arc, head, _, length = routes[0]
    # each target s is a double; extra ones are fractions of the length
    targets = [float(arc(over_x, mp.mpf(f) * a * glue)) for f in ARC_FRACTIONS]
    targets += [float(length - arc(over_y, mp.mpf(f) * b * glue))
                for f in ARC_FRACTIONS]
    targets += [e(float(length)) for e in extra]
    rows = []
    for s in targets:
        found = []
        for arc, head, _, total in routes:
            if s <= head:
                x = branch_point(over_x, arc, a * glue * s / head, s)
                y = b * (1 - (x / a) ** q) ** (1 / q)
                slope = -(b / a) * (x / a) ** (q - 1) * (y / b) ** (1 - q)
                sp = mp.sqrt(1 + slope * slope)
                found.append((x, y, 1 / sp, slope / sp))
            else:
                y = branch_point(over_y, arc, b * glue * (total - s)
                                 / (total - head), total - s)
                x = a * (1 - (y / b) ** q) ** (1 / q)
                slope = -(a / b) * (y / b) ** (q - 1) * (x / a) ** (1 - q)
                sp = mp.sqrt(1 + slope * slope)
                found.append((x, y, -slope / sp, -1 / sp))
        scale = max(a, b)
        if max(abs(u - v) for u, v in zip(*found)) > AGREE * scale:
            raise SystemExit(f"arclength routes disagree at q={q}, a={a}, "
                             f"b={b}, s={s}: {found}")
        rows.append([s] + [mp.nstr(v, STORE_DIGITS) for v in found[0]])
    if abs(routes[0][3] - routes[1][3]) > AGREE * routes[0][3]:
        raise SystemExit(f"arclength routes disagree on the length at q={q}")
    return mp.nstr(length, STORE_DIGITS), rows


def arclengths():
    cases = []
    for q in ARC_EXPONENTS:
        for a, b in ARC_SHAPES:
            # the stock arc also gets the midpoint and the offset pair of
            # the diagonal log split, s +- 1e-5 l, as the tests compute them
            extra = [] if (q, a, b) != (3, 1, 1) else [
                lambda l: 0.5 * l - 1.0e-5 * l, lambda l: 0.5 * l,
                lambda l: 0.5 * l + 1.0e-5 * l]
            length, rows = curve_points(q, a, b, extra)
            cases.append({"q": q, "a": a, "b": b, "length": length,
                          "points": rows})
    return {"columns": ["s", "x", "y", "tx", "ty"], "curves": cases}


def main():
    mp.mp.dps = WORK_DPS
    path = pathlib.Path(__file__).with_name("arclength_references.json")
    path.write_text(json.dumps(arclengths(), indent=1) + "\n")
    path = pathlib.Path(__file__).with_name("gauss_jacobi_references.json")
    path.write_text(json.dumps(rules(), indent=1) + "\n")
    path = pathlib.Path(__file__).with_name("gauss_2f1_references.json")
    path.write_text(json.dumps(gauss(), indent=1) + "\n")
    path = pathlib.Path(__file__).with_name("gauss_table_references.json")
    path.write_text(json.dumps(gauss(GAUSS_TABLE_PARAMS, GAUSS_TABLE_POINTS),
                               indent=1) + "\n")
    path = pathlib.Path(__file__).with_name("f2_edge_references.json")
    path.write_text(json.dumps(edges(), indent=1) + "\n")
    path = pathlib.Path(__file__).with_name("f2_far_references.json")
    path.write_text(json.dumps(far(), indent=1) + "\n")
    kernel = []
    for alpha, beta in KERNEL_PARAMS:
        families = {}
        for name, params in kernel_families(alpha, beta).items():
            families[name] = [reference(params, x, y)
                              for x, y in KERNEL_POINTS]
        kernel.append({"alpha": alpha, "beta": beta, "values": families})
    general = []
    for params, (x, y) in GENERAL_CASES:
        value = reference(tuple(mp.mpf(v) for v in params), x, y)
        general.append({"params": list(params), "x": x, "y": y,
                        "value": value})
    out = {"points": [list(p) for p in KERNEL_POINTS], "kernel": kernel,
           "general": general}
    path = pathlib.Path(__file__).with_name("f2_references.json")
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
