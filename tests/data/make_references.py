"""Generate the frozen Appell F2 references in ``f2_references.json`` and
the Gauss-Jacobi rules in ``gauss_jacobi_references.json``.

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

The Gauss-Jacobi nodes for the weight (1 - t)^r (1 + t)^e are the zeros of
the Jacobi polynomial P_n^(r, e), summed from its explicit binomial form,
bracketed by sign changes on a grid uniform in arccos t, bisected and
polished by Newton's method.  The weights come from the closed form

    w_j = 2^(r+e+1) G(n+r+1) G(n+e+1) / (G(n+r+e+1) n!)
          / ((1 - t_j^2) P_n'(t_j)^2),

and the script stops unless there are n zeros and the weights sum to the
weight's integral to 30 digits.  Neither step shares anything with the
Golub-Welsch eigenvalue route of ``biaxpot.specfun.jacobi_rules``.
"""

import json
import pathlib

import mpmath as mp

WORK_DPS = 40
STORE_DIGITS = 30
AGREE = mp.mpf(10) ** -25

# (alpha, beta) of the kernel parameter families
KERNEL_PARAMS = [(0.25, 0.25), (0.1, 0.4), (0.01, 0.49)]

# arguments with 1 <= |x| + |y| <= 40, outside the series disk
KERNEL_POINTS = [(-0.6, -0.5), (-1.7, -0.3), (-4.0, -9.0), (-25.0, -2.0),
                 (-0.02, -39.0), (-15.0, -15.0)]

# parameter sets with c1 <= b1, outside the Euler integral's range
GENERAL_CASES = [((1.3, 1.1, 0.9, 1.05, 1.8), (-3.0, -2.0)),
                 ((1.3, 1.1, 0.9, 1.05, 1.8), (-2.0, -5.0))]


# Gauss-Jacobi rules: orders, one-ended exponents e (r = 0), and two-ended
# pairs (e, r) like those of the staircase's whole-interval prefix rule
RULE_ORDERS = [6, 12, 20, 24]
RULE_EXPONENTS = [-0.999, -0.99, -0.75, -0.5, 0.0, 0.6, 0.99]
RULE_PAIRS = [(-0.25, -0.25), (-0.49, -0.49), (-0.9, 0.3)]
RULE_GRID = 400


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


def main():
    mp.mp.dps = WORK_DPS
    path = pathlib.Path(__file__).with_name("gauss_jacobi_references.json")
    path.write_text(json.dumps(rules(), indent=1) + "\n")
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
