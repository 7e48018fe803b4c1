"""Generate the frozen Appell F2 references in ``f2_references.json``.

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


def main():
    mp.mp.dps = WORK_DPS
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
