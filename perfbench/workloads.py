"""Seeded workload inputs and the per-operation correctness gate.

A workload is a list of CLI calls (argv for ``biaxpot.cli.main``) plus the
configs they read.  Everything seed-dependent is drawn here, so the program
only ever sees the generated configs.

Why these three workloads:

* ``solve-equal`` -- Dirichlet solve at alpha = beta, where the inner 2F1
  families of the F2 product expansion stop at once and the time goes to
  the Euler route and log-gamma inside ``bie.assemble``.
* ``solve-unequal`` -- the general case alpha != beta the stock config
  hides: the F2 product expansion dominates, split between assembly and
  the adaptive near-field evaluation of the probes.
* ``verify-suites`` -- the five verification suites: the same layers
  reached through scalar q4/F2 calls, graded trace rows, the gauge
  quadrature and gauss_2f1, with no ``bie`` code at all.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Unit superellipse x^3 + y^3 = 1, the stock domain.
DOMAIN = {"curve": "superellipse", "a": 1.0, "b": 1.0, "exponent": 3.0}

# Probes sit this far inside the arc, so the adaptive near-field path (and
# with it the cost and the error) is comparable from seed to seed.
PROBE_BAND = (0.15, 0.45)
# ... and away from the axis ends, where the guard band dominates the error.
PROBE_ANGLE = (0.2, 0.8)
FLUX_OUTSIDE_BAND = (0.3, 1.0)


@dataclass(frozen=True)
class Sizes:
    nodes: int = 16
    probes: int = 1
    gauge_points: int = 1
    arclengths: int = 1
    gradient_pairs: int = 10
    cases: int = 10


# Per-workload problem sizes, smaller than the stock configs: one operation
# takes 8-15 s on a 2-vCPU machine, so a 30 s run holds two or three.
SIZES = {
    "solve-equal": Sizes(nodes=64, probes=2),
    "solve-unequal": Sizes(nodes=16, probes=2),
    "verify-suites": Sizes(gauge_points=1, arclengths=2, gradient_pairs=50,
                           cases=50),
}

# Tiny sizes for the benchmark's own smoke test.
TINY = Sizes()

PARAMS = {
    "solve-equal": {"alpha": 0.25, "beta": 0.25},
    "solve-unequal": {"alpha": 0.1, "beta": 0.4},
    "verify-suites": {"alpha": 0.25, "beta": 0.25},
}

# Probe tolerances; the errors at these node counts sit one to two decades
# below them (about 3e-6 at alpha = beta, n = 64, and 1.3e-4 at 0.1/0.4,
# n = 16).
TOLERANCE = {"solve-equal": 1.0e-4, "solve-unequal": 1.0e-3}

SUITES = ("jumps", "gauge", "flux", "gradient", "specfun")
WORKLOADS = tuple(PARAMS)


# -- seeded geometry ------------------------------------------------------------

def _arc(theta: np.ndarray):
    """Points and outward unit normals of the arc at polar-like angle theta."""
    q = DOMAIN["exponent"]
    c, s = np.cos(theta), np.sin(theta)
    x = DOMAIN["a"] * c ** (2.0 / q)
    y = DOMAIN["b"] * s ** (2.0 / q)
    gx = x ** (q - 1.0) / DOMAIN["a"] ** q
    gy = y ** (q - 1.0) / DOMAIN["b"] ** q
    norm = np.hypot(gx, gy)
    return x, y, gx / norm, gy / norm


_DENSE = _arc(np.linspace(0.0, 0.5 * math.pi, 20001))[:2]


def _arc_distance(x: float, y: float) -> float:
    """Distance from (x, y) to the arc, from a dense sampling."""
    return float(np.min(np.hypot(_DENSE[0] - x, _DENSE[1] - y)))


def _offset_points(rng: np.random.Generator, count: int, band, side: float,
                   angle=(0.1, 0.9)) -> list[list[float]]:
    """``count`` points at arc distance in ``band``, inside (side = -1) or
    outside (side = +1).  Angle and distance are stratified: point k takes
    the k-th slice of the angle range and a shuffled slice of the band."""
    slots = rng.permutation(count)
    out = []
    for k in range(count):
        while True:
            f = angle[0] + (angle[1] - angle[0]) * (k + rng.uniform()) / count
            lo = band[0] + (band[1] - band[0]) * slots[k] / count
            hi = lo + (band[1] - band[0]) / count
            d = rng.uniform(lo, hi)
            x, y, nx, ny = (float(v[0]) for v in
                            _arc(np.array([f * 0.5 * math.pi])))
            px, py = x + side * d * nx, y + side * d * ny
            if min(px, py) > 0.05 and lo <= _arc_distance(px, py) <= hi:
                out.append([px, py])
                break
    return out


# -- workload inputs --------------------------------------------------------------

@dataclass
class Call:
    """One CLI call: a name (also its output subdirectory), its config and
    the arguments after the global flags."""
    name: str
    config: dict
    argv_tail: tuple[str, ...]


def make_calls(workload: str, seed: int, sizes: Sizes | None = None) -> list[Call]:
    """The CLI calls of one operation of ``workload``, drawn from ``seed``."""
    if workload not in PARAMS:
        raise ValueError(f"unknown workload {workload!r}")
    sz = SIZES[workload] if sizes is None else sizes
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    base = {"params": PARAMS[workload], "domain": DOMAIN}
    if workload.startswith("solve"):
        cfg = dict(base, nodes=sz.nodes, tolerance=TOLERANCE[workload],
                   data="manufactured",
                   probes=_offset_points(rng, sz.probes, PROBE_BAND, -1.0,
                                         PROBE_ANGLE))
        return [Call("solve", cfg, ("solve-dirichlet",))]
    cfg = dict(base,
               seed=int(rng.integers(0, 2 ** 31 - 1)),
               interior_points=sz.gauge_points,
               oncurve_points=sz.gauge_points,
               exterior_points=sz.gauge_points,
               arclengths=sz.arclengths,
               gradient_pairs=sz.gradient_pairs,
               cases=sz.cases,
               exterior_sources=_offset_points(rng, 3, FLUX_OUTSIDE_BAND, 1.0),
               interior_sources=_offset_points(rng, 2, PROBE_BAND, -1.0))
    return [Call(suite, cfg, ("verify", suite)) for suite in SUITES]


def write_configs(calls: list[Call], work: Path) -> list[Path]:
    """Save each call's config under ``work``; returns their paths."""
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for call in calls:
        path = work / f"{call.name}.config.json"
        path.write_text(json.dumps(call.config, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        paths.append(path)
    return paths


# -- correctness gate ---------------------------------------------------------------

@dataclass
class Outcome:
    """What one CLI call left behind, as the gate saw it."""
    ok: bool
    reason: str
    digest: str
    worst_residual: float
    worst_ratio: float
    bytes_written: int


def _digest(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode())
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), size


def inspect(call: Call, rc: int, out: Path) -> Outcome:
    """Check one call's exit code, summary and artifacts."""
    summary_path = out / "summary.json"
    if not summary_path.is_file():
        return Outcome(False, f"exit {rc}, no summary.json", "", math.nan,
                       math.nan, 0)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    digest, size = _digest(out)
    checks = summary.get("checks", [])
    residuals = [abs(c["residual"]) for c in checks]
    ratios = [r / c["tolerance"] if c["tolerance"] > 0 else
              (math.inf if r > 0 else 0.0) for r, c in zip(residuals, checks)]
    worst_res = max(residuals, default=math.nan)
    worst_ratio = max(ratios, default=math.nan)

    def fail(reason):
        return Outcome(False, reason, digest, worst_res, worst_ratio, size)

    if rc != 0:
        return fail(f"exit code {rc}")
    if (summary.get("status") != "pass"
            or any(c.get("status") != "pass" for c in checks)
            or any(r > 1.0 for r in ratios)):
        return fail("summary status is not pass")
    missing = [name for name in summary.get("outputs", [])
               if not (out / name).is_file()]
    if missing:
        return fail(f"missing outputs {missing}")
    if call.name == "solve":
        probes = call.config["probes"]
        if len(checks) != len(probes):
            return fail(f"{len(checks)} checks for {len(probes)} probes")
        worst = summary.get("max_probe_error")
        if worst is None or worst != max(residuals):
            return fail("max_probe_error disagrees with the probe checks")
    elif not checks:
        return fail("suite reported no checks")
    return Outcome(True, "", digest, worst_res, worst_ratio, size)
