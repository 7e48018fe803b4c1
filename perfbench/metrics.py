"""The benchmark's metrics: names, units, direction, and what each should move.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` repeats;
the smoke test keeps the two in step.  Every per-layer metric names the
end-to-end metric it should move and the workloads it should move it on;
on the other workloads the prediction is no change.

Per-layer timings are listed only for layers that run on every workload:
a layer a workload never enters would read exactly 0 s there on every run.
The timings of the workload-specific layers (``bie``, ``k_gauge``,
``gauss_2f1``, ...) are still recorded in each run's ``result.json``; their
call and work counts are listed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from tracing import KERNEL_BATCH

SOLVES = ("solve-equal", "solve-unequal")
VERIFY = ("verify-suites",)
ALL = SOLVES + VERIFY


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None           # end-to-end only
    get: Callable | None = None          # per-layer: reduced spans -> value
    moves: tuple[str, tuple[str, ...]] | None = None   # per-layer only


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("error_digits", "digits", "higher", 0.15),
)


def _field(span: str, key: str) -> Callable:
    return lambda r: r[span][key]


def _layer(span: str, key: str, unit: str, moves,
           name: str | None = None) -> Metric:
    return Metric(name or f"{span}.{key}", unit, "lower",
                  get=_field(span, key), moves=moves)


def _pairs_per_s(r) -> float:
    pairs = sum(r[k]["items"] for k in KERNEL_BATCH)
    seconds = sum(r[k]["total_s"] for k in KERNEL_BATCH)
    return pairs / seconds


def _product_points(r) -> int:
    f2 = r["specfun.appell_f2_many"]
    return f2["items"] - f2["euler"]


_WALL_ALL = ("wall_s", ALL)
_WALL_SOLVES = ("wall_s", SOLVES)
_WALL_VERIFY = ("wall_s", VERIFY)

PER_LAYER = (
    _layer("specfun.ln_gamma", "calls", "count", _WALL_ALL),
    _layer("specfun.ln_gamma", "self_s", "s", _WALL_ALL),
    _layer("specfun.appell_f2_many", "calls", "count", _WALL_ALL),
    _layer("specfun.appell_f2_many", "items", "count", _WALL_ALL,
           name="specfun.appell_f2_many.points"),
    _layer("specfun.appell_f2_many", "euler", "count",
           ("wall_s", ("solve-equal", "verify-suites")),
           name="specfun.appell_f2_many.euler_points"),
    Metric("specfun.appell_f2_many.product_points", "count", "lower",
           get=_product_points, moves=("wall_s", ("solve-unequal",))),
    _layer("specfun.appell_f2_many", "self_s", "s", _WALL_ALL),
    _layer("specfun.gauss_2f1", "calls", "count", _WALL_VERIFY),
    _layer("specfun.appell_f2", "calls", "count", _WALL_VERIFY),
    _layer("kernel.weighted_dq4_dn_many", "calls", "count", _WALL_SOLVES),
    _layer("kernel.weighted_dq4_dn_many", "items", "count", _WALL_SOLVES,
           name="kernel.weighted_dq4_dn_many.pairs"),
    _layer("kernel.weighted_dq4_dn_many", "self_s", "s", _WALL_SOLVES),
    _layer("kernel.q4_many", "calls", "count", _WALL_VERIFY),
    _layer("kernel.q4_many", "items", "count", _WALL_VERIFY,
           name="kernel.q4_many.pairs"),
    _layer("kernel.q4_many", "self_s", "s", _WALL_VERIFY),
    _layer("kernel.grad_q4_many", "calls", "count", _WALL_VERIFY),
    _layer("kernel.grad_q4_many", "items", "count", _WALL_VERIFY,
           name="kernel.grad_q4_many.pairs"),
    _layer("kernel.dq4_dn", "calls", "count", _WALL_ALL),
    _layer("kernel.dq4_dn", "self_s", "s", _WALL_ALL),
    Metric("kernel.pairs_per_s", "1/s", "higher", get=_pairs_per_s,
           moves=_WALL_ALL),
    _layer("geometry.Curve.points_at", "calls", "count", _WALL_ALL),
    _layer("geometry.Curve.points_at", "items", "count", _WALL_ALL,
           name="geometry.Curve.points_at.points"),
    _layer("geometry.Curve.points_at", "self_s", "s", _WALL_ALL),
    _layer("geometry.Curve.point_at", "calls", "count", _WALL_ALL),
    _layer("geometry.Curve.point_at", "self_s", "s", _WALL_ALL),
    _layer("potential.double_layer", "calls", "count", _WALL_ALL),
    _layer("potential.double_layer", "kernel_calls", "count",
           ("wall_s", ("solve-unequal",))),
    _layer("potential.double_layer", "total_s", "s",
           ("wall_s", ("solve-unequal",))),
    _layer("potential.double_layer", "self_s", "s",
           ("wall_s", ("solve-unequal",))),
    _layer("potential.boundary_trace", "calls", "count", _WALL_VERIFY),
    _layer("potential.k_gauge", "calls", "count", _WALL_VERIFY),
    _layer("potential.nearest_arclength", "calls", "count", _WALL_ALL),
    _layer("potential.nearest_arclength", "total_s", "s", _WALL_ALL),
    _layer("potential.contour_flux", "calls", "count", _WALL_VERIFY),
    _layer("potential.kernel_K4_log_split", "calls", "count", _WALL_SOLVES),
    _layer("potential.kernel_K4_log_split", "total_s", "s", _WALL_SOLVES),
    _layer("bie.assemble", "kernel_pairs", "count", ("wall_s", ("solve-equal",))),
    _layer("bie.evaluate", "calls", "count", _WALL_SOLVES),
    _layer("cli.main", "calls", "count", _WALL_ALL),
    _layer("cli.write_csv", "total_s", "s", _WALL_ALL),
    _layer("cli.write_summary", "total_s", "s", _WALL_ALL),
    Metric("cli.bytes_written", "B", "lower", get=lambda r: r["bytes_written"],
           moves=_WALL_ALL),
    Metric("trace.wall_s", "s", "lower", get=lambda r: r["trace"]["wall_s"],
           moves=_WALL_ALL),
    Metric("trace.overhead_s", "s", "lower",
           get=lambda r: r["trace"]["overhead_s"], moves=_WALL_ALL),
    Metric("trace.unaccounted_s", "s", "lower",
           get=lambda r: r["trace"]["unaccounted_s"], moves=_WALL_ALL),
)
