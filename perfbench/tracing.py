"""Span tracing of biaxpot's public functions, from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the
wrapper in every biaxpot module namespace that holds the original, so
intra-package calls (``kernel`` calling ``appell_f2_many``, ``bie`` calling
``weighted_dq4_dn_many``, ``cli`` calling ``assemble``) are recorded too.
``Tracer.remove`` puts the originals back.

A span is (name, start, end, parent, op); spans are kept in memory and
reduced by ``Spans.reduce`` once the operations are done.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _size(args) -> tuple[int, int]:
    return int(np.size(args[1])), 0


def _f2_routes(args) -> tuple[int, int]:
    """(points, points sent to the Euler integral) of one appell_f2_many
    call, by the dispatch rule of ``specfun.appell_f2_many``; the rest go
    to the product expansion."""
    a, b1, b2, c1, c2, x, y = args
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not ((c1 > b1 > 0.0) and (c2 > b2 > 0.0)):
        return int(x.size), 0
    t = (1.0 - 1.0 / (1.0 - x)) * (1.0 - 1.0 / (1.0 - y))
    bc_t_max = sys.modules["biaxpot.specfun"].BC_T_MAX
    return int(x.size), int(np.count_nonzero(t > bc_t_max))


# (module, qualified name, work rule).  A work rule maps the call's
# arguments to (items, euler points); items are the points or pairs one call
# processes.  Functions without a rule count calls only.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("specfun", "ln_gamma", None),
    ("specfun", "gauss_2f1", None),
    ("specfun", "appell_f2", None),
    ("specfun", "appell_f2_many", _f2_routes),
    ("kernel", "q4_many", _size),
    ("kernel", "grad_q4_many", _size),
    ("kernel", "weighted_dq4_dn_many", _size),
    ("kernel", "dq4_dn", lambda args: (1, 0)),
    ("geometry", "Curve.points_at", _size),
    ("geometry", "Curve.point_at", None),
    ("potential", "double_layer", None),
    ("potential", "boundary_trace", None),
    ("potential", "k_gauge", None),
    ("potential", "nearest_arclength", None),
    ("potential", "contour_flux", None),
    ("potential", "kernel_K4_log_split", None),
    ("bie", "assemble", None),
    ("bie", "evaluate", None),
    ("bie", "solve_dirichlet", None),
    ("bie", "condition_estimate", None),
    ("cli", "main", None),
    ("cli", "write_csv", None),
    ("cli", "write_summary", None),
)

KERNEL_BATCH = ("kernel.q4_many", "kernel.grad_q4_many",
                "kernel.weighted_dq4_dn_many", "kernel.dq4_dn")


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names = [f"{module}.{qualname}" for module, qualname, _ in TARGETS]
        self.items_of = [rule for _, _, rule in TARGETS]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.items = array("q")
        self.euler = array("q")
        self.nested = array("b")
        self._open = [0] * len(TARGETS)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, nid: int, fn: Callable) -> Callable:
        rule = self.items_of[nid]
        stack, open_ = self._stack, self._open
        name_id, start, end, parent = (self.name_id, self.start, self.end,
                                       self.parent)
        op_id, items, euler, nested = (self.op_id, self.items, self.euler,
                                       self.nested)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            n_items, n_euler = rule(args) if rule is not None else (0, 0)
            items.append(n_items)
            euler.append(n_euler)
            nested.append(open_[nid] > 0)
            end.append(math.nan)
            stack.append(idx)
            open_[nid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_[nid] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every biaxpot namespace that refers to it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "biaxpot" or k.startswith("biaxpot."))
                   and m is not None]
        for nid, (module, qualname, _) in enumerate(TARGETS):
            home = sys.modules[f"biaxpot.{module}"]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                self._rebind(cls, meth, self._wrap(nid, cls.__dict__[meth]))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(nid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def remove(self) -> None:
        """Restore every rebound name, last change first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def spans(self, op: int) -> "Spans":
        """The spans recorded during operation ``op``.  They are contiguous,
        and every parent of one of them belongs to the same operation."""
        sel = np.nonzero(np.frombuffer(self.op_id, dtype=np.int32) == op)[0]
        if sel.size == 0:
            raise ValueError(f"no spans recorded for operation {op}")
        lo, hi = int(sel[0]), int(sel[-1]) + 1

        def cut(buf, dtype):
            return np.frombuffer(buf, dtype=dtype)[lo:hi].copy()

        parent = cut(self.parent, np.int32).astype(np.int64)
        return Spans(self.names, cut(self.name_id, np.int32),
                     cut(self.start, np.float64), cut(self.end, np.float64),
                     np.where(parent >= 0, parent - lo, -1),
                     cut(self.items, np.int64), cut(self.euler, np.int64),
                     cut(self.nested, np.int8) > 0)


@dataclass
class Spans:
    names: list[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray   # index of the parent span in these arrays, or -1
    items: np.ndarray
    euler: np.ndarray
    nested: np.ndarray   # True inside an open span of the same name

    def _under(self, name: str) -> np.ndarray:
        """True for spans that have a span called ``name`` as an ancestor."""
        k = self.names.index(name)
        flag = np.zeros(self.parent.size, dtype=bool)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                flag[i] = flag[p] or self.name_id[p] == k
        return flag

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per-name calls, items, total and self seconds for one operation,
        plus the counters that need the span tree."""
        dur = self.end - self.start
        child = np.zeros(dur.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        self_s = dur - child
        out: dict[str, dict[str, float]] = {}
        for k, name in enumerate(self.names):
            mask = self.name_id == k
            out[name] = {
                "calls": int(mask.sum()),
                "items": int(self.items[mask].sum()),
                # a recursive call's time is already inside its caller's
                "total_s": float(dur[mask & ~self.nested].sum()),
                "self_s": float(self_s[mask].sum()),
                "euler": int(self.euler[mask].sum()),
            }
        is_kernel = np.isin(self.name_id,
                            [self.names.index(k) for k in KERNEL_BATCH])
        out["potential.double_layer"]["kernel_calls"] = int(
            (is_kernel & self._under("potential.double_layer")).sum())
        out["bie.assemble"]["kernel_pairs"] = int(
            self.items[is_kernel & self._under("bie.assemble")].sum())
        out["top_level"] = {"total_s": float(dur[~has_parent].sum())}
        return out
