"""The benchmark's span tracer against the package it traces.

``perfbench/tracing.py`` resolves every name in its ``TARGETS`` on each
traced benchmark run, so a renamed or deleted target breaks the traced
benchmark.  This test loads the tracer on the package as it is and
installs and removes it, so that such a break shows in the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import biaxpot.cli  # noqa: F401  (loads every module the tracer wraps)
from biaxpot import Params, Point

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _owner_and_attr(module: str, qualname: str):
    owner = sys.modules[f"biaxpot.{module}"]
    if "." in qualname:
        cls_name, qualname = qualname.split(".")
        owner = getattr(owner, cls_name)
    return owner, qualname


def test_tracer_resolves_every_target_and_restores_the_originals(
        monkeypatch):
    tracing = _load_tracing(monkeypatch)
    namespaces = [m for k, m in sorted(sys.modules.items())
                  if k == "biaxpot" or k.startswith("biaxpot.")]
    owners = [_owner_and_attr(module, qualname)
              for module, qualname, _ in tracing.TARGETS]
    namespaces += [owner for owner, attr in owners
                   if isinstance(owner, type)]
    before = [(ns, dict(vars(ns))) for ns in namespaces]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr in owners:
            assert hasattr(vars(owner)[attr], "__wrapped__"), attr
        # traced calls record spans through the work rules, the F2 route
        # rule included
        kernel = sys.modules["biaxpot.kernel"]
        specfun = sys.modules["biaxpot.specfun"]
        kernel.q4_many(Params(0.25, 0.25), np.array([0.3, 0.5]),
                       np.array([0.4, 0.2]), Point(0.7, 0.6))
        specfun.appell_f2_many(1.5, 0.75, 0.75, 1.5, 1.5,
                               np.array([-0.2, -3.0]), np.array([-0.3, -2.0]))
        layers = tracer.spans(-1).reduce()
        assert layers["kernel.q4_many"]["calls"] == 1
        assert layers["kernel.q4_many"]["items"] == 2
        assert layers["specfun.appell_f2_many"]["calls"] == 1
        assert layers["specfun.appell_f2_many"]["items"] == 2
    finally:
        tracer.remove()

    for ns, names in before:
        now = vars(ns)
        for attr, value in names.items():
            assert now[attr] is value, (ns, attr)
