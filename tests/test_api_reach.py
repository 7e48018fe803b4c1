"""Every public name of biaxpot is run by a shipped CLI call.

The test runs each command and each verify suite once, in process, on
tiny configs under ``sys.setprofile``, and asserts that every function in
``biaxpot.__all__`` and every method written in its classes ran.  Two
groups are exempt:

* the functions the benchmark's span tracer wraps (``TARGETS`` in
  ``perfbench/tracing.py``), whose names the traced benchmark resolves;
* ``EXEMPT``: ``log_singular_3f2``, the logarithmic case of F2 at
  coincident points, kept for the large-argument route still to be built
  on it.

A public name that no command runs goes unchecked by every shipped run;
it is either wired into one or deleted.  An ``EXEMPT`` name that is no
longer public, or that a shipped call now runs, fails the test too, so
the list cannot go stale.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import biaxpot
from biaxpot.cli import main

PACKAGE = Path(biaxpot.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
EXEMPT = {"log_singular_3f2"}

TINY_VERIFY = {"interior_points": 1, "oncurve_points": 1,
               "exterior_points": 1, "arclengths": 1, "gradient_pairs": 2,
               "cases": 2, "exterior_sources": [[2.0, 2.0]],
               "interior_sources": [[0.5, 0.5]]}
TINY_SOLVE = {"nodes": 16, "study_ns": [16, 32], "tolerance": 1.0e-3}
CALLS = ([("eval-q4", {}, ["eval-q4"]),
          ("solve-dirichlet", TINY_SOLVE, ["solve-dirichlet"])]
         + [(f"verify {suite}", TINY_VERIFY, ["verify", suite])
            for suite in ("gauge", "jumps", "flux", "gradient", "specfun")])


def _tracer_targets(monkeypatch) -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return {(mod, qualname) for mod, qualname, _ in module.TARGETS}


def _own_code(func):
    """The code object of a function written in the package, else None."""
    code = getattr(inspect.unwrap(func), "__code__", None)
    if code is None or PACKAGE not in Path(code.co_filename).parents:
        return None
    return code


def _public_functions():
    """(public name, (module, qualified name), code) of every function in
    ``__all__`` and every method its classes define in the package."""
    for name in biaxpot.__all__:
        obj = getattr(biaxpot, name)
        module = getattr(obj, "__module__", "").rpartition(".")[2]
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                code = _own_code(member) if callable(member) else None
                if code is not None:
                    yield name, (module, f"{obj.__qualname__}.{attr}"), code
        elif callable(obj):
            code = _own_code(obj)
            if code is not None:
                yield name, (module, obj.__qualname__), code


def test_every_public_function_runs_in_a_shipped_call(tmp_path,
                                                      monkeypatch):
    exempt = _tracer_targets(monkeypatch)
    functions = list(_public_functions())
    # a cache hit would skip the body of a cached public function
    for name in biaxpot.__all__:
        clear = getattr(getattr(biaxpot, name), "cache_clear", None)
        if clear is not None:
            clear()

    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    codes = {}
    sys.setprofile(record)
    try:
        for k, (label, config, argv) in enumerate(CALLS):
            path = tmp_path / f"config{k}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            codes[label] = main(["--config", str(path), "--out",
                                 str(tmp_path / f"out{k}"), *argv])
    finally:
        sys.setprofile(None)

    assert codes == {label: 0 for label, _, _ in CALLS}
    unreached = sorted(
        ".".join(key) for name, key, code in functions
        if code not in ran and name not in EXEMPT and key not in exempt)
    assert not unreached, (
        f"public functions no shipped call runs: {', '.join(unreached)}")
    gone = sorted(EXEMPT - set(biaxpot.__all__))
    assert not gone, f"exempt names biaxpot no longer has: {', '.join(gone)}"
    reached = sorted({name for name, _, code in functions
                      if name in EXEMPT and code in ran})
    assert not reached, (
        f"exempt names a shipped call runs: {', '.join(reached)}")
