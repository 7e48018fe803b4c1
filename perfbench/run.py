"""biaxpot benchmark: seeded CLI workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload solve-equal --seed 1 --seconds 30 --trace 0

Runs one workload from the repository checkout this file sits in, in
process, through ``biaxpot.cli.main``.  One operation is the workload's CLI
calls on the configs drawn from ``--seed``; operations repeat until the next
one would end past ``--seconds`` (at least two run, so the artifact digests
of repeated configs can be compared).  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count CLI calls,
and ``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``); ``metrics.py`` lists
them.  Configs, the first operation's artifacts and ``result.json`` with
every measurement go to ``.perfbench_out/<workload>-seed<seed>/``.

A traced run alternates untraced and traced operations, at least three; the
difference of the median traced and the median warm untraced wall times (the
first operation excluded) is the tracing overhead.

Exit code 2 without a result when the checkout has no ``src/biaxpot``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_OPS = 2          # a repeat, so artifact digests can be compared
MIN_TRACED_OPS = 3   # a cold untraced op, then a traced and a warm untraced
SETUP_SAMPLES = 3   # the in-process one plus fresh interpreters
SETUP_TIMEOUT_S = 60


class SetupError(RuntimeError):
    """The checkout does not hold the package to benchmark."""


def setup(workload: str, seed: int, sizes=None):
    """Import the package from this checkout and draw the workload inputs.

    Returns the ``biaxpot.cli`` module and the workload's CLI calls.
    """
    if not (SRC / "biaxpot" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'biaxpot'}")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import biaxpot.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "biaxpot":
        raise SetupError(f"imported biaxpot from {cli.__file__}, not {SRC}")
    import workloads
    return cli, workloads.make_calls(workload, seed, sizes)


def _setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """Set-up seconds: ``first`` plus fresh-interpreter repeats."""
    samples = [first]
    probe = BENCH / "setup_probe.py"
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _run_op(cli, calls, config_paths, op_dir: Path):
    """One operation: every CLI call, timed from first call to last return."""
    rcs = []
    t = time.perf_counter()
    for call, cfg in zip(calls, config_paths):
        rcs.append(cli.main(["--config", str(cfg),
                             "--out", str(op_dir / call.name),
                             *call.argv_tail]))
    return time.perf_counter() - t, rcs


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes=None, setup_s: float | None = None) -> dict:
    """Run one workload and return everything measured.

    ``setup_s`` is the in-process set-up time already spent by the caller;
    without it set-up is timed here.
    """
    t_setup = time.perf_counter()
    cli, calls = setup(workload, seed, sizes)
    import workloads
    from tracing import Tracer
    first_setup = (time.perf_counter() - t_setup) if setup_s is None else setup_s

    work = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    config_paths = workloads.write_configs(calls, work / "configs")

    tracer = Tracer() if trace else None
    min_ops = MIN_TRACED_OPS if trace else MIN_OPS
    ops = []
    reference = None
    failures = []
    t_start = time.perf_counter()
    while True:
        k = len(ops)
        traced = trace and k % 2 == 1
        op_dir = work / f"op{k}"
        if traced:
            tracer.op = k
            tracer.install()
        try:
            wall, rcs = _run_op(cli, calls, config_paths, op_dir)
        finally:
            if traced:
                tracer.remove()
        outcomes = [workloads.inspect(c, rc, op_dir / c.name)
                    for c, rc in zip(calls, rcs)]
        digests = [o.digest for o in outcomes]
        if reference is None:
            reference = digests
        for call, o, ref in zip(calls, outcomes, reference):
            if not o.ok:
                failures.append(f"op {k} {call.name}: {o.reason}")
            elif o.digest != ref:
                o.ok = False
                failures.append(f"op {k} {call.name}: artifacts differ "
                                "from the first operation")
        if k > 0:
            shutil.rmtree(op_dir)
        ops.append({"wall_s": wall, "traced": traced, "outcomes": outcomes,
                    "layers": tracer.spans(k).reduce() if traced else None})
        elapsed = time.perf_counter() - t_start
        if len(ops) >= min_ops and elapsed + wall > seconds:
            break

    attempted = sum(len(op["outcomes"]) for op in ops)
    failed = sum(not o.ok for op in ops for o in op["outcomes"])
    plain = [op["wall_s"] for op in ops if not op["traced"]]
    # calls of the first operation that left a summary, failed or not
    first = [o for o in ops[0]["outcomes"] if math.isfinite(o.worst_residual)]
    worst_residual = max((o.worst_residual for o in first), default=math.nan)
    result = {
        "workload": workload, "seed": seed, "sizes": vars(sizes) if sizes else None,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": failures,
        "op_wall_s": [op["wall_s"] for op in ops],
        "op_traced": [op["traced"] for op in ops],
        "worst_residual": worst_residual,
        "worst_check_ratio": max((o.worst_ratio for o in first),
                                 default=math.nan),
        "end_to_end": {
            "wall_s": statistics.median(plain),
            # 0 when no call of the first operation left a summary
            "error_digits": (-math.log10(max(worst_residual, 1e-300))
                             if first else 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if trace:
        traced = [op for op in ops if op["traced"]]
        layers = _median_layers([op["layers"] for op in traced])
        traced_wall = statistics.median(op["wall_s"] for op in traced)
        warm = statistics.median(op["wall_s"] for op in ops[1:]
                                 if not op["traced"])
        layers["trace"] = {
            "wall_s": traced_wall,
            "overhead_s": traced_wall - warm,
            "unaccounted_s": traced_wall - layers["top_level"]["total_s"],
        }
        layers["bytes_written"] = sum(o.bytes_written for o in first)
        result["layers"] = layers
    else:
        samples = _setup_samples(workload, seed, first_setup)
        result["setup_samples_s"] = samples
        result["end_to_end"]["setup_s"] = statistics.median(samples)
    (work / "result.json").write_text(json.dumps(result, indent=2, default=vars)
                                      + "\n", encoding="utf-8")
    return result


def _median_layers(per_op: list[dict]) -> dict:
    """Field-wise median over operations of the reduced span tables."""
    return {span: {key: statistics.median(op[span][key] for op in per_op)
                   for key in fields}
            for span, fields in per_op[0].items()}


def report(result: dict, trace: bool) -> dict:
    """The contract's result object for ``result``."""
    from metrics import END_TO_END, PER_LAYER
    if trace:
        layers = result["layers"]
        metrics = {m.name: {"value": m.get(layers), "unit": m.unit}
                   for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": result["end_to_end"][m.name],
                            "unit": m.unit} for m in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        setup(args.workload, args.seed)
    except (SetupError, ValueError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     setup_s=setup_s)
    for line in result["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
