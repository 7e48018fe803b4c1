"""Command-line front end: config validation, suites, artifacts, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biaxpot.cli import main
from biaxpot.errors import SolveError


def run(tmp_path, config: dict | None, *argv: str) -> int:
    args = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(path)]
    args += ["--out", str(tmp_path / "out")]
    return main(args + list(argv))


def read_csv(tmp_path, name: str):
    with open(tmp_path / "out" / name, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def read_summary(tmp_path) -> dict:
    with open(tmp_path / "out" / "summary.json", encoding="utf-8") as f:
        return json.load(f)


# -- eval-q4 ----------------------------------------------------------------------

def test_eval_q4_default_run(tmp_path):
    assert run(tmp_path, None, "eval-q4") == 0
    header, rows = read_csv(tmp_path, "eval_q4.csv")
    assert header == ["x", "y", "x0", "y0", "q4", "grad_norm"]
    assert len(rows) == 4
    # the stock pairs carry a swapped duplicate and an on-axis probe
    assert rows[0][4] == rows[1][4]
    axis = next(r for r in rows if float(r[0]) == 0.0)
    assert float(axis[4]) == 0.0
    assert axis[5] == "inf"
    summary = read_summary(tmp_path)
    assert summary["command"] == "eval-q4"
    assert summary["status"] == "pass"


def test_eval_q4_rejects_alpha_out_of_range(tmp_path):
    assert run(tmp_path, {"params": {"alpha": 0.7}}, "eval-q4") == 2


def test_eval_q4_rejects_axis_source(tmp_path):
    cfg = {"pairs": [[0.5, 0.5, 0.0, 0.7]]}
    assert run(tmp_path, cfg, "eval-q4") == 2


def test_eval_q4_rejects_coincident_pair(tmp_path):
    cfg = {"pairs": [[0.5, 0.5, 0.5, 0.5]]}
    assert run(tmp_path, cfg, "eval-q4") == 2


def test_eval_q4_near_coincident_is_infrastructure_failure(tmp_path):
    cfg = {"pairs": [[0.5, 0.5, 0.5, 0.500000001]]}
    assert run(tmp_path, cfg, "eval-q4") == 3


def test_infrastructure_failure_writes_an_error_summary(tmp_path, capsys):
    cfg = {"pairs": [[0.5, 0.5, 0.5, 0.500000001]]}
    assert run(tmp_path, cfg, "eval-q4") == 3
    err = capsys.readouterr().err
    summary = read_summary(tmp_path)
    assert summary["status"] == "error"
    assert summary["command"] == "eval-q4"
    assert summary["config"]["alpha"] == 0.25
    assert summary["checks"] == [] and summary["outputs"] == []
    assert set(summary["error"]) == {"type", "message"}
    assert summary["error"]["type"] == "SingularPairError"
    # the stderr line is the one it always was
    assert err == (f"{summary['error']['type']}: "
                   f"{summary['error']['message']}\n")


def test_import_path_leaves_scipy_interpolate_and_integrate_out(tmp_path):
    # a fresh interpreter: other tests import these scipy modules
    script = f"""
import json, sys
from biaxpot.cli import main
out = {str(tmp_path)!r}
cfg = out + "/config.json"
with open(cfg, "w") as f:
    json.dump({{"nodes": 16, "probes": [[0.3, 0.3]], "interior_points": 1,
               "oncurve_points": 1, "exterior_points": 1}}, f)
codes = [main(["--config", cfg, "--out", out + "/solve", "solve-dirichlet"]),
         main(["--config", cfg, "--out", out + "/gauge", "verify", "gauge"])]
print(json.dumps({{"codes": codes, "loaded": sorted(
    m for m in ("scipy.interpolate", "scipy.integrate", "scipy.optimize")
    if m in sys.modules)}}))
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0], "loaded": []}


def test_runtime_loads_no_scipy_module(tmp_path):
    # a fresh interpreter: the tests themselves use scipy as a reference
    script = f"""
import json, sys
from biaxpot.cli import main
out = {str(tmp_path)!r}
cfg = out + "/config.json"
with open(cfg, "w") as f:
    json.dump({{"nodes": 16, "probes": [[0.3, 0.3]], "interior_points": 1,
               "oncurve_points": 1, "exterior_points": 1, "cases": 5}}, f)
codes = [main(["--config", cfg, "--out", out + "/solve", "solve-dirichlet"]),
         main(["--config", cfg, "--out", out + "/specfun", "verify",
               "specfun"]),
         main(["--config", cfg, "--out", out + "/gauge", "verify", "gauge"])]
print(json.dumps({{"codes": codes, "loaded": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}}))
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "loaded": []}


# -- config validation ------------------------------------------------------------

def test_config_must_be_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("not json", encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                 "eval-q4"]) == 2


def test_config_must_be_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                 "eval-q4"]) == 2


def test_config_missing_file(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out"), "eval-q4"]) == 2


def test_config_rejects_bad_fields(tmp_path):
    assert run(tmp_path, {"nodes": 7}, "solve-dirichlet") == 2
    assert run(tmp_path, {"tolerance": 2.0}, "solve-dirichlet") == 2
    assert run(tmp_path, {"domain": {"curve": "circle"}}, "eval-q4") == 2
    assert run(tmp_path, {"domain": {"exponent": 1.5}}, "eval-q4") == 2
    assert run(tmp_path, {"pairs": [[1.0, 2.0]]}, "eval-q4") == 2
    assert run(tmp_path, {"nodes": "many"}, "eval-q4") == 2


@pytest.mark.parametrize("out", [5, ["results"], None],
                         ids=["int", "list", "null"])
def test_config_rejects_a_non_string_out(tmp_path, capsys, out):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"out": out}), encoding="utf-8")
    assert main(["--config", str(path), "eval-q4"]) == 2
    assert "'out'" in capsys.readouterr().err
    # a bad field is a config error even where the --out flag overrides it
    assert run(tmp_path, {"out": out}, "eval-q4") == 2


@pytest.mark.parametrize("suite, key", [
    ("gauge", "interior_points"), ("gauge", "oncurve_points"),
    ("gauge", "exterior_points"), ("jumps", "arclengths"),
    ("gradient", "gradient_pairs"), ("specfun", "cases")])
@pytest.mark.parametrize("value", [0, -1])
def test_verify_rejects_counts_below_one(tmp_path, capsys, suite, key,
                                         value):
    assert run(tmp_path, {key: value}, "verify", suite) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_unknown_suite_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "out"), "verify", "everything"])
    assert exc.value.code == 2


# -- verify suites ----------------------------------------------------------------

def test_verify_specfun(tmp_path):
    assert run(tmp_path, {"cases": 40}, "verify", "specfun") == 0
    summary = read_summary(tmp_path)
    assert summary["status"] == "pass"
    names = [c["name"] for c in summary["checks"]]
    assert len(names) == 4
    for c in summary["checks"]:
        assert c["residual"] <= c["tolerance"]
    header, rows = read_csv(tmp_path, "verify_specfun.csv")
    assert header == ["identity", "case", "rel_err"]
    assert len(rows) == 160


@pytest.mark.parametrize("branch", ["_hyp2f1_series", "_hyp2f1_connection"])
def test_verify_specfun_fails_on_a_wrong_gauss_2f1(tmp_path, monkeypatch,
                                                  branch):
    # the edge check compares gauss_2f1 with F2 on its own tree, so either
    # 2F1 branch one part in a million off fails it, and only it
    from biaxpot import specfun
    exact = getattr(specfun, branch)
    monkeypatch.setattr(specfun, branch,
                        lambda *args: exact(*args) * (1.0 + 1.0e-6))
    assert run(tmp_path, {"cases": 40}, "verify", "specfun") == 1
    checks = read_summary(tmp_path)["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == [
        "edge (40 cases)"]


def test_verify_flux(tmp_path):
    assert run(tmp_path, None, "verify", "flux") == 0
    summary = read_summary(tmp_path)
    assert summary["counts"]["fail"] == 0
    assert summary["counts"]["pass"] == 5


def test_verify_flux_takes_a_far_exterior_source(tmp_path):
    # classifying the source overflowed at this exponent (exit 3)
    cfg = {"domain": {"curve": "superellipse", "a": 1.0, "b": 1.0,
                      "exponent": 40.0},
           "exterior_sources": [[1.0e10, 0.5]]}
    assert run(tmp_path, cfg, "verify", "flux") == 0
    summary = read_summary(tmp_path)
    assert summary["counts"]["fail"] == 0
    assert summary["counts"]["pass"] == 3


@pytest.mark.parametrize("cfg, entry", [
    ({"exterior_sources": [[2.0, 2.0], [0.5, 0.5]]},
     "'exterior_sources' entry 1"),
    ({"exterior_sources": [[-0.5, 0.5]]}, "'exterior_sources' entry 0"),
    ({"interior_sources": [[0.0, 0.5]]}, "'interior_sources' entry 0"),
    ({"interior_sources": [[0.35, 0.3], [1.5, 0.4]]},
     "'interior_sources' entry 1"),
    ({"interior_sources": [[0.5 ** (1.0 / 3.0), 0.5 ** (1.0 / 3.0)]]},
     "'interior_sources' entry 0"),
], ids=["inside-as-exterior", "off-quadrant", "on-axis",
        "outside-as-interior", "on-curve"])
def test_verify_flux_rejects_misplaced_sources(tmp_path, capsys, cfg, entry):
    # a source on the wrong side used to fail its check (exit 1), one off
    # the quadrant died in contour_flux (exit 3)
    assert run(tmp_path, cfg, "verify", "flux") == 2
    assert entry in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, entry", [
    (["eval-q4"], "pairs", [0.35, 0.3, 0.7, 0.6]),
    (["solve-dirichlet"], "probes", [0.35, 0.3]),
    (["verify", "flux"], "exterior_sources", [2.0, 2.0]),
], ids=["pairs", "probes", "exterior_sources"])
@pytest.mark.parametrize("bad", ["0.35", True], ids=["string", "bool"])
def test_point_lists_take_json_numbers_only(tmp_path, capsys, command, key,
                                            entry, bad):
    # neither is a JSON number, though float() reads them as 0.35 and 1.0
    rows = [entry, [bad] + entry[1:]]
    assert run(tmp_path, {"nodes": 16, key: rows}, *command) == 2
    assert f"{key!r} entry 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_gradient(tmp_path):
    assert run(tmp_path, {"gradient_pairs": 20}, "verify", "gradient") == 0
    summary = read_summary(tmp_path)
    assert summary["status"] == "pass"


def test_verify_gradient_batches_and_reproduces(tmp_path, monkeypatch):
    import biaxpot.cli as cli

    calls = []
    for name in ("q4_many", "grad_q4_many"):
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls.append((_name, len(args[1])))
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    outputs = []
    for sub in ("one", "two"):
        base = tmp_path / sub
        base.mkdir()
        assert run(base, {"gradient_pairs": 12}, "verify", "gradient") == 0
        outputs.append((base / "out" / "verify_gradient.csv").read_bytes())
    # one gradient call for the pairs, one q4 call for their four
    # difference stencils, one gradient call for the conormal points
    assert calls == 2 * [("grad_q4_many", 12), ("q4_many", 48),
                         ("grad_q4_many", 25)]
    assert outputs[0] == outputs[1]


def test_verify_gradient_conormal_block_builds_its_rules_once(tmp_path,
                                                             monkeypatch):
    # the 25 conormal points take their four F2 families from one
    # appell_f2_sets call, whose Gauss-Jacobi end-panel rules come from one
    # jacobi_rules call (a first run fills the kernel route's rule caches)
    import biaxpot.cli as cli
    from biaxpot import specfun

    (tmp_path / "warm").mkdir()
    assert run(tmp_path / "warm", {"gradient_pairs": 4},
               "verify", "gradient") == 0
    rules, blocks = [], []

    def spy_rules(*args, _fn=specfun.jacobi_rules):
        rules.append(args)
        return _fn(*args)

    def spy_block(*args, _fn=cli.dq4_dn_many):
        before = len(rules)
        out = _fn(*args)
        blocks.append((len(args[1]), len(rules) - before))
        return out

    monkeypatch.setattr(specfun, "jacobi_rules", spy_rules)
    monkeypatch.setattr(cli, "dq4_dn_many", spy_block)
    assert run(tmp_path, {"gradient_pairs": 4}, "verify", "gradient") == 0
    assert blocks == [(25, 1)]
    assert len(rules) == 1


def test_verify_gauge(tmp_path):
    cfg = {"interior_points": 1, "oncurve_points": 1, "exterior_points": 1}
    assert run(tmp_path, cfg, "verify", "gauge") == 0
    summary = read_summary(tmp_path)
    kinds = sorted(c["name"].split()[1] for c in summary["checks"])
    assert kinds == ["inside", "on", "outside"]


def test_verify_jumps(tmp_path):
    assert run(tmp_path, {"arclengths": 2}, "verify", "jumps") == 0
    summary = read_summary(tmp_path)
    assert summary["counts"]["pass"] == 3


# -- solve-dirichlet --------------------------------------------------------------

def test_solve_zero_data(tmp_path):
    cfg = {"data": "zero", "nodes": 32}
    assert run(tmp_path, cfg, "solve-dirichlet") == 0
    summary = read_summary(tmp_path)
    vanish = next(c for c in summary["checks"]
                  if c["name"] == "density vanishes")
    assert vanish["status"] == "pass"
    _, rows = read_csv(tmp_path, "density.csv")
    assert len(rows) == 32
    assert all(abs(float(r[1])) <= 1.0e-10 for r in rows)


def test_solve_manufactured(tmp_path):
    assert run(tmp_path, {"nodes": 64}, "solve-dirichlet") == 0
    summary = read_summary(tmp_path)
    assert summary["max_probe_error"] <= 1.0e-4
    assert summary["condition_estimate"] < 1.0e3
    _, rows = read_csv(tmp_path, "probes.csv")
    assert len(rows) == 3
    assert all(float(r[4]) <= 1.0e-4 for r in rows)
    # the stock cubic flattens onto both axes fast enough
    report = summary["endpoint_conditions"]
    assert set(report) == {"eps", "x_axis_growth", "y_axis_growth", "ok"}
    assert report["ok"] is True and report["eps"] == 1.0
    assert report["x_axis_growth"] < 2.0 and report["y_axis_growth"] < 2.0


@pytest.mark.parametrize("domain", [{"exponent": 2.0},
                                    {"a": 1.0, "b": 20.0, "exponent": 3.0}])
def test_solve_reports_slow_endpoint_flattening_without_failing(tmp_path,
                                                                 domain):
    # the ellipse meets the axes too steeply for the endpoint condition,
    # and a 1:20 cubic too steeply at its far end; both still solve, and
    # the report is not a check
    cfg = {"domain": domain, "nodes": 32, "tolerance": 1.0e-2,
           "probes": [[0.3, 0.3]]}
    assert run(tmp_path, cfg, "solve-dirichlet") == 0
    summary = read_summary(tmp_path)
    assert summary["status"] == "pass"
    assert [c["name"] for c in summary["checks"]] == ["probe (0.3000, 0.3000)"]
    report = summary["endpoint_conditions"]
    assert report["ok"] is False
    assert max(report["x_axis_growth"], report["y_axis_growth"]) >= 2.0


def test_solve_convergence_study(tmp_path):
    # 4.33e-8 -> 1.00e-8, order 2.11
    cfg = {"nodes": 32, "study_ns": [32, 64],
           "probes": [[0.3, 0.3], [0.5, 0.2]]}
    assert run(tmp_path, cfg, "solve-dirichlet") == 0
    summary = read_summary(tmp_path)
    assert summary["convergence_order"] >= 2.0
    _, rows = read_csv(tmp_path, "study.csv")
    assert [int(r[0]) for r in rows] == [32, 64]
    assert float(rows[1][1]) <= float(rows[0][1]) / 3.0


def test_solve_convergence_study_fails_its_order_check_on_a_plateau(
        tmp_path):
    # at these probes n = 16 already reads 4.89e-8 and n = 32 4.33e-8, an
    # order of 0.18: the run-time check must fail, and the run exit 1
    cfg = {"nodes": 32, "study_ns": [16, 32],
           "probes": [[0.3, 0.3], [0.5, 0.2]]}
    assert run(tmp_path, cfg, "solve-dirichlet") == 1
    summary = read_summary(tmp_path)
    failed = [c["name"] for c in summary["checks"] if c["status"] == "fail"]
    assert failed == ["convergence order at least 2"]
    _, rows = read_csv(tmp_path, "study.csv")
    assert [int(r[0]) for r in rows] == [16, 32]
    assert all(float(r[1]) <= 1.0e-7 for r in rows)


def test_solve_reports_solver_failure(tmp_path, monkeypatch):
    def boom(sys):
        raise SolveError("synthetic failure")

    monkeypatch.setattr("biaxpot.cli.solve_dirichlet", boom)
    cfg = {"data": "zero", "nodes": 16}
    assert run(tmp_path, cfg, "solve-dirichlet") == 1
    summary = read_summary(tmp_path)
    assert summary["status"] == "fail"
    assert "condition_estimate" in summary
    assert summary["endpoint_conditions"]["ok"] is True
    assert "synthetic failure" in summary["error"]


def assert_config_error_before_solving(tmp_path, cfg: dict) -> None:
    assert run(tmp_path, cfg, "solve-dirichlet") == 2
    out = tmp_path / "out"
    assert not (out.exists() and list(out.glob("*.csv")))


def test_solve_rejects_a_probe_off_the_quadrant(tmp_path):
    assert_config_error_before_solving(
        tmp_path, {"nodes": 16, "probes": [[0.35, 0.3], [-0.1, 0.3]]})


def test_solve_rejects_a_probe_outside_the_domain(tmp_path):
    # the exact solution holds only inside, so its "error" there is moot
    assert_config_error_before_solving(
        tmp_path, {"nodes": 16, "probes": [[1.2, 1.2]]})


def test_solve_rejects_a_far_probe_as_outside(tmp_path, capsys):
    # the classifier's powers overflowed here (exit 3)
    assert_config_error_before_solving(
        tmp_path, {"nodes": 16, "probes": [[1.0e120, 0.5]]})
    assert ("config field 'probes' entry 0 (1e+120, 0.5) lies outside the "
            "domain; it must lie inside") in capsys.readouterr().err


def test_solve_rejects_a_probe_on_the_arc(tmp_path, capsys):
    on_arc = 0.5 ** (1.0 / 3.0)   # x^3 + y^3 = 1 at x = y
    assert_config_error_before_solving(
        tmp_path, {"nodes": 16, "probes": [[0.35, 0.3], [on_arc, on_arc]]})
    assert "'probes' entry 1" in capsys.readouterr().err


def test_solve_rejects_a_short_study_before_assembly(tmp_path):
    assert_config_error_before_solving(tmp_path,
                                       {"nodes": 16, "study_ns": [16]})


@pytest.mark.parametrize("cfg", [
    {"nodes": 20},                          # not a multiple of PANEL_ORDER
    {"nodes": 16, "study_ns": [16, 20]},
    {"nodes": 16, "study_ns": [16, 16]},    # a fit through one abscissa
    {"nodes": 16, "domain": {"a": True}},   # a bool is not a number
    {"nodes": 16, "domain": {"exponent": "inf"}},
    {"nodes": 16, "domain": {"a": math.nan}},
    {"nodes": 16, "params": {"alpha": math.inf}},
    {"nodes": 16, "seed": math.inf},        # int(inf) overflows
], ids=["nodes", "study_ns", "study_ns-duplicate", "bool", "string", "nan",
        "inf", "inf-int"])
def test_solve_rejects_bad_counts_and_numbers_before_solving(tmp_path, cfg):
    assert_config_error_before_solving(tmp_path, cfg)


# -- determinism ------------------------------------------------------------------

def test_identical_configs_reproduce_bitwise(tmp_path):
    cfg = {"cases": 20, "seed": 3}
    pairs = []
    for sub in ("one", "two"):
        base = tmp_path / sub
        base.mkdir()
        assert run(base, cfg, "verify", "specfun") == 0
        assert run(base, None, "eval-q4") == 0  # overwrites summary only
        pairs.append(base / "out")
    for name in ("verify_specfun.csv", "eval_q4.csv", "summary.json"):
        a = (pairs[0] / name).read_bytes()
        b = (pairs[1] / name).read_bytes()
        assert a == b


@pytest.mark.parametrize("cfg, argv", [
    ({"seed": -1, "gradient_pairs": 10}, ("verify", "gradient")),
    ({"cases": 10}, ("--seed", "-1", "verify", "specfun")),
], ids=["config", "flag"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, cfg, argv):
    # numpy's generator used to reject it mid-suite (exit 3)
    assert run(tmp_path, cfg, *argv) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_flag_changes_draws_without_breaking(tmp_path):
    assert run(tmp_path, {"gradient_pairs": 10}, "--seed", "5",
               "verify", "gradient") == 0
