import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import mmread

import degenlab
from degenlab.cli import (ConfigError, emit_plot_script, load_config, main,
                          parse_config, run)

CSV_HEADER = ("check_id,lambda,p,mesh_M,dt,seed,rho0,gamma_measured,"
              "lhs,rhs,ratio,pass")


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = dict(overrides)
    cfg.setdefault("out_dir", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _small_sweep(tmp_path, **extra):
    base = dict(command="sweep", dim=1, mesh_M=10, time_step=0.125,
                time_count=8, kind="xd_only", eps=0.2, seed=1,
                with_F=False, lambda_grid=[1.0, 10.0, 100.0])
    base.update(extra)
    return _write_cfg(tmp_path, **base)


def test_parse_config_fills_defaults_and_roundtrips():
    cfg = parse_config({"command": "solve"})
    assert cfg["mesh_M"] == 48
    assert cfg["lambda"] == 1.0
    assert cfg["schema_version"] == 1
    again = parse_config(cfg)
    assert again == cfg


def test_parse_config_rejects_unknown_key_by_name():
    for key, value in [("lamda", 3.0), ("max_krylov_iters", 4000)]:
        with pytest.raises(ConfigError) as err:
            parse_config({"command": "solve", key: value})
        assert key in str(err.value)


def test_parse_config_type_checks():
    with pytest.raises(ConfigError):
        parse_config({"command": "solve", "mesh_M": True})
    with pytest.raises(ConfigError):
        parse_config({"command": "solve", "nu": "half"})
    with pytest.raises(ConfigError):
        parse_config({"command": "solve", "with_F": 1})
    with pytest.raises(ConfigError):
        parse_config({"command": "solve", "lambda_grid": []})
    with pytest.raises(ConfigError):
        parse_config({"command": "solve", "mms_meshes": [8, 8.5]})
    with pytest.raises(ConfigError):
        parse_config({"command": "solve", "schema_version": 2})
    with pytest.raises(ConfigError):
        parse_config({"command": "warp"})
    with pytest.raises(ConfigError):
        parse_config({"command": "solve", "kind": "random"})
    with pytest.raises(ConfigError):
        parse_config({"command": "solve", "dim": 3})
    with pytest.raises(ConfigError):
        parse_config({})
    with pytest.raises(ConfigError):
        parse_config(["command"])


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_main_exit_codes_for_config_errors(tmp_path, capsys):
    assert main([]) == 2
    path = _write_cfg(tmp_path, command="solve", lamda=1.0)
    assert main(["run", path]) == 2
    assert "lamda" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_lab_jobs_environment_fallback(tmp_path, monkeypatch, capsys):
    path = _small_sweep(tmp_path, lambda_grid=[2.0])
    monkeypatch.setenv("LAB_JOBS", "soup")
    assert main(["run", path]) == 2
    assert "LAB_JOBS" in capsys.readouterr().err
    monkeypatch.setenv("LAB_JOBS", "0")
    assert main(["run", path]) == 2
    monkeypatch.setenv("LAB_JOBS", "2")
    assert main(["run", path]) == 0


def test_solver_failure_exits_three(tmp_path, capsys):
    path = _write_cfg(tmp_path, command="solve", dim=2, mesh_M=24,
                      xprime_count=12, time_step=0.05, time_count=2,
                      linear_tol=1e-30)
    assert main(["run", path]) == 3
    assert "solver error" in capsys.readouterr().err


def test_sweep_rows_and_idempotent_reruns(tmp_path):
    path = _small_sweep(tmp_path)
    assert main(["run", path]) == 0
    out = tmp_path / "out"
    text1 = (out / "reports.csv").read_bytes()
    lines = text1.decode().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4                      # three lambdas, one p
    lams = [float(l.split(",")[1]) for l in lines[1:]]
    assert lams == [1.0, 10.0, 100.0]
    run1 = (out / "run.json").read_bytes()
    assert main(["run", path]) == 0
    assert (out / "reports.csv").read_bytes() == text1
    assert (out / "run.json").read_bytes() == run1


def test_run_json_config_echo_reparses(tmp_path):
    path = _small_sweep(tmp_path, lambda_grid=[4.0])
    assert main(["run", path]) == 0
    bundle = json.loads((tmp_path / "out" / "run.json").read_text())
    echoed = bundle["config"]
    assert parse_config(echoed) == echoed
    assert bundle["n_reports"] == 1
    assert bundle["n_failed"] == 0
    assert bundle["reports"][0]["check_id"] == "main_Wp"


def test_manifest_hashes_every_artifact(tmp_path):
    path = _small_sweep(tmp_path, lambda_grid=[2.0])
    assert main(["run", path]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert "created_utc" in manifest
    names = {e["name"] for e in manifest["artifacts"]}
    on_disk = {p.name for p in out.iterdir()} - {"MANIFEST.json"}
    assert names == on_disk
    for entry in manifest["artifacts"]:
        data = (out / entry["name"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]


def test_solve_artifacts_and_matrix_export(tmp_path):
    path = _write_cfg(tmp_path, command="solve", dim=1, mesh_M=6,
                      time_step=0.25, time_count=4, export_matrix=True,
                      with_F=False)
    assert main(["run", path]) == 0
    out = tmp_path / "out"
    lines = (out / "solution.csv").read_text().strip().split("\n")
    assert lines[0] == "t,xprime,xd,u"
    assert len(lines) == 1 + 5 * 7 * 1          # levels x nodes
    K = mmread(str(out / "stiffness.mtx")).tocsr()
    assert K.shape == (5, 5)
    assert K.nnz > 0


def test_mms_command_emits_table_and_plot(tmp_path):
    path = _write_cfg(tmp_path, command="mms", dim=1, mesh_M=8,
                      time_step=0.125, time_count=8,
                      mms_meshes=[8, 16, 32])
    assert main(["run", path]) == 0
    out = tmp_path / "out"
    table = (out / "mms.csv").read_text().strip().split("\n")
    assert table[0] == "M,dt,e0,e1,rate0,rate1"
    assert len(table) == 4
    last = table[-1].split(",")
    assert float(last[4]) > 1.5                 # observed e0 rate
    script = (out / "plot_error.gp").read_text()
    assert "set logscale xy" in script
    assert "mms.csv" in script
    assert "ref2(x)" in script
    bad = _write_cfg(tmp_path, name="bad.json", command="mms",
                     mms_meshes=[8, 12])
    assert main(["run", bad]) == 2


def test_sweep_plot_script(tmp_path):
    path = _small_sweep(tmp_path, lambda_grid=[1.0, 10.0])
    assert main(["run", path]) == 0
    script = (tmp_path / "out" / "plot_ratio.gp").read_text()
    assert 'set datafile separator ","' in script
    assert "set logscale x" in script
    assert "reports.csv" in script


def test_emit_plot_script_edge_cases(capsys):
    with pytest.raises(ValueError):
        emit_plot_script("", "x.csv", "ratio_lambda")
    with pytest.raises(ValueError):
        emit_plot_script("a,b\n1,2\n", "x.csv", "ratio_lambda")
    with pytest.raises(ValueError):
        emit_plot_script(CSV_HEADER + "\n", "x.csv", "contour")
    script = emit_plot_script(CSV_HEADER + "\n", "reports.csv",
                              "ratio_lambda")
    assert "ratio_lambda.png" in script
    assert "no data rows" in capsys.readouterr().err


def test_oscillation_command(tmp_path):
    path = _write_cfg(tmp_path, command="oscillation", dim=1, mesh_M=12,
                      time_step=0.125, time_count=8, kind="constant",
                      eps=0.0, rho_grid=[0.5, 1.0])
    assert main(["run", path]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "oscillation.json").read_text())
    assert summary["gamma"] == 0.0
    table = (out / "oscillation.csv").read_text().strip().split("\n")
    assert table[0] == "center_t,center_xprime,center_xd,rho,value"
    assert len(table) > 1


def test_seed_and_out_overrides(tmp_path):
    path = _small_sweep(tmp_path, lambda_grid=[3.0])
    alt = str(tmp_path / "alt_out")
    assert main(["run", path, "--out", alt, "--seed", "5"]) == 0
    bundle = json.loads(open(os.path.join(alt, "run.json")).read())
    assert bundle["config"]["seed"] == 5
    assert bundle["config"]["out_dir"] == alt


def test_duality_and_hardy_commands(tmp_path):
    d = _write_cfg(tmp_path, name="dual.json", command="duality", dim=1,
                   mesh_M=10, time_step=0.125, time_count=8,
                   kind="xd_only", eps=0.2, duality_seeds=2)
    assert main(["run", d]) == 0
    rows = (tmp_path / "out" / "reports.csv").read_text().strip().split("\n")
    assert len(rows) == 2 and rows[1].startswith("duality,")
    h = _write_cfg(tmp_path, name="hardy.json", command="hardy", dim=1,
                   mesh_M=32, n_fields=3,
                   out_dir=str(tmp_path / "out_h"))
    assert main(["run", h]) == 0
    rows = (tmp_path / "out_h" /
            "reports.csv").read_text().strip().split("\n")
    assert len(rows) == 4
    assert all(r.startswith("hardy,") for r in rows[1:])
    assert all(r.endswith(",1") for r in rows[1:])


def test_console_entry_point_runs(tmp_path):
    path = _small_sweep(tmp_path, lambda_grid=[2.0])
    # The child imports the degenlab under test, however pytest was launched.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(degenlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "degenlab", "run", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "1 report(s), 0 failed" in proc.stdout


@pytest.mark.skipif(shutil.which("lab") is None,
                    reason="`lab` console script not on PATH "
                           "(package not installed)")
def test_installed_lab_script_runs(tmp_path):
    path = _small_sweep(tmp_path, lambda_grid=[2.0])
    proc = subprocess.run(["lab", "run", path], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "1 report(s), 0 failed" in proc.stdout


def test_declared_lab_script_targets_cli_main():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    # degenlab/__main__.py calls this same object.
    assert scripts["lab"] == "degenlab.cli:main"


def test_run_returns_reports(tmp_path):
    cfg = parse_config({"command": "hardy", "dim": 1, "mesh_M": 16,
                        "n_fields": 2,
                        "out_dir": str(tmp_path / "o")})
    code, reports = run(cfg)
    assert code == 0
    assert len(reports) == 2
    assert all(r.check_id == "hardy" for r in reports)
