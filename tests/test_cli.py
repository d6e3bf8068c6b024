import hashlib
import json
import math
import os
import re
import shutil
import string
import subprocess
import sys

import pytest
from scipy.io import mmread

import degenlab
from degenlab import (Marcher, ProblemSpec, assemble_stiffness,
                      check_structure_condition, generate_family)
from degenlab.cli import ConfigError, load_config, main, parse_config, run
from test_golden import CONFIGS as GOLDEN

CSV_HEADER = ("check_id,lambda,p,mesh_M,dt,seed,rho0,gamma_measured,"
              "lhs,rhs,ratio,pass")


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = dict(overrides)
    cfg.setdefault("out_dir", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _child_env():
    """The environment of a child process that imports the degenlab under
    test, however pytest was launched."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(degenlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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
    # null is taken only where the default is None, and re-parses to itself
    for command, keys in (("sweep", ("lambda_grid", "p_grid", "eps_grid")),
                          ("wlemma", ("lambda_grid", "cyl_time"))):
        nulls = dict.fromkeys(keys)
        cfg = parse_config(dict(nulls, command=command))
        assert {key: cfg[key] for key in nulls} == nulls
        assert parse_config(cfg) == cfg


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


@pytest.mark.parametrize("key, command", [("duality_seeds", "duality"),
                                          ("n_fields", "hardy"),
                                          ("n_solutions", "caccioppoli")])
def test_counts_below_one_are_config_errors(tmp_path, capsys, key, command):
    # a count of 0 would run a check that checks nothing
    for value in (0, -2):
        path = _write_cfg(tmp_path, command=command, **{key: value})
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "config error: key %r must be at least 1, got %d" \
            % (key, value) in err
    assert parse_config({"command": command, key: 1})[key] == 1


@pytest.mark.parametrize("key, command, value, bad", [
    ("p_grid", "sweep", [3.0, 0.5], 0.5), ("p", "duality", 0.5, 0.5),
    ("p", "hardy", 1, 1)])
def test_p_at_most_one_is_a_config_error(tmp_path, capsys, monkeypatch, key,
                                         command, value, bad):
    # refused before any march: a W^1_p norm needs p > 1
    marches = []
    monkeypatch.setattr(degenlab.solver, "march_system",
                        lambda *a, **k: marches.append(1))
    path = _write_cfg(tmp_path, command=command, **{key: value})
    assert main(["run", path]) == 2
    assert "config error: key %r must be greater than 1, got %r" \
        % (key, bad) in capsys.readouterr().err
    assert not marches
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", [
    ("trace", "p_grid", [2.0, 1.5]), ("trace", "p", 1.5),
    ("corollary2", "p", 1.5), ("corollary2", "p_grid", [1.25, 3.0])])
def test_p_below_two_is_refused_for_trace_and_corollary2(
        tmp_path, capsys, monkeypatch, command, key, value):
    # refused before the corpus is built or anything is marched
    built = []
    monkeypatch.setattr(degenlab.solver, "march_system",
                        lambda *a, **k: built.append("march"))
    monkeypatch.setattr(degenlab.cli, "random_w1p_field",
                        lambda *a, **k: built.append("field"))
    corpus = {"n_fields": 1} if command == "trace" else {}
    path = _write_cfg(tmp_path, command=command, mesh_M=8, **corpus,
                      **{key: value})
    assert main(["run", path]) == 2
    assert "config error: key %r must be at least 2 for command %r, got %r" \
        % (key, command, value) in capsys.readouterr().err
    assert not built
    assert not (tmp_path / "out").exists()


def test_p_below_two_is_refused_only_where_read():
    # p_grid replaces p, and hardy's quotient needs only p > 1
    assert parse_config({"command": "trace", "p": 1.5, "p_grid": [2.0]})
    assert parse_config({"command": "corollary2", "p": 2.0})["p"] == 2.0
    assert parse_config({"command": "hardy", "p_grid": [1.5]})
    assert parse_config({"command": "sweep", "p": 1.5})


@pytest.mark.parametrize("config, key", [
    (dict(command="caccioppoli", r_inner=0.6), "r_inner"),
    (dict(command="wlemma", r_inner=-0.1), "r_inner"),
    (dict(command="caccioppoli", r_outer=0.8), "r_outer"),
    (dict(command="lipschitz", r_inner=0.4), "r_inner"),
    (dict(command="wlemma", cyl_radius=0.0), "cyl_radius"),
    (dict(command="solve", dim=2, xprime_length=-1), "xprime_length"),
    (dict(command="hardy", dim=2, xprime_count=0), "xprime_count"),
    (dict(command="oscillation", rho_grid=[0.25, -1]), "rho_grid"),
    (dict(command="caccioppoli", kind="oscillatory"), "kind"),
    (dict(command="trace", eps=-0.1), "eps"),
    (dict(command="sweep", eps_grid=[0.2, -0.1]), "eps_grid"),
    (dict(command="sweep", rho0=0.0), "rho0"),
    (dict(command="caccioppoli", cyl_time=5.0), "cyl_time"),
    (dict(command="lipschitz", cyl_radius=0.02, r_inner=0.005), "cyl_time"),
    (dict(command="duality", theta=0.5), "theta"),
    (dict(command="solve", theta=0.3), "theta"),
    (dict(command="solve", nu=1.5), "nu"),
    (dict(command="mms", mms_meshes=[8, 16]), "mms_meshes"),
    (dict(command="mms", mms_meshes=[0, 16, 32]), "mms_meshes"),
    (dict(command="mms", mms_meshes=[8, 8, 8]), "mms_meshes"),
    (dict(command="mms", mms_meshes=[8, 12, 16]), "mms_meshes"),
    (dict(command="solve", kind="oscillatory", eps=0.2, export_matrix=True),
     "export_matrix"),
    (dict(command="duality", dim=2, nu=0.8, eps=0.1), "eps"),
    (dict(command="sweep", eps_grid=[0.0, 0.6]), "eps_grid"),
    (dict(command="solve", **{"lambda": -1}), "lambda"),
    (dict(command="caccioppoli", lambda_grid=[1.0, -1.0]), "lambda_grid"),
    (dict(command="duality", lambda_grid=[1.0, -1.0]), "lambda_grid"),
    (dict(command="sweep", **{"lambda": 0.0}), "lambda"),
    (dict(command="sweep", lambda_grid=[0.0, 1.0]), "lambda_grid"),
    (dict(command="hardy", seed=-3), "seed"),
    (dict(command="hardy", out_dir=""), "out_dir")],
    ids=["cacc-r_inner", "wlemma-r_inner", "r_outer", "lipschitz-r_inner",
         "cyl_radius", "xprime_length", "xprime_count", "rho_grid", "kind",
         "eps", "eps_grid", "rho0", "cyl_time", "cyl_time-end", "theta",
         "theta-range", "nu", "mms_meshes-length",
         "mms_meshes-size", "mms_meshes-increasing", "mms_meshes-squares",
         "export_matrix", "eps-margin", "eps_grid-margin", "lambda",
         "lambda_grid", "duality-lambda_grid", "sweep-lambda",
         "sweep-lambda_grid", "seed", "out_dir"])
def test_command_rules_refuse_before_anything_is_built(
        tmp_path, capsys, monkeypatch, config, key):
    built = []
    monkeypatch.setattr(degenlab.cli, "build_mesh",
                        lambda *a, **k: built.append("mesh"))
    path = _write_cfg(tmp_path, **config)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    _, check = degenlab.cli._SCHEMA[key]
    value = check(key, config.get(key))      # as the schema normalizes it
    assert "config error: key %r must be " % key in err
    assert "for command %r, got %r" % (config["command"], value) in err
    assert not built
    assert not (tmp_path / "out").exists()


def test_command_rules_bind_only_where_the_key_is_read():
    # d = 1 reads no x' keys, and a grid replaces its scalar where both are
    # read, by sweep, duality and the local commands
    assert parse_config({"command": "solve", "xprime_length": -1,
                         "xprime_count": 0})
    assert parse_config({"command": "sweep", "lambda": 0.0,
                         "lambda_grid": [1.0]})
    assert parse_config({"command": "wlemma", "lambda": -1.0,
                         "lambda_grid": [0.0]})
    assert parse_config({"command": "duality", "lambda": -1.0,
                         "lambda_grid": [0.0]})
    assert parse_config({"command": "sweep", "eps": -1, "eps_grid": [0.0]})
    assert parse_config({"command": "sweep", "eps": 0.9, "eps_grid": [0.2]})
    # a key the command does not read is refused, whatever its value: hardy
    # and corollary2 build no coefficient field, hardy and oscillation no
    # time stepper, only the local commands a cylinder, only sweep reads
    # eps_grid and lipschitz reads one radius
    for raw, ignored in [
            (dict(command="hardy", rho_grid=[-1], r_inner=0.6,
                  kind="oscillatory"), "kind, r_inner, rho_grid"),
            (dict(command="lipschitz", r_outer=0.1), "r_outer"),
            (dict(command="oscillation", kind="oscillatory", r_inner=0.6),
             "r_inner"),
            (dict(command="hardy", theta=0.3), "theta"),
            (dict(command="corollary2", eps=-0.1, rho0=0.0, cyl_time=5.0,
                  eps_grid=[-0.1]), "cyl_time, eps, eps_grid, rho0"),
            (dict(command="solve", rho0=-1.0, theta=0.5, eps_grid=[-0.1],
                  cyl_time=-1.0), "cyl_time, eps_grid, rho0"),
            (dict(command="sweep", cyl_time=5.0, theta=0.5), "cyl_time"),
            (dict(command="hardy", **{"lambda": -1.0}), "lambda"),
            (dict(command="oscillation", **{"lambda": -1.0}), "lambda"),
            (dict(command="solve", lambda_grid=[-1.0]), "lambda_grid"),
            (dict(command="hardy", eps=0.6), "eps"),
            (dict(command="corollary2", eps=0.6, eps_grid=[0.6]),
             "eps, eps_grid")]:
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert str(err.value) == "config key(s) that command %r does not " \
            "read: %s" % (raw["command"], ignored)


def test_a_key_the_command_does_not_read_exits_two_naming_it(
        tmp_path, capsys, monkeypatch):
    # solve marches one lambda and builds no cylinder or local solutions
    built = []
    monkeypatch.setattr(degenlab.cli, "build_mesh",
                        lambda *a, **k: built.append("mesh"))
    path = _write_cfg(tmp_path, command="solve", mesh_M=8, time_count=4,
                      lambda_grid=[1, 2, 3], n_solutions=5, cyl_radius=0.3)
    assert main(["run", path]) == 2
    assert "config error: config key(s) that command 'solve' does not " \
        "read: cyl_radius, lambda_grid, n_solutions" in capsys.readouterr().err
    assert not built
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["mms", "corollary2"])
def test_a_seed_is_refused_where_the_command_reads_none(tmp_path, capsys,
                                                        command):
    # mms and corollary2 march manufactured cases that draw nothing at
    # random; --out stays valid for them
    path = _write_cfg(tmp_path, **GOLDEN[command])
    alt = str(tmp_path / "alt_out")
    assert main(["run", path, "--out", alt, "--seed", "3"]) == 2
    assert "config error: config key(s) that command %r does not read: " \
        "seed" % command in capsys.readouterr().err
    assert not os.path.exists(alt)
    assert main(["run", path, "--out", alt]) == 0


def test_the_eps_margin_is_the_one_generate_family_keeps():
    # eps * dim <= 0.999 (1 - nu): the largest eps it keeps passes, the
    # next float is refused, by the config naming nu and dim and by the
    # family
    for dim, nu in ((1, 0.5), (2, 0.5), (2, 0.8)):
        eps = 0.999 * (1 - nu) / dim
        while eps * dim > (1.0 - nu) * 0.999:
            eps = math.nextafter(eps, 0)
        edge = dict(command="duality", dim=dim, nu=nu)
        assert parse_config(dict(edge, eps=eps))["eps"] == eps
        generate_family(0, "constant", nu, eps, dim=dim)
        over = math.nextafter(eps, 1)
        with pytest.raises(ConfigError, match=re.escape(
                "ellipticity margin at nu = %r and dim = %r" % (nu, dim))):
            parse_config(dict(edge, eps=over))
        with pytest.raises(ValueError, match="ellipticity margin"):
            generate_family(0, "constant", nu, over, dim=dim)


def test_a_cylinder_window_needs_a_time_cell_centre():
    # 20 steps of 0.05: the centres are 0.025, 0.075, ..., 0.975
    local = {"command": "wlemma", "cyl_radius": 0.5}
    for cyl_time in (None, 0.025, 0.5, 1.0, 1.47):
        assert parse_config(dict(local, cyl_time=cyl_time))
    for cyl_time in (0.02, 1.475, -1.0):
        with pytest.raises(ConfigError, match="^key 'cyl_time' must be .* "
                           "got %r$" % cyl_time):
            parse_config(dict(local, cyl_time=cyl_time))


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


@pytest.mark.parametrize("key, literal", [("mesh_M", "Infinity"),
                                          ("mesh_M", "NaN"),
                                          ("L_d", "Infinity"),
                                          ("mms_meshes", "null"),
                                          ("rho_grid", "null")])
def test_non_finite_config_numbers_exit_two_naming_the_key(
        tmp_path, capsys, key, literal):
    # null too: a key whose default is not None does not take it
    path = tmp_path / "cfg.json"
    path.write_text('{"command": "mms", "out_dir": %s, "%s": %s}'
                    % (json.dumps(str(tmp_path / "out")), key, literal))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: key %r" % key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, rule", [
    ("time_step", -1, "greater than 0, got -1.0"),
    ("time_count", 0, "at least 1, got 0"),
    ("mesh_M", 1, "at least 2, got 1"),
    ("L_d", -1, "greater than 0, got -1.0"),
    ("grading", 0.5, "at least 1, got 0.5")],
    ids=["time_step", "time_count", "mesh_M", "L_d", "grading"])
def test_grid_ranges_are_config_errors(tmp_path, capsys, key, value, rule):
    path = _write_cfg(tmp_path, command="solve", **{key: value})
    assert main(["run", path]) == 2
    assert "config error: key %r must be %s" % (key, rule) \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "sweep", "trace"])
def test_marching_with_both_sources_off_is_a_config_error(tmp_path, capsys,
                                                          command):
    # from rest with no sources the march is u = 0: solve would write
    # zeros, sweep certify 0 <= 0, trace fail on empty slices
    path = _write_cfg(tmp_path, command=command, with_F=False, with_f=False,
                      mesh_M=16, time_count=5)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "config error: command %r marches the sources" % command in err
    assert "with_F" in err and "with_f" in err
    assert not (tmp_path / "out").exists()


def test_first_config_error_does_not_depend_on_the_hash_seed():
    # the keys are checked in the schema's order, not in a set's
    script = ("from degenlab.cli import parse_config\n"
              "try:\n"
              "    parse_config({'command': 'solve', 'time_count': 'x',\n"
              "                  'seed': 'y', 'mesh_M': 'z', 'nu': 'w'})\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    out = []
    for seed in ("1", "4"):
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=dict(_child_env(), PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out == ["key 'mesh_M' must be an integer, got 'z'\n"] * 2


def test_readme_names_every_config_key():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    missing = [key for key in degenlab.cli._SCHEMA
               if "`%s`" % key not in section]
    assert missing == []


def test_readme_lists_what_each_command_reads():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    every = set(degenlab.cli._EVERY_COMMAND.split())
    rows = {}
    for line in readme.splitlines():
        cells = line.split(" | ")
        if len(cells) == 2 and cells[0].strip("| `") in degenlab.cli.COMMANDS:
            rows[cells[0].strip("| `")] = set(cells[1].strip(" |`").split(
                "` `"))
    assert rows == {command: row - every
                    for command, row in degenlab.cli._READS.items()}


@pytest.mark.parametrize("command", degenlab.cli.COMMANDS)
def test_every_command_runs_on_its_defaults(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)         # the default out_dir is relative
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "command": command}))
    assert main(["run", str(path)]) == 0


def test_solver_failure_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(degenlab.solver, "_BACKWARD_ERROR_BOUND", 1e-30)
    path = _write_cfg(tmp_path, command="solve", dim=2, mesh_M=24,
                      xprime_count=12, time_step=0.05, time_count=2)
    assert main(["run", path]) == 3
    assert "solver error" in capsys.readouterr().err


def test_no_local_solution_exits_three_naming_lambda(tmp_path, capsys):
    # at lambda 1000 every seed's solution is numerically zero on the
    # cylinder
    path = _write_cfg(tmp_path, **dict(GOLDEN["caccioppoli"], mesh_M=48,
                                       n_solutions=1, lambda_grid=[1000.0]))
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert "no nontrivial local solution at lambda 1000" in err
    assert "Cylinder(" in err and "seeds [0, 1000, 2000]" in err


def test_matrix_export_refuses_a_time_dependent_kind(tmp_path, capsys):
    path = _write_cfg(tmp_path, command="solve", dim=1, mesh_M=6,
                      time_step=0.25, time_count=4, export_matrix=True,
                      kind="oscillatory", eps=0.2)
    assert main(["run", path]) == 2
    assert "kind 'oscillatory' depends on time" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# a sweep whose eps_grid replaces its eps: only amplitude 0 is marched
_EPS_REPLACED = dict(command="sweep", kind="oscillatory", eps=0.3,
                     eps_grid=[0.0], mesh_M=8, time_step=0.125, time_count=8,
                     lambda_grid=[1, 10], p=3)


def test_a_sweep_reports_the_amplitude_its_eps_grid_gives(tmp_path):
    # eps 0.3 is not read: the rows are those of eps 0.0, byte for byte
    csv = []
    for eps in (0.3, 0.0):
        out = tmp_path / str(eps)
        assert run(parse_config(dict(_EPS_REPLACED, eps=eps,
                                     out_dir=str(out))))[0] == 0
        csv.append((out / "reports.csv").read_bytes())
    assert csv[0] == csv[1]
    rows = csv[0].decode().strip().split("\n")
    column = rows[0].split(",").index("gamma_measured")
    assert len(rows) == 3
    assert all(float(row.split(",")[column]) == 0.0 for row in rows[1:])


def test_a_sweep_given_an_eps_grid_builds_no_field_at_eps(tmp_path,
                                                           monkeypatch):
    amplitudes = []
    for module in (degenlab.cli, degenlab.harness):
        real = module.generate_family

        def recording(seed, kind, nu, eps, *args, real=real, **kwargs):
            amplitudes.append(eps)
            return real(seed, kind, nu, eps, *args, **kwargs)

        monkeypatch.setattr(module, "generate_family", recording)
    raw = dict(_EPS_REPLACED, eps_grid=[0.0, 0.2], out_dir=str(tmp_path))
    assert run(parse_config(raw))[0] == 0
    assert sorted(set(amplitudes)) == [0.0, 0.2]


@pytest.mark.parametrize("kind", ["constant", "xd_only", "oscillatory"])
def test_a_sweep_reads_kind_only_at_amplitude_0(tmp_path, kind):
    # every nonzero amplitude marches the oscillatory family
    raw = dict(_EPS_REPLACED, kind=kind, eps_grid=[0.0, 0.2],
               out_dir=str(tmp_path))
    _, reports = run(parse_config(raw))
    assert [(r.params["kind"], r.params["eps"]) for r in reports] == \
        [(kind, 0.0)] * 2 + [("oscillatory", 0.2)] * 2


def _count_plans(monkeypatch):
    """The (mesh id, rows, cols) of every scatter plan built from now on."""
    built = []
    plan_class = degenlab.assembly._ScatterPlan

    def counting(mesh, rows, cols):
        built.append((id(mesh), rows, cols))
        return plan_class(mesh, rows, cols)

    monkeypatch.setattr(degenlab.assembly, "_ScatterPlan", counting)
    return built


def test_rerun_of_a_sweep_builds_no_plans(tmp_path, monkeypatch, capsys):
    # build_mesh interns the sweep's mesh and its refinement, and with them
    # every per-mesh table, so a second run in one process builds none
    # (the config of the sweep_osc_d1 benchmark workload)
    degenlab.mesh._interned.cache_clear()
    cfg = parse_config(dict(command="sweep", dim=1, mesh_M=32,
                            time_step=1.0 / 32, time_count=32,
                            kind="oscillatory", eps=0.2, p=3.0,
                            lambda_grid=[1.0, 10.0, 100.0, 1000.0],
                            out_dir=str(tmp_path / "out")))
    built = _count_plans(monkeypatch)
    assert run(cfg)[0] == 0
    assert len(built) == len(set(built)) == 4
    assert len({mesh for mesh, _, _ in built}) == 2
    del built[:]
    assert run(cfg)[0] == 0
    assert built == []


def test_p_grid_sweep_builds_the_refined_plans_once(tmp_path, monkeypatch,
                                                    capsys):
    # the mesh and its refinement: one geometry each, one mesh each
    degenlab.mesh._interned.cache_clear()
    built = _count_plans(monkeypatch)
    path = _small_sweep(tmp_path, p_grid=[2.0, 3.0, 4.0])
    assert main(["run", path]) == 0
    assert len(built) == len(set(built))
    assert len({mesh for mesh, _, _ in built}) == 2


def _counting(monkeypatch, module, name):
    """The calls of module.name from now on, one entry per call."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_p_grid_sweep_marches_each_field_once(tmp_path, monkeypatch):
    # the golden sweep: 2 amplitudes, each on its mesh and the refinement
    raw = dict(GOLDEN["sweep"], p_grid=[2.0, 3.0, 4.0])
    marches = _counting(monkeypatch, degenlab.solver, "march_system")
    code, reports = run(parse_config(dict(raw, out_dir=str(tmp_path))))
    assert code == 0 and len(marches) == 4
    assert [(r.params["p"], r.params["eps"], r.params["lambda"])
            for r in reports] == [(p, e, lam) for p in raw["p_grid"]
                                  for e in raw["eps_grid"]
                                  for lam in raw["lambda_grid"]]
    # the reports of one p at a time, concatenated in p order
    alone = [r for p in raw["p_grid"] for r in run(parse_config(
        dict(raw, p_grid=[p], out_dir=str(tmp_path))))[1]]
    assert len(marches) == 4 + 4 * 3
    assert [r.csv_row() for r in reports] == [r.csv_row() for r in alone]
    assert [r.to_json() for r in reports] == [r.to_json() for r in alone]


@pytest.mark.parametrize("command, marched", [
    ("caccioppoli", 4), ("wlemma", 2), ("lipschitz", 2)])
def test_a_local_command_assembles_once_per_run(tmp_path, monkeypatch,
                                                command, marched):
    # n_solutions x lambdas marches, all through the problem's one marcher
    masses = _counting(monkeypatch, degenlab.solver, "assemble_weighted_mass")
    splits = _counting(monkeypatch, degenlab.solver, "stiffness_levels")
    marches = _counting(monkeypatch, degenlab.solver, "march_system")
    structure = _counting(monkeypatch, degenlab.harness,
                          "check_structure_condition")
    assert run(parse_config(dict(GOLDEN[command],
                                 out_dir=str(tmp_path))))[0] == 0
    assert len(marches) == marched
    assert len(masses) == len(splits) == 1
    assert len(structure) == (1 if command == "wlemma" else 0)


def test_a_local_command_samples_each_seed_sources_once(tmp_path,
                                                         monkeypatch):
    # 2 solutions x 2 lambdas: the F and f of each of the 2 seeds are
    # sampled for the first lambda and kept for the second
    samples = _counting(monkeypatch, degenlab.assembly, "sample_nodes")
    raw = GOLDEN["caccioppoli"]
    assert (raw["n_solutions"], len(raw["lambda_grid"])) == (2, 2)
    assert run(parse_config(dict(raw, out_dir=str(tmp_path))))[0] == 0
    assert len(samples) == 4


def test_the_sweep_samples_its_sources_once_per_mesh(tmp_path, monkeypatch):
    # F and f on the mesh and on its refinement, each sampled for the first
    # amplitude and kept for the second
    samples = _counting(monkeypatch, degenlab.assembly, "sample_nodes")
    raw = GOLDEN["sweep"]
    assert (raw["eps_grid"], raw["with_F"], raw["with_f"]) == \
        ([0.0, 0.2], True, True)
    assert run(parse_config(dict(raw, out_dir=str(tmp_path))))[0] == 0
    assert len(samples) == 4


@pytest.mark.parametrize("command", ["caccioppoli", "wlemma", "lipschitz"])
def test_a_local_command_writes_what_fresh_assembly_writes(
        tmp_path, monkeypatch, command):
    cfg = parse_config(dict(GOLDEN[command], out_dir=str(tmp_path)))

    def artifacts():
        run(cfg)
        return [(tmp_path / name).read_bytes()
                for name in ("reports.csv", "run.json")]

    shared = artifacts()
    # every march on a new marcher, the structure condition sampled at
    # every check, every cell set found again
    monkeypatch.setattr(ProblemSpec, "marcher", lambda self: Marcher(
        self.mesh, self.coeffs, self.config))
    monkeypatch.setattr(ProblemSpec, "structure_condition",
                        lambda self: check_structure_condition(self.coeffs,
                                                               self.mesh))
    monkeypatch.setattr(degenlab.mesh, "_cached",
                        lambda mesh, key, build: build())
    masses = _counting(monkeypatch, degenlab.solver, "assemble_weighted_mass")
    assert artifacts() == shared
    assert len(masses) == (4 if command == "caccioppoli" else 2)


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
    # entry by entry the stiffness of the config's field at t = 0
    cfg = load_config(path)
    problem = degenlab.cli._problem(cfg)
    want = assemble_stiffness(problem.mesh, problem.coeffs,
                              cfg["lambda"]).matrix
    K = mmread(str(out / "stiffness.mtx")).tocsr()
    assert K.shape == want.shape == (5, 5)
    assert K.nnz == want.nnz > 0
    assert K.indptr.tolist() == want.indptr.tolist()
    assert K.indices.tolist() == want.indices.tolist()
    assert K.data.tolist() == want.data.tolist()


def test_mms_command_emits_table_and_plot(tmp_path):
    path = _write_cfg(tmp_path, command="mms", dim=1, time_step=0.125,
                      time_count=8, mms_meshes=[8, 16, 32])
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


def test_a_negative_seed_from_the_command_line_is_refused_by_name(
        tmp_path, capsys):
    # --seed and --out go into the config before any check runs
    path = _small_sweep(tmp_path, lambda_grid=[3.0])
    alt = str(tmp_path / "alt_out")
    assert main(["run", path, "--out", alt, "--seed", "-3"]) == 2
    assert "config error: key 'seed' must be at least 0 for command " \
        "'sweep', got -3" in capsys.readouterr().err
    assert not os.path.exists(alt)


def test_an_empty_out_dir_from_the_command_line_is_refused_by_name(
        tmp_path, capsys):
    path = _small_sweep(tmp_path, lambda_grid=[3.0])
    assert main(["run", path, "--out", ""]) == 2
    assert "config error: key 'out_dir' must be a non-empty path for " \
        "command 'sweep', got ''" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_duality_marches_the_seeds_from_the_config_seed(tmp_path):
    path = _write_cfg(tmp_path, command="duality", mesh_M=8, time_count=4,
                      duality_seeds=2, kind="xd_only", eps=0.2)
    col = CSV_HEADER.split(",").index("seed")
    csv = {}
    for seed in (0, 7):
        out = str(tmp_path / ("out_%d" % seed))
        assert main(["run", path, "--out", out, "--seed", str(seed)]) == 0
        with open(os.path.join(out, "reports.csv")) as fh:
            csv[seed] = fh.read()
    row = csv[7].strip().split("\n")[1].split(",")
    assert int(float(row[col])) in (7, 8)
    assert csv[7] != csv[0]


def _recording_fields(monkeypatch):
    """(seed, eps) of every generate_family call from now on."""
    made = []
    for module in (degenlab.cli, degenlab.harness):
        real = module.generate_family

        def recording(seed, kind, nu, eps, *args, real=real, **kwargs):
            made.append((seed, eps))
            return real(seed, kind, nu, eps, *args, **kwargs)

        monkeypatch.setattr(module, "generate_family", recording)
    return made


def test_duality_builds_only_the_fields_it_marches(tmp_path, monkeypatch):
    # the seeds 7 and 8 at the config's eps, and the problem's field at
    # amplitude 0
    made = _recording_fields(monkeypatch)
    raw = dict(GOLDEN["duality"], seed=7, out_dir=str(tmp_path))
    assert (raw["duality_seeds"], raw["eps"]) == (2, 0.2)
    assert run(parse_config(raw))[0] == 0
    assert sorted(made) == [(7, 0.0), (7, 0.2), (8, 0.2)]


@pytest.mark.parametrize("dim", [1, 2])
def test_duality_over_a_lambda_grid_derives_each_seed_once(tmp_path,
                                                           monkeypatch, dim):
    # one row per lambda, each the row of a run at that lambda alone; the
    # sources (F, f, B, b) and the field of each of the 2 seeds are built
    # for the first lambda and kept for the others
    raw = dict(GOLDEN["duality"], dim=dim, seed=7,
               lambda_grid=[0.5, 2.0, 8.0])
    assert raw["duality_seeds"] == 2
    made = _recording_fields(monkeypatch)
    samples = _counting(monkeypatch, degenlab.assembly, "sample_nodes")
    assert main(["run", _write_cfg(tmp_path, **raw)]) == 0
    assert len(samples) == (2 * dim + 2) * 2
    assert sorted(made) == [(7, 0.0), (7, 0.2), (8, 0.2)]
    rows = (tmp_path / "out" / "reports.csv").read_text().splitlines()
    assert len(rows) == 4
    for lam, row in zip(raw["lambda_grid"], rows[1:]):
        out = str(tmp_path / ("out_%r" % lam))
        alone = dict(raw, lambda_grid=None, out_dir=out, **{"lambda": lam})
        assert run(parse_config(alone))[0] == 0
        with open(os.path.join(out, "reports.csv")) as fh:
            assert fh.read().splitlines() == [rows[0], row]


def test_corollary2_marches_once_for_its_p_grid(tmp_path, monkeypatch):
    raw = dict(GOLDEN["corollary2"], out_dir=str(tmp_path))
    marches = _counting(monkeypatch, degenlab.solver, "march_system")
    code, reports = run(parse_config(raw))
    assert code == 0 and len(marches) == 1
    assert [r.params["p"] for r in reports] == raw["p_grid"]


def test_only_the_manufactured_case_commands_march_through_the_march_wrapper(
        tmp_path, monkeypatch):
    # corollary2 and mms march a manufactured case's sources through
    # solver.march; every other golden config marches through the marcher
    # of its problem, or of its own, and never calls the wrapper
    callers, current = set(), []
    wrapper = degenlab.solver.march

    def recording(*args, **kwargs):
        callers.add(current[0])
        return wrapper(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("degenlab") \
                and getattr(module, "march", None) is wrapper:
            monkeypatch.setattr(module, "march", recording)
    assert degenlab.solver.march is recording
    for name, raw in GOLDEN.items():
        current[:] = [name]
        run(parse_config(dict(raw, out_dir=str(tmp_path / name))))
    assert callers == {"corollary2", "mms"}


def test_only_the_commands_that_march_the_sources_build_them():
    # a local command synthesizes its own sources and duality_check its
    # own per seed, so their problems carry none
    for command in degenlab.cli.COMMANDS:
        cfg = parse_config({"command": command})
        mesh = degenlab.cli._build_mesh(cfg, M=8)     # mms reads no mesh_M
        built = degenlab.cli._sources(cfg, mesh) != (None, None)
        assert built == ("with_F" in degenlab.cli._READS[command])
    for command in ("duality", "caccioppoli", "wlemma", "lipschitz"):
        problem = degenlab.cli._problem(parse_config({"command": command}))
        assert problem.F is None and problem.f is None


class _Recording(dict):
    """A config that records the key of every read through [] or get."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_golden_config_reads_exactly_its_command_row(tmp_path, name):
    # unread are only schema_version (read at parse time), the x' keys in
    # d = 1 and the scalar that a given grid replaces
    raw = GOLDEN[name]
    cfg = _Recording(parse_config(dict(raw, out_dir=str(tmp_path))))
    run(cfg)
    unread = {"schema_version"} \
        | ({"xprime_count", "xprime_length"} if raw["dim"] == 1 else set()) \
        | {key for key, grid in degenlab.cli._GRIDS.items() if grid in raw}
    row = degenlab.cli._READS[raw["command"]]
    assert unread <= row
    assert cfg.read == row - unread


def test_run_json_echoes_exactly_the_keys_the_command_reads(tmp_path):
    for name, raw in GOLDEN.items():
        out = tmp_path / name
        run(parse_config(dict(raw, out_dir=str(out))))
        echoed = json.loads((out / "run.json").read_text())["config"]
        assert set(echoed) == degenlab.cli._READS[raw["command"]], name


def test_the_table_of_reads_covers_every_command_and_key():
    cli = degenlab.cli
    assert sorted(cli._READS) == sorted(cli.COMMANDS)
    assert set().union(*cli._READS.values()) == set(cli._SCHEMA)
    for row in cli._READS.values():
        assert row <= set(cli._SCHEMA)
        # a grid replaces its scalar only where both are read
        assert all(key in row for key, grid in cli._GRIDS.items()
                   if grid in row)


def test_every_rule_binds_only_where_its_keys_are_read():
    # a rule names its commands only where it binds more narrowly than the
    # commands that read its key; each of them reads the key and every key
    # the rule's text names
    cli = degenlab.cli
    formatter = string.Formatter()
    for key, holds, rule, *commands in cli._COMMAND_RULES:
        readers = {c for c in cli.COMMANDS if key in cli._READS[c]}
        binds = set(commands[0]) if commands else readers
        assert binds and binds <= readers, key
        assert not commands or binds != readers, key
        named = {field for _, field, _, _ in formatter.parse(rule) if field}
        assert all(named | {key} <= cli._READS[c] for c in binds), key


def test_the_problem_keeps_rho0_where_the_command_reads_it():
    # the sweep's oscillation radii and the reports' rho0 column; every
    # other command that builds a problem reads no rho0 and marches at the
    # default 1.0
    cfg = parse_config({"command": "sweep", "rho0": 0.5})
    assert degenlab.cli._problem(cfg).rho0 == 0.5
    for command in ("solve", "trace", "duality", "caccioppoli", "wlemma",
                    "lipschitz"):
        assert degenlab.cli._problem(parse_config({"command": command})) \
            .rho0 == 1.0


@pytest.mark.parametrize("command, keys", [
    ("duality", {"p": 3.0}), ("duality", {"rho0": 0.5}),
    ("duality", {"p": 2.0, "rho0": 1.0}), ("caccioppoli", {"rho0": 0.5}),
    ("wlemma", {"rho0": 1.0}), ("lipschitz", {"rho0": 2.0})])
def test_keys_that_only_label_a_row_are_refused(tmp_path, capsys, command,
                                                keys):
    # the local commands label rho0 with their outer radius, and duality
    # labels p 2 (the L2 pairing) and rho0 the problem's 1.0: no value of
    # these keys changes a result, so naming one is a config error
    path = _write_cfg(tmp_path, command=command, **keys)
    assert main(["run", path]) == 2
    assert "config error: config key(s) that command %r does not read: %s" \
        % (command, ", ".join(sorted(keys))) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_loads_no_scipy_io():
    # only solve's export_matrix writes a matrix; a child process, so that
    # this suite's own imports of scipy.io cannot hide one at module load
    code = "import sys, degenlab, degenlab.cli; print('scipy.io' in " \
        "sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_linear_tol_is_an_unknown_config_key(tmp_path, capsys):
    # every solve is checked against the solver's own backward-error bound
    path = _write_cfg(tmp_path, command="solve", linear_tol=1e-10)
    assert main(["run", path]) == 2
    assert "config error: unknown config key(s): linear_tol" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_console_entry_point_runs(tmp_path):
    path = _small_sweep(tmp_path, lambda_grid=[2.0])
    proc = subprocess.run([sys.executable, "-m", "degenlab", "run", path],
                          capture_output=True, text=True, env=_child_env())
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
