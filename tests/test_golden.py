"""Golden-numbers lock: one small config per CLI command plus a battery of
weighted norms, compared against values stored in ``tests/golden/values.json``
as ``float.hex``.

Report rows must match in check id and pass flag exactly; every number may
move by at most 1e-12 relative (the drift a reordered summation may cause).
Each test prints how many values are bitwise equal.  Regenerate with
``python tests/golden/regen.py`` only when a value is meant to move, and
record each moved value and why.
"""

import importlib.util
import json
import math
import os

import numpy as np
import pytest

import degenlab.mesh
import degenlab.solver
from degenlab import (Cylinder, NormSpec, build_mesh, generate_family, march,
                      smooth_random_closure, weighted_norm)
from degenlab.cli import COMMANDS, parse_config, run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "values.json")
RTOL = 1e-12

# explicit keys for every setting that shapes the numbers, so a change of a
# default does not move a golden value
CONFIGS = {
    "solve": dict(command="solve", dim=2, mesh_M=6, xprime_count=4,
                  time_step=0.1, time_count=4, kind="oscillatory", eps=0.2,
                  seed=2, theta=0.5, with_F=True, with_f=True),
    "mms": dict(command="mms", dim=1, mms_meshes=[4, 8, 16],
                mms_mode="mixed", time_step=0.25, time_count=4, p=3.0),
    "sweep": dict(command="sweep", dim=1, mesh_M=8, time_step=0.125,
                  time_count=8, kind="oscillatory", eps_grid=[0.0, 0.2],
                  p_grid=[3.0], lambda_grid=[1.0, 10.0], seed=1,
                  with_F=True, with_f=True),
    "caccioppoli": dict(command="caccioppoli", dim=1, mesh_M=24,
                        time_step=0.1, time_count=10, kind="xd_only",
                        eps=0.2, n_solutions=2, lambda_grid=[1.0, 10.0]),
    "wlemma": dict(command="wlemma", dim=1, mesh_M=24, time_step=0.1,
                   time_count=10, kind="constant", n_solutions=2),
    "lipschitz": dict(command="lipschitz", dim=1, mesh_M=24, time_step=0.1,
                      time_count=10, kind="xd_only", eps=0.2, n_solutions=2),
    "duality": dict(command="duality", dim=2, mesh_M=6, xprime_count=4,
                    time_step=0.1, time_count=5, kind="constant", eps=0.2,
                    seed=0, duality_seeds=2, **{"lambda": 3.0}),
    "corollary2": dict(command="corollary2", dim=1, mesh_M=16,
                       time_step=0.05, time_count=10, p_grid=[2.0, 3.0]),
    "trace": dict(command="trace", dim=1, mesh_M=16, time_step=0.1,
                  time_count=5, n_fields=4, p_grid=[2.0, 4.0]),
    "hardy": dict(command="hardy", dim=2, mesh_M=8, xprime_count=4,
                  n_fields=4, p_grid=[1.5, 3.0]),
    "oscillation": dict(command="oscillation", dim=1, mesh_M=8,
                        time_step=0.1, time_count=4, kind="oscillatory",
                        eps=0.3, rho_grid=[0.25, 0.5]),
}

# the full text of the plot scripts the sweep and mms CONFIGS write
PLOTS = {
    ("sweep", "plot_ratio.gp"): r"""# gnuplot script generated alongside reports.csv
set datafile separator ","
set logscale x
set xlabel "lambda"
set ylabel "lhs/rhs ratio"
set key off
set term pngcairo size 900,600
set output "ratio_lambda.png"
plot "reports.csv" every ::1 using 2:11 with points pt 7
""",
    ("mms", "plot_error.gp"): r"""# gnuplot script generated alongside mms.csv
set datafile separator ","
set logscale xy
set xlabel "1/M"
set ylabel "error"
set key left top
set term pngcairo size 900,600
set output "error_h.png"
ref1(x) = 0.455517 * x
ref2(x) = 0.626261 * x**2
plot "mms.csv" every ::1 using (1/$1):3 with linespoints title "weighted solution error", \
     "mms.csv" every ::1 using (1/$1):4 with linespoints title "gradient error", \
     ref1(x) title "slope 1" dt 2, \
     ref2(x) title "slope 2" dt 3
""",
}

_ORDERS = ("0", "1_xd", "1_full", "2_full")
_WEIGHTS = (-0.5, 0.0, 1.0)
_PS = (1.5, 3.0)


def _hex(x):
    return float(x).hex()


def _csv_numbers(text):
    """Every cell below the header row, as float.hex."""
    return [_hex(cell) for line in text.strip().split("\n")[1:]
            for cell in line.split(",")]


def run_config(name, out_dir):
    """{"reports": [[check_id, lhs, rhs, ratio, pass]], "<name>.csv": [...]}
    for one config; numbers as float.hex."""
    raw = dict(CONFIGS[name], out_dir=str(out_dir), emit_plots=False)
    _, reports = run(parse_config(raw))
    got = {"reports": [[r.check_id, _hex(r.lhs), _hex(r.rhs), _hex(r.ratio),
                        r.passed] for r in reports]}
    for fname in sorted(os.listdir(out_dir)):
        if fname.endswith(".csv") and fname != "reports.csv":
            with open(os.path.join(out_dir, fname)) as fh:
                got[fname] = _csv_numbers(fh.read())
    return got


def _battery_solutions():
    """A time-dependent d = 1 march and a d = 2 march, both with F and f."""
    m1 = build_mesh(1, 4.0, 12, 2.0, time_step=0.1, time_count=6)
    m2 = build_mesh(2, 4.0, 6, 1.5, xprime_count=4, xprime_length=2 * np.pi,
                    time_step=0.1, time_count=4)
    sols = {}
    for mesh, kind in ((m1, "oscillatory"), (m2, "xd_only")):
        d, xl = mesh.dim, mesh.xprime_length
        coeffs = generate_family(3, kind, 0.5, 0.2, dim=d, xp_length=xl)
        F = tuple(smooth_random_closure(40 + i, d, xp_length=xl)
                  for i in range(d))
        f = smooth_random_closure(50, d, xp_length=xl)
        sols[d] = march(mesh, coeffs, 2.0, F=F, f=f)
    return sols


def norm_battery():
    """weighted_norm of each battery solution for every derivative order,
    weight exponent and p, over the whole window and over a cylinder."""
    out = {}
    for d, sol in _battery_solutions().items():
        regions = {"all": None, "cyl": Cylinder(0.4, 0.0, 1.5, 1.0)}
        for order in _ORDERS:
            for alpha in _WEIGHTS:
                for p in _PS:
                    for rname, region in regions.items():
                        key = "d%d/%s/%g/%g/%s" % (d, order, alpha, p, rname)
                        spec = NormSpec(p, alpha, order, region=region)
                        out[key] = _hex(weighted_norm(sol, spec))
    return out


def collect(tmp_dir):
    """Everything the goldens store, computed by the code under test."""
    cli = {}
    for name in CONFIGS:
        out_dir = os.path.join(str(tmp_dir), name)
        cli[name] = run_config(name, out_dir)
    return {"cli": cli, "norms": norm_battery()}


def _load():
    with open(GOLDEN) as fh:
        return json.load(fh)


def _close(want, got):
    """(bitwise, within RTOL) for two float.hex strings."""
    a, b = float.fromhex(want), float.fromhex(got)
    if want == got or (math.isnan(a) and math.isnan(b)):
        return True, True
    return False, abs(a - b) <= RTOL * max(abs(a), abs(b))


def _compare(label, want, got, tally, bad):
    if len(want) != len(got):
        bad.append("%s: %d values, golden has %d" % (label, len(got),
                                                     len(want)))
        return
    for k, (w, g) in enumerate(zip(want, got)):
        bitwise, close = _close(w, g)
        tally[0] += bitwise
        tally[1] += 1
        if not close:
            bad.append("%s[%d]: %r, golden %r" % (label, k,
                                                  float.fromhex(g),
                                                  float.fromhex(w)))


def test_golden_covers_every_command():
    assert sorted(CONFIGS) == sorted(COMMANDS)
    assert sorted(_load()["cli"]) == sorted(COMMANDS)


def test_cli_outputs_match_goldens(tmp_path):
    golden = _load()["cli"]
    tally, bad = [0, 0], []
    for name in CONFIGS:
        want = golden[name]
        got = run_config(name, tmp_path / name)
        assert sorted(got) == sorted(want), name
        w_rows, g_rows = want["reports"], got["reports"]
        assert [(r[0], r[4]) for r in g_rows] == \
            [(r[0], r[4]) for r in w_rows], name
        _compare(name + "/reports", [v for r in w_rows for v in r[1:4]],
                 [v for r in g_rows for v in r[1:4]], tally, bad)
        for fname in sorted(k for k in want if k != "reports"):
            _compare(name + "/" + fname, want[fname], got[fname], tally,
                     bad)
    print("cli goldens: %d of %d values bitwise equal" % tuple(tally))
    assert not bad, "\n".join(bad[:20])


def test_no_golden_factorization_interchanges_rows(tmp_path, monkeypatch):
    # without a row interchange every solve runs the two triangular band
    # solves; a golden config whose dgbtrf pivots would move every solve
    # of it to the dgbtrs fallback, so none may, and the duality config
    # (forward and transposed solves) factors at all
    factor = degenlab.solver._BandLU.factor
    interchanged = {}

    def recording(lu, *args, **kwargs):
        factor(lu, *args, **kwargs)
        interchanged[name].append(lu._interchanged)

    monkeypatch.setattr(degenlab.solver._BandLU, "factor", recording)
    for name in CONFIGS:
        interchanged[name] = []
        run_config(name, tmp_path / name)
    assert not any(any(flags) for flags in interchanged.values())
    assert interchanged["duality"]


def _artifact_bytes(out_dir):
    """Every artifact of a run by name, the manifest without its timestamp."""
    got = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            got[fname] = fh.read()
    manifest = json.loads(got.pop("MANIFEST.json"))
    del manifest["created_utc"]
    return got, manifest


def test_plot_scripts_match_the_pinned_text(tmp_path):
    for (name, fname), want in PLOTS.items():
        out_dir = tmp_path / name
        run(parse_config(dict(CONFIGS[name], out_dir=str(out_dir),
                              emit_plots=True)))
        assert (out_dir / fname).read_text() == want, fname


def test_warm_reruns_are_byte_identical_to_cold(tmp_path):
    # each config twice in one process, plots on, into one directory: first
    # on fresh meshes (intern cleared), then on the interned meshes and the
    # tables the first run built, factors included
    for name in CONFIGS:
        raw = dict(CONFIGS[name], out_dir=str(tmp_path / name),
                   emit_plots=True)
        runs = []
        degenlab.mesh._interned.cache_clear()
        for _ in range(2):
            run(parse_config(raw))
            runs.append(_artifact_bytes(raw["out_dir"]))
        cold, warm = runs
        assert "run.json" in cold[0], name
        assert all(fname in cold[0] for n, fname in PLOTS if n == name)
        assert warm == cold, name


def test_norm_battery_matches_goldens():
    want = _load()["norms"]
    got = norm_battery()
    assert sorted(got) == sorted(want)
    tally, bad = [0, 0], []
    for key in sorted(want):
        _compare(key, [want[key]], [got[key]], tally, bad)
    print("norm goldens: %d of %d values bitwise equal" % tuple(tally))
    assert not bad, "\n".join(bad[:20])


def _regen():
    """tests/golden/regen.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(
        "regen", os.path.join(os.path.dirname(GOLDEN), "regen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regen_check_against_a_values_file(tmp_path, capsys):
    # against the stored file it prints the paths --check prints; against
    # a copy with one value moved, that path too, and nothing else
    regen = _regen()
    runs = {}
    stored = _load()
    path = "/cli/hardy/reports[0][1]"
    moved_copy = json.loads(json.dumps(stored))
    cell = moved_copy["cli"]["hardy"]["reports"][0]
    cell[1] = (float.fromhex(cell[1]) * 2).hex()
    other = tmp_path / "values.json"
    other.write_text(json.dumps(moved_copy))
    for name, argv in (("check", ["--check"]),
                       ("stored", ["--check", "--against", GOLDEN]),
                       ("moved", ["--check", "--against", str(other)])):
        status = regen.main(argv)
        lines = capsys.readouterr().out.splitlines()
        paths = [line.split(": ", 1)[0] for line in lines[:-1]]
        assert lines[-1].startswith("%d value(s) differ" % len(paths))
        assert status == (1 if paths else 0)
        runs[name] = paths
    assert runs["stored"] == runs["check"]
    assert sorted(runs["moved"]) == sorted(set(runs["check"]) | {path})
    assert lines[-1].endswith("; the largest relative move, 0.5 at %s, is "
                              "over test_golden.RTOL = 1e-12" % path)


def test_regen_check_names_the_largest_relative_move(monkeypatch, capsys):
    # a value moved by about 1e-15 relative is within RTOL; a moved pass
    # flag is no float, so its move counts as infinite
    regen = _regen()
    computed = _load()
    row = computed["cli"]["hardy"]["reports"][0]
    a = float.fromhex(row[2])
    b = a * (1 + 2.0 ** -50)
    row[2] = _hex(b)
    monkeypatch.setattr(regen.test_golden, "collect",
                        lambda tmp_dir: json.loads(json.dumps(computed)))
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1 value(s) differ from %s; the largest relative move, %.2g at "
        "/cli/hardy/reports[0][2], is within test_golden.RTOL = 1e-12"
        % (GOLDEN, abs(b - a) / max(abs(a), abs(b))))
    row[4] = not row[4]
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "; the largest relative move, inf at /cli/hardy/reports[0][4], is "
        "over test_golden.RTOL = 1e-12")


def test_regen_only_rewrites_the_named_paths(tmp_path, monkeypatch):
    # on a copy of the values file, with the computed values moved at
    # three paths: --only rewrites the row and the norm it names, and every
    # other byte of the file stays, the third moved value included
    regen = _regen()
    with open(GOLDEN) as fh:
        text = fh.read()
    computed = json.loads(text)
    row = computed["cli"]["hardy"]["reports"][0]
    row[1] = _hex(2 * float.fromhex(row[1]))
    computed["norms"]["d1/0/-0.5/1.5/all"] = _hex(3.0)
    computed["cli"]["trace"]["reports"][0][2] = _hex(5.0)
    collected = []

    def collect(tmp_dir):
        collected.append(tmp_dir)
        return json.loads(json.dumps(computed))

    copy = tmp_path / "values.json"
    copy.write_text(text)
    monkeypatch.setattr(regen.test_golden, "GOLDEN", str(copy))
    monkeypatch.setattr(regen.test_golden, "collect", collect)
    assert regen.main(["--only", "/cli/hardy/reports[0]",
                       "/norms/d1/0/-0.5/1.5/all"]) == 0
    want = json.loads(text)
    want["cli"]["hardy"]["reports"][0] = row
    want["norms"]["d1/0/-0.5/1.5/all"] = _hex(3.0)
    got = copy.read_text()
    assert got == json.dumps(want, indent=1, sort_keys=True) + "\n"
    old, new = text.splitlines(), got.splitlines()
    assert len(old) == len(new)
    assert sum(a != b for a, b in zip(old, new)) == 2
    # a path that names no stored value is refused before anything is
    # computed, and the file is not written
    for path in ("/cli/nope", "/cli/hardy/reports[99]", "cli/hardy",
                 "/norms/d1/0", "/cli/hardy/reports[0][1][0]"):
        with pytest.raises(SystemExit) as refused:
            regen.main(["--only", path])
        assert refused.value.code == 2
    assert len(collected) == 1
    assert copy.read_text() == got


def test_regen_check_prints_its_platform_to_stderr(monkeypatch, capsys):
    # stdout keeps only the moved values and the count; the platform line
    # goes to stderr, with the OpenBLAS core unknown when scipy bundles none
    regen = _regen()
    stored = _load()
    monkeypatch.setattr(regen.test_golden, "collect",
                        lambda tmp_dir: json.loads(json.dumps(stored)))
    assert regen.main(["--check"]) == 0
    out, err = capsys.readouterr()
    assert out == "0 value(s) differ from %s\n" % GOLDEN
    line = "computed on: %s\n" % regen.platform()
    assert err == line
    scipy = pytest.importorskip("scipy")
    dispatch = " ".join(np._core._multiarray_umath.__cpu_dispatch__)
    assert line.startswith("computed on: numpy %s, scipy %s, numpy dispatch "
                           "%s, OpenBLAS core " % (np.__version__,
                                                   scipy.__version__,
                                                   dispatch))
    monkeypatch.setattr(regen.glob, "glob", lambda pattern: [])
    assert regen.platform().endswith(", OpenBLAS core unknown")
