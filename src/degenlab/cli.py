"""Config-driven front end: ``lab run config.json [--out DIR] [--jobs N]
[--seed S]``.

Configs are flat JSON with a schema version field and strict key checking.
Artifacts (reports CSV, JSON bundle with the config echo, plot scripts,
solution tables, matrix exports) are written atomically and listed with
content hashes in MANIFEST.json; timestamps appear only in the manifest so
re-runs are byte-identical.

Exit codes: 0 all checks passed, 1 at least one report failed, 2 config
error, 3 solver/assembly failure.
"""

import argparse
import hashlib
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np
from scipy.io import mmwrite

from .assembly import AssemblyError, assemble_stiffness
from .coefficients import generate_family, oscillation_scan
from .fields import random_w1p_field, smooth_random_closure
from .harness import (CSV_HEADER, DegenerateLocalSolution, ProblemSpec,
                      boundary_lipschitz, caccioppoli_ratio,
                      corollary2_check, duality_check, hardy_report,
                      locally_homogeneous_solution, main_estimate_sweep,
                      trace_report, w_estimate_ratio)
from .mesh import Cylinder, build_mesh
from .mms import convergence_study, default_case
from .solver import SolverError, TimeStepperConfig, march

COMMANDS = ("solve", "mms", "sweep", "caccioppoli", "wlemma", "lipschitz",
            "duality", "corollary2", "trace", "hardy", "oscillation")
KINDS = ("constant", "xd_only", "oscillatory")
SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_int(key, v):
    if not (_is_num(v) and float(v) == int(v)):
        raise ConfigError("key %r must be an integer, got %r" % (key, v))
    return int(v)


def _check_float(key, v):
    if not _is_num(v):
        raise ConfigError("key %r must be a number, got %r" % (key, v))
    return float(v)


def _check_bool(key, v):
    if not isinstance(v, bool):
        raise ConfigError("key %r must be a boolean, got %r" % (key, v))
    return v


def _check_str(key, v):
    if not isinstance(v, str):
        raise ConfigError("key %r must be a string, got %r" % (key, v))
    return v


def _check_numlist(key, v, integral=False):
    if v is None:
        return None
    if not isinstance(v, list) or not v:
        raise ConfigError("key %r must be a non-empty list" % key)
    out = []
    for item in v:
        out.append(_check_int(key, item) if integral
                   else _check_float(key, item))
    return out


_DEFAULTS = {
    "schema_version": SCHEMA_VERSION, "command": None,
    "dim": 1, "L_d": 4.0, "mesh_M": 48, "grading": 2.0,
    "xprime_count": 12, "xprime_length": 2 * np.pi,
    "time_step": 0.05, "time_count": 20,
    "nu": 0.5, "lambda": 1.0, "lambda_grid": None,
    "p": 2.0, "p_grid": None,
    "kind": "constant", "eps": 0.0, "eps_grid": None,
    "seed": 0, "rho0": 1.0,
    "theta": 1.0, "linear_tol": 1e-10,
    "with_F": True, "with_f": True,
    "mms_meshes": [16, 24, 32], "mms_mode": "f_only",
    "cyl_time": None, "cyl_radius": 0.5,
    "r_inner": 0.25, "r_outer": 0.5, "n_solutions": 3,
    "duality_seeds": 5, "n_fields": 50, "rho_grid": [0.25, 0.5],
    "out_dir": "lab_out", "emit_plots": True, "export_matrix": False,
}

_INT_KEYS = {"schema_version", "dim", "mesh_M", "xprime_count",
             "time_count", "seed", "n_solutions", "duality_seeds",
             "n_fields"}
_FLOAT_KEYS = {"L_d", "grading", "xprime_length", "time_step", "nu",
               "lambda", "p", "eps", "rho0", "theta", "linear_tol",
               "cyl_radius", "r_inner", "r_outer"}
_BOOL_KEYS = {"with_F", "with_f", "emit_plots", "export_matrix"}
_STR_KEYS = {"command", "kind", "mms_mode", "out_dir"}
_FLOATLIST_KEYS = {"lambda_grid", "p_grid", "eps_grid", "rho_grid"}
_INTLIST_KEYS = {"mms_meshes"}
_OPTIONAL_FLOAT_KEYS = {"cyl_time"}


def parse_config(raw):
    """Validate a raw mapping against the flat schema; unknown keys are
    rejected by name, defaults fill the gaps, and the result re-parses to
    itself."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_DEFAULTS))
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    if cfg["command"] is None:
        raise ConfigError("config needs a 'command' key")
    for key in _INT_KEYS:
        cfg[key] = _check_int(key, cfg[key])
    for key in _FLOAT_KEYS:
        cfg[key] = _check_float(key, cfg[key])
    for key in _OPTIONAL_FLOAT_KEYS:
        if cfg[key] is not None:
            cfg[key] = _check_float(key, cfg[key])
    for key in _BOOL_KEYS:
        cfg[key] = _check_bool(key, cfg[key])
    for key in _STR_KEYS:
        cfg[key] = _check_str(key, cfg[key])
    for key in _FLOATLIST_KEYS:
        cfg[key] = _check_numlist(key, cfg[key])
    for key in _INTLIST_KEYS:
        cfg[key] = _check_numlist(key, cfg[key], integral=True)
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError("unsupported schema_version %r"
                          % cfg["schema_version"])
    if cfg["command"] not in COMMANDS:
        raise ConfigError("unknown command %r; expected one of %s"
                          % (cfg["command"], ", ".join(COMMANDS)))
    if cfg["kind"] not in KINDS:
        raise ConfigError("unknown coefficient kind %r" % cfg["kind"])
    if cfg["dim"] not in (1, 2):
        raise ConfigError("dim must be 1 or 2")
    if cfg["mms_mode"] not in ("f_only", "F_only", "mixed"):
        raise ConfigError("unknown mms_mode %r" % cfg["mms_mode"])
    if cfg["rho_grid"] is None:
        raise ConfigError("rho_grid must be a non-empty list")
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    return parse_config(raw)


# -- builders -------------------------------------------------------------------

def _build_mesh(cfg, M=None, refine_time=1):
    dim = cfg["dim"]
    return build_mesh(
        dim, cfg["L_d"], M or cfg["mesh_M"], cfg["grading"],
        xprime_count=cfg["xprime_count"] if dim == 2 else 1,
        xprime_length=cfg["xprime_length"] if dim == 2 else None,
        time_step=cfg["time_step"] / refine_time,
        time_count=cfg["time_count"] * refine_time)


def _coeffs(cfg, mesh):
    return generate_family(cfg["seed"], cfg["kind"], cfg["nu"], cfg["eps"],
                           dim=mesh.dim, xp_length=mesh.xprime_length)


def _sources(cfg, mesh):
    seed = cfg["seed"]
    F = None
    if cfg["with_F"]:
        F = tuple(smooth_random_closure(seed * 31 + 7 + i, mesh.dim,
                                        xp_length=mesh.xprime_length)
                  for i in range(mesh.dim))
    f = None
    if cfg["with_f"]:
        f = smooth_random_closure(seed * 31 + 3, mesh.dim,
                                  xp_length=mesh.xprime_length)
    return F, f


def _stepper(cfg):
    return TimeStepperConfig(theta=cfg["theta"], linear_tol=cfg["linear_tol"])


def _problem(cfg):
    mesh = _build_mesh(cfg)
    coeffs = _coeffs(cfg, mesh)
    F, f = _sources(cfg, mesh)
    return ProblemSpec(mesh, coeffs, F=F, f=f, config=_stepper(cfg),
                       seed=cfg["seed"], rho0=cfg["rho0"])


def _lambdas(cfg):
    return cfg["lambda_grid"] if cfg["lambda_grid"] else [cfg["lambda"]]


def _ps(cfg):
    return cfg["p_grid"] if cfg["p_grid"] else [cfg["p"]]


def _cylinder(cfg, mesh):
    t0 = cfg["cyl_time"] if cfg["cyl_time"] is not None \
        else mesh.total_time
    return Cylinder(t0, 0.0, cfg["cyl_radius"])


def _local_solutions(cfg, problem, lam):
    cyl = _cylinder(cfg, problem.mesh)
    sols = []
    for k in range(cfg["n_solutions"]):
        for attempt in range(3):
            try:
                sols.append(locally_homogeneous_solution(
                    problem, cyl, lam=lam,
                    seed=cfg["seed"] + k + 1000 * attempt))
                break
            except DegenerateLocalSolution:
                continue
        else:
            raise SolverError("no nontrivial local solution after 3 seeds")
    return sols


# -- commands -------------------------------------------------------------------

def _cmd_solve(cfg):
    mesh = _build_mesh(cfg)
    coeffs = _coeffs(cfg, mesh)
    F, f = _sources(cfg, mesh)
    sol = march(mesh, coeffs, cfg["lambda"], F=F, f=f, config=_stepper(cfg))
    lines = ["t,xprime,xd,u"]
    for n, t in enumerate(sol.times):
        for j in range(mesh.M + 1):
            for m in range(mesh.xprime_count):
                lines.append("%.17g,%.17g,%.17g,%.17g" % (
                    t, mesh.xprime_nodes[m], mesh.xd_nodes[j],
                    sol.levels[n, j, m]))
    artifacts = [("solution.csv", "\n".join(lines) + "\n")]
    if cfg["export_matrix"]:
        K = assemble_stiffness(mesh, coeffs, cfg["lambda"],
                               _self_check=False)
        buf = io.BytesIO()
        mmwrite(buf, K.matrix)
        artifacts.append(("stiffness.mtx", buf.getvalue()))
    return [], artifacts, []


def _cmd_mms(cfg):
    meshes = cfg["mms_meshes"]
    if len(meshes) < 3:
        raise ConfigError("mms_meshes needs at least 3 entries")
    M0 = meshes[0]
    case = default_case(cfg["dim"], lam=cfg["lambda"], Ld=cfg["L_d"],
                        T=cfg["time_step"] * cfg["time_count"],
                        mode=cfg["mms_mode"])
    ladder = []
    for M in meshes:
        scale = (M / M0) ** 2
        if abs(scale - round(scale)) > 1e-9:
            raise ConfigError("mms_meshes must grow by integer-square "
                              "factors for dt proportional to h^2")
        ladder.append(_build_mesh(cfg, M=M, refine_time=int(round(scale))))
    table = convergence_study(case, ladder, p=cfg["p"], theta=cfg["theta"],
                              linear_tol=cfg["linear_tol"])
    artifacts = [("mms.csv", table.csv())]
    plots = [("plot_error.gp", "error_h", "mms.csv")]
    return [], artifacts, plots


def _cmd_sweep(cfg, jobs):
    problem = _problem(cfg)
    eps_grid = cfg["eps_grid"] if cfg["eps_grid"] else [cfg["eps"]]
    reports = []
    for p in _ps(cfg):
        reports.extend(main_estimate_sweep(problem, p, _lambdas(cfg),
                                           eps_grid=eps_grid, jobs=jobs))
    plots = [("plot_ratio.gp", "ratio_lambda", "reports.csv")]
    return reports, [], plots


def _cmd_caccioppoli(cfg):
    problem = _problem(cfg)
    reports = []
    for lam in _lambdas(cfg):
        for sol in _local_solutions(cfg, problem, lam):
            reports.extend(caccioppoli_ratio(sol, cfg["r_inner"],
                                             cfg["r_outer"]))
    return reports, [], []


def _cmd_wlemma(cfg):
    problem = _problem(cfg)
    reports = []
    for lam in _lambdas(cfg):
        for sol in _local_solutions(cfg, problem, lam):
            reports.append(w_estimate_ratio(sol, cfg["r_inner"],
                                            cfg["r_outer"]))
    return reports, [], []


def _cmd_lipschitz(cfg):
    problem = _problem(cfg)
    reports = []
    for lam in _lambdas(cfg):
        for sol in _local_solutions(cfg, problem, lam):
            reports.append(boundary_lipschitz(sol, cfg["r_inner"]))
    return reports, [], []


def _cmd_duality(cfg):
    problem = _problem(cfg)
    report = duality_check(problem, p=cfg["p"],
                           seeds=range(cfg["duality_seeds"]),
                           lam=cfg["lambda"], kind=cfg["kind"],
                           eps=cfg["eps"])
    return [report], [], []


def _cmd_corollary2(cfg):
    mesh = _build_mesh(cfg)
    case = default_case(cfg["dim"], lam=cfg["lambda"], Ld=cfg["L_d"],
                        T=mesh.total_time, mode="f_only")
    reports = [corollary2_check(case, mesh, p, config=_stepper(cfg))
               for p in _ps(cfg)]
    return reports, [], []


def _cmd_trace(cfg):
    mesh = _build_mesh(cfg)
    reports = []
    for p in _ps(cfg):
        for s in range(cfg["n_fields"]):
            fld = random_w1p_field(cfg["seed"] + s, mesh)
            reports.append(trace_report(fld, p, seed=cfg["seed"] + s))
        coeffs = _coeffs(cfg, mesh)
        F, f = _sources(cfg, mesh)
        sol = march(mesh, coeffs, cfg["lambda"], F=F, f=f,
                    config=_stepper(cfg))
        reports.append(trace_report(sol, p, skip_initial=sol.time_count
                                    // 10, seed=cfg["seed"]))
    return reports, [], []


def _cmd_hardy(cfg):
    mesh = _build_mesh(cfg)
    reports = []
    for p in _ps(cfg):
        for s in range(cfg["n_fields"]):
            fld = random_w1p_field(cfg["seed"] + s, mesh)
            reports.append(hardy_report(fld, p, seed=cfg["seed"] + s))
    return reports, [], []


def _cmd_oscillation(cfg):
    mesh = _build_mesh(cfg)
    coeffs = _coeffs(cfg, mesh)
    gamma, osc_reports = oscillation_scan(coeffs, mesh, cfg["rho_grid"])
    lines = ["center_t,center_xprime,center_xd,rho,value"]
    lines.extend(r.csv_row() for r in osc_reports)
    summary = json.dumps({"gamma": gamma, "kind": cfg["kind"],
                          "eps": cfg["eps"]}, sort_keys=True, indent=2)
    return [], [("oscillation.csv", "\n".join(lines) + "\n"),
                ("oscillation.json", summary + "\n")], []


# -- plot scripts ----------------------------------------------------------------

def emit_plot_script(csv_text, csv_name, kind):
    """Standalone gnuplot script for the named CSV; header-only input still
    produces a script (with a warning on stderr)."""
    lines = csv_text.splitlines()
    if not lines:
        raise ValueError("empty CSV: no header to plot from")
    header = lines[0].split(",")
    rows = lines[1:]
    if not rows:
        print("warning: %s has no data rows; plot script emitted anyway"
              % csv_name, file=sys.stderr)
    out = ["# gnuplot script generated alongside %s" % csv_name,
           'set datafile separator ","']
    if kind == "ratio_lambda":
        for col in ("lambda", "ratio"):
            if col not in header:
                raise ValueError("CSV %s lacks a %r column" % (csv_name,
                                                               col))
        ilam = header.index("lambda") + 1
        irat = header.index("ratio") + 1
        out += ["set logscale x", 'set xlabel "lambda"',
                'set ylabel "lhs/rhs ratio"', "set key off",
                "set term pngcairo size 900,600",
                'set output "ratio_lambda.png"',
                'plot "%s" every ::1 using %d:%d with points pt 7'
                % (csv_name, ilam, irat)]
    elif kind == "error_h":
        for col in ("M", "e0", "e1"):
            if col not in header:
                raise ValueError("CSV %s lacks a %r column" % (csv_name,
                                                               col))
        c1 = c2 = 1.0
        if rows:
            first = rows[0].split(",")
            M0 = float(first[header.index("M")])
            e0 = float(first[header.index("e0")])
            e1 = float(first[header.index("e1")])
            c2 = e0 / (1.0 / M0) ** 2 if e0 > 0 else 1.0
            c1 = e1 / (1.0 / M0) if e1 > 0 else 1.0
        ie0 = header.index("e0") + 1
        ie1 = header.index("e1") + 1
        im = header.index("M") + 1
        out += ["set logscale xy", 'set xlabel "1/M"',
                'set ylabel "error"', "set key left top",
                "set term pngcairo size 900,600",
                'set output "error_h.png"',
                "ref1(x) = %.6g * x" % c1,
                "ref2(x) = %.6g * x**2" % c2,
                'plot "%s" every ::1 using (1/$%d):%d with linespoints '
                'title "weighted solution error", \\' % (csv_name, im, ie0),
                '     "%s" every ::1 using (1/$%d):%d with linespoints '
                'title "gradient error", \\' % (csv_name, im, ie1),
                '     ref1(x) title "slope 1" dt 2, \\',
                '     ref2(x) title "slope 2" dt 3']
    else:
        raise ValueError("unknown plot kind %r" % (kind,))
    return "\n".join(out) + "\n"


# -- artifact plumbing -------------------------------------------------------------

def _atomic_write(path, data):
    if isinstance(data, str):
        data = data.encode()
    tmp = path + ".part"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return data


def write_artifacts(out_dir, artifacts):
    """Atomically write named artifacts and a MANIFEST.json with a sha256
    per artifact.  The manifest is the only place a timestamp appears."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for name, data in artifacts:
        raw = _atomic_write(os.path.join(out_dir, name), data)
        entries.append({"name": name,
                        "sha256": hashlib.sha256(raw).hexdigest(),
                        "bytes": len(raw)})
    manifest = {"schema_version": SCHEMA_VERSION,
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "artifacts": entries}
    _atomic_write(os.path.join(out_dir, "MANIFEST.json"),
                  json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def run(cfg, jobs=1):
    """Execute one parsed config; returns (exit_code, reports)."""
    handlers = {"solve": _cmd_solve, "mms": _cmd_mms,
                "caccioppoli": _cmd_caccioppoli, "wlemma": _cmd_wlemma,
                "lipschitz": _cmd_lipschitz, "duality": _cmd_duality,
                "corollary2": _cmd_corollary2, "trace": _cmd_trace,
                "hardy": _cmd_hardy, "oscillation": _cmd_oscillation}
    if cfg["command"] == "sweep":
        reports, artifacts, plots = _cmd_sweep(cfg, jobs)
    else:
        reports, artifacts, plots = handlers[cfg["command"]](cfg)

    named = []
    csv_text = None
    if reports:
        csv_text = CSV_HEADER + "\n" + \
            "\n".join(r.csv_row() for r in reports) + "\n"
        named.append(("reports.csv", csv_text))
    bundle = {"config": cfg,
              "reports": [r.to_json() for r in reports],
              "n_reports": len(reports),
              "n_failed": sum(not r.passed for r in reports)}
    named.append(("run.json", json.dumps(bundle, sort_keys=True, indent=2)
                  + "\n"))
    named.extend(artifacts)
    if cfg["emit_plots"]:
        for plot_name, kind, csv_name in plots:
            source = csv_text if csv_name == "reports.csv" else \
                dict(artifacts).get(csv_name)
            if source is None:
                continue
            named.append((plot_name, emit_plot_script(source, csv_name,
                                                      kind)))
    write_artifacts(cfg["out_dir"], named)

    failing = [r for r in reports if not r.passed]
    for r in failing:
        print("FAIL %s" % r.csv_row(), file=sys.stderr)
    print("%s: %d report(s), %d failed; artifacts in %s"
          % (cfg["command"], len(reports), len(failing), cfg["out_dir"]))
    return (1 if failing else 0), reports


def _resolve_jobs(arg_jobs):
    if arg_jobs is not None:
        jobs = arg_jobs
    else:
        env = os.environ.get("LAB_JOBS")
        if env is None:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigError("LAB_JOBS must be an integer, got %r" % env)
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return jobs


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lab", description="estimate-verification laboratory for the "
        "degenerate parabolic model problem")
    sub = parser.add_subparsers(dest="subcommand")
    runp = sub.add_parser("run", help="execute one experiment config")
    runp.add_argument("config", help="path to a flat JSON config")
    runp.add_argument("--out", default=None,
                      help="output directory (overrides out_dir)")
    runp.add_argument("--jobs", type=int, default=None,
                      help="worker threads (fallback: LAB_JOBS, then 1)")
    runp.add_argument("--seed", type=int, default=None,
                      help="base seed (overrides the config)")
    args = parser.parse_args(argv)
    if args.subcommand != "run":
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg["out_dir"] = args.out
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        jobs = _resolve_jobs(args.jobs)
    except (ConfigError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        code, _ = run(cfg, jobs=jobs)
        return code
    except (ConfigError,) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (SolverError, AssemblyError, DegenerateLocalSolution) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
