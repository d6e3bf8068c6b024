"""Config-driven front end: ``lab run config.json [--out DIR] [--seed S]``.

Configs are flat JSON, each key declared once in ``_SCHEMA``, strictly checked.
What each command reads is declared once in ``_READS``, and a config keeps
only those keys: a given key that its command does not read is refused.
Artifacts (reports CSV, JSON bundle with the config echo, plot scripts,
solution tables, matrix exports) are written atomically and listed with
content hashes in MANIFEST.json; timestamps appear only in the manifest so
re-runs are byte-identical.  A plot script is built from the column layout
its CSV is written with, never by reading the CSV back.

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
import scipy.sparse as sp

from .assembly import AssemblyError, interior_pattern
from .coefficients import (_AUTONOMOUS_KINDS, KINDS, _eps_too_large,
                           generate_family, oscillation_scan)
from .fields import random_w1p_field, smooth_random_closure
from .harness import (CSV_HEADER, DegenerateLocalSolution, ProblemSpec,
                      boundary_lipschitz, caccioppoli_ratio,
                      corollary2_reports, duality_check, hardy_report,
                      locally_homogeneous_solution, main_estimate_sweep,
                      trace_report, w_estimate_ratio)
from .mesh import Cylinder, build_mesh, time_cells_in_window
from .mms import ManufacturedCase, convergence_study, default_case
from .solver import SolverError, TimeStepperConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# -- builders -------------------------------------------------------------------

def _build_mesh(cfg, M=None, refine_time=1):
    dim = cfg["dim"]
    return build_mesh(
        dim, cfg["L_d"], M or cfg["mesh_M"], cfg["grading"],
        xprime_count=cfg["xprime_count"] if dim == 2 else 1,
        xprime_length=cfg["xprime_length"] if dim == 2 else None,
        time_step=cfg["time_step"] / refine_time,
        time_count=cfg["time_count"] * refine_time)


def _coeffs(cfg, mesh, eps=None):
    """The field of kind at the amplitude eps, the config's eps if None."""
    return generate_family(cfg["seed"], cfg["kind"], cfg["nu"],
                           cfg["eps"] if eps is None else eps,
                           dim=mesh.dim, xp_length=mesh.xprime_length)


def _sources(cfg, mesh):
    """The with_F and with_f sources of the commands that read them (see
    _READS), (None, None) for every other command."""
    if "with_F" not in _READS[cfg["command"]]:
        return None, None

    def closure(k):
        return smooth_random_closure(cfg["seed"] * 31 + k, mesh.dim,
                                     xp_length=mesh.xprime_length)
    F = None
    if cfg["with_F"]:
        F = tuple(closure(7 + i) for i in range(mesh.dim))
    return F, closure(3) if cfg["with_f"] else None


def _problem(cfg, eps=None):
    """The config's problem, its field at the amplitude eps (see _coeffs),
    with rho0 the config's for the commands that read it (_READS)."""
    mesh = _build_mesh(cfg)
    F, f = _sources(cfg, mesh)
    rho0 = cfg["rho0"] if "rho0" in _READS[cfg["command"]] else 1.0
    return ProblemSpec(mesh, _coeffs(cfg, mesh, eps), F=F, f=f,
                       config=TimeStepperConfig(cfg["theta"]),
                       seed=cfg["seed"], rho0=rho0)


def _cylinder(cfg):
    """The local commands' cylinder, ending at cyl_time or the end time."""
    t0 = cfg["cyl_time"] if cfg["cyl_time"] is not None \
        else cfg["time_step"] * cfg["time_count"]
    return Cylinder(t0, 0.0, cfg["cyl_radius"])


def _local_solutions(cfg, problem, lam):
    cyl = _cylinder(cfg)
    sols = []
    for k in range(cfg["n_solutions"]):
        seeds = [cfg["seed"] + k + 1000 * attempt for attempt in range(3)]
        for seed in seeds:
            try:
                sols.append(locally_homogeneous_solution(problem, cyl,
                                                         lam=lam, seed=seed))
                break
            except DegenerateLocalSolution:
                continue
        else:
            raise SolverError("no nontrivial local solution at lambda %r on "
                              "%r: seeds %s all gave a solution numerically "
                              "zero on the cylinder" % (lam, cyl, seeds))
    return sols


# -- commands -------------------------------------------------------------------

def _cmd_solve(cfg):
    problem = _problem(cfg)
    mesh = problem.mesh
    sol = problem.solution(cfg["lambda"])
    lines = ["t,xprime,xd,u"]
    for n, t in enumerate(sol.times):
        for j in range(mesh.M + 1):
            for m in range(mesh.xprime_count):
                lines.append("%.17g,%.17g,%.17g,%.17g" % (
                    t, mesh.xprime_nodes[m], mesh.xd_nodes[j],
                    sol.levels[n, j, m]))
    artifacts = [("solution.csv", "\n".join(lines) + "\n")]
    if cfg["export_matrix"]:
        from scipy.io import mmwrite    # only this export loads scipy.io
        # the stiffness the march built, at t = 0 (see _COMMAND_RULES)
        indices, indptr, shape = interior_pattern(mesh)
        K = problem.marcher().stiffness([cfg["lambda"]])[0, 0]
        buf = io.BytesIO()
        mmwrite(buf, sp.csr_matrix((K, indices, indptr), shape=shape))
        artifacts.append(("stiffness.mtx", buf.getvalue()))
    return [], artifacts, []


def _cmd_mms(cfg):
    case = default_case(cfg["dim"], lam=cfg["lambda"], Ld=cfg["L_d"],
                        T=cfg["time_step"] * cfg["time_count"],
                        mode=cfg["mms_mode"])
    ladder = [_build_mesh(cfg, M=M, refine_time=int(round(scale)))
              for M, scale in zip(cfg["mms_meshes"], _mms_scales(cfg))]
    table = convergence_study(case, ladder, p=cfg["p"], theta=cfg["theta"])
    return [], [("mms.csv", table.csv())], \
        [("plot_error.gp", _error_plot(table))]


def _cmd_sweep(cfg):
    """The sweep reads eps only as its amplitudes, so its problem carries
    the amplitude-0 field of kind (see main_estimate_sweep)."""
    reports = main_estimate_sweep(_problem(cfg, eps=0.0), _values(cfg, "p"),
                                  _values(cfg, "lambda"),
                                  eps_grid=_values(cfg, "eps"))
    return reports, [], [("plot_ratio.gp", _ratio_plot())]


# local command -> its reports on one locally homogeneous solution
_LOCAL_CHECKS = {
    "caccioppoli": lambda cfg, sol: caccioppoli_ratio(
        sol, cfg["r_inner"], cfg["r_outer"]),
    "wlemma": lambda cfg, sol: [w_estimate_ratio(sol, cfg["r_inner"],
                                                 cfg["r_outer"])],
    "lipschitz": lambda cfg, sol: [boundary_lipschitz(sol, cfg["r_inner"])]}


def _cmd_local(cfg):
    """The command's reports (_LOCAL_CHECKS) on the locally homogeneous
    solutions of every lambda.  They synthesize their own sources above the
    cylinder, which with_F/with_f sources would reach: the problem has none."""
    problem, check = _problem(cfg), _LOCAL_CHECKS[cfg["command"]]
    reports = []
    for lam in _values(cfg, "lambda"):
        for sol in _local_solutions(cfg, problem, lam):
            reports.extend(check(cfg, sol))
    return reports, [], []


def _cmd_duality(cfg):
    """One report per lambda.  duality_check marches a field of its own per
    seed, which the one problem keeps for every lambda, and reads only the
    mesh and coeffs.nu of it: the problem needs no field at eps."""
    problem = _problem(cfg, eps=0.0)
    seeds = range(cfg["seed"], cfg["seed"] + cfg["duality_seeds"])
    return [duality_check(problem, seeds=seeds, lam=lam, kind=cfg["kind"],
                          eps=cfg["eps"])
            for lam in _values(cfg, "lambda")], [], []


def _cmd_corollary2(cfg):
    mesh = _build_mesh(cfg)
    case = default_case(cfg["dim"], lam=cfg["lambda"], Ld=cfg["L_d"],
                        T=mesh.total_time, mode="f_only")
    return corollary2_reports(case, mesh, _values(cfg, "p"),
                              TimeStepperConfig(cfg["theta"])), [], []


def _corpus(cfg, mesh):
    """(field, seed) for each of the n_fields random W^1_p fields."""
    seeds = [cfg["seed"] + s for s in range(cfg["n_fields"])]
    return [(random_w1p_field(seed, mesh), seed) for seed in seeds]


def _cmd_trace(cfg):
    """Per p, the corpus reports, then the march's; both are built once."""
    problem = _problem(cfg)
    corpus = _corpus(cfg, problem.mesh)
    sol = problem.solution(cfg["lambda"])
    reports = []
    for p in _values(cfg, "p"):
        reports.extend(trace_report(fld, p, seed=seed)
                       for fld, seed in corpus)
        reports.append(trace_report(sol, p, skip_initial=sol.time_count
                                    // 10, seed=cfg["seed"]))
    return reports, [], []


def _cmd_hardy(cfg):
    corpus = _corpus(cfg, _build_mesh(cfg))
    return [hardy_report(fld, p, seed=seed)
            for p in _values(cfg, "p") for fld, seed in corpus], [], []


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


# command name -> handler(cfg) -> (reports, artifacts, plots), the last two
# lists of (name, text); plots are written only with emit_plots
_HANDLERS = {"solve": _cmd_solve, "mms": _cmd_mms, "sweep": _cmd_sweep,
             "caccioppoli": _cmd_local, "wlemma": _cmd_local,
             "lipschitz": _cmd_local, "duality": _cmd_duality,
             "corollary2": _cmd_corollary2, "trace": _cmd_trace,
             "hardy": _cmd_hardy, "oscillation": _cmd_oscillation}
COMMANDS = tuple(_HANDLERS)


# -- config schema ---------------------------------------------------------------
# A check takes (key, value) and gives back the value, normalized, or raises
# a ConfigError that names the key and the value.

def _is_finite_num(v):
    """A number of the float range: False for NaN, the infinities (JSON's
    NaN, Infinity and 1e400) and integers beyond it."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and -sys.float_info.max <= v <= sys.float_info.max


def _rule(ok, rule, convert=None, base=None):
    """A check: the value, after the check base if one is given, must
    satisfy ok; it is given back through convert if one is given."""
    def checked(key, v):
        if base is not None:
            v = base(key, v)
        if not ok(v):
            raise ConfigError("key %r must be %s, got %r" % (key, rule, v))
        return v if convert is None else convert(v)
    return checked


_int = _rule(lambda v: _is_finite_num(v) and float(v) == int(v),
             "an integer", int)
_float = _rule(_is_finite_num, "a finite number", float)
_bool = _rule(lambda v: isinstance(v, bool), "a boolean")
_str = _rule(lambda v: isinstance(v, str), "a string")


def _at_least(check, low):
    return _rule(lambda v: v >= low, "at least %r" % low, base=check)


def _above(check, low):
    return _rule(lambda v: v > low, "greater than %r" % low, base=check)


def _one_of(check, choices):
    return _rule(lambda v: v in choices,
                 "one of %s" % ", ".join(map(str, choices)), base=check)


def _list(check):
    """A non-empty list whose every entry passes check."""
    def checked(key, v):
        if not isinstance(v, list) or not v:
            raise ConfigError("key %r must be a non-empty list, got %r"
                              % (key, v))
        return [check(key, item) for item in v]
    return checked


def _optional(check):
    """None, or a value that passes check."""
    return lambda key, v: None if v is None else check(key, v)


# The one declaration of the config keys: key -> (default, check), checked
# in this order, so the first error a config reports is always the same.
# Only a key whose default is None takes null.  Every W^1_p norm needs
# p > 1, and a count of 0 would run a check that checks nothing.
_SCHEMA = {
    "schema_version": (SCHEMA_VERSION, _one_of(_int, (SCHEMA_VERSION,))),
    "command": (None, _one_of(_str, COMMANDS)),
    "dim": (1, _one_of(_int, (1, 2))),
    "L_d": (4.0, _above(_float, 0)),
    "mesh_M": (48, _at_least(_int, 2)),
    "grading": (2.0, _at_least(_float, 1)),
    "xprime_count": (12, _int),
    "xprime_length": (2 * np.pi, _float),
    "time_step": (0.05, _above(_float, 0)),
    "time_count": (20, _at_least(_int, 1)),
    "nu": (0.5, _float),
    "lambda": (1.0, _float),
    "lambda_grid": (None, _optional(_list(_float))),
    "p": (2.0, _above(_float, 1)),
    "p_grid": (None, _optional(_list(_above(_float, 1)))),
    "kind": ("constant", _one_of(_str, KINDS)),
    "eps": (0.0, _float),
    "eps_grid": (None, _optional(_list(_float))),
    "seed": (0, _int),
    "rho0": (1.0, _float),
    "theta": (1.0, _float),
    "with_F": (True, _bool),
    "with_f": (True, _bool),
    "mms_meshes": ([16, 32, 64], _list(_int)),
    "mms_mode": ("f_only", _one_of(_str, ManufacturedCase.MODES)),
    "cyl_time": (None, _optional(_float)),
    "cyl_radius": (0.5, _float),
    "r_inner": (0.25, _float),
    "r_outer": (0.5, _float),
    "n_solutions": (3, _at_least(_int, 1)),
    "duality_seeds": (5, _at_least(_int, 1)),
    "n_fields": (50, _at_least(_int, 1)),
    "rho_grid": ([0.25, 0.5], _list(_float)),
    "out_dir": ("lab_out", _str),
    "emit_plots": (True, _bool),
    "export_matrix": (False, _bool),
}

# The one declaration of what each command reads.  Every command reads the
# keys of _EVERY_COMMAND: it builds a mesh (the x' keys in dim 2 only) and
# writes artifacts.  mms sizes its meshes by its ladder, not by mesh_M, and
# a local command marches no with_F or with_f source (see _cmd_local).
_EVERY_COMMAND = "schema_version command dim L_d grading xprime_count " \
    "xprime_length time_step time_count out_dir emit_plots"
_LOCAL_READS = "mesh_M nu kind eps seed lambda lambda_grid theta " \
    "cyl_time cyl_radius r_inner n_solutions"
_READS = {command: frozenset((_EVERY_COMMAND + " " + keys).split())
          for command, keys in (
    ("solve", "mesh_M nu kind eps seed lambda theta with_F with_f "
     "export_matrix"),
    ("mms", "lambda p theta mms_meshes mms_mode"),
    ("sweep", "mesh_M nu kind eps eps_grid seed lambda lambda_grid p p_grid "
     "rho0 theta with_F with_f"),
    ("caccioppoli", _LOCAL_READS + " r_outer"),
    ("wlemma", _LOCAL_READS + " r_outer"),
    ("lipschitz", _LOCAL_READS),
    ("duality", "mesh_M nu kind eps seed lambda lambda_grid theta "
     "duality_seeds"),
    ("corollary2", "mesh_M lambda p p_grid theta"),
    ("trace", "mesh_M nu kind eps seed lambda p p_grid theta with_F with_f "
     "n_fields"),
    ("hardy", "mesh_M seed p p_grid n_fields"),
    ("oscillation", "mesh_M nu kind eps seed rho_grid"))}

# The grid that replaces each scalar key where it is given (see _values).
_GRIDS = {"lambda": "lambda_grid", "p": "p_grid", "eps": "eps_grid"}


def _read_key(c, key):
    """The key the command reads for key: its grid or key itself (a config
    holds a grid only where its command reads it, see _READS)."""
    grid = _GRIDS.get(key)
    return grid if grid in c and c[grid] else key


def _values(c, key):
    """The values of key that the command reads, as a list (see _GRIDS)."""
    read = _read_key(c, key)
    return c[read] if read != key else [c[key]]


def _window_holds_a_time_cell(c):
    """Whether the cylinder's time window holds the centre of a time cell."""
    cyl = _cylinder(c)
    return time_cells_in_window(c["time_step"], c["time_count"],
                                cyl.center_time, cyl.radius).size > 0


def _mms_scales(c):
    """(M / M_0)**2 for each mesh size M of the mms ladder, M_0 its first:
    the factor its time step is refined by, since dt scales with h^2."""
    M0 = c["mms_meshes"][0]
    return [(M / M0) ** 2 for M in c["mms_meshes"]]


class _Refusal(str):
    """A rule's whole refusal, where "key ... must be <rule>" would not do."""


# The rules a key keeps, given the other keys: (key, holds(cfg), rule) for
# every command that reads the key, or (key, holds, rule, commands) for the
# commands named; the rule is formatted with the config.  A rule of lambda,
# p or eps holds for every value the command reads (see _values), and a
# refusal names the key read, the grid or the scalar.  Checked in this order
# after _SCHEMA, so a config is refused before anything is built.
_COMMAND_RULES = (
    # with both off the march is u = 0 from rest and would certify nothing
    ("with_F", lambda c: c["with_F"] or c["with_f"], _Refusal(
        "command {command!r} marches the sources, so with_F and with_f "
        "must not both be false")),
    ("seed", lambda c: c["seed"] >= 0, "at least 0"),
    ("out_dir", lambda c: c["out_dir"] != "", "a non-empty path"),
    ("xprime_count", lambda c: c["dim"] == 1 or c["xprime_count"] >= 1,
     "at least 1 in dim 2"),
    ("xprime_length", lambda c: c["dim"] == 1 or c["xprime_length"] > 0,
     "greater than 0 in dim 2"),
    # the trace exponent 1/2 - 1/p and the second-order estimate need p >= 2
    ("p", lambda c: min(_values(c, "p")) >= 2, "at least 2",
     ("trace", "corollary2")),
    # a locally homogeneous solution needs a field that does not depend on t
    ("kind", lambda c: c["kind"] != "oscillatory", "constant or xd_only",
     ("caccioppoli", "wlemma", "lipschitz")),
    ("cyl_radius", lambda c: c["cyl_radius"] > 0, "greater than 0"),
    ("cyl_time", _window_holds_a_time_cell,
     "a time whose window (cyl_time - {cyl_radius!r}, cyl_time] holds a "
     "time-cell centre (n + 1/2) * {time_step!r}, 0 <= n < {time_count!r} "
     "(None: the end time)"),
    ("r_inner", lambda c: 0 < c["r_inner"] < c["r_outer"],
     "greater than 0 and less than r_outer = {r_outer!r}",
     ("caccioppoli", "wlemma")),
    ("r_outer", lambda c: c["r_outer"] <= c["cyl_radius"],
     "at most cyl_radius = {cyl_radius!r}"),
    ("r_inner", lambda c: 0 < 2 * c["r_inner"] <= c["cyl_radius"],
     "greater than 0 and at most half of cyl_radius = {cyl_radius!r}",
     ("lipschitz",)),
    ("rho_grid", lambda c: min(c["rho_grid"]) > 0,
     "a list of radii greater than 0"),
    ("nu", lambda c: 0 < c["nu"] < 1, "in (0, 1)"),
    ("eps", lambda c: min(_values(c, "eps")) >= 0, "at least 0"),
    ("eps", lambda c: not any(_eps_too_large(eps, c["nu"], c["dim"])
                              for eps in _values(c, "eps")),
     "at most 0.999 (1 - nu) / dim, the ellipticity margin at nu = {nu!r} "
     "and dim = {dim!r}"),
    ("lambda", lambda c: min(_values(c, "lambda")) >= 0, "at least 0"),
    # the sweep's window lambda * rho0 >= 1 and its ratio spread need
    # lambda > 0
    ("lambda", lambda c: min(_values(c, "lambda")) > 0, "greater than 0",
     ("sweep",)),
    ("rho0", lambda c: c["rho0"] > 0, "greater than 0"),
    ("export_matrix",
     lambda c: not c["export_matrix"] or c["kind"] in _AUTONOMOUS_KINDS,
     "false while kind {kind!r} depends on time (it writes one stiffness "
     "matrix)"),
    ("mms_meshes", lambda c: len(c["mms_meshes"]) >= 3
     and c["mms_meshes"][0] >= 2
     and sorted(set(c["mms_meshes"])) == c["mms_meshes"],
     "a list of at least 3 increasing sizes, each at least 2"),
    ("mms_meshes", lambda c: all(abs(scale - round(scale)) <= 1e-9
                                 for scale in _mms_scales(c)),
     "a ladder of sizes M whose (M / M_0)**2, M_0 the first, are integers "
     "(dt scales with h^2)"),
    # duality_check marches both ways at theta = 1 whatever theta says
    ("theta", lambda c: c["theta"] == 1,
     "1 (implicit Euler, where the duality identity is exact)", ("duality",)),
    ("theta", lambda c: 0.5 <= c["theta"] <= 1, "in [0.5, 1]"),
)


def parse_config(raw):
    """Validate a raw mapping: unknown keys are refused by name, defaults
    fill the gaps, every key is checked in _SCHEMA's order, a given key that
    the command does not read (_READS) is refused by name, and the rules of
    _COMMAND_RULES hold.  The result holds only the keys the command reads
    and re-parses to itself."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))
    if raw.get("command") is None:
        raise ConfigError("config needs a 'command' key")
    cfg = {key: check(key, raw.get(key, default))
           for key, (default, check) in _SCHEMA.items()}
    command = cfg["command"]
    ignored = sorted(set(raw) - _READS[command])
    if ignored:
        raise ConfigError("config key(s) that command %r does not read: %s"
                          % (command, ", ".join(ignored)))
    cfg = {key: cfg[key] for key in _SCHEMA if key in _READS[command]}
    for key, holds, rule, *commands in _COMMAND_RULES:
        binds = command in commands[0] if commands else key in cfg
        if binds and not holds(cfg):
            if isinstance(rule, _Refusal):
                raise ConfigError(rule.format(**cfg))
            read = _read_key(cfg, key)
            raise ConfigError("key %r must be %s for command %r, got %r"
                              % (read, rule.format(**cfg), command,
                                 cfg[read]))
    return cfg


def load_config(path, overrides=None):
    """parse_config of the JSON object at path, with the keys of overrides
    (the command line's) put into it first, so that every check sees them."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if overrides and isinstance(raw, dict):
        raw = dict(raw, **overrides)
    return parse_config(raw)


# -- plot scripts ----------------------------------------------------------------
# Each script plots columns of a layout the program declares: CSV_HEADER for
# reports.csv, StudyTable.COLUMNS for mms.csv.

def _gnuplot(csv_name, png, settings, plot):
    return "\n".join(["# gnuplot script generated alongside %s" % csv_name,
                      'set datafile separator ","'] + settings
                     + ["set term pngcairo size 900,600",
                        'set output "%s"' % png] + plot) + "\n"


def _ratio_plot():
    """The ratio of every row of reports.csv against its lambda."""
    col = CSV_HEADER.split(",").index
    return _gnuplot(
        "reports.csv", "ratio_lambda.png",
        ["set logscale x", 'set xlabel "lambda"', 'set ylabel "lhs/rhs ratio"',
         "set key off"],
        ['plot "reports.csv" every ::1 using %d:%d with points pt 7'
         % (col("lambda") + 1, col("ratio") + 1)])


def _error_plot(table):
    """Both errors of mms.csv against 1/M, with slope-1 and slope-2
    reference lines through its first row as mms.csv prints it."""
    col = {name: k + 1 for k, name in enumerate(table.COLUMNS)}
    M0, _, e0, e1 = map(float, table.csv_rows()[0].split(",")[:4])
    curve = '"mms.csv" every ::1 using (1/$%d):%d with linespoints ' \
        'title "%s", \\'
    return _gnuplot(
        "mms.csv", "error_h.png",
        ["set logscale xy", 'set xlabel "1/M"', 'set ylabel "error"',
         "set key left top"],
        ["ref1(x) = %.6g * x" % (e1 / (1.0 / M0)),
         "ref2(x) = %.6g * x**2" % (e0 / (1.0 / M0) ** 2),
         "plot " + curve % (col["M"], col["e0"], "weighted solution error"),
         "     " + curve % (col["M"], col["e1"], "gradient error"),
         '     ref1(x) title "slope 1" dt 2, \\',
         '     ref2(x) title "slope 2" dt 3'])


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


def run(cfg):
    """Execute one parsed config; returns (exit_code, reports)."""
    reports, artifacts, plots = _HANDLERS[cfg["command"]](cfg)

    named = []
    if reports:
        named.append(("reports.csv", CSV_HEADER + "\n" + "\n".join(
            r.csv_row() for r in reports) + "\n"))
    bundle = {"config": cfg,
              "reports": [r.to_json() for r in reports],
              "n_reports": len(reports),
              "n_failed": sum(not r.passed for r in reports)}
    named.append(("run.json", json.dumps(bundle, sort_keys=True, indent=2)
                  + "\n"))
    named.extend(artifacts)
    if cfg["emit_plots"]:
        named.extend(plots)
    write_artifacts(cfg["out_dir"], named)

    failing = [r for r in reports if not r.passed]
    for r in failing:
        print("FAIL %s" % r.csv_row(), file=sys.stderr)
    print("%s: %d report(s), %d failed; artifacts in %s"
          % (cfg["command"], len(reports), len(failing), cfg["out_dir"]))
    return (1 if failing else 0), reports


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lab", description="estimate-verification laboratory for the "
        "degenerate parabolic model problem")
    sub = parser.add_subparsers(dest="subcommand")
    runp = sub.add_parser("run", help="execute one experiment config")
    runp.add_argument("config", help="path to a flat JSON config")
    runp.add_argument("--out", dest="out_dir",
                      help="output directory (overrides out_dir)")
    runp.add_argument("--seed", type=int,
                      help="base seed (overrides the config)")
    args = parser.parse_args(argv)
    if args.subcommand != "run":
        parser.print_help(sys.stderr)
        return 2
    overrides = {key: getattr(args, key) for key in ("out_dir", "seed")
                 if getattr(args, key) is not None}
    try:
        return run(load_config(args.config, overrides))[0]
    except (SolverError, AssemblyError, DegenerateLocalSolution) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
