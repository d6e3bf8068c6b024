"""Experiment drivers that turn the a-priori inequalities into computable
ratio reports: the L2 energy bound with its explicit constant, W^1_p
ratio sweeps across lambda and coefficient-oscillation grids, local
reverse-type (Caccioppoli) and quotient-field bounds on locally homogeneous
solutions, the pointwise boundary bound, the exact discrete duality
pairing, the second-order weighted estimate for the model equation, and
the Hardy quotient and near-boundary trace decay of single fields.

Each verdict is declared in ``CHECKS`` and each report label decided here:
``norms`` gives the numbers; a report row has the columns of ``CSV_HEADER``.
What depends on a problem alone is derived once per frozen ``ProblemSpec``:
its ``Marcher`` serves every solution marched for it, the structure
condition of its field is decided once, and each source is sampled once,
its own F and f for the march and the data norms alike, a local seed's for
every lambda, and a duality seed's field, operators and loads are built
once for every lambda checked with it.  A solution keeps every norm
integrated of it, so the local checks that read one norm of one cylinder
integrate it once.
Empirical constants are recorded, never asserted against specific values;
pass criteria are boundedness, refinement stability, and lambda-uniformity.
"""

import collections
import dataclasses

import numpy as np

from .assembly import (LoadAssembler, assemble_weighted_mass, data_grams,
                       model_stiffness, sample_sources)
from .coefficients import (check_structure_condition, generate_family,
                           oscillation_scan)
from .fields import smooth_random_closure
from .mesh import Cylinder, _cached, cells_in_cylinder
from .norms import (NormSpec, analytic_norm, cell_center_gradients,
                    hardy_check, levels_norm, slice_norms, weighted_norm)
from .solver import Marcher, TimeStepperConfig, march

# the run labels of a report row, each None unless its check knows it
_LABELS = ("lambda", "p", "mesh_M", "dt", "seed", "rho0", "gamma_measured")
CSV_HEADER = ",".join(("check_id",) + _LABELS + ("lhs", "rhs", "ratio",
                                                  "pass"))

# per check id, the bound (a report's threshold) and rule of its verdict
Check = collections.namedtuple("Check", "bound rule", defaults=(None, None))
CHECKS = {
    "energy_L2": Check(bound=lambda r: 4.0 / r.param("nu")),
    "main_Wp": Check(rule=lambda r: not r.param("in_window") or (
        r.param("uniformity") <= 3.0 and r.param("refine_drift") <= 0.15)),
    "duality": Check(bound=lambda r: 1e-8),
    "hardy": Check(bound=lambda r: r.param("p") / (r.param("p") - 1) + 0.05),
    "trace": Check(rule=lambda r: np.isfinite(r.param("constant"))
                   and r.lhs >= r.param("slope_threshold")),
    "caccioppoli": Check(), "w_estimate": Check(), "lipschitz": Check(),
    "corollary2": Check(),
}
CHECK_IDS = frozenset(CHECKS)

_RHS_FLOOR = 1e-12


class DegenerateLocalSolution(RuntimeError):
    """The candidate local solution is numerically zero on the cylinder;
    the caller should reseed."""


def _fmt(x):
    if x is None:
        return "nan"
    if isinstance(x, (int, np.integer)):     # a bool too, as 0 or 1
        return "%d" % x
    return "%.17g" % float(x)


class EstimateReport:
    """One inequality evaluation: lhs, rhs, their ratio, and a verdict.

    ratio = lhs/rhs when rhs > 0; a vanishing rhs requires lhs at or below
    the absolute floor 1e-12 (then ratio = 0).  params carries the run
    labels of CSV_HEADER, None where the check does not give one, and any
    further numbers the check records, those its ``CHECKS`` row reads too.
    It passes with a finite ratio, at most bound(report) (the threshold)
    where the row has a bound, and with rule(report) where it has a rule.
    """

    def __init__(self, check_id, lhs, rhs, params=None):
        if check_id not in CHECK_IDS:
            raise ValueError("unknown check_id %r" % (check_id,))
        lhs, rhs = float(lhs), float(rhs)
        sides = "%s lhs=%r rhs=%r" % (check_id, lhs, rhs)
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            raise ValueError("non-finite report sides: " + sides)
        if rhs < 0:
            raise ValueError("rhs must be >= 0: " + sides)
        if rhs == 0.0 and abs(lhs) > _RHS_FLOOR:
            raise ValueError("rhs = 0 with lhs = %g above the %g floor"
                             % (lhs, _RHS_FLOOR))
        self.check_id = check_id
        self.lhs = lhs
        self.rhs = rhs
        self.ratio = lhs / rhs if rhs > 0 else 0.0
        self.params = dict.fromkeys(_LABELS)
        self.params.update(params or {})
        bound, rule = CHECKS[check_id]
        self.threshold = None if bound is None else float(bound(self))
        self.passed = bool(np.isfinite(self.ratio) and (
            self.threshold is None or self.ratio <= self.threshold)
            and (rule is None or rule(self)))

    def param(self, key):
        """params[key] for the check's CHECKS row, which needs it set."""
        if self.params.get(key) is None:
            raise ValueError("%s needs params[%r] set" % (self.check_id, key))
        return self.params[key]

    def csv_row(self):
        values = [self.params[k] for k in _LABELS] + \
            [self.lhs, self.rhs, self.ratio, self.passed]
        return ",".join([self.check_id] + [_fmt(v) for v in values])

    def to_json(self):
        out = {"check_id": self.check_id, "lhs": self.lhs, "rhs": self.rhs,
               "ratio": self.ratio, "pass": self.passed,
               "threshold": self.threshold}
        out["params"] = {k: v.item() if isinstance(v, np.generic) else v
                         for k, v in self.params.items()}
        return out


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class ProblemSpec:
    """The frozen mesh, coefficients, sources, stepper (implicit Euler when
    None) and run labels of a problem: F is None or a sequence of dim
    entries, each None or a callable (t, xp, xd), f None or a callable.
    Assigning a field raises (``dataclasses.replace`` makes a new problem),
    so what derives from the fields is built on first use by
    ``mesh._cached``, kept read-only in the problem's ``_tables`` and
    cannot go stale: the marcher, the structure condition, the node
    samples of F and f and their load parts, the load parts of each local
    seed's sources, and each duality seed's marcher and load parts."""

    mesh: object
    coeffs: object
    F: object = None
    f: object = None
    config: object = None
    seed: int = 0
    rho0: float = 1.0
    _tables: dict = dataclasses.field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.coeffs.dim != self.mesh.dim:
            raise ValueError("coefficient/mesh dimension mismatch: %d != %d"
                             % (self.coeffs.dim, self.mesh.dim))
        if not self.rho0 > 0:
            raise ValueError("rho0 must be positive, got %r" % (self.rho0,))
        object.__setattr__(self, "config", self.config or TimeStepperConfig())
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "rho0", float(self.rho0))

    def marcher(self):
        """The Marcher that every march of the problem goes through."""
        return _cached(self, "marcher", lambda: Marcher(
            self.mesh, self.coeffs, self.config))

    def structure_condition(self):
        """check_structure_condition of the problem's field on its mesh."""
        return _cached(self, "structure", lambda: check_structure_condition(
            self.coeffs, self.mesh))

    def source_samples(self):
        """sample_sources of F and f at the mesh's time levels, which the
        loads of ``solution`` and the data norms of energy_ratio read."""
        return _cached(self, "samples", lambda: sample_sources(
            self.mesh, self.F, self.f, self.mesh.time_levels))

    def solution(self, lam):
        """F and f marched at lam through the marcher, on load parts applied
        to the kept samples once, for every lambda."""
        parts = _cached(self, "parts", lambda: LoadAssembler(
            self.mesh).sampled_parts(self.mesh.time_count + 1,
                                     *self.source_samples()))
        return self.marcher().march([lam], parts=parts)[0]

    def source_parts(self, seed, x_lo, x_hi):
        """``LoadAssembler.parts`` of the sources that
        locally_homogeneous_solution synthesizes from seed with the cushion
        (x_lo, x_hi), for every lambda marched with them."""
        return _cached(self, ("sources", seed, x_lo, x_hi),
                       lambda: LoadAssembler(self.mesh).parts(
                           *_local_sources(self.mesh, seed, x_lo, x_hi)))

    def duality_seed(self, seed, kind, eps):
        """(marcher, forward parts, dual parts) of one duality_check seed,
        for every lambda checked with it: the Marcher at theta = 1 of the
        seed's field of kind at amplitude eps and the problem's nu, and the
        ``LoadAssembler.parts`` of the seed's forward data (F, f) and dual
        data (B, b)."""
        def build():
            mesh = self.mesh
            coeffs = generate_family(seed, kind, self.coeffs.nu, eps,
                                     dim=mesh.dim,
                                     xp_length=mesh.xprime_length)
            loads = LoadAssembler(mesh)
            fwd, dual = (loads.parts(*data)
                         for data in _duality_sources(mesh, seed))
            return Marcher(mesh, coeffs), fwd, dual
        return _cached(self, ("duality", seed, kind, eps), build)


def _f_magnitude(F):
    comps = [c for c in (() if F is None else F) if c is not None]
    if not comps:
        return None

    def mag(t, xp, xd):
        acc = 0.0
        for c in comps:
            v = np.asarray(c(t, xp, xd), float)
            acc = acc + v * v
        return np.sqrt(acc)

    return mag


# -- L2 energy inequality -------------------------------------------------------

def energy_ratio(problem, lam):
    """March the problem with implicit Euler (``ProblemSpec.solution``) and
    compare ||Du|| + sqrt(lam)||u||_w against ||F|| + ||f||_w through the
    assembled quadratic forms (all four integrals are exact for the bilinear
    fields).  The dissipation identity of the scheme makes ratio <= 4/nu a
    theorem of the discretization, so the report carries that threshold
    untoleranced.
    """
    mesh, coeffs = problem.mesh, problem.coeffs
    if problem.config.theta != 1.0:
        raise ValueError("the exact energy bound needs theta = 1")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    sol = problem.solution(lam)
    K0, Mw = model_stiffness(mesh), assemble_weighted_mass(mesh)
    Ga, Gw = data_grams(mesh)
    F_samples, f_samples = problem.source_samples()
    if f_samples is not None and np.max(np.abs(f_samples[1:, 0])) != 0.0:
        raise ValueError("f must vanish at x_d = 0 for the weighted "
                         "data norm to be finite")
    dt, N = sol.dt, mesh.time_count

    def form(G, rows):
        """dt sum_n v_n . G v_n over the rows v_n, n = 1 .. N."""
        return sum(dt * (v @ (G @ v)) for v in rows)

    U = sol.interior_levels()[1:]
    X2, W2 = form(K0, U), form(Mw, U)
    A2 = sum(form(Ga, S[1:].reshape(N, -1)) for S in F_samples
             if S is not None)
    B2 = 0.0 if f_samples is None else \
        form(Gw, f_samples[1:, 1:].reshape(N, -1))
    lhs = np.sqrt(X2) + np.sqrt(lam) * np.sqrt(W2)
    rhs = np.sqrt(A2) + np.sqrt(B2)
    params = {"lambda": lam, "p": 2.0, "mesh_M": mesh.M, "dt": dt,
              "seed": problem.seed, "rho0": problem.rho0, "nu": coeffs.nu,
              "grad_part": float(np.sqrt(X2)),
              "weighted_part": float(np.sqrt(W2))}
    return EstimateReport("energy_L2", lhs, rhs, params=params)


# -- W^1_p ratio sweep ----------------------------------------------------------

def _wp_solution_norm(sol, lam, p, skip):
    return weighted_norm(sol, NormSpec(p, 0.0, "1_full"), skip_initial=skip) \
        + np.sqrt(lam) * weighted_norm(sol, NormSpec(p, -p / 2.0, "0"),
                                       skip_initial=skip)


def _wp_data_norm(mesh, F, f, p, skip):
    rhs = 0.0
    mag = _f_magnitude(F)
    if mag is not None:
        rhs += analytic_norm(mesh, mag, NormSpec(p, 0.0, "0"),
                             skip_initial=skip)
    if f is not None:
        rhs += analytic_norm(mesh, f, NormSpec(p, -p / 2.0, "0"),
                             skip_initial=skip)
    return rhs


def main_estimate_sweep(problem, p, lambdas, eps_grid=(0.0,)):
    """Solve across a lambda grid for each coefficient-oscillation amplitude
    and report the ratio of solution to data W^1_p norms, for p or for each
    p of a grid: the reports run over p, then the amplitude, then lambda,
    and every field is marched once for all of them.  Each coefficient
    field's measured partial oscillation over cylinders of radius rho0/4,
    rho0/2 and rho0 is recorded as gamma_measured.  Within the window
    lambda*rho0 >= 1 the report fails when the per-amplitude ratio spread
    exceeds 3 or one space+time refinement moves a ratio by more than 15
    percent.

    Amplitude 0 marches the problem's own field, and every other amplitude
    the oscillatory family, whatever the problem's kind.  Every kind of
    generate_family is the identity field at amplitude 0, so there the kind
    only labels the rows and decides whether the march is autonomous.
    """
    mesh = problem.mesh
    ps = np.atleast_1d(p).tolist()
    lambdas = [float(v) for v in lambdas]
    if any(v <= 0 for v in lambdas):
        raise ValueError("the sweep needs positive lambda values, got %s"
                         % [v for v in lambdas if v <= 0])
    fine = mesh.refined()
    families = []
    for eps in eps_grid:
        if eps == 0.0:
            coeffs = problem.coeffs
        else:
            coeffs = generate_family(problem.seed, "oscillatory",
                                     problem.coeffs.nu, eps, dim=mesh.dim,
                                     xp_length=mesh.xprime_length)
        rhos = [fr * problem.rho0 for fr in (0.25, 0.5, 1.0)]
        gamma, _ = oscillation_scan(coeffs, mesh, rhos)
        families.append((float(eps), coeffs, gamma))

    data_norms, load_parts = {}, {}

    def wp_norms(m, coeffs):
        """Per p of ps, (lhs, rhs) per lambda on mesh m: one march of the
        lambda grid per (mesh, field) on load parts sampled once per mesh,
        and the lambda-free data norm once per (mesh, p)."""
        if m not in load_parts:
            load_parts[m] = LoadAssembler(m).parts(problem.F, problem.f)
        sols = Marcher(m, coeffs, problem.config).march(
            lambdas, parts=load_parts[m])
        skip = m.time_count // 10
        out = []
        for q in ps:
            if (m, q) not in data_norms:
                data_norms[m, q] = _wp_data_norm(m, problem.F, problem.f, q,
                                                 skip)
            out.append([(_wp_solution_norm(sol, sol.lam, q, skip),
                         data_norms[m, q]) for sol in sols])
        return out

    reports = [[] for _ in ps]        # per p, in amplitude then lambda order
    for eps, coeffs, gamma in families:
        for q, rows, coarse, refined in zip(ps, reports,
                                            wp_norms(mesh, coeffs),
                                            wp_norms(fine, coeffs)):
            rows.extend(_sweep_reports(problem, q, eps, coeffs, gamma,
                                       lambdas, coarse, refined))
    return [rep for rows in reports for rep in rows]


def _sweep_reports(problem, p, eps, coeffs, gamma, lambdas, coarse, fine):
    """The main_Wp reports of one (p, amplitude) from the (lhs, rhs) of
    each lambda on the mesh and on its refinement."""
    mesh = problem.mesh
    cell = []
    for lam, (lc, rc), (lf, rf) in zip(lambdas, coarse, fine):
        ratio_c = lc / rc if rc > 0 else 0.0
        ratio_f = lf / rf if rf > 0 else 0.0
        drift = abs(ratio_f - ratio_c) / ratio_c if ratio_c > 0 else 0.0
        cell.append((lam, lc, rc, ratio_c, ratio_f, drift))
    in_window = [lam * problem.rho0 >= 1.0 for lam, *_ in cell]
    window_ratios = [row[3] for row, ok in zip(cell, in_window)
                     if ok and row[3] > 0]
    uniformity = max(window_ratios) / min(window_ratios) \
        if window_ratios else 1.0
    reports = []
    for (lam, lc, rc, ratio_c, ratio_f, drift), ok in zip(cell, in_window):
        params = {"lambda": lam, "p": float(p), "mesh_M": mesh.M,
                  "dt": mesh.time_step,
                  "seed": problem.seed, "rho0": problem.rho0,
                  "gamma_measured": gamma, "eps": eps,
                  "ratio_refined": ratio_f, "refine_drift": drift,
                  "uniformity": uniformity, "in_window": ok,
                  "kind": coeffs.kind}
        reports.append(EstimateReport("main_Wp", lc, rc, params=params))
    return reports


# -- locally homogeneous solutions ------------------------------------------------

_SUPPORT_GAP = 0.3
_SUPPORT_RAMP = 0.4
_SUPPORT_FLOOR = 0.9


def _smoothstep(x, lo, hi):
    s = np.clip((np.asarray(x, float) - lo) / (hi - lo), 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def _local_sources(mesh, seed, x_lo, x_hi):
    """(F, f) of a locally homogeneous solution: random closures of the
    seed times a smoothstep that is exactly zero below x_lo and one above
    x_hi."""
    def enveloped(g):
        return lambda t, xp, xd: g(t, xp, xd) * _smoothstep(xd, x_lo, x_hi)
    raw = [smooth_random_closure(seed * 10 + k, mesh.dim,
                                 xp_length=mesh.xprime_length, envelope=False)
           for k in range(mesh.dim + 1)]
    return tuple(enveloped(g) for g in raw[1:]), enveloped(raw[0])


def _duality_sources(mesh, seed):
    """((F, f), (B, b)) of one duality_check seed: the forward and the dual
    data, random closures of the seed."""
    def closure(k):
        return smooth_random_closure(7919 * seed + k, mesh.dim,
                                     xp_length=mesh.xprime_length)
    return ((tuple(closure(11 + i) for i in range(mesh.dim)), closure(5)),
            (tuple(closure(101 + i) for i in range(mesh.dim)), closure(107)))


def locally_homogeneous_solution(problem, cylinder, lam=1.0, seed=None):
    """Produce a solution whose sources vanish identically on and well above
    the given boundary cylinder, so the discrete equation is homogeneous
    there (verified row by row), yet which is nontrivial on the cylinder.

    The sources are synthesized from the seed, random and supported above
    the cushion, so a problem that carries F or f is refused; they march
    through the problem's marcher with its kept ``source_parts``, and the
    solution keeps its problem as ``problem``.  Raises
    DegenerateLocalSolution when the result is numerically zero on the
    cylinder, its L2 norm there at most 1e-10 max|u|: relative, as the
    march is linear in the sources.
    """
    mesh, coeffs = problem.mesh, problem.coeffs
    if coeffs.kind == "oscillatory":
        raise ValueError("local-estimate checks use constant or x_d-only "
                         "coefficients")
    if problem.F is not None or problem.f is not None:
        raise ValueError("a locally homogeneous solution synthesizes its "
                         "own sources, so the problem must carry no F or f")
    seed = problem.seed if seed is None else int(seed)
    extent = cylinder.center_xd + cylinder.radius
    x_lo = max(_SUPPORT_FLOOR, extent + _SUPPORT_GAP)
    x_hi = x_lo + _SUPPORT_RAMP
    if x_hi > mesh.Ld - 0.3:
        raise ValueError("no room between the cylinder top %.3g and the "
                         "truncation %.3g for supported sources"
                         % (extent, mesh.Ld))
    sol = problem.marcher().march(
        [lam], parts=problem.source_parts(seed, x_lo, x_hi))[0]

    # certify discrete homogeneity: every interior row whose nodal support
    # lies below the cushion must receive an exactly zero load at all times
    rows = np.arange(mesh.n_interior)
    row_j = rows // mesh.xprime_count + 1
    covered = rows[mesh.xd_nodes[row_j + 1] <= x_lo]
    if covered.size and np.max(np.abs(sol.loads[1:, covered])) != 0.0:
        raise ValueError("sources leak into the homogeneous region")

    if cells_in_cylinder(mesh, cylinder).n_cells == 0:
        raise ValueError("cylinder contains no mesh cells")
    local = weighted_norm(sol, NormSpec(2.0, 0.0, "0", region=cylinder))
    if not local > 1e-10 * sol.max_abs():
        raise DegenerateLocalSolution("solution is numerically zero on the "
                                      "cylinder (seed %d)" % seed)
    sol.homogeneous_cylinder = cylinder
    sol.problem = problem
    sol.seed = seed
    sol.source_bound = x_lo
    return sol


def _sub_cylinder(base, radius):
    if radius > base.radius + 1e-12:
        raise ValueError("radius %.3g exceeds the homogeneous radius %.3g"
                         % (radius, base.radius))
    return Cylinder(base.center_time, base.center_xd, radius,
                    base.center_xprime)


def _nested_cylinders(u_local, r, R):
    """(Q_r, Q_R, the cells of Q_r): the cylinders of radii 0 < r < R
    inside the solution's homogeneous cylinder, Q_r holding a mesh cell."""
    if not 0 < r < R:
        raise ValueError("need 0 < r < R, got r = %g, R = %g" % (r, R))
    base = u_local.homogeneous_cylinder
    Qr, QR = _sub_cylinder(base, r), _sub_cylinder(base, R)
    cs_r = cells_in_cylinder(u_local.mesh, Qr)
    if cs_r.n_cells == 0:
        raise ValueError("inner cylinder contains no mesh cells")
    return Qr, QR, cs_r


def _local_params(sol, lam, r, R, extra):
    return dict({"lambda": lam, "p": 2.0, "mesh_M": sol.mesh.M, "dt": sol.dt,
                 "seed": sol.seed, "rho0": R, "r_inner": r, "r_outer": R},
                **extra)


def caccioppoli_ratio(u_local, r, R):
    """Reverse-type local bounds on a locally homogeneous solution: the
    gradient variant integrates |Du|^2 + lam*u^2/x_d over the inner cylinder
    against u^2/x_d over the outer one; the time-derivative variant bounds
    the weighted difference quotients by the outer gradient energy.  Returns
    (gradient report, time-derivative report); empirical constants are
    recorded in the params, and their ``CHECKS`` row asks only finiteness.
    """
    mesh, lam = u_local.mesh, u_local.lam
    Qr, QR, cs_r = _nested_cylinders(u_local, r, R)
    grad_r = weighted_norm(u_local, NormSpec(2.0, 0.0, "1_full", region=Qr))
    wmass_r = weighted_norm(u_local, NormSpec(2.0, -1.0, "0", region=Qr))
    grad_R = weighted_norm(u_local, NormSpec(2.0, 0.0, "1_full", region=QR))
    wmass_R = weighted_norm(u_local, NormSpec(2.0, -1.0, "0", region=QR))

    lhs1 = grad_r ** 2 + lam * wmass_r ** 2
    rhs1 = wmass_R ** 2
    rep1 = EstimateReport(
        "caccioppoli", lhs1, rhs1,
        params=_local_params(u_local, lam, r, R, {"variant": "gradient"}))

    diffs = u_local.time_differences()
    ut_norm = levels_norm(mesh, diffs[cs_r.time_cells],
                          NormSpec(2.0, -1.0, "0"),
                          space_cells=cs_r.space_cells)
    lhs2 = ut_norm ** 2
    rhs2 = grad_R ** 2 + lam * wmass_R ** 2
    rep2 = EstimateReport(
        "caccioppoli", lhs2, rhs2,
        params=_local_params(u_local, lam, r, R,
                             {"variant": "time_derivative"}))
    return rep1, rep2


def w_estimate_ratio(u_local, r, R):
    """Quotient-field bound: with w = u/x_d (defined nodally away from
    x_d = 0; the boundary node never enters the integrals), compare
    x_d|Dw|^2 + lam*w^2 on the inner cylinder against w^2 on the outer one.
    The structural hypothesis (constant coefficients in the degenerate
    column), decided once per problem, must hold, or ValueError is raised.
    """
    mesh, lam = u_local.mesh, u_local.lam
    if not u_local.problem.structure_condition():
        raise ValueError("the quotient estimate requires a constant "
                         "degenerate coefficient column")
    _, QR, cs_r = _nested_cylinders(u_local, r, R)
    w = u_local.levels / np.where(mesh.xd_nodes > 0, mesh.xd_nodes,
                                  1.0)[None, :, None]
    w[:, 0, :] = w[:, 1, :]      # extrapolated; excluded from all integrals

    def region_norm(cs):
        """spec -> the norm of w over cs, the first x_d layer left out."""
        keep = cs.space_cells[cs.space_j >= 1]
        if keep.size == 0:
            raise ValueError("cylinder has no cells away from the first "
                             "x_d layer")
        levels = w[cs.time_cells + 1]
        return lambda spec: levels_norm(mesh, levels, spec,
                                        space_cells=keep)

    inner, zero = region_norm(cs_r), NormSpec(2.0, 0.0, "0")
    lhs = inner(NormSpec(2.0, 1.0, "1_full")) ** 2 + lam * inner(zero) ** 2
    rhs = region_norm(cells_in_cylinder(mesh, QR))(zero) ** 2
    return EstimateReport("w_estimate", lhs, rhs,
                          params=_local_params(u_local, lam, r, R,
                                               {"variant": "standard"}))


def _region_nodes(mesh, cs):
    sj, sm = cs.space_j, cs.space_m
    sm1 = (sm + 1) % mesh.xprime_count if mesh.dim == 2 else sm
    j = np.concatenate([sj, sj + 1, sj, sj + 1])
    m = np.concatenate([sm, sm, sm1, sm1])
    flat = np.unique(j * mesh.xprime_count + m)
    return flat // mesh.xprime_count, flat % mesh.xprime_count


def boundary_lipschitz(u_local, r):
    """Pointwise gradient bound at the degenerate boundary: the max of
    |Du| over cell centers of the inner boundary cylinder against the
    gradient-plus-weighted-mass norm over the doubled cylinder.  Also
    records the near-boundary quotient sup|u|/x_d (linear decay of the
    solution into the boundary) and sup x_d^{-1/2}|D_x' u|.
    """
    mesh, lam = u_local.mesh, u_local.lam
    if not u_local.homogeneous_cylinder.boundary_centered:
        raise ValueError("boundary estimate needs a boundary-centered "
                         "cylinder")
    _, Q2, cs = _nested_cylinders(u_local, r, 2 * r)
    grads = cell_center_gradients(mesh, u_local.levels[cs.time_cells + 1])
    sel = grads[:, cs.space_j, cs.space_m]      # (levels, ncells, dim)
    sup_grad = float(np.sqrt(np.sum(sel * sel, axis=-1)).max())
    sup_dxp = 0.0
    if mesh.dim == 2:
        xc = mesh.xd_centers[cs.space_j]
        sup_dxp = float(np.max(np.abs(sel[..., 0]) / np.sqrt(xc)))
    jj, mm = _region_nodes(mesh, cs)
    keep = jj >= 1
    jj, mm = jj[keep], mm[keep]
    quot = 0.0
    if jj.size:
        vals = u_local.levels[cs.time_cells + 1][:, jj, mm]
        quot = float(np.max(np.abs(vals) / mesh.xd_nodes[jj][None, :]))
    rhs = weighted_norm(u_local, NormSpec(2.0, 0.0, "1_full", region=Q2)) \
        + np.sqrt(lam) * weighted_norm(u_local,
                                       NormSpec(2.0, -1.0, "0", region=Q2))
    extra = {"sup_u_over_xd": quot, "sup_xhalf_dxprime": sup_dxp}
    return EstimateReport("lipschitz", sup_grad, rhs,
                          params=_local_params(u_local, lam, r, 2 * r,
                                               extra))


# -- duality ---------------------------------------------------------------------

def duality_check(problem, seeds=(0, 1, 2, 3, 4), lam=1.0, kind="constant",
                  eps=0.3):
    """Exact discrete duality: for random data (F, f) and (B, b), the
    pairing of the forward solution with the second data set equals the
    pairing of the backward (transposed-coefficient) solution with the
    first, up to roundoff.  Both march at theta = 1, whatever the
    problem's stepper says, through the seed's marcher and load parts
    that the problem keeps (``ProblemSpec.duality_seed``), so a seed
    checked at many lambdas derives them once.  Reports the worst of the
    seeds, at least one, labelled p = 2 (the L2 pairing); pass requires
    relative agreement to 1e-8 on every seed.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    mesh = problem.mesh
    worst = (None, -1.0, 0.0, 0.0)     # (seed, rel, |P1-P2|, max|P|)
    for s in seeds:
        marcher, fwd, dual = problem.duality_seed(s, kind, eps)
        u = marcher.march([lam], parts=fwd)[0]
        b_rows = u.loads
        c_rows = LoadAssembler.combine(dual, lam)
        v = marcher.adjoint(lam, c_rows)
        dt = u.dt
        P1 = dt * float(np.sum(c_rows[1:] * u.interior_levels()[1:]))
        P2 = dt * float(np.sum(b_rows[1:] * v[1:]))
        scale = max(abs(P1), abs(P2))
        rel = abs(P1 - P2) / scale if scale > 0 else 0.0
        if rel > worst[1] or np.isnan(rel):    # a NaN seed is the worst
            worst = (s, rel, abs(P1 - P2), scale)
    params = {"lambda": lam, "p": 2.0, "mesh_M": mesh.M,
              "dt": mesh.time_step, "seed": worst[0], "rho0": problem.rho0,
              "n_seeds": len(seeds),
              "kind": kind, "eps": eps, "rel_errors_max": worst[1]}
    return EstimateReport("duality", worst[2], worst[3], params=params)


# -- second-order weighted estimate ------------------------------------------------

def corollary2_check(case, mesh, p, config=None):
    """The corollary2_reports report of one p."""
    return corollary2_reports(case, mesh, [p], config)[0]


def corollary2_reports(case, mesh, ps, config=None):
    """Model-equation estimate with exact weights, one report per p of ps
    from one march of the case: the sum of the solution norm (weight
    x_d^{-p/2}), gradient norm, difference-quotient time derivative norm
    (weight x_d^{-p/2}), second-difference norm (weight x_d^{+p/2}), and
    gradient-of-time-derivative norm, against the data norms of f and f_t
    at weight x_d^{-p/2}.  Requires p >= 2; the manufactured case, on
    identity coefficients by construction, must carry its data in f alone.
    """
    if min(ps) < 2:
        raise ValueError("the second-order estimate needs p >= 2, got p = %s"
                         % [p for p in ps if p < 2])
    if case.mode != "f_only":
        raise ValueError("a manufactured case with f-only data is required")
    if abs(mesh.Ld - case.Ld) > 1e-12 or \
            abs(mesh.total_time - case.T) > 1e-12:
        raise ValueError("mesh window does not match the manufactured case")
    _, f = case.synthesize_sources()
    f_t = case.synthesize_f_t()
    sol = march(mesh, case.coeffs, case.lam, f=f, config=config)
    skip = sol.time_count // 10
    diffs = sol.time_differences()[skip:]
    reports = []
    for p in ps:
        down, grad = NormSpec(p, -p / 2.0, "0"), NormSpec(p, 0.0, "1_full")
        n_u = weighted_norm(sol, down, skip_initial=skip)
        n_du = weighted_norm(sol, grad, skip_initial=skip)
        n_d2 = weighted_norm(sol, NormSpec(p, p / 2.0, "2_full"),
                             skip_initial=skip)
        n_ut = levels_norm(mesh, diffs, down)
        n_dut = levels_norm(mesh, diffs, grad)
        lhs = n_u + n_du + n_ut + n_d2 + n_dut
        rhs = analytic_norm(mesh, f, down, skip_initial=skip) \
            + analytic_norm(mesh, f_t, down, skip_initial=skip)
        params = {"lambda": case.lam, "p": float(p), "mesh_M": mesh.M,
                  "dt": mesh.time_step, "norm_u": n_u, "norm_du": n_du,
                  "norm_ut": n_ut, "norm_d2u": n_d2, "norm_dut": n_dut}
        reports.append(EstimateReport("corollary2", lhs, rhs, params=params))
    return reports


# -- Hardy quotient and trace decay -------------------------------------------------

def hardy_report(field, p, seed=None):
    """Weighted-quotient (Hardy) inequality on one discrete field:
    ||u/x_d||_p against ||D_d u||_p, passing up to the sharp constant
    p/(p-1) plus the allowance 0.05."""
    rr = hardy_check(field, p)
    params = {"p": float(p), "mesh_M": field.mesh.M, "seed": seed}
    return EstimateReport("hardy", rr.numerator, rr.denominator, params=params)


def trace_report(field, p, skip_initial=0, seed=None):
    """Near-boundary decay of a field or solution: lhs is the least-squares
    log-log slope of its slice norms s(x_d) over the near-boundary quartile
    of nodes, rhs is 1.  It passes when the slope reaches the expected decay
    exponent 1/2 - 1/p less the fitting allowance 0.05 and the constant
    max s(x_d) / x_d^(1/2 - 1/p) is finite.  Requires p >= 2."""
    if p < 2:
        raise ValueError("trace decay check needs p >= 2, got p = %g" % p)
    mesh = field.mesh
    xd, s = slice_norms(field, p, skip_initial=skip_initial)
    expo = 0.5 - 1.0 / p
    js = np.arange(1, min(max(4, mesh.M // 4), mesh.M) + 1)
    usable = js[s[js] > 0]
    if usable.size < 4:
        raise ValueError("fewer than 4 usable near-boundary slices")
    slope = float(np.polyfit(np.log(xd[usable]), np.log(s[usable]), 1)[0])
    pos = np.arange(1, mesh.M + 1)
    constant = float(np.max(s[pos] / xd[pos] ** expo))
    params = {"p": float(p), "mesh_M": mesh.M, "seed": seed,
              "slope_threshold": expo - 0.05, "constant": constant,
              "n_slices": usable.size}
    return EstimateReport("trace", slope, 1.0, params=params)
