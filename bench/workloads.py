"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed (``__init__`` is
the set-up that ``setup_s`` times), runs one operation through degenlab's
public API (``run``), reads back what the program produced (``observe``,
untimed) and checks it against properties of the method or against a
computation made here, apart from the program (``verify``).  ``corrupt``
damages one observed output so that the run can show its check is not
vacuous, and ``once`` holds the checks that are made once per run.

A round runs every (pool seed, lambda) pair of the workload once, in an
order drawn from the benchmark seed; operation ``i`` is entry
``i % round_len`` of that order, so every run repeats the same work in
whole rounds.  The pools are small and fixed because the cost of an
operation depends on its coefficient seed (GMRES iteration counts in
d = 2, the oscillatory field in the sweep): a run that drew its own
coefficient seeds would measure different work.  Seeds 0-15 at every
lambda of each workload ran to completion with all checks passing.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np
import scipy.sparse as sp

import degenlab.assembly as A
import degenlab.cli as cli
import degenlab.coefficients as C
import degenlab.harness as H
import degenlab.norms as N
from degenlab.mesh import Cylinder, build_mesh

NU = 0.5


class Workload:
    """Seed order and per-op inputs shared by the three workloads."""

    LAMBDAS = ()
    POOL = ()

    def __init__(self, seed):
        pairs = [(s, lam) for s in self.POOL for lam in self.LAMBDAS]
        order = np.random.default_rng(seed).permutation(len(pairs))
        self.round = [pairs[k] for k in order]
        self.round_len = len(self.round)

    def inputs(self, i):
        """(pool seed, lambda) of operation i."""
        return self.round[i % self.round_len]

    def once(self, i, out):
        return []

    def cleanup(self, i, out):
        pass


# -- duality_d2 ----------------------------------------------------------------

def _bitwise_equal(P, Q):
    P, Q = sp.csr_matrix(P), sp.csr_matrix(Q)
    P.sort_indices()
    Q.sort_indices()
    return (P.shape == Q.shape and np.array_equal(P.indptr, Q.indptr)
            and np.array_equal(P.indices, Q.indices)
            and P.data.tobytes() == Q.data.tobytes())


class DualityD2(Workload):
    """Forward and adjoint marches on a 32 x 32 cell d = 2 mesh, 20 steps,
    nonsymmetric constant coefficients; one seed per operation."""

    LAMBDAS = (1.0, 10.0, 100.0)
    EPS = 0.2
    POOL = (0, 1, 2)

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.mesh = build_mesh(2, 4.0, 32, 2.0, xprime_count=32,
                               xprime_length=2 * np.pi, time_step=0.05,
                               time_count=20)
        xp = self.mesh.xprime_length
        self.problem = H.ProblemSpec(
            self.mesh, C.generate_family(0, "constant", NU, self.EPS, dim=2,
                                         xp_length=xp))
        self.coeffs = {s: C.generate_family(s, "constant", NU, self.EPS,
                                            dim=2, xp_length=xp)
                       for s in self.POOL}

    def run(self, i):
        s, lam = self.inputs(i)
        return H.duality_check(self.problem, seeds=(s,), lam=lam,
                               kind="constant", eps=self.EPS)

    def observe(self, i, report):
        s, _ = self.inputs(i)
        a = C.sample_on_mesh(self.coeffs[s], self.mesh, t=0.0).a
        return {"seed": s, "report_seed": report.params["seed"],
                "gap": report.lhs, "scale": report.rhs,
                "rel_max": report.params["rel_errors_max"],
                "passed": report.passed,
                "asym": float(np.abs(a - np.swapaxes(a, -1, -2)).max())}

    def verify(self, obs):
        fails = []
        if obs["report_seed"] != obs["seed"]:
            fails.append("report is for seed %r, not %r"
                         % (obs["report_seed"], obs["seed"]))
        if not obs["scale"] > 0:
            fails.append("pairing is zero: nothing was checked")
        else:
            rel = obs["gap"] / obs["scale"]
            if not (rel <= 1e-8 and obs["rel_max"] <= 1e-8):
                fails.append("forward/adjoint pairing gap %.3e > 1e-8"
                             % max(rel, obs["rel_max"]))
        if not obs["passed"]:
            fails.append("duality report did not pass")
        if not obs["asym"] > 0.01:
            fails.append("coefficients nearly symmetric (%.3g)" % obs["asym"])
        return fails

    def corrupt(self, i, report, obs):
        bad = dict(obs)
        bad["gap"] = obs["gap"] + 1e-6 * obs["scale"]   # P1 off by 1e-6
        return bad

    def once(self, i, report):
        s, _ = self.inputs(i)
        coeffs = self.coeffs[s]
        fails = []
        for lam in self.LAMBDAS:
            K = A.assemble_stiffness(self.mesh, coeffs, lam, t=0.0).matrix
            Kt = A.assemble_stiffness(self.mesh, coeffs.transposed(), lam,
                                      t=0.0).matrix
            if not _bitwise_equal(Kt, K.T):
                fails.append("stiffness of the transposed coefficients is "
                             "not bitwise the transpose (seed %d, lambda %g)"
                             % (s, lam))
        return fails


# -- local_d1 ------------------------------------------------------------------

_GX, _GW = np.polynomial.legendre.leggauss(8)


def weighted_l2_closed_form(x, u):
    """Integral of u^2/x over [x_0, x_M] = [0, L] for the continuous
    piecewise-linear u with nodal values u (u_0 = 0), in closed form, and
    the error that 8-point Gauss-Legendre per cell makes on it.

    On a cell [a, b] write u = alpha + beta x; then u^2/x = alpha^2/x +
    2 alpha beta + beta^2 x.  Gauss integrates the linear part exactly, so
    its whole error is alpha^2 (G8(r) - log(1 + r)) with r = (b - a)/a and
    G8(r) the rule applied to r/(1 + r s) on [0, 1].  On the first cell
    alpha = u_0 = 0.  Returns (integral, Gauss error bound, size of the
    terms summed, for the rounding allowance).
    """
    a, b = x[:-1], x[1:]
    h = b - a
    beta = np.diff(u) / h
    alpha = u[:-1] - beta * a
    r = np.zeros_like(a)
    r[1:] = h[1:] / a[1:]
    log_term = np.log1p(r)
    terms = np.stack([alpha * alpha * log_term, 2.0 * alpha * beta * h,
                      0.5 * beta * beta * (b * b - a * a)])
    nodes = 0.5 * (_GX + 1.0)
    g8 = (0.5 * _GW[None, :] * r[:, None]
          / (1.0 + r[:, None] * nodes[None, :])).sum(axis=1)
    gauss_err = float(np.sum(alpha * alpha * np.abs(g8 - log_term)))
    return math.fsum(terms.ravel()), gauss_err, float(np.abs(terms).sum())


class LocalD1(Workload):
    """Locally homogeneous solution at M = 128 with 128 steps on a
    boundary cylinder, then the Caccioppoli, quotient and boundary
    Lipschitz ratios on it."""

    LAMBDAS = (0.0, 1.0, 10.0, 100.0)
    POOL = (0, 1, 2, 3)
    R_IN, R_OUT = 0.25, 0.5

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.mesh = build_mesh(1, 4.0, 128, 2.0, time_step=1.0 / 128,
                               time_count=128)
        self.cylinder = Cylinder(1.0, 0.0, 0.5)
        self.problems = {
            s: H.ProblemSpec(self.mesh, C.generate_family(s, "xd_only", NU,
                                                          0.2, dim=1),
                             seed=s)
            for s in self.POOL}
        rng = np.random.default_rng([seed, 1])
        self.check_levels = rng.integers(1, self.mesh.time_count + 1,
                                         size=self.round_len)

    def run(self, i):
        s, lam = self.inputs(i)
        sol = H.locally_homogeneous_solution(self.problems[s], self.cylinder,
                                             lam=lam, seed=s)
        reports = list(H.caccioppoli_ratio(sol, self.R_IN, self.R_OUT))
        reports.append(H.w_estimate_ratio(sol, self.R_IN, self.R_OUT))
        reports.append(H.boundary_lipschitz(sol, self.R_IN))
        return sol, reports

    def observe(self, i, out):
        sol, reports = out
        n = int(self.check_levels[i % self.check_levels.size])
        return {"certified": (sol.homogeneous_cylinder is self.cylinder
                              and sol.source_bound is not None),
                "sides": [(r.check_id, r.lhs, r.rhs, r.ratio)
                          for r in reports],
                "level": n, "u": sol.levels[n][:, 0].copy(),
                "norm": N.weighted_norm(sol.field_at(n),
                                        N.NormSpec(2.0, -1.0, "0"))}

    def verify(self, obs):
        fails = []
        if not obs["certified"]:
            fails.append("homogeneity certificate missing")
        if len(obs["sides"]) != 4:
            fails.append("expected 4 reports, got %d" % len(obs["sides"]))
        for check_id, lhs, rhs, ratio in obs["sides"]:
            if not (np.isfinite([lhs, rhs, ratio]).all() and rhs > 0):
                fails.append("%s report lhs=%r rhs=%r" % (check_id, lhs, rhs))
        if obs["u"][0] != 0.0:
            fails.append("level %d: nonzero trace at x_d = 0" % obs["level"])
            return fails
        exact, gauss_err, size = weighted_l2_closed_form(
            self.mesh.xd_nodes, obs["u"])
        tol = gauss_err + 1e-12 * size
        got = obs["norm"] ** 2
        if not (exact > 0 and abs(got - exact) <= tol):
            fails.append("level %d: weighted_norm^2 %.17g, closed form %.17g,"
                         " tolerance %.3g" % (obs["level"], got, exact, tol))
        return fails

    def corrupt(self, i, out, obs):
        bad = dict(obs)
        bad["norm"] = obs["norm"] * (1 + 1e-6)
        return bad


# -- sweep_osc_d1 --------------------------------------------------------------

class SweepOscD1(Workload):
    """In-process ``lab run`` of a sweep config: oscillatory coefficients,
    p = 3, lambda in {1, 10, 100, 1000}, M = 32 with 32 steps plus the
    sweep's refined mesh; artifacts go to a directory under the run's
    temporary directory."""

    LAMBDAS = (None,)            # the lambda grid is inside one operation
    GRID = [1.0, 10.0, 100.0, 1000.0]
    POOL = (0, 1, 2)

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.out_dir = os.path.join(workdir, "sweep")
        self.raw = {s: {"schema_version": 1, "command": "sweep", "dim": 1,
                        "mesh_M": 32, "time_step": 1.0 / 32,
                        "time_count": 32, "kind": "oscillatory", "eps": 0.2,
                        "p": 3.0, "lambda_grid": list(self.GRID), "seed": s,
                        "out_dir": self.out_dir}
                    for s in self.POOL}

    def run(self, i):
        s, _ = self.inputs(i)
        cfg = cli.parse_config(self.raw[s])
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = cli.run(cfg)
        return code

    def _read(self, name):
        with open(os.path.join(self.out_dir, name), "rb") as fh:
            return fh.read()

    def observe(self, i, code):
        manifest = json.loads(self._read("MANIFEST.json"))
        files = []
        for entry in manifest["artifacts"]:
            data = self._read(entry["name"])
            files.append((entry["name"], entry["sha256"], entry["bytes"],
                          hashlib.sha256(data).hexdigest(), len(data)))
        bundle = json.loads(self._read("run.json"))
        rhs = {}
        for rep in bundle["reports"]:
            key = (rep["params"]["p"], rep["params"]["eps"])
            rhs.setdefault(key, set()).add(rep["rhs"])
        return {"code": code, "n_failed": bundle["n_failed"],
                "lambdas": sorted(r["params"]["lambda"]
                                  for r in bundle["reports"]),
                "files": files, "rhs": rhs}

    def verify(self, obs):
        fails = []
        if obs["code"] != 0 or obs["n_failed"] != 0:
            fails.append("exit code %r with %r failed reports"
                         % (obs["code"], obs["n_failed"]))
        if obs["lambdas"] != self.GRID:
            fails.append("reports cover lambda %r" % (obs["lambdas"],))
        names = {f[0] for f in obs["files"]}
        for need in ("reports.csv", "run.json", "plot_ratio.gp"):
            if need not in names:
                fails.append("MANIFEST lacks %s" % need)
        for name, sha, size, disk_sha, disk_size in obs["files"]:
            if sha != disk_sha or size != disk_size:
                fails.append("%s on disk does not match MANIFEST" % name)
        for key, values in obs["rhs"].items():
            if len(values) != 1:
                fails.append("data norm depends on lambda at p, eps = %r: %r"
                             % (key, sorted(values)))
        return fails

    def corrupt(self, i, code, obs):
        path = os.path.join(self.out_dir, "reports.csv")
        with open(path, "r+b") as fh:
            first = fh.read(1)
            fh.seek(0)
            fh.write(bytes([first[0] ^ 0x01]))
        return self.observe(i, code)

    def once(self, i, code):
        """Rerun the config into the emptied directory: reports.csv and
        run.json must come out byte-identical."""
        before = {n: self._read(n) for n in ("reports.csv", "run.json")}
        shutil.rmtree(self.out_dir)
        self.run(i)
        return ["%s differs after a rerun into a clean directory" % n
                for n, data in before.items() if self._read(n) != data]

    def cleanup(self, i, code):
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {"duality_d2": DualityD2, "local_d1": LocalD1,
             "sweep_osc_d1": SweepOscD1}
