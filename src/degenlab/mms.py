"""Manufactured solutions: given analytic u (with hand-written derivative
closures) and a coefficient field that is constant in space and time,
synthesize sources (F, f) so u solves

    u_t + lambda c0 u - x_d D_i(a_ij D_j u - F_i) = sqrt(lambda) f

exactly.  With constant a_ij the divergence is a_ij D_i D_j u, so the
second-derivative closures are all the residual needs.  Derivative closures
are author-supplied and cross-validated against finite differences at
construction (step 1e-6, relative tolerance 1e-7), so a wrong closure fails
loudly instead of polluting a convergence study.
"""

import numpy as np

from .norms import NormSpec, error_norm
from .solver import TimeStepperConfig, march
from .coefficients import identity_coefficients


class ClosureError(ValueError):
    pass


def _fd_partial(func, args, axis, step=1e-6):
    hi = list(args)
    lo = list(args)
    hi[axis] = args[axis] + step
    lo[axis] = args[axis] - step
    return (func(*hi) - func(*lo)) / (2 * step)


def _check_close(fd, closure_vals, what, tol=1e-7):
    fd = np.asarray(fd, float)
    cv = np.asarray(closure_vals, float)
    scale = max(np.max(np.abs(cv)), np.max(np.abs(fd)), 1e-8)
    worst = np.max(np.abs(fd - cv)) / scale
    if worst > tol:
        raise ClosureError("finite-difference cross-check failed for %s "
                           "(relative %.3e > %.3e)" % (what, worst, tol))


class ManufacturedCase:
    """Analytic solution with closures, each of which broadcasts numpy
    arrays, t included, on a coefficient field of kind ``"constant"``: the
    residual has no (D_i a_ij) D_j u term and f_t no t-derivative of the
    coefficients, so a field of any other kind is refused.

    u, u_t: (t, xp, xd) -> values
    du: tuple of dim first-partial closures, ordered (x', x_d) in dim 2
    d2u: dict {(i,j): closure} for i <= j (symmetric completion implied)
    F_d_antiderivative: optional closure with d/dx_d F_d = -residual/x_d
        (required by mode F_only/mixed)
    u_tt, d2u_t: optional time-derivative closures (d2u_t a dict like
        d2u) enabling f_t

    The mixed mode puts half of the residual in f and half in F_d.  Every
    closure is cross-checked at construction.
    """

    MODES = ("f_only", "F_only", "mixed")

    def __init__(self, dim, coeffs, lam, u, u_t, du, d2u,
                 mode="f_only", F_d_antiderivative=None,
                 u_tt=None, d2u_t=None,
                 Ld=4.0, T=1.0, xp_length=2 * np.pi):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if mode not in self.MODES:
            raise ValueError("mode must be one of %s" % (self.MODES,))
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        if mode in ("f_only", "mixed") and lam == 0:
            raise ValueError("%s mode needs lambda > 0 (division by "
                             "sqrt(lambda))" % mode)
        if mode in ("F_only", "mixed") and F_d_antiderivative is None:
            raise ValueError("mode %s requires an F_d antiderivative closure"
                             % mode)
        if coeffs.kind != "constant":
            raise ValueError("a manufactured case needs coefficients of "
                             "kind 'constant', got kind %r" % (coeffs.kind,))
        if len(du) != dim:
            raise ValueError("du must supply %d components" % dim)
        need = {(i, j) for i in range(dim) for j in range(i, dim)}
        if set(d2u) != need:
            raise ValueError("d2u must supply exactly the pairs %s"
                             % sorted(need))
        self.dim = dim
        self.coeffs = coeffs
        self.lam = float(lam)
        self.u = u
        self.u_t = u_t
        self.du = tuple(du)
        self.d2u = dict(d2u)
        self.mode = mode
        self.F_d_antiderivative = F_d_antiderivative
        self.u_tt = u_tt
        self.d2u_t = d2u_t
        self.Ld = float(Ld)
        self.T = float(T)
        self.xp_length = float(xp_length)
        self._validate()

    # -- residual of the strong form, with f = F = 0 --------------------------

    def residual(self, t, xp, xd):
        """u_t + lambda c0 u - x_d * div(a Du), vectorized."""
        return self._strong_form(self.u, self.u_t, self.d2u, t, xp, xd)

    def residual_t(self, t, xp, xd):
        """Time derivative of the residual; needs the *_t closures."""
        if self.u_tt is None or self.d2u_t is None:
            raise ClosureError("f_t needs u_tt and d2u_t closures")
        return self._strong_form(self.u_t, self.u_tt, self.d2u_t, t, xp, xd)

    def _strong_form(self, v, v_t, d2v, t, xp, xd):
        """v_t + lambda c0 v - x_d * a_ij D_i D_j v for the closures of v:
        u itself, or u_t (the coefficients are constant)."""
        c = self.coeffs
        acc = v_t(t, xp, xd) + self.lam * c.c0(t, xp, xd) * v(t, xp, xd)
        dive = np.zeros(np.broadcast(np.asarray(t), np.asarray(xp),
                                     np.asarray(xd)).shape)
        for j in range(self.dim):
            for i in range(self.dim):
                key = (min(i, j), max(i, j))
                dive = dive + c.a[i][j](t, xp, xd) * d2v[key](t, xp, xd)
        return acc - np.asarray(xd) * dive

    # -- construction checks ----------------------------------------------------

    def _sample_points(self, rng, n, xd_lo=0.02, xd_hi=None):
        xd_hi = 0.95 * self.Ld if xd_hi is None else xd_hi
        t = rng.uniform(0.05 * self.T, self.T, n)
        xp = rng.uniform(0, self.xp_length, n) if self.dim == 2 \
            else np.zeros(n)
        xd = rng.uniform(xd_lo, xd_hi, n)
        return t, xp, xd

    def _validate(self):
        rng = np.random.default_rng(190)
        # zero trace at x_d = 0, 100 points
        t, xp, _ = self._sample_points(rng, 100)
        tgrid = np.linspace(0, self.T, 9)
        xgrid = np.linspace(0, self.xp_length, 11)
        dense = np.linspace(0, self.Ld, 101)
        umax = np.max(np.abs(self.u(tgrid[:, None, None], xgrid,
                                    dense[:, None])))
        if np.max(np.abs(self.u(t, xp, np.zeros_like(t)))) > 1e-12 * max(
                umax, 1e-12):
            raise ClosureError("u does not vanish at x_d = 0")
        # truncation admissibility at x_d = Ld
        edge = np.max(np.abs(self.u(tgrid[:, None], xgrid, self.Ld)))
        if edge > 1e-6 * max(umax, 1e-300):
            raise ClosureError(
                "u(., L_d) = %.3e exceeds 1e-6 of max |u| = %.3e: not "
                "admissible for a truncated strip" % (edge, umax))
        # finite-difference chain checks
        pts = self._sample_points(rng, 30)
        _check_close(_fd_partial(self.u, pts, 0), self.u_t(*pts), "u_t")
        axes = (2,) if self.dim == 1 else (1, 2)
        for comp, ax in enumerate(axes):
            _check_close(_fd_partial(self.u, pts, ax),
                         self.du[comp](*pts), "du[%d]" % comp)
            for comp2 in range(comp, self.dim):
                ax2 = axes[comp2]
                _check_close(_fd_partial(self.du[comp], pts, ax2),
                             self.d2u[(comp, comp2)](*pts),
                             "d2u[%d,%d]" % (comp, comp2))
        if self.F_d_antiderivative is not None:
            t, xp, xd = self._sample_points(rng, 30, xd_lo=0.1)
            fd = _fd_partial(self.F_d_antiderivative, (t, xp, xd), 2)
            target = -self.residual(t, xp, xd) / xd
            _check_close(fd, target, "F_d antiderivative", tol=3e-6)
        if self.u_tt is not None:
            _check_close(_fd_partial(self.u_t, pts, 0), self.u_tt(*pts),
                         "u_tt")
        if self.d2u_t is not None:
            for key, closure in self.d2u_t.items():
                _check_close(_fd_partial(self.d2u[key], pts, 0),
                             closure(*pts), "d2u_t[%d,%d]" % key)

    # -- sources -------------------------------------------------------------------

    def synthesize_sources(self):
        """(F, f) samplers such that u solves the equation exactly.  F is
        None or a tuple of dim closures; f is None or a closure."""
        lam = self.lam
        if self.mode == "f_only":
            scale = 1.0 / np.sqrt(lam)

            def f(t, xp, xd):
                return scale * self.residual(t, xp, xd)

            return None, f
        if self.mode == "F_only":
            F = [None] * self.dim
            F[self.dim - 1] = self.F_d_antiderivative
            return tuple(F), None

        def f_part(t, xp, xd):
            return 0.5 / np.sqrt(lam) * self.residual(t, xp, xd)

        def Fd_part(t, xp, xd):
            return 0.5 * self.F_d_antiderivative(t, xp, xd)

        F = [None] * self.dim
        F[self.dim - 1] = Fd_part
        return tuple(F), f_part

    def synthesize_f_t(self):
        """Closure for the time derivative of the f_only source."""
        if self.mode != "f_only":
            raise ValueError("f_t is defined for f_only cases")
        scale = 1.0 / np.sqrt(self.lam)

        def f_t(t, xp, xd):
            return scale * self.residual_t(t, xp, xd)

        return f_t


# -- default family -------------------------------------------------------------

def default_case(dim, lam=1.0, Ld=4.0, T=1.0, mode="f_only"):
    """u = sin(t) g(x_d) [cos(x')] with g = x e^{-x} - x^2 e^{-Ld}/Ld,
    for identity coefficients:
    vanishing linearly at x_d = 0, exactly zero at the truncation boundary,
    and with elementary antiderivatives for the F_only mode."""
    c = np.exp(-Ld) / Ld

    def g(x):
        return x * np.exp(-x) - c * x ** 2

    def gp(x):
        return (1 - x) * np.exp(-x) - 2 * c * x

    def gpp(x):
        return (x - 2) * np.exp(-x) - 2 * c

    def g_over_x_anti(x):
        # antiderivative of g(x)/x = e^{-x} - c x
        return -np.exp(-x) - 0.5 * c * x ** 2

    def g_anti(x):
        return -(x + 1) * np.exp(-x) - c * x ** 3 / 3

    lamf = float(lam)

    if dim == 1:
        u = lambda t, xp, xd: np.sin(t) * g(xd)
        u_t = lambda t, xp, xd: np.cos(t) * g(xd)
        u_tt = lambda t, xp, xd: -np.sin(t) * g(xd)
        du = (lambda t, xp, xd: np.sin(t) * gp(xd),)
        d2u = {(0, 0): lambda t, xp, xd: np.sin(t) * gpp(xd)}
        d2u_t = {(0, 0): lambda t, xp, xd: np.cos(t) * gpp(xd)}

        def Fd_anti(t, xp, xd):
            # d/dx Fd = -residual/x for a = I, c0 = 1
            return (-(np.cos(t) + lamf * np.sin(t)) * g_over_x_anti(xd)
                    + np.sin(t) * gp(xd))
    else:
        u = lambda t, xp, xd: np.sin(t) * np.cos(xp) * g(xd)
        u_t = lambda t, xp, xd: np.cos(t) * np.cos(xp) * g(xd)
        u_tt = lambda t, xp, xd: -np.sin(t) * np.cos(xp) * g(xd)
        du = (lambda t, xp, xd: -np.sin(t) * np.sin(xp) * g(xd),
              lambda t, xp, xd: np.sin(t) * np.cos(xp) * gp(xd))
        d2u = {(0, 0): lambda t, xp, xd: -np.sin(t) * np.cos(xp) * g(xd),
               (0, 1): lambda t, xp, xd: -np.sin(t) * np.sin(xp) * gp(xd),
               (1, 1): lambda t, xp, xd: np.sin(t) * np.cos(xp) * gpp(xd)}
        d2u_t = {
            (0, 0): lambda t, xp, xd: -np.cos(t) * np.cos(xp) * g(xd),
            (0, 1): lambda t, xp, xd: -np.cos(t) * np.sin(xp) * gp(xd),
            (1, 1): lambda t, xp, xd: np.cos(t) * np.cos(xp) * gpp(xd)}

        def Fd_anti(t, xp, xd):
            # includes the tangential Laplacian contribution
            return np.cos(xp) * (
                -(np.cos(t) + lamf * np.sin(t)) * g_over_x_anti(xd)
                + np.sin(t) * (gp(xd) - g_anti(xd)))

    return ManufacturedCase(
        dim, identity_coefficients(dim), lamf, u, u_t, du, d2u, mode=mode,
        F_d_antiderivative=Fd_anti, u_tt=u_tt, d2u_t=d2u_t, Ld=Ld, T=T)


# -- convergence machinery ---------------------------------------------------------

class StudyRow:
    def __init__(self, M, dt, e0, e1):
        self.M = M
        self.dt = dt
        self.e0 = e0
        self.e1 = e1


class StudyTable:
    def __init__(self, rows):
        self.rows = rows
        self.rates0 = self._rates([r.e0 for r in rows])
        self.rates1 = self._rates([r.e1 for r in rows])

    def _rates(self, errs):
        out = [np.nan]
        for k in range(1, len(self.rows)):
            ratio = self.rows[k].M / self.rows[k - 1].M
            if errs[k] > 0 and errs[k - 1] > 0:
                out.append(np.log(errs[k - 1] / errs[k]) / np.log(ratio))
            else:
                out.append(np.nan)
        return out

    def fitted_rates(self):
        """Least-squares slopes of log e vs log(1/M) over all rungs."""
        Ms = np.array([r.M for r in self.rows], float)
        out = []
        for errs in ([r.e0 for r in self.rows], [r.e1 for r in self.rows]):
            errs = np.array(errs)
            good = errs > 0
            if good.sum() < 2:
                out.append(np.nan)
                continue
            out.append(-np.polyfit(np.log(Ms[good]), np.log(errs[good]),
                                   1)[0])
        return tuple(out)

    def csv(self):
        lines = ["M,dt,e0,e1,rate0,rate1"]
        for r, q0, q1 in zip(self.rows, self.rates0, self.rates1):
            lines.append("%d,%.10g,%.12g,%.12g,%.6g,%.6g"
                         % (r.M, r.dt, r.e0, r.e1, q0, q1))
        return "\n".join(lines) + "\n"


def convergence_study(case, meshes, p=2.0, theta=1.0, linear_tol=1e-11):
    """March the manufactured case on each mesh; e0 is the weighted solution
    error (weight x_d^{-p/2}), e1 the gradient error."""
    if len(meshes) < 3:
        raise ValueError("need a ladder of at least 3 meshes")
    F, f = case.synthesize_sources()
    exact = {"u": case.u, "du": case.du}
    rows = []
    for mesh in meshes:
        if abs(mesh.Ld - case.Ld) > 1e-12 or abs(mesh.total_time
                                                 - case.T) > 1e-12:
            raise ValueError("mesh window does not match the case")
        config = TimeStepperConfig(theta=theta, linear_tol=linear_tol)
        sol = march(mesh, case.coeffs, case.lam, F=F, f=f, config=config)
        e0 = error_norm(sol, exact, NormSpec(p, -p / 2.0, "0"))
        e1 = error_norm(sol, exact, NormSpec(p, 0.0, "1_full"))
        rows.append(StudyRow(mesh.M, sol.dt, e0, e1))
    return StudyTable(rows)
