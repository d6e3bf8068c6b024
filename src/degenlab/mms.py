"""The manufactured solution of the model operator (a = I, c0 = 1, a0 = 1):

    u = sin(t) g(x_d) [cos(x')],    g(x) = x e^{-x} - c x^2,  c = e^{-L_d}/L_d,

with the factor cos(x') in d = 2 only.  u vanishes linearly at x_d = 0 and
exactly at the truncation boundary x_d = L_d.  Its sources (F, f) are
written in closed form so that u solves

    u_t + lambda u - x_d D_i(D_i u - F_i) = sqrt(lambda) f

exactly: the residual u_t + lambda u - x_d (D_x'x' u + D_dd u) goes into f,
into F_d through its antiderivative in x_d, or half into each.  The unit
tests check every closed form against finite differences.
"""

import numpy as np

from .norms import NormSpec, error_norm
from .solver import TimeStepperConfig, march
from .coefficients import identity_coefficients


# g and its derivatives and antiderivatives, for c = e^{-L_d}/L_d

def _g(x, c):
    return x * np.exp(-x) - c * x ** 2


def _gp(x, c):
    return (1 - x) * np.exp(-x) - 2 * c * x


def _gpp(x, c):
    return (x - 2) * np.exp(-x) - 2 * c


def _g_over_x_anti(x, c):
    # antiderivative of g(x)/x = e^{-x} - c x
    return -np.exp(-x) - 0.5 * c * x ** 2


def _g_anti(x, c):
    return -(x + 1) * np.exp(-x) - c * x ** 3 / 3


class ManufacturedCase:
    """u = sin(t) g(x_d) [cos(x')] on the window (0, T) x (0, L_d), with
    identity coefficients and the sources of one mode: f_only puts the
    residual into f, F_only into F_d, and mixed half into each.  u and the
    components of du broadcast numpy arrays, t included; du is ordered
    (x', x_d) in d = 2.
    """

    MODES = ("f_only", "F_only", "mixed")

    def __init__(self, dim, lam, Ld, T, mode):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if mode not in self.MODES:
            raise ValueError("mode must be one of %s" % (self.MODES,))
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        if mode in ("f_only", "mixed") and lam == 0:
            raise ValueError("%s mode needs lambda > 0 (division by "
                             "sqrt(lambda))" % mode)
        self.dim = dim
        self.coeffs = identity_coefficients(dim)
        self.lam = float(lam)
        self.Ld = float(Ld)
        self.T = float(T)
        self.mode = mode
        self._c = np.exp(-self.Ld) / self.Ld
        self.du = (self._u_xd,) if dim == 1 else (self._u_xp, self._u_xd)

    def _tangential(self, s, xp):
        """s times the factor cos(x') of d = 2."""
        return s * np.cos(xp) if self.dim == 2 else s

    def u(self, t, xp, xd):
        return self._tangential(np.sin(t), xp) * _g(xd, self._c)

    def _u_xp(self, t, xp, xd):
        return -np.sin(t) * np.sin(xp) * _g(xd, self._c)

    def _u_xd(self, t, xp, xd):
        return self._tangential(np.sin(t), xp) * _gp(xd, self._c)

    def _residual(self, s, s_t, xp, xd):
        """v_t + lambda v - x_d (D_x'x' v + D_dd v) for v = s [cos(x')] g,
        given the time factor s and its derivative s_t at t: the residual
        for s = sin(t), and its time derivative for s = cos(t)."""
        g = _g(xd, self._c)
        lap = self._tangential(s, xp) * _gpp(xd, self._c)
        if self.dim == 2:
            lap = self._tangential(-s, xp) * g + lap
        return (self._tangential(s_t, xp) * g
                + self.lam * (self._tangential(s, xp) * g) - xd * lap)

    def _F_d(self, t, xp, xd):
        """The F_d with D_d F_d = -residual/x_d; in d = 2 it takes up the
        tangential term D_x'x' u = -u too."""
        gp = _gp(xd, self._c)
        if self.dim == 2:
            gp = gp - _g_anti(xd, self._c)
        return self._tangential(
            -(np.cos(t) + self.lam * np.sin(t)) * _g_over_x_anti(xd, self._c)
            + np.sin(t) * gp, xp)

    def synthesize_sources(self):
        """(F, f) samplers such that u solves the equation exactly.  F is
        None or a tuple of dim entries, all None but F_d; f is None or a
        closure."""
        if self.mode == "F_only":
            return (None,) * (self.dim - 1) + (self._F_d,), None
        scale = (1.0 if self.mode == "f_only" else 0.5) / np.sqrt(self.lam)

        def f(t, xp, xd):
            return scale * self._residual(np.sin(t), np.cos(t), xp, xd)

        if self.mode == "f_only":
            return None, f

        def F_d(t, xp, xd):
            return 0.5 * self._F_d(t, xp, xd)

        return (None,) * (self.dim - 1) + (F_d,), f

    def synthesize_f_t(self):
        """Closure for the time derivative of the f_only source."""
        if self.mode != "f_only":
            raise ValueError("f_t is defined for f_only cases")
        scale = 1.0 / np.sqrt(self.lam)

        def f_t(t, xp, xd):
            return scale * self._residual(np.cos(t), -np.sin(t), xp, xd)

        return f_t


def default_case(dim, lam=1.0, Ld=4.0, T=1.0, mode="f_only"):
    """The manufactured case of dimension dim, penalty lam, window
    (0, T) x (0, Ld) and source mode."""
    return ManufacturedCase(dim, lam, Ld, T, mode)


# -- convergence machinery ---------------------------------------------------------

class StudyTable:
    """Errors e0 and e1 of a convergence study, one entry per mesh of M
    cells and time step dt, with the observed rates between rungs."""

    # the columns of csv() and the format of its rows
    COLUMNS = ("M", "dt", "e0", "e1", "rate0", "rate1")
    _ROW = "%d,%.10g,%.12g,%.12g,%.6g,%.6g"

    def __init__(self, M, dt, e0, e1):
        self.M, self.dt, self.e0, self.e1 = map(np.asarray, (M, dt, e0, e1))
        self.rates0 = self._rates(self.e0)
        self.rates1 = self._rates(self.e1)

    def _rates(self, errs):
        out = [np.nan]
        for k in range(1, len(errs)):
            ratio = self.M[k] / self.M[k - 1]
            if errs[k] > 0 and errs[k - 1] > 0:
                out.append(np.log(errs[k - 1] / errs[k]) / np.log(ratio))
            else:
                out.append(np.nan)
        return out

    def fitted_rates(self):
        """Least-squares slopes of log e vs log(1/M) over all rungs."""
        Ms = self.M.astype(float)
        out = []
        for errs in (self.e0, self.e1):
            good = errs > 0
            if good.sum() < 2:
                out.append(np.nan)
                continue
            out.append(-np.polyfit(np.log(Ms[good]), np.log(errs[good]),
                                   1)[0])
        return tuple(out)

    def csv_rows(self):
        """The data rows of csv(), one per rung, as it prints them."""
        return [self._ROW % row for row in zip(self.M, self.dt, self.e0,
                                               self.e1, self.rates0,
                                               self.rates1)]

    def csv(self):
        return "\n".join([",".join(self.COLUMNS)] + self.csv_rows()) + "\n"


def convergence_study(case, meshes, p=2.0, theta=1.0):
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
        sol = march(mesh, case.coeffs, case.lam, F=F, f=f,
                    config=TimeStepperConfig(theta))
        e0 = error_norm(sol, exact, NormSpec(p, -p / 2.0, "0"))
        e1 = error_norm(sol, exact, NormSpec(p, 0.0, "1_full"))
        rows.append((mesh.M, sol.dt, e0, e1))
    return StudyTable(*zip(*rows))
