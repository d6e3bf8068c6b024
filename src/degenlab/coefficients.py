"""Coefficient fields (a_ij, c0, a0), generated test families, and the
partial mean oscillation functional over half-ball cylinders.

Coefficient callables take (t, xprime, xd) and must broadcast over numpy
arrays, t included: sample_on_mesh calls each one once per time grid with
t = times[:, None, None], like every other callable in the package, and
samples a field whose kind declares it autonomous at one time only.  a0 is
a function of xd alone.  Index convention: in dim=2 the index order is
(x', x_d), so the degenerate direction is always the LAST index d-1; in
dim=1 the single index 0 is the x_d direction.
"""

import numpy as np

from .mesh import Cylinder, cells_in_cylinder, prime_cells_in_cylinder


def _const(value):
    def closure(t, xp, xd):
        return value
    return closure


# the kinds generate_family builds, and those whose coefficients do not
# depend on t
KINDS = ("constant", "xd_only", "oscillatory")
_AUTONOMOUS_KINDS = ("constant", "xd_only")


class CoefficientField:
    """Diffusion table a[i][j], damping c0(t,x',x_d), time weight a0(x_d).

    ``kind`` declares the time dependence: the ``constant`` and ``xd_only``
    families are autonomous, and every other kind, ``"user"`` included, is
    taken to depend on t (see ``autonomous``)."""

    def __init__(self, dim, nu, a, c0, a0, kind="user"):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not 0 < nu < 1:
            raise ValueError("nu must lie in (0,1)")
        self.dim = dim
        self.nu = float(nu)
        self.a = tuple(tuple(row) for row in a)
        if len(self.a) != dim or any(len(r) != dim for r in self.a):
            raise ValueError("a must be a %dx%d callable table" % (dim, dim))
        self.c0 = c0
        self.a0 = a0
        self.kind = kind

    @property
    def autonomous(self):
        """Whether the coefficients are declared independent of t."""
        return self.kind in _AUTONOMOUS_KINDS

    def a_matrix(self, t, xp, xd):
        """Evaluate the full a table at broadcastable points: shape (..., dim, dim)."""
        base = np.zeros(np.broadcast(np.asarray(t), np.asarray(xp),
                                     np.asarray(xd)).shape)
        rows = []
        for i in range(self.dim):
            rows.append([self.a[i][j](t, xp, xd) + base for j in range(self.dim)])
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    def transposed(self):
        """Field with a_ij replaced by a_ji (adjoint coefficients), of the
        same kind."""
        at = tuple(tuple(self.a[j][i] for j in range(self.dim))
                   for i in range(self.dim))
        return CoefficientField(self.dim, self.nu, at, self.c0, self.a0,
                                kind=self.kind)


class CoefficientSample:
    """Cell-midpoint samples over a mesh: a (nt, Mc, npc, dim, dim),
    c0 (nt, Mc, npc), a0 (Mc,).  With a scalar t the leading axis is 1; a
    and c0 are read-only."""

    def __init__(self, times, a, c0, a0):
        self.times = times
        self.a = a
        self.c0 = c0
        self.a0 = a0


def _validate_samples(mesh, nu, a, c0, a0, times):
    """Ellipticity / boundedness: nu|xi|^2 <= a_ij xi_i xi_j, |a_ij| <= 1/nu,
    nu <= c0 <= 1/nu, nu <= a0 <= 1/nu.  Reports the first violating cell."""
    tol = 1e-12
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    if a.shape[-1] == 1:
        eigmin = sym[..., 0, 0]
    else:
        # 2x2 symmetric: smallest eigenvalue in closed form
        tr = sym[..., 0, 0] + sym[..., 1, 1]
        det = sym[..., 0, 0] * sym[..., 1, 1] - sym[..., 0, 1] ** 2
        disc = np.sqrt(np.maximum((0.5 * tr) ** 2 - det, 0.0))
        eigmin = 0.5 * tr - disc

    def first_bad(mask, what):
        if not mask.any():
            return
        nt, jj, mm = np.unravel_index(np.argmax(mask), mask.shape)
        raise ValueError(
            "%s violated at t=%.6g, x'=%.6g, x_d=%.6g"
            % (what, times[nt], mesh.xprime_centers[mm], mesh.xd_centers[jj]))

    first_bad(eigmin < nu - tol, "ellipticity nu|xi|^2 <= a xi.xi")
    first_bad(np.abs(a).max(axis=(-1, -2)) > 1.0 / nu + tol, "bound |a_ij| <= 1/nu")
    first_bad((c0 < nu - tol) | (c0 > 1.0 / nu + tol), "bound nu <= c0 <= 1/nu")
    if (a0 < nu - tol).any() or (a0 > 1.0 / nu + tol).any():
        j = int(np.argmax((a0 < nu - tol) | (a0 > 1.0 / nu + tol)))
        raise ValueError("bound nu <= a0 <= 1/nu violated at x_d=%.6g"
                         % mesh.xd_centers[j])


def _sampled(name, values, shape, t):
    """values as a read-only view of the sample shape; a result that does
    not broadcast to it raises ValueError naming both shapes."""
    values = np.asarray(values, float)
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError("%s returned shape %s for t of shape %s; it must "
                         "broadcast to %s" % (name, values.shape, np.shape(t),
                                              shape))


def sample_on_mesh(coeffs, mesh, t=None):
    """Midpoint samples of the coefficients on every spatial cell, at all time
    cell centers (t=None), at one time, or at each time of a 1-D array.
    a_matrix and c0 are called once with t = times[:, None, None] and the
    cell-centre axes x' (1, xprime_count) and x_d (M, 1); an autonomous
    field is sampled at times[0] alone.  Validates the bounds on the
    samples; the arrays returned are read-only views of the full shape
    (times, M, xprime_count), broadcast where a sample is constant along
    an axis."""
    times = mesh.time_centers if t is None \
        else np.atleast_1d(np.asarray(t, float))
    if times.ndim != 1:
        raise ValueError("t must be None, a scalar or a 1-D array of times")
    sampled = times[:1] if coeffs.autonomous else times
    tt = sampled[:, None, None]
    xp = mesh.xprime_centers[None, :]
    xd = mesh.xd_centers[:, None]
    shape = (sampled.size, mesh.M, mesh.xprime_count)
    dims = (coeffs.dim, coeffs.dim)
    a = _sampled("a_matrix", coeffs.a_matrix(tt, xp, xd), shape + dims, tt)
    c0 = _sampled("c0", coeffs.c0(tt, xp, xd), shape, tt)
    a0 = np.broadcast_to(np.asarray(coeffs.a0(mesh.xd_centers), float),
                         (mesh.M,)).astype(float)
    if not (np.isfinite(a).all() and np.isfinite(c0).all()
            and np.isfinite(a0).all()):
        raise ValueError("non-finite coefficient samples")
    _validate_samples(mesh, coeffs.nu, a, c0, a0, sampled)
    nt = times.size
    return CoefficientSample(times,
                             np.broadcast_to(a, (nt,) + a.shape[1:]),
                             np.broadcast_to(c0, (nt,) + c0.shape[1:]), a0)


class EmptyCylinder(ValueError):
    """The cylinder is too small to contain any mesh cells."""


class OscillationReport:
    """Partial mean oscillation a#_rho(z0) over one cylinder."""

    def __init__(self, cylinder, value):
        self.cylinder = cylinder
        self.rho = cylinder.radius
        self.value = float(value)

    def csv_row(self):
        return "%.17g,%.17g,%.17g,%.17g,%.17g" % (
            self.cylinder.center_time, self.cylinder.center_xprime,
            self.cylinder.center_xd, self.rho, self.value)


def _check_cylinder_domain(mesh, cyl):
    if cyl.center_xd + cyl.radius > mesh.Ld + 1e-14:
        raise ValueError("cylinder crosses x_d = L_d; refusing to clip")


def _averages(mesh, cyl, sample, ball):
    """Frozen coefficients of Definition-style averaging over a checked
    cylinder with its cell set ``ball``: for j != d the (t,x')-average over
    Q'_rho(z0') per x_d slice; for the whole column j = d the full cylinder
    average (one constant per entry); c0 averaged slice-wise.

    Returns (avg_a, avg_c0, areas, wsum): avg_a has shape (M, dim, dim) (the
    j=d column is constant across slices), avg_c0 has shape (M,); areas and
    their space-time total wsum weigh the cells of ``ball``.
    """
    d = sample.a.shape[-1]
    tset, xpset = prime_cells_in_cylinder(mesh, cyl)
    if tset.size == 0 or xpset.size == 0:
        raise EmptyCylinder("cylinder contains no (t,x') cells to average over")
    # slice-wise averages over the prime cylinder: uniform (dt x dx') weights.
    # When a block is flat its average IS the common value; snap to it so
    # constant data yields exactly zero deviation instead of a stray ulp.
    sub_a = sample.a[np.ix_(tset, np.arange(mesh.M), xpset)]
    sub_c = sample.c0[np.ix_(tset, np.arange(mesh.M), xpset)]
    avg_a = np.where(np.ptp(sub_a, axis=(0, 2)) == 0.0, sub_a[0, :, 0],
                     sub_a.mean(axis=(0, 2)))
    avg_c0 = np.where(np.ptp(sub_c, axis=(0, 2)) == 0.0, sub_c[0, :, 0],
                      sub_c.mean(axis=(0, 2)))
    # full-average constants for the a_id column, cell-measure weighted
    if ball.n_cells == 0:
        raise EmptyCylinder("cylinder contains no cells")
    areas = ball.space_measures()
    wsum = areas.sum() * ball.time_cells.size
    aj, am = ball.space_j, ball.space_m
    col = sample.a[..., d - 1][:, aj, am, :][ball.time_cells]  # (nt_in, nc, dim)
    const_id = np.where(np.ptp(col, axis=(0, 1)) == 0.0, col[0, 0],
                        (col * areas[None, :, None]).sum(axis=(0, 1)) / wsum)
    avg_a = avg_a.copy()
    avg_a[:, :, d - 1] = const_id[None, :]
    return avg_a, avg_c0, areas, wsum


def oscillation(coeffs, mesh, cyl, sample=None):
    """a#_rho(z0): max over (i,j) of the mean |a_ij - [a_ij]| plus the c0 term,
    cell-measure-weighted over the cells whose centers lie in Q_rho^+(z0)."""
    _check_cylinder_domain(mesh, cyl)
    if sample is None:
        sample = sample_on_mesh(coeffs, mesh)
    ball = cells_in_cylinder(mesh, cyl)
    avg_a, avg_c0, areas, wsum = _averages(mesh, cyl, sample, ball)
    aj, am = ball.space_j, ball.space_m
    a_cells = sample.a[:, aj, am, :, :][ball.time_cells]       # (nt, nc, d, d)
    c_cells = sample.c0[:, aj, am][ball.time_cells]            # (nt, nc)
    dev_a = np.abs(a_cells - avg_a[aj][None, :, :, :])
    dev_c = np.abs(c_cells - avg_c0[aj][None, :])
    terms_a = (dev_a * areas[None, :, None, None]).sum(axis=(0, 1)) / wsum
    term_c = (dev_c * areas[None, :]).sum() / wsum
    return OscillationReport(cyl, terms_a.max() + term_c)


def oscillation_scan(coeffs, mesh, rho_list):
    """Max oscillation over a lattice of boundary-centered cylinders, 3 end
    times by 2 x' centers (one in dim 1) per radius; returns
    (gamma_measured, reports)."""
    sample = sample_on_mesh(coeffs, mesh)
    reports = []
    for rho in rho_list:
        tmax = mesh.total_time
        t0s = np.linspace(min(rho * 1.01, tmax), tmax, 3)
        xp0s = (np.linspace(0, mesh.xprime_length, 2, endpoint=False)
                if mesh.dim == 2 else [0.0])
        for t0 in t0s:
            for xp0 in xp0s:
                cyl = Cylinder(t0, 0.0, rho, xp0)
                try:
                    reports.append(oscillation(coeffs, mesh, cyl,
                                               sample=sample))
                except EmptyCylinder:
                    continue     # radius below the mesh resolution
    gamma = max(r.value for r in reports) if reports else 0.0
    return gamma, reports


def check_structure_condition(coeffs, mesh):
    """Whether the a_id column (all i, including a_dd) is constant on the mesh
    samples -- the hypothesis of the w-estimate."""
    sample = sample_on_mesh(coeffs, mesh)
    col = sample.a[..., coeffs.dim - 1]
    return float(np.ptp(col.reshape(-1, coeffs.dim), axis=0).max()) <= 1e-12


# -- generated families ------------------------------------------------------

def _eps_too_large(eps, nu, dim):
    """Whether the amplitude eps leaves no ellipticity margin at nu in
    dimension dim: eps * dim > 0.999 (1 - nu)."""
    return eps * dim > (1.0 - nu) * 0.999


def generate_family(seed, kind, nu, eps, dim=1, xp_length=2 * np.pi):
    """Deterministic smooth coefficient family.

    constant     a = I + eps*R (R constant, possibly nonsymmetric), c0, a0 const
    xd_only      entries depend on x_d only; the a_id column is constant
    oscillatory  trigonometric oscillation in (t, x', x_d) of amplitude eps
    """
    if kind not in KINDS:
        raise ValueError("unknown kind %r" % (kind,))
    if not 0 < nu < 1:
        raise ValueError("nu must lie in (0,1)")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if _eps_too_large(eps, nu, dim):
        raise ValueError("eps=%g too large for ellipticity margin at nu=%g"
                         % (eps, nu))
    rng = np.random.default_rng(seed)

    if kind == "constant":
        R = rng.uniform(-1.0, 1.0, size=(dim, dim))
        rc = rng.uniform(-1.0, 1.0)
        ra = rng.uniform(-1.0, 1.0)
        a = tuple(tuple(_const((1.0 if i == j else 0.0) + eps * R[i, j] / dim)
                        for j in range(dim)) for i in range(dim))
        c0 = _const(1.0 + eps * rc)
        a0c = 1.0 + eps * ra

        def a0(xd):
            return a0c

        return CoefficientField(dim, nu, a, c0, a0, kind=kind)

    if kind == "xd_only":
        w = rng.uniform(0.5, 1.5, size=6)
        ph = rng.uniform(0, 2 * np.pi, size=6)
        amp = 0.5 * eps
        consts = 1.0 + eps * rng.uniform(-0.5, 0.5, size=dim)

        def s(k):
            def closure(xd):
                return np.sin(w[k] * np.asarray(xd, float) + ph[k])
            return closure

        s_c0, s_a0, s_00, s_d0 = s(0), s(1), s(2), s(3)

        def c0(t, xp, xd):
            return 1.0 + amp * s_c0(xd)

        def a0(xd):
            return 1.0 + amp * s_a0(xd)

        if dim == 1:
            a = ((_const(consts[0]),),)
        else:
            def a00(t, xp, xd):
                return 1.0 + amp * s_00(xd)

            def a10(t, xp, xd):
                return amp * s_d0(xd)

            a = ((a00, _const(eps * 0.25)),
                 (a10, _const(consts[1])))

        return CoefficientField(dim, nu, a, c0, a0, kind=kind)

    # oscillatory: full (t, x', x_d) dependence
    A = rng.uniform(-1.0, 1.0, size=(dim, dim)) / dim
    om_t = rng.uniform(0.5, 2.0, size=(dim, dim))
    om_d = rng.uniform(0.5, 2.0, size=(dim, dim))
    ph_t = rng.uniform(0, 2 * np.pi, size=(dim, dim))
    ph_d = rng.uniform(0, 2 * np.pi, size=(dim, dim))
    kp = rng.integers(1, 3, size=(dim, dim))
    ph_p = rng.uniform(0, 2 * np.pi, size=(dim, dim))
    cc = rng.uniform(0.5, 0.9)
    om_c = rng.uniform(0.5, 2.0, size=3)
    twopi = 2 * np.pi / xp_length

    def entry(i, j):
        def closure(t, xp, xd):
            t = np.asarray(t, float)
            osc = np.sin(om_t[i, j] * t + ph_t[i, j]) \
                * np.cos(om_d[i, j] * np.asarray(xd, float) + ph_d[i, j])
            if dim == 2:
                osc = osc * np.cos(kp[i, j] * twopi * np.asarray(xp, float)
                                   + ph_p[i, j])
            return (1.0 if i == j else 0.0) + eps * A[i, j] * osc
        return closure

    a = tuple(tuple(entry(i, j) for j in range(dim)) for i in range(dim))

    def c0(t, xp, xd):
        t = np.asarray(t, float)
        osc = np.sin(om_c[0] * t) * np.cos(om_c[1] * np.asarray(xd, float))
        if dim == 2:
            osc = osc * np.cos(twopi * np.asarray(xp, float))
        return 1.0 + eps * cc * osc

    def a0(xd):
        return 1.0 + eps * cc * np.sin(om_c[2] * np.asarray(xd, float))

    return CoefficientField(dim, nu, a, c0, a0, kind="oscillatory")


def identity_coefficients(dim, nu=0.5):
    """a = I, c0 = 1, a0 = 1 (the model operator)."""
    return generate_family(0, "constant", nu, 0.0, dim=dim)
