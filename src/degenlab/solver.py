"""Time marching for the discrete system

    M du/dt + K(t) u = b(t),   u(0) = u0,

on the mesh's time grid with the theta-scheme (implicit Euler by default),
plus the backward adjoint march used by the duality identity.  The
stiffness has one form: an (L, nnz) stack of entry data on the mesh's
interior pattern, one level (L = 1) when the coefficient field declares
itself autonomous and one per time level (L = N+1) otherwise.  A
``Marcher`` splits it as K(lam) = D + lam * C once per (mesh, coefficients),
so a lambda grid assembles D and C once.  The adjoint march takes the same
forward stack: M is bitwise symmetric, so its system M + dt K^T is the
transpose of the forward system, and no transposed stiffness is assembled.
Every linear system goes to one sparse direct solver (SuperLU through
scipy's ``splu``), factored once per march for one level and once per step
for N+1; every solve, including one that reuses the factors, is followed by
a backward-error check.
"""

import copy

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (LoadAssembler, assemble_weighted_mass,
                       interior_pattern, stiffness_levels)
from .fields import DiscreteField


class SolverError(RuntimeError):
    """Linear or time-stepping failure (distinct exit path from bad config)."""


class TimeStepperConfig:
    """Theta of the scheme and the linear-solve tolerance; the time grid is
    the mesh's."""

    def __init__(self, theta=1.0, linear_tol=1e-10):
        if not 0.5 <= theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1], got %r" % (theta,))
        if not linear_tol > 0:
            raise ValueError("linear_tol must be positive")
        self.theta = float(theta)
        self.linear_tol = float(linear_tol)


# -- linear solves ------------------------------------------------------------

def _backward_error(A, x, b, norm_A):
    r = b - A @ x
    denom = np.linalg.norm(b) + norm_A * np.linalg.norm(x)
    if denom == 0.0:
        return 0.0
    return np.linalg.norm(r) / denom


def _factorize(A, tol):
    """LU-factor the square matrix A once; returns solve(b) -> x.  Each
    solve is checked: a backward error above 10*tol, or a singular A, raises
    SolverError."""
    if not (sp.issparse(A) and A.format == "csc" and A.has_canonical_format):
        A = sp.csc_matrix(A, copy=True)
        A.sum_duplicates()
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("linear_solve needs a square matrix")
    try:
        lu = splu(A)
    except RuntimeError as exc:        # "Factor is exactly singular"
        raise SolverError("LU factorization failed: %s" % exc)
    # max absolute row sum, each row summed in column order
    norm_A = np.bincount(A.indices, weights=np.abs(A.data),
                         minlength=n).max() if A.nnz else 0.0

    def solve(b):
        b = np.asarray(b, float)
        if b.shape != (n,):
            raise ValueError("shape mismatch in linear_solve")
        x = lu.solve(b)
        be = _backward_error(A, x, b, norm_A)
        if not np.isfinite(be) or be > 10 * tol:
            raise SolverError("linear solve backward error %.3e exceeds %.3e"
                              % (be, 10 * tol))
        return x

    return solve


def linear_solve(A, b, tol=1e-10):
    """Solve A x = b by sparse LU.  Raises SolverError when A is singular or
    the verified backward error exceeds 10*tol."""
    return _factorize(A, tol)(b)


# -- solution container --------------------------------------------------------

class SpaceTimeSolution:
    """Nodal values at every time level; Dirichlet traces are exactly zero."""

    def __init__(self, mesh, levels, times, lam=None, config=None):
        levels = np.asarray(levels, float)
        times = np.asarray(times, float)
        if levels.ndim != 3 or levels.shape[1:] != (mesh.M + 1,
                                                    mesh.xprime_count):
            raise ValueError("levels must have shape (N+1, M+1, xprime_count)")
        if levels.shape[0] != times.size:
            raise ValueError("levels/times mismatch")
        if np.any(levels[:, 0, :] != 0) or np.any(levels[:, -1, :] != 0):
            raise ValueError("nonzero Dirichlet trace in solution levels")
        self.mesh = mesh
        self.levels = levels
        self.times = times
        self.lam = lam
        self.config = config
        self.loads = None

    @classmethod
    def from_interior_levels(cls, mesh, interior, times, lam=None,
                             config=None):
        interior = np.asarray(interior, float)
        full = np.zeros((interior.shape[0], mesh.M + 1, mesh.xprime_count))
        full[:, 1:-1, :] = interior.reshape(interior.shape[0], mesh.M - 1,
                                            mesh.xprime_count)
        return cls(mesh, full, times, lam=lam, config=config)

    @property
    def time_count(self):
        return self.levels.shape[0] - 1

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    def field_at(self, n):
        return DiscreteField(self.mesh, self.levels[n])

    def interior(self, n):
        return self.levels[n, 1:-1, :].ravel()

    def interior_levels(self):
        return self.levels[:, 1:-1, :].reshape(self.levels.shape[0], -1)

    def time_differences(self):
        """(u^{n+1} - u^n)/dt at nodes, shape (N, M+1, npc)."""
        return np.diff(self.levels, axis=0) / self.dt

    def max_abs(self):
        return float(np.abs(self.levels).max())


# -- marching -------------------------------------------------------------------

def _system(Mmat, K, s, mesh, transpose=False):
    """n -> M + s K^n as a CSC matrix, or its transpose M + s (K^n)^T, for a
    stiffness stack K (L, nnz) on the mesh's interior pattern, L = 1
    (autonomous; every n gives level 0) or N+1.  M is bitwise symmetric, so
    the CSC arrays of the transpose are the CSR arrays of M + s K^n.  All
    system data is formed at once; each level drops its exact zeros, as a
    sparse sum would, so the factorization sees the same pattern."""
    indices, indptr, shape = interior_pattern(mesh)
    N = mesh.time_count
    if K.ndim != 2 or K.shape[0] not in (1, N + 1) \
            or K.shape[1] != indices.size:
        raise ValueError("stiffness stack must have shape (1, nnz) or "
                         "(N+1, nnz) = %s, got %s"
                         % ((N + 1, indices.size), K.shape))
    if not (np.array_equal(Mmat.indptr, indptr)
            and np.array_equal(Mmat.indices, indices)):
        raise ValueError("the mass must be on the interior pattern of the "
                         "mesh")
    A = Mmat.data + s * K
    rows, colptr = indices, indptr
    if not transpose:
        order = np.argsort(indices, kind="stable")          # CSR -> CSC
        rows = np.repeat(np.arange(shape[0]), np.diff(indptr))[order]
        colptr = np.searchsorted(indices[order], np.arange(shape[1] + 1))
        A = A[:, order]
    keep = A != 0
    data = A[keep]                      # the kept entries, level by level
    rows = np.broadcast_to(rows.astype(np.intc), A.shape)[keep]
    kept = np.zeros((len(A), A.shape[1] + 1), np.intc)
    np.cumsum(keep, axis=1, dtype=np.intc, out=kept[:, 1:])
    ptr = kept.take(colptr, axis=1)     # (L, ncols + 1) column pointers
    ends = np.cumsum(ptr[:, -1])
    starts = ends - ptr[:, -1]
    # each level's rows are a subset of the pattern's sorted, unique rows:
    # a copy of one template built by scipy's constructor, with the level's
    # arrays, skips the re-validation of the index arrays at every step
    template = sp.csc_matrix((data[:ends[0]], rows[:ends[0]], ptr[0]),
                             shape=shape)
    template.has_canonical_format = True

    def system(n):
        k = n if len(A) > 1 else 0
        level = slice(starts[k], ends[k])
        mat = copy.copy(template)
        mat.data, mat.indices, mat.indptr = data[level], rows[level], ptr[k]
        return mat

    return system


def march_system(mass, stiffness, loads, mesh, config=None, u0=None):
    """Core theta-scheme on the mesh's time grid t_n = n dt, n = 0..N.

    mass: the weighted mass (SparseOperator, SPD) of assemble_weighted_mass.
    stiffness: an array (L, nnz) whose row n is the data of K(t_n) on
    ``interior_pattern(mesh)`` (see ``stiffness_levels``): L = 1 for
    autonomous coefficients, factored once, or L = N+1, refactored every
    step.  loads: None or an array (N+1, n_interior) whose row n is the load
    b^n; u0: interior vector or None.  Each step solves (M + theta dt
    K^{n+1}) u^{n+1} = (M - (1-theta) dt K^n) u^n + dt b^theta, and every
    solve is checked.  The returned solution keeps the load rows as
    ``loads``.
    """
    config = config or TimeStepperConfig()
    dt, N = mesh.time_step, mesh.time_count
    theta = config.theta
    n_int = mesh.n_interior
    if loads is not None:
        loads = np.asarray(loads, float)
        if loads.shape != (N + 1, n_int):
            raise ValueError("loads must have shape (N+1, n_interior) = %s, "
                             "got %s" % ((N + 1, n_int), loads.shape))
    b = np.zeros((N + 1, n_int)) if loads is None else loads
    K = np.asarray(stiffness, float)
    Mmat = mass.matrix
    system = _system(Mmat, K, theta * dt, mesh)
    stacked = len(K) > 1
    indices, indptr, shape = interior_pattern(mesh)

    interior = np.zeros((N + 1, n_int))
    if u0 is not None:
        interior[0] = np.asarray(u0, float)

    solve = None
    for n in range(N):
        rhs = Mmat @ interior[n] + dt * (theta * b[n + 1]
                                         + (1 - theta) * b[n])
        if theta < 1.0:
            Kn = sp.csr_matrix((K[n if stacked else 0], indices, indptr),
                               shape=shape)
            rhs -= (1 - theta) * dt * (Kn @ interior[n])
        try:
            if solve is None or stacked:
                solve = _factorize(system(n + 1), config.linear_tol)
            interior[n + 1] = solve(rhs)
        except SolverError as exc:
            raise SolverError("time level %d: %s" % (n + 1, exc))

    if loads is None:
        # pure decay: the weighted mass norm must not grow
        prev = interior[0] @ (Mmat @ interior[0])
        for n in range(1, N + 1):
            cur = interior[n] @ (Mmat @ interior[n])
            if cur > prev * (1 + 1e-10) + 1e-14:
                raise SolverError("source-free march gained weighted energy "
                                  "at level %d" % n)
            prev = cur

    sol = SpaceTimeSolution.from_interior_levels(mesh, interior,
                                                 mesh.time_levels,
                                                 config=config)
    sol.loads = loads
    return sol


class Marcher:
    """The lambda-free parts of M du/dt + K(lam, t) u = b on one mesh with
    one coefficient field: the weighted mass and the stiffness split
    K(lam) = D + lam * C of stiffness_levels, at t = 0 when the field
    declares itself autonomous (see ``CoefficientField.autonomous``) and at
    every time level of the mesh otherwise, built on first use.  One
    marcher marches any number of lambdas, forward and adjoint, and
    assembles each of these once."""

    def __init__(self, mesh, coeffs, config=None):
        self.mesh = mesh
        self.coeffs = coeffs
        self.config = config or TimeStepperConfig()
        self.mass = assemble_weighted_mass(mesh, coeffs.a0)
        self._split = None

    def stiffness(self, lam):
        """K(lam) as march_system takes it: the stack D + lam * C (D alone
        when lam = 0), one level when autonomous, else N+1."""
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        if self._split is None:
            times = self.mesh.time_levels
            if self.coeffs.autonomous:
                times = times[:1]
            self._split = stiffness_levels(self.mesh, self.coeffs, times)
        D, C = self._split
        return D if lam == 0 else D + lam * C

    def march(self, lam, F=None, f=None, u0=None):
        """Forward march at this lambda; see ``march``."""
        stiffness = self.stiffness(lam)
        loads = None
        if F is not None or f is not None:
            loads = LoadAssembler(self.mesh).assemble(F, f, lam,
                                                      self.mesh.time_levels)
        u0vec = None
        if u0 is not None:
            if not u0.has_zero_trace():
                raise ValueError("initial field must vanish on both "
                                 "boundaries")
            u0vec = u0.interior_vector()
        sol = march_system(self.mass, stiffness, loads, self.mesh,
                           config=self.config, u0=u0vec)
        sol.lam = lam
        return sol

    def adjoint(self, lam, dual_loads):
        """Backward march on the transpose of the forward system at this
        lambda; see ``adjoint_march``."""
        return adjoint_march_system(self.mass, self.stiffness(lam),
                                    dual_loads, self.mesh, config=self.config)


def march(mesh, coeffs, lam, F=None, f=None, config=None, u0=None):
    """Assemble-and-march convenience wrapper.

    F: None, a callable (dim=1) or tuple of per-direction callables
    (t, xp, xd) -> values; f likewise scalar-valued.  u0 is a DiscreteField
    (zeros when omitted).  Returns a SpaceTimeSolution.  To march several
    lambdas on one field, use one ``Marcher``.
    """
    return Marcher(mesh, coeffs, config).march(lam, F=F, f=f, u0=u0)


def adjoint_march_system(mass, stiffness, dual_loads, mesh, config=None):
    """Backward march (M + dt K^n)^T v^n = M v^{n+1} + dt c^n, v^{N+1} = 0,
    for n = N..1 (implicit Euler only: the duality identity is exact there).

    mass and stiffness are those of the forward march_system: the weighted
    mass and the forward K stack (L, nnz), L = 1 or N+1, not K^T.  Since M
    is bitwise symmetric, each system is the transpose of the forward one.
    dual_loads: array (N+1, n_interior); row n is c^n, row 0 is ignored.
    Returns an array of the same shape whose row n is v^n (row 0 is zero).
    """
    config = config or TimeStepperConfig()
    if config.theta != 1.0:
        raise ValueError("the adjoint march is defined for theta = 1")
    dt, N = mesh.time_step, mesh.time_count
    dual_loads = np.asarray(dual_loads, float)
    if dual_loads.shape != (N + 1, mesh.n_interior):
        raise ValueError("dual_loads must have shape (N+1, n_interior)")
    K = np.asarray(stiffness, float)
    Mmat = mass.matrix
    system = _system(Mmat, K, dt, mesh, transpose=True)
    v = np.zeros_like(dual_loads)
    v_next = np.zeros(mesh.n_interior)
    solve = None
    for n in range(N, 0, -1):
        if solve is None or len(K) > 1:
            solve = _factorize(system(n), config.linear_tol)
        v[n] = solve(Mmat @ v_next + dt * dual_loads[n])
        v_next = v[n]
    return v


def adjoint_march(mesh, coeffs, lam, dual_loads, config=None):
    """Wrapper: the backward march on the transpose of the forward system
    of ``march``, whose coefficients are those of coeffs.transposed()."""
    return Marcher(mesh, coeffs, config).adjoint(lam, dual_loads)
