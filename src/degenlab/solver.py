"""Time marching for the discrete system

    M du/dt + K(t) u = b(t),   u(0) = u0,

with the theta-scheme (implicit Euler by default), plus the backward adjoint
march used by the duality identity.  Every linear system goes to one sparse
direct solver (SuperLU through scipy's ``splu``), factored once per march
when the matrix does not change; every solve, including one that reuses the
factors, is followed by a backward-error check.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (LoadAssembler, SparseOperator, assemble_stiffness,
                       assemble_weighted_mass)
from .coefficients import sample_on_mesh
from .fields import DiscreteField


class SolverError(RuntimeError):
    """Linear or time-stepping failure (distinct exit path from bad config)."""


class TimeStepperConfig:
    def __init__(self, theta=1.0, time_step=None, linear_tol=1e-10):
        if not 0.5 <= theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1], got %r" % (theta,))
        if time_step is not None and not time_step > 0:
            raise ValueError("time_step must be positive")
        if not linear_tol > 0:
            raise ValueError("linear_tol must be positive")
        self.theta = float(theta)
        self.time_step = None if time_step is None else float(time_step)
        self.linear_tol = float(linear_tol)

    def summary(self):
        return {"theta": self.theta, "time_step": self.time_step,
                "linear_tol": self.linear_tol}


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
    if isinstance(A, SparseOperator):
        A = A.matrix
    A = sp.csc_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("linear_solve needs a square matrix")
    try:
        lu = splu(A)
    except RuntimeError as exc:        # "Factor is exactly singular"
        raise SolverError("LU factorization failed: %s" % exc)
    norm_A = np.max(np.abs(A).sum(axis=1)) if A.nnz else 0.0

    def solve(b):
        b = np.asarray(getattr(b, "values", b), float)
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

def _resolve_time_grid(mesh, config):
    T = mesh.total_time
    dt = config.time_step if config.time_step is not None \
        else mesh.time_step
    ratio = T / dt
    N = int(round(ratio))
    if N < 1 or abs(ratio - N) > 1e-9 * max(1.0, ratio):
        raise ValueError("time_step %g does not divide the window %g" %
                         (dt, T))
    return dt, N


def _as_matrix(op):
    return op.matrix if isinstance(op, SparseOperator) else sp.csr_matrix(op)


def march_system(mass, stiffness, loads, mesh, config=None, u0=None):
    """Core theta-scheme on assembled operators.

    mass: SparseOperator (SPD); stiffness: SparseOperator, or a callable
    t -> SparseOperator for time-dependent coefficients; loads: None or a
    callable t -> interior load vector; u0: interior vector or None.
    Each step solves (M + theta dt K) u^{n+1} =
    (M - (1-theta) dt K) u^n + dt b^theta.
    """
    config = config or TimeStepperConfig()
    dt, N = _resolve_time_grid(mesh, config)
    theta = config.theta
    times = dt * np.arange(N + 1)
    Mmat = _as_matrix(mass)
    autonomous = not callable(stiffness)
    K_of_t = (lambda t: _as_matrix(stiffness)) if autonomous \
        else (lambda t: _as_matrix(stiffness(t)))

    n_int = mesh.n_interior
    interior = np.zeros((N + 1, n_int))
    if u0 is not None:
        interior[0] = np.asarray(u0, float)

    def load_at(t):
        if loads is None:
            return np.zeros(n_int)
        b = loads(t)
        return np.asarray(getattr(b, "values", b), float)

    b_prev = load_at(times[0])
    Kp = K_of_t(times[0])
    solve = None
    for n in range(N):
        Knext = Kp if autonomous else K_of_t(times[n + 1])
        b_next = load_at(times[n + 1])
        rhs = Mmat @ interior[n] + dt * (theta * b_next
                                         + (1 - theta) * b_prev)
        if theta < 1.0:
            rhs -= (1 - theta) * dt * (Kp @ interior[n])
        try:
            if solve is None or not autonomous:
                solve = _factorize(Mmat + theta * dt * Knext,
                                   config.linear_tol)
            interior[n + 1] = solve(rhs)
        except SolverError as exc:
            raise SolverError("time level %d: %s" % (n + 1, exc))
        b_prev = b_next
        Kp = Knext

    if loads is None:
        # pure decay: the weighted mass norm must not grow
        prev = interior[0] @ (Mmat @ interior[0])
        for n in range(1, N + 1):
            cur = interior[n] @ (Mmat @ interior[n])
            if cur > prev * (1 + 1e-10) + 1e-14:
                raise SolverError("source-free march gained weighted energy "
                                  "at level %d" % n)
            prev = cur

    return SpaceTimeSolution.from_interior_levels(mesh, interior, times,
                                                  config=config)


def _coeffs_autonomous(coeffs, mesh):
    probes = [0.0, 0.371 * mesh.total_time, 0.789 * mesh.total_time]
    ref = sample_on_mesh(coeffs, mesh, t=probes[0])
    for t in probes[1:]:
        s = sample_on_mesh(coeffs, mesh, t=t)
        if not (np.array_equal(ref.a, s.a) and np.array_equal(ref.c0, s.c0)):
            return False
    return True


def march(mesh, coeffs, lam, F=None, f=None, config=None, u0=None):
    """Assemble-and-march convenience wrapper.

    F: None, a callable (dim=1) or tuple of per-direction callables
    (t, xp, xd) -> values; f likewise scalar-valued.  u0 is a DiscreteField
    (zeros when omitted).  Returns a SpaceTimeSolution.
    """
    config = config or TimeStepperConfig()
    mass = assemble_weighted_mass(mesh, coeffs.a0)
    if _coeffs_autonomous(coeffs, mesh):
        stiffness = assemble_stiffness(mesh, coeffs, lam, t=0.0,
                                       _self_check=False)
    else:
        def stiffness(t):
            return assemble_stiffness(mesh, coeffs, lam, t=t,
                                      _self_check=False)
    if F is None and f is None:
        loads = None
    else:
        assembler = LoadAssembler(mesh)

        def loads(t):
            return assembler.assemble(F, f, lam, t=t).values

    u0vec = None
    if u0 is not None:
        if not u0.has_zero_trace():
            raise ValueError("initial field must vanish on both boundaries")
        u0vec = u0.interior_vector()
    sol = march_system(mass, stiffness, loads, mesh, config=config, u0=u0vec)
    sol.lam = lam
    return sol


def adjoint_march_system(mass, stiffness_T, dual_loads, mesh, config=None):
    """Backward march (M + dt K^T) v^n = M v^{n+1} + dt c^n, v^{N+1} = 0,
    for n = N..1 (implicit Euler only: the duality identity is exact there).

    dual_loads: array (N+1, n_interior); row n is c^n, row 0 is ignored.
    Returns an array of the same shape whose row n is v^n (row 0 is zero).
    """
    config = config or TimeStepperConfig()
    if config.theta != 1.0:
        raise ValueError("the adjoint march is defined for theta = 1")
    dt, N = _resolve_time_grid(mesh, config)
    dual_loads = np.asarray(dual_loads, float)
    if dual_loads.shape != (N + 1, mesh.n_interior):
        raise ValueError("dual_loads must have shape (N+1, n_interior)")
    Mmat = _as_matrix(mass)
    solve = _factorize(Mmat + dt * _as_matrix(stiffness_T), config.linear_tol)
    v = np.zeros_like(dual_loads)
    v_next = np.zeros(mesh.n_interior)
    for n in range(N, 0, -1):
        v[n] = solve(Mmat @ v_next + dt * dual_loads[n])
        v_next = v[n]
    return v


def adjoint_march(mesh, coeffs, lam, dual_loads, config=None):
    """Wrapper assembling K^T from the transposed coefficients at t=0 (the
    duality identity is stated for autonomous coefficients)."""
    if not _coeffs_autonomous(coeffs, mesh):
        raise ValueError("adjoint march requires autonomous coefficients")
    mass = assemble_weighted_mass(mesh, coeffs.a0)
    Kt = assemble_stiffness(mesh, coeffs.transposed(), lam, t=0.0,
                            _self_check=False)
    return adjoint_march_system(mass, Kt, dual_loads, mesh, config=config)


def steady_solve(mesh, coeffs, lam, F=None, f=None, t=0.0, config=None):
    """Solve the stationary problem K u = b at a frozen time; returns a
    DiscreteField."""
    config = config or TimeStepperConfig()
    K = assemble_stiffness(mesh, coeffs, lam, t=t, _self_check=False).matrix
    b = LoadAssembler(mesh).assemble(F, f, lam, t=t).values
    x = linear_solve(K, b, tol=config.linear_tol)
    return DiscreteField.from_interior(mesh, x)
