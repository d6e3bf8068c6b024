import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import degenlab.assembly
import degenlab.solver
from degenlab import (CoefficientField, DiscreteField, LoadAssembler,
                      Marcher, SolverError, SpaceTimeSolution,
                      TimeStepperConfig, adjoint_march, adjoint_march_system,
                      assemble_stiffness, assemble_weighted_mass, build_mesh,
                      generate_family, identity_coefficients,
                      interior_pattern, linear_solve, march, march_system,
                      model_stiffness, sample_nodes, smooth_random_closure,
                      stiffness_levels)

LOG2 = np.log(2.0)


def _stack(m, coeffs, lam, times=(0.0,)):
    """K(lam) at the given times as march_system takes it."""
    D, C = stiffness_levels(m, coeffs, times)
    return D + lam * C


def test_linear_solve_tridiagonal_poisson_nodal_exact():
    # -u'' = 1 on (0,1), u(0)=u(1)=0: hat loads h, solution x(1-x)/2
    # is nodal-exact for linear elements
    h = 0.25
    K = sp.diags([[-1 / h] * 2, [2 / h] * 3, [-1 / h] * 2], [-1, 0, 1])
    b = np.full(3, h)
    x = linear_solve(K, b)
    nodes = np.array([0.25, 0.5, 0.75])
    expect = nodes * (1 - nodes) / 2
    print("poisson nodes", x, "expect", expect)
    assert np.max(np.abs(x - expect)) < 1e-14


def test_linear_solve_small_nonsymmetric():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    x = linear_solve(A, np.array([3.0, 2.0]))
    assert np.max(np.abs(x - 1.0)) < 1e-14


def test_linear_solve_wide_band_matches_dense():
    rng = np.random.default_rng(7)
    n = 60
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = 10.0 + rng.uniform(0, 1, n)
    for _ in range(120):
        i, j = rng.integers(0, n, 2)
        A[i, j] += rng.uniform(-0.5, 0.5)
    A[0, 40] = 0.3     # wide band
    b = rng.standard_normal(n)
    x = linear_solve(sp.csr_matrix(A), b, tol=1e-12)
    expect = np.linalg.solve(A, b)
    assert np.max(np.abs(x - expect)) < 1e-8 * np.max(np.abs(expect))


def test_linear_solve_failures():
    bad = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SolverError):
        linear_solve(bad, np.array([1.0, 1.0]))
    n = 40
    wide = sp.lil_matrix((n, n))
    wide.setdiag(np.r_[np.ones(n - 1), 0.0])
    wide[0, 30] = 1.0
    with pytest.raises(SolverError):
        linear_solve(wide.tocsr(), np.ones(n))
    with pytest.raises(ValueError):
        linear_solve(sp.eye(3).tocsr(), np.ones(4))


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        TimeStepperConfig(theta=0.3)
    with pytest.raises(ValueError):
        TimeStepperConfig(theta=1.2)
    with pytest.raises(ValueError):
        TimeStepperConfig(linear_tol=0.0)
    with pytest.raises(TypeError):
        TimeStepperConfig(time_step=0.25)     # the mesh owns the time grid
    cfg = TimeStepperConfig(theta=0.5)
    assert cfg.theta == 0.5 and cfg.linear_tol == 1e-10


def test_march_scalar_recursion_backward_euler():
    # single interior node: the scheme is a scalar recursion we can
    # replay by hand
    m = build_mesh(1, 1.0, 2, 1.0, time_step=0.1, time_count=5)
    Mw = assemble_weighted_mass(m)
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    mval = Mw.matrix[0, 0]
    kval = K.matrix[0, 0]
    assert abs(mval - (4 * LOG2 - 2)) < 1e-14
    sol = march_system(Mw, _stack(m, identity_coefficients(1), 1.0),
                       np.ones((6, 1)), m)
    u = 0.0
    for n in range(5):
        u = (mval * u + 0.1 * 1.0) / (mval + 0.1 * kval)
        got = sol.interior(n + 1)[0]
        assert abs(got - u) < 1e-13 * max(1.0, abs(u))
    print("final scalar value", u)


def test_march_scalar_recursion_crank_nicolson():
    m = build_mesh(1, 1.0, 2, 1.0, time_step=0.05, time_count=8)
    Mw = assemble_weighted_mass(m)
    K = assemble_stiffness(m, identity_coefficients(1), lam=2.0)
    mval, kval = Mw.matrix[0, 0], K.matrix[0, 0]
    cfg = TimeStepperConfig(theta=0.5)
    loads = np.cos(0.05 * np.arange(9))[:, None]
    sol = march_system(Mw, _stack(m, identity_coefficients(1), 2.0), loads,
                       m, config=cfg)
    u = 0.0
    dt = 0.05
    for n in range(8):
        b_half = 0.5 * (np.cos(dt * n) + np.cos(dt * (n + 1)))
        u = ((mval - 0.5 * dt * kval) * u + dt * b_half) / \
            (mval + 0.5 * dt * kval)
        assert abs(sol.interior(n + 1)[0] - u) < 1e-13
    assert sol.time_count == 8
    assert abs(sol.dt - dt) < 1e-15


def test_march_evaluates_each_load_once(monkeypatch):
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=6)
    coeffs = identity_coefficients(1)
    calls = []

    def counting_sample_nodes(mesh, func, t):
        calls.append(np.shape(t))
        return sample_nodes(mesh, func, t)

    monkeypatch.setattr(degenlab.assembly, "sample_nodes",
                        counting_sample_nodes)
    f = lambda t, xp, xd: xd * np.exp(-xd)
    F = lambda t, xp, xd: np.sin(t) * xd
    sol = march(m, coeffs, 1.0, F=F, f=f)
    assert calls == [(7, 1, 1), (7, 1, 1)]      # one per source component
    assert sol.loads.shape == (7, m.n_interior)


def _count_factorizations(monkeypatch):
    calls = []

    def counting_splu(A, *args, **kwargs):
        calls.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(degenlab.solver, "splu", counting_splu)
    return calls


@pytest.mark.parametrize("kind, expected", [("constant", 1), ("xd_only", 1),
                                            ("oscillatory", 5)])
def test_march_factors_once_unless_time_dependent(monkeypatch, kind,
                                                  expected):
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=5)
    coeffs = generate_family(4, kind, 0.5, 0.2, dim=1)
    calls = _count_factorizations(monkeypatch)
    march(m, coeffs, 1.0, f=lambda t, xp, xd: xd * np.exp(-xd))
    assert len(calls) == expected


def test_adjoint_march_factors_once(monkeypatch):
    m = build_mesh(1, 2.0, 6, 1.5, time_step=0.2, time_count=5)
    K = _stack(m, identity_coefficients(1), 1.0)
    calls = _count_factorizations(monkeypatch)
    v = adjoint_march_system(assemble_weighted_mass(m), K,
                             np.ones((6, m.n_interior)), m)
    assert len(calls) == 1
    assert np.all(v[1:] > 0)


def test_march_checks_solves_that_reuse_the_factors(monkeypatch):
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=5)
    Mw = assemble_weighted_mass(m)
    K = _stack(m, identity_coefficients(1), 1.0)
    loads = np.ones((6, m.n_interior))
    with pytest.raises(SolverError, match="time level 1:"):
        march_system(Mw, K, loads, m,
                     config=TimeStepperConfig(linear_tol=1e-30))

    class WrongFromThirdSolve:
        def __init__(self, A):
            self.lu = splu(A)
            self.solves = 0

        def solve(self, b):
            self.solves += 1
            x = self.lu.solve(b)
            return x if self.solves < 3 else 2 * x

    monkeypatch.setattr(degenlab.solver, "splu", WrongFromThirdSolve)
    with pytest.raises(SolverError, match="time level 3:"):
        march_system(Mw, K, loads, m)


def test_march_wrapper_matches_march_system():
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=6)
    coeffs = generate_family(3, "xd_only", 0.5, 0.2, dim=1)
    lam = 2.0
    f = lambda t, xp, xd: xd * np.exp(-xd)
    sol = march(m, coeffs, lam, f=f)
    Mw = assemble_weighted_mass(m, coeffs.a0)
    K = _stack(m, coeffs, lam)
    la = LoadAssembler(m)
    rows = np.array([la.assemble(None, f, lam, t=t) for t in m.time_levels])
    sol2 = march_system(Mw, K, rows, m)
    assert np.array_equal(sol.levels, sol2.levels)
    assert np.array_equal(sol.loads, rows)
    assert sol.lam == lam


def _reference_march(m, coeffs, lam, loads, times, theta):
    """The theta scheme step by step, with the stiffness assembled at each
    time level and the system matrix summed and converted by scipy."""
    dt = times[1] - times[0]
    Mw = assemble_weighted_mass(m, coeffs.a0).matrix
    K = [assemble_stiffness(m, coeffs, lam, t=t).matrix for t in times]
    u = np.zeros_like(loads)
    for n in range(times.size - 1):
        rhs = Mw @ u[n] + dt * (theta * loads[n + 1]
                                + (1 - theta) * loads[n])
        if theta < 1.0:
            rhs -= (1 - theta) * dt * (K[n] @ u[n])
        u[n + 1] = splu(sp.csc_matrix(Mw + theta * dt * K[n + 1])).solve(rhs)
    return u


def _late_switch(dim, T):
    """A user field whose diffusion steps from I to 1.4 I only after
    t = 0.9 T: equal at any few early probe times, yet time-dependent."""
    def zero(t, xp, xd):
        return 0.0 * np.asarray(xd, float)

    def one(t, xp, xd):
        return 1.0 + zero(t, xp, xd)

    def diag(t, xp, xd):
        return one(t, xp, xd) + 0.4 * (np.asarray(t, float) > 0.9 * T)

    a = [[diag if i == j else zero for j in range(dim)] for i in range(dim)]
    return CoefficientField(dim, 0.5, a, one, lambda xd: one(0, 0, xd))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("lam", [0.0, 3.0])
def test_time_dependent_march_is_bitwise_the_per_step_scheme(dim, theta,
                                                             lam):
    if dim == 1:
        m = build_mesh(1, 4.0, 12, 2.0, time_step=0.1, time_count=8)
    else:
        m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5,
                       xprime_length=2 * np.pi, time_step=0.125,
                       time_count=6)
    F = tuple(smooth_random_closure(11 + i, dim, xp_length=2 * np.pi)
              for i in range(dim))
    f = smooth_random_closure(5, dim, xp_length=2 * np.pi)
    for coeffs in (generate_family(2, "oscillatory", 0.5, 0.2, dim=dim,
                                   xp_length=2 * np.pi),
                   _late_switch(dim, m.total_time)):
        assert not coeffs.autonomous
        sol = march(m, coeffs, lam, F=F, f=f,
                    config=TimeStepperConfig(theta=theta))
        ref = _reference_march(m, coeffs, lam, sol.loads, sol.times, theta)
        assert sol.interior_levels().tobytes() == ref.tobytes()
        assert np.abs(ref).max() > 0


def test_stacked_march_drops_exact_cancellations_like_a_sparse_sum(
        monkeypatch):
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    mass = assemble_weighted_mass(m)
    Mw = mass.matrix
    indices, indptr, shape = interior_pattern(m)
    K = np.tile(model_stiffness(m).matrix.data, (5, 1))
    k = indptr[2]                # first entry of row 2, off the diagonal
    assert indices[k] == 1
    K[3, k] = -4.0 * Mw.data[k]  # M + dt K = M - M = 0 exactly (dt = 1/4)
    loads = np.ones((5, m.n_interior))
    factored = []

    def recording_splu(A, *args, **kwargs):
        factored.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(degenlab.solver, "splu", recording_splu)
    sol = march_system(mass, K, loads, m)
    u = np.zeros_like(loads)
    for n in range(4):
        Kn = sp.csr_matrix((K[n + 1], indices, indptr), shape=shape)
        A = sp.csc_matrix(Mw + 0.25 * Kn)
        got = factored[n]
        assert got.data.tobytes() == A.data.tobytes()
        assert np.array_equal(got.indices, A.indices)
        assert np.array_equal(got.indptr, A.indptr)
        assert A.nnz == indices.size - (n + 1 == 3)
        u[n + 1] = splu(A).solve(Mw @ u[n] + 0.25 * loads[n + 1])
    assert sol.interior_levels().tobytes() == u.tobytes()


def test_march_system_rejects_a_stack_of_the_wrong_shape():
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    nnz = interior_pattern(m)[0].size
    with pytest.raises(ValueError, match=re.escape(
            "(N+1, nnz) = (5, %d), got (3, %d)" % (nnz, nnz))):
        march_system(assemble_weighted_mass(m), np.zeros((3, nnz)),
                     np.ones((5, m.n_interior)), m)


def test_source_free_march_decays():
    m = build_mesh(1, 4.0, 16, 2.0, time_step=0.05, time_count=20)
    coeffs = generate_family(1, "xd_only", 0.5, 0.2, dim=1)
    u0 = DiscreteField.sample(m, lambda t, xp, xd: xd * (4 - xd))
    sol = march(m, coeffs, lam=5.0, u0=u0)
    Mw = assemble_weighted_mass(m, coeffs.a0).matrix
    norms = [sol.interior(n) @ (Mw @ sol.interior(n))
             for n in range(sol.time_count + 1)]
    print("decay norms", norms[0], norms[-1])
    assert norms[0] > 0
    assert norms[-1] < 0.5 * norms[0]
    assert all(norms[i + 1] <= norms[i] * (1 + 1e-12)
               for i in range(len(norms) - 1))


def _steady_state(m, coeffs, lam, F=None, f=None):
    """Nodal values of the stationary solution K u = b at t = 0, by one
    sparse direct solve."""
    K = assemble_stiffness(m, coeffs, lam, t=0.0).matrix
    b = LoadAssembler(m).assemble(F, f, lam, t=0.0)
    return DiscreteField.from_interior(m, linear_solve(K, b)).values


def test_march_approaches_steady_state():
    m = build_mesh(1, 4.0, 12, 2.0, time_step=0.25, time_count=120)
    coeffs = generate_family(5, "constant", 0.5, 0.0, dim=1)
    lam = 4.0
    f = lambda t, xp, xd: np.sin(xd)
    sol = march(m, coeffs, lam, f=f)
    u_star = _steady_state(m, coeffs, lam, f=f)
    gap = np.abs(sol.levels[-1] - u_star).max()
    early = np.abs(sol.levels[4] - u_star).max()
    print("steady gap late", gap, "early", early)
    assert gap < 1e-9
    assert gap < early


def test_steady_solve_flux_data_nodal_exact():
    # with a = I, lam = 0 and flux data F = u' for u = x(1-x)/2 the
    # discrete solution interpolates u exactly (1d Galerkin projection)
    m = build_mesh(1, 1.0, 4, 1.0)
    u = _steady_state(m, identity_coefficients(1), 0.0,
                      F=lambda t, xp, xd: 0.5 - xd)
    expect = m.xd_nodes * (1 - m.xd_nodes) / 2
    assert np.max(np.abs(u[:, 0] - expect)) < 1e-13


def test_adjoint_pairing_identity_dense():
    # duality bookkeeping on a small nonsymmetric system:
    # dt sum c.u == dt sum b.v to roundoff
    m = build_mesh(1, 2.0, 6, 1.5, time_step=0.2, time_count=5)
    n = m.n_interior
    N = 5
    Mw = assemble_weighted_mass(m)
    rng = np.random.default_rng(11)
    indices, indptr, shape = interior_pattern(m)
    Kd = np.diag(5.0 + rng.uniform(0, 1, n)) + 0.5 * rng.standard_normal(
        (n, n))
    K = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=shape)
    K.data = Kd[K.nonzero()]        # Kd restricted to the interior pattern
    assert np.abs(K - K.T).max() > 0.1
    b_rows = rng.standard_normal((N + 1, n))
    c_rows = rng.standard_normal((N + 1, n))
    sol = march_system(Mw, K.data[None], b_rows, m)
    v = adjoint_march_system(Mw, K.data[None], c_rows, m)
    dt = 0.2
    lhs = dt * sum(c_rows[k] @ sol.interior(k) for k in range(1, N + 1))
    rhs = dt * sum(b_rows[k] @ v[k] for k in range(1, N + 1))
    print("pairing lhs", lhs, "rhs", rhs)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
    assert np.all(v[0] == 0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 3.0])
@pytest.mark.parametrize("kind", ["constant", "xd_only"])
def test_adjoint_factors_the_transpose_of_the_forward_system(monkeypatch,
                                                             kind, dim, lam):
    # the system splu receives is bitwise the one assembled from the
    # transposed coefficients and converted by scipy; in d = 2 the xd_only
    # family makes K nonsymmetric (a constant antisymmetric part of a
    # cancels in the assembled form)
    if dim == 1:
        m = build_mesh(1, 3.0, 10, 2.0, time_step=0.25, time_count=4)
    else:
        m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5,
                       xprime_length=2 * np.pi, time_step=0.25, time_count=4)
    coeffs = generate_family(1, kind, 0.5, 0.2, dim=dim,
                             xp_length=2 * np.pi)
    Kt = assemble_stiffness(m, coeffs.transposed(), lam).matrix
    assert (abs(Kt - Kt.T).max() > 1e-3) == (dim == 2 and kind == "xd_only")
    factored = []

    def recording_splu(A, *args, **kwargs):
        factored.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(degenlab.solver, "splu", recording_splu)
    adjoint_march(m, coeffs, lam, np.ones((5, m.n_interior)))
    M = assemble_weighted_mass(m, coeffs.a0).matrix
    expect = sp.csc_matrix(M + m.time_step * Kt)
    assert len(factored) == 1
    got = factored[0]
    assert got.data.tobytes() == expect.data.tobytes()
    assert np.array_equal(got.indices, expect.indices)
    assert np.array_equal(got.indptr, expect.indptr)


def test_adjoint_of_a_time_dependent_march_pairs_exactly(monkeypatch):
    # with a stack of N+1 levels the backward march transposes the system
    # of each step, so the discrete pairing holds to roundoff
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi,
                   time_step=0.25, time_count=4)
    coeffs = generate_family(3, "oscillatory", 0.5, 0.2, dim=2,
                             xp_length=2 * np.pi)
    marcher = Marcher(m, coeffs, TimeStepperConfig(linear_tol=1e-12))
    indices, indptr, shape = interior_pattern(m)
    K = sp.csr_matrix((marcher.stiffness(1.0)[2], indices, indptr),
                      shape=shape)
    assert abs(K - K.T).max() > 1e-3
    f = smooth_random_closure(2, 2, xp_length=2 * np.pi)
    u = marcher.march(1.0, f=f)
    c_rows = LoadAssembler(m).assemble(
        None, smooth_random_closure(3, 2, xp_length=2 * np.pi), 1.0,
        m.time_levels)
    calls = _count_factorizations(monkeypatch)
    v = marcher.adjoint(1.0, c_rows)
    assert len(calls) == 4
    P1 = float(np.sum(c_rows[1:] * u.interior_levels()[1:]))
    P2 = float(np.sum(u.loads[1:] * v[1:]))
    assert abs(P1 - P2) <= 1e-10 * abs(P1)


def test_adjoint_requires_backward_euler():
    m = build_mesh(1, 2.0, 4, 1.0, time_step=0.5, time_count=2)
    Mw = assemble_weighted_mass(m)
    K = _stack(m, identity_coefficients(1), 1.0)
    loads = np.zeros((3, m.n_interior))
    cfg = TimeStepperConfig(theta=0.5)
    with pytest.raises(ValueError):
        adjoint_march_system(Mw, K, loads, m, config=cfg)
    with pytest.raises(ValueError):
        adjoint_march_system(Mw, K, loads[:2], m)


def test_time_grid_mismatch_rejected():
    m = build_mesh(1, 2.0, 4, 1.0, time_step=0.1, time_count=10)
    Mw = assemble_weighted_mass(m)
    coeffs = generate_family(0, "oscillatory", 0.5, 0.2, dim=1)
    # a stack on another time grid of the same window
    other = build_mesh(1, 2.0, 4, 1.0, time_step=0.25, time_count=4)
    K = _stack(m, coeffs, 1.0, other.time_levels)
    with pytest.raises(ValueError, match="stiffness stack must have shape"):
        march_system(Mw, K, None, m)
    with pytest.raises(ValueError, match="stiffness stack must have shape"):
        adjoint_march_system(Mw, K, np.zeros((11, m.n_interior)), m)
    K = _stack(m, coeffs, 1.0, m.time_levels)
    with pytest.raises(ValueError, match="loads must have shape"):
        march_system(Mw, K, np.zeros((10, m.n_interior)), m)


def test_solution_container_invariants():
    m = build_mesh(1, 2.0, 4, 1.0, time_step=0.5, time_count=2)
    levels = np.zeros((3, 5, 1))
    times = np.array([0.0, 0.5, 1.0])
    sol = SpaceTimeSolution(m, levels, times)
    assert sol.time_count == 2
    assert sol.max_abs() == 0.0
    bad = levels.copy()
    bad[1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        SpaceTimeSolution(m, bad, times)
    with pytest.raises(ValueError):
        SpaceTimeSolution(m, levels, times[:2])
    levels2 = levels.copy()
    levels2[2, 2, 0] = 3.0
    sol2 = SpaceTimeSolution(m, levels2, times)
    d = sol2.time_differences()
    assert d.shape == (2, 5, 1)
    assert abs(d[1, 2, 0] - 6.0) < 1e-14
    assert d[0, 2, 0] == 0.0


def test_march_dim2_runs_and_respects_traces():
    m = build_mesh(2, 2.0, 6, 1.5, xprime_count=4, xprime_length=2 * np.pi,
                   time_step=0.1, time_count=4)
    coeffs = generate_family(2, "xd_only", 0.5, 0.2, dim=2)
    f = lambda t, xp, xd: np.sin(xp) * xd * (2 - xd)
    sol = march(m, coeffs, lam=1.0, f=f)
    assert sol.levels.shape == (5, 7, 4)
    assert np.all(sol.levels[:, 0, :] == 0)
    assert np.all(sol.levels[:, -1, :] == 0)
    assert sol.max_abs() > 0
    assert np.isfinite(sol.max_abs())
