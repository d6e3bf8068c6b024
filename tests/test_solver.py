import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import degenlab.solver
from degenlab import (DiscreteField, SolverError, SpaceTimeSolution,
                      TimeStepperConfig, adjoint_march_system,
                      assemble_stiffness, assemble_weighted_mass, build_mesh,
                      generate_family, identity_coefficients, linear_solve,
                      march, march_system, model_stiffness, steady_solve)

LOG2 = np.log(2.0)


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
        TimeStepperConfig(time_step=-0.1)
    with pytest.raises(ValueError):
        TimeStepperConfig(linear_tol=0.0)
    cfg = TimeStepperConfig(theta=0.5, time_step=0.25)
    assert cfg.summary()["theta"] == 0.5


def test_march_scalar_recursion_backward_euler():
    # single interior node: the scheme is a scalar recursion we can
    # replay by hand
    m = build_mesh(1, 1.0, 2, 1.0, time_step=0.1, time_count=5)
    Mw = assemble_weighted_mass(m)
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    mval = Mw.matrix[0, 0]
    kval = K.matrix[0, 0]
    assert abs(mval - (4 * LOG2 - 2)) < 1e-14
    sol = march_system(Mw, K, lambda t: np.array([1.0]), m)
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
    sol = march_system(Mw, K, lambda t: np.array([np.cos(t)]), m, config=cfg)
    u = 0.0
    dt = 0.05
    for n in range(8):
        b_half = 0.5 * (np.cos(dt * n) + np.cos(dt * (n + 1)))
        u = ((mval - 0.5 * dt * kval) * u + dt * b_half) / \
            (mval + 0.5 * dt * kval)
        assert abs(sol.interior(n + 1)[0] - u) < 1e-13
    assert sol.time_count == 8
    assert abs(sol.dt - dt) < 1e-15


def test_march_evaluates_each_load_once():
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=6)
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    calls = []

    def loads(t):
        calls.append(t)
        return np.ones(m.n_interior)

    march_system(assemble_weighted_mass(m), K, loads, m)
    assert len(calls) == 6 + 1


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
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    calls = _count_factorizations(monkeypatch)
    v = adjoint_march_system(assemble_weighted_mass(m), K,
                             np.ones((6, m.n_interior)), m)
    assert len(calls) == 1
    assert np.all(v[1:] > 0)


def test_march_checks_solves_that_reuse_the_factors(monkeypatch):
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=5)
    Mw = assemble_weighted_mass(m)
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    loads = lambda t: np.ones(m.n_interior)
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
    K = assemble_stiffness(m, coeffs, lam, t=0.0)
    from degenlab import LoadAssembler
    la = LoadAssembler(m)
    sol2 = march_system(Mw, K, lambda t: la.assemble(None, f, lam,
                                                     t=t).values, m)
    assert np.array_equal(sol.levels, sol2.levels)
    assert sol.lam == lam


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


def test_march_approaches_steady_state():
    m = build_mesh(1, 4.0, 12, 2.0, time_step=0.25, time_count=120)
    coeffs = generate_family(5, "constant", 0.5, 0.0, dim=1)
    lam = 4.0
    f = lambda t, xp, xd: np.sin(xd)
    sol = march(m, coeffs, lam, f=f)
    u_star = steady_solve(m, coeffs, lam, f=f)
    gap = np.abs(sol.levels[-1] - u_star.values).max()
    early = np.abs(sol.levels[4] - u_star.values).max()
    print("steady gap late", gap, "early", early)
    assert gap < 1e-9
    assert gap < early


def test_steady_solve_flux_data_nodal_exact():
    # with a = I, lam = 0 and flux data F = u' for u = x(1-x)/2 the
    # discrete solution interpolates u exactly (1d Galerkin projection)
    m = build_mesh(1, 1.0, 4, 1.0)
    u = steady_solve(m, identity_coefficients(1), 0.0,
                     F=lambda t, xp, xd: 0.5 - xd)
    expect = m.xd_nodes * (1 - m.xd_nodes) / 2
    assert np.max(np.abs(u.values[:, 0] - expect)) < 1e-13


def test_adjoint_pairing_identity_dense():
    # duality bookkeeping on a small nonsymmetric system:
    # dt sum c.u == dt sum b.v to roundoff
    m = build_mesh(1, 2.0, 6, 1.5, time_step=0.2, time_count=5)
    n = m.n_interior
    N = 5
    Mw = assemble_weighted_mass(m)
    rng = np.random.default_rng(11)
    Kd = np.diag(5.0 + rng.uniform(0, 1, n)) + 0.5 * rng.standard_normal(
        (n, n))
    K = sp.csr_matrix(Kd)
    b_rows = rng.standard_normal((N + 1, n))
    c_rows = rng.standard_normal((N + 1, n))
    sol = march_system(Mw, K, lambda t: b_rows[int(round(t / 0.2))], m)
    v = adjoint_march_system(Mw, sp.csr_matrix(Kd.T), c_rows, m)
    dt = 0.2
    lhs = dt * sum(c_rows[k] @ sol.interior(k) for k in range(1, N + 1))
    rhs = dt * sum(b_rows[k] @ v[k] for k in range(1, N + 1))
    print("pairing lhs", lhs, "rhs", rhs)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
    assert np.all(v[0] == 0)


def test_adjoint_requires_backward_euler():
    m = build_mesh(1, 2.0, 4, 1.0, time_step=0.5, time_count=2)
    Mw = assemble_weighted_mass(m)
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    loads = np.zeros((3, m.n_interior))
    cfg = TimeStepperConfig(theta=0.5)
    with pytest.raises(ValueError):
        adjoint_march_system(Mw, K, loads, m, config=cfg)
    with pytest.raises(ValueError):
        adjoint_march_system(Mw, K, loads[:2], m)


def test_time_grid_mismatch_rejected():
    m = build_mesh(1, 2.0, 4, 1.0, time_step=0.1, time_count=10)
    Mw = assemble_weighted_mass(m)
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    cfg = TimeStepperConfig(time_step=0.3)
    with pytest.raises(ValueError):
        march_system(Mw, K, None, m, config=cfg)


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
