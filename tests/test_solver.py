import inspect
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv, dgbtrf, dgbtrs

import degenlab.assembly
import degenlab.solver
from degenlab import (CoefficientField, LoadAssembler, Marcher,
                      SolverError, SpaceTimeSolution, TimeStepperConfig,
                      adjoint_march, adjoint_march_system,
                      assemble_stiffness, assemble_weighted_mass, build_mesh,
                      convergence_study, generate_family,
                      identity_coefficients,
                      interior_pattern, linear_solve, march, march_system,
                      model_stiffness, sample_nodes, smooth_random_closure,
                      stiffness_levels)

LOG2 = np.log(2.0)
_SOLVE = degenlab.solver._BandLU.solve      # as defined, never a wrapper


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
    x = linear_solve(sp.csr_matrix(A), b)
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
    with pytest.raises(TypeError):
        TimeStepperConfig(time_step=0.25)     # the mesh owns the time grid
    with pytest.raises(TypeError):
        TimeStepperConfig(linear_tol=1e-10)   # the solver owns its bound
    cfg = TimeStepperConfig(theta=0.5)
    assert vars(cfg) == {"theta": 0.5}


def test_march_scalar_recursion_backward_euler():
    # single interior node: the scheme is a scalar recursion we can
    # replay by hand
    m = build_mesh(1, 1.0, 2, 1.0, time_step=0.1, time_count=5)
    Mw = assemble_weighted_mass(m)
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    mval = Mw[0, 0]
    kval = K.matrix[0, 0]
    assert abs(mval - (4 * LOG2 - 2)) < 1e-14
    sol, = march_system(Mw.data,
                        _stack(m, identity_coefficients(1), 1.0)[None],
                        np.ones((1, 6, 1)), m)
    u = 0.0
    for n in range(5):
        u = (mval * u + 0.1 * 1.0) / (mval + 0.1 * kval)
        got = sol.interior_levels()[n + 1, 0]
        assert abs(got - u) < 1e-13 * max(1.0, abs(u))
    print("final scalar value", u)


def test_march_scalar_recursion_crank_nicolson():
    m = build_mesh(1, 1.0, 2, 1.0, time_step=0.05, time_count=8)
    Mw = assemble_weighted_mass(m)
    K = assemble_stiffness(m, identity_coefficients(1), lam=2.0)
    mval, kval = Mw[0, 0], K.matrix[0, 0]
    cfg = TimeStepperConfig(theta=0.5)
    loads = np.cos(0.05 * np.arange(9))[:, None]
    sol, = march_system(Mw.data,
                        _stack(m, identity_coefficients(1), 2.0)[None],
                        loads[None], m, config=cfg)
    u = 0.0
    dt = 0.05
    for n in range(8):
        b_half = 0.5 * (np.cos(dt * n) + np.cos(dt * (n + 1)))
        u = ((mval - 0.5 * dt * kval) * u + dt * b_half) / \
            (mval + 0.5 * dt * kval)
        assert abs(sol.interior_levels()[n + 1, 0] - u) < 1e-13
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
    F = (lambda t, xp, xd: np.sin(t) * xd,)
    sol = march(m, coeffs, 1.0, F=F, f=f)
    assert calls == [(7, 1, 1), (7, 1, 1)]      # one per source component
    assert sol.loads.shape == (7, m.n_interior)


def test_marcher_samples_each_source_once_per_lambda_grid(monkeypatch):
    # b(lam) = B_F + sqrt(lam) B_f: a lambda grid samples F and f once, and
    # every row is bitwise the load assembled at its lambda
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=4, xprime_length=2 * np.pi,
                   time_step=0.1, time_count=4)
    F = tuple(smooth_random_closure(11 + i, 2, xp_length=2 * np.pi)
              for i in range(2))
    f = smooth_random_closure(5, 2, xp_length=2 * np.pi)
    marcher = Marcher(m, generate_family(1, "xd_only", 0.5, 0.2, dim=2))
    calls = []

    def counting_sample_nodes(mesh, func, t):
        calls.append(func)
        return sample_nodes(mesh, func, t)

    monkeypatch.setattr(degenlab.assembly, "sample_nodes",
                        counting_sample_nodes)
    parts = LoadAssembler(m).parts(F, f)
    assert calls == [F[0], F[1], f]
    sols = marcher.march([0.0, 1.0, 10.0, 1e3], parts)
    assert calls == [F[0], F[1], f]          # the march samples nothing
    assert [sol.lam for sol in sols] == [0.0, 1.0, 10.0, 1e3]
    monkeypatch.undo()
    la = LoadAssembler(m)
    for sol in sols:
        rows = la.assemble(F, f, sol.lam, m.time_levels)
        assert sol.loads.tobytes() == rows.tobytes()
    with pytest.raises(ValueError, match="lambda must be >= 0"):
        marcher.march([1.0, -1.0], parts)


def test_a_march_on_kept_load_parts_is_a_march_on_its_sources(monkeypatch):
    # the parts a caller keeps give bitwise the march of the sources they
    # were sampled from, with no sampling
    m = build_mesh(1, 3.0, 8, 2.0, time_step=0.1, time_count=5)
    F = (smooth_random_closure(3, 1),)
    f = smooth_random_closure(4, 1)
    coeffs = generate_family(1, "xd_only", 0.5, 0.2, dim=1)
    marcher = Marcher(m, coeffs)
    parts = LoadAssembler(m).parts(F, f)
    want = [march(m, coeffs, lam, F=F, f=f) for lam in (0.0, 2.0)]
    calls = []
    monkeypatch.setattr(degenlab.assembly, "sample_nodes",
                        lambda *args: calls.append(args))
    got = marcher.march([0.0, 2.0], parts=parts)
    assert not calls
    for a, b in zip(got, want):
        assert a.levels.tobytes() == b.levels.tobytes()
        assert a.loads.tobytes() == b.loads.tobytes()


def _count_factorizations(monkeypatch):
    calls = []

    def counting_dgbtrf(ab, *args, **kwargs):
        calls.append(ab.shape)
        return dgbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(degenlab.solver, "dgbtrf", counting_dgbtrf)
    return calls


def _record_solves(monkeypatch, wrong_from=np.inf):
    """Record the trans flag of every banded solve, ``_BandLU.solve``,
    whichever routine it solves by; from the wrong_from-th solve on,
    return twice the solution."""
    solves = []

    def recording_solve(lu, b, trans=0):
        solves.append(trans)
        x = _SOLVE(lu, b, trans)
        return x if len(solves) < wrong_from else 2 * x

    monkeypatch.setattr(degenlab.solver._BandLU, "solve", recording_solve)
    return solves


def test_a_row_interchange_falls_back_to_dgbtrs(monkeypatch):
    # |1e-3| < |1| below it: dgbtrf swaps the first two rows, L is no
    # longer banded, and every solve goes through dgbtrs, checked as the
    # triangular band solves are
    A = sp.csr_matrix(np.array([[1e-3, 1.0, 0.0], [1.0, 1.0, 1.0],
                                [0.0, 1.0, 1.0]]))
    b = np.array([1.0, 2.0, 3.0])
    calls = []

    def counting_dgbtrs(*args, **kwargs):
        calls.append(kwargs.get("trans", 0))
        return dgbtrs(*args, **kwargs)

    def no_dtbsv(*args, **kwargs):
        raise AssertionError("dtbsv after a row interchange")

    monkeypatch.setattr(degenlab.solver, "dgbtrs", counting_dgbtrs)
    monkeypatch.setattr(degenlab.solver, "dtbsv", no_dtbsv)
    x = linear_solve(A, b)
    want = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()
    lu = degenlab.solver._BandLU(degenlab.solver._BandLayout(
        A.indices, A.indptr, 3))
    lu.factor(A.data)
    assert lu._interchanged
    x = lu.solve(b, trans=1)
    want = np.linalg.solve(A.toarray().T, b)
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()
    lu.check(A.data[None], x[None], b[None], trans=1)
    assert calls == [0, 1]

    def doubling_dgbtrs(*args, **kwargs):
        x, info = dgbtrs(*args, **kwargs)
        return 2 * x, info

    monkeypatch.setattr(degenlab.solver, "dgbtrs", doubling_dgbtrs)
    with pytest.raises(SolverError, match=re.escape("exceeds 1.000e-11")):
        linear_solve(A, b)


def _xd_only_systems(dim, k, lams=(1.0, 10.0, 100.0)):
    """(mesh, entry data (1, k, nnz), band LU) of k xd_only systems at the
    first k of lams: nonsymmetric in d = 2, where the band is in the
    declared order."""
    m = build_mesh(dim, 3.0, 8, 2.0, xprime_count=1 if dim == 1 else 5,
                   xprime_length=2 * np.pi, time_step=0.2, time_count=4)
    marcher = Marcher(m, generate_family(1, "xd_only", 0.5, 0.2, dim=dim,
                                         xp_length=2 * np.pi))
    _, A, lu = degenlab.solver._systems(
        marcher.mass, marcher.stiffness(list(lams[:k])), 0.2, m)
    return m, A, lu


def _reference_solve(m, lu, b, trans):
    """x by dgbtrs on the LU's own factors, in the declared order."""
    k = b.size // m.n_interior
    order = np.tile(_declared_order(m), k) \
        + np.repeat(m.n_interior * np.arange(k), m.n_interior)
    x = np.empty_like(b)
    x[order] = dgbtrs(lu._band, lu.kl, lu.ku, b[order], lu._piv,
                      trans=trans)[0]
    return x


@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_band_solves_agree_with_dgbtrs_on_the_same_factors(dim, k, trans):
    # without a row interchange the solve is two triangular band solves
    # on the band: forward they make dgbtrs's own L and U updates, bitwise,
    # and transposed they sum in another order, to roundoff
    m, A, lu = _xd_only_systems(dim, k)
    lu.factor(A[0])
    assert not lu._interchanged
    b = np.random.default_rng(10 * dim + k).standard_normal(
        k * m.n_interior)
    b_bytes = b.tobytes()
    want = _reference_solve(m, lu, b, trans)
    x = lu.solve(b, trans)
    assert b.tobytes() == b_bytes
    if trans:
        assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()
    else:
        assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_without_an_interchange_u_has_only_ku_superdiagonals(dim, k):
    # the top kl rows of the band hold U's fill from row interchanges;
    # with none they stay exactly zero, so U is solved on ku of them
    _, A, lu = _xd_only_systems(dim, k)
    lu.factor(A[0])
    assert not lu._interchanged and lu.kl > 0
    assert np.all(lu._band[:lu.kl] == 0)
    assert np.any(lu._band[lu.kl] != 0)


@pytest.mark.parametrize("trans", [0, 1])
def test_each_triangle_is_solved_at_its_own_width(monkeypatch, trans):
    # kl = 2 subdiagonals and ku = 3 superdiagonals, diagonally dominant:
    # no interchange, so L is solved on kl and U on ku diagonals, never
    # on the kl + ku of the band, each on a Fortran-ordered array that
    # f2py passes as it is
    n = 12
    dense = sum(np.diag(np.full(n - abs(d), 1.0 + 0.1 * d), d)
                for d in range(-2, 4)) + np.diag(np.full(n, 9.0))
    A = sp.csr_matrix(dense)
    lu = degenlab.solver._BandLU(degenlab.solver._BandLayout(
        A.indices, A.indptr, n))
    lu.factor(A.data)
    assert (lu.kl, lu.ku, lu._interchanged) == (2, 3, False)
    calls = []
    dtbsv = degenlab.solver.dtbsv

    def counting(k, ab, *args, **kwargs):
        calls.append((k, ab))
        return dtbsv(k, ab, *args, **kwargs)

    monkeypatch.setattr(degenlab.solver, "dtbsv", counting)
    b = np.random.default_rng(3).standard_normal(n)
    x = lu.solve(b, trans)
    assert [k for k, _ in calls] == ([3, 2] if trans else [2, 3])
    assert all(ab.flags.f_contiguous for _, ab in calls)
    upper, = [ab for k, ab in calls if k == 3]
    assert np.shares_memory(upper, lu._band)
    want = np.linalg.solve(dense.T if trans else dense, b)
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()


def test_a_transposed_solve_never_reads_a_stale_lower_copy():
    # L^T is copied out of the band on the first transposed solve after a
    # factorization; the next factorization, even one that raises, drops
    # the copy, so a transposed solve after it reads the new factors
    m, A, lu = _xd_only_systems(2, 1, lams=(1.0,))
    _, B, _ = _xd_only_systems(2, 1, lams=(100.0,))
    b = np.random.default_rng(5).standard_normal(m.n_interior)
    lu.factor(A[0])
    lu.solve(b, trans=1)
    lu.factor(B[0])
    assert lu._lower_t is None
    want = _reference_solve(m, lu, b, 1)
    x = lu.solve(b, trans=1)
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()
    assert lu._lower_t is not None
    with pytest.raises(SolverError, match="exactly singular"):
        lu.factor(np.zeros_like(B[0]))
    assert lu._lower_t is None


def test_a_forward_march_copies_no_transposed_lower_factor():
    # only a transposed solve copies L^T: a march, of one lambda or a
    # grid, leaves its band LU without the copy, an adjoint makes it, and
    # the next march, which factors anew, drops it again
    m = build_mesh(2, 2.5, 7, 2.0, xprime_count=6, xprime_length=2 * np.pi,
                   time_step=0.2, time_count=3)
    marcher = Marcher(m, generate_family(3, "oscillatory", 0.5, 0.2, dim=2,
                                         xp_length=2 * np.pi))
    f = smooth_random_closure(2, 2, xp_length=2 * np.pi)
    u, = marcher.march([2.0], LoadAssembler(m).parts(None, f))
    marcher.march([2.0, 20.0], LoadAssembler(m).parts(None, f))
    single = degenlab.solver._band_lu(m)
    assert single._lower_t is None
    assert degenlab.solver._band_lu(m, 2)._lower_t is None
    marcher.adjoint(2.0, u.loads)
    assert single._lower_t is not None
    marcher.march([3.0], LoadAssembler(m).parts(None, f))
    assert single._lower_t is None


def test_a_32_by_32_d2_march_factors_without_a_row_interchange(
        monkeypatch):
    # a march and its adjoint on 992 interior DoFs, refactored every
    # step, run the triangular band solves throughout, never the dgbtrs
    # fallback
    m = build_mesh(2, 3.0, 32, 2.0, xprime_count=32,
                   xprime_length=2 * np.pi, time_step=0.1, time_count=3)
    marcher = Marcher(m, generate_family(2, "oscillatory", 0.5, 0.2, dim=2,
                                         xp_length=2 * np.pi))
    f = smooth_random_closure(4, 2, xp_length=2 * np.pi)
    interchanged = []
    factor = degenlab.solver._BandLU.factor

    def recording(lu, *args, **kwargs):
        factor(lu, *args, **kwargs)
        interchanged.append(lu._interchanged)

    monkeypatch.setattr(degenlab.solver._BandLU, "factor", recording)
    u, = marcher.march([3.0], LoadAssembler(m).parts(None, f))
    marcher.adjoint(3.0, u.loads)
    assert interchanged == [False] * 6


def _declared_order(m):
    """The DoF order of the band: natural in d = 1; in d = 2 each row of
    x_d nodes takes its x' nodes as 0, P-1, 1, P-2, ..."""
    if m.dim == 1:
        return np.arange(m.n_interior)
    P = m.xprime_count
    ring = [k // 2 if k % 2 == 0 else P - 1 - k // 2 for k in range(P)]
    return np.array([j * P + r for j in range(m.M - 1) for r in ring])


def _band_solve(A, b, bw, order=None):
    """x of A x = b by LAPACK's gbsv (gbtrf, then gbtrs) on the dense
    entries of A, its rows and columns taken in order (the natural one when
    None), within bw diagonals of the main one, in band storage."""
    A = A.toarray()
    n = len(A)
    order = np.arange(n) if order is None else order
    A, b = A[np.ix_(order, order)], b[order]
    ab = np.zeros((3 * bw + 1, n))
    for k in range(-bw, bw + 1):           # A[i, i + k] at ab[2 bw - k]
        ab[2 * bw - k, max(k, 0):n + min(k, 0)] = np.diagonal(A, k)
    _, _, y, info = dgbsv(bw, bw, ab, b)
    assert info == 0
    x = np.empty_like(y)
    x[order] = y
    return x


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
    v = adjoint_march_system(assemble_weighted_mass(m).data, K,
                             np.ones((6, m.n_interior)), m)
    assert len(calls) == 1
    assert np.all(v[1:] > 0)


def test_march_checks_solves_that_reuse_the_factors(monkeypatch):
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=5)
    Mw = assemble_weighted_mass(m).data
    K = _stack(m, identity_coefficients(1), 1.0)
    loads = np.ones((1, 6, m.n_interior))
    with monkeypatch.context() as patch, \
            pytest.raises(SolverError, match="time level 1:"):
        patch.setattr(degenlab.solver, "_BACKWARD_ERROR_BOUND", 1e-30)
        march_system(Mw, K[None], loads, m)

    solves = _record_solves(monkeypatch, wrong_from=3)
    with pytest.raises(SolverError, match="time level 3:"):
        march_system(Mw, K[None], loads, m)
    assert solves == [0] * 5          # checked after the last step


def test_march_wrapper_matches_march_system():
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=6)
    coeffs = generate_family(3, "xd_only", 0.5, 0.2, dim=1)
    lam = 2.0
    f = lambda t, xp, xd: xd * np.exp(-xd)
    sol = march(m, coeffs, lam, f=f)
    Mw = assemble_weighted_mass(m, coeffs.a0).data
    K = _stack(m, coeffs, lam)
    la = LoadAssembler(m)
    rows = np.array([la.assemble(None, f, lam, t=t) for t in m.time_levels])
    sol2, = march_system(Mw, K[None], rows[None], m)
    assert np.array_equal(sol.levels, sol2.levels)
    assert np.array_equal(sol.loads, rows)
    assert sol.lam == lam


def _reference_march(m, coeffs, lam, loads, times, theta):
    """The theta scheme step by step, with the stiffness assembled at each
    time level, the system matrix summed by scipy and solved by gbsv in the
    declared DoF order with the bandwidth of the interior pattern in that
    order: 1 in d = 1, xprime_count + 2 in d = 2."""
    bw = 1 if m.dim == 1 else m.xprime_count + 2
    dt = times[1] - times[0]
    Mw = assemble_weighted_mass(m, coeffs.a0)
    K = [assemble_stiffness(m, coeffs, lam, t=t).matrix for t in times]
    u = np.zeros_like(loads)
    for n in range(times.size - 1):
        rhs = Mw @ u[n] + dt * (theta * loads[n + 1]
                                + (1 - theta) * loads[n])
        if theta < 1.0:
            rhs -= (1 - theta) * dt * (K[n] @ u[n])
        u[n + 1] = _band_solve(Mw + theta * dt * K[n + 1], rhs, bw,
                               _declared_order(m))
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


def _grid_mesh(dim):
    if dim == 1:
        return build_mesh(1, 4.0, 12, 2.0, time_step=0.1, time_count=6)
    return build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi,
                      time_step=0.125, time_count=5)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "xd_only", "oscillatory"])
def test_exported_stiffness_is_the_marchers_entries(dim, kind):
    # one rule forms K(lam): the exported matrix is the interior pattern
    # with, bitwise, the entries the march solves with, at every level
    m = _grid_mesh(dim)
    coeffs = generate_family(3, kind, 0.5, 0.2, dim=dim,
                             xp_length=2 * np.pi)
    indices, indptr, shape = interior_pattern(m)
    lams = [0.0, 1.0, 1e3]
    K = Marcher(m, coeffs).stiffness(lams)
    for i, lam in enumerate(lams):
        for n, t in enumerate(m.time_levels[:len(K[i])]):
            A = assemble_stiffness(m, coeffs, lam, t=t).matrix
            assert A.shape == shape
            assert np.array_equal(A.indices, indices)
            assert np.array_equal(A.indptr, indptr)
            assert A.data.tobytes() == K[i, n].tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["xd_only", "oscillatory"])
@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("loaded", [True, False])
def test_a_batch_march_is_bitwise_one_march_per_system(dim, kind, theta,
                                                       loaded):
    # the k systems of a level are the blocks of one band: factors and
    # solves of each block are bitwise those of its system alone, with
    # one level (xd_only) or N+1 (oscillatory), lambda = 0 included;
    # without loads every march from rest stays exactly at rest
    m = _grid_mesh(dim)
    cfg = TimeStepperConfig(theta=theta)
    marcher = Marcher(m, generate_family(2, kind, 0.5, 0.2, dim=dim,
                                         xp_length=2 * np.pi), cfg)
    K = marcher.stiffness([0.0, 1.0, 10.0, 1e3])
    assert K.shape[1] == (1 if kind == "xd_only" else m.time_count + 1)
    rng = np.random.default_rng(5)
    loads = rng.standard_normal((4, m.time_count + 1, m.n_interior)) \
        if loaded else None
    batch = march_system(marcher.mass, K, loads, m, config=cfg)
    assert len(batch) == 4
    for i, sol in enumerate(batch):
        one, = march_system(marcher.mass, K[i:i + 1],
                            None if loads is None else loads[i:i + 1], m,
                            config=cfg)
        assert sol.levels.tobytes() == one.levels.tobytes()
        assert (one.max_abs() > 0) == loaded
        assert (sol.loads is None) == (not loaded)
        assert sol.lam is one.lam is None      # no lams given


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("loaded", [True, False])
def test_marcher_grid_is_bitwise_the_one_lambda_marches(dim, loaded):
    m = _grid_mesh(dim)
    coeffs = generate_family(3, "oscillatory", 0.5, 0.2, dim=dim,
                             xp_length=2 * np.pi)
    F = tuple(smooth_random_closure(11 + i, dim, xp_length=2 * np.pi)
              for i in range(dim)) if loaded else None
    f = smooth_random_closure(5, dim, xp_length=2 * np.pi) if loaded \
        else None
    grid = [0.0, 1.0, 10.0, 1e3]
    parts = LoadAssembler(m).parts(F, f) if loaded else None
    sols = Marcher(m, coeffs).march(grid, parts)
    for lam, sol in zip(grid, sols):
        one = march(m, coeffs, lam, F=F, f=f)
        assert sol.lam == one.lam == lam
        assert sol.levels.tobytes() == one.levels.tobytes()
        assert (sol.max_abs() > 0) == loaded     # no loads: at rest
        if loaded:
            assert sol.loads.tobytes() == one.loads.tobytes()
    with pytest.raises(ValueError, match=re.escape(
            "must be non-empty and one-dimensional, got shape (0,)")):
        Marcher(m, coeffs).march([], parts)
    with pytest.raises(ValueError, match="one-dimensional, got shape"):
        Marcher(m, coeffs).march(1.0, parts)


@pytest.mark.parametrize("dim, kind, factorings", [
    (1, "xd_only", 1), (1, "oscillatory", 5), (2, "xd_only", 1),
    (2, "oscillatory", 5)])
def test_a_lambda_grid_is_one_band(monkeypatch, dim, kind, factorings):
    # one dgbtrf of a 3-block band per factoring, so once per level, not
    # once per lambda, and one solve per step
    m = build_mesh(dim, 3.0, 6, 2.0, xprime_count=1 if dim == 1 else 5,
                   xprime_length=2 * np.pi, time_step=0.2, time_count=5)
    marcher = Marcher(m, generate_family(4, kind, 0.5, 0.2, dim=dim,
                                         xp_length=2 * np.pi))
    calls = _count_factorizations(monkeypatch)
    solves = _record_solves(monkeypatch)
    sols = marcher.march(np.array([1.0, 10.0, 100.0]), LoadAssembler(m).parts(
        None, smooth_random_closure(5, dim, xp_length=2 * np.pi)))
    # each solution is made with its grid value, a Python float
    assert [(type(sol.lam), sol.lam) for sol in sols] == \
        [(float, 1.0), (float, 10.0), (float, 100.0)]
    assert len(calls) == factorings
    assert {shape[1] for shape in calls} == {3 * m.n_interior}
    assert len(solves) == 5


def test_march_system_refuses_lams_not_one_per_system():
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    Mw = assemble_weighted_mass(m).data
    K = _stack(m, identity_coefficients(1), 1.0)[None]
    # one lambda per system, or a later member could neither be given its
    # lambda nor have its failure named
    for lams in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match=re.escape(
                "lams must hold one lambda per system, k = 2, got %d"
                % len(lams))):
            march_system(Mw, np.concatenate([K, K]), None, m, lams=lams)


GRID = [1.0, 10.0, 100.0, 1000.0]


def _edited_grid_marcher(monkeypatch, edit):
    """A d = 1 marcher on a time-dependent field (dt = 1/4) whose stiffness
    grid for GRID has been changed by edit(K, mass entry data)."""
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    marcher = Marcher(m, generate_family(0, "oscillatory", 0.5, 0.2, dim=1))
    K = marcher.stiffness(GRID)
    edit(K, marcher.mass)
    monkeypatch.setattr(marcher, "stiffness", lambda lams: K)
    return marcher


def test_a_failing_grid_member_names_its_level_and_lambda(monkeypatch):
    f = lambda t, xp, xd: xd * np.exp(-xd)

    def singular(K, M):          # M + dt K^3 = 0 at lambda = 100
        K[2, 3] = -4.0 * M
    solves = _record_solves(monkeypatch)
    marcher = _edited_grid_marcher(monkeypatch, singular)
    with pytest.raises(SolverError, match=re.escape(
            "lambda 100.0: time level 3: LU factorization failed: the "
            "matrix is exactly singular")):
        marcher.march(GRID, LoadAssembler(marcher.mesh).parts(None, f))
    assert len(solves) == 2
    # a direct call names its systems by their place in the batch
    with pytest.raises(SolverError, match="^system 2: time level 3: LU"):
        march_system(marcher.mass, marcher.stiffness(GRID), None,
                     marcher.mesh)
    monkeypatch.undo()

    # the third step returns the solution of lambda = 10 doubled
    marcher = _edited_grid_marcher(monkeypatch, lambda K, M: None)
    n = marcher.mesh.n_interior
    sizes = []

    def doubling_solve(lu, b, trans=0):
        x = _SOLVE(lu, b, trans)
        sizes.append(x.size)
        if len(sizes) == 3:
            x[n:2 * n] *= 2.0
        return x

    monkeypatch.setattr(degenlab.solver._BandLU, "solve", doubling_solve)
    with pytest.raises(SolverError, match=re.escape(
            "lambda 10.0: time level 3: linear solve backward error")):
        marcher.march(GRID, LoadAssembler(marcher.mesh).parts(None, f))
    assert sizes == [4 * n] * 4        # one solve per step for the grid


def _count_sparse_matrices(monkeypatch):
    """Record the class of every scipy.sparse matrix or array built."""
    built = []
    init = scipy.sparse._base._spbase.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse._base._spbase, "__init__", counting)
    return built


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kind", ["xd_only", "oscillatory"])
def test_marches_build_no_sparse_matrix(monkeypatch, k, kind):
    # every product of a march, a step or a check runs on the mesh's
    # pattern and the entry data, never through a scipy.sparse matrix;
    # the stiffness stack is not written, theta < 1 included
    built = _count_sparse_matrices(monkeypatch)
    sp.csr_matrix((np.ones(2), [0, 1], [0, 1, 2])).T
    assert built == ["csr_matrix", "csc_matrix"]
    coeffs = generate_family(2, kind, 0.5, 0.2, dim=1)
    for N in (4, 8):
        m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=N)
        times = m.time_levels if kind == "oscillatory" else (0.0,)
        K = np.stack([_stack(m, coeffs, lam, times)
                      for lam in (0.5, 2.0, 8.0)[:k]])
        kept = K.copy()
        mass = assemble_weighted_mass(m, coeffs.a0).data
        loads = np.ones((k, N + 1, m.n_interior))
        del built[:]
        for theta in (0.5, 1.0):
            march_system(mass, K, loads, m,
                         config=TimeStepperConfig(theta=theta))
        adjoint_march_system(mass, K[0], loads[0], m)
        assert built == []
        assert K.tobytes() == kept.tobytes()


def _block_diagonal(data, indices, indptr):
    """The scipy CSR matrix diag(A_1, ..., A_k) whose block i has the entry
    data data[i] on the square CSR pattern (indices, indptr)."""
    n = len(indptr) - 1
    k, nnz = data.shape
    shift = np.arange(k)[:, None]
    return sp.csr_matrix(
        (data.reshape(-1), (indices + n * shift).ravel(),
         np.append((indptr[:-1] + nnz * shift).ravel(), k * nnz)),
        shape=(k * n, k * n))


def _reference_backward_errors(data, X, B, indices, indptr, trans):
    """The backward errors of the solves of one block formed by scipy
    products: with diag(A_1, ..., A_K), or with A_1 for every x_k when data
    has one row, transposed for trans=1."""
    A = _block_diagonal(data, indices, indptr)
    if trans:
        A = A.T
    if len(data) == 1:
        Ax = (A @ X.T).T
    else:
        Ax = (A @ X.reshape(-1)).reshape(X.shape)
    norm_A = (abs(A) @ np.ones(A.shape[1])).reshape(len(data), -1).max(
        axis=1)
    denom = np.linalg.norm(B, axis=1) + norm_A * np.linalg.norm(X, axis=1)
    return np.linalg.norm(B - Ax, axis=1) / np.where(denom == 0, 1, denom)


@pytest.mark.parametrize("dim, P", [(1, 1), (2, 1), (2, 2), (2, 3), (2, 5),
                                    (2, 32)])
def test_the_interior_pattern_is_its_own_transpose(dim, P):
    # the entries of each column, rows ascending, list the pattern again,
    # so A^T is A[perm] on the same pattern, bitwise scipy's transpose
    m = build_mesh(dim, 3.0, 6, 2.0, xprime_count=P,
                   xprime_length=2 * np.pi)
    indices, indptr, shape = interior_pattern(m)
    layout = degenlab.solver._band_layout(m)
    n = shape[0]
    rows = np.repeat(np.arange(n), np.diff(indptr))
    assert np.array_equal(rows[layout.perm], indices)
    assert np.array_equal(np.bincount(indices, minlength=n), np.diff(indptr))
    data = np.random.default_rng(P).standard_normal(indices.size)
    AT = sp.csr_matrix((data, indices, indptr), shape=shape).T.tocsr()
    assert np.array_equal(AT.indices, indices)
    assert np.array_equal(AT.indptr, indptr)
    assert AT.data.tobytes() == data[layout.perm].tobytes()


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("trans", [0, 1])
def test_kernel_products_and_checks_are_bitwise_scipy(dim, k, trans):
    # the block products of a march and the backward errors of a check
    # are bitwise those that scipy products of the block-diagonal matrix
    # give, on read-only inputs, for one level and for N+1 = 6
    m = build_mesh(dim, 3.0, 8, 2.0, xprime_count=5,
                   xprime_length=2 * np.pi)
    indices, indptr, shape = interior_pattern(m)
    layout = degenlab.solver._band_layout(m)
    lu = degenlab.solver._BandLU(layout)
    n = shape[0]
    rng = np.random.default_rng(10 * dim + 2 * k + trans)
    scale = 10.0 ** rng.integers(-6, 7, indices.size)
    data, = _read_only(rng.standard_normal((k, indices.size)) * scale)
    x, = _read_only(rng.standard_normal(k * n))
    A = _block_diagonal(data, indices, indptr)
    want = (A.T if trans else A) @ x
    pattern = layout.copies(k)        # A^T is A[..., perm] on the pattern
    entries = data[:, layout.perm] if trans else data
    got = degenlab.solver._product(pattern, entries.ravel(), x,
                                   np.empty(k * n))
    assert got.tobytes() == want.tobytes()
    assert all(not table.flags.writeable and table.dtype == indices.dtype
               for table in pattern)
    assert layout.copies(k) is pattern      # built once
    for levels_n in (1, 6):
        stack, X, B = _read_only(
            rng.standard_normal((levels_n, indices.size)) * scale,
            rng.standard_normal((6, n)), rng.standard_normal((6, n)))
        # a solve whose b is A_1 x to rounding: an error near epsilon
        A1 = _block_diagonal(stack[:1], indices, indptr)
        B = B.copy()
        B[0] = (A1.T if trans else A1) @ X[0]
        B.setflags(write=False)
        want = _reference_backward_errors(stack, X, B, indices, indptr,
                                          trans)
        got = lu.backward_errors(stack, X, B, trans)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("levels_n", [1, 4])
@pytest.mark.parametrize("trans", [0, 1])
def test_a_perturbed_level_fails_its_check_by_name(levels_n, trans):
    # the solves of a march pass their check; one level moved by a relative
    # 1e-6 fails it, and the failure names that level and no other
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi)
    indices, _, shape = interior_pattern(m)
    lu = degenlab.solver._BandLU(degenlab.solver._band_layout(m))
    rng = np.random.default_rng(levels_n + trans)
    data = rng.uniform(-1.0, 1.0, (levels_n, indices.size))
    diagonal = indices == np.repeat(np.arange(shape[0]),
                                    np.diff(interior_pattern(m)[1]))
    data[:, diagonal] += 20.0
    B = rng.standard_normal((4, shape[0]))
    X = np.empty_like(B)
    for i in range(4):
        lu.factor(data[i % levels_n])
        X[i] = lu.solve(B[i], trans=trans)
    levels = [9, 8, 7, 6]
    lu.check(data, X, B, levels=levels, trans=trans)
    for bad in range(4):
        Y = X.copy()
        Y[bad] *= 1 + 1e-6
        with pytest.raises(SolverError, match=re.escape(
                "lam: time level %d: linear solve backward error"
                % levels[bad])):
            lu.check(data, Y, B, levels=levels, trans=trans, name="lam: ")


def test_stacked_march_drops_exact_cancellations_like_a_sparse_sum():
    # an entry of one level cancels exactly; the band storage holds it as
    # the zero that a sparse sum would drop, and the march is bitwise the
    # step-by-step banded solve of the scipy-summed systems
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    Mw = assemble_weighted_mass(m)
    indices, indptr, shape = interior_pattern(m)
    K = np.tile(model_stiffness(m).data, (5, 1))
    k = indptr[2]                # first entry of row 2, off the diagonal
    assert indices[k] == 1
    K[3, k] = -4.0 * Mw.data[k]  # M + dt K = M - M = 0 exactly (dt = 1/4)
    loads = np.ones((5, m.n_interior))
    sol, = march_system(Mw.data, K[None], loads[None], m)
    u = np.zeros_like(loads)
    for n in range(4):
        Kn = sp.csr_matrix((K[n + 1], indices, indptr), shape=shape)
        A = Mw + 0.25 * Kn
        assert A.nnz == indices.size - (n + 1 == 3)
        u[n + 1] = _band_solve(A, Mw @ u[n] + 0.25 * loads[n + 1], 1)
    assert sol.interior_levels().tobytes() == u.tobytes()


def test_a_singular_level_raises_at_once_and_names_it(monkeypatch):
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    mass = assemble_weighted_mass(m).data
    K = np.tile(model_stiffness(m).data, (5, 1))
    K[3] = -4.0 * mass                  # M + dt K^3 = 0 (dt = 1/4)
    loads = np.ones((5, m.n_interior))
    marches = [(lambda: march_system(mass, K[None], loads[None], m), 2),
               # the adjoint steps back from level 4: one solve, then 3
               (lambda: adjoint_march_system(mass, K, loads, m), 1)]
    for run, solved in marches:
        solves = _record_solves(monkeypatch)
        with pytest.raises(SolverError, match="time level 3: LU "
                           "factorization failed: the matrix is exactly "
                           "singular"):
            run()
        assert len(solves) == solved


def test_band_reaches_the_periodic_wrap_in_d2():
    # x' is periodic: the interior pattern couples node 0 of a row of
    # x_d nodes with node P-1 of the next one, 2 P - 1 entries off the
    # diagonal, and the banded march must solve those entries exactly
    P = 5
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=P, xprime_length=2 * np.pi,
                   time_step=0.25, time_count=2)
    indices, indptr, shape = interior_pattern(m)
    rows = np.repeat(np.arange(shape[0]), np.diff(indptr))
    assert np.abs(rows - indices).max() == 2 * P - 1
    rng = np.random.default_rng(3)
    K = sp.csr_matrix((rng.uniform(-1.0, 1.0, indices.size), indices,
                       indptr), shape=shape)
    K.setdiag(10.0 + rng.uniform(0.0, 1.0, shape[0]))
    far = rows - indices == 2 * P - 1
    assert np.all(K.data[far] != 0)
    mass = assemble_weighted_mass(m)
    loads = rng.standard_normal((3, m.n_interior))
    sol, = march_system(mass.data, K.data[None, None], loads[None], m)
    A = (mass + 0.25 * K).toarray()
    u1 = np.linalg.solve(A, 0.25 * loads[1])
    u2 = np.linalg.solve(A, mass @ u1 + 0.25 * loads[2])
    for got, want in zip(sol.interior_levels()[1:3], (u1, u2)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    x = linear_solve(K, loads[0])
    want = np.linalg.solve(K.toarray(), loads[0])
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dim, P, width", [(1, 1, 1), (2, 5, 7),
                                           (2, 32, 34)])
def test_declared_order_narrows_the_band(dim, P, width):
    # natural in d = 1; in d = 2 the interleaved x' order puts the periodic
    # wrap next to the diagonal, so the band reaches P + 2, not 2 P - 1
    m = build_mesh(dim, 3.0, 6, 2.0, xprime_count=P,
                   xprime_length=2 * np.pi, time_step=0.25, time_count=2)
    layout = degenlab.solver._band_layout(m)
    assert layout is degenlab.solver._band_layout(m)      # once per mesh
    assert (layout.kl, layout.ku) == (width, width)
    if dim == 1:
        assert layout.order is None
    else:
        assert np.array_equal(layout.order, _declared_order(m))
        natural = degenlab.solver._BandLayout(*interior_pattern(m)[:2],
                                              m.n_interior)
        assert natural.kl == natural.ku == 2 * P - 1


@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("n_levels", [1, 3])
def test_check_is_the_dense_backward_error(monkeypatch, trans, n_levels):
    # a nonsymmetric pattern in the interleaved d = 2 order, one matrix for
    # every solve or one per solve: the largest backward error, formed
    # densely, passes a bound of itself and fails just below, naming its
    # level
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi)
    indices, indptr, shape = interior_pattern(m)
    lu = degenlab.solver._BandLU(degenlab.solver._band_layout(m))
    rng = np.random.default_rng(2 * n_levels + trans)
    data = rng.standard_normal((n_levels, indices.size))
    X, B = rng.standard_normal((2, 3, shape[0]))
    errors = []
    for i in range(3):
        A = sp.csr_matrix((data[i % n_levels], indices, indptr),
                          shape).toarray()
        A = A.T if trans else A
        errors.append(np.linalg.norm(B[i] - A @ X[i]) / (
            np.linalg.norm(B[i])
            + np.abs(A).sum(axis=1).max() * np.linalg.norm(X[i])))
    worst = max(errors)
    bound = "_BACKWARD_ERROR_BOUND"
    monkeypatch.setattr(degenlab.solver, bound, worst * (1 + 1e-12))
    lu.check(data, X, B, trans=trans)
    monkeypatch.setattr(degenlab.solver, bound, worst * (1 - 1e-12))
    with pytest.raises(SolverError, match=re.escape(
            "lam: time level %d: linear solve backward error"
            % (7 + errors.index(worst)))):
        lu.check(data, X, B, levels=[7, 8, 9], trans=trans, name="lam: ")


def _diagonally_dominant(m, levels_n, rng):
    """(data, diagonal): levels_n rows of entries on the interior pattern
    of m, uniform in [-1, 1] off the diagonal and 20 more on it, and the
    mask of the diagonal entries."""
    indices, indptr, shape = interior_pattern(m)
    data = rng.uniform(-1.0, 1.0, (levels_n, indices.size))
    diagonal = indices == np.repeat(np.arange(shape[0]), np.diff(indptr))
    data[:, diagonal] += 20.0
    return data, diagonal


def test_factor_once_reuses_only_bitwise_equal_entries(monkeypatch):
    # a copy of the factored entries reuses the factors; the same entries
    # with one zero of the other sign are equal as numbers but not bitwise,
    # and are factored anew
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi)
    lu = degenlab.solver._BandLU(degenlab.solver._band_layout(m))
    data, diagonal = _diagonally_dominant(m, 1, np.random.default_rng(5))
    zero = np.flatnonzero(~diagonal)[0]
    data[0, zero] = 0.0
    flipped = data.copy()
    flipped[0, zero] = -0.0
    assert np.array_equal(flipped, data)
    calls = _count_factorizations(monkeypatch)
    lu.factor_once(data)
    lu.factor_once(data.copy())
    assert len(calls) == 1
    lu.factor_once(flipped)
    assert len(calls) == 2
    lu.factor_once(flipped.copy())
    assert len(calls) == 2
    lu.factor_once(data)
    assert len(calls) == 3


def _check_case(m, levels_n, solves, rng):
    """Read-only (data, X, B) of a check: levels_n rows of entries, and
    solves rows of X and B, each a row of a wider array as the members of
    a batch march are."""
    n = m.n_interior
    data = rng.standard_normal((levels_n, interior_pattern(m)[0].size))
    X, B = rng.standard_normal((2, solves, 3, n))[:, :, 1]
    return _read_only(data, X, B)


@pytest.mark.parametrize("levels_n", [1, 6])
def test_a_check_after_a_larger_or_transposed_one_is_a_fresh_check(levels_n):
    # the kept work array holds nothing from the check before: after a
    # check of more levels and solves, or of the transposes, the errors are
    # bitwise those of a new band LU
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi)
    layout = degenlab.solver._band_layout(m)
    rng = np.random.default_rng(levels_n)
    case = _check_case(m, levels_n, 6, rng)
    larger = _check_case(m, 9, 9, rng)
    for trans in (0, 1):
        want = degenlab.solver._BandLU(layout).backward_errors(*case, trans)
        lu = degenlab.solver._BandLU(layout)
        lu.backward_errors(*larger, trans=trans)
        assert lu.backward_errors(*case, trans).tobytes() == want.tobytes()
        lu.backward_errors(*case, trans=1 - trans)
        assert lu.backward_errors(*case, trans).tobytes() == want.tobytes()


def test_backward_errors_are_not_a_view_of_the_work_array():
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi)
    lu = degenlab.solver._BandLU(degenlab.solver._band_layout(m))
    rng = np.random.default_rng(3)
    errors = lu.backward_errors(*_check_case(m, 1, 6, rng))
    kept = errors.copy()
    lu.backward_errors(*_check_case(m, 1, 6, rng))
    assert errors.tobytes() == kept.tobytes()
    assert not np.shares_memory(errors, lu._work)


@pytest.mark.parametrize("trans", [0, 1])
def test_a_second_check_allocates_no_block_of_its_solves(trans):
    # the first check grows the work array; a second of the same size
    # traces less than K n doubles at its peak, so none of its temporaries
    # is a fresh (K, n) array, also for the rows of one member of a batch
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi)
    lu = degenlab.solver._BandLU(degenlab.solver._band_layout(m))
    data, _ = _diagonally_dominant(m, 1, np.random.default_rng(trans))
    K, n = 40, m.n_interior
    B, X = np.random.default_rng(7).standard_normal((2, K, 2, n))[:, :, 1]
    lu.factor(data[0])
    for b, x in zip(B, X):
        x[:] = lu.solve(b, trans)
    lu.check(data, X, B, trans=trans)
    tracemalloc.start()
    try:
        lu.check(data, X, B, trans=trans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < K * n * X.itemsize


def test_marcher_reuses_factors_only_for_the_system_it_factored(monkeypatch):
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi,
                   time_step=0.25, time_count=4)
    coeffs = generate_family(1, "xd_only", 0.5, 0.2, dim=2,
                             xp_length=2 * np.pi)
    f = smooth_random_closure(5, 2, xp_length=2 * np.pi)
    c_rows = LoadAssembler(m).assemble(None, f, 1.0, m.time_levels)
    fresh = {lam: adjoint_march(m, coeffs, lam, c_rows) for lam in (1.0, 3.0)}
    marcher = Marcher(m, coeffs)
    calls = _count_factorizations(monkeypatch)
    parts = LoadAssembler(m).parts(None, f)
    u, = marcher.march([1.0], parts)
    assert len(calls) == 1
    # the adjoint at the same lambda solves with the forward factors, and
    # gives bitwise what factoring anew gives
    assert marcher.adjoint(1.0, c_rows).tobytes() == fresh[1.0].tobytes()
    assert len(calls) == 1
    assert marcher.march([1.0], parts)[0].levels.tobytes() == \
        u.levels.tobytes()
    assert len(calls) == 1
    # another lambda is another system: factored anew, and then lambda = 1
    # is factored again
    assert marcher.adjoint(3.0, c_rows).tobytes() == fresh[3.0].tobytes()
    assert len(calls) == 2
    marcher.adjoint(1.0, c_rows)
    assert len(calls) == 3
    # the factors belong to the mesh, so the one-call wrappers share them
    u3 = march(m, coeffs, 3.0, f=f)
    assert adjoint_march(m, coeffs, 3.0, c_rows).tobytes() == \
        fresh[3.0].tobytes()
    assert len(calls) == 4
    # a stacked march factors every step, even where levels repeat bitwise
    late = Marcher(m, _late_switch(2, m.total_time))
    stack = late.stiffness([1.0])[0]
    assert stack[1].tobytes() == stack[2].tobytes()
    late.march([1.0], parts)
    late.march([1.0], parts)
    late.adjoint(1.0, c_rows)
    assert len(calls) == 4 + 3 * 4
    # the stacked marches overwrote the factors of lambda = 3, which is
    # factored again
    assert march(m, coeffs, 3.0, f=f).levels.tobytes() == u3.levels.tobytes()
    assert len(calls) == 4 + 3 * 4 + 1


def test_adjoint_checks_every_solve_and_names_the_level(monkeypatch):
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=5)
    Mw = assemble_weighted_mass(m).data
    K = _stack(m, identity_coefficients(1), 1.0)
    c_rows = np.ones((6, m.n_interior))
    # the adjoint marches n = 5, 4, ..., 1: its first solve is level 5
    with monkeypatch.context() as patch, \
            pytest.raises(SolverError, match="time level 5:"):
        patch.setattr(degenlab.solver, "_BACKWARD_ERROR_BOUND", 1e-30)
        adjoint_march_system(Mw, K, c_rows, m)
    solves = _record_solves(monkeypatch, wrong_from=2)
    with pytest.raises(SolverError, match="time level 4:"):
        adjoint_march_system(Mw, K, c_rows, m)
    assert solves == [1] * 5
    coeffs = generate_family(0, "oscillatory", 0.5, 0.2, dim=1)
    K = _stack(m, coeffs, 1.0, m.time_levels)
    solves = _record_solves(monkeypatch, wrong_from=4)
    with pytest.raises(SolverError, match="time level 2:"):
        adjoint_march_system(Mw, K, c_rows, m)


def _march_digests():
    """sha256 of the levels of a time-dependent d = 1 march and its adjoint,
    and of a d = 2 pair whose band in the declared order (63 + 2 = 65
    diagonals on each side) is wider than the 64 up to which reference
    LAPACK keeps dgbtrf unblocked."""
    import hashlib

    import numpy as np

    from degenlab import (Marcher, LoadAssembler, build_mesh,
                          generate_family, smooth_random_closure)
    out = []
    for dim, P, kind in ((1, 1, "oscillatory"), (2, 63, "xd_only")):
        m = build_mesh(dim, 3.0, 6, 2.0, xprime_count=P,
                       xprime_length=2 * np.pi, time_step=0.1, time_count=4)
        f = smooth_random_closure(5, dim, xp_length=2 * np.pi)
        marcher = Marcher(m, generate_family(2, kind, 0.5, 0.2, dim=dim,
                                             xp_length=2 * np.pi))
        u = marcher.march([3.0], LoadAssembler(m).parts(
            None, f))[0].interior_levels()
        v = marcher.adjoint(3.0, LoadAssembler(m).assemble(
            None, f, 3.0, m.time_levels))
        out += [hashlib.sha256(a.tobytes()).hexdigest() for a in (u, v)]
    return out


def test_marches_rerun_byte_identical_on_one_blas_thread():
    script = inspect.getsource(_march_digests) + \
        "\nprint(' '.join(_march_digests()))\n"
    src = os.path.dirname(os.path.dirname(degenlab.solver.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == _march_digests()


def test_march_system_rejects_a_stack_of_the_wrong_shape():
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    nnz = interior_pattern(m)[0].size
    with pytest.raises(ValueError, match=re.escape(
            "(k, N+1, nnz) = (k, 5, %d), got (1, 3, %d)" % (nnz, nnz))):
        march_system(assemble_weighted_mass(m).data, np.zeros((1, 3, nnz)),
                     np.ones((1, 5, m.n_interior)), m)


def test_the_marches_take_the_mass_as_entry_data_on_the_pattern():
    # the mass is its entry data (nnz,) on interior_pattern(mesh), declared
    # like the stiffness stack: data of another length, or a matrix, is
    # refused by shape, naming both shapes
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    mass = assemble_weighted_mass(m)
    nnz = mass.nnz
    K = _stack(m, identity_coefficients(1), 1.0)
    loads = np.ones((5, m.n_interior))
    for wrong, got in ((mass.data[:-1], (nnz - 1,)),
                       (np.append(mass.data, 0.0), (nnz + 1,)),
                       (mass, mass.shape)):
        refusal = re.escape("the mass must be entry data of shape (nnz,) = "
                            "(%d,) on the interior pattern of the mesh, got "
                            "%s" % (nnz, got))
        with pytest.raises(ValueError, match=refusal):
            march_system(wrong, K[None], loads[None], m)
        with pytest.raises(ValueError, match=refusal):
            adjoint_march_system(wrong, K, loads, m)
    sol, = march_system(mass.data, K[None], loads[None], m)
    v = adjoint_march_system(mass.data, K, loads, m)
    assert np.all(sol.interior_levels()[1:] > 0) and np.all(v[1:] > 0)


def _steady_state(m, coeffs, lam, F=None, f=None):
    """Nodal values of the stationary solution K u = b at t = 0, by one
    sparse direct solve."""
    K = assemble_stiffness(m, coeffs, lam, t=0.0).matrix
    b = LoadAssembler(m).assemble(F, f, lam, t=0.0)
    vals = np.zeros((m.M + 1, m.xprime_count))
    vals[1:m.M] = linear_solve(K, b).reshape(m.M - 1, m.xprime_count)
    return vals


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
                      F=(lambda t, xp, xd: 0.5 - xd,))
    expect = m.xd_nodes * (1 - m.xd_nodes) / 2
    assert np.max(np.abs(u[:, 0] - expect)) < 1e-13


def test_adjoint_pairing_identity_dense():
    # duality bookkeeping on a small nonsymmetric system:
    # dt sum c.u == dt sum b.v to roundoff
    m = build_mesh(1, 2.0, 6, 1.5, time_step=0.2, time_count=5)
    n = m.n_interior
    N = 5
    Mw = assemble_weighted_mass(m).data
    rng = np.random.default_rng(11)
    indices, indptr, shape = interior_pattern(m)
    Kd = np.diag(5.0 + rng.uniform(0, 1, n)) + 0.5 * rng.standard_normal(
        (n, n))
    K = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=shape)
    K.data = Kd[K.nonzero()]        # Kd restricted to the interior pattern
    assert np.abs(K - K.T).max() > 0.1
    b_rows = rng.standard_normal((N + 1, n))
    c_rows = rng.standard_normal((N + 1, n))
    sol, = march_system(Mw, K.data[None, None], b_rows[None], m)
    v = adjoint_march_system(Mw, K.data[None], c_rows, m)
    dt = 0.2
    lhs = dt * sum(c_rows[k] @ sol.interior_levels()[k]
                   for k in range(1, N + 1))
    rhs = dt * sum(b_rows[k] @ v[k] for k in range(1, N + 1))
    print("pairing lhs", lhs, "rhs", rhs)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
    assert np.all(v[0] == 0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 3.0])
@pytest.mark.parametrize("kind", ["constant", "xd_only"])
def test_adjoint_factors_the_transpose_of_the_forward_system(monkeypatch,
                                                             kind, dim, lam):
    # the adjoint factors the forward system once and solves every step
    # with those factors transposed (trans=1): its levels are the dense
    # solves with the matrix assembled from the transposed coefficients.
    # In d = 2 the xd_only family makes K nonsymmetric (a constant
    # antisymmetric part of a cancels in the assembled form)
    if dim == 1:
        m = build_mesh(1, 3.0, 10, 2.0, time_step=0.25, time_count=4)
    else:
        m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5,
                       xprime_length=2 * np.pi, time_step=0.25, time_count=4)
    coeffs = generate_family(1, kind, 0.5, 0.2, dim=dim,
                             xp_length=2 * np.pi)
    Kt = assemble_stiffness(m, coeffs.transposed(), lam).matrix
    assert (abs(Kt - Kt.T).max() > 1e-3) == (dim == 2 and kind == "xd_only")
    calls = _count_factorizations(monkeypatch)
    solves = _record_solves(monkeypatch)
    c_rows = np.ones((5, m.n_interior))
    v = adjoint_march(m, coeffs, lam, c_rows)
    assert len(calls) == 1
    assert solves == [1] * 4
    M = assemble_weighted_mass(m, coeffs.a0)
    At = (M + m.time_step * Kt).toarray()
    expect = np.zeros_like(v)
    for n in range(4, 0, -1):
        nxt = expect[n + 1] if n < 4 else 0.0 * expect[0]
        expect[n] = np.linalg.solve(At, M @ nxt + m.time_step * c_rows[n])
    assert np.abs(v - expect).max() <= 1e-12 * np.abs(expect).max()


def test_adjoint_of_a_time_dependent_march_pairs_exactly(monkeypatch):
    # with a stack of N+1 levels the backward march transposes the system
    # of each step, so the discrete pairing holds to roundoff
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi,
                   time_step=0.25, time_count=4)
    coeffs = generate_family(3, "oscillatory", 0.5, 0.2, dim=2,
                             xp_length=2 * np.pi)
    marcher = Marcher(m, coeffs)
    indices, indptr, shape = interior_pattern(m)
    K = sp.csr_matrix((marcher.stiffness([1.0])[0, 2], indices, indptr),
                      shape=shape)
    assert abs(K - K.T).max() > 1e-3
    f = smooth_random_closure(2, 2, xp_length=2 * np.pi)
    u, = marcher.march([1.0], LoadAssembler(m).parts(None, f))
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
    Mw = assemble_weighted_mass(m).data
    K = _stack(m, identity_coefficients(1), 1.0)
    loads = np.zeros((3, m.n_interior))
    marcher = Marcher(m, identity_coefficients(1), TimeStepperConfig(0.5))
    with pytest.raises(ValueError, match="defined for theta = 1"):
        marcher.adjoint(1.0, loads)
    with pytest.raises(ValueError):
        adjoint_march_system(Mw, K, loads[:2], m)


def test_every_solve_is_checked_against_one_fixed_bound(monkeypatch):
    # LU with partial pivoting is backward stable, so the bound is the
    # solver's: no entry point takes a tolerance, and the forward march,
    # the adjoint and linear_solve all quote the one bound when a solve
    # misses it
    assert degenlab.solver._BACKWARD_ERROR_BOUND == 1e-11
    for fn in (linear_solve, adjoint_march, adjoint_march_system,
               degenlab.solver._BandLU.check, convergence_study):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"tol", "linear_tol", "config"}
    m = build_mesh(1, 4.0, 10, 2.0, time_step=0.1, time_count=5)
    Mw = assemble_weighted_mass(m).data
    K = _stack(m, identity_coefficients(1), 1.0)
    _record_solves(monkeypatch, wrong_from=1)
    exceeds = re.escape("exceeds 1.000e-11")
    with pytest.raises(SolverError, match=exceeds):
        march_system(Mw, K[None], np.ones((1, 6, m.n_interior)), m)
    with pytest.raises(SolverError, match=exceeds):
        adjoint_march_system(Mw, K, np.ones((6, m.n_interior)), m)
    with pytest.raises(SolverError, match=exceeds):
        linear_solve(sp.eye(3).tocsr(), np.ones(3))


def test_time_grid_mismatch_rejected():
    m = build_mesh(1, 2.0, 4, 1.0, time_step=0.1, time_count=10)
    Mw = assemble_weighted_mass(m).data
    coeffs = generate_family(0, "oscillatory", 0.5, 0.2, dim=1)
    # a stack on another time grid of the same window
    other = build_mesh(1, 2.0, 4, 1.0, time_step=0.25, time_count=4)
    K = _stack(m, coeffs, 1.0, other.time_levels)
    nnz = K.shape[1]
    with pytest.raises(ValueError, match=re.escape(
            "stiffness stack must have shape (k, 1, nnz) or (k, N+1, nnz) "
            "= (k, 11, %d), got (1, 5, %d)" % (nnz, nnz))):
        march_system(Mw, K[None], None, m)
    # the adjoint takes one system and names only the shape it was given
    with pytest.raises(ValueError, match=re.escape(
            "stiffness stack must have shape (1, nnz) or (N+1, nnz) "
            "= (11, %d), got (5, %d)" % (nnz, nnz))):
        adjoint_march_system(Mw, K, np.zeros((11, m.n_interior)), m)
    K = _stack(m, coeffs, 1.0, m.time_levels)
    with pytest.raises(ValueError, match="loads must have shape"):
        march_system(Mw, K[None], np.zeros((1, 10, m.n_interior)), m)


def test_solution_container_invariants():
    m = build_mesh(1, 2.0, 4, 1.0, time_step=0.5, time_count=2)
    levels = np.zeros((3, 5, 1))
    sol = SpaceTimeSolution(m, levels)
    assert sol.time_count == 2
    assert sol.dt == 0.5
    assert np.array_equal(sol.times, [0.0, 0.5, 1.0])
    assert sol.max_abs() == 0.0
    bad = levels.copy()
    bad[1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        SpaceTimeSolution(m, bad)
    with pytest.raises(ValueError, match=r"= \(3, 5, 1\), got \(2, 5, 1\)"):
        SpaceTimeSolution(m, levels[:2])
    levels2 = levels.copy()
    levels2[2, 2, 0] = 3.0
    sol2 = SpaceTimeSolution(m, levels2)
    d = sol2.time_differences()
    assert d.shape == (2, 5, 1)
    assert abs(d[1, 2, 0] - 6.0) < 1e-14
    assert d[0, 2, 0] == 0.0


def test_solution_levels_are_a_read_only_copy():
    m = build_mesh(1, 2.0, 4, 1.0, time_step=0.5, time_count=2)
    levels = np.zeros((3, 5, 1))
    levels[1, 2, 0] = 1.0
    sol = SpaceTimeSolution(m, levels)
    with pytest.raises(ValueError, match="read-only"):
        sol.levels[1, 2, 0] = 2.0
    with pytest.raises(AttributeError):
        sol.levels = levels
    # the caller's array stays its own: writing it moves no solution value
    levels[1, 2, 0] = 5.0
    assert sol.levels[1, 2, 0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_levels_are_refused_when_made(bad):
    m = build_mesh(1, 2.0, 4, 1.0, time_step=0.5, time_count=2)
    for where in ((1, 2, 0), (2, 0, 0)):     # inside, and on the trace
        levels = np.zeros((3, 5, 1))
        levels[where] = bad
        with pytest.raises(ValueError,
                           match="^non-finite values in solution$"):
            SpaceTimeSolution(m, levels)


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
