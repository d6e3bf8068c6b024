import gc
import io
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.io import mmread, mmwrite
from scipy.linalg import eigh

from degenlab import assembly
from degenlab import (AssemblyError, LoadAssembler, NormSpec,
                      assemble_stiffness, assemble_weighted_mass, build_mesh,
                      data_grams, generate_family, identity_coefficients,
                      interior_pattern, levels_norm, model_stiffness,
                      sample_on_mesh, stiffness_levels,
                      weighted_pair_integrals)
from degenlab.mesh import _INTERNED, _interned

LOG2 = np.log(2.0)


def test_weighted_pair_integrals_unit_cell_oracle():
    # cell [1,2]: phi_L = 2-x, phi_R = x-1, weight 1/x; antiderivatives:
    # ILL = 4 ln 2 - 5/2, ILR = 3/2 - 2 ln 2, IRR = ln 2 - 1/2
    out = weighted_pair_integrals(1.0, 2.0)[0]
    assert abs(out[0, 0] - (4 * LOG2 - 2.5)) < 1e-14
    assert abs(out[0, 1] - (1.5 - 2 * LOG2)) < 1e-14
    assert abs(out[1, 0] - out[0, 1]) == 0.0
    assert abs(out[1, 1] - (LOG2 - 0.5)) < 1e-14


def test_weighted_pair_integrals_match_dense_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(20):
        xl = rng.uniform(0.01, 3.0)
        h = rng.uniform(1e-4, 2.0)
        xr = xl + h
        out = weighted_pair_integrals(xl, xr)[0]
        phiL = lambda x: (xr - x) / h
        phiR = lambda x: (x - xl) / h
        oLL = quad(lambda x: phiL(x) ** 2 / x, xl, xr, epsabs=1e-14)[0]
        oLR = quad(lambda x: phiL(x) * phiR(x) / x, xl, xr,
                   epsabs=1e-14)[0]
        oRR = quad(lambda x: phiR(x) ** 2 / x, xl, xr, epsabs=1e-14)[0]
        assert abs(out[0, 0] - oLL) < 1e-12 * max(1, oLL)
        assert abs(out[0, 1] - oLR) < 1e-12 * max(1, oLR)
        assert abs(out[1, 1] - oRR) < 1e-12 * max(1, oRR)


def test_weighted_pair_integrals_first_cell_exact():
    for h in (0.1, 1.0, 2.5):
        out = weighted_pair_integrals(0.0, h)[0]
        assert np.isnan(out[0, 0])          # canary: never read
        assert out[0, 1] == 0.5
        assert out[1, 0] == 0.5
        assert out[1, 1] == 0.5


def test_weighted_pair_integrals_scale_free():
    a = weighted_pair_integrals(1.0, 1.7)[0]
    b = weighted_pair_integrals(10.0, 17.0)[0]
    assert np.allclose(a, b, rtol=1e-14, atol=0)


def test_series_switch_accurate_on_both_sides():
    # each branch tracks a 60-digit oracle right at the 0.1 ratio switch
    # and deep into the series regime, where the closed form cancels badly
    from decimal import Decimal, getcontext
    getcontext().prec = 60

    def oracle(xl, xr):
        dl, dr = Decimal(xl), Decimal(xr)
        h = dr - dl
        L = (dr / dl).ln()
        ill = (dr * dr * L - 2 * dr * h + (dr * dr - dl * dl) / 2) / (h * h)
        ilr = (-dl * dr * L + h * (dl + dr) / 2) / (h * h)
        return float(ill), float(ilr)

    for xr, tol in ((1.0999999, 1e-13), (1.1000001, 1e-12),
                    (1.00002, 1e-13)):
        out = weighted_pair_integrals(1.0, xr)[0]
        oLL, oLR = oracle(1.0, xr)
        assert abs(out[0, 0] - oLL) < tol * oLL
        assert abs(out[0, 1] - oLR) < tol * abs(oLR)


def test_weighted_pair_integrals_validation():
    with pytest.raises(ValueError):
        weighted_pair_integrals(1.0, 1.0)
    with pytest.raises(ValueError):
        weighted_pair_integrals(-0.5, 1.0)


def test_weighted_mass_frozen_value():
    # uniform 2-cell mesh: single interior node, entry 1/2 + (4 ln 2 - 5/2)
    m = build_mesh(1, 2.0, 2, 1.0)
    M = assemble_weighted_mass(m)
    assert M.shape == (1, 1)
    val = M[0, 0]
    print("M11 =", val)
    assert abs(val - (4 * LOG2 - 2.0)) < 1e-14
    assert abs(val - 0.7725887222397812) < 1e-14


def test_weighted_mass_weight_scaling():
    m = build_mesh(1, 2.0, 8, 2.0)
    base = assemble_weighted_mass(m)

    def two(xd):
        return 2.0 + 0.0 * np.asarray(xd, float)

    doubled = assemble_weighted_mass(m, two)
    assert np.allclose(doubled.toarray(), 2 * base.toarray(), rtol=1e-14)


def test_stiffness_frozen_value():
    # L_d = 1, M = 2, a = I, c0 = 1, lambda = 1:
    # K11 = 2/h + M11 = 4 + 4 ln 2 - 2
    m = build_mesh(1, 1.0, 2, 1.0)
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    val = K.matrix[0, 0]
    print("K11 =", val)
    assert abs(val - (2.0 + 4 * LOG2)) < 1e-13


def test_model_stiffness_is_dirichlet_form():
    m = build_mesh(1, 1.0, 4, 1.0)
    K0 = model_stiffness(m).toarray()
    h = 0.25
    expect = (np.diag([2 / h] * 3) + np.diag([-1 / h] * 2, 1)
              + np.diag([-1 / h] * 2, -1))
    assert np.allclose(K0, expect, rtol=1e-14)


def test_stiffness_forms_match_dense_quadrature_dim2():
    # quadratic forms v^T K u against dense per-cell quadrature with the
    # same midpoint-frozen coefficients
    m = build_mesh(2, 2.0, 3, 1.5, xprime_count=4, xprime_length=2 * np.pi,
                   time_step=1.0, time_count=1)
    lam = 0.7
    coeffs = generate_family(9, "oscillatory", 0.5, 0.2, dim=2,
                             xp_length=2 * np.pi)
    t0 = 0.3
    K = assemble_stiffness(m, coeffs, lam, t=t0)
    sample = sample_on_mesh(coeffs, m, t=t0)
    a_c = sample.a[0]          # (M, npc, 2, 2)
    c_c = sample.c0[0]         # (M, npc)
    gx, gw = np.polynomial.legendre.leggauss(20)
    gx = 0.5 * (gx + 1)
    gw = 0.5 * gw
    rng = np.random.default_rng(4)
    npc = m.xprime_count
    delta = m.xprime_spacing
    for trial in range(4):
        u = rng.standard_normal(m.n_interior)
        v = rng.standard_normal(m.n_interior)
        U = np.zeros((m.M + 1, npc))
        V = np.zeros((m.M + 1, npc))
        U[1:-1] = u.reshape(m.M - 1, npc)
        V[1:-1] = v.reshape(m.M - 1, npc)
        total = 0.0
        for j in range(m.M):
            xl, h = m.xd_nodes[j], m.xd_widths[j]
            for mm in range(npc):
                mp = (mm + 1) % npc
                cu = (U[j, mm], U[j + 1, mm], U[j, mp], U[j + 1, mp])
                cv = (V[j, mm], V[j + 1, mm], V[j, mp], V[j + 1, mp])
                S, Q = np.meshgrid(gx, gx, indexing="ij")
                W2 = np.outer(gw, gw)
                x = xl + h * S

                def val(c):
                    return (c[0] * (1 - S) * (1 - Q) + c[1] * S * (1 - Q)
                            + c[2] * (1 - S) * Q + c[3] * S * Q)

                def dd(c):
                    return ((c[1] - c[0]) * (1 - Q)
                            + (c[3] - c[2]) * Q) / h

                def dp(c):
                    return ((c[2] - c[0]) * (1 - S)
                            + (c[3] - c[1]) * S) / delta

                A = a_c[j, mm]
                gu = (dp(cu), dd(cu))
                gv = (dp(cv), dd(cv))
                core = sum(A[i, k] * gu[k] * gv[i]
                           for i in range(2) for k in range(2))
                core = core + lam * c_c[j, mm] * val(cu) * val(cv) / x
                total += float((core * W2).sum()) * h * delta
        form = float(v @ (K.matrix @ u))
        print("trial", trial, "form", form, "quad", total)
        assert abs(form - total) < 1e-9 * max(1.0, abs(total))


def test_transpose_consistency_is_bitwise():
    for dim, seed in ((2, 0), (2, 1), (2, 2), (1, 3)):
        m = build_mesh(dim, 3.0, 6, 2.0,
                       xprime_count=5 if dim == 2 else 1,
                       xprime_length=2 * np.pi if dim == 2 else None,
                       time_step=0.5, time_count=2)
        coeffs = generate_family(seed, "oscillatory", 0.5, 0.2, dim=dim,
                                 xp_length=2 * np.pi)
        K = assemble_stiffness(m, coeffs, lam=2.0, t=0.4)
        Kt = assemble_stiffness(m, coeffs.transposed(), lam=2.0, t=0.4)
        diff = (Kt.matrix - K.matrix.T).toarray()
        assert np.max(np.abs(diff)) == 0.0


def _small_mesh(dim):
    if dim == 1:
        return build_mesh(1, 4.0, 12, 2.0, time_step=0.1, time_count=6)
    return build_mesh(2, 3.0, 6, 2.0, xprime_count=5,
                      xprime_length=2 * np.pi, time_step=0.125, time_count=4)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "xd_only", "oscillatory"])
def test_stiffness_levels_rows_are_bitwise_per_level_folds(dim, kind):
    m = _small_mesh(dim)
    coeffs = generate_family(1, kind, 0.5, 0.2, dim=dim, xp_length=2 * np.pi)
    times = m.time_step * np.arange(m.time_count + 1)
    D, C = stiffness_levels(m, coeffs, times)
    indices, indptr, shape = interior_pattern(m)
    assert D.shape == C.shape == (times.size, indices.size)
    plan = assembly._plan(m, "interior", "interior")
    for n, t in enumerate(times):
        sample = sample_on_mesh(coeffs, m, t=t)
        d_n = assembly._diffusion(m, sample.a)
        c_n = plan.fold([assembly._weighted_term(m, sample.c0.reshape(1, -1))])
        assert D[n].tobytes() == d_n[0].tobytes()
        assert C[n].tobytes() == c_n[0].tobytes()
        for lam in (0.0, 3.0):
            K = assemble_stiffness(m, coeffs, lam, t=t).matrix
            Kn = plan.csr(D[n])
            if lam > 0:
                Kn = Kn + lam * plan.csr(C[n])
            assert K.data.tobytes() == Kn.data.tobytes()
            assert np.array_equal(K.indices, Kn.indices)
            assert np.array_equal(K.indptr, Kn.indptr)
        K0 = assemble_stiffness(m, coeffs, 0.0, t=t).matrix
        assert np.array_equal(K0.indices, indices)
        assert np.array_equal(K0.indptr, indptr) and K0.shape == shape
    assert (kind == "oscillatory") == (D[0].tobytes() != D[-1].tobytes())


def _entry_keys(mesh, plan):
    """row * ncols + col of each contribution of an interior x interior
    plan, recomputed from its cell and its x_d and x' pair corners."""
    npc = mesh.xprime_count
    j, m = np.divmod(plan.cell, npc)
    a, b = np.divmod(plan.xd_at - 4 * j, 2)
    aq, bq = np.divmod(plan.xp_at, 2)
    row = (j + b - 1) * npc + (m + bq) % npc
    col = (j + a - 1) * npc + (m + aq) % npc
    return row * plan.shape[1] + col


def _lexsort_fold(plan, keys, terms):
    """Reference fold: one lexsort by (entry key, value) over all
    contributions of all terms, then one reduceat over the entries."""
    vals = np.concatenate([cellvals[:, plan.cell] * np.take(xd, plan.xd_at)
                           * np.take(xp, plan.xp_at)
                           for cellvals, xd, xp in terms], axis=1)
    ordered = np.sort(keys)
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    order = np.lexsort((vals, np.broadcast_to(np.tile(keys, len(terms)),
                                              vals.shape)), axis=1)
    return np.add.reduceat(np.take_along_axis(vals, order, axis=1),
                           len(terms) * starts, axis=1)


@pytest.mark.parametrize("dim, npc", [(1, 1), (2, 5), (2, 6)])
def test_fold_is_the_value_ordered_sum(dim, npc):
    m = _small_mesh(1) if dim == 1 else build_mesh(
        2, 3.0, 6, 2.0, xprime_count=npc, xprime_length=2 * np.pi)
    plan = assembly._plan(m, "interior", "interior")
    keys = _entry_keys(m, plan)
    rows = np.repeat(np.arange(plan.shape[0]), np.diff(plan.indptr))
    assert np.array_equal(np.unique(keys),
                          rows * plan.shape[1] + plan.indices)
    xd = dim - 1
    rng = np.random.default_rng(dim + npc)
    for cellvals in (lambda: rng.uniform(0.5, 2.0, (3, m.n_space_cells)),
                     lambda: np.full((3, m.n_space_cells), 0.75)):
        four = [assembly._term(m, cellvals(), None, None),
                assembly._term(m, cellvals(), xd, xd),
                assembly._weighted_term(m, cellvals()),
                assembly._term(m, cellvals(), 0, xd)]
        for terms in (four[:1], four[2:3], four):
            data = plan.fold(terms)
            ref = _lexsort_fold(plan, keys, terms)
            assert data.shape == (3, plan.indices.size)
            assert data.tobytes() == ref.tobytes()
            assert plan.fold(terms[::-1]).tobytes() == data.tobytes()


def test_d1_operators_are_the_textbook_1d_sums_bitwise():
    # the phantom x' cell has one constant basis function: a cell adds 4
    # contributions, an interior entry sums at most 2, a fold sorts nothing
    m = _small_mesh(1)
    plan = assembly._plan(m, "interior", "interior")
    assert [int(size) for _, _, size in plan.buckets] == [1, 2]
    h, I = m.xd_widths, assembly.xd_weighted_pairs(m)
    for mat, diag, off in (
            (model_stiffness(m), 1 / h[:-1] + 1 / h[1:], -1 / h[1:-1]),
            (assemble_weighted_mass(m), I[:-1, 1, 1] + I[1:, 0, 0],
             I[1:-1, 0, 1])):
        assert mat.nnz == 3 * m.n_interior - 2
        assert mat.diagonal().tobytes() == diag.tobytes()
        assert mat.diagonal(1).tobytes() == off.tobytes()
        assert mat.diagonal(-1).tobytes() == off.tobytes()


def test_mesh_only_operators_are_shared_read_only():
    m = _small_mesh(2)
    for build in (model_stiffness, assemble_weighted_mass,
                  lambda mesh: data_grams(mesh)[0],
                  lambda mesh: data_grams(mesh)[1],
                  lambda mesh: LoadAssembler(mesh).W,
                  lambda mesh: LoadAssembler(mesh).G[0],
                  lambda mesh: LoadAssembler(mesh).G[1]):
        first, again = build(m), build(m)
        assert np.shares_memory(first.data, again.data)
        assert not first.data.flags.writeable
        # each call is a new matrix: rebinding its data leaves the kept data
        first.data = np.zeros_like(first.data)
        assert np.shares_memory(build(m).data, again.data)
        assert not np.shares_memory(build(m).data, first.data)
    a0 = identity_coefficients(2).a0
    assert assemble_weighted_mass(m, a0).data.flags.writeable


def test_weighted_mass_is_exactly_symmetric():
    m = build_mesh(2, 4.0, 8, 2.0, xprime_count=6, xprime_length=2 * np.pi)
    M = assemble_weighted_mass(m)
    assert (M - M.T).nnz == 0


def test_load_frozen_value_linear_f():
    # f = x_d interpolates exactly; weighted row integral gives
    # b_1 = integral of the hat = h = 1/2 on the uniform 2-cell mesh
    m = build_mesh(1, 1.0, 2, 1.0)
    b = LoadAssembler(m).assemble(None, lambda t, xp, xd: xd, lam=1.0)
    assert b.shape == (1,)
    assert abs(b[0] - 0.5) < 1e-15


def test_load_constant_divergence_field_telescopes_to_zero():
    for dim in (1, 2):
        m = build_mesh(dim, 4.0, 9, 2.0,
                       xprime_count=7 if dim == 2 else 1,
                       xprime_length=2 * np.pi if dim == 2 else None)
        ones = lambda t, xp, xd: 1.0 + 0.0 * np.asarray(xd, float)
        F = tuple(ones if i == dim - 1 else None for i in range(dim))
        b = LoadAssembler(m).assemble(F, None, lam=0.0)
        # interior rows telescope; only roundoff survives
        assert np.max(np.abs(b)) < 1e-14


def test_load_linearity():
    m = build_mesh(2, 4.0, 8, 2.0, xprime_count=6, xprime_length=2 * np.pi)
    la = LoadAssembler(m)
    f1 = lambda t, xp, xd: np.sin(xd) * np.cos(xp) * xd
    f2 = lambda t, xp, xd: xd * np.exp(-xd)
    F1 = (lambda t, xp, xd: np.cos(xd + xp), f1)
    b1 = la.assemble(F1, f1, lam=3.0)
    b2 = la.assemble(None, f2, lam=3.0)
    both = la.assemble(F1, lambda t, xp, xd: f1(t, xp, xd) + f2(t, xp, xd),
                       lam=3.0)
    assert np.max(np.abs(both - (b1 + b2))) < 1e-13 * max(
        1.0, np.max(np.abs(both)))


def test_load_rows_equal_per_time_loads():
    # one call for a time grid gives, row by row, bitwise the loads of one
    # call per time
    m = build_mesh(2, 4.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi)
    la = LoadAssembler(m)
    F = (lambda t, xp, xd: np.cos(xd + xp - t), lambda t, xp, xd: t * xd)
    f = lambda t, xp, xd: np.sin(3 * t + xp) * xd
    times = np.array([0.0, 0.3, 0.7, 1.1])
    rows = la.assemble(F, f, 2.0, times)
    assert rows.shape == (4, m.n_interior)
    for t, row in zip(times, rows):
        assert np.array_equal(row, la.assemble(F, f, 2.0, t=t))


def test_load_rejects_source_that_cannot_broadcast_time():
    m = build_mesh(1, 4.0, 6, 2.0)
    flat = lambda t, xp, xd: np.sin(np.ravel(t))[:, None] * xd.ravel()
    with pytest.raises(ValueError, match="must broadcast t"):
        LoadAssembler(m).assemble(None, flat, 1.0, np.array([0.0, 0.5]))


def test_load_refuses_times_of_two_dimensions():
    la = LoadAssembler(build_mesh(1, 4.0, 6, 2.0))
    with pytest.raises(ValueError, match="a scalar or a 1-D array of times"):
        la.assemble(None, lambda t, xp, xd: xd, 1.0, np.zeros((2, 2)))


def test_load_refuses_F_not_of_one_entry_per_direction():
    # F is None or a sequence of dim entries: a bare callable is refused,
    # in d = 1 too, and so is a sequence of another length
    g = lambda t, xp, xd: xd
    for dim, bad in ((1, g), (1, (g, g)), (2, g), (2, (g,)), (2, (g, g, g))):
        m = build_mesh(dim, 4.0, 6, 2.0, xprime_count=1 if dim == 1 else 4,
                       xprime_length=2 * np.pi if dim == 2 else None)
        message = "F must be None or a sequence of %d entries" % dim
        la = LoadAssembler(m)
        with pytest.raises(ValueError, match=message):
            la.parts(bad, g)
        with pytest.raises(ValueError, match=message):
            la.assemble(bad, None, 1.0)


def test_loads_refuse_a_negative_lambda_with_or_without_f():
    m = build_mesh(1, 4.0, 6, 2.0)
    la = LoadAssembler(m)
    F = (lambda t, xp, xd: np.sin(xd),)
    negative = r"lambda must be >= 0, got -1\.0"
    for f in (None, lambda t, xp, xd: xd):
        with pytest.raises(ValueError, match=negative):
            la.assemble(F, f, lam=-1.0)
        with pytest.raises(ValueError, match=negative):
            LoadAssembler.combine(la.parts(F, f), -1.0)
        assert np.array_equal(la.assemble(F, f, lam=0.0),
                              LoadAssembler.combine(la.parts(F, f), 0.0)[0])


def test_data_gram_frozen_values():
    # f = x on [0,1]: plain gram gives 1/3, weighted gram 1/2
    m = build_mesh(1, 1.0, 2, 1.0)
    gram_all, gram_w = data_grams(m)
    f_nodes = m.xd_nodes.copy()
    v = f_nodes @ (gram_all @ f_nodes)
    assert abs(v - 1.0 / 3.0) < 1e-14
    w = f_nodes[1:] @ (gram_w @ f_nodes[1:])
    assert abs(w - 0.5) < 1e-14


def test_matrix_market_roundtrip(tmp_path):
    m = build_mesh(1, 4.0, 8, 2.0)
    K = assemble_stiffness(m, identity_coefficients(1), lam=1.0)
    path = tmp_path / "K.mtx"
    mmwrite(str(path), K.matrix)
    back = mmread(str(path)).tocsr()
    assert np.allclose(back.toarray(), K.matrix.toarray(), rtol=0,
                       atol=1e-15)
    buf = io.BytesIO()
    mmwrite(buf, K.matrix)
    assert b"coordinate" in buf.getvalue()


def test_stiffness_coercive_against_model_stiffness():
    # ellipticity per cell and c0 >= nu give v'Kv >= nu v'K0v for every v:
    # the smallest generalized eigenvalue of (sym K, K0) is at least nu
    for dim in (1, 2):
        m = build_mesh(dim, 4.0, 12 if dim == 1 else 6, 2.0,
                       xprime_count=1 if dim == 1 else 5,
                       xprime_length=None if dim == 1 else 2 * np.pi)
        K0 = model_stiffness(m).toarray()
        for kind in ("constant", "xd_only", "oscillatory"):
            coeffs = generate_family(1, kind, 0.5, 0.2, dim=dim,
                                     xp_length=2 * np.pi)
            for lam in (0.0, 5.0):
                K = assemble_stiffness(m, coeffs, lam, t=0.3).matrix.toarray()
                low = eigh(0.5 * (K + K.T), K0, eigvals_only=True)[0]
                assert low >= coeffs.nu * (1 - 1e-10), (dim, kind, lam, low)


def test_indefinite_pair_table_is_rejected(monkeypatch):
    def indefinite(xl, xr):
        table = weighted_pair_integrals(xl, xr)
        table[2, 0, 1] = table[2, 1, 0] = 2 * table[2, 1, 1]
        return table

    monkeypatch.setattr(assembly, "weighted_pair_integrals", indefinite)
    _interned.cache_clear()     # a fresh mesh, with no pair table built yet
    m = build_mesh(1, 4.0, 8, 2.0)
    with pytest.raises(AssemblyError, match="not positive definite on cell 2"):
        assemble_weighted_mass(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_weighted_mass_rejects_bad_a0(bad):
    m = build_mesh(1, 4.0, 8, 2.0)
    xd = m.xd_centers[3]

    def a0(x):
        return np.where(x == xd, bad, 1.0)

    with pytest.raises(ValueError, match="a0 = %g at x_d=%.6g" % (bad, xd)):
        assemble_weighted_mass(m, a0)


def _all_operators(m, coeffs):
    la = LoadAssembler(m)
    mats = [assemble_weighted_mass(m, coeffs.a0), la.W, *la.G,
            assemble_stiffness(m, coeffs, 3.0, t=0.2).matrix,
            *data_grams(m)]
    return [(x.data.copy(), x.indices.copy(), x.indptr.copy()) for x in mats]


def test_plan_is_per_mesh_and_built_once(monkeypatch):
    built = []

    def counting(mesh, rows, cols):
        built.append((id(mesh), rows, cols))
        return plan_class(mesh, rows, cols)

    plan_class = assembly._ScatterPlan
    monkeypatch.setattr(assembly, "_ScatterPlan", counting)
    _interned.cache_clear()
    a = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi)
    b = build_mesh(2, 2.0, 4, 1.5, xprime_count=3, xprime_length=1.0)
    coeffs = generate_family(2, "oscillatory", 0.5, 0.2, dim=2,
                             xp_length=2 * np.pi)
    first = _all_operators(a, coeffs)
    _all_operators(b, coeffs)
    again = _all_operators(a, coeffs)
    for x, y in zip(first, again):
        for part_x, part_y in zip(x, y):
            assert part_x.dtype == part_y.dtype
            assert np.array_equal(part_x, part_y)
    # interior x interior, interior x nodes and the two Gram layouts, per mesh
    assert len(built) == len(set(built)) == 8
    assert np.shares_memory(LoadAssembler(a).W.data, LoadAssembler(a).W.data)
    assert not LoadAssembler(a).W.data.flags.writeable


def test_plan_cache_lets_meshes_go():
    # build_mesh keeps the meshes of the last _INTERNED geometries; one more
    # geometry drops the oldest, and every table built on it goes with it
    _interned.cache_clear()
    m = build_mesh(1, 4.0, 8, 2.0)
    assemble_weighted_mass(m)
    LoadAssembler(m)
    levels_norm(m, np.ones((2, m.M + 1, 1)), NormSpec(2.0))
    ref = weakref.ref(m)
    plan = weakref.ref(m._tables["interior", "interior"])
    del m
    gc.collect()
    assert ref() is not None        # interned: the mesh is still held
    newer = [build_mesh(1, 4.0, 8 + k, 2.0) for k in range(1, _INTERNED)]
    gc.collect()
    assert ref() is not None and plan() is not None
    newer.append(build_mesh(1, 4.0, 8 + _INTERNED, 2.0))
    gc.collect()
    assert ref() is None and plan() is None
    assert all(build_mesh(1, 4.0, mesh.M, 2.0) is mesh for mesh in newer)
