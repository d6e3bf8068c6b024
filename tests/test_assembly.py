import io

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.io import mmread, mmwrite

from degenlab import (LoadAssembler, assemble_load, assemble_stiffness,
                      assemble_weighted_mass, build_mesh, data_grams,
                      generate_family, identity_coefficients,
                      model_stiffness, sample_on_mesh,
                      weighted_pair_integrals)

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
    assert M.matrix.shape == (1, 1)
    val = M.matrix[0, 0]
    print("M11 =", val)
    assert abs(val - (4 * LOG2 - 2.0)) < 1e-14
    assert abs(val - 0.7725887222397812) < 1e-14


def test_weighted_mass_weight_scaling():
    m = build_mesh(1, 2.0, 8, 2.0)
    base = assemble_weighted_mass(m).matrix

    def two(xd):
        return 2.0 + 0.0 * np.asarray(xd, float)

    doubled = assemble_weighted_mass(m, two).matrix
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
    K0 = model_stiffness(m).matrix.toarray()
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


def test_weighted_mass_is_exactly_symmetric():
    m = build_mesh(2, 4.0, 8, 2.0, xprime_count=6, xprime_length=2 * np.pi)
    M = assemble_weighted_mass(m)
    assert (M.matrix - M.matrix.T).nnz == 0
    assert M.symmetry == "symmetric"


def test_load_frozen_value_linear_f():
    # f = x_d interpolates exactly; weighted row integral gives
    # b_1 = integral of the hat = h = 1/2 on the uniform 2-cell mesh
    m = build_mesh(1, 1.0, 2, 1.0)
    b = assemble_load(m, None, lambda t, xp, xd: xd, lam=1.0)
    assert b.values.shape == (1,)
    assert abs(b.values[0] - 0.5) < 1e-15


def test_load_constant_divergence_field_telescopes_to_zero():
    for dim in (1, 2):
        m = build_mesh(dim, 4.0, 9, 2.0,
                       xprime_count=7 if dim == 2 else 1,
                       xprime_length=2 * np.pi if dim == 2 else None)
        ones = lambda t, xp, xd: 1.0 + 0.0 * np.asarray(xd, float)
        F = tuple(ones if i == dim - 1 else None for i in range(dim))
        b = assemble_load(m, F, None, lam=0.0)
        # interior rows telescope; only roundoff survives
        assert np.max(np.abs(b.values)) < 1e-14


def test_load_linearity():
    m = build_mesh(2, 4.0, 8, 2.0, xprime_count=6, xprime_length=2 * np.pi)
    la = LoadAssembler(m)
    f1 = lambda t, xp, xd: np.sin(xd) * np.cos(xp) * xd
    f2 = lambda t, xp, xd: xd * np.exp(-xd)
    F1 = (lambda t, xp, xd: np.cos(xd + xp), f1)
    b1 = la.assemble(F1, f1, lam=3.0).values
    b2 = la.assemble(None, f2, lam=3.0).values
    both = la.assemble(F1, lambda t, xp, xd: f1(t, xp, xd) + f2(t, xp, xd),
                       lam=3.0).values
    assert np.max(np.abs(both - (b1 + b2))) < 1e-13 * max(
        1.0, np.max(np.abs(both)))


def test_data_gram_frozen_values():
    # f = x on [0,1]: plain gram gives 1/3, weighted gram 1/2
    m = build_mesh(1, 1.0, 2, 1.0)
    gram_all, gram_w = data_grams(m)
    f_nodes = m.xd_nodes.copy()
    v = f_nodes @ (gram_all.matrix @ f_nodes)
    assert abs(v - 1.0 / 3.0) < 1e-14
    w = f_nodes[1:] @ (gram_w.matrix @ f_nodes[1:])
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


def test_stiffness_coercivity_tagged_and_positive():
    m = build_mesh(1, 4.0, 16, 2.0)
    coeffs = generate_family(1, "xd_only", 0.5, 0.2, dim=1)
    K = assemble_stiffness(m, coeffs, lam=5.0)
    K0 = model_stiffness(m).matrix
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.standard_normal(m.n_interior)
        quad_form = v @ (K.matrix @ v)
        floor = 0.5 * (v @ (K0 @ v))
        assert quad_form >= floor - 1e-10 * abs(quad_form)
