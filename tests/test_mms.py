import numpy as np
import pytest

from degenlab import (ClosureError, CoefficientField, ManufacturedCase,
                      StudyTable, build_mesh, convergence_study, default_case,
                      generate_family, identity_coefficients)
from degenlab.mms import StudyRow


def _mesh_d1(M, time_count, Ld=4.0, T=1.0):
    return build_mesh(1, Ld, M, 2.0, time_step=T / time_count,
                      time_count=time_count)


def test_synthesized_source_matches_hand_formula():
    # u = sin(t) g(x), g = x e^{-x} - c x^2, c = e^{-4}/4, a = I, c0 = 1:
    # f = (cos t + lam sin t) g - x sin t g'' for lam = 1
    case = default_case(1, lam=1.0)
    F, f = case.synthesize_sources()
    assert F is None
    c = np.exp(-4.0) / 4
    for t, x in ((0.5, 1.0), (0.12, 3.3), (0.9, 0.04)):
        g = x * np.exp(-x) - c * x * x
        gpp = (x - 2) * np.exp(-x) - 2 * c
        expect = (np.cos(t) + np.sin(t)) * g - x * np.sin(t) * gpp
        got = float(f(t, 0.0, x))
        assert abs(got - expect) < 1e-13 * max(1.0, abs(expect))
    assert abs(float(f(0.5, 0.0, 1.0)) - 0.6737630558352162) < 1e-15


def test_closure_cross_checks_catch_mistakes():
    g = lambda x: x * np.exp(-x) - np.exp(-4.0) / 4 * x ** 2
    gp = lambda x: (1 - x) * np.exp(-x) - np.exp(-4.0) / 2 * x
    gpp = lambda x: (x - 2) * np.exp(-x) - np.exp(-4.0) / 2
    u = lambda t, xp, xd: np.sin(t) * g(xd)
    u_t = lambda t, xp, xd: np.cos(t) * g(xd)
    wrong_du = (lambda t, xp, xd: 2 * np.sin(t) * gp(xd),)
    good_du = (lambda t, xp, xd: np.sin(t) * gp(xd),)
    d2u = {(0, 0): lambda t, xp, xd: np.sin(t) * gpp(xd)}
    with pytest.raises(ClosureError):
        ManufacturedCase(1, identity_coefficients(1), 1.0, u, u_t, wrong_du,
                         d2u)
    ManufacturedCase(1, identity_coefficients(1), 1.0, u, u_t, good_du, d2u)


def test_trace_and_truncation_admissibility():
    # nonzero value at x_d = 0
    u = lambda t, xp, xd: np.sin(t) * (xd + 0.1)
    u_t = lambda t, xp, xd: np.cos(t) * (xd + 0.1)
    du = (lambda t, xp, xd: np.sin(t) + 0.0 * xd,)
    d2u = {(0, 0): lambda t, xp, xd: 0.0 * xd}
    with pytest.raises(ClosureError):
        ManufacturedCase(1, identity_coefficients(1), 1.0, u, u_t, du, d2u)
    # fine at x_d = 0 but large at the truncation edge
    v = lambda t, xp, xd: np.sin(t) * xd
    v_t = lambda t, xp, xd: np.cos(t) * xd
    dv = (lambda t, xp, xd: np.sin(t) + 0.0 * xd,)
    with pytest.raises(ClosureError):
        ManufacturedCase(1, identity_coefficients(1), 1.0, v, v_t, dv, d2u)


def test_mode_validation():
    with pytest.raises(ValueError):
        default_case(1, lam=0.0)                  # f_only needs lambda > 0
    with pytest.raises(ValueError, match="mixed mode needs lambda > 0"):
        default_case(1, lam=0.0, mode="mixed")    # so does mixed
    case = default_case(1, lam=0.0, mode="F_only")
    F, f = case.synthesize_sources()
    assert f is None and F[-1] is not None
    with pytest.raises(ValueError):
        default_case(1, lam=1.0, mode="diagonal")
    mixed = default_case(1, lam=4.0, mode="mixed")
    F, f = mixed.synthesize_sources()
    assert F[-1] is not None and f is not None


def test_convergence_study_rates_d1():
    case = default_case(1, lam=1.0)
    meshes = [_mesh_d1(8, 8), _mesh_d1(16, 32), _mesh_d1(32, 128)]
    table = convergence_study(case, meshes)
    r0, r1 = table.fitted_rates()
    print("fitted rates", r0, r1)
    print(table.csv())
    assert r0 > 1.7
    assert r1 > 0.85
    assert all(a.e0 > b.e0 for a, b in zip(table.rows, table.rows[1:]))
    with pytest.raises(ValueError):
        convergence_study(case, meshes[:2])
    wrong = build_mesh(1, 3.0, 8, 2.0, time_step=0.125, time_count=8)
    with pytest.raises(ValueError):
        convergence_study(case, [wrong, wrong, wrong])


def test_time_error_saturates_with_small_dt():
    # fixed space mesh, shrinking dt: the error decays to the space floor
    case = default_case(1, lam=1.0)
    errs = []
    for nt in (5, 20, 80, 160):
        table_mesh = _mesh_d1(32, nt)
        from degenlab import NormSpec, error_norm, march
        F, f = case.synthesize_sources()
        sol = march(table_mesh, case.coeffs, case.lam, F=F, f=f)
        errs.append(error_norm(sol, {"u": case.u, "du": case.du},
                               NormSpec(2.0, -1.0, "0")))
    print("dt sweep errors", errs)
    assert errs[0] > errs[-1]
    assert all(e2 <= e1 * 1.02 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-2] / errs[-1] < 1.35      # saturation at the space floor


def test_f_t_refuses_time_dependent_coefficients():
    # f_t drops the t-derivatives of a and c0, and the residual the
    # x-derivatives of a, so a case is built on constant coefficients only
    auto = default_case(1, lam=1.0)
    assert np.isfinite(auto.synthesize_f_t()(0.5, 0.0, 1.0))
    for kind in ("xd_only", "oscillatory"):
        with pytest.raises(ValueError, match="got kind %r" % kind):
            ManufacturedCase(
                1, generate_family(0, kind, 0.5, 0.2, dim=1),
                1.0, auto.u, auto.u_t, auto.du, auto.d2u, u_tt=auto.u_tt,
                d2u_t=auto.d2u_t)


def test_a_case_refuses_a_user_field_with_x_dependent_a():
    # the strong form has no (D_i a_ij) D_j u term: with a11 = 1 + 0.2 sin
    # x_d its residual would be wrong, so the field is refused by its kind
    auto = default_case(1, lam=1.0)
    const = identity_coefficients(1)
    coeffs = CoefficientField(
        1, 0.5, ((lambda t, xp, xd: 1.0 + 0.2 * np.sin(xd),),), const.c0,
        const.a0)
    with pytest.raises(ValueError, match="got kind 'user'"):
        ManufacturedCase(1, coeffs, 1.0, auto.u, auto.u_t, auto.du,
                         auto.d2u)


def test_study_table_bookkeeping():
    rows = [StudyRow(8, 0.1, 64.0, 8.0), StudyRow(16, 0.025, 16.0, 4.0),
            StudyRow(32, 0.00625, 4.0, 2.0)]
    table = StudyTable(rows)
    assert np.isnan(table.rates0[0])
    assert abs(table.rates0[1] - 2.0) < 1e-12
    assert abs(table.rates1[2] - 1.0) < 1e-12
    r0, r1 = table.fitted_rates()
    assert abs(r0 - 2.0) < 1e-12 and abs(r1 - 1.0) < 1e-12
    csv = table.csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "M,dt,e0,e1,rate0,rate1"
    assert len(lines) == 4
