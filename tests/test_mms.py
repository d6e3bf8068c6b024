import numpy as np
import pytest

from degenlab import (ManufacturedCase, StudyTable, build_mesh,
                      convergence_study, default_case)


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


def _sample_points(rng, case, n, xd_lo=0.02):
    t = rng.uniform(0.05 * case.T, case.T, n)
    xp = rng.uniform(0, 2 * np.pi, n) if case.dim == 2 else np.zeros(n)
    xd = rng.uniform(xd_lo, 0.95 * case.Ld, n)
    return t, xp, xd


def _fd_partial(func, args, axis, step=1e-6):
    hi = list(args)
    lo = list(args)
    hi[axis] = args[axis] + step
    lo[axis] = args[axis] - step
    return (func(*hi) - func(*lo)) / (2 * step)


def _assert_close(fd, closure_vals, what, tol=1e-7):
    fd = np.asarray(fd, float)
    cv = np.asarray(closure_vals, float)
    scale = max(np.max(np.abs(cv)), np.max(np.abs(fd)), 1e-8)
    worst = np.max(np.abs(fd - cv)) / scale
    assert worst <= tol, "finite-difference cross-check failed for %s " \
        "(relative %.3e > %.3e)" % (what, worst, tol)


def _cases():
    """Both dimensions, every mode, two windows, and lambda = 0 where the
    mode allows it."""
    for dim in (1, 2):
        for mode in ManufacturedCase.MODES:
            for lam, Ld, T in ((1.0, 4.0, 1.0), (4.0, 2.5, 0.5)):
                yield default_case(dim, lam=lam, Ld=Ld, T=T, mode=mode)
        yield default_case(dim, lam=0.0, mode="F_only")


def _fd_residual(case, pts):
    """u_t + lambda u - x_d (D_x'x' u + D_dd u), every derivative taken by
    central differences of u and du."""
    axes = (2,) if case.dim == 1 else (1, 2)
    lap = sum(_fd_partial(du, pts, ax) for du, ax in zip(case.du, axes))
    return _fd_partial(case.u, pts, 0) + case.lam * case.u(*pts) \
        - pts[2] * lap


def test_closure_cross_checks_catch_mistakes():
    # the closed forms against central differences (step 1e-6, relative
    # 1e-7): du against u, the sources against the residual of u, and f_t
    # against f; F_d, through its x_d-derivative, at x_d >= 0.1 to 3e-6
    for case in _cases():
        name = "d = %d, %s, lambda = %g, L_d = %g" % (case.dim, case.mode,
                                                     case.lam, case.Ld)
        rng = np.random.default_rng(190)
        _sample_points(rng, case, 100)      # the trace test's draws
        pts = _sample_points(rng, case, 30)
        axes = (2,) if case.dim == 1 else (1, 2)
        for comp, ax in enumerate(axes):
            _assert_close(_fd_partial(case.u, pts, ax), case.du[comp](*pts),
                          "du[%d], %s" % (comp, name))
        F, f = case.synthesize_sources()
        share_f = {"f_only": 1.0, "F_only": 0.0, "mixed": 0.5}[case.mode]
        if share_f:
            _assert_close(share_f / np.sqrt(case.lam)
                          * _fd_residual(case, pts), f(*pts), "f, %s" % name)
        else:
            assert f is None
        if case.mode == "f_only":
            assert F is None
            _assert_close(_fd_partial(f, pts, 0),
                          case.synthesize_f_t()(*pts), "f_t, %s" % name)
        else:
            assert len(F) == case.dim and F[:-1] == (None,) * (case.dim - 1)
            with pytest.raises(ValueError, match="f_only"):
                case.synthesize_f_t()
            Fpts = _sample_points(rng, case, 30, xd_lo=0.1)
            _assert_close(_fd_partial(F[-1], Fpts, 2),
                          -(1.0 - share_f) * _fd_residual(case, Fpts)
                          / Fpts[2], "F_d, %s" % name, tol=3e-6)
    # the check catches a wrong closure
    case = default_case(1)
    pts = _sample_points(np.random.default_rng(190), case, 30)
    with pytest.raises(AssertionError, match="wrong du"):
        _assert_close(_fd_partial(case.u, pts, 2), 2 * case.du[0](*pts),
                      "wrong du")


def test_trace_and_truncation_admissibility():
    # u vanishes at x_d = 0 (1e-12 of max |u|) and at the truncation edge
    # x_d = L_d (1e-6 of max |u|): admissible for the truncated strip
    for case in _cases():
        rng = np.random.default_rng(190)
        t, xp, _ = _sample_points(rng, case, 100)
        tgrid = np.linspace(0, case.T, 9)
        xgrid = np.linspace(0, 2 * np.pi, 11)
        dense = np.linspace(0, case.Ld, 101)
        umax = np.max(np.abs(case.u(tgrid[:, None, None], xgrid,
                                    dense[:, None])))
        assert umax > 0.01
        trace = np.max(np.abs(case.u(t, xp, np.zeros_like(t))))
        assert trace <= 1e-12 * umax
        edge = np.max(np.abs(case.u(tgrid[:, None], xgrid, case.Ld)))
        assert edge <= 1e-6 * umax


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
    assert np.all(table.e0[:-1] > table.e0[1:])
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


def test_study_table_bookkeeping():
    table = StudyTable([8, 16, 32], [0.1, 0.025, 0.00625], [64.0, 16.0, 4.0],
                       [8.0, 4.0, 2.0])
    assert np.isnan(table.rates0[0])
    assert abs(table.rates0[1] - 2.0) < 1e-12
    assert abs(table.rates1[2] - 1.0) < 1e-12
    r0, r1 = table.fitted_rates()
    assert abs(r0 - 2.0) < 1e-12 and abs(r1 - 1.0) < 1e-12
    csv = table.csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "M,dt,e0,e1,rate0,rate1"
    assert lines[1:] == ["8,0.1,64,8,nan,nan", "16,0.025,16,4,2,1",
                         "32,0.00625,4,2,2,1"]
