import numpy as np
import pytest

from degenlab import (CoefficientField, Cylinder, build_mesh,
                      check_structure_condition, generate_family,
                      identity_coefficients, oscillation, oscillation_scan,
                      partial_averages, sample_on_mesh)


def _const(v):
    def closure(t, xp, xd):
        return v + 0.0 * np.asarray(xd, float)
    return closure


def _sin_in_time(eps, period, phase=0.4):
    def closure(t, xp, xd):
        return 1.0 + eps * np.sin(2 * np.pi * np.asarray(t, float) / period
                                  + phase) + 0.0 * np.asarray(xd, float)
    return closure


def test_constant_field_oscillation_is_exactly_zero():
    m = build_mesh(1, 4.0, 16, 2.0, time_step=0.25, time_count=8)
    coeffs = generate_family(3, "constant", 0.5, 0.3, dim=1)
    rep = oscillation(coeffs, m, Cylinder(2.0, 0.0, 0.5))
    assert rep.value == 0.0


def test_xd_only_oscillation_below_roundoff():
    for dim, npc in ((1, 1), (2, 8)):
        m = build_mesh(dim, 4.0, 24, 2.0,
                       xprime_count=npc if dim == 2 else 1,
                       xprime_length=2 * np.pi if dim == 2 else None,
                       time_step=0.25, time_count=8)
        coeffs = generate_family(7, "xd_only", 0.5, 0.2, dim=dim,
                                 xp_length=2 * np.pi)
        gamma, reports = oscillation_scan(coeffs, m, [0.25, 0.5, 1.0])
        print("xd_only gamma dim=%d:" % dim, gamma)
        assert gamma <= 1e-12
        assert len(reports) > 0


def test_sinusoidal_time_oscillation_matches_dense_quadrature():
    # one entry oscillates over exactly one period inside the time window;
    # the oracle integrates |sin| densely, independent of the cell machinery
    eps = 0.17
    rho = 1.0
    m = build_mesh(1, 4.0, 256, 2.0, time_step=rho / 64, time_count=128)
    a = ((_sin_in_time(eps, rho),),)
    coeffs = CoefficientField(1, 0.5, a, _const(1.0),
                              lambda xd: 1.0 + 0.0 * np.asarray(xd, float),
                              kind="oscillatory")
    rep = oscillation(coeffs, m, Cylinder(2.0, 0.0, rho))
    s = np.linspace(0.0, rho, 20001)
    oracle = eps * np.trapezoid(np.abs(np.sin(2 * np.pi * s / rho + 0.4)),
                                s) / rho
    print("sinusoidal-in-t measured %.6f oracle %.6f" % (rep.value, oracle))
    assert abs(oracle - eps * 2 / np.pi) < 1e-4   # sanity on the oracle
    assert abs(rep.value - oracle) <= 0.01 * oracle


def test_sinusoidal_oscillation_dim2_matches_dense_quadrature():
    # time oscillation again, but through the dim-2 code path: the slice
    # averages over (t, x') kill the full-period sinusoid exactly, leaving
    # the mean of |sin| regardless of the spatial weighting
    eps = 0.13
    rho = 0.5
    m = build_mesh(2, 4.0, 96, 2.0, xprime_count=16,
                   xprime_length=2 * np.pi, time_step=rho / 48,
                   time_count=96)
    a = ((_sin_in_time(eps, rho), _const(0.0)),
         (_const(0.0), _const(1.0)))
    coeffs = CoefficientField(2, 0.4, a, _const(1.0),
                              lambda xd: 1.0 + 0.0 * np.asarray(xd, float),
                              kind="oscillatory")
    rep = oscillation(coeffs, m, Cylinder(1.0, 0.0, rho))
    s = np.linspace(0.0, rho, 20001)
    oracle = eps * np.trapezoid(np.abs(np.sin(2 * np.pi * s / rho + 0.4)),
                                s) / rho
    print("dim-2 sinusoid measured %.6f oracle %.6f" % (rep.value, oracle))
    assert abs(rep.value - oracle) <= 0.01 * oracle


def test_xprime_oscillation_is_detected():
    # oscillation in x' alone: averaged over the prime window, a nonzero
    # deviation must survive (no clean closed form; detection only)
    eps = 0.11
    L = 2 * np.pi
    m = build_mesh(2, 4.0, 32, 2.0, xprime_count=32, xprime_length=L,
                   time_step=0.25, time_count=8)

    def wavy(t, xp, xd):
        return 1.0 + eps * np.sin(8 * np.pi * np.asarray(xp, float) / L) \
            + 0.0 * np.asarray(xd, float)

    a = ((wavy, _const(0.0)), (_const(0.0), _const(1.0)))
    coeffs = CoefficientField(2, 0.4, a, _const(1.0),
                              lambda xd: 1.0 + 0.0 * np.asarray(xd, float),
                              kind="oscillatory")
    rep = oscillation(coeffs, m, Cylinder(1.0, 0.0, 1.0))
    print("x'-oscillation measured %.6f (eps=%g)" % (rep.value, eps))
    assert 0.1 * eps < rep.value <= 2 * eps / np.pi * 1.01


def test_partial_average_of_d_column_is_full_average():
    # regression for the mixed-indexing pitfall: the d-column constant must
    # be the measure-weighted full average, identical across slices
    m = build_mesh(2, 4.0, 12, 2.0, xprime_count=6,
                   xprime_length=2 * np.pi, time_step=0.25, time_count=8)

    def add(t, xp, xd):
        return 0.5 + 0.25 * np.sin(np.asarray(xd, float))

    a = ((_const(1.0), _const(0.125)), (_const(0.0), add))
    coeffs = CoefficientField(2, 0.25, a, _const(1.0),
                              lambda xd: 1.0 + 0.0 * np.asarray(xd, float),
                              kind="oscillatory")
    cyl = Cylinder(1.5, 0.0, 0.8)
    avg_a, avg_c0 = partial_averages(coeffs, m, cyl)
    assert avg_a.shape == (12, 2, 2)
    # whole column j=d constant across slices
    assert np.ptp(avg_a[:, 0, 1]) == 0.0
    assert np.ptp(avg_a[:, 1, 1]) == 0.0
    assert abs(avg_a[0, 0, 1] - 0.125) < 1e-14
    # dense oracle for the weighted full average of a_dd over the cylinder
    from degenlab import cells_in_cylinder
    cs = cells_in_cylinder(m, cyl)
    sample = sample_on_mesh(coeffs, m)
    vals = sample.a[..., 1, 1][:, cs.space_j, cs.space_m][cs.time_cells]
    w = cs.space_measures()
    oracle = float((vals * w[None, :]).sum() /
                   (w.sum() * cs.time_cells.size))
    assert abs(avg_a[0, 1, 1] - oracle) < 1e-13
    assert np.allclose(avg_c0, 1.0)


def test_structure_condition_flags():
    m1 = build_mesh(1, 4.0, 16, 2.0)
    m2 = build_mesh(2, 4.0, 16, 2.0, xprime_count=6,
                    xprime_length=2 * np.pi)
    assert check_structure_condition(generate_family(0, "constant", 0.5,
                                                     0.2, dim=1), m1)
    assert check_structure_condition(generate_family(1, "xd_only", 0.5,
                                                     0.2, dim=2,
                                                     xp_length=2 * np.pi),
                                     m2)
    osc = generate_family(2, "oscillatory", 0.5, 0.2, dim=2,
                          xp_length=2 * np.pi)
    assert not check_structure_condition(osc, m2)


def test_family_respects_ellipticity_bounds():
    # sampling validates nu <= c0, a0 <= 1/nu and the quadratic form bounds
    for seed in range(6):
        for kind in ("constant", "xd_only", "oscillatory"):
            for dim in (1, 2):
                m = build_mesh(dim, 4.0, 8, 2.0,
                               xprime_count=6 if dim == 2 else 1,
                               xprime_length=2 * np.pi if dim == 2 else None,
                               time_step=0.5, time_count=2)
                coeffs = generate_family(seed, kind, 0.5, 0.2, dim=dim,
                                         xp_length=2 * np.pi)
                sample = sample_on_mesh(coeffs, m)   # raises if violated
                assert sample.a.shape[-1] == dim


def test_oscillatory_gamma_scales_with_eps():
    m = build_mesh(1, 4.0, 32, 2.0, time_step=0.125, time_count=16)
    values = []
    for eps in (0.05, 0.1, 0.2):
        coeffs = generate_family(11, "oscillatory", 0.5, eps, dim=1)
        gamma, _ = oscillation_scan(coeffs, m, [0.5, 1.0])
        values.append(gamma)
    print("gamma vs eps:", values)
    assert values[0] < values[1] < values[2]
    assert values[2] <= 4 * 0.2 + 1e-12
    # doubling eps doubles the measured oscillation (family is linear in eps)
    assert abs(values[2] / values[1] - 2.0) < 1e-10


def test_identity_coefficients_are_model():
    m = build_mesh(1, 4.0, 8, 2.0)
    coeffs = identity_coefficients(1)
    s = sample_on_mesh(coeffs, m)
    assert np.all(s.a[..., 0, 0] == 1.0)
    assert np.all(s.c0 == 1.0)
    assert np.all(np.asarray(coeffs.a0(m.xd_centers)) == 1.0)


def test_transposed_swaps_entries():
    coeffs = generate_family(5, "xd_only", 0.5, 0.2, dim=2,
                             xp_length=2 * np.pi)
    m = build_mesh(2, 4.0, 8, 2.0, xprime_count=6, xprime_length=2 * np.pi)
    st = sample_on_mesh(coeffs.transposed(), m)
    s = sample_on_mesh(coeffs, m)
    assert np.array_equal(st.a, np.swapaxes(s.a, -1, -2))
    assert np.array_equal(st.c0, s.c0)


def test_kind_declares_autonomy():
    for kind, autonomous in (("constant", True), ("xd_only", True),
                             ("oscillatory", False)):
        coeffs = generate_family(1, kind, 0.5, 0.2, dim=2)
        assert coeffs.autonomous is autonomous
        assert coeffs.transposed().kind == kind
        assert coeffs.transposed().autonomous is autonomous
    one = _const(1.0)
    user = CoefficientField(1, 0.5, ((one,),), one, lambda xd: 1.0 + 0 * xd)
    assert user.kind == "user" and not user.autonomous


def test_eps_too_large_rejected():
    with pytest.raises(ValueError):
        generate_family(0, "oscillatory", 0.5, 0.6, dim=1)
