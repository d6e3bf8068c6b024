import numpy as np
import pytest

from degenlab import (CoefficientField, Cylinder, build_mesh,
                      cells_in_cylinder, check_structure_condition,
                      generate_family, identity_coefficients, oscillation,
                      oscillation_scan, sample_on_mesh)
from degenlab.coefficients import _averages


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
    cs = cells_in_cylinder(m, cyl)
    sample = sample_on_mesh(coeffs, m)
    avg_a, avg_c0, areas, wsum = _averages(m, cyl, sample, cs)
    assert avg_a.shape == (12, 2, 2)
    # whole column j=d constant across slices
    assert np.ptp(avg_a[:, 0, 1]) == 0.0
    assert np.ptp(avg_a[:, 1, 1]) == 0.0
    assert abs(avg_a[0, 0, 1] - 0.125) < 1e-14
    # dense oracle for the weighted full average of a_dd over the cylinder
    vals = sample.a[..., 1, 1][:, cs.space_j, cs.space_m][cs.time_cells]
    w = cs.space_measures()
    assert areas.tolist() == w.tolist()
    assert wsum == w.sum() * cs.time_cells.size
    oracle = float((vals * w[None, :]).sum() /
                   (w.sum() * cs.time_cells.size))
    assert abs(avg_a[0, 1, 1] - oracle) < 1e-13
    assert np.allclose(avg_c0, 1.0)


_KINDS = ("constant", "xd_only", "oscillatory")


def _mesh(dim, time_count=8):
    return build_mesh(dim, 4.0, 16, 2.0,
                      xprime_count=6 if dim == 2 else 1,
                      xprime_length=2 * np.pi if dim == 2 else None,
                      time_step=1.0 / time_count, time_count=time_count)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", _KINDS)
def test_structure_condition_flags(kind, dim):
    # the a_id column is constant for the constant and xd_only families at
    # every time level, and not for the oscillatory one
    coeffs = generate_family(_KINDS.index(kind), kind, 0.5, 0.2, dim=dim,
                             xp_length=2 * np.pi)
    assert check_structure_condition(coeffs, _mesh(dim)) is \
        (kind != "oscillatory")


def _per_time_sample(coeffs, mesh, times):
    """The reference: one a_matrix and one c0 call per time."""
    xp = np.broadcast_to(mesh.xprime_centers[None, :],
                         (mesh.M, mesh.xprime_count))
    xd = np.broadcast_to(mesh.xd_centers[:, None], xp.shape)
    a = np.stack([coeffs.a_matrix(tv, xp, xd) for tv in times])
    c0 = np.stack([np.broadcast_to(np.asarray(coeffs.c0(tv, xp, xd), float),
                                   xp.shape) for tv in times])
    return a, c0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", _KINDS)
def test_sampling_is_bitwise_the_per_time_loop(kind, dim):
    m = _mesh(dim, time_count=16)
    for seed in range(4):
        coeffs = generate_family(seed, kind, 0.5, 0.2, dim=dim,
                                 xp_length=2 * np.pi)
        for field in (coeffs, coeffs.transposed()):
            for t in (None, 0.3, np.linspace(0.0, 1.0, 7)):
                times = m.time_centers if t is None else np.atleast_1d(t)
                s = sample_on_mesh(field, m, t=t)
                a, c0 = _per_time_sample(field, m, times)
                assert s.a.shape == a.shape and s.c0.shape == c0.shape
                assert np.ascontiguousarray(s.a).tobytes() == a.tobytes()
                assert np.ascontiguousarray(s.c0).tobytes() == c0.tobytes()
                assert np.array_equal(s.times, times)


@pytest.mark.parametrize("name, returned, target", [
    ("a_matrix", "(4, 8, 4, 1, 1)", "(4, 8, 1, 1, 1)"),
    ("c0", "(4,)", "(4, 8, 1)")], ids=["a_matrix", "c0"])
def test_coefficient_that_does_not_broadcast_t_is_refused(name, returned,
                                                          target):
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)

    def bad(t, xp, xd):
        return 1.0 + 0.1 * np.sin(np.ravel(t))     # loses the grid axes

    one = _const(1.0)
    coeffs = CoefficientField(1, 0.5, ((bad if name == "a_matrix" else one,),),
                              bad if name == "c0" else one,
                              lambda xd: 1.0 + 0.0 * np.asarray(xd, float))
    with pytest.raises(ValueError) as info:
        sample_on_mesh(coeffs, m)
    assert str(info.value) == ("%s returned shape %s for t of shape (4, 1, 1);"
                               " it must broadcast to %s"
                               % (name, returned, target))


@pytest.mark.parametrize("kind", ["constant", "xd_only"])
def test_autonomous_field_is_sampled_at_one_time(kind):
    base = generate_family(3, kind, 0.5, 0.2, dim=2, xp_length=2 * np.pi)
    calls = []

    def counted(name, func):
        def closure(t, xp, xd):
            calls.append((name, np.shape(t)))
            return func(t, xp, xd)
        return closure

    a = [[counted("a%d%d" % (i, j), base.a[i][j]) for j in range(2)]
         for i in range(2)]
    coeffs = CoefficientField(2, base.nu, a, counted("c0", base.c0),
                              base.a0, kind=kind)
    m = _mesh(2, time_count=10)
    for t in (None, 0.4, np.linspace(0.0, 1.0, 11)):
        calls.clear()
        s = sample_on_mesh(coeffs, m, t=t)
        assert sorted(calls) == [(name, (1, 1, 1)) for name in
                                 ("a00", "a01", "a10", "a11", "c0")]
        nt = s.times.size
        assert s.a.shape == (nt, 16, 6, 2, 2) and s.c0.shape == (nt, 16, 6)
        assert not s.a.flags.writeable and not s.c0.flags.writeable
        assert np.array_equal(s.a, np.broadcast_to(s.a[:1], s.a.shape))


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
