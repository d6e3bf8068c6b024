import numpy as np
import pytest
from scipy.integrate import quad

from degenlab import (Cylinder, DiscreteField, NormSpec, SpaceTimeSolution,
                      analytic_norm, assemble_weighted_mass, build_mesh,
                      cell_center_gradients, error_norm, hardy_check,
                      levels_norm, model_stiffness,
                      second_difference_fields, slice_norms,
                      trace_decay_check, weighted_norm)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(1.0)
    with pytest.raises(ValueError):
        NormSpec(2.0, weight_exponent=-3.0)           # alpha <= -p-1
    with pytest.raises(ValueError):
        NormSpec(3.0, weight_exponent=-1.0, derivative_order="1_xd")
    with pytest.raises(ValueError):
        NormSpec(2.0, derivative_order="3")
    with pytest.raises(ValueError):
        NormSpec(2.0, region="ball")
    spec = NormSpec(2.0, weight_exponent=-2.0)
    assert spec.summary()["alpha"] == -2.0


def test_power_function_norm_oracles():
    # u = x_d interpolates exactly; closed forms:
    # ||u||_{L_p, x^alpha}^p = 1/(p+1+alpha) on (0,1)
    m = build_mesh(1, 1.0, 64, 2.0)
    u = DiscreteField.sample(m, lambda t, xp, xd: xd)
    cases = [(2.0, 0.0), (3.0, -1.0), (2.0, -2.0), (4.0, 1.5)]
    for p, alpha in cases:
        got = weighted_norm(u, NormSpec(p, weight_exponent=alpha))
        expect = (1.0 / (p + 1 + alpha)) ** (1.0 / p)
        print("p=%g alpha=%g norm=%.15g expect=%.15g" % (p, alpha, got,
                                                         expect))
        assert abs(got - expect) < 1e-12 * expect
    # frozen: L2 norm of x on (0,1) is 3^{-1/2}
    got = weighted_norm(u, NormSpec(2.0))
    assert abs(got - 0.5773502691896257) < 1e-13
    # derivative norm of x is exactly 1 on the unit interval
    got = weighted_norm(u, NormSpec(2.0, derivative_order="1_xd"))
    assert abs(got - 1.0) < 1e-13


def test_norm_homogeneity():
    m = build_mesh(2, 2.0, 10, 1.5, xprime_count=8,
                   xprime_length=2 * np.pi)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((m.M + 1, m.xprime_count))
    vals[0] = vals[-1] = 0.0
    u = DiscreteField(m, vals)
    u3 = DiscreteField(m, 3.0 * vals)
    for order in ("0", "1_xd", "1_full", "2_full"):
        spec = NormSpec(2.5, weight_exponent=0.5, derivative_order=order)
        a = weighted_norm(u, spec)
        b = weighted_norm(u3, spec)
        assert abs(b - 3.0 * a) < 1e-13 * b


def test_region_monotonicity():
    m = build_mesh(2, 4.0, 16, 2.0, xprime_count=12,
                   xprime_length=2 * np.pi, time_step=0.1, time_count=10)
    rng = np.random.default_rng(3)
    vals = np.abs(rng.standard_normal((m.M + 1, m.xprime_count))) + 0.1
    vals[0] = vals[-1] = 0.0
    u = DiscreteField(m, vals)
    whole = weighted_norm(u, NormSpec(2.0))
    small = Cylinder(1.0, 1.0, 0.5)
    big = Cylinder(1.0, 1.0, 1.0)
    ns = weighted_norm(u, NormSpec(2.0, region=small))
    nb = weighted_norm(u, NormSpec(2.0, region=big))
    print("norms", ns, nb, whole)
    assert 0 < ns <= nb <= whole


def test_norms_match_assembled_quadratic_forms():
    # f^T M_w f equals the squared weighted L2 norm; v^T K0 v equals the
    # squared gradient seminorm
    for dim in (1, 2):
        m = build_mesh(dim, 4.0, 12, 2.0,
                       xprime_count=6 if dim == 2 else 1,
                       xprime_length=2 * np.pi if dim == 2 else None)
        rng = np.random.default_rng(dim)
        vals = rng.standard_normal((m.M + 1, m.xprime_count))
        vals[0] = vals[-1] = 0.0
        u = DiscreteField(m, vals)
        v = u.interior_vector()
        Mw = assemble_weighted_mass(m).matrix
        K0 = model_stiffness(m).matrix
        n_w = weighted_norm(u, NormSpec(2.0, weight_exponent=-1.0))
        n_g = weighted_norm(u, NormSpec(2.0, derivative_order="1_full"))
        qm = v @ (Mw @ v)
        qk = v @ (K0 @ v)
        print("dim", dim, "mass", qm, n_w ** 2, "stiff", qk, n_g ** 2)
        # mass is a log closed form, the norm is Gauss quadrature; the
        # steep ratio of the first graded cells limits agreement to ~1e-8
        assert abs(qm - n_w ** 2) < 1e-6 * qm
        assert abs(qk - n_g ** 2) < 1e-11 * qk


def test_smooth_profile_against_dense_quadrature():
    m = build_mesh(1, 1.0, 64, 1.0)
    u = DiscreteField.sample(m, lambda t, xp, xd: xd * np.exp(-xd))
    got = weighted_norm(u, NormSpec(2.0))
    oracle = np.sqrt(quad(lambda x: (x * np.exp(-x)) ** 2, 0, 1)[0])
    print("interp norm", got, "continuum", oracle)
    assert abs(got - oracle) < 0.02 * oracle


def test_trace_decay_slope_oracles():
    m = build_mesh(1, 1.0, 128, 2.0)
    lin = DiscreteField.sample(m, lambda t, xp, xd: xd)
    rep = trace_decay_check(lin, 2.0)
    print("slope(x)", rep.slope)
    assert abs(rep.slope - 1.0) < 1e-10
    assert rep.passed
    frac = DiscreteField.sample(m, lambda t, xp, xd: xd ** 0.6)
    rep2 = trace_decay_check(frac, 2.0)
    print("slope(x^0.6)", rep2.slope)
    assert abs(rep2.slope - 0.6) < 1e-10
    assert rep2.passed            # 0.6 >= 1/2 - 1/2 - 0.05
    with pytest.raises(ValueError):
        trace_decay_check(lin, 1.5)
    summ = rep.summary()
    assert summ["n_slices"] >= 4


def test_second_differences_exact_on_quadratics():
    m = build_mesh(1, 2.0, 20, 2.0)       # graded: unequal neighbours
    vals = (m.xd_nodes ** 2)[:, None]
    ddd, dpd, dpp = second_difference_fields(m, vals)
    assert np.max(np.abs(ddd - 2.0)) < 1e-10
    assert dpd is None and dpp is None


def test_second_differences_mixed_dim2():
    m = build_mesh(2, 2.0, 10, 1.7, xprime_count=8,
                   xprime_length=2 * np.pi)
    rng = np.random.default_rng(5)
    q = rng.standard_normal(m.xprime_count)
    vals = np.outer(m.xd_nodes, q)
    ddd, dpd, dpp = second_difference_fields(m, vals)
    assert np.max(np.abs(ddd)) < 1e-12
    delta = m.xprime_spacing
    dq = (np.roll(q, -1) - np.roll(q, 1)) / (2 * delta)
    # mixed derivative of q(x')*x_d is dq at every interior row
    for j in range(1, m.M):
        assert np.max(np.abs(dpd[j] - dq)) < 1e-10
    dqq = (np.roll(q, 1) - 2 * q + np.roll(q, -1)) / delta ** 2
    assert np.max(np.abs(dpp[3] - m.xd_nodes[3] * dqq)) < 1e-10


def test_second_order_norm_frozen():
    # u = x^2 on (0,1): second difference 2, weight x; integral 4/2 = 2
    m = build_mesh(1, 1.0, 8, 1.0)
    u = DiscreteField(m, (m.xd_nodes ** 2)[:, None])
    got = weighted_norm(u, NormSpec(2.0, 1.0, "2_full"))
    print("second order norm", got)
    assert abs(got - np.sqrt(2.0)) < 1e-12


def test_hardy_check_linear_profile():
    m = build_mesh(1, 1.0, 32, 2.0)
    u = DiscreteField.sample(m, lambda t, xp, xd: xd)
    rep = hardy_check(u, 2.0)
    assert abs(rep.ratio - 1.0) < 1e-12
    assert rep.passed
    bump = DiscreteField.sample(m, lambda t, xp, xd: xd * (1 - xd))
    rep2 = hardy_check(bump, 3.0)
    print("hardy ratio", rep2.ratio, "bound", rep2.bound)
    assert rep2.passed
    assert rep2.ratio <= 1.5 + 0.05


def test_solution_norm_rectangle_rule_and_skip():
    m = build_mesh(1, 1.0, 4, 1.0, time_step=0.25, time_count=4)
    vals = np.zeros((5, 5, 1))
    prof = m.xd_nodes * (1 - m.xd_nodes)
    for n in range(5):
        vals[n, :, 0] = prof
    sol = SpaceTimeSolution(m, vals, m.time_levels)
    u = DiscreteField(m, vals[0])
    space = weighted_norm(u, NormSpec(2.0))
    full = weighted_norm(sol, NormSpec(2.0))
    half = weighted_norm(sol, NormSpec(2.0), skip_initial=2)
    assert abs(full - space) < 1e-13          # T = 1
    assert abs(half - space * np.sqrt(0.5)) < 1e-13
    alt = levels_norm(m, vals[1:], 0.25, NormSpec(2.0))
    assert abs(alt - full) < 1e-14


def test_analytic_norm_matches_rectangle_oracle():
    m = build_mesh(1, 1.0, 32, 1.0, time_step=0.125, time_count=8)
    func = lambda t, xp, xd: np.sin(t) * xd * (1 - xd)
    got = analytic_norm(m, func, NormSpec(2.0))
    total = sum(0.125 * np.sin(m.time_levels[k + 1]) ** 2 / 30.0
                for k in range(8))
    assert abs(got - np.sqrt(total)) < 1e-12
    with pytest.raises(ValueError):
        analytic_norm(m, func, NormSpec(2.0, derivative_order="1_xd"))
    got_skip = analytic_norm(m, func, NormSpec(2.0), skip_initial=6)
    tail = sum(0.125 * np.sin(m.time_levels[k + 1]) ** 2 / 30.0
               for k in range(6, 8))
    assert abs(got_skip - np.sqrt(tail)) < 1e-12


def test_error_norm_zero_for_reproduced_linears():
    m = build_mesh(2, 2.0, 8, 1.0, xprime_count=6, xprime_length=3.0,
                   time_step=0.5, time_count=2)
    a, b = 0.7, 0.0        # keep x'-periodicity trivial
    u = DiscreteField.sample(m, lambda t, xp, xd: a * xd + b)
    exact = {"u": lambda t, xp, x: a * x + b,
             "du": (lambda t, xp, x: 0.0 * x, lambda t, xp, x:
                    a + 0.0 * x)}
    e0 = error_norm(u, exact, NormSpec(2.0))
    e1 = error_norm(u, exact, NormSpec(2.0, derivative_order="1_full"))
    assert e0 < 1e-13
    assert e1 < 1e-13


def _random_solution(dim, seed):
    if dim == 1:
        m = build_mesh(1, 2.0, 10, 1.5, time_step=0.2, time_count=5)
    else:
        m = build_mesh(2, 2.0, 6, 1.5, xprime_count=5,
                       xprime_length=2 * np.pi, time_step=0.2, time_count=5)
    vals = np.random.default_rng(seed).standard_normal(
        (m.time_count + 1, m.M + 1, m.xprime_count))
    vals[:, 0, :] = 0.0
    vals[:, -1, :] = 0.0
    return SpaceTimeSolution(m, vals, m.time_levels)


@pytest.mark.parametrize("dim", [1, 2])
def test_error_against_zero_is_the_plain_norm(dim):
    # one kernel: the error of u_h against zero callables is ||u_h|| exactly
    sol = _random_solution(dim, dim)
    zero = lambda t, xp, x: np.zeros_like(x)
    zero_exact = {"u": zero, "du": (zero,) * dim}
    cyl = Cylinder(0.7, 0.8, 0.9, center_xprime=1.0)
    for order, alpha in (("0", -1.0), ("1_xd", 0.5), ("1_full", 0.0)):
        for region in (None, cyl):
            spec = NormSpec(2.0, alpha, order, region)
            fld = sol.field_at(3)
            assert error_norm(fld, zero_exact, spec) == \
                weighted_norm(fld, spec)
            assert error_norm(sol, zero_exact, spec, skip_initial=1) == \
                weighted_norm(sol, spec, skip_initial=1)


@pytest.mark.parametrize("dim", [1, 2])
def test_analytic_norm_is_the_error_of_the_zero_solution(dim):
    m = _random_solution(dim, 0).mesh
    zero_solution = SpaceTimeSolution(
        m, np.zeros((m.time_count + 1, m.M + 1, m.xprime_count)),
        m.time_levels)
    func = lambda t, xp, xd: (1 + t) * np.sin(xp + xd) * xd
    cyl = Cylinder(0.7, 0.8, 0.9, center_xprime=1.0)
    for region in (None, cyl):
        spec = NormSpec(3.0, -1.5, "0", region)
        for k in (0, 2):
            assert analytic_norm(m, func, spec, skip_initial=k) == \
                error_norm(zero_solution, {"u": func}, spec, skip_initial=k)


def test_error_norm_rejects_second_order():
    sol = _random_solution(1, 0)
    zero = lambda t, xp, x: np.zeros_like(x)
    with pytest.raises(ValueError, match="orders up to 1"):
        error_norm(sol, {"u": zero, "du": (zero,)},
                   NormSpec(2.0, 1.0, "2_full"))


def test_slice_norms_circle_oracle():
    m = build_mesh(2, 1.0, 4, 1.0, xprime_count=64,
                   xprime_length=2 * np.pi)
    u = DiscreteField.sample(m, lambda t, xp, xd: np.sin(xp)
                             + 0.0 * xd)
    xd, s = slice_norms(u, 2.0)
    assert xd.shape == s.shape == (5,)
    assert np.max(np.abs(s - np.sqrt(np.pi))) < 0.01 * np.sqrt(np.pi)


def test_cell_center_gradients_oracles():
    m = build_mesh(2, 2.0, 8, 1.5, xprime_count=8, xprime_length=2 * np.pi)
    lin = DiscreteField.sample(m, lambda t, xp, xd: xd)
    g = cell_center_gradients(m, lin.values)
    assert g.shape == (8, 8, 2)
    assert np.max(np.abs(g[:, :, 1] - 1.0)) < 1e-13
    assert np.max(np.abs(g[:, :, 0])) < 1e-13
    q = np.sin(m.xprime_nodes)
    u2 = DiscreteField(m, np.tile(q, (m.M + 1, 1)))
    g2 = cell_center_gradients(m, u2.values)
    dq = (np.roll(q, -1) - q) / m.xprime_spacing
    assert np.max(np.abs(g2[:, :, 0] - dq[None, :])) < 1e-13
    assert np.max(np.abs(g2[:, :, 1])) < 1e-13
