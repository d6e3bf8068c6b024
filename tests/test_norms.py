import re

import numpy as np
import pytest
from scipy.integrate import quad

import degenlab.norms
from degenlab import (Cylinder, DiscreteField, NormSpec, SpaceTimeSolution,
                      analytic_norm, assemble_weighted_mass, build_mesh,
                      cell_center_gradients, cells_in_cylinder, error_norm,
                      levels_norm, model_stiffness,
                      sample_nodes, second_difference_fields,
                      second_difference_magnitude, slice_norms,
                      weighted_norm)


def _sampled(mesh, func):
    """The field of func's nodal samples at t = 0."""
    return DiscreteField(mesh, sample_nodes(mesh, func, 0.0))


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
    assert spec.weight_exponent == -2.0


def test_power_function_norm_oracles():
    # u = x_d interpolates exactly; closed forms:
    # ||u||_{L_p, x^alpha}^p = 1/(p+1+alpha) on (0,1)
    m = build_mesh(1, 1.0, 64, 2.0)
    u = _sampled(m, lambda t, xp, xd: xd)
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
        v = vals[1:-1].ravel()
        Mw = assemble_weighted_mass(m)
        K0 = model_stiffness(m)
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
    u = _sampled(m, lambda t, xp, xd: xd * np.exp(-xd))
    got = weighted_norm(u, NormSpec(2.0))
    oracle = np.sqrt(quad(lambda x: (x * np.exp(-x)) ** 2, 0, 1)[0])
    print("interp norm", got, "continuum", oracle)
    assert abs(got - oracle) < 0.02 * oracle


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


def test_solution_norm_rectangle_rule_and_skip():
    m = build_mesh(1, 1.0, 4, 1.0, time_step=0.25, time_count=4)
    vals = np.zeros((5, 5, 1))
    prof = m.xd_nodes * (1 - m.xd_nodes)
    for n in range(5):
        vals[n, :, 0] = prof
    sol = SpaceTimeSolution(m, vals)
    u = DiscreteField(m, vals[0])
    space = weighted_norm(u, NormSpec(2.0))
    full = weighted_norm(sol, NormSpec(2.0))
    half = weighted_norm(sol, NormSpec(2.0), skip_initial=2)
    assert abs(full - space) < 1e-13          # T = 1
    assert abs(half - space * np.sqrt(0.5)) < 1e-13
    alt = levels_norm(m, vals[1:], NormSpec(2.0))
    assert abs(alt - full) < 1e-14
    # the stack's levels are not the mesh's: a region's cells go by
    # space_cells, and a spec with a region is refused by name
    with pytest.raises(ValueError, match="not from spec.region"):
        levels_norm(m, vals[1:], NormSpec(2.0, region=Cylinder(1.0, 0.0,
                                                               0.5)))


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
    u = _sampled(m, lambda t, xp, xd: a * xd + b)
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
    return SpaceTimeSolution(m, vals)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_kept_norm_is_bitwise_a_fresh_integration(dim, monkeypatch):
    sol = _random_solution(dim, 5)
    cyl = Cylinder(0.7, 0.8, 0.9, center_xprime=1.0)
    asks = [(NormSpec(p, alpha, order, region), skip)
            for p in (2.0, 3.0)
            for order, alpha in (("0", -1.0), ("1_xd", 0.5), ("1_full", 0.0),
                                 ("2_full", 1.0))
            for region, skip in ((None, 0), (None, 2), (cyl, 0))]
    first = [weighted_norm(sol, spec, skip) for spec, skip in asks]
    calls = []
    real = degenlab.norms._level_powers
    monkeypatch.setattr(degenlab.norms, "_level_powers",
                        lambda *args: calls.append(args) or real(*args))
    # asked again, with specs built anew: kept, no integration
    again = [weighted_norm(sol, NormSpec(spec.p, spec.weight_exponent,
                                         spec.derivative_order, spec.region),
                           skip) for spec, skip in asks]
    assert not calls
    # a new solution on the same levels integrates each norm afresh
    fresh = SpaceTimeSolution(sol.mesh, sol.levels)
    want = [weighted_norm(fresh, spec, skip) for spec, skip in asks]
    assert calls
    assert [x.hex() for x in first] == [x.hex() for x in again] == \
        [x.hex() for x in want]
    # another region is another norm
    other = NormSpec(2.0, -1.0, "0", Cylinder(0.7, 0.8, 0.5, 1.0))
    assert asks[2][0].region is cyl
    assert weighted_norm(sol, other) != weighted_norm(sol, asks[2][0])


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
            skip = 1 if region is None else 0
            assert error_norm(sol, zero_exact, spec, skip_initial=skip) == \
                weighted_norm(sol, spec, skip_initial=skip)


@pytest.mark.parametrize("dim", [1, 2])
def test_analytic_norm_is_the_error_of_the_zero_solution(dim):
    m = _random_solution(dim, 0).mesh
    zero_solution = SpaceTimeSolution(
        m, np.zeros((m.time_count + 1, m.M + 1, m.xprime_count)))
    func = lambda t, xp, xd: (1 + t) * np.sin(xp + xd) * xd
    cyl = Cylinder(0.7, 0.8, 0.9, center_xprime=1.0)
    for region in (None, cyl):
        spec = NormSpec(3.0, -1.5, "0", region)
        for k in ((0, 2) if region is None else (0,)):
            assert analytic_norm(m, func, spec, skip_initial=k) == \
                error_norm(zero_solution, {"u": func}, spec, skip_initial=k)


_REGION_SKIP = "skip_initial = 2 with spec.region"
_FIELD_SKIP = "skip_initial = 2 with a DiscreteField"


def test_weighted_norm_refuses_a_skip_it_would_ignore():
    # a region picks its own time cells, and a field has none to skip
    sol = _random_solution(2, 0)
    cyl = Cylinder(0.7, 0.8, 0.9, center_xprime=1.0)
    with pytest.raises(ValueError, match=_REGION_SKIP):
        weighted_norm(sol, NormSpec(2.0, 0.0, "0", region=cyl),
                      skip_initial=2)
    with pytest.raises(ValueError, match=_FIELD_SKIP):
        weighted_norm(sol.field_at(1), NormSpec(2.0), skip_initial=2)


def test_error_norm_refuses_a_skip_it_would_ignore():
    sol = _random_solution(1, 0)
    zero = lambda t, xp, x: np.zeros_like(x)
    cyl = Cylinder(0.7, 0.0, 0.9)
    with pytest.raises(ValueError, match=_REGION_SKIP):
        error_norm(sol, {"u": zero}, NormSpec(2.0, region=cyl),
                   skip_initial=2)
    with pytest.raises(ValueError, match=_FIELD_SKIP):
        error_norm(sol.field_at(1), {"u": zero}, NormSpec(2.0),
                   skip_initial=2)


def test_analytic_norm_refuses_a_skip_with_a_region():
    m = _random_solution(1, 0).mesh
    with pytest.raises(ValueError, match=_REGION_SKIP):
        analytic_norm(m, lambda t, xp, xd: xd,
                      NormSpec(2.0, region=Cylinder(0.7, 0.0, 0.9)),
                      skip_initial=2)


def test_slice_norms_refuse_a_skip_of_a_field():
    sol = _random_solution(2, 0)
    with pytest.raises(ValueError, match=_FIELD_SKIP):
        slice_norms(sol.field_at(1), 2.0, skip_initial=2)


def test_error_norm_rejects_second_order():
    sol = _random_solution(1, 0)
    zero = lambda t, xp, x: np.zeros_like(x)
    with pytest.raises(ValueError, match="orders up to 1"):
        error_norm(sol, {"u": zero, "du": (zero,)},
                   NormSpec(2.0, 1.0, "2_full"))


@pytest.mark.parametrize("dim", [1, 2])
def test_level_chunking_leaves_every_norm_bitwise(monkeypatch, dim):
    # 5 levels (4 after skip_initial=1 or in the cylinder's window): chunks
    # of one level, and of three levels, which divides neither count
    sol = _random_solution(dim, 7)
    m = sol.mesh
    chunks = []

    def u(t, xp, x):
        chunks.append(np.shape(t)[0])
        return (1 + t) * np.sin(xp + x) * x

    dux = lambda t, xp, x: (1 + t) * (np.sin(xp + x) + x * np.cos(xp + x))
    dup = lambda t, xp, x: (1 + t) * x * np.cos(xp + x)
    exact = {"u": u, "du": (dup, dux) if dim == 2 else (dux,)}
    cyl = Cylinder(0.7, 0.8, 0.9, center_xprime=1.0)

    def all_norms(spec, space_cells):
        skip = 1 if spec.region is None else 0
        out = [weighted_norm(sol, spec),
               weighted_norm(sol, spec, skip_initial=skip),
               weighted_norm(sol.field_at(2), spec),
               levels_norm(m, sol.levels[1:], NormSpec(
                   spec.p, spec.weight_exponent, spec.derivative_order),
                   space_cells)]
        if spec.derivative_order != "2_full":
            out.append(error_norm(sol, exact, spec, skip_initial=skip))
        if spec.derivative_order == "0":
            out.append(analytic_norm(m, u, spec))
        return out

    for order in ("0", "1_xd", "1_full", "2_full"):
        for region in (None, cyl):
            spec = NormSpec(3.0, 0.5, order, region)
            space_cells = (None if region is None
                           else cells_in_cylinder(m, region).space_cells)
            n_cells = m.n_space_cells if region is None else len(space_cells)
            # 8 Gauss points per cell along x_d, and along x' in dim 2
            per_level = n_cells * 8 * (8 if dim == 2 else 1)
            want = all_norms(spec, space_cells)
            for budget in (1, 3 * per_level):
                with monkeypatch.context() as mp:
                    mp.setattr(degenlab.norms, "_CHUNK_POINTS", budget)
                    assert all_norms(spec, space_cells) == want
                    if order == "0" and region is None:
                        chunks.clear()
                        analytic_norm(m, u, spec)
                        assert chunks == ([1] * 5 if budget == 1 else [3, 2])


def test_exact_callable_must_broadcast_the_chunk_times():
    sol = _random_solution(1, 0)            # 5 levels, 10 cells
    flat = lambda t, xp, x: np.ravel(t)[:, None] * np.ravel(x)
    with pytest.raises(ValueError, match=re.escape(
            "returned shape (5, 80) for a chunk of shape (5, 10, 8, 1)")):
        error_norm(sol, {"u": flat}, NormSpec(2.0))


def _reference_level_powers(mesh, levels, spec, space_cells, exact, times):
    """The unplanned (levels, cells, 8, q) kernel that _level_powers
    replaced: geometry built per call, four corner terms in dim 2 and in
    dim 1 the two x_d corners, each of unit x' weight."""
    if spec.derivative_order == "2_full":
        mag = second_difference_magnitude(mesh, levels)
        inner = NormSpec(spec.p, spec.weight_exponent, "0")
        return _reference_level_powers(mesh, mag, inner, space_cells, None,
                                       times)
    zero = lambda t, xp, x: 0.0
    exact = exact or {"u": zero, "du": (zero, zero)}
    p, alpha, order = spec.p, spec.weight_exponent, spec.derivative_order
    npc = mesh.xprime_count
    flat = (np.arange(mesh.n_space_cells) if space_cells is None
            else np.asarray(space_cells, int))
    j, m = flat // npc, flat % npc
    m1 = (m + 1) % npc
    xl, h = mesh.xd_nodes[j], mesh.xd_widths[j]
    delta = mesh.xprime_spacing if mesh.dim == 2 else 1.0
    glx, glw = np.polynomial.legendre.leggauss(8)
    s, ws = 0.5 * (glx + 1.0), 0.5 * glw
    q, wq = (s, ws) if mesh.dim == 2 else (np.array([0.5]), np.array([1.0]))
    S, Q = s[None, :, None], q[None, None, :]
    x = xl[:, None, None] + h[:, None, None] * S
    xp = (mesh.xprime_nodes[m][:, None, None] + delta * Q if mesh.dim == 2
          else np.zeros_like(x))
    xa = x ** alpha
    w2 = ws[None, :, None] * wq[None, None, :]
    cellsize = (h * delta)[:, None, None]
    t = times[:, None, None, None]
    corners = levels[:, [j, j + 1, j, j + 1], [m, m, m1, m1]]
    u00, u10, u01, u11 = np.moveaxis(corners, 1, 0)[..., None, None]
    if order == "0":
        g = (u00 * (1 - S) * (1 - Q) + u10 * S * (1 - Q)
             + u01 * (1 - S) * Q + u11 * S * Q) if mesh.dim == 2 \
            else u00 * (1 - S) + u10 * S
        core = np.abs(g - exact["u"](t, xp, x)) ** p
    else:
        du = exact["du"]
        ed = ((u10 - u00) * (1 - Q) + (u11 - u01) * Q) if mesh.dim == 2 \
            else u10 - u00
        ed = ed / h[:, None, None] - du[-1](t, xp, x)
        if order == "1_xd":
            core = np.abs(ed) ** p
        else:
            ep = 0.0
            if mesh.dim == 2:
                ep = ((u01 - u00) * (1 - S) + (u11 - u10) * S) / delta \
                    - du[0](t, xp, x)
            core = (ed * ed + ep * ep) ** (p / 2)
    cell = core * xa * w2 * cellsize
    return cell.reshape(len(levels), -1).sum(axis=1)


def _battery_exacts(dim):
    """Two exact solutions: one varying in t, one constant in t (its
    values broadcast against the chunk without a level axis)."""
    u = lambda t, xp, x: (1 + t) * np.sin(xp + x) * x
    dux = lambda t, xp, x: (1 + t) * (np.sin(xp + x) + x * np.cos(xp + x))
    dup = lambda t, xp, x: (1 + t) * x * np.cos(xp + x)
    lin = {"u": lambda t, xp, x: 0.7 * x - 0.1,
           "du": (lambda t, xp, x: 0.2 + 0.0 * xp,
                  lambda t, xp, x: 0.7 + 0.0 * x)}
    if dim == 1:
        lin["du"] = lin["du"][1:]
    return ({"u": u, "du": (dup, dux) if dim == 2 else (dux,)}, lin)


@pytest.mark.parametrize("dim", [1, 2])
def test_level_powers_are_bitwise_the_unplanned_kernel(dim):
    sol = _random_solution(dim, 11)
    m = sol.mesh
    levels, times = sol.levels, sol.times
    cyl = Cylinder(0.7, 0.8, 0.9, center_xprime=1.0)
    regions = (None, cells_in_cylinder(m, cyl).space_cells)
    cases = [("0", a) for a in (-1.5, 0.0, 1.0)]
    cases += [(o, a) for o in ("1_xd", "1_full", "2_full") for a in (0.0, 1.0)]
    checked = 0
    for order, alpha in cases:
        exacts = (None,)
        if order != "2_full":
            exacts += _battery_exacts(dim)
        for p in (1.5, 2.0, 3.0, 4.0):
            spec = NormSpec(p, alpha, order)
            for cells in regions:
                for exact in exacts:
                    got = degenlab.norms._level_powers(m, levels, spec, cells,
                                                      exact, times)
                    want = _reference_level_powers(m, levels, spec, cells,
                                                   exact, times)
                    assert got.tobytes() == want.tobytes(), \
                        (order, alpha, p, cells is None, exact is None)
                    checked += 1
    print("dim %d: %d norms (%d level powers) bitwise equal"
          % (dim, checked, checked * len(levels)))
    assert checked >= 100


def test_norm_plan_is_built_once_and_read_only():
    degenlab.mesh._interned.cache_clear()
    sol = _random_solution(2, 3)
    spec = NormSpec(3.0, 0.5, "1_full", Cylinder(0.7, 0.8, 0.9, 1.0))
    plans = lambda: {k: v for k, v in
                     sol.mesh._tables.items()
                     if k[0] == "norm plan"}
    before = plans()
    first = weighted_norm(sol, spec)
    built = {k: v for k, v in plans().items() if k not in before}
    assert len(built) == 1
    assert weighted_norm(sol, spec) == first
    assert error_norm(sol, _battery_exacts(2)[0], spec) > 0
    assert plans() == {**before, **built}
    plan, = built.values()
    arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 10
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("dim", [1, 2])
def test_second_differences_of_a_stack_are_per_level(dim):
    sol = _random_solution(dim, 4)
    stack = second_difference_magnitude(sol.mesh, sol.levels)
    each = [second_difference_magnitude(sol.mesh, v) for v in sol.levels]
    assert stack.tobytes() == np.stack(each).tobytes()


def _slice_norms_per_node(field, p, skip_initial):
    """The per-(node, level) loop that slice_norms batches."""
    mesh, w = field.mesh, 0.5 * np.polynomial.legendre.leggauss(8)[1]
    s = 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0)
    out = []
    for j in range(mesh.M + 1):
        acc = 0.0
        for n in range(skip_initial + 1, field.levels.shape[0]):
            row = field.levels[n, j]
            if mesh.dim == 1:
                power = float(np.abs(row[0]) ** p)
            else:
                g = row[:, None] * (1 - s) + np.roll(row, -1)[:, None] * s
                power = float(np.sum(np.abs(g) ** p * w)
                              * mesh.xprime_spacing)
            acc += field.dt * power
        out.append(acc ** (1.0 / p))
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_slice_norms_are_bitwise_the_per_node_loop(dim):
    # enough nodes and levels that a power differing in the last bit from
    # the C library's pow shows in some slice norm
    if dim == 1:
        m = build_mesh(1, 2.0, 64, 1.5, time_step=0.05, time_count=16)
    else:
        m = build_mesh(2, 2.0, 16, 1.5, xprime_count=6,
                       xprime_length=2 * np.pi, time_step=0.05, time_count=8)
    vals = np.random.default_rng(dim).standard_normal(
        (m.time_count + 1, m.M + 1, m.xprime_count))
    vals[:, 0] = vals[:, -1] = 0.0
    sol = SpaceTimeSolution(m, vals)
    for p in (2.0, 3.0, 4.0):
        for k in (0, 2):
            assert slice_norms(sol, p, k)[1].tolist() == \
                _slice_norms_per_node(sol, p, k)


def test_slice_norms_circle_oracle():
    m = build_mesh(2, 1.0, 4, 1.0, xprime_count=64,
                   xprime_length=2 * np.pi)
    u = _sampled(m, lambda t, xp, xd: np.sin(xp) + 0.0 * xd)
    xd, s = slice_norms(u, 2.0)
    assert xd.shape == s.shape == (5,)
    assert np.max(np.abs(s - np.sqrt(np.pi))) < 0.01 * np.sqrt(np.pi)


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_center_gradients_of_a_stack_are_per_level(dim):
    sol = _random_solution(dim, 6)
    stack = cell_center_gradients(sol.mesh, sol.levels)
    each = [cell_center_gradients(sol.mesh, v) for v in sol.levels]
    assert stack.tobytes() == np.stack(each).tobytes()


def test_cell_center_gradients_oracles():
    m = build_mesh(2, 2.0, 8, 1.5, xprime_count=8, xprime_length=2 * np.pi)
    lin = _sampled(m, lambda t, xp, xd: xd)
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
