"""The sampling contract: every callable of the package is evaluated on the
broadcastable axes of its grid, x' (1, P) and x_d (rows, 1), with t on
leading axes, and gives bitwise what it gives on the full broadcast grid;
samples come back with the grid's full shape."""

import numpy as np
import pytest

from degenlab import (build_mesh, default_case, generate_family, node_grid,
                      sample_nodes, sample_on_mesh, smooth_random_closure)
from degenlab.coefficients import KINDS
from degenlab.mms import ManufacturedCase


def _mesh(dim):
    if dim == 1:
        return build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    return build_mesh(2, 4.0, 6, 2.0, xprime_count=5,
                      xprime_length=2 * np.pi, time_step=0.25, time_count=4)


def _axes(mesh):
    """The node axes and the cell-centre axes of the mesh."""
    return [node_grid(mesh),
            (mesh.xprime_centers[None, :], mesh.xd_centers[:, None])]


def _families(dim, xl):
    """(callable, trailing shape) for every callable family the package
    builds: synthetic sources, the manufactured case's closures in every
    mode, and the coefficients of every generated kind."""
    for seed in (0, 1, 2):
        for envelope in (True, False):
            yield smooth_random_closure(seed, dim, xp_length=xl,
                                        envelope=envelope), ()
    for mode in ManufacturedCase.MODES:
        case = default_case(dim, lam=2.0, mode=mode)
        F, f = case.synthesize_sources()
        funcs = [case.u, *case.du, *(Fi for Fi in F or () if Fi), f]
        if mode == "f_only":
            funcs.append(case.synthesize_f_t())
        for func in funcs:
            if func is not None:
                yield func, ()
    for kind in KINDS:
        for seed in (0, 1):
            coeffs = generate_family(seed, kind, 0.5, 0.2, dim=dim,
                                     xp_length=xl)
            yield coeffs.a_matrix, (dim, dim)
            yield coeffs.c0, ()


@pytest.mark.parametrize("dim", [1, 2])
def test_every_family_on_its_axes_is_bitwise_its_full_grid(dim):
    mesh = _mesh(dim)
    times = mesh.time_levels[:, None, None]
    for func, trailing in _families(dim, mesh.xprime_length):
        for xp, xd in _axes(mesh):
            xp_full, xd_full = np.broadcast_arrays(xp, xd)
            shape = times.shape[:1] + xd_full.shape + trailing
            on_axes = np.broadcast_to(func(times, xp, xd), shape)
            on_grid = np.broadcast_to(func(times, xp_full, xd_full), shape)
            assert on_axes.tobytes() == on_grid.tobytes()


def _reference_closure(seed, dim, xp_length=1.0, envelope=True):
    """smooth_random_closure as first written, a new array at every step:
    the bitwise reference of the in-place sum."""
    n_terms = 4
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1.0, 1.0, size=n_terms)
    om_t = rng.uniform(0.5, 3.0, size=n_terms)
    ph_t = rng.uniform(0, 2 * np.pi, size=n_terms)
    om_d = rng.uniform(0.5, 2.5, size=n_terms)
    ph_d = rng.uniform(0, 2 * np.pi, size=n_terms)
    k_p = rng.integers(1, 3, size=n_terms)
    ph_p = rng.uniform(0, 2 * np.pi, size=n_terms)
    two_pi_over_L = 2 * np.pi / xp_length

    def closure(t, xp, xd):
        t = np.asarray(t, float)
        xp = np.asarray(xp, float)
        xd = np.asarray(xd, float)
        acc = 0.0
        for k in range(n_terms):
            term = amp[k] * np.sin(om_t[k] * t + ph_t[k]) \
                * np.cos(om_d[k] * xd + ph_d[k])
            if dim == 2:
                term = term * np.cos(k_p[k] * two_pi_over_L * xp + ph_p[k])
            acc = acc + term
        if envelope:
            acc = acc * xd * np.exp(-xd)
        return acc

    return closure


@pytest.mark.parametrize("dim", [1, 2])
def test_the_in_place_sum_is_bitwise_the_reference(dim):
    # t = 0 and x_d = 0 are on the grid: the envelope's zeros keep the
    # sign of the sum, and tobytes tells -0.0 from 0.0
    mesh = _mesh(dim)
    xl = mesh.xprime_length
    times = mesh.time_levels[:, None, None]
    assert times[0, 0, 0] == 0.0 and mesh.xd_nodes[0] == 0.0
    xp, xd = node_grid(mesh)
    points = [(times, xp, xd), (times, *np.broadcast_arrays(xp, xd)),
              (0.0, xp, xd), (0.3, 1.0, 0.0)]
    signs = set()
    for seed in range(50):
        for envelope in (True, False):
            got = smooth_random_closure(seed, dim, xp_length=xl,
                                        envelope=envelope)
            want = _reference_closure(seed, dim, xp_length=xl,
                                      envelope=envelope)
            for t, x1, x2 in points:
                a = np.asarray(got(t, x1, x2))
                b = np.asarray(want(t, x1, x2))
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            zeros = want(times, xp, xd)[..., 0, :]
            signs.update(np.signbit(zeros[zeros == 0]).tolist())
    assert signs == {False, True}


@pytest.mark.parametrize("dim", [1, 2])
def test_node_grid_gives_the_axes_of_the_node_grid(dim):
    mesh = _mesh(dim)
    xp, xd = node_grid(mesh)
    assert xp.shape == (1, mesh.xprime_count)
    assert xd.shape == (mesh.M + 1, 1)
    assert np.array_equal(xp[0], mesh.xprime_nodes)
    assert np.array_equal(xd[:, 0], mesh.xd_nodes)


@pytest.mark.parametrize("dim", [1, 2])
def test_sample_nodes_returns_full_writeable_arrays_it_owns(dim):
    mesh = _mesh(dim)
    grid = (mesh.M + 1, mesh.xprime_count)
    times = mesh.time_levels
    funcs = [smooth_random_closure(1, dim, xp_length=mesh.xprime_length),
             lambda t, xp, xd: 2.0, lambda t, xp, xd: xd,
             lambda t, xp, xd: xp + 0.0 * t]
    for func in funcs:
        for t, shape in ((0.3, grid),
                         (times[:, None, None], (times.size,) + grid)):
            out = sample_nodes(mesh, func, t)
            assert out.shape == shape
            assert out.flags.writeable and out.flags.owndata
            assert out.flags.c_contiguous
            assert not np.shares_memory(out, mesh.xd_nodes)
            assert not np.shares_memory(out, mesh.xprime_nodes)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_sample_on_mesh_returns_full_read_only_views(dim, kind):
    mesh = _mesh(dim)
    coeffs = generate_family(1, kind, 0.5, 0.2, dim=dim,
                             xp_length=mesh.xprime_length)
    cells = (mesh.M, mesh.xprime_count)
    for t, nt in ((None, mesh.time_count), (0.0, 1),
                  (np.array([0.0, 0.5]), 2)):
        sample = sample_on_mesh(coeffs, mesh, t=t)
        assert sample.a.shape == (nt,) + cells + (dim, dim)
        assert sample.c0.shape == (nt,) + cells
        assert sample.a0.shape == (mesh.M,)
        assert not sample.a.flags.writeable
        assert not sample.c0.flags.writeable
