import dataclasses
import gc
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import degenlab.assembly
import degenlab.coefficients
import degenlab.mesh
import degenlab.norms
import degenlab.solver
from degenlab import (Cylinder, LoadAssembler, Marcher, NormSpec, TensorMesh,
                      build_mesh, cells_in_cylinder, generate_family, oscillation_scan,
                      smooth_random_closure, weighted_norm)
from degenlab.cli import parse_config, run
from test_golden import CONFIGS


def test_graded_nodes_match_power_law():
    # node j sits at L * (j/M)^kappa -- direct formula check
    m = build_mesh(1, 4.0, 8, 2.0)
    expected = 4.0 * (np.arange(9) / 8.0) ** 2.0
    assert np.allclose(m.xd_nodes, expected, rtol=0, atol=1e-15)
    assert m.xd_nodes[0] == 0.0
    assert m.xd_nodes[-1] == 4.0


def test_widths_sum_to_length():
    for kappa in (1.0, 1.5, 2.0, 3.0):
        m = build_mesh(1, 4.0, 31, kappa)
        assert np.all(m.xd_widths > 0)
        assert abs(m.xd_widths.sum() - 4.0) < 1e-12


def test_uniform_when_grading_one():
    m = build_mesh(1, 2.0, 10, 1.0)
    assert np.allclose(m.xd_widths, 0.2, rtol=0, atol=1e-15)


def test_counts_1d():
    m = build_mesh(1, 4.0, 16, 2.0, time_step=0.5, time_count=4)
    assert m.n_nodes == 17
    assert m.n_interior == 15
    assert m.n_space_cells == 16
    assert m.total_time == 2.0
    assert len(m.time_levels) == 5


def test_counts_2d():
    m = build_mesh(2, 4.0, 8, 2.0, xprime_count=6, xprime_length=2 * np.pi)
    assert m.n_nodes == 9 * 6
    assert m.n_interior == 7 * 6
    assert m.n_space_cells == 8 * 6
    assert abs(m.xprime_spacing - 2 * np.pi / 6) < 1e-15


def test_refined_halves_widths_and_dt():
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.25, time_count=4)
    r = m.refined()
    assert r.M == 16
    assert abs(r.time_step - 0.125) < 1e-15
    assert r.time_count == 8
    assert abs(r.total_time - m.total_time) < 1e-14
    # graded refinement keeps the same node family: coarse nodes reappear
    assert np.allclose(r.xd_nodes[::2], m.xd_nodes, atol=1e-14)


def test_xprime_distance_wraps():
    m = build_mesh(2, 4.0, 4, 1.0, xprime_count=8, xprime_length=2 * np.pi)
    d = m.xprime_distance(np.array([0.1]), 2 * np.pi - 0.1)
    assert abs(d[0] - 0.2) < 1e-12


def test_bad_mesh_args_rejected():
    with pytest.raises(ValueError):
        build_mesh(1, 4.0, 1, 2.0)          # too few cells
    with pytest.raises(ValueError):
        build_mesh(1, -1.0, 8, 2.0)
    with pytest.raises(ValueError):
        build_mesh(1, 4.0, 8, 0.0)          # grading must be >= 1
    with pytest.raises(ValueError):
        build_mesh(3, 4.0, 8, 2.0)
    with pytest.raises(ValueError):
        build_mesh(2, 4.0, 8, 2.0, xprime_count=1)


def test_nodes_are_write_locked():
    m = build_mesh(1, 4.0, 8, 2.0)
    with pytest.raises((ValueError, RuntimeError)):
        m.xd_nodes[0] = 1.0


def test_mesh_refuses_assignment():
    m = build_mesh(1, 4.0, 8, 2.0, time_step=0.5, time_count=2)
    with pytest.raises(AttributeError,
                       match="TensorMesh is immutable: cannot set 'time_step'"):
        m.time_step = 0.25
    with pytest.raises(AttributeError, match="cannot set 'extra'"):
        m.extra = 1
    with pytest.raises(AttributeError, match="cannot delete 'dim'"):
        del m.dim
    assert m.time_step == 0.5 and m.dim == 1 and not hasattr(m, "extra")


def test_build_mesh_interns_one_mesh_per_geometry():
    m = build_mesh(2, 4.0, 8, 2.0, xprime_count=6, xprime_length=2 * np.pi,
                   time_step=0.25, time_count=4)
    assert build_mesh(2, 4, 8.0, 2, xprime_count=6.0,
                      xprime_length=2 * np.pi, time_step=0.25,
                      time_count=4) is m
    assert m.refined() is m.refined()
    assert m.refined() is not m
    assert build_mesh(2, 4.0, 8, 2.0, xprime_count=6,
                      xprime_length=2 * np.pi, time_step=0.25,
                      time_count=5) is not m
    # in d = 1 the x' arguments do not shape the geometry
    d1 = build_mesh(1, 4.0, 8, 2.0)
    assert build_mesh(1, 4.0, 8, 2.0, xprime_count=3,
                      xprime_length=5.0) is d1
    direct = TensorMesh(1, d1.xd_nodes, 1, 1.0, 1.0, 1, 2.0)
    assert direct is not d1
    assert np.array_equal(direct.xd_nodes, d1.xd_nodes)
    with pytest.raises(ValueError, match="non-finite mesh parameters"):
        build_mesh(2, 4.0, 8, 2.0, xprime_count=6, xprime_length=np.nan)
    for bad in (dict(M=8.5), dict(time_count=2.5), dict(xprime_count=6.5)):
        args = dict(dim=2, L_d=4.0, M=8, grading_exponent=2.0,
                    xprime_count=6, xprime_length=1.0, time_count=2)
        args.update(bad)
        name, = bad
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            build_mesh(**args)


def test_cylinder_cells_boundary():
    m = build_mesh(1, 4.0, 32, 2.0, time_step=0.125, time_count=8)
    cyl = Cylinder(1.0, 0.0, 0.5)
    cs = cells_in_cylinder(m, cyl)
    # every selected cell center is inside the ball and the time window
    assert cs.n_cells > 0
    assert np.all(m.xd_centers[cs.space_j] < 0.5)
    tc = m.time_centers[cs.time_cells]
    assert np.all(tc <= 1.0) and np.all(tc > 0.5)
    # a concentric cylinder of larger radius can only grow the selection
    big = cells_in_cylinder(m, Cylinder(1.0, 0.0, 0.75))
    assert set(cs.space_cells) <= set(big.space_cells)
    assert set(cs.time_cells) <= set(big.time_cells)


def test_cylinder_measure_adds_up():
    m = build_mesh(1, 4.0, 16, 1.0, time_step=0.25, time_count=8)
    cyl = Cylinder(2.0, 0.0, 1.0)
    cs = cells_in_cylinder(m, cyl)
    # uniform mesh: widths 0.25, centers 0.125..: centers < 1.0 -> 4 cells
    assert cs.space_j.size == 4
    expect = cs.time_cells.size * 0.25 * (4 * 0.25)
    total = cs.time_cells.size * m.time_step * cs.space_measures().sum()
    assert abs(total - expect) < 1e-14


def _fresh_cells(m, cyl):
    """The cells of cyl by brute force over every cell center: (time cells,
    space cells, x_d index, x' index, space measures)."""
    tc = m.time_centers
    time = [n for n in range(m.time_count)
            if cyl.center_time - cyl.radius < tc[n] <= cyl.center_time]
    space = []
    for j in range(m.M):
        for k in range(m.xprime_count):
            d2 = (m.xd_centers[j] - cyl.center_xd) ** 2
            if m.dim == 2:
                d2 += m.xprime_distance(m.xprime_centers[k],
                                        cyl.center_xprime) ** 2
            if d2 < cyl.radius ** 2:
                space.append(j * m.xprime_count + k)
    space = np.array(space, int)
    j, k = space // m.xprime_count, space % m.xprime_count
    measures = m.xd_widths[j] * (m.xprime_spacing if m.dim == 2 else 1.0)
    return np.array(time, int), space, j, k, measures


def _assert_shared_and_fresh(m, cyl):
    cs = cells_in_cylinder(m, cyl)
    again = Cylinder(cyl.center_time, cyl.center_xd, cyl.radius,
                     cyl.center_xprime)
    assert cells_in_cylinder(m, again) is cs
    got = (cs.time_cells, cs.space_cells, cs.space_j, cs.space_m,
           cs.space_measures())
    for have, want in zip(got, _fresh_cells(m, cyl)):
        assert not have.flags.writeable
        assert np.array_equal(have, want)
        with pytest.raises(ValueError):
            have[...] = 0
    assert cs.n_cells == cs.time_cells.size * cs.space_cells.size


def test_cylinders_and_norm_specs_are_frozen_values():
    # equal floats make equal values that hash alike, however they are given
    cyl = Cylinder(1, 0, np.float64(0.5))
    assert cyl == Cylinder(1.0, 0.0, 0.5, 0.0)
    assert hash(cyl) == hash(Cylinder(1.0, 0.0, 0.5, 0.0))
    assert all(type(v) is float for v in vars(cyl).values())
    assert repr(cyl) == "Cylinder(t0=1, x'0=0, xd0=0, r=0.5)"
    spec = NormSpec(2, 0, "0", region=cyl)
    assert spec == NormSpec(2.0, 0.0, "0", region=Cylinder(1.0, 0.0, 0.5))
    assert hash(spec) == hash(NormSpec(2.0, 0.0, "0", region=cyl))
    assert spec != NormSpec(2.0, 0.0, "0")
    for value, name in ((cyl, "radius"), (spec, "p")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 3.0)
    with pytest.raises(ValueError, match="radius must be positive"):
        Cylinder(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="region must be a Cylinder"):
        NormSpec(2.0, region=(1.0, 0.0, 0.5))


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_sets_are_shared_read_only_and_fresh(dim):
    # one CellSet per (mesh, cylinder geometry), equal to a brute-force
    # selection, whatever Cylinder object asks for it
    m = build_mesh(dim, 4.0, 16, 2.0, xprime_count=6,
                   xprime_length=2 * np.pi, time_step=0.125, time_count=8)
    rng = np.random.default_rng(dim)
    for _ in range(20):
        t0, xd0 = rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.5)
        cyl = Cylinder(t0, xd0 * (rng.random() < 0.7), rng.uniform(0.05, 1.5),
                       rng.uniform(0.0, 2 * np.pi))
        _assert_shared_and_fresh(m, cyl)
    assert cells_in_cylinder(m, Cylinder(1.0, 0.0, 0.5)) is not \
        cells_in_cylinder(m, Cylinder(1.0, 0.0, 0.5, 1.0))


@pytest.mark.parametrize("dim", [1, 2])
def test_oscillation_lattice_cell_sets_are_fresh(monkeypatch, dim):
    m = build_mesh(dim, 4.0, 12, 2.0, xprime_count=6,
                   xprime_length=2 * np.pi, time_step=0.125, time_count=8)
    asked = []
    real = degenlab.coefficients.cells_in_cylinder

    def recording(mesh, cyl):
        asked.append(cyl)
        return real(mesh, cyl)

    monkeypatch.setattr(degenlab.coefficients, "cells_in_cylinder",
                        recording)
    coeffs = generate_family(1, "oscillatory", 0.5, 0.2, dim=dim,
                             xp_length=2 * np.pi)
    oscillation_scan(coeffs, m, [0.25, 0.5, 1.0])
    assert len(asked) == 9 * dim
    for cyl in asked:
        _assert_shared_and_fresh(m, cyl)


def test_cell_sets_do_not_keep_their_mesh_alive():
    # a mesh built directly is not interned: once its last reference goes,
    # it goes, with its tables, a CellSet among them
    m = TensorMesh(1, np.linspace(0.0, 2.0, 9), 1, 1.0, 0.25, 4, 1.0)
    assert cells_in_cylinder(m, Cylinder(1.0, 0.0, 0.5)).n_cells > 0
    gone = weakref.ref(m)
    del m
    gc.collect()
    assert gone() is None


def test_empty_cylinder():
    m = build_mesh(1, 4.0, 8, 1.0, time_step=0.5, time_count=2)
    tiny = Cylinder(1.0, 3.9, 1e-4)
    assert cells_in_cylinder(m, tiny).n_cells == 0


def test_boundary_centered_flag():
    assert Cylinder(1.0, 0.0, 0.5).boundary_centered
    assert not Cylinder(1.0, 0.7, 0.5).boundary_centered



# kept objects whose arrays are theirs to freeze; a _BandLU is kept too
# but stays writable, since every factorization writes its band
_FROZEN_OBJECTS = (degenlab.solver._BandLayout,
                   degenlab.assembly._ScatterPlan, degenlab.norms._NormPlan)


def _arrays(table, path=()):
    """(path, array) for every array of a kept table: in it, in its tuples
    and lists, the data, indices and indptr of a sparse matrix in it, and
    the array attributes of a kept layout or plan (_FROZEN_OBJECTS)."""
    if isinstance(table, (tuple, list)):
        for i, entry in enumerate(table):
            yield from _arrays(entry, path + (i,))
    elif sp.issparse(table):
        for part in ("data", "indices", "indptr"):
            yield path + (part,), getattr(table, part)
    elif isinstance(table, np.ndarray):
        yield path, table
    elif isinstance(table, _FROZEN_OBJECTS):
        for name, value in vars(table).items():
            if isinstance(value, np.ndarray):
                yield path + (name,), value


def test_every_kept_table_is_read_only(tmp_path, monkeypatch):
    # whatever mesh._cached keeps, for every owner that keeps anything in
    # the 11 golden configs and in a forward and an adjoint march, is
    # read-only: a stray write cannot change a later march or norm
    owners = {}
    keep = degenlab.mesh._cached

    def recording(owner, key, build):
        owners[id(owner)] = owner
        return keep(owner, key, build)
    for module in list(sys.modules.values()):
        if getattr(module, "_cached", None) is keep \
                and module.__name__.startswith("degenlab."):
            monkeypatch.setattr(module, "_cached", recording)
    for name, config in CONFIGS.items():
        run(parse_config(dict(config, out_dir=str(tmp_path / name),
                              emit_plots=False)))
    m = build_mesh(2, 3.0, 6, 2.0, xprime_count=5, xprime_length=2 * np.pi,
                   time_step=0.25, time_count=4)
    marcher = Marcher(m, generate_family(1, "oscillatory", 0.5, 0.2, dim=2,
                                         xp_length=2 * np.pi))
    sols = marcher.march([1.0, 10.0], LoadAssembler(m).parts(
        None, smooth_random_closure(3, 2)))
    marcher.adjoint(1.0, np.ones((5, m.n_interior)))
    for sol in sols:
        weighted_norm(sol, NormSpec(2.0))
    kept = [(type(owner).__name__, key, path, array)
            for owner in owners.values()
            for key, table in owner._tables.items()
            for path, array in _arrays(table)]
    assert [where[:3] for where in kept if where[3].flags.writeable] == []
    assert len(kept) > 100
    assert {type(owner).__name__ for owner in owners.values()} >= {
        "TensorMesh", "ProblemSpec", "Marcher", "_BandLayout",
        "SpaceTimeSolution"}
    assert {"split", "mass"} <= set(marcher._tables)
    walked = {(type(table).__name__, name)
              for owner in owners.values()
              for table in owner._tables.values()
              if isinstance(table, _FROZEN_OBJECTS)
              for (name,), _ in _arrays(table)}
    assert walked >= {("_BandLayout", name)
                      for name in ("at", "perm", "order", "rank")}
    assert walked >= {("_ScatterPlan", name)
                      for name in ("cell", "xp_at", "xd_at", "starts", "back")}
    assert walked >= {("_NormPlan", name)
                      for name in ("xa", "rows", "cols", "gram_0",
                                   "gram_1_xd", "gram_1_xp")}
