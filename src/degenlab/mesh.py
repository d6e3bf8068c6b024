"""Graded tensor-product space-time grids on the truncated strip (0, L_d).

The x_d direction is graded toward the degenerate boundary x_d = 0 by the
power law  node_j = L_d * (j/M)**kappa.  In dim = 2 the lateral direction x'
is a uniform periodic interval of length L'; in dim = 1 it collapses to a
single phantom cell of length 1 with one constant x' basis function, so
that all measures reduce to dx_d.
Time is a uniform grid t_n = n*dt, n = 0..time_count.  The cells of a
cylinder are found once per (mesh, cylinder geometry) and shared read-only.
"""

import dataclasses
import functools

import numpy as np
import scipy.sparse as sp

# How many geometries build_mesh keeps a mesh of, least recently used
# first out.  One command builds at most 3 meshes (sweep: the mesh and
# its refinement, 2; the golden mms ladder, 3; every other command, 1), so
# 8 holds every mesh of at least the last two commands.
_INTERNED = 8


def _cached(owner, key, build):
    """The table ``key`` of ``owner``, built by ``build()`` on first use and
    kept in the owner's ``_tables`` dict for its life: the one way the
    package keeps what it derives.  Each owner is immutable where its
    tables read it (a mesh, a frozen problem, a solution's read-only
    levels, a marcher's mesh and field, a band layout's pattern), so a
    table derives from its key and the owner alone and cannot go stale,
    and it is read-only: every array in it, in its tuples and lists and
    behind a CSR matrix (data, indices, indptr), an object as its class
    makes it.  build_mesh interns its meshes (see _INTERNED), so a
    geometry's tables serve every later command on it."""
    tables = owner._tables
    if key not in tables:
        tables[key] = _frozen(build())
    return tables[key]


def _frozen(table):
    """table, every array in it made read-only (see _cached)."""
    if isinstance(table, (tuple, list)):
        for entry in table:
            _frozen(entry)
    elif sp.issparse(table):
        _frozen((table.data, table.indices, table.indptr))
    elif isinstance(table, np.ndarray):
        table.setflags(write=False)
    return table


class TensorMesh:
    """Immutable tensor mesh.  Cells are indexed (j, m): j in 0..M-1 along x_d,
    m in 0..xprime_count-1 along periodic x' (m wraps)."""

    def __init__(self, dim, xd_nodes, xprime_count, xprime_length,
                 time_step, time_count, grading_exponent):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2, got %r" % (dim,))
        xd_nodes = np.asarray(xd_nodes, dtype=float)
        if xd_nodes.ndim != 1 or xd_nodes.size < 3:
            raise ValueError("need at least 3 x_d nodes (M >= 2)")
        if not np.all(np.isfinite(xd_nodes)):
            raise ValueError("non-finite x_d nodes")
        if xd_nodes[0] != 0.0:
            raise ValueError("first x_d node must be exactly 0")
        if np.any(np.diff(xd_nodes) <= 0):
            raise ValueError("x_d nodes must be strictly increasing")
        if dim == 1 and xprime_count != 1:
            raise ValueError("dim=1 requires xprime_count=1")
        if xprime_count < 1 or xprime_length <= 0:
            raise ValueError("bad x' parameters")
        if time_step <= 0 or time_count < 1:
            raise ValueError("bad time grid parameters")
        self.dim = dim
        self.xd_nodes = xd_nodes
        self.xprime_count = int(xprime_count)
        self.xprime_length = float(xprime_length)
        self.time_step = float(time_step)
        self.time_count = int(time_count)
        self.grading_exponent = float(grading_exponent)
        self.xd_nodes.setflags(write=False)
        self._tables = {}
        self._sealed = True

    def __setattr__(self, name, value):
        if getattr(self, "_sealed", False):
            raise AttributeError("TensorMesh is immutable: cannot set %r"
                                 % (name,))
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError("TensorMesh is immutable: cannot delete %r"
                             % (name,))

    # -- x_d direction -------------------------------------------------
    @property
    def M(self):
        return self.xd_nodes.size - 1

    @property
    def Ld(self):
        return float(self.xd_nodes[-1])

    @property
    def xd_widths(self):
        return np.diff(self.xd_nodes)

    @property
    def xd_centers(self):
        return 0.5 * (self.xd_nodes[:-1] + self.xd_nodes[1:])

    # -- x' direction (periodic) ----------------------------------------
    @property
    def xprime_spacing(self):
        return self.xprime_length / self.xprime_count

    @property
    def xprime_nodes(self):
        return self.xprime_spacing * np.arange(self.xprime_count)

    @property
    def xprime_centers(self):
        return self.xprime_nodes + 0.5 * self.xprime_spacing

    # -- time grid -------------------------------------------------------
    @property
    def total_time(self):
        return self.time_step * self.time_count

    @property
    def time_levels(self):
        return self.time_step * np.arange(self.time_count + 1)

    @property
    def time_centers(self):
        return self.time_step * (np.arange(self.time_count) + 0.5)

    # -- counts ------------------------------------------------------------
    @property
    def n_space_cells(self):
        return self.M * self.xprime_count

    @property
    def n_nodes(self):
        # full node grid including both Dirichlet rows
        return (self.M + 1) * self.xprime_count

    @property
    def n_interior(self):
        return (self.M - 1) * self.xprime_count

    def xprime_distance(self, a, b):
        """Minimum-image distance on the periodic x' circle."""
        d = np.abs(np.asarray(a) - b) % self.xprime_length
        return np.minimum(d, self.xprime_length - d)

    def refined(self):
        """One refinement: double M (and x' count for dim=2), halve dt."""
        np2 = 2 * self.xprime_count if self.dim == 2 else self.xprime_count
        return build_mesh(self.dim, self.Ld, 2 * self.M, self.grading_exponent,
                          np2, self.xprime_length, 0.5 * self.time_step,
                          2 * self.time_count)

    def __repr__(self):
        return ("TensorMesh(dim=%d, M=%d, L_d=%g, kappa=%g, nprime=%d, "
                "dt=%g, nt=%d)" % (self.dim, self.M, self.Ld,
                                   self.grading_exponent, self.xprime_count,
                                   self.time_step, self.time_count))


def build_mesh(dim, L_d, M, grading_exponent, xprime_count=1,
               xprime_length=None, time_step=1.0, time_count=1):
    """The graded tensor mesh xd_nodes[j] = L_d*(j/M)**grading_exponent.
    Equal geometries share one immutable mesh, and so its tables (see
    _cached), while the geometry is among the _INTERNED most recently
    used."""
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2, got %r" % (dim,))
    if dim == 1:
        xprime_count, xprime_length = 1, 1.0
    elif xprime_length is None:
        raise ValueError("dim=2 requires xprime_length")
    if not np.isfinite([L_d, grading_exponent, time_step,
                        xprime_length]).all():
        raise ValueError("non-finite mesh parameters")
    for name, v in (("M", M), ("xprime_count", xprime_count),
                    ("time_count", time_count)):
        if not float(v).is_integer():
            raise ValueError("%s must be an integer, got %r" % (name, v))
    if M < 2:
        raise ValueError("M must be >= 2, got %r" % (M,))
    if grading_exponent < 1:
        raise ValueError("grading_exponent must be >= 1")
    if L_d <= 0:
        raise ValueError("L_d must be positive")
    return _interned(int(dim), float(L_d), int(M), float(grading_exponent),
                     int(xprime_count), float(xprime_length),
                     float(time_step), int(time_count))


@functools.lru_cache(maxsize=_INTERNED)
def _interned(dim, L_d, M, grading_exponent, xprime_count, xprime_length,
              time_step, time_count):
    nodes = L_d * (np.arange(M + 1) / M) ** grading_exponent
    return TensorMesh(dim, nodes, xprime_count, xprime_length,
                      time_step, time_count, grading_exponent)


@dataclasses.dataclass(frozen=True)
class Cylinder:
    """Q_r^+(z0) = (t0 - r, t0] x B_r^+(x0): a Euclidean half-ball in space
    crossed with a backward time interval (not a parabolic cylinder)."""

    center_time: float
    center_xd: float
    radius: float
    center_xprime: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.center_xd < 0:
            raise ValueError("center_xd must be >= 0")
        for name, value in vars(self).items():
            object.__setattr__(self, name, float(value))

    @property
    def boundary_centered(self):
        return self.center_xd == 0.0

    def __repr__(self):
        return "Cylinder(t0=%g, x'0=%g, xd0=%g, r=%g)" % (
            self.center_time, self.center_xprime, self.center_xd, self.radius)


class CellSet:
    """Cells of a mesh inside a cylinder: the product of a time-cell index set
    and a spatial-cell index set (flat index j*xprime_count + m), with the
    x_d index j and x' index m of each spatial cell.  Every array is
    read-only."""

    def __init__(self, mesh, time_cells, space_cells):
        self.time_cells = np.asarray(time_cells, dtype=int)
        self.space_cells = np.asarray(space_cells, dtype=int)
        self.space_j = self.space_cells // mesh.xprime_count
        self.space_m = self.space_cells % mesh.xprime_count
        self._measures = mesh.xd_widths[self.space_j]
        if mesh.dim == 2:
            self._measures = self._measures * mesh.xprime_spacing
        _frozen(list(vars(self).values()))

    @property
    def n_cells(self):
        return self.time_cells.size * self.space_cells.size

    def space_measures(self):
        return self._measures


def _space_cells_in_ball(mesh, cyl):
    xc = mesh.xd_centers
    if mesh.dim == 1:
        dist2 = (xc - cyl.center_xd) ** 2
        j = np.nonzero(dist2 < cyl.radius ** 2)[0]
        return j
    dxp = mesh.xprime_distance(mesh.xprime_centers, cyl.center_xprime)
    dist2 = (xc[:, None] - cyl.center_xd) ** 2 + dxp[None, :] ** 2
    j, m = np.nonzero(dist2 < cyl.radius ** 2)
    return j * mesh.xprime_count + m


def time_cells_in_window(time_step, time_count, t0, radius):
    """The time cells n < time_count of a grid of step time_step whose
    centres (n + 1/2) time_step lie in the window (t0 - radius, t0]."""
    tc = time_step * (np.arange(time_count) + 0.5)
    return np.nonzero((tc > t0 - radius) & (tc <= t0))[0]


def cells_in_cylinder(mesh, cyl):
    """Cells whose centers lie in the cylinder.  Deterministic; may be empty.
    One read-only CellSet per (mesh, cylinder geometry), kept with the
    mesh's tables and keyed by the cylinder, so equal cylinders built apart
    share it."""
    return _cached(mesh, ("cells", cyl), lambda: CellSet(
        mesh, time_cells_in_window(mesh.time_step, mesh.time_count,
                                   cyl.center_time, cyl.radius),
        _space_cells_in_ball(mesh, cyl)))


def prime_cells_in_cylinder(mesh, cyl):
    """(time, x') cells of Q'_rho(z0') -- the slice-average region used by the
    partial mean oscillation.  In dim=1 the x' set is the single phantom cell."""
    time = time_cells_in_window(mesh.time_step, mesh.time_count,
                                cyl.center_time, cyl.radius)
    if mesh.dim == 1:
        xp = np.array([0])
    else:
        dxp = mesh.xprime_distance(mesh.xprime_centers, cyl.center_xprime)
        xp = np.nonzero(dxp < cyl.radius)[0]
    return time, xp
