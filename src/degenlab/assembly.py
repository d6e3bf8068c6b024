"""Discrete weak form on tensor P1 elements: the x_d^{-1}-weighted mass
matrix, the (possibly nonsymmetric) diffusion stiffness, the lambda*c0
weighted zeroth-order block, the load maps for divergence data F and
weighted data f, and the data Gram matrices.

Every operator is a sum over the mesh cells of a cell value times an x_d
pair table times an x' pair table (one 1-D factor per direction of the
tensor element; in dim 1 the x' table is [[1.0]], the one constant basis
function of the phantom x' cell), scattered into a pair of named DoF
spaces: ``interior`` (node rows j = 1..M-1), ``nodes`` (j = 0..M) and
``nodes_no0`` (j = 1..M).
That scatter depends on the mesh alone, so it is built once per (mesh, row
space, column space) as a ``_ScatterPlan`` and kept, with the certified
x_d^{-1} pair table and the load maps, among the mesh's tables.
Each assembly is then one fold through the plan: the contributions to every
entry are summed in ascending value order, so the result does not depend on
the order of the terms, and assembling the transposed coefficients gives
bitwise the transpose.  The plan fixes that order once, grouping the
contributions by entry and the groups by size: a fold sorts only groups of
3 or more and sums all groups with one reduceat.  A fold takes cell values
with a leading level axis, so the stiffness of every time level of a march
is one fold (``stiffness_levels``), each level bitwise equal to its fold
alone.  The operators are plain CSR matrices (assemble_stiffness alone
wraps its own in a SparseOperator); the mesh-only ones (the a0-free mass,
the model stiffness, the Grams and the load maps) are built once per mesh
and shared read-only.

The singular factor 1/x_d is integrated exactly per element against P1
products (antiderivatives with logarithms); sources are interpolated to the
nodes and then integrated exactly, so load assembly is two sparse matvecs.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from .coefficients import sample_on_mesh
from .fields import sample_nodes
from .mesh import _cached, _frozen


class AssemblyError(RuntimeError):
    pass


# -- exact x_d element integrals ---------------------------------------------

# h-independent P1 pair constants: dm[a][b] = int phi_a' phi_b dx
_DM = np.array([[-0.5, -0.5], [0.5, 0.5]])
_MM = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
_GG = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _pair(h, trial_deriv, test_deriv):
    """1-D pair table t[a, b] = int (phi_a or phi_a') (phi_b or phi_b') over
    a cell of width h, a = trial hat, b = test hat; h is a scalar or one
    width per cell, giving shape h.shape + (2, 2)."""
    h = np.asarray(h, float)[..., None, None]
    if trial_deriv and test_deriv:
        table = _GG / h
    elif trial_deriv or test_deriv:
        table = _DM if trial_deriv else _DM.T
    else:
        table = _MM * h
    return np.broadcast_to(table, h.shape[:-2] + (2, 2))


_SERIES_N = 24


def weighted_pair_integrals(xl, xr):
    """I[a,b] = int_{xl}^{xr} phi_a phi_b / x dx, local hats a,b in {L,R}.

    Vectorized over cells; returns (ncells, 2, 2).  Closed log forms switch to
    a geometric series when h/xl <= 0.1 (cancellation guard).  For xl == 0 the
    (L,L) entry is log-divergent and set to nan; every retained basis pairing
    on that cell vanishes at x_d = 0, so it is never read.
    """
    xl = np.atleast_1d(np.asarray(xl, float))
    xr = np.atleast_1d(np.asarray(xr, float))
    h = xr - xl
    if np.any(h <= 0) or np.any(xl < 0):
        raise ValueError("cells must satisfy 0 <= xl < xr")
    out = np.empty(xl.shape + (2, 2))
    first = xl == 0.0
    series = (~first) & (h <= 0.1 * xl)
    closed = (~first) & (~series)

    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.where(xl > 0, np.log1p(h / np.where(xl > 0, xl, 1.0)), np.nan)
    half_sq = 0.5 * (xr ** 2 - xl ** 2)
    ILL = (xr ** 2 * L - 2 * xr * h + half_sq) / h ** 2
    ILR = (-half_sq + (xl + xr) * h - xl * xr * L) / h ** 2
    IRR = (half_sq - 2 * xl * h + xl ** 2 * L) / h ** 2

    if series.any():
        r = h[series] / xl[series]
        sLL = np.zeros_like(r)
        sLR = np.zeros_like(r)
        sRR = np.zeros_like(r)
        rn = np.ones_like(r)
        for n in range(_SERIES_N):
            sLL += rn * (1 / (n + 1) - 2 / (n + 2) + 1 / (n + 3))
            sLR += rn * (1 / (n + 2) - 1 / (n + 3))
            sRR += rn / (n + 3)
            rn *= -r
        ILL[series] = r * sLL
        ILR[series] = r * sLR
        IRR[series] = r * sRR

    # first cell: exact polynomial forms (phi_R phi_R/x = x/h^2 etc.)
    ILL = np.where(first, np.nan, ILL)
    ILR = np.where(first, 0.5, ILR)
    IRR = np.where(first, 0.5, IRR)

    out[..., 0, 0] = ILL
    out[..., 0, 1] = ILR
    out[..., 1, 0] = ILR
    out[..., 1, 1] = IRR
    return out


def xd_weighted_pairs(mesh):
    """The mesh's weighted pair table, built once per mesh and certified
    positive definite: every cell j >= 1 has I_LL > 0, I_RR > 0 and
    I_LL I_RR > I_LR^2, and the first cell (whose L hat sits on the
    Dirichlet row) has I_RR > 0.  With a0 > 0 this makes the weighted mass
    SPD.  The table is read-only."""
    return _cached(mesh, "xd_weighted_pairs", lambda: _certified_pairs(mesh))


def _certified_pairs(mesh):
    nodes = mesh.xd_nodes
    table = weighted_pair_integrals(nodes[:-1], nodes[1:])
    LL, LR, RR = table[:, 0, 0], table[:, 0, 1], table[:, 1, 1]
    ok = (LL > 0) & (RR > 0) & (LL * RR - LR * LR > 0)
    ok[0] = RR[0] > 0
    if not ok.all():
        j = int(np.argmin(ok))
        raise AssemblyError("x_d^-1-weighted pair table is not positive "
                            "definite on cell %d, x_d in [%g, %g]: broken "
                            "quadrature" % (j, nodes[j], nodes[j + 1]))
    return table


# -- sparse operator wrapper --------------------------------------------------

class SparseOperator:
    """The stiffness of assemble_stiffness; ``matrix`` is its CSR matrix."""

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix)


# -- per-mesh scatter plan ----------------------------------------------------

# named DoF spaces by node row j: (first row, rows cut at x_d = L_d); DoF
# (j, m) of a space has index (j - first row) * xprime_count + m
_SPACES = {"interior": (1, 1), "nodes": (0, 0), "nodes_no0": (1, 0)}

class _ScatterPlan:
    """Where the (trial corner, test corner) pairs of every cell, 16 in dim
    2 and 4 in dim 1, land in an operator from a column space to a row
    space, and the order a fold sums them in, both fixed once: per kept
    contribution its cell and flat indices into the x_d pair table
    (j, a, b) and the x' pair table (a', b'), grouped by entry, the groups
    by size and then CSR entry.  ``starts`` are the group starts,
    ``buckets`` one (offset, groups, size) per size and ``back`` puts the
    groups in the CSR order of ``indices`` and ``indptr``; a fold sorts
    only groups of 3 or more (none in dim 1 for one term: 2 at most).
    Every array is read-only."""

    def __init__(self, mesh, rows, cols):
        npc = mesh.xprime_count
        j = np.repeat(np.arange(mesh.M), npc)
        m = np.tile(np.arange(npc), mesh.M)
        (r0, r1), (c0, c1) = [(_SPACES[s][0], mesh.M - _SPACES[s][1])
                              for s in (rows, cols)]
        nrows, ncols = (r1 - r0 + 1) * npc, (c1 - c0 + 1) * npc
        cells, keys = [], []
        xp = (0, 1) if mesh.dim == 2 else (0,)      # x' corner offsets
        for axd, bxd, aq, bq in itertools.product((0, 1), (0, 1), xp, xp):
            k = np.nonzero((r0 <= j + bxd) & (j + bxd <= r1)
                           & (c0 <= j + axd) & (j + axd <= c1))[0]
            row = (j[k] + bxd - r0) * npc + (m[k] + bq) % npc
            col = (j[k] + axd - c0) * npc + (m[k] + aq) % npc
            cells.append(k)
            keys.append(row * ncols + col)
        # corners of the i-th pair: 2 axd + bxd = i // len(xp)**2 and, in
        # dim 2, 2 aq + bq = i % 4
        pair = np.repeat(np.arange(len(cells)), [k.size for k in cells])
        keys = np.concatenate(keys)
        by_key = np.argsort(keys, kind="stable")
        ordered = keys[by_key]
        first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        entries = ordered[first]
        sizes = np.diff(np.r_[first, keys.size])
        # a stable argsort of 16-bit integers is a radix sort
        order = by_key[np.argsort(np.repeat(sizes, sizes).astype(np.int16),
                                  kind="stable")]
        self.cell, pair = np.concatenate(cells)[order], pair[order]
        xd_pair, self.xp_at = np.divmod(pair, len(xp) ** 2)
        self.xd_at = j[self.cell] * 4 + xd_pair
        by_size = np.argsort(sizes, kind="stable")
        self.starts = np.cumsum(sizes[by_size]) - sizes[by_size]
        size, groups = np.unique(sizes, return_counts=True)
        self.buckets = list(zip(np.cumsum(size * groups) - size * groups,
                                groups, size))
        self.back = np.argsort(by_size)
        self.indices = entries % ncols
        self.indptr = np.searchsorted(entries, ncols * np.arange(nrows + 1))
        self.shape = (nrows, ncols)
        _frozen(list(vars(self).values()))

    def fold(self, terms):
        """Entry data of the sum of terms (cellvals, x_d pair table, x' pair
        table), one row per level: cellvals has shape (levels, cells), and
        contribution cellvals[l, cell] * xd[j, a, b] * xp[a', b'] goes to
        row l of the (levels, nnz) result.  Each entry of each level sums
        the contributions of all terms in ascending value order (a group of
        two needs no sort: float addition commutes), so a row is bitwise the
        fold of its level alone, whatever the order of the terms."""
        n = len(terms)
        vals = np.stack([np.take(cellvals, self.cell, axis=1)
                         * np.take(xd, self.xd_at) * np.take(xp, self.xp_at)
                         for cellvals, xd, xp in terms], axis=1)
        out = np.empty((len(vals), n * self.cell.size))
        for offset, groups, size in self.buckets:
            end = offset + groups * size
            # a view (levels, groups, n * size) of out, one group per row
            block = out[:, n * offset:n * end].reshape(-1, groups, n * size)
            block.reshape(-1, groups, n, size)[...] = vals[
                :, :, offset:end].reshape(-1, n, groups, size).swapaxes(1, 2)
            if n * size >= 3:
                block.sort()
        return np.add.reduceat(out, n * self.starts, axis=1)[:, self.back]

    def csr(self, data):
        """CSR matrix with this plan's entries and one level of fold data."""
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=self.shape)


def _plan(mesh, rows, cols):
    return _cached(mesh, (rows, cols), lambda: _ScatterPlan(mesh, rows, cols))


def _xprime_pair(mesh, trial_deriv, test_deriv):
    """The x' pair table; in dim 1 [[1.0]], the phantom cell's one constant
    basis function, never differentiated."""
    return np.ones((1, 1)) if mesh.dim == 1 else _pair(
        mesh.xprime_spacing, trial_deriv, test_deriv)


def _term(mesh, cellvals, trial, test):
    """Fold term of int (D_trial phi_a)(D_test phi_b) weighted by cellvals
    (levels, cells); trial and test are derivative axes (dim - 1 is x_d),
    None for none."""
    xd = mesh.dim - 1
    return (cellvals, _pair(mesh.xd_widths, trial == xd, test == xd),
            _xprime_pair(mesh, trial not in (None, xd),
                         test not in (None, xd)))


def _weighted_term(mesh, cellvals):
    """Fold term of int phi_a phi_b x_d^{-1} weighted by cellvals
    (levels, cells)."""
    return (cellvals, xd_weighted_pairs(mesh),
            _xprime_pair(mesh, False, False))


def _one_level(plan, terms):
    return plan.csr(plan.fold(terms)[0])


def interior_pattern(mesh):
    """(indices, indptr, shape) of the CSR pattern that every operator on
    the interior DoFs is folded onto: the weighted mass, and the rows of
    stiffness_levels.  The index arrays are read-only."""
    plan = _plan(mesh, "interior", "interior")
    return plan.indices, plan.indptr, plan.shape


# -- operators ----------------------------------------------------------------

def assemble_weighted_mass(mesh, a0=None):
    """M_kl = int a0(x_d) phi_k phi_l x_d^{-1} dx over interior DoFs, in CSR.
    SPD: a0 must be finite and positive on every cell, and the pair table
    is certified per cell (see xd_weighted_pairs).  The a0-free mass
    depends on the mesh alone; it is kept once per mesh (read-only)."""
    if a0 is None:
        return sp.csr_matrix(_cached(mesh, "mass", lambda: _weighted_mass(
            mesh, np.ones(mesh.M))))
    a0_cells = np.broadcast_to(np.asarray(a0(mesh.xd_centers), float),
                               (mesh.M,))
    bad = ~(np.isfinite(a0_cells) & (a0_cells > 0))
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError("a0 must be finite and positive: a0 = %g at "
                         "x_d=%.6g" % (a0_cells[j], mesh.xd_centers[j]))
    return _weighted_mass(mesh, a0_cells)


def _weighted_mass(mesh, a0_cells):
    cellvals = np.repeat(a0_cells, mesh.xprime_count)[None]
    mat = _one_level(_plan(mesh, "interior", "interior"),
                     [_weighted_term(mesh, cellvals)])
    d = mat.diagonal()
    if d.size and d.min() <= 0:
        raise AssemblyError("weighted mass has non-positive diagonal "
                            "(min %g): broken quadrature" % d.min())
    return mat


def _diffusion(mesh, a):
    """Fold data of the diffusion block sum_ij a_ij(cell) int D_j(trial)
    D_i(test); a has shape (levels, Mc, npc, dim, dim) with index order
    (x', x_d) in dim=2."""
    cells = a.reshape(a.shape[0], -1, mesh.dim, mesh.dim)
    terms = [_term(mesh, cells[:, :, i, j], j, i)
             for i in range(mesh.dim) for j in range(mesh.dim)]
    return _plan(mesh, "interior", "interior").fold(terms)


def stiffness_levels(mesh, coeffs, times):
    """The lambda-free parts of K(lam, t) = D(t) + lam * C(t) at each time:
    D is the diffusion block (a_ij frozen at cell midpoints) and C the
    x_d^{-1}-weighted c0 block, each an array (len(times), nnz) of entry
    data on interior_pattern(mesh).  The coefficients are sampled once for
    all times and each block is one fold over all levels, so row n is
    bitwise the data of its time alone."""
    sample = sample_on_mesh(coeffs, mesh, t=times)
    levels = sample.times.size
    D = _diffusion(mesh, sample.a)
    C = _plan(mesh, "interior", "interior").fold(
        [_weighted_term(mesh, sample.c0.reshape(levels, -1))])
    return D, C


def stiffness_entries(split, lams):
    """The entry data of K(lam) = D + lam * C at each lambda of the 1-D
    grid lams, from the split (D, C) of stiffness_levels: an array
    (len(lams),) + D.shape, D alone where lam = 0."""
    lams = np.asarray(lams, float)
    if lams.ndim != 1 or not lams.size:
        raise ValueError("a lambda grid must be non-empty and "
                         "one-dimensional, got shape %s" % (lams.shape,))
    if not np.all(lams >= 0):
        raise ValueError("lambda must be >= 0, got %s" % lams)
    D, C = split
    K = D + lams[:, None, None] * C
    K[lams == 0] = D
    return K


def assemble_stiffness(mesh, coeffs, lam, t=0.0):
    """K = diffusion(a_ij frozen at cell midpoints, time t) + lambda * c0-block
    with the x_d^{-1} weight: the stiffness_entries of the one level of
    stiffness_levels at t, on interior_pattern(mesh).  sample_on_mesh
    certifies nu|xi|^2 <= a xi.xi and c0 >= nu on every cell, so
    v'Kv >= nu v'K0v for every v."""
    K = stiffness_entries(stiffness_levels(mesh, coeffs, [t]), [lam])
    return SparseOperator(_plan(mesh, "interior", "interior").csr(K[0, 0]))


def model_stiffness(mesh):
    """K0 in CSR: a = I, lambda = 0.  u^T K0 u is exactly the squared L2
    gradient norm of the interior P1 field u.  Kept once per mesh."""
    def build():
        eye = np.broadcast_to(np.eye(mesh.dim), (1, mesh.M, mesh.xprime_count,
                                                 mesh.dim, mesh.dim))
        return _plan(mesh, "interior", "interior").csr(
            _diffusion(mesh, eye)[0])
    return sp.csr_matrix(_cached(mesh, "model_stiffness", build))


# -- loads --------------------------------------------------------------------

def sample_sources(mesh, F, f, times):
    """The node samples (len(times), M+1, xprime_count) at the 1-D array
    times of each entry of F (None or a sequence of dim entries, each None
    or a callable), None where it is None, and of f, None without f: each
    once for all times, so it must broadcast t against the node grid."""
    t = times[:, None, None]
    F_samples = ()
    if F is not None:
        if callable(F) or len(F) != mesh.dim:
            raise ValueError("F must be None or a sequence of %d entries, "
                             "got %r" % (mesh.dim, F))
        F_samples = tuple(None if Fi is None else sample_nodes(mesh, Fi, t)
                          for Fi in F)
    return F_samples, None if f is None else sample_nodes(mesh, f, t)


class LoadAssembler:
    """The sparse maps from nodal source samples to load vectors:
    b = sum_i G_i F_i + sqrt(lambda) W f  with
    G_i[k,n] = int Phi_n D_i Phi_k dx,  W[k,n] = int Phi_n Phi_k x_d^{-1} dx.
    The maps are assembled once per mesh and kept read-only; each
    assembler holds new CSR matrices on the kept arrays, so rebinding
    their arrays leaves the kept maps alone."""

    def __init__(self, mesh):
        self.mesh = mesh
        W, G = _cached(mesh, "loads", lambda: _load_maps(mesh))
        self.W, self.G = sp.csr_matrix(W), tuple(map(sp.csr_matrix, G))

    def assemble(self, F, f, lam, t=0.0):
        """Nodal-interpolated loads at time t, one interior vector; for a
        1-D array t, one row per time, shape (len(t), n_interior), of the
        sources F and f as sample_sources takes them."""
        times = np.atleast_1d(np.asarray(t, float))
        if times.ndim != 1:
            raise ValueError("t must be a scalar or a 1-D array of times")
        b = self.combine(self.sampled_parts(
            times.size, *sample_sources(self.mesh, F, f, times)), lam)
        return b[0] if np.ndim(t) == 0 else b

    def parts(self, F, f):
        """(B_F, B_f) with b(lam) = B_F + sqrt(lam) B_f at the mesh's time
        levels, one row per level, of the sources F and f as sample_sources
        takes them; B_f is None without f."""
        times = self.mesh.time_levels
        return self.sampled_parts(times.size,
                                  *sample_sources(self.mesh, F, f, times))

    def sampled_parts(self, count, F_samples, f_samples):
        """``parts`` from the samples of sample_sources at count times."""
        B_F = np.zeros((count, self.mesh.n_interior))
        for G, S in zip(self.G, F_samples):
            if S is not None:
                B_F += (G @ S.reshape(count, self.mesh.n_nodes).T).T
        if f_samples is None:
            return B_F, None
        return B_F, (self.W @ f_samples.reshape(count, self.mesh.n_nodes).T).T

    @staticmethod
    def combine(parts, lam):
        """b(lam) = B_F + sqrt(lam) B_f from ``parts``, checked finite."""
        if lam < 0:
            raise ValueError("lambda must be >= 0, got %r" % (lam,))
        B_F, B_f = parts
        b = B_F.copy()
        if B_f is not None:
            b += np.sqrt(lam) * B_f
        if not np.all(np.isfinite(b)):
            raise ValueError("non-finite load entries")
        return b


def _load_maps(mesh):
    plan = _plan(mesh, "interior", "nodes")
    ones = np.ones((1, mesh.n_space_cells))
    maps = [_one_level(plan, [_weighted_term(mesh, ones)])]
    maps += [_one_level(plan, [_term(mesh, ones, None, i)])
             for i in range(mesh.dim)]
    return maps[0], tuple(maps[1:])


# -- Gram matrices for data norms ---------------------------------------------

def data_grams(mesh):
    """(unweighted Gram over all nodes, x_d^{-1}-weighted Gram over nodes with
    j >= 1) in CSR.  The weighted form requires the x_d = 0 samples to
    vanish; the j = 0 row/column is excluded, which is exact in that case.
    Kept once per mesh."""
    return tuple(sp.csr_matrix(gram)
                 for gram in _cached(mesh, "grams", lambda: _grams(mesh)))


def _grams(mesh):
    ones = np.ones((1, mesh.n_space_cells))
    gram_all = _one_level(_plan(mesh, "nodes", "nodes"),
                          [_term(mesh, ones, None, None)])
    gram_w = _one_level(_plan(mesh, "nodes_no0", "nodes_no0"),
                        [_weighted_term(mesh, ones)])
    return gram_all, gram_w
