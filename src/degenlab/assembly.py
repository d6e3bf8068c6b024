"""Discrete weak form on tensor P1 elements: the x_d^{-1}-weighted mass
matrix, the (possibly nonsymmetric) diffusion stiffness, the lambda*c0
weighted zeroth-order block, and load vectors for divergence data F and
weighted data f.

The singular factor 1/x_d is integrated exactly per element against P1
products (antiderivatives with logarithms); sources are interpolated to the
nodes and then integrated exactly, so load assembly is two sparse matvecs.
"""

import numpy as np
import scipy.sparse as sp

from .coefficients import sample_on_mesh
from .fields import sample_nodes


class AssemblyError(RuntimeError):
    pass


# -- exact x_d element integrals ---------------------------------------------

# h-independent P1 pair constants: dm[a][b] = int phi_a' phi_b dx
_DM = np.array([[-0.5, -0.5], [0.5, 0.5]])
_MM = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
_GG = np.array([[1.0, -1.0], [-1.0, 1.0]])

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
    return weighted_pair_integrals(mesh.xd_nodes[:-1], mesh.xd_nodes[1:])


# -- sparse operator wrapper --------------------------------------------------

class SparseOperator:
    """CSR matrix with a symmetry tag and provenance."""

    def __init__(self, matrix, symmetry="general", mesh=None, kind=""):
        self.matrix = sp.csr_matrix(matrix)
        self.symmetry = symmetry
        self.mesh = mesh
        self.kind = kind

    @property
    def shape(self):
        return self.matrix.shape

    def matvec(self, v):
        return self.matrix @ np.asarray(v, float)

    def form(self, u, v=None):
        """Quadratic/bilinear form u^T A v (v defaults to u)."""
        v = u if v is None else v
        return float(np.asarray(u, float) @ (self.matrix @ np.asarray(v, float)))

    def transpose(self):
        return SparseOperator(self.matrix.T.tocsr(), symmetry=self.symmetry,
                              mesh=self.mesh, kind=self.kind + "_T")

    def diagonal(self):
        return self.matrix.diagonal()

    def __repr__(self):
        return "SparseOperator(%dx%d, %s, %s)" % (
            self.shape[0], self.shape[1], self.symmetry, self.kind)


# -- index maps ----------------------------------------------------------------

def _interior_index(mesh, jnode, mnode):
    """Interior DoF index for node (j, m); -1 for Dirichlet rows j=0, j=M."""
    idx = (jnode - 1) * mesh.xprime_count + mnode
    return np.where((jnode >= 1) & (jnode <= mesh.M - 1), idx, -1)


def _node_index(mesh, jnode, mnode):
    return jnode * mesh.xprime_count + mnode


def _cell_corner_nodes(mesh):
    """For each cell (j,m): node indices of the 4 corners (2 in dim=1 wrap to
    the same phantom x' node).  Returns j-grid, m-grid arrays of shape (Mc,np)."""
    j = np.repeat(np.arange(mesh.M), mesh.xprime_count)
    m = np.tile(np.arange(mesh.xprime_count), mesh.M)
    return j, m


def _canonical_csr(rows, cols, vals, shape):
    """Deterministic duplicate summation: contributions to each entry are
    sorted by value before the fold, so assembly is order-independent and
    transposed-coefficient assembly is bitwise the transpose."""
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    keys = rows.astype(np.int64) * shape[1] + cols
    starts = np.nonzero(np.r_[True, np.diff(keys) != 0])[0]
    sums = np.add.reduceat(vals, starts)
    return sp.csr_matrix((sums, (rows[starts], cols[starts])), shape=shape)


# -- assembly cores -------------------------------------------------------------

def _xp_factor(mesh):
    d = mesh.xprime_spacing if mesh.dim == 2 else 1.0
    mmp = _MM * d
    ggp = _GG / d
    return mmp, ggp, _DM


def _assemble_pairs(mesh, cellvals, xd_fac, xp_fac, row_map, col_map):
    """Scatter cellvals (Mc*np,) x xd_fac[cell,axd,bxd] x xp_fac[aq,bq] into a
    sparse matrix; a = trial local corner, b = test local corner."""
    jc, mc = _cell_corner_nodes(mesh)
    npc = mesh.xprime_count
    rows, cols, vals = [], [], []
    for axd in (0, 1):
        for bxd in (0, 1):
            for aq in (0, 1):
                for bq in (0, 1):
                    v = cellvals * xd_fac[jc, axd, bxd] * xp_fac[aq, bq]
                    ja, jb = jc + axd, jc + bxd
                    ma = (mc + aq) % npc
                    mb = (mc + bq) % npc
                    r = row_map(jb, mb)
                    c = col_map(ja, ma)
                    keep = (r >= 0) & (c >= 0)
                    rows.append(r[keep])
                    cols.append(c[keep])
                    vals.append(v[keep])
    return (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def _weighted_block(mesh, cell_coeff, row_map, col_map, nrows, ncols):
    """sum_cells coeff * (x_d^{-1}-weighted pair) * (x' mass pair)."""
    wpairs = xd_weighted_pairs(mesh)
    mmp, _, _ = _xp_factor(mesh)
    r, c, v = _assemble_pairs(mesh, cell_coeff, wpairs, mmp, row_map, col_map)
    return _canonical_csr(r, c, v, (nrows, ncols))


def assemble_weighted_mass(mesh, a0=None, _validate=True):
    """M_kl = int a0(x_d) phi_k phi_l x_d^{-1} dx over interior DoFs; SPD."""
    if a0 is None:
        a0_cells = np.ones(mesh.M)
    else:
        a0_cells = np.broadcast_to(np.asarray(a0(mesh.xd_centers), float),
                                   (mesh.M,))
    cellvals = np.repeat(a0_cells, mesh.xprime_count)
    n = mesh.n_interior
    imap = lambda j, m: _interior_index(mesh, j, m)
    mat = _weighted_block(mesh, cellvals, imap, imap, n, n)
    op = SparseOperator(mat, symmetry="symmetric", mesh=mesh, kind="weighted_mass")
    if _validate:
        d = op.diagonal()
        if d.size and d.min() <= 0:
            raise AssemblyError("weighted mass has non-positive diagonal "
                                "(min %g): broken quadrature" % d.min())
        rng = np.random.default_rng(12345)
        for _ in range(50):
            v = rng.standard_normal(n)
            if op.form(v) <= 0:
                raise AssemblyError("weighted mass failed a Rayleigh-quotient "
                                    "positivity check")
    return op


def _diffusion_matrix(mesh, a_cells):
    """Diffusion block sum_ij a_ij(cell) int D_j(trial) D_i(test); a_cells has
    shape (Mc, npc, dim, dim) with index order (x', x_d) in dim=2."""
    dim = mesh.dim
    d_axis = dim - 1
    mmp, ggp, dmp = _xp_factor(mesh)
    wide = mesh.xd_widths
    gg = _GG[None, :, :] / wide[:, None, None]
    mm = _MM[None, :, :] * wide[:, None, None]
    dm = np.broadcast_to(_DM, (mesh.M, 2, 2))
    n = mesh.n_interior
    imap = lambda j, m: _interior_index(mesh, j, m)
    rows, cols, vals = [], [], []
    for i in range(dim):
        for j in range(dim):
            coef = a_cells[:, :, i, j].ravel()
            if i == d_axis and j == d_axis:
                fx, fp = gg, mmp
            elif j == d_axis:                      # trial in xd, test in x'
                fx = np.broadcast_to(_DM, (mesh.M, 2, 2))
                fp = dmp.T                         # fp[aq,bq] = int psi_a psi'_b
            elif i == d_axis:                      # test in xd, trial in x'
                fx = np.broadcast_to(_DM.T, (mesh.M, 2, 2))
                fp = dmp
            else:
                fx, fp = mm, ggp
            r, c, v = _assemble_pairs(mesh, coef, fx, fp, imap, imap)
            rows.append(r)
            cols.append(c)
            vals.append(v)
    return _canonical_csr(np.concatenate(rows), np.concatenate(cols),
                          np.concatenate(vals), (n, n))


def assemble_stiffness(mesh, coeffs, lam, t=0.0, _self_check=True):
    """K = diffusion(a_ij frozen at cell midpoints, time t) + lambda * c0-block
    with the x_d^{-1} weight.  Coercivity against the model stiffness is
    spot-checked with 20 random interior vectors."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    sample = sample_on_mesh(coeffs, mesh, t=t)
    a_cells = sample.a[0]
    K = _diffusion_matrix(mesh, a_cells)
    if lam > 0:
        c_cells = sample.c0[0].ravel()
        n = mesh.n_interior
        imap = lambda j, m: _interior_index(mesh, j, m)
        K = K + lam * _weighted_block(mesh, c_cells, imap, imap, n, n)
    scale = np.abs(K).max()
    asym = np.abs(K - K.T).max() if K.nnz else 0.0
    tag = "symmetric" if asym <= 1e-14 * max(scale, 1.0) else "general"
    op = SparseOperator(K, symmetry=tag, mesh=mesh, kind="stiffness")
    if _self_check:
        eye = np.broadcast_to(np.eye(mesh.dim),
                              (mesh.M, mesh.xprime_count, mesh.dim, mesh.dim))
        K0 = _diffusion_matrix(mesh, eye)
        rng = np.random.default_rng(777)
        for _ in range(20):
            v = rng.standard_normal(mesh.n_interior)
            lhs = v @ (K @ v)
            rhs = coeffs.nu * (v @ (K0 @ v))
            if lhs < rhs - 1e-10 * max(abs(lhs), abs(rhs), 1.0):
                raise AssemblyError(
                    "coercivity self-check failed: v'Kv=%g < nu*v'K0v=%g"
                    % (lhs, rhs))
    return op


def model_stiffness(mesh):
    """K0: a = I, lambda = 0.  u^T K0 u is exactly the squared L2 gradient
    norm of the interior P1 field u."""
    eye = np.broadcast_to(np.eye(mesh.dim),
                          (mesh.M, mesh.xprime_count, mesh.dim, mesh.dim))
    return SparseOperator(_diffusion_matrix(mesh, eye), symmetry="symmetric",
                          mesh=mesh, kind="model_stiffness")


# -- loads ------------------------------------------------------------------------

class LoadAssembler:
    """Precomputes the sparse maps from nodal source samples to load vectors:
    b = sum_i G_i F_i + sqrt(lambda) W f  with
    G_i[k,n] = int Phi_n D_i Phi_k dx,  W[k,n] = int Phi_n Phi_k x_d^{-1} dx."""

    def __init__(self, mesh):
        self.mesh = mesh
        n, ncols = mesh.n_interior, mesh.n_nodes
        imap = lambda j, m: _interior_index(mesh, j, m)
        nmap = lambda j, m: _node_index(mesh, j, m)
        ones = np.ones(mesh.n_space_cells)
        self.W = _weighted_block(mesh, ones, imap, nmap, n, ncols)
        mmp, ggp, dmp = _xp_factor(mesh)
        wide = mesh.xd_widths
        mm = _MM[None, :, :] * wide[:, None, None]
        self.G = []
        for i in range(mesh.dim):
            if i == mesh.dim - 1:      # derivative on the test hat, xd part
                fx = np.broadcast_to(_DM.T, (mesh.M, 2, 2))
                fp = mmp
            else:                      # x' derivative on the test hat
                fx = mm
                fp = dmp.T
            r, c, v = _assemble_pairs(self.mesh, ones, fx, fp, imap, nmap)
            self.G.append(_canonical_csr(r, c, v, (n, ncols)))

    def assemble(self, F, f, lam, t=0.0):
        """Nodal-interpolated loads at time t, one interior vector; for a
        1-D array t, one row per time, shape (len(t), n_interior).  F is
        None, a callable (dim=1) or a tuple of dim callables; f is None or a
        callable.  Each source is sampled once for all times, so it must
        broadcast an array t against the node grid."""
        mesh = self.mesh
        times = np.atleast_1d(np.asarray(t, float))
        if times.ndim != 1:
            raise ValueError("t must be a scalar or a 1-D array of times")

        def samples(func):
            return sample_nodes(mesh, func, times[:, None, None]).reshape(
                times.size, mesh.n_nodes).T

        b = np.zeros((times.size, mesh.n_interior))
        if F is not None:
            comps = F if isinstance(F, (tuple, list)) else (F,)
            if len(comps) != mesh.dim:
                raise ValueError("F needs %d components" % mesh.dim)
            for i, Fi in enumerate(comps):
                if Fi is not None:
                    b += (self.G[i] @ samples(Fi)).T
        if f is not None:
            if lam < 0:
                raise ValueError("lambda must be >= 0")
            b += np.sqrt(lam) * (self.W @ samples(f)).T
        if not np.all(np.isfinite(b)):
            raise ValueError("non-finite load entries")
        return b[0] if np.ndim(t) == 0 else b


# -- Gram matrices for data norms ---------------------------------------------

def data_grams(mesh):
    """(unweighted Gram over all nodes, x_d^{-1}-weighted Gram over nodes with
    j >= 1).  The weighted form requires the x_d = 0 samples to vanish; the
    j = 0 row/column is excluded, which is exact in that case."""
    nmap = lambda j, m: _node_index(mesh, j, m)
    nn = mesh.n_nodes
    mmp, _, _ = _xp_factor(mesh)
    wide = mesh.xd_widths
    mm = _MM[None, :, :] * wide[:, None, None]
    ones = np.ones(mesh.n_space_cells)
    r, c, v = _assemble_pairs(mesh, ones, mm, mmp, nmap, nmap)
    gram_all = _canonical_csr(r, c, v, (nn, nn))

    def no0_map(j, m):
        idx = (j - 1) * mesh.xprime_count + m
        return np.where(j >= 1, idx, -1)

    nw = mesh.M * mesh.xprime_count
    gram_w = _weighted_block(mesh, ones, no0_map, no0_map, nw, nw)
    return (SparseOperator(gram_all, "symmetric", mesh, "gram_nodes"),
            SparseOperator(gram_w, "symmetric", mesh, "gram_weighted_no0"))
