"""Time marching for the discrete system

    M du/dt + K(t) u = b(t),   u(0) = 0,

posed on (-inf, T) with no initial condition, so marched from rest on the
mesh's time grid: forward by the theta-scheme (implicit Euler by default),
and back by the adjoint march that the duality identity pairs with it.
Both run one time loop, ``_steps``: forward through the time levels 1..N
for a batch of k systems on one mesh and mass, back through N..1 for one
system, transposed.

A stiffness stack is an (L, nnz) array of entry data on the mesh's
interior pattern, one level (L = 1) when the coefficient field declares
itself autonomous and one per time level (L = N+1) otherwise, and the
mass is entry data (nnz,) on the same pattern.  A
``Marcher`` splits it as K(lam) = D + lam * C once per (mesh,
coefficients), so a lambda grid assembles D and C once and marches as one
batch, and a problem that marches many solutions (see
``harness.ProblemSpec.marcher``) assembles its mass and split once.

Every linear system goes to one banded LU (LAPACK's dgbtrf), filled
straight from CSR entry data and solved through its factors by two BLAS
triangular band solves (dtbsv), each at its triangle's own width (kl
subdiagonals for L, ku superdiagonals for U), or by LAPACK's dgbtrs
when dgbtrf interchanged rows, in a declared DoF order: natural in
d = 1 and with the periodic x' index interleaved in d = 2, which
narrows the band from 2P - 1 to P + 2 diagonals.  That layout is built
once per mesh, with the patterns of k copies of the pattern, and each
mesh keeps one band LU per batch size; a band LU copies its L^T out of
the band only for a transposed solve.  The interior pattern is its own
transpose, so a transpose is a permutation of the entry data on the
same pattern.
No march, step or check builds a scipy.sparse matrix: every product
calls scipy's own CSR kernel on those patterns and the entry data, so it
is bitwise the scipy product of the same matrix.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .assembly import (LoadAssembler, assemble_weighted_mass,
                       interior_pattern, stiffness_entries, stiffness_levels)
from .fields import DiscreteField
from .mesh import _cached, _frozen


class SolverError(RuntimeError):
    """Linear or time-stepping failure (distinct exit path from bad config)."""


class TimeStepperConfig:
    """Theta of the scheme; the time grid is the mesh's."""

    def __init__(self, theta=1.0):
        if not 0.5 <= theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1], got %r" % (theta,))
        self.theta = float(theta)


# -- linear solves ------------------------------------------------------------

# The largest backward error any solve may have.  LU with partial pivoting
# is backward stable: unless the factorization broke down, the backward
# error is a small multiple of the unit roundoff (the lab's solves stay
# below 1e-16), so the bound is the algorithm's and no caller sets it.
_BACKWARD_ERROR_BOUND = 1e-11


class _BandLayout:
    """Where the entries of one square CSR pattern go in LAPACK band storage
    when the DoFs are taken in ``order`` (the natural order when None): the
    bandwidths of the reordered pattern, the band position of every entry,
    and the pattern (indices, indptr) itself, which the products and the
    backward error checks read.  It depends on the pattern alone, and
    every array it makes is read-only.

    Only the mesh's interior pattern is ever solved transposed, and it is
    its own transpose: symmetric, with the columns of every row ascending,
    so listing the entries of each column by ascending row lists the
    pattern again.  So A^T is the matrix on the same pattern whose entry i
    is entry perm[i] of A, and every product with A^T and every check of
    a transposed solve reads A[..., perm] on the pattern, or on
    ``copies`` of it."""

    def __init__(self, indices, indptr, n, order=None):
        rows = np.repeat(np.arange(n), np.diff(indptr))
        cols = np.asarray(indices, np.intp)
        self.pattern = (indices, indptr)
        # the entries of each column of A, rows ascending: A^T by rows
        self.perm = np.argsort(cols, kind="stable")
        self._tables = {}
        self.order, self.rank = order, None
        r, c = rows, cols
        if order is not None:
            self.rank = np.empty(n, np.intp)
            self.rank[order] = np.arange(n)
            r, c = self.rank[rows], self.rank[cols]
        off = r - c
        self.kl, self.ku = int(off.max(initial=0)), int(-off.min(initial=0))
        self.shape = (2 * self.kl + self.ku + 1, n)
        self.at = self.kl + self.ku + off + self.shape[0] * c     # A[i, j]
        _frozen(list(vars(self).values()))

    def copies(self, k):
        """The (indices, indptr) of diag(A_1, ..., A_k), k blocks on the
        pattern, every row in the entry order of its block's: in the
        pattern's index dtype, built once per k (read-only, see _cached)
        for k > 1; for k = 1, the pattern itself."""
        if k == 1:
            return self.pattern

        def build():
            indices, indptr = self.pattern
            n, nnz = len(indptr) - 1, indices.size
            shift = np.arange(k)[:, None]
            return ((indices + n * shift).ravel().astype(indices.dtype),
                    np.append((indptr[:-1] + nnz * shift).ravel(),
                              k * nnz).astype(indptr.dtype))
        return _cached(self, ("copies", k), build)


def _product(pattern, data, x, out):
    """out = A x for the entry data of A on the CSR pattern (indices,
    indptr), by ``csr_matvec``, the kernel a scipy CSR product ends in:
    each row sums from zero, in the pattern's entry order."""
    indices, indptr = pattern
    out[:] = 0.0
    csr_matvec(out.size, x.size, indptr, indices, data, x, out)
    return out


def _c_ordered(x, out):
    """x when C-ordered, else a copy of x in ``out``, a C-ordered array of
    x's shape: a ufunc buffers an operand whose layout is not its output's."""
    if x.flags.c_contiguous:
        return x
    out[:] = x
    return out


def _row_norms(x, out):
    """np.linalg.norm(x, axis=1) of a real C-ordered (K, n) x, its squares
    formed in ``out``, which may be x."""
    return np.sqrt(np.add.reduce(np.multiply(x, x, out=out), axis=1))


def _band_layout(mesh):
    """The band layout of the mesh's interior pattern in its declared DoF
    order, built once per mesh.  The order is the natural one in d = 1.  In
    d = 2 each row of x_d nodes takes its periodic x' nodes as 0, P-1, 1,
    P-2, ..., which puts the wrap between x' nodes 0 and P-1 next to each
    other: the band reaches P + 2 diagonals (P >= 3) instead of the 2P - 1
    of the natural order."""
    def build():
        indices, indptr, shape = interior_pattern(mesh)
        order = None
        if mesh.dim == 2:
            P = mesh.xprime_count
            k = np.arange(P)
            ring = np.where(k % 2 == 0, k // 2, P - 1 - k // 2)
            order = (P * np.arange(shape[0] // P)[:, None] + ring).ravel()
        return _BandLayout(indices, indptr, shape[0], order)
    return _cached(mesh, "band layout", build)


def _band_lu(mesh, k=1):
    """The one band LU of k blocks on the mesh's band layout that every
    march of k systems on the mesh factors into; ``factor_once`` makes
    reusing it safe."""
    return _cached(mesh, ("band lu", k),
                   lambda: _BandLU(_band_layout(mesh), k))


class _BandLU:
    """LAPACK's banded LU for k matrices on one band layout, taken as the
    blocks of one block-diagonal matrix: ``factor`` fills the band buffer
    from entry data (k, nnz) in pattern order, ``solve`` reuses the factors
    (transposed for trans=1) and takes b and x in the pattern's own DoF
    order, and ``check`` checks a batch of solves of one block in one
    pass against its factored matrix in that order.  A vector of the k
    systems is their k vectors end to end.  The band of a block holds zeros
    outside it, so dgbtrf treats every block as it treats its matrix alone.

    When dgbtrf interchanged no rows (the pivots are the identity), A = L U
    with L unit lower of kl subdiagonals, its multipliers stored below the
    diagonal of U in the band, and U upper of ku superdiagonals: the top
    kl rows of the band, which hold the fill of row interchanges, stay
    exactly zero.  ``solve`` is then two BLAS triangular band solves
    (dtbsv), each on a Fortran-ordered array that f2py passes without a
    copy.  U (and U^T) is solved on ku superdiagonals, through a view of
    the buffer from kl entries on with the band's leading dimension, whose
    row ku is U's diagonal.  L is a view of the same buffer from kl + ku
    entries on, so that column j of the view starts at the diagonal of U
    (not read: L has a unit diagonal) followed by column j's multipliers;
    the buffer runs kl + ku entries past the band so both views have a
    full last column.  Multiplier i of column j sits in band row
    kl + ku + i, so row c of L left of its diagonal runs through the
    buffer with stride height - 1, one stride per column to its right:
    ``_lower_rows`` views those k n rows, kl multipliers each, leftmost
    first, and the buffer starts kl columns of zeros before the band, so
    that the entries left of L's first column, which no solve reads, lie
    in it.  L^T is solved as an upper band: the first transposed solve
    after a factorization copies ``_lower_rows`` into ``_lower_t`` (see
    ``_transposed_lower``), which the next ``factor`` drops, so a
    forward-only march never makes it.  A forward
    solve updates each entry through L as dgbtrs does, column by column,
    and skips only U's zero fill, so it is bitwise dgbtrs, and each
    block's solution is bitwise that of its system solved alone; a
    transposed solve sums each entry in another order than dgbtrs, so it
    agrees with dgbtrs trans=1 to roundoff, not bitwise.  When dgbtrf did
    interchange rows, L is not banded and ``solve`` calls dgbtrs.

    A factorization owns only the buffer, the pivots and whether they
    interchanged rows, after ``factor_once`` a copy of the entries it
    factored, after a transposed solve the copy of L^T, and one flat work
    array, grown on demand and kept like the band, in which ``check``
    forms every temporary of the size of its solves."""

    def __init__(self, layout, k=1):
        self.layout = layout
        self.kl, self.ku = layout.kl, layout.ku
        kl, ku = self.kl, self.ku
        height, n = layout.shape
        shape, size, front = (height, k * n), height * k * n, height * kl
        buffer = np.zeros(front + size + kl + ku)
        self._flat = buffer[front:front + size]              # views
        self._band = self._flat.reshape(shape, order="F")
        self._upper = buffer[front + kl:front + kl + size].reshape(
            shape, order="F")
        self._lower = buffer[front + kl + ku:].reshape(shape, order="F")
        step = buffer.itemsize
        self._lower_rows = np.ndarray(
            (k * n, kl), buffer=buffer, offset=(height - 1) * step,
            strides=(height * step, (height - 1) * step))
        blocks = np.arange(k)[:, None]
        self._at = layout.at + height * n * blocks           # (k, nnz)
        self._order = self._rank = None
        if layout.order is not None:
            self._order = (layout.order + n * blocks).ravel()
            self._rank = (layout.rank + n * blocks).ravel()
        self._identity = np.arange(k * n, dtype=np.int32)
        self._interchanged = None
        self._factored = None
        self._lower_t = None
        self._work = np.empty(0)

    def factor(self, data, level=None, names=None):
        """LU-factor the matrices with these entries; an exactly singular
        one raises SolverError naming its block by names[i] and the time
        level when given."""
        self._factored = self._lower_t = None
        self._flat[:] = 0.0
        self._flat[self._at] = data
        _, self._piv, info = dgbtrf(self._band, self.kl, self.ku,
                                    overwrite_ab=1)
        self._interchanged = not np.array_equal(self._piv, self._identity)
        if info > 0:
            i, pivot = divmod(info - 1, self.layout.shape[1])
            raise SolverError("%s%sLU factorization failed: the matrix is "
                              "exactly singular (zero pivot %d)"
                              % ("" if names is None else names[i],
                                 "" if level is None
                                 else "time level %d: " % level, pivot + 1))

    def factor_once(self, data, level=None, names=None):
        """``factor``, unless the buffer holds the factors of exactly these
        entries, bitwise, from the last factorization: compared as uint64
        bit patterns, so a zero of the other sign is factored anew."""
        if self._factored is None or not np.array_equal(
                self._factored.view(np.uint64), data.view(np.uint64)):
            self.factor(data, level, names)
            self._factored = data.copy()

    def solve(self, b, trans=0):
        """x of A x = b, or of A^T x = b for trans=1: with P the declared
        order, the band holds P A P^T, and (P A P^T)^T = P A^T P^T, so both
        solve for P x with P b.  L then U, or U^T then L^T, by dtbsv on
        kl and ku diagonals, or by dgbtrs when the factoring interchanged
        rows."""
        x = b.copy() if self._order is None else b[self._order]
        if self._interchanged:
            x = dgbtrs(self._band, self.kl, self.ku, x, self._piv,
                       trans=trans, overwrite_b=1)[0]
        elif trans:
            if self._lower_t is None:
                self._lower_t = self._transposed_lower()
            x = dtbsv(self.ku, self._upper, x, trans=1, overwrite_x=1)
            x = dtbsv(self.kl, self._lower_t, x, diag=1, overwrite_x=1)
        else:
            x = dtbsv(self.kl, self._lower, x, lower=1, diag=1,
                      overwrite_x=1)
            x = dtbsv(self.ku, self._upper, x, overwrite_x=1)
        return x if self._rank is None else x[self._rank]

    def _transposed_lower(self):
        """L^T as an upper band of kl superdiagonals, (kl + 1, k n) in
        Fortran order with a unit diagonal: its column c above the
        diagonal is row c of L left of the diagonal, row c of
        ``_lower_rows``, so all of it is one copy, contiguous in L^T."""
        lower_t = np.empty((self.kl + 1, self._band.shape[1]), order="F")
        lower_t[:-1] = self._lower_rows.T
        lower_t[-1] = 1.0
        return lower_t

    def backward_errors(self, data, X, B, trans=0):
        """The backward error ||b - A x|| / (||b|| + ||A||_inf ||x||) of each
        solve A_k x_k = b_k (A_k^T for trans=1) of one block, with A_k the
        rows of data (1 or K, nnz).  All A_k x_k are one call of scipy's CSR
        product kernel, on diag(A_1, ..., A_K) or on A_1 for every x_k when
        data has one row, and so are the row sums of |A_k|: each sum runs
        as a scipy product of the same matrix runs it.  A^T is A[..., perm]
        on the same pattern (see _BandLayout).  Every temporary of
        the size of X is formed in the two halves of the kept work array:
        the X that the kernel reads (transposed for one row), A X, the
        squares behind the row norms of B, X and the residual B - A X, and
        a C-ordered copy of a B or X that is not (one member of a batch).
        Kept, they are not given back to the system between marches for
        the next march to fault in again.  Each row norm
        is sqrt(add.reduce(x * x, axis=1)) over C-ordered rows, what
        np.linalg.norm(x, axis=1) computes, so every error is bitwise what
        the norms give.  The errors are a new array."""
        layout = self.layout
        if trans:
            data = data[:, layout.perm]
        levels_n, (K, n) = len(data), X.shape
        size = K * n
        if self._work.size < 2 * size:
            self._work = np.empty(2 * size)
        first, second = self._work[:size], self._work[size:2 * size]
        pattern = layout.copies(levels_n)
        if levels_n == 1:       # X^T and (A X)^T, then A X in the first half
            first.reshape(n, K)[:] = X.T
            second[:] = 0.0
            indices, indptr = pattern
            csr_matvecs(n, n, K, indptr, indices, data[0], first, second)
            first.reshape(K, n)[:] = second.reshape(n, K).T
            Ax, w = first, second
        else:
            x = _c_ordered(X, first.reshape(K, n)).ravel()
            Ax, w = _product(pattern, data.ravel(), x, second), first
        Ax, w = Ax.reshape(K, n), w.reshape(K, n)
        rows = levels_n * n
        norm_A = _product(pattern, np.abs(data).ravel(), np.ones(rows),
                          np.empty(rows)).reshape(levels_n, n).max(axis=1)
        denom = (_row_norms(_c_ordered(B, w), w)
                 + norm_A * _row_norms(_c_ordered(X, w), w))
        np.subtract(_c_ordered(B, w), Ax, out=w)
        return _row_norms(w, w) / np.where(denom == 0, 1, denom)

    def check(self, data, X, B, levels=None, trans=0, name=""):
        """Every ``backward_errors`` of these solves must be finite and at
        most _BACKWARD_ERROR_BOUND; the first that is not raises
        SolverError, prefixed by ``name`` and naming time level levels[k]
        when given."""
        errors = self.backward_errors(data, X, B, trans)
        bad = ~(errors <= _BACKWARD_ERROR_BOUND)
        if bad.any():
            k = int(np.argmax(bad))
            where = "" if levels is None else "time level %d: " % levels[k]
            raise SolverError("%s%slinear solve backward error %.3e exceeds "
                              "%.3e" % (name, where, errors[k],
                                        _BACKWARD_ERROR_BOUND))


def linear_solve(A, b):
    """Solve A x = b by banded LU in the natural order.  Raises SolverError
    when A is singular or the verified backward error exceeds
    _BACKWARD_ERROR_BOUND."""
    A = sp.csr_matrix(A, copy=True)
    A.sum_duplicates()
    b = np.asarray(b, float)
    if A.shape[1] != A.shape[0] or b.shape != A.shape[:1]:
        raise ValueError("linear_solve needs a square A and a b of its "
                         "size, got %s and %s" % (A.shape, b.shape))
    lu = _BandLU(_BandLayout(A.indices, A.indptr, len(b)))
    lu.factor(A.data)
    x = lu.solve(b)
    lu.check(A.data[None], x[None], b[None])
    return x


# -- solution container --------------------------------------------------------

class SpaceTimeSolution:
    """Nodal values at every time level of the mesh's time grid: ``times``,
    ``dt`` and ``time_count`` are the mesh's.  Dirichlet traces are exactly
    zero and every value is finite, both checked once here.  A march gives
    the lambda ``lam`` it marched at and the load rows ``loads`` (N+1,
    n_interior) it marched on, each None when not known.  A solution
    keeps its own read-only copy of the levels, so the space-time norms of
    ``norms.weighted_norm`` are integrated once per solution and norm and
    kept in its ``_tables`` (see ``mesh._cached``): a kept norm cannot go
    stale."""

    def __init__(self, mesh, levels, lam=None, loads=None):
        levels = np.array(levels, float)
        shape = (mesh.time_count + 1, mesh.M + 1, mesh.xprime_count)
        if levels.shape != shape:
            raise ValueError("levels must have shape (N+1, M+1, xprime_count)"
                             " = %s, got %s" % (shape, levels.shape))
        if not np.all(np.isfinite(levels)):
            raise ValueError("non-finite values in solution")
        if np.any(levels[:, 0, :] != 0) or np.any(levels[:, -1, :] != 0):
            raise ValueError("nonzero Dirichlet trace in solution levels")
        levels.setflags(write=False)
        self.mesh = mesh
        self._levels = levels
        self._tables = {}
        self.times = mesh.time_levels
        self.lam = lam
        self.loads = loads

    @property
    def levels(self):
        return self._levels

    @property
    def time_count(self):
        return self.mesh.time_count

    @property
    def dt(self):
        return self.mesh.time_step

    def field_at(self, n):
        return DiscreteField(self.mesh, self.levels[n])

    def interior_levels(self):
        return self.levels[:, 1:-1, :].reshape(self.levels.shape[0], -1)

    def time_differences(self):
        """(u^{n+1} - u^n)/dt at nodes, shape (N, M+1, npc)."""
        return np.diff(self.levels, axis=0) / self.dt

    def max_abs(self):
        return float(np.abs(self.levels).max())


# -- marching -------------------------------------------------------------------

def _systems(mass, stiffness, s, mesh, batch=True):
    """(K, A, LU) of a batch of k systems: the stiffness stacks K (k, L,
    nnz) on the mesh's interior pattern, L = 1 (autonomous; every n gives
    level 0) or N+1, the entry data A (L, k, nnz) of M + s K_i^n, laid out
    step-major so that the k systems of one level are contiguous, and the
    mesh's band LU of k blocks, from the mass's entry data (nnz,).  With
    batch=False, stiffness is the one stack (L, nnz) of a single system."""
    indices = interior_pattern(mesh)[0]
    N = mesh.time_count
    K = np.asarray(stiffness, float)
    if K.ndim != 2 + batch or K.shape[-2] not in (1, N + 1) \
            or K.shape[-1] != indices.size or K.shape[0] < 1:
        k = "k, " if batch else ""
        raise ValueError("stiffness stack must have shape (%s1, nnz) or "
                         "(%sN+1, nnz) = (%s%d, %d), got %s"
                         % (k, k, k, N + 1, indices.size, K.shape))
    if not batch:
        K = K[None]
    if np.shape(mass) != indices.shape:
        raise ValueError("the mass must be entry data of shape (nnz,) = %s "
                         "on the interior pattern of the mesh, got %s"
                         % (indices.shape, np.shape(mass)))
    A = np.empty((K.shape[1], K.shape[0], K.shape[2]))
    np.multiply(K.transpose(1, 0, 2), s, out=A)
    A += mass
    return K, A, _band_lu(mesh, K.shape[0])


def _steps(mass, K, A, lu, rhs, levels, theta, dt, names, trans=0):
    """The one time loop of both marches: k systems that share the mass M,
    stepped from rest, u^0 = 0, to the time levels ``levels``, one a step.
    With n = levels[s], step s solves A_i^n u_i^{s+1} = M u_i^s + rhs[s, i]
    for each system i, less (1 - theta) dt K_i^{n-1} u_i^s when theta < 1,
    A_i^n = M + theta dt K_i^n being the entries A[n, i] (A[0, i] for one
    level), transposed for trans=1.  The k systems of a level are the
    blocks of the band LU ``lu``, factored every step for N+1 levels and
    once for one, by ``factor_once``: so an adjoint solves with the factors
    of a one-system forward march of the same system.  A step makes at
    most one dgbtrf, one solve through its factors (two dtbsv, or one
    dgbtrs when dgbtrf interchanged rows; see _BandLU) and one product
    with the mass of all k systems, and for theta < 1 one with their
    K^{n-1}, each a call of scipy's CSR kernel on k copies of the mesh's
    pattern; every solution is bitwise that of its system stepped alone.
    rhs (steps, k, n_int) is completed in place, and every solve is
    checked against it after the last step, one system at a time, a
    failure prefixed by names[i] and naming the level.  Returns U (steps + 1, k, n_int), U[s] = u^s.
    """
    steps, k, n_int = rhs.shape
    U = np.zeros((steps + 1, k, n_int))
    blocks = lu.layout.copies(k)        # k copies of the interior pattern
    M_data = mass if k == 1 else np.tile(mass, k)
    U_flat, rhs_flat = U.reshape(steps + 1, -1), rhs.reshape(steps, -1)
    work = np.empty(k * n_int)
    stacked = A.shape[0] > 1
    if not stacked:
        lu.factor_once(A[0], levels[0], names)
    for s, n in enumerate(levels.tolist()):
        if stacked:
            lu.factor(A[n], n, names)
        rhs_flat[s] += _product(blocks, M_data, U_flat[s], work)
        if theta < 1.0:     # the explicit part, K^{n-1}, or K
            Kn = K[:, n - 1 if stacked else 0].ravel()
            rhs_flat[s] -= (1 - theta) * dt * _product(blocks, Kn,
                                                       U_flat[s], work)
        U_flat[s + 1] = lu.solve(rhs_flat[s], trans)
    for i in range(k):
        lu.check(A[levels, i] if stacked else A[:, i], U[1:, i], rhs[:, i],
                 levels=levels, trans=trans, name=names[i])
    return U


def march_system(mass, stiffness, loads, mesh, config=None, lams=None):
    """Core theta-scheme for a batch of k systems that share the mesh and
    the mass, marched from rest (u^0 = 0) on the mesh's time grid
    t_n = n dt, n = 0..N.

    mass: the weighted mass's entry data (nnz,) on the pattern of stiffness.
    stiffness: an array (k, L, nnz) whose [i, n] is the data of K_i(t_n) on
    ``interior_pattern(mesh)`` (see ``stiffness_levels``): L = 1 for
    autonomous coefficients, or L = N+1.  loads: None or an array (k, N+1,
    n_interior) whose [i, n] is the load b_i^n.  lams: the k lambdas the
    stack was formed at, or None; a failure of system i names lams[i]
    ("lambda 10.0: "), or i ("system i: ") when lams is None.  Each step
    solves (M + theta dt K_i^{n+1}) u_i^{n+1} = (M - (1-theta) dt K_i^n)
    u_i^n + dt b_i^theta for every i, by ``_steps``.  Returns k solutions,
    solution i made with lams[i] as its ``lam`` and its load rows as its
    ``loads``.
    """
    config = config or TimeStepperConfig()
    dt, N = mesh.time_step, mesh.time_count
    theta = config.theta
    n_int = mesh.n_interior
    K, A, lu = _systems(mass, stiffness, theta * dt, mesh)
    k = len(K)
    if lams is None:
        lams = [None] * k
        names = ["system %d: " % i for i in range(k)]
    else:
        lams = [float(lam) for lam in lams]
        names = ["lambda %r: " % lam for lam in lams]
    if len(lams) != k:
        raise ValueError("lams must hold one lambda per system, k = %d, "
                         "got %d" % (k, len(lams)))
    rhs = np.zeros((N, k, n_int))       # [n, i]: system i, step n -> n+1
    if loads is not None:
        loads = np.asarray(loads, float)
        if loads.shape != (k, N + 1, n_int):
            raise ValueError("loads must have shape (k, N+1, n_interior) = "
                             "%s, got %s" % ((k, N + 1, n_int), loads.shape))
        b = loads.transpose(1, 0, 2)
        np.multiply(b[1:], theta, out=rhs)
        rhs += (1 - theta) * b[:-1]
        rhs *= dt
    U = _steps(mass, K, A, lu, rhs, np.arange(1, N + 1), theta, dt, names)

    nodes = np.zeros((k, N + 1, mesh.M + 1, mesh.xprime_count))
    nodes[:, :, 1:-1, :] = U.transpose(1, 0, 2).reshape(
        k, N + 1, mesh.M - 1, mesh.xprime_count)
    return [SpaceTimeSolution(mesh, nodes[i], lams[i],
                              None if loads is None else loads[i])
            for i in range(k)]


class Marcher:
    """The lambda-free parts of M du/dt + K(lam, t) u = b on one mesh with
    one coefficient field: the weighted mass (entry data) and the stiffness
    split K(lam) = D + lam * C of stiffness_levels, at t = 0 when the field
    declares itself autonomous (see ``CoefficientField.autonomous``) and at
    every time level of the mesh otherwise, built on first use.  One marcher
    marches any number of lambdas and load parts, forward and adjoint."""

    def __init__(self, mesh, coeffs, config=None):
        if coeffs.dim != mesh.dim:
            raise ValueError("a coefficient field of dimension %d cannot be "
                             "marched on a mesh of dimension %d"
                             % (coeffs.dim, mesh.dim))
        self.mesh = mesh
        self.coeffs = coeffs
        self.config = config or TimeStepperConfig()
        self._tables = {}
        self.mass = _cached(self, "mass", lambda: assemble_weighted_mass(
            mesh, coeffs.a0).data)

    def stiffness(self, lams):
        """K(lam) for each lambda of a grid, as march_system takes it: the
        stiffness_entries (k, L, nnz) of the split, one level when
        autonomous, else N+1."""
        def split():
            times = self.mesh.time_levels
            if self.coeffs.autonomous:
                times = times[:1]
            return stiffness_levels(self.mesh, self.coeffs, times)
        return stiffness_entries(_cached(self, "split", split), lams)

    def march(self, lams, parts=None):
        """Forward marches at every lambda of the grid ``lams``, one
        solution per lambda, in order, as one batch of march_system.  The
        loads b(lam) = B_F + sqrt(lam) B_f of every lambda combine the
        lambda-free ``parts`` (B_F, B_f) of ``LoadAssembler.parts``; with
        no parts, no load."""
        lams = np.asarray(lams, float)
        K = self.stiffness(lams)
        grid = lams.tolist()
        loads = None
        if parts is not None:
            loads = np.stack([LoadAssembler.combine(parts, lam)
                              for lam in grid])
        return march_system(self.mass, K, loads, self.mesh,
                            config=self.config, lams=grid)

    def adjoint(self, lam, dual_loads):
        """Backward march on the transpose of the forward system at this
        lambda, for a marcher of theta = 1 only; see ``adjoint_march``."""
        if self.config.theta != 1.0:
            raise ValueError("the adjoint march is defined for theta = 1")
        return adjoint_march_system(self.mass, self.stiffness([lam])[0],
                                    dual_loads, self.mesh)


def march(mesh, coeffs, lam, F=None, f=None, config=None):
    """One lambda marched from rest through a new ``Marcher`` on the
    ``LoadAssembler.parts`` of F and f, with no load when both are None:
    the one march that samples its sources, as corollary2_reports and
    convergence_study do.  A ``ProblemSpec`` marches through its marcher."""
    parts = None
    if F is not None or f is not None:
        parts = LoadAssembler(mesh).parts(F, f)
    return Marcher(mesh, coeffs, config).march([lam], parts)[0]


def adjoint_march_system(mass, stiffness, dual_loads, mesh):
    """Backward march (M + dt K^n)^T v^n = M v^{n+1} + dt c^n, v^{N+1} = 0,
    for n = N..1 (implicit Euler only: the duality identity is exact there),
    by ``_steps``.

    mass and stiffness are those of one forward system of march_system:
    the mass's entry data and the forward K stack (L, nnz), L = 1 or N+1,
    not K^T; each system is solved with the forward factors, transposed.
    dual_loads: array (N+1, n_interior); row n is c^n, row 0 is ignored.
    Returns an array of the same shape whose row n is v^n (row 0 is zero).
    """
    dt, N = mesh.time_step, mesh.time_count
    dual_loads = np.asarray(dual_loads, float)
    if dual_loads.shape != (N + 1, mesh.n_interior):
        raise ValueError("dual_loads must have shape (N+1, n_interior)")
    K, A, lu = _systems(mass, stiffness, dt, mesh, batch=False)
    U = _steps(mass, K, A, lu, dt * dual_loads[N:0:-1, None],
               np.arange(N, 0, -1), 1.0, dt, [""], trans=1)
    v = np.zeros((N + 1, mesh.n_interior))
    v[1:] = U[:0:-1, 0]                 # v^n = U[N + 1 - n]
    return v


def adjoint_march(mesh, coeffs, lam, dual_loads):
    """Wrapper: the backward march on the transpose of the forward system
    of ``march``, whose coefficients are those of coeffs.transposed()."""
    return Marcher(mesh, coeffs).adjoint(lam, dual_loads)
