"""Reference kernel: a fixed unit of work, independent of degenlab, that the
benchmark runs after every operation so that operation times can be
expressed in units of it.

The kernel mixes the kinds of work the workloads do, in roughly the same
grain: vectorised transcendental sampling and reductions (source sampling,
norm quadrature), a COO-to-CSR build with duplicate entries plus sparse
matrix-vector products (assembly), a banded LU solve (the d = 1 solver) and
a Python loop over many small NumPy calls (the per-time-level loops).  A
slower or faster machine scales all of these together, so the ratio of an
operation's time to the kernel's time cancels most of the drift.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp


class ReferenceKernel:
    """Deterministic inputs built once; ``__call__`` does the timed work and
    returns a checksum that must not change between calls."""

    def __init__(self):
        rng = np.random.default_rng(20211)
        self.x = rng.uniform(0.0, 4.0, size=(96, 96))
        n = 3000
        self.n = n
        base = np.arange(n)
        self.rows = np.concatenate([base, base[1:], base[:-1], base])
        self.cols = np.concatenate([base, base[:-1], base[1:], base])
        self.vals = rng.uniform(0.5, 1.0, size=self.rows.size)
        self.vals[:n] += 4.0
        self.rhs = rng.standard_normal(n)
        self.small = rng.standard_normal((300, 12))
        self.expected = None

    def _work(self):
        x = self.x
        acc = 0.0
        for k in range(1, 5):
            acc += float(np.sum(np.sin(k * x) * np.cos(x + k)
                                * np.exp(-0.25 * x)))
            acc += float(np.sum(np.abs(x - k) ** 2.5 * x ** -0.5))
        order = np.lexsort((self.vals, self.cols, self.rows))
        A = sp.csr_matrix((self.vals[order], (self.rows[order],
                                              self.cols[order])),
                          shape=(self.n, self.n))
        v = self.rhs
        for _ in range(20):
            v = A @ v
            v = v / np.linalg.norm(v)
        ab = np.zeros((3, self.n))
        ab[0, 1:] = A.diagonal(1)
        ab[1] = A.diagonal()
        ab[2, :-1] = A.diagonal(-1)
        y = scipy.linalg.solve_banded((1, 1), ab, self.rhs)
        acc += float(v @ y)
        for row in self.small:
            acc += float(row @ row) / (1.0 + float(np.max(np.abs(row))))
        return acc

    def __call__(self):
        value = self._work()
        if self.expected is None:
            self.expected = value
        elif value != self.expected:
            raise RuntimeError("reference kernel checksum changed: %r != %r"
                               % (value, self.expected))
        return value
