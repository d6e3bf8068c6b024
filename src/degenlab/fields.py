"""Nodal fields over a TensorMesh and deterministic random field families."""

import numpy as np


class DiscreteField:
    """One time level of nodal values, shape (M+1, xprime_count).

    Solver-produced fields carry the zero trace at x_d = 0 and x_d = L_d;
    data fields (source samples) need not.
    """

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        expected = (mesh.M + 1, mesh.xprime_count)
        if values.shape != expected:
            raise ValueError("field shape %s, mesh wants %s"
                             % (values.shape, expected))
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite field values")
        self.mesh = mesh
        self.values = values


def node_grid(mesh):
    """Nodal coordinates as broadcastable axes: x' of shape (1, xprime_count)
    and x_d of shape (M+1, 1).  Together they span the (M+1, xprime_count)
    node grid, as the norm kernel's points (cells, 1, q) and (cells, s, 1)
    span its quadrature points, so a callable evaluates each factor of one
    coordinate once per node of that coordinate."""
    return mesh.xprime_nodes[None, :], mesh.xd_nodes[:, None]


def sample_nodes(mesh, func, t):
    """Evaluate func(t, xprime, xd) on the node axes of ``node_grid`` and
    return a new array of the full node-grid shape (M+1, xprime_count).
    t may be an array such as times[:, None, None]: func must broadcast it
    against the axes, and the result takes the broadcast shape, one grid
    per time."""
    xp, xd = node_grid(mesh)
    grid = (mesh.M + 1, mesh.xprime_count)
    shape = np.broadcast_shapes(np.shape(t), grid)
    out = np.asarray(func(t, xp, xd), dtype=float)
    try:
        out = np.broadcast_to(out, shape).copy()
    except ValueError:
        raise ValueError("sampler returned shape %s for t of shape %s; it "
                         "must broadcast t against the node grid %s"
                         % (out.shape, np.shape(t), grid))
    if not np.all(np.isfinite(out)):
        raise ValueError("sampler returned non-finite values")
    return out


def smooth_random_closure(seed, dim, xp_length=1.0, envelope=True):
    """Deterministic smooth random function of (t, x', x_d) built from a short
    trigonometric series of four terms.  With envelope=True the factor
    x_d*exp(-x_d) is applied, so the function vanishes linearly at x_d = 0
    and decays in x_d.

    Returns a closure usable as a source/field sampler.
    """
    n_terms = 4
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1.0, 1.0, size=n_terms)
    om_t = rng.uniform(0.5, 3.0, size=n_terms)
    ph_t = rng.uniform(0, 2 * np.pi, size=n_terms)
    om_d = rng.uniform(0.5, 2.5, size=n_terms)
    ph_d = rng.uniform(0, 2 * np.pi, size=n_terms)
    k_p = rng.integers(1, 3, size=n_terms)       # periodic in x'
    ph_p = rng.uniform(0, 2 * np.pi, size=n_terms)
    two_pi_over_L = 2 * np.pi / xp_length

    def closure(t, xp, xd):
        t = np.asarray(t, float)
        xp = np.asarray(xp, float)
        xd = np.asarray(xd, float)
        # one array of the result's shape takes the sum in place; the order
        # 0.0 + term_0 + ... + term_3, each term ((amp sin_t) cos_d) cos_p,
        # fixes every sample bitwise, and each factor keeps the shape of
        # its own coordinate
        shape = np.broadcast_shapes(t.shape, xd.shape,
                                    xp.shape if dim == 2 else ())
        acc = np.zeros(shape)
        term = np.empty(shape) if dim == 2 else None
        for k in range(n_terms):
            part = amp[k] * np.sin(om_t[k] * t + ph_t[k]) \
                * np.cos(om_d[k] * xd + ph_d[k])
            if dim == 2:
                np.multiply(part, np.cos(k_p[k] * two_pi_over_L * xp
                                         + ph_p[k]), out=term)
                part = term
            acc += part
        if envelope:
            acc *= xd
            acc *= np.exp(-xd)
        return acc

    return closure


def random_w1p_field(seed, mesh):
    """Random discrete field vanishing at x_d = 0 (and at L_d), for the Hardy
    and trace corpora.  The same seed on a refined mesh samples the same
    underlying smooth function.
    """
    g = smooth_random_closure(seed, mesh.dim, xp_length=mesh.xprime_length)
    values = sample_nodes(mesh, g, 0.3)
    values[-1, :] = 0.0     # keep the discrete zero trace at the truncation
    return DiscreteField(mesh, values)
