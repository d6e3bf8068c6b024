"""Weighted norms of discrete fields, the Hardy quotient and the slice norms
that ``harness`` turns into reports, and weighted second differences.

One level-batched routine, ``_level_powers``, evaluates the space integrals
of a whole stack of time levels: 8-point Gauss-Legendre per cell in each
direction with the x_d^alpha factor kept inside the integrand.  Its
integrand is |e|^p, where e is the bilinear field (order 0) or its exact
elementwise gradient (order 1) minus the same of analytic callables (zero
unless given; called once per chunk of levels).  So error norms and norms
of analytic callables are the same integral: the latter is the error of the
zero field, integrated with no corners gathered.  Order 2 uses nodal second
differences (the three-point formulas are exact on quadratics).  A p = 2
norm of a field alone is, by the same rule, a quadratic form per cell: of
its corner values, or of its differences along the cell's edges.

The geometry of both is a ``_NormPlan``, built once per (mesh, space cell
set, weight exponent) and kept in the mesh's cache: the corner gather, the
Gauss nodes, x_d^alpha, the point weights, cell sizes and Gram arrays.  The
kernel lays every intermediate out point-major, (s, q, level, cell), so
each elementwise op runs over one contiguous (level, cell) block per Gauss
point, and updates its temporaries in place.  Both sum each level as one
contiguous row, so a level's value depends neither on the other levels nor
on the chunking.  Time uses the right-endpoint rectangle rule, summed in
level order.  A solution's levels are read-only, so ``weighted_norm``
keeps each space-time norm of a solution with it and integrates it once.
"""

import dataclasses
from itertools import combinations_with_replacement

import numpy as np

from .fields import DiscreteField
from .mesh import _cached, _frozen, cells_in_cylinder, Cylinder

_GLX, _GLW = np.polynomial.legendre.leggauss(8)
_ORDERS = ("0", "1_full", "1_xd", "2_full")


@dataclasses.dataclass(frozen=True)
class NormSpec:
    """p in (1, inf); weight x_d^alpha; derivative order; optional Cylinder."""

    p: float
    weight_exponent: float = 0.0
    derivative_order: str = "0"
    region: Cylinder | None = None

    def __post_init__(self):
        order = str(self.derivative_order)
        if not self.p > 1:
            raise ValueError("p must exceed 1, got %r" % (self.p,))
        if order not in _ORDERS:
            raise ValueError("derivative_order must be one of %s" % (_ORDERS,))
        alpha = float(self.weight_exponent)
        if order == "0":
            if not alpha > -self.p - 1:
                raise ValueError(
                    "weight exponent %g not integrable against fields "
                    "vanishing linearly at x_d=0 (need alpha > -p-1)" % alpha)
        else:
            if not alpha > -1:
                raise ValueError(
                    "weight exponent %g not integrable against derivative "
                    "norms (need alpha > -1)" % alpha)
        if self.region is not None and not isinstance(self.region, Cylinder):
            raise ValueError("region must be a Cylinder or None")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "weight_exponent", alpha)
        object.__setattr__(self, "derivative_order", order)


# -- elementwise evaluation -----------------------------------------------------

# quadrature points per chunk of levels: bounds the kernel's temporaries
_CHUNK_POINTS = 1 << 18


def _exact_at(func, t, xp, x):
    """func(t, xp, x), returned as is, for a chunk of times t (C, 1, 1, 1);
    it must broadcast to the chunk's shape (C, cells, s, q)."""
    out = func(t, xp, x)
    shape = np.broadcast_shapes(t.shape, np.shape(xp), x.shape)
    try:
        if np.broadcast_shapes(np.shape(out), shape) == shape:
            return out
    except ValueError:
        pass
    raise ValueError("exact callable returned shape %s for a chunk of shape "
                     "%s; it must broadcast t against the quadrature points"
                     % (np.shape(out), shape))


class _NormPlan:
    """The quadrature of one (mesh, space cell set, weight exponent), built
    once.  Point-major: an array of the kernel is laid out (s, q, level,
    cell), s the 8 Gauss nodes along x_d and q those along x' (one midpoint
    in dim 1), so every elementwise op runs over the contiguous (level,
    cell) block of each point.  Holds the corner gather (j, j + 1) x (m, m1),
    the barycentric nodes S, 1 - S, Q and 1 - Q, x_d^alpha and the point
    weights w2, the cell sizes and widths h, and the points x (cells, s, 1)
    and xp (cells, 1, q), or zeros like x in dim 1, that the exact callables
    receive; for p = 2, the corners (rows, cols) of each cell and the Grams
    gram_0 of their values and gram_1_xd and gram_1_xp of their differences
    along x_d and x'.  Every array is read-only."""

    def __init__(self, mesh, flat, alpha):
        npc = mesh.xprime_count
        self.j, self.m = flat // npc, flat % npc
        self.j1, self.m1 = self.j + 1, (self.m + 1) % npc
        xl = mesh.xd_nodes[self.j]
        h = mesh.xd_widths[self.j]
        self.delta = mesh.xprime_spacing if mesh.dim == 2 else 1.0
        s = 0.5 * (_GLX + 1.0)          # xd barycentric nodes
        ws = 0.5 * _GLW
        q, wq = ((s, ws) if mesh.dim == 2
                 else (np.array([0.5]), np.array([1.0])))
        self.S = s[:, None, None, None]
        self.S1 = 1 - self.S
        self.Q = q[None, :, None, None]
        self.Q1 = 1 - self.Q
        self.x = xl[:, None, None] + h[:, None, None] * s[None, :, None]
        self.xp = (mesh.xprime_nodes[self.m][:, None, None]
                   + self.delta * q[None, None, :] if mesh.dim == 2
                   else np.zeros_like(self.x))
        self.xa = (self.x ** alpha).transpose(1, 2, 0)[:, :, None, :].copy()
        self.w2 = (ws[:, None] * wq[None, :])[:, :, None, None]
        self.cellsize = h * self.delta
        self.h = h
        self.points = self.x.size * q.size      # per level
        s, q = np.meshgrid(s, q, indexing="ij")     # (s, q) point grids
        corners = [(self.j, self.m), (self.j1, self.m)]
        phi, dxd, dxp = [1 - s, s], [1 + 0 * s], np.empty((0,) + s.shape)
        if mesh.dim == 2:
            corners += [(self.j, self.m1), (self.j1, self.m1)]
            phi = [(1 - s) * (1 - q), s * (1 - q), (1 - s) * q, s * q]
            dxd, dxp = [1 - q, q], [1 - s, s]
        self.rows, self.cols = (np.array(c) for c in zip(*corners))
        self.gram_0, self.gram_1_xd, self.gram_1_xp = (  # x_d^alpha: in s
            np.einsum("abs,sc->abc", np.einsum(
                "asq,bsq,sq->abs", b, b, self.w2[:, :, 0, 0]),
                self.xa[:, 0, 0]) * (self.cellsize / w ** 2)
            for b, w in ((phi, 1.0), (dxd, h), (dxp, self.delta)))
        _frozen(list(vars(self).values()))


def _norm_plan(mesh, flat, alpha):
    key = ("norm plan", None if flat is None else flat.tobytes(), alpha)
    if flat is None:
        flat = np.arange(mesh.n_space_cells)
    return _cached(mesh, key, lambda: _NormPlan(mesh, flat, alpha))


def _minus(a, e):
    """a - e for a point-major a (s, q, C, cells) and e broadcasting to the
    (C, cells, s, q) chunk, point-major, computed through a transposed view
    (in place when a has the broadcast shape)."""
    shape = np.broadcast_shapes(a.shape[2:] + a.shape[:2], np.shape(e))
    out = a if shape == a.shape[2:] + a.shape[:2] \
        else np.empty(shape[2:] + shape[:2])
    np.subtract(a.transpose(2, 3, 0, 1), e, out=out.transpose(2, 3, 0, 1))
    return out


def _form_powers(plan, order, values):
    """(C,) p = 2 powers of the levels ``values`` (C, M+1, npc): per cell,
    sum_{a <= b} (2 - [a = b]) G_ab X_a X_b of a plan Gram G and the corner
    values X, or for order 1 their differences along the x_d (and x') edges,
    where nothing large cancels, summed as one (level, cell) row per level."""
    X = values[:, plan.rows, plan.cols]     # (C, k, cells)
    forms = [(X, plan.gram_0)]      # corners u00, u10 and in dim 2 u01, u11
    if order != "0":
        forms = [(X[:, 1::2] - X[:, ::2], plan.gram_1_xd)]
        if order == "1_full":       # no x' edges in dim 1: X[:, 2:] is empty
            forms.append((X[:, 2:] - X[:, :-2], plan.gram_1_xp))
    acc = np.zeros((X.shape[0], X.shape[2]))
    for D, gram in forms:
        for a, b in combinations_with_replacement(range(len(gram)), 2):
            term = (2 - (a == b)) * gram[a, b] * D[:, a]
            term *= D[:, b]
            acc += term
    return acc.sum(axis=1)


def _level_powers(mesh, levels, spec, space_cells, exact, times):
    """(L,) p-th powers (not norms): for each nodal array of the stack
    ``levels`` (L, M+1, npc) at ``times`` (L,), the integral over the
    selected space cells (None: all) of |e|^p x_d^alpha, where e is the
    field (order 0) or its gradient (order 1) minus the same of ``exact``: a
    dict of callables (t, x', x_d) 'u' and 'du' (tuple ordered (x', x_d) in
    dim 2), zero when None; ``levels`` None is the zero field (order 0).
    Each level is summed as one contiguous row, so its value depends
    neither on the other levels nor on the chunking.  In dim 1 the phantom
    x' cell has one constant basis function, so a cell has two corners and
    no x' derivative.  p = 2 without ``exact`` goes to ``_form_powers``."""
    order = spec.derivative_order
    if order == "2_full":
        if exact is not None:
            raise ValueError("error norms support derivative orders up to 1")
        mag = second_difference_magnitude(mesh, levels)
        inner = NormSpec(spec.p, spec.weight_exponent, "0")
        return _level_powers(mesh, mag, inner, space_cells, None, times)

    p = spec.p
    flat = None if space_cells is None else np.asarray(space_cells, int)
    powers = np.zeros(len(times))
    if flat is not None and flat.size == 0:
        return powers
    plan = _norm_plan(mesh, flat, spec.weight_exponent)
    dim2 = mesh.dim == 2
    S, S1, Q, Q1 = plan.S, plan.S1, plan.Q, plan.Q1
    chunk = max(1, _CHUNK_POINTS // plan.points)

    for a in range(0, len(times), chunk):
        t = times[a:a + chunk, None, None, None]
        if levels is not None:
            values = levels[a:a + chunk]
            if p == 2 and exact is None:
                powers[a:a + chunk] = _form_powers(plan, order, values)
                continue
            u00 = values[:, plan.j, plan.m]     # (C, cells)
            u10 = values[:, plan.j1, plan.m]
            if dim2:
                u01 = values[:, plan.j, plan.m1]
                u11 = values[:, plan.j1, plan.m1]
        if levels is None:      # |0 - e| is |e|, laid out (C, cells, s, q)
            e = _exact_at(exact["u"], t, plan.xp, plan.x)
            core = np.abs(np.broadcast_to(e, np.broadcast_shapes(
                t.shape, np.shape(plan.xp), plan.x.shape)))
            core **= p
            core = core.transpose(2, 3, 0, 1)   # a point-major view
        elif order == "0":
            if dim2:
                g = u00 * S1 * Q1
                g += u10 * S * Q1
                g += u01 * S1 * Q
                g += u11 * S * Q
            else:
                g = u00 * S1
                g += u10 * S
            if exact is not None:
                g = _minus(g, _exact_at(exact["u"], t, plan.xp, plan.x))
            core = np.abs(g, out=g)
            core **= p
        else:
            if dim2:
                ed = (u10 - u00) * Q1
                ed += (u11 - u01) * Q
            else:
                ed = (u10 - u00)[None, None]
            ed /= plan.h
            if exact is not None:
                ed = _minus(ed, _exact_at(exact["du"][-1], t, plan.xp,
                                          plan.x))
            if order == "1_xd":
                core = np.abs(ed, out=ed)
                core **= p
            else:
                core = ed
                core *= ed
                if dim2:        # in dim 1 the x' term is 0.0
                    ep = (u01 - u00) * S1
                    ep += (u11 - u10) * S
                    ep /= plan.delta
                    if exact is not None:
                        ep = _minus(ep, _exact_at(exact["du"][0], t,
                                                  plan.xp, plan.x))
                    ep *= ep
                    core = core + ep
                core **= p / 2
        if core.shape[0] == 1:      # no s axis yet: x_d^alpha adds it
            core = core * plan.xa
        else:
            core *= plan.xa
        core *= plan.w2
        core *= plan.cellsize
        powers[a:a + chunk] = \
            core.transpose(2, 3, 0, 1).reshape(len(t), -1).sum(axis=1)
    return powers


def second_difference_fields(mesh, values):
    """Nodal second differences (d2_xd, d2_mixed, d2_xp) of values
    (..., M+1, npc), taken over the last two axes, so leading axes (levels)
    are allowed; the latter two are None in dim=1.  Boundary rows copy their
    interior neighbour (constant extrapolation keeps quadratics exact)."""
    values = np.asarray(values, float)
    h = mesh.xd_widths
    hm, hp = h[:-1], h[1:]
    out = np.empty_like(values)
    num = values.shape[-2] - 1
    wl = (2 / (hm * (hm + hp)))[:, None]
    wc = (-2 / (hm * hp))[:, None]
    wr = (2 / (hp * (hm + hp)))[:, None]
    out[..., 1:num, :] = (wl * values[..., :-2, :] + wc * values[..., 1:-1, :]
                          + wr * values[..., 2:, :])
    out[..., 0, :] = out[..., 1, :]
    out[..., num, :] = out[..., num - 1, :]
    if mesh.dim == 1:
        return out, None, None
    delta = mesh.xprime_spacing
    dpp = (np.roll(values, 1, axis=-1) - 2 * values
           + np.roll(values, -1, axis=-1)) / delta ** 2
    dq = (np.roll(values, -1, axis=-1) - np.roll(values, 1, axis=-1)) \
        / (2 * delta)
    dl = (-hp / (hm * (hm + hp)))[:, None]
    dc = ((hp - hm) / (hm * hp))[:, None]
    dr = (hm / (hp * (hm + hp)))[:, None]
    dpd = np.empty_like(values)
    dpd[..., 1:num, :] = (dl * dq[..., :-2, :] + dc * dq[..., 1:-1, :]
                          + dr * dq[..., 2:, :])
    dpd[..., 0, :] = dpd[..., 1, :]
    dpd[..., num, :] = dpd[..., num - 1, :]
    return out, dpd, dpp


def second_difference_magnitude(mesh, values):
    ddd, dpd, dpp = second_difference_fields(mesh, values)
    if mesh.dim == 1:
        return np.abs(ddd)
    return np.sqrt(ddd ** 2 + 2 * dpd ** 2 + dpp ** 2)


# -- public norms -----------------------------------------------------------------

def _check_boundary_integrability(values, spec):
    if spec.derivative_order == "0" and spec.weight_exponent <= -1:
        if np.max(np.abs(np.asarray(values)[..., 0, :])) > 0:
            raise ValueError(
                "weight x_d^%g requires a vanishing x_d=0 trace"
                % spec.weight_exponent)


def _region_cells(mesh, region, skip_initial=0):
    """(ends, space_cells): the level closing each retained time cell of the
    mesh (those of the region, a Cylinder or None, else cells
    skip_initial..N-1) and the region's space cells (None: all)."""
    if region is None:
        return np.arange(skip_initial, mesh.time_count) + 1, None
    if skip_initial:
        raise ValueError("skip_initial = %r with spec.region = %r: the "
                         "region picks its own time cells"
                         % (skip_initial, region))
    cs = cells_in_cylinder(mesh, region)
    return cs.time_cells + 1, cs.space_cells


def _retained(field, region, skip_initial):
    """(levels, times, dt, space_cells) for _rectangle_norm: a DiscreteField
    is one level of unit weight at time 0, with no time levels to skip."""
    if isinstance(field, DiscreteField):
        if skip_initial:
            raise ValueError("skip_initial = %r with a DiscreteField, which "
                             "has no time levels" % (skip_initial,))
        _, space_cells = _region_cells(field.mesh, region)
        return field.values[None], np.zeros(1), 1.0, space_cells
    ends, space_cells = _region_cells(field.mesh, region, skip_initial)
    return field.levels[ends], field.times[ends], field.dt, space_cells


def _rectangle_norm(mesh, levels, times, dt, spec, space_cells, exact=None):
    """Right-endpoint rectangle rule in time: the p-th root of the sum, in
    level order, of dt times the _level_powers of the stack ``levels`` at
    ``times``."""
    total = 0.0
    for power in _level_powers(mesh, levels, spec, space_cells, exact,
                               times).tolist():
        total += dt * power
    return total ** (1.0 / spec.p)


def weighted_norm(field, spec, skip_initial=0):
    """Weighted L_p (or derivative) norm of a DiscreteField (space only) or a
    SpaceTimeSolution (space-time, rectangle rule over levels).  A solution
    keeps each norm integrated of it (by ``_cached``, keyed by the spec and
    skip_initial), so a norm asked again is bitwise the first; its levels
    were checked finite, with a zero x_d = 0 trace, when it was made."""
    def integrate():
        levels, times, dt, space_cells = _retained(field, spec.region,
                                                   skip_initial)
        return _rectangle_norm(field.mesh, levels, times, dt, spec,
                               space_cells)
    if isinstance(field, DiscreteField):
        _check_boundary_integrability(field.values, spec)
        return integrate()
    return _cached(field, (spec, skip_initial), integrate)


def levels_norm(mesh, level_values, spec, space_cells=None):
    """Rectangle-rule space-time norm of a raw stack of nodal arrays
    (n_levels, M+1, npc) over space_cells (None: all): every level
    contributes the mesh's time step.  The levels need not be the mesh's,
    so a spec with a region is refused."""
    if spec.region is not None:
        raise ValueError("levels_norm takes its cells from space_cells, not "
                         "from spec.region = %r" % (spec.region,))
    level_values = np.asarray(level_values, float)
    return _rectangle_norm(mesh, level_values, np.zeros(len(level_values)),
                           mesh.time_step, spec, space_cells)


def error_norm(solution_or_field, exact, spec, skip_initial=0):
    """Weighted L_p distance between the discrete field (at t = 0) or the
    solution and analytic callables; solutions integrate in time by the
    rectangle rule."""
    levels, times, dt, space_cells = _retained(
        solution_or_field, spec.region, skip_initial)
    return _rectangle_norm(solution_or_field.mesh, levels, times, dt, spec,
                           space_cells, exact)


def analytic_norm(mesh, func, spec, skip_initial=0):
    """Weighted space-time L_p norm of an analytic scalar callable
    (t, xp, xd) -> values over the mesh window (order 0 only); time uses the
    right-endpoint rectangle rule on the mesh's own grid."""
    if spec.derivative_order != "0":
        raise ValueError("analytic_norm supports derivative_order '0' only")
    ends, space_cells = _region_cells(mesh, spec.region, skip_initial)
    return _rectangle_norm(mesh, None, mesh.time_levels[ends],
                           mesh.time_step, spec, space_cells, {"u": func})


# -- Hardy quotient and slice norms ------------------------------------------------

class RatioReport:
    def __init__(self, numerator, denominator):
        self.numerator = float(numerator)
        self.denominator = float(denominator)
        self.ratio = (0.0 if numerator == 0 else
                      float(numerator / denominator))


def hardy_check(field, p):
    """r = ||u/x_d||_p / ||D_d u||_p, whose sharp bound is p/(p-1)."""
    num_spec = NormSpec(p, weight_exponent=-p, derivative_order="0")
    den_spec = NormSpec(p, weight_exponent=0.0, derivative_order="1_xd")
    num = weighted_norm(field, num_spec)
    den = weighted_norm(field, den_spec)
    if den == 0.0 and num > 0.0:
        raise ValueError("zero gradient with nonzero weighted norm: "
                         "the x_d=0 trace must be broken")
    return RatioReport(num, den)


def _scalar_power(a, e):
    """a ** e elementwise by the C library's pow, as for Python floats; an
    array power may take a SIMD path that differs in the last bit."""
    return np.array([v ** e for v in a.ravel().tolist()]).reshape(a.shape)


def _xp_lp_powers(mesh, rows, p):
    """integrals over the periodic x' circle of |P1 row|^p for a stack of
    rows (..., npc); one value per row."""
    if mesh.dim == 1:
        return _scalar_power(np.abs(rows[..., 0]), p)
    delta = mesh.xprime_spacing
    s = 0.5 * (_GLX + 1.0)
    g = rows[..., None] * (1 - s) + np.roll(rows, -1, axis=-1)[..., None] * s
    cell = np.abs(g) ** p * (0.5 * _GLW)
    return cell.reshape(rows.shape[:-1] + (-1,)).sum(axis=-1) * delta


def slice_norms(field, p, skip_initial=0):
    """s(x_d) at every node: L_p over x' (and rectangle rule over time for
    solutions).  Returns (xd_nodes, s)."""
    mesh = field.mesh
    stacked, _, dt, _ = _retained(field, None, skip_initial)
    acc = np.zeros(mesh.M + 1)
    for powers in _xp_lp_powers(mesh, stacked, p):   # level order per node
        acc += dt * powers
    return mesh.xd_nodes.copy(), _scalar_power(acc, 1.0 / p)


def cell_center_gradients(mesh, values):
    """Gradient of the bilinear field at cell centers of values (..., M+1,
    npc), shape (..., Mc, npc, dim) with (x', x_d) ordering in dim 2;
    leading axes (levels) are allowed."""
    values = np.asarray(values, float)
    h = mesh.xd_widths[:, None]
    out = np.empty(values.shape[:-2] + (mesh.M, mesh.xprime_count, mesh.dim))
    lo, hi = values[..., :-1, :], values[..., 1:, :]
    if mesh.dim == 1:
        out[..., 0] = (hi - lo) / h
        return out
    vr = np.roll(values, -1, axis=-1)
    vr_lo, vr_hi = vr[..., :-1, :], vr[..., 1:, :]
    out[..., 0] = 0.5 * ((vr_lo - lo) + (vr_hi - hi)) / mesh.xprime_spacing
    out[..., 1] = 0.5 * ((hi - lo) + (vr_hi - vr_lo)) / h
    return out
