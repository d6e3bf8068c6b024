"""Weighted norms of discrete fields and the standalone inequality checks
(Hardy ratio, near-boundary trace decay, weighted second differences).

One cell kernel, ``_level_power``, evaluates every space integral: 8-point
Gauss-Legendre per cell in each direction with the x_d^alpha factor kept
inside the integrand.  Its integrand is |e|^p, where e is the bilinear field
(order 0) or its exact elementwise gradient (order 1) minus the same of
analytic callables, which are zero unless given.  So error norms and norms
of analytic callables are the same integral: the latter is the error of the
zero field.  Order 2 uses nodal second differences (the three-point
formulas are exact on quadratics).  The time integral is the level-wise
rectangle rule (right endpoint), summed by ``_rectangle_norm``.
"""

import numpy as np

from .fields import DiscreteField
from .mesh import cells_in_cylinder, Cylinder

_GLX, _GLW = np.polynomial.legendre.leggauss(8)
_ORDERS = ("0", "1_full", "1_xd", "2_full")


class NormSpec:
    """p in (1, inf); weight x_d^alpha; derivative order; optional Cylinder."""

    def __init__(self, p, weight_exponent=0.0, derivative_order="0",
                 region=None):
        order = str(derivative_order)
        if not p > 1:
            raise ValueError("p must exceed 1, got %r" % (p,))
        if order not in _ORDERS:
            raise ValueError("derivative_order must be one of %s" % (_ORDERS,))
        alpha = float(weight_exponent)
        if order == "0":
            if not alpha > -p - 1:
                raise ValueError(
                    "weight exponent %g not integrable against fields "
                    "vanishing linearly at x_d=0 (need alpha > -p-1)" % alpha)
        else:
            if not alpha > -1:
                raise ValueError(
                    "weight exponent %g not integrable against derivative "
                    "norms (need alpha > -1)" % alpha)
        if region is not None and not isinstance(region, Cylinder):
            raise ValueError("region must be a Cylinder or None")
        self.p = float(p)
        self.weight_exponent = alpha
        self.derivative_order = order
        self.region = region

    def summary(self):
        return {"p": self.p, "alpha": self.weight_exponent,
                "order": self.derivative_order,
                "region": None if self.region is None
                else self.region.summary()}


# -- elementwise evaluation -----------------------------------------------------

def _space_cell_split(mesh, space_cells):
    npc = mesh.xprime_count
    if space_cells is None:
        flat = np.arange(mesh.n_space_cells)
    else:
        flat = np.asarray(space_cells, int)
    return flat // npc, flat % npc


def _corner_values(values, j, m, npc):
    m1 = (m + 1) % npc
    return (values[j, m], values[j + 1, m], values[j, m1], values[j + 1, m1])


def _zero(t, xp, x):
    return 0.0


# subtracting 0.0 leaves every value bitwise unchanged
_ZERO_EXACT = {"u": _zero, "du": (_zero, _zero)}


def _level_power(mesh, values, spec, space_cells=None, exact=None, t=0.0):
    """integral over the selected space cells of |e|^p x_d^alpha for one
    nodal array (M+1, npc), where e is the field (order 0) or its gradient
    (order 1) minus the same of ``exact`` at time t: a dict of callables
    (t, x', x_d) 'u' and 'du' (tuple ordered (x', x_d) in dim 2), zero when
    None.  Returns the p-th power (not the norm)."""
    order = spec.derivative_order
    if order == "2_full":
        if exact is not None:
            raise ValueError("error norms support derivative orders up to 1")
        mag = second_difference_magnitude(mesh, values)
        inner = NormSpec(spec.p, spec.weight_exponent, "0")
        return _level_power(mesh, mag, inner, space_cells)
    if exact is None:
        exact = _ZERO_EXACT

    p, alpha = spec.p, spec.weight_exponent
    j, m = _space_cell_split(mesh, space_cells)
    if j.size == 0:
        return 0.0
    npc = mesh.xprime_count
    xl = mesh.xd_nodes[j]
    h = mesh.xd_widths[j]
    delta = mesh.xprime_spacing if mesh.dim == 2 else 1.0

    s = 0.5 * (_GLX + 1.0)          # xd barycentric nodes
    ws = 0.5 * _GLW
    if mesh.dim == 2:
        q, wq = s, ws
    else:
        q, wq = np.array([0.5]), np.array([1.0])

    u00, u10, u01, u11 = _corner_values(values, j, m, npc)
    # shapes: cells x s-nodes x q-nodes
    S = s[None, :, None]
    Q = q[None, None, :]
    x = xl[:, None, None] + h[:, None, None] * S
    if mesh.dim == 2:
        xp = mesh.xprime_nodes[m][:, None, None] + delta * Q
    else:
        xp = np.zeros_like(x)
    if order == "0":
        g = (u00[:, None, None] * (1 - S) * (1 - Q)
             + u10[:, None, None] * S * (1 - Q)
             + u01[:, None, None] * (1 - S) * Q
             + u11[:, None, None] * S * Q)
        core = np.abs(g - exact["u"](t, xp, x)) ** p
    else:
        du = exact["du"]
        ed = ((u10 - u00)[:, None, None] * (1 - Q)
              + (u11 - u01)[:, None, None] * Q) / h[:, None, None] \
            - du[-1](t, xp, x)
        if order == "1_xd":
            core = np.abs(ed) ** p
        else:
            ep = 0.0
            if mesh.dim == 2:       # in dim 1, du[0] is the x_d derivative
                ep = ((u01 - u00)[:, None, None] * (1 - S)
                      + (u11 - u10)[:, None, None] * S) / delta \
                    - du[0](t, xp, x)
            core = (ed * ed + ep * ep) ** (p / 2)
    w2 = ws[None, :, None] * wq[None, None, :]
    cellsize = (h * delta)[:, None, None]
    return float(np.sum(core * x ** alpha * w2 * cellsize))


def second_difference_fields(mesh, values):
    """Nodal second differences (d2_xd, d2_mixed, d2_xp); the latter two are
    None in dim=1.  Boundary rows copy their interior neighbour (constant
    extrapolation keeps quadratics exact)."""
    values = np.asarray(values, float)
    h = mesh.xd_widths
    hm, hp = h[:-1], h[1:]
    out = np.empty_like(values)
    num = values.shape[0] - 1
    wl = (2 / (hm * (hm + hp)))[:, None]
    wc = (-2 / (hm * hp))[:, None]
    wr = (2 / (hp * (hm + hp)))[:, None]
    out[1:num] = wl * values[:-2] + wc * values[1:-1] + wr * values[2:]
    out[0] = out[1]
    out[num] = out[num - 1]
    if mesh.dim == 1:
        return out, None, None
    delta = mesh.xprime_spacing
    dpp = (np.roll(values, 1, axis=1) - 2 * values
           + np.roll(values, -1, axis=1)) / delta ** 2
    dq = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) \
        / (2 * delta)
    dl = (-hp / (hm * (hm + hp)))[:, None]
    dc = ((hp - hm) / (hm * hp))[:, None]
    dr = (hm / (hp * (hm + hp)))[:, None]
    dpd = np.empty_like(values)
    dpd[1:num] = dl * dq[:-2] + dc * dq[1:-1] + dr * dq[2:]
    dpd[0] = dpd[1]
    dpd[num] = dpd[num - 1]
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


def _region_cells(mesh, spec, skip_initial=0, time_count=0):
    """(ends, space_cells): the level closing each retained time cell (those
    of spec.region, else cells skip_initial..time_count-1) and the region's
    space cells (None: all)."""
    if spec.region is None:
        return np.arange(skip_initial, time_count) + 1, None
    cs = cells_in_cylinder(mesh, spec.region)
    return cs.time_cells + 1, cs.space_cells


def _retained(field, spec, skip_initial, t=0.0):
    """(levels, times, dt, space_cells) for _rectangle_norm: a DiscreteField
    is one level of unit weight at time t."""
    if isinstance(field, DiscreteField):
        _, space_cells = _region_cells(field.mesh, spec)
        return field.values[None], (t,), 1.0, space_cells
    ends, space_cells = _region_cells(field.mesh, spec, skip_initial,
                                      field.time_count)
    return field.levels[ends], field.times[ends], field.dt, space_cells


def _rectangle_norm(mesh, levels, times, dt, spec, space_cells, exact=None):
    """Right-endpoint rectangle rule in time: the p-th root of the sum over
    the nodal arrays ``levels`` at ``times`` of dt * _level_power."""
    total = 0.0
    for values, t in zip(levels, times):
        total += dt * _level_power(mesh, values, spec, space_cells, exact, t)
    return total ** (1.0 / spec.p)


def weighted_norm(field, spec, skip_initial=0):
    """Weighted L_p (or derivative) norm of a DiscreteField (space only) or a
    SpaceTimeSolution (space-time, rectangle rule over levels)."""
    if isinstance(field, DiscreteField):
        _check_boundary_integrability(field.values, spec)
    elif not np.all(np.isfinite(field.levels)):
        raise ValueError("non-finite values in solution")
    else:
        _check_boundary_integrability(field.levels, spec)
    levels, times, dt, space_cells = _retained(field, spec, skip_initial)
    return _rectangle_norm(field.mesh, levels, times, dt, spec, space_cells)


def levels_norm(mesh, level_values, dt, spec, space_cells=None):
    """Rectangle-rule space-time norm of a raw stack of nodal arrays
    (n_levels, M+1, npc); every entry contributes dt."""
    level_values = np.asarray(level_values, float)
    return _rectangle_norm(mesh, level_values, np.zeros(len(level_values)),
                           dt, spec, space_cells)


def error_norm(solution_or_field, exact, spec, t=0.0, skip_initial=0):
    """Weighted L_p distance between the discrete field and analytic
    callables; solutions integrate in time by the rectangle rule."""
    levels, times, dt, space_cells = _retained(solution_or_field, spec,
                                               skip_initial, t)
    return _rectangle_norm(solution_or_field.mesh, levels, times, dt, spec,
                           space_cells, exact)


def analytic_norm(mesh, func, spec, skip_initial=0):
    """Weighted space-time L_p norm of an analytic scalar callable
    (t, xp, xd) -> values over the mesh window (order 0 only); time uses the
    right-endpoint rectangle rule on the mesh's own grid."""
    if spec.derivative_order != "0":
        raise ValueError("analytic_norm supports derivative_order '0' only")
    ends, space_cells = _region_cells(mesh, spec, skip_initial,
                                      mesh.time_count)
    zeros = np.broadcast_to(0.0, (ends.size, mesh.M + 1, mesh.xprime_count))
    return _rectangle_norm(mesh, zeros, mesh.time_levels[ends],
                           mesh.time_step, spec, space_cells, {"u": func})


# -- inequality checks --------------------------------------------------------------

class RatioReport:
    def __init__(self, name, numerator, denominator, bound, p):
        self.name = name
        self.numerator = float(numerator)
        self.denominator = float(denominator)
        self.bound = float(bound)
        self.p = float(p)
        self.ratio = (0.0 if numerator == 0 else
                      float(numerator / denominator))
        self.passed = self.ratio <= self.bound

    def summary(self):
        return {"name": self.name, "ratio": self.ratio, "bound": self.bound,
                "numerator": self.numerator, "denominator": self.denominator,
                "p": self.p, "passed": bool(self.passed)}


def hardy_check(field, p):
    """r = ||u/x_d||_p / ||D_d u||_p against the sharp constant p/(p-1)."""
    num_spec = NormSpec(p, weight_exponent=-p, derivative_order="0")
    den_spec = NormSpec(p, weight_exponent=0.0, derivative_order="1_xd")
    num = weighted_norm(field, num_spec)
    den = weighted_norm(field, den_spec)
    if den == 0.0 and num > 0.0:
        raise ValueError("zero gradient with nonzero weighted norm: "
                         "the x_d=0 trace must be broken")
    return RatioReport("hardy", num, den, p / (p - 1) + 0.05, p)


class SlopeReport:
    def __init__(self, p, slope, constant, threshold, n_slices):
        self.p = p
        self.slope = float(slope)
        self.constant = float(constant)
        self.threshold = float(threshold)
        self.n_slices = int(n_slices)
        self.passed = np.isfinite(constant) and slope >= threshold

    def summary(self):
        return {"p": self.p, "slope": self.slope, "constant": self.constant,
                "threshold": self.threshold, "n_slices": self.n_slices,
                "passed": bool(self.passed)}


def _xp_lp_power(mesh, row, p):
    """integral over the periodic x' circle of |P1 row|^p (row: (npc,))."""
    if mesh.dim == 1:
        return float(np.abs(row[0]) ** p)
    delta = mesh.xprime_spacing
    a = row
    b = np.roll(row, -1)
    s = 0.5 * (_GLX + 1.0)
    g = a[:, None] * (1 - s[None, :]) + b[:, None] * s[None, :]
    return float(np.sum(np.abs(g) ** p * (0.5 * _GLW)[None, :]) * delta)


def slice_norms(field, p, skip_initial=0):
    """s(x_d) at every node: L_p over x' (and rectangle rule over time for
    solutions).  Returns (xd_nodes, s)."""
    mesh = field.mesh
    if isinstance(field, DiscreteField):
        stacked = field.values[None, :, :]
        dt = 1.0
        rows = range(1)
    else:
        stacked = field.levels
        dt = field.dt
        rows = range(skip_initial + 1, stacked.shape[0])
    s = np.zeros(mesh.M + 1)
    for jnode in range(mesh.M + 1):
        acc = 0.0
        for n in rows:
            acc += dt * _xp_lp_power(mesh, stacked[n, jnode, :], p)
        s[jnode] = acc ** (1.0 / p)
    return mesh.xd_nodes.copy(), s


def trace_decay_check(field, p, skip_initial=0):
    """Least-squares log-log slope of the slice norms over the near-boundary
    quartile; the expected decay exponent is 1/2 - 1/p."""
    if p < 2:
        raise ValueError("trace decay check needs p >= 2")
    xd, s = slice_norms(field, p, skip_initial=skip_initial)
    expo = 0.5 - 1.0 / p
    mesh = field.mesh
    quart = max(4, mesh.M // 4)
    js = np.arange(1, min(quart, mesh.M) + 1)
    usable = js[s[js] > 0]
    if usable.size < 4:
        raise ValueError("fewer than 4 usable near-boundary slices")
    slope = np.polyfit(np.log(xd[usable]), np.log(s[usable]), 1)[0]
    pos = np.arange(1, mesh.M + 1)
    constant = float(np.max(s[pos] / xd[pos] ** expo))
    return SlopeReport(p, slope, constant, expo - 0.05, usable.size)


def cell_center_gradients(mesh, values):
    """Gradient of the bilinear field at cell centers, shape (Mc, npc, dim)
    with (x', x_d) ordering in dim 2."""
    values = np.asarray(values, float)
    h = mesh.xd_widths
    out = np.empty((mesh.M, mesh.xprime_count, mesh.dim))
    vr = np.roll(values, -1, axis=1) if mesh.dim == 2 else values
    dd = 0.5 * ((values[1:] - values[:-1]) + (vr[1:] - vr[:-1])) \
        / h[:, None]
    if mesh.dim == 1:
        out[:, :, 0] = dd
        return out
    delta = mesh.xprime_spacing
    dp = 0.5 * ((vr[:-1] - values[:-1]) + (vr[1:] - values[1:])) / delta
    out[:, :, 0] = dp
    out[:, :, 1] = dd
    return out
