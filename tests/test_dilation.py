"""The paper's class is invariant under the dilation (t, x) -> (s t, s x)
with lambda -> lambda / s.  At s = 1/4 every scaled node, time and
product is exact in binary, so the discrete march is covariant bitwise:
the dilated problem marches to the same levels, forward and, with its
dual rows scaled as its loads are, back by the adjoint march.  A wrong dt, h, lambda or
source factor, or a wrong weight exponent, breaks the equality, and no
stored value is read."""

import numpy as np
import pytest

from degenlab import (CoefficientField, LoadAssembler, ProblemSpec,
                      TimeStepperConfig, build_mesh, generate_family,
                      smooth_random_closure)

S = 4.0         # the dilated problem is the problem shrunk by S
# the exact ratio of the dilated problem's load rows to the problem's:
# S^(2 - d), the weighted mass's S^(1 - d) over the time step's 1 / S
LOAD_RATIO = {1: 4.0, 2: 1.0}


def _composed(g, factor=1.0):
    """factor g(S t, S x', S x_d); a factor of 1.0 is exact."""
    return lambda t, xp, xd: factor * g(S * t, S * xp, S * xd)


def _dilated(problem):
    """The problem on the mesh shrunk by S, lambda to be taken S times:
    every length and the time step divided by S, each coefficient g
    composed as g(S t, S x', S x_d) and a0 as a0(S x_d), F as
    S F(S t, S x) and f as sqrt(S) f(S t, S x) = 2 f(S t, S x)."""
    mesh, coeffs = problem.mesh, problem.coeffs
    small = build_mesh(mesh.dim, mesh.Ld / S, mesh.M, mesh.grading_exponent,
                       mesh.xprime_count, mesh.xprime_length / S,
                       mesh.time_step / S, mesh.time_count)
    a0 = coeffs.a0
    field = CoefficientField(
        coeffs.dim, coeffs.nu,
        tuple(tuple(_composed(g) for g in row) for row in coeffs.a),
        _composed(coeffs.c0), lambda xd: a0(S * xd), kind=coeffs.kind)
    return ProblemSpec(small, field,
                       F=tuple(_composed(Fi, S) for Fi in problem.F),
                       f=_composed(problem.f, 2.0), config=problem.config)


def _problem(kind, dim, theta):
    mesh = build_mesh(dim, 4.0, 24, 2.0, xprime_count=8 if dim == 2 else 1,
                      xprime_length=2 * np.pi, time_step=0.1, time_count=12)
    coeffs = generate_family(1, kind, 0.5, 0.2, dim=dim,
                             xp_length=2 * np.pi)
    F = tuple(smooth_random_closure(11 + i, dim, xp_length=2 * np.pi)
              for i in range(dim))
    f = smooth_random_closure(5, dim, xp_length=2 * np.pi)
    return ProblemSpec(mesh, coeffs, F=F, f=f,
                       config=TimeStepperConfig(theta))


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "xd_only", "oscillatory"])
def test_the_dilated_problem_marches_to_the_same_levels(kind, dim, theta):
    problem = _problem(kind, dim, theta)
    small = _dilated(problem)
    assert small.mesh.xd_nodes.tobytes() == \
        (problem.mesh.xd_nodes / S).tobytes()
    for lam in (0.0, 1.0, 10.0):
        want = problem.solution(lam)
        got = small.solution(S * lam)
        assert got.lam == S * lam
        assert want.max_abs() > 0
        assert got.levels.tobytes() == want.levels.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "xd_only", "oscillatory"])
def test_the_dilated_adjoint_marches_to_the_same_levels(kind, dim):
    # the backward march solves with the forward factors transposed: the
    # dilated system is the system times S^(1 - d), and dual rows scaled by
    # the forward loads' ratio give bitwise the same v
    problem = _problem(kind, dim, 1.0)
    small = _dilated(problem)
    mesh = problem.mesh
    dual = LoadAssembler(mesh).assemble(
        None, smooth_random_closure(7, dim, xp_length=2 * np.pi), 1.0,
        mesh.time_levels)
    ratio = LOAD_RATIO[dim]
    for lam in (0.0, 1.0, 10.0):
        loads = problem.solution(lam).loads
        assert small.solution(S * lam).loads.tobytes() == \
            (ratio * loads).tobytes()
        want = problem.marcher().adjoint(lam, dual)
        got = small.marcher().adjoint(S * lam, ratio * dual)
        assert np.abs(want).max() > 0
        assert got.tobytes() == want.tobytes()
