import dataclasses
import gc
import os
import weakref

import numpy as np
import pytest

import degenlab.assembly
import degenlab.cli
import degenlab.coefficients
import degenlab.fields
import degenlab.harness
import degenlab.norms
import degenlab.solver
from degenlab import (CHECK_IDS, CHECKS, CSV_HEADER, Cylinder,
                      DegenerateLocalSolution, DiscreteField, EstimateReport,
                      LoadAssembler, NormSpec, ProblemSpec,
                      SpaceTimeSolution,
                      TimeStepperConfig,
                      boundary_lipschitz, build_mesh, caccioppoli_ratio,
                      corollary2_check, default_case, duality_check,
                      energy_ratio, generate_family, hardy_report,
                      locally_homogeneous_solution, main_estimate_sweep,
                      march, sample_nodes, smooth_random_closure,
                      trace_report, w_estimate_ratio, weighted_norm)
from degenlab.cli import parse_config
from test_golden import CONFIGS as GOLDEN


def _sampled(mesh, func):
    """The field of func's nodal samples at t = 0."""
    return DiscreteField(mesh, sample_nodes(mesh, func, 0.0))


def _problem_d1(M=24, time_count=20, seed=0, kind="xd_only", nu=0.5,
                eps=0.2, F=None, f=None, Ld=4.0, T=1.0):
    mesh = build_mesh(1, Ld, M, 2.0, time_step=T / time_count,
                      time_count=time_count)
    coeffs = generate_family(seed, kind, nu, eps, dim=1)
    return ProblemSpec(mesh, coeffs, F=F, f=f, seed=seed)


def test_report_invariants():
    nu = {"nu": 1.0}                 # energy_L2's threshold 4/nu = 4
    with pytest.raises(ValueError):
        EstimateReport("not_a_check", 1.0, 1.0)
    with pytest.raises(ValueError):
        EstimateReport("energy_L2", 1.0, 0.0, nu)   # lhs above the floor
    with pytest.raises(ValueError):
        EstimateReport("energy_L2", 1.0, -1.0, nu)
    with pytest.raises(ValueError):
        EstimateReport("energy_L2", np.inf, 1.0, nu)
    rep = EstimateReport("energy_L2", 5e-13, 0.0, nu)
    assert rep.ratio == 0.0 and rep.passed
    rep2 = EstimateReport("energy_L2", 6.0, 2.0, nu)
    assert rep2.ratio == 3.0 and rep2.passed and rep2.threshold == 4.0
    rep3 = EstimateReport("energy_L2", 9.0, 2.0, nu)
    assert not rep3.passed
    # a row with a rule and no bound: trace passes at slope >= threshold
    rep4 = EstimateReport("trace", 0.4, 1.0, {"constant": 2.0,
                                              "slope_threshold": 0.0})
    assert rep4.passed and rep4.threshold is None


def test_report_csv_row_format():
    assert CSV_HEADER.split(",")[0] == "check_id"
    assert len(CSV_HEADER.split(",")) == 12
    rep = EstimateReport("energy_L2", 1.0, 2.0,
                         params={"lambda": 10.0, "p": 2.0, "mesh_M": 48,
                                 "dt": 0.05, "seed": 7, "rho0": 1.0,
                                 "gamma_measured": None, "nu": 1.0})
    row = rep.csv_row()
    cols = row.split(",")
    assert len(cols) == len(CSV_HEADER.split(","))
    assert cols[0] == "energy_L2"
    assert cols[1] == "10"
    assert cols[5] == "7"
    assert cols[7] == "nan"
    assert cols[10] == "0.5"
    assert cols[11] == "1"
    js = rep.to_json()
    assert js["check_id"] == "energy_L2" and js["pass"] is True
    assert js["threshold"] == 4.0
    assert CHECK_IDS == set(CHECKS) == {
        "energy_L2", "main_Wp", "caccioppoli", "w_estimate", "lipschitz",
        "duality", "corollary2", "trace", "hardy"}


def _above(x):
    return np.nextafter(x, np.inf)


def _hardy_bound(p):
    return p / (p - 1) + 0.05


_WINDOW = {"in_window": True, "uniformity": 3.0, "refine_drift": 0.15}
_TRACE = {"constant": 2.0, "slope_threshold": 0.45}

# per check id, the (lhs, rhs, params, passes) cases that pin its CHECKS row
# at the edges of its verdict; where rhs is 1 the ratio is the lhs
VERDICTS = {
    "energy_L2": [(4 / 0.3, 1.0, {"nu": 0.3}, True),
                  (_above(4 / 0.3), 1.0, {"nu": 0.3}, False)],
    "duality": [(1e-8, 1.0, {}, True), (_above(1e-8), 1.0, {}, False),
                (0.0, 0.0, {}, True)],
    "hardy": [(_hardy_bound(p), 1.0, {"p": p}, True) for p in (1.5, 3.0)]
    + [(_above(_hardy_bound(p)), 1.0, {"p": p}, False) for p in (1.5, 3.0)],
    "main_Wp": [(2.0, 1.0, _WINDOW, True),
                (2.0, 1.0, dict(_WINDOW, uniformity=_above(3.0)), False),
                (2.0, 1.0, dict(_WINDOW, refine_drift=_above(0.15)), False),
                (2.0, 1.0, dict(_WINDOW, in_window=False, refine_drift=1.0,
                                uniformity=10.0), True)],
    "trace": [(0.45, 1.0, _TRACE, True),
              (np.nextafter(0.45, -np.inf), 1.0, _TRACE, False),
              (0.9, 1.0, dict(_TRACE, constant=np.inf), False)],
    **{check_id: [(0.0, 0.0, {}, True), (1e-6, 1.0, {}, True),
                  (1e300, 1e-3, {}, True),
                  (1e300, 1e-300, {}, False)]      # the ratio overflows
       for check_id in ("caccioppoli", "w_estimate", "lipschitz",
                        "corollary2")},
}


def test_readme_checks_table_names_every_check():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    with open(readme) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| check id | passes when |") + 2
    ids = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        ids.append(line.split("|")[1].strip().strip("`"))
    assert sorted(ids) == sorted(CHECKS)


def test_verdict_cases_cover_every_check():
    assert set(VERDICTS) == set(CHECKS)


@pytest.mark.parametrize("check_id", sorted(VERDICTS))
def test_each_verdict_is_its_checks_row(check_id):
    bound, rule = CHECKS[check_id]
    for lhs, rhs, params, passes in VERDICTS[check_id]:
        rep = EstimateReport(check_id, lhs, rhs, params)
        assert rep.passed is passes, (check_id, lhs, rhs, params)
        assert rep.threshold == (None if bound is None else bound(rep))


def test_duality_ratio_is_the_worst_seeds_error():
    # the report's ratio |P1 - P2| / max|P| of its worst seed is bitwise
    # the largest relative error over the seeds, so its bound alone gives
    # the verdict that every seed is within 1e-8
    cfg = parse_config(GOLDEN["duality"])
    assert cfg["duality_seeds"] == 2
    (rep,) = degenlab.cli._cmd_duality(cfg)[0]
    assert rep.params["n_seeds"] == 2
    assert rep.ratio == rep.params["rel_errors_max"]
    assert rep.passed and rep.threshold == 1e-8


_MESH_1D = build_mesh(1, 4.0, 8, 2.0)
_BASE = Cylinder(0.5, 0.0, 0.5)

# (failing call, the message's prefix, the values it must name); a message
# that named no value before keeps its old wording as the prefix
FAILURES = [
    (lambda: EstimateReport("energy_L2", 1.0, -1.0, {"nu": 1.0}),
     "rhs must be >= 0", ["energy_L2", "lhs=1.0", "rhs=-1.0"]),
    (lambda: EstimateReport("hardy", np.inf, 2.0, {"p": 2.0}),
     "non-finite report sides", ["hardy", "lhs=inf", "rhs=2.0"]),
    (lambda: EstimateReport("energy_L2", 1.0, 1.0),
     "energy_L2 needs", ["params['nu']"]),
    (lambda: EstimateReport("energy_L2", 1.0, 1.0, {"nu": None}),
     "energy_L2 needs", ["params['nu']"]),
    (lambda: EstimateReport("hardy", 1.0, 1.0),        # p is a None label
     "hardy needs", ["params['p']"]),
    (lambda: EstimateReport("main_Wp", 1.0, 1.0, {"in_window": True}),
     "main_Wp needs", ["params['uniformity']"]),
    (lambda: EstimateReport("trace", 1.0, 1.0, {"constant": 1.0}),
     "trace needs", ["params['slope_threshold']"]),
    (lambda: ProblemSpec(_MESH_1D, generate_family(0, "constant", 0.5, 0.0,
                                                   dim=2)),
     "coefficient/mesh dimension mismatch", ["2 != 1"]),
    (lambda: ProblemSpec(_MESH_1D, generate_family(0, "constant", 0.5, 0.0,
                                                   dim=1), rho0=-0.5),
     "rho0 must be positive", ["-0.5"]),
    (lambda: degenlab.harness._nested_cylinders(None, 0.5, 0.25),
     "need 0 < r < R", ["r = 0.5", "R = 0.25"]),
    (lambda: degenlab.harness._sub_cylinder(_BASE, 0.75),
     "radius", ["0.75 exceeds the homogeneous radius 0.5"]),
    (lambda: main_estimate_sweep(_problem_d1(M=8, time_count=4), 2.0,
                                 [1.0, -2.0, 0.0]),
     "the sweep needs positive lambda values", ["[-2.0, 0.0]"]),
    (lambda: degenlab.harness.corollary2_reports(None, None, (1.5, 3.0)),
     "the second-order estimate needs p >= 2", ["p = [1.5]"]),
    (lambda: trace_report(None, 1.5),
     "trace decay check needs p >= 2", ["p = 1.5"]),
]


@pytest.mark.parametrize("call, prefix, values", FAILURES,
                         ids=[f[1] for f in FAILURES])
def test_failures_name_their_values(call, prefix, values):
    with pytest.raises(ValueError) as err:
        call()
    message = str(err.value)
    assert message.startswith(prefix)
    for value in values:
        assert value in message, (message, value)


def test_energy_trivial_data_gives_zero_over_zero():
    prob = _problem_d1(M=8, time_count=4)
    rep = energy_ratio(prob, lam=2.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.ratio == 0.0
    assert rep.passed


def test_energy_ratio_scales_linearly_with_data():
    f = smooth_random_closure(3, 1)
    f2 = lambda t, xp, xd: 2.0 * f(t, xp, xd)
    p1 = _problem_d1(M=16, time_count=10, f=f)
    p2 = _problem_d1(M=16, time_count=10, f=f2)
    r1 = energy_ratio(p1, lam=4.0)
    r2 = energy_ratio(p2, lam=4.0)
    assert abs(r2.rhs - 2 * r1.rhs) < 1e-12 * r2.rhs
    assert abs(r2.lhs - 2 * r1.lhs) < 1e-8 * r2.lhs
    assert abs(r2.ratio - r1.ratio) < 1e-8 * r1.ratio


def test_energy_ratio_within_explicit_constant():
    F = (smooth_random_closure(11, 1),)
    f = smooth_random_closure(12, 1)
    prob = _problem_d1(M=32, time_count=20, F=F, f=f, seed=1)
    rep = energy_ratio(prob, lam=10.0)
    print(rep.csv_row())
    assert rep.threshold == 4.0 / 0.5
    assert rep.passed
    assert 0 < rep.ratio <= rep.threshold
    assert rep.params["grad_part"] > 0


def test_energy_ratio_config_validation():
    prob = _problem_d1(M=8, time_count=4)
    half = dataclasses.replace(prob, config=TimeStepperConfig(theta=0.5))
    with pytest.raises(ValueError):
        energy_ratio(half, lam=1.0)
    with pytest.raises(ValueError):
        energy_ratio(prob, lam=-1.0)


def test_problem_spec_validation():
    mesh = build_mesh(1, 4.0, 8, 2.0)
    coeffs2 = generate_family(0, "constant", 0.5, 0.0, dim=2)
    with pytest.raises(ValueError):
        ProblemSpec(mesh, coeffs2)
    coeffs1 = generate_family(0, "constant", 0.5, 0.0, dim=1)
    with pytest.raises(ValueError):
        ProblemSpec(mesh, coeffs1, rho0=0.0)


def test_a_march_refuses_a_field_of_another_dimension():
    # a problem refuses it when built, a new one made from it too, and the
    # bare march by its Marcher
    f = smooth_random_closure(3, 1)
    prob = _problem_d1(M=8, time_count=4, kind="constant", f=f)
    coeffs2 = generate_family(0, "constant", 0.5, 0.1, dim=2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        dataclasses.replace(prob, coeffs=coeffs2)
    message = "dimension 2 cannot be marched on a mesh of dimension 1"
    with pytest.raises(ValueError, match=message):
        march(prob.mesh, coeffs2, 1.0, f=f)


@pytest.mark.parametrize("name", ["mesh", "coeffs", "config", "F", "f",
                                  "seed", "rho0"])
def test_a_problem_is_frozen(name):
    prob = _problem_d1(M=8, time_count=4)
    with pytest.raises(AttributeError):
        setattr(prob, name, None)
    with pytest.raises(AttributeError):
        delattr(prob, name)


def test_a_problem_marches_through_one_marcher():
    f = smooth_random_closure(4, 1)
    prob = _problem_d1(M=12, time_count=8, f=f, seed=1)
    first = prob.marcher()
    energy_ratio(prob, lam=2.0)
    assert prob.marcher() is first
    # a problem built with another stepper marches on a marcher of its own
    half = TimeStepperConfig(theta=0.5)
    second = dataclasses.replace(prob, config=half).marcher()
    assert second is not first and second.config is half
    got = second.march([2.0], LoadAssembler(prob.mesh).parts(None, f))[0]
    want = march(prob.mesh, prob.coeffs, 2.0, f=f, config=half)
    assert got.levels.tobytes() == want.levels.tobytes()
    # one with another field decides its own structure condition
    assert prob.structure_condition()
    other = dataclasses.replace(
        prob, coeffs=generate_family(1, "oscillatory", 0.5, 0.2, dim=1))
    assert other.marcher().coeffs is other.coeffs
    assert not other.structure_condition()
    assert prob.structure_condition() and prob.marcher() is first
    mesh = build_mesh(1, 4.0, 10, 2.0, time_step=0.125, time_count=8)
    assert dataclasses.replace(prob, mesh=mesh).marcher().mesh is mesh


def test_energy_ratio_samples_each_source_once(monkeypatch):
    # d = 1 with F and f: one sampling of each for the march's loads and the
    # data norms alike, and none for a second lambda
    samples = []
    real = degenlab.fields.sample_nodes

    def counting(*args, **kwargs):
        samples.append(args)
        return real(*args, **kwargs)

    for module in (degenlab.fields, degenlab.assembly, degenlab.harness):
        if getattr(module, "sample_nodes", None) is real:
            monkeypatch.setattr(module, "sample_nodes", counting)
    prob = _problem_d1(M=10, time_count=6, F=(smooth_random_closure(3, 1),),
                       f=smooth_random_closure(4, 1), seed=2)
    energy_ratio(prob, lam=2.0)
    assert len(samples) == 2
    kept = energy_ratio(prob, lam=5.0)
    assert len(samples) == 2
    fresh = dataclasses.replace(prob)
    assert energy_ratio(fresh, lam=5.0).to_json() == kept.to_json()
    assert len(samples) == 4


def test_energy_ratio_applies_the_load_maps_once(monkeypatch):
    # the load parts do not depend on lambda: three lambdas on one problem
    # apply the load maps to the kept samples once, and each report is
    # bitwise that of a fresh problem
    calls = []
    real = LoadAssembler.sampled_parts
    monkeypatch.setattr(LoadAssembler, "sampled_parts", lambda *args: (
        calls.append(args) or real(*args)))
    prob = _problem_d1(M=16, time_count=10, F=(smooth_random_closure(3, 1),),
                       f=smooth_random_closure(4, 1), seed=2)
    lams = (0.5, 2.0, 8.0)
    kept = [energy_ratio(prob, lam=lam).to_json() for lam in lams]
    assert len(calls) == 1
    fresh = [energy_ratio(dataclasses.replace(prob), lam=lam).to_json()
             for lam in lams]
    assert len(calls) == 4
    assert repr(kept) == repr(fresh)


def test_a_problem_keeps_its_field_alive_only_while_it_lives():
    prob = _problem_d1(M=16, time_count=10, seed=3)
    sol = locally_homogeneous_solution(prob, Cylinder(1.0, 0.0, 0.5))
    w_estimate_ratio(sol, 0.25, 0.5)
    field = weakref.ref(prob.coeffs)
    del prob, sol
    gc.collect()
    assert field() is None


def test_duality_keeps_no_field_of_its_seeds(monkeypatch):
    made = []
    generate = degenlab.harness.generate_family

    def recording(*args, **kwargs):
        field = generate(*args, **kwargs)
        made.append(weakref.ref(field))
        return field

    monkeypatch.setattr(degenlab.harness, "generate_family", recording)
    duality_check(_problem_d1(M=10, time_count=6), seeds=(0, 1), lam=1.0,
                  kind="xd_only", eps=0.2)
    gc.collect()
    assert len(made) == 2 and all(ref() is None for ref in made)


def test_main_estimate_sweep_reports():
    f = smooth_random_closure(5, 1)
    prob = _problem_d1(M=12, time_count=10, f=f, seed=2)
    reports = main_estimate_sweep(prob, 2.0, (1.0, 4.0))
    assert len(reports) == 2
    for rep in reports:
        assert rep.check_id == "main_Wp"
        assert rep.params["in_window"]
        assert rep.params["uniformity"] >= 1.0
        assert np.isfinite(rep.params["refine_drift"])
        assert rep.params["gamma_measured"] <= 1e-12   # xd_only family
        print(rep.csv_row(), "drift", rep.params["refine_drift"])
    lams = [rep.params["lambda"] for rep in reports]
    assert lams == [1.0, 4.0]
    with pytest.raises(ValueError):
        main_estimate_sweep(prob, 2.0, (0.0, 1.0))


def test_sweep_ratio_invariant_under_data_scaling():
    f = smooth_random_closure(9, 1)
    f3 = lambda t, xp, xd: 3.0 * f(t, xp, xd)
    p1 = _problem_d1(M=10, time_count=8, f=f, seed=3)
    p2 = _problem_d1(M=10, time_count=8, f=f3, seed=3)
    r1 = main_estimate_sweep(p1, 2.0, (2.0,))[0]
    r2 = main_estimate_sweep(p2, 2.0, (2.0,))[0]
    assert abs(r2.rhs - 3 * r1.rhs) < 1e-10 * r2.rhs
    assert abs(r2.ratio - r1.ratio) < 1e-8 * r1.ratio


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_sweep_work_does_not_grow_with_the_lambda_grid(monkeypatch):
    F = (smooth_random_closure(3, 1),)
    f = smooth_random_closure(4, 1)
    prob = _problem_d1(M=8, time_count=8, F=F, f=f, seed=1)
    counts = {}
    for lambdas in ((1.0,), (1.0, 3.0, 9.0)):
        stack = _count_calls(monkeypatch, degenlab.assembly, "sample_on_mesh")
        scans = _count_calls(monkeypatch, degenlab.coefficients,
                             "sample_on_mesh")
        norms = _count_calls(monkeypatch, degenlab.harness, "analytic_norm")
        reports = main_estimate_sweep(prob, 2.0, lambdas,
                                      eps_grid=(0.0, 0.2))
        assert len(reports) == 2 * len(lambdas)
        counts[len(lambdas)] = (len(stack), len(scans), len(norms))
        # one coefficient sampling per (mesh, field): 2 meshes x 2 fields
        assert len(stack) == 4
        # one oscillation scan per field, on the coarse mesh
        assert len(scans) == 2
        # one data norm per (mesh, source): |F| and f on 2 meshes
        assert len(norms) == 4
        assert sum(args[1] is f for args in norms) == 2
        monkeypatch.undo()
    assert counts[1] == counts[3]


def test_duality_seed_assembles_the_mass_once(monkeypatch):
    m = build_mesh(1, 3.0, 8, 2.0, time_step=0.25, time_count=4)
    prob = ProblemSpec(m, generate_family(0, "constant", 0.5, 0.2, dim=1))
    calls = _count_calls(monkeypatch, degenlab.solver,
                         "assemble_weighted_mass")
    # one coefficient sampling per seed: the adjoint reuses the forward K
    samples = _count_calls(monkeypatch, degenlab.assembly, "sample_on_mesh")
    rep = duality_check(prob, seeds=(0, 1), lam=2.0)
    assert rep.passed
    assert len(calls) == 2
    assert len(samples) == 2


def _local_solution(seed=0, kind="xd_only", M=32, time_count=20, lam=1.0,
                    radius=0.5):
    prob = _problem_d1(M=M, time_count=time_count, seed=seed, kind=kind)
    cyl = Cylinder(1.0, 0.0, radius)
    return locally_homogeneous_solution(prob, cyl, lam=lam, seed=seed)


def test_locally_homogeneous_solution_properties():
    sol = _local_solution(seed=1)
    assert sol.source_bound >= 0.9
    assert sol.homogeneous_cylinder.boundary_centered
    assert sol.max_abs() > 0
    # independent leak check: the march's loads vanish on every row whose
    # support lies below the cushion, and not on the rows above it
    mesh = sol.mesh
    top = mesh.xd_nodes[np.arange(mesh.n_interior) + 2]
    below = top <= sol.source_bound
    assert below.any() and not below.all()
    assert np.all(sol.loads[:, below] == 0.0)
    assert np.any(sol.loads[1:, ~below] != 0.0)
    prob = _problem_d1(M=32, time_count=20, seed=1)
    cyl = Cylinder(1.0, 0.0, 0.5)
    sol2 = locally_homogeneous_solution(prob, cyl, lam=1.0, seed=1)
    assert np.array_equal(sol.levels, sol2.levels)   # deterministic


def test_a_problem_samples_each_seed_sources_once(monkeypatch):
    prob = _problem_d1(M=24, time_count=10, seed=2)
    cyl = Cylinder(1.0, 0.0, 0.5)
    samples = _count_calls(monkeypatch, degenlab.assembly, "sample_nodes")
    sols = [locally_homogeneous_solution(prob, cyl, lam=lam, seed=seed)
            for seed in (2, 3) for lam in (0.0, 1.0, 10.0)]
    # F and f of each seed, sampled for its first lambda only
    assert len(samples) == 2 * 2
    monkeypatch.undo()
    mesh = prob.mesh
    x_lo = sols[0].source_bound
    x_hi = x_lo + degenlab.harness._SUPPORT_RAMP
    parts = prob.source_parts(2, x_lo, x_hi)
    assert prob.source_parts(2, x_lo, x_hi) is parts
    fresh = LoadAssembler(mesh).parts(
        *degenlab.harness._local_sources(mesh, 2, x_lo, x_hi))
    for kept, want in zip(parts, fresh):
        assert kept.tobytes() == want.tobytes()
        assert not kept.flags.writeable
    for sol in sols[:3]:
        assert sol.loads.tobytes() == \
            LoadAssembler.combine(fresh, sol.lam).tobytes()


def test_a_problem_on_another_mesh_samples_its_own_source_parts(
        monkeypatch):
    prob = _problem_d1(M=24, time_count=10, seed=2)
    cyl = Cylinder(1.0, 0.0, 0.5)
    first = locally_homogeneous_solution(prob, cyl, lam=1.0)
    x_lo = first.source_bound
    x_hi = x_lo + degenlab.harness._SUPPORT_RAMP
    kept = prob.source_parts(2, x_lo, x_hi)
    other = dataclasses.replace(prob, mesh=build_mesh(
        1, 4.0, 16, 2.0, time_step=0.1, time_count=10))
    samples = _count_calls(monkeypatch, degenlab.assembly, "sample_nodes")
    parts = other.source_parts(2, x_lo, x_hi)
    assert len(samples) == 2
    assert parts is not kept and prob.source_parts(2, x_lo, x_hi) is kept
    assert parts[0].shape == (11, other.mesh.n_interior)
    sol = locally_homogeneous_solution(other, cyl, lam=1.0)
    assert sol.levels.shape == (11, 17, 1)
    assert len(samples) == 2


def test_the_local_estimates_integrate_each_norm_once(monkeypatch):
    # the benchmark's local sequence: Q_R of caccioppoli_ratio is the Q_2r
    # of boundary_lipschitz, so its two norms are integrated once
    prob = _problem_d1(M=32, time_count=20, seed=1)
    calls = _count_calls(monkeypatch, degenlab.norms, "_level_powers")
    sol = locally_homogeneous_solution(prob, Cylinder(1.0, 0.0, 0.5),
                                       lam=1.0)
    kept = [list(caccioppoli_ratio(sol, 0.25, 0.5)),
            w_estimate_ratio(sol, 0.25, 0.5), boundary_lipschitz(sol, 0.25)]
    # the certificate 1, caccioppoli 5, the quotient 3, lipschitz 0
    assert len(calls) == 9
    monkeypatch.undo()
    fresh_sol = SpaceTimeSolution(sol.mesh, sol.levels)
    for name in ("lam", "homogeneous_cylinder", "problem", "seed"):
        setattr(fresh_sol, name, getattr(sol, name))
    fresh = boundary_lipschitz(fresh_sol, 0.25)
    assert kept[2].csv_row() == fresh.csv_row()


def test_locally_homogeneous_rejects_leaking_sources(monkeypatch):
    # sources not cut off below the cushion reach the cylinder and fail
    # the certificate
    monkeypatch.setattr(degenlab.harness, "_smoothstep",
                        lambda x, lo, hi: np.ones_like(np.asarray(x, float)))
    prob = _problem_d1(M=16, time_count=8)
    with pytest.raises(ValueError, match="sources leak into the homogeneous"):
        locally_homogeneous_solution(prob, Cylinder(1.0, 0.0, 0.5), lam=1.0)


def test_locally_homogeneous_rejects_zero_sources():
    # the golden caccioppoli geometry at M = 48: at lambda = 1000 what the
    # sources above the cushion leave on the cylinder is numerically zero
    prob = _problem_d1(M=48, time_count=10)
    with pytest.raises(DegenerateLocalSolution):
        locally_homogeneous_solution(prob, Cylinder(1.0, 0.0, 0.5),
                                     lam=1000.0)


def _local_ratio(seed, lam, scale, monkeypatch):
    """(local L2 norm over the cylinder / max|u|, refused) of the local
    solution of the golden caccioppoli config (M = 24) for one seed and
    lambda, with both synthesized sources scaled by scale."""
    sources = degenlab.harness._local_sources

    def scaled(*args):
        F, f = sources(*args)
        return (tuple(lambda t, xp, xd, g=g: scale * g(t, xp, xd) for g in F),
                lambda t, xp, xd: scale * f(t, xp, xd))
    monkeypatch.setattr(degenlab.harness, "_local_sources", scaled)
    cfg = parse_config(GOLDEN["caccioppoli"])
    cyl = degenlab.cli._cylinder(cfg)
    try:
        sol = locally_homogeneous_solution(degenlab.cli._problem(cfg), cyl,
                                           lam=lam, seed=seed)
    except DegenerateLocalSolution:
        return None, True
    local = weighted_norm(sol, NormSpec(2.0, 0.0, "0", region=cyl))
    return local / sol.max_abs(), False


def test_the_degeneracy_floor_is_relative_to_the_solution(monkeypatch):
    # the march is linear in its sources, so scaling both by 1e-3 scales
    # u and its local norm alike: the verdict and local / max|u| must not
    # move.  With an absolute floor of 1e-10 the scaled seed 7 (local
    # 1.5e-10 unscaled, local / max|u| 2.9e-9) was refused
    ratio, refused = _local_ratio(7, 300.0, 1.0, monkeypatch)
    assert not refused and 1e-9 < ratio < 1e-8
    scaled_ratio, scaled_refused = _local_ratio(7, 300.0, 1e-3, monkeypatch)
    assert not scaled_refused
    assert scaled_ratio == pytest.approx(ratio, rel=1e-12)


def test_locally_homogeneous_refuses_a_problem_with_sources():
    for data in (dict(f=smooth_random_closure(2, 1)),
                 dict(F=(smooth_random_closure(3, 1),))):
        prob = _problem_d1(M=16, time_count=8, **data)
        with pytest.raises(ValueError, match="must carry no F or f"):
            locally_homogeneous_solution(prob, Cylinder(1.0, 0.0, 0.5))


def test_locally_homogeneous_validation():
    prob = _problem_d1(M=16, time_count=8, kind="oscillatory")
    with pytest.raises(ValueError):
        locally_homogeneous_solution(prob, Cylinder(1.0, 0.0, 0.5))
    prob2 = _problem_d1(M=16, time_count=8)
    with pytest.raises(ValueError):
        # cylinder top too close to the truncation boundary
        locally_homogeneous_solution(prob2, Cylinder(1.0, 0.0, 3.5))


def test_two_seeds_give_independent_solutions():
    a = _local_solution(seed=3)
    b = _local_solution(seed=4)
    va, vb = a.levels.ravel(), b.levels.ravel()
    cos = abs(va @ vb) / (np.linalg.norm(va) * np.linalg.norm(vb))
    angle = np.arccos(min(1.0, cos))
    print("angle between seeds", angle)
    assert angle > 1e-3


def test_caccioppoli_reports():
    sol = _local_solution(seed=2, lam=2.0)
    rep_g, rep_t = caccioppoli_ratio(sol, 0.25, 0.5)
    assert rep_g.check_id == "caccioppoli"
    assert rep_g.params["variant"] == "gradient"
    assert rep_t.params["variant"] == "time_derivative"
    for rep in (rep_g, rep_t):
        assert np.isfinite(rep.ratio) and rep.passed
        assert rep.lhs > 0 and rep.rhs > 0
        print(rep.csv_row())
    with pytest.raises(ValueError):
        caccioppoli_ratio(sol, 0.5, 0.25)
    with pytest.raises(ValueError):
        caccioppoli_ratio(sol, 0.25, 0.75)    # exceeds homogeneous radius


def test_caccioppoli_zero_solution_passes_via_floor():
    m = build_mesh(1, 4.0, 16, 2.0, time_step=0.1, time_count=10)
    sol = SpaceTimeSolution(m, np.zeros((11, 17, 1)))
    sol.homogeneous_cylinder = Cylinder(1.0, 0.0, 0.5)
    sol.lam = 1.0
    sol.seed = 0
    rep_g, rep_t = caccioppoli_ratio(sol, 0.25, 0.5)
    assert rep_g.lhs == 0.0 and rep_g.rhs == 0.0 and rep_g.passed
    assert rep_t.lhs == 0.0 and rep_t.passed


def test_w_estimate_structure_enforcement():
    sol = _local_solution(seed=5, kind="xd_only")
    rep = w_estimate_ratio(sol, 0.25, 0.5)
    assert rep.check_id == "w_estimate"
    assert rep.params["variant"] == "standard"
    assert np.isfinite(rep.ratio) and rep.lhs > 0
    print(rep.csv_row())
    # give the solution a problem of a structure-violating family: it
    # decides the condition anew, and enforcement must trip
    sol.problem = dataclasses.replace(
        sol.problem, coeffs=generate_family(5, "oscillatory", 0.5, 0.2,
                                            dim=1))
    with pytest.raises(ValueError):
        w_estimate_ratio(sol, 0.25, 0.5)


def test_boundary_lipschitz_report():
    sol = _local_solution(seed=6, lam=1.0)
    rep = boundary_lipschitz(sol, 0.25)
    assert rep.check_id == "lipschitz"
    assert np.isfinite(rep.lhs) and rep.lhs > 0
    assert rep.params["sup_u_over_xd"] > 0
    assert rep.params["sup_xhalf_dxprime"] == 0.0      # dim 1
    print(rep.csv_row(), "quot", rep.params["sup_u_over_xd"])
    # non-boundary cylinder is rejected
    sol.homogeneous_cylinder = Cylinder(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        boundary_lipschitz(sol, 0.25)


def test_local_checks_in_d2():
    # the d = 2 quotient sup x_d^{-1/2} |D_x' u| of boundary_lipschitz over
    # the cell centres of the inner cylinder, against the x' difference of
    # each cell's corner values
    mesh = build_mesh(2, 4.0, 16, 2.0, xprime_count=16, xprime_length=2.0,
                      time_step=0.1, time_count=10)
    prob = ProblemSpec(mesh, generate_family(0, "constant", 0.5, 0.2, dim=2,
                                             xp_length=2.0))
    sol = locally_homogeneous_solution(prob, Cylinder(1.0, 0.0, 0.5),
                                       lam=1.0)
    rep = boundary_lipschitz(sol, 0.25)
    _, _, cs = degenlab.harness._nested_cylinders(sol, 0.25, 0.5)
    assert (cs.time_cells.size, cs.space_cells.size) == (2, 14)
    P, h = mesh.xprime_count, mesh.xprime_spacing
    want = 0.0
    for n in cs.time_cells + 1:
        u = sol.levels[n]
        for j, m in zip(cs.space_j.tolist(), cs.space_m.tolist()):
            dxp = 0.5 * ((u[j, (m + 1) % P] - u[j, m])
                         + (u[j + 1, (m + 1) % P] - u[j + 1, m])) / h
            want = max(want, abs(dxp) / np.sqrt(mesh.xd_centers[j]))
    got = rep.params["sup_xhalf_dxprime"]
    assert abs(got - want) <= 1e-14 * want
    assert abs(got - 0.021379114466804) < 1e-14
    assert np.isfinite(rep.ratio) and rep.lhs > 0
    for report in (*caccioppoli_ratio(sol, 0.25, 0.5),
                   w_estimate_ratio(sol, 0.25, 0.5)):
        assert np.isfinite(report.ratio) and report.rhs > 0


def test_local_checks_refuse_an_empty_inner_cylinder_alike():
    # the window (0.99, 1] of radius 0.01 holds no time-cell centre
    sol = _local_solution(seed=5, kind="xd_only")
    for check in (lambda: caccioppoli_ratio(sol, 0.01, 0.5),
                  lambda: w_estimate_ratio(sol, 0.01, 0.5),
                  lambda: boundary_lipschitz(sol, 0.01)):
        with pytest.raises(ValueError, match="^inner cylinder contains no "
                                             "mesh cells$"):
            check()
    for check in (lambda: caccioppoli_ratio(sol, 0.5, 0.25),
                  lambda: w_estimate_ratio(sol, 0.25, 0.25)):
        with pytest.raises(ValueError, match=r"^need 0 < r < R, got "
                                             r"r = 0\.(5|25), R = 0\.25$"):
            check()


def test_duality_check_d1():
    prob = _problem_d1(M=12, time_count=8, seed=0)
    rep = duality_check(prob, seeds=(0, 1), lam=2.0, kind="xd_only",
                        eps=0.2)
    assert rep.check_id == "duality"
    assert rep.params["n_seeds"] == 2
    assert rep.passed
    assert rep.params["rel_errors_max"] <= 1e-8
    print("duality d1 rel", rep.params["rel_errors_max"])


def test_duality_check_d2_nonsymmetric(monkeypatch):
    mesh = build_mesh(2, 4.0, 10, 2.0, xprime_count=6,
                      xprime_length=2 * np.pi, time_step=0.125, time_count=8)
    coeffs = generate_family(0, "constant", 0.5, 0.2, dim=2,
                             xp_length=2 * np.pi)
    prob = ProblemSpec(mesh, coeffs, seed=0)
    # one factorization per seed: the adjoint solves with the forward
    # march's factors, transposed
    factorizations = _count_calls(monkeypatch, degenlab.solver, "dgbtrf")
    rep = duality_check(prob, seeds=(0, 1), lam=1.0, kind="constant",
                        eps=0.2)
    assert rep.passed
    assert len(factorizations) == 2
    print("duality d2 rel", rep.params["rel_errors_max"])


def test_duality_refuses_a_nan_pairing_of_any_seed(monkeypatch):
    # the worst seed gives the report, so a NaN pairing must be the worst:
    # here seed 0's adjoint is NaN and seed 1's pairing agrees to 1e-8
    adjoint, calls = degenlab.solver.Marcher.adjoint, []

    def nan_first(self, lam, rows):
        calls.append(lam)
        v = adjoint(self, lam, rows)
        return v * np.nan if len(calls) == 1 else v
    monkeypatch.setattr(degenlab.solver.Marcher, "adjoint", nan_first)
    with pytest.raises(ValueError, match="^non-finite report sides: duality "
                                         "lhs=nan"):
        duality_check(_problem_d1(M=8, time_count=4), seeds=(0, 1), lam=1.0,
                      kind="xd_only", eps=0.2)
    assert len(calls) == 2


def test_duality_check_reads_its_seeds_once_and_needs_one():
    prob = _problem_d1(M=8, time_count=4)
    args = dict(lam=1.0, kind="xd_only", eps=0.2)
    rep = duality_check(prob, seeds=(s for s in (0, 1)), **args)
    assert rep.params["n_seeds"] == 2
    assert rep.to_json() == duality_check(prob, seeds=(0, 1), **args).to_json()
    with pytest.raises(ValueError, match=r"^seeds must name at least one "):
        duality_check(prob, seeds=(), **args)


def test_a_problem_keeps_each_duality_seed_for_every_lambda(monkeypatch):
    args = dict(seeds=(0, 1), kind="xd_only", eps=0.2)
    fresh = duality_check(_problem_d1(M=8, time_count=4), lam=4.0, **args)
    prob = _problem_d1(M=8, time_count=4)
    duality_check(prob, lam=1.0, **args)
    marcher, fwd, dual = prob.duality_seed(0, "xd_only", 0.2)
    assert marcher.config.theta == 1.0
    parts = [a for part in (fwd, dual) for a in part if a is not None]
    assert len(parts) == 4 and not any(a.flags.writeable for a in parts)
    # a second lambda samples no source and builds no field or operator
    samples = _count_calls(monkeypatch, degenlab.assembly, "sample_nodes")
    fields = _count_calls(monkeypatch, degenlab.harness, "generate_family")
    masses = _count_calls(monkeypatch, degenlab.solver,
                          "assemble_weighted_mass")
    again = duality_check(prob, lam=4.0, **args)
    assert (samples, fields, masses) == ([], [], [])
    assert repr(again.to_json()) == repr(fresh.to_json())
    # another (kind, eps) is another field with loads of its own
    duality_check(prob, seeds=(0,), lam=4.0, kind="constant", eps=0.2)
    assert (len(samples), len(fields), len(masses)) == (4, 1, 1)
    assert prob.duality_seed(0, "constant", 0.2)[0] is not marcher
    assert prob.duality_seed(0, "xd_only", 0.2) == (marcher, fwd, dual)


def test_corollary2_validation_and_report():
    case = default_case(1, lam=1.0)
    mesh = build_mesh(1, 4.0, 24, 2.0, time_step=0.05, time_count=20)
    with pytest.raises(ValueError):
        corollary2_check(case, mesh, p=1.5)
    bad_mesh = build_mesh(1, 3.0, 24, 2.0, time_step=0.05, time_count=20)
    with pytest.raises(ValueError):
        corollary2_check(case, bad_mesh, p=2.0)
    fcase = default_case(1, lam=1.0, mode="F_only")
    with pytest.raises(ValueError):
        corollary2_check(fcase, mesh, p=2.0)
    rep = corollary2_check(case, mesh, p=2.0)
    assert rep.check_id == "corollary2"
    assert np.isfinite(rep.ratio) and rep.lhs > 0 and rep.rhs > 0
    for key in ("norm_u", "norm_du", "norm_ut", "norm_d2u", "norm_dut"):
        assert rep.params[key] >= 0
    print(rep.csv_row())


def test_trace_report_slope_oracles():
    m = build_mesh(1, 1.0, 128, 2.0)
    lin = _sampled(m, lambda t, xp, xd: xd)
    rep = trace_report(lin, 2.0)
    print("slope(x)", rep.lhs)
    assert abs(rep.lhs - 1.0) < 1e-10
    assert rep.passed
    frac = _sampled(m, lambda t, xp, xd: xd ** 0.6)
    rep2 = trace_report(frac, 2.0)
    print("slope(x^0.6)", rep2.lhs)
    assert abs(rep2.lhs - 0.6) < 1e-10
    assert rep2.passed            # 0.6 >= 1/2 - 1/2 - 0.05
    with pytest.raises(ValueError):
        trace_report(lin, 1.5)
    assert rep.params["n_slices"] >= 4


def test_hardy_report_linear_profile():
    m = build_mesh(1, 1.0, 32, 2.0)
    u = _sampled(m, lambda t, xp, xd: xd)
    rep = hardy_report(u, 2.0)
    assert abs(rep.ratio - 1.0) < 1e-12
    assert rep.passed
    bump = _sampled(m, lambda t, xp, xd: xd * (1 - xd))
    rep2 = hardy_report(bump, 3.0)
    print("hardy ratio", rep2.ratio, "bound", rep2.threshold)
    assert rep2.passed
    assert rep2.ratio <= 1.5 + 0.05


def test_hardy_and_trace_adapters():
    m = build_mesh(1, 1.0, 64, 2.0)
    lin = _sampled(m, lambda t, xp, xd: xd)
    h = hardy_report(lin, 2.0, seed=9)
    assert h.check_id == "hardy"
    assert abs(h.ratio - 1.0) < 1e-12
    assert h.passed and h.threshold == 2.05
    row = h.csv_row().split(",")
    assert row[0] == "hardy" and row[5] == "9"
    t = trace_report(lin, 2.0, seed=9)
    assert t.check_id == "trace"
    assert abs(t.lhs - 1.0) < 1e-10
    assert t.rhs == 1.0
    assert t.passed
