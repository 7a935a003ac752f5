"""Acceptance gate: seven criteria, one test and one printed verdict line each.

Criteria 1-3 exercise exact quadratic-structure identities, the two
independent solution routes, and the contraction of the update iteration on
small meshes.  Criteria 4-7 reproduce the asymptotic behaviour at the default
experiment scale: mesh rates for states, adjoints and optimal controls, the
large-alpha limit, and the closure of the joint limit table.
"""

import contextlib

import numpy as np
import pytest

from fluxopt import harness, optctl, pde
from fluxopt.assembly import assemble_boundary_mass, norm
from fluxopt.harness import ExperimentConfig
from fluxopt.linsolve import estimate_constants
from fluxopt.mesh import (
    BoundaryTag,
    TraceField,
    build_structured_mesh,
    dof_partition,
    trace_restrict,
    zero_trace,
)
from oracles import column, reduced_cost_constant


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def make_spec(alpha=None, M=25.0):
    return pde.ProblemSpec(
        g=lambda x, y: 10.0 * np.sin(np.pi * x) * np.sin(2.0 * np.pi * y),
        z_d=lambda x, y: np.zeros_like(x),
        b=1.0,
        M=M,
        alpha=alpha,
    )


def trace_gram(mesh):
    b2 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    g2 = dof_partition(mesh).gamma2_trace_dofs
    return np.asarray(b2[g2][:, g2].todense())


def random_pairs(mesh, count, seed):
    rng = np.random.default_rng(seed)
    size = len(zero_trace(mesh).coefficients)
    for _ in range(count):
        yield (
            TraceField(mesh, rng.standard_normal(size)),
            TraceField(mesh, rng.standard_normal(size)),
        )


def test_criterion_1_exact_identity_suite():
    with criterion(1, "exact identities"):
        for n in (4, 16):
            mesh = build_structured_mesh(n, ["bottom"])
            gram = trace_gram(mesh)
            pair_q = lambda a, b: float(a.coefficients @ (gram @ b.coefficients))
            for alpha in (None, 2.0):
                spec = make_spec(alpha)
                gmat, lvec = optctl.reduced_normal_system(mesh, spec)
                c0 = reduced_cost_constant(mesh, spec)
                for q1, q2 in random_pairs(mesh, 20, seed=n):
                    u1 = pde.solve_state(mesh, spec, q1)
                    u2 = pde.solve_state(mesh, spec, q2)
                    p1 = pde.solve_adjoint(mesh, spec, u1)
                    p2 = pde.solve_adjoint(mesh, spec, u2)
                    du_sq = norm(u2 - u1, "H") ** 2
                    dq = q2 - q1
                    j1 = optctl.cost(mesh, spec, q1)
                    j2 = optctl.cost(mesh, spec, q2)

                    # operator monotonicity against the adjoint trace gap
                    pairing = -pair_q(dq, trace_restrict(p2 - p1))
                    assert pairing == pytest.approx(du_sq, rel=1e-9, abs=1e-12)

                    # convexity identity at the midpoint
                    gap = 0.5 * (j1 + j2) - optctl.cost(mesh, spec, (q1 + q2) * 0.5)
                    expect = 0.125 * du_sq + 0.125 * spec.M * norm(dq, "Q") ** 2
                    assert gap == pytest.approx(expect, rel=1e-9)

                    # gradient monotonicity
                    dgrad = optctl.gradient(mesh, spec, q2) - optctl.gradient(mesh, spec, q1)
                    lhs = pair_q(dgrad, dq)
                    rhs = du_sq + spec.M * norm(dq, "Q") ** 2
                    assert lhs == pytest.approx(rhs, rel=1e-9)

                    # gradient-adjoint identity: the cost is quadratic, so a
                    # unit central difference equals the boundary pairing of
                    # M q1 - (adjoint trace) with the direction exactly
                    diff = 0.5 * (optctl.cost(mesh, spec, q1 + q2) - optctl.cost(mesh, spec, q1 - q2))
                    grad_pairing = pair_q(optctl.gradient(mesh, spec, q1), q2)
                    scale = max(abs(diff), abs(grad_pairing), 1.0)
                    assert abs(diff - grad_pairing) <= 1e-9 * scale

                    # quadratic-form identity of the reduced cost
                    v = q1.coefficients
                    quadratic = 0.5 * float(v @ (gmat @ v)) - float(lvec @ v) + c0
                    assert quadratic == pytest.approx(j1, rel=1e-9)


def test_criterion_2_route_equivalence():
    with criterion(2, "independent routes agree"):
        for n in (8, 16):
            mesh = build_structured_mesh(n, ["bottom"])
            for alpha in (None, 1.0, 100.0):
                spec = make_spec(alpha)
                fp = optctl.solve_optimal_fixed_point(mesh, spec)
                dense = optctl.solve_optimal_reduced(mesh, spec)
                assert norm(fp.q_opt - dense.q_opt, "Q") <= 1e-7
                assert fp.gradient_norm <= 1e-8
                assert dense.gradient_norm <= 1e-8


def test_criterion_3_contraction_reproduction():
    with criterion(3, "contraction within the bound"):
        for n in (4, 8, 16):
            mesh = build_structured_mesh(n, ["bottom"])
            constants = estimate_constants(mesh)
            for alpha in (None, 1.0):
                bound = constants.contraction_bound(alpha)
                spec = make_spec(alpha, M=4.0 * bound)
                sol = optctl.solve_optimal_fixed_point(mesh, spec)
                assert sol.contraction_ratios, "need at least two iterations"
                assert max(sol.contraction_ratios) <= bound / spec.M + 0.05
                rng = np.random.default_rng(n)
                other = optctl.solve_optimal_fixed_point(
                    mesh,
                    spec,
                    q0=TraceField(mesh, rng.standard_normal(len(sol.q_opt.coefficients))),
                )
                assert norm(sol.q_opt - other.q_opt, "Q") <= 1e-8


def test_criterion_4_state_adjoint_mesh_rates():
    with criterion(4, "state and adjoint first-order rates"):
        report = harness.run(ExperimentConfig("state-conv"))
        state = report.rates["state_rate"]
        adjoint = report.rates["adjoint_rate"]
        assert state.status == "ok" and abs(state.rate - 1.0) <= 0.15
        assert adjoint.status == "ok" and abs(adjoint.rate - 1.0) <= 0.15
        assert report.passed


def test_criterion_5_optimal_control_mesh_rates():
    with criterion(5, "optimal control mesh rates"):
        report = harness.run(ExperimentConfig("control-conv"))
        for name in ("control_rate", "state_rate", "adjoint_rate"):
            fit = report.rates[name]
            assert fit.status == "ok" and fit.rate >= 0.85, name
        for name in ("cost_gap_ref_rate", "cost_gap_level_rate"):
            fit = report.rates[name]
            assert fit.status == "ok" and fit.rate >= 1.7, name
        fit = report.rates["cost_value_rate"]
        assert fit.status == "ok" and fit.rate >= 0.85
        assert report.checks["start_agreement"] is True
        assert report.passed


def test_control_conv_reaches_the_rates_of_the_uniform_mesh():
    # h^2 for the control in L2(Gamma2) and h^4 for the cost gaps on a
    # uniform mesh (Casas & Mateos, Comput. Optim. Appl. 39, 2008; Apel,
    # Pfefferer & Roesch, Comput. Optim. Appl. 52, 2012); measured 2.03,
    # 4.05 and 4.06
    report = harness.run(ExperimentConfig("control-conv"))
    fit = report.rates["control_rate"]
    assert fit.status == "ok" and fit.rate >= 1.8
    for name in ("cost_gap_ref_rate", "cost_gap_level_rate"):
        fit = report.rates[name]
        assert fit.status == "ok" and fit.rate >= 3.6, name


def test_criterion_6_large_alpha_limit():
    with criterion(6, "large-alpha limit"):
        report = harness.run(ExperimentConfig("alpha-sweep"))
        for name in (
            "fixed_state_dist",
            "fixed_adjoint_dist",
            "control_dist",
            "state_dist",
            "adjoint_dist",
        ):
            values = column(report, name)
            assert all(b < a for a, b in zip(values, values[1:])), name
            assert values[-1] <= 1e-2 * values[0], name
        for name in ("fixed_state_penalty", "state_penalty", "adjoint_penalty"):
            assert report.checks[f"{name}_bounded"] is True
        assert report.passed


def test_criterion_7_joint_limit_diagram():
    with criterion(7, "joint limit diagram closes"):
        report = harness.run(ExperimentConfig("diagram"))
        assert report.checks["rows_decreasing"] is True
        assert report.checks["columns_decreasing"] is True
        tails = report.meta["tail_h"] + report.meta["tail_alpha"]
        assert report.meta["corner"] <= 5.0 * tails
        assert report.meta["max_limit_gap"] <= 5.0 * tails
        assert report.passed
