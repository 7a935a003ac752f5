"""Both solver families: constant states, linearity, duality identities,
Lipschitz stability with the estimated constants, and the large-alpha limit."""

import itertools

import numpy as np
import pytest

from fluxopt import pde
from fluxopt.assembly import (
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    norm,
)
from fluxopt.linsolve import estimate_constants
from fluxopt.mesh import (
    SIDES,
    BoundaryTag,
    TraceField,
    build_structured_mesh,
    dof_partition,
    trace_extend,
    trace_restrict,
    zero_trace,
)
from oracles import evaluate_nodal


def q_inner(q1, q2):
    b2 = assemble_boundary_mass(q1.mesh, BoundaryTag.GAMMA2)
    return float(trace_extend(q1).coefficients @ (b2 @ trace_extend(q2).coefficients))


def energy(mesh, spec, v, w):
    # bilinear form of whichever family the ProblemSpec selects
    a = assemble_stiffness(mesh)
    val = v.coefficients @ (a @ w.coefficients)
    if spec.alpha is not None:
        b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
        val += spec.alpha * (v.coefficients @ (b1 @ w.coefficients))
    return float(val)


def base_spec(alpha=None):
    return pde.ProblemSpec(
        g=lambda x, y: 10.0 * np.sin(np.pi * x) * np.sin(2.0 * np.pi * y),
        z_d=lambda x, y: np.zeros_like(x),
        b=1.0,
        M=25.0,
        alpha=alpha,
    )


def random_trace(mesh, seed):
    rng = np.random.default_rng(seed)
    return TraceField(mesh, rng.standard_normal(len(zero_trace(mesh).coefficients)))


@pytest.mark.parametrize("alpha", [None, 0.5, 1.0, 100.0])
def test_constant_state_for_zero_flux(alpha):
    mesh = build_structured_mesh(4, ["bottom"])
    spec = pde.ProblemSpec(g=lambda x, y: 0.0, z_d=lambda x, y: 1.0, b=1.0, M=1.0, alpha=alpha)
    u = pde.solve_state(mesh, spec, zero_trace(mesh))
    assert np.allclose(u.coefficients, 1.0, atol=1e-11)
    p = pde.solve_adjoint(mesh, spec, u)
    assert norm(p, "V") < 1e-10


SIDE_SETS = [
    sides for count in (1, 2, 3) for sides in itertools.combinations(SIDES, count)
]


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("sides", SIDE_SETS, ids="+".join)
def test_zero_data_give_exactly_b(n, sides):
    # u - b solves the family's problem with zero data, so the state is b
    # on every vertex with no rounding; a solve that carries b in its data
    # leaves the constant to K + alpha B1, whose conditioning at small alpha
    # costs up to 1.0e-10 here and fails the solve's limit at n = 64, alpha = 1e-3
    mesh = build_structured_mesh(n, sides)
    zero = lambda x, y: 0.0 * x
    for alpha in (None, 1e-3, 1e-2, 0.1, 1.0, 1e4):
        spec = pde.ProblemSpec(g=zero, z_d=zero, b=1.5, M=1.0, alpha=alpha)
        u = pde.solve_state(mesh, spec, zero_trace(mesh))
        assert np.array_equal(u.coefficients, np.full(len(mesh.vertices), 1.5)), alpha


@pytest.mark.parametrize("sides", SIDE_SETS, ids="+".join)
def test_the_state_right_hand_side_is_the_load_minus_the_extended_flux_bit_for_bit(
    monkeypatch, sides
):
    # the flux term comes from the trace mass on the trace rows alone, as
    # B2's nonzeros lie on the trace vertices
    solve_family, seen = pde.solve_family, []

    def recorded(mesh, alpha, rhs):
        seen.append(rhs.copy())
        return solve_family(mesh, alpha, rhs)

    monkeypatch.setattr(pde, "solve_family", recorded)
    spec = base_spec()
    for n in (2, 5, 16):
        mesh = build_structured_mesh(n, sides)
        q = random_trace(mesh, n)
        b2 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
        want = assemble_load(mesh, spec.g) - b2 @ trace_extend(q).coefficients
        for alpha in (None, 1.0):
            seen.clear()
            pde.solve_state(mesh, spec.with_alpha(alpha), q)
            assert [rhs.tobytes() for rhs in seen] == [want.tobytes()]


@pytest.mark.parametrize("n", [3, 5, 12, 64])
@pytest.mark.parametrize("sides", SIDE_SETS, ids="+".join)
def test_state_solves_the_system_with_b_in_its_data(n, sides):
    # the systems that carry b in their data: the clamped block with the
    # lift of b moved to the right side, and the Robin matrix with the
    # penalty load alpha b B1 1; at n = 3, 5 and 12 the assembled K maps
    # constants to roundoff rather than to exactly zero
    mesh = build_structured_mesh(n, sides)
    part = dof_partition(mesh)
    free, clamped = part.free_dofs, part.gamma1_dofs
    stiff = assemble_stiffness(mesh)
    b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    spec = pde.ProblemSpec(
        g=lambda x, y: 10.0 * np.sin(np.pi * x) * np.sin(2.0 * np.pi * y),
        z_d=lambda x, y: 0.0 * x,
        b=-2.5,
        M=1.0,
    )
    q = random_trace(mesh, n)
    load = assemble_load(mesh, spec.g) - (
        assemble_boundary_mass(mesh, BoundaryTag.GAMMA2) @ trace_extend(q).coefficients
    )
    for alpha in (None, 1.0, 1e4):
        u = pde.solve_state(mesh, spec.with_alpha(alpha), q).coefficients
        if alpha is None:
            assert np.array_equal(u[clamped], np.full(len(clamped), spec.b))
            rhs = load[free] - stiff[free][:, clamped] @ u[clamped]
            residual = stiff[free][:, free] @ u[free] - rhs
        else:
            rhs = load + alpha * spec.b * (b1 @ np.ones(len(u)))
            residual = (stiff + alpha * b1) @ u - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs), alpha


@pytest.mark.parametrize("alpha", [None, 2.0])
def test_state_is_affine_in_the_control(alpha):
    mesh = build_structured_mesh(8, ["bottom"])
    spec = base_spec(alpha)
    q1 = random_trace(mesh, 1)
    q2 = random_trace(mesh, 2)
    u0 = pde.solve_state(mesh, spec, zero_trace(mesh))
    u1 = pde.solve_state(mesh, spec, q1)
    u2 = pde.solve_state(mesh, spec, q2)
    u12 = pde.solve_state(mesh, spec, q1 + q2)
    defect = u12 - u1 - u2 + u0
    assert norm(defect, "V") < 1e-9 * max(1.0, norm(u12, "V"))


def test_adjoint_vanishes_when_target_equals_state():
    mesh = build_structured_mesh(8, ["bottom"])
    spec = base_spec()
    u = pde.solve_state(mesh, spec, random_trace(mesh, 5))
    matched = pde.ProblemSpec(
        g=spec.g, z_d=lambda x, y: evaluate_nodal(u, x, y), b=spec.b, M=spec.M
    )
    p = pde.solve_adjoint(mesh, matched, u)
    assert norm(p, "V") < 1e-9


@pytest.mark.parametrize("alpha", [None, 1.0, 100.0])
def test_state_difference_balances_adjoint_pairing(alpha):
    # the squared H-norm of the state difference equals minus the boundary
    # pairing of the control difference with the adjoint trace difference
    mesh = build_structured_mesh(8, ["bottom"])
    spec = base_spec(alpha)
    q1 = random_trace(mesh, 21)
    q2 = random_trace(mesh, 22)
    u1 = pde.solve_state(mesh, spec, q1)
    u2 = pde.solve_state(mesh, spec, q2)
    p1 = pde.solve_adjoint(mesh, spec, u1)
    p2 = pde.solve_adjoint(mesh, spec, u2)
    lhs = -q_inner(q2 - q1, trace_restrict(p2 - p1))
    rhs = norm(u2 - u1, "H") ** 2
    assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("alpha", [None, 1.0, 100.0])
def test_excitation_duality_identity(alpha):
    # three expressions for one pairing: adjoint energy against the
    # unit-control response, the misfit pairing, and the boundary pairing
    mesh = build_structured_mesh(8, ["bottom"])
    spec = base_spec(alpha)
    q = random_trace(mesh, 31)
    f = random_trace(mesh, 32)
    u_q = pde.solve_state(mesh, spec, q)
    p_q = pde.solve_adjoint(mesh, spec, u_q)
    u_f = pde.solve_state(mesh, spec, f)
    u_0 = pde.solve_state(mesh, spec, zero_trace(mesh))
    response = u_f - u_0
    e1 = energy(mesh, spec, p_q, response)
    misfit_rhs = assemble_mass(mesh) @ u_q.coefficients - assemble_load(mesh, spec.z_d)
    e2 = float(response.coefficients @ misfit_rhs)
    e3 = -q_inner(f, trace_restrict(p_q))
    scale = max(abs(e1), abs(e2), abs(e3), 1e-30)
    assert abs(e1 - e2) <= 1e-9 * scale
    assert abs(e1 - e3) <= 1e-9 * scale


@pytest.mark.parametrize("alpha", [None, 0.25, 1.0, 50.0])
def test_lipschitz_bounds_with_estimated_constants(alpha):
    mesh = build_structured_mesh(8, ["bottom"])
    spec = base_spec(alpha)
    c = estimate_constants(mesh)
    if alpha is None:
        floor = c.lambda_h
    else:
        floor = c.lambda1_h * min(1.0, alpha)
    slack = 1.0 + 1e-6
    for seed in range(5):
        q1 = random_trace(mesh, 100 + seed)
        q2 = random_trace(mesh, 200 + seed)
        dq = norm(q2 - q1, "Q")
        u1 = pde.solve_state(mesh, spec, q1)
        u2 = pde.solve_state(mesh, spec, q2)
        assert norm(u2 - u1, "V") <= (c.gamma0_norm_h / floor) * dq * slack
        p1 = pde.solve_adjoint(mesh, spec, u1)
        p2 = pde.solve_adjoint(mesh, spec, u2)
        assert norm(p2 - p1, "V") <= (c.gamma0_norm_h / floor**2) * dq * slack


def test_alpha_limit_at_fixed_control():
    mesh = build_structured_mesh(8, ["bottom"])
    spec_d = base_spec()
    q = random_trace(mesh, 77)
    u_d = pde.solve_state(mesh, spec_d, q)
    p_d = pde.solve_adjoint(mesh, spec_d, u_d)
    b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    shift = np.ones(len(mesh.vertices))
    dist_u = []
    dist_p = []
    penalties = []
    for alpha in (1.0, 10.0, 100.0, 1000.0):
        spec_a = spec_d.with_alpha(alpha)
        u_a = pde.solve_state(mesh, spec_a, q)
        p_a = pde.solve_adjoint(mesh, spec_a, u_a)
        dist_u.append(norm(u_a - u_d, "V"))
        dist_p.append(norm(p_a - p_d, "V"))
        mis = u_a.coefficients - spec_d.b * shift
        penalties.append((alpha - 1.0) * float(mis @ (b1 @ mis)))
    assert all(b < a for a, b in zip(dist_u, dist_u[1:]))
    assert all(b < a for a, b in zip(dist_p, dist_p[1:]))
    first = next(v for v in penalties if v > 1e-14)
    assert max(penalties) <= 10.0 * first


def test_spec_validation():
    g = lambda x, y: 0.0
    with pytest.raises(ValueError):
        pde.ProblemSpec(g=g, z_d=g, b=float("nan"), M=1.0)
    with pytest.raises(ValueError):
        pde.ProblemSpec(g=g, z_d=g, b=0.0, M=0.0)
    with pytest.raises(ValueError):
        pde.ProblemSpec(g=g, z_d=g, b=0.0, M=1.0, alpha=-2.0)
    spec = pde.ProblemSpec(g=g, z_d=g, b=0.0, M=1.0)
    assert spec.with_alpha(3.0).alpha == 3.0
    assert spec.alpha is None


def test_cross_mesh_arguments_rejected():
    a = build_structured_mesh(4, ["bottom"])
    b = build_structured_mesh(8, ["bottom"])
    spec = base_spec()
    with pytest.raises(ValueError):
        pde.solve_state(a, spec, zero_trace(b))
    u = pde.solve_state(a, spec, zero_trace(a))
    with pytest.raises(ValueError):
        pde.solve_adjoint(b, spec, u)

