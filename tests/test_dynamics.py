import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import oracles
from goldfish import dynamics, linalg
from goldfish.dynamics import (
    CoefficientState,
    CollisionError,
    MatrixFlowState,
    ModelSpec,
    ParticleState,
    System,
    build_matrix_initial_data,
    detect_period,
    eigenvalue_paths,
    eval_rhs,
    residual_coupling_identity,
    residual_rank_one,
    simulate,
    trick_transform,
    trick_transform_state,
)
from goldfish.linalg import AmbiguousTrackingError, Trajectory, eigenvalues
from goldfish.polynomials import PLAIN, TILDE, MonicPolynomial, coeff_velocities


def multiset_dev(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def trajectory_multiset_dev(r1, r2):
    return max(multiset_dev(a, b) for a, b in zip(r1.values, r2.values))


def same_bits(a, b):
    """Equal shapes and equal bit patterns, element by element."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_state(rng, n, scale=0.4):
    return ParticleState(
        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
    )


# ---------------------------------------------------------------------------
# eval_rhs


def test_rhs_single_body_no_pairs():
    spec = ModelSpec(System.GOLD, 1)
    out = eval_rhs(spec, ParticleState([1.0], [0.0]))
    assert np.allclose(out, [2.0])


def test_rhs_two_body_hand_value():
    spec = ModelSpec(System.GOLD, 2)
    out = eval_rhs(spec, ParticleState([1.0, -1.0], [0.0, 0.0]))
    assert np.allclose(out, [3.0, -3.0])


def test_rhs_coefficient_equilibrium():
    a2 = 0.37 + 0.21j
    spec = ModelSpec(System.ALTGOLD, 2, a2=a2)
    out = eval_rhs(spec, CoefficientState([0.0, -a2], [0.0, 0.0]))
    assert np.max(np.abs(out)) < 1e-14


def test_rhs_collision_detected():
    spec = ModelSpec(System.GOLD, 2)
    message = r"^coordinates closer than 1e-10 \(min gap 1\.000e-12\)$"
    with pytest.raises(CollisionError, match=message):
        eval_rhs(spec, ParticleState([1.0, 1.0 + 1e-12], [0.0, 0.0]))


@pytest.mark.parametrize("n", [3, 4])
def test_collision_message_names_the_smallest_gap(n):
    """Every pair is compared, not only neighbours, and the message carries
    the smallest gap; gaps just above the threshold pass."""
    for i in range(n):
        for j in range(i + 1, n):
            z = np.arange(n) * (1.0 + 0.5j)
            z[j] = z[i] + 3e-11j
            if j + 1 < n:
                z[j + 1] = z[i] - 7e-11
            with pytest.raises(CollisionError, match=r"\(min gap 3\.000e-11\)$"):
                dynamics._distinct_check(n)(z)
            z[j] = z[i] + 1.5 * dynamics.COLLISION_THRESHOLD
            if j + 1 < n:
                z[j + 1] = z[i] - 2 * dynamics.COLLISION_THRESHOLD
            dynamics._distinct_check(n)(z)


def test_simulate_collision_at_accepted_step():
    # free particles (no force, g = 0) meet within the threshold exactly at
    # the final accepted step t = 1
    spec = ModelSpec(System.VESELOV, 2, phi_poly=(0.0,))
    state = ParticleState([0.0, 1.0 + 5e-11], [1.0, 0.0])
    message = r"^coordinates closer than 1e-10 \(min gap 5\.000e-11\)$"
    with pytest.raises(CollisionError, match=message):
        simulate(spec, state, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("time_path", ["Trick", "real", ""])
def test_simulate_refuses_an_unknown_time_path(monkeypatch, time_path):
    """A time path other than ``None`` or ``"trick"`` is a ValueError that
    names it, raised before anything is integrated (in real time)."""

    def never(*args, **kwargs):
        raise AssertionError("integrated along an unknown time path")

    monkeypatch.setattr(dynamics, "integrate_ode", never)
    spec = ModelSpec(System.VESELOV, 2, phi_poly=(0.0,))
    state = ParticleState([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match=f"^unknown time path {time_path!r}$"):
        simulate(spec, state, np.linspace(0.0, 1.0, 5), time_path=time_path)


@pytest.mark.parametrize("c0, cdot0", [((0, 0), (0.1, 0.2)), ((0, 0, 0), (0.1, 0.2, 0.3))])
def test_spectral_refuses_a_repeated_initial_zero(monkeypatch, c0, cdot0):
    """A double or triple zero that find_roots splits into a close cluster is
    a collision, refused before the matrix flow is integrated (the split
    zeros would move at speeds near 3e5)."""

    def never(*args, **kwargs):
        raise AssertionError("integrated a flow from a repeated zero")

    monkeypatch.setattr(dynamics, "integrate_ode", never)
    spec = ModelSpec(System.ALTGOLD, len(c0))
    state = CoefficientState(np.array(c0, dtype=complex), np.array(cdot0, dtype=complex))
    start = time.perf_counter()
    with pytest.raises(CollisionError, match="repeated zero"):
        simulate(spec, state, np.linspace(0.0, 0.5, 3), method="spectral")
    assert time.perf_counter() - start < 1.0


def test_spectral_separated_zeros_reach_the_tracker():
    """Zeros at +-0.05 are told apart: the run gets past the repeated-zero
    check and fails later, in the eigenvalue tracking."""
    spec = ModelSpec(System.ALTGOLD, 2)
    state = CoefficientState(np.array([0, -0.0025], dtype=complex), np.array([0.1, 0.2]))
    with pytest.raises(AmbiguousTrackingError):
        simulate(spec, state, np.linspace(0.0, 0.5, 3), method="spectral")


def test_close_simple_zeros_pass_the_repeated_zero_check():
    """Zeros at +-1e-5 are 2e-5 apart, far more than a residual of about
    1e-12 can blur, so the check returns psi' there instead of raising."""
    psi = MonicPolynomial(np.array([1, 0, -1e-10], dtype=complex))
    z = np.array([1e-5, -1e-5], dtype=complex)
    assert np.allclose(dynamics._simple_zero_slopes(psi, z), [2e-5, -2e-5], rtol=1e-12)


def test_rhs_shape_mismatch():
    spec = ModelSpec(System.GOLD, 3)
    with pytest.raises(ValueError, match="^state has 4 components, gold with N = 3 needs 6$"):
        eval_rhs(spec, ParticleState([1.0, 2.0], [0.0, 0.0]))
    # the compiled field does not check sizes, so simulate must
    with pytest.raises(ValueError):
        simulate(ModelSpec(System.GOLD, 1), ParticleState([1.0, 2.0], [0.0, 0.0]), [0.0, 1.0])
    U = np.eye(2)
    with pytest.raises(ValueError, match="^state has 8 components, matrix_u with N = 3 needs 18$"):
        simulate(ModelSpec(System.MATRIX_U, 3), MatrixFlowState(U, U), [0.0, 0.1])


@pytest.mark.parametrize(
    "spec, state, error, message",
    [
        (
            ModelSpec(System.ALTGOLD, 3, a2=1.0),
            ParticleState([0.3, -0.2, 0.1j], [0.1, 0.0, 0.2]),
            ValueError,
            "altgold does not evolve a particle state",
        ),
        (
            ModelSpec(System.GOLD, 2),
            CoefficientState([0.1, -0.2], [0.0, 0.1]),
            ValueError,
            "gold does not evolve a coefficient state",
        ),
        (
            ModelSpec(System.MATRIX_U, 1, a2=1.0),
            ParticleState([0.4], [0.1]),
            ValueError,
            "matrix_u does not evolve a particle state",
        ),
        (ModelSpec(System.GOLD, 1), ([1.0], [0.0]), TypeError, "unsupported state type tuple"),
    ],
    ids=["altgold-particle", "gold-coefficient", "matrix_u-particle", "gold-tuple"],
)
def test_state_of_another_kind_is_refused_by_name(spec, state, error, message):
    """A state of a kind the system does not evolve, even one of the right
    length, is refused with the system and the kind named, by every entry
    point that reads a state; a state of no known kind is a TypeError."""
    for call in (
        lambda: simulate(spec, state, [0.0, 0.1]),
        lambda: simulate(spec, state, [0.0, 0.1], method="spectral"),
        lambda: eval_rhs(spec, state),
        lambda: build_matrix_initial_data(spec, state),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("system", [System.MATRIX_U, System.MATRIX_UTILDE, System.MATRIX_GENERAL])
def test_matrix_eval_rhs_bit_identical_to_matrix_rhs(system):
    """On a matrix state eval_rhs returns the N x N acceleration of the
    matrix flow, bit for bit."""
    rng = np.random.default_rng(26)
    draw = lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for n in range(1, 6):
        for _ in range(10):
            spec = ModelSpec(
                system,
                n,
                a2=complex(*rng.standard_normal(2)) if system is System.MATRIX_U else 0.0,
                phi_poly=tuple(draw(4)),
            )
            U, V = draw((n, n)), draw((n, n))
            got = eval_rhs(spec, MatrixFlowState(U, V))
            assert same_bits(got, dynamics._matrix_rhs(spec, U, V)), (system, n)


# ---------------------------------------------------------------------------
# matrix initial data


def test_matrix_init_hand_value():
    spec = ModelSpec(System.GOLD, 2)
    init = build_matrix_initial_data(spec, ParticleState([1.0, -1.0], [0.0, 0.0]))
    assert np.allclose(init.U, np.diag([1.0, -1.0]))
    assert np.allclose(init.Udot, [[0.0, 1.0], [1.0, 0.0]])


def test_matrix_init_single_body_collapses():
    spec = ModelSpec(System.GOLD, 1, a2=0.3)
    init = build_matrix_initial_data(spec, ParticleState([0.5 + 0.1j], [0.2 - 0.3j]))
    assert np.allclose(init.Udot, [[0.2 - 0.3j]])


def test_matrix_init_sign_flip_is_similarity():
    rng = np.random.default_rng(9)
    spec = ModelSpec(System.GOLD, 3, a2=-0.5)
    state = random_state(rng, 3, scale=1.0)
    init = build_matrix_initial_data(spec, state)
    flip = np.diag([1.0, -1.0, 1.0])
    t = np.linspace(0, 0.8, 9)
    mspec = ModelSpec(System.MATRIX_U, 3, a2=-0.5)
    r1 = simulate(mspec, init, t, tol=1e-12)
    r2 = simulate(mspec, MatrixFlowState(init.U, flip @ init.Udot @ flip), t, tol=1e-12)
    for row1, row2 in zip(r1.trajectory.states, r2.trajectory.states):
        e1 = eigenvalues(row1[:9].reshape(3, 3))
        e2 = eigenvalues(row2[:9].reshape(3, 3))
        assert multiset_dev(e1, e2) < 1e-9


def test_matrix_init_velocity_diagonal():
    rng = np.random.default_rng(21)
    spec = ModelSpec(System.GOLD, 3, a2=0.2 + 0.1j)
    state = random_state(rng, 3, scale=1.0)
    init = build_matrix_initial_data(spec, state)
    vals, vecs = np.linalg.eig(init.U)
    w = dynamics._eigen_velocities(vecs[:, linalg._match_step(state.z, vals, 0)], init.Udot)
    assert float(np.max(np.abs(w - state.zdot))) < 1e-12


# ---------------------------------------------------------------------------
# simulate: direct vs spectral oracles


def test_pole_closed_form():
    spec = ModelSpec(System.GOLD, 1)
    res = simulate(spec, ParticleState([1.0], [1.0]), [0.0, 0.5], tol=1e-12)
    assert abs(res.values[-1, 0] - 2.0) < 1e-8


def test_rcm_single_body_quarter_period():
    spec = ModelSpec(System.RCM, 1)
    z0, v0 = 0.3 + 0.2j, 0.7 - 0.1j
    res = simulate(spec, ParticleState([z0], [v0]), [0.0, np.pi / 2], "spectral")
    assert abs(res.values[-1, 0] - v0) < 1e-14


def test_gold_direct_vs_spectral():
    rng = np.random.default_rng(2)
    spec = ModelSpec(System.GOLD, 2, a2=-1.0)
    state = random_state(rng, 2)
    t = np.linspace(0, 1, 11)
    d = simulate(spec, state, t, "direct", tol=1e-12)
    s = simulate(spec, state, t, "spectral", tol=1e-12)
    assert trajectory_multiset_dev(d, s) < 1e-8


def test_coefficient_spectral_matches_direct():
    rng = np.random.default_rng(4)
    for system, a2 in ((System.ALTGOLD, 0.3 - 0.2j), (System.ALTISOGOLD, 0.0)):
        spec = ModelSpec(system, 3, a2=a2)
        c0 = 0.25 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        cd0 = 0.25 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        t = np.linspace(0, 1, 9)
        d = simulate(spec, CoefficientState(c0, cd0), t, "direct", tol=1e-12)
        s = simulate(spec, CoefficientState(c0, cd0), t, "spectral", tol=1e-12)
        assert np.max(np.abs(d.trajectory.states - s.trajectory.states)) < 1e-7


def test_veselov_direct_vs_spectral():
    spec = ModelSpec(System.VESELOV, 2, g=0.4, phi_poly=(0.0, 0.0, 1.0))
    state = ParticleState([0.8 + 0.2j, -0.6 - 0.4j], [0.1 - 0.1j, 0.2 + 0.3j])
    t = np.linspace(0, 0.7, 8)
    d = simulate(spec, state, t, "direct", tol=1e-12)
    s = simulate(spec, state, t, "spectral", tol=1e-12)
    assert trajectory_multiset_dev(d, s) < 1e-9


def test_rcm_direct_vs_closed_form():
    spec = ModelSpec(System.RCM, 2, g=0.3)
    state = ParticleState([0.8 + 0.2j, -0.6 - 0.4j], [0.1 - 0.1j, 0.2 + 0.3j])
    t = np.linspace(0, 0.7, 8)
    d = simulate(spec, state, t, "direct", tol=1e-12)
    s = simulate(spec, state, t, "spectral")
    assert trajectory_multiset_dev(d, s) < 1e-9


def test_general_gold_reduction_invariance():
    # the shifted and time-rescaled general model reproduces the reduced one
    rng = np.random.default_rng(8)
    alpha, beta, gamma = 0.3 - 0.2j, 0.4 + 0.1j, 2.0
    spec_g = ModelSpec(System.GENERAL_GOLD, 2, alpha=alpha, beta=beta, gamma=gamma)
    state = random_state(rng, 2)
    t = np.linspace(0, 0.7, 8)
    rg = simulate(spec_g, state, t, tol=1e-12)
    alpha_red = (alpha - beta ** 2 / (4 * gamma)) / gamma
    spec_r = ModelSpec(System.GENERAL_GOLD, 2, alpha=alpha_red, beta=0.0, gamma=1.0)
    shifted = ParticleState(state.z + beta / (2 * gamma), state.zdot / gamma)
    rr = simulate(spec_r, shifted, t * gamma, tol=1e-12)
    assert np.max(np.abs(rg.values + beta / (2 * gamma) - rr.values)) < 1e-7


def test_spectral_velocities_match_direct():
    rng = np.random.default_rng(5)
    spec = ModelSpec(System.GOLD, 3, a2=0.2 + 0.1j)
    state = random_state(rng, 3, scale=1.0)
    t = np.linspace(0, 0.4, 5)
    d = simulate(spec, state, t, "direct", tol=1e-12)
    s = simulate(spec, state, t, "spectral", tol=1e-12)
    for j in range(len(t)):
        cost = np.abs(d.values[j][:, None] - s.values[j][None, :])
        rows, cols = linear_sum_assignment(cost)
        assert float(np.max(cost[rows, cols])) < 1e-9
        assert np.max(np.abs(d.velocities[j][rows] - s.velocities[j][cols])) < 1e-8


# ---------------------------------------------------------------------------
# the exponential time substitution


def test_trick_zero_maps_to_zero():
    t = np.linspace(0, 3, 7)
    zero = Trajectory(t, np.zeros((7, 4), dtype=complex))
    out = trick_transform("forward", zero, "particle")
    assert np.all(out.states == 0)
    # a single state goes through trick_transform_state
    with pytest.raises(TypeError):
        trick_transform("forward", (zero.states[0, :2], zero.states[0, 2:]), "particle")


def test_trick_forward_backward_inverse():
    rng = np.random.default_rng(6)
    q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    qd = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for kind in ("particle", "coefficient"):
        val, vel = trick_transform_state("forward", q, qd, kind, 0.7)
        back_q, back_qd = trick_transform_state("backward", val, vel, kind, 0.7)
        assert np.max(np.abs(back_q - q)) < 1e-13
        assert np.max(np.abs(back_qd - qd)) < 1e-13


def test_trick_matrix_flow_consistency():
    # the isochronous matrix flow equals the transported rational-time flow
    rng = np.random.default_rng(10)
    z0 = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    v0 = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    init_iso = build_matrix_initial_data(ModelSpec(System.ISOGOLD, 2), ParticleState(z0, v0))
    q0, qd0 = trick_transform_state("backward", z0, v0, "particle", 0.0)
    init_tau = build_matrix_initial_data(
        ModelSpec(System.GOLD, 2, a2=0.0), ParticleState(q0, qd0)
    )
    t = np.linspace(0, 2, 9)
    tau_run = simulate(
        ModelSpec(System.MATRIX_U, 2, a2=0.0), init_tau, t, tol=1e-12, time_path="trick"
    )
    iso_run = simulate(ModelSpec(System.MATRIX_UTILDE, 2), init_iso, t, tol=1e-12)
    forwarded = trick_transform("forward", tau_run.trajectory, "matrix")
    assert np.max(np.abs(forwarded.states - iso_run.trajectory.states)) < 1e-7


def test_trick_coefficient_transport_satisfies_dynamics():
    rng = np.random.default_rng(12)
    n = 3
    ct0 = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ctd0 = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    g0, gd0 = trick_transform_state("backward", ct0, ctd0, "coefficient", 0.0)
    t = np.linspace(0, 1.0, 201)
    tau_run = simulate(
        ModelSpec(System.GAMMATAU, n),
        CoefficientState(g0, gd0),
        t,
        tol=1e-13,
        time_path="trick",
    )
    forwarded = trick_transform("forward", tau_run.trajectory, "coefficient")
    spec_iso = ModelSpec(System.ALTISOGOLD, n)
    # residual oracle: five-point second difference against the stated dynamics
    h = t[1] - t[0]
    cs, cds = forwarded.states[:, :n], forwarded.states[:, n:]
    worst = 0.0
    for j in range(2, len(t) - 2):
        fd = (-cs[j - 2] + 16 * cs[j - 1] - 30 * cs[j] + 16 * cs[j + 1] - cs[j + 2]) / (
            12 * h * h
        )
        rhs = eval_rhs(spec_iso, CoefficientState(cs[j], cds[j]))
        worst = max(worst, float(np.max(np.abs(fd - rhs))))
    assert worst < 1e-7


# ---------------------------------------------------------------------------
# periodicity


def test_detect_period_constant():
    k = 8
    t = np.arange(2 * k + 1) * (2 * np.pi / k)
    traj = Trajectory(t, np.ones((t.size, 4), dtype=complex))
    rep = detect_period(traj, "particle", p_max=1, tol=1e-12)
    assert rep.p == 1 and rep.deviation == 0.0


def test_detect_period_synthetic_swap():
    k = 16
    t = np.arange(3 * k + 1) * (2 * np.pi / k)
    zs = np.array([[np.exp(0.5j * tt), -np.exp(0.5j * tt)] for tt in t])
    vs = 0.5j * zs * np.array([1, -1])[None, :] ** 0  # d/dt of each column
    vs = np.array([[0.5j * np.exp(0.5j * tt), -0.5j * np.exp(0.5j * tt)] for tt in t])
    traj = Trajectory(t, np.hstack([zs, vs]))
    rep = detect_period(traj, "particle", p_max=3, tol=1e-9)
    assert rep.p == 2


def test_detect_period_too_short():
    k = 8
    t = np.arange(k + 1) * (2 * np.pi / k)
    traj = Trajectory(t, np.ones((t.size, 2), dtype=complex))
    with pytest.raises(ValueError):
        detect_period(traj, "particle", p_max=2, tol=1e-9)


def test_detect_period_needs_a_candidate_period():
    k = 8
    t = np.arange(2 * k + 1) * (2 * np.pi / k)
    traj = Trajectory(t, np.ones((t.size, 2), dtype=complex))
    for p_max in (0, -1):
        with pytest.raises(ValueError, match="p_max"):
            detect_period(traj, "particle", p_max=p_max)


@pytest.mark.parametrize("kind", ["particles", "Particle", "matrix"])
def test_detect_period_refuses_an_unknown_kind(kind):
    """A kind other than "particle" or "coefficient" is a ValueError that
    names it, not a silent coefficient comparison."""
    k = 8
    t = np.arange(2 * k + 1) * (2 * np.pi / k)
    traj = Trajectory(t, np.ones((t.size, 2), dtype=complex))
    with pytest.raises(ValueError, match=f"^unknown trajectory kind {kind!r}$"):
        detect_period(traj, kind)


def test_isochronous_small_system_period():
    rng = np.random.default_rng(14)
    spec = ModelSpec(System.ISOGOLD, 2)
    state = random_state(rng, 2, scale=0.15)
    k = 32
    t = np.arange(3 * k + 1) * (2 * np.pi / k)
    res = simulate(spec, state, t, tol=1e-11)
    rep = detect_period(res.trajectory, "particle", p_max=2, tol=1e-6)
    assert rep.p is not None and rep.p <= 2


def test_matrix_flow_monodromy_order():
    """The loop permutation of the matrix flow's eigenvalues over one period
    (start values matched to end values) has the order of the period that
    a direct isogold run of the same draw shows: seed 15 exchanges the two
    particles, seed 2 returns each to its start."""
    k = 32
    for seed, period in ((15, 2), (2, 1)):
        rng = np.random.default_rng(seed)
        z0 = 0.25 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v0 = 0.25 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        state = ParticleState(z0, v0)
        init = build_matrix_initial_data(ModelSpec(System.ISOGOLD, 2), state)
        t = np.linspace(0, 2 * np.pi, 257)
        run = simulate(ModelSpec(System.MATRIX_UTILDE, 2), init, t, tol=1e-11)
        paths = eigenvalue_paths(run).paths
        loop = linalg._match_step(paths[:, 0], paths[:, -1], 0)
        t_direct = np.arange(3 * k + 1) * (2 * np.pi / k)
        direct = simulate(ModelSpec(System.ISOGOLD, 2), state, t_direct, tol=1e-11)
        rep = detect_period(direct.trajectory, "particle", p_max=2, tol=1e-6)
        assert rep.p == period, seed
        assert oracles.permutation_order(loop) == period, seed


# ---------------------------------------------------------------------------
# generating-polynomial residuals


def test_pde_residual_static_equilibrium():
    from goldfish.equilibria import enumerate_iso_equilibria

    rng = np.random.default_rng(16)
    cfg = [c for c in enumerate_iso_equilibria(3) if (c.nu, c.mu) == (1, 2)][0]
    c = np.array([complex(x) for x in cfg.cbar])
    t = np.linspace(0, 1, 7)
    states = np.tile(np.concatenate([c, np.zeros(3)]), (7, 1))
    traj = Trajectory(t, states)
    zs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    assert oracles.pde_residual(traj, ModelSpec(System.ALTISOGOLD, 3), zs) < 1e-10


def test_pde_residual_along_trajectories():
    rng = np.random.default_rng(12)
    zs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    for system, a2 in ((System.ALTGOLD, 0.4 + 0.3j), (System.ALTISOGOLD, 0.0)):
        spec = ModelSpec(system, 3, a2=a2)
        c0 = 0.15 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        cd0 = 0.15 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        t = np.linspace(0, 1, 251)
        res = simulate(spec, CoefficientState(c0, cd0), t, tol=1e-12)
        assert oracles.pde_residual(res.trajectory, spec, zs) < 1e-6


def test_pde_residual_single_body_reduction():
    # for one body the polynomial-form residual equals the equation-of-motion
    # residual, independently of the probe point
    z1, v1 = 0.4 + 0.2j, -0.3 + 0.5j
    acc = 0.9 - 0.4j  # deliberately NOT the dynamics' acceleration
    a2 = 0.2 + 0.1j
    spec = ModelSpec(System.ALTGOLD, 1, a2=a2)
    h = 1e-2
    t = np.arange(5) * h - 2 * h
    t = t - t[0]
    rows = []
    for tt in np.arange(5) * h - 2 * h:
        z = z1 + v1 * tt + 0.5 * acc * tt * tt
        v = v1 + acc * tt
        rows.append([-z, -v])
    traj = Trajectory(np.arange(5) * h, np.array(rows))
    gold_residual = abs(acc - (2 * z1 * (z1 ** 2 - a2)))
    got = oracles.pde_residual(traj, spec, [0.7 - 0.3j, 1.1 + 0.9j])
    assert abs(got - gold_residual) < 1e-6


# ---------------------------------------------------------------------------
# structural identities


def test_quartic_constant_equilibrium_state():
    a2 = 0.6 - 0.1j
    c = np.array([0.0, -a2, 0.0, 0.0])  # equilibrium: all chained derivatives vanish
    traj = Trajectory(np.arange(3.0), np.tile(c, (3, 1)))
    assert oracles.residual_quartic_n2(traj, a2) < 1e-14


def test_quartic_along_trajectory():
    spec = ModelSpec(System.ALTGOLD, 2, a2=0.7 - 0.2j)
    state = CoefficientState([0.4 + 0.1j, -0.3 + 0.2j], [0.1 - 0.2j, 0.2 + 0.1j])
    res = simulate(spec, state, np.linspace(0, 1, 41), tol=1e-12)
    assert oracles.residual_quartic_n2(res.trajectory, spec.a2) < 1e-10


def test_coupling_identity_exact_pair():
    a2 = 0.8 + 0.3j
    r = residual_coupling_identity(-a2, 0.0, 1.0, [(1.0, 1j)])
    assert r < 1e-15


def test_rank_one_minors_vanish():
    rng = np.random.default_rng(18)
    spec = ModelSpec(System.GOLD, 4, a2=1 + 1j)
    state = random_state(rng, 4, scale=1.0)
    assert residual_rank_one(spec, state) < 1e-10


def test_ansatz_offdiag_identity():
    rng = np.random.default_rng(19)
    spec = ModelSpec(System.GOLD, 3, a2=1 + 1j)
    state = random_state(rng, 3, scale=1.0)
    res = simulate(spec, state, np.linspace(0, 0.4, 21), tol=1e-12)
    assert oracles.residual_ansatz_offdiag(spec, res.trajectory) < 1e-6


def test_boundary_row_vanishes():
    rng = np.random.default_rng(20)
    spec = ModelSpec(System.ALTGOLD, 4, a2=0.3 - 0.8j)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cd = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    (row,) = dynamics._coefficient_bracket(spec, c, cd, [0])
    assert abs(row) < 1e-13
    iso = ModelSpec(System.ALTISOGOLD, 4)
    (row,) = dynamics._coefficient_bracket(iso, c, cd, [0])
    assert abs(row) < 1e-13


def test_coefficient_rhs_bit_identical_to_oracle():
    rng = np.random.default_rng(26)
    for _ in range(100):
        for n in range(1, 9):
            for system, a2 in (
                (System.ALTISOGOLD, 0.0),
                (System.ALTGOLD, complex(*rng.standard_normal(2))),
                (System.GAMMATAU, 0.0),
            ):
                spec = ModelSpec(system, n, a2=a2)
                c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                cd = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                got = eval_rhs(spec, CoefficientState(c, cd))
                want = oracles.coefficient_rhs(spec, c, cd)
                assert np.array_equal(got.view(float), want.view(float)), (system, n)


def _random_particle_spec(rng, system, n):
    def draw():
        return complex(*rng.standard_normal(2))

    if system is System.GOLD:
        return ModelSpec(system, n, a2=draw() if rng.random() < 0.5 else 0.0)
    if system is System.GENERAL_GOLD:
        return ModelSpec(system, n, alpha=draw(), beta=draw(), gamma=draw())
    if system is System.RCM:
        return ModelSpec(system, n, g=draw())
    if system is System.VESELOV:
        return ModelSpec(system, n, g=draw(), phi_poly=tuple(draw() for _ in range(4)))
    return ModelSpec(system, n)


@pytest.mark.parametrize("time_path", [None, "trick"])
def test_compiled_rhs_bit_identical_to_oracle(time_path):
    """The first-order field the integrator runs, and the checked eval_rhs,
    equal the per-state particle path bit for bit."""
    rng = np.random.default_rng(27)
    systems = (System.GOLD, System.GENERAL_GOLD, System.ISOGOLD, System.RCM, System.VESELOV)
    for _ in range(40):
        for n in range(1, 7):
            for system in systems:
                spec = _random_particle_spec(rng, system, n)
                state = random_state(rng, n, scale=1.0)
                z, v = state.z, state.zdot
                t = float(rng.uniform(0.0, 7.0))
                want = oracles.particle_rhs(spec, z, v)
                assert same_bits(eval_rhs(spec, state), want), (system, n)
                got = dynamics._first_order_rhs(spec, time_path)(t, np.concatenate([z, v]))
                field = np.concatenate([v, want])
                if time_path == "trick":
                    field = field * np.exp(1j * t)
                assert same_bits(got, field), (system, n)


def _walk_sampler(sampler, t_samples):
    """The spectral route's walk: the frames of the requested times, and a
    refinement built from the same sampler."""
    frame = lambda t: eigenvalues(sampler(t)[0])
    return linalg._walk(t_samples, [frame(float(t)) for t in t_samples], frame)


def _gold_samplers(t):
    """Matrix-flow samplers of twelve goldfish runs over ``t`` whose
    spectral walks need refinement."""
    rng = np.random.default_rng(28)
    for k in range(12):
        n = (2, 3, 4)[k % 3]
        spec = ModelSpec(System.GOLD, n, a2=(0.0, -1.0, 1 + 1j)[k % 3])
        init = build_matrix_initial_data(spec, random_state(rng, n, scale=1.0))
        yield dynamics._matrix_flow_sampler(spec, init, t, 1e-11)


def test_walk_slots_index_the_requested_frames():
    """On refined walks, every branch value is the entry of its slot in
    the requested frame, bit for bit, and each slot column is a
    permutation."""
    t = np.linspace(0.0, 1.0, 21)
    inserted = 0
    for sampler in _gold_samplers(t):
        frames = [eigenvalues(sampler(float(s))[0]) for s in t]
        refined = []

        def frame(s):
            refined.append(s)
            return eigenvalues(sampler(s)[0])

        tracked = linalg._walk(t, frames, frame)
        inserted += len(refined)
        assert tracked.slots.shape == tracked.paths.shape
        for j, fr in enumerate(frames):
            assert sorted(tracked.slots[:, j]) == list(range(fr.size))
            assert same_bits(tracked.paths[:, j], fr[tracked.slots[:, j]])
        assert tracked.monodromy == tuple(int(p) for p in tracked.slots[:, -1])
    assert inserted > 0


def test_spectral_frames_equal_oracle(monkeypatch):
    """Local refinement makes the same matches, inserts the same frames
    and gives up on the same interval as tracking the whole frame list
    again after every inserted midpoint."""
    t = np.linspace(0.0, 1.0, 21)
    inserted = refused = 0
    for sampler in _gold_samplers(t):
        runs = []
        for frames in (_walk_sampler, oracles.spectral_frames):
            calls = []

            def counted(s):
                calls.append(s)
                return sampler(s)

            runs.append((frames(counted, t), calls))
        (got, got_calls), (want, want_calls) = runs
        assert same_bits(got.times, want.times)
        assert same_bits(got.paths, want.paths)
        assert np.array_equal(got.slots, want.slots)
        assert got.monodromy == want.monodromy
        assert sorted(got_calls) == sorted(want_calls)
        inserted += len(got_calls) - t.size
        for max_refine in (1, 3):
            errors = []
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_MAX_REFINE", max_refine)
                for run in (
                    lambda: _walk_sampler(sampler, t),
                    lambda: oracles.spectral_frames(sampler, t, max_refine=max_refine),
                ):
                    try:
                        run()
                        errors.append(None)
                    except AmbiguousTrackingError as exc:
                        errors.append((exc.index, exc.displacement, exc.gap))
            assert errors[0] == errors[1]
            refused += errors[0] is not None
    assert inserted > 0 and refused > 0


@pytest.mark.parametrize("system", sorted(dynamics._SPECTRAL_OK, key=lambda s: s.value))
def test_spectral_velocities_equal_oracle(monkeypatch, system):
    """The spectral route decomposes each requested sample once, and the
    walk's slots label both its eigenvalues and its eigenvectors: the
    branch velocities equal, bit for bit, those of a second decomposition
    matched to the branches by an assignment of its own."""
    rng = np.random.default_rng(list(System).index(system))
    calls = {"eig": 0, "eigvals": 0, "sampler": 0}
    for name in ("eig", "eigvals"):

        def counted(a, name=name, routine=getattr(np.linalg, name)):
            calls[name] += 1
            return routine(a)

        monkeypatch.setattr(np.linalg, name, counted)
    real_sampler = dynamics._matrix_flow_sampler
    samplers = []

    def spy(*args):
        sampler = real_sampler(*args)
        samplers.append(sampler)

        def at(s):
            calls["sampler"] += 1
            return sampler(s)

        return at

    monkeypatch.setattr(dynamics, "_matrix_flow_sampler", spy)
    t = np.linspace(0.0, 2.0, 6)
    inserted = 0
    for n in range(2, 6):
        if system in (System.ALTGOLD, System.ALTISOGOLD):
            a2 = complex(*rng.standard_normal(2)) if system is System.ALTGOLD else 0.0
            spec = ModelSpec(system, n, a2=a2)
            c, cdot = 0.3 * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
            state = CoefficientState(c, cdot)
        else:
            spec = _random_particle_spec(rng, system, n)
            state = random_state(rng, n)
        for key in calls:
            calls[key] = 0
        res = simulate(spec, state, t, "spectral", tol=1e-11)
        assert calls["eig"] == t.size
        assert calls["eig"] + calls["eigvals"] == calls["sampler"]
        inserted += calls["eigvals"]
        for j, s in enumerate(t):
            U, Udot = samplers[-1](float(s))
            order = res.tracked.paths[:, j]
            vals, _ = np.linalg.eig(U)
            assert same_bits(order, vals[res.tracked.slots[:, j]]), (system, n, j)
            want = oracles.eigen_velocities(U, Udot, order)
            if system in (System.ALTGOLD, System.ALTISOGOLD):
                conv = TILDE if system is System.ALTISOGOLD else PLAIN
                want = coeff_velocities(order, want, conv)
            assert same_bits(res.velocities[j], want), (system, n, j)
    assert inserted > 0


# ---------------------------------------------------------------------------
# coefficients of the spectral determinant obey the coefficient dynamics


def test_spectral_coefficients_satisfy_dynamics():
    rng = np.random.default_rng(22)
    spec = ModelSpec(System.ALTGOLD, 3, a2=-0.4 + 0.2j)
    c0 = 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    cd0 = 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    t = np.linspace(0, 1, 201)
    res = simulate(spec, CoefficientState(c0, cd0), t, "spectral", tol=1e-12)
    h = t[1] - t[0]
    cs, cds = res.values, res.velocities
    worst = 0.0
    for j in range(2, len(t) - 2, 10):
        fd = (-cs[j - 2] + 16 * cs[j - 1] - 30 * cs[j] + 16 * cs[j + 1] - cs[j + 2]) / (
            12 * h * h
        )
        rhs = eval_rhs(spec, CoefficientState(cs[j], cds[j]))
        worst = max(worst, float(np.max(np.abs(fd - rhs))))
    assert worst < 1e-6
