import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from goldfish.dynamics import ParticleState
from goldfish.linalg import (
    AmbiguousTrackingError,
    MovableSingularityError,
    Trajectory,
    eigenvalues,
    integrate_ode,
    track_trajectories,
)
import oracles
from oracles import permutation_order


def multiset_dev(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def test_eigenvalues_identity():
    vals = eigenvalues(np.eye(3))
    assert multiset_dev(vals, [1, 1, 1]) < 1e-14


def test_eigenvalues_diagonal():
    vals = eigenvalues(np.diag([2 + 1j, -1.0]))
    assert multiset_dev(vals, [2 + 1j, -1.0]) < 1e-14


def test_eigenvalues_companion():
    # companion matrix of z^2 - 3z + 2, roots 1 and 2
    m = np.array([[0.0, -2.0], [1.0, 3.0]])
    assert multiset_dev(eigenvalues(m), [1.0, 2.0]) < 1e-12


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.nan, 0], [0, 1]]))


def test_finiteness_checks_accept_strided_input():
    a = np.arange(6).reshape(3, 2) * (1 + 0.5j)
    m = np.array([[1.0, 2j], [0.5, -1.0]]) * (1 + 1j)
    assert multiset_dev(eigenvalues(m.T), eigenvalues(m)) < 1e-14
    traj = integrate_ode(lambda t, y: 1j * y, a[:, 0], (0.0, 1.0))
    assert np.max(np.abs(traj.states[-1] - a[:, 0] * np.exp(1j))) < 1e-8
    state = ParticleState(a[:, 0], a[:, 1])
    assert np.array_equal(state.z, a[:, 0]) and np.array_equal(state.zdot, a[:, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf), complex(np.nan, 1)])
def test_finiteness_checks_reject_non_finite_input(bad):
    y = np.array([1.0, bad], dtype=complex)
    with pytest.raises(ValueError):
        eigenvalues(np.diag(y))
    with pytest.raises(ValueError):
        integrate_ode(lambda t, v: v, y, (0.0, 1.0))
    with pytest.raises(ValueError):
        integrate_ode(lambda t, v: y, np.ones(2, dtype=complex), (0.0, 1.0))
    with pytest.raises(ValueError):
        ParticleState(y, np.zeros(2))
    with pytest.raises(ValueError):
        ParticleState(np.zeros(2), y)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_similarity_invariance(n):
    rng = np.random.default_rng(100 + n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s += n * np.eye(n)  # keep it comfortably invertible
    sim = s @ m @ np.linalg.inv(s)
    assert multiset_dev(eigenvalues(m), eigenvalues(sim)) < 1e-8


def test_integrator_unit_circle():
    traj = integrate_ode(
        lambda t, y: 1j * y,
        np.array([1.0 + 0j]),
        (0.0, 2 * np.pi),
        tol=1e-11,
        t_eval=np.linspace(0, 2 * np.pi, 64),
    )
    assert abs(traj.states[-1, 0] - 1.0) <= 1e-9
    assert np.max(np.abs(np.abs(traj.states[:, 0]) - 1.0)) <= 1e-8


def test_integrator_harmonic():
    traj = integrate_ode(
        lambda t, y: np.array([y[1], -y[0]]),
        np.array([1.0 + 0j, 0.0 + 0j]),
        (0.0, 3.0),
        tol=1e-11,
        t_eval=np.linspace(0, 3, 31),
    )
    assert np.max(np.abs(traj.states[:, 0] - np.cos(traj.times))) < 1e-9


def test_integrator_pole_closed_form():
    # zddot = 2 z^3 with z(0) = zdot(0) = 1 follows z(t) = 1/(1 - t)
    traj = integrate_ode(
        lambda t, y: np.array([y[1], 2 * y[0] ** 3]),
        np.array([1.0 + 0j, 1.0 + 0j]),
        (0.0, 0.5),
        tol=1e-12,
    )
    assert abs(traj.states[-1, 0] - 2.0) < 1e-9


def test_integrator_tolerance_scaling():
    def run(tol):
        traj = integrate_ode(
            lambda t, y: 1j * y, np.array([1.0 + 0j]), (0.0, 2 * np.pi), tol=tol
        )
        return abs(traj.states[-1, 0] - 1.0)

    errs = [run(tol) for tol in (1e-6, 1e-8, 1e-10, 1e-12)]
    assert errs[2] < errs[0]
    assert errs[3] < errs[1]
    for tol, err in zip((1e-6, 1e-8, 1e-10, 1e-12), errs):
        assert err <= 10 * tol ** 0.8

    # the bound is componentwise: a longer state must not let any single
    # component drift further than a scalar one would
    omega = np.linspace(0.5, 3.0, 16)
    amp = np.linspace(0.2, 5.0, 16) * np.exp(1j * np.linspace(0.0, 3.0, 16))
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        traj = integrate_ode(lambda t, y: 1j * omega * y, amp, (0.0, 2 * np.pi), tol=tol)
        exact = amp * np.exp(1j * omega * 2 * np.pi)
        assert np.all(np.abs(traj.states[-1] - exact) <= 10 * tol ** 0.8)


def test_integrator_dense_output():
    ts = np.linspace(0.0, 2.0, 9)
    traj, dense = integrate_ode(
        lambda t, y: 1j * y,
        np.array([1.0 + 0j]),
        (0.0, 2.0),
        tol=1e-11,
        t_eval=ts,
        return_dense=True,
    )
    for t, row in zip(ts, traj.states):
        assert np.max(np.abs(dense(t) - row)) < 1e-14
    assert abs(dense(1.3)[0] - np.exp(1.3j)) < 1e-9
    for t in (-1e-9, 2.0 + 1e-9):
        with pytest.raises(ValueError):
            dense(t)


def test_integrator_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        integrate_ode(lambda t, y: y, np.array([1.0 + 0j]), (0.0, 1.0), tol=1e-3)


def test_integrator_tightest_tolerance_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_ode(lambda t, y: 1j * y, np.ones(4, dtype=complex), (0.0, 1.0), tol=1e-14)
    assert np.max(np.abs(traj.states[-1] - np.exp(1j))) < 1e-12


def test_integrator_detects_movable_pole():
    # ydot = y^2 from y(0) = 1 blows up at t = 1; with a sample grid the
    # last sample before the pole (t = 6/7) is not the last step time
    for t_eval in (None, np.linspace(0.0, 2.0, 8)):
        with pytest.raises(MovableSingularityError) as info:
            integrate_ode(
                lambda t, y: y * y, np.array([1.0 + 0j]), (0.0, 2.0), tol=1e-10, t_eval=t_eval
            )
        assert abs(info.value.last_time - 1.0) < 1e-3


def test_integrator_on_step_sees_accepted_steps_only():
    rhs_times, seen = [], []

    def rhs(t, y):
        rhs_times.append(t)
        return 1j * y

    def on_step(t, y):
        seen.append((t, y.copy()))

    traj = integrate_ode(rhs, np.array([1.0 + 0j]), (0.0, 2 * np.pi), tol=1e-10, on_step=on_step)
    # without t_eval the trajectory holds t0 and every accepted step point
    assert [t for t, _ in seen] == list(traj.times)
    assert np.array_equal(np.array([y for _, y in seen]), traj.states)
    assert set(rhs_times) - set(traj.times)  # stage points were never shown

    class Refused(Exception):
        pass

    refusal = Refused()

    def refuse(t, y):
        if t > 1.0:
            raise refusal

    with pytest.raises(Refused) as info:
        integrate_ode(rhs, np.array([1.0 + 0j]), (0.0, 2 * np.pi), tol=1e-10, on_step=refuse)
    assert info.value is refusal


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1), dtype=complex))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1), dtype=complex))


def test_tracking_constant_frames():
    frames = [np.array([1.0, 2.0, 3.0])] * 5
    tracked = track_trajectories(frames, np.arange(5.0))
    assert tracked.monodromy == (0, 1, 2)
    assert permutation_order(tracked.monodromy) == 1


def test_tracking_two_swapped_frames():
    # same values, swapped listing: zero-displacement transposition
    frames = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    tracked = track_trajectories(frames, np.array([0.0, 1.0]))
    assert tracked.monodromy == (1, 0)


def test_tracking_swap_is_transposition():
    # two values exchanging along well-sampled arcs, frames listed in a
    # fixed canonical order so the monodromy reads off the exchange
    ts = np.linspace(0, 1, 41)
    frames = []
    for t in ts:
        a = np.exp(1j * np.pi * t)
        frames.append(np.sort_complex(np.array([a, -a])))
    tracked = track_trajectories(frames, ts)
    assert tracked.monodromy == (1, 0)
    assert permutation_order(tracked.monodromy) == 2


def test_tracking_reconstructs_frames_exactly():
    rng = np.random.default_rng(7)
    base = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    ts = np.linspace(0, 1, 40)
    frames = [base * np.exp((0.3 + 0.9j) * t) for t in ts]
    shuffled = [fr[rng.permutation(4)] for fr in frames]
    tracked = track_trajectories(shuffled, ts)
    for j, fr in enumerate(shuffled):
        assert sorted(map(complex, tracked.paths[:, j]), key=lambda z: (z.real, z.imag)) == sorted(
            map(complex, fr), key=lambda z: (z.real, z.imag)
        )


def test_tracking_ambiguity_raises():
    # both assignments cost the same order of displacement: refuse to guess
    frames = [np.array([0.0, 1.0]), np.array([0.45, 0.55])]
    with pytest.raises(AmbiguousTrackingError):
        track_trajectories(frames, np.array([0.0, 1.0]))


def test_tracking_equals_oracle():
    """The walker behind track_trajectories matches the frame-by-frame loop
    bit for bit, and refuses the same frame pair with the same numbers."""
    rng = np.random.default_rng(29)
    refused = 0
    for k in range(150):
        n, count = 1 + k % 5, 2 + k % 7
        step = (0.02, 0.2, 1.0)[k % 3]
        current = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        frames = []
        for _ in range(count):
            current = current + step * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            frames.append(rng.permutation(current))
        ts = np.sort(rng.uniform(0.0, 1.0, count))
        runs = []
        for track in (track_trajectories, oracles.track):
            try:
                runs.append(track(frames, ts))
            except AmbiguousTrackingError as exc:
                runs.append((exc.index, exc.displacement, exc.gap))
        got, want = runs
        if isinstance(want, tuple):
            assert got == want
            refused += 1
            continue
        assert np.array_equal(got.paths.view(np.uint64), want.paths.view(np.uint64))
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.slots, want.slots)
        assert got.monodromy == want.monodromy
    assert 0 < refused < 150
