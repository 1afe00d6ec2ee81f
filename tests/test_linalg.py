import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from goldfish import dynamics
from goldfish.dynamics import ModelSpec, ParticleState, System
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


def _integrate_recorded(integrate, rhs, y0, t_span, **kwargs):
    """Run ``integrate`` with a counted ``rhs`` and a recording ``on_step``;
    returns the result (or the :class:`MovableSingularityError` raised),
    the ``on_step`` sequence and the number of ``rhs`` calls."""
    calls, steps = [0], []

    def counted(t, y):
        calls[0] += 1
        return rhs(t, y)

    def on_step(t, y):
        steps.append((t, y.copy()))

    try:
        out = integrate(counted, y0, t_span, on_step=on_step, **kwargs)
    except MovableSingularityError as exc:
        out = exc
    return out, steps, calls[0]


def _reference_cases():
    """``(name, rhs, y0, t1, kwargs)`` of the runs the stepper loop must
    repeat bit for bit; every run starts at ``t = 0``."""
    rng = np.random.default_rng(31)

    def draw(n, scale=0.4):
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def field(system, n, time_path=None, **constants):
        return dynamics._first_order_rhs(ModelSpec(system, n, **constants), time_path)

    def samples(t1, count):
        return dict(t_eval=np.linspace(0.0, t1, count))

    period = 2 * np.pi
    yield "isogold N = 3, 4 periods", field(System.ISOGOLD, 3), draw(6), 4 * period, samples(
        4 * period, 4 * 32 + 1
    )
    for a2 in (0.0, -1.0, 1 + 1j):
        yield f"gold N = 4, a2 = {a2}", field(System.GOLD, 4, a2=a2), draw(8), 1.0, samples(1.0, 21)
    c0 = np.concatenate([draw(3, 0.1), draw(3, 0.05)])
    yield "altisogold N = 3", field(System.ALTISOGOLD, 3), c0, period, samples(period, 33)
    gold = ModelSpec(System.GOLD, 3, a2=-1.0)
    init = dynamics.build_matrix_initial_data(gold, ParticleState(draw(3, 0.5), draw(3, 0.3)))
    u0 = dynamics._state_vector(ModelSpec(System.MATRIX_U, 3, a2=-1.0), init)
    dense = dict(t_eval=[0.0, 1.5], return_dense=True, tol=1e-11)
    yield "matrix-u, dense", field(System.MATRIX_U, 3, a2=-1.0), u0, 1.5, dense
    trick = field(System.ISOGOLD, 3, "trick")
    yield "isogold N = 3, trick path", trick, draw(6), period, samples(period, 65)
    yield "gold N = 2, no t_eval", field(System.GOLD, 2), draw(4), 2.0, {}
    dense = dict(return_dense=True)
    yield "gold N = 2, no t_eval, dense", field(System.GOLD, 2), draw(4), 2.0, dense
    pole = lambda t, y: y * y
    yield "y' = y^2 pole", pole, np.array([1.0 + 0j]), 2.0, {}
    yield "y' = y^2 pole, sampled", pole, np.array([1.0 + 0j]), 2.0, samples(2.0, 8)
    # a zero error estimate grows every step by scipy's largest factor
    yield "y' = 0", lambda t, y: 0 * y, np.array([1.0 + 0j]), 1.0, {}
    # past its stability limit DOP853 rejects attempts over and over
    relax = lambda t, y: -200 * (y - np.cos(t))
    yield "stiff relaxation, retried", relax, np.array([0j]), 1.0, dict(tol=1e-6)
    yield "gold N = 2, tol at the floor", field(System.GOLD, 2), draw(4), 1.0, dict(tol=1e-14)


def _assert_equals_reference(rhs, y0, t1, kwargs):
    """``integrate_ode`` gives the times, states, interpolant, failure time,
    accepted steps and number of ``rhs`` calls of ``solve_ivp`` bit for
    bit on ``(0, t1)``."""
    got, got_steps, got_calls = _integrate_recorded(integrate_ode, rhs, y0, (0.0, t1), **kwargs)
    want, want_steps, want_calls = _integrate_recorded(
        oracles.solve_ivp_reference, rhs, y0, (0.0, t1), **kwargs
    )
    assert got_calls == want_calls
    assert len(got_steps) == len(want_steps) > 1
    for (t, y), (t_ref, y_ref) in zip(got_steps, want_steps):
        assert t == t_ref and _same_bits(y, y_ref)
    if isinstance(want, MovableSingularityError):
        assert isinstance(got, MovableSingularityError)
        assert got.last_time == want.last_time == want_steps[-1][0]
        return
    if kwargs.get("return_dense"):
        (got, dense), (want, want_dense) = got, want
        step_times = np.array([t for t, _ in want_steps])
        mid = (step_times[:-1] + step_times[1:]) / 2
        assert _same_bits(dense(mid), want_dense(mid))
        assert all(_same_bits(dense(t), want_dense(t)) for t in mid)
    assert _same_bits(got.times, want.times)
    assert _same_bits(got.states, want.states)
    assert got.states.flags.c_contiguous


def _same_bits(a, b):
    """Equal shapes and equal bit patterns, signed zeros and NaNs included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda case: case[0])
def test_integrator_equals_solve_ivp_reference(case):
    """The step loop repeats ``solve_ivp`` bit for bit."""
    _, rhs, y0, t1, kwargs = case
    _assert_equals_reference(rhs, y0, t1, kwargs)


def test_reference_cases_reach_a_retry_and_the_tol_floor():
    """The retried case rejects attempts, each costing twelve more ``rhs``
    calls, and the floor case's ``tol`` is clamped at ``100 eps``, so it
    runs the same steps as another ``tol`` below that floor."""
    cases = {name: case for name, *case in _reference_cases()}
    rhs, y0, t1, kwargs = cases["stiff relaxation, retried"]
    _, steps, calls = _integrate_recorded(integrate_ode, rhs, y0, (0.0, t1), **kwargs)
    # the check, which is scipy's first f, and its first-step probe, then
    # twelve calls per attempt (no sample, so no interpolant)
    retries, rest = divmod(calls - 2 - 12 * (len(steps) - 1), 12)
    assert rest == 0 and retries >= 1
    rhs, y0, t1, kwargs = cases["gold N = 2, tol at the floor"]
    floor = 100 * np.finfo(float).eps * np.sqrt(y0.size)
    assert kwargs["tol"] < floor / 2
    got, want = (integrate_ode(rhs, y0, (0.0, t1), tol=tol) for tol in (kwargs["tol"], floor / 2))
    assert _same_bits(got.times, want.times) and _same_bits(got.states, want.states)


def _field(kind, n, rng):
    """``(rhs, y0)`` of a random run of ``kind`` at ``N = n``."""
    a2 = complex(*rng.standard_normal(2))
    spec, time_path, size, scale = {
        "gold": (ModelSpec(System.GOLD, n, a2=a2), None, 2 * n, 0.4),
        "isogold": (ModelSpec(System.ISOGOLD, n), None, 2 * n, 0.4),
        "trick": (ModelSpec(System.ISOGOLD, n), "trick", 2 * n, 0.4),
        "altisogold": (ModelSpec(System.ALTISOGOLD, n), None, 2 * n, 0.05),
        "matrix-u": (ModelSpec(System.MATRIX_U, n, a2=a2), None, 2 * n * n, 0.3),
    }[kind]
    y0 = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return dynamics._first_order_rhs(spec, time_path), y0


@given(
    kind=st.sampled_from(["gold", "isogold", "altisogold", "matrix-u", "trick"]),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    t1=st.floats(0.05, 2.0),
    samples=st.integers(0, 6),
    return_dense=st.booleans(),
)
def test_integrator_equals_solve_ivp_reference_property(kind, n, seed, t1, samples, return_dense):
    """Any field of the package, a log-uniform tolerance in range and any
    sample grid: the step loop repeats ``solve_ivp`` bit for bit."""
    rng = np.random.default_rng(seed)
    rhs, y0 = _field(kind, n, rng)
    kwargs = dict(tol=10.0 ** rng.uniform(-14.0, -4.0), return_dense=return_dense)
    if samples:
        kwargs["t_eval"] = np.unique(np.append(rng.uniform(0.0, t1, samples), t1))
    _assert_equals_reference(rhs, y0, t1, kwargs)


@pytest.mark.parametrize(
    "t_eval, message",
    [
        (np.zeros((2, 2)), r"1-d array, got shape \(2, 2\)"),
        (np.array([]), r"1-d array, got shape \(0,\)"),
        ([0.0, 0.5, 1.25], "value 1.25 lies outside t_span"),
        ([-0.5, 0.5], "value -0.5 lies outside t_span"),
        ([0.0, np.nan, 1.0], "value nan lies outside t_span"),
        ([0.0, 0.5, 0.5, 1.0], r"strictly increasing: t_eval\[2\] = 0.5 follows 0.5"),
        ([0.0, 0.6, 0.4], r"strictly increasing: t_eval\[2\] = 0.4 follows 0.6"),
    ],
)
def test_integrator_rejects_bad_samples(t_eval, message):
    calls = []
    rhs = lambda t, y: calls.append(t) or 1j * y
    with pytest.raises(ValueError, match=message):
        integrate_ode(rhs, np.array([1.0 + 0j]), (0.0, 1.0), t_eval=t_eval)
    assert not calls  # refused before the first rhs call


@pytest.mark.parametrize(
    "y0, t_span, message",
    [
        ([1.0], (0.0, np.inf), r"t_span must be finite, got \(0.0, inf\)"),
        ([1.0], (-np.inf, 0.0), r"t_span must be finite, got \(-inf, 0.0\)"),
        ([1.0], (0.0, np.nan), r"t_span must be finite, got \(0.0, nan\)"),
        ([], (0.0, 1.0), r"y0 must be a non-empty flat vector, got shape \(0,\)"),
    ],
)
def test_integrator_rejects_unbounded_window_and_empty_state(y0, t_span, message):
    calls = []
    rhs = lambda t, y: calls.append(t) or y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            integrate_ode(rhs, np.array(y0, dtype=complex), t_span)
    assert not calls  # refused before the first rhs call


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1), dtype=complex))
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(np.array([0.0, np.nan, 2.0]), np.zeros((3, 2), dtype=complex))
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
