"""Dense complex linear algebra, adaptive complex ODE integration, and
eigenvalue-path tracking.

Everything here operates on plain numpy arrays with ``complex128`` entries.
The integrator is a loop over scipy's DOP853 stepper (an explicit
Runge-Kutta 8(5,3) pair) whose seventh-order dense output is built only on
the steps that hold a sample; its tolerances are scaled by ``1/sqrt(n)``
so that the local error of every component stays below ``tol (1 + |y|)``.
Step-size underflow is treated as the signature of a movable singularity
of the (meromorphic) solutions handled by this package and is reported as
:class:`MovableSingularityError` instead of propagating NaNs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .polynomials import GoldfishError

__all__ = [
    "AmbiguousTrackingError",
    "EigenvalueError",
    "MovableSingularityError",
    "Trajectory",
    "TrackedPaths",
    "eigenvalues",
    "integrate_ode",
    "multiset_distance",
    "track_trajectories",
]

class EigenvalueError(GoldfishError):
    """QR iteration failed to converge; never silently wrong."""


class MovableSingularityError(GoldfishError):
    """Integration ran into a step-size underflow near a movable pole."""

    def __init__(self, last_time: float):
        self.last_time = last_time
        super().__init__(
            f"step size underflow at t = {last_time!r}: solution is "
            "approaching a movable singularity"
        )


class AmbiguousTrackingError(GoldfishError):
    """Frame-to-frame eigenvalue displacement too large for unambiguous
    matching; the caller must refine the sampling."""

    def __init__(self, index: int, displacement: float, gap: float):
        self.index = index
        self.displacement = displacement
        self.gap = gap
        super().__init__(
            f"ambiguous eigenvalue matching between frames {index} and "
            f"{index + 1}: displacement {displacement:.3e} exceeds half the "
            f"minimal eigenvalue gap {gap:.3e}; refine the time sampling"
        )


@functools.cache
def _assignment():
    """scipy's ``linear_sum_assignment``, imported at the first eigenvalue
    matching, not with the package."""
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


def _lapack(routine, m):
    """``routine(m)`` on a checked square finite complex matrix, with
    LAPACK's convergence failure raised as :class:`EigenvalueError`."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    try:
        return routine(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenvalueError(f"eigenvalue iteration did not converge: {exc}") from exc


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a square complex matrix, with multiplicity.

    Backed by LAPACK's Hessenberg-reduction + implicitly shifted QR, which
    is backward stable; sizes here never exceed a few dozen.

    Parameters
    ----------
    m : (n, n) array_like
        Square matrix with finite entries.

    Returns
    -------
    ndarray of complex
        The ``n`` eigenvalues in LAPACK order (no sorting is applied).
    """
    return _lapack(np.linalg.eigvals, m)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of an ODE system.

    ``states[k]`` is the flat complex state vector at ``times[k]``; all
    state vectors share one length and ``times`` is strictly increasing.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=complex)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a non-empty 1-d array")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if s.ndim != 2 or s.shape[0] != t.size:
            raise ValueError("states must have one row per time")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def integrate_ode(rhs, y0, t_span, tol=1e-10, t_eval=None, return_dense=False, on_step=None):
    """Integrate ``dy/dt = rhs(t, y)`` over a complexified state.

    A loop over scipy's ``DOP853`` stepper, the explicit Runge-Kutta
    8(5,3) pair of Hairer, Norsett and Wanner with seventh-order dense
    output.  Per-step local error is kept below ``tol`` componentwise,
    relative to ``1 + |y|``: scipy bounds the RMS norm of
    ``err / (atol + rtol |y|)`` by one, so passing
    ``rtol = atol = tol / sqrt(n)`` for a state of length ``n`` bounds
    every single component by ``tol (1 + |y|)``.  That value is clamped
    at scipy's ``rtol`` floor of ``100 eps``, so that ``tol = 1e-14``
    raises no scipy warning; below ``100 eps sqrt(n)`` the componentwise
    bound is ``100 eps sqrt(n) (1 + |y|)`` instead.

    ``rhs`` is called as given, with no checks of its own: it is checked
    once, on the initial state.  The interpolant (three extra ``rhs``
    evaluations per step) is built only for the steps that contain a
    sample, unless ``return_dense`` asks for it on every step.  A sample
    at a step's end point is read from that step's interpolant.

    Parameters
    ----------
    rhs : callable
        ``rhs(t, y) -> dy/dt`` with ``t`` real and ``y`` complex.
    y0 : array_like of complex
        Initial state.
    t_span : (float, float)
        Integration window ``(t0, t1)`` with ``t1 > t0``.
    tol : float
        Local error tolerance, in ``[1e-14, 1e-4]``.
    t_eval : array_like of float, optional
        Strictly increasing sample times inside ``t_span``; defaults to
        the accepted step points.
    return_dense : bool
        Also return the dense interpolant ``t -> y(t)`` (used internally
        for eigenvalue path refinement); it raises ``ValueError`` for
        ``t`` outside ``t_span`` rather than extrapolating.
    on_step : callable, optional
        ``on_step(t, y)``, called on the initial state and after every
        accepted step (never at a stage point); an exception it raises
        ends the integration and propagates unchanged.

    Raises
    ------
    MovableSingularityError
        On step-size underflow (the hallmark of a movable pole); carries
        the last accepted step time.
    """
    from scipy.integrate import DOP853, OdeSolution

    if not 1e-14 <= tol <= 1e-4:
        raise ValueError(f"tol must lie in [1e-14, 1e-4], got {tol}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y = np.asarray(y0, dtype=complex)
    if y.ndim != 1:
        raise ValueError("y0 must be a flat vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("y0 must be finite")
    if t_eval is not None:
        t_eval = _checked_samples(t_eval, t0, t1)

    f = np.asarray(rhs(t0, y), dtype=complex)
    if f.shape != y.shape or not np.all(np.isfinite(f)):
        raise ValueError("rhs is not finite on the initial state")

    scaled = max(tol / np.sqrt(y.size), 100 * np.finfo(float).eps)
    solver = DOP853(rhs, t0, y, t1, rtol=scaled, atol=scaled)
    if on_step is not None:
        on_step(t0, y)
    if t_eval is None:
        times, rows = [t0], [y]
    else:
        times, rows = [], []
    # the end point of every accepted step, and its interpolant, for
    # ``return_dense``
    ends, pieces = [t0], []
    taken = 0  # samples of t_eval already read
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise MovableSingularityError(float(solver.t))
        t = solver.t
        piece = None
        if return_dense:
            piece = solver.dense_output()
            ends.append(t)
            pieces.append(piece)
        if on_step is not None:
            on_step(t, solver.y)
        if t_eval is None:
            times.append(t)
            rows.append(solver.y)
            continue
        upto = np.searchsorted(t_eval, t, side="right")
        if upto > taken:
            if piece is None:
                piece = solver.dense_output()
            times.append(t_eval[taken:upto])
            rows.append(piece(t_eval[taken:upto]).T)
            taken = upto

    # C order, so that a row's values and velocities can be viewed as float
    traj = Trajectory(np.hstack(times), np.vstack(rows))
    if not return_dense:
        return traj

    sol = OdeSolution(ends, pieces)

    def dense(t):
        if np.any(np.less(t, t0)) or np.any(np.greater(t, t1)):
            raise ValueError(f"t = {t} outside integrated range [{t0}, {t1}]")
        return sol(t)

    return traj, dense


def _checked_samples(t_eval, t0: float, t1: float) -> np.ndarray:
    """``t_eval`` as a float array, checked to be a non-empty, strictly
    increasing 1-d array inside ``[t0, t1]``."""
    t = np.asarray(t_eval, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"t_eval must be a non-empty 1-d array, got shape {t.shape}")
    outside = ~((t >= t0) & (t <= t1))  # NaN included
    if np.any(outside):
        raise ValueError(f"t_eval value {float(t[outside][0])!r} lies outside t_span [{t0}, {t1}]")
    later = np.diff(t) <= 0
    if np.any(later):
        k = int(np.argmax(later)) + 1
        raise ValueError(
            f"t_eval must be strictly increasing: t_eval[{k}] = {float(t[k])!r} "
            f"follows {float(t[k - 1])!r}"
        )
    return t


@dataclass(frozen=True)
class TrackedPaths:
    """Continuously labelled eigenvalue branches.

    ``paths[k, j]`` is branch ``k`` at ``times[j]``, and ``slots[k, j]``
    is its slot in the input frame of that time: ``paths[:, j] ==
    frames[j][slots[:, j]]``, so tracking relabels and never alters
    values.  ``monodromy`` is the final frame's slot map: branch ``k``
    ends on slot ``monodromy[k]`` of the final frame.
    """

    times: np.ndarray
    paths: np.ndarray
    slots: np.ndarray

    @property
    def monodromy(self) -> tuple[int, ...]:
        return tuple(int(p) for p in self.slots[:, -1])


def multiset_distance(a, b) -> float:
    """Largest distance in a minimum-cost injective matching of the values
    ``a`` into the values ``b`` (``len(a) <= len(b)``)."""
    cost = np.abs(np.asarray(a, dtype=complex)[:, None] - np.asarray(b, dtype=complex)[None, :])
    rows, cols = _assignment()(cost)
    return float(np.max(cost[rows, cols]))


def _match_step(current: np.ndarray, new: np.ndarray, index: int) -> np.ndarray:
    """Slots of ``new`` matched to the branches ``current``, by minimum total
    squared displacement: branch ``k`` moves to ``new[perm[k]]``.

    Raises :class:`AmbiguousTrackingError` for frame ``index`` unless the
    largest displacement stays below half the smallest gap in ``new``.
    """
    n = current.size
    cost = np.abs(current[:, None] - new[None, :]) ** 2
    rows, cols = _assignment()(cost)
    perm = np.empty(n, dtype=int)
    perm[rows] = cols
    if n > 1:
        disp = float(np.max(np.abs(new[perm] - current)))
        diffs = np.abs(new[:, None] - new[None, :])
        gap = float(np.min(diffs[~np.eye(n, dtype=bool)]))
        if disp >= 0.5 * gap:
            raise AmbiguousTrackingError(index, disp, gap)
    return perm


# frames that one walk may insert before an ambiguity is final
_MAX_REFINE = 4000


def _walk(times, frames, refine=None) -> TrackedPaths:
    """Eigenvalue branches over ``times``, one frame per requested time.

    The frames are walked left to right, matching the current frame
    against the next one only.  An ambiguous matching asks ``refine(t)``
    for the frame at the midpoint of its interval and matches that first,
    until every matching is provably unambiguous; only the requested times
    are reported.  With no ``refine``, or after ``_MAX_REFINE`` inserted
    frames, the ambiguity raises :class:`AmbiguousTrackingError`.
    """
    lo = times[0]
    current = frames[0]
    perm = np.arange(current.size)
    slots = [perm]
    walked = 0  # frames passed so far, requested and inserted
    inserted = 0
    for t, frame in zip(times[1:], frames[1:]):
        pending = [(t, frame)]
        while pending:
            hi, new = pending[-1]
            try:
                perm = _match_step(current, new, walked)
            except AmbiguousTrackingError:
                mid = 0.5 * (lo + hi)
                if refine is None or inserted >= _MAX_REFINE or mid in (lo, hi) or hi - lo < 1e-12:
                    raise
                pending.append((mid, refine(mid)))
                inserted += 1
                continue
            pending.pop()
            lo, current = hi, new[perm]
            walked += 1
        slots.append(perm)
    paths = np.column_stack([frame[slot] for frame, slot in zip(frames, slots)])
    return TrackedPaths(np.asarray(times), paths, np.column_stack(slots))


def track_trajectories(frames, times) -> TrackedPaths:
    """Thread eigenvalue multisets into continuous branches.

    Consecutive frames are matched by minimum total squared displacement.
    The matching is accepted only when the largest displacement stays
    below half the smallest eigenvalue gap in the new frame, so the
    assignment is provably unambiguous; otherwise
    :class:`AmbiguousTrackingError` asks the caller to refine sampling.
    """
    frames = [np.asarray(fr, dtype=complex) for fr in frames]
    times = np.asarray(times, dtype=float)
    if len(frames) != times.size:
        raise ValueError("one frame per time is required")
    n = frames[0].size
    if any(fr.size != n for fr in frames):
        raise ValueError("all frames must have equal cardinality")
    return _walk(times, frames)
