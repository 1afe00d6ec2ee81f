"""Dense complex linear algebra, adaptive complex ODE integration, and
eigenvalue-path tracking.

Everything here operates on plain numpy arrays with ``complex128`` entries.
The integrator is scipy's DOP853 (an explicit Runge-Kutta 8(5,3) pair)
stepped by a loop of its own: scipy's tableau, first step and
interpolant, scipy's arithmetic in scipy's order, so every float and
every right-hand-side call is scipy's, without scipy's per-step and
per-call Python frames.  The seventh-order dense output is built only on
the steps that hold a sample; tolerances are scaled by ``1/sqrt(n)`` so
that the local error of every component stays below ``tol (1 + |y|)``.
Step-size underflow is treated as the signature of a movable singularity
of the (meromorphic) solutions handled by this package and is reported as
:class:`MovableSingularityError` instead of propagating NaNs.
"""

from __future__ import annotations

import functools
import math
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
        if not np.all(np.diff(t) > 0):  # NaN included
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

    scipy's ``DOP853``, the explicit Runge-Kutta 8(5,3) pair of Hairer,
    Norsett and Wanner with seventh-order dense output, stepped by a loop
    of its own: scipy supplies the tableau, the first step and the
    interpolant, and the loop repeats the arithmetic of scipy's stepper
    in its order, so every float and every ``rhs`` call is scipy's but the
    first, whose value the initial check hands over.
    Per-step local error is kept below ``tol`` componentwise, relative to
    ``1 + |y|``: the error control bounds the RMS norm of
    ``err / (atol + rtol |y|)`` by one, so ``rtol = atol = tol / sqrt(n)``
    for a state of length ``n`` bounds every single component by
    ``tol (1 + |y|)``.  That value is clamped at scipy's ``rtol`` floor of
    ``100 eps``; below ``100 eps sqrt(n)`` the componentwise bound is
    ``100 eps sqrt(n) (1 + |y|)`` instead.

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
        Non-empty initial state.
    t_span : (float, float)
        Finite integration window ``(t0, t1)`` with ``t1 > t0``.
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
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    if not 1e-14 <= tol <= 1e-4:
        raise ValueError(f"tol must lie in [1e-14, 1e-4], got {tol}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0}, {t1})")
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y = np.asarray(y0, dtype=complex)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"y0 must be a non-empty flat vector, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y0 must be finite")
    if t_eval is not None:
        t_eval = _checked_samples(t_eval, t0, t1)

    f = np.asarray(rhs(t0, y), dtype=complex)
    if f.shape != y.shape or not np.all(np.isfinite(f)):
        raise ValueError("rhs is not finite on the initial state")

    n = y.size
    rtol = atol = float(max(tol / np.sqrt(n), 100 * np.finfo(float).eps))
    # scipy's first step, whose first rhs call is handed the checked f
    first = [f]
    seeded = lambda t, y: first.pop() if first else rhs(t, y)
    h_abs = float(DOP853(seeded, t0, y, t1, rtol=rtol, atol=atol).h_abs)
    # scipy's tableau, each row that multiplies the complex stages cast to
    # complex once (np.dot casts it anyway, so no bit changes); a stage is
    # (s, c_s, K[:s].T, A[s, :s])
    A, A_extra, B, E5, E3, D = (
        np.asarray(v, dtype=complex)
        for v in (DOP853.A, DOP853.A_EXTRA, DOP853.B, DOP853.E5, DOP853.E3, DOP853.D)
    )
    m = DOP853.n_stages
    K = np.empty((D.shape[1], n), dtype=complex)
    stages = [(s, float(c), K[:s].T, A[s, :s]) for s, c in enumerate(DOP853.C[1:], 1)]
    extra = [
        (s, float(c), K[:s].T, row[:s])
        for s, (row, c) in enumerate(zip(A_extra, DOP853.C_EXTRA), m + 1)
    ]
    K_B, K_E = K[:m].T, K[: m + 1].T

    def interpolant():
        """scipy's interpolant of the step just accepted, from its stages."""
        for s, c, k, a in extra:
            K[s] = rhs(t_old + c * h, y_old + np.dot(k, a) * h)
        F = np.empty((3 + len(D), n), dtype=complex)
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (f + K[0])
        F[3:] = h * np.dot(D, K)
        return Dop853DenseOutput(t_old, t, y_old, F)

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
    t = t0
    while t < t1:
        # scipy's step and its controller (SAFETY 0.9, MIN_FACTOR 0.2,
        # MAX_FACTOR 10, exponent -1/8): shrink after a rejected attempt,
        # and do not grow after an accepted one that followed it
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        abs_y = np.abs(y)
        rejected = False
        while True:
            if h_abs < min_step:
                raise MovableSingularityError(t)
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            K[0] = f
            for s, c, k, a in stages:
                K[s] = rhs(t + c * h, y + np.dot(k, a) * h)
            y_new = y + h * np.dot(K_B, B)
            f_new = K[m] = rhs(t + h, y_new)
            scale = atol + np.maximum(abs_y, np.abs(y_new)) * rtol
            e5 = np.dot(K_E, E5) / scale
            e3 = np.dot(K_E, E3) / scale
            # np.linalg.norm(e) ** 2, squared after its sqrt as scipy does
            err5 = math.sqrt(e5.real.dot(e5.real) + e5.imag.dot(e5.imag)) ** 2
            err3 = math.sqrt(e3.real.dot(e3.real) + e3.imag.dot(e3.imag)) ** 2
            denom = err5 + 0.01 * err3
            if denom:
                error_norm = h * err5 / math.sqrt(denom * n)
            else:  # numpy's 0 / 0 = nan, unless both norms vanish
                error_norm = math.nan if err3 else 0.0
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm**-0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm**-0.125)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new

        piece = None
        if return_dense:
            piece = interpolant()
            ends.append(t)
            pieces.append(piece)
        if on_step is not None:
            on_step(t, y)
        if t_eval is None:
            times.append(t)
            rows.append(y)
            continue
        upto = np.searchsorted(t_eval, t, side="right")
        if upto > taken:
            if piece is None:
                piece = interpolant()
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
