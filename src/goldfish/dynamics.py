"""Evolution equations of the goldfish family and their solution methods.

A :class:`ModelSpec` names one of the supported systems:

* particle systems (``GOLD``, ``GENERAL_GOLD``, ``ISOGOLD``, ``RCM``,
  ``VESELOV``): Newtonian equations for complex coordinates ``z_n``;
* coefficient systems (``ALTGOLD``, ``ALTISOGOLD``, ``GAMMATAU``): the
  same dynamics rewritten for the monic-polynomial coefficients ``c_m``;
* matrix flows (``MATRIX_U``, ``MATRIX_UTILDE``, ``MATRIX_GENERAL``):
  the second-order matrix ODEs whose eigenvalues reproduce the particle
  coordinates.

Two solution routes are implemented and used as mutual oracles:
``DIRECT`` integrates the stated equations of motion; ``SPECTRAL``
integrates the matrix companion (or uses its closed form, for ``RCM``)
and reads the state off its spectrum.  The exponential change of
variables ``tau = i (1 - exp(i t))`` that turns the rational-time systems
into isochronous ones is available as :func:`trick_transform`, with
:func:`simulate` able to integrate directly along that complex time path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import TrackedPaths, Trajectory, _lapack, _walk, eigenvalues, integrate_ode
from .polynomials import (
    PLAIN,
    TILDE,
    GoldfishError,
    MonicPolynomial,
    coeff_velocities,
    find_roots,
    from_roots,
)

__all__ = [
    "COLLISION_THRESHOLD",
    "CoefficientState",
    "CollisionError",
    "MatrixFlowState",
    "ModelSpec",
    "ParticleState",
    "PeriodReport",
    "SimulationResult",
    "System",
    "build_matrix_initial_data",
    "detect_period",
    "eigenvalue_paths",
    "eval_rhs",
    "residual_coupling_identity",
    "residual_rank_one",
    "simulate",
    "trick_transform",
    "trick_transform_state",
]

COLLISION_THRESHOLD = 1e-10


class CollisionError(GoldfishError):
    """Two coordinates came closer than the collision threshold."""


class System(enum.Enum):
    GOLD = "gold"
    ISOGOLD = "isogold"
    GENERAL_GOLD = "general_gold"
    ALTGOLD = "altgold"
    ALTISOGOLD = "altisogold"
    GAMMATAU = "gammatau"
    MATRIX_U = "matrix_u"
    MATRIX_UTILDE = "matrix_utilde"
    MATRIX_GENERAL = "matrix_general"
    RCM = "rcm"
    VESELOV = "veselov"


_PARTICLE = {System.GOLD, System.ISOGOLD, System.GENERAL_GOLD, System.RCM, System.VESELOV}
_COEFFICIENT = {System.ALTGOLD, System.ALTISOGOLD, System.GAMMATAU}
_MATRIX = {System.MATRIX_U, System.MATRIX_UTILDE, System.MATRIX_GENERAL}
# systems with a matrix companion usable by the spectral method
_SPECTRAL_OK = _PARTICLE | {System.ALTGOLD, System.ALTISOGOLD}


@dataclass(frozen=True)
class ModelSpec:
    """Which system to evolve, its size, and its constants.

    ``a2`` is the squared shift constant of the goldfish interaction;
    ``alpha, beta, gamma`` define the quadratic gauge function
    ``f(x) = alpha + beta x + gamma x^2`` of the general family (the
    basic goldfish system is the member ``(-a2, 0, 1)``); ``g`` is the
    inverse-cube coupling of the ``RCM``/``VESELOV`` models; ``phi_poly``
    holds ascending coefficients of the force polynomial for ``VESELOV``
    and ``MATRIX_GENERAL`` (``RCM`` fixes it to ``-x``).
    """

    system: System
    N: int
    a2: complex = 0.0
    alpha: complex | None = None
    beta: complex | None = None
    gamma: complex | None = None
    g: complex = 0.0
    phi_poly: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.system is System.GAMMATAU and self.a2 != 0:
            raise ValueError("the gammatau system has no shift constant (a2 must be 0)")
        if self.system is System.GENERAL_GOLD and None in (self.alpha, self.beta, self.gamma):
            raise ValueError("general_gold requires alpha, beta and gamma")

    def f_abc(self) -> tuple[complex, complex, complex]:
        """Coefficients ``(alpha, beta, gamma)`` of the gauge quadratic."""
        if self.system in (System.GOLD, System.MATRIX_U, System.ALTGOLD, System.GAMMATAU):
            return (-self.a2, 0.0, 1.0)
        if self.system in (System.ISOGOLD, System.MATRIX_UTILDE, System.ALTISOGOLD):
            return (0.0, -1j, 1.0)
        if self.system is System.GENERAL_GOLD:
            return (self.alpha, self.beta, self.gamma)
        raise ValueError(f"{self.system.value} has no gauge quadratic")

    def f_of(self, z: np.ndarray) -> np.ndarray:
        a, b, c = self.f_abc()
        return a + b * z + c * z * z

    def phi_coeffs(self) -> tuple[complex, ...]:
        """Ascending coefficients of the force polynomial of the matrix flow."""
        if self.system is System.RCM:
            return (0.0, -1.0)
        if self.system in (System.VESELOV, System.MATRIX_GENERAL):
            if not self.phi_poly:
                raise ValueError("phi_poly is required for this system")
            return tuple(self.phi_poly)
        # goldfish family: Phi = f f'
        a, b, c = self.f_abc()
        return (a * b, b * b + 2 * a * c, 3 * b * c, 2 * c * c)

    def phi_of_matrix(self, U: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(U)
        eye = np.eye(U.shape[0], dtype=complex)
        for coef in reversed(self.phi_coeffs()):
            acc = acc @ U + coef * eye
        return acc


@dataclass(frozen=True)
class ParticleState:
    """Positions and velocities ``(z_n, zdot_n)`` of one system at one time."""

    z: np.ndarray
    zdot: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        v = np.asarray(self.zdot, dtype=complex)
        if z.ndim != 1 or z.shape != v.shape:
            raise ValueError("z and zdot must be equal-length vectors")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
            raise ValueError("state must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "zdot", v)


@dataclass(frozen=True)
class CoefficientState:
    """Coefficient values and velocities ``(c_m, cdot_m)``, ``m = 1..N``.

    ``c_0 = 1`` is implicit; the out-of-range members ``c_-1``, ``c_N+1``
    and ``c_N+2`` are taken as zero wherever the dynamics references them.
    """

    c: np.ndarray
    cdot: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        v = np.asarray(self.cdot, dtype=complex)
        if c.ndim != 1 or c.shape != v.shape:
            raise ValueError("c and cdot must be equal-length vectors")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "cdot", v)


@dataclass(frozen=True)
class MatrixFlowState:
    """Matrix flow value and velocity ``(U, Udot)``."""

    U: np.ndarray
    Udot: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        V = np.asarray(self.Udot, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape != V.shape:
            raise ValueError("U and Udot must be square matrices of equal size")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Udot", V)


def _distinct_check(n: int):
    """``check(z)`` for ``n`` coordinates: raises :class:`CollisionError`
    when two of them lie closer than :data:`COLLISION_THRESHOLD`.  The
    pairs ``i < j`` are enumerated here, once, so that a run builds them
    once for all its accepted steps."""
    if n < 2:
        return lambda z: None
    i, j = np.triu_indices(n, 1)

    def check(z):
        dmin = float(np.minimum.reduce(np.abs(z[i] - z[j])))
        if dmin < COLLISION_THRESHOLD:
            raise CollisionError(
                f"coordinates closer than {COLLISION_THRESHOLD:g} (min gap {dmin:.3e})"
            )

    return check


# residual target of the spectral route's initial zeros
_ROOT_TOL = 1e-13


def _simple_zero_slopes(psi: MonicPolynomial, z: np.ndarray) -> np.ndarray:
    """``psi'(z)`` at the zeros ``z`` that :func:`find_roots` returned for
    ``_ROOT_TOL``, after checking that the zeros are told apart from a
    repeated zero.

    ``find_roots`` accepts residuals up to ``e = 10 tol (1 + max|c_m|)``.
    The ``m`` zeros that a residual ``<= e`` splits off one zero of
    multiplicity ``m`` have ``|psi'(z_k)|`` times the gap to their nearest
    neighbour at most ``2 m sin(pi / m) e < 2 pi e``, so a product that
    small raises :class:`CollisionError`.
    """
    c = psi.plain_coeffs()
    slopes = np.polyval(np.polyder(c), z)
    gap = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gap, np.inf)
    worst = float(np.min(np.abs(slopes) * np.min(gap, axis=1)))
    bound = 20 * np.pi * _ROOT_TOL * (1.0 + float(np.max(np.abs(c))))
    if worst <= bound:
        raise CollisionError(
            f"zeros indistinguishable from a repeated zero "
            f"(|psi'| times gap {worst:.3e} <= {bound:.3e})"
        )
    return slopes


def _particle_acceleration(spec: ModelSpec):
    """``acc(z, v)``: the particle equations of motion of ``spec``, on raw
    complex arrays of length ``spec.N`` and with no checks (:func:`eval_rhs`
    is the checked form).  Each constant of ``spec`` is bound once as a
    length-``N`` array (a ufunc on two arrays costs less than on a Python
    scalar and an array), and the pair sums divide under one off-diagonal
    mask.  Every element keeps its operation sequence, zero constants
    included: dropping one can flip the sign of a zero."""
    n, outer = spec.N, np.subtract.outer
    off = ~np.eye(n, dtype=bool)
    const = lambda x: np.full(n, x, dtype=complex)
    one, two = const(1), const(2)

    def pair_sum(w, den):
        # out_n = sum_{m != n} w_m / den_nm
        return np.add.reduce(np.divide(w, den, out=np.zeros((n, n), complex), where=off), axis=1)

    if spec.system is System.ISOGOLD:
        i1, i3 = const(1j), const(3j)

        def acc(z, v):
            zz = z * z
            w = v - i1 * z + zz
            return i3 * v + two * z * (one + zz) + two * (w * pair_sum(w, outer(z, z)))

        return acc

    zero, phi_coeffs = const(0), [const(p) for p in reversed(spec.phi_coeffs())]

    def phi(z):
        out = zero  # Horner's rule from 0, as polynomials._horner runs it
        for p in phi_coeffs:
            out = out * z + p
        return out

    if spec.system in (System.GOLD, System.GENERAL_GOLD):
        a, b, c = map(const, spec.f_abc())

        def acc(z, v):
            w = v + (a + b * z + c * z * z)
            return phi(z) + two * (w * pair_sum(w, outer(z, z)))

        return acc

    # RCM / VESELOV: inverse-cube pair force
    k, three = const(2 * spec.g ** 2), const(3)
    return lambda z, v: phi(z) - k * pair_sum(one, np.power(outer(z, z), three))


def eval_rhs(spec: ModelSpec, state):
    """Second derivative of the state under the named system.

    Returns an acceleration vector for particle and coefficient states
    and a matrix for matrix-flow states: the second half of the
    first-order field that :func:`simulate` integrates, after the state
    is checked for kind, size and (particles) collisions.
    """
    y = _state_vector(spec, state)
    half = y.size // 2
    if spec.system in _PARTICLE:
        _distinct_check(spec.N)(y[:half])
    acc = _first_order_rhs(spec, None)(0.0, y)[half:]
    return acc.reshape(spec.N, spec.N) if spec.system in _MATRIX else acc


def _iso_bracket(c, w, ms):
    """Rows ``m in ms`` of the isochronous (ALTISOGOLD) coefficient
    recurrence ``cddot_m = -F_m(c, w)``, written with ``w = i cdot``.

    ``c`` and ``w`` hold ``c_1..c_N`` and ``w_1..w_N`` of any scalar type
    with ``+``, ``-``, ``*`` and integer powers (complex, ``Fraction``, a
    polynomial).  ``c_0 = 1``, ``w_0 = 0``, and all other out-of-range members
    are zero: the two trailing zeros serve ``m + 1`` and ``m + 2`` and,
    through negative indexing, ``m - 1`` and ``m - 2``.
    """
    C = [1, *c, 0, 0]
    W = [0, *w, 0, 0]
    return [
        2 * (m - 1) * W[m + 1]
        - (2 * m + 1 + 2 * C[1]) * W[m]
        - (m + 2) * (m - 3) * C[m + 2]
        + 2 * (m - 1) * (m + 1 + C[1]) * C[m + 1]
        + (-m * (m + 1) + 2 * W[1] - 2 * (m - 1) * C[1] + 2 * C[1] ** 2 - 6 * C[2]) * C[m]
        for m in ms
    ]


def _rational_bracket(c, cdot, a2, ms):
    """Rows ``m in ms`` of the rational-time (ALTGOLD, GAMMATAU) coefficient
    recurrence ``cddot_m = -F_m(c, cdot)``; scalar types and boundary
    conventions as in :func:`_iso_bracket`."""
    N = len(c)
    C = [1, *c, 0, 0]
    D = [0, *cdot, 0, 0]
    return [
        2 * (m - 1) * D[m + 1]
        - 2 * C[1] * D[m]
        + 2 * (N + 1 - m) * a2 * D[m - 1]
        + (m + 2) * (m - 3) * C[m + 2]
        - 2 * (m - 1) * C[1] * C[m + 1]
        + 2 * (m * (N + 2 - m) * a2 + D[1] - C[1] ** 2 + 3 * C[2]) * C[m]
        - 2 * (N + 1 - m) * a2 * C[1] * C[m - 1]
        + (N + 2 - m) * (N + 1 - m) * a2 ** 2 * C[m - 2]
        for m in ms
    ]


def _coefficient_bracket(spec: ModelSpec, c: np.ndarray, cdot: np.ndarray, ms) -> list:
    if spec.system is System.ALTISOGOLD:
        return _iso_bracket(c.tolist(), (1j * cdot).tolist(), ms)
    return _rational_bracket(c.tolist(), cdot.tolist(), spec.a2, ms)


def _coefficient_rhs(spec: ModelSpec, c: np.ndarray, cdot: np.ndarray) -> np.ndarray:
    return -np.array(_coefficient_bracket(spec, c, cdot, range(1, spec.N + 1)), dtype=complex)


def _matrix_rhs(spec: ModelSpec, U: np.ndarray, Udot: np.ndarray) -> np.ndarray:
    if spec.system is System.MATRIX_U:
        return 2 * (U @ U @ U) - 2 * spec.a2 * U
    if spec.system is System.MATRIX_UTILDE:
        return 3j * Udot + 2 * U + 2 * (U @ U @ U)
    return spec.phi_of_matrix(U)


def build_matrix_initial_data(spec: ModelSpec, state0: ParticleState) -> MatrixFlowState:
    """Matrix-flow initial data whose spectral evolution follows ``state0``.

    For the goldfish family the start matrix is ``diag(z)`` and the start
    velocity is ``-diag(f(z)) + b b^T`` with principal-branch square roots
    ``b_n = sqrt(zdot_n + f(z_n))`` (so its diagonal is exactly ``zdot``).
    Any sign flip of an individual ``b_n`` is a diagonal similarity and
    leaves the spectral flow unchanged.  For the inverse-cube models the
    start velocity is ``diag(zdot)`` with constant off-diagonal entries
    ``-g / (z_n - z_m)``.
    """
    _state_vector(spec, state0)
    z, v = state0.z, state0.zdot
    _distinct_check(z.size)(z)
    U0 = np.diag(z).astype(complex)
    if spec.system in (System.RCM, System.VESELOV):
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        off = spec.g / diff
        np.fill_diagonal(off, 0.0)
        V0 = np.diag(v).astype(complex) - off
        return MatrixFlowState(U0, V0)
    f = spec.f_of(z)
    b = np.sqrt(v + f + 0j)
    V0 = np.outer(b, b) - np.diag(f)
    return MatrixFlowState(U0, V0)


# ---------------------------------------------------------------------------
# the exponential time substitution ("the trick")


def trick_transform_state(direction: str, values, velocities, kind: str, t: float = 0.0):
    """Map one ``(value, velocity)`` pair between the two time worlds.

    ``FORWARD`` takes a solution of the rational-time system, sampled on
    the path ``tau(t) = i (1 - exp(i t))``, to the isochronous system at
    real time ``t``; ``BACKWARD`` inverts it.  A value of weight ``m``
    gains the factor ``exp(i m t)``: ``m = 1`` for positions and matrices,
    ``m = 1..N`` for coefficients, which also gain the ``(-i)^m`` of the
    TILDE convention.  Velocities transform through the chain rule with
    ``dtau/dt = exp(i t)``.
    """
    q = np.asarray(values, dtype=complex)
    qd = np.asarray(velocities, dtype=complex)
    if q.shape != qd.shape:
        raise ValueError("values and velocities must have equal shapes")
    if kind == "coefficient":
        m = np.arange(1, q.shape[0] + 1)
        fac = (-1j) ** m * np.exp(1j * m * t)
    elif kind in ("particle", "matrix"):
        m = 1
        fac = np.exp(1j * t)
    else:
        raise ValueError(f"unknown trick kind {kind!r}")
    phase = np.exp(1j * t)
    if direction == "forward":
        val = fac * q
        return val, 1j * m * val + fac * phase * qd
    if direction == "backward":
        return q / fac, (qd - 1j * m * q) / (fac * phase)
    raise ValueError(f"unknown direction {direction!r}")


def trick_transform(direction: str, obj: Trajectory, kind: str) -> Trajectory:
    """Apply the exponential time substitution to a trajectory, row by row
    through :func:`trick_transform_state` (the form for a single state).

    The trajectory must be sampled at real times ``t``; its rows hold the
    flattened ``(values, velocities)`` pair, with derivative taken with
    respect to the native time of the input world.
    """
    if not isinstance(obj, Trajectory):
        raise TypeError(f"expected a Trajectory, got {type(obj).__name__}")
    direction = direction.lower()
    kind = kind.lower()
    half = obj.dim // 2
    rows = []
    for t, row in zip(obj.times, obj.states):
        val, vel = trick_transform_state(direction, row[:half], row[half:], kind, float(t))
        rows.append(np.concatenate([val, vel]))
    return Trajectory(obj.times, np.array(rows))


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimulationResult:
    """A sampled run: rows of ``trajectory.states`` are ``[values, velocities]``
    (flattened matrices for the matrix flows); ``tracked`` carries the
    labelled eigenvalue branches when the spectral route produced them."""

    spec: ModelSpec
    method: str
    trajectory: Trajectory
    tracked: TrackedPaths | None = None

    @property
    def values(self) -> np.ndarray:
        half = self.trajectory.dim // 2
        return self.trajectory.states[:, :half]

    @property
    def velocities(self) -> np.ndarray:
        half = self.trajectory.dim // 2
        return self.trajectory.states[:, half:]


def _state_vector(spec: ModelSpec, state) -> np.ndarray:
    """The flat ``[values, velocities]`` vector of ``state`` (matrices row
    by row), after checking that ``spec.system`` evolves a state of its
    kind and size."""
    if isinstance(state, ParticleState):
        kind, systems, parts = "particle", _PARTICLE, (state.z, state.zdot)
    elif isinstance(state, CoefficientState):
        kind, systems, parts = "coefficient", _COEFFICIENT, (state.c, state.cdot)
    elif isinstance(state, MatrixFlowState):
        kind, systems, parts = "matrix", _MATRIX, (state.U.ravel(), state.Udot.ravel())
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if spec.system not in systems:
        raise ValueError(f"{spec.system.value} does not evolve a {kind} state")
    y = np.concatenate(parts)
    n = spec.N
    size = 2 * n * n if kind == "matrix" else 2 * n
    if y.size != size:
        raise ValueError(
            f"state has {y.size} components, {spec.system.value} with N = {n} needs {size}"
        )
    return y


def _first_order_rhs(spec: ModelSpec, time_path):
    """First-order complexified vector field on the flat state of ``spec``
    (length ``2 N``, or ``2 N^2`` for a matrix flow), optionally along the
    trick path.  It checks nothing: :func:`simulate` and :func:`eval_rhs`
    check the state first, and the integrator checks for collisions at
    accepted steps."""
    n = spec.N
    if spec.system in _MATRIX:
        nn = n * n

        def field(t, y):
            U = y[:nn].reshape(n, n)
            V = y[nn:].reshape(n, n)
            return np.concatenate([V.ravel(), _matrix_rhs(spec, U, V).ravel()])

    elif spec.system in _PARTICLE:
        acc = _particle_acceleration(spec)
        field = lambda t, y: np.concatenate([y[n:], acc(y[:n], y[n:])])
    else:
        field = lambda t, y: np.concatenate([y[n:], _coefficient_rhs(spec, y[:n], y[n:])])

    if time_path == "trick":
        return lambda t, y: field(t, y) * np.exp(1j * t)
    return field


def _closed_form_rcm(init: MatrixFlowState):
    """Harmonic matrix motion; no integration involved."""

    def at(t: float) -> tuple[np.ndarray, np.ndarray]:
        ct, st = np.cos(t), np.sin(t)
        return init.U * ct + init.Udot * st, -init.U * st + init.Udot * ct

    return at


def _matrix_flow_sampler(spec: ModelSpec, init: MatrixFlowState, t_samples, tol):
    """Return a callable ``t -> (U, Udot)`` covering ``t_samples``."""
    if spec.system is System.RCM:
        return _closed_form_rcm(init)
    mspec = _matrix_companion(spec)
    y0 = _state_vector(mspec, init)
    t0, t1 = float(t_samples[0]), float(t_samples[-1])
    rhs = _first_order_rhs(mspec, None)
    if t1 > t0:
        _, dense = integrate_ode(rhs, y0, (t0, t1), tol=tol, t_eval=[t0, t1], return_dense=True)
    else:
        dense = None
    n = spec.N

    def at(t: float):
        if dense is None or t == t0:
            y = y0
        else:
            y = dense(t)
        return y[: n * n].reshape(n, n), y[n * n :].reshape(n, n)

    return at


def _matrix_companion(spec: ModelSpec) -> ModelSpec:
    if spec.system in (System.GOLD, System.ALTGOLD):
        return ModelSpec(System.MATRIX_U, spec.N, a2=spec.a2)
    if spec.system in (System.ISOGOLD, System.ALTISOGOLD):
        return ModelSpec(System.MATRIX_UTILDE, spec.N)
    if spec.system in (System.GENERAL_GOLD, System.RCM, System.VESELOV):
        return ModelSpec(System.MATRIX_GENERAL, spec.N, phi_poly=spec.phi_coeffs())
    raise ValueError(f"{spec.system.value} has no matrix companion")


def _eigen_velocities(R: np.ndarray, Udot: np.ndarray) -> np.ndarray:
    """Velocities of the eigenvalue branches whose eigenvectors are the
    columns of ``R``, in that order.

    Uses the similarity-transport identity: the branch velocities are the
    diagonal entries of ``R^-1 Udot R``.
    """
    return np.diag(np.linalg.solve(R, Udot @ R)).copy()


def simulate(
    spec: ModelSpec,
    state0,
    t_samples,
    method: str = "direct",
    tol: float = 1e-10,
    time_path: str | None = None,
) -> SimulationResult:
    """Evolve ``state0`` and sample the solution at ``t_samples``.

    ``method="direct"`` integrates the stated equations of motion as a
    first-order complex system.  ``method="spectral"`` integrates the
    matrix companion instead (closed form for ``RCM``) and extracts the
    sampled state from its spectrum: tracked eigenvalue branches for
    particle systems, characteristic-polynomial coefficients for the
    coefficient systems.  ``time_path="trick"`` (direct method only)
    integrates along the complex path ``tau(t) = i (1 - exp(i t))``
    parametrised by the real ``t_samples``; any other ``time_path`` but
    ``None`` (real time) is a ``ValueError``.
    """
    method = method.lower()
    if time_path not in (None, "trick"):
        raise ValueError(f"unknown time path {time_path!r}")
    t_samples = np.asarray(t_samples, dtype=float)
    if t_samples.ndim != 1 or t_samples.size < 1:
        raise ValueError("t_samples must be a non-empty 1-d array")
    y0 = _state_vector(spec, state0)
    n = spec.N

    if method == "direct":
        t0, t1 = float(t_samples[0]), float(t_samples[-1])
        if t1 == t0:
            traj = Trajectory(t_samples, np.array([y0]))
        else:
            on_step = None
            if spec.system in _PARTICLE:
                check = _distinct_check(n)
                check(y0[:n])
                on_step = lambda t, y: check(y[:n])
            rhs = _first_order_rhs(spec, time_path)
            traj = integrate_ode(rhs, y0, (t0, t1), tol=tol, t_eval=t_samples, on_step=on_step)
        return SimulationResult(spec, method, traj)

    if method != "spectral":
        raise ValueError(f"unknown method {method!r}")
    if time_path is not None:
        raise ValueError("the spectral method runs in real time only")
    if spec.system not in _SPECTRAL_OK:
        raise ValueError(f"{spec.system.value} has no matrix companion")
    if t_samples[0] != 0.0:
        raise ValueError("spectral sampling must start at t = 0 (the initial data time)")

    if spec.system in _COEFFICIENT:
        conv = TILDE if spec.system is System.ALTISOGOLD else PLAIN
        poly = MonicPolynomial(np.concatenate([[1.0 + 0j], y0[:n]]), conv)
        z0 = find_roots(poly, tol=_ROOT_TOL)
        _distinct_check(z0.size)(z0)
        # velocity of each zero from the coefficient velocities:
        # zdot_k = -psi_t(z_k) / psi'(z_k)
        plaind = conv.unstrip(np.concatenate([[0.0 + 0j], y0[n:]]))[1:]
        num = np.polyval(plaind, z0)
        particle0 = ParticleState(z0, -num / _simple_zero_slopes(poly, z0))
        particle_system = System.GOLD if spec.system is System.ALTGOLD else System.ISOGOLD
        pspec = ModelSpec(particle_system, spec.N, a2=spec.a2)
    else:
        particle0 = state0
        pspec = spec

    init = build_matrix_initial_data(pspec, particle0)
    sampler = _matrix_flow_sampler(pspec, init, t_samples, tol)
    # each requested sample is evaluated and decomposed once, and the walk's
    # slots label its eigenvectors; only refinement asks for more frames
    flows = [sampler(float(t)) for t in t_samples]
    decomps = [_lapack(np.linalg.eig, U) for U, _ in flows]
    frames = [vals for vals, _ in decomps]
    tracked = _walk(t_samples, frames, lambda t: eigenvalues(sampler(t)[0]))

    rows = []
    for j, ((_, Udot), (_, vecs)) in enumerate(zip(flows, decomps)):
        order = tracked.paths[:, j]
        zdot = _eigen_velocities(vecs[:, tracked.slots[:, j]], Udot)
        if spec.system in _COEFFICIENT:
            cvals = from_roots(order, conv).coeffs[1:]
            cdots = coeff_velocities(order, zdot, conv)
            rows.append(np.concatenate([cvals, cdots]))
        else:
            rows.append(np.concatenate([order, zdot]))
    traj = Trajectory(t_samples, np.array(rows))
    return SimulationResult(spec, method, traj, tracked)


def eigenvalue_paths(result: SimulationResult) -> TrackedPaths:
    """Tracked eigenvalue branches of a sampled matrix-flow trajectory."""
    if result.spec.system not in _MATRIX:
        raise ValueError("eigenvalue_paths expects a matrix-flow result")
    n = result.spec.N
    frames = [eigenvalues(row[: n * n].reshape(n, n)) for row in result.trajectory.states]
    return _walk(result.trajectory.times, frames)


# ---------------------------------------------------------------------------
# periodicity


@dataclass(frozen=True)
class PeriodReport:
    """Smallest integer period multiple found, with the residual deviation."""

    p: int | None
    deviation: float
    candidates: tuple[tuple[int, float], ...] = ()


def detect_period(
    traj: Trajectory,
    kind: str,
    p_max: int = 1,
    tol: float = 1e-6,
) -> PeriodReport:
    """Smallest ``p <= p_max`` with ``state(t + p T) = state(t)`` over one
    base period ``T = 2 pi``, within ``tol``.

    ``kind`` is ``"particle"`` or ``"coefficient"`` (any other string is
    a ``ValueError``).  Both kinds compare componentwise: direct
    trajectories and tracked spectral branches carry coherent labels, and
    complete periodicity means every labelled component returns (a label
    exchange lengthens the period, which is exactly the integer this
    routine measures; a multiset comparison would be blind to exchanges).
    For particle states a per-sample assignment deviation is also recorded
    so that near-coincident branches do not inflate the reported
    deviation.  The trajectory must be uniformly sampled with an integer
    number of samples per base period and must span ``p_max + 1`` base
    periods.
    """
    if kind not in ("particle", "coefficient"):
        raise ValueError(f"unknown trajectory kind {kind!r}")
    if p_max < 1:
        raise ValueError(f"p_max must be at least 1, got {p_max}")
    times = traj.times
    if times.size < 3:
        raise ValueError("trajectory too short for period detection")
    dt = times[1] - times[0]
    if np.max(np.abs(np.diff(times) - dt)) > 1e-9 * max(1.0, abs(dt)):
        raise ValueError("period detection requires uniform sampling")
    k = int(round(2 * np.pi / dt))
    if k < 2 or abs(k * dt - 2 * np.pi) > 1e-8 * 2 * np.pi:
        raise ValueError("sampling grid does not divide the base period")
    half = traj.dim // 2

    def deviation(p: int) -> float:
        shift = p * k
        if shift + k > times.size - 1:
            raise ValueError(
                f"trajectory too short: need {p + 1} base periods for p = {p}"
            )
        worst = 0.0
        for j in range(k):
            a, b = traj.states[j], traj.states[j + shift]
            if kind == "particle":
                za, va = a[:half], a[half:]
                zb, vb = b[:half], b[half:]
                cost = np.abs(za[:, None] - zb[None, :])
                _, cols = linalg._assignment()(cost)
                # a relabeling is admissible only between branches that
                # coincide within tol; genuine exchanges lengthen p
                if all(c == i or abs(za[i] - za[c]) <= tol for i, c in enumerate(cols)):
                    dev = max(
                        float(np.max(np.abs(za - zb[cols]))),
                        float(np.max(np.abs(va - vb[cols]))),
                    )
                else:
                    dev = max(
                        float(np.max(np.abs(za - zb))), float(np.max(np.abs(va - vb)))
                    )
            else:
                dev = float(np.max(np.abs(a - b)))
            worst = max(worst, dev)
        return worst

    candidates = []
    for p in range(1, p_max + 1):
        dev = deviation(p)
        candidates.append((p, dev))
        if dev <= tol:
            return PeriodReport(p, dev, tuple(candidates))
    best = min(candidates, key=lambda c: c[1])
    return PeriodReport(None, best[1], tuple(candidates))


# ---------------------------------------------------------------------------
# structural identities checked by ``goldfish verify``


def residual_rank_one(spec: ModelSpec, state: ParticleState) -> float:
    """Largest 2x2 minor of ``B = Udot(0) + f(U(0))``.

    The goldfish selection condition makes ``B`` a rank-one dyad, so all
    its 2x2 minors must vanish.
    """
    init = build_matrix_initial_data(spec, state)
    B = init.Udot + np.diag(spec.f_of(state.z))
    n = B.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    worst = max(worst, abs(B[i, k] * B[j, l] - B[i, l] * B[j, k]))
    return worst


def residual_coupling_identity(alpha, beta, gamma, pairs) -> float:
    """Residual of ``f'(x) + f'(y) = 2 (f(x) - f(y)) / (x - y)``.

    Exact for quadratics, which is precisely the selection result for the
    gauge function family.
    """

    def f(x):
        return alpha + beta * x + gamma * x * x

    def fp(x):
        return beta + 2 * gamma * x

    worst = 0.0
    for x, y in pairs:
        if x == y:
            raise ValueError("pairs must have x != y")
        worst = max(worst, abs(fp(x) + fp(y) - 2 * (f(x) - f(y)) / (x - y)))
    return worst
