"""Independent reference implementations the tests compare the library with.

Each coefficient recurrence is written out here by hand, term by term,
with its own padding closures: the library writes each recurrence once
and derives the equations of motion, the equilibrium residuals and the
small-oscillation pencil from it, so these hand-written forms are the
oracle for every derived consumer.

The exact spectral kernels are kept here in their ``Fraction`` form (a
rational matrix per determinant node, one rational Lagrange basis at a
time, a root scan that restarts after every root, the conjectured
product as a chain of ``Fraction`` polynomial products): the library runs
the same computations on plain integers and must reproduce these results
exactly.  The isochronous equilibria are kept here as the paper's
binomial closed forms, one per core degree, over a falling-factorial
binomial: the library derives every one of them from the core recurrence
as a single series.  The rational-time families are kept here as
closed forms too, the tail family by its hand-solved ``(z + a)``-basis
coefficients, each family's inner factor convolved with the
double-binomial coefficients of ``(z - a)^mu (z + a)^k`` on integers: the
library solves the tail family's recurrence and multiplies by linear
factors.  The rational-time recurrence itself is kept here as a
``Fraction`` solver of its own, with its exact residuals.  The polynomial
sum and product the tests build expected polynomials with live here too,
and so do the Sylvester determinant of ``P`` and ``P'`` and Euclid over
the rationals for ``deg gcd(P, P')``, the independent checks of the
library's squarefree genuineness test, which takes one integer gcd.

The simulation path is kept here in its per-state form (particle
accelerations read the spec's constants on every call, eigenvalue paths
are tracked again over the whole frame list after every inserted
midpoint): the library's compiled right-hand side and its local
refinement must reproduce these results bit for bit.  The compiled
particle field is kept here in its scalar-constant form too (Python
constants, the diagonal overwritten before and after each pair divide):
the library binds array constants and divides under a mask, and must
give the same floats bit for bit.  The frame-by-frame
tracking loop is kept here too, so that the walker the library's
tracking and spectral route share is checked against a loop of its own,
and so are the spectral branch velocities from a second decomposition of
every sample, matched to the branches by an assignment of its own: the
library labels the eigenvectors of its one decomposition with the
walker's slots and must give the same velocities bit for bit.  The
integrator is kept here as a wrapper over scipy's ``solve_ivp`` that
learns the last accepted time from an event function which never fires:
the library's own loop over the ``DOP853`` stepper must reproduce its
samples, interpolant, failure time and accepted steps bit for bit.

The paper identities that no report uses live here too: the
generating-polynomial residual of the coefficient dynamics, the quartic
ODE of the two-body leading coefficient, the off-diagonal compatibility
identity of the matrix ansatz, the algebraic system of the isochronous core
zeros and the order of a monodromy permutation.  The tests check the
library's trajectories, equilibria and tracked branches against them; a
paper identity returns to the library only when a report uses it.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from goldfish.dynamics import ModelSpec, ParticleState, System, eval_rhs
from goldfish.linalg import (
    AmbiguousTrackingError,
    MovableSingularityError,
    TrackedPaths,
    Trajectory,
    _match_step,
    eigenvalues,
)
from goldfish.equilibria import (
    DEFAULT_FREE_SAMPLES,
    EquilibriumConfig,
    Family,
    RecursionSolution,
    solve_phi_recursion,
)
from goldfish.polynomials import IntegerPolynomial, RationalMatrix, _horner
from goldfish.spectrum import QuadraticPencil


def _pair_sum(z, w):
    """``out_n = sum_{m != n} w_n w_m / (z_n - z_m)``."""
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    terms = w[None, :] / diff
    np.fill_diagonal(terms, 0.0)
    return w * np.sum(terms, axis=1)


def _inverse_cube_sum(z):
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    inv = 1.0 / diff ** 3
    np.fill_diagonal(inv, 0.0)
    return np.sum(inv, axis=1)


def _phi_of(spec, x):
    acc = np.zeros_like(np.asarray(x, dtype=complex))
    for coef in reversed(spec.phi_coeffs()):
        acc = acc * x + coef
    return acc


def particle_rhs(spec, z, v):
    """Accelerations ``zddot_1..zddot_N`` of the particle systems."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if spec.system in (System.GOLD, System.GENERAL_GOLD):
        w = v + spec.f_of(z)
        return _phi_of(spec, z) + 2 * _pair_sum(z, w)
    if spec.system is System.ISOGOLD:
        w = v - 1j * z + z * z
        return 3j * v + 2 * z * (1 + z * z) + 2 * _pair_sum(z, w)
    # RCM / VESELOV: inverse-cube pair force
    return _phi_of(spec, z) - 2 * spec.g ** 2 * _inverse_cube_sum(z)


def particle_acceleration_reference(spec: ModelSpec):
    """``acc(z, v)`` of ``spec`` with Python-scalar constants and the
    diagonal overwritten before and after each pair divide."""
    diag = slice(None, None, spec.N + 1)

    def pair_sum(z, w):
        # out_n = sum_{m != n} w_n w_m / (z_n - z_m)
        diff = z[:, None] - z[None, :]
        diff.flat[diag] = 1.0
        terms = w[None, :] / diff
        terms.flat[diag] = 0.0
        return w * np.add.reduce(terms, axis=1)

    if spec.system is System.ISOGOLD:

        def acc(z, v):
            w = v - 1j * z + z * z
            return 3j * v + 2 * z * (1 + z * z) + 2 * pair_sum(z, w)

        return acc

    phi_coeffs = spec.phi_coeffs()

    def phi(z):
        return _horner(phi_coeffs, z)

    if spec.system in (System.GOLD, System.GENERAL_GOLD):
        a, b, c = spec.f_abc()

        def acc(z, v):
            w = v + (a + b * z + c * z * z)
            return phi(z) + 2 * pair_sum(z, w)

        return acc

    # RCM / VESELOV: inverse-cube pair force
    k = 2 * spec.g ** 2

    def acc(z, v):
        diff = z[:, None] - z[None, :]
        diff.flat[diag] = 1.0
        inv = 1.0 / diff ** 3
        inv.flat[diag] = 0.0
        return phi(z) - k * np.add.reduce(inv, axis=1)

    return acc


def track(frames, times):
    """Eigenvalue branches of a frame list, matched frame by frame into a
    preallocated path array; no refinement."""
    frames = [np.asarray(fr, dtype=complex) for fr in frames]
    paths = np.empty((frames[0].size, len(frames)), dtype=complex)
    slots = np.empty(paths.shape, dtype=int)
    paths[:, 0] = frames[0]
    slots[:, 0] = np.arange(frames[0].size)
    for j in range(1, len(frames)):
        slots[:, j] = _match_step(paths[:, j - 1], frames[j], j - 1)
        paths[:, j] = frames[j][slots[:, j]]
    return TrackedPaths(np.asarray(times, dtype=float), paths, slots)


def spectral_frames(sampler, t_samples, max_refine=4000):
    """Eigenvalue branches over ``t_samples``: after every midpoint
    inserted between ambiguous neighbours, the whole frame list is
    tracked again from the start."""
    times = [float(t) for t in t_samples]
    requested = set(times)
    frames = {t: eigenvalues(sampler(t)[0]) for t in times}
    inserted = 0
    while True:
        ts = sorted(frames)
        try:
            tracked = track([frames[t] for t in ts], ts)
        except AmbiguousTrackingError as exc:
            if inserted >= max_refine:
                raise
            lo, hi = ts[exc.index], ts[exc.index + 1]
            mid = 0.5 * (lo + hi)
            if mid in frames or hi - lo < 1e-12:
                raise
            frames[mid] = eigenvalues(sampler(mid)[0])
            inserted += 1
            continue
        keep = [j for j, t in enumerate(ts) if t in requested]
        return TrackedPaths(np.asarray(times), tracked.paths[:, keep], tracked.slots[:, keep])


def eigen_velocities(U, Udot, order):
    """Velocities of the eigenvalue branches ``order`` of ``U``: a second
    decomposition of ``U``, its eigenvalues matched to ``order`` by a
    minimum-cost assignment, then the diagonal of ``R^-1 Udot R`` with the
    eigenvectors ``R`` arranged in branch order."""
    vals, vecs = np.linalg.eig(U)
    cost = np.abs(order[:, None] - vals[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(len(vals), dtype=int)
    perm[rows] = cols
    R = vecs[:, perm]
    W = np.linalg.solve(R, Udot @ R)
    return np.diag(W).copy()


def coefficient_rhs(spec, c, cdot):
    """Accelerations ``cddot_1..cddot_N`` of the coefficient systems."""
    N = spec.N

    def C(m):
        if m == 0:
            return 1.0 + 0.0j
        return c[m - 1] if 1 <= m <= N else 0.0 + 0.0j

    def Cd(m):
        return cdot[m - 1] if 1 <= m <= N else 0.0 + 0.0j

    out = np.empty(N, dtype=complex)
    if spec.system in (System.ALTGOLD, System.GAMMATAU):
        a2 = spec.a2
        for m in range(1, N + 1):
            out[m - 1] = -(
                2 * (m - 1) * Cd(m + 1)
                - 2 * C(1) * Cd(m)
                + 2 * (N + 1 - m) * a2 * Cd(m - 1)
                + (m + 2) * (m - 3) * C(m + 2)
                - 2 * (m - 1) * C(1) * C(m + 1)
                + 2 * (m * (N + 2 - m) * a2 + Cd(1) - C(1) ** 2 + 3 * C(2)) * C(m)
                - 2 * (N + 1 - m) * a2 * C(1) * C(m - 1)
                + (N + 2 - m) * (N + 1 - m) * a2 ** 2 * C(m - 2)
            )
    else:  # ALTISOGOLD
        for m in range(1, N + 1):
            out[m - 1] = -(
                2 * (m - 1) * 1j * Cd(m + 1)
                - (2 * m + 1 + 2 * C(1)) * 1j * Cd(m)
                - (m + 2) * (m - 3) * C(m + 2)
                + 2 * (m - 1) * (m + 1 + C(1)) * C(m + 1)
                + (-m * (m + 1) + 2j * Cd(1) - 2 * (m - 1) * C(1) + 2 * C(1) ** 2 - 6 * C(2))
                * C(m)
            )
    return out


def equilibrium_residual(config):
    """Exact residuals of the static coefficient equations at ``config.cbar``."""
    N = config.N
    cb = config.cbar

    def C(m):
        if m == 0:
            return Fraction(1)
        return cb[m - 1] if 1 <= m <= N else Fraction(0)

    out = []
    if config.family is Family.ISO:
        for m in range(1, N + 1):
            out.append(
                -Fraction((m + 2) * (m - 3)) * C(m + 2)
                + 2 * Fraction(m - 1) * (Fraction(m + 1) + C(1)) * C(m + 1)
                + (
                    -Fraction(m * (m + 1))
                    - 2 * Fraction(m - 1) * C(1)
                    + 2 * C(1) ** 2
                    - 6 * C(2)
                )
                * C(m)
            )
    else:
        a2 = Fraction(config.free["a"]) ** 2
        for m in range(1, N + 1):
            out.append(
                Fraction((m + 2) * (m - 3)) * C(m + 2)
                - 2 * Fraction(m - 1) * C(1) * C(m + 1)
                + 2 * (Fraction(m * (N + 2 - m)) * a2 - C(1) ** 2 + 3 * C(2)) * C(m)
                - 2 * Fraction(N + 1 - m) * a2 * C(1) * C(m - 1)
                + Fraction((N + 2 - m) * (N + 1 - m)) * a2 ** 2 * C(m - 2)
            )
    return tuple(out)


def pencil(cbar) -> QuadraticPencil:
    """Assemble ``A`` and ``B`` componentwise from the equilibrium
    coefficients ``cbar_1..cbar_N`` (``cbar_{N+1}`` is zero where the
    construction references it)."""
    cb = tuple(Fraction(x) for x in cbar)
    N = len(cb)

    def c(m: int) -> Fraction:
        if m == 0:
            return Fraction(1)
        return cb[m - 1] if 1 <= m <= N else Fraction(0)

    A = [[Fraction(0)] * N for _ in range(N)]
    B = [[Fraction(0)] * N for _ in range(N)]
    for n in range(1, N + 1):
        for m in range(1, N + 1):
            v = Fraction(0)
            if m == n + 1:
                v += 2 * (n - 1)
            if m == n:
                v += -(2 * n + 1 + 2 * c(1))
            if m == 1:
                v += 2 * c(n)
            A[n - 1][m - 1] = v
            w = Fraction(0)
            if m == n + 2:
                w += (n + 2) * (n - 3)
            if m == n + 1:
                w += -2 * (n - 1) * (n + 1 + c(1))
            if m == n:
                w += n * (n + 1) + 2 * (n - 1) * c(1) - 2 * c(1) ** 2 + 6 * c(2)
            if m == 1:
                w += 2 * (-(n - 1) * c(n + 1) + (n - 1 - 2 * c(1)) * c(n))
            if m == 2:
                w += 6 * c(n)
            B[n - 1][m - 1] = w
    return QuadraticPencil(tuple(map(tuple, A)), tuple(map(tuple, B)))


def linearized_apply(cbar, r, p):
    """Apply the linearised small-oscillation operator directly.

    Written from the recurrence form of the linearised equations (with
    the boundary values zeroed) rather than the assembled matrices; it
    must agree with ``(p^2 + A p + B) r`` componentwise.
    """
    cb = [complex(Fraction(x)) for x in cbar]
    N = len(cb)
    r = np.asarray(r, dtype=complex)

    def c(m: int) -> complex:
        if m == 0:
            return 1.0 + 0.0j
        return cb[m - 1] if 1 <= m <= N else 0.0 + 0.0j

    def R(m: int) -> complex:
        return r[m - 1] if 1 <= m <= N else 0.0 + 0.0j

    out = np.empty(N, dtype=complex)
    for m in range(1, N + 1):
        out[m - 1] = (
            p * p * R(m)
            + 2 * (m - 1) * p * R(m + 1)
            - (2 * m + 1 + 2 * c(1)) * p * R(m)
            + 2 * p * c(m) * R(1)
            + (m + 2) * (m - 3) * R(m + 2)
            - 2 * (m - 1) * (m + 1 + c(1)) * R(m + 1)
            + (m * (m + 1) + 2 * (m - 1) * c(1) - 2 * c(1) ** 2 + 6 * c(2)) * R(m)
            - 2 * ((m - 1) * c(m + 1) - (m - 1 - 2 * c(1)) * c(m)) * R(1)
            + 6 * c(m) * R(2)
        )
    return out


def altgold_binomial_closed_form(N: int, a, mu: int):
    """Binomial-family coefficients from the double-binomial closed form
    (independent of the polynomial expansion)."""
    a = Fraction(a)
    out = []
    for m in range(1, N + 1):
        s = Fraction(0)
        for el in range(max(0, m + mu - N), min(mu, m) + 1):
            s += Fraction(-1) ** el * math.comb(mu, el) * math.comb(N - mu, m - el)
        out.append(a ** m * s)
    return tuple(out)


def altgold_closed_form(family: Family, N: int, a, mu: int, nu: int = 0, c=Fraction(0)):
    """Rational-time family coefficients from the closed forms, on integers.

    ``psi = inner(z) (z - a)^mu (z + a)^k``, and the coefficient of
    ``z^(mu + k - m)`` in the binomial part is ``a^m s_m`` with the
    double-binomial ``s_m = sum_l (-1)^l C(mu, l) C(k, m - l)``.  With
    ``a = p/q``, ``inner``'s coefficient of ``z^(deg inner - i)`` times
    ``q^i`` is ``K_i / D`` for integers ``K_i``, so
    ``c_j = sum_i K_i p^(j - i) s_(j - i) / (D q^j)``.  The tail family's
    inner factor is ``sum_j b_j a^j (z + a)^(nu - j)`` with the hand-solved
    ``b_0..b_4 = 1, -nu, nu (nu - 1)/3, 0, 0`` and
    ``b_(e + 5) = c (-2)^e C(nu - 5, e) / ((e + 5)(e + 4)(e + 3))``, whose
    coefficient of ``z^(nu - i)`` is ``a^i sum_j b_j C(nu - j, i - j)``."""
    p, q = Fraction(a).as_integer_ratio()
    r, s = Fraction(c).as_integer_ratio()
    if family is Family.ALTGOLD_BINOMIAL:
        K, D = [1], 1
    elif family is Family.ALTGOLD_NU2:
        # (1, c, (c^2 - a^2)/3) times (1, q, q^2) and D = 3 s^2
        K, D = [3 * s * s, 3 * r * s * q, r * r * q * q - p * p * s * s], 3 * s * s
    else:
        cubes = [(e + 5) * (e + 4) * (e + 3) for e in range(nu - 4)]
        D = 3 * s * math.lcm(*cubes)
        b = [D, -D * nu, D // 3 * nu * (nu - 1), 0, 0] + [
            D // s * r * (-2) ** e * math.comb(nu - 5, e) // cube for e, cube in enumerate(cubes)
        ]
        K = [
            p**i * sum(b[j] * math.comb(nu - j, i - j) for j in range(i + 1))
            for i in range(nu + 1)
        ]
    k = N - mu - (len(K) - 1)
    ps = []  # p^m s_m
    for m in range(mu + k + 1):
        terms = range(min(mu, m) + 1)
        ps.append(p**m * sum((-1) ** el * math.comb(mu, el) * math.comb(k, m - el) for el in terms))
    out = []
    for j in range(1, N + 1):
        terms = range(max(0, j - mu - k), min(j, len(K) - 1) + 1)
        out.append(Fraction(sum(K[i] * ps[j - i] for i in terms), D * q**j))
    return tuple(out)


def enumerate_altgold_equilibria(N: int, a, free_samples=DEFAULT_FREE_SAMPLES):
    """The rational-time equilibrium cells from :func:`altgold_closed_form`,
    one loop per family: the binomial family by ``mu``, then the quadratic
    family and the tail families by ``(nu,) mu`` and free constant."""
    a = Fraction(a)
    configs = []
    for mu in range(N + 1):
        cbar = altgold_closed_form(Family.ALTGOLD_BINOMIAL, N, a, mu)
        configs.append(EquilibriumConfig(Family.ALTGOLD_BINOMIAL, N, 0, mu, {"a": a}, cbar))
    if N >= 2:
        for mu in range(N - 1):
            for c in free_samples:
                cbar = altgold_closed_form(Family.ALTGOLD_NU2, N, a, mu, c=c)
                free = {"a": a, "c": Fraction(c)}
                configs.append(EquilibriumConfig(Family.ALTGOLD_NU2, N, 2, mu, free, cbar))
    for nu in range(5, N + 1):
        for mu in range(N - nu + 1):
            for c in free_samples:
                cbar = altgold_closed_form(Family.ALTGOLD_NU5PLUS, N, a, mu, nu=nu, c=c)
                free = {"a": a, "c": Fraction(c)}
                configs.append(EquilibriumConfig(Family.ALTGOLD_NU5PLUS, N, nu, mu, free, cbar))
    return configs


def exact_binomial(x, k: int) -> Fraction:
    """Binomial coefficient as a falling-factorial product over the
    rationals; zero for negative ``k``."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    x = Fraction(x)
    for j in range(k):
        num *= x - j
    return num / math.factorial(k)


def iso_closed_form(nu: int, mu, N: int, c=Fraction(0)):
    """Isochronous equilibrium coefficients ``c_1..c_N`` (TILDE) from the
    paper's binomial closed forms, one per core degree, for any rational
    ``mu`` (the ``nu = 5`` free constant ``c`` enters with ``phi_5 = -(1 + c)``)."""
    mu = Fraction(mu)
    B = exact_binomial
    out = []
    for m in range(1, N + 1):
        if nu == 0:
            val = B(mu, m)
        elif nu == 1:
            val = B(mu - 2, m) - B(mu - 2, m - 2)
        elif nu == 3:
            val = (
                B(mu - 3, m)
                + 6 * B(mu - 3, m - 1)
                + 14 * B(mu - 3, m - 2)
                + 14 * B(mu - 3, m - 3)
            )
        elif nu == 4:
            val = sum(B(mu - 4, m - k) * math.comb(5, k) for k in range(5))
        elif nu == 5:
            val = Fraction(c) * B(mu - 5, m - 5) + sum(
                B(mu - 5, m - k) * math.comb(5, k) for k in range(6)
            )
        else:
            raise ValueError(f"no closed form for nu = {nu}")
        out.append((-1) ** m * val)
    return tuple(out)


def iso_series(nu: int, mu, N: int, c=Fraction(0)):
    """``c_1..c_N`` of ``phi_{nu,c}(x) (1 - x)^(mu - nu)`` with one
    ``Fraction`` per binomial term and per product, summed term by term."""
    phi = solve_phi_recursion(nu, c).coefficients
    r = Fraction(mu) - nu
    binom = [Fraction(1)]  # binom[j]: coefficient of x^j in (1 - x)^r
    for j in range(1, N + 1):
        binom.append(binom[-1] * (j - 1 - r) / j)
    return tuple(
        sum(phi[k] * binom[m - k] for k in range(min(m, nu) + 1)) for m in range(1, N + 1)
    )


def bareiss_det(rows) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination, with the
    matrix rescaled to integers by the lcm of its own denominators."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    den = 1
    fr = [[Fraction(x) for x in row] for row in rows]
    for row in fr:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    m = [[int(x * den) for x in row] for row in fr]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], den ** n)


def lagrange_interpolate(points, values, degree: int) -> IntegerPolynomial:
    """Exact Lagrange interpolation through ``degree + 1`` nodes, one
    ``Fraction`` basis at a time."""
    acc = [Fraction(0)] * (degree + 1)
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                new[k] += -xj * b
                new[k + 1] += b
            basis = new
            denom *= xi - xj
        w = Fraction(yi) / denom
        for k, b in enumerate(basis):
            acc[k] += w * b
    return IntegerPolynomial(tuple(acc))


def fraction_rows(M) -> list[list[Fraction]]:
    """The entries of ``M`` as ``Fraction`` rows: a ``RationalMatrix`` read
    through its ``numerators`` over its ``denominator``, or nested rationals."""
    if isinstance(M, RationalMatrix):
        return [[Fraction(a, M.denominator) for a in row] for row in M.numerators]
    return [list(map(Fraction, row)) for row in M]


def charpoly(A, B) -> IntegerPolynomial:
    """``det(p^2 I + p A + B)``: a ``Fraction`` matrix per node ``-N..N``,
    each determinant by :func:`bareiss_det`, then :func:`lagrange_interpolate`."""
    A, B = fraction_rows(A), fraction_rows(B)
    n = len(A)

    def det_at(p: int) -> Fraction:
        p = Fraction(p)
        m = [
            [(p * p if i == j else Fraction(0)) + p * A[i][j] + B[i][j] for j in range(n)]
            for i in range(n)
        ]
        return bareiss_det(m)

    points = list(range(-n, n + 1))
    poly = lagrange_interpolate(points, [det_at(p) for p in points], 2 * n)
    assert poly(n + 1) == det_at(n + 1)
    return poly


def _root_bound(q: IntegerPolynomial) -> int:
    """The smaller of the Cauchy and Fujiwara root bounds, plus one."""
    c = q.coeffs
    n = q.degree
    lead = abs(c[-1])
    cauchy = 1 + max(abs(a) / lead for a in c[:-1]) if n >= 1 else Fraction(0)
    fuji = 0.0
    for k in range(1, n + 1):
        a = abs(c[n - k] / lead)
        if a:
            fuji = max(fuji, float(a) ** (1.0 / k))
    bound = min(float(cauchy), 2.0 * fuji)
    return int(math.floor(bound)) + 1


def deflate(poly: IntegerPolynomial, root) -> IntegerPolynomial:
    """Exact synthetic division by ``(x - root)``; root must divide."""
    r = Fraction(root)
    c = poly.coeffs
    q = [Fraction(0)] * (len(c) - 1)
    carry = Fraction(0)
    for k in range(len(c) - 1, 0, -1):
        carry = c[k] + carry * r
        q[k - 1] = carry
    rem = c[0] + carry * r
    if rem != 0:
        raise ValueError(f"{root} is not a root (remainder {rem})")
    return IntegerPolynomial(tuple(q))


def integer_roots(q: IntegerPolynomial):
    """All integer roots and the deflated remainder, by ``Fraction``
    evaluation: after each root found, deflate its full multiplicity and
    rescan a fresh window from its lower end."""
    roots = []
    rem = q
    while rem.degree >= 1:
        bound = _root_bound(rem)
        found = None
        for r in range(-bound, bound + 1):
            if rem(r) == 0:
                found = r
                break
        if found is None:
            break
        while rem.degree >= 1 and rem(found) == 0:
            roots.append(found)
            rem = deflate(rem, found)
    return sorted(roots), rem


def poly_str(coeffs) -> str:
    """The text of the rational polynomial with ascending ``coeffs``,
    formatted term by term through ``Fraction`` comparisons and ``abs``:
    highest power first, a unit coefficient omitted except on the constant,
    ``n/d`` for non-integers, the zero polynomial as ``0``."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return "0"
    parts = []
    for k in range(len(c) - 1, -1, -1):
        a = c[k]
        if a == 0:
            continue
        mag = abs(a)
        coef = "" if (mag == 1 and k > 0) else str(mag)
        if k == 0:
            term = str(mag)
        elif k == 1:
            term = f"{coef}p" if coef else "p"
        else:
            term = f"{coef}p^{k}" if coef else f"p^{k}"
        sign = "-" if a < 0 else "+"
        parts.append((sign, term))
    sign0, term0 = parts[0]
    text = ("-" if sign0 == "-" else "") + term0
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def poly_add(p: IntegerPolynomial, q: IntegerPolynomial) -> IntegerPolynomial:
    """Coefficientwise sum of two exact polynomials."""
    pairs = itertools.zip_longest(p.coeffs, q.coeffs, fillvalue=Fraction(0))
    return IntegerPolynomial(tuple(x + y for x, y in pairs))


def _schoolbook(p, q) -> list[Fraction]:
    """Schoolbook product of two coefficient lists (same order)."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_mul(p: IntegerPolynomial, q: IntegerPolynomial) -> IntegerPolynomial:
    """Schoolbook product of two exact polynomials."""
    return IntegerPolynomial(tuple(_schoolbook(p.coeffs, q.coeffs)))


def conjecture_215_product(nu: int, mu: int, N: int) -> IntegerPolynomial:
    """The conjectured product, one ``Fraction`` polynomial product per
    linear factor (empty products are one)."""
    roots = []
    if nu == 0:
        for n in range(1, N - mu + 1):
            roots += [n, n + 1]
        for n in range(1, mu + 1):
            roots += [-n, 5 - n]
    elif nu == 1:
        roots += [-1, 4]
        for n in range(1, N - mu + 1):
            roots += [n, n + 5]
        for n in range(1, mu):
            roots += [-n, 7 - n]
    elif nu == 3:
        roots += [-1, 4]
        for n in range(1, N - mu + 1):
            roots += [n, n - 5]
        for n in range(1, mu):
            roots += [-n, n - mu + 7]
    elif nu == 4:
        roots += [-1]
        for n in range(1, 4):
            roots += [n + 1]
        for n in range(1, N - mu + 1):
            roots += [n, n - 1]
        for n in range(1, mu - 3):
            roots += [-n]
        for n in range(1, mu + 1):
            roots += [-n - 1]
    elif nu == 5:
        for n in range(1, N - mu + 1):
            roots += [n, n + 1]
        for n in range(1, mu + 1):
            roots += [-n, n - mu + 4]
    else:
        raise ValueError(f"no conjectured product for nu = {nu}")
    acc = IntegerPolynomial((Fraction(1),))
    for r in roots:
        acc = poly_mul(acc, IntegerPolynomial((-Fraction(r), Fraction(1))))
    return acc


def gcd_degree(p, q) -> int:
    """Degree of ``gcd(p, q)`` by Euclid over the rationals (descending
    coefficient lists with nonzero leading coefficients)."""
    while q:
        r = list(p)
        while len(r) >= len(q):
            f = r[0] / q[0]
            for k in range(1, len(q)):
                r[k] -= f * q[k]
            r.pop(0)
        while r and r[0] == 0:
            r.pop(0)
        p, q = q, r
    return len(p) - 1


def distinct_roots(cbar) -> int:
    """Number of distinct zeros of ``P = (1, c_1, .., c_N)``, read as a
    descending polynomial: ``N - deg gcd(P, P')``, by :func:`gcd_degree`."""
    P = [Fraction(1), *map(Fraction, cbar)]
    dP = [(len(cbar) - k) * x for k, x in enumerate(P[:-1])]
    return len(cbar) - gcd_degree(P, dP)


def discriminant_vanishes(cbar) -> bool:
    """Whether ``P = (1, c_1, .., c_N)``, read as a descending polynomial,
    has a repeated zero: the determinant of the Sylvester matrix of ``P``
    and ``P'`` (their resultant), by :func:`bareiss_det`, is zero."""
    P = [Fraction(1), *map(Fraction, cbar)]
    N = len(P) - 1
    dP = [(N - k) * x for k, x in enumerate(P[:-1])]
    size = 2 * N - 1
    rows = [[Fraction(0)] * k + P + [Fraction(0)] * (N - 2 - k) for k in range(N - 1)]
    rows += [[Fraction(0)] * k + dP + [Fraction(0)] * (N - 1 - k) for k in range(N)]
    assert all(len(row) == size for row in rows)
    return bareiss_det(rows) == 0


# ---------------------------------------------------------------------------
# paper identities no report uses


def pde_residual(traj: Trajectory, spec: ModelSpec, z_samples) -> float:
    """Max residual of the generating-polynomial evolution equation.

    The sampled coefficient trajectory defines the monic polynomial
    ``psi(z, t)``; its z-derivatives are analytic, the first time
    derivative comes from the sampled velocities, and the second uses a
    centered five-point difference, so only interior samples contribute.
    """
    if spec.system not in (System.ALTGOLD, System.ALTISOGOLD, System.GAMMATAU):
        raise ValueError("pde_residual applies to the coefficient systems")
    N = spec.N
    times = traj.times
    c = traj.states[:, :N]
    cdot = traj.states[:, N:]
    z_samples = np.asarray(z_samples, dtype=complex)
    if times.size >= 5:
        h = times[1] - times[0]
        if np.max(np.abs(np.diff(times) - h)) > 1e-9 * max(1.0, abs(h)):
            raise ValueError("pde_residual requires uniform sampling")
        interior = range(2, times.size - 2)
        cddot = {
            j: (-c[j - 2] + 16 * c[j - 1] - 30 * c[j] + 16 * c[j + 1] - c[j + 2]) / (12 * h * h)
            for j in interior
        }
    else:
        # constant (equilibrium) input: all time derivatives vanish
        interior = range(times.size)
        cddot = {j: np.zeros(N, dtype=complex) for j in interior}

    powers = np.arange(N, -1, -1)

    def poly_eval(coeffs_full, z):
        return sum(coeffs_full[m] * z ** powers[m] for m in range(N + 1))

    worst = 0.0
    tilde = spec.system is System.ALTISOGOLD
    im = 1j ** np.arange(N + 1)
    for j in interior:
        c_full = np.concatenate([[1.0 + 0j], c[j]])
        cd_full = np.concatenate([[0.0 + 0j], cdot[j]])
        cdd_full = np.concatenate([[0.0 + 0j], cddot[j]])
        if tilde:
            pc, pcd, pcdd = im * c_full, im * cd_full, im * cdd_full
        else:
            pc, pcd, pcdd = c_full, cd_full, cdd_full
        c1, c2 = c[j][0], (c[j][1] if N >= 2 else 0.0)
        c1d = cdot[j][0]
        for z in z_samples:
            psi = poly_eval(pc, z)
            psi_t = poly_eval(pcd, z)
            psi_tt = poly_eval(pcdd, z)
            psi_z = sum(pc[m] * (N - m) * z ** (N - m - 1) for m in range(N))
            psi_zz = sum(
                pc[m] * (N - m) * (N - m - 1) * z ** (N - m - 2) for m in range(N - 1)
            )
            psi_tz = sum(pcd[m] * (N - m) * z ** (N - m - 1) for m in range(N))
            if not tilde:
                a2 = spec.a2
                r = (
                    psi_tt
                    - 2 * (z * z - a2) * psi_tz
                    + 2 * ((N - 2) * z - c1) * psi_t
                    + (z * z - a2) ** 2 * psi_zz
                    - 2 * ((N - 3) * z - c1) * (z * z - a2) * psi_z
                    + (
                        N * (N - 5) * z * z
                        - 2 * (N - 2) * c1 * z
                        + 2 * (2 * N * a2 + c1d - c1 ** 2 + 3 * c2)
                    )
                    * psi
                )
            else:
                r = (
                    psi_tt
                    - 2 * z * (z - 1j) * psi_tz
                    + (2 * (N - 2) * z - (2 * N + 1) * 1j - 2j * c1) * psi_t
                    + z * z * (z - 1j) ** 2 * psi_zz
                    - 2 * z * (z - 1j) * (N * (z - 1j) - 3 * z - 1j * c1) * psi_z
                    + (
                        N * (N - 5) * z * z
                        - 2 * N * (N - 2) * 1j * z
                        - N * (N + 1)
                        - 2 * (N - 2) * 1j * c1 * z
                        - 2 * (N - 1) * c1
                        + 2 * (1j * c1d + c1 ** 2 - 3 * c2)
                    )
                    * psi
                )
            worst = max(worst, abs(r))
    return worst


def residual_quartic_n2(traj: Trajectory, a2: complex) -> float:
    """Residual of the fourth-order scalar ODE obeyed by the leading
    coefficient of the two-body coefficient system.

    The higher time derivatives of ``c_1`` are produced by chaining the
    equations of motion, so the check is free of finite-difference noise.
    """
    worst = 0.0
    for row in traj.states:
        c1, c2, c1d, c2d = row[0], row[1], row[2], row[3]
        c1dd = 2 * c1 ** 3 - 6 * c1 * c2 - 2 * a2 * c1
        c2dd = (
            2 * c1 * c2d
            - 2 * a2 * c1d
            - 2 * (4 * a2 + c1d - c1 ** 2 + 3 * c2) * c2
            + 2 * a2 * c1 ** 2
            - 2 * a2 ** 2
        )
        c1d3 = 6 * c1 ** 2 * c1d - 6 * c1d * c2 - 6 * c1 * c2d - 2 * a2 * c1d
        c1d4 = (
            12 * c1 * c1d ** 2
            + 6 * c1 ** 2 * c1dd
            - 6 * c1dd * c2
            - 12 * c1d * c2d
            - 6 * c1 * c2dd
            - 2 * a2 * c1dd
        )
        f, fp, fpp, fppp, fpppp = c1, c1d, c1dd, c1d3, c1d4
        r = (
            fpppp * f ** 2
            - 2 * fppp * fp * f
            - 2 * fppp * f ** 3
            - 2 * fpp ** 2 * f
            + 2 * fpp * fp ** 2
            + 4 * fpp * fp * f ** 2
            - 2 * fpp * f ** 4
            - 4 * fp ** 2 * f ** 3
            + 4 * fp * f ** 5
            + 4 * a2 * (fpp * f ** 2 - 2 * fp * f ** 3)
        )
        worst = max(worst, abs(r))
    return worst


def residual_ansatz_offdiag(spec: ModelSpec, traj: Trajectory) -> float:
    """Residual of the off-diagonal compatibility identity along a
    goldfish trajectory.

    The square-root pair ansatz with zero diagonal gauge turns the
    off-diagonal matrix compatibility equations into identities.  In
    logarithmic form all branch choices drop out: with
    ``w_n = zdot_n + f(z_n)`` the residual reads
    ``wdot_n/(2 w_n) + wdot_m/(2 w_m) + (zdot_n - zdot_m)/(z_n - z_m)
    + sum_l w_l (z_n + z_m - 2 z_l) / ((z_n - z_l)(z_l - z_m))``.
    """
    half = traj.dim // 2
    a, b, c = spec.f_abc()
    worst = 0.0
    for row in traj.states:
        z, v = row[:half], row[half:]
        state = ParticleState(z, v)
        acc = eval_rhs(spec, state)
        w = v + spec.f_of(z)
        wdot = acc + (b + 2 * c * z) * v
        n = z.size
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                r = (
                    wdot[i] / (2 * w[i])
                    + wdot[j] / (2 * w[j])
                    + (v[i] - v[j]) / (z[i] - z[j])
                )
                for l in range(n):
                    if l in (i, j):
                        continue
                    r += w[l] * (z[i] + z[j] - 2 * z[l]) / ((z[i] - z[l]) * (z[l] - z[j]))
                worst = max(worst, abs(r))
    return worst


def solve_chi_recursion(nu: int, chi1: Fraction | None = None, chi5: Fraction = Fraction(0)):
    """Coefficients of the shifted core polynomial of the rational-time
    system, from its two-term recurrence.

    For ``nu != 2`` the first coefficient is forced to ``-nu``; for
    ``nu = 2`` it is free.  ``chi5`` parametrises the free tail that
    appears from degree five on.
    """
    if nu == 2:
        if chi1 is None:
            raise ValueError("nu = 2 leaves chi_1 free; provide it")
        chi = [Fraction(1), Fraction(chi1), Fraction(chi1) * (Fraction(chi1) + 1) / 3]
        return RecursionSolution(nu, tuple(chi))
    chi = [Fraction(1)]
    for m in range(1, nu + 1):
        if m == 1:
            chi.append(Fraction(-nu))
        elif m == 5:
            chi.append(Fraction(chi5))
        else:
            val = (
                2
                * Fraction(nu + 1 - m)
                * (Fraction(3 - nu - m) - chi[1])
                * chi[m - 1]
                / Fraction(m * (m - 5))
            )
            chi.append(val)
    return RecursionSolution(nu, tuple(chi))


def chi_recurrence_residuals(sol: RecursionSolution):
    """Exact residuals of the two-term recurrence for a chi solution."""
    chi = list(sol.coefficients) + [Fraction(0)]
    nu = sol.nu
    out = []
    for m in range(1, nu + 2):
        cm = chi[m] if m <= nu else Fraction(0)
        cm1 = chi[m - 1]
        out.append(Fraction(m * (m - 5)) * cm - 2 * Fraction(nu + 1 - m) * (Fraction(3 - nu - m) - chi[1]) * cm1)
    return tuple(out)


def iso_core_residual(roots) -> float:
    """Residual of the algebraic system obeyed by the core-polynomial
    zeros of the isochronous equilibria:
    ``z_n + i + sum_{m != n} z_m (z_m - i) / (z_n - z_m) = 0``."""
    z = np.asarray(roots, dtype=complex)
    worst = 0.0
    for n in range(z.size):
        r = z[n] + 1j
        for m in range(z.size):
            if m != n:
                r += z[m] * (z[m] - 1j) / (z[n] - z[m])
        worst = max(worst, abs(r))
    return worst


def permutation_order(perm) -> int:
    """Multiplicative order of a permutation given in one-line notation."""
    n = len(perm)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        order = order * length // np.gcd(order, length)
    return int(order)


def solve_ivp_reference(rhs, y0, t_span, tol=1e-10, t_eval=None, return_dense=False, on_step=None):
    """Integrate ``dy/dt = rhs(t, y)`` over a complexified state.

    A thin wrapper over scipy's ``solve_ivp(method="DOP853")``, the
    explicit Runge-Kutta 8(5,3) pair of Hairer, Norsett and Wanner with
    seventh-order dense output.  Per-step local error is kept below
    ``tol`` componentwise, relative to ``1 + |y|``: scipy bounds the RMS
    norm of ``err / (atol + rtol |y|)`` by one, so passing
    ``rtol = atol = tol / sqrt(n)`` for a state of length ``n`` bounds
    every single component by ``tol (1 + |y|)``.  That value is clamped
    at scipy's ``rtol`` floor of ``100 eps``, so that ``tol = 1e-14``
    raises no scipy warning; below ``100 eps sqrt(n)`` the componentwise
    bound is ``100 eps sqrt(n) (1 + |y|)`` instead.

    ``rhs`` is called as given, with no checks of its own: it is checked
    once, on the initial state, and that value is the solver's first
    ``f``, so a run makes two calls before its first step.  The
    interpolant (three extra ``rhs`` evaluations per step) is built only
    for the steps that contain a sample, unless ``return_dense`` asks for
    it on every step.

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
        Increasing sample times inside ``t_span``; defaults to the
        accepted step points.
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
    from scipy.integrate import solve_ivp

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

    f = np.asarray(rhs(t0, y), dtype=complex)
    if f.shape != y.shape or not np.all(np.isfinite(f)):
        raise ValueError("rhs is not finite on the initial state")

    # solve_ivp calls every event function on the initial state and after
    # each accepted step; this one never changes sign, so no root-finding
    # runs, and it keeps the last accepted time, which ``sol.t`` does not
    # hold when it holds only the samples
    last_time = [t0]

    def step_hook(t, y):
        last_time[0] = t
        if on_step is not None:
            on_step(t, y)
        return 1.0

    # the solver's first rhs call is handed the checked f
    first = [f]
    seeded = lambda t, y: first.pop() if first else rhs(t, y)
    scaled = max(tol / np.sqrt(y.size), 100 * np.finfo(float).eps)
    sol = solve_ivp(
        seeded, (t0, t1), y, method="DOP853", t_eval=t_eval, dense_output=return_dense,
        events=step_hook, rtol=scaled, atol=scaled,
    )
    if sol.status == -1:
        raise MovableSingularityError(float(last_time[0]))

    # C order, so that a row's values and velocities can be viewed as float
    traj = Trajectory(sol.t, np.ascontiguousarray(np.transpose(sol.y)))
    if not return_dense:
        return traj

    def dense(t):
        if np.any(np.less(t, t0)) or np.any(np.greater(t, t1)):
            raise ValueError(f"t = {t} outside integrated range [{t0}, {t1}]")
        return sol.sol(t)

    return traj, dense
