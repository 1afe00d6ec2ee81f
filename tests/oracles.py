"""Independent reference implementations the tests compare the library with.

Each coefficient recurrence is written out here by hand, term by term,
with its own padding closures: the library writes each recurrence once
and derives the equations of motion, the equilibrium residuals and the
small-oscillation pencil from it, so these hand-written forms are the
oracle for every derived consumer.

The exact spectral kernels are kept here in their ``Fraction`` form (a
rational matrix per determinant node, one rational Lagrange basis at a
time, a root scan that restarts after every root, a falling-factorial
binomial, the conjectured product as a chain of ``Fraction`` polynomial
products): the library runs the same computations on plain integers and
must reproduce these results exactly.

The simulation path is kept here in its per-state form (particle
accelerations read the spec's constants on every call, eigenvalue paths
are tracked again over the whole frame list after every inserted
midpoint): the library's compiled right-hand side and its local
refinement must reproduce these results bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from goldfish.dynamics import System
from goldfish.linalg import AmbiguousTrackingError, TrackedPaths, eigenvalues, track_trajectories
from goldfish.equilibria import Family
from goldfish.polynomials import IntegerPolynomial
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
            tracked = track_trajectories([frames[t] for t in ts], ts)
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
        return TrackedPaths(np.asarray(times), tracked.paths[:, keep], tracked.monodromy)


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


def charpoly(A, B) -> IntegerPolynomial:
    """``det(p^2 I + p A + B)``: a ``Fraction`` matrix per node ``-N..N``,
    each determinant by :func:`bareiss_det`, then :func:`lagrange_interpolate`."""
    A = [list(map(Fraction, row)) for row in A]
    B = [list(map(Fraction, row)) for row in B]
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
            rem = rem.deflate(found)
    return sorted(roots), rem


def conjecture_215_product(nu: int, mu: int, N: int) -> IntegerPolynomial:
    """The conjectured product, one ``Fraction`` polynomial product per
    linear factor (empty products are one)."""
    lin = IntegerPolynomial.monomial
    acc = IntegerPolynomial.one()
    if nu == 0:
        for n in range(1, N - mu + 1):
            acc = acc * lin(n) * lin(n + 1)
        for n in range(1, mu + 1):
            acc = acc * lin(-n) * lin(5 - n)
    elif nu == 1:
        acc = acc * lin(-1) * lin(4)
        for n in range(1, N - mu + 1):
            acc = acc * lin(n) * lin(n + 5)
        for n in range(1, mu):
            acc = acc * lin(-n) * lin(7 - n)
    elif nu == 3:
        acc = acc * lin(-1) * lin(4)
        for n in range(1, N - mu + 1):
            acc = acc * lin(n) * lin(n - 5)
        for n in range(1, mu):
            acc = acc * lin(-n) * lin(n - mu + 7)
    elif nu == 4:
        acc = acc * lin(-1)
        for n in range(1, 4):
            acc = acc * lin(n + 1)
        for n in range(1, N - mu + 1):
            acc = acc * lin(n) * lin(n - 1)
        for n in range(1, mu - 3):
            acc = acc * lin(-n)
        for n in range(1, mu + 1):
            acc = acc * lin(-n - 1)
    elif nu == 5:
        for n in range(1, N - mu + 1):
            acc = acc * lin(n) * lin(n + 1)
        for n in range(1, mu + 1):
            acc = acc * lin(-n) * lin(n - mu + 4)
    else:
        raise ValueError(f"no conjectured product for nu = {nu}")
    return acc
