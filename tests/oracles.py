"""Independent reference implementations the tests compare the library with.

Each coefficient recurrence is written out here by hand, term by term,
with its own padding closures: the library writes each recurrence once
and derives the equations of motion, the equilibrium residuals and the
small-oscillation pencil from it, so these hand-written forms are the
oracle for every derived consumer.
"""

import math
from fractions import Fraction

import numpy as np

from goldfish.dynamics import System
from goldfish.equilibria import Family
from goldfish.spectrum import QuadraticPencil


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
