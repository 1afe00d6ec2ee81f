"""Closed-form equilibrium families of the goldfish coefficient systems.

All coefficient vectors are produced in exact rational arithmetic.  For
the isochronous system the equilibrium polynomial factors as

    psi(z) = phi(z) * (z - i)^(mu - nu) * z^(N - mu),

with ``phi`` a monic degree-``nu`` core polynomial whose coefficients
obey a two-term recurrence that is solvable only for
``nu in {0, 1, 3, 4, 5}`` (``nu = 2`` fails at the normalisation step and
``nu >= 6`` hits a contradictory constraint, which
:func:`phi_recursion_obstruction` exhibits).  In the TILDE coefficient
convention ``c_1..c_N`` are the coefficients of the one series
``phi(x) (1 - x)^(mu - nu)`` up to ``x^N``, exact for any rational
``mu``: every isochronous equilibrium, rational ``mu`` and the resonant
``nu = 8`` branch included, comes from the core recurrence this way.

For the rational-time system each of the three families is
``inner(z) (z - a)^mu (z + a)^(N - mu - deg inner)`` in the plain
convention: a binomial one (``inner = 1``) and two carrying a free
constant.  The tail family's ``inner`` is ``sum_m chi_m a^m (z + a)^(nu - m)``,
whose ``chi_m`` obey a two-term recurrence of the core one's shape:
:func:`_two_term` solves both.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import _iso_bracket, _rational_bracket
from .polynomials import _linear_product

__all__ = [
    "EquilibriumConfig",
    "Family",
    "GenuinenessReport",
    "RecursionSolution",
    "cbar_closed_form",
    "enumerate_altgold_equilibria",
    "enumerate_iso_equilibria",
    "equilibrium_residual",
    "expand_altgold_psi",
    "expand_iso_psi",
    "genuineness_check",
    "phi_recursion_obstruction",
    "solve_phi_recursion",
    "ISO_NU_VALUES",
    "RESONANT_NU",
    "ResonantBranchError",
    "DEFAULT_FREE_SAMPLES",
]

ISO_NU_VALUES = (0, 1, 3, 4, 5)
DEFAULT_FREE_SAMPLES = (
    Fraction(-2),
    Fraction(0),
    Fraction(1, 3),
    Fraction(1),
    Fraction(7),
)


class Family(enum.Enum):
    ISO = "iso"
    ALTGOLD_BINOMIAL = "altgold_binomial"
    ALTGOLD_NU2 = "altgold_nu2"
    ALTGOLD_NU5PLUS = "altgold_nu5plus"


@dataclass(frozen=True)
class EquilibriumConfig:
    """One member of a closed-form equilibrium family.

    ``cbar`` holds the exact coefficients ``c_1..c_N`` (TILDE convention
    for the isochronous family, plain for the others); ``free`` records
    the sampled values of any free parameters.
    """

    family: Family
    N: int
    nu: int
    mu: int
    free: dict
    cbar: tuple[Fraction, ...]


@dataclass(frozen=True)
class RecursionSolution:
    """Core-polynomial coefficients satisfying their two-term recurrence."""

    nu: int
    coefficients: tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# the core-polynomial recurrences


RESONANT_NU = 8


class ResonantBranchError(ValueError):
    """Raised when asked for an obstruction at the resonant degree.

    At ``nu = 8`` the recurrence factor vanishes one step early
    (``phi_4 = 0``), so the degree-five constraint is vacuous rather than
    contradictory and a one-parameter solution family exists.  The
    enumeration excludes it unless explicitly asked.
    """


def _phi_factor(nu: int, m: int) -> tuple[int, int]:
    """Right-side factor ``(m - nu - 1)(m + 3 nu/(2 - nu))`` of the core
    recurrence ``m (m - 5) phi_m = factor * phi_(m-1)``, as an integer
    numerator and denominator."""
    return (m - nu - 1) * (m * (2 - nu) + 3 * nu), 2 - nu


def _chi_factor(nu: int, m: int) -> tuple[int, int]:
    """Right-side factor ``2 (nu + 1 - m)(3 - m)`` of the tail recurrence
    ``m (m - 5) chi_m = factor * chi_(m-1)``, with the ``chi_1 = -nu`` it
    forces put in (so ``chi_3 = chi_4 = 0``), over denominator 1."""
    return 2 * (nu + 1 - m) * (3 - m), 1


def _two_term(factor, nu: int, free, top: int) -> tuple[list[int], int]:
    """``x_0..x_top`` of the two-term recurrence
    ``m (m - 5) x_m = factor(nu, m) x_(m-1)`` from ``x_0 = 1``, as integer
    numerators over one denominator ``E``; ``x_5``, which the recurrence
    leaves free, is ``free``."""
    x, E = [1], 1
    for m in range(1, top + 1):
        if m == 5:
            free = Fraction(free)
            last, scale = free.numerator * E, free.denominator
        else:
            num, den = factor(nu, m)
            last, scale = num * x[-1], m * (m - 5) * den
        x = [v * scale for v in x] + [last]
        E *= scale
    return x, E


def solve_phi_recursion(nu: int, c: Fraction = Fraction(0)) -> RecursionSolution:
    """Coefficients of the degree-``nu`` isochronous core polynomial.

    The recurrence ``m (m - 5) phi_m = (m - nu - 1)(m + 3 nu/(2 - nu)) phi_{m-1}``
    with ``phi_0 = 1`` pins every coefficient for ``nu in {0, 1, 3, 4}``;
    ``nu = 5`` leaves ``phi_5`` free, parametrised here as
    ``phi_5 = -(1 + c)`` so that ``c`` is the free constant of the
    ``nu = 5`` equilibrium cells; ``nu = 2`` breaks the normalisation.
    The recurrence is contradictory for all larger degrees except the
    resonant ``nu = 8``, where the right side vanishes at ``m = 4`` and a
    free tail opens up (``phi_5 = c`` here); the resulting equilibria are
    exact and verified by the test suite, but they sit outside the five
    standard families.
    """
    phi, E = _core_polynomial(nu, c)
    return RecursionSolution(nu, tuple(Fraction(x, E) for x in phi))


def _core_polynomial(nu: int, c) -> tuple[list[int], int]:
    """:func:`_two_term` for a degree that has a core polynomial; the free
    ``phi_5`` is ``-(1 + c)`` at ``nu = 5`` and ``c`` above it."""
    if nu == 2:
        raise ValueError("nu = 2 is excluded: the normalisation constraint fails")
    if nu not in ISO_NU_VALUES and nu != RESONANT_NU:
        m, lhs, rhs = phi_recursion_obstruction(nu)
        raise ValueError(
            f"no degree-{nu} core polynomial: at m = {m} the recurrence "
            f"demands {lhs} * phi_{m} = {rhs} with zero left coefficient"
        )
    return _two_term(_phi_factor, nu, -(1 + Fraction(c)) if nu == 5 else c, nu)


def phi_recursion_obstruction(nu: int):
    """Exhibit the contradictory constraint for ``nu >= 6``.

    Returns ``(m, lhs_coefficient, rhs_value)`` with ``lhs_coefficient``
    zero and ``rhs_value`` nonzero: the recurrence has no solution.  The
    resonant degree ``nu = 8`` carries no obstruction (the right side
    vanishes as well) and raises :class:`ResonantBranchError` instead.
    """
    if nu < 6 or nu == 2:
        raise ValueError("an obstruction exists only for nu >= 6")
    m = 5
    phi, E = _two_term(_phi_factor, nu, 0, m - 1)
    rhs = Fraction(*_phi_factor(nu, m)) * phi[-1] / E
    if rhs == 0:
        raise ResonantBranchError(
            f"degree {nu} carries no obstruction: the recurrence right side "
            "vanishes at m = 4, opening a one-parameter solution branch"
        )
    return m, Fraction(m * (m - 5)), rhs


# ---------------------------------------------------------------------------
# isochronous equilibria


def _iso_numerators(nu: int, mu, N: int, c) -> tuple[list[int], int]:
    """``c_1..c_N`` as integer numerators ``x`` over one denominator
    ``d > 0``, in lowest terms (``gcd(d, *x) == 1``): the coefficients of
    ``phi_{nu,c}(x) (1 - x)^(mu - nu)`` up to ``x^N``, the TILDE-stripped
    form of ``phi(z) (z - i)^(mu - nu) z^(N - mu)``.

    The binomial series is exact for any rational ``mu``; for integer
    ``mu >= nu`` it ends on its own after ``x^(mu - nu)``, which gives the
    ``z^(N - mu)`` padding.  The sum runs on integer numerators over the
    one denominator ``E q^N N!`` (``mu - nu = p/q``, ``phi`` over ``E``,
    which may be negative), reduced by its gcd with them and made
    positive.  ``N < 1`` gives no numerators over 1.
    """
    phi, E = _core_polynomial(nu, c)
    r = Fraction(mu) - nu
    if N < 1:
        return [], 1
    p, q = r.numerator, r.denominator
    binom = [q**N * math.factorial(N)]  # q^N N! times each coefficient of (1 - x)^r
    for j in range(1, N + 1):
        binom.append(binom[-1] * ((j - 1) * q - p) // (q * j))
    x = [sum(map(operator.mul, phi, binom[m::-1])) for m in range(1, N + 1)]
    d = E * binom[0]
    g = math.gcd(d, *x) * (1 if d > 0 else -1)
    return [v // g for v in x], d // g


def _iso_series(nu: int, mu, N: int, c) -> tuple[Fraction, ...]:
    """:func:`_iso_numerators` as ``Fraction``s."""
    x, d = _iso_numerators(nu, mu, N, c)
    return tuple(Fraction(v, d) for v in x)


def _check_iso_nu(nu: int):
    """Refuse a degree outside the five standard families."""
    if nu not in ISO_NU_VALUES:
        raise ValueError(f"nu must be one of {ISO_NU_VALUES}, got {nu}")


def cbar_closed_form(nu: int, mu, N: int, c: Fraction = Fraction(0)):
    """Equilibrium coefficients ``c_1..c_N`` of the ``(nu, mu)`` cell, as
    ``Fraction``s.

    ``mu`` may be any rational for the spectral sweeps; the standard
    enumeration uses integers ``nu <= mu <= N``.  The series is summed on
    integers over one denominator (:func:`_iso_numerators`, which the
    exact cell of :mod:`goldfish.spectrum` reads as it is); only the
    results become ``Fraction``s.
    """
    _check_iso_nu(nu)
    return _iso_series(nu, mu, N, c)


def expand_iso_psi(nu: int, mu: int, N: int, c: Fraction = Fraction(0)):
    """Equilibrium coefficients of the factored equilibrium polynomial
    ``phi(z) (z - i)^(mu-nu) z^(N-mu)`` for integers ``0 <= nu <= mu <= N``,
    the resonant ``nu = 8`` included.
    """
    if not (0 <= nu <= mu <= N):
        raise ValueError("need 0 <= nu <= mu <= N")
    return _iso_series(nu, operator.index(mu), N, c)


def enumerate_iso_equilibria(N: int, free_samples=DEFAULT_FREE_SAMPLES, include_resonant=False):
    """All equilibrium configurations of the isochronous coefficient
    system, one per ``(nu, mu)`` cell (and per sampled free constant for
    the ``nu = 5`` family).

    ``include_resonant`` adds the degree-8 resonant branch (free
    coefficient tail) on top of the five standard families.
    """
    if N < 1:
        raise ValueError("N must be positive")
    nus = ISO_NU_VALUES + ((RESONANT_NU,) if include_resonant else ())
    configs = []
    for nu in nus:
        for mu in range(nu, N + 1):
            samples = free_samples if nu >= 5 else (Fraction(0),)
            for c in samples:
                cbar = expand_iso_psi(nu, mu, N, c)
                free = {"c": Fraction(c)} if nu >= 5 else {}
                configs.append(EquilibriumConfig(Family.ISO, N, nu, mu, free, cbar))
    return configs


# ---------------------------------------------------------------------------
# rational-time equilibria


def expand_altgold_psi(family: Family, N: int, a, mu: int, nu: int = 0, c=Fraction(0)):
    """Equilibrium coefficients by exact expansion of one of the three
    factored families of the rational-time system."""
    a = Fraction(a)
    c = Fraction(c)
    if family is Family.ALTGOLD_BINOMIAL:
        if not 0 <= mu <= N:
            raise ValueError("binomial family needs 0 <= mu <= N")
        inner = [Fraction(1)]
    elif family is Family.ALTGOLD_NU2:
        if N < 2 or not 0 <= mu <= N - 2:
            raise ValueError("quadratic family needs N >= 2 and 0 <= mu <= N - 2")
        inner = [(c * c - a * a) / 3, c, Fraction(1)]
    elif family is Family.ALTGOLD_NU5PLUS:
        if not (5 <= nu <= N and 0 <= mu <= N - nu):
            raise ValueError("tail family needs 5 <= nu <= N and 0 <= mu <= N - nu")
        # sum_m chi_m a^m (z + a)^(nu - m), by Horner in (z + a); chi_5 = c/60
        chi, E = _two_term(_chi_factor, nu, c / 60, nu)
        inner = [Fraction(1)]
        for m in range(1, nu + 1):
            inner = _linear_product([-a], inner)
            inner[0] += Fraction(chi[m], E) * a**m
    else:
        raise ValueError(f"not a rational-time family: {family}")
    # inner (z - a)^mu (z + a)^(N - mu - deg inner), built ascending
    roots = [a] * mu + [-a] * (N - mu - (len(inner) - 1))
    seq = _linear_product(roots, inner)[::-1]
    assert seq[0] == 1 and len(seq) == N + 1
    return tuple(seq[1:])


def enumerate_altgold_equilibria(N: int, a, free_samples=DEFAULT_FREE_SAMPLES):
    """All equilibrium configurations of the rational-time coefficient
    system: the binomial family plus the two free-constant families."""
    if N < 1:
        raise ValueError("N must be positive")
    a = Fraction(a)
    # (family, nu, mu, free constant) of every cell; the binomial family has none
    frees = [{"c": Fraction(c)} for c in free_samples]
    cells = [(Family.ALTGOLD_BINOMIAL, 0, mu, {}) for mu in range(N + 1)]
    cells += [(Family.ALTGOLD_NU2, 2, mu, free) for mu in range(N - 1) for free in frees]
    cells += [
        (Family.ALTGOLD_NU5PLUS, nu, mu, free)
        for nu in range(5, N + 1)
        for mu in range(N - nu + 1)
        for free in frees
    ]
    return [
        EquilibriumConfig(
            family, N, nu, mu, {"a": a, **free}, expand_altgold_psi(family, N, a, mu, nu, **free)
        )
        for family, nu, mu, free in cells
    ]


# ---------------------------------------------------------------------------
# residual verification and genuineness


def equilibrium_residual(config: EquilibriumConfig):
    """Exact residual vector of the algebraic equilibrium system matching
    the config's family (isochronous or rational-time): the family's
    coefficient recurrence with every velocity set to zero."""
    N = config.N
    ms = range(1, N + 1)
    if config.family is Family.ISO:
        return tuple(_iso_bracket(config.cbar, [0] * N, ms))
    a2 = Fraction(config.free["a"]) ** 2
    return tuple(_rational_bracket(config.cbar, [0] * N, a2, ms))


@dataclass(frozen=True)
class GenuinenessReport:
    """Whether the ``N`` particle positions of an equilibrium are distinct.

    ``distinct_roots`` counts the distinct zeros of the equilibrium
    polynomial exactly; the verdict is GENUINE iff it equals ``N``.
    ``necessary_condition_met`` is the isochronous family's necessary
    condition for genuineness (``None`` for the rational-time families).
    """

    verdict: str  # "GENUINE" | "DEGENERATE"
    distinct_roots: int
    necessary_condition_met: bool | None


def _gcd_degree(p, q) -> int:
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


def genuineness_check(config: EquilibriumConfig) -> GenuinenessReport:
    """Classify an equilibrium: genuine means all position roots distinct.

    With ``P = (1, c_1, .., c_N)`` read as a descending polynomial, the
    number of distinct zeros is ``N - deg gcd(P, P')``, computed exactly.
    This holds in either coefficient convention: in TILDE the position
    polynomial is ``psi(i x) = i^N P(x)``, whose zeros have the same
    multiplicities as those of ``P``.
    """
    P = [Fraction(1), *map(Fraction, config.cbar)]
    dP = [(config.N - k) * x for k, x in enumerate(P[:-1])]
    distinct = config.N - _gcd_degree(P, dP)
    necessary = None
    if config.family is Family.ISO:
        necessary = config.mu >= config.N - 1 and config.nu >= config.mu - 1
    return GenuinenessReport(
        "GENUINE" if distinct == config.N else "DEGENERATE", distinct, necessary
    )
