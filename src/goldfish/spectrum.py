"""Small oscillations about the isochronous equilibria.

Linearising the isochronous coefficient system about an equilibrium
``cbar`` and inserting the harmonic ansatz ``rho_m = r_m exp(i p t)``
turns the dynamics into the quadratic eigenvalue problem
``(p^2 + A p + B) r = 0``, whose matrices are read off the coefficient
recurrence at ``cbar`` by exact linearisation.
Since every nonsingular solution of the system has period ``2 pi``, all
``2N`` pencil eigenvalues must be integers; this module verifies that
exactly (arbitrary-precision characteristic polynomial, integer root
extraction) and tests the stronger conjectured product formulas for the
full spectrum, emitting structured counterexample records whenever a
conjectured formula disagrees with the exact one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import equilibria, polynomials
from .dynamics import _iso_bracket
from .equilibria import ISO_NU_VALUES, EquilibriumConfig, Family
from .linalg import eigenvalues, multiset_distance
from .polynomials import (
    IntegerPolynomial,
    RationalMatrix,
    _charpoly,
    _deflate,
    _pencil_size,
    _ratio,
    _times_quadratics,
    integer_roots,
)

__all__ = [
    "C215Result",
    "C217Result",
    "ConjectureCounterexample",
    "DEFAULT_NU5_SAMPLES",
    "PencilSample",
    "QuadraticPencil",
    "SpectralReport",
    "build_pencil",
    "conjecture_215_product",
    "conjecture_217_claim",
    "solve_pencil_numeric",
    "verify_conjectures",
    "verify_integrality",
]

# free-constant samples for the nu = 5 family
DEFAULT_NU5_SAMPLES = (Fraction(0), Fraction(1), Fraction(-3), Fraction(7, 2))


@dataclass(frozen=True)
class QuadraticPencil:
    """The pair ``(A, B)`` of the quadratic eigenvalue problem, exact.

    Each matrix is a :class:`~goldfish.polynomials.RationalMatrix`, integer
    rows over one denominator; ``QuadraticPencil(A, B)`` also takes nested
    rationals and normalises them.  Every route reads the integers.  Two
    matrices that are not square of one size are a ``ValueError``.
    """

    A: RationalMatrix
    B: RationalMatrix

    def __post_init__(self):
        A, B = RationalMatrix(self.A), RationalMatrix(self.B)
        _pencil_size(A, B)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def N(self) -> int:
        return len(self.A)


def _collect(pairs) -> dict:
    """Sum ``(key, coefficient)`` pairs by key, dropping zero sums."""
    out = {}
    for key, a in pairs:
        out[key] = out.get(key, 0) + a
    return {key: a for key, a in out.items() if a}


class _Poly:
    """A polynomial with integer coefficients over numbered variables,
    ``{sorted tuple of variable indices: coefficient}``: just enough
    arithmetic (``+``, ``-``, ``*``, integer powers) to run a recurrence
    bracket symbolically.  Plain ints act as constants."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def _terms(x) -> dict:
        return x.terms if isinstance(x, _Poly) else {(): x}

    def __add__(self, other):
        return _Poly(_collect([*self.terms.items(), *_Poly._terms(other).items()]))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _Poly._terms(other).items()
        products = ((tuple(sorted(m + n)), a * b) for m, a in self.terms.items() for n, b in other)
        return _Poly(_collect(products))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return math.prod([self] * k)


@functools.lru_cache(maxsize=None)
def _pencil_template(N: int):
    """``A = dF/dw`` and ``B = -dF/dc`` at ``w = 0`` as integer polynomials
    in ``cbar`` (variables ``0..N-1``), derived once per ``N`` from
    :func:`_iso_bracket`: the nonzero entries ``(row, column, ((coefficient,
    monomial), ...))`` of each matrix, and the largest monomial degree."""
    c = [_Poly({(m,): 1}) for m in range(N)]
    w = [_Poly({(N + m,): 1}) for m in range(N)]
    A, B = [], []
    for row, f in enumerate(_iso_bracket(c, w, range(1, N + 1))):
        # dF_row / d(variable v) at w = 0, keyed by (v, monomial)
        grad = _collect(
            ((v, mono[:i] + mono[i + 1 :]), a * mono.count(v))
            for mono, a in f.terms.items()
            for i, v in enumerate(mono)
            if i == mono.index(v) and all(u < N for u in mono[:i] + mono[i + 1 :])
        )
        entries = {}
        for (v, mono), a in grad.items():
            entries.setdefault(v, []).append((a if v >= N else -a, mono))
        for v, terms in sorted(entries.items()):
            (A if v >= N else B).append((row, v % N, tuple(terms)))
    degree = max(len(mono) for *_, terms in A + B for _, mono in terms)
    return tuple(A), tuple(B), degree


def build_pencil(config_or_cbar) -> QuadraticPencil:
    """Linearise the isochronous coefficient recurrence about the
    equilibrium ``cbar_1..cbar_N``.

    With ``cddot = -F(c, w)``, ``w = i cdot`` and ``c = cbar + r exp(i p t)``,
    the first-order terms give ``(p^2 + A p + B) r = 0`` with
    ``A = dF/dw`` and ``B = -dF/dc`` at ``(cbar, 0)``.  ``cbar`` is read
    as integers ``x = d cbar`` over the common denominator ``d`` and handed
    to :func:`_pencil`.  A ``cbar`` entry that is not a finite rational, or
    an :class:`EquilibriumConfig` of a rational-time family (whose
    coefficients follow another recurrence), is a ``ValueError``.
    """
    if isinstance(config_or_cbar, EquilibriumConfig):
        if config_or_cbar.family is not Family.ISO:
            raise ValueError(
                "build_pencil linearises the isochronous recurrence, "
                f"not a {config_or_cbar.family.value} equilibrium"
            )
        config_or_cbar = config_or_cbar.cbar
    cb = [_ratio(v) for v in config_or_cbar]
    d = math.lcm(*(q for _, q in cb))
    return _pencil([a * (d // q) for a, q in cb], d)


def _pencil(x, d: int) -> QuadraticPencil:
    """The pencil about ``cbar = x / d`` (integers ``x``, ``d > 0``).

    ``A`` and ``B`` come from a per-``N`` template of integer polynomials in
    ``cbar``, differentiated symbolically from :func:`_iso_bracket`
    (:func:`_pencil_template`), evaluated on ``x`` into integer rows over
    ``d^degree`` and reduced once; no entry becomes a ``Fraction``.  An
    empty ``x`` is a ``ValueError``.
    """
    N = len(x)
    if N < 1:
        raise ValueError("need at least one coefficient")
    A_entries, B_entries, degree = _pencil_template(N)
    scale = [d ** (degree - k) for k in range(degree + 1)]
    den = d ** degree

    def evaluate(entries):
        rows = [[0] * N for _ in range(N)]
        for i, j, terms in entries:
            total = 0
            for a, mono in terms:
                t = a * scale[len(mono)]
                for v in mono:
                    t *= x[v]
                total += t
            rows[i][j] = total
        return RationalMatrix._scaled(rows, den)

    return QuadraticPencil(evaluate(A_entries), evaluate(B_entries))


def solve_pencil_numeric(pencil: QuadraticPencil) -> np.ndarray:
    """All ``2N`` pencil eigenvalues via companion linearisation.

    With ``s = p r`` the quadratic problem is the ordinary eigenvalue
    problem of the block matrix ``[[0, I], [-B, -A]]``, each entry the
    correctly rounded ``numerator / denominator``.
    """
    N = pencil.N
    A = np.array([[a / pencil.A.denominator for a in row] for row in pencil.A.numerators])
    B = np.array([[b / pencil.B.denominator for b in row] for row in pencil.B.numerators])
    comp = np.block([[np.zeros((N, N)), np.eye(N)], [-B, -A]])
    return eigenvalues(comp)


@dataclass(frozen=True)
class PencilSample:
    """Exact spectral data of one pencil (one free-constant value), with
    the pencil it was computed from."""

    free: Fraction
    charpoly: IntegerPolynomial
    integer_roots: tuple[int, ...]
    remainder: IntegerPolynomial
    all_integers: bool
    pencil: QuadraticPencil


@dataclass(frozen=True)
class SpectralReport:
    nu: int
    mu: Fraction
    N: int
    samples: tuple[PencilSample, ...]
    all_integers: bool


def _nu5_samples(nu: int, free_samples):
    if nu != 5:
        return (Fraction(0),)
    return tuple(Fraction(c) for c in (free_samples or DEFAULT_NU5_SAMPLES))


def _integer_spectrum(digits, scale: int, tail):
    """The integer roots, sorted with multiplicity, and the remainder in
    lowest terms of the charpoly whose factors
    :func:`~goldfish.polynomials._charpoly_factors` returned: the leading
    block's ``digits`` over ``scale``, and each tail quadratic
    ``D p^2 + a p + b`` (the triple ``(b, a, D)``) over ``D``.

    A tail quadratic has an integer root only at ``(-a +- r) / (2D)`` with
    ``r^2 = a^2 - 4Db``, and :func:`integer_roots` scans the leading factor
    alone.  The remainder is the leading factor's times each tail quadratic
    without an integer root and, for one with exactly one (possible when
    ``D > 1``), its linear cofactor ``D p + a + D root``.
    """
    found, kept, den = [], [], 1
    for b, a, D in tail:
        disc = a * a - 4 * D * b
        r = math.isqrt(max(disc, 0))
        own = []
        if r * r == disc:
            own = [x // (2 * D) for x in (-a - r, -a + r) if x % (2 * D) == 0]
        found += own
        if len(own) < 2:  # kept whole, or its linear cofactor (a zero p^2 digit)
            kept.append((a + D * own[0], D, 0) if own else (b, a, D))
            den *= D
    roots, rem = integer_roots(IntegerPolynomial._scaled(digits, scale))
    nums = _times_quadratics(list(rem.numerators), kept)
    return sorted(found + roots), IntegerPolynomial._scaled(nums, rem.denominator * den)


def _cell_pencils(nu: int, mu, N: int, free_samples, perturb_c1=Fraction(0)):
    """Yield ``(free constant, pencil, exact charpoly, its factors)`` per
    sample of one cell, with ``c_1`` shifted by ``perturb_c1`` (the
    negative control).  The series numerators
    (``equilibria._iso_numerators``) go into the pencil as integers, the
    shift only when it is nonzero, and the kernel's factors
    (``polynomials._charpoly_factors``) come out as they are, beside
    their product."""
    equilibria._check_iso_nu(nu)
    for cval in _nu5_samples(nu, free_samples):
        x, d = equilibria._iso_numerators(nu, mu, N, cval)
        if x and perturb_c1:
            a, b = Fraction(perturb_c1).as_integer_ratio()
            x = [v * b for v in x]
            x[0] += a * d
            d *= b
        pencil = _pencil(x, d)
        factors = polynomials._charpoly_factors(pencil.A, pencil.B)
        yield cval, pencil, _charpoly(*factors), factors


def verify_integrality(
    nu: int,
    mu,
    N: int,
    free_samples=None,
    perturb_c1: Fraction = Fraction(0),
) -> SpectralReport:
    """Exact integer-spectrum check for one ``(nu, mu, N)`` cell.

    Builds the equilibrium coefficients, the pencil, and the exact
    characteristic polynomial, then extracts every integer root.  The
    cell passes when the ``2N`` integer roots exhaust the polynomial
    (remainder one).  ``perturb_c1`` shifts the first coefficient and
    serves as a negative control.

    The cell runs on integers from the series to the roots.  Each row
    from some ``s`` on is zero left of the diagonal and gives a quadratic
    factor: the kernel runs on the leading ``s x s`` block and hands its
    digits and the quadratics over unmultiplied.  The quadratics' integer
    roots are decided by discriminants, and only the leading factor is
    scanned (:func:`_integer_spectrum`); the reported charpoly is their
    product.  At integer ``mu``, ``s <= mu``, since ``cbar_m = 0`` for
    ``m > mu`` decouples row ``m`` from ``c_1``, ``c_2`` and ``w_1``;
    ``s`` is read off the pencil's integers, so a shifted ``c_1`` or a
    rational ``mu`` splits only as far as the zeros reach.
    """
    samples = []
    ok = True
    for cval, pencil, poly, factors in _cell_pencils(nu, mu, N, free_samples, perturb_c1):
        roots, rem = _integer_spectrum(*factors)
        all_int = len(roots) == 2 * N and rem.numerators == (1,) and rem.denominator == 1
        ok = ok and all_int
        samples.append(PencilSample(cval, poly, tuple(roots), rem, all_int, pencil))
    return SpectralReport(nu, Fraction(mu), N, tuple(samples), ok)


# ---------------------------------------------------------------------------
# conjectured closed forms


def conjecture_215_product(nu: int, mu: int, N: int) -> IntegerPolynomial:
    """The conjectured exact factorisation of the pencil's characteristic
    polynomial for integer ``mu``, expanded exactly (empty products are
    one).  The product has ``2N`` roots, and is stated, only on the cells
    ``nu <= mu <= N``; others raise ``ValueError``."""
    if nu not in ISO_NU_VALUES:
        raise ValueError(f"no conjectured product for nu = {nu}")
    if not nu <= mu <= N:
        raise ValueError(f"c215 is stated only for nu <= mu <= N (nu = {nu}, N = {N})")
    if nu == 0:
        roots = [r for n in range(1, N - mu + 1) for r in (n, n + 1)]
        roots += [r for n in range(1, mu + 1) for r in (-n, 5 - n)]
    elif nu == 1:
        roots = [-1, 4]
        roots += [r for n in range(1, N - mu + 1) for r in (n, n + 5)]
        roots += [r for n in range(1, mu) for r in (-n, 7 - n)]
    elif nu == 3:
        roots = [-1, 4]
        roots += [r for n in range(1, N - mu + 1) for r in (n, n - 5)]
        roots += [r for n in range(1, mu) for r in (-n, n - mu + 7)]
    elif nu == 4:
        roots = [-1] + [n + 1 for n in range(1, 4)]
        roots += [r for n in range(1, N - mu + 1) for r in (n, n - 1)]
        roots += [-n for n in range(1, mu - 3)]
        roots += [-n - 1 for n in range(1, mu + 1)]
    else:
        roots = [r for n in range(1, N - mu + 1) for r in (n, n + 1)]
        roots += [r for n in range(1, mu + 1) for r in (-n, n - mu + 4)]
    return IntegerPolynomial.from_integer_roots(roots)


def conjecture_217_claim(nu: int, mu, N: int):
    """The conjectured partial eigenvalue list for arbitrary ``mu``.

    Covers only part of the ``2N`` eigenvalues (the rest carry no
    conjectured description); size floors are ``N >= 5`` for
    ``nu in {0, 4, 5}`` and ``N >= 8`` for ``nu in {1, 3}``.
    """
    mu = Fraction(mu)
    if nu in (0, 5):
        if N < 5:
            raise ValueError("need N >= 5")
        return tuple([Fraction(2), Fraction(3), Fraction(4)] + [k - mu for k in range(5, N + 1)])
    if nu == 4:
        if N < 5:
            raise ValueError("need N >= 5")
        return tuple([Fraction(2), Fraction(3), Fraction(4)] + [k - mu for k in range(4, N)])
    if nu == 1:
        if N < 8:
            raise ValueError("need N >= 8")
        return tuple([Fraction(-1), Fraction(4), Fraction(6)] + [k - mu for k in range(8, N + 1)])
    if nu == 3:
        if N < 8:
            raise ValueError("need N >= 8")
        return tuple(
            [Fraction(-1), Fraction(4), Fraction(6)] + [k - mu for k in range(3, N - 4)]
        )
    raise ValueError(f"no conjectured partial spectrum for nu = {nu}")


@dataclass(frozen=True)
class ConjectureCounterexample:
    """A cell where a conjectured formula disagrees with the exact one."""

    nu: int
    mu: Fraction
    N: int
    free: Fraction
    charpoly: IntegerPolynomial
    conjectured: IntegerPolynomial

    def as_record(self) -> dict:
        return {
            "nu": self.nu,
            "mu": str(self.mu),
            "N": self.N,
            "free": str(self.free),
            "charpoly": str(self.charpoly),
            "conjectured": str(self.conjectured),
        }


@dataclass(frozen=True)
class C215Result:
    nu: int
    mu: int
    N: int
    match: bool
    charpoly: IntegerPolynomial
    conjectured: IntegerPolynomial
    counterexamples: tuple[ConjectureCounterexample, ...]


@dataclass(frozen=True)
class C217Result:
    nu: int
    mu: Fraction
    N: int
    contained: bool
    max_match_error: float
    claimed: tuple[Fraction, ...]
    spectrum: tuple[complex, ...]


def verify_conjectures(which: str, nu: int, mu, N: int, free_samples=None):
    """Check one conjectured spectral formula on one cell.

    ``which = "c215"`` needs an integer ``mu`` (``ValueError`` otherwise),
    expands the conjectured product exactly and demands coefficientwise
    equality with the exact characteristic polynomial (for the
    free-constant family, for every sampled value); disagreements come
    back as counterexample records, never exceptions.
    ``which = "c217"`` asserts only that the claimed partial list is
    contained, with multiplicity, in the spectrum of the first sample (the
    complement is deliberately not asserted): the exact characteristic
    polynomial is deflated by ``p - v`` for each claimed ``v``, and every
    remainder must be zero.  The numeric spectrum and its matching error
    are reported as information only.
    """
    which = which.lower()
    if which == "c215":
        mu = Fraction(mu)
        if mu.denominator != 1:
            raise ValueError(f"c215 is conjectured for integer mu only, got mu = {mu}")
        mu = mu.numerator
        product = conjecture_215_product(nu, mu, N)
        counterexamples = []
        charpoly = None
        for cval, _, poly, _ in _cell_pencils(nu, mu, N, free_samples):
            if charpoly is None:
                charpoly = poly
            if poly != product:
                counterexamples.append(
                    ConjectureCounterexample(nu, Fraction(mu), N, cval, poly, product)
                )
        return C215Result(
            nu, mu, N, not counterexamples, charpoly, product, tuple(counterexamples)
        )
    if which == "c217":
        mu = Fraction(mu)
        claimed = conjecture_217_claim(nu, mu, N)
        _, pencil, poly, _ = next(_cell_pencils(nu, mu, N, free_samples))
        # the numerators are poly times its denominator: same remainders up to that factor
        rest, contained = poly.numerators, True
        for value in claimed:
            rest, remainder = _deflate(rest, value)
            if remainder:
                contained = False
                break
        spectrum = solve_pencil_numeric(pencil)
        err = multiset_distance(claimed, spectrum)
        return C217Result(nu, mu, N, contained, err, claimed, tuple(map(complex, spectrum)))
    raise ValueError(f"unknown conjecture {which!r}")
