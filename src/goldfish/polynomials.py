"""Monic polynomials bridging particle positions and coefficient variables,
plus exact integer/rational polynomial arithmetic.

Two coefficient conventions coexist for a monic degree-N polynomial:

* ``PLAIN``: ``sum_m c_m z^(N-m)`` with ``c_0 = 1``;
* ``TILDE``: ``sum_m i^m c_m z^(N-m)`` with ``c_0 = 1``.

The TILDE variant keeps the coefficient sequences of the isochronous
systems real at their equilibria; converting between the two multiplies
``c_m`` by ``i^(+-m)``.

Exact-arithmetic utilities (:class:`IntegerPolynomial`,
:func:`pencil_charpoly_exact`, :func:`integer_roots`) never round: a
polynomial is integer numerators over one denominator, and every stage
does its arithmetic on plain ``int`` and hands the next one integers.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "CertificateError",
    "CoefficientConvention",
    "GoldfishError",
    "IntegerPolynomial",
    "MonicPolynomial",
    "RationalMatrix",
    "RootFindingError",
    "coeff_velocities",
    "find_roots",
    "from_roots",
    "integer_roots",
    "pencil_charpoly_exact",
]


class GoldfishError(RuntimeError):
    """A named runtime failure; the command line exits 1 on every subclass."""


class RootFindingError(GoldfishError):
    """Simultaneous root iteration failed to reach the residual target."""


class CertificateError(GoldfishError, ArithmeticError):
    """An exact determinant failed its integer cross-check."""


class CoefficientConvention(enum.Enum):
    PLAIN = "plain"
    TILDE = "tilde"

    def strip(self, plain: np.ndarray) -> np.ndarray:
        """Convert plain coefficients to this convention."""
        if self is CoefficientConvention.PLAIN:
            return plain
        m = np.arange(len(plain))
        return plain * (-1j) ** m

    def unstrip(self, coeffs: np.ndarray) -> np.ndarray:
        """Convert coefficients in this convention back to plain."""
        if self is CoefficientConvention.PLAIN:
            return coeffs
        m = np.arange(len(coeffs))
        return coeffs * 1j ** m


PLAIN = CoefficientConvention.PLAIN
TILDE = CoefficientConvention.TILDE


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic degree-N polynomial stored as coefficients ``c_0..c_N``.

    ``c_0`` is exactly 1; the meaning of ``c_m`` depends on ``convention``.
    """

    coeffs: np.ndarray
    convention: CoefficientConvention = PLAIN

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must form a non-empty vector")
        if c[0] != 1:
            raise ValueError("polynomial must be monic (c_0 == 1)")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def plain_coeffs(self) -> np.ndarray:
        return self.convention.unstrip(self.coeffs)


def from_roots(roots, conv: CoefficientConvention = PLAIN) -> MonicPolynomial:
    """Monic polynomial with the given zeros (Vieta expansion)."""
    r = np.asarray(roots, dtype=complex)
    if not np.all(np.isfinite(r)):
        raise ValueError("roots must be finite")
    plain = np.atleast_1d(np.poly(r)).astype(complex) if r.size else np.array([1.0 + 0j])
    return MonicPolynomial(conv.strip(plain), conv)


def find_roots(poly: MonicPolynomial, tol: float = 1e-12) -> np.ndarray:
    """All zeros via Aberth-Ehrlich simultaneous iteration.

    Initial guesses sit on a circle of radius ``1 + max|c_m|`` with an
    index-dependent phase offset to break symmetry.  Iteration stops once
    every residual satisfies ``|p(root)| <= tol * (1 + max|c_m|)``.
    Clusters of nearly coincident roots converge more slowly but are
    legitimate output.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    c = poly.plain_coeffs()
    cnorm = float(np.max(np.abs(c)))
    radius = 1.0 + cnorm
    ks = np.arange(n)
    z = radius * np.exp(2j * np.pi * (ks + 0.37) / n + 1j * 0.11 * ks)

    # ascending, for Horner's rule
    c_up = c[::-1]
    dcoef_up = c_up[1:] * np.arange(1, n + 1)

    target = tol * (1.0 + cnorm)
    for _ in range(500):
        p = _horner(c_up, z)
        if np.all(np.abs(p) <= target):
            return z
        dp = _horner(dcoef_up, z)
        w = p / np.where(dp == 0, 1e-300, dp)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        z = z - w / (1.0 - w * s)
    p = _horner(c_up, z)
    if np.all(np.abs(p) <= target * 10):
        # multiple roots stall at the attainable accuracy; accept slightly
        # looser residuals rather than failing on a legitimate cluster
        return z
    raise RootFindingError(
        "root iteration did not converge within 500 iterations "
        f"(max residual {float(np.max(np.abs(p))):.3e})"
    )


def coeff_velocities(zeros, zero_velocities, conv: CoefficientConvention = PLAIN) -> np.ndarray:
    """Time derivatives of the monic coefficients from zero velocities.

    Differentiating the Vieta expansion gives
    ``psi_t(z) = -sum_n zdot_n prod_{m != n} (z - z_m)``; the returned
    vector holds the coefficients of ``z^(N-m)`` for ``m = 1..N``.
    """
    z = np.asarray(zeros, dtype=complex)
    v = np.asarray(zero_velocities, dtype=complex)
    if z.shape != v.shape or z.ndim != 1:
        raise ValueError("zeros and velocities must be equal-length vectors")
    n = z.size
    for i in range(n):
        for j in range(i + 1, n):
            if z[i] == z[j]:
                raise ValueError("exactly coincident zeros make deflation ambiguous")
    cdot = np.zeros(n, dtype=complex)
    for k in range(n):
        rest = np.delete(z, k)
        q = np.atleast_1d(np.poly(rest)).astype(complex)  # degree n-1, monic
        cdot -= v[k] * q
    return conv.strip(np.concatenate([[1.0 + 0j], cdot]))[1:]


# ---------------------------------------------------------------------------
# exact integer / rational polynomial arithmetic


def _ratio(x) -> tuple[int, int]:
    """A finite rational ``x`` as Python ints ``(numerator, denominator > 0)``
    in lowest terms; anything else raises ``ValueError``."""
    ratio = getattr(x, "as_integer_ratio", None)  # none on strings such as "1/2"
    try:
        n, d = ratio() if ratio else Fraction(x).as_integer_ratio()
    except (TypeError, OverflowError) as err:  # complex, None, infinities
        raise ValueError(f"not a finite rational: {x!r}") from err
    return int(n), int(d)  # a numpy integer gives numpy parts


@dataclass(frozen=True, init=False)
class IntegerPolynomial:
    """Exact polynomial with rational coefficients, ascending by power.

    Held as integer ``numerators`` over one positive ``denominator``, in
    lowest terms, with trailing zero numerators trimmed; the zero polynomial
    is ``(0,)`` over 1.  ``IntegerPolynomial(coeffs)`` takes ints or
    Fractions, and :attr:`coeffs` is the same polynomial as a tuple of
    ``Fraction`` (a cached view).  Equality and hashing compare the
    integers, which is equality of the coefficients.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, coeffs):
        ratios = [_ratio(x) for x in coeffs]
        den = math.lcm(*(d for _, d in ratios))
        self._set([n * (den // d) for n, d in ratios], den)

    @classmethod
    def _scaled(cls, nums, den: int) -> "IntegerPolynomial":
        """``sum_k nums[k] p^k / den`` for integer ``nums`` and ``den > 0``."""
        poly = cls.__new__(cls)
        poly._set(list(nums), den)
        return poly

    def _set(self, nums: list, den: int):
        while len(nums) > 1 and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        object.__setattr__(self, "numerators", tuple(a // g for a in nums) or (0,))
        object.__setattr__(self, "denominator", den // g)

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.denominator) for a in self.numerators)

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return self.numerators == (0,)

    def __call__(self, x) -> Fraction:
        return _horner(self.coeffs, Fraction(x))

    def __str__(self) -> str:
        den, terms = self.denominator, []
        for k in range(self.degree, -1, -1):
            a = self.numerators[k]
            if not a:
                continue
            g = math.gcd(a, den)
            text = str(abs(a) // g) if g == den else f"{abs(a) // g}/{den // g}"
            if k:  # a unit coefficient is omitted
                text = ("" if abs(a) == den else text) + ("p" if k == 1 else f"p^{k}")
            terms.append(("- " if a < 0 else "+ ") + text)
        if not terms:
            return "0"
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    @staticmethod
    def from_integer_roots(roots) -> "IntegerPolynomial":
        """``prod (p - r)`` over the integer ``roots``."""
        return IntegerPolynomial._scaled(_linear_product(roots), 1)


@dataclass(frozen=True, init=False)
class RationalMatrix:
    """Exact matrix with rational entries.

    Held as integer ``numerators`` (a tuple of rows) over one positive
    ``denominator``, in lowest terms.  ``RationalMatrix(rows)`` takes nested
    ints or Fractions, and returns an equal copy of a ``RationalMatrix``;
    ``len`` is the number of rows.  Equality and hashing compare the
    integers, which is equality of the entries.
    """

    numerators: tuple[tuple[int, ...], ...]
    denominator: int

    def __init__(self, rows):
        if isinstance(rows, RationalMatrix):  # already in lowest terms
            object.__setattr__(self, "numerators", rows.numerators)
            object.__setattr__(self, "denominator", rows.denominator)
            return
        ratios = [[_ratio(x) for x in row] for row in rows]
        den = math.lcm(*(d for row in ratios for _, d in row))
        self._set([[n * (den // d) for n, d in row] for row in ratios], den)

    @classmethod
    def _scaled(cls, rows, den: int) -> "RationalMatrix":
        """``rows / den`` for integer ``rows`` and ``den > 0``."""
        matrix = cls.__new__(cls)
        matrix._set(rows, den)
        return matrix

    def _set(self, rows, den: int):
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        if g != 1:
            rows, den = [[a // g for a in row] for row in rows], den // g
        object.__setattr__(self, "numerators", tuple(map(tuple, rows)))
        object.__setattr__(self, "denominator", den)

    def __len__(self) -> int:
        return len(self.numerators)


def _pencil_size(A: RationalMatrix, B: RationalMatrix) -> int:
    """The common size ``n`` of the square matrices ``A`` and ``B``; any
    other pair is a ``ValueError`` that names both shapes."""
    n = len(A)
    if len(B) != n or any(len(row) != n for row in A.numerators + B.numerators):
        a, b = (
            f"{len(M)}x{'/'.join(map(str, sorted({len(row) for row in M.numerators}))) or 0}"
            for M in (A, B)
        )
        raise ValueError(f"A and B must be square matrices of equal size, got {a} and {b}")
    return n


def _horner(coeffs, x):
    """``sum_k coeffs[k] x^k`` (ascending ``coeffs``) by Horner's rule.

    Generic over the scalar type: ``int``, ``Fraction`` or complex numpy
    arrays (evaluated elementwise) all run through this one loop.
    """
    acc = 0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _linear_product(roots, start=(1,)) -> list:
    """Ascending coefficients of ``start * prod (x - r)`` over ``roots``,
    by synthetic multiplication (``start`` ascending too).

    Generic over the scalar type of ``roots`` (``int`` roots give ``int``
    coefficients, ``Fraction`` roots ``Fraction`` ones); with the default
    ``start`` the leading coefficient is the ``int`` one.
    """
    c = list(start)
    for r in roots:
        c = [0] + c
        for k in range(len(c) - 1):
            c[k] -= r * c[k + 1]
    return c


def _deflate(coeffs, r):
    """Synthetic division of ``sum_k coeffs[k] x^k`` (ascending) by
    ``x - r``: the ascending quotient and the remainder, which is the value
    at ``r``.  Generic over the scalar type, like :func:`_horner`."""
    carry = 0
    quotient = []
    for a in reversed(coeffs[1:]):
        carry = carry * r + a
        quotient.append(carry)
    return quotient[::-1], carry * r + coeffs[0]


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss)
    elimination.  Each step replaces the matrix by its trailing minor; every
    division is exact."""
    if not rows:
        return 1
    sign = 1
    prev = 1
    while len(rows) > 1:
        if rows[0][0] == 0:
            for i in range(1, len(rows)):
                if rows[i][0] != 0:
                    rows[0], rows[i] = rows[i], rows[0]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[0][0]
        tail = rows[0][1:]
        rows = [
            [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in rows[1:]
        ]
        prev = pivot
    return sign * rows[0][0]


def _block_split(A: RationalMatrix, B: RationalMatrix):
    """``(D, k, s, tail)`` for a pencil of two square matrices of one size,
    from one scan of the entries left of the diagonal.  ``D`` is the lcm
    of the denominators.  Every row from the first ``s`` on is zero left of
    the diagonal, and ``tail`` holds each such row's diagonal quadratic
    ``q_j = D p^2 + A_jj p + B_jj`` (scaled by ``D``) as the ascending
    integer triple ``(B_jj, A_jj, D)``.  The leading ``s x s`` block is
    upper triangular on rows and columns ``>= k`` (``k < s``, or
    ``k = s = 0``)."""
    n = len(A)
    D = math.lcm(A.denominator, B.denominator)
    a, b = A.numerators, B.numerators
    k = s = 0
    for i in range(1, n):
        if any(a[i][:i]) or any(b[i][:i]):
            s = i + 1
            while any(a[i][k:i]) or any(b[i][k:i]):
                k += 1
    fa, fb = D // A.denominator, D // B.denominator
    return D, k, s, [(b[j][j] * fb, a[j][j] * fa, D) for j in range(s, n)]


def _node_det(Ai, Bi, D: int, k: int, p: int) -> int:
    """``det M`` for the integer matrix ``M = D p^2 I + p Ai + Bi`` whose
    trailing block ``T = M[k:, k:]`` is upper triangular, at an integer
    ``p`` where no diagonal quadratic
    ``q_j = D p^2 + p Ai[j][j] + Bi[j][j]`` (``j >= k``) vanishes.

    Uses the Schur complement of ``T``.  ``T X = M[k:, :k]`` is solved by
    back substitution, carrying ``Y_i = d_i X_i`` with
    ``d_i = prod_(j >= i) q_j``, so every step stays in integers; a row of
    ``Y`` that comes out zero is dropped.  With ``dk = d_k = det T``,
    ``dk S = dk M[:k, :k] - M[:k, k:] dk X`` is a ``k x k`` integer matrix
    and ``det M = det(dk S) / dk^(k - 1)``, the one (exact) division; at
    ``k = 0``, ``M`` is triangular and ``det M = dk``.  At ``k = n``, ``T``
    is empty and this is plain Bareiss on ``M``.
    """
    n = len(Ai)
    d2 = D * p * p
    q = [d2 + p * Ai[j][j] + Bi[j][j] for j in range(k, n)]
    d = list(itertools.accumulate(reversed(q), operator.mul, initial=1))[::-1]
    dk = d[0]
    if not k:
        return dk
    Y = {}  # the nonzero rows of Y, keyed by their row of M
    for i in reversed(range(k, n)):
        # Y_i = d_(i+1) C_i - sum_j T_ij (d_(i+1) / d_j) Y_j
        y = [d[i - k + 1] * (p * a + b) for a, b in zip(Ai[i][:k], Bi[i][:k])]
        for j, yj in Y.items():
            if t := p * Ai[i][j] + Bi[i][j]:
                t *= math.prod(q[i - k + 1 : j - k])
                for c in range(k):
                    y[c] -= t * yj[c]
        if any(y):
            Y[i] = y
    S = []
    for a in range(k):
        row = [dk * (p * x + y) for x, y in zip(Ai[a][:k], Bi[a][:k])]
        row[a] += dk * d2
        for j, yj in Y.items():
            if t := p * Ai[a][j] + Bi[a][j]:
                t *= math.prod(q[: j - k])  # dk / d_j
                for c in range(k):
                    row[c] -= t * yj[c]
        S.append(row)
    det, rem = divmod(_bareiss_det(S), dk ** (k - 1))
    if rem:
        raise CertificateError("Schur complement determinant is not exact")
    return det


def _node_bits(Ai, Bi, D: int) -> int:
    """Width ``b`` of the node ``2^b`` for ``M(p) = D p^2 I + p Ai + Bi``.

    ``W[i][j] = |Ai[i][j]| + |Bi[i][j]| (+ D on the diagonal)`` is the 1-norm
    of ``M[i][j](p)``'s coefficients.  By submultiplicativity every
    coefficient of ``det M(p)`` is at most ``per(W)``, so at most the smaller
    product of ``W``'s row and column sums (Goldstein-Graham), which also
    exceeds every diagonal quadratic's roots; ``2^(b - 1)`` exceeds twice it.
    """
    W = [[abs(a) + abs(b) for a, b in zip(*rows)] for rows in zip(Ai, Bi)]
    for i, row in enumerate(W):
        row[i] += D
    bound = min(math.prod(map(sum, W)), math.prod(map(sum, zip(*W))))
    return (2 * bound).bit_length() + 1


def _times_quadratics(digits, quadratics) -> list:
    """Ascending integer ``digits`` times each ascending integer triple
    ``(c_0, c_1, c_2)`` of ``quadratics``; a linear factor (``c_2 = 0``)
    leaves a trailing zero digit."""
    for b0, a1, d2 in quadratics:
        digits = [
            d2 * x + a1 * y + b0 * z
            for x, y, z in zip([0, 0, *digits], [0, *digits, 0], [*digits, 0, 0])
        ]
    return digits


def _charpoly_factors(A: RationalMatrix, B: RationalMatrix):
    """``det(p^2 I + p A + B)`` in factors, for two square matrices of one
    size (not checked): ``(digits, D^s, tail)``, the ``2s + 1`` ascending
    digits of the leading ``s x s`` block's determinant over ``D^s``, and
    the tail quadratics of :func:`_block_split`, each over ``D``.  The
    method is :func:`pencil_charpoly_exact`'s, which multiplies the
    factors out."""
    D, k, s, tail = _block_split(A, B)
    Ai, Bi = (
        [row[:s] for row in M.numerators[:s]]  # every grid pencil: one denominator, D = 1
        if M.denominator == D
        else [[x * (D // M.denominator) for x in row[:s]] for row in M.numerators[:s]]
        for M in (A, B)
    )
    b = _node_bits(Ai, Bi, D)
    half, mask, scale = 1 << (b - 1), (1 << b) - 1, D**s
    certificate = None
    for width in (k, s):  # the Schur node, then plain Bareiss
        try:
            value = _node_det(Ai, Bi, D, width, 1 << b)
        except ArithmeticError:
            continue
        digits = []
        for _ in range(2 * s + 1):
            digits.append(((value + half) & mask) - half)
            value = (value - digits[-1]) >> b
        if certificate is None:
            certificate = _node_det(Ai, Bi, D, s, s + 1)
        if not value and _horner(digits, s + 1) == certificate and digits[-1] == scale:
            return digits, scale, tail
    raise CertificateError("charpoly cross-check failed")


def _charpoly(digits, scale, tail) -> IntegerPolynomial:
    """The product of the factors :func:`_charpoly_factors` returns."""
    den = scale * math.prod(D for *_, D in tail)
    return IntegerPolynomial._scaled(_times_quadratics(digits, tail), den)


def pencil_charpoly_exact(A, B) -> IntegerPolynomial:
    """``det(p^2 I + p A + B)`` computed exactly for rational ``A``, ``B``.

    ``A`` and ``B`` are nested rationals or :class:`RationalMatrix` (whose
    integers a pencil's matrices already are, so reading them makes no
    ``Fraction``).  Over ``D``, the lcm of the two matrices' denominators
    and so of all their entries', ``M(p) = D (p^2 I + p A + B)`` is an
    integer matrix at every integer ``p`` and the determinant is
    ``det M(p) / D^N``.  It is the product of the factors that
    :func:`_charpoly_factors` finds, which the exact cell of
    :mod:`goldfish.spectrum` reads unmultiplied.

    * **Split.**  ``M(p)`` is block upper triangular (:func:`_block_split`):
      all below runs on its leading ``s x s`` block, whose determinant is
      then multiplied by each further row's diagonal quadratic.  An
      isochronous pencil at integer ``mu`` has ``s <= mu``; a triangular
      pencil has ``s = 0``, a dense one ``s = N``.
    * **One node.**  The block's determinant is taken once, at
      ``p = 2^b`` (:func:`_node_bits`), where every coefficient lies below
      ``2^(b - 1)`` in magnitude and no diagonal quadratic vanishes.  The
      ``2s + 1`` balanced base-``2^b`` digits of the value are the
      coefficients, and nothing may be left over (Kronecker substitution).
    * **Border.**  ``k`` is the smallest index with the block upper
      triangular on rows and columns ``>= k``.  Every pencil of the
      isochronous bracket has ``k <= 2``: row ``m`` couples only to
      ``c_1``, ``c_2`` and a band on and right of the diagonal.  A dense
      block gives ``k = s - 1``.  The node value is a Schur complement on
      the triangular trailing block plus integer Bareiss on the ``k x k``
      border, so a banded block costs O(s) integer operations, not O(s^3).
    * **Certificate.**  The digits must agree with a Bareiss determinant
      of the whole block at ``s + 1``, an evaluation that takes no Schur
      complement and is made at most once per call, and be monic of
      degree ``2s``.
    * **Fallback.**  If the certificate fails, plain Bareiss on the whole
      block takes the node value again, checked against the same
      certificate; only a second failure raises :class:`CertificateError`.
    """
    A, B = RationalMatrix(A), RationalMatrix(B)
    _pencil_size(A, B)
    return _charpoly(*_charpoly_factors(A, B))


def _root_bound(c: list[int]) -> int:
    """Integer window radius containing all roots of ``sum_k c[k] p^k``.

    Uses the smaller of the Cauchy bound ``1 + max|c_k/c_n|`` and the
    Fujiwara bound ``2 max_k |c_(n-k)/c_n|^(1/k)``; the Cauchy bound alone
    grows with the coefficient size and becomes impractically wide for the
    high-degree spectra handled here.  Cauchy is taken on integers and
    Fujiwara through logarithms, rounded up by far more than their float
    error and taken as a power of two past the float range, so neither
    overflows and both stay rigorous.
    """
    n = len(c) - 1
    lead = abs(c[-1])
    cauchy = (lead + max(abs(a) for a in c[:-1])) // lead
    logs = ((math.log(abs(c[n - k])) - math.log(lead)) / k for k in range(1, n + 1) if c[n - k])
    top = max(logs, default=-math.inf) + 1e-12 * (1 + max(a.bit_length() for a in c))
    fuji = math.floor(2 * math.exp(top)) if top < 700 else 1 << (math.ceil(top / math.log(2)) + 2)
    return min(cauchy, fuji) + 1


# root windows at most this wide are scanned integer by integer
_SCAN = 1024


def _root_candidates(c: list[int], bound: int):
    """The integers of ``[-bound, bound]``, ascending, less windows that
    hold no root of ``sum_k c[k] p^k``.

    A window wider than ``_SCAN``, with midpoint ``m`` and half-width
    ``h``, goes when the Taylor coefficients ``t_k = c^(k)(m) / k!`` give
    ``|t_0| > sum_(k >= 1) |t_k| h^k``, and is halved otherwise; so the
    work grows with the number of roots and ``log(bound)``, not with
    ``bound``.
    """
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < _SCAN:
            yield from range(lo, hi + 1)
            continue
        m, t, rest = (lo + hi) // 2, [], c
        while rest:
            rest, value = _deflate(rest, m)
            t.append(abs(value))
        if 2 * t[0] <= _horner(t, hi - m):
            stack += [(m + 1, hi), (lo, m)]


def integer_roots(q: IntegerPolynomial):
    """All integer roots (with multiplicity) and the deflated remainder.

    ``q`` is scaled once to integer coefficients.  One ascending pass over
    the root-bound window tests by Horner evaluation every integer that
    :func:`_root_candidates` keeps, less the nonzero ones that do not
    divide the current quotient's lowest nonzero coefficient (the rational
    root theorem, once ``p^j`` is factored out) and those ``r`` where
    ``r - m`` does not divide ``f(m)`` for ``m = 1`` or ``m = -1``
    (``f = (p - r) g`` with integer ``g``; ``f`` is the scaled ``q``, and
    ``r = m`` is left to the Horner test); a found root is deflated
    exactly (synthetic division) and re-tested, so multiplicities are
    counted.  Deflation adds no roots, so the first bound holds for every
    quotient and every integer below the current one has already failed.
    The remainder has no integer roots.
    """
    if q.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    c = list(q.numerators)
    roots = []
    if len(c) > 1:
        low = next(filter(None, c))
        at_one, at_minus_one = sum(c), sum(c[::2]) - sum(c[1::2])
        for r in _root_candidates(c, _root_bound(c)):
            # a nonzero root divides low, r - m divides f(m) at m = +-1, and a
            # nonzero constant never vanishes
            while not (
                r and low % r or r - 1 and at_one % (r - 1) or r + 1 and at_minus_one % (r + 1)
            ) and _horner(c, r) == 0:
                roots.append(r)
                c, _ = _deflate(c, r)
                low = next(filter(None, c))
            if len(c) == 1:
                break
    if not roots:
        return roots, q
    return roots, IntegerPolynomial._scaled(c, q.denominator)
