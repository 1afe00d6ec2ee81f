import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from goldfish import polynomials, spectrum
from goldfish.equilibria import ISO_NU_VALUES, cbar_closed_form
from goldfish.spectrum import QuadraticPencil, build_pencil
from goldfish.polynomials import (
    IntegerPolynomial,
    MonicPolynomial,
    RationalMatrix,
    TILDE,
    coeff_velocities,
    find_roots,
    from_roots,
    integer_roots,
    _horner,
    _root_bound,
    pencil_charpoly_exact,
)


def test_from_roots_plain():
    poly = from_roots([1.0, 2.0])
    assert np.allclose(poly.coeffs, [1, -3, 2])


def test_from_roots_all_zero():
    poly = from_roots([0.0, 0.0, 0.0])
    assert np.allclose(poly.coeffs, [1, 0, 0, 0])


def test_from_roots_tilde_strips_phases():
    # z (z - i)^2 = z^3 - 2i z^2 - z
    poly = from_roots([0.0, 1j, 1j], TILDE)
    assert np.allclose(poly.coeffs, [1, -2, 1, 0], atol=1e-14)


def test_find_roots_quadratic():
    poly = MonicPolynomial(np.array([1.0, -3.0, 2.0], dtype=complex))
    roots = np.sort_complex(find_roots(poly))
    assert np.allclose(roots, [1.0, 2.0], atol=1e-12)


def test_find_roots_round_trip():
    rng = np.random.default_rng(11)
    while True:
        roots = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(8)
        if gaps.min() > 0.3:
            break
    poly = from_roots(roots)
    found = find_roots(poly, tol=1e-14)
    cost = np.abs(roots[:, None] - found[None, :])
    from scipy.optimize import linear_sum_assignment

    r, c = linear_sum_assignment(cost)
    assert float(np.max(cost[r, c])) < 1e-10


def test_find_roots_core_cubic_satisfies_algebraic_system():
    poly = MonicPolynomial(np.array([1, -6, 14, -14], dtype=complex), TILDE)
    roots = find_roots(poly)
    assert oracles.iso_core_residual(roots) < 1e-8


def test_coeff_velocities_zero():
    out = coeff_velocities([1.0, 2.0], [0.0, 0.0])
    assert np.allclose(out, 0)


def test_coeff_velocities_hand_value():
    # cdot_1 = -(v1 + v2), cdot_2 = v1 z2 + z1 v2
    out = coeff_velocities([1.0, -1.0], [1.0, 1.0])
    assert np.allclose(out, [-2.0, 0.0])


def test_coeff_velocities_single_zero():
    assert np.allclose(coeff_velocities([0.7], [2.5]), [-2.5])


def test_coeff_velocities_rejects_coincident_zeros():
    with pytest.raises(ValueError):
        coeff_velocities([1.0, 1.0], [0.0, 0.0])


def test_coeff_velocities_matches_finite_difference():
    rng = np.random.default_rng(5)
    z0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    acc = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def zpath(t):
        return z0 + v0 * t + 0.5 * acc * t * t

    def cof(t):
        return from_roots(zpath(t)).coeffs[1:]

    analytic = coeff_velocities(zpath(0.0), v0)

    def fd_err(h):
        fd = (cof(h) - cof(-h)) / (2 * h)
        return float(np.max(np.abs(fd - analytic)))

    e1, e2 = fd_err(1e-3), fd_err(5e-4)
    assert e1 < 1e-4
    # centered difference converges at second order
    assert e2 < e1 / 2.5


def test_convention_round_trip_exact():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    c[0] = 1.0
    back = TILDE.unstrip(TILDE.strip(c))
    assert np.array_equal(back, c)


def test_integer_polynomial_str_and_eval():
    p = IntegerPolynomial((Fraction(2), Fraction(-3), Fraction(1)))
    assert str(p) == "p^2 - 3p + 2"
    assert p(5) == 12
    assert oracles.deflate(p, 1).coeffs == (Fraction(-2), Fraction(1))


_coefficient = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)]),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@given(st.lists(_coefficient, max_size=7))
@example([])
@example([0, Fraction(0)])
@example([Fraction(-1)])
@example([0, 1, -1])
@example([Fraction(1, 6), Fraction(-1, 3), Fraction(1, 2), 0, 0])
@example([2, Fraction(-4, 2), Fraction(3, 3), -1])
def test_integer_polynomial_str_equals_the_fraction_text(coeffs):
    """The text built from the integer form is the one the ``Fraction``
    coefficients give, byte for byte: signs, ``p^k``, the omitted unit
    coefficient, ``n/d`` in lowest terms, constants and the zero polynomial."""
    assert str(IntegerPolynomial(coeffs)) == oracles.poly_str(coeffs)


@given(st.lists(st.integers(-(10**6), 10**6), max_size=6), st.integers(1, 12), st.integers(1, 12))
@example([0, 0], 5, 3)
@example([3, 0, -6], 3, 4)
def test_integer_polynomial_has_one_form(nums, den, k):
    """Ints, Fractions, a mix of both, trailing zeros, and integers over an
    unreduced common denominator give one polynomial: equal, equally hashed,
    in lowest terms, with the same ``Fraction`` view and the same text."""
    rational = tuple(Fraction(a, den) for a in nums)
    forms = [
        IntegerPolynomial(rational),
        IntegerPolynomial(tuple(int(a) if a.denominator == 1 else a for a in rational)),
        IntegerPolynomial(rational + (0, Fraction(0))),
        IntegerPolynomial._scaled([k * a for a in nums] + [0], k * den),
    ]
    view = rational
    while len(view) > 1 and not view[-1]:
        view = view[:-1]
    view = view or (Fraction(0),)
    for p in forms:
        assert p == forms[0] and hash(p) == hash(forms[0])
        assert p.denominator > 0 and math.gcd(p.denominator, *p.numerators) == 1
        assert type(p.coeffs) is tuple and all(type(a) is Fraction for a in p.coeffs)
        assert p.coeffs == view and p.degree == len(view) - 1
        assert p.is_zero == (view == (Fraction(0),))
        assert str(p) == oracles.poly_str(rational)


def test_horner_equals_power_sum_on_every_scalar_type():
    """The one Horner loop evaluates int, Fraction and complex-array
    polynomials; integral complex values keep the array case exact."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(0, 7))
        ints = [int(a) for a in rng.integers(-9, 10, n + 1)]
        x = int(rng.integers(-6, 7))
        got = _horner(ints, x)
        assert type(got) is int and got == sum(a * x**k for k, a in enumerate(ints))
        fracs = [Fraction(a, int(d)) for a, d in zip(ints, rng.integers(1, 6, n + 1))]
        q = Fraction(int(rng.integers(-7, 8)), int(rng.integers(1, 5)))
        got = _horner(fracs, q)
        assert type(got) is Fraction and got == sum(a * q**k for k, a in enumerate(fracs))
        cs = rng.integers(-9, 10, n + 1) + 1j * rng.integers(-9, 10, n + 1)
        z = rng.integers(-3, 4, 5) + 1j * rng.integers(-3, 4, 5)
        want = sum(a * z**k for k, a in enumerate(cs))
        assert np.array_equal(_horner(cs, z), want)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.allclose(_horner(cs, z), sum(a * z**k for k, a in enumerate(cs)))


def test_pencil_charpoly_scalar():
    poly = pencil_charpoly_exact([[-3]], [[2]])
    assert poly.coeffs == (Fraction(2), Fraction(-3), Fraction(1))


def test_pencil_charpoly_block_diagonal():
    poly = pencil_charpoly_exact([[-3, 0], [0, -5]], [[2, 0], [0, 6]])
    expect = oracles.poly_mul(
        IntegerPolynomial((Fraction(2), Fraction(-3), Fraction(1))),
        IntegerPolynomial((Fraction(6), Fraction(-5), Fraction(1))),
    )
    assert poly.coeffs == expect.coeffs


def _poly_det_by_minors(entries):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    acc = IntegerPolynomial((Fraction(0),))
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = oracles.poly_mul(entries[0][j], _poly_det_by_minors(minor))
        sign = IntegerPolynomial((Fraction((-1) ** j),))
        acc = oracles.poly_add(acc, oracles.poly_mul(sign, term))
    return acc


def test_pencil_charpoly_matches_minor_expansion():
    rng = np.random.default_rng(17)
    n = 4
    integral = (rng.integers(-5, 6, (n, n)).tolist(), rng.integers(-5, 6, (n, n)).tolist())
    # mixed denominators, so the one-time integer scaling is not the identity
    dens = (1, 2, 3, 4, 6, 9)

    def entry():
        return Fraction(int(rng.integers(-9, 10)), dens[int(rng.integers(len(dens)))])

    rational = tuple([[entry() for _ in range(n)] for _ in range(n)] for _ in range(2))
    for A, B in (integral, rational):
        fast = pencil_charpoly_exact(A, B)
        entries = [
            [
                IntegerPolynomial(
                    (Fraction(B[i][j]), Fraction(A[i][j]), Fraction(1 if i == j else 0))
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        slow = _poly_det_by_minors(entries)
        assert fast.coeffs == slow.coeffs


def test_pencil_charpoly_zero_a_diagonal_b():
    bdiag = [3, -2, 7]
    n = 3
    B = [[bdiag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    A = [[0] * n for _ in range(n)]
    poly = pencil_charpoly_exact(A, B)
    expect = IntegerPolynomial((Fraction(1),))
    for b in bdiag:
        expect = oracles.poly_mul(
            expect, IntegerPolynomial((Fraction(b), Fraction(0), Fraction(1)))
        )
    assert poly.coeffs == expect.coeffs


def test_integer_roots_simple():
    p = IntegerPolynomial((Fraction(2), Fraction(-3), Fraction(1)))
    roots, rem = integer_roots(p)
    assert roots == [1, 2] and rem.coeffs == (Fraction(1),)


def test_integer_roots_none():
    p = IntegerPolynomial((Fraction(1), Fraction(0), Fraction(1)))
    roots, rem = integer_roots(p)
    assert roots == [] and rem.coeffs == p.coeffs


def test_integer_roots_quartic_cell():
    # (p+1)(p-4)(p-1)(p-2)
    p = IntegerPolynomial.from_integer_roots([-1, 4, 1, 2])
    roots, rem = integer_roots(p)
    assert roots == [-1, 1, 2, 4] and rem.coeffs == (Fraction(1),)


def test_integer_roots_with_multiplicity():
    p = IntegerPolynomial.from_integer_roots([3, 3, -2])
    roots, rem = integer_roots(p)
    assert roots == [-2, 3, 3] and rem.coeffs == (Fraction(1),)


def test_integer_roots_zero_root_with_multiplicity():
    p = IntegerPolynomial.from_integer_roots([0, 0, 0, -3, 5])
    assert p.coeffs[0] == 0
    roots, rem = integer_roots(p)
    assert roots == [-3, 0, 0, 0, 5] and rem.coeffs == (Fraction(1),)


def test_integer_roots_non_monic():
    roots, rem = integer_roots(IntegerPolynomial((Fraction(-2), Fraction(0), Fraction(2))))
    assert roots == [-1, 1] and rem.coeffs == (Fraction(2),)


def test_integer_roots_rational_coefficients():
    # (p - 3)(p^2 + 1/3)
    quadratic = IntegerPolynomial((Fraction(1, 3), Fraction(0), Fraction(1)))
    p = oracles.poly_mul(IntegerPolynomial.from_integer_roots([3]), quadratic)
    roots, rem = integer_roots(p)
    assert roots == [3] and rem.coeffs == quadratic.coeffs


def test_integer_roots_constant():
    for c in (Fraction(1), Fraction(-7, 3)):
        roots, rem = integer_roots(IntegerPolynomial((c,)))
        assert roots == [] and rem.coeffs == (c,)
    with pytest.raises(ValueError):
        integer_roots(IntegerPolynomial((Fraction(0),)))


def test_integer_roots_at_window_ends():
    # p - k attains the Cauchy bound 1 + |k|, so its window of radius |k| + 2
    # is the tightest there is: the root is the outermost one a window holds
    for k in (-11, 11):
        p = oracles.poly_mul(
            IntegerPolynomial.from_integer_roots([k]), IntegerPolynomial((Fraction(3),))
        )
        assert _root_bound([int(a) for a in p.coeffs]) == abs(k) + 2
        assert integer_roots(p) == ([k], IntegerPolynomial((Fraction(3),)))
    # the extreme roots of a spectrum, each with multiplicity
    p = IntegerPolynomial.from_integer_roots([-9, -9, 2, 9, 9, 9])
    assert integer_roots(p) == ([-9, -9, 2, 9, 9, 9], IntegerPolynomial((Fraction(1),)))


@given(
    st.lists(st.one_of(st.integers(-12, 12), st.integers(-10**6, 10**6)), max_size=6),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=8), min_size=1, max_size=4
    ),
)
def test_integer_roots_in_wide_windows(roots, cofactor):
    """Far roots widen the window past what is scanned integer by integer;
    the excluded sub-windows must hold none of them.  The roots are the
    given ones plus the cofactor's own, and the remainder is the
    cofactor's."""
    cofactor = IntegerPolynomial(tuple(cofactor))
    if cofactor.is_zero:
        return
    p = oracles.poly_mul(IntegerPolynomial.from_integer_roots(roots), cofactor)
    own, rest = oracles.integer_roots(cofactor)
    assert integer_roots(p) == (sorted(roots + own), rest)


def test_integer_roots_work_grows_with_log_of_the_window(monkeypatch):
    """Roots near +-1e20 take a few thousand evaluations, not one per
    integer of the window."""
    calls = Counter()

    def counted(coeffs, x):
        calls["horner"] += 1
        assert calls["horner"] < 10**5, "scanning the window integer by integer"
        return _horner(coeffs, x)

    monkeypatch.setattr(polynomials, "_horner", counted)
    roots = [-(10**20), -(10**20) + 3, -(10**20) + 3, 7, 10**20 - 1]
    quadratic = IntegerPolynomial((Fraction(2), Fraction(0), Fraction(1)))  # p^2 + 2
    p = oracles.poly_mul(IntegerPolynomial.from_integer_roots(roots), quadratic)
    assert integer_roots(p) == (roots, quadratic)


@given(
    st.lists(st.integers(-12, 12), max_size=6),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=8), min_size=1, max_size=4
    ),
)
def test_integer_roots_equal_oracle(roots, cofactor):
    cofactor = IntegerPolynomial(tuple(cofactor))
    if cofactor.is_zero:
        return
    p = oracles.poly_mul(IntegerPolynomial.from_integer_roots(roots), cofactor)
    got = integer_roots(p)
    assert got == oracles.integer_roots(p)
    assert not Counter(roots) - Counter(got[0])
    rebuilt = oracles.poly_mul(IntegerPolynomial.from_integer_roots(got[0]), got[1])
    assert rebuilt.coeffs == p.coeffs


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(-12, -2), min_size=1, max_size=3),
    st.lists(st.integers(2, 12), max_size=2),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=8), min_size=1, max_size=4
    ),
)
def test_integer_roots_skip_only_non_roots(zeros, ones, minus_ones, negative, positive, cofactor):
    """0 and +-1 with multiplicity, negative roots and a cofactor with no
    integer root: skipping the candidates that do not divide the lowest
    nonzero coefficient loses none of the roots."""
    cofactor = IntegerPolynomial(tuple(cofactor))
    assume(not cofactor.is_zero and not oracles.integer_roots(cofactor)[0])
    roots = [0] * zeros + [1] * ones + [-1] * minus_ones + negative + positive
    p = oracles.poly_mul(IntegerPolynomial.from_integer_roots(roots), cofactor)
    got = integer_roots(p)
    assert got == (sorted(roots), cofactor)
    assert got == oracles.integer_roots(p)


@pytest.mark.parametrize(
    "shift, roots, horner", [(0, 20, 52), (Fraction(1, 2), 0, 1)], ids=["grid", "shifted"]
)
def test_integer_roots_horner_count_on_a_grid_cell(monkeypatch, shift, roots, horner):
    """The (nu, mu, N) = (3, 5, 10) pencil (20 integer roots, window
    [-49, 49]) and the same with c_1 shifted by 1/2 (none, window [-31, 31]).
    Only candidates ``r`` dividing the lowest nonzero coefficient, with
    ``r - 1`` dividing ``f(1)`` and ``r + 1`` dividing ``f(-1)``, get a
    Horner test: 52 and 1 tests, where testing every candidate takes 76
    and 63, and the lowest coefficient alone leaves 52 and 19."""
    cbar = list(cbar_closed_form(3, 5, 10))
    cbar[0] += shift
    pencil = build_pencil(cbar)
    poly = pencil_charpoly_exact(pencil.A, pencil.B)
    calls = Counter()

    def counted(coeffs, x):
        calls["horner"] += 1
        return _horner(coeffs, x)

    monkeypatch.setattr(polynomials, "_horner", counted)
    found, rest = integer_roots(poly)
    assert len(found) == roots and rest.degree == 20 - roots
    assert calls["horner"] == horner


def test_root_bound_past_the_float_range():
    """Coefficient quotients beyond 1.8e308 give an integer window, not an
    overflow, and the window still holds every root."""
    far = 10**200
    p = IntegerPolynomial.from_integer_roots([-far, 3, far + 1])
    assert far + 1 <= _root_bound([int(a) for a in p.coeffs]) <= 3 * far
    assert integer_roots(p) == ([-far, 3, far + 1], IntegerPolynomial((Fraction(1),)))
    # p^2 + 10^400 has its roots at +-10^200 i
    assert 10**200 <= _root_bound([10**400, 0, 1]) <= 3 * 10**200
    assert _root_bound([3, 10**500]) == _root_bound([0, 0, 7]) == 1


@given(
    st.lists(st.integers(-(10**400), 10**400), min_size=1, max_size=4),
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=3),
)
def test_root_bound_holds_every_root(roots, cofactor):
    """Roots up to 1e400, far past the float range, lie inside the window."""
    assume(cofactor[-1])
    c = oracles.poly_mul(
        IntegerPolynomial.from_integer_roots(roots), IntegerPolynomial(tuple(cofactor))
    ).coeffs
    assert max(map(abs, roots)) <= _root_bound([int(a) for a in c])


def test_root_bound_is_no_wider_than_in_floats():
    """On the N <= 6 grid pencils and their c_1 shifts, where every float is
    in range, the window is the one the float Cauchy and Fujiwara bounds give."""
    for N in range(1, 7):
        for nu in (0, 1, 3, 4, 5):
            for mu in range(nu, N + 1):
                for shift in (0, Fraction(-3, 2), Fraction(1, 2)):
                    cbar = list(cbar_closed_form(nu, mu, N))
                    cbar[0] += shift
                    pencil = build_pencil(cbar)
                    poly = pencil_charpoly_exact(pencil.A, pencil.B)
                    den = math.lcm(*(a.denominator for a in poly.coeffs))
                    c = [int(a * den) for a in poly.coeffs]
                    assert _root_bound(c) == oracles._root_bound(poly), (nu, mu, N, shift)


_small_rational = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _rational_pencils(draw):
    n = draw(st.integers(1, 5))
    square = st.lists(st.lists(_small_rational, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square)


@given(_rational_pencils())
def test_pencil_charpoly_equals_oracle_on_random_rationals(pencil):
    A, B = pencil
    poly = pencil_charpoly_exact(A, B)
    assert poly == oracles.charpoly(A, B)
    assert integer_roots(poly) == oracles.integer_roots(poly)


@given(_rational_pencils())
def test_rational_matrix_round_trip_and_kernel_inputs(pencil):
    """A ``RationalMatrix`` is its entries in lowest terms over a positive
    denominator, and the kernel gives the same polynomial on it as on
    ``Fraction`` tuples, also when ``A`` and ``B`` have different
    denominators."""
    A, B = pencil
    for rows in (A, B):
        M = RationalMatrix(rows)
        assert oracles.fraction_rows(M) == rows and RationalMatrix(M) == M
        assert M.denominator > 0 and math.gcd(M.denominator, *sum(M.numerators, ())) == 1
    # a factor 49 in the denominator, which no entry of A has
    B = [[x / 7 for x in row] for row in B]
    B[0][0] += Fraction(1, 49)
    assert RationalMatrix(B).denominator % 49 == 0
    poly = pencil_charpoly_exact(tuple(map(tuple, A)), tuple(map(tuple, B)))
    assert pencil_charpoly_exact(RationalMatrix(A), RationalMatrix(B)) == poly
    assert poly == oracles.charpoly(A, B)


def test_exact_inputs_from_numpy_integers():
    """numpy integer entries become Python ints, and an entry that is not
    a finite rational is a ValueError."""
    poly = pencil_charpoly_exact(np.array([[1, 2], [3, 4]]), [[0, 0], [0, 0]])
    assert poly == IntegerPolynomial((0, 0, -2, 5, 1))  # p^4 + 5p^3 - 2p^2
    assert str(poly) == "p^4 + 5p^3 - 2p^2"
    q = IntegerPolynomial(np.array([-6, 1, 1]))
    assert all(type(a) is int for a in q.numerators)
    assert integer_roots(q)[0] == [-3, 2]
    for bad in (1j, None, float("inf"), float("nan"), "x"):
        with pytest.raises(ValueError):
            pencil_charpoly_exact([[bad]], [[0]])
        with pytest.raises(ValueError):
            IntegerPolynomial((1, bad))


def _count_bareiss(mp, wrong=lambda size: False):
    """Patch ``polynomials._bareiss_det`` to record the size of every
    matrix it is given; where ``wrong(size)`` holds, it returns det + 1."""
    sizes = []
    bareiss = polynomials._bareiss_det

    def counted(rows):
        sizes.append(len(rows))
        return bareiss(rows) + (1 if wrong(len(rows)) else 0)

    mp.setattr(polynomials, "_bareiss_det", counted)
    return sizes


@st.composite
def _bordered_pencils(draw):
    """Rational pencils upper triangular outside their first ``k`` rows and
    columns; some diagonal quadratics ``(p - r1)(p - r2)`` have small integer
    roots, which the evaluation node must avoid."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    # zero only strictly below the diagonal of the trailing block
    A = [[draw(_small_rational) if j < k or j >= i else 0 for j in range(n)] for i in range(n)]
    B = [[draw(_small_rational) if j < k or j >= i else 0 for j in range(n)] for i in range(n)]
    for i in range(k, n):
        if draw(st.booleans()):
            r1, r2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            A[i][i], B[i][i] = Fraction(-(r1 + r2)), Fraction(r1 * r2)
    return A, B


def _widths(A, B):
    """``(k, s)`` read off the entries left of the diagonal: one past the
    last column any of them is nonzero in, and one past the last row."""
    A, B = oracles.fraction_rows(RationalMatrix(A)), oracles.fraction_rows(RationalMatrix(B))
    lower = [(i, j) for i in range(len(A)) for j in range(i) if A[i][j] or B[i][j]]
    return max((j + 1 for _, j in lower), default=0), max((i + 1 for i, _ in lower), default=0)


def _assert_one_certified_node(A, B):
    """The kernel agrees with the Fraction oracle and takes two Bareiss
    determinants, or none when the pencil is triangular (``s = 0``): the
    ``k x k`` border of the Schur node and the certificate on the leading
    ``s x s`` block, so the fallback never runs."""
    k, s = _widths(A, B)
    with pytest.MonkeyPatch.context() as mp:
        sizes = _count_bareiss(mp)
        poly = pencil_charpoly_exact(A, B)
    assert poly == oracles.charpoly(A, B)
    assert sizes == ([k, s] if s else []), (k, s)
    return poly


@given(_bordered_pencils())
def test_pencil_charpoly_bordered_equals_oracle(pencil):
    """The Schur route is exact on every border width, diagonal quadratics
    with integer roots included, and its one determinant of the whole
    leading block is the certificate."""
    _assert_one_certified_node(*pencil)


@st.composite
def _block_triangular_pencils(draw):
    """Pencils of entries ``k / D`` (``D`` in {1, 2, 6}) whose rows from a
    drawn ``s`` on are zero left of the diagonal.  Some diagonal quadratics
    past ``s`` are ``(p - r)(p - t)`` with an integer ``r`` and ``t`` an
    integer or a multiple of ``1 / D``: two integer roots, a double one, or
    one integer and one rational root; the others have random coefficients,
    often a negative or non-square discriminant."""
    n = draw(st.integers(1, 7))
    s = draw(st.integers(0, n))
    D = draw(st.sampled_from((1, 2, 6)))
    entry = st.integers(-12, 12).map(lambda k: Fraction(k, D))
    A = [[draw(entry) if i < s or j >= i else 0 for j in range(n)] for i in range(n)]
    B = [[draw(entry) if i < s or j >= i else 0 for j in range(n)] for i in range(n)]
    for i in range(s, n):
        if draw(st.booleans()):
            r = draw(st.integers(-4, 4))
            t = Fraction(draw(st.integers(-8, 8)), draw(st.sampled_from((1, D))))
            A[i][i], B[i][i] = -(r + t), r * t
    return A, B


def _assert_split_route_is_the_full_scan(A, B):
    """The kernel splits off the rows past the leading block and still
    equals the Fraction oracle with one certificate (on the block), and the
    integrality route's roots and remainder, found from the kernel's
    factors (the tail quadratics and a scan of the leading block's
    charpoly), are those of the full scan.  Returns the roots the route
    found without the scan."""
    full = _assert_one_certified_node(A, B)
    pencil = QuadraticPencil(A, B)
    scanned = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "integer_roots", lambda q: scanned.append(q) or integer_roots(q))
        got = spectrum._integer_spectrum(*polynomials._charpoly_factors(pencil.A, pencil.B))
    assert got == integer_roots(full)
    (rest,) = scanned
    return Counter(got[0]) - Counter(integer_roots(rest)[0])


@given(_block_triangular_pencils())
def test_split_integrality_route_equals_the_full_scan(pencil):
    _assert_split_route_is_the_full_scan(*pencil)


_LADDER = build_pencil([0] * 5)  # triangular: p^2 - (2m + 1) p + m(m + 1) on row m


@pytest.mark.parametrize(
    "A, B, s, tail_roots",
    [
        (_LADDER.A, _LADDER.B, 0, [1, 2, 2, 3, 3, 4, 4, 5, 5, 6]),
        ([[1, 2, 0], [3, 4, 1], [1, 0, 2]], [[0, 1, 1], [1, 0, 0], [2, 1, 0]], 3, []),
        ([[0, 1, 2], [3, 0, 1], [0, 0, -4]], [[1, 0, 0], [2, 1, 0], [0, 0, 4]], 2, [2, 2]),
        ([[0, 1, 2], [3, 0, 1], [0, 0, 0]], [[1, 0, 0], [2, 1, 0], [0, 0, 1]], 2, []),
        (
            [[0, 1, 2], [3, 0, 1], [0, 0, Fraction(-3, 2)]],
            [[1, 0, 0], [2, 1, 0], [0, 0, Fraction(1, 2)]],
            2,
            [1],
        ),
    ],
    ids=["triangular", "dense", "double-root", "negative-discriminant", "one-integer-root"],
)
def test_split_integrality_route_on_hand_pencils(A, B, s, tail_roots):
    """The leading block has size ``s``: none for a triangular pencil, the
    whole pencil for a dense one.  A tail quadratic gives its integer roots
    with multiplicity (``(p - 2)^2``), none (``p^2 + 1``), or one of two
    (``2p^2 - 3p + 1``, roots 1 and 1/2, whose cofactor is left to the
    scan and goes into the remainder)."""
    _, _, got, tail = polynomials._block_split(RationalMatrix(A), RationalMatrix(B))
    assert (got, len(tail)) == (s, len(A) - s) and _widths(A, B)[1] == s
    assert _assert_split_route_is_the_full_scan(A, B) == Counter(tail_roots)


def _scaled(A, B):
    """``(Ai, Bi, D)``: the pencil scaled to integers by the lcm ``D`` of its
    denominators, as the kernel scales it."""
    A, B = oracles.fraction_rows(A), oracles.fraction_rows(B)
    D = math.lcm(*(x.denominator for row in [*A, *B] for x in row))
    return [[int(x * D) for x in row] for row in A], [[int(x * D) for x in row] for row in B], D


def _diagonal_quadratics(Ai, Bi, D, p):
    return [D * p * p + p * Ai[i][i] + Bi[i][i] for i in range(len(Ai))]


def _diagonal_pencil(a, b, n=5):
    return tuple([[x * (i == j) for j in range(n)] for i in range(n)] for x in (a, b))


@given(_bordered_pencils(), st.integers(-8, 8))
def test_node_det_agrees_on_every_border_width(pencil, p):
    """Every border width from the smallest to ``n`` gives the same
    determinant at an integer ``p`` where no diagonal quadratic vanishes,
    and ``k = n`` (plain Bareiss) is ``D^N`` times the charpoly there."""
    A, B = pencil
    Ai, Bi, D = _scaled(A, B)
    while not all(_diagonal_quadratics(Ai, Bi, D, p)):
        p += 1  # each quadratic has at most two roots
    n = len(A)
    full = polynomials._node_det(Ai, Bi, D, n, p)
    assert full == oracles.charpoly(A, B)(p) * D**n
    for k in range(_widths(A, B)[0], n + 1):
        assert polynomials._node_det(Ai, Bi, D, k, p) == full, k


@given(st.one_of(_rational_pencils(), _bordered_pencils()))
@example(_diagonal_pencil(0, -36))  # |B| alone: roots +-6
@example(_diagonal_pencil(-6, 0))  # |A| alone: roots 0 and 6
def test_node_bits_bound_the_charpoly(pencil):
    """At ``p = 2^b`` every coefficient of ``det M(p) = D^N charpoly`` is a
    balanced base-``2^b`` digit, and no diagonal quadratic vanishes."""
    A, B = pencil
    Ai, Bi, D = _scaled(A, B)
    bits = polynomials._node_bits(Ai, Bi, D)
    scale = D ** len(A)
    assert all(abs(c * scale) < 2 ** (bits - 1) for c in oracles.charpoly(A, B).coeffs)
    assert all(_diagonal_quadratics(Ai, Bi, D, 2**bits))


def test_node_bits_near_the_coefficients_on_the_grid():
    """On the N <= 20 grid the node is at most twice as wide as the largest
    coefficient of ``det M(p) = D^N charpoly`` plus a constant, and wide
    enough for it."""
    for N in range(1, 21):
        for nu in ISO_NU_VALUES:
            for mu in range(nu, N + 1):
                pen = build_pencil(cbar_closed_form(nu, mu, N))
                Ai, Bi, D = _scaled(pen.A, pen.B)
                poly = pencil_charpoly_exact(pen.A, pen.B)
                top = max(map(abs, poly.numerators)) * D**N // poly.denominator
                bits = polynomials._node_bits(Ai, Bi, D)
                assert top < 2 ** (bits - 1), (nu, mu, N)
                assert bits <= 2 * top.bit_length() + 20, (nu, mu, N, bits, top.bit_length())


def _skew_nodes(mp, bad):
    """Patch the node evaluator so that a determinant of border width ``k``
    at ``p`` is off by one wherever ``bad(k, p)`` holds."""
    node_det = polynomials._node_det
    mp.setattr(
        polynomials,
        "_node_det",
        lambda Ai, Bi, D, k, p: node_det(Ai, Bi, D, k, p) + (1 if bad(k, p) else 0),
    )


def _grid_pencil():
    """The ``(nu, mu, N) = (3, 4, 6)`` pencil: its leading block has
    ``s = 4`` rows, and the two rows past it split off."""
    pen = build_pencil(cbar_closed_form(3, 4, 6))
    assert _widths(pen.A, pen.B) == (2, 4)
    return pen, 4


def test_pencil_charpoly_falls_back_on_a_wrong_node():
    """A wrong Schur node value fails the certificate (or the exact
    division), and plain Bareiss on the ``s x s`` leading block at the
    same node then gives the right polynomial; when that fails too, the
    result is an ArithmeticError, never a wrong polynomial."""
    pen, s = _grid_pencil()
    expect = oracles.charpoly(pen.A, pen.B)
    with pytest.MonkeyPatch.context() as mp:
        _skew_nodes(mp, lambda k, p: k < s)
        sizes = _count_bareiss(mp)
        assert pencil_charpoly_exact(pen.A, pen.B) == expect
    # the certificate at s + 1, taken once, and the fallback node
    assert sizes.count(s) == 2
    with pytest.MonkeyPatch.context() as mp:
        # a border determinant off by one leaves a remainder in det(dk S) / dk^(k-1)
        sizes = _count_bareiss(mp, lambda size: size < s)
        assert pencil_charpoly_exact(pen.A, pen.B) == expect
    assert sizes.count(s) == 2
    with pytest.MonkeyPatch.context() as mp:
        # both routes wrong at the node, the certificate's determinant right
        _skew_nodes(mp, lambda k, p: p != s + 1)
        with pytest.raises(ArithmeticError, match="cross-check"):
            pencil_charpoly_exact(pen.A, pen.B)


def test_pencil_charpoly_fails_on_a_too_narrow_node(monkeypatch):
    """A node too small for the leading block's coefficients carries digits
    into each other: both routes then read off the same wrong digits and
    the result is an ArithmeticError, never a wrong polynomial."""
    pen, s = _grid_pencil()
    Ai, Bi, D = _scaled(pen.A, pen.B)
    Ai, Bi = [row[:s] for row in Ai[:s]], [row[:s] for row in Bi[:s]]
    block = ([[Fraction(x, D) for x in row] for row in M] for M in (Ai, Bi))
    scaled = [int(c * D**s) for c in oracles.charpoly(*block).coeffs]
    # at this width the largest coefficient is no balanced digit
    narrow = max(map(abs, scaled)).bit_length()
    assert narrow < polynomials._node_bits(Ai, Bi, D)
    for bits in range(narrow // 2, narrow + 1):
        assert all(_diagonal_quadratics(Ai, Bi, D, 2**bits))
        monkeypatch.setattr(polynomials, "_node_bits", lambda Ai, Bi, D: bits)
        with pytest.raises(ArithmeticError, match="cross-check"):
            pencil_charpoly_exact(pen.A, pen.B)
