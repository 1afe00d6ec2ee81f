from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import oracles
from goldfish import equilibria, polynomials, spectrum
from goldfish.cli import main
from goldfish.equilibria import (
    cbar_closed_form,
    enumerate_altgold_equilibria,
    enumerate_iso_equilibria,
    expand_iso_psi,
)
from goldfish.polynomials import (
    IntegerPolynomial,
    RationalMatrix,
    integer_roots,
    pencil_charpoly_exact,
)
from goldfish.spectrum import (
    DEFAULT_NU5_SAMPLES,
    build_pencil,
    conjecture_215_product,
    conjecture_217_claim,
    solve_pencil_numeric,
    verify_conjectures,
    verify_integrality,
)


def multiset_dev(a, b):
    cost = np.abs(np.asarray(a, dtype=complex)[:, None] - np.asarray(b, dtype=complex)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


# ---------------------------------------------------------------------------
# pencil assembly


def test_pencil_ladder_cell():
    pen = build_pencil([Fraction(0), Fraction(0)])
    assert pen.A == RationalMatrix([[-3, 0], [0, -5]])
    assert pen.B == RationalMatrix([[2, 0], [0, 6]])


def test_pencil_hand_cell():
    pen = build_pencil(cbar_closed_form(0, 1, 2))
    assert pen.A == RationalMatrix([[-3, 0], [0, -3]])
    assert pen.B == RationalMatrix([[-4, -6], [0, 2]])


def test_pencil_single_row():
    pen = build_pencil([Fraction(0)])
    assert pen.A == RationalMatrix([[-3]]) and pen.B == RationalMatrix([[2]])


def test_pencil_shapes_are_checked():
    """Matrices that are not square of one size are refused when the pencil
    is made, with both shapes in the message."""
    for A, B, shapes in (
        ([[1]], [[1], [2]], "1x1 and 2x1"),
        ([[1, 2]], [[1]], "1x2 and 1x1"),
        ([[1, 2], [3]], [[1, 0], [0, 1]], "2x1/2 and 2x2"),
    ):
        with pytest.raises(ValueError, match=shapes):
            spectrum.QuadraticPencil(A, B)
        with pytest.raises(ValueError, match=shapes):
            pencil_charpoly_exact(A, B)


@pytest.mark.parametrize("bad", [1j, float("inf"), float("nan"), None, "x"])
def test_pencil_refuses_cbar_entries_that_are_not_finite_rationals(bad):
    with pytest.raises(ValueError):
        build_pencil([Fraction(1, 2), bad])


def test_pencil_refuses_a_rational_time_equilibrium():
    """Only an isochronous equilibrium is linearised: a rational-time one
    (plain convention, another recurrence) is refused with its family
    named, while its bare ``cbar`` is still read as numbers."""
    for config in (
        enumerate_altgold_equilibria(4, Fraction(1, 2))[0],
        enumerate_altgold_equilibria(3, 1)[-1],
        enumerate_altgold_equilibria(6, 2)[-1],
    ):
        with pytest.raises(ValueError, match=config.family.value):
            build_pencil(config)
        assert build_pencil(config.cbar).N == config.N
    iso = enumerate_iso_equilibria(4)[-1]
    assert build_pencil(iso) == build_pencil(iso.cbar)


def test_pencil_triangular_at_trivial_equilibrium():
    for n in (3, 6):
        pen = build_pencil([Fraction(0)] * n)
        for i in range(n):
            for j in range(i):
                assert pen.A.numerators[i][j] == 0 and pen.B.numerators[i][j] == 0


def _grid_cbars(ns=range(1, 11)):
    """Every pencil the N <= 10 integrality grid builds (for the sizes ``ns``)."""
    for n in ns:
        for nu in (0, 1, 3, 4, 5):
            for mu in range(nu, n + 1):
                for c in DEFAULT_NU5_SAMPLES if nu == 5 else (Fraction(0),):
                    yield cbar_closed_form(nu, mu, n, c)


def test_pencil_equals_oracle_on_grid():
    """The derived pencil is exactly the hand-assembled one on the grid,
    on the grid with c_1 shifted off the equilibria, and on the resonant
    nu = 8 branch."""
    for cbar in _grid_cbars():
        shifted = (cbar[0] + Fraction(1, 2),) + cbar[1:]
        for cb in (cbar, shifted):
            assert build_pencil(cb) == oracles.pencil(cb), cb
    for n in (8, 9, 10):
        for mu in range(8, n + 1):
            for c in (Fraction(1), Fraction(-3)):
                cb = expand_iso_psi(8, mu, n, c)
                assert build_pencil(cb) == oracles.pencil(cb), cb


@given(
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=60), min_size=1, max_size=14
    )
)
def test_pencil_equals_oracle_on_random_cbar(cbar):
    want = oracles.pencil(cbar)
    assert build_pencil(cbar) == want
    # the compiled template on Fraction entries at d = 1 gives the entries themselves
    A, B, den = spectrum._pencil_evaluator(len(cbar))(cbar, 1)
    assert den == 1
    assert (A, B) == (oracles.fraction_rows(want.A), oracles.fraction_rows(want.B))


def test_pencil_equals_oracle_at_large_n():
    """The per-N template stays exact past the grid: every nu at mu = nu
    and mu = N, c_1 unshifted and shifted by 1/2, and nu = 5 at c = 7/2."""
    for n in range(11, 21):
        cbars = [cbar_closed_form(nu, mu, n) for nu in (0, 1, 3, 4, 5) for mu in (nu, n)]
        cbars.append(cbar_closed_form(5, 5, n, Fraction(7, 2)))
        for cbar in cbars:
            for cb in (cbar, (cbar[0] + Fraction(1, 2),) + cbar[1:]):
                assert build_pencil(cb) == oracles.pencil(cb), cb


def test_cell_pencil_equals_the_public_constructor():
    """The cell core builds its pencil without the public constructor's
    copy and checks.  On every grid cell, each of the bench's c_1 shifts
    (+-1/2, +-3/2) and the nu = 8 pencils, it equals ``QuadraticPencil``
    built from the same rows as ``Fraction``s: numerators, denominator and
    hash."""
    cells = []
    for n in range(1, 11):
        for nu in (0, 1, 3, 4, 5):
            for mu in range(nu, n + 1):
                for c in DEFAULT_NU5_SAMPLES if nu == 5 else (Fraction(0),):
                    cells.append(equilibria._iso_numerators(nu, mu, n, c))
    for n in (8, 9, 10):
        for mu in range(8, n + 1):
            for c in (Fraction(1), Fraction(-3)):
                cells.append(equilibria._iso_numerators(8, mu, n, c))
    assert len(cells) == 280
    for x, d in cells:
        for delta in (0, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)):
            a, b = Fraction(delta).as_integer_ratio()
            y = [v * b for v in x]
            y[0] += a * d
            pen = spectrum._pencil(y, d * b)
            A, B, den = spectrum._pencil_evaluator(len(y))(y, d * b)
            public = spectrum.QuadraticPencil(
                *([[Fraction(v, den) for v in row] for row in M] for M in (A, B))
            )
            for got, want in ((pen.A, public.A), (pen.B, public.B)):
                assert (got.numerators, got.denominator) == (want.numerators, want.denominator)
            assert pen == public and hash(pen) == hash(public)


def test_public_pencil_constructor_normalises_nested_rationals():
    """``QuadraticPencil(A, B)`` takes nested ints and Fractions (or a
    ``RationalMatrix``) and holds each matrix in lowest terms."""
    pen = spectrum.QuadraticPencil([[Fraction(2, 4), 1], [0, Fraction(-6, 4)]], [[2, 4], [6, 8]])
    assert pen.A.numerators == ((1, 2), (0, -3)) and pen.A.denominator == 2
    assert pen.B.numerators == ((2, 4), (6, 8)) and pen.B.denominator == 1
    assert spectrum.QuadraticPencil(pen.A, pen.B) == pen and pen.N == 2


def _assert_exact_kernels_match_oracles(pen):
    poly = pencil_charpoly_exact(pen.A, pen.B)
    assert poly == oracles.charpoly(pen.A, pen.B)
    assert integer_roots(poly) == oracles.integer_roots(poly)


@pytest.mark.parametrize("n", range(1, 11))
def test_exact_kernels_equal_oracles_on_grid(n):
    """The integer charpoly and root scan reproduce the Fraction kernels
    exactly on every grid pencil of size n, and on each with c_1 shifted
    by +-1/2 and +-3/2 (whose spectra are not integral)."""
    for cbar in _grid_cbars([n]):
        for delta in (0, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)):
            cb = (cbar[0] + delta,) + cbar[1:]
            _assert_exact_kernels_match_oracles(build_pencil(cb))


def test_exact_kernels_equal_oracles_on_resonant_branch():
    for n in (8, 9, 10):
        for mu in range(8, n + 1):
            for c in (Fraction(1), Fraction(-3)):
                _assert_exact_kernels_match_oracles(build_pencil(expand_iso_psi(8, mu, n, c)))


def test_schur_route_certifies_every_grid_pencil(monkeypatch):
    """On every grid pencil (N <= 10, each c_1 shift of the oracle test, and
    the resonant nu = 8 branch) the Schur route passes its certificate: the
    one node takes a single border determinant of size k <= 2, and the only
    other Bareiss determinant is the cross-check on the ``s x s`` leading
    block, so the fallback never runs; a triangular pencil (``k = s = 0``)
    takes none."""
    sizes = []
    bareiss = polynomials._bareiss_det

    def counted(rows):
        sizes.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(polynomials, "_bareiss_det", counted)
    pencils = [
        build_pencil((cbar[0] + delta,) + cbar[1:])
        for cbar in _grid_cbars()
        for delta in (0, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2))
    ]
    pencils += [
        build_pencil(expand_iso_psi(8, mu, n, c))
        for n in (8, 9, 10)
        for mu in range(8, n + 1)
        for c in (Fraction(1), Fraction(-3))
    ]
    widths = set()
    for pen in pencils:
        _, k, s, _ = polynomials._block_split(pen.A, pen.B)
        widths.add(k)
        sizes.clear()
        pencil_charpoly_exact(pen.A, pen.B)
        assert k <= 2 and sizes == ([k, s] if s else []), pen
    assert widths == {0, 1, 2}


def test_exact_routes_build_no_fraction_coefficients(monkeypatch, capsys):
    """The integrality verdict, the c215 comparison, the c217 containment
    check and ``spectrum --numeric`` read only the integer numerators: no
    exact polynomial's cached ``Fraction`` view is ever built."""
    built = []
    set_poly = IntegerPolynomial._set

    def recorded(poly, nums, den):
        set_poly(poly, nums, den)
        built.append(poly)

    monkeypatch.setattr(IntegerPolynomial, "_set", recorded)
    assert verify_integrality(3, 5, 10).all_integers
    assert not verify_conjectures("c215", 3, 5, 10).match
    assert verify_conjectures("c215", 5, 6, 8).match
    assert verify_conjectures("c217", 0, Fraction(1, 2), 6).contained
    assert main(["spectrum", "--nu", "0", "--mu", "1/2", "--n", "4", "--numeric"]) == 1
    assert "numeric_eigenvalues" in capsys.readouterr().out
    assert built
    for poly in built:
        assert "coeffs" not in vars(poly), poly


def test_numeric_solver_reads_every_entry_as_its_float(monkeypatch):
    """On the N <= 10 grid and its c_1 shifts the companion matrix holds
    ``float(Fraction)`` of every pencil entry, so the numeric spectra in
    the --numeric and c217 reports do not move."""
    seen = []
    monkeypatch.setattr(spectrum, "eigenvalues", lambda m: seen.append(m) or np.zeros(0))
    for cbar in _grid_cbars():
        for delta in (0, Fraction(1, 2), Fraction(-3, 2)):
            pen = build_pencil((cbar[0] + delta,) + cbar[1:])
            spectrum.solve_pencil_numeric(pen)
            n = pen.N
            for block, M in ((seen[-1][n:, n:], pen.A), (seen[-1][n:, :n], pen.B)):
                want = [[-float(Fraction(a, M.denominator)) for a in row] for row in M.numerators]
                assert block.tolist() == want, (cbar, delta)


# ---------------------------------------------------------------------------
# numeric solving


def test_numeric_ladder():
    eigs = solve_pencil_numeric(build_pencil([Fraction(0), Fraction(0)]))
    assert multiset_dev(eigs, [1, 2, 2, 3]) < 1e-10


def test_numeric_hand_cell():
    eigs = solve_pencil_numeric(build_pencil(cbar_closed_form(0, 1, 2)))
    assert multiset_dev(eigs, [-1, 1, 2, 4]) < 1e-10


def test_numeric_zero_pencil():
    pen = build_pencil([Fraction(0)] * 2)
    zero = type(pen)(
        tuple(tuple(Fraction(0) for _ in row) for row in pen.A.numerators),
        tuple(tuple(Fraction(0) for _ in row) for row in pen.B.numerators),
    )
    eigs = solve_pencil_numeric(zero)
    assert np.max(np.abs(eigs)) < 1e-12


def test_numeric_matches_exact_roots():
    rng = np.random.default_rng(23)
    cells = [(0, 3, 5), (1, 2, 4), (3, 4, 6), (4, 5, 7), (5, 6, 8)]
    for nu, mu, n in cells:
        rep = verify_integrality(nu, mu, n)
        eigs = solve_pencil_numeric(build_pencil(cbar_closed_form(nu, mu, n, rep.samples[0].free)))
        assert multiset_dev(eigs, list(rep.samples[0].integer_roots)) < 1e-8


# ---------------------------------------------------------------------------
# the linearised operator agrees with the assembled pencil


def test_linearized_apply_matches_pencil():
    rng = np.random.default_rng(31)
    for n in (1, 2, 4, 6):
        cb = [Fraction(x) for x in rng.integers(-3, 4, n)]
        pen = build_pencil(cb)
        A = np.array(pen.A.numerators, dtype=complex) / pen.A.denominator
        B = np.array(pen.B.numerators, dtype=complex) / pen.B.denominator
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = complex(rng.standard_normal() + 1j * rng.standard_normal())
        direct = oracles.linearized_apply(cb, r, p)
        assembled = (p * p * np.eye(n) + p * A + B) @ r
        assert np.max(np.abs(direct - assembled)) < 1e-12


# ---------------------------------------------------------------------------
# integrality


def test_ladder_spectrum_exact():
    for n in range(1, 11):
        rep = verify_integrality(0, 0, n)
        expect = sorted(list(range(1, n + 1)) + list(range(2, n + 2)))
        assert rep.all_integers
        assert list(rep.samples[0].integer_roots) == expect


def test_integrality_hand_cell():
    rep = verify_integrality(0, 1, 2)
    assert rep.all_integers
    assert rep.samples[0].integer_roots == (-1, 1, 2, 4)
    assert rep.samples[0].remainder.coeffs == (Fraction(1),)


def test_integrality_negative_control():
    rep = verify_integrality(0, 1, 2, perturb_c1=Fraction(1, 2))
    assert not rep.all_integers


def test_integrality_free_constant_samples():
    rep = verify_integrality(5, 5, 6)
    assert len(rep.samples) == len(DEFAULT_NU5_SAMPLES)
    assert rep.all_integers


def test_integrality_reads_a_triangular_pencil_off_its_discriminants(monkeypatch):
    """A triangular pencil (``s = 0``) has a leading factor of one: every
    root comes off a tail quadratic's discriminant and the root scan sees
    only the constant.  Over ``D = 2`` the tail quadratics
    ``(p - 1)(p - 2)``, ``(p - 1)(p - 1/2)`` and ``p^2 + 1`` leave the
    remainder ``(p - 1/2)(p^2 + 1)``: the one-root cofactor and the
    quadratic without an integer root."""
    scanned = []
    monkeypatch.setattr(spectrum, "integer_roots", lambda q: scanned.append(q) or integer_roots(q))
    ladder = build_pencil([0, 0])  # tail quadratics (p - 1)(p - 2), (p - 2)(p - 3)
    factors = polynomials._charpoly_factors(ladder.A, ladder.B)
    assert factors == ([1], 1, [(2, -3, 1), (6, -5, 1)])
    assert spectrum._integer_spectrum(*factors) == ([1, 2, 2, 3], IntegerPolynomial([1]))
    h = Fraction(1, 2)
    A = [[-3, 5, h], [0, -3 * h, 7], [0, 0, 0]]
    B = [[2, -1, 4], [0, h, h], [0, 0, 1]]
    factors = polynomials._charpoly_factors(RationalMatrix(A), RationalMatrix(B))
    assert factors == ([1], 1, [(4, -6, 2), (1, -3, 2), (2, 0, 2)])
    roots, rem = spectrum._integer_spectrum(*factors)
    assert (roots, rem) == ([1, 1, 2], IntegerPolynomial([-h, 1, -h, 1]))
    assert (roots, rem) == integer_roots(pencil_charpoly_exact(A, B))
    assert [q.numerators for q in scanned] == [(1,), (1,)]


@pytest.mark.parametrize("n", range(1, 11))
def test_integrality_split_equals_the_full_scan_on_grid(n):
    """Every ``verify_integrality`` sample of size n, on each c_1 shift of
    the oracle test, holds the pencil that ``build_pencil`` makes of the
    shifted ``cbar_closed_form`` and reports the charpoly, roots and
    remainder of the unsplit scan of the full charpoly.  At integer ``mu``
    the kernel sees a leading block of at most ``mu`` rows, shifted or
    not."""
    for nu in (0, 1, 3, 4, 5):
        for mu in range(nu, n + 1):
            for delta in (0, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)):
                rep = verify_integrality(nu, mu, n, perturb_c1=delta)
                for sample in rep.samples:
                    cb = cbar_closed_form(nu, mu, n, sample.free)
                    assert sample.pencil == build_pencil((cb[0] + delta,) + cb[1:])
                    A, B = sample.pencil.A, sample.pencil.B
                    assert polynomials._block_split(A, B)[2] <= mu
                    full = pencil_charpoly_exact(A, B)
                    roots, rem = integer_roots(full)
                    got = (sample.charpoly, list(sample.integer_roots), sample.remainder)
                    assert got == (full, roots, rem), (nu, mu, n, delta)
                    integral = len(roots) == 2 * n and rem == IntegerPolynomial([1])
                    assert sample.all_integers == integral


def test_rows_past_mu_split_off_as_diagonal_quadratics():
    """Lemma A: at integer ``nu <= mu < N``, with ``M_N(p) = p^2 I + p A + B``
    the pencil of the ``(nu, mu, N)`` cell and ``c_i = cbar_i`` of that cell,
    ``det M_N = det M_mu * prod_(m = mu+1..N) q_m``, where ``M_mu`` is the
    square cell's pencil (``det M_0 = 1``) and
    ``q_m(p) = p^2 - (2m + 1 + 2c_1) p + m(m + 1) + 2(m - 1) c_1 - 2c_1^2 + 6c_2``.
    Checked here for every ``N <= 20``, the ``nu = 5`` default constants
    included.

    Proof.  ``cbar_1..cbar_N`` are the coefficients of
    ``phi(x) (1 - x)^(mu - nu)``, a polynomial of degree ``mu``, so
    ``cbar_m = 0`` for ``m > mu``, and ``w = 0`` at an equilibrium.  Row
    ``m`` of the pencil is the linearisation of bracket row ``m``
    (``dynamics._iso_bracket``): ``A`` holds its ``w`` derivatives and
    ``-B`` its ``c`` derivatives.  That row reads ``c_m``, ``c_(m+1)``,
    ``c_(m+2)``, ``w_m`` and ``w_(m+1)``, all on or right of the
    diagonal, and reaches ``c_1``, ``c_2`` and ``w_1`` only through
    products with ``C_m``, ``C_(m+1)`` or ``W_m``.  For ``m > mu`` those
    three are zero at the equilibrium, so rows ``m > mu`` of ``A`` and
    ``B`` vanish left of the diagonal, and ``M_N`` is block upper
    triangular: a leading ``mu x mu`` block, then one diagonal entry per
    row ``m > mu``.  That entry is ``p^2 + A_mm p + B_mm = q_m(p)``, read off
    the ``W_m`` and ``C_m`` terms.  The leading block is ``M_mu``: the
    bracket has no ``N`` in it, both cells share ``cbar_1..cbar_mu``, and
    the ``cbar_(mu+1)``, ``cbar_(mu+2)`` that rows ``mu - 1`` and ``mu`` read
    are zero in the larger cell and padded as zero in the square one.  The
    determinant of a block upper triangular matrix is the product of its
    diagonal blocks' determinants.
    """
    for nu in (0, 1, 3, 4, 5):
        for c in DEFAULT_NU5_SAMPLES if nu == 5 else (Fraction(0),):
            for mu in range(nu, 20):
                if mu:
                    square = build_pencil(cbar_closed_form(nu, mu, mu, c))
                    expect = pencil_charpoly_exact(square.A, square.B)
                else:
                    expect = IntegerPolynomial([1])
                for m in range(mu + 1, 21):  # the cell of size N = m adds row m
                    cbar = cbar_closed_form(nu, mu, m, c)
                    c1, c2 = (*cbar, 0)[:2]
                    b_mm = m * (m + 1) + 2 * (m - 1) * c1 - 2 * c1**2 + 6 * c2
                    q_m = IntegerPolynomial([b_mm, -(2 * m + 1 + 2 * c1), 1])
                    expect = oracles.poly_mul(expect, q_m)
                    pen = build_pencil(cbar)
                    assert pencil_charpoly_exact(pen.A, pen.B) == expect, (nu, mu, m, c)


# ---------------------------------------------------------------------------
# conjectured product formulas


def test_c215_hand_cell_must_match():
    res = verify_conjectures("c215", 0, 1, 2)
    assert res.match
    expect = IntegerPolynomial.from_integer_roots([-1, 4, 1, 2])
    assert res.charpoly.coeffs == expect.coeffs


def test_c215_trivial_for_mu_zero():
    for n in (1, 3, 6):
        assert verify_conjectures("c215", 0, 0, n).match


def test_c215_counterexamples_are_recorded():
    # the printed product for the third family disagrees with the exact
    # characteristic polynomial; the checker must report, not raise
    res = verify_conjectures("c215", 3, 3, 3)
    assert not res.match
    assert len(res.counterexamples) == 1
    record = res.counterexamples[0].as_record()
    assert record["nu"] == 3 and "charpoly" in record and "conjectured" in record


def test_c215_sample_cells():
    for nu, mu, n in ((0, 2, 4), (0, 4, 4), (1, 1, 3), (1, 3, 5), (4, 4, 6), (5, 5, 7), (5, 6, 8)):
        res = verify_conjectures("c215", nu, mu, n)
        assert res.match, (nu, mu, n)


def test_nu5_charpoly_independent_of_free_constant():
    polys = []
    for c in DEFAULT_NU5_SAMPLES:
        pen = build_pencil(cbar_closed_form(5, 6, 7, c))
        polys.append(pencil_charpoly_exact(pen.A, pen.B).coeffs)
    assert all(p == polys[0] for p in polys)


def test_c217_half_integer_cell():
    res = verify_conjectures("c217", 0, Fraction(1, 2), 5)
    assert res.contained
    assert multiset_dev(
        [complex(x) for x in res.claimed], [2.0, 3.0, 4.0, 4.5]
    ) < 1e-12


def test_c217_rational_cells():
    for mu in (Fraction(1, 2), Fraction(3, 2), Fraction(9, 4)):
        for n in (5, 6):
            res = verify_conjectures("c217", 0, mu, n)
            assert res.contained, (mu, n)


def test_c217_double_roots_are_contained_exactly(monkeypatch):
    """At (nu, mu, N) = (4, 3, 10) the claimed 2, 3 and 4 are double roots
    of the exact charpoly, which eig resolves only to about 1e-6; the exact
    deflation contains them.  A value claimed once too often, or one that is
    no root, is not contained."""
    assert verify_conjectures("c217", 4, 3, 10).contained
    claim = conjecture_217_claim(4, 3, 10)
    for extra in (Fraction(2), Fraction(7)):
        monkeypatch.setattr(
            "goldfish.spectrum.conjecture_217_claim", lambda nu, mu, N: claim + (extra,)
        )
        assert not verify_conjectures("c217", 4, 3, 10).contained, extra


@pytest.mark.parametrize("nu, n", [(0, 5), (1, 8), (3, 8), (4, 5), (5, 5)])
def test_c217_past_the_float_range_keeps_its_exact_verdict(monkeypatch, nu, n):
    """At mu = 1e400 the pencil and the claimed values have no float form:
    the exact containment verdict comes back with no numeric spectrum and
    no matching error, and an extra claimed value still fails it."""
    res = verify_conjectures("c217", nu, 10**400, n)
    assert (res.contained, res.max_match_error, res.spectrum) == (True, None, ())
    claim = conjecture_217_claim(nu, 10**400, n)
    monkeypatch.setattr(
        "goldfish.spectrum.conjecture_217_claim", lambda nu, mu, N: claim + (Fraction(7),)
    )
    assert not verify_conjectures("c217", nu, 10**400, n).contained

def test_c217_claim_lists():
    claimed = conjecture_217_claim(0, Fraction(1, 2), 6)
    assert claimed == (
        Fraction(2),
        Fraction(3),
        Fraction(4),
        Fraction(9, 2),
        Fraction(11, 2),
    )
    with pytest.raises(ValueError):
        conjecture_217_claim(1, Fraction(1, 2), 6)  # needs N >= 8


def test_c215_product_equals_oracle_on_grid():
    for n in range(1, 11):
        for nu in (0, 1, 3, 4, 5):
            for mu in range(nu, n + 1):
                got = conjecture_215_product(nu, mu, n)
                assert got == oracles.conjecture_215_product(nu, mu, n), (nu, mu, n)


def test_conjecture_product_degrees():
    for nu, mu, n in ((0, 3, 5), (1, 2, 4), (3, 5, 6), (4, 4, 5), (5, 5, 5)):
        assert conjecture_215_product(nu, mu, n).degree == 2 * n
