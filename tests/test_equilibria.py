import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from goldfish import equilibria
from goldfish.equilibria import (
    DEFAULT_FREE_SAMPLES,
    EquilibriumConfig,
    Family,
    ResonantBranchError,
    cbar_closed_form,
    enumerate_altgold_equilibria,
    enumerate_iso_equilibria,
    equilibrium_residual,
    expand_altgold_psi,
    expand_iso_psi,
    genuineness_check,
    phi_recursion_obstruction,
    solve_phi_recursion,
)


def phi_recurrence_residuals(sol):
    nu = sol.nu
    phi = list(sol.coefficients) + [Fraction(0)]
    out = []
    for m in range(1, nu + 2):
        pm = phi[m] if m <= nu else Fraction(0)
        lhs = Fraction(m * (m - 5)) * pm
        rhs = Fraction(m - nu - 1) * (Fraction(m) + 2 * phi[1] + nu) * phi[m - 1]
        out.append(lhs - rhs)
    return out


# ---------------------------------------------------------------------------
# core-polynomial recurrences


def test_phi_solutions_match_known_lists():
    assert solve_phi_recursion(0).coefficients == (Fraction(1),)
    assert solve_phi_recursion(1).coefficients == (Fraction(1), Fraction(1))
    assert solve_phi_recursion(3).coefficients == (
        Fraction(1),
        Fraction(-6),
        Fraction(14),
        Fraction(-14),
    )
    assert solve_phi_recursion(4).coefficients == (
        Fraction(1),
        Fraction(-5),
        Fraction(10),
        Fraction(-10),
        Fraction(5),
    )
    c = Fraction(7, 3)
    assert solve_phi_recursion(5, c).coefficients[-1] == -(1 + c)


@pytest.mark.parametrize("nu", [0, 1, 3, 4, 5])
def test_phi_recurrence_satisfied(nu):
    sol = solve_phi_recursion(nu, Fraction(2, 5))
    assert all(r == 0 for r in phi_recurrence_residuals(sol))


def test_phi_rejects_nu_two():
    with pytest.raises(ValueError):
        solve_phi_recursion(2)


@pytest.mark.parametrize("nu", [6, 7, 9, 10, 11])
def test_phi_obstruction_for_large_nu(nu):
    m, lhs, rhs = phi_recursion_obstruction(nu)
    assert m == 5 and lhs == 0 and rhs != 0
    with pytest.raises(ValueError):
        solve_phi_recursion(nu)


def test_resonant_degree_has_solutions_not_obstruction():
    # at degree eight the right side vanishes one step early, so the
    # recurrence admits a one-parameter family instead of an obstruction
    with pytest.raises(ResonantBranchError):
        phi_recursion_obstruction(8)
    sol = solve_phi_recursion(8, Fraction(1))
    assert all(r == 0 for r in phi_recurrence_residuals(sol))


def test_resonant_branch_equilibria_are_exact():
    cfgs = enumerate_iso_equilibria(
        9, free_samples=(Fraction(1), Fraction(-3)), include_resonant=True
    )
    resonant = [c for c in cfgs if c.nu == 8]
    assert {(c.mu, c.free["c"]) for c in resonant} == {
        (8, Fraction(1)),
        (8, Fraction(-3)),
        (9, Fraction(1)),
        (9, Fraction(-3)),
    }
    for cfg in resonant:
        assert all(r == 0 for r in equilibrium_residual(cfg))


@pytest.mark.parametrize("nu", [1, 3, 4, 5, 7])
def test_chi_recurrence_satisfied(nu):
    sol = oracles.solve_chi_recursion(nu, chi5=Fraction(3, 2))
    assert all(r == 0 for r in oracles.chi_recurrence_residuals(sol))
    if nu != 2:
        assert sol.coefficients[1] == -nu


def test_chi_free_quadratic_case():
    sol = oracles.solve_chi_recursion(2, chi1=Fraction(5, 3))
    assert all(r == 0 for r in oracles.chi_recurrence_residuals(sol))
    assert sol.coefficients[2] == Fraction(5, 3) * (Fraction(5, 3) + 1) / 3


@pytest.mark.parametrize("nu", [5, 6, 7, 8, 9])
def test_chi_recursion_expands_to_tail_family(nu):
    # the tail family at mu = 0, N = nu is sum_m chi_m a^m (z + a)^(nu - m)
    # with chi_5 = c/60: expanding the oracle's solution in powers of
    # (z + a) must give the library's equilibrium coefficients exactly
    a = Fraction(1)
    for c in (Fraction(0), Fraction(3, 2), Fraction(-7)):
        chi = oracles.solve_chi_recursion(nu, chi5=c / 60).coefficients
        expanded = [Fraction(0)] * (nu + 1)  # descending powers of z
        for m, x in enumerate(chi):
            for j in range(nu - m + 1):
                expanded[m + j] += x * a ** (m + j) * math.comb(nu - m, j)
        want = (Fraction(1),) + expand_altgold_psi(Family.ALTGOLD_NU5PLUS, nu, a, 0, nu=nu, c=c)
        assert tuple(expanded) == want, c


# ---------------------------------------------------------------------------
# isochronous families


def test_mu_zero_coefficients_vanish():
    assert cbar_closed_form(0, 0, 5) == tuple([Fraction(0)] * 5)


def test_binomial_example_cell():
    # nu=0, mu=2, N=3: alternating binomials of mu
    assert cbar_closed_form(0, 2, 3) == (Fraction(-2), Fraction(1), Fraction(0))
    assert expand_iso_psi(0, 2, 3) == (Fraction(-2), Fraction(1), Fraction(0))


def test_expand_iso_psi_needs_integer_mu():
    # rational mu is cbar_closed_form's; the factored form has integer exponents
    with pytest.raises(TypeError):
        expand_iso_psi(0, Fraction(1, 2), 3)


def test_closed_form_agreement_up_to_twelve():
    """The one series behind both isochronous entry points reproduces the
    paper's binomial closed forms exactly, on integer and rational mu."""
    rational_mus = (Fraction(-5, 2), Fraction(1, 3), Fraction(1, 2), Fraction(7, 3))
    for N in range(1, 13):
        for nu in (0, 1, 3, 4, 5):
            samples = (Fraction(0), Fraction(-2), Fraction(7)) if nu == 5 else (Fraction(0),)
            for c in samples:
                for mu in range(nu, N + 1):
                    want = oracles.iso_closed_form(nu, mu, N, c)
                    assert cbar_closed_form(nu, mu, N, c) == want, (nu, mu, N, c)
                    assert expand_iso_psi(nu, mu, N, c) == want, (nu, mu, N, c)
                for mu in rational_mus + (N + Fraction(1, 2),):
                    want = oracles.iso_closed_form(nu, mu, N, c)
                    assert cbar_closed_form(nu, mu, N, c) == want, (nu, mu, N, c)


@st.composite
def _series_cells(draw):
    """``(nu, mu, N, c)`` with ``mu`` negative, non-integer or above ``N``
    as often as inside ``nu..N``, and a rational free constant."""
    nu = draw(st.sampled_from((0, 1, 3, 4, 5, 8)))
    N = draw(st.integers(1, 24))
    mu = draw(
        st.one_of(
            st.integers(-30, -1),
            st.fractions(-30, 30, max_denominator=9),
            st.integers(N + 1, N + 30),
            st.integers(min(nu, N), N),
        )
    )
    c = draw(st.fractions(-20, 20, max_denominator=12))
    return nu, mu, N, c


@given(_series_cells())
def test_iso_series_equals_fraction_oracle(cell):
    """The series over one integer denominator gives the same ``Fraction``s
    as the series summed one ``Fraction`` product at a time."""
    got = equilibria._iso_series(*cell)
    want = oracles.iso_series(*cell)
    assert got == want
    assert type(got) is tuple and {type(x) for x in got} <= {Fraction}


@st.composite
def _family_cells(draw):
    """``(nu, mu, N, c)`` of the five families with ``N <= 12``, ``mu``
    any rational (negative and non-integer included) and a rational free
    constant at ``nu = 5``."""
    nu = draw(st.sampled_from(equilibria.ISO_NU_VALUES))
    N = draw(st.integers(1, 12))
    mu = draw(st.one_of(st.integers(-20, 20), st.fractions(-20, 20, max_denominator=9)))
    c = draw(st.fractions(-20, 20, max_denominator=12)) if nu == 5 else Fraction(0)
    return nu, mu, N, c


@given(_family_cells())
def test_series_numerators_equal_cbar_closed_form(cell):
    """The series core's integers over one denominator are
    ``cbar_closed_form``'s ``Fraction``s, in lowest terms, and that
    denominator is the lcm of theirs, the one ``build_pencil`` scales by."""
    x, d = equilibria._iso_numerators(*cell)
    cbar = cbar_closed_form(*cell)
    assert {type(v) for v in (*x, d)} == {int} and d > 0 and math.gcd(d, *x) == 1
    assert tuple(Fraction(v, d) for v in x) == cbar == oracles.iso_series(*cell)
    assert d == math.lcm(*(v.denominator for v in cbar))


def test_iso_series_without_coefficients_is_empty():
    for nu, mu, N, c in ((0, 0, 0, 0), (3, 5, -1, 0), (5, Fraction(7, 2), -4, Fraction(1, 3))):
        assert equilibria._iso_series(nu, mu, N, c) == oracles.iso_series(nu, mu, N, c) == ()
    assert cbar_closed_form(0, 1, 0) == cbar_closed_form(4, -2, -1) == ()
    # a degree without a core polynomial is refused before the size is looked at
    for nu in (2, 6, 7):
        for N in (0, 4):
            with pytest.raises(ValueError) as want:
                oracles.iso_series(nu, 3, N)
            with pytest.raises(ValueError) as got:
                equilibria._iso_series(nu, 3, N, 0)
            assert str(got.value) == str(want.value)


def test_iso_residuals_exactly_zero():
    for N in (1, 2, 3, 5, 8):
        for cfg in enumerate_iso_equilibria(N):
            assert all(r == 0 for r in equilibrium_residual(cfg)), (cfg.nu, cfg.mu)


def test_perturbed_config_fails():
    cfg = [c for c in enumerate_iso_equilibria(3) if (c.nu, c.mu) == (0, 2)][0]
    bad = EquilibriumConfig(
        Family.ISO,
        3,
        0,
        2,
        {},
        (cfg.cbar[0] + Fraction(1, 10),) + cfg.cbar[1:],
    )
    assert any(r != 0 for r in equilibrium_residual(bad))


def test_iso_core_residual_single_root():
    assert oracles.iso_core_residual([-1j]) < 1e-15


# ---------------------------------------------------------------------------
# rational-time families


def test_two_body_families():
    a = Fraction(1)
    configs = enumerate_altgold_equilibria(2, a, free_samples=(Fraction(0),))
    binom = {c.mu: c for c in configs if c.family is Family.ALTGOLD_BINOMIAL}
    assert binom[1].cbar == (Fraction(0), Fraction(-1))  # c1 = 0, c2 = -a^2
    quad = [c for c in configs if c.family is Family.ALTGOLD_NU2][0]
    # c2 = (c1^2 - a^2)/3 with c1 = c = 0
    assert quad.cbar == (Fraction(0), Fraction(-1, 3))


def test_special_pair_is_binomial_family_ends():
    for N in range(1, 9):
        a = Fraction(1, 2)
        configs = enumerate_altgold_equilibria(N, a, free_samples=(Fraction(0),))
        binom = {c.mu: c for c in configs if c.family is Family.ALTGOLD_BINOMIAL}
        import math

        plus = tuple(a ** m * math.comb(N, m) for m in range(1, N + 1))
        minus = tuple((-a) ** m * math.comb(N, m) for m in range(1, N + 1))
        assert binom[0].cbar == plus
        assert binom[N].cbar == minus
        for cfg in (binom[0], binom[N]):
            assert all(r == 0 for r in equilibrium_residual(cfg))


def test_altgold_enumeration_order_equals_oracle():
    """The rational-time cells come in the order of one loop per family:
    binomial by mu, then the quadratic family by mu and free constant, then
    the tail families by nu, mu and free constant.  Each cell equals the
    closed forms, the tail family's hand-solved (z + a)-basis coefficients
    included."""
    for N in range(1, 15):
        for a in (Fraction(1), Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 3)):
            for free_samples in (DEFAULT_FREE_SAMPLES, (Fraction(0),), ()):
                got = enumerate_altgold_equilibria(N, a, free_samples)
                want = oracles.enumerate_altgold_equilibria(N, a, free_samples)
                assert got == want, (N, a, free_samples)


@st.composite
def _tail_family_cells(draw):
    """``(N, a, mu, nu, c)`` of the tail family with ``5 <= nu <= N <= 16``,
    ``a`` and ``c`` rational (zero included)."""
    N = draw(st.integers(5, 16))
    nu = draw(st.integers(5, N))
    mu = draw(st.integers(0, N - nu))
    a = draw(st.one_of(st.just(Fraction(0)), st.fractions(-20, 20, max_denominator=12)))
    c = draw(st.fractions(-50, 50, max_denominator=12))
    return N, a, mu, nu, c


@given(_tail_family_cells())
def test_tail_family_equals_closed_form_oracle(cell):
    """The tail family from its recurrence, multiplied out by linear
    factors, equals the hand-solved closed form."""
    N, a, mu, nu, c = cell
    got = expand_altgold_psi(Family.ALTGOLD_NU5PLUS, N, a, mu, nu, c)
    assert got == oracles.altgold_closed_form(Family.ALTGOLD_NU5PLUS, N, a, mu, nu, c)
    assert {type(x) for x in got} == {Fraction}


def test_altgold_residuals_exactly_zero():
    for N in (1, 2, 3, 4, 5, 6):
        for a in (Fraction(1), Fraction(2), Fraction(1, 2)):
            for cfg in enumerate_altgold_equilibria(N, a):
                assert all(r == 0 for r in equilibrium_residual(cfg)), (
                    cfg.family,
                    cfg.nu,
                    cfg.mu,
                    cfg.free,
                )


def test_binomial_closed_form_is_oracle_for_expansion():
    for N in (2, 4, 6):
        for mu in range(N + 1):
            a = Fraction(1, 2)
            assert oracles.altgold_binomial_closed_form(N, a, mu) == expand_altgold_psi(
                Family.ALTGOLD_BINOMIAL, N, a, mu
            )


def test_residual_equals_oracle():
    """Derived residuals equal the hand-written ones on every enumerated
    configuration of both families, and on each with c_1 shifted off the
    equilibrium."""
    for N in range(1, 9):
        configs = enumerate_iso_equilibria(N, include_resonant=True)
        for a in (Fraction(1), Fraction(1, 2)):
            configs += enumerate_altgold_equilibria(N, a)
        for cfg in configs:
            cbar = (cfg.cbar[0] + Fraction(1, 3),) + cfg.cbar[1:]
            shifted = EquilibriumConfig(cfg.family, N, cfg.nu, cfg.mu, cfg.free, cbar)
            assert equilibrium_residual(cfg) == oracles.equilibrium_residual(cfg)
            assert equilibrium_residual(shifted) == oracles.equilibrium_residual(shifted)
            assert any(r != 0 for r in equilibrium_residual(shifted)), cfg


def test_tail_family_example_has_exact_residual():
    cfg = [
        c
        for c in enumerate_altgold_equilibria(5, Fraction(1), free_samples=(Fraction(2),))
        if c.family is Family.ALTGOLD_NU5PLUS
    ]
    assert cfg and all(all(r == 0 for r in equilibrium_residual(c)) for c in cfg)


# ---------------------------------------------------------------------------
# genuineness


def test_genuineness_distinct_pair():
    cfg = [c for c in enumerate_iso_equilibria(2) if (c.nu, c.mu) == (0, 1)][0]
    rep = genuineness_check(cfg)  # roots {0, i}
    assert rep.verdict == "GENUINE" and rep.necessary_condition_met


def test_genuineness_double_root():
    cfg = [c for c in enumerate_iso_equilibria(2) if (c.nu, c.mu) == (0, 2)][0]
    rep = genuineness_check(cfg)  # roots {i, i}
    assert rep.verdict == "DEGENERATE"


def test_genuineness_triple_root_fails_necessary_condition():
    cfg = [c for c in enumerate_iso_equilibria(3) if (c.nu, c.mu) == (0, 3)][0]
    rep = genuineness_check(cfg)
    assert rep.verdict == "DEGENERATE"
    # psi = (z - i)^3 in the TILDE convention: one root, at i
    assert rep.distinct_roots == 1 and cfg.cbar == (-3, 3, -1)
    assert rep.necessary_condition_met is False


def test_genuineness_free_constant_quintic():
    cfgs = {
        c.free["c"]: c
        for c in enumerate_iso_equilibria(5, free_samples=(Fraction(0), Fraction(1)))
        if c.nu == 5
    }
    assert genuineness_check(cfgs[Fraction(0)]).verdict == "DEGENERATE"
    assert genuineness_check(cfgs[Fraction(1)]).verdict == "GENUINE"


def test_genuineness_altgold_quadratic_double_root():
    # the quadratic core degenerates exactly at c = 2a
    cfgs = [
        c
        for c in enumerate_altgold_equilibria(2, Fraction(1), free_samples=(Fraction(2),))
        if c.family is Family.ALTGOLD_NU2
    ]
    rep = genuineness_check(cfgs[0])
    assert rep.verdict == "DEGENERATE"


def test_genuineness_tail_family_c0_triple_root():
    # psi = z^5 - 10/3 z^3 + 5 z + 8/3 = (z + 1)^3 (z^2 - 3 z + 8/3)
    cfg = [
        c
        for c in enumerate_altgold_equilibria(5, Fraction(1), free_samples=(Fraction(0),))
        if c.family is Family.ALTGOLD_NU5PLUS
    ][0]
    assert cfg.cbar == (0, Fraction(-10, 3), 0, 5, Fraction(8, 3))
    rep = genuineness_check(cfg)
    assert rep.verdict == "DEGENERATE" and rep.distinct_roots == 3
    assert rep.necessary_condition_met is None


def test_genuineness_tail_family_at_zero_shift():
    # at a = 0 the tail bracket is z^nu, whatever the free constant
    cfgs = [
        c
        for c in enumerate_altgold_equilibria(5, Fraction(0))
        if c.family is Family.ALTGOLD_NU5PLUS
    ]
    assert len(cfgs) == len(DEFAULT_FREE_SAMPLES)
    for cfg in cfgs:
        assert cfg.cbar == (0,) * 5
        rep = genuineness_check(cfg)
        assert rep.verdict == "DEGENERATE" and rep.distinct_roots == 1


def test_genuineness_equals_discriminant_oracle_on_grid():
    """The squarefree test and the Sylvester-determinant oracle give the
    same verdict on every configuration with N <= 8."""
    configs = []
    for N in range(1, 9):
        configs += enumerate_iso_equilibria(N, include_resonant=True)
        for a in (Fraction(1), Fraction(1, 2), Fraction(0)):
            configs += enumerate_altgold_equilibria(N, a)
    assert len(configs) == 1023
    degenerate = 0
    for cfg in configs:
        rep = genuineness_check(cfg)
        assert (rep.verdict == "DEGENERATE") == oracles.discriminant_vanishes(cfg.cbar), cfg
        assert (rep.distinct_roots == cfg.N) == (rep.verdict == "GENUINE")
        degenerate += rep.verdict == "DEGENERATE"
    assert 0 < degenerate < len(configs)
