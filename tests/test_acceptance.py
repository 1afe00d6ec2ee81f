"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured figure (run pytest with -s to see them inline)."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from goldfish.dynamics import (
    CoefficientState,
    ModelSpec,
    ParticleState,
    System,
    detect_period,
    residual_rank_one,
    simulate,
)
from goldfish.equilibria import (
    Family,
    enumerate_altgold_equilibria,
    equilibrium_residual,
    expand_altgold_psi,
)
from goldfish.linalg import MovableSingularityError
from goldfish.spectrum import verify_conjectures, verify_integrality
from oracles import (
    altgold_binomial_closed_form,
    pde_residual,
    residual_ansatz_offdiag,
    residual_quartic_n2,
)

GRID_NUS = (0, 1, 3, 4, 5)
GRID_N_MAX = 10


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def multiset_dev(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def random_particle_state(rng, n, scale):
    return ParticleState(
        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
    )


def test_criterion_1_oracle_equivalence():
    """Direct integration and the spectral route agree as multisets.

    Draws whose window runs into a movable pole, or sails close enough to
    one to blow the amplitude past 20, are redrawn deterministically: the
    comparison is defined on collision-free (nonsingular) windows.
    """
    t0 = time.perf_counter()
    a2_values = (0.0, -1.0, 1.0 + 1.0j)
    worst = 0.0
    runs = 0
    for n in (2, 3, 4):
        for k in range(20):
            spec = ModelSpec(System.GOLD, n, a2=a2_values[k % 3])
            seed = 1000 * n + k
            for attempt in range(8):
                rng = np.random.default_rng(seed + 100_000 * attempt)
                state = random_particle_state(rng, n, 1.0)
                t = np.linspace(0.0, 1.0, 21)
                try:
                    d = simulate(spec, state, t, "direct", tol=1e-11)
                    if np.max(np.abs(d.values)) > 20:
                        continue
                    s = simulate(spec, state, t, "spectral", tol=1e-11)
                except MovableSingularityError:
                    continue  # collision-free window not realised; redraw
                break
            else:
                raise AssertionError(f"no collision-free draw for N={n}, k={k}")
            dev = max(multiset_dev(a, b) for a, b in zip(d.values, s.values))
            worst = max(worst, dev)
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed <= 60.0
    report(
        "1 oracle-equivalence",
        ok,
        f"{runs} runs, max multiset deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_isochrony():
    """Nonsingular isochronous runs return with an integer period multiple.

    Draws running into (or grazing) the exceptional singular set are
    redrawn deterministically, like the oracle-equivalence criterion.
    """
    t0 = time.perf_counter()
    k_per = 32
    worst_part = 0.0
    found_ps = []
    for n in (2, 3):
        for k in range(10):
            spec = ModelSpec(System.ISOGOLD, n)
            for attempt in range(8):
                rng = np.random.default_rng(5000 + 100 * n + k + 100_000 * attempt)
                state = random_particle_state(rng, n, 0.15)
                t = np.arange((n + 1) * k_per + 1) * (2 * np.pi / k_per)
                try:
                    res = simulate(spec, state, t, tol=1e-11)
                except MovableSingularityError:
                    continue
                if np.max(np.abs(res.values)) > 5:
                    continue  # too close to the singular set for 1e-6 accuracy
                break
            else:
                raise AssertionError(f"no nonsingular draw for N={n}, k={k}")
            rep = detect_period(res.trajectory, "particle", p_max=n, tol=1e-6)
            assert rep.p is not None and rep.p <= n, (n, k, rep)
            found_ps.append(rep.p)
            worst_part = max(worst_part, rep.deviation)
    worst_coeff = 0.0
    for n in (2, 3):
        for k in range(10):
            spec = ModelSpec(System.ALTISOGOLD, n)
            for attempt in range(8):
                rng = np.random.default_rng(7000 + 100 * n + k + 100_000 * attempt)
                c0 = 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                cd0 = 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                t = np.arange(2 * k_per + 1) * (2 * np.pi / k_per)
                try:
                    res = simulate(spec, CoefficientState(c0, cd0), t, tol=1e-11)
                except MovableSingularityError:
                    continue
                if np.max(np.abs(res.values)) > 5:
                    continue  # too close to the singular set for 1e-6 accuracy
                break
            else:
                raise AssertionError(f"no nonsingular draw for N={n}, k={k}")
            rep = detect_period(res.trajectory, "coefficient", p_max=1, tol=1e-6)
            assert rep.p == 1, (n, k, rep)
            worst_coeff = max(worst_coeff, rep.deviation)
    elapsed = time.perf_counter() - t0
    ok = worst_part <= 1e-6 and worst_coeff <= 1e-6 and elapsed <= 120.0
    report(
        "2 isochrony",
        ok,
        f"particle p values {sorted(set(found_ps))}, deviations "
        f"{worst_part:.2e}/{worst_coeff:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_trivial_equilibrium_ladder():
    """The zero-coefficient pencil spectrum is the exact integer ladder."""
    for n in range(1, GRID_N_MAX + 1):
        rep = verify_integrality(0, 0, n)
        expect = sorted(list(range(1, n + 1)) + list(range(2, n + 2)))
        assert rep.all_integers and list(rep.samples[0].integer_roots) == expect, n
    report("3 equilibrium-ladder", True, f"exact for N = 1..{GRID_N_MAX}")


def _grid_cells():
    for n in range(1, GRID_N_MAX + 1):
        for nu in GRID_NUS:
            for mu in range(nu, n + 1):
                yield nu, mu, n


def test_criterion_4_integer_spectra_grid():
    """Every pencil on the grid has 2N integer eigenvalues, exactly."""
    t0 = time.perf_counter()
    cells = 0
    for nu, mu, n in _grid_cells():
        rep = verify_integrality(nu, mu, n)
        assert rep.all_integers, (nu, mu, n)
        cells += len(rep.samples)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 300.0
    report("4 integer-spectra", ok, f"{cells} pencils, all integral, {elapsed:.1f}s")


def test_criterion_5_product_formula_grid():
    """The conjectured product formulas match exactly or are reported as
    counterexample records; the hand-verified cell must match."""
    t0 = time.perf_counter()
    must = verify_conjectures("c215", 0, 1, 2)
    assert must.match, "hand-verified cell failed"
    mismatched = []
    for nu, mu, n in _grid_cells():
        res = verify_conjectures("c215", nu, mu, n)
        if not res.match:
            assert res.counterexamples, (nu, mu, n)
            for record in res.counterexamples:
                assert record.as_record()["charpoly"]
            mismatched.append((nu, mu, n))
    elapsed = time.perf_counter() - t0
    detail = (
        f"hand cell exact; {len(mismatched)} cells disagree with the printed "
        f"product (all at nu=3: {all(c[0] == 3 for c in mismatched)}), "
        f"recorded as counterexamples, {elapsed:.1f}s"
    )
    report("5 product-formulas", True, detail)


def test_criterion_6_partial_spectrum_noninteger():
    """The claimed partial spectrum appears for non-integer family index."""
    worst = 0.0
    for mu in (Fraction(1, 2), Fraction(3, 2), Fraction(9, 4)):
        for n in (5, 6):
            res = verify_conjectures("c217", 0, mu, n)
            assert res.contained, (mu, n, res.max_match_error)
            claimed = {complex(x) for x in res.claimed}
            base = {2.0 + 0j, 3.0 + 0j, 4.0 + 0j}
            tail = {complex(k - mu) for k in range(5, n + 1)}
            assert claimed == base | tail
            worst = max(worst, res.max_match_error)
    report("6 partial-spectrum", True, f"max match error {worst:.2e}")


def _reference_families(N, a, c1):
    """Published closed-form equilibrium families for small N, both sign
    branches, as exact coefficient vectors."""
    fams = []
    if N == 2:
        fams.append(("N2-a", (Fraction(0), -a * a)))
        fams.append(("N2-b", (c1, (c1 * c1 - a * a) / 3)))
    if N == 3:
        for s in (1, -1):
            fams.append(
                (
                    f"N3[{s:+d}]",
                    (
                        c1,
                        c1 * c1 / 3 + s * a * c1 / 3 - a * a,
                        s * a * c1 * c1 / 3 - 2 * a * a * c1 / 3,
                    ),
                )
            )
    if N == 4:
        fams.append(
            (
                "N4-first",
                (
                    c1,
                    c1 * c1 / 3 - 4 * a * a / 3,
                    -a * a * c1,
                    -a * a * c1 * c1 / 3 + a ** 4 / 3,
                ),
            )
        )
        for s in (1, -1):
            fams.append(
                (
                    f"N4[{s:+d}]",
                    (
                        c1,
                        c1 * c1 / 3 + s * 2 * a * c1 / 3 - 2 * a * a,
                        s * 2 * a * c1 * c1 / 3 - 5 * a * a * c1 / 3,
                        a * a * c1 * c1 / 3 - s * 4 * a ** 3 * c1 / 3 + a ** 4,
                    ),
                )
            )
    if N == 5:
        for s in (1, -1):
            fams.append(
                (
                    f"N5-first[{s:+d}]",
                    (
                        c1,
                        c1 * c1 / 3 + s * a * c1 / 3 - 2 * a * a,
                        s * a * c1 * c1 / 3 - 5 * a * a * c1 / 3,
                        -a * a * c1 * c1 / 3 - s * a ** 3 * c1 / 3 + a ** 4,
                        -s * a ** 3 * c1 * c1 / 3 + 2 * a ** 4 * c1 / 3,
                    ),
                )
            )
            fams.append(
                (
                    f"N5-second[{s:+d}]",
                    (
                        c1,
                        c1 * c1 / 3 + s * a * c1 - 10 * a * a / 3,
                        s * a * c1 * c1 - 3 * a * a * c1,
                        a * a * c1 * c1 - s * 5 * a ** 3 * c1 + 5 * a ** 4,
                        s * a ** 3 * c1 * c1 / 3 - 2 * a ** 4 * c1 + s * 8 * a ** 5 / 3,
                    ),
                )
            )
    return fams


def _altgold_residual(N, a, cvec):
    from goldfish.equilibria import EquilibriumConfig

    cfg = EquilibriumConfig(Family.ALTGOLD_BINOMIAL, N, 0, 0, {"a": a}, tuple(cvec))
    return equilibrium_residual(cfg)


def _enumerated_member(N, a, printed):
    for mu in range(N + 1):
        if expand_altgold_psi(Family.ALTGOLD_BINOMIAL, N, a, mu) == printed:
            return ("binomial", mu)
    if N >= 2:
        for mu in range(N - 1):
            c = printed[0] - (N - 2 - 2 * mu) * a
            if expand_altgold_psi(Family.ALTGOLD_NU2, N, a, mu, c=c) == printed:
                return ("quadratic-core", mu)
    return None


def test_criterion_7_reference_family_reproduction():
    """Every published small-N family is reproduced by the enumerator with
    exact zero residual, and the special binomial pair sits at the ends."""
    c1_samples = (Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7))
    checked = 0
    for N in (2, 3, 4, 5):
        for a in (Fraction(1), Fraction(1, 2)):
            for c1 in c1_samples:
                for name, vec in _reference_families(N, a, c1):
                    residual = _altgold_residual(N, a, vec)
                    assert all(r == 0 for r in residual), (name, a, c1)
                    member = _enumerated_member(N, a, vec)
                    assert member is not None, (name, a, c1)
                    checked += 1
    # the special two-solution pair is the binomial family's end members
    for N in (2, 3, 4, 5):
        for a in (Fraction(1), Fraction(1, 2)):
            plus = tuple(a ** m * math.comb(N, m) for m in range(1, N + 1))
            minus = tuple((-a) ** m * math.comb(N, m) for m in range(1, N + 1))
            assert altgold_binomial_closed_form(N, a, 0) == plus
            assert altgold_binomial_closed_form(N, a, N) == minus
    report("7 reference-families", True, f"{checked} instances, residual exactly 0")


def test_criterion_8_structural_residual_suite():
    """Structural identities hold along simulated trajectories."""
    rng = np.random.default_rng(42)

    spec2 = ModelSpec(System.ALTGOLD, 2, a2=0.7 - 0.2j)
    state2 = CoefficientState([0.4 + 0.1j, -0.3 + 0.2j], [0.1 - 0.2j, 0.2 + 0.1j])
    run2 = simulate(spec2, state2, np.linspace(0, 1, 41), tol=1e-12)
    quartic = residual_quartic_n2(run2.trajectory, spec2.a2)

    spec_r = ModelSpec(System.GOLD, 4, a2=1 + 1j)
    rank1 = residual_rank_one(spec_r, random_particle_state(rng, 4, 1.0))

    spec3 = ModelSpec(System.GOLD, 3, a2=1 + 1j)
    run3 = simulate(spec3, random_particle_state(rng, 3, 0.8), np.linspace(0, 0.4, 21), tol=1e-12)
    evb = residual_ansatz_offdiag(spec3, run3.trajectory)

    zs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    pde = {}
    for system, a2 in ((System.ALTGOLD, 0.4 + 0.3j), (System.ALTISOGOLD, 0.0)):
        spec = ModelSpec(system, 3, a2=a2)
        c0 = 0.15 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        cd0 = 0.15 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        run = simulate(spec, CoefficientState(c0, cd0), np.linspace(0, 1, 251), tol=1e-13)
        pde[system.value] = pde_residual(run.trajectory, spec, zs)

    ok = (
        quartic <= 1e-5
        and rank1 <= 1e-10
        and evb <= 1e-6
        and all(v <= 1e-6 for v in pde.values())
    )
    report(
        "8 structural-residuals",
        ok,
        f"quartic {quartic:.1e}, rank-one {rank1:.1e}, compat {evb:.1e}, "
        f"polynomial-form {max(pde.values()):.1e}",
    )


def test_criterion_9_closed_forms():
    """Known closed-form solutions are reproduced."""
    spec = ModelSpec(System.GOLD, 1)
    res = simulate(spec, ParticleState([1.0], [1.0]), [0.0, 0.5], tol=1e-12)
    pole_err = abs(res.values[-1, 0] - 2.0)

    spec = ModelSpec(System.RCM, 1)
    z0, v0 = 0.3 + 0.2j, 0.7 - 0.1j
    res = simulate(spec, ParticleState([z0], [v0]), [0.0, np.pi / 2], "spectral")
    rcm_err = abs(res.values[-1, 0] - v0)

    ok = pole_err <= 1e-8 and rcm_err <= 1e-14
    report("9 closed-forms", ok, f"pole {pole_err:.1e}, harmonic {rcm_err:.1e}")
