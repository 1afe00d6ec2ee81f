"""Seeded inputs, operations and verdict checks of the benchmark workloads.

Every operation ("op") is one verdict with an answer known in advance:

* ``integrality``: the exact integer-spectrum check on every
  ``(nu, mu, N)`` grid cell, on extra seeded free constants of the
  ``nu = 5`` family, and on the resonant ``nu = 8`` pencils;
* ``refutation``: the ``c215`` product-formula check on the same grid
  (it must fail exactly on the ``nu = 3`` cells), and the grid's
  integrality check with ``c_1`` shifted by a seeded non-integer ``delta``
  (it must fail everywhere);
* ``trajectories``: isochrony verdicts and direct-against-spectral oracle
  pairs, with the redraw rule of the acceptance criteria.

The exact ops also produce a canonical text of every characteristic
polynomial, root list and counterexample record.  Each text is hashed and
compared with the digest recorded for that op in ``digests.json``, so a
faster route that changes any exact result fails the run.

The program is called through its module attributes
(``spectrum.verify_integrality`` and so on), so that the tracer in
``tracer.py`` can wrap them from outside.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment

from goldfish import dynamics, equilibria, linalg, polynomials, spectrum

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

GRID_NUS = (0, 1, 3, 4, 5)
GRID_N_MAX = 10
# the resonant branch, run through build_pencil -> charpoly -> integer_roots
NU8_CELLS = tuple((mu, n) for n in (8, 9, 10) for mu in range(8, n + 1))
NU8_FREE = (Fraction(1), Fraction(-3))
# The seed draws, per cell, one extra free constant of the nu = 5 family
# (beyond DEFAULT_NU5_SAMPLES) and the c_1 shift of each negative control.
# Every pooled value has recorded digests.  The cost of a perturbed cell
# grows with |delta| (the root window widens): the whole perturbed grid
# took 9.9 s at delta = 1/2 and 14.8 s at 7/2, so one delta per run would
# make the seed set the cost.  Drawn per cell, the cost averages out.
NU5_EXTRA_POOL = tuple(Fraction(k, 2) for k in (-9, -5, -1, 3, 5, 9, 11, 13))
DELTA_POOL = (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))

# trajectory protocols (acceptance criteria 1 and 2)
SAMPLES_PER_PERIOD = 32
SIM_TOL = 1e-11
PERIOD_TOL = 1e-6
ORACLE_TOL = 1e-7
MAX_ATTEMPTS = 8
ISO_SCALE, ISO_AMPLITUDE = 0.15, 5.0
ORACLE_SCALE, ORACLE_AMPLITUDE = 1.0, 20.0
ORACLE_A2 = (0.0, -1.0, 1.0 + 1.0j)
ISO_SLOTS_PER_KIND = 4
ORACLE_SLOTS_PER_N = 8
# The trajectory draws are fixed base draws, perturbed per seed and pass by
# a relative JITTER.  Fresh draws per seed make the cost of a run depend on
# which draws need redraws or pass near a movable pole: over 280 draws of
# the seven op kinds, one op took 0.2 s to 9 s, and 40-op runs of fresh
# draws spread ops_per_s by about 25% (quartile distance over median).
BASE_SEED = 2006
JITTER = 1e-3


@dataclass(frozen=True)
class Outcome:
    """What one op produced."""

    ok: bool  # the verdict is the expected one
    record: str = ""  # canonical exact output, hashed and checked (exact ops)
    attempts: int = 0  # simulate draws made (trajectory ops)
    verdict: bool = False  # a draw was accepted (trajectory ops)
    flagged: bool = False  # a Finding: c215 disagrees / nu = 8 is integral


@dataclass(frozen=True)
class Op:
    kind: str
    key: str  # unique within a workload, also across pooled inputs
    group: str  # digest group; empty for trajectory ops
    run: Callable[[], Outcome]

    @property
    def digest_key(self) -> str:
        return f"{self.group}|{self.key}"


def grid_cells():
    for n in range(1, GRID_N_MAX + 1):
        for nu in GRID_NUS:
            for mu in range(nu, n + 1):
                yield nu, mu, n


def _cell(nu, mu, n) -> str:
    return f"nu={nu},mu={mu},N={n}"


def _integrality_record(rep) -> str:
    return ";".join(
        f"{s.free}|{s.charpoly}|{list(s.integer_roots)}|{s.remainder}" for s in rep.samples
    )


# ---------------------------------------------------------------------------
# exact ops


def grid_op(nu, mu, n) -> Op:
    def run():
        rep = spectrum.verify_integrality(nu, mu, n)
        return Outcome(rep.all_integers, _integrality_record(rep))

    return Op("grid", _cell(nu, mu, n), "grid", run)


def nu5_extra_op(mu, n, free) -> Op:
    def run():
        rep = spectrum.verify_integrality(5, mu, n, free_samples=(free,))
        return Outcome(rep.all_integers, _integrality_record(rep))

    return Op("nu5x", f"{_cell(5, mu, n)},c={free}", "nu5x", run)


def nu8_op(mu, n, free) -> Op:
    def run():
        cbar = equilibria.expand_iso_psi(8, mu, n, free)
        pencil = spectrum.build_pencil(cbar)
        poly = polynomials.pencil_charpoly_exact(pencil.A, pencil.B)
        roots, rem = polynomials.integer_roots(poly)
        integral = len(roots) == 2 * n and rem.coeffs == (Fraction(1),)
        return Outcome(integral, f"{poly}|{roots}|{rem}", flagged=integral)

    return Op("nu8", f"{_cell(8, mu, n)},c={free}", "nu8", run)


def c215_op(nu, mu, n) -> Op:
    def run():
        res = spectrum.verify_conjectures("c215", nu, mu, n)
        records = [c.as_record() for c in res.counterexamples]
        if res.match:
            ok = nu != 3
        else:
            ok = nu == 3 and bool(records) and all(r["charpoly"] for r in records)
        text = f"{res.match}|{res.charpoly}|{res.conjectured}|" + ";".join(
            json.dumps(r, sort_keys=True) for r in records
        )
        return Outcome(ok, text, flagged=not res.match)

    return Op("c215", _cell(nu, mu, n), "c215", run)


def perturbed_op(nu, mu, n, delta) -> Op:
    def run():
        rep = spectrum.verify_integrality(nu, mu, n, perturb_c1=delta)
        ok = not any(s.all_integers for s in rep.samples)
        return Outcome(ok, _integrality_record(rep))

    return Op("perturbed", f"{_cell(nu, mu, n)},delta={delta}", "perturbed", run)


def integrality_ops(extras) -> list[Op]:
    """The grid, the ``nu = 5`` cells with ``extras[(mu, n)]`` as free
    constants, and the ``nu = 8`` pencils."""
    ops = [grid_op(*cell) for cell in grid_cells()]
    ops += [nu5_extra_op(mu, n, free) for (mu, n), frees in extras.items() for free in frees]
    ops += [nu8_op(mu, n, free) for mu, n in NU8_CELLS for free in NU8_FREE]
    return ops


def refutation_ops(deltas) -> list[Op]:
    """c215 on the grid, and each cell shifted by every ``deltas[cell]``."""
    ops = [c215_op(*cell) for cell in grid_cells()]
    ops += [perturbed_op(*cell, delta) for cell, values in deltas.items() for delta in values]
    return ops


def record_digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()[:16]


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


# ---------------------------------------------------------------------------
# trajectory ops


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _tilde_coefficients(z, v):
    """Coefficient state (TILDE convention) of the monic polynomial with
    zeros ``z`` moving with velocities ``v``.

    Coefficient-space draws would mostly be redrawn: at scale 0.15, 22 of
    30 ``N = 3`` draws exceeded the amplitude cap, so an op would exhaust
    its eight attempts about one time in twelve.  Drawing the zeros and
    converting keeps the same system and protocol (4 of 30 redrawn).
    """
    n = z.size
    strip = (-1j) ** np.arange(n + 1)
    plain = np.poly(z)
    plain_dot = np.zeros(n + 1, dtype=complex)
    for k in range(n):
        plain_dot[1:] -= v[k] * np.poly(np.delete(z, k))
    return (plain * strip)[1:], (plain_dot * strip)[1:]


def _multiset_dev(a, b) -> float:
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def isochrony_op(key, system, n, draws) -> Op:
    """Isochrony verdict: ``isogold`` over ``N + 1`` periods must return
    with a period multiple ``p <= N``; ``altisogold`` over two periods
    must return after exactly one."""
    particle = system is dynamics.System.ISOGOLD
    periods = n + 1 if particle else 2
    t = np.arange(periods * SAMPLES_PER_PERIOD + 1) * (2 * np.pi / SAMPLES_PER_PERIOD)

    def run():
        spec = dynamics.ModelSpec(system, n)
        for attempt, (z, v) in enumerate(draws, start=1):
            if particle:
                state = dynamics.ParticleState(z, v)
            else:
                state = dynamics.CoefficientState(*_tilde_coefficients(z, v))
            try:
                res = dynamics.simulate(spec, state, t, tol=SIM_TOL)
            except linalg.MovableSingularityError:
                continue
            if np.max(np.abs(res.values)) > ISO_AMPLITUDE:
                continue  # too close to the singular set for 1e-6 accuracy
            kind, p_max = ("particle", n) if particle else ("coefficient", 1)
            rep = dynamics.detect_period(res.trajectory, kind, p_max=p_max, tol=PERIOD_TOL)
            ok = rep.p is not None and (rep.p <= n if particle else rep.p == 1)
            return Outcome(ok and rep.deviation <= PERIOD_TOL, attempts=attempt, verdict=True)
        return Outcome(False, "redraws exhausted", attempts=len(draws))

    return Op("iso" if particle else "altiso", key, "", run)


def oracle_op(key, n, a2, draws) -> Op:
    """Direct integration and the spectral route agree as multisets."""
    t = np.linspace(0.0, 1.0, 21)

    def run():
        spec = dynamics.ModelSpec(dynamics.System.GOLD, n, a2=a2)
        for attempt, (z, v) in enumerate(draws, start=1):
            state = dynamics.ParticleState(z, v)
            try:
                direct = dynamics.simulate(spec, state, t, "direct", tol=SIM_TOL)
                if np.max(np.abs(direct.values)) > ORACLE_AMPLITUDE:
                    continue
                spectral = dynamics.simulate(spec, state, t, "spectral", tol=SIM_TOL)
            except linalg.MovableSingularityError:
                continue  # collision-free window not realised; redraw
            dev = max(_multiset_dev(a, b) for a, b in zip(direct.values, spectral.values))
            return Outcome(dev <= ORACLE_TOL, attempts=attempt, verdict=True)
        return Outcome(False, "redraws exhausted", attempts=len(draws))

    return Op("oracle", key, "", run)


def trajectory_slots():
    """``(key, kind, system, N, a2, scale)`` of the ops of one pass."""
    slots = []
    for system in (dynamics.System.ISOGOLD, dynamics.System.ALTISOGOLD):
        for n in (2, 3):
            for k in range(ISO_SLOTS_PER_KIND):
                slots.append((f"{system.value},N={n},k={k}", "iso", system, n, None, ISO_SCALE))
    for n in (2, 3, 4):
        for k in range(ORACLE_SLOTS_PER_N):
            a2 = ORACLE_A2[k % len(ORACLE_A2)]
            slots.append((f"gold,N={n},k={k}", "oracle", None, n, a2, ORACLE_SCALE))
    return slots


def trajectory_ops(seed, pass_index) -> list[Op]:
    jitter_rng = np.random.default_rng([seed, pass_index])
    ops = []
    for index, (key, kind, system, n, a2, scale) in enumerate(trajectory_slots()):
        base_rng = np.random.default_rng([BASE_SEED, index])
        draws = []
        for _ in range(MAX_ATTEMPTS):
            z, v = (scale * _complex_normal(base_rng, n) for _ in range(2))
            z, v = (x * (1 + JITTER * _complex_normal(jitter_rng, n)) for x in (z, v))
            draws.append((z, v))
        if kind == "iso":
            ops.append(isochrony_op(key, system, n, draws))
        else:
            ops.append(oracle_op(key, n, a2, draws))
    return ops


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """The seeded inputs of one workload.

    ``ops(i)`` is pass ``i``: every pass runs the same set of ops in its
    own seeded order (trajectory passes also get their own jitter).
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        rng = np.random.default_rng(seed)
        if name == "integrality":
            cells, pool = [(mu, n) for nu, mu, n in grid_cells() if nu == 5], NU5_EXTRA_POOL
        elif name == "refutation":
            cells, pool = list(grid_cells()), DELTA_POOL
        else:
            cells, pool = [], ()
        # per cell: the seeded extra nu = 5 free constant or c_1 shift
        self.drawn = {cell: (pool[int(rng.integers(len(pool)))],) for cell in cells}
        self.expected_digests = load_digests() if name != "trajectories" else {}

    def describe(self) -> str:
        if self.name == "trajectories":
            return f"{len(trajectory_slots())} base draws, relative jitter {JITTER:g}"
        label = "nu=5 extra free constant" if self.name == "integrality" else "c_1 shift"
        drawn = Counter(value for (value,) in self.drawn.values())
        return f"{label} per cell: " + ", ".join(
            f"{value} x{count}" for value, count in sorted(drawn.items())
        )

    def ops(self, pass_index: int) -> list[Op]:
        if self.name == "integrality":
            ops = integrality_ops(self.drawn)
        elif self.name == "refutation":
            ops = refutation_ops(self.drawn)
        else:
            ops = trajectory_ops(self.seed, pass_index)
        order = np.random.default_rng([self.seed, pass_index, 1]).permutation(len(ops))
        return [ops[i] for i in order]

    def check_pass(self, ops, outcomes) -> list[tuple[bool, str]]:
        """Digest and Finding checks of one pass, as ``(ok, message)``."""
        checks = []
        for group in sorted({op.group for op in ops if op.group}):
            pairs = [(op, out) for op, out in zip(ops, outcomes) if op.group == group]
            changed = [
                op.key for op, out in pairs
                if self.expected_digests.get(op.digest_key) != record_digest(out.record)
            ]
            checks.append((
                not changed,
                f"digest {group}: {len(pairs) - len(changed)} of {len(pairs)} exact results "
                "match the recorded ones" + (f", first change at {changed[0]}" if changed else ""),
            ))
        if self.name == "integrality":
            nu8 = [o for op, o in zip(ops, outcomes) if op.kind == "nu8"]
            integral = sum(o.flagged for o in nu8)
            checks.append((
                integral == len(NU8_CELLS) * len(NU8_FREE),
                f"finding: resonant nu=8 branch integral on {integral} of {len(nu8)} "
                "pencils (N=8..10)",
            ))
        elif self.name == "refutation":
            nu3_cells = sum(1 for nu, _, _ in grid_cells() if nu == 3)
            flagged = [op.key for op, o in zip(ops, outcomes) if op.kind == "c215" and o.flagged]
            at_nu3 = sum(key.startswith("nu=3,") for key in flagged)
            checks.append((
                at_nu3 == len(flagged) == nu3_cells,
                f"finding: c215 disagrees on {len(flagged)} cells, {at_nu3} of them "
                f"nu=3 ({nu3_cells} nu=3 cells on the grid)",
            ))
        return checks


def prepare(name: str, seed: int) -> Workload:
    """Build the workload's inputs and warm the code paths its ops use."""
    workload = Workload(name, seed)
    workload.ops(0)  # generated again per pass; built here so set-up timings include it
    if name == "trajectories":
        spec = dynamics.ModelSpec(dynamics.System.GOLD, 2, a2=-1.0)
        state = dynamics.ParticleState([0.3 + 0.1j, -0.2 + 0.2j], [0.1, -0.1j])
        for method in ("direct", "spectral"):
            dynamics.simulate(spec, state, np.linspace(0.0, 0.05, 3), method, tol=SIM_TOL)
    else:
        for nu, mu, n in ((0, 1, 2), (3, 3, 3)):
            spectrum.verify_integrality(nu, mu, n)
            spectrum.verify_conjectures("c215", nu, mu, n)
    return workload
