"""Command-line front end.

Commands: ``simulate``, ``isochrony``, ``equilibria``, ``spectrum``,
``conjecture``, ``verify``, ``sweep``.  All reports are deterministic
JSON (identical configuration and seed give byte-identical output);
trajectories serialise to CSV and optionally to a static SVG of the
complex-plane curves.

Exit codes: 0 success / verified, 1 verification or runtime failure
(for instance a conjecture counterexample; a runtime failure is any
``GoldfishError``, such as an exact characteristic polynomial that fails
its certificate, or an ``ArithmeticError``), 2 usage or validation error
(an output path that cannot be written included; a path whose directory
is missing, or a sweep grid with no cell, is refused before any work
starts).  Past argument parsing, each failure is one stderr line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import dynamics, equilibria, reports, spectrum
from .dynamics import CoefficientState, ModelSpec, ParticleState, System, detect_period, simulate
from .linalg import multiset_distance
from .polynomials import GoldfishError

_USAGE_ERROR = 2
_FAILURE = 1


class UsageError(Exception):
    pass


def _parse_complex(text: str) -> complex:
    try:
        re, im = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected 're,im', got {text!r}") from exc
    return complex(re, im)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"expected a rational like '7/2' or '2.25', got {text!r}") from exc


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(p) for p in text.split(",") if p.strip())


def _parse_phi(text: str) -> tuple[complex, ...]:
    return tuple(_parse_complex(p) for p in text.split(";") if p.strip())


def _thread_count(requested: int | None) -> int:
    if requested is not None:
        return max(1, requested)
    return min(8, os.cpu_count() or 1)


def _emit(args, report: dict) -> None:
    text = reports.write_report(report, getattr(args, "json", None))
    if getattr(args, "json", None) is None:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# simulate


# command-line names: the enum values, hyphenated
_SYSTEMS = {s.value.replace("_", "-"): s for s in System}
# the particle system whose initial data starts each matrix flow
_MATRIX_PARTICLE = {
    System.MATRIX_U: System.GOLD,
    System.MATRIX_UTILDE: System.ISOGOLD,
    System.MATRIX_GENERAL: System.VESELOV,
}


def _build_spec(args) -> ModelSpec:
    system = _SYSTEMS[args.system]
    kwargs = {}
    if args.system == "general-gold":
        for name in ("alpha", "beta", "gamma"):
            if getattr(args, name) is None:
                raise UsageError(f"--{name} is required for general-gold")
            kwargs[name] = _parse_complex(getattr(args, name))
    if args.phi:
        kwargs["phi_poly"] = _parse_phi(args.phi)
    return ModelSpec(
        system,
        args.n,
        a2=_parse_complex(args.a2),
        g=_parse_complex(args.g),
        **kwargs,
    )


def _initial_state(args, spec: ModelSpec):
    if spec.system in dynamics._COEFFICIENT:
        if not args.c0:
            raise UsageError("coefficient systems need --c0 (repeatable, one per index)")
        c = np.array([_parse_complex(x) for x in args.c0])
        cd = (
            np.array([_parse_complex(x) for x in args.cdot0])
            if args.cdot0
            else np.zeros_like(c)
        )
        if c.size != spec.N or cd.size != spec.N:
            raise UsageError(f"need exactly {spec.N} coefficient values")
        return CoefficientState(c, cd)
    if not args.z0:
        raise UsageError("particle and matrix systems need --z0 (repeatable)")
    z = np.array([_parse_complex(x) for x in args.z0])
    v = np.array([_parse_complex(x) for x in args.v0]) if args.v0 else np.zeros_like(z)
    if z.size != spec.N or v.size != spec.N:
        raise UsageError(f"need exactly {spec.N} particle values")
    state = ParticleState(z, v)
    if spec.system in dynamics._MATRIX:
        pspec = ModelSpec(
            _MATRIX_PARTICLE[spec.system], spec.N, a2=spec.a2, g=spec.g, phi_poly=spec.phi_poly
        )
        return dynamics.build_matrix_initial_data(pspec, state)
    return state


def cmd_simulate(args) -> int:
    spec = _build_spec(args)
    state0 = _initial_state(args, spec)
    t = np.linspace(args.t_start, args.t_end, args.samples)
    result = simulate(
        spec,
        state0,
        t,
        method=args.method,
        tol=args.tol,
        time_path="trick" if args.trick_path else None,
    )
    if spec.system in dynamics._MATRIX:
        paths = dynamics.eigenvalue_paths(result)
        values = paths.paths.T
        velocities = None
        label = "z"
    else:
        values = result.values
        velocities = result.velocities if args.full_state else None
        label = "c" if spec.system in dynamics._COEFFICIENT else "z"
    text = reports.write_trajectory_csv(
        result.trajectory.times, values, args.csv, label=label, velocities=velocities
    )
    if args.csv is None:
        sys.stdout.write(text)
    if args.svg:
        reports.write_trajectory_svg(values, args.svg)
    if args.json:
        report = reports.make_report(
            "simulate",
            _echo_args(args),
            {
                "samples": len(result.trajectory.times),
                "monodromy": list(result.tracked.monodromy) if result.tracked else None,
            },
        )
        reports.write_report(report, args.json)
    return 0


# ---------------------------------------------------------------------------
# isochrony


def cmd_isochrony(args) -> int:
    if args.samples_per_period < 2:
        raise UsageError("--samples-per-period must be at least 2")
    if args.p_max < 0:
        raise UsageError("--p-max must be >= 0 (0: auto)")
    spec = _build_spec(args)
    rng = np.random.default_rng(args.seed)
    if args.z0 or args.c0:
        state0 = _initial_state(args, spec)
    else:
        vals = args.scale * (rng.standard_normal(spec.N) + 1j * rng.standard_normal(spec.N))
        vels = args.scale * (rng.standard_normal(spec.N) + 1j * rng.standard_normal(spec.N))
        state0 = (
            ParticleState(vals, vels)
            if args.system == "isogold"
            else CoefficientState(vals, vels)
        )
    p_max = args.p_max if args.p_max else (spec.N if args.system == "isogold" else 1)
    k = args.samples_per_period
    t = np.arange((p_max + 1) * k + 1) * (2 * np.pi / k)
    result = simulate(spec, state0, t, method="direct", tol=args.tol_ode)
    kind = "particle" if args.system == "isogold" else "coefficient"
    report_data = detect_period(
        result.trajectory, kind, p_max=p_max, tol=args.tol_period
    )
    report = reports.make_report(
        "isochrony",
        _echo_args(args),
        {
            "p": report_data.p,
            "deviation": report_data.deviation,
            "candidates": [list(c) for c in report_data.candidates],
        },
    )
    _emit(args, report)
    return 0 if report_data.p is not None else _FAILURE


# ---------------------------------------------------------------------------
# equilibria


def cmd_equilibria(args) -> int:
    if args.iso and args.nu == 2:
        raise UsageError(
            "nu = 2 is excluded for the isochronous equilibria: the "
            "core-polynomial normalisation admits only nu in {0, 1, 3, 4, 5}"
        )
    samples = (
        _parse_fraction_list(args.free_samples)
        if args.free_samples
        else equilibria.DEFAULT_FREE_SAMPLES
    )
    if args.iso:
        configs = equilibria.enumerate_iso_equilibria(args.n, samples)
    else:
        configs = equilibria.enumerate_altgold_equilibria(
            args.n, _parse_fraction(args.a), samples
        )
    if args.nu is not None:
        configs = [c for c in configs if c.nu == args.nu]
    if args.mu is not None:
        configs = [c for c in configs if c.mu == args.mu]
    rows = []
    failures = []
    for cfg in configs:
        residual = equilibria.equilibrium_residual(cfg)
        ok = all(r == 0 for r in residual)
        gen = equilibria.genuineness_check(cfg)
        row = {
            "family": cfg.family.value,
            "nu": cfg.nu,
            "mu": cfg.mu,
            "free": cfg.free,
            "cbar": list(cfg.cbar),
            "residual_zero": ok,
            "genuineness": gen.verdict,
            "necessary_condition": gen.necessary_condition_met,
        }
        rows.append(row)
        if not ok:
            failures.append({"family": cfg.family.value, "nu": cfg.nu, "mu": cfg.mu})
    report = reports.make_report("equilibria", _echo_args(args), rows, failures)
    _emit(args, report)
    return 0 if not failures else _FAILURE


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    samples = _parse_fraction_list(args.free) if args.free else None
    mu, perturb_c1 = _parse_fraction(args.mu), _parse_fraction(args.perturb_c1)
    rep = spectrum.verify_integrality(
        args.nu, mu, args.n, free_samples=samples, perturb_c1=perturb_c1
    )
    results = {
        "all_integers": rep.all_integers,
        "samples": [
            {
                "free": s.free,
                "charpoly": str(s.charpoly),
                "integer_roots": list(s.integer_roots),
                "remainder": str(s.remainder),
                "all_integers": s.all_integers,
            }
            for s in rep.samples
        ],
    }
    if args.numeric:
        # the first sample's pencil, c_1 shift included, as the exact route built it
        eigs = spectrum.solve_pencil_numeric(rep.samples[0].pencil)
        order = np.lexsort((eigs.imag, eigs.real))
        results["numeric_eigenvalues"] = [complex(e) for e in eigs[order]]
    report = reports.make_report("spectrum", _echo_args(args), results)
    _emit(args, report)
    return 0 if rep.all_integers else _FAILURE


# ---------------------------------------------------------------------------
# conjecture


def cmd_conjecture(args) -> int:
    samples = _parse_fraction_list(args.free) if args.free else None
    res = spectrum.verify_conjectures(
        args.which, args.nu, _parse_fraction(args.mu), args.n, samples
    )
    if args.which == "c215":
        results = {
            "match": res.match,
            "charpoly": str(res.charpoly),
            "conjectured": str(res.conjectured),
            "counterexamples": [c.as_record() for c in res.counterexamples],
        }
        ok = res.match
    else:
        results = {
            "contained": res.contained,
            "max_match_error": res.max_match_error,
            "claimed": list(res.claimed),
            "spectrum": [complex(s) for s in res.spectrum],
        }
        ok = res.contained
    report = reports.make_report("conjecture", _echo_args(args), results)
    _emit(args, report)
    return 0 if ok else _FAILURE


# ---------------------------------------------------------------------------
# verify: quick bundled self-checks


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = []

    def check(name, fn):
        try:
            value, bound = fn()
            ok = value <= bound
            checks.append({"name": name, "value": value, "bound": bound, "pass": ok})
        except (GoldfishError, ArithmeticError, ValueError) as exc:  # a failed check, not a bug
            checks.append({"name": name, "error": str(exc), "pass": False})

    def pole_closed_form():
        spec = ModelSpec(System.GOLD, 1)
        res = simulate(spec, ParticleState([1.0], [1.0]), [0.0, 0.5], tol=1e-12)
        return abs(res.values[-1, 0] - 2.0), 1e-8

    def rcm_closed_form():
        spec = ModelSpec(System.RCM, 1)
        res = simulate(
            spec, ParticleState([0.3 + 0.2j], [0.7 - 0.1j]), [0.0, np.pi / 2], "spectral"
        )
        return abs(res.values[-1, 0] - (0.7 - 0.1j)), 1e-14

    def oracle_equivalence():
        spec = ModelSpec(System.GOLD, 2, a2=-1.0)
        z = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        t = np.linspace(0, 1, 21)
        direct = simulate(spec, ParticleState(z, v), t, "direct", tol=1e-12)
        spectral = simulate(spec, ParticleState(z, v), t, "spectral", tol=1e-12)
        dev = 0.0
        for a, b in zip(direct.values, spectral.values):
            dev = max(dev, multiset_distance(a, b))
        return dev, 1e-7

    def coupling_identity():
        pairs = [
            (complex(x), complex(y))
            for x, y in rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        ]
        return (
            dynamics.residual_coupling_identity(0.3, -0.2j, 1.1, pairs),
            1e-12,
        )

    def rank_one():
        spec = ModelSpec(System.GOLD, 4, a2=1 + 1j)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return dynamics.residual_rank_one(spec, ParticleState(z, v)), 1e-10

    def triangular_spectrum():
        rep = spectrum.verify_integrality(0, 0, 6)
        expect = sorted([n for n in range(1, 7)] + [n + 1 for n in range(1, 7)])
        got = sorted(rep.samples[0].integer_roots)
        return float(got != expect), 0.5

    check("pole_closed_form", pole_closed_form)
    check("rcm_closed_form", rcm_closed_form)
    check("oracle_equivalence", oracle_equivalence)
    check("coupling_identity", coupling_identity)
    check("rank_one_minors", rank_one)
    check("equilibrium_spectrum_ladder", triangular_spectrum)

    ok = all(c.get("pass") for c in checks)
    report = reports.make_report(
        "verify", _echo_args(args), checks, [c for c in checks if not c.get("pass")]
    )
    _emit(args, report)
    return 0 if ok else _FAILURE


# ---------------------------------------------------------------------------
# sweep


def _sweep_cell(payload):
    """One grid cell; top-level for pickling into worker processes."""
    which, nu, mu, n, free, perturb = payload
    key = f"nu={nu},mu={mu},N={n}"
    try:
        if which == "integrality":
            rep = spectrum.verify_integrality(
                nu, Fraction(mu), n, free_samples=free, perturb_c1=Fraction(perturb)
            )
            return key, {"pass": rep.all_integers, "detail": None}
        if which == "c215":
            res = spectrum.verify_conjectures("c215", nu, Fraction(mu), n, free)
            detail = [c.as_record() for c in res.counterexamples] or None
            return key, {"pass": res.match, "detail": detail}
        res = spectrum.verify_conjectures("c217", nu, Fraction(mu), n, free)
        return key, {"pass": res.contained, "detail": res.max_match_error}
    except (GoldfishError, ArithmeticError, ValueError) as exc:  # a failed cell, not a bug
        return key, {"pass": False, "detail": f"error: {exc}"}


def cmd_sweep(args) -> int:
    if args.n_min < 1:
        raise UsageError("--n-min must be at least 1")
    nus = [int(x) for x in args.nu_list.split(",") if x.strip()] if args.nu_list else []
    free = _parse_fraction_list(args.free) if args.free else None
    mu_list = [_parse_fraction(x) for x in args.mu_list.split(",")] if args.mu_list else None
    grid = []
    for n in range(args.n_min, args.n_max + 1):
        for nu in nus:
            mus = mu_list or [Fraction(m) for m in range(nu, n + 1)]
            grid += [(nu, mu, n) for mu in mus]
    if not grid:
        raise UsageError("the grid holds no (nu, mu, N) cell, so it would verify nothing")
    perturb_key, perturb_val = None, Fraction(0)
    if args.perturb:
        cell, _, delta = args.perturb.partition(":")
        if cell.count(",") != 2:
            raise UsageError(f"--perturb expects 'nu,mu,N[:delta]', got {args.perturb!r}")
        nu_p, mu_p, n_p = (x.strip() for x in cell.split(","))
        perturb_key = (int(nu_p), _parse_fraction(mu_p), int(n_p))
        perturb_val = _parse_fraction(delta or "1/2")
        if perturb_key not in grid:
            raise UsageError(f"--perturb {args.perturb!r} names no cell of the grid")
    cells = [
        (args.which, nu, str(mu), n, free, perturb_val if (nu, mu, n) == perturb_key else 0)
        for nu, mu, n in grid
    ]

    workers = _thread_count(args.threads)
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = dict(pool.map(_sweep_cell, cells))
        except OSError:
            results = dict(map(_sweep_cell, cells))
    else:
        results = dict(map(_sweep_cell, cells))
    ordered = {k: results[k] for k in sorted(results)}
    failures = [k for k, v in ordered.items() if not v["pass"]]
    wall = round(time.perf_counter() - args._t0, 3) if args.timing else None
    report = reports.make_report("sweep", _echo_args(args), ordered, failures, wall)
    _emit(args, report)
    if args.csv:
        lines = ["cell,pass"]
        lines += [f"{k},{int(v['pass'])}" for k, v in ordered.items()]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if not failures else _FAILURE


# ---------------------------------------------------------------------------
# argument plumbing


_OUTPUT_PATHS = ("json", "csv", "svg")


def _check_output_dirs(args) -> None:
    """Refuse an output path whose directory does not exist, before any
    report is computed or printed."""
    for name in _OUTPUT_PATHS:
        path = getattr(args, name, None)
        if path is not None:
            folder = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(folder):
                raise UsageError(f"cannot write {path}: no such directory {folder}")


def _echo_args(args) -> dict:
    # output paths stay out of the echo so identical configurations give
    # byte-identical reports regardless of where they are written
    skip = {"func", "_t0", *_OUTPUT_PATHS}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _add_state_flags(p):
    p.add_argument("--z0", action="append", help="initial position 're,im' (repeat N times)")
    p.add_argument("--v0", action="append", help="initial velocity 're,im' (repeat N times)")
    p.add_argument("--c0", action="append", help="initial coefficient 're,im' (repeat N times)")
    p.add_argument("--cdot0", action="append", help="initial coefficient velocity 're,im'")


def _add_model_flags(p, systems):
    p.add_argument("--system", required=True, choices=sorted(systems))
    p.add_argument("--n", type=int, required=True, help="number of bodies / coefficients")
    p.add_argument("--a2", default="0,0", help="squared shift constant 're,im'")
    p.add_argument("--alpha", help="gauge quadratic constant term 're,im'")
    p.add_argument("--beta", help="gauge quadratic linear term 're,im'")
    p.add_argument("--gamma", help="gauge quadratic leading term 're,im'")
    p.add_argument("--g", default="0,0", help="inverse-cube coupling 're,im'")
    p.add_argument("--phi", help="force polynomial, ascending 're,im;re,im;...'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldfish",
        description="Solvable goldfish-type many-body systems: simulation, "
        "isochrony, equilibria and exact spectral checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one system and emit a trajectory CSV")
    _add_model_flags(p, _SYSTEMS)
    _add_state_flags(p)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--method", choices=("direct", "spectral"), default="direct")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--trick-path", action="store_true", help="integrate along tau(t)")
    p.add_argument("--full-state", action="store_true", help="also emit velocity columns")
    p.add_argument("--csv", help="trajectory CSV path (default: stdout)")
    p.add_argument("--svg", help="complex-plane SVG path")
    p.add_argument("--json", help="run report path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("isochrony", help="measure the integer period multiple")
    _add_model_flags(p, {"isogold", "altisogold"})
    _add_state_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=0.2, help="random data magnitude")
    p.add_argument("--p-max", type=int, default=0, help="largest multiple tested (0: auto)")
    p.add_argument("--samples-per-period", type=int, default=64)
    p.add_argument("--tol-period", type=float, default=1e-6)
    p.add_argument("--tol-ode", type=float, default=1e-12)
    p.add_argument("--json", help="report path (default: stdout)")
    p.set_defaults(func=cmd_isochrony)

    p = sub.add_parser("equilibria", help="enumerate closed-form equilibria")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--iso", action="store_true", help="isochronous families")
    group.add_argument("--altgold", action="store_true", help="rational-time families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="1", help="shift constant (exact rational)")
    p.add_argument("--nu", type=int, help="restrict to one nu")
    p.add_argument("--mu", type=int, help="restrict to one mu")
    p.add_argument("--free-samples", help="comma list of rational free-parameter samples")
    p.add_argument("--json", help="report path (default: stdout)")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("spectrum", help="exact pencil spectrum of one equilibrium cell")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--mu", required=True, help="integer or rational")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--free", help="comma list of free-constant samples (nu = 5)")
    p.add_argument("--exact", action="store_true", help="exact route (always on)")
    p.add_argument("--numeric", action="store_true", help="also solve numerically")
    p.add_argument("--perturb-c1", default="0", help="negative-control shift of c_1")
    p.add_argument("--json", help="report path (default: stdout)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("conjecture", help="check a conjectured spectral formula")
    p.add_argument("--which", required=True, choices=("c215", "c217"))
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--mu", required=True, help="integer (c215) or rational (c217)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--free", help="comma list of free-constant samples")
    p.add_argument("--tol", type=float, default=1e-6, help="echoed in the report only")
    p.add_argument("--json", help="report path (default: stdout)")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("verify", help="run the bundled quick self-checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="report path (default: stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run a (nu, mu, N) verification grid")
    p.add_argument("--which", required=True, choices=("integrality", "c215", "c217"))
    p.add_argument("--nu-list", default="0,1,3,4,5")
    p.add_argument("--mu-list", help="explicit comma list (default: nu..N per cell)")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--free", help="comma list of free-constant samples")
    p.add_argument("--threads", type=int, help="worker cap")
    p.add_argument("--perturb", help="negative control 'nu,mu,N[:delta]'")
    p.add_argument("--timing", action="store_true", help="include wall-clock in the report")
    p.add_argument("--csv", help="pass/fail matrix CSV path")
    p.add_argument("--json", help="report path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        _check_output_dirs(args)
        # a failure is reported on one line below, not by numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (UsageError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (GoldfishError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return _FAILURE


if __name__ == "__main__":
    sys.exit(main())
