"""Run one workload of the goldfish benchmark and print its metrics.

    python3 bench/run.py --workload integrality --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads one after the other in this
process.  The run repeats whole passes over the workload's ops until at
least ``--seconds`` have been measured, checks every verdict, every exact
digest and both Findings, and prints one line per metric followed by a
JSON summary as the last line.  Op timings are scaled to a reference
machine speed (``reference_work``).  ``--trace 1`` reports the per-layer
metrics instead (see README.md).  Run it from the root of a checkout: the
program is imported from ``src/``.
"""

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

# pin OpenBLAS to one thread (numpy and scipy each load a threaded build)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("integrality", "refutation", "trajectories")
SETUP_RUNS = 5
TAIL_LADDER = (50, 75, 90, 99, 99.9)
TAIL_MIN_BEYOND = 10
MAX_PASSES = 64
MAX_REPORTED_FAILURES = 10
# The op timings are scaled to a machine on which reference_work() takes
# REFERENCE_S.  reference_work() runs between the ops, and each op is
# scaled by the median of the timings within REFERENCE_RADIUS_S of it
# (at least those just before and just after it).  The measuring
# machine's speed drifts within a second and over the hour (README.md).
REFERENCE_S = 3e-3
REFERENCE_RADIUS_S = 0.5
# one set-up in a fresh interpreter: import, input generation and warm-up
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.prepare(sys.argv[3], int(sys.argv[4]))"
)


@dataclass
class Measured:
    passes: int = 0
    seconds: float = 0.0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    verdicts: int = 0
    starts: list = field(default_factory=list)
    reference: list = field(default_factory=list)  # (mid time, seconds) of reference_work()


def reference_sample() -> tuple[float, float]:
    """``(mid time, seconds)`` of one ``reference_work()`` call."""
    start = time.perf_counter()
    reference_work()
    end = time.perf_counter()
    return (start + end) / 2, end - start


def reference_work():
    """Fixed work timed between the ops: an integer loop, Fraction sums and
    small numpy updates, the kinds of work the ops do."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k * k + 1, 2 * k + 3)
    x = np.arange(8.0) + 0j
    for _ in range(300):
        x = x * 0.5 + np.abs(x)


def run_op(op, tracer, op_id):
    """One op, traced when ``tracer`` is given; returns ``(outcome, seconds)``."""
    from workloads import Outcome

    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            tracer.install()
            try:
                with tracer.op(op_id, f"op.{op.kind}"):
                    out = op.run()
            finally:
                tracer.uninstall()
    except Exception as exc:  # an op that raises is a failed op
        out = Outcome(False, record=f"error {type(exc).__name__}: {exc}")
    return out, time.perf_counter() - start


def run_passes(workload, seconds, passes=None, modes=(None,), reference=False) -> list[Measured]:
    """Run whole passes until the first mode has measured ``seconds`` of op
    time, or exactly ``passes``.  A mode is ``None`` (untraced) or a
    tracer; with several modes every op runs once in each, back to back
    and in alternating order, so that they share the machine's state.
    With ``reference``, ``reference_work()`` is timed between the ops."""
    results = [Measured() for _ in modes]
    first = results[0]

    def more():
        if passes is not None:
            return first.passes < passes
        return first.seconds < seconds and first.passes < MAX_PASSES

    gc.collect()
    while more():
        ops = workload.ops(first.passes)
        outcomes = [[] for _ in modes]
        if reference:
            first.reference.append(reference_sample())
        for index, op in enumerate(ops):
            order = range(len(modes)) if index % 2 == 0 else reversed(range(len(modes)))
            for k in order:
                results[k].starts.append(time.perf_counter())
                out, seconds_taken = run_op(op, modes[k], f"{first.passes}.{index}")
                results[k].latencies.append(seconds_taken)
                results[k].seconds += seconds_taken
                outcomes[k].append(out)
            if reference:
                first.reference.append(reference_sample())
        for tracer, m, outs in zip(modes, results, outcomes):
            for op, out in zip(ops, outs):
                if not out.ok:
                    m.failures.append(f"{op.kind} {op.key}: {out.record[:200] or 'wrong verdict'}")
                if tracer is not None:
                    tracer.counts["dynamics.attempts"] += out.attempts
                m.verdicts += out.verdict
            m.checks += workload.check_pass(ops, outs)
            m.passes += 1
    return results


def setup_seconds(name, seed) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, BENCH, SRC, name, str(seed)],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def tail_percentile(n) -> float:
    """The highest ladder percentile with at least ten of ``n`` ops beyond it."""
    return ([p for p in TAIL_LADDER if n * (1 - p / 100) >= TAIL_MIN_BEYOND] or [50])[-1]


def quantile(values, percent) -> float:
    """Harrell-Davis estimate of a percentile: a beta-weighted mean of all
    order statistics.  With 40 ops, the one or two order statistics that
    np.percentile interpolates between made p75 spread twice as much."""
    from scipy.special import betainc  # already loaded by goldfish; scipy.stats is not

    x = np.sort(values)
    n, q = x.size, percent / 100
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def reference_scaled(m: Measured) -> np.ndarray:
    """Op latencies scaled to the reference machine speed."""
    at, took = (np.asarray(column) for column in zip(*m.reference))
    scaled = []
    for start, latency in zip(m.starts, m.latencies):
        near = (at >= start - REFERENCE_RADIUS_S) & (at <= start + latency + REFERENCE_RADIUS_S)
        scaled.append(latency * REFERENCE_S / np.median(took[near]))
    return np.asarray(scaled)


def blas_threads() -> str:
    import scipy

    found = []
    for package in (np, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    found.append(f"{package.__name__} {getter()}")
                    break
    return ", ".join(found) or "unknown"


def environment() -> str:
    import scipy

    return (
        f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy "
        f"{np.__version__}, scipy {scipy.__version__}, OpenBLAS threads "
        f"{blas_threads()}, single process, no sweep pool"
    )


def report_checks(m: Measured, show_passed=True) -> bool:
    for message in m.failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED   {message}")
    for ok, message in dict.fromkeys(m.checks):
        if show_passed or not ok:
            print(f"{'check   ' if ok else 'FAILED  '} {message}")
    return not m.failures and all(ok for ok, _ in m.checks)


def end_to_end(m: Measured, setups) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(m.latencies)
    scaled, wall = reference_scaled(m), np.asarray(m.latencies)
    p = tail_percentile(n)
    return {
        "ops_per_s": (n / scaled.sum(), "1/ref_s", f"wall {n / wall.sum():.4g} 1/s"),
        "op_ms_p50": (1e3 * quantile(scaled, 50), "ref_ms",
                      f"n={n}, wall {1e3 * quantile(wall, 50):.4g} ms"),
        "op_ms_tail": (1e3 * quantile(scaled, p), "ref_ms",
                       f"p{p:g} of n={n}, wall {1e3 * quantile(wall, p):.4g} ms"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (peak_rss_mb, "MB", ""),
    }


def traced_run(name, seed, workload, seconds):
    """The untraced run paired op by op with a first traced run, then a
    second traced run of the same passes; returns
    ``(untraced, correct, attempted, failed, metrics, notes)``."""
    from tracer import COUNTS, METRICS, Tracer

    first, second = Tracer(), Tracer()
    untraced, traced = run_passes(workload, seconds, modes=(None, first))
    (again,) = run_passes(workload, 0, passes=untraced.passes, modes=(second,))
    correct = all(report_checks(m, show_passed=False) for m in (traced, again))
    overhead = traced.seconds / untraced.seconds - 1
    metrics = first.metrics(traced.verdicts, overhead)
    repeat = second.metrics(again.verdicts, overhead)
    differ = [count for count in COUNTS if metrics[count] != repeat[count]]
    notes = [f"FAILED   {count} differs between two traced runs: "
             f"{metrics[count]} != {repeat[count]}" for count in differ]
    if not differ:
        notes.append(f"check    {len(COUNTS)} counts repeat exactly across two traced runs")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{name}-{seed}.jsonl")
    first.write(path, {"workload": name, "seed": seed, "passes": untraced.passes,
                       "env": environment()})
    notes.append(f"trace    {len(first.spans)} spans of the first traced run in "
                 f"{os.path.relpath(path, ROOT)}")
    attempted = len(traced.latencies) + len(again.latencies)
    failed = len(traced.failures) + len(again.failures)
    units = {key: (value, METRICS[key], "") for key, value in metrics.items()}
    return untraced, correct and not differ, attempted, failed, units, notes


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns ``(correct, attempted, failed, metrics)``."""
    import workloads

    setups = [] if trace else setup_seconds(name, seed)
    workload = workloads.prepare(name, seed)
    if trace:
        m, correct, attempted, failed, metrics, notes = traced_run(name, seed, workload, seconds)
    else:
        (m,) = run_passes(workload, seconds, reference=True)
        correct, attempted, failed, metrics, notes = True, 0, 0, end_to_end(m, setups), []
        took = statistics.median(t for _, t in m.reference)
        notes.append(f"speed    reference work took {1e3 * took:.4g} ms "
                     f"(median), {1e3 * REFERENCE_S:g} ms on the reference machine")
    print(f"workload {name}, seed {seed}, {m.passes} pass(es), {len(m.latencies)} ops, "
          f"{m.seconds:.2f} s measured")
    print(f"inputs   {workload.describe()}")
    print(f"env      {environment()}")
    correct = report_checks(m) and correct
    for note in notes:
        print(note)
    attempted, failed = attempted + len(m.latencies), failed + len(m.failures)
    print(f"metric   fail_frac = {len(m.failures) / len(m.latencies):g} "
          f"({len(m.failures)} of {len(m.latencies)} ops)")
    for key, (value, unit, note) in metrics.items():
        print(f"metric   {key} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    return correct, attempted, failed, {k: (v, u) for k, (v, u, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "goldfish", "__init__.py")):
        print(f"error: no goldfish package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, values = run_workload(name, args.seed, args.seconds, args.trace)
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
