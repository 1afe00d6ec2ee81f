"""Outside-in layer tracing of the goldfish modules.

The tracer wraps the public functions (``__all__``) of ``equilibria``,
``spectrum``, ``polynomials``, ``dynamics`` and ``linalg`` in place: in
the defining module and in every goldfish module that imported them by
name.  Nothing under ``src/`` knows about it.

* Each wrapped call is a span ``(op, id, parent, name, start, end)``; the
  op id is shared by all spans of one benchmark op.  Spans stay in memory
  until :meth:`Tracer.write`.
* Calls made once per right-hand-side evaluation (the ``rhs`` callable
  handed to ``integrate_ode``, ``eval_rhs``) and the polynomial
  evaluations of the integer-root scan go into counters and summed time
  instead, so memory stays bounded.
* A span's self time is its duration minus the time of its child spans
  and of the counted rhs calls made directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import goldfish
from goldfish import cli, dynamics, equilibria, linalg, polynomials, reports, spectrum

LAYERS = (equilibria, spectrum, polynomials, dynamics, linalg)
# every namespace that may hold a reference to a layer function
NAMESPACES = (goldfish, cli, reports) + LAYERS

# The per-layer metrics, in report order, with their units.  Counts repeat
# exactly across runs with the same seed; ``COUNTS`` lists the ones the
# determinism self-check compares.
METRICS = {
    "polynomials.charpoly_calls": "count",
    "polynomials.charpoly_s": "s",
    "polynomials.det_evals": "count",
    "polynomials.roots_calls": "count",
    "polynomials.roots_s": "s",
    "polynomials.root_evals": "count",
    "spectrum.pencils": "count",
    "spectrum.build_pencil_s": "s",
    "spectrum.product_s": "s",
    "spectrum.self_s": "s",
    "equilibria.cbar_calls": "count",
    "equilibria.cbar_s": "s",
    "linalg.rhs_evals": "count",
    "linalg.rhs_s": "s",
    "linalg.rhs_us": "us",
    "dynamics.eval_rhs_s": "s",
    "dynamics.direct_rhs_s": "s",
    "linalg.integrate_calls": "count",
    "linalg.integrate_self_s": "s",
    "dynamics.direct_s": "s",
    "dynamics.spectral_s": "s",
    "dynamics.spectral_self_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "linalg.track_calls": "count",
    "linalg.track_s": "s",
    "linalg.refine_frames": "count",
    "dynamics.attempts": "count",
    "dynamics.useful_frac": "ratio",
    "dynamics.period_s": "s",
    "trace.overhead_frac": "ratio",
}
COUNTS = tuple(name for name, unit in METRICS.items() if unit == "count")

_CBAR = ("equilibria.cbar_closed_form", "equilibria.expand_iso_psi")
_VERIFY = ("spectrum.verify_integrality", "spectrum.verify_conjectures")


class Tracer:
    """Spans and counters of one traced run.

    Construct a tracer while no other is installed: it records the
    functions it finds as the originals to wrap and to restore.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        # open spans: [span id, time covered by children]
        self._stack: list[list] = []
        self._next_id = 0
        self._op = None
        self._in_roots = 0
        self._method = None  # of the simulate call in progress
        # per span name: calls, total time, self time
        self._calls: Counter = Counter()
        self._total: defaultdict = defaultdict(float)
        self._self: defaultdict = defaultdict(float)
        self._patches = self._build_patches()

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, 0.0])
        return parent, time.perf_counter()

    def _exit(self, name, parent, start):
        end = time.perf_counter()
        span_id, covered = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((self._op, span_id, parent, name, start, end))
        self._calls[name] += 1
        self._total[name] += duration
        self._self[name] += duration - covered

    @contextlib.contextmanager
    def op(self, op_id, name):
        """Span of one benchmark op; every span inside it carries ``op_id``."""
        self._op = op_id
        parent, start = self._enter()
        try:
            yield
        finally:
            self._exit(name, parent, start)

    def _span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, parent, start)

        return traced

    # -- special cases -------------------------------------------------------

    def _simulate(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            method = bound.arguments["method"].lower()
            eig_before = self._calls["linalg.eigenvalues"]
            self._method = method
            parent, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(f"dynamics.simulate.{method}", parent, start)
                self._method = None
                if method == "spectral":
                    frames = self._calls["linalg.eigenvalues"] - eig_before
                    requested = len(bound.arguments["t_samples"])
                    self.counts["linalg.refine_frames"] += frames - requested

        return traced

    def _integrate(self, fn):
        span = self._span("linalg.integrate_ode", fn)

        def counted_rhs(rhs):
            def traced_rhs(t, y):
                start = time.perf_counter()
                try:
                    return rhs(t, y)
                finally:
                    duration = time.perf_counter() - start
                    self.counts["linalg.rhs_evals"] += 1
                    self.times["linalg.rhs_s"] += duration
                    if self._method == "direct":
                        self.times["dynamics.direct_rhs_s"] += duration
                    self._stack[-1][1] += duration

            return traced_rhs

        @functools.wraps(fn)
        def traced(rhs, *args, **kwargs):
            return span(counted_rhs(rhs), *args, **kwargs)

        return traced

    def _eval_rhs(self, fn):
        # always called inside a counted rhs, which already charges its time
        # to the enclosing integrate_ode span
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times["dynamics.eval_rhs_s"] += time.perf_counter() - start

        return traced

    def _charpoly(self, fn):
        span = self._span("polynomials.pencil_charpoly_exact", fn)

        @functools.wraps(fn)
        def traced(A, B):
            # 2N + 1 interpolation nodes and one cross-check node
            self.counts["polynomials.det_evals"] += 2 * len(A) + 2
            return span(A, B)

        return traced

    def _integer_roots(self, fn):
        span = self._span("polynomials.integer_roots", fn)

        @functools.wraps(fn)
        def traced(q):
            self._in_roots += 1
            try:
                return span(q)
            finally:
                self._in_roots -= 1

        return traced

    def _poly_call(self, fn):
        @functools.wraps(fn)
        def traced(poly, x):
            if self._in_roots:
                self.counts["polynomials.root_evals"] += 1
            return fn(poly, x)

        return traced

    # -- installation --------------------------------------------------------

    def _wrapper(self, module, name, fn):
        special = {
            "simulate": self._simulate,
            "integrate_ode": self._integrate,
            "eval_rhs": self._eval_rhs,
            "pencil_charpoly_exact": self._charpoly,
            "integer_roots": self._integer_roots,
        }.get(name)
        if special is not None:
            return special(fn)
        return self._span(f"{module.__name__.rsplit('.', 1)[-1]}.{name}", fn)

    def _build_patches(self):
        """``(namespace, attribute, original, wrapped)`` for every reference
        to a layer function, and for ``IntegerPolynomial.__call__``."""
        patches = []
        for module in LAYERS:
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrapper(module, name, fn)
                for namespace in NAMESPACES:
                    for attr, value in vars(namespace).items():
                        if value is fn:
                            patches.append((namespace, attr, fn, wrapped))
        call = polynomials.IntegerPolynomial.__call__
        patches.append((polynomials.IntegerPolynomial, "__call__", call, self._poly_call(call)))
        return patches

    def install(self):
        for namespace, attr, _, wrapped in self._patches:
            setattr(namespace, attr, wrapped)

    def uninstall(self):
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self, verdicts: int, overhead_frac: float) -> dict[str, float]:
        calls, total, self_s = self._calls, self._total, self._self
        rhs_evals = self.counts["linalg.rhs_evals"]
        attempts = self.counts["dynamics.attempts"]
        return {
            "polynomials.charpoly_calls": calls["polynomials.pencil_charpoly_exact"],
            "polynomials.charpoly_s": total["polynomials.pencil_charpoly_exact"],
            "polynomials.det_evals": self.counts["polynomials.det_evals"],
            "polynomials.roots_calls": calls["polynomials.integer_roots"],
            "polynomials.roots_s": total["polynomials.integer_roots"],
            "polynomials.root_evals": self.counts["polynomials.root_evals"],
            "spectrum.pencils": calls["spectrum.build_pencil"],
            "spectrum.build_pencil_s": total["spectrum.build_pencil"],
            "spectrum.product_s": total["spectrum.conjecture_215_product"],
            "spectrum.self_s": sum(self_s[name] for name in _VERIFY),
            "equilibria.cbar_calls": sum(calls[name] for name in _CBAR),
            "equilibria.cbar_s": sum(total[name] for name in _CBAR),
            "linalg.rhs_evals": rhs_evals,
            "linalg.rhs_s": self.times["linalg.rhs_s"],
            "linalg.rhs_us": 1e6 * self.times["linalg.rhs_s"] / rhs_evals if rhs_evals else 0.0,
            "dynamics.eval_rhs_s": self.times["dynamics.eval_rhs_s"],
            "dynamics.direct_rhs_s": self.times["dynamics.direct_rhs_s"],
            "linalg.integrate_calls": calls["linalg.integrate_ode"],
            "linalg.integrate_self_s": self_s["linalg.integrate_ode"],
            "dynamics.direct_s": total["dynamics.simulate.direct"],
            "dynamics.spectral_s": total["dynamics.simulate.spectral"],
            "dynamics.spectral_self_s": self_s["dynamics.simulate.spectral"],
            "linalg.eig_calls": calls["linalg.eigenvalues"],
            "linalg.eig_s": total["linalg.eigenvalues"],
            "linalg.track_calls": calls["linalg.track_trajectories"],
            "linalg.track_s": total["linalg.track_trajectories"],
            "linalg.refine_frames": self.counts["linalg.refine_frames"],
            "dynamics.attempts": attempts,
            "dynamics.useful_frac": verdicts / attempts if attempts else 0.0,
            "dynamics.period_s": total["dynamics.detect_period"],
            "trace.overhead_frac": overhead_frac,
        }

    def write(self, path, header: dict):
        """Write the header, then one JSON line per span, then the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), "times": dict(self.times)}) + "\n")
