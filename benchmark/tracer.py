"""Outside-in layer tracer: spans and counters installed from the benchmark.

The tracer wraps public functions and methods of ``conslaw`` while it is
installed and restores them afterwards; the program itself is not edited.
Functions that other modules import by name (``kappa_series``,
``concomitant_flux``, ...) are replaced in every loaded ``conslaw`` module
that holds them, and per-object work is caught on the classes
(``EvolutionSystem.__init__``/``.propagator``, ``Trajectory.jet_values``,
the field views' ``jet``), so no call path slips past a wrapper.

A span records name, start, end, its parent span and the run id.  Spans stay
in memory and are written once, at the end of the run.  A layer's self time is
its spans' durations minus the part covered by their child spans.  Peak RSS
(``ru_maxrss``) is read at every span boundary and each rise is charged to the
innermost open span.  Counters are read from arguments and returned objects
after each call; byte figures among them are computed from array shapes, not
measured.  ``fields.evolution_matrix`` runs once per Fourier mode, so it is
counted, not spanned.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import weakref
from collections import defaultdict


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans = []  # (id, parent id, name, start, end), seconds from t0
        self._stack = []  # open frames: [id, name, start, child seconds]
        self._next_id = 0
        self._rss = maxrss_mb()
        self.self_s = defaultdict(float)
        self.rss_mb = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.cache_bytes = 0  # largest propagator cache one system held
        self._jet_keys = weakref.WeakKeyDictionary()  # trajectory -> {(t, alpha)}
        self._dt_seen = weakref.WeakKeyDictionary()  # system -> {dt}
        self._solves = 0  # adjoint solves in the current cycle
        self._operators = set()  # distinct operators among them
        self.solve_ratios = []  # solves per distinct operator, one per cycle
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _charge_rss(self):
        now = maxrss_mb()
        if now > self._rss:
            owner = self._stack[-1][1] if self._stack else "outside spans"
            self.rss_mb[owner] += now - self._rss
            self._rss = now

    def enter(self, name):
        self._charge_rss()
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        self._charge_rss()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append(
            (sid, parent[0] if parent else None, name, start - self.t0, end - self.t0)
        )

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` reads counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, result)
            return result

        return traced

    def end_cycle(self):
        if self._operators:
            self.solve_ratios.append(self._solves / len(self._operators))
        self._solves = 0
        self._operators = set()

    # -- counters read at layer boundaries --------------------------------

    def _after_build(self, args, _result):
        system = args[0]
        self.counts["spectral.build.modes"] += len(system.active)
        self.counts["spectral.build.fast_modes"] += int(system.fast.sum())
        self.counts["spectral.build.bytes"] += system.A.nbytes

    def _after_propagator(self, args, result):
        # bytes the system's propagator cache holds; without such a cache a
        # system holds at most the propagator it just returned
        system = args[0]
        cache = getattr(system, "_prop_cache", None)
        if isinstance(cache, dict):
            held = sum(getattr(p, "nbytes", 0) for p in cache.values())
        else:
            held = getattr(result, "nbytes", 0)
        self.cache_bytes = max(self.cache_bytes, held)

    def _count_distinct_dt(self, fn):
        # a dt this system has not been asked for before counts as distinct
        @functools.wraps(fn)
        def call(system, dt, *rest, **kw):
            seen = self._dt_seen.setdefault(system, set())
            if float(dt) not in seen:
                seen.add(float(dt))
                self.counts["spectral.propagator.distinct_dt"] += 1
            return fn(system, dt, *rest, **kw)

        return call

    def _after_jet(self, args, result):
        traj, t, alpha = args[0], args[1], args[2]
        keys = self._jet_keys.setdefault(traj, set())
        key = (float(t), tuple(int(a) for a in alpha))
        if key not in keys:
            keys.add(key)
            self.counts["spectral.jet.unique"] += 1
        self.counts["spectral.jet.fft_bytes"] += getattr(result, "nbytes", 0)

    def _after_contract(self, args, _result):
        self.counts["current.contract.terms"] += len(args[0])

    def _after_solve(self, args, _result):
        self._operators.add(args[0])
        self._solves += 1

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _patch_function(self, module, attr, wrapper):
        """Replace ``module.attr`` wherever a ``conslaw`` module holds it."""
        original = getattr(module, attr)
        replacement = wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "conslaw" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self):
        from conslaw import adjoint, catalog, current, dirac, fields, fock, scenario, spectral, symmetry

        span = self.span
        es, traj = spectral.EvolutionSystem, spectral.Trajectory
        self._patch(es, "__init__", lambda f: span("spectral.build", f, self._after_build))
        self._patch(
            es,
            "propagator",
            lambda f: span("spectral.propagator", self._count_distinct_dt(f), self._after_propagator),
        )
        self._patch(traj, "jet_values", lambda f: span("spectral.jet", f, self._after_jet))
        # view arithmetic belongs to the kappa layer, not to the contraction
        for view in ("MatrixView", "ConjView", "ReflectView", "DiffView", "ShiftView"):
            self._patch(getattr(spectral, view), "jet", lambda f: span("spectral.kappa", f))
        self._patch_function(
            fields, "evolution_matrix", lambda f: self._counter("fields.evolution_matrix.calls", f)
        )
        layers = [
            (spectral, "kappa_series", "spectral.kappa", None),
            (spectral, "heat_flow_product_oracle", "spectral.oracle", None),
            (current, "evaluate_terms", "current.contract", self._after_contract),
            (current, "concomitant_flux", "current.flux", None),
            (adjoint, "semi_conjugacy_solve", "adjoint.solve", self._after_solve),
            (adjoint, "adjoint_factorization", "adjoint.factorize", None),
            (symmetry, "verify_symmetry", "symmetry.verify", None),
            (symmetry, "verify_kernel_shift", "symmetry.verify", None),
            (fock, "quantize_cpt_charge", "fock.quantize", None),
            (fock, "quantize_reflection_charge", "fock.quantize", None),
            (dirac, "check_discrete_algebra", "dirac.discrete", None),
            (dirac, "fock_suite", "dirac.fock_suite", None),
            (scenario, "run_scenario", "scenario.run", None),
        ]
        for attr in (
            "build_operator",
            "build_symmetry",
            "build_profile",
            "named_symmetries",
            "dirac_operator",
            "navier_stokes_operator",
            "jordan_block_operator",
        ):
            layers.append((catalog, attr, "catalog.build", None))
        for module, attr, name, after in layers:
            self._patch_function(
                module, attr, lambda f, name=name, after=after: span(name, f, after)
            )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path, header):
        """Write the run's spans as JSON lines after a header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
