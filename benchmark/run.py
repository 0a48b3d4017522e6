"""conslaw benchmark: verdict latency, memory and correctness per workload.

Run from the repository root, one process per workload run::

    python3 benchmark/run.py --workload angular-64 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory.  A run

1. measures set-up: ``SETUP_PROBES`` child processes each import numpy,
   scipy and ``conslaw`` and generate the workload's inputs from the seed;
   ``setup_s`` is the median time from process start to ready;
2. sets up once more in this process and runs cycles (one pass over the
   workload's items) until ``--seconds`` have elapsed, at least
   ``MIN_CYCLES`` of them, each on the CPU that is fastest just before it
   (see ``CpuPicker``);
3. re-derives every verdict from the reports (see ``workloads.py``) and
   compares each item's JSON summary with the one from the first cycle;
4. prints every metric by name with its unit (also ``failed_frac`` and, when
   more than ``TAIL_BEYOND`` cycles ran, ``cycle_s.tail``), an environment
   record, and as its last line one JSON object with the metrics
   ``BENCHMARK.json`` lists: the ``end_to_end`` ones with ``--trace 0``, the
   ``per_layer`` ones with ``--trace 1``.

Of the cycle timings, ``BENCHMARK.json`` gates ``cycle_s.best``: the sum
over the workload's items of each item's fastest time in the run.  On a shared
2-vCPU host each vCPU switches every few seconds, independently of the other,
between a fast state and a slow one in which small dense linear algebra (the
per-mode ``numpy.linalg`` calls that fill scenario-suite's build and symmetry
checks) takes about 1.8x as long.
Whole scenario-suite cycles then read 0.21 s or 0.39 s, so a median or a 10th
percentile of the cycle times depends on how long the run happened to spend in
each state (in one set of ten runs the quartile spread of the 10th percentile
reached 0.64 of its median); the sum of per-item minima keeps the fast state
whenever each item met it once.  The median ``cycle_s.p50`` and
``checks_per_s`` are printed too.

With ``--trace 1`` the first half of the time runs with the layer tracer
installed (``tracer.py``) and the second half without it; the difference of
the two median cycle times is the tracing overhead.  Spans are written to
``benchmark/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

SETUP_PROBES = 7
MIN_CYCLES = 2  # a second cycle gives every run a summary to compare
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
PROBE_REPS = 4  # CpuPicker probe: about 1.3 ms per CPU on the 2-vCPU host
# One BLAS thread.  With OpenBLAS's default of one thread per core, cycles on
# small grids switch between two speeds (0.18 s and 0.36 s per scenario-suite
# cycle on a 2-vCPU VM), too unsteady to compare two commits.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def use_program_source():
    """Import ``conslaw`` from the checkout's ``src/``, never from elsewhere."""
    if not (SRC / "conslaw" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC / 'conslaw'}")
    sys.path.insert(0, str(SRC))


def setup(name, seed):
    """Everything a run needs before its first cycle."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    import conslaw
    from workloads import make_workload

    if Path(conslaw.__file__).resolve().parent != SRC / "conslaw":
        raise SystemExit(f"benchmark: conslaw imported from {conslaw.__file__}, not {SRC}")
    return make_workload(name, seed)


class CpuPicker:
    """Moves this process to the usable CPU that is fastest right now.

    ``pick`` times a fixed batch of 4x4 ``expm`` and ``eig`` calls on each
    usable CPU and pins the process (and children it starts later) to the
    fastest.  Only this process's affinity changes.  The median time of the
    chosen CPU's probe goes into the environment record, so that a slower
    host, not a slower program, can be told apart when two runs disagree.
    """

    def __init__(self):
        import numpy

        self.cpus = sorted(os.sched_getaffinity(0))
        self.mats = numpy.random.default_rng(0).standard_normal((16, 4, 4))
        self.picks = {cpu: 0 for cpu in self.cpus}
        self.best_probe_s = []

    def _probe_s(self):
        import numpy
        from scipy.linalg import expm

        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            for m in self.mats:
                expm(m)
            numpy.linalg.eig(self.mats)
        return time.perf_counter() - t0

    def pick(self):
        timed = {}
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            self._probe_s()  # first call after a move warms the caches
            timed[cpu] = self._probe_s()
        best = min(timed, key=timed.get)
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {best})
        self.picks[best] += 1
        self.best_probe_s.append(timed[best])

    def record(self):
        return {
            "cpus": self.cpus,
            "picks": self.picks,
            "best_probe_s_p50": statistics.median(self.best_probe_s),
        }


def measure_setup(args, picker):
    """Median seconds from spawning a fresh process to its inputs being ready.

    The probe prints the wall-clock time at which it was ready, so the parent
    can wait for it with a timeout instead of blocking on its output.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        picker.pick()
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        word, _, stamp = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise SystemExit(f"benchmark: set-up probe failed:\n{proc.stderr}")
        samples.append(float(stamp) - t0)
    return statistics.median(samples), samples


class Tally:
    """Checks attempted and failed, with the failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.headroom = math.inf
        self.headroom_check = None
        self.digests = {}

    def fail(self, count, reason):
        self.attempted += count
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)

    def record(self, item, report):
        from workloads import summary_digest

        try:
            checks = item.verdicts(report)
            digest = summary_digest(report)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            self.fail(item.nchecks, f"{item.name}: unreadable report ({exc!r})")
            return
        if len(checks) != item.nchecks:
            self.fail(item.nchecks, f"{item.name}: {len(checks)} verdicts, expected {item.nchecks}")
            return
        if self.digests.setdefault(item.name, digest) != digest:
            self.fail(item.nchecks, f"{item.name}: JSON summary differs from the first cycle's")
            return
        for check in checks:
            if not check.ok:
                self.fail(1, f"{check.label}: verdict does not hold")
                continue
            self.attempted += 1
            if check.headroom_dec is not None and check.headroom_dec < self.headroom:
                self.headroom = check.headroom_dec
                self.headroom_check = check.label


def run_cycles(workload, budget_s, min_cycles, tally, picker, tracer=None):
    """Per cycle, the seconds each item spent in the program's calls."""
    cycles = []
    start = time.perf_counter()
    while len(cycles) < min_cycles or time.perf_counter() - start < budget_s:
        picker.pick()
        spent = []
        for item in workload.items:
            run = tracer.span("item", item.run) if tracer else item.run
            t0 = time.perf_counter()
            try:
                report = run()
            except Exception as exc:  # a raising check is a failed check
                spent.append(time.perf_counter() - t0)
                traceback.print_exc(file=sys.stderr)
                tally.fail(item.nchecks, f"{item.name}: raised {exc!r}")
                continue
            spent.append(time.perf_counter() - t0)
            tally.record(item, report)
        cycles.append(spent)
        if tracer:
            tracer.end_cycle()
    return cycles


def best_cycle(cycles):
    """Sum over items of each item's fastest time."""
    return sum(min(times) for times in zip(*cycles))


def tail(times):
    """Highest percentile leaving ``TAIL_BEYOND`` samples above it, if any."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return {
        "value": sorted(times)[n - TAIL_BEYOND - 1],
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "samples": n,
    }


def end_to_end(setup_s, cycles, workload, tally):
    times = [sum(c) for c in cycles]
    checks = workload.checks_per_cycle * len(times)
    return {
        "setup_s": (setup_s, "s"),
        "cycle_s.best": (best_cycle(cycles), "s"),
        "cycle_s.p50": (statistics.median(times), "s"),
        "checks_per_s": (checks / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "drift_headroom_dec": (tally.headroom, "dec"),
    }


# layers that only some workloads reach: reported as a share of the cycle
SHARE_LAYERS = (
    "symmetry.verify",
    "spectral.oracle",
    "fock.quantize",
    "dirac.discrete",
    "dirac.fock_suite",
    "scenario.run",
)
RSS_LAYERS = (
    "spectral.build",
    "spectral.propagator",
    "spectral.jet",
    "spectral.kappa",
    "current.contract",
    "spectral.oracle",
    "fock.quantize",
)


BYTES = "B-computed"  # sizes from array shapes, not measured traffic


def per_layer(tr, traced, untraced):
    """Per-layer metrics per traced cycle (RSS rises over the whole phase)."""
    n = len(traced)
    cycle = sum(traced)
    calls = lambda layer: (tr.calls[layer] / n, "count")
    self_s = lambda layer: (tr.self_s[layer] / n, "s")
    share = lambda layer: (100.0 * tr.self_s[layer] / cycle, "%")
    ratio = lambda num, den: (num / den if den else 0.0, "ratio")
    per_cycle = lambda value, unit: (value / n, unit)
    m = {
        "spectral.build.calls": calls("spectral.build"),
        "spectral.build.self_s": self_s("spectral.build"),
        "spectral.build.modes": per_cycle(tr.counts["spectral.build.modes"], "count"),
        "spectral.build.fast_frac": ratio(
            tr.counts["spectral.build.fast_modes"], tr.counts["spectral.build.modes"]
        ),
        "spectral.build.bytes": per_cycle(tr.counts["spectral.build.bytes"], BYTES),
        "fields.evolution_matrix.calls": per_cycle(
            tr.counts["fields.evolution_matrix.calls"], "count"
        ),
        "spectral.jet.calls": calls("spectral.jet"),
        "spectral.jet.unique_frac": ratio(
            tr.counts["spectral.jet.unique"], tr.calls["spectral.jet"]
        ),
        "spectral.jet.self_s": self_s("spectral.jet"),
        "spectral.jet.fft_bytes": per_cycle(tr.counts["spectral.jet.fft_bytes"], BYTES),
        "spectral.propagator.calls": calls("spectral.propagator"),
        "spectral.propagator.distinct_dt": per_cycle(
            tr.counts["spectral.propagator.distinct_dt"], "count"
        ),
        "spectral.propagator.self_s": self_s("spectral.propagator"),
        "spectral.propagator.cache_bytes": (tr.cache_bytes, BYTES),
        "spectral.kappa.self_s": self_s("spectral.kappa"),
        "current.contract.calls": calls("current.contract"),
        "current.contract.terms": per_cycle(tr.counts["current.contract.terms"], "count"),
        "current.contract.self_s": self_s("current.contract"),
        "current.flux.calls": calls("current.flux"),
        "current.flux.self_s": self_s("current.flux"),
        "adjoint.solve.calls": calls("adjoint.solve"),
        "adjoint.solve.self_s": self_s("adjoint.solve"),
        "adjoint.solve.per_operator": (
            statistics.fmean(tr.solve_ratios) if tr.solve_ratios else 0.0, "ratio"
        ),
        "adjoint.factorize.self_s": self_s("adjoint.factorize"),
        "catalog.build.self_s": self_s("catalog.build"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
        "trace.cycle_s.p50": (statistics.median(traced), "s"),
        "trace.spans": (len(tr.spans) / n, "count"),
    }
    for layer in SHARE_LAYERS:
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_pct"] = share(layer)
    for layer in RSS_LAYERS:
        m[f"{layer}.rss_delta_mb"] = (tr.rss_mb[layer], "MB")
    return m


def layer_table(tr, traced):
    """Every traced layer: calls, self time and share per cycle, RSS rise."""
    n, cycle = len(traced), sum(traced)
    rows = {}
    for layer in sorted(set(tr.calls) | set(tr.rss_mb)):
        rows[layer] = {
            "calls": tr.calls[layer] / n,
            "self_s": tr.self_s[layer] / n,
            "self_pct": 100.0 * tr.self_s[layer] / cycle,
            "rss_delta_mb": tr.rss_mb[layer],
        }
    return rows


def l3_cache_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        return int(size.rstrip("KMG")) * scale
    return None


def environment(workload, picker):
    import numpy
    import scipy

    from workloads import working_set

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(picker.cpus),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l3_cache_bytes": l3_cache_bytes(),
        "cpu_picker": picker.record(),
        "working_set_bytes_computed": working_set(workload.name),
    }


def declared_metrics(key):
    spec = json.loads(SPEC.read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def emit(metrics, key):
    """Print every metric, then the final line with the declared ones."""
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    out = {}
    for name, unit in declared_metrics(key):
        value, got = metrics[name]
        if got != unit:
            raise SystemExit(f"benchmark: {name} is in {got}, BENCHMARK.json says {unit}")
        out[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads; set-up probes inherit it
    use_program_source()
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(f"ready {time.time()!r}", flush=True)
        return 0

    workload = setup(args.workload, args.seed)
    picker = CpuPicker()
    setup_s, setup_samples = measure_setup(args, picker)
    tally = Tally()
    tr = None
    if args.trace:
        from tracer import Tracer

        tr = Tracer(uuid.uuid4().hex)
        tr.install()
        try:
            traced = run_cycles(workload, args.seconds / 2, 1, tally, picker, tr)
        finally:
            tr.uninstall()
        traced = [sum(c) for c in traced]
        cycles = run_cycles(workload, args.seconds / 2, 1, tally, picker)
    else:
        cycles = run_cycles(workload, args.seconds, MIN_CYCLES, tally, picker)
    times = [sum(c) for c in cycles]

    print(f"workload {workload.name} seed {workload.seed}: "
          f"{workload.checks_per_cycle} checks per cycle, {len(times)} timed cycles")
    print("inputs " + json.dumps(workload.inputs, sort_keys=True))
    print(f"setup samples (s) {setup_samples!r}")
    print(f"cycle times (s) {times!r}")
    best = dict(zip((item.name for item in workload.items), map(min, zip(*cycles))))
    print("item best times (s) " + json.dumps(best))
    e2e = end_to_end(setup_s, cycles, workload, tally)
    e2e["failed_frac"] = (tally.failed / tally.attempted if tally.attempted else 1.0, "ratio")
    t = tail(times)
    if t is None:
        print(f"metric cycle_s.tail omitted: {len(times)} cycles, need more than {TAIL_BEYOND}")
    else:
        print(f"metric cycle_s.tail = {t['value']!r} s "
              f"(p{t['percentile']:.1f} of {t['samples']} cycles)")
    print(f"drift headroom set by {tally.headroom_check}")
    for reason in tally.failures:
        print(f"FAILED {reason}")
    print("environment " + json.dumps(environment(workload, picker), sort_keys=True))

    if tr is None:
        metrics = emit(e2e, "end_to_end")
    else:
        for name, (value, unit) in e2e.items():
            print(f"trace run {name} = {value!r} {unit}")
        print("layers " + json.dumps(layer_table(tr, traced), sort_keys=True))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{workload.seed}.jsonl"
        tr.write(path, {"workload": workload.name, "seed": workload.seed,
                        "traced_cycles": traced, "untraced_cycles": times})
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = emit(per_layer(tr, traced, times), "per_layer")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
