"""latslice benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload scan-main --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Untraced (``--trace 0``) runs set up ``SETUP_REPS`` times (fresh import of
``latslice`` from ``src/``, input generation, one warm-up op) and
then run ops back to back for ``--seconds`` of timed wall time.  Inputs are
generated in batches with the clock stopped.  Every op's output is checked
against the exact references in ``references/``.  The last stdout line is a
JSON object with the end-to-end metrics.

The time metrics are wall times scaled to the machine's undisturbed speed.
On a shared host the CPU's speed drifts by up to 2x over seconds to minutes,
which no length of run averages away, so a fixed calibration kernel runs,
off the clock, between timed steps (see ``ScaledClock``), and each step's
wall time is multiplied by ``REFERENCE_PROBE_S`` over the kernel's time
around it.  The raw wall times are printed beside the scaled ones.

Traced (``--trace 1``) runs run every op twice, untraced and with
``tracer.Tracer`` installed, and print per-layer metrics per op plus the
tracing overhead.  Spans go to ``out/``.

The run seed only orders the ops (see ``entry_stream``); the held-out seed
``HELD_OUT_SEED`` draws from blocks no other seed reaches.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import types
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # the benchmark writes nothing under src/

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
SPANS_DIR = HERE / "out"

SETUP_REPS = 5
# calibrate()'s undisturbed time (5th percentile of 3000 calls) on the 2-vCPU
# Xeon container, Python 3.11, that the references were recorded on.
REFERENCE_PROBE_S = 0.00137
HELD_OUT_SEED = 424242
BATCH_BLOCKS = 8

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, chain_failures  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("slicing.max_slice.calls", "calls/op"),
    ("slicing.max_slice.self_ms", "ms/op"),
    ("slicing.candidates_searched", "count/op"),
    ("slicing.exhaustive_ratio", "ratio"),
    ("lattices.subspace_from_basis.calls", "calls/op"),
    ("lattices.subspace_from_basis.self_ms", "ms/op"),
    ("slicing.slice_profile.calls", "calls/op"),
    ("slicing.slice_profile.self_ms", "ms/op"),
    ("lattices.enumerate_points.calls", "calls/op"),
    ("lattices.enumerate_points.self_ms", "ms/op"),
    ("lattices.points_enumerated", "count/op"),
    ("lattices.count_points.calls", "calls/op"),
    ("lattices.count_points.self_ms", "ms/op"),
    ("lattices.project_count.calls", "calls/op"),
    ("lattices.project_count.self_ms", "ms/op"),
    ("hull.hull_facets.calls", "calls/op"),
    ("hull.hull_facets.self_ms", "ms/op"),
    ("hull.facets_found", "count/op"),
    ("hull.hull_volume.calls", "calls/op"),
    ("hull.hull_volume.self_ms", "ms/op"),
    ("bodies.volume.self_ms", "ms/op"),
    ("bodies.polar_volume.self_ms", "ms/op"),
    ("bodies.construct.calls", "calls/op"),
    ("bodies.construct.self_ms", "ms/op"),
    ("bodies.polar.self_ms", "ms/op"),
    ("lp.min_combination.calls", "calls/op"),
    ("lp.min_combination.self_ms", "ms/op"),
    ("minima.successive_minima.calls", "calls/op"),
    ("minima.successive_minima.self_ms", "ms/op"),
    ("minima.minkowski_second_check.self_ms", "ms/op"),
    ("verify.verify_main.self_ms", "ms/op"),
    ("verify.verify_unconditional.self_ms", "ms/op"),
    ("verify.verify_dim2.self_ms", "ms/op"),
    ("verify.pick_quantities.self_ms", "ms/op"),
    ("trace.op_ms", "ms/op"),
    ("trace.overhead_frac", "ratio"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, no references)."""


def use_checkout_sources():
    """Put the checkout's ``src/`` first on the import path, or refuse to run."""
    if not (SRC / "latslice" / "__init__.py").is_file():
        raise BenchmarkError(f"no latslice sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_library():
    """Import ``latslice`` afresh from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "latslice" or n.startswith("latslice.")]:
        del sys.modules[name]
    pkg = importlib.import_module("latslice")
    if Path(pkg.__file__).resolve().parent != (SRC / "latslice").resolve():
        raise BenchmarkError(f"imported latslice from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(pkg=pkg, verify=sys.modules["latslice.verify"])


def load_references(workload):
    path = REFERENCES / f"{workload.name}.json"
    try:
        with open(path) as fh:
            entries = json.load(fh)["entries"]
    except OSError as exc:
        raise BenchmarkError(f"cannot read references: {exc}") from exc
    if len(entries) != workload.size:
        raise BenchmarkError(f"{path} holds {len(entries)} entries, expected {workload.size}")
    return entries


def entry_stream(workload, seed):
    """Pool entry indices for a run, in whole blocks.

    Blocks run in rounds of ``BATCH_BLOCKS`` consecutive pool blocks, rounds
    in pool order, and the seed shuffles the blocks within each round.  So
    runs with different seeds time the same ops, up to the last partial
    round, in different orders, and the seed adds no sampling spread to the
    figures.  Block 0 is left out: it holds the warm-up op, the same for every
    seed.  A run that outlasts its pool starts again from its first round.
    """
    if seed == HELD_OUT_SEED:
        blocks = list(range(workload.blocks, workload.blocks + workload.held_out_blocks))
    else:
        blocks = list(range(1, workload.blocks))
    rng = random.Random(seed)
    n = len(workload.mix)
    while True:
        for i in range(0, len(blocks), BATCH_BLOCKS):
            round_ = blocks[i : i + BATCH_BLOCKS]
            rng.shuffle(round_)
            for b in round_:
                yield from range(b * n, (b + 1) * n)


@dataclass
class OpResult:
    item: tuple  # (entry index, kind, payload)
    latency: float
    output: object
    problem: str | None  # None when the output matched its reference
    speed: float = 1.0  # machine speed next to the op, as a share of the reference


class Session:
    """One set-up of a workload: the imported library, shared state and inputs."""

    def __init__(self, workload, seed, refs):
        self.workload = workload
        self.refs = refs
        self.lib = load_library()
        self.ctx = workload.prepare(self.lib)
        self._entries = entry_stream(workload, seed)
        self.pending = []  # generated at setup, run first by measure()

    def item(self, k):
        w = self.workload
        return k, w.kind(k), w.make_input(self.lib, self.ctx, k)

    def next_items(self, blocks=BATCH_BLOCKS):
        return [self.item(next(self._entries)) for _ in range(blocks * len(self.workload.mix))]

    def run_one(self, item, tracer=None) -> OpResult:
        k, kind, payload = item
        w = self.workload
        t0 = perf_counter()
        try:
            if tracer is None:
                result = w.run(self.lib, self.ctx, kind, payload)
            else:
                result = tracer.op(k, w.run, self.lib, self.ctx, kind, payload)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            return OpResult(item, perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}")
        latency = perf_counter() - t0
        output = w.output(self.lib, result)
        problem = None
        failed = chain_failures(result)
        if failed:
            problem = "chain entries failed: " + ", ".join(failed)
        elif output != self.refs[k]:
            problem = f"output {output!r} differs from reference {self.refs[k]!r}"
        return OpResult(item, latency, output, problem)

    def measure(self, seconds):
        """Closed loop for ``seconds`` of op wall time; returns results and the clock.

        Input generation and the calibration kernel run off the clock.
        """
        results = []
        clock = ScaledClock()
        while clock.wall < seconds:
            batch, self.pending = self.pending or self.next_items(), []
            for item in batch:
                result = clock.time(self.run_one, item)
                result.speed = clock.last_speed
                results.append(result)
                if clock.wall >= seconds:
                    break
        return results, clock


class ScaledClock:
    """Wall time of the calls it times, and that time scaled to the reference speed.

    The calibration kernel runs before and after each timed call, off the
    clock; the call's speed is the reference kernel time over the mean of
    the two.
    """

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self.last_speed = 1.0
        self._probe = calibrate()

    def time(self, fn, *args):
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        after = calibrate()
        self.last_speed = 2 * REFERENCE_PROBE_S / (self._probe + after)
        self._probe = after
        self.wall += elapsed
        self.scaled += elapsed * self.last_speed
        return result


def set_up(workload, seed, refs):
    """``SETUP_REPS`` full set-ups; returns the last session, a clock per set-up, warm-ups.

    A set-up imports the library, builds shared state, runs the warm-up op
    (pool entry 0, outside the timed phase) and generates the first batch of
    inputs.
    """
    clocks = []
    warmups = []
    for _ in range(SETUP_REPS):
        clock = ScaledClock()
        session = clock.time(Session, workload, seed, refs)
        warmups.append(clock.time(lambda: session.run_one(session.item(0))))
        session.pending = clock.time(session.next_items)
        clocks.append(clock)
    return session, clocks, warmups


def calibrate():
    """Time of a fixed Fraction, tuple and dict kernel: the machine's current speed.

    It exercises what latslice's ops do (exact rational arithmetic and small
    allocations), so it slows down with them when the host is busy, yet no
    change to the program can change it.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 600):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        table[(i, i % 5)] = (acc.numerator % 97, i)
    return perf_counter() - t0


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def spin_ms():
    """Time of a fixed pure-Python loop: a noise stamp for the run, not a metric."""
    t0 = perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i & 7
    return (perf_counter() - t0) * 1e3


def stamp(workload, seed, seconds, trace):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    print(f"# perfbench {workload.name} seed={seed} seconds={seconds} trace={trace} "
          f"nproc={affinity} cpu_count={os.cpu_count()} python={platform.python_version()} "
          f"spin_ms={spin_ms():.2f}", flush=True)


def report_problems(results):
    bad = [r for r in results if r.problem is not None]
    for r in bad[:5]:
        print(f"perfbench: entry {r.item[0]} ({r.item[1]}): {r.problem}", file=sys.stderr)
    return len(bad)


def run_untraced(workload, seed, seconds):
    refs = load_references(workload)
    session, setup_clocks, warmups = set_up(workload, seed, refs)
    results, clock = session.measure(seconds)
    checked = warmups + results
    failed = report_problems(checked)
    ok = sum(1 for r in results if r.problem is None)
    lat = sorted(r.latency * r.speed for r in results)
    raw = sorted(r.latency for r in results)
    p90 = percentile(lat, 0.9)
    metrics = {
        "setup_s": statistics.median(c.scaled for c in setup_clocks),
        "ops_per_s": ok / clock.scaled,
        "op_p50_ms": percentile(lat, 0.5) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(END_TO_END)
    notes = {
        "setup_s": f"(wall {statistics.median(c.wall for c in setup_clocks):.6g} s; "
                   f"median of {SETUP_REPS})",
        "ops_per_s": f"(wall {ok / clock.wall:.6g} ops/s; {ok} ok of {len(results)} timed "
                     f"ops in {clock.wall:.3f} s)",
        "op_p50_ms": f"(wall {percentile(raw, 0.5) * 1e3:.6g} ms; n={len(lat)})",
        "op_p90_ms": f"(wall {percentile(raw, 0.9) * 1e3:.6g} ms; n={len(lat)}, "
                     f"{sum(1 for x in lat if x > p90)} beyond)",
    }
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]} {notes.get(name, '')}".rstrip())
    print(f"{workload.name} failed_frac {failed / len(checked):.6g} ratio "
          f"({failed} of {len(checked)} checked ops, {SETUP_REPS} of them warm-ups)")
    speeds = [r.speed for r in results]
    print(f"# machine speed next to the timed ops, as a share of the reference: "
          f"median {statistics.median(speeds):.3f}, min {min(speeds):.3f}, max {max(speeds):.3f}")
    return {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def layer_metrics(tracer, n, untraced_s, traced_s):
    """Per-op layer figures; ``untraced_s``/``traced_s`` are speed-scaled op times."""
    self_s = tracer.self_times()
    counters = tracer.counters
    out = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            value = self_s.get(name[: -len(".self_ms")], 0.0) * 1e3 / n
        elif name == "slicing.exhaustive_ratio":
            calls = counters.get("slicing.max_slice.calls", 0)
            value = counters.get("slicing.exhaustive", 0) / calls if calls else 0.0
        elif name == "trace.op_ms":
            value = sum(self_s.values()) * 1e3 / n  # raw traced op time, the base for shares
        elif name == "trace.overhead_frac":
            value = (traced_s - untraced_s) / untraced_s
        else:
            value = counters.get(name, 0) / n
        out[name] = value
    return out


def run_traced(workload, seed, seconds):
    """Each op runs twice, untraced and traced, in alternating order.

    Pairing the two runs of an op, and scaling both by the calibration
    kernel, keeps machine-speed drift out of ``trace.overhead_frac``; it also
    lets every traced output be compared with the untraced one.
    """
    refs = load_references(workload)
    session, _, warmups = set_up(workload, seed, refs)
    tracer = Tracer()
    untraced, traced = [], []
    clock = ScaledClock()
    while clock.wall < seconds:
        batch, session.pending = session.pending or session.next_items(), []
        for item in batch:
            order = [None, tracer] if len(traced) % 2 == 0 else [tracer, None]
            for t in order:
                if t is not None:
                    tracer.install()
                try:
                    result = clock.time(session.run_one, item, t)
                finally:
                    if t is not None:
                        tracer.uninstall()
                result.speed = clock.last_speed
                (untraced if t is None else traced).append(result)
            if clock.wall >= seconds:
                break
    for a, b in zip(untraced, traced):
        if b.problem is None and a.output != b.output:
            b.problem = f"traced output {b.output!r} differs from untraced {a.output!r}"
    checked = warmups + untraced + traced
    failed = report_problems(checked)
    n = len(traced)
    values = layer_metrics(tracer, n, sum(r.latency * r.speed for r in untraced),
                           sum(r.latency * r.speed for r in traced))
    for name, unit in PER_LAYER:
        print(f"{workload.name} {name} {values[name]:.6g} {unit}")
    spans_path = SPANS_DIR / f"{workload.name}-seed{seed}.spans.csv.gz"
    tracer.write(str(spans_path))
    print(f"# {len(tracer.spans)} spans over {n} traced ops written to "
          f"{spans_path.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }


def run_all(args):
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        use_checkout_sources()
        if args.workload == "all":
            result = run_all(args)
        else:
            workload = WORKLOADS[args.workload]
            stamp(workload, args.seed, args.seconds, args.trace)
            run = run_traced if args.trace else run_untraced
            result = run(workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
