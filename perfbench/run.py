"""Benchmark of the replicated-database simulator, measured from the outside.

Usage::

    python3 perfbench/run.py --workload flat_mixed --seed 1 --seconds 30 --trace 0

One run measures one workload in this single-threaded process.  A run
repeats *trials* -- build the cluster and schedule the plan, run the kernel
to idle, run the workload's full verification stack -- until ``--seconds``
have passed: one pass over the workload's ``input_sets`` input sets derived
from ``--seed``, then reruns of the first one.  A rerun whose per-site
commit-order digest differs fails the run.

``--trace 0`` prints the end-to-end metrics.  The host is shared and its
neighbours only ever add time, so ``commits_per_s`` and ``verify_s`` add up
the fastest copy of every simulation slice (``ChunkClock``) and of every
verification check over the reruns, and ``setup_s`` is the fastest of many
set-up-only samples of the first input set.  The host also has slow phases
that outlast a whole run, so these three are scaled to a fixed host speed
(``reference_loop``).  Virtual-clock numbers pool the pass over the input
sets.  ``--trace 1`` alternates untraced and traced trials of the first
input set and prints the per-layer metrics (see ``tracing.py``); the spans
of the last traced trial are written under ``.perfbench/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed verification verdict,
determinism check or trace cross-check exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

try:
    from scenarios import WORKLOADS, Outcome
    from tracing import Tracer
except ImportError as error:  # the program's sources are not beside the benchmark
    print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
    sys.exit(2)

#: Set-up-only samples taken after each trial (set-up is short and noisy).
SETUP_SAMPLES = 4
#: Kernel events per simulation-phase time slice (about 10 ms of work).
CHUNK_EVENTS = 256
#: Timings of ``reference_loop`` taken before each trial.
REFERENCE_SAMPLES = 3
#: Fastest time of ``reference_loop`` on a quiet 2-vCPU VM (Python 3.11);
#: host timings are reported as if the run had the reference's speed.
REFERENCE_S = 0.02

HOST, VIRTUAL, COUNT = "host", "virtual", "count"

#: name -> (unit, clock, better); the end-to-end metrics of ``--trace 0``.
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "setup_s": ("s", HOST, "lower"),
    "commits_per_s": ("1/s", HOST, "higher"),
    "verify_s": ("s", HOST, "lower"),
    "peak_rss_mb": ("MB", HOST, "lower"),
    "commit_p50_ms": ("ms", VIRTUAL, "lower"),
    "commit_p99_ms": ("ms", VIRTUAL, "lower"),
    "goodput_tps": ("1/s", VIRTUAL, "higher"),
    "completed_frac": ("ratio", VIRTUAL, "higher"),
}

#: name -> (unit, clock, better); the per-layer metrics of ``--trace 1``.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "simulation.events_per_commit": ("count", COUNT, "lower"),
    "simulation.self_us_per_event": ("us", HOST, "lower"),
    "network.envelopes_per_commit": ("count", COUNT, "lower"),
    "network.self_us_per_commit": ("us", HOST, "lower"),
    "broadcast.self_us_per_commit": ("us", HOST, "lower"),
    "broadcast.ops_per_batch": ("count", COUNT, "higher"),
    "broadcast.ordering_delay_p50_ms": ("ms", VIRTUAL, "lower"),
    "broadcast.opt_to_divergence": ("ratio", VIRTUAL, "lower"),
    "core.self_us_per_commit": ("us", HOST, "lower"),
    "core.executions_per_commit": ("count", COUNT, "lower"),
    "core.class_queue_depth_max": ("count", VIRTUAL, "lower"),
    "core.shed_frac": ("ratio", VIRTUAL, "lower"),
    "core.state_transfer_commits": ("count", COUNT, "lower"),
    "core.query_p99_ms": ("ms", VIRTUAL, "lower"),
    "database.self_us_per_commit": ("us", HOST, "lower"),
    "database.class_lookups_per_commit": ("count", COUNT, "lower"),
    "database.versions_retained": ("count", COUNT, "lower"),
    "metrics.calls_per_commit": ("count", COUNT, "lower"),
    "metrics.self_us_per_commit": ("us", HOST, "lower"),
    "sharding.subqueries_per_query": ("count", COUNT, "lower"),
    "sharding.self_us_per_commit": ("us", HOST, "lower"),
    "failure.heartbeats_per_commit": ("count", COUNT, "lower"),
    "failure.self_us_per_commit": ("us", HOST, "lower"),
    "failure.failover_gap_ms": ("ms", VIRTUAL, "lower"),
    "verification.conflict_checks_per_commit": ("count", COUNT, "lower"),
    "verification.one_copy_s": ("s", HOST, "lower"),
    "verification.oab_s": ("s", HOST, "lower"),
    "verification.snapshot_s": ("s", HOST, "lower"),
    "verification.liveness_s": ("s", HOST, "lower"),
    "verification.recovery_s": ("s", HOST, "lower"),
    "verification.invariants_s": ("s", HOST, "lower"),
    "workloads.plan_s": ("s", HOST, "lower"),
    "trace.overhead_s": ("s", HOST, "lower"),
}

#: Layers whose self time is charged per commit (simulation phase only).
LAYERS = ("network", "broadcast", "core", "database", "metrics", "sharding", "failure")
CHECKERS = ("one_copy", "oab", "snapshot", "liveness", "recovery", "invariants")

SPAN_DIR = ".perfbench"


class BenchmarkFailure(Exception):
    """A verification verdict, determinism check or cross-check failed."""


class ChunkClock:
    """Kernel trace hook that reads the clock every ``CHUNK_EVENTS`` events.

    A trial's event sequence is a pure function of its input set, so slice
    ``k`` of two reruns is the same work; the fastest copy of every slice
    adds up to the simulation phase with the neighbours' bursts left out.
    """

    def __init__(self) -> None:
        self.events = 0
        self.marks: List[float] = []

    def __call__(self, event: Any) -> None:
        if not self.events % CHUNK_EVENTS:
            self.marks.append(time.perf_counter())
        self.events += 1

    def slices(self, end: float) -> List[float]:
        """Durations of the slices, the last one ending at ``end``."""
        marks = self.marks + [end]
        return [later - earlier for earlier, later in zip(marks, marks[1:])]


@dataclass
class Trial:
    """Host timings and outcome of one trial."""

    seed: int
    simulate_s: float
    #: Simulation-phase slice durations (untraced trials only).
    slices: List[float]
    #: Wall seconds of each verification check.
    checks: Dict[str, float]
    plan_s: float
    outcome: Outcome
    tracer: Tracer


class _Event:
    __slots__ = ("key", "payload")

    def __init__(self, key: int) -> None:
        self.key = key
        self.payload = {"key": key, "values": [key]}


def reference_loop() -> int:
    """A fixed event loop that does not touch the program under test.

    Heap operations, small objects and dict updates, like the simulator's
    own inner loop.  Whole runs on the shared host were up to 1.8 times
    slower than others, in set-up, simulation and verification alike; the
    fastest time of this loop in a run mostly moved with them.
    """
    heap: List[Tuple[int, int, _Event]] = []
    totals: Dict[int, int] = {}
    log: List[Tuple[int, int]] = []
    for index in range(3000):
        heapq.heappush(heap, (index * 7919 % 3001, index, _Event(index % 211)))
    steps = 0
    while heap and steps < 12000:
        due, index, event = heapq.heappop(heap)
        totals[event.key] = totals.get(event.key, 0) + len(event.payload["values"])
        log.append((due, event.key))
        if steps % 4 != 3:
            follow_up = _Event((event.key * 31 + steps) % 211)
            heapq.heappush(heap, (due + index % 17 + 1, steps + 10**6, follow_up))
        steps += 1
    return len(log)


def sample_reference() -> float:
    """Wall seconds of one ``reference_loop``."""
    gc.collect()
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def sub_seeds(workload: Any, seed: int) -> List[int]:
    """The input sets of one run: a pure function of ``--seed``."""
    return [seed * 1000 + index for index in range(workload.input_sets)]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def run_trial(workload: Any, seed: int, *, layers: bool) -> Trial:
    """Set up, simulate and verify one input set; raise if a verdict fails."""
    gc.collect()
    tracer = Tracer(layers).install()
    clock = ChunkClock()
    try:
        state = workload.setup(seed)
        if not layers:
            state["cluster"].kernel.add_trace_hook(clock)
        workload.simulate(state)
        violations = workload.verify(state, tracer)
    finally:
        tracer.remove()
    if violations:
        raise BenchmarkFailure(
            f"{workload.name} seed {seed}: verification failed: " + "; ".join(violations[:5])
        )
    outcome = workload.outcome(state)
    if outcome.deferred:
        raise BenchmarkFailure("an offer was deferred, so latency would not start at its due time")
    if layers:
        cross_check(tracer, state, outcome)
    return Trial(
        seed=seed,
        simulate_s=tracer.root_seconds("simulation"),
        slices=clock.slices(tracer.root_end["simulation"]) if clock.marks else [],
        checks={owner: seconds for owner, seconds in tracer.root_time.items()
                if owner.startswith("verification.")},
        plan_s=tracer.root_seconds("workloads"),
        outcome=outcome,
        tracer=tracer,
    )


def cross_check(tracer: Tracer, state: Dict[str, Any], outcome: Outcome) -> None:
    """Counts taken at the wrapped boundaries must equal the program's counters."""
    stats = state["cluster"].transport.stats
    pairs = {
        "commits (SiteHistory.record_commit vs committed_counts)": (
            tracer.count("repro.database.history.SiteHistory.record_commit"), outcome.site_commits),
        "unicasts (NetworkTransport.unicast vs transport.stats)": (
            tracer.count("repro.network.transport.NetworkTransport.unicast"), stats.unicasts_sent),
        "multicasts (NetworkTransport.multicast vs transport.stats)": (
            tracer.count("repro.network.transport.NetworkTransport.multicast"), stats.multicasts_sent),
        "sheds (refused offers vs derive_metrics sheds_by_cause)": (
            tracer.refused("repro.core.cluster.ReplicatedDatabase.offer_update")
            + tracer.refused("repro.core.cluster.ReplicatedDatabase.offer_query"),
            outcome.refused),
    }
    for what, (traced, counted) in pairs.items():
        if traced != counted:
            raise BenchmarkFailure(f"trace cross-check failed for {what}: {traced} != {counted}")


def sample_setup(workload: Any, seed: int) -> float:
    """Wall seconds to build one cluster and schedule its plan, then drop it."""
    gc.collect()
    sample = getattr(workload, "setup_sample", workload.setup)
    started = time.perf_counter()
    sample(seed)
    return time.perf_counter() - started


def check_rerun(digests: Dict[int, str], trial: Trial) -> None:
    """A same-seed rerun must reproduce the per-site commit-order digest."""
    expected = digests.setdefault(trial.seed, trial.outcome.digest)
    if trial.outcome.digest != expected:
        raise BenchmarkFailure(f"seed {trial.seed}: a rerun changed the commit-order digest")


def timed_run(workload: Any, seed: int, seconds: float):
    """Untraced trials for ``seconds``; returns metrics, counts and notes."""
    seeds = sub_seeds(workload, seed)
    digests: Dict[int, str] = {}
    trials: List[Trial] = []
    setups: List[float] = []
    references: List[float] = []
    started = time.perf_counter()
    while len(trials) <= len(seeds) or time.perf_counter() - started < seconds:
        references += [sample_reference() for _ in range(REFERENCE_SAMPLES)]
        # One pass over the input sets, then reruns of the first one.
        trial = run_trial(workload, seeds[min(len(trials), len(seeds)) % len(seeds)], layers=False)
        check_rerun(digests, trial)
        trials.append(trial)
        setups += [sample_setup(workload, seeds[0]) for _ in range(SETUP_SAMPLES)]
    pooled = [trial.outcome for trial in trials[: len(seeds)]]
    latencies = [value for outcome in pooled for value in outcome.latencies]
    queries = [value for outcome in pooled for value in outcome.query_latencies]
    offered = sum(outcome.offered for outcome in pooled)
    failed = sum(outcome.failed for outcome in pooled)
    refused = sum(outcome.refused for outcome in pooled)
    reruns = [trial for trial in trials if trial.seed == seeds[0]]
    fastest_slices = [min(copies) for copies in zip(*(trial.slices for trial in reruns))]
    host_s = {
        "setup_s": min(setups),
        "simulate_s": sum(fastest_slices),
        "verify_s": sum(min(trial.checks[check] for trial in reruns) for check in reruns[0].checks),
    }
    speed = REFERENCE_S / min(references)
    metrics = {
        "setup_s": host_s["setup_s"] * speed,
        "commits_per_s": reruns[0].outcome.commits / (host_s["simulate_s"] * speed),
        "verify_s": host_s["verify_s"] * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commit_p50_ms": 1e3 * percentile(latencies, 0.50),
        "commit_p99_ms": 1e3 * percentile(latencies, 0.99),
        "goodput_tps": sum(o.commits_in_window for o in pooled) / sum(o.window for o in pooled),
        "completed_frac": 1.0 - failed / offered,
    }
    gaps = [outcome.layer["failure.failover_gap_ms"] for outcome in pooled]
    notes = [
        f"trials {len(trials)} over input sets {seeds}; commits_per_s and verify_s take the "
        f"fastest copy of each slice and check over {len(reruns)} runs of input set "
        f"{seeds[0]}; setup_s is the fastest of {len(setups)} set-up samples of it",
        f"host speed: reference loop fastest {min(references):.6f} s of {len(references)} samples "
        f"(reference {REFERENCE_S} s); setup_s, commits_per_s and verify_s are scaled by "
        f"{speed:.4f} from the measured " + ", ".join(f"{k} {v:.6f}" for k, v in host_s.items()),
        f"commit latency samples {len(latencies)} "
        f"({len(latencies) - math.ceil(0.99 * len(latencies))} beyond p99)",
        f"query_p99_ms {1e3 * percentile(queries, 0.99):.4f} ms (virtual, {len(queries)} queries)",
        f"failed_frac {failed / offered:.6f} = {failed} of {offered} offered "
        f"({refused} shed or refused by admission)",
        f"failover_gap_ms {statistics.median(gaps):.4f} ms (virtual, median over input sets)",
        "open loop: offers fire at their due time in virtual time, so the generator is never late",
    ]
    return metrics, offered - refused, failed - refused, notes


def traced_run(workload: Any, seed: int, seconds: float):
    """Alternate untraced and traced trials of the first input set."""
    first = sub_seeds(workload, seed)[0]
    digests: Dict[int, str] = {}
    untraced: List[Trial] = []
    traced: List[Trial] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        for trials, layers in ((untraced, False), (traced, True)):
            trial = run_trial(workload, first, layers=layers)
            check_rerun(digests, trial)
            trials.append(trial)
        if len(traced) > 1:
            # Only the latest trial's spans are written out.
            traced[-2].tracer.drop_spans()
        counts = [trial.tracer.calls for trial in traced]
        if any(count != counts[0] for count in counts):
            raise BenchmarkFailure("boundary call counts changed between traced reruns")
    trial = traced[0]
    outcome, tracer = trial.outcome, trial.tracer
    commits = outcome.commits

    def median_self(owner: str, root: Optional[str] = "simulation") -> float:
        return statistics.median(t.tracer.self_seconds(owner, root) for t in traced)

    def calls(*labels: str) -> int:
        return sum(tracer.count(label) for label in labels)

    batched_ops = calls("repro.broadcast.batching.BatchingEndpoint.broadcast")
    inner_broadcasts = calls(
        "repro.broadcast.optimistic.OptimisticAtomicBroadcast.broadcast",
        "repro.broadcast.sequencer.SequencerAtomicBroadcast.broadcast",
    )
    metrics: Dict[str, float] = {
        "simulation.events_per_commit": outcome.events / commits,
        "simulation.self_us_per_event": 1e6 * median_self("simulation") / outcome.events,
        "network.envelopes_per_commit": calls(
            "repro.network.transport.NetworkTransport.unicast",
            "repro.network.transport.NetworkTransport.multicast") / commits,
        "broadcast.ops_per_batch": batched_ops / inner_broadcasts if batched_ops else 1.0,
        # State-transferred commits never executed locally; above 1 is
        # optimistic work thrown away.
        "core.executions_per_commit": calls("repro.core.execution.ExecutionEngine.submit")
        / (outcome.site_commits - outcome.layer["core.state_transfer_commits"]),
        "core.shed_frac": outcome.refused / outcome.offered,
        "core.query_p99_ms": 1e3 * percentile(outcome.query_latencies, 0.99),
        "database.class_lookups_per_commit": calls(
            "repro.database.conflict.ConflictClassMap.class_of_key") / commits,
        "metrics.calls_per_commit": sum(
            count for label, count in zip(tracer.labels, tracer.calls)
            if label.startswith("repro.metrics.")) / commits,
        "failure.heartbeats_per_commit": calls(
            "repro.failure.detector.FailureDetector.on_envelope") / commits,
        "verification.conflict_checks_per_commit": calls(
            "repro.database.history.transactions_conflict") / commits,
        "workloads.plan_s": statistics.median(t.plan_s for t in traced),
        "trace.overhead_s": statistics.median(t.simulate_s for t in traced)
        - statistics.median(t.simulate_s for t in untraced),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_commit"] = 1e6 * median_self(layer) / commits
    for checker in CHECKERS:
        metrics[f"verification.{checker}_s"] = median_self(f"verification.{checker}", None)
    for name in PER_LAYER:
        if name not in metrics:
            metrics[name] = outcome.layer[name]

    span_dir = Path(SPAN_DIR)
    span_dir.mkdir(exist_ok=True)
    span_path = span_dir / f"spans-{workload.name}-seed{seed}.tsv"
    written = traced[-1].tracer.write_spans(str(span_path))
    untraced_s = statistics.median(t.simulate_s for t in untraced)
    notes = [
        f"traced trials {len(traced)}, untraced trials {len(untraced)} of input set {first}",
        f"tracing overhead: simulation phase {untraced_s:.4f} s untraced, "
        f"{untraced_s + metrics['trace.overhead_s']:.4f} s traced",
        f"{written} spans written to {span_path}",
        "cross-checks passed: commits, unicasts, multicasts and sheds match the program's counters",
    ]
    return metrics, outcome.offered - outcome.refused, outcome.failed - outcome.refused, notes


def report(workload: Any, metrics: Dict[str, float], table, notes: List[str]) -> None:
    """Print the human-readable report (every line before the JSON result)."""
    print(f"perfbench {workload.name}: {workload.why}")
    for name, (unit, clock, better) in table.items():
        print(f"  {name:<42} {metrics[name]:>16.6f} {unit:<6} ({clock} clock, {better} is better)")
    for note in notes:
        print(f"  - {note}")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size multiplier (the benchmark's own tests use a tiny scale)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.scale)
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced_run(workload, args.seed, args.seconds)
            table = PER_LAYER
        else:
            metrics, attempted, failed, notes = timed_run(workload, args.seed, args.seconds)
            table = END_TO_END
    except BenchmarkFailure as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    report(workload, metrics, table, notes)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": table[name][0]} for name in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
