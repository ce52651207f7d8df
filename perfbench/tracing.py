"""Outside-in tracer for the ``repro`` packages.

The tracer wraps public entry points of each ``src/repro`` package from the
outside: it replaces class attributes and module functions with timing
wrappers before a cluster is built (so bound methods captured as callbacks
are wrapped too) and restores the originals afterwards.  Nothing inside the
program changes.

Two boundary sets exist:

* the *phase clock* (always installed) wraps only the coarse phases -- the
  kernel run loop, workload planning and the verification checks -- so an
  untraced run can split its wall time into set-up, simulation and
  verification at a cost of a few calls per trial;
* the *layer trace* (``--trace 1``) adds the per-layer entry points listed in
  ``LAYER_BOUNDARIES``, keeps every span in memory with a parent link and
  attributes self time (a span minus its children) to the span's layer.

Self time is grouped by the root span a call ran under: layer costs count
only work done inside the simulation phase, and everything a verification
check calls is charged to that check.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class, methods) wrapped by the layer trace.
LAYER_BOUNDARIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("simulation", "repro.simulation.kernel", "SimulationKernel", ("run_until_idle",)),
    ("network", "repro.network.transport", "NetworkTransport", ("unicast", "multicast")),
    ("network", "repro.network.dispatcher", "SiteDispatcher", ("dispatch",)),
    ("broadcast", "repro.broadcast.optimistic", "OptimisticAtomicBroadcast", ("broadcast",)),
    ("broadcast", "repro.broadcast.sequencer", "SequencerAtomicBroadcast", ("broadcast",)),
    ("broadcast", "repro.broadcast.batching", "BatchingEndpoint", ("broadcast", "flush")),
    ("broadcast", "repro.broadcast.reliable", "ReliableBroadcast", ("broadcast", "on_envelope")),
    ("core", "repro.core.scheduler", "OTPScheduler",
     ("on_opt_deliver", "on_execution_complete", "on_to_deliver")),
    ("core", "repro.core.execution", "ExecutionEngine", ("submit",)),
    ("core", "repro.core.execution", "QueryEngine", ("submit",)),
    ("core", "repro.core.replica", "ReplicaManager",
     ("submit_transaction", "submit_query", "catch_up_from")),
    ("core", "repro.core.admission", "AdmissionController", ("decide",)),
    ("core", "repro.core.cluster", "ReplicatedDatabase", ("offer_update", "offer_query")),
    ("database", "repro.database.storage", "MultiVersionStore",
     ("install", "read_latest", "read_version")),
    ("database", "repro.database.snapshots", "SnapshotManager", ("advance", "snapshot")),
    ("database", "repro.database.conflict", "ConflictClassMap", ("class_of_key",)),
    ("database", "repro.database.conflict", "ClassQueue",
     ("append", "remove", "first", "find", "position_of", "reschedule_before_pending",
      "committable_prefix_length", "committable_before_pending", "__contains__")),
    ("database", "repro.database.recovery", "RedoLog", ("append_commit",)),
    ("database", "repro.database.history", "SiteHistory", ("record_commit",)),
    ("database", "repro.database.procedures", "TransactionContext", ("read", "write")),
    ("metrics", "repro.metrics.collector", "MetricsCollector",
     ("increment", "record_latency", "set_gauge")),
    ("sharding", "repro.sharding.router", "TransactionRouter", ("route_update", "route_query")),
    ("sharding", "repro.sharding.cluster", "ShardedCluster", ("offer_update",)),
    ("failure", "repro.failure.detector", "FailureDetector", ("on_envelope",)),
)

#: (layer, module, class, methods) wrapped by the phase clock.
PHASE_BOUNDARIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("simulation", "repro.simulation.kernel", "SimulationKernel", ("run",)),
    ("workloads", "repro.workloads.generator", "WorkloadGenerator", ("apply",)),
    ("workloads", "repro.workloads.sharded", "ShardedWorkloadGenerator", ("apply",)),
    ("workloads", "repro.workloads.arrivals", "OpenLoopTrafficEngine", ("apply",)),
    ("verification.invariants", "repro.core.scheduler", "OTPScheduler", ("check_invariants",)),
)

#: Checker of each ``repro.verification`` function the workloads call (the
#: rest of a check's call tree is charged to it).
CHECKERS: Dict[str, str] = {
    "check_one_copy_serializability": "verification.one_copy",
    "check_sharded_one_copy_serializability": "verification.one_copy",
    "check_broadcast_properties": "verification.oab",
    "check_cross_shard_query_consistency": "verification.snapshot",
    "check_eventual_termination": "verification.liveness",
    "check_sharded_eventual_termination": "verification.liveness",
    "check_recovery_completeness": "verification.recovery",
}

#: Offer boundaries whose ``None`` results (refused offers) are counted.
REFUSING_OFFERS = ("ReplicatedDatabase.offer_update", "ReplicatedDatabase.offer_query")


def _repro_modules() -> List[Any]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs boundary wrappers and accumulates spans, calls and self time."""

    def __init__(self, layers: bool) -> None:
        self.layers = layers
        #: Per boundary id: label ("module.Class.method"), owner (layer or checker).
        self.labels: List[str] = []
        self.owners: List[str] = []
        self.calls: List[int] = []
        #: Label of an offer boundary -> offers it refused.
        self.refusals: Dict[str, int] = {}
        #: (root owner, owner) -> self seconds; root owner -> root-span seconds
        #: and the clock reading when its last root span ended.
        self.self_time: Dict[Tuple[str, str], float] = {}
        self.root_time: Dict[str, float] = {}
        self.root_end: Dict[str, float] = {}
        self.span_boundary = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ lifecycle
    def install(self) -> "Tracer":
        """Wrap every boundary of this tracer's sets (before building a cluster)."""
        boundaries = PHASE_BOUNDARIES + (LAYER_BOUNDARIES if self.layers else ())
        for owner, module_name, class_name, methods in boundaries:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                if method not in vars(cls):
                    raise RuntimeError(f"boundary {class_name}.{method} no longer exists")
                original = vars(cls)[method]
                label = f"{module_name}.{class_name}.{method}"
                wrapper = self._span_wrapper(original, self._boundary(label, owner))
                if f"{class_name}.{method}" in REFUSING_OFFERS:
                    wrapper = self._refusal_wrapper(wrapper, label)
                self._patch(cls, method, wrapper)
        verification = importlib.import_module("repro.verification")
        for name, checker in CHECKERS.items():
            function = getattr(verification, name)
            bid = self._boundary(f"{function.__module__}.{name}", checker)
            self._patch_everywhere(function, self._span_wrapper(function, bid))
        if self.layers:
            # Counted without a span: the 1SR graph calls the pairwise
            # conflict test O(n^2) times.
            from repro.database.history import transactions_conflict

            bid = self._boundary("repro.database.history.transactions_conflict", "count")
            self._patch_everywhere(transactions_conflict, self._count_wrapper(transactions_conflict, bid))
        return self

    def remove(self) -> None:
        """Restore every original attribute (after the trial)."""
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _boundary(self, label: str, owner: str) -> int:
        self.labels.append(label)
        self.owners.append(owner)
        self.calls.append(0)
        return len(self.labels) - 1

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, function: Any, replacement: Any) -> None:
        # Modules bind imported functions by name, so every alias is patched.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is function:
                    self._patch(module, name, replacement)

    # -------------------------------------------------------------- wrappers
    def _span_wrapper(self, function: Callable[..., Any], bid: int) -> Callable[..., Any]:
        owner = self.owners[bid]
        is_checker = owner.startswith("verification.")
        stack = self._stack
        calls = self.calls
        self_time = self.self_time
        root_time = self.root_time
        root_end = self.root_end
        record = self.layers
        boundary, parents, starts, ends = (
            self.span_boundary, self.span_parent, self.span_start, self.span_end
        )
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack:
                parent = stack[-1]
                charged = owner if is_checker or not parent[1].startswith("verification.") else parent[1]
                root = parent[2]
                parent_index = parent[3]
            else:
                charged = root = owner
                parent_index = -1
            index = len(starts)
            frame = [0.0, charged, root, index]
            stack.append(frame)
            start = clock()
            if record:
                boundary.append(bid)
                parents.append(parent_index)
                starts.append(start)
                ends.append(0.0)
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                key = (root, charged)
                self_time[key] = self_time.get(key, 0.0) + duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    root_time[root] = root_time.get(root, 0.0) + duration
                    root_end[root] = end
                calls[bid] += 1
                if record:
                    ends[index] = end
            return result

        return wrapper

    def _refusal_wrapper(self, function: Callable[..., Any], label: str) -> Callable[..., Any]:
        refusals = self.refusals
        refusals[label] = 0

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = function(*args, **kwargs)
            if result is None:
                refusals[label] += 1
            return result

        return wrapper

    def _count_wrapper(self, function: Callable[..., Any], bid: int) -> Callable[..., Any]:
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[bid] += 1
            return function(*args, **kwargs)

        return wrapper

    # ----------------------------------------------------------- benchmark
    def call(self, owner: str, function: Callable[..., Any], *args: Any) -> Any:
        """Run one of the benchmark's own functions as a span of ``owner``."""
        bid = self.labels.index(owner) if owner in self.labels else self._boundary(owner, owner)
        return self._span_wrapper(function, bid)(*args)

    # --------------------------------------------------------------- results
    def count(self, label: str) -> int:
        """Calls of the boundary named ``label`` (0 when not installed)."""
        return sum(calls for name, calls in zip(self.labels, self.calls) if name == label)

    def refused(self, label: str) -> int:
        """Offers refused (``None`` results) at the offer boundary ``label``."""
        return self.refusals.get(label, 0)

    def root_seconds(self, prefix: str) -> float:
        """Wall seconds of root spans whose owner starts with ``prefix``."""
        return sum(seconds for owner, seconds in self.root_time.items() if owner.startswith(prefix))

    def self_seconds(self, owner: str, root: Optional[str] = None) -> float:
        """Self seconds charged to ``owner`` (under root ``root`` when given)."""
        return sum(
            seconds for (span_root, charged), seconds in self.self_time.items()
            if charged == owner and (root is None or span_root == root)
        )

    def drop_spans(self) -> None:
        """Free the recorded spans; the summaries above are kept."""
        for spans in (self.span_boundary, self.span_parent, self.span_start, self.span_end):
            del spans[:]

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as TSV (one per line, parent linked)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tboundary\towner\tstart_s\tend_s\n")
            origin = self.span_start[0] if len(self.span_start) else 0.0
            for index in range(len(self.span_start)):
                bid = self.span_boundary[index]
                handle.write(
                    f"{index}\t{self.span_parent[index]}\t{self.labels[bid]}\t{self.owners[bid]}\t"
                    f"{self.span_start[index] - origin:.9f}\t{self.span_end[index] - origin:.9f}\n"
                )
        return len(self.span_start)
