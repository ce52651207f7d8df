"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload builds its cluster from a seed (``setup``), runs the kernel to
idle (``simulate``), runs its full verification stack (``verify``) and then
reads its outcome off the program's own state (``outcome``).  The inputs are
a pure function of the seed; the program only ever sees the generated
operations.

Every workload is open loop: its arrival schedule is laid out before the run
and never waits for a completion.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import (
    BatchingConfig,
    ClusterConfig,
    ReplicatedDatabase,
    ShardedCluster,
    ShardingConfig,
    verification,
)
from repro.chaos.plan import FaultPlan, coordinator
from repro.chaos.scenarios import build_chaos_cluster, execute_fuzz_run
from repro.core.admission import AdmissionConfig
from repro.database.procedures import TransactionContext
from repro.failure.suspicion import FailureDetectionConfig
from repro.observability.registry import derive_metrics
from repro.workloads.arrivals import OpenLoopSpec, OpenLoopTrafficEngine, PoissonArrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.procedures import (
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from repro.workloads.sharded import ShardedWorkloadGenerator, ShardedWorkloadSpec, build_shard_map
from repro.workloads.specs import WorkloadSpec


@dataclass
class Outcome:
    """What one trial produced, read from the program after verification."""

    #: Distinct committed update transactions.
    commits: int
    #: Commit records summed over every site (state transfers included).
    site_commits: int
    #: Client commit latencies at the origin site, in virtual seconds.
    latencies: List[float]
    query_latencies: List[float]
    #: Operations offered (updates + queries) and the failed_frac numerator.
    offered: int
    failed: int
    #: Offers shed by admission control or refused at dark sites, and offers
    #: deferred (then latency would not start at the due time).
    refused: int
    deferred: int
    #: Commits that landed inside the offered window, and the window length.
    commits_in_window: int
    window: float
    events: int
    #: Hash of every site's commit order and final contents.
    digest: str
    #: Deterministic per-layer quantities (counts and virtual times).
    layer: Dict[str, float] = field(default_factory=dict)


def _digest(groups: List[Any]) -> str:
    """Hash the per-site commit order and final contents of replica groups."""
    digest = hashlib.sha256()
    for group in groups:
        for site_id, replica in sorted(group.replicas.items()):
            digest.update(site_id.encode())
            for commit in replica.history.committed_transactions():
                digest.update(
                    repr((commit.global_index, commit.conflict_class, commit.write_keys)).encode()
                )
            digest.update(repr(sorted(replica.database_contents().items())).encode())
    return digest.hexdigest()


def _client_outcome(groups: List[Any], window_end: float):
    """Origin-site latencies, unfinished updates and in-window commits."""
    latencies: List[float] = []
    unfinished = 0
    in_window = 0
    for group in groups:
        for replica in group.replicas.values():
            for submitted in replica.submitted.values():
                if submitted.committed_at is None:
                    unfinished += 1
                    continue
                latencies.append(submitted.committed_at - submitted.submitted_at)
                if submitted.committed_at <= window_end:
                    in_window += 1
    return latencies, unfinished, in_window


def _layer_counts(derived: Any, groups: List[Any]) -> Dict[str, float]:
    """Deterministic per-layer quantities common to every workload."""
    replicas = [replica for group in groups for replica in group.replicas.values()]
    versions = sum(
        replica.store.version_count(key) for replica in replicas for key in replica.store.keys()
    )
    return {
        "broadcast.ordering_delay_p50_ms": 1e3 * derived.phase_breakdown["ordering_delay"].p50,
        "broadcast.opt_to_divergence": derived.opt_to_divergence_rate,
        "core.class_queue_depth_max": float(derived.max_class_queue_depth),
        "core.state_transfer_commits": float(
            sum(replica.metrics.count("state_transfer_commits") for replica in replicas)
        ),
        "database.versions_retained": float(versions),
    }


def _first_commit_after(group: Any, since: float) -> Optional[float]:
    """Earliest commit in ``group`` of an update submitted after ``since``."""
    times = [
        submitted.committed_at
        for replica in group.replicas.values()
        for submitted in replica.submitted.values()
        if submitted.submitted_at > since and submitted.committed_at is not None
    ]
    return min(times) if times else None


class FlatMixed:
    """Flat 4-site cluster, 32 classes, updates plus 3-class snapshot queries."""

    name = "flat_mixed"
    why = (
        "per-message network/broadcast path at full cost, 32-class key lookup and "
        "one whole-history flat 1SR graph; bypasses sharding, admission and failure"
    )

    #: Input sets pooled per run (see ``run.py``).
    input_sets = 4

    def __init__(self, scale: float) -> None:
        updates = max(8, round(150 * scale))
        self.spec = WorkloadSpec(
            class_count=32,
            updates_per_site=updates,
            update_interval=0.001,
            queries_per_site=max(2, updates // 4),
            query_interval=0.004,
            query_span=3,
            operations_per_update=2,
            update_duration=0.001,
            query_duration=0.001,
        )

    def setup(self, seed: int) -> Dict[str, Any]:
        spec = self.spec
        cluster = ReplicatedDatabase(
            ClusterConfig(site_count=4, seed=seed),
            build_partitioned_registry(spec),
            conflict_map=build_conflict_map(spec),
            initial_data=build_initial_data(spec),
        )
        plan = WorkloadGenerator(spec).apply(cluster)
        return {"cluster": cluster, "plan": plan}

    def simulate(self, state: Dict[str, Any]) -> None:
        state["cluster"].run_until_idle()

    def verify(self, state: Dict[str, Any], tracer: Any) -> List[str]:
        cluster = state["cluster"]
        cluster.check_scheduler_invariants()
        endpoints = {site: cluster.broadcast_endpoint(site) for site in cluster.site_ids()}
        reports = [
            tracer.call("verification.one_copy", _check_flat_one_copy, cluster),
            verification.check_broadcast_properties(endpoints),
            verification.check_eventual_termination(cluster),
        ]
        violations = [v for report in reports for v in report.violations]
        violations += tracer.call(
            "verification.snapshot", check_flat_query_snapshots, cluster, state["plan"]
        )
        return violations

    def outcome(self, state: Dict[str, Any]) -> Outcome:
        cluster, plan = state["cluster"], state["plan"]
        window = self.spec.updates_per_site * self.spec.update_interval
        latencies, unfinished, in_window = _client_outcome([cluster], window)
        queries = [query for replica in cluster.replicas.values() for query in replica.queries]
        query_latencies = [query.latency for query in queries if query.latency is not None]
        derived = derive_metrics(cluster)
        layer = _layer_counts(derived, [cluster])
        layer["sharding.subqueries_per_query"] = 0.0
        layer["failure.failover_gap_ms"] = 0.0
        refused = sum(derived.sheds_by_cause.values())
        return Outcome(
            commits=max(cluster.committed_counts().values()),
            site_commits=sum(cluster.committed_counts().values()),
            latencies=latencies,
            query_latencies=query_latencies,
            offered=plan.update_count + plan.query_count,
            failed=refused + unfinished + len(queries) - len(query_latencies),
            refused=refused,
            deferred=derived.deferred,
            commits_in_window=in_window,
            window=window,
            events=cluster.kernel.events_executed,
            digest=_digest([cluster]),
            layer=layer,
        )


def _check_flat_one_copy(cluster: ReplicatedDatabase) -> Any:
    """1SR of the flat histories, including Lemma 4.1 against the definitive order."""
    coordinator_endpoint = cluster.broadcast_endpoint(cluster.coordinator_site())
    order = []
    for message_id in coordinator_endpoint.to_delivery_log:
        record = coordinator_endpoint.message(message_id)
        if record is not None and hasattr(record.payload, "transaction_id"):
            order.append(record.payload.transaction_id)
    return verification.check_one_copy_serializability(
        cluster.histories(), definitive_order=order
    )


def check_flat_query_snapshots(cluster: ReplicatedDatabase, plan: Any) -> List[str]:
    """Replay every flat snapshot query against its site's final store.

    A query is consistent when re-reading its snapshot index gives the result
    it returned: the snapshot was a stable committed prefix of the
    definitive order.  This is the flat counterpart of
    ``check_cross_shard_query_consistency``; a site's queries pair up with
    the plan's query operations for that site in submission order.
    """
    violations: List[str] = []
    for site_id, replica in sorted(cluster.replicas.items()):
        planned = [op for op in plan.operations if op.is_query and op.site_id == site_id]
        if len(planned) != len(replica.queries):
            violations.append(
                f"{site_id} ran {len(replica.queries)} queries, the plan offered {len(planned)}"
            )
            continue
        for operation, query in zip(planned, replica.queries):
            procedure = cluster.registry.get(query.procedure_name)
            context = TransactionContext(
                replica.store, snapshot_index=query.query_index, read_only=True
            )
            replayed = procedure.body(context, operation.parameters)
            if query.completed_at is None or replayed != query.result:
                violations.append(
                    f"query {query.query_id} at {site_id}: result {query.result!r} but "
                    f"its snapshot at index {query.query_index} replays to {replayed!r}"
                )
    return violations


class ShardedBatched:
    """4 shards x 3 sites on one shared medium, with broadcast batching."""

    name = "sharded_batched"
    why = (
        "router fan-out, batching on a shared 220 us-frame medium and per-shard "
        "verification, fewer events per commit; bypasses admission and failure"
    )

    input_sets = 8

    def __init__(self, scale: float) -> None:
        updates = max(8, round(300 * scale))
        self.spec = ShardedWorkloadSpec(
            shard_count=4,
            classes_per_shard=4,
            updates_per_shard=updates,
            update_interval=0.0015,
            queries=updates,
            query_interval=0.0015,
            query_span=3,
            update_duration=0.0003,
            query_duration=0.0003,
        )

    def setup(self, seed: int) -> Dict[str, Any]:
        spec = self.spec
        base = spec.base_spec()
        config = ShardingConfig(
            shard_count=4,
            sites_per_shard=3,
            seed=seed,
            batching=BatchingConfig(window=0.002, max_batch_size=16),
            medium_frame_time=0.00022,
        )
        cluster = ShardedCluster(
            config,
            build_partitioned_registry(base),
            conflict_map=build_conflict_map(base),
            shard_map=build_shard_map(spec, config.shard_ids()),
            initial_data=build_initial_data(base),
        )
        plan = ShardedWorkloadGenerator(spec).apply(cluster)
        return {"cluster": cluster, "plan": plan}

    def simulate(self, state: Dict[str, Any]) -> None:
        state["cluster"].run_until_idle()

    def verify(self, state: Dict[str, Any], tracer: Any) -> List[str]:
        cluster = state["cluster"]
        cluster.check_scheduler_invariants()
        reports = [
            verification.check_sharded_one_copy_serializability(cluster),
            verification.check_cross_shard_query_consistency(cluster),
            verification.check_sharded_eventual_termination(cluster),
        ]
        return [v for report in reports for v in report.violations]

    def outcome(self, state: Dict[str, Any]) -> Outcome:
        cluster, plan = state["cluster"], state["plan"]
        window = self.spec.updates_per_shard * self.spec.update_interval
        return _sharded_outcome(cluster, plan.update_count, window, None)


def _sharded_outcome(
    cluster: ShardedCluster, offered_updates: int, window: float, crash_at: Optional[float]
) -> Outcome:
    groups = list(cluster.shards.values())
    latencies, unfinished, in_window = _client_outcome(groups, window)
    queries = cluster.router.sharded_queries
    query_latencies = [query.latency for query in queries if query.latency is not None]
    derived = derive_metrics(cluster)
    layer = _layer_counts(derived, groups)
    layer["sharding.subqueries_per_query"] = (
        sum(len(query.subqueries) for query in queries) / len(queries) if queries else 0.0
    )
    gap = 0.0
    if crash_at is not None:
        resumed = _first_commit_after(cluster.shard("S1"), crash_at)
        gap = 1e3 * (resumed - crash_at) if resumed is not None else 0.0
    layer["failure.failover_gap_ms"] = gap
    refused = sum(derived.sheds_by_cause.values())
    return Outcome(
        commits=cluster.total_committed(),
        site_commits=sum(
            count for counts in cluster.committed_counts_by_shard().values() for count in counts.values()
        ),
        latencies=latencies,
        query_latencies=query_latencies,
        offered=offered_updates + len(queries),
        failed=refused + unfinished + len(queries) - len(query_latencies),
        refused=refused,
        deferred=derived.deferred + cluster.router.deferred_submissions,
        commits_in_window=in_window,
        window=window,
        events=cluster.kernel.events_executed,
        digest=_digest(groups),
        layer=layer,
    )


class OpenLoopFailover:
    """Open-loop overload with admission control and a coordinator crash."""

    name = "openloop_failover"
    why = (
        "arrivals keep coming at 1.3x the knee while shard S1 has no coordinator: "
        "admission, deep class queues, failover, catch-up, liveness and recovery checks"
    )

    #: 2 shards x 2 classes at 2 ms serial execution saturate near 2,000 tps.
    RATE = 2600.0
    #: Each trial takes about 3.5 s, so only three input sets are pooled and
    #: the run keeps time for reruns of the first one (the host metrics' copies).
    input_sets = 3

    def __init__(self, scale: float) -> None:
        # About 1% of commits are stranded at the crashed coordinator until it
        # recovers.  At a 0.6 s horizon that share straddles 1%, so p99 jumps
        # between ~70 and ~190 ms from seed to seed; at 0.8 s it stays below.
        self.horizon = 0.8 * scale

    def setup(self, seed: int) -> Dict[str, Any]:
        cluster, shard_spec = build_chaos_cluster(
            seed,
            update_duration=0.002,
            failure_detection=FailureDetectionConfig(),
            admission=AdmissionConfig(high_watermark=48, low_watermark=24),
        )
        spec = OpenLoopSpec(
            arrivals=PoissonArrivals(rate=self.RATE),
            horizon=self.horizon,
            class_count=shard_spec.class_count,
            objects_per_class=shard_spec.objects_per_class,
            query_fraction=0.05,
            query_span=shard_spec.query_span,
            operations_per_update=shard_spec.operations_per_update,
            update_duration=shard_spec.update_duration,
            query_duration=shard_spec.query_duration,
            initial_value=shard_spec.initial_value,
        )
        plan = FaultPlan("openloop-failover").crash(
            coordinator("S1"), at=0.35 * self.horizon, duration=0.30 * self.horizon
        )
        return {"cluster": cluster, "spec": spec, "faults": plan, "seed": seed}

    def setup_sample(self, seed: int) -> None:
        """Build and schedule like a trial: the fuzz executor plans internally."""
        state = self.setup(seed)
        OpenLoopTrafficEngine(state["spec"]).apply(state["cluster"])

    def simulate(self, state: Dict[str, Any]) -> None:
        # The fuzz executor runs the kernel and then the whole verification
        # stack; the phase clock splits the two.
        state["result"] = execute_fuzz_run(
            state["cluster"],
            state["spec"],
            state["faults"],
            scenario=self.name,
            seed=state["seed"],
            settle_time=self.horizon + 0.2,
        )

    def verify(self, state: Dict[str, Any], tracer: Any) -> List[str]:
        result = state["result"]
        violations = list(result.violations)
        if not result.ok and not violations:
            violations.append("the fuzz executor reported a failed verdict")
        return violations

    def outcome(self, state: Dict[str, Any]) -> Outcome:
        cluster, result = state["cluster"], state["result"]
        crashes = [fault.time for fault in result.trace if fault.action == "crash"]
        outcome = _sharded_outcome(
            cluster, result.offered_updates, self.horizon, crashes[0] if crashes else None
        )
        if outcome.refused != result.shed_updates:
            raise RuntimeError("shed counts of the fuzz executor and the registry disagree")
        return outcome


WORKLOADS = {workload.name: workload for workload in (FlatMixed, ShardedBatched, OpenLoopFailover)}
