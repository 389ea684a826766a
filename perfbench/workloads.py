"""The benchmark's workloads: tenant data for the server, traffic for the client.

Tenant data is fixed per workload (fixed family seeds, as in
``benchmarks/bench_server_latency.py``), so a run's figures do not swing
with graph shape.  The run seed draws only the traffic: which query each
request carries, its endpoints, the update tuples, the arrival times and
the cold-plan regexes.  The server launcher imports :func:`tenant_configs`
and :func:`server_options` and never sees the run seed; only the client
calls :func:`make_traffic`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.regex import to_string
from repro.regex.random_gen import random_regex
from repro.rpq.theory import Theory
from repro.rpq.views import RPQViews
from repro.rpq.workload import (
    TrafficOp,
    UpdateOp,
    make_graph,
    make_queries,
    make_traffic_mix,
)
from repro.service import plan_key
from repro.service.loadgen import TenantWorkload, make_tenant_config
from repro.service.server import TenantConfig

WORKLOADS = ("small_durable", "large_read", "cold_plans")

# name -> ((tenant, family, data seed, base edges), ...)
TENANTS = {
    "small_durable": (
        ("t0-grid", "grid", 20260808, 240),
        ("t1-chain", "chain", 20260809, 240),
    ),
    "large_read": (
        ("chain", "chain", 20260802, 5000),
        ("scale_free", "scale_free", 20260800, 5000),
    ),
    "cold_plans": (("gate", "chain", 20260809, 240),),
}

# The rewriting-gate view set of benchmarks/bench_thm31_rewriting_scaling.py.
GATE_VIEWS = {
    "e1": "a",
    "e2": "b",
    "e3": "a.b",
    "e4": "a.(a+b)*.b",
    "e5": "b.(a+b)*.a",
}

# small_durable: open loop, Poisson arrivals per tenant (req/s).  The
# host has run this 2-core VM at a quarter of its usual speed for minutes
# at a time; this rate stays under half of the capacity left then, so the
# run never turns into a growing backlog.
OPEN_LOOP_RATE = 160.0
# Rolls about nine checkpoints per tenant in a 15 s run; the server default
# (1 MiB) rolls none.
CHECKPOINT_BYTES = 8 << 10

# Closed-loop request counts per second of --seconds, sized from the
# rates this commit reached on a 2-core VM in the host's slow phases, so
# a run's load takes about --seconds or less.  Counts are fixed (not a
# time budget) so that two runs of one seed do identical work and /stats
# counters can be compared exactly.
CLOSED_LOOP_RATE = {"large_read": 330.0, "cold_plans": 200.0}

QUERY_VOCABULARY = {"small_durable": 6, "large_read": 12}
WRITE_FRACTION = {"small_durable": 0.3, "large_read": 0.1, "cold_plans": 0.2}
BATCH_SIZE = 2
LATENCY_LIMIT_S = 0.050


@dataclass(frozen=True)
class Lane:
    """The requests one client connection sends, in order.

    ``dues`` holds each request's due time in seconds after load start
    (open loop), or is ``None`` (closed loop: send on the previous reply).
    """

    tenant: str
    ops: tuple[TrafficOp, ...]
    dues: tuple[float, ...] | None = None


def _gate_config(family: str, seed: int, edges: int, plan_dir) -> TenantConfig:
    views = RPQViews(GATE_VIEWS)
    theory = Theory.trivial({"a", "b"})
    db = make_graph(family, seed, edges=edges)
    extensions = {
        symbol: sorted(pairs)
        for symbol, pairs in views.materialize(db, theory).items()
    }
    return TenantConfig(
        views=views, theory=theory, extensions=extensions, plan_dir=plan_dir
    )


def tenant_configs(workload: str, plan_dir=None) -> dict[str, TenantConfig]:
    """The tenants of ``workload``, built as ``repro serve`` builds them."""
    configs = {}
    for name, family, seed, edges in TENANTS[workload]:
        if workload == "cold_plans":
            configs[name] = _gate_config(family, seed, edges, plan_dir)
        else:
            configs[name] = make_tenant_config(family, seed, edges=edges)
    return configs


def server_options(workload: str, data_dir=None) -> dict:
    """Keyword arguments for ``RPQServer`` beyond the tenants."""
    if workload == "small_durable":
        return {
            "data_dir": data_dir,
            "fsync": "batch",
            "checkpoint_every_bytes": CHECKPOINT_BYTES,
        }
    return {}


def _poisson(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Arrival times of a Poisson process over ``[0, seconds)``, given
    that it has exactly ``rate * seconds`` arrivals: sorted uniform
    times.  A fixed count keeps the run's work the same for every seed."""
    return sorted(rng.uniform(0, seconds) for _ in range(round(rate * seconds)))


def _cold_plan_ops(
    config: TenantConfig, rng: random.Random, count: int
) -> list[TrafficOp]:
    """Distinct random regexes (by plan key, so each misses the plan
    cache), each as a single-source or pair query; a fifth of the
    requests re-assert an existing view tuple, an idempotent write that
    leaves the store version unchanged."""
    tuples = sorted(
        (symbol, source, target)
        for symbol, pairs in config.extensions.items()
        for source, target in pairs
    )
    nodes = sorted({node for _symbol, source, target in tuples for node in (source, target)})
    seen: set[str] = set()
    ops: list[TrafficOp] = []
    while len(ops) < count:
        if rng.random() < WRITE_FRACTION["cold_plans"]:
            symbol, source, target = tuples[rng.randrange(len(tuples))]
            ops.append(
                TrafficOp(
                    kind="update",
                    updates=(UpdateOp("insert", symbol, source, target),),
                )
            )
            continue
        query = to_string(random_regex(rng, ("a", "b")))
        key = plan_key(query, config.views, config.theory)
        if key in seen:
            continue
        seen.add(key)
        source = nodes[rng.randrange(len(nodes))]
        if rng.random() < 0.5:
            ops.append(TrafficOp(kind="query", mode="single_source", query=query, source=source))
        else:
            target = nodes[rng.randrange(len(nodes))]
            ops.append(
                TrafficOp(kind="query", mode="pair", query=query, source=source, target=target)
            )
    return ops


def make_traffic(
    workload: str, seed: int, seconds: float, configs: dict[str, TenantConfig]
) -> tuple[list[Lane], list[TenantWorkload]]:
    """The client lanes for one run, plus each tenant's whole stream
    (in write order) for the oracle."""
    lanes: list[Lane] = []
    streams: list[TenantWorkload] = []
    for index, (name, family, data_seed, _edges) in enumerate(TENANTS[workload]):
        config = configs[name]
        traffic_seed = seed * 100 + index
        if workload == "cold_plans":
            rng = random.Random(f"{seed}:{name}:cold")
            count = round(CLOSED_LOOP_RATE[workload] * seconds)
            # Two connections to the one tenant.  The writes all ride lane
            # 0, so their admission order is their stream order.
            lane0: list[TrafficOp] = []
            lane1: list[TrafficOp] = []
            for op in _cold_plan_ops(config, rng, count):
                if op.kind == "update" or len(lane0) <= len(lane1):
                    lane0.append(op)
                else:
                    lane1.append(op)
            lanes += [Lane(name, tuple(lane0)), Lane(name, tuple(lane1))]
            streams.append(TenantWorkload(name, config, tuple(lane0 + lane1)))
            continue
        vocabulary = make_queries(
            family,
            data_seed,
            count=QUERY_VOCABULARY[workload],
            include_starred=False,
        )
        dues = None
        if workload == "small_durable":
            rng = random.Random(f"{seed}:{name}:arrivals")
            dues = tuple(_poisson(rng, OPEN_LOOP_RATE, seconds))
            count = len(dues)
        else:
            count = round(CLOSED_LOOP_RATE[workload] * seconds / len(configs))
        traffic = make_traffic_mix(
            family,
            traffic_seed,
            count=count,
            base=config.extensions,
            queries=vocabulary,
            write_fraction=WRITE_FRACTION[workload],
            batch_size=BATCH_SIZE,
            delete_fraction=0.5,
            reinsert_fraction=1.0,
        )
        lanes.append(Lane(name, traffic, dues))
        streams.append(TenantWorkload(name, config, traffic))
    return lanes, streams
