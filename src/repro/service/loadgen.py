"""Closed-loop load generation and differential checking for the server.

The serving front end's correctness claim is strong — every response
carries the store version it was pinned to, and a response at version
``v`` must hold *exactly* the answers of a single-threaded store that
absorbed the first writes up to ``v`` — so the load generator is built
to check it, not just to produce load:

* :func:`make_tenant_workload` turns a seeded workload family into a
  tenant: views materialized over a seeded graph become the store's
  initial extensions, and :func:`~repro.rpq.workload.make_traffic_mix`
  becomes the tenant's request stream (a query/update mix honouring the
  workload module's determinism contract).
* :func:`run_loadgen` drives the mix closed-loop over HTTP: one writer
  client per tenant sends the update batches in stream order (retrying
  429s, so the write sequence applies exactly once, in order), while
  several reader clients race the query ops against it.  Readers treat
  429 as a recorded outcome, not an error — that is admission control
  doing its job.
* :func:`replay_oracle` then replays each tenant's accepted writes on a
  fresh single-threaded store/session and re-answers every accepted
  read at its pinned version, comparing the JSON payloads byte for
  byte.  Any interleaving bug — a torn read, a version misreport, an
  incremental-maintenance divergence — shows up as a mismatch here.
* :func:`replay_crash_oracle` is the crash-aware variant behind the
  ``kill -9`` fault-injection tests: it tolerates an interrupted run
  (acked writes are a prefix; at most one unacked batch may have
  reached the WAL) and positions an oracle at the recovered version so
  every recovered answer can be byte-checked against it.

:func:`run_server_benchmark` bundles the three into the repeatable
harness behind ``benchmarks/bench_server_latency.py``: N tenants,
concurrent readers plus a writer per tenant, a throughput floor and a
p99 ceiling, and the oracle check over every served answer.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass
from typing import Iterable

from ..rpq.evaluation import sort_pairs
from ..rpq.theory import Theory
from ..rpq.views import RPQViews
from ..rpq.workload import TrafficOp, make_graph, make_traffic_mix, make_views
from .server import RPQServer, TenantConfig
from .session import QuerySession
from .store import MaterializedViewStore

__all__ = [
    "LoadGenReport",
    "TenantWorkload",
    "make_tenant_config",
    "make_tenant_workload",
    "replay_crash_oracle",
    "replay_oracle",
    "run_loadgen",
    "run_server_benchmark",
]


@dataclass(frozen=True)
class TenantWorkload:
    """One tenant's serving scenario: its config plus its request stream."""

    name: str
    config: TenantConfig
    traffic: tuple[TrafficOp, ...]


def make_tenant_config(
    family: str,
    seed: int,
    *,
    edges: int = 240,
    plan_dir=None,
    parallelism: int | None = None,
    workers: int = 1,
    incremental: bool = True,
    backend: str = "auto",
    max_queue: int = 64,
    log_limit: int = 100_000,
) -> TenantConfig:
    """A tenant seeded from a workload family.

    The family's seeded views are materialized over its seeded graph and
    become the tenant's initial extensions — sorted into canonical
    order, so the store's node-interning order (and hence the engine's
    documented answer order) is identical in every process that builds
    the same tenant.  The theory is trivial over the family alphabet,
    which make_views guarantees yields exact rewritings for every query
    over that alphabet.
    """
    views_map = dict(make_views(family, seed))
    views = RPQViews(views_map)
    alphabet: set[str] = set()
    for symbol in views.symbols:
        alphabet |= set(views.rpq(symbol).alphabet())
    theory = Theory.trivial(alphabet)
    db = make_graph(family, seed, edges=edges)
    extensions = {
        symbol: sorted(pairs)
        for symbol, pairs in views.materialize(db, theory).items()
    }
    return TenantConfig(
        views=views,
        theory=theory,
        extensions=extensions,
        plan_dir=plan_dir,
        parallelism=parallelism,
        workers=workers,
        incremental=incremental,
        backend=backend,
        max_queue=max_queue,
        log_limit=log_limit,
    )


def make_tenant_workload(
    name: str,
    family: str,
    seed: int,
    *,
    edges: int = 240,
    requests: int = 120,
    write_fraction: float = 0.2,
    batch_size: int = 2,
    query_count: int = 6,
    **config_knobs,
) -> TenantWorkload:
    """A tenant config plus a matching seeded traffic mix."""
    config = make_tenant_config(family, seed, edges=edges, **config_knobs)
    traffic = make_traffic_mix(
        family,
        seed,
        count=requests,
        base=config.extensions,
        query_count=query_count,
        write_fraction=write_fraction,
        batch_size=batch_size,
    )
    return TenantWorkload(name=name, config=config, traffic=traffic)


# ----------------------------------------------------------------------
# The HTTP client side
# ----------------------------------------------------------------------


class _Client:
    """A minimal keep-alive HTTP/1.1 JSON client on asyncio streams."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            with contextlib.suppress(Exception):
                await self.writer.wait_closed()
            self.reader = self.writer = None

    async def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        if self.writer is None:
            await self.connect()
        assert self.reader is not None and self.writer is not None
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: loadgen\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(data) if data else {})


def _query_payload(op: TrafficOp) -> dict:
    payload: dict = {"query": op.query}
    if op.source is not None:
        payload["source"] = op.source
    if op.target is not None:
        payload["target"] = op.target
    return payload


def _update_payload(op: TrafficOp) -> dict:
    return {
        "ops": [
            {
                "op": update.op,
                "symbol": update.symbol,
                "source": update.source,
                "target": update.target,
            }
            for update in op.updates
        ]
    }


async def run_loadgen(
    host: str,
    port: int,
    workloads: Iterable[TenantWorkload],
    *,
    readers_per_tenant: int = 2,
) -> tuple[list[dict], float]:
    """Drive every tenant's traffic closed-loop; returns (records, wall).

    Per tenant: one writer client sends the mix's update batches in
    stream order (retrying on 429 so each batch is accepted exactly
    once, preserving the stream's consistency-by-construction), and
    ``readers_per_tenant`` reader clients split the query ops
    round-robin.  Each record is a dict with the tenant, kind, traffic
    index, HTTP status, latency in seconds, and the decoded response.
    """
    records: list[dict] = []

    async def send(
        client: _Client, workload: TenantWorkload, index: int, op: TrafficOp
    ) -> dict:
        if op.kind == "update":
            path = f"/tenants/{workload.name}/update"
            payload = _update_payload(op)
        else:
            path = f"/tenants/{workload.name}/query"
            payload = _query_payload(op)
        start = time.monotonic()
        status, response = await client.request("POST", path, payload)
        record = {
            "tenant": workload.name,
            "kind": op.kind,
            "op_index": index,
            "status": status,
            "latency": time.monotonic() - start,
            "response": response,
        }
        records.append(record)
        return record

    async def writer(workload: TenantWorkload) -> None:
        client = _Client(host, port)
        try:
            for index, op in enumerate(workload.traffic):
                if op.kind != "update" or not op.updates:
                    continue
                while True:
                    record = await send(client, workload, index, op)
                    if record["status"] != 429:
                        break
                    # Admission shed us; the stream must still apply in
                    # order, so back off and retry the same batch.
                    await asyncio.sleep(0.005)
        finally:
            await client.close()

    async def reader(workload: TenantWorkload, jobs: list[tuple[int, TrafficOp]]) -> None:
        client = _Client(host, port)
        try:
            for index, op in jobs:
                await send(client, workload, index, op)
        finally:
            await client.close()

    tasks = []
    for workload in workloads:
        tasks.append(writer(workload))
        query_jobs = [
            (index, op)
            for index, op in enumerate(workload.traffic)
            if op.kind == "query"
        ]
        lanes = max(1, readers_per_tenant)
        for lane in range(lanes):
            jobs = query_jobs[lane::lanes]
            if jobs:
                tasks.append(reader(workload, jobs))
    start = time.monotonic()
    await asyncio.gather(*tasks)
    return records, time.monotonic() - start


# ----------------------------------------------------------------------
# The differential oracle
# ----------------------------------------------------------------------


def replay_oracle(workload: TenantWorkload, records: list[dict]) -> int:
    """Re-answer every accepted read on a single-threaded replay.

    Replays the tenant's accepted write batches, in sequence order, on a
    fresh store built from the same extensions, and at each read's
    pinned version re-answers the query on a fresh session — comparing
    the serialized payloads byte for byte.  Raises AssertionError on any
    divergence; returns the number of reads checked.
    """
    mine = [
        record
        for record in records
        if record["tenant"] == workload.name and record["status"] == 200
    ]
    writes = sorted(
        (record for record in mine if record["kind"] == "update"),
        key=lambda record: record["response"]["seq"],
    )
    write_ops = [op for op in workload.traffic if op.kind == "update"]
    if len(writes) != len(write_ops):
        raise AssertionError(
            f"tenant {workload.name!r}: {len(write_ops)} update batches "
            f"sent but {len(writes)} accepted — the writer must retry "
            "until every batch lands"
        )
    reads = sorted(
        (record for record in mine if record["kind"] == "query"),
        key=lambda record: record["response"]["version"],
    )
    config = workload.config
    store = MaterializedViewStore(
        config.extensions or {}, log_limit=config.log_limit
    )
    session = QuerySession(
        store,
        config.views,
        config.theory,
        incremental=config.incremental,
        backend=config.backend,
    )

    cursor = 0

    def apply_next_batch() -> None:
        nonlocal cursor
        record, op = writes[cursor], write_ops[cursor]
        applied = 0
        for update in op.updates:
            if update.op == "insert":
                applied += store.add(update.symbol, update.source, update.target)
            else:
                applied += store.remove(
                    update.symbol, update.source, update.target
                )
        response = record["response"]
        if store.version != response["version"] or applied != response["applied"]:
            raise AssertionError(
                f"tenant {workload.name!r} write #{cursor}: server reported "
                f"version={response['version']} applied={response['applied']}, "
                f"replay reached version={store.version} applied={applied}"
            )
        cursor += 1

    checked = 0
    for read in reads:
        response = read["response"]
        version = response["version"]
        while store.version < version and cursor < len(writes):
            apply_next_batch()
        if store.version != version:
            raise AssertionError(
                f"tenant {workload.name!r}: a read was pinned at version "
                f"{version}, but the single-threaded replay can only reach "
                f"{store.version} — the server misreported its pin"
            )
        expected = _expected_payload(session, response)
        got = {key: response.get(key) for key in expected}
        if json.dumps(got, sort_keys=True) != json.dumps(expected, sort_keys=True):
            raise AssertionError(
                f"tenant {workload.name!r} query {response['query']!r} "
                f"({response['mode']}) at version {version} diverged from "
                f"the oracle:\n  served: {got}\n  oracle: {expected}"
            )
        checked += 1
    while cursor < len(writes):
        apply_next_batch()
    return checked


def replay_crash_oracle(
    workload: TenantWorkload,
    acked_writes: list[dict],
    recovered_version: int,
) -> tuple[MaterializedViewStore, QuerySession]:
    """The durability oracle: check a recovered tenant against its stream.

    After a ``kill -9`` and restart, a durable tenant's recovered
    version must account for **every** acknowledged write and **at most
    one** unacknowledged batch beyond them: the load generator drives
    one synchronous writer per tenant (send, await the 200, send the
    next), so the batches acknowledged before the kill are a prefix of
    the update stream, and the only write the crash can have caught
    mid-flight — applied and logged but never acknowledged — is the
    single next batch.  Anything less than the acked prefix is
    acknowledged-write loss; anything more than one extra batch means
    writes were acknowledged that the client never saw.

    ``acked_writes`` holds the ``response`` payloads (seq, version,
    applied) of the update batches acknowledged before the kill.
    Replays the stream single-threaded, verifies each acked batch's
    reported version/applied byte-for-byte, rolls forward through the
    optional in-flight batch to ``recovered_version``, and returns the
    oracle ``(store, session)`` positioned there — ready for answer
    comparison against the recovered server.  Raises AssertionError on
    any violation.
    """
    write_ops = [
        op for op in workload.traffic if op.kind == "update" and op.updates
    ]
    acked = sorted(acked_writes, key=lambda response: response["seq"])
    seqs = [response["seq"] for response in acked]
    if seqs != list(range(1, len(seqs) + 1)):
        raise AssertionError(
            f"tenant {workload.name!r}: acknowledged write seqs {seqs} are "
            "not the prefix 1..k — the crash harness must drive a single "
            "synchronous writer"
        )
    config = workload.config
    store = MaterializedViewStore(
        config.extensions or {}, log_limit=config.log_limit
    )
    session = QuerySession(
        store,
        config.views,
        config.theory,
        incremental=config.incremental,
        backend=config.backend,
    )

    def apply_batch(index: int) -> int:
        applied = 0
        for update in write_ops[index].updates:
            if update.op == "insert":
                applied += store.add(
                    update.symbol, update.source, update.target
                )
            else:
                applied += store.remove(
                    update.symbol, update.source, update.target
                )
        return applied

    for index, response in enumerate(acked):
        applied = apply_batch(index)
        if (
            store.version != response["version"]
            or applied != response["applied"]
        ):
            raise AssertionError(
                f"tenant {workload.name!r} acked write #{index + 1}: server "
                f"reported version={response['version']} "
                f"applied={response['applied']}, replay reached "
                f"version={store.version} applied={applied}"
            )
    if store.version > recovered_version:
        raise AssertionError(
            f"tenant {workload.name!r}: ACKNOWLEDGED WRITE LOST — the "
            f"acked prefix ends at version {store.version} but recovery "
            f"only reached version {recovered_version}"
        )
    in_flight = 0
    cursor = len(acked)
    while store.version < recovered_version and cursor < len(write_ops):
        apply_batch(cursor)
        cursor += 1
        in_flight += 1
    if store.version != recovered_version:
        raise AssertionError(
            f"tenant {workload.name!r}: recovered version "
            f"{recovered_version} is not reachable from the update stream "
            f"(replay passed it, landing on {store.version}) — recovery "
            "materialized state the stream never produced"
        )
    if in_flight > 1:
        raise AssertionError(
            f"tenant {workload.name!r}: {in_flight} unacknowledged batches "
            "survived the crash, but a synchronous writer can have at most "
            "one in flight"
        )
    return store, session


def _expected_payload(session: QuerySession, response: dict) -> dict:
    query, mode = response["query"], response["mode"]
    if mode == "all":
        # Sorted by the oracle bridge, never by the session's own id-space
        # sort or its answer_json memo: those are what this checks.
        pairs = sort_pairs(session.store.graph, session.answer(query))
        return {"answers": [[str(x), str(y)] for x, y in pairs]}
    if mode == "single_source":
        return {
            "targets": sorted(
                str(y) for y in session.answer_from(query, response["source"])
            )
        }
    return {
        "found": session.answer_pair(
            query, response["source"], response["target"]
        )
    }


# ----------------------------------------------------------------------
# The benchmark harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoadGenReport:
    """What one closed-loop run did and how fast it went."""

    tenants: tuple[str, ...]
    requests: int
    queries: int
    updates: int
    rejected: int
    errors: int
    wall_seconds: float
    throughput: float
    p50_ms: float
    p99_ms: float
    oracle_checked: int

    def lines(self) -> list[str]:
        return [
            (
                f"server loadgen: {len(self.tenants)} tenants "
                f"({', '.join(self.tenants)}), {self.requests} requests "
                f"in {self.wall_seconds:.2f}s"
            ),
            (
                f"  throughput: {self.throughput:.1f} req/s "
                f"(queries={self.queries}, updates={self.updates}, "
                f"rejected={self.rejected}, errors={self.errors})"
            ),
            f"  latency: p50={self.p50_ms:.2f} ms  p99={self.p99_ms:.2f} ms",
            (
                f"  oracle: {self.oracle_checked} served answers matched "
                "the single-threaded replay byte for byte"
            ),
        ]


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = round(fraction * (len(sorted_values) - 1))
    return sorted_values[index]


def run_server_benchmark(
    *,
    families: tuple[str, ...] = ("grid", "chain"),
    seed: int = 20260808,
    edges: int = 240,
    requests_per_tenant: int = 120,
    write_fraction: float = 0.2,
    batch_size: int = 2,
    readers_per_tenant: int = 2,
    max_queue: int = 64,
    parallelism: int | None = None,
    workers: int = 1,
    backend: str = "auto",
    data_dir=None,
    fsync: str = "batch",
) -> LoadGenReport:
    """Serve N seeded tenants, hammer them closed-loop, check every answer.

    Starts an :class:`~repro.service.server.RPQServer` on an ephemeral
    port inside one event loop, runs :func:`run_loadgen` against it
    (concurrent readers plus a writer per tenant), then replays every
    tenant through :func:`replay_oracle`.  The returned report carries
    throughput and latency percentiles over *accepted* requests; 429s
    are counted, not timed.  ``data_dir``/``fsync`` switch the server
    into durable mode, which is how ``benchmarks/bench_recovery.py``
    measures the write-path overhead of WAL commits per fsync policy.
    """
    workloads = [
        make_tenant_workload(
            f"t{index}-{family}",
            family,
            seed + index,
            edges=edges,
            requests=requests_per_tenant,
            write_fraction=write_fraction,
            batch_size=batch_size,
            max_queue=max_queue,
            parallelism=parallelism,
            workers=workers,
            backend=backend,
        )
        for index, family in enumerate(families)
    ]

    async def main() -> tuple[list[dict], float]:
        server = RPQServer(
            {workload.name: workload.config for workload in workloads},
            data_dir=data_dir,
            fsync=fsync,
        )
        await server.start()
        try:
            return await run_loadgen(
                server.host,
                server.port,
                workloads,
                readers_per_tenant=readers_per_tenant,
            )
        finally:
            await server.aclose()

    records, wall = asyncio.run(main())
    oracle_checked = sum(
        replay_oracle(workload, records) for workload in workloads
    )
    accepted = [record for record in records if record["status"] == 200]
    latencies = sorted(record["latency"] for record in accepted)
    return LoadGenReport(
        tenants=tuple(workload.name for workload in workloads),
        requests=len(records),
        queries=sum(
            1 for record in accepted if record["kind"] == "query"
        ),
        updates=sum(
            1 for record in accepted if record["kind"] == "update"
        ),
        rejected=sum(1 for record in records if record["status"] == 429),
        errors=sum(
            1
            for record in records
            if record["status"] not in (200, 429)
        ),
        wall_seconds=wall,
        throughput=(len(accepted) / wall) if wall > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50) * 1000.0,
        p99_ms=_percentile(latencies, 0.99) * 1000.0,
        oracle_checked=oracle_checked,
    )
