"""Outside-in serving benchmark for ``RPQServer``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the server as its own process (``launcher.py``), drives it from
this single-threaded asyncio process over at most two connections,
byte-checks every answered read against ``replay_oracle`` and prints one
JSON result as the last stdout line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the load twice, untraced and then
with every layer's entry points timed, and reports the per-layer
metrics.  See ``README.md`` beside this file for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import copy
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")
SETUP_ROUNDS = 7
BLOCKS = 9
TRIM = 0.10
CLIENT_SATURATED = 0.9  # client CPU seconds per wall second

if not os.path.isfile(os.path.join(ROOT, "src", "repro", "service", "server.py")):
    sys.exit(f"perfbench: no repro sources under {ROOT}/src; run from a full checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

from client import (  # noqa: E402
    Connection,
    ServerProcess,
    drive_lane,
    fetch_json,
    proc_peak_rss_mb,
)
from repro.service.loadgen import replay_crash_oracle, replay_oracle  # noqa: E402
from repro.service.recovery import recover_store  # noqa: E402
from spans import SPAN_NAMES  # noqa: E402
from workloads import (  # noqa: E402
    LATENCY_LIMIT_S,
    TENANTS,
    WORKLOADS,
    make_traffic,
    tenant_configs,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


class CheckFailed(Exception):
    """An answer, a recovered store or a count did not match."""

    attempted = 1
    failed = 0


def percentile(values: list[float], fraction: float, short: list[str], label: str) -> float:
    """Nearest-rank percentile, 0 for no samples (a layer the workload
    does not use); notes ``label`` in ``short`` when fewer than ten
    samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    if len(ordered) - rank < 10:
        short.append(label)
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# One leg: set up, load, shut down, check
# ----------------------------------------------------------------------


class Leg:
    """One server lifetime under load, and what it measured."""

    def __init__(self, workload: str, seed: int, seconds: int, work: str, traced: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work, self.traced = work, traced
        self.tenants = [tenant[0] for tenant in TENANTS[workload]]
        self.setup_times: list[float] = []
        self.stderr: list[str] = []

    async def run(self, configs, setup_rounds: int) -> None:
        lanes, self.streams = make_traffic(self.workload, self.seed, self.seconds, configs)
        server = None
        for round_ in range(setup_rounds):
            workdir = os.path.join(self.work, f"server{round_}")
            last = round_ == setup_rounds - 1
            trace_out = os.path.join(workdir, "spans.json") if self.traced and last else None
            server = await ServerProcess.start(self.workload, self.tenants, workdir, trace_out)
            self.setup_times.append(server.setup_s)
            if not last:
                await server.shutdown()
                self.stderr.append(server.stderr())
                shutil.rmtree(workdir)
        self.workdir = workdir
        try:
            self.stats_before = await fetch_json(server.port, "GET", "/stats")
            conns = [Connection() for _ in lanes]
            self.records: list = []
            cpu0, client0 = server.cpu_s(), time.process_time()
            self.t0 = time.monotonic() + 0.02
            # A collector pause here would delay sends and count against
            # the server; the load creates little cyclic garbage.
            gc.disable()
            try:
                await asyncio.gather(*(
                    drive_lane(lane, server.port, self.t0, conn, self.records)
                    for lane, conn in zip(lanes, conns)
                ))
            finally:
                gc.enable()
                for conn in conns:
                    await conn.close()
            self.t_end = max((r.done for r in self.records), default=self.t0)
            self.server_cpu_s = server.cpu_s() - cpu0
            self.client_cpu_s = time.process_time() - client0
            self.peak_rss_mb = server.peak_rss_mb()
            control = Connection()
            self.stats_after = await fetch_json(server.port, "GET", "/stats", control)
            await server.shutdown(control)
            await control.close()
        finally:
            await server.kill()
            self.stderr.append(server.stderr())
        self.spans = None
        if trace_out:
            with open(trace_out, encoding="utf-8") as handle:
                self.spans = json.load(handle)

    # -- correctness ---------------------------------------------------
    def check(self) -> None:
        """Replay every answered read through ``replay_oracle``; on a
        durable workload also recover each data dir and compare it with
        the oracle's final store."""
        self.checked = 0
        for stream in self.streams:
            mine = [r for r in self.records if r.tenant == stream.name and r.status == 200]
            records = [
                {"tenant": r.tenant, "kind": r.kind, "status": 200, "response": _Response(r.body)}
                for r in mine
            ]
            try:
                checked = replay_oracle(stream, records)
            except AssertionError as exc:
                raise CheckFailed(str(exc)) from None
            reads = sum(1 for r in mine if r.kind == "query")
            if checked != reads:
                raise CheckFailed(f"{stream.name}: oracle checked {checked} of {reads} reads")
            self.checked += checked
        self.recover_s = 0.0
        data = os.path.join(self.workdir, "data")
        if not os.path.isdir(data):
            return
        for stream in self.streams:
            started = time.monotonic()
            result = recover_store(os.path.join(data, stream.name))
            self.recover_s += time.monotonic() - started
            acked = [
                json.loads(r.body) for r in self.records
                if r.tenant == stream.name and r.kind == "update" and r.status == 200
            ]
            last = max((response["version"] for response in acked), default=0)
            try:
                oracle, _session = replay_crash_oracle(stream, acked, result.store.version)
            except AssertionError as exc:
                raise CheckFailed(str(exc)) from None
            if (
                result.quarantined or result.wal_error or result.store.version != last
                or result.store.snapshot() != oracle.snapshot()
            ):
                raise CheckFailed(
                    f"{stream.name}: recovered store (version {result.store.version}, "
                    f"wal_error={result.wal_error}, quarantined={result.quarantined}) "
                    f"differs from the oracle's store at version {oracle.version}"
                )

    def counts(self) -> dict:
        """The /stats counters and response bytes, which two runs of one
        seed must reproduce exactly (gauges that depend on timing are left
        out)."""
        counts = {}
        for name, payload in self.stats_after["tenants"].items():
            payload = copy.deepcopy(payload)
            payload.pop("pending")
            payload["served"].pop("max_pending")
            payload["response_bytes"] = sum(r.size for r in self.records if r.tenant == name)
            counts[name] = payload
        return counts


class _Response(dict):
    """A decoded response whose answer list is decoded again from the raw
    body on each access, so a run's large answers are never all held
    decoded at once."""

    _LISTS = ("answers", "targets")

    def __init__(self, body: bytes):
        payload = json.loads(body)
        self._body = body
        self._lists = [key for key in self._LISTS if payload.pop(key, None) is not None]
        super().__init__(payload)

    def get(self, key, default=None):
        if key in self._lists:
            return json.loads(self._body)[key]
        return super().get(key, default)

    def __getitem__(self, key):
        if key in self._lists:
            return json.loads(self._body)[key]
        return super().__getitem__(key)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _counter_delta(leg: Leg, *path: str) -> float:
    total = 0.0
    for name in leg.tenants:
        after, before = leg.stats_after["tenants"][name], leg.stats_before["tenants"][name]
        for key in path:
            after, before = after.get(key, {}), before.get(key, {})
        total += (after or 0) - (before or 0)
    return total


def latencies(leg: Leg, kind: str) -> list[float]:
    """Latencies (ms) of the answered ``kind`` requests, in due-time order."""
    return [
        (r.done - r.due) * 1e3
        for r in sorted(leg.records, key=lambda r: r.due)
        if r.status == 200 and r.kind == kind
    ]


def tail_percentile(values: list[float], fraction: float, short: list[str], label: str) -> float:
    """A tail percentile as the median over consecutive equal blocks of
    ``values``: up to BLOCKS blocks, as many as leave ten samples beyond
    the percentile in each.  One host pause then moves one block's
    figure, not the run's."""
    n = len(values)
    blocks = max(1, min(BLOCKS, n // round(10 / (1 - fraction))))
    return statistics.median(
        percentile(values[i * n // blocks : (i + 1) * n // blocks], fraction, short, label)
        for i in range(blocks)
    )


def trimmed_mean(values: list[float], share: float) -> float:
    """The mean of ``values`` without their lowest and highest ``share``."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def end_to_end(leg: Leg, short: list[str]) -> dict:
    records = leg.records
    ok = [r for r in records if r.status == 200]
    met = sum(1 for r in ok if r.done - r.due <= LATENCY_LIMIT_S)
    queries, updates = latencies(leg, "query"), latencies(leg, "update")
    return {
        "setup_s": statistics.median(leg.setup_times),
        "throughput_rps": len(ok) / (leg.t_end - leg.t0),
        "query_p50_ms": percentile(queries, 0.50, short, "query_p50_ms"),
        "update_trimmed_mean_ms": trimmed_mean(updates, TRIM),
        "slo_50ms_met_ratio": met / len(records),
        "ok_ratio": len(ok) / len(records),
        "server_cpu_ms_per_req": leg.server_cpu_s * 1e3 / len(records),
        "server_peak_rss_mb": leg.peak_rss_mb,
    }


def per_layer(leg: Leg, untraced: Leg, short: list[str]) -> dict:
    """Per-layer figures of a traced leg, cut to its load window."""
    lo, hi = leg.t0, leg.t_end
    trace = leg.spans
    records = leg.records
    n = len(records)
    metrics: dict[str, float] = {}

    metrics["loadgen.lag_p99_ms"] = percentile([r.lag * 1e3 for r in records], 0.99, short, "loadgen.lag_p99_ms")
    metrics["loadgen.client_cpu_ms_per_req"] = leg.client_cpu_s * 1e3 / n
    # Latency figures too unsteady from run to run on a shared host to
    # bound, taken from the untraced pass like the end-to-end metrics.
    queries, updates = latencies(untraced, "query"), latencies(untraced, "update")
    metrics["loadgen.query_p90_ms"] = tail_percentile(queries, 0.90, short, "loadgen.query_p90_ms")
    metrics["loadgen.query_p99_ms"] = tail_percentile(queries, 0.99, short, "loadgen.query_p99_ms")
    metrics["loadgen.update_p50_ms"] = percentile(updates, 0.50, short, "loadgen.update_p50_ms")
    metrics["loadgen.update_p90_ms"] = tail_percentile(updates, 0.90, short, "loadgen.update_p90_ms")
    metrics["loadgen.update_p99_ms"] = tail_percentile(updates, 0.99, short, "loadgen.update_p99_ms")

    spans = [s for s in trace["spans"] if lo <= s[2] and s[3] <= hi]
    for name in SPAN_NAMES:
        selves = [s[4] * 1e3 for s in spans if s[0] == name]
        metrics[f"{name}_ms"] = sum(selves)
        metrics[f"{name}_calls"] = len(selves)
        metrics[f"{name}_p50_ms"] = percentile(selves, 0.50, short, f"{name}_p50_ms")
    commits = [s[4] * 1e3 for s in spans if s[0] == "wal.commit"]
    metrics["wal.commit_p99_ms"] = percentile(commits, 0.99, short, "wal.commit_p99_ms")

    waits = [(started - submitted) * 1e3 for submitted, started in trace["waits"] if lo <= submitted and started <= hi]
    metrics["server.queue_wait_p50_ms"] = percentile(waits, 0.50, short, "server.queue_wait_p50_ms")
    metrics["server.queue_wait_p99_ms"] = percentile(waits, 0.99, short, "server.queue_wait_p99_ms")
    service = sum(r.done - r.sent for r in records)
    jobs = sum(s[3] - s[2] for s in spans if s[0] == "server.job")
    metrics["server.outside_executor_ms"] = (service - jobs) * 1e3 / n
    query_bytes = [r.size for r in records if r.kind == "query" and r.status == 200]
    metrics["server.response_kib_per_query"] = sum(query_bytes) / 1024 / max(1, len(query_bytes))

    requests = _counter_delta(leg, "session", "requests")
    metrics["session.memo_hit_ratio"] = _counter_delta(leg, "session", "answer_memo_hits") / max(1.0, requests)
    for key in ("full_recomputes", "incremental_updates", "rederived_bits"):
        metrics[f"session.{key}"] = _counter_delta(leg, "session", key)
    metrics["plancache.built"] = _counter_delta(leg, "plan_cache", "built")
    metrics["plancache.hits"] = _counter_delta(leg, "plan_cache", "hits")

    rewrites = [r for r in trace["rewrites"] if lo <= r[0] <= hi]
    metrics["rewriting.ad_ms"] = sum(r[1] for r in rewrites) * 1e3
    metrics["rewriting.a_prime_ms"] = sum(r[2] for r in rewrites) * 1e3
    metrics["rewriting.complement_ms"] = sum(r[3] for r in rewrites) * 1e3
    metrics["rewriting.rewriting_states"] = statistics.mean(r[4] for r in rewrites) if rewrites else 0.0

    states = [kind for end, kind in trace["states"] if lo <= end <= hi]
    metrics["incremental.numpy_states"] = states.count("NumpyDeltaSweepState")
    metrics["incremental.bigint_states"] = states.count("DeltaSweepState")

    metrics["wal.syncs"] = _counter_delta(leg, "durability", "wal", "syncs")
    changes = _counter_delta(leg, "durability", "wal", "appends")
    metrics["wal.bytes_per_change"] = _counter_delta(leg, "durability", "wal_bytes") / max(1.0, changes)
    metrics["recovery.checkpoints"] = _counter_delta(leg, "durability", "checkpoints")
    metrics["recovery.recover_ms"] = leg.recover_s * 1e3

    covered = sum(end - start for start, end in trace["dispatches"] if lo <= start and end <= hi)
    covered += sum(s[3] - s[2] for s in spans if s[0] == "server.encode")
    metrics["trace.coverage_ratio"] = covered / service
    metrics["trace.overhead_ratio"] = (leg.server_cpu_s / n) / (untraced.server_cpu_s / len(untraced.records))
    return metrics


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{prefix}{key}.")
    else:
        yield prefix[:-1], value


def check_counts(args, counts: dict) -> str:
    """Compare with the counts an earlier run of these arguments left in
    this checkout, or keep these as the reference."""
    path = os.path.join(
        RUNS_DIR, "counts", f"{args.workload}-seed{args.seed}-{args.seconds}s.json"
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            reference = dict(_flatten(json.load(handle)))
        now = dict(_flatten(counts))
        drift = {
            key: (reference.get(key), now.get(key))
            for key in sorted(reference.keys() | now.keys())
            if reference.get(key) != now.get(key)
        }
        if drift:
            raise CheckFailed(
                f"counts differ from an earlier run of seed {args.seed} "
                f"(earlier, now): {drift}"
            )
        return "matched an earlier run"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(counts, handle, sort_keys=True)
    return "first run of these arguments; kept as reference"


async def bench(args) -> tuple[dict, dict]:
    work = os.path.join(RUNS_DIR, f"work-{os.getpid()}")
    configs = tenant_configs(args.workload)
    legs = []
    try:
        for traced in ([False, True] if args.trace else [False]):
            leg = Leg(args.workload, args.seed, args.seconds, os.path.join(work, f"leg{len(legs)}"), traced)
            legs.append(leg)
            await leg.run(configs, 1 if args.trace else SETUP_ROUNDS)
            leg.check()
            for record in leg.records:
                record.body = None
        counts = [leg.counts() for leg in legs]
        if len(counts) == 2 and counts[0] != counts[1]:
            raise CheckFailed("the untraced and traced legs of one seed produced different counts")
        determinism = check_counts(args, counts[0])
    except CheckFailed as exc:
        exc.attempted = max(1, sum(len(getattr(leg, "records", ())) for leg in legs))
        exc.failed = sum(1 for leg in legs for r in getattr(leg, "records", ()) if r.status != 200)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)

    short: list[str] = []
    leg = legs[-1]
    metrics = per_layer(leg, legs[0], short) if args.trace else end_to_end(leg, short)
    attempted = sum(len(leg.records) for leg in legs)
    failed = sum(1 for leg in legs for r in leg.records if r.status != 200)
    client_load = max(leg.client_cpu_s / (leg.t_end - leg.t0) for leg in legs)
    stderr = "\n".join(text for leg in legs for text in leg.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": attempted,
        "failed": failed,
        "oracle_checked_reads": sum(leg.checked for leg in legs),
        "setup_s_rounds": [round(t, 4) for leg in legs for t in leg.setup_times],
        "server_cpu_ms_per_req": [leg.server_cpu_s * 1e3 / len(leg.records) for leg in legs],
        "server_peak_rss_mb": [leg.peak_rss_mb for leg in legs],
        "client_cpu_ms_per_req": [leg.client_cpu_s * 1e3 / len(leg.records) for leg in legs],
        "client_cpu_per_wall_s": client_load,
        "client_saturated": client_load >= CLIENT_SATURATED,
        "client_peak_rss_mb": proc_peak_rss_mb(os.getpid()),
        "percentiles_short_of_10_beyond": short,
        "counts_check": determinism,
        "counts": counts[0],
        "server_stderr_tracebacks": stderr.count("Traceback"),
        "server_stderr": stderr,
    }
    return metrics, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        metrics, report = asyncio.run(bench(args))
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted, "failed": exc.failed, "metrics": {}}))
        return 1
    os.makedirs(RUNS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    artifact = os.path.join(
        RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    )
    with open(artifact, "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, **report}, handle, indent=1, sort_keys=True)
    summary = {key: value for key, value in report.items() if key not in ("counts", "server_stderr")}
    print(f"perfbench report ({artifact}): {json.dumps(summary, sort_keys=True)}")
    declared = DECLARED["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if units.keys() != metrics.keys():
        raise RuntimeError(
            f"metrics {sorted(metrics.keys() ^ units.keys())} are measured but not "
            "declared in BENCHMARK.json, or declared but not measured"
        )
    print(json.dumps({
        "correct": True,
        "attempted": report["requests"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
