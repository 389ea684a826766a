"""The benchmark's client side: the server process, HTTP, and the load loops.

Everything here runs in one single-threaded asyncio process.  At most
two connections are open at any time, because the machine the figures
were sized on has two cores: during the load only the lane connections
(two per workload), before and after it one control connection.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
HOST = "127.0.0.1"
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Connection:
    """A keep-alive HTTP/1.1 connection that returns raw response bodies."""

    def __init__(self) -> None:
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str, body: bytes, port: int) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(HOST, port)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, (await self.reader.readexactly(length) if length else b"")

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None


async def fetch_json(port: int, method: str, path: str, conn: Connection | None = None) -> dict:
    """One control request; on a fresh connection unless ``conn`` is given."""
    own = conn is None
    conn = conn or Connection()
    try:
        status, body = await asyncio.wait_for(
            conn.request(method, path, b"", port), REQUEST_TIMEOUT_S
        )
    finally:
        if own:
            await conn.close()
    if status != 200:
        raise RuntimeError(f"{method} {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """``launcher.py`` as a child process, from spawn to exit."""

    def __init__(self, proc: asyncio.subprocess.Process, stderr_path: str):
        self.proc = proc
        self.stderr_path = stderr_path
        self.port = 0
        self.setup_s = 0.0

    @classmethod
    async def start(
        cls, workload: str, tenants: list[str], workdir: str, trace_out: str | None
    ) -> "ServerProcess":
        """Spawn and wait until ``/health`` lists every tenant; the time
        from spawn to that answer is ``setup_s``."""
        os.makedirs(workdir, exist_ok=True)
        argv = [
            sys.executable, os.path.join(HERE, "launcher.py"), "--workload", workload,
            "--plan-dir", os.path.join(workdir, "plans"),
            "--data-dir", os.path.join(workdir, "data"),
        ]
        if trace_out:
            argv += ["--trace-out", trace_out]
        stderr_path = os.path.join(workdir, "server.stderr")
        started = time.monotonic()
        with open(stderr_path, "wb") as stderr:
            proc = await asyncio.create_subprocess_exec(
                *argv, stdout=asyncio.subprocess.PIPE, stderr=stderr
            )
        server = cls(proc, stderr_path)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), START_TIMEOUT_S)
            if not line.strip():
                raise RuntimeError(f"server exited during setup: {server.stderr()[-2000:]}")
            server.port = int(line)
            health = await fetch_json(server.port, "GET", "/health")
            if sorted(health["tenants"]) != sorted(tenants):
                raise RuntimeError(f"/health lists {sorted(health['tenants'])}")
            server.setup_s = time.monotonic() - started
        except BaseException:
            await server.kill()
            raise
        return server

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stderr(self) -> str:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()

    async def shutdown(self, conn: Connection | None = None) -> None:
        """``POST /shutdown`` and wait for a clean exit."""
        try:
            await fetch_json(self.port, "POST", "/shutdown", conn)
            code = await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        except BaseException:
            await self.kill()
            raise
        if code != 0:
            raise RuntimeError(f"server exited with {code}: {self.stderr()[-2000:]}")

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
        await self.proc.wait()


@dataclass
class Record:
    """One request as the client saw it.  Times are ``time.monotonic``."""

    tenant: str
    kind: str
    due: float
    sent: float
    done: float
    lag: float
    status: int
    size: int
    body: bytes | None


async def drive_lane(lane, port: int, t0: float, conn: Connection, records: list) -> None:
    """Send one lane's requests: on schedule (open loop, when ``dues``
    is set) or each on the previous reply (closed loop).  A request's
    latency runs from its due time; the generator's lag is how late it
    sent, beyond both the due time and the reply that freed the lane."""
    free_at = t0
    for index, op in enumerate(lane.ops):
        if op.kind == "update":
            path = f"/tenants/{lane.tenant}/update"
            payload = {"ops": [
                {"op": u.op, "symbol": u.symbol, "source": u.source, "target": u.target}
                for u in op.updates
            ]}
        else:
            path = f"/tenants/{lane.tenant}/query"
            payload = {"query": op.query}
            if op.source is not None:
                payload["source"] = op.source
            if op.target is not None:
                payload["target"] = op.target
        body = json.dumps(payload).encode()
        due = free_at if lane.dues is None else t0 + lane.dues[index]
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.monotonic()
        try:
            status, reply = await asyncio.wait_for(
                conn.request("POST", path, body, port), REQUEST_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError, IndexError):
            status, reply = 0, b""
            await conn.close()
        done = time.monotonic()
        records.append(
            Record(
                lane.tenant, op.kind, due, sent, done, sent - max(due, free_at),
                status, len(reply), reply,
            )
        )
        free_at = done
