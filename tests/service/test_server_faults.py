"""Fault injection against the serving front end.

Three failure families, each of which must degrade — never corrupt:

* a sharded worker pool dying mid-request drops the tenant to the
  sequential evaluation path, with byte-identical answers;
* a change log too stale to replay (bounded log overrun) triggers a
  full recompute, not an error;
* admission overflow returns 429 without touching the tenant's session
  state, and the tenant serves correct answers as soon as the backlog
  drains;
* malformed or hostile request framing — lie-length or oversized
  bodies, unparseable ``Content-Length``, unbounded header blocks — is
  rejected with 413/400 before any body buffering, and the server keeps
  serving well-formed traffic afterwards.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.rpq import Theory
from repro.rpq.sharded import ParallelEvaluator
from repro.service import RPQServer, TenantConfig, run_in_thread


def _request(url: str, method: str, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, (json.loads(body) if body else {})


def _config(**overrides) -> TenantConfig:
    knobs = dict(
        views={"q1": "a", "q2": "b"},
        theory=Theory.trivial({"a", "b"}),
        extensions={"q1": [("u", "v"), ("w", "v")], "q2": [("v", "z")]},
    )
    knobs.update(overrides)
    return TenantConfig(**knobs)


class TestWorkerPoolDeath:
    def test_dead_worker_degrades_to_sequential_with_correct_answers(self):
        server = RPQServer({"alpha": _config(parallelism=3, workers=2)})
        handle = run_in_thread(server)
        try:
            tenant = server.tenants["alpha"]
            # Plant an evaluator whose shard 1 dies mid-sweep (the same
            # injection tests/service/test_session.py uses), current as
            # of the store's version so the session trusts it.
            tenant.session._evaluator = ParallelEvaluator(
                tenant.store.graph,
                num_shards=3,
                workers=2,
                _fail_shards=[1],
            )
            tenant.session._evaluator_version = tenant.store.version
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200, body
            assert body["answers"] == [["u", "z"], ["w", "z"]]
            status, stats = _request(handle.url, "GET", "/tenants/alpha/stats")
            assert stats["session"]["parallel_failures"] >= 1
            assert stats["served"]["errors"] == 0
            # The degraded tenant keeps serving (sequentially) —
            # including through a subsequent write.
            status, _ = _request(
                handle.url,
                "POST",
                "/tenants/alpha/update",
                {"ops": [{"op": "insert", "symbol": "q1", "source": "x", "target": "v"}]},
            )
            assert status == 200
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200
            assert body["answers"] == [["u", "z"], ["w", "z"], ["x", "z"]]
        finally:
            handle.stop()


class TestStaleChangeLog:
    def test_log_overrun_triggers_full_recompute_not_error(self):
        # log_limit=3: one 6-op batch is guaranteed to compact away the
        # baseline the retained sweep state reflects.
        server = RPQServer({"alpha": _config(log_limit=3)})
        handle = run_in_thread(server)
        try:
            status, first = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200
            ops = [
                {"op": "insert", "symbol": "q1", "source": f"s{i}", "target": "v"}
                for i in range(6)
            ]
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/update", {"ops": ops}
            )
            assert (status, body["applied"]) == (200, 6)
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200, body
            expected = sorted(
                [["u", "z"], ["w", "z"]] + [[f"s{i}", "z"] for i in range(6)]
            )
            assert sorted(body["answers"]) == expected
            status, stats = _request(handle.url, "GET", "/tenants/alpha/stats")
            session = stats["session"]
            # Both sweeps were full recomputes (state built, then rebuilt
            # after the compacted log), never an incremental patch and
            # never a 5xx.
            assert session["full_recomputes"] >= 2
            assert session["incremental_updates"] == 0
            assert stats["served"]["errors"] == 0
            assert stats["log_size"] <= 3
        finally:
            handle.stop()


class TestAdmissionOverflow:
    def test_overflow_returns_429_and_recovers_clean(self):
        server = RPQServer({"alpha": _config(max_queue=2)})
        handle = run_in_thread(server)
        release = threading.Event()
        occupied = threading.Event()
        try:
            tenant = server.tenants["alpha"]

            def blocker():
                occupied.set()
                assert release.wait(timeout=60)

            # Deterministically wedge the tenant thread (below admission:
            # the pending counter is untouched), then fill the queue.
            tenant.executor.submit(blocker)
            assert occupied.wait(timeout=30)

            results: list[tuple[int, dict]] = []

            def queued_query():
                results.append(
                    _request(
                        handle.url,
                        "POST",
                        "/tenants/alpha/query",
                        {"query": "a.b"},
                    )
                )

            stuck = [
                threading.Thread(target=queued_query) for _ in range(2)
            ]
            for thread in stuck:
                thread.start()
            deadline = 30.0
            import time

            start = time.monotonic()
            while tenant.pending < 2:
                assert time.monotonic() - start < deadline, "queue never filled"
                time.sleep(0.01)

            # The queue is full: the next request must be shed with 429,
            # before it touches the tenant thread.
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 429
            assert body["max_queue"] == 2
            status, body = _request(
                handle.url,
                "POST",
                "/tenants/alpha/update",
                {"ops": [{"op": "insert", "symbol": "q1", "source": "x", "target": "v"}]},
            )
            assert status == 429
            # Overflow corrupted nothing: no write was admitted.
            assert tenant.write_seq == 0

            release.set()
            for thread in stuck:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert [status for status, _ in results] == [200, 200]
            for _status, body in results:
                assert body["answers"] == [["u", "z"], ["w", "z"]]

            # Recovered: fresh requests are admitted and correct.
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200
            assert body["answers"] == [["u", "z"], ["w", "z"]]
            status, stats = _request(handle.url, "GET", "/tenants/alpha/stats")
            assert stats["served"]["rejected"] == 2
            assert stats["served"]["errors"] == 0
            assert stats["pending"] == 0
        finally:
            release.set()
            handle.stop()


def _raw_exchange(server, head: str, body: bytes = b"") -> tuple[int, dict]:
    """Send a hand-framed HTTP request and parse the status + JSON body
    (urllib/http.client refuse to emit the malformed framing under test)."""
    import socket

    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(head.encode("latin-1") + body)
        sock.shutdown(socket.SHUT_WR)
        blob = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            blob += chunk
    head_blob, _, payload = blob.partition(b"\r\n\r\n")
    status = int(head_blob.split(None, 2)[1])
    return status, (json.loads(payload) if payload else {})


class TestRequestBounds:
    @pytest.fixture()
    def bounded(self):
        server = RPQServer({"alpha": _config()}, max_request_bytes=1024)
        handle = run_in_thread(server)
        try:
            yield server, handle
        finally:
            handle.stop()

    def test_oversized_body_rejected_413_before_buffering(self, bounded):
        server, handle = bounded
        big = json.dumps(
            {"query": "a.b", "padding": "x" * 4096}
        ).encode()
        status, body = _raw_exchange(
            server,
            "POST /tenants/alpha/query HTTP/1.1\r\n"
            "Host: t\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(big)}\r\n\r\n",
            big,
        )
        assert status == 413
        assert "1024-byte limit" in body["error"]
        assert server.stats["bad_requests"] == 1

    def test_lie_length_header_rejected_without_reading_the_body(self, bounded):
        server, _handle = bounded
        # The header claims 10 MiB; no body ever arrives.  The bound
        # check fires on the declared length alone, so the response is
        # immediate rather than a read-until-timeout stall.
        status, body = _raw_exchange(
            server,
            "POST /tenants/alpha/query HTTP/1.1\r\n"
            "Host: t\r\nContent-Length: 10485760\r\n\r\n",
        )
        assert status == 413

    @pytest.mark.parametrize("raw_length", ["banana", "-5", "0x10", "1e3"])
    def test_malformed_content_length_rejected_400(self, bounded, raw_length):
        server, _handle = bounded
        status, body = _raw_exchange(
            server,
            "POST /tenants/alpha/query HTTP/1.1\r\n"
            f"Host: t\r\nContent-Length: {raw_length}\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_header_block_rejected_413(self, bounded):
        server, _handle = bounded
        status, body = _raw_exchange(
            server,
            "POST /tenants/alpha/query HTTP/1.1\r\n"
            "Host: t\r\n"
            f"X-Filler: {'y' * 200_000}\r\n\r\n",
        )
        assert status == 413
        assert "head" in body["error"]

    def test_server_keeps_serving_after_rejections(self, bounded):
        server, handle = bounded
        for raw in ("banana", "999999999"):
            _raw_exchange(
                server,
                "POST /tenants/alpha/query HTTP/1.1\r\n"
                f"Host: t\r\nContent-Length: {raw}\r\n\r\n",
            )
        status, body = _request(
            handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
        )
        assert status == 200
        assert body["answers"] == [["u", "z"], ["w", "z"]]
        assert server.stats["bad_requests"] == 2


class TestShutdownWithIdleConnection:
    def test_shutdown_exits_clean_with_keep_alive_connection_open(self):
        """``/shutdown`` must not leave an idle keep-alive reader to be
        cancelled when the loop dies (which logs a CancelledError
        traceback): the server closes it, and the handler sees EOF."""
        import http.client
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--workload-tenant", "alpha=grid:7:60",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            port = None
            for line in proc.stdout:
                if line.startswith("serving ") and "http://" in line:
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port is not None, f"server never announced (rc={proc.poll()})"
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                connection.request(
                    "POST", "/shutdown", body=b"{}",
                    headers={"Connection": "keep-alive"},
                )
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                # The connection stays open while the server shuts down.
                _stdout, stderr = proc.communicate(timeout=60)
            finally:
                connection.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stderr, stderr
        assert "Exception in callback" not in stderr, stderr


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
