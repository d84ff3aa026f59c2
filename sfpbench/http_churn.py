"""http-churn: tenant lifecycle over the HTTP API, as a tenant sees it.

The system runs in a child process (:mod:`sfpbench.server`).  Two client
threads each hold one persistent HTTP/1.1 connection (``http.client``, no
socket options set) and rotate evict -> admit -> modify over their own half
of the 200 tenants, each waiting for a reply before sending the next call.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from sfpbench import inputs, spans
from sfpbench.measure import Window
from sfpbench.server import SIZES
from sfpbench.workloads import Rotation

_now = time.perf_counter


def _request(kind: str, tenant: int, chain) -> tuple[str, str, bytes | None]:
    if kind == "evict":
        return "DELETE", f"/v1/tenants/{tenant}", None
    body = json.dumps({"sfc": chain.to_dict()}).encode()
    if kind == "admit":
        return "POST", "/v1/tenants", body
    return "PUT", f"/v1/tenants/{tenant}", body


class _Client:
    """One load thread's connection and rotation."""

    def __init__(self, address: str, rotation: Rotation) -> None:
        host, port = address.rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)
        self.rotation = rotation

    def op(self, window: Window, tracer) -> None:
        with spans.maybe_span(tracer, "bench.client"):
            kind, tenant, chain = self.rotation.next()
            method, path, body = _request(kind, tenant, chain)
            headers = {"Content-Type": "application/json"} if body else {}
        start = _now()
        with spans.maybe_span(tracer, "frontend.http"):
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        elapsed = _now() - start
        with spans.maybe_span(tracer, "bench.client"):
            ok = response.status == 200 and json.loads(raw).get("ok") is True
        window.record(kind, elapsed, ok)


class HttpChurn:
    THREADS = 2
    STRETCH_S = 2.0
    #: No scaling: a round trip crosses two processes and is mostly a fixed
    #: network stall, so it does not follow the host's speed.  The server
    #: scales its own probe times.
    gauge = None

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size_name = size
        self.size = SIZES[size]
        root = Path(__file__).resolve().parent.parent
        self.wal_dir = root / ".sfpbench" / f"wal-{os.getpid()}"
        self.server: subprocess.Popen | None = None
        self.clients: list[_Client] = []
        #: Failed gates found before the end of the run.
        self.problems: list[str] = []

    # -- server process ------------------------------------------------
    def _command(self, cmd: str) -> dict:
        self.server.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.server.stdin.flush()
        return self._read()

    def _read(self) -> dict:
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("the server process exited early")
        return json.loads(line)

    def setup(self) -> None:
        if self.wal_dir.exists():
            shutil.rmtree(self.wal_dir)
        self.wal_dir.mkdir(parents=True)
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "sfpbench.server",
                "--seed", str(self.seed), "--size", self.size_name,
                "--wal-dir", str(self.wal_dir),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        address = self._read()["address"]
        chains = inputs.make_chains(
            self.seed, inputs.CONTROL_CHAINS, self.size.tenants
        )
        half = inputs.POOL_SIZE // self.THREADS
        self.clients = [
            _Client(
                address,
                Rotation(
                    chains.replacement,
                    range(i, self.size.tenants, self.THREADS),
                    i * half,
                ),
            )
            for i in range(self.THREADS)
        ]
        warm = Window()
        for client in self.clients:
            for _ in range(self.size.warmup):
                client.op(warm, None)
        if warm.failed:
            raise RuntimeError(f"{warm.failed} warmup requests were refused")

    # -- run_window hooks --------------------------------------------
    def start_trace(self, tracer) -> None:
        self._command("trace")

    def stop_trace(self, window: Window) -> None:
        server = self._command("untrace")
        if server["requests"] != window.attempted:
            self.problems.append(
                f"server traced {server['requests']} requests, "
                f"clients sent {window.attempted}"
            )
        for name, value in server["self_s"].items():
            window.self_s[name] = window.self_s.get(name, 0.0) + value
        # The round trip's self time: what the server did not cover.
        window.self_s["frontend.http"] -= server["request_s"]
        window.calls.update(server["calls"])
        window.counts.update(server["counts"])

    def probe(self, window: Window) -> None:
        """One forwarding-probe round in the server."""
        probe = self._command("probe")
        window.packets += probe["packets"]
        window.batch_s += probe["batch_s"]

    def load(self, seconds: float, tracer, window: Window) -> None:
        """Run every client's closed loop for ``seconds`` into ``window``."""
        shares = [Window() for _ in self.clients]
        errors: list[BaseException] = []
        start = _now()
        deadline = start + seconds

        def run(client: _Client, share: Window) -> None:
            try:
                while _now() < deadline:
                    client.op(share, tracer)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=pair)
            for pair in zip(self.clients, shares)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.wall_s += _now() - start
        for share in shares:
            window.merge(share)
        if errors:
            raise errors[0]

    def finish(self) -> dict:
        result = self._command("stop")
        self.server.wait(timeout=60)
        result["problems"] = self.problems + result["problems"]
        return result

    def close(self) -> None:
        for client in self.clients:
            client.conn.close()
        if self.server is not None:
            if self.server.poll() is None:
                self.server.stdin.close()
                try:
                    self.server.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
            self.server.stdout.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)
