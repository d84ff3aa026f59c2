"""The tenant-facing HTTP/JSON API server (stdlib ``http.server``).

:class:`FrontendServer` exposes the fabric's tenant lifecycle over a
small JSON protocol, with every request funnelled through the ordered
intent queue and executed by the shard worker pool — the HTTP layer adds
no ordering or locking of its own:

====== ================================ =====================================
verb   path                             meaning
====== ================================ =====================================
POST   ``/v1/tenants``                  admit (body: ``{"sfc": {...}}``)
DELETE ``/v1/tenants/<id>``             evict
PUT    ``/v1/tenants/<id>``             modify (body: ``{"sfc": {...}}``)
POST   ``/v1/switches/<name>/drain``    drain a switch
POST   ``/v1/switches/<name>/undrain``  return a switch to routing
POST   ``/v1/reoptimize``               fleet-wide re-optimization pass
GET    ``/healthz``                     liveness + HA role/epoch + queue depth
GET    ``/v1/summary``                  fabric occupancy summary (+ HA block)
GET    ``/v1/queue``                    queue + worker-pool snapshot
GET    ``/v1/metrics``                  fabric metrics snapshot
====== ================================ =====================================

Status codes carry the backpressure semantics: **200** for every decided
fabric op (including rejections — the body's ``ok``/``reason`` tell the
tenant why), **429** with a ``Retry-After`` header when the intent queue
refuses the submission (per-tenant FIFO or global bound full), **503**
once the server is draining for shutdown, **400** for malformed JSON and
**404** for unknown routes.  Under HA, writes on a standby — or on a
primary whose lease fence tripped — return **503** with the primary's URL
in both the ``Location`` header and the body, so clients redirect instead
of retrying a node that can never acknowledge.

Shutdown is graceful: :meth:`FrontendServer.close` stops accepting new
connections, drains the intent queue through the pool, and (when the
fabric has durability attached) takes a quiesce checkpoint — so a
restarted server recovers the exact committed state without replaying the
whole journal.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.spec import SFC
from repro.errors import (
    FencedError,
    FrontendError,
    PlacementError,
    QueueFullError,
    ReproError,
)
from repro.fabric.orchestrator import FabricOrchestrator
from repro.frontend.client import result_to_dict
from repro.frontend.queue import Intent, IntentQueue
from repro.frontend.workers import ShardWorkerPool


class _Handler(BaseHTTPRequestHandler):
    """Request parsing + dispatch; one instance per request (stdlib)."""

    server_version = "sfp-frontend/1.0"
    protocol_version = "HTTP/1.1"

    # The ThreadingHTTPServer subclass below carries the frontend ref.
    @property
    def frontend(self) -> "FrontendServer":
        return self.server.frontend  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the flight recorder and metrics are the log

    # -- plumbing ------------------------------------------------------
    def _send(self, code: int, body: dict, headers: dict | None = None) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise FrontendError(f"bad JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise FrontendError("JSON body must be an object")
        return body

    def _send_not_primary(self, error: str) -> None:
        """503 with the primary's location (HA): the client must redirect
        its writes — this node either is a standby or just lost the lease."""
        frontend = self.frontend
        frontend.fabric.metrics.inc("frontend.http_not_primary")
        body = {
            "error": error,
            "role": getattr(frontend.fabric, "role", "primary"),
        }
        headers: dict[str, str] = {}
        if frontend.primary_url:
            body["primary"] = frontend.primary_url
            headers["Location"] = frontend.primary_url
        self._send(503, body, headers)

    def _run_intent(self, intent: Intent) -> None:
        """Submit one intent and reply with its executed result."""
        frontend = self.frontend
        if getattr(frontend.fabric, "role", "primary") != "primary":
            self._send_not_primary(
                "this node is a standby; writes go to the primary"
            )
            return
        try:
            ticket = frontend.pool.submit(intent)
        except FencedError as exc:
            self._send_not_primary(str(exc))
            return
        except QueueFullError as exc:
            frontend.fabric.metrics.inc("frontend.http_backpressure")
            self._send(429, {"error": str(exc)}, {"Retry-After": "1"})
            return
        except FrontendError as exc:
            self._send(503, {"error": str(exc)})
            return
        try:
            result = ticket.result(frontend.request_timeout)
        except FencedError as exc:
            # The lease was lost between submit and commit: the WAL fence
            # killed the append, so the op was never journaled.
            self._send_not_primary(str(exc))
            return
        except ReproError as exc:
            self._send(500, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 — a worker bug must still
            # produce an HTTP response, not a dropped keep-alive connection
            frontend.fabric.metrics.inc("frontend.http_internal_errors")
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._send(200, result_to_dict(result))

    # -- routes --------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        try:
            if method == "GET":
                self._get(parts)
            elif method == "POST":
                self._post(parts)
            elif method == "PUT":
                self._put(parts)
            elif method == "DELETE":
                self._delete(parts)
            else:  # pragma: no cover — stdlib routes known verbs only
                self._send(405, {"error": f"unsupported method {method}"})
        except FrontendError as exc:
            self._send(400, {"error": str(exc)})
        except ReproError as exc:
            self._send(500, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — see _run_intent
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _get(self, parts: list[str]) -> None:
        frontend = self.frontend
        if parts == ["healthz"]:
            body = {
                "ok": True,
                "draining": frontend.draining,
                "queued": len(frontend.queue),
            }
            body.update(frontend.ha_status())
            self._send(200, body)
        elif parts == ["v1", "summary"]:
            body = dict(frontend.fabric.summary())
            body["ha"] = frontend.ha_status()
            self._send(200, body)
        elif parts == ["v1", "queue"]:
            self._send(200, frontend.pool.snapshot())
        elif parts == ["v1", "metrics"]:
            self._send(200, frontend.fabric.metrics_snapshot())
        else:
            self._send(404, {"error": f"no route GET /{'/'.join(parts)}"})

    def _post(self, parts: list[str]) -> None:
        if parts == ["v1", "tenants"]:
            sfc = self._parse_sfc(self._body())
            self._run_intent(
                Intent(kind="admit", tenant_id=sfc.tenant_id, sfc=sfc)
            )
        elif (
            len(parts) == 4
            and parts[:2] == ["v1", "switches"]
            and parts[3] in ("drain", "undrain")
        ):
            self._run_intent(Intent(kind=parts[3], switch=parts[2]))
        elif parts == ["v1", "reoptimize"]:
            self._reoptimize(self._body())
        else:
            self._send(404, {"error": f"no route POST /{'/'.join(parts)}"})

    def _reoptimize(self, body: dict) -> None:
        """Run one global re-optimization pass and reply with its summary.
        Cross-shard by construction, so it bypasses the per-shard intent
        queue and executes directly under the fabric-wide lock order (the
        same role gate as writes applies: standbys refuse)."""
        frontend = self.frontend
        if getattr(frontend.fabric, "role", "primary") != "primary":
            self._send_not_primary(
                "this node is a standby; writes go to the primary"
            )
            return
        mode = body.get("mode", "auto")
        if mode not in ("auto", "ilp", "greedy"):
            raise FrontendError(f"bad reoptimize mode {mode!r}")
        try:
            min_benefit = float(body.get("min_benefit", 0.5))
            max_moves = (
                int(body["max_moves"]) if "max_moves" in body else None
            )
        except (TypeError, ValueError) as exc:
            raise FrontendError(f"bad reoptimize body: {exc}") from None
        report = frontend.fabric.reoptimize(
            mode=mode,
            min_benefit=min_benefit,
            max_moves=max_moves,
            execute=bool(body.get("execute", True)),
        )
        self._send(200, {"ok": report.ok, **report.summary()})

    def _put(self, parts: list[str]) -> None:
        if len(parts) == 3 and parts[:2] == ["v1", "tenants"]:
            tenant_id = self._parse_tenant_id(parts[2])
            sfc = self._parse_sfc(self._body())
            self._run_intent(
                Intent(kind="modify", tenant_id=tenant_id, sfc=sfc)
            )
        else:
            self._send(404, {"error": f"no route PUT /{'/'.join(parts)}"})

    def _delete(self, parts: list[str]) -> None:
        if len(parts) == 3 and parts[:2] == ["v1", "tenants"]:
            tenant_id = self._parse_tenant_id(parts[2])
            self._run_intent(Intent(kind="evict", tenant_id=tenant_id))
        else:
            self._send(404, {"error": f"no route DELETE /{'/'.join(parts)}"})

    # -- parsing -------------------------------------------------------
    @staticmethod
    def _parse_tenant_id(raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise FrontendError(f"bad tenant id {raw!r}") from None

    @staticmethod
    def _parse_sfc(body: dict) -> SFC:
        record = body.get("sfc")
        if not isinstance(record, dict):
            raise FrontendError('body needs an "sfc" object')
        try:
            return SFC.from_dict(record)
        except (KeyError, TypeError, ValueError, PlacementError) as exc:
            raise FrontendError(f"bad sfc: {exc}") from None

    def do_GET(self) -> None:  # noqa: N802 — stdlib handler contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, frontend: "FrontendServer") -> None:
        super().__init__(address, _Handler)
        self.frontend = frontend


class FrontendServer:
    """The API server: HTTP listener + intent queue + shard worker pool.

    Construct, :meth:`start`, drive (HTTP or the in-process client
    against :attr:`pool`), :meth:`close`.  Also usable as a context
    manager.  ``port=0`` binds an ephemeral port (tests);
    :attr:`address` reports the bound ``host:port``.
    """

    def __init__(
        self,
        fabric: FabricOrchestrator,
        host: str = "127.0.0.1",
        port: int = 8080,
        queue: IntentQueue | None = None,
        request_timeout: float = 30.0,
        primary_url: str | None = None,
        fence=None,
    ) -> None:
        """HA deployments pass ``fence`` (the lease coordinator's
        ``check_fence``, installed on the worker pool so a deposed
        primary's writes 503 at the door) and — on standbys — the
        ``primary_url`` clients are redirected to."""
        self.fabric = fabric
        self.queue = queue if queue is not None else IntentQueue()
        self.pool = ShardWorkerPool(fabric, queue=self.queue, fence=fence)
        self.request_timeout = request_timeout
        self.primary_url = primary_url
        self._httpd = _Server((host, port), self)
        self._serve_thread: threading.Thread | None = None
        self.draining = False

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def ha_status(self) -> dict:
        """Role, fencing epoch, and committed LSN — merged into
        ``/healthz`` and ``/v1/summary`` so operators (and failover
        tooling) can read a node's HA position off either endpoint."""
        durability = self.fabric.durability
        status = {
            "role": getattr(self.fabric, "role", "primary"),
            "epoch": getattr(self.fabric, "epoch", 0),
            "committed_lsn": (
                durability.wal.last_lsn if durability is not None else 0
            ),
        }
        if self.primary_url:
            status["primary"] = self.primary_url
        return status

    @property
    def url(self) -> str:
        return f"http://{self.address}"

    def start(self) -> "FrontendServer":
        """Start the worker pool and the HTTP accept loop (both in
        background threads); returns self for chaining."""
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="sfp-frontend-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def close(self, timeout: float | None = 30.0) -> None:
        """Graceful shutdown: refuse new intents, drain the backlog, stop
        the workers, stop the listener, and take a quiesce checkpoint when
        durability is attached."""
        if self.draining:
            return
        self.draining = True
        self.queue.drain()
        self.pool.stop(timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout)
        if self.fabric.durability is not None:
            self.fabric.durability.checkpoint(self.fabric)

    def __enter__(self) -> "FrontendServer":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.close()
