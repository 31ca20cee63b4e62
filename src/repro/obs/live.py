"""Live telemetry over HTTP: /metrics, /snapshot.json, /healthz.

A :class:`TelemetryServer` runs a stdlib ``http.server`` in a daemon
thread beside any simulation (``simulate --serve-metrics PORT`` wires
it up from the CLI), exposing:

``/metrics``
    Prometheus text format, histograms rendered on the *fixed* bucket
    boundaries :data:`~repro.obs.metrics.DEFAULT_EXPORT_BUCKETS`, so
    scraped series never drift between scrapes.
``/snapshot.json``
    The full exact-count registry snapshot (``metrics``) plus the
    watchdog's latest health report (``health``).  Run facts reach it
    the way they reach ``/metrics``: as samples a source's
    ``metrics()`` reports.
``/healthz``
    The SLO watchdog's folded state -- HTTP 200 for ``ok`` /
    ``degraded``, 503 for ``failing`` -- so an orchestrator's liveness
    probe sees SLO violations, not just process existence.

Thread-safety: the simulation thread publishes into the registry while
the server thread renders it.  Both sides take :attr:`TelemetryServer.
lock` -- publishers wrap their ``publish()`` calls in ``with
server.lock:``; the handler wraps rendering.  The registry itself is
not locked internally (the hot path never touches it; only periodic
publish events do).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import urlsplit

from .metrics import MetricsRegistry

__all__ = ["TelemetryServer"]


class TelemetryServer:
    """Serves a :class:`MetricsRegistry` (and watchdog) over HTTP."""

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        watchdog: Optional[object] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.registry = registry
        self.watchdog = watchdog
        self.host = host
        self.port = port
        self.clock = clock
        #: Publishers must hold this around registry writes; the
        #: handler holds it around rendering.
        self.lock = threading.Lock()
        self.request_count = 0
        self.requests_by_path: Dict[str, int] = {}
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port."""
        if self._httpd is not None:
            raise RuntimeError("telemetry server already started")
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                server._handle(self)

            def log_message(self, *args) -> None:
                pass  # no per-request stderr chatter beside a sim

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- rendering (all under self.lock) -------------------------------

    def _now(self) -> float:
        clock = self.clock
        return clock() if clock is not None else 0.0

    def render_metrics(self) -> str:
        return self.registry.to_prometheus()

    def render_snapshot(self) -> Dict[str, Any]:
        snapshot: Dict[str, Any] = {"metrics": self.registry.snapshot()}
        if self.watchdog is not None:
            report = self.watchdog.evaluate(
                snapshot["metrics"], now=self._now()
            )
            snapshot["health"] = report.to_dict()
        return snapshot

    def render_health(self) -> Tuple[int, Dict[str, Any]]:
        if self.watchdog is None:
            return 200, {"state": "ok", "rules": [],
                         "detail": "no watchdog attached"}
        report = self.watchdog.evaluate(
            self.registry.snapshot(), now=self._now()
        )
        status = 503 if report.state == "failing" else 200
        return status, report.to_dict()

    # -- request handling ----------------------------------------------

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        path = urlsplit(handler.path).path
        with self.lock:
            self.request_count += 1
            self.requests_by_path[path] = (
                self.requests_by_path.get(path, 0) + 1
            )
            try:
                if path == "/metrics":
                    body = self.render_metrics().encode("utf-8")
                    content_type = (
                        "text/plain; version=0.0.4; charset=utf-8"
                    )
                    status = 200
                elif path in ("/snapshot.json", "/snapshot"):
                    body = json.dumps(
                        self.render_snapshot(), indent=2
                    ).encode("utf-8")
                    content_type = "application/json"
                    status = 200
                elif path == "/healthz":
                    status, payload = self.render_health()
                    body = json.dumps(payload, indent=2).encode("utf-8")
                    content_type = "application/json"
                else:
                    status = 404
                    body = json.dumps({
                        "error": f"unknown path {path!r}",
                        "paths": ["/metrics", "/snapshot.json", "/healthz"],
                    }).encode("utf-8")
                    content_type = "application/json"
            except Exception as exc:  # render bug: report, don't hang
                status = 500
                body = json.dumps({"error": str(exc)}).encode("utf-8")
                content_type = "application/json"
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)
