"""HTTP exposition: the stack's first network-facing observability surface.

A tiny stdlib-threaded HTTP server that publishes what PR 5 could only
write to files at end of run:

- ``/metrics``  — Prometheus text exposition (version 0.0.4) of a live
  :class:`~repro.monitor.metrics.MetricsRegistry` (or a callable
  returning a snapshot dict — the daemon's gateway view).
- ``/traces``   — recent committed span trees from a
  :class:`~repro.monitor.tracing.SpanTracer` as JSON
  (``?limit=N``, ``?format=chrome`` for a chrome://tracing export).
- ``/healthz``  — JSON liveness, 200 when ``ok`` is truthy else 503.

Deliberate scope limits: the server renders the *parent process*
registry only.  A full-topology merge
(:meth:`repro.serve.sharding.ShardedFleet.metrics_snapshot`) round-trips the
worker pipes, which are owned by the serving thread — scraping them
concurrently with traffic would interleave frames and corrupt the
stream.  Parent-side counters/histograms (gateway, batcher, wire
client, trace rollups) cover the live-scrape story; the end-of-run
``--metrics-json`` report still carries the merged topology view.

Serving uses :class:`http.server.ThreadingHTTPServer` on a daemon
thread — no new dependencies, one thread per in-flight scrape, and
``port=0`` binds an ephemeral port for tests.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .metrics import prometheus_text

__all__ = ["ExpositionServer", "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes one scrape; the owning server object rides on ``self.server``."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # quiet: scrapes are periodic noise
        pass

    def do_GET(self):  # noqa: N802 - http.server API name
        owner: ExpositionServer = self.server.owner
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/metrics":
            self._reply(200, PROMETHEUS_CONTENT_TYPE, owner.render_metrics().encode("utf-8"))
        elif route == "/traces":
            query = parse_qs(parsed.query)
            limit = None
            if "limit" in query:
                try:
                    limit = max(0, int(query["limit"][0]))
                except ValueError:
                    self._reply(400, "application/json", b'{"error": "limit must be an integer"}')
                    return
            chrome = query.get("format", [""])[0] == "chrome"
            body = json.dumps(owner.render_traces(limit=limit, chrome=chrome)).encode("utf-8")
            self._reply(200, "application/json", body)
        elif route == "/healthz":
            status = owner.render_health()
            code = 200 if status.get("ok") else 503
            self._reply(code, "application/json", json.dumps(status).encode("utf-8"))
        else:
            self._reply(404, "application/json", b'{"error": "not found"}')

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ExpositionServer:
    """Own one scrape endpoint for a registry and/or tracer.

    Parameters
    ----------
    metrics:
        A :class:`~repro.monitor.metrics.MetricsRegistry` (anything with
        ``to_prometheus()``), a zero-arg callable returning a snapshot
        dict (rendered via :func:`~repro.monitor.metrics.prometheus_text`),
        or ``None`` (``/metrics`` serves an empty exposition).
    tracer:
        Optional :class:`~repro.monitor.tracing.SpanTracer` backing
        ``/traces``.
    health:
        Optional zero-arg callable returning a JSON-safe dict with at
        least ``ok``; defaults to always-healthy.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port; read
        :attr:`port` / :attr:`url` after :meth:`start`.
    """

    def __init__(self, metrics=None, *, tracer=None, health=None, host: str = "127.0.0.1", port: int = 0):
        self.metrics = metrics
        self.tracer = tracer
        self.health = health
        self.host = host
        self._requested_port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> ExpositionServer:
        """Bind and serve on a daemon thread; returns self for chaining."""
        if self._server is not None:
            raise RuntimeError("exposition server already started")
        server = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        server.daemon_threads = True
        server.owner = self
        self._server = server
        self._thread = threading.Thread(target=server.serve_forever, name="exposition", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down and release the port (idempotent)."""
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> ExpositionServer:
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- rendering (also the unit-test surface, no HTTP needed) ---------
    def render_metrics(self) -> str:
        source = self.metrics
        if source is None:
            return ""
        if hasattr(source, "to_prometheus"):
            return source.to_prometheus()
        if callable(source):
            return prometheus_text(source() or {})
        return prometheus_text(source)

    def render_traces(self, limit: int | None = None, chrome: bool = False) -> dict:
        if self.tracer is None:
            return {"traceEvents": []} if chrome else {"traces": [], "summary": {}}
        if chrome:
            return self.tracer.to_chrome(limit=limit)
        return {"traces": self.tracer.trace_trees(limit=limit), "summary": self.tracer.counts()}

    def render_health(self) -> dict:
        if self.health is None:
            return {"ok": True}
        try:
            status = self.health()
        except Exception as exc:  # health probe itself failing is unhealthy
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if not isinstance(status, dict):
            return {"ok": bool(status)}
        return status
