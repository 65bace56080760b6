"""Threaded HTTP query server over one shared :class:`IndexedWarehouse`.

Stdlib-only (``http.server``): one engine instance is shared by every
request thread — the snapshot buffer is immutable and the carrier cache
locks internally, so concurrent queries are answered from one warm cache.

Endpoints (JSON unless noted):

- ``GET /healthz`` — liveness + identity: uptime seconds, serving
  backend/kind, snapshot path, engine generation;
- ``GET /stats`` — engine counters (backend, cache hits/misses, queries
  served, per-query breakdown, snapshot size) plus per-endpoint request
  latency percentiles;
- ``GET /metrics`` — Prometheus text exposition (format 0.0.4): the
  process-wide :mod:`repro.obs.metrics` registry (request histograms,
  in-flight gauge, engine route counters, triangle/build counters) plus
  engine-level gauges collected from :meth:`IndexedWarehouse.stats` at
  scrape time;
- ``GET /query?alpha=0.2&pattern=3,7`` — one ``(q, α)`` answer in
  :meth:`QueryAnswer.to_payload` form; omit ``pattern`` for ``q = S``;
- ``POST /query`` with body ``{"queries": [{"pattern": [3,7]|null,
  "alpha": 0.2}, ...]}`` — batched execution against the shared cache;
- ``GET /top-k?k=5&alpha=0.2&pattern=3,7&min-size=3`` — the k
  best-scoring theme communities of the answer;
- ``GET /search?vertices=1,2&attributes=3,7&alpha=0.2&limit=5`` —
  attributed community search (ATC-style): communities containing every
  query vertex, themed within the query attributes, best-first;
- ``POST /admin/apply-delta`` with body ``{"path": "X.tcdelta"}`` —
  live-tier only (``repro serve --live``): hand an overlay delta
  snapshot to the server's :class:`~repro.serve.live.LiveIndex`, which
  applies it and hot-swaps the engine onto the new generation; responds
  with ``{"generation", "removed", "changed", "compacted"}``.

Error responses are structured: ``{"error": message, "code": stable
machine code, "type": exception class name}`` with 404 for unknown
endpoints, 400 for invalid requests (:mod:`repro.errors` taxonomy and
parse failures), 413 for a POST body over :data:`MAX_BODY_BYTES`, and
500 for everything else. A POST body the server cannot frame (chunked,
or a malformed or negative ``Content-Length``) or will not read (over
the cap) is left unread, so that response closes the connection.

Each response leaves in one write — status line, headers and body — on
a socket with Nagle's algorithm off. Sent as two writes with Nagle on,
the body waits behind the header segment for the client's delayed ACK
(~40 ms on Linux), which the request metrics never see.

Run it with ``repro serve INDEX [--host H] [--port P] [--cache-size N]``
(accepts both binary snapshots and JSON warehouse documents).
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    BadRequestError,
    PayloadTooLargeError,
    ReproError,
    ServeError,
    UnknownEndpointError,
)
from repro.obs.metrics import (
    EXPOSITION_CONTENT_TYPE,
    default_registry,
    format_sample,
)
from repro.serve.engine import IndexedWarehouse

#: Endpoint label whitelist: request metrics label by these, and any
#: other path collapses to "other" so scanners cannot explode the
#: per-label cardinality of the request counter.
KNOWN_ENDPOINTS = frozenset(
    {
        "/healthz",
        "/stats",
        "/metrics",
        "/query",
        "/top-k",
        "/search",
        "/admin/apply-delta",
    }
)

#: Largest POST body the server reads (1 MiB); a longer declared
#: ``Content-Length`` is refused with 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20

_REQUEST_SECONDS = "repro_http_request_seconds"
_REQUESTS_TOTAL = "repro_http_requests_total"
_INFLIGHT = "repro_http_inflight_requests"


def _parse_pattern(text: str | None):
    if text is None or text == "":
        return None
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise BadRequestError(
            f"pattern must be comma-separated integers, got {text!r}"
        ) from None


def _parse_float(params: dict, name: str, default: float) -> float:
    raw = params.get(name, [None])[0]
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise BadRequestError(f"{name} must be a number, got {raw!r}") from None
    return _finite(value, name)


def _finite(value: float, name: str) -> float:
    # The engine rejects a non-finite alpha too; checking at parse time
    # names the parameter and skips the engine, as for every bad value.
    if not math.isfinite(value):
        raise BadRequestError(f"{name} must be finite, got {value!r}")
    return value


def _parse_int(params: dict, name: str, default: int) -> int:
    raw = params.get(name, [None])[0]
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise BadRequestError(f"{name} must be an integer, got {raw!r}") from None


def _community_payload(community) -> dict:
    return {
        "pattern": list(community.pattern),
        "alpha": community.alpha,
        "size": community.size,
        "members": sorted(community.members),
    }


def _error_shape(exc: BaseException) -> tuple[int, str]:
    """HTTP status + stable machine ``code`` for an exception."""
    if isinstance(exc, UnknownEndpointError):
        return 404, "not_found"
    if isinstance(exc, PayloadTooLargeError):
        return 413, "payload_too_large"
    if isinstance(exc, (ValueError, KeyError, TypeError, ReproError)):
        return 400, "bad_request"
    return 500, "internal_error"


class WarehouseRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the server's shared engine."""

    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted connection (StreamRequestHandler).
    disable_nagle_algorithm = True
    server: "ThemeCommunityServer"

    # ------------------------------------------------------------------
    def _send_body(
        self, body: bytes, content_type: str, status: int
    ) -> None:
        self._response_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would flush the header block as a write of its
        # own, and the body would wait behind it for the client's
        # delayed ACK. Send both in one write instead: the stdlib
        # buffers headers in _headers_buffer (none for HTTP/0.9).
        parts = getattr(self, "_headers_buffer", [])
        self._headers_buffer = []
        if parts:
            parts.append(b"\r\n")
        parts.append(body)
        self.wfile.write(b"".join(parts))

    def _send_json(self, payload: dict | list, status: int = 200) -> None:
        self._send_body(
            json.dumps(payload).encode("utf-8"), "application/json", status
        )

    def _send_error_json(self, exc: BaseException) -> None:
        status, code = _error_shape(exc)
        try:
            self._send_json(
                {
                    "error": str(exc),
                    "code": code,
                    "type": type(exc).__name__,
                },
                status=status,
            )
        except OSError:
            # The client is gone (broken pipe mid-response); the request
            # metrics below still record the failure status.
            self._response_status = status

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._instrumented("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._instrumented("POST", self._route_post)

    def _instrumented(self, method: str, route) -> None:
        """Run one request with in-flight/latency/status accounting."""
        url = urlsplit(self.path)
        endpoint = url.path if url.path in KNOWN_ENDPOINTS else "other"
        registry = default_registry()
        inflight = registry.gauge(
            _INFLIGHT, help="HTTP requests currently being handled."
        )
        inflight.inc()
        self._response_status = 200
        start = time.perf_counter()
        try:
            try:
                route(url, parse_qs(url.query))
            except Exception as exc:
                self._send_error_json(exc)
        finally:
            elapsed = time.perf_counter() - start
            inflight.dec()
            registry.histogram(
                _REQUEST_SECONDS,
                help="HTTP request handling latency.",
                method=method,
                endpoint=endpoint,
            ).observe(elapsed)
            registry.counter(
                _REQUESTS_TOTAL,
                help="HTTP requests handled, by endpoint and status.",
                method=method,
                endpoint=endpoint,
                status=str(self._response_status),
            ).inc()

    # ------------------------------------------------------------------
    def _route_get(self, url, params: dict) -> None:
        if url.path == "/healthz":
            self._send_json(self._healthz_payload())
        elif url.path == "/stats":
            self._send_json(self._stats_payload())
        elif url.path == "/metrics":
            self._send_body(
                self._metrics_text().encode("utf-8"),
                EXPOSITION_CONTENT_TYPE,
                200,
            )
        elif url.path == "/query":
            answer = self.server.engine.query(
                pattern=_parse_pattern(params.get("pattern", [None])[0]),
                alpha=_parse_float(params, "alpha", 0.0),
            )
            self._send_json(answer.to_payload())
        elif url.path == "/top-k":
            communities = self.server.engine.top_k(
                k=_parse_int(params, "k", 10),
                pattern=_parse_pattern(params.get("pattern", [None])[0]),
                alpha=_parse_float(params, "alpha", 0.0),
                min_size=_parse_int(params, "min-size", 3),
            )
            self._send_json(
                {
                    "k": len(communities),
                    "communities": [
                        _community_payload(c) for c in communities
                    ],
                }
            )
        elif url.path == "/search":
            vertices = _parse_pattern(params.get("vertices", [None])[0])
            if vertices is None:
                raise BadRequestError(
                    "vertices is required (comma-separated ids)"
                )
            attributes = _parse_pattern(
                params.get("attributes", [None])[0]
            )
            if attributes is None:
                raise BadRequestError(
                    "attributes is required (comma-separated ids)"
                )
            matches = self.server.engine.search(
                vertices,
                attributes,
                alpha=_parse_float(params, "alpha", 0.0),
                limit=_parse_int(params, "limit", 0) or None,
            )
            self._send_json(
                {
                    "matches": [
                        {
                            "pattern": list(match.pattern),
                            "coverage": match.coverage,
                            "strength": match.strength,
                            "community": _community_payload(
                                match.community
                            ),
                        }
                        for match in matches
                    ]
                }
            )
        else:
            raise UnknownEndpointError(f"unknown endpoint {url.path}")

    def _read_body(self) -> bytes:
        """The POST body, framed by its one ``Content-Length``.

        HTTP/1.1 keeps connections alive, so the body must be drained
        even on error paths — leftover bytes would be parsed as the
        start of the next request on a pooled connection. A body that
        cannot be framed or is over the cap is not read at all, so the
        connection closes after the error response instead.
        """
        raw = ",".join(self.headers.get_all("Content-Length", ["0"])).strip()
        try:
            if "Transfer-Encoding" in self.headers:
                raise BadRequestError(
                    "Transfer-Encoding is not supported; "
                    "send the body with a Content-Length"
                )
            if not (raw.isascii() and raw.isdigit()):
                raise BadRequestError(
                    "Content-Length must be one non-negative integer, "
                    f"got {raw[:40]!r}"
                )
            # The length test keeps int() clear of its 4300-digit limit.
            if len(raw) > 18 or int(raw) > MAX_BODY_BYTES:
                raise PayloadTooLargeError(
                    f"request body of {raw[:40]} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
        except BadRequestError:
            self.close_connection = True
            raise
        return self.rfile.read(int(raw))

    def _route_post(self, url, params: dict) -> None:
        body = self._read_body()
        if url.path == "/admin/apply-delta":
            self._apply_delta(body)
            return
        if url.path != "/query":
            raise UnknownEndpointError(f"unknown endpoint {url.path}")
        document = json.loads(body or b"{}")
        if not isinstance(document, dict):
            raise BadRequestError('body must be an object with a "queries" list')
        queries = document.get("queries")
        if not isinstance(queries, list):
            raise BadRequestError('body must carry a "queries" list')
        specs = []
        for entry in queries:
            if not isinstance(entry, dict):
                raise BadRequestError(
                    f"each query must be an object, got {entry!r}"
                )
            pattern = entry.get("pattern")
            if pattern is not None:
                # Same coercion as GET's _parse_pattern: item ids
                # must be integers (a bare string would otherwise
                # iterate into characters and silently prune all).
                if isinstance(pattern, str) or not isinstance(
                    pattern, (list, tuple)
                ):
                    raise BadRequestError(
                        f"pattern must be a list of item ids, "
                        f"got {pattern!r}"
                    )
                pattern = tuple(int(item) for item in pattern)
            specs.append(
                (
                    pattern,
                    _finite(float(entry.get("alpha", 0.0)), "alpha"),
                )
            )
        answers = self.server.engine.query_batch(specs)
        self._send_json(
            {"answers": [answer.to_payload() for answer in answers]}
        )

    def _apply_delta(self, body: bytes) -> None:
        live = self.server.live
        if live is None:
            raise ServeError(
                "delta ingestion is disabled; start with repro serve --live"
            )
        document = json.loads(body or b"{}")
        if not isinstance(document, dict) or "path" not in document:
            raise BadRequestError('body must be an object with a "path" field')
        self._send_json(live.apply_delta(document["path"]))

    # ------------------------------------------------------------------
    def _healthz_payload(self) -> dict:
        engine = self.server.engine
        payload: dict = {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self.server.started,
            "backend": engine.backend,
            "kind": engine.kind,
            "generation": engine.generation,
        }
        info = engine.stats()
        if "snapshot_path" in info:
            payload["snapshot_path"] = info["snapshot_path"]
        return payload

    def _stats_payload(self) -> dict:
        info = self.server.engine.stats()
        info["uptime_seconds"] = time.monotonic() - self.server.started
        endpoints: dict[str, dict] = {}
        for key, histogram in (
            default_registry().histograms(_REQUEST_SECONDS).items()
        ):
            labels = dict(key)
            label = (
                f"{labels.get('method', '?')} "
                f"{labels.get('endpoint', '?')}"
            )
            summary = histogram.percentiles()
            summary["count"] = histogram.count
            endpoints[label] = summary
        info["endpoints"] = endpoints
        if self.server.live is not None:
            info["live"] = self.server.live.stats()
        return info

    def _metrics_text(self) -> str:
        """Registry exposition + engine gauges collected at scrape time.

        Engine-level values (cache hit/miss, queries served, traversal
        breakdown) live in the engine's own locked counters; rendering
        them here as collector samples avoids double-bookkeeping every
        increment into two places.
        """
        info = self.server.engine.stats()
        cache = info["cache"]
        breakdown = info.get("query_breakdown", {})
        lines = [
            "# HELP repro_engine_queries_served_total "
            "Queries answered by the shared engine.",
            "# TYPE repro_engine_queries_served_total counter",
            format_sample(
                "repro_engine_queries_served_total",
                {},
                info["queries_served"],
            ),
            "# HELP repro_engine_cache_lookups_total "
            "Carrier-cache lookups, by outcome.",
            "# TYPE repro_engine_cache_lookups_total counter",
            format_sample(
                "repro_engine_cache_lookups_total",
                {"outcome": "hit"},
                cache["hits"],
            ),
            format_sample(
                "repro_engine_cache_lookups_total",
                {"outcome": "miss"},
                cache["misses"],
            ),
            "# HELP repro_engine_cache_entries Decoded carriers cached.",
            "# TYPE repro_engine_cache_entries gauge",
            format_sample(
                "repro_engine_cache_entries", {}, cache["entries"]
            ),
            "# HELP repro_engine_generation Engine snapshot generation.",
            "# TYPE repro_engine_generation gauge",
            format_sample(
                "repro_engine_generation", {}, info["generation"]
            ),
            "# HELP repro_engine_indexed_trusses "
            "Maximal pattern trusses indexed by the serving snapshot.",
            "# TYPE repro_engine_indexed_trusses gauge",
            format_sample(
                "repro_engine_indexed_trusses",
                {},
                info["indexed_trusses"],
            ),
            "# HELP repro_engine_query_nodes_total "
            "Query traversal outcomes, by node disposition.",
            "# TYPE repro_engine_query_nodes_total counter",
        ]
        for outcome, field in (
            ("visited", "visited_nodes"),
            ("pruned_pattern", "pruned_pattern"),
            ("pruned_alpha", "pruned_alpha"),
            ("retrieved", "retrieved_nodes"),
        ):
            lines.append(
                format_sample(
                    "repro_engine_query_nodes_total",
                    {"outcome": outcome},
                    breakdown.get(field, 0),
                )
            )
        lines.extend(
            [
                "# HELP repro_engine_query_phase_seconds_total "
                "Query wall time, split by phase.",
                "# TYPE repro_engine_query_phase_seconds_total counter",
                format_sample(
                    "repro_engine_query_phase_seconds_total",
                    {"phase": "toc"},
                    breakdown.get("toc_seconds", 0.0),
                ),
                format_sample(
                    "repro_engine_query_phase_seconds_total",
                    {"phase": "decode"},
                    breakdown.get("decode_seconds", 0.0),
                ),
            ]
        )
        return default_registry().render() + "\n".join(lines) + "\n"

    # Quiet by default: the serving benchmark and the concurrency tests
    # hammer the endpoint, and per-request stderr lines drown real logs.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class ThemeCommunityServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared engine."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: IndexedWarehouse,
        verbose: bool = False,
        live=None,
    ) -> None:
        super().__init__(address, WarehouseRequestHandler)
        self.engine = engine
        self.verbose = verbose
        #: Optional :class:`~repro.serve.live.LiveIndex` writer; when set
        #: the ``/admin/apply-delta`` endpoint is enabled.
        self.live = live
        #: Monotonic bind time; /healthz and /stats report uptime from it.
        self.started = time.monotonic()


def create_server(
    engine: IndexedWarehouse,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    live=None,
) -> ThemeCommunityServer:
    """Bind a server on ``(host, port)`` (port 0 = ephemeral)."""
    return ThemeCommunityServer(
        (host, port), engine, verbose=verbose, live=live
    )


def start_server_thread(
    engine: IndexedWarehouse,
    host: str = "127.0.0.1",
    port: int = 0,
    live=None,
) -> tuple[ThemeCommunityServer, threading.Thread]:
    """Run a server in a daemon thread; returns ``(server, thread)``.

    Test/benchmark helper: the caller reads the bound port from
    ``server.server_address`` and must call ``server.shutdown()``.
    """
    server = create_server(engine, host=host, port=port, live=live)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


__all__ = [
    "KNOWN_ENDPOINTS",
    "MAX_BODY_BYTES",
    "WarehouseRequestHandler",
    "ThemeCommunityServer",
    "create_server",
    "start_server_thread",
]
