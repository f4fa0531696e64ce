"""A small stdlib HTTP front-end for :class:`RecommendationEngine`.

No web framework — ``http.server`` is enough for a reference serving
implementation and keeps the repo dependency-free.  Endpoints:

* ``POST /recommend`` — body is one request object
  (``{"user": 42, "k": 10}`` or ``{"sequence": [3, 1, 7]}``).
* ``POST /recommend/batch`` — body is ``{"requests": [...]}``; the
  whole batch is scored in one engine call (one micro-batched encode).
  Per-item failures are reported in place (``"reason"`` codes) rather
  than failing the batch.
* ``POST /admin/reload`` — hot-swap model weights from a checkpoint
  (body ``{"checkpoint": path}``; defaults to the path the engine was
  loaded from).  See :meth:`RecommendationEngine.swap_model`.
* ``GET /metrics`` — the :class:`~repro.serve.metrics.ServingMetrics`
  snapshot as JSON.
* ``GET /health`` — liveness probe with model/catalogue/resilience info.

Requests are handled on threads (``ThreadingHTTPServer``) but scoring
is serialized through one lock: the numpy engine is CPU-bound anyway,
and the engine's caches are not thread-safe.  Because of that lock, the
server *sheds* load instead of queueing it invisibly: beyond
``max_inflight`` concurrently admitted scoring requests, clients get a
structured 503 with a ``Retry-After`` hint (see
:class:`~repro.serve.resilience.AdmissionController`).

Every error — on GET and POST alike, and the ones ``http.server``
answers on its own (unparsable request line, oversize headers, a method
without a ``do_*``) — is a structured JSON envelope
``{"error": <human text>, "reason": <machine code>}``; the full
status/reason decision table lives in ``docs/SERVING.md``.

There is one reply path, ``Handler._reply``: status line, headers and
body are assembled and handed to the socket by a single ``sendall``,
and accepted sockets carry ``TCP_NODELAY``.  A reply written as two
segments (headers flushed, then body) meets the delayed ACK of a
keep-alive client and stalls ≈ 40 ms per request; one write cannot.
A reply sent without the request's declared body having been read to
its end (refused, truncated, length unknown) says ``Connection: close``
and ends the connection, so leftover body bytes are never parsed as the
next request.

The request head is read without the stdlib's ``email`` parser:
``Handler.parse_request`` keeps ``http.server``'s request-line rules and
status codes and reads the header block into a small case-insensitive
mapping.  Framing it cannot read one way only — conflicting
``Content-Length`` values, an obs-fold continuation line, a header line
with no colon — is a 400 that closes the connection (RFC 9112 §6.3), so
no body can be read as a smuggled second request.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.nn.serialization import CheckpointError
from repro.serve.engine import ModelSwapError, RecommendationEngine
from repro.serve.requests import RecRequest, RequestError
from repro.serve.resilience import (
    REASON_BAD_REQUEST,
    AdmissionController,
    ServingUnavailable,
)

#: Refuse request bodies beyond this size (1 MiB) to bound memory.
MAX_BODY_BYTES = 1 << 20

#: Longest header line and most header lines per request; beyond either
#: the request is a 431 (``http.server`` refuses a longer request line
#: with a 414 before the headers are read).
MAX_LINE_BYTES = 65536
MAX_HEADER_LINES = 100

#: Machine-readable reason codes used directly by the HTTP layer
#: (engine-level codes live in :mod:`repro.serve.resilience`).
REASON_BODY_TOO_LARGE = "body_too_large"
REASON_SWAP_FAILED = "swap_failed"
REASON_INTERNAL = "internal"
REASON_NOT_FOUND = "not_found"
REASON_UNSUPPORTED_METHOD = "unsupported_method"


class UnreadBody(RequestError):
    """The declared request body was not read to its end.

    Refused, cut short, or of unknown length (malformed
    ``Content-Length``, ``Transfer-Encoding``): whatever is left of it
    would be parsed as the next request line, so the 400 reply says
    ``Connection: close`` and the connection ends.
    """


class BodyTooLarge(UnreadBody):
    """Request body exceeds :data:`MAX_BODY_BYTES`; mapped to HTTP 413."""


class _HeadRefused(Exception):
    """A request head the server will not read; carries the reply status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Headers(dict):
    """Request header fields keyed by lower-cased name; lookups ignore case."""

    __slots__ = ()

    def __contains__(self, name: str) -> bool:
        return dict.__contains__(self, name.lower())

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


def _http_version(word: str) -> tuple[int, int] | None:
    """``HTTP/<major>.<minor>`` as two integers by ``http.server``'s rules
    (one dot, ASCII digits, at most 10 of them each), else ``None``."""
    if not word.startswith("HTTP/"):
        return None
    parts = word[5:].split(".")
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


def _read_headers(rfile) -> _Headers:
    """The header block up to its blank line, as a :class:`_Headers`.

    The first occurrence of a repeated field wins, except that a second
    ``Content-Length`` with another value is refused: a reader taking
    either value would frame the body differently from one taking the
    other.  Obs-fold continuation lines and lines with no colon are
    refused for the same reason.
    """
    headers = _Headers()
    for __ in range(MAX_HEADER_LINES + 1):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _HeadRefused(431, "Line too long")
        if line in (b"\r\n", b"\n", b""):
            return headers
        if line[0] in b" \t":
            raise _HeadRefused(400, "obsolete line folding in the request headers")
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or not name or name.rstrip() != name:
            raise _HeadRefused(400, f"malformed header line {line.rstrip()!r}")
        key, value = name.lower(), value.strip()
        first = headers.setdefault(key, value)
        if key == "content-length" and first != value:
            raise _HeadRefused(
                400, f"conflicting Content-Length values {first!r} and {value!r}"
            )
    raise _HeadRefused(431, f"more than {MAX_HEADER_LINES} header lines")


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` value for a whole second, formatted once per second."""
    year, month, day, hour, minute, sec, weekday, __, __ = time.gmtime(second)
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        BaseHTTPRequestHandler.weekdayname[weekday], day,
        BaseHTTPRequestHandler.monthname[month], year, hour, minute, sec,
    )


class CheckpointWatcher(threading.Thread):
    """Poll a checkpoint directory and hot-reload newer steps.

    The deployment story behind ``repro serve --watch-checkpoints``: a
    trainer writes rotated archives into a
    :class:`~repro.runtime.checkpointing.CheckpointManager` directory
    while the server polls ``latest_step()``; when a newer step
    appears, the server swaps it in behind its request lock.  Failed
    swaps (corrupt archive, probe failure) leave the old weights
    serving and are not retried until an even newer step shows up —
    the failure is visible in the ``model_swap_failures`` counter.
    """

    def __init__(
        self,
        server: "RecommendationServer",
        directory: str,
        interval_s: float = 2.0,
    ) -> None:
        super().__init__(name="checkpoint-watcher", daemon=True)
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.server = server
        self.directory = directory
        self.interval_s = interval_s
        self._stop = threading.Event()
        # Steps already on disk are what the engine serves (or chose to
        # skip) — only steps appearing after the watcher starts trigger
        # a reload.
        from repro.runtime.checkpointing import CheckpointManager

        try:
            self._seen_step: int | None = CheckpointManager(
                directory
            ).latest_step()
        except OSError:
            self._seen_step = None

    def run(self) -> None:
        from repro.runtime.checkpointing import CheckpointManager

        manager = CheckpointManager(self.directory)
        while not self._stop.is_set():
            self.poll_once(manager)
            self._stop.wait(self.interval_s)

    def poll_once(self, manager=None) -> bool:
        """One poll step (separated out for deterministic tests)."""
        if manager is None:
            from repro.runtime.checkpointing import CheckpointManager

            manager = CheckpointManager(self.directory)
        try:
            latest = manager.latest_step()
        except OSError:
            return False
        if latest is None or latest == self._seen_step:
            return False
        self._seen_step = latest
        try:
            self.server.reload(str(manager.path_for(latest)))
        except (CheckpointError, ModelSwapError, OSError):
            return False  # old weights keep serving; counter records it
        return True

    def stop(self) -> None:
        self._stop.set()


class RecommendationServer:
    """Serve an engine over HTTP (see module docstring for endpoints)."""

    def __init__(
        self,
        engine: RecommendationEngine,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_inflight: int = 64,
        retry_after_s: float = 1.0,
    ) -> None:
        self.engine = engine
        # Single-process engines are not safe for concurrent scoring,
        # so requests serialize behind one lock; a thread-safe engine
        # (the sharded worker pool) serves HTTP threads concurrently.
        self._lock = (
            nullcontext()
            if getattr(engine, "thread_safe", False)
            else threading.Lock()
        )
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            retry_after_s=retry_after_s,
            metrics=engine.metrics,
        )
        engine.metrics.touch("requests_shed")
        self._watcher: CheckpointWatcher | None = None
        self._serving = threading.Event()
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (useful with ``port=0``)."""
        return self.httpd.server_address[:2]

    def _now(self) -> float:
        """Monotonic arrival stamp on the engine's (possibly fake) clock."""
        policy = self.engine.policy
        return policy.clock() if policy is not None else time.monotonic()

    def handle_single(self, payload: dict, started: float | None = None) -> dict:
        """Score one request object (the ``/recommend`` body)."""
        request = RecRequest.from_dict(payload)
        with self.admission.admit():
            with self._lock:
                result = self.engine.recommend_batch(
                    [request], started=started
                )[0]
        return result.to_dict()

    def handle_batch(self, payload: dict, started: float | None = None) -> dict:
        """Score a ``{"requests": [...]}`` batch in one engine call.

        Individual failures (malformed item, unknown user, blown
        deadline) come back as per-item ``{"error", "reason"}`` entries
        so one poisoned item cannot fail its neighbours.
        """
        if not isinstance(payload, dict) or "requests" not in payload:
            raise RequestError('batch body must be {"requests": [...]}')
        items = payload["requests"]
        if not isinstance(items, list):
            raise RequestError('"requests" must be a list')
        entries: list = [None] * len(items)  # reply slots, item order
        requests, slots = [], []
        for slot, item in enumerate(items):
            try:
                requests.append(RecRequest.from_dict(item))
                slots.append(slot)
            except RequestError as error:
                entries[slot] = {
                    "error": str(error), "reason": REASON_BAD_REQUEST
                }
        with self.admission.admit():
            with self._lock:
                results = self.engine.recommend_batch(
                    requests, started=started, on_error="report"
                )
        for slot, result in zip(slots, results):
            entries[slot] = result.to_dict()
        return {"results": entries}

    def reload(self, checkpoint: str | None = None) -> dict:
        """Hot-swap model weights (the ``/admin/reload`` body handler)."""
        if checkpoint is not None and not isinstance(checkpoint, str):
            raise RequestError(
                f'"checkpoint" must be a path string, got {checkpoint!r}'
            )
        target = checkpoint or self.engine.checkpoint_path
        if not target:
            raise RequestError(
                "no checkpoint to reload: engine was not built from a "
                'checkpoint; pass {"checkpoint": <path>}'
            )
        with self._lock:
            info = self.engine.swap_model(target)
        return {"status": "reloaded", **info}

    def health(self) -> dict:
        """Liveness payload for ``/health``."""
        payload = {
            "status": "ok",
            "model": type(self.engine.model).__name__,
            "num_items": self.engine.dataset.num_items,
            "num_users": self.engine.dataset.num_users,
            "model_version": self.engine.model_version,
            "inflight": self.admission.inflight,
        }
        if self.engine.policy is not None:
            payload["breaker"] = self.engine.policy.breaker.state
        if self.engine.checkpoint_path:
            payload["checkpoint"] = self.engine.checkpoint_path
        payload["index"] = self.engine.index.stats()
        worker_info = getattr(self.engine, "worker_info", None)
        if worker_info is not None:
            payload["workers"] = worker_info()
        return payload

    def watch_checkpoints(self, directory: str, interval_s: float = 2.0) -> None:
        """Start the background :class:`CheckpointWatcher` on ``directory``."""
        if self._watcher is not None:
            raise RuntimeError("a checkpoint watcher is already running")
        self._watcher = CheckpointWatcher(self, directory, interval_s=interval_s)
        self._watcher.start()

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown`."""
        self._serving.set()
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop the listener (and checkpoint watcher) and release the socket."""
        if self._watcher is not None:
            self._watcher.stop()
            self._watcher.join(timeout=5.0)
            self._watcher = None
        # BaseServer.shutdown blocks forever unless serve_forever has run;
        # a server that was constructed but never served just closes.
        if self._serving.is_set():
            self.httpd.shutdown()
        self.httpd.server_close()


def _make_handler(server: RecommendationServer) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        #: TCP_NODELAY on every accepted socket: a reply is one write,
        #: and Nagle must never hold it back behind an un-ACKed one.
        disable_nagle_algorithm = True

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass  # keep stdout clean; metrics cover observability

        def _reply(
            self,
            status: int,
            payload: dict,
            retry_after_s: float | None = None,
            close: bool = False,
        ) -> None:
            """Put one reply on the wire with one ``sendall``.

            Status line, headers and body are handed to the socket
            whole, so a keep-alive client's delayed ACK never holds half
            a reply for 40 ms (``wfile`` is unbuffered: one write is one
            send).  ``close`` announces and schedules the end of the
            connection.
            """
            body = json.dumps(payload).encode()
            head = [
                f"{self.protocol_version} {status:d} {self.responses[status][0]}",
                f"Server: {self.version_string()}",
                f"Date: {_http_date(int(time.time()))}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ]
            if retry_after_s is not None:
                head.append(f"Retry-After: {retry_after_s:g}")
            if close:
                head.append("Connection: close")
                self.close_connection = True
            self.wfile.write(
                "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body
            )

        def parse_request(self) -> bool:
            """Request line by ``http.server``'s rules, then the headers by
            :func:`_read_headers`; ``False`` once a refusal is answered."""
            self.command = None
            self.request_version = self.default_request_version
            self.close_connection = True
            self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
            words = self.requestline.split()
            if not words:
                return False
            version = (0, 9)
            if len(words) >= 3:
                version = _http_version(words[-1])
                if version is None:
                    self.send_error(400, f"Bad request version ({words[-1]!r})")
                    return False
                if version >= (2, 0):
                    self.send_error(505, f"Invalid HTTP version ({words[-1][5:]})")
                    return False
                self.close_connection = version < (1, 1)
                self.request_version = words[-1]
            if not 2 <= len(words) <= 3:
                self.send_error(400, f"Bad request syntax ({self.requestline!r})")
                return False
            self.command, self.path = words[:2]
            if len(words) == 2:
                self.close_connection = True
                if self.command != "GET":
                    self.send_error(
                        400, f"Bad HTTP/0.9 request type ({self.command!r})"
                    )
                    return False
            if self.path.startswith("//"):
                self.path = "/" + self.path.lstrip("/")  # no open redirects
            try:
                self.headers = _read_headers(self.rfile)
            except _HeadRefused as refused:
                self.send_error(refused.status, str(refused))
                return False
            connection = self.headers.get("Connection", "").lower()
            if connection == "close":
                self.close_connection = True
            elif connection == "keep-alive":
                self.close_connection = False
            if (
                self.headers.get("Expect", "").lower() == "100-continue"
                and version >= (1, 1)
            ):
                return self.handle_expect_100()
            return True

        def send_error(self, code, message=None, explain=None) -> None:
            """What ``http.server`` answers on its own — a request line
            or headers it cannot parse, a method with no ``do_*`` — in
            the JSON envelope, through :meth:`_reply`, closing the
            connection as the stdlib does."""
            reason = REASON_UNSUPPORTED_METHOD if code == 501 else REASON_BAD_REQUEST
            self._reply(
                code,
                {"error": message or self.responses[code][0], "reason": reason},
                close=True,
            )

        def _read_body(self) -> bytes:
            """The request's declared body, whole — else :class:`UnreadBody`."""
            if "Transfer-Encoding" in self.headers:
                raise UnreadBody(
                    "Transfer-Encoding is not supported; send a Content-Length"
                )
            declared = self.headers.get("Content-Length", "0")
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                raise UnreadBody(f"malformed Content-Length {declared!r}")
            if length > MAX_BODY_BYTES:
                raise BodyTooLarge(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
            # rfile.read(n) may return fewer than n bytes on a socket;
            # keep reading until the declared Content-Length arrives.
            chunks: list[bytes] = []
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(remaining)
                if not chunk:
                    raise UnreadBody(
                        f"truncated request body: expected {length} bytes, "
                        f"got {length - remaining}"
                    )
                chunks.append(chunk)
                remaining -= len(chunk)
            return b"".join(chunks)

        def _read_json(self):
            body = self._read_body() or b"{}"
            try:
                return json.loads(body)
            # JSONDecodeError, and UnicodeDecodeError for bytes that are
            # not UTF-8: both are the client's fault, not an internal one.
            except ValueError as error:
                raise RequestError(f"invalid JSON body: {error}") from error

        def _guarded(self, handler) -> None:
            """Run ``handler()`` inside the structured error envelope.

            One mapping for GET and POST alike: no path may leak a raw
            traceback or an unexplained status to a client.
            """
            try:
                handler()
            except BodyTooLarge as error:
                self._reply(
                    413,
                    {"error": str(error), "reason": REASON_BODY_TOO_LARGE},
                    close=True,
                )
            except RequestError as error:
                self._reply(
                    400,
                    {"error": str(error), "reason": REASON_BAD_REQUEST},
                    close=isinstance(error, UnreadBody),
                )
            except ServingUnavailable as error:
                # Shed (503) and deadline-exceeded (504) refusals.
                self._reply(
                    error.status,
                    {"error": str(error), "reason": error.reason},
                    retry_after_s=error.retry_after_s,
                )
            except (CheckpointError, ModelSwapError) as error:
                self._reply(
                    500,
                    {
                        "error": f"{type(error).__name__}: {error}",
                        "reason": REASON_SWAP_FAILED,
                    },
                )
            except Exception as error:  # noqa: BLE001 - don't kill the server
                self._reply(
                    500,
                    {
                        "error": f"{type(error).__name__}: {error}",
                        "reason": REASON_INTERNAL,
                    },
                )

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._guarded(self._route_get)

        def _route_get(self) -> None:
            self._read_body()  # a GET's body must not pass for the next request
            if self.path == "/metrics":
                self._reply(200, server.engine.metrics.snapshot())
            elif self.path == "/health":
                self._reply(200, server.health())
            else:
                self._reply(
                    404,
                    {
                        "error": f"unknown path {self.path}",
                        "reason": REASON_NOT_FOUND,
                    },
                )

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            started = server._now()
            self._guarded(lambda: self._route_post(started))

        def _route_post(self, started: float) -> None:
            payload = self._read_json()
            if self.path == "/recommend":
                self._reply(200, server.handle_single(payload, started=started))
            elif self.path == "/recommend/batch":
                self._reply(200, server.handle_batch(payload, started=started))
            elif self.path == "/admin/reload":
                if not isinstance(payload, dict):
                    raise RequestError(
                        'reload body must be a JSON object: {"checkpoint": <path>}'
                    )
                self._reply(200, server.reload(payload.get("checkpoint")))
            else:
                self._reply(
                    404,
                    {
                        "error": f"unknown path {self.path}",
                        "reason": REASON_NOT_FOUND,
                    },
                )

    return Handler
