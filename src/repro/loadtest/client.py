"""The one HTTP client of the live server.

Every driver of a running :class:`~repro.serve.server.RecommendationServer`
talks to it through :class:`Client`, one keep-alive HTTP/1.1 connection
that sends each request's head and body in one write (no Nagle /
delayed-ACK stall of its own in what it measures).  A transport failure
is not raised: it comes back as a :class:`Reply` with ``status`` 0 and
the error text, and the next request opens a fresh connection.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from urllib.parse import urlsplit

__all__ = ["Client", "Reply", "split_url"]


@dataclass
class Reply:
    """What one round trip observed."""

    #: HTTP status; 0 when no reply arrived.
    status: int
    #: The decoded JSON body (``{}`` when there was none to decode).
    body: dict
    latency_s: float
    headers: dict = field(default_factory=dict)
    #: Why there is no usable reply: a transport error, or a body that
    #: is not JSON (every reply of the server is).
    error: str | None = None


class Client:
    """One keep-alive connection to ``(host, port)``; one thread uses it."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self._connection = HTTPConnection(host, port, timeout=timeout_s)

    def request(self, method: str, path: str, payload=None) -> Reply:
        """Send ``payload`` (JSON-encoded, if given) and read the reply."""
        body, headers = None, {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        started = time.perf_counter()
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except (OSError, HTTPException) as error:
            # http.client opens a new connection on the next request.
            self._connection.close()
            return Reply(0, {}, time.perf_counter() - started,
                         error=f"{type(error).__name__}: {error}")
        latency_s = time.perf_counter() - started
        headers = dict(response.getheaders())
        try:
            return Reply(response.status, json.loads(raw), latency_s, headers)
        except ValueError as error:
            return Reply(response.status, {}, latency_s, headers,
                         error=f"{type(error).__name__}: {error}")

    def get(self, path: str) -> Reply:
        return self.request("GET", path)

    def post(self, path: str, payload) -> Reply:
        return self.request("POST", path, payload)

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> Client:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def split_url(url: str) -> tuple[str, int]:
    """``(host, port)`` of an ``http://host:port`` URL."""
    parts = urlsplit(url)
    try:
        port = parts.port
    except ValueError:  # a port that is not a number in range
        port = None
    if parts.scheme != "http" or not parts.hostname or port is None:
        raise ValueError(f"{url!r} does not look like http://host:port")
    return parts.hostname, port
