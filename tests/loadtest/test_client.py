"""The one HTTP client against a hand-written peer."""

import socket
import threading

import pytest

from repro.loadtest import Client
from repro.loadtest.client import split_url

BODY = b'{"status": "ok"}'
REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(BODY), BODY)
)


def test_a_transport_error_is_a_reply_and_the_next_request_reconnects():
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def peer():
            for reply in (b"", REPLY):  # drop the first connection unanswered
                accepted, __ = listener.accept()
                with accepted:
                    accepted.recv(65536)
                    accepted.sendall(reply)

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        with Client(*listener.getsockname(), timeout_s=5.0) as client:
            dropped = client.get("/health")
            answered = client.get("/health")
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert dropped.status == 0 and "RemoteDisconnected" in dropped.error
    assert (answered.status, answered.body, answered.error) == (200, {"status": "ok"}, None)


def test_nothing_listening_is_a_reply_not_an_exception():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        address = listener.getsockname()
    with Client(*address, timeout_s=5.0) as client:
        reply = client.post("/recommend", {"user": 0})
    assert reply.status == 0 and "ConnectionRefusedError" in reply.error


@pytest.mark.parametrize(
    "url, address",
    [
        ("http://localhost:8080", ("localhost", 8080)),
        ("http://127.0.0.1:9/metrics", ("127.0.0.1", 9)),
        ("http://[::1]:8080", ("::1", 8080)),
        ("http://user@host:80", ("host", 80)),
    ],
)
def test_split_url(url, address):
    assert split_url(url) == address


@pytest.mark.parametrize(
    "url",
    ["localhost:8080", "http://localhost", "https://host:1", "http://:80",
     "http://host:port", "http://host:99999"],
)
def test_split_url_refuses_what_it_cannot_reach(url):
    with pytest.raises(ValueError, match="does not look like http://host:port"):
        split_url(url)
