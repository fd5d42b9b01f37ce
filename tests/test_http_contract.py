"""The HTTP contract both fronts share: body reader, errors, unknown paths.

Each case runs against a served shard and against a gateway served in
front of one.  Requests go over a raw socket, so the test controls the
exact ``Content-Length`` header, and each must be answered within a
second.  Requests on one kept-alive connection are answered at once.
"""

import http.client
import json
import socket
import statistics
import time
import urllib.request

import pytest

from repro.service import Gateway, TMAService, serve_in_thread
from repro.service.server import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        service = TMAService(workers=1, executor="thread").start()
        server, _thread = serve_in_thread(service)
        yield server
        server.shutdown()
        server.server_close()
        service.drain()


@pytest.fixture(params=["shard", "gateway"])
def front_port(request, shard):
    if request.param == "shard":
        yield shard.server_address[1]
        return
    url = f"http://127.0.0.1:{shard.server_address[1]}"
    server, _thread = serve_in_thread(Gateway({"s1": url}))
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz",
                                timeout=5.0) as response:
        assert response.headers["Server"].startswith("repro-tma-gateway/")
    yield port
    server.shutdown()
    server.server_close()


def exchange(port, method, path, headers=(), body=b""):
    """Send one request; returns (status, JSON body) and checks the time."""
    started = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=1.0) as sock:
        head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1",
                *(f"{name}: {value}" for name, value in headers), "", ""]
        sock.sendall("\r\n".join(head).encode("ascii") + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
    assert time.monotonic() - started < 1.0
    return response.status, payload


@pytest.mark.parametrize("length", ["abc", "-1", str(MAX_BODY_BYTES + 1)],
                         ids=["non-integer", "negative", "over-cap"])
def test_bad_content_length_gets_400(front_port, length):
    # No body follows: a reader that trusts the header would block.
    status, payload = exchange(front_port, "POST", "/jobs",
                               [("Content-Length", length)])
    assert status == 400
    assert payload["error"]


@pytest.mark.parametrize("body,error", [
    (b"not json", "body is not valid JSON"),
    (b"[1, 2]", "body must be a JSON object"),
], ids=["non-json", "array"])
def test_body_must_be_a_json_object(front_port, body, error):
    status, payload = exchange(
        front_port, "POST", "/jobs",
        [("Content-Length", len(body)), ("Content-Type", "application/json")],
        body)
    assert status == 400
    assert payload["error"].startswith(error)


@pytest.mark.parametrize("method", ["GET", "POST"])
def test_unknown_path_gets_404(front_port, method):
    status, payload = exchange(front_port, method, "/nope",
                               [("Content-Length", 0)])
    assert status == 404
    assert payload == {"error": "no such endpoint /nope"}


def test_body_of_an_unknown_path_is_not_parsed_as_a_request(front_port):
    # Were the body left unread on the open connection, it would be
    # answered as the next request.
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
    received = b""
    with socket.create_connection(("127.0.0.1", front_port)) as sock:
        sock.sendall(b"POST /nope HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(smuggled)
                     + smuggled)
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            sock.settimeout(deadline - time.monotonic())
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            received += chunk
    assert received.startswith(b"HTTP/1.1 404 ")
    assert received.count(b"HTTP/1.1 ") == 1


def test_kept_alive_connection_answers_without_a_delayed_ack(front_port):
    # Nagle's algorithm would hold each response body ~40 ms for the
    # client's delayed ACK of its head.  A gateway /healthz also makes
    # one HTTP hop per live shard, so the bound is on the median.
    connection = http.client.HTTPConnection("127.0.0.1", front_port,
                                            timeout=5.0)
    elapsed = []
    try:
        for _ in range(20):
            started = time.monotonic()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
            elapsed.append(time.monotonic() - started)
    finally:
        connection.close()
    assert statistics.median(elapsed) < 0.02
