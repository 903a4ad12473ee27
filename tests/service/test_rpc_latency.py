"""Per-RPC latency on a keep-alive connection is server work, not a stall.

A response written as two TCP sends (headers, then body) with Nagle's
algorithm on leaves the body waiting for the client's delayed ACK, about
40 ms on every request after the first on a connection.  The server
sends each response in one write with ``TCP_NODELAY`` set, so sequential
RPCs on one connection take a few milliseconds each.
"""

from __future__ import annotations

import json
import socket
import statistics
import threading
import time

import pytest

from repro.service import StudyClient, StudyServer, StudySpec, StudyStore
from repro.space.params import ContinuousParameter, IntegerParameter
from repro.space.space import SearchSpace

pytestmark = pytest.mark.service

#: Sequential RPCs timed per endpoint.
N_CALLS = 20

#: Median latency bound; a delayed-ACK stall alone is ~40 ms.
MAX_MEDIAN_MS = 20.0


@pytest.fixture
def served(tmp_path):
    store = StudyStore(tmp_path / "store")
    store.create_study(StudySpec(
        name="quick",
        space=SearchSpace([
            IntegerParameter("units", 0, 64),
            ContinuousParameter("lr", 1e-3, 1.0, log=True),
        ]),
        seed=3,
    ))
    server = StudyServer(("127.0.0.1", 0), store)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = StudyClient("127.0.0.1", server.server_address[1])
    yield client, server.server_address
    client.close()
    server.shutdown()
    server.server_close()
    store.close()


def _median_ms(call) -> float:
    call()  # open the connection outside the timed calls
    times = []
    for _ in range(N_CALLS):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def test_sequential_keep_alive_rpcs_do_not_stall(served):
    client, _ = served
    median = _median_ms(lambda: client.status("quick"))
    assert median < MAX_MEDIAN_MS, f"median RPC {median:.1f} ms"
    assert len(client._conns) == 1  # every call reused one connection


def test_sequential_health_checks_do_not_stall(served):
    client, _ = served
    median = _median_ms(lambda: client.health("/readyz"))
    assert median < MAX_MEDIAN_MS, f"median GET {median:.1f} ms"
    assert len(client._conns) == 1


def test_expect_continue_is_answered_before_the_body(served):
    # A client sending ``Expect: 100-continue`` holds the body back until
    # the interim response arrives; the buffered response writer must not
    # keep that response back until the final one.
    _, address = served
    body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "study.list",
                       "params": {}}).encode()
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(
            b"POST / HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Expect: 100-continue\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        interim = sock.recv(4096)
        assert interim.startswith(b"HTTP/1.1 100"), interim
        sock.sendall(body)
        reply = b""
        while not reply.endswith(b"}"):
            chunk = sock.recv(4096)
            assert chunk, reply
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert json.loads(payload)["result"] == ["quick"]
