"""Self-tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from client import (  # noqa: E402
    Connection,
    percentile,
    samples_beyond,
    supported,
)
from oracle import Oracle, Tally, answer_payload  # noqa: E402
from workloads import (  # noqa: E402
    delta_stream,
    make_pool,
    reader_mix,
    request_mix,
)

from repro.datasets.synthetic import generate_synthetic_network  # noqa: E402
from repro.index.tctree import build_tc_tree  # noqa: E402
from repro.index.updates import apply_deltas  # noqa: E402


@pytest.fixture(scope="module")
def small():
    network = generate_synthetic_network(
        num_vertices=80, num_items=8, num_seeds=3, seed=3
    )
    return network, build_tc_tree(network, max_length=3)


# -- percentiles ------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p90_needs_ten_samples_beyond():
    assert samples_beyond(100, 0.9) == 10
    assert supported(100, 0.9)
    assert samples_beyond(99, 0.9) == 9
    assert not supported(99, 0.9)
    assert supported(20, 0.5)
    assert not supported(19, 0.5)
    assert samples_beyond(0, 0.9) == 0


# -- seeded inputs ------------------------------------------------------------

def _mix_bytes(requests) -> bytes:
    return json.dumps(
        [[r.method, r.path, (r.body or b"").decode()] for r in requests]
    ).encode()


def test_mix_is_identical_for_a_seed(small):
    _, tree = small
    pool = make_pool(tree)
    first = _mix_bytes(request_mix(pool, 7, 500))
    assert first == _mix_bytes(request_mix(make_pool(tree), 7, 500))
    assert first != _mix_bytes(request_mix(pool, 8, 500))
    assert _mix_bytes(reader_mix(pool, 7, 100)) == _mix_bytes(
        reader_mix(pool, 7, 100)
    )
    endpoints = {r.endpoint for r in request_mix(pool, 7, 500)}
    assert endpoints == {"query", "batch", "topk", "search"}


def test_delta_stream_is_identical_for_a_seed_and_applies(small):
    network, tree = small

    def stream_bytes(seed):
        return json.dumps(
            [d.to_dict() for d in delta_stream(network, seed, 12)]
        ).encode()

    before = json.dumps(
        {v: sorted(map(sorted, db.transactions()))
         for v, db in network.databases.items()}
    )
    assert stream_bytes(5) == stream_bytes(5)
    assert stream_bytes(5) != stream_bytes(6)
    after = json.dumps(
        {v: sorted(map(sorted, db.transactions()))
         for v, db in network.databases.items()}
    )
    assert before == after  # generated against a private copy

    live = copy.deepcopy(network)
    for change in delta_stream(network, 5, 12):
        tree = apply_deltas(live, tree, [change], max_length=3).tree


# -- failure accounting -------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    body = b""

    def do_GET(self):  # noqa: N802
        status = 500 if self.path.startswith("/broken") else 200
        payload = b'{"error": "boom"}' if status == 500 else self.body
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_injected_500_counts_as_failure(small):
    _, tree = small
    pool = make_pool(tree)
    request = pool["qba"][0]  # QBA at alpha 0
    oracle = Oracle()
    oracle.add_generation(1, tree)
    _Handler.body = json.dumps(
        answer_payload(tree, None, 0.0, 1)
    ).encode()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = Connection(*server.server_address[:2])
        tally = Tally(oracle)
        status, body = conn.send("GET", request.path)
        tally.check(request, status, body, 1)
        assert (tally.attempted, tally.failed) == (1, 0)

        status, body = conn.send("GET", "/broken" + request.path)
        assert status == 500
        tally.check(request, status, body, 1)
        assert (tally.attempted, tally.failed) == (2, 1)

        tally.check(request, 200, b'{"wrong": true}', 1)
        assert (tally.attempted, tally.failed) == (3, 2)
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
