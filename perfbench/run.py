#!/usr/bin/env python3
"""The repository benchmark: index build, HTTP serving and live churn.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 32 \
        --trace 0

``--workload all`` runs every workload in turn.

Each run builds the workload's TC-Tree index, starts the real
``repro serve --live`` on loopback in a child process and drives it from
this process:

1. set-up: generate the network, build + write the snapshot
   (``build_s``), start the server and warm it up (``setup_s``);
2. cycles of
   a. a slice of a quiet closed loop over one keep-alive connection
      with the seeded request mix (``qps`` and the per-endpoint
      latencies); between its requests, with none in flight, the
      cycle's maintenance rounds run in this process
      (``apply_deltas`` + ``write_delta_snapshot`` of one single-vertex
      delta each) and a build is timed;
   b. the cycle's overlays POSTed to ``/admin/apply-delta`` on a fixed
      open-loop period over a second connection while a reader keeps
      querying (``query_churn_p90_ms``); the last one compacts;
   c. one more set-up, timed and stopped;
3. final checks: the maintained and the compacted index equal a
   scratch build of the final network, answer for answer and as an
   index (byte for byte, or up to the order of edges inside a level,
   which is counted as ``maintain.snapshot_byte_mismatches``).

The host's speed changes every few seconds (the same build takes 0.29 s
or 0.44 s), so each metric samples the whole run instead of one burst
of it. ``build_s`` is the fastest of the run's 9 builds, and the
maintenance metrics are means over the run's 16 rounds: a median of
such samples flips between the two speeds from run to run.

Every response is checked against the in-process answer of the
generation that served it. ``--trace 1`` runs the same phases with span
wrappers installed here and in the server (through ``serve_traced.py``)
and reports per-layer metrics instead of end-to-end ones. The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent



def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(
            "perfbench: no program source at ./src/repro; "
            "run from the repository root",
            file=sys.stderr,
        )
        raise SystemExit(2)


_require_program()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.index.tctree import build_tc_tree  # noqa: E402
from repro.index.updates import apply_deltas  # noqa: E402
from repro.obs.metrics import default_registry  # noqa: E402
from repro.serve.engine import DEFAULT_CACHE_SIZE  # noqa: E402
from repro.serve.snapshot import (  # noqa: E402
    TCTreeSnapshot,
    write_delta_snapshot,
    write_snapshot,
)

import tracer  # noqa: E402
from client import (  # noqa: E402
    ServerProcess,
    percentile,
    samples_beyond,
    supported,
    wait_healthy,
)
from oracle import (  # noqa: E402
    Oracle,
    Tally,
    body_generation,
    canonical_tree,
)
from workloads import (  # noqa: E402
    DELTA_ROUNDS,
    MAX_LENGTH,
    SERVE_SHARE,
    WORKLOADS,
    delta_stream,
    make_pool,
    reader_mix,
    request_mix,
)

#: Rounds of the mix generated per run; far more than a run can send.
MIX_ROUNDS = 2_000

#: Cycles of an untraced run (see the module docstring). Each gets
#: ``DELTA_ROUNDS / CYCLES`` rounds, a multiple of the server's
#: compaction period, so every quiet slice after the first is served
#: from a compacted snapshot. The traced run is one cycle: its counts
#: compare against an untraced server fed the same request prefix.
CYCLES = 4

#: Builds timed between requests of each untraced quiet slice, on top
#: of the set-ups.
CYCLE_BUILDS = 1

#: Decomposition routes the two workloads' builds take, each reported as
#: a ``route.<label>`` count per build; any other route adds to
#: ``route.other``.
ROUTES = (
    "net-full+csr",
    "net-projected+csr",
    "net-small+legacy",
    "carrier-projected+csr",
    "carrier-small+legacy",
    "within+legacy",
)

#: Layers of the per-layer self-time tables (span-name prefixes).
SERVE_LAYERS = (
    "server", "engine", "search", "decomposition", "snapshot", "core",
    "encode",
)
BUILD_LAYERS = ("tctree", "decomposition", "graphs", "snapshot")


# ---------------------------------------------------------------------------
# scraping
# ---------------------------------------------------------------------------

def parse_exposition(text: str) -> dict[tuple, float]:
    """Prometheus text samples as ``{(name, sorted labels): value}``."""
    samples: dict[tuple, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        labels: tuple = ()
        if "{" in series:
            name, rest = series.split("{", 1)
            pairs = [p for p in rest.rstrip("}").split('",') if p]
            labels = tuple(
                sorted(
                    (k, v.strip('"'))
                    for k, v in (p.split("=", 1) for p in pairs)
                )
            )
        else:
            name = series
        samples[(name, labels)] = float(value)
    return samples


def sample_sum(samples: dict, name: str, **match) -> float:
    """Sum of ``name`` samples whose labels include ``match``."""
    total = 0.0
    for (sample_name, labels), value in samples.items():
        if sample_name != name:
            continue
        found = dict(labels)
        if all(found.get(k) == v for k, v in match.items()):
            total += value
    return total


def scrape(conn) -> dict:
    status, body = conn.send("GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    stats = json.loads(body)
    status, body = conn.send("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return {"stats": stats, "metrics": parse_exposition(body.decode())}


QUERY_ENDPOINTS = ("/query", "/top-k", "/search")


def handler_totals(scraped: dict) -> tuple[float, float]:
    """``(seconds, requests)`` the server spent on the mix endpoints."""
    seconds = requests = 0.0
    for endpoint in QUERY_ENDPOINTS:
        seconds += sample_sum(
            scraped["metrics"], "repro_http_request_seconds_sum",
            endpoint=endpoint,
        )
        requests += sample_sum(
            scraped["metrics"], "repro_http_request_seconds_count",
            endpoint=endpoint,
        )
    return seconds, requests


BREAKDOWN = (
    "queries", "visited_nodes", "pruned_pattern", "pruned_alpha",
    "retrieved_nodes", "toc_seconds", "decode_seconds",
)


def engine_counts(scraped: dict) -> dict[str, float]:
    stats = scraped["stats"]
    counts = {key: stats["query_breakdown"][key] for key in BREAKDOWN}
    counts["cache_hits"] = stats["cache"]["hits"]
    counts["cache_misses"] = stats["cache"]["misses"]
    handler_seconds, handler_requests = handler_totals(scraped)
    counts["handler_seconds"] = handler_seconds
    counts["handler_requests"] = handler_requests
    for backend in ("memory", "snapshot"):
        counts[f"backend_{backend}"] = sample_sum(
            scraped["metrics"], "repro_query_seconds_count", backend=backend
        )
    return counts


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def add(total: dict, more: dict) -> dict:
    return {
        key: total.get(key, 0) + more.get(key, 0) for key in {**total, **more}
    }


def counter_delta(after: dict, before: dict) -> dict:
    """The counters that moved between two readings."""
    moved = {key: value - before.get(key, 0) for key, value in after.items()}
    return {key: value for key, value in moved.items() if value}


def route_counts() -> dict[str, float]:
    counts = {}
    for key, value in default_registry().counters(
        "repro_engine_route_total"
    ).items():
        counts[dict(key)["route"]] = value
    return counts


def triangle_counts() -> dict[str, float]:
    return {
        dict(key)["mode"]: value
        for key, value in default_registry()
        .counters("repro_triangle_index_total")
        .items()
    }


def settle() -> None:
    """Collect, then freeze what survives: the timed work that follows
    pays the garbage collector for its own objects only, not for the
    trees, answers and samples this harness keeps alive."""
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".perfbench" / f"run-{workload.name}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.oracle = Oracle()
        self.tally = Tally(self.oracle)
        self.server: ServerProcess | None = None
        self.recorder = tracer.Recorder() if trace else None
        self.span_dumps = 0
        self.sizes: dict[str, float] = {}
        self.results: dict[str, float] = {}
        self.phase_s: dict[str, float] = {}
        self.build_samples: list[float] = []
        self.setup_samples: list[float] = []
        self.maintain_s: list[float] = []
        self.diff_s: list[float] = []
        self.overlay_bytes: list[int] = []
        self.overlays: list[Path] = []
        self.maintenance: list = []
        self.maintain_routes: dict[str, float] = {}
        #: The generation the server answers from between publishes.
        self.generation = 1
        self.published = 0
        self.serve_samples: list[tuple[str, float, int]] = []
        self.serve_counts: dict[str, float] = {}
        self.serve_elapsed = 0.0
        self.churn_records: list[tuple] = []
        self.churn_counts: dict[str, float] = {}
        self.publish_s: list[float] = []
        self.lateness: list[float] = []
        self.compactions = 0

    # -- server ----------------------------------------------------------
    def start_server(self, snapshot: Path, spool: Path, traced: bool):
        spool.mkdir(exist_ok=True)
        serve_args = [
            str(snapshot), "--port", "0", "--live", "--watch", str(spool),
        ]
        if traced:
            argv = [
                str(HERE / "serve_traced.py"),
                str(self.work / "server-spans"),
                *serve_args,
            ]
        else:
            argv = ["-m", "repro", "serve", *serve_args]
        server = ServerProcess(argv, ROOT, self.work / "server.log")
        wait_healthy(server)
        return server

    def dump_server_spans(self) -> dict:
        """Ask the traced server for its spans since the last dump."""
        self.span_dumps += 1
        path = self.work / f"server-spans.{self.span_dumps}.json"
        self.server.signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no span dump")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def warm_up(self, server: ServerProcess) -> None:
        conn = server.connect()
        try:
            for request in self.warm_requests:
                status, body = conn.send(
                    request.method, request.path, request.body
                )
                if status != 200:
                    raise RuntimeError(f"warm-up {request.path} -> {status}")
        finally:
            conn.close()

    # -- set-up ----------------------------------------------------------
    def set_up(self, keep: bool) -> None:
        """One set-up: generate the network, build and write the index
        (a ``build_s`` sample), start a server and warm it up (with the
        generation, a ``setup_s`` sample). The first set-up is kept and
        serves the run; the others are spread over the run — the host's
        speed drifts over tens of seconds — and stopped at once."""
        rep = len(self.setup_samples)
        settle()
        start = time.perf_counter()
        network = self.workload.network()
        generate = time.perf_counter() - start

        routes, triangles = route_counts(), triangle_counts()
        if self.trace:
            self.recorder.drain()
        start = time.perf_counter()
        tree = build_tc_tree(network, max_length=MAX_LENGTH)
        snapshot = self.work / f"index-{rep}.tcsnap"
        size = write_snapshot(tree, snapshot)
        self.build_samples.append(time.perf_counter() - start)
        counters = (
            counter_delta(route_counts(), routes),
            counter_delta(triangle_counts(), triangles),
        )
        self.tally.expect(
            rep == 0 or counters == self.build_counters,
            f"build {rep} took other routes: {counters}",
        )
        if keep:
            self.build_counters = counters
            if self.trace:
                self.build_state = self.recorder.drain()
            self.pool = make_pool(tree)
            self.warm_requests = [
                self.pool["qba"][0], self.pool["qbp"][0],
                self.pool["topk"][-1], self.pool["search"][0],
            ]

        start = time.perf_counter()
        spool = self.work / f"spool-{rep}"
        server = self.start_server(snapshot, spool, traced=self.trace)
        self.warm_up(server)
        self.setup_samples.append(generate + time.perf_counter() - start)
        if not keep:
            server.stop()
            return
        self.server = server
        self.network, self.snapshot, self.spool = network, snapshot, spool
        self.latest_tree = tree
        self.round_size = sum(len(group) for group in self.pool.values())
        self.sizes = {
            "vertices": network.num_vertices,
            "edges": network.num_edges,
            "items": len(network.item_universe()),
            "index_nodes": tree.num_nodes,
            "snapshot_bytes": size,
            "cache_capacity": DEFAULT_CACHE_SIZE,
        }
        self.oracle.add_generation(1, tree)
        for requests in self.pool.values():
            for request in requests:
                self.oracle.prepare(request, 1)
        if self.trace:
            self.dump_server_spans()  # set-up and warm-up, discarded

    # -- quiet closed loop; maintenance runs between its requests --------
    def serve(self, cycle: int, cycles: int) -> None:
        """Slice ``cycle`` (1-based) of the quiet closed loop, with the
        cycle's maintenance rounds (and, untraced, builds) between its
        requests. Samples and counters add up over the slices."""
        for requests in self.pool.values():
            for request in requests:
                self.oracle.prepare(request, self.generation)
        rounds = DELTA_ROUNDS // cycles
        maintenance = [
            (k / rounds, self.maintain_round) for k in range(rounds)
        ]
        if self.trace:
            # A fixed request count, so the count metrics repeat exactly;
            # the same requests against an untraced server give the
            # tracing overhead and a second copy of every count.
            count = self.workload.traced_rounds * self.round_size
            plain = self.start_server(
                self.snapshot, self.work / "spool-plain", traced=False
            )
            try:
                self.warm_up(plain)
                untraced, plain_counts, _ = self.serve_loop(
                    plain, iter(self.mix), count=count, interludes=[]
                )
            finally:
                plain.stop()
            self.recorder.drain()
            samples, counts, elapsed = self.serve_loop(
                self.server, self.requests, count=count,
                interludes=maintenance,
            )
            self.maintain_state = self.recorder.drain()
            self.serve_spans = self.dump_server_spans()
            for key in BREAKDOWN[:5] + ("cache_hits", "cache_misses"):
                self.tally.expect(
                    plain_counts[key] == counts[key],
                    f"count {key} differs between same-seed runs: "
                    f"{plain_counts[key]} vs {counts[key]}",
                )
            mean = statistics.fmean
            self.results["trace.overhead_frac"] = (
                mean(s for _, s, _ in samples)
                / mean(s for _, s, _ in untraced)
                - 1.0
            )
        else:
            builds = [
                ((k + 0.5) / CYCLE_BUILDS, self.build_sample)
                for k in range(CYCLE_BUILDS)
            ]
            # A slice ends with a whole round of the mix, so it may run
            # over; the later slices share what is left of the budget.
            budget = self.seconds * SERVE_SHARE - self.serve_elapsed
            samples, counts, elapsed = self.serve_loop(
                self.server, self.requests,
                seconds=max(budget / (cycles - cycle + 1), 1.0),
                interludes=sorted(maintenance + builds, key=lambda t: t[0]),
            )
        self.serve_samples += samples
        self.serve_counts = add(self.serve_counts, counts)
        self.serve_elapsed += elapsed

    def finish_serve(self) -> None:
        samples = self.serve_samples
        self.results["qps"] = len(samples) / self.serve_elapsed
        for endpoint in ("query", "batch", "topk", "search"):
            values = [s for e, s, _ in samples if e == endpoint]
            self.results[f"{endpoint}_p50_ms"] = 1000 * percentile(values, 0.5)
            self.sizes[f"samples.{endpoint}"] = len(values)
        queries = [s for e, s, _ in samples if e == "query"]
        self.results["query_p90_ms"] = 1000 * percentile(queries, 0.9)
        self.results["request_p90_ms"] = 1000 * percentile(
            [s for _, s, _ in samples], 0.9
        )
        self.sizes["samples.request"] = len(samples)
        self.results["maintain_mean_ms"] = 1000 * statistics.fmean(
            self.maintain_s
        )

    def build_sample(self) -> None:
        """One more ``build_s`` sample: build and write a fresh index."""
        network = self.workload.network()
        settle()
        start = time.perf_counter()
        tree = build_tc_tree(network, max_length=MAX_LENGTH)
        write_snapshot(tree, self.work / "extra.tcsnap")
        self.build_samples.append(time.perf_counter() - start)

    def serve_loop(self, server, requests, interludes, seconds=None,
                   count=None):
        """Closed loop over one keep-alive connection until ``count``
        requests complete, or until ``seconds`` of serving pass — checked
        between rounds of the mix, so every request of the pool is sent
        equally often. ``interludes`` are ``(fraction, task)`` pairs run
        between requests once that fraction of the loop is done, with no
        request in flight; their time is not serving time. Returns the
        samples, the server's counter deltas and the serving seconds.
        ``requests`` is an iterator, left at the first request not sent."""
        size = self.round_size
        conn = server.connect()
        try:
            before = engine_counts(scrape(conn))
            settle()
            start = time.perf_counter()
            paused = 0.0
            samples: list[tuple[str, float, int]] = []
            while True:
                if count is not None:
                    progress = len(samples) / count
                else:
                    progress = (time.perf_counter() - start - paused) / seconds
                    if len(samples) % size:
                        progress = min(progress, 0.999)
                if progress >= 1:
                    break
                while interludes and interludes[0][0] <= progress:
                    pause = time.perf_counter()
                    interludes.pop(0)[1]()
                    paused += time.perf_counter() - pause
                request = next(requests)
                status, body, latency = conn.timed(
                    request.method, request.path, request.body
                )
                samples.append((request.endpoint, latency, len(body)))
                self.tally.check(request, status, body, self.generation)
            elapsed = time.perf_counter() - start - paused
            counts = delta(engine_counts(scrape(conn)), before)
        finally:
            conn.close()
        for _, task in interludes:
            task()
        return samples, counts, elapsed

    def maintain_round(self) -> None:
        """Apply the next delta in this process and write its overlay."""
        change = self.deltas.pop(0)
        number = len(self.maintain_s) + 2
        tree = self.latest_tree
        self.tally.attempted += 1
        routes = route_counts()
        settle()
        start = time.perf_counter()
        result = apply_deltas(
            self.network, tree, [change], mode="auto", max_length=MAX_LENGTH
        )
        self.maintain_s.append(time.perf_counter() - start)
        self.maintain_routes = add(
            self.maintain_routes, counter_delta(route_counts(), routes)
        )
        path = self.work / f"gen-{number:08d}.tcdelta"
        start = time.perf_counter()
        size = write_delta_snapshot(
            tree, result.tree, path,
            generation=number, base_generation=number - 1,
        )
        self.diff_s.append(time.perf_counter() - start)
        self.overlay_bytes.append(size)
        self.overlays.append(path)
        self.maintenance.append(result)
        self.latest_tree = result.tree
        self.oracle.add_generation(number, result.tree)

    # -- publish under a reader ------------------------------------------
    def publish(self, cycles: int) -> None:
        """POST the overlays written since the last publish window on a
        fixed open-loop period while a reader queries; the reader's
        responses are checked afterwards, in :meth:`finish_publish`."""
        overlays = self.overlays[self.published:]
        window = self.seconds * (1.0 - SERVE_SHARE) / cycles
        period = window / (len(overlays) + 1)
        state = {"acked": self.generation, "posted": self.generation}
        records = self.churn_records
        stop = threading.Event()
        reader_conn = self.server.connect()

        def reader() -> None:
            while not stop.is_set():
                request = next(self.reads)
                low = state["acked"]
                status, body, seconds = reader_conn.timed(
                    request.method, request.path, request.body
                )
                records.append(
                    (request, status, body, seconds, low, state["posted"])
                )

        conn = self.server.connect()
        before = engine_counts(scrape(conn))
        settle()
        thread = threading.Thread(target=reader, daemon=True)
        start = time.perf_counter()
        thread.start()
        try:
            for index, path in enumerate(overlays):
                due = start + (index + 1) * period
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                self.lateness.append(max(0.0, time.perf_counter() - due))
                generation = self.published + index + 2
                state["posted"] = generation
                body = json.dumps({"path": str(path)}).encode()
                status, answer = conn.send(
                    "POST", "/admin/apply-delta", body
                )
                self.publish_s.append(time.perf_counter() - due)
                if status != 200:
                    self.tally.expect(False, f"{path.name} -> {status}")
                    continue
                reply = json.loads(answer)
                self.tally.expect(
                    reply["generation"] == generation,
                    f"publish gave generation {reply['generation']}, "
                    f"expected {generation}",
                )
                self.compactions += bool(reply["compacted"])
                state["acked"] = generation
            end = start + window
            pause = end - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
        finally:
            stop.set()
            thread.join(timeout=120)
            reader_conn.close()
        self.churn_counts = add(
            self.churn_counts, delta(engine_counts(scrape(conn)), before)
        )
        conn.close()
        self.published = len(self.overlays)
        self.generation = state["acked"]
        if self.trace:
            self.churn_spans = self.dump_server_spans()

    def finish_publish(self) -> None:
        churn_latency = []
        for request, status, body, seconds, low, high in self.churn_records:
            churn_latency.append(seconds)
            if status != 200:
                self.tally.check(request, status, body, 0)
                continue
            try:
                generations = body_generation(request, body)
            except (ValueError, KeyError, TypeError):
                generations = set()
            generation = min(generations) if len(generations) == 1 else None
            if not isinstance(generation, int) or not (
                low <= generation <= high
            ):
                self.tally.expect(
                    False,
                    f"answer from generations {generations}, "
                    f"published were [{low}, {high}]",
                )
                continue
            self.tally.check(request, status, body, generation)
        self.sizes["samples.query_churn"] = len(churn_latency)
        self.results["query_churn_p90_ms"] = 1000 * percentile(
            churn_latency, 0.9
        )
        self.results["staleness_mean_ms"] = 1000 * statistics.fmean(
            m + d + p
            for m, d, p in zip(self.maintain_s, self.diff_s, self.publish_s)
        )

    # -- phase 5: final checks -------------------------------------------
    def verify_final(self) -> None:
        scratch = build_tc_tree(self.network, max_length=MAX_LENGTH)
        scratch_path = self.work / "scratch.tcsnap"
        maintained_path = self.work / "maintained.tcsnap"
        write_snapshot(scratch, scratch_path)
        write_snapshot(self.latest_tree, maintained_path)
        final = len(self.overlays) + 1
        compacted = self.spool / f"gen-{final:08d}.tcsnap"
        self.byte_mismatches = 0
        for path in (maintained_path, compacted):
            if not path.exists():
                self.tally.expect(False, f"no {path.name} was written")
                continue
            if path.read_bytes() == scratch_path.read_bytes():
                self.tally.expect(True, "")
                continue
            # Equal bytes are the program's parity contract; an index
            # that differs only in the order of edges inside a level
            # still answers every query the same, so it is counted, and
            # only a different index is a failure.
            self.byte_mismatches += 1
            with TCTreeSnapshot.open(path) as served:
                same = canonical_tree(served.materialize_tree())
            self.tally.expect(
                same == canonical_tree(scratch),
                f"{path.name} differs from a scratch build",
            )
        self.oracle.add_generation(final, scratch)
        conn = self.server.connect()
        try:
            for request in self.pool["qba"] + self.pool["qbp"]:
                status, body = conn.send(
                    request.method, request.path, request.body
                )
                self.tally.check(request, status, body, final)
            samples = scrape(conn)["metrics"]
        finally:
            conn.close()
        for name in (
            "repro_live_deltas_applied_total",
            "repro_live_publish_seconds_count",
        ):
            published = sample_sum(samples, name)
            self.tally.expect(
                published == len(self.overlays),
                f"{name} is {published}, {len(self.overlays)} were published",
            )
        self.results["server_rss_mb"] = self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.work, ignore_errors=True)

    def execute(self) -> None:
        """The phases in order. ``setup_s`` is the median of the set-ups
        (one at the start, one after each cycle); ``build_s`` is the
        fastest of their builds and those between requests."""
        if self.trace:
            tracer.install(self.recorder, tracer.BUILD_TARGETS)
        self.timed_phase("setup-1", lambda: self.set_up(keep=True))
        self.deltas = delta_stream(self.network, self.seed, DELTA_ROUNDS)
        self.mix = request_mix(self.pool, self.seed, MIX_ROUNDS)
        self.requests = iter(self.mix)
        self.reads = iter(reader_mix(self.pool, self.seed, MIX_ROUNDS))
        cycles = 1 if self.trace else CYCLES
        for cycle in range(1, cycles + 1):
            self.timed_phase(
                f"serve+maintain-{cycle}", lambda: self.serve(cycle, cycles)
            )
            self.timed_phase(f"publish-{cycle}", lambda: self.publish(cycles))
            self.timed_phase(
                f"setup-{cycle + 1}", lambda: self.set_up(keep=False)
            )
        self.finish_serve()
        self.finish_publish()
        self.timed_phase("verify", self.verify_final)
        self.results["build_s"] = min(self.build_samples)
        self.results["setup_s"] = statistics.median(self.setup_samples)

    def timed_phase(self, name: str, phase) -> None:
        start = time.perf_counter()
        phase()
        self.phase_s[name] = time.perf_counter() - start

    # -- metrics ---------------------------------------------------------
    def end_to_end(self) -> dict[str, tuple[float, str]]:
        units = {
            "setup_s": "s", "build_s": "s", "qps": "1/s",
            "server_rss_mb": "MiB",
        }
        return {
            name: (value, units.get(name, "ms"))
            for name, value in self.results.items()
            if not name.startswith("trace.")
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        metrics = layer_metrics(self)
        self.check_counts_repeat(metrics)
        return metrics

    def check_counts_repeat(self, metrics) -> None:
        """Count metrics must repeat exactly between traced runs of one
        seed on one program: the first run records them (keyed by a
        digest of the program source), later runs compare."""
        digest = hashlib.sha1()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.read_bytes())
        record = ROOT / ".perfbench" / (
            f"counts-{self.workload.name}-{self.seed}-"
            f"{digest.hexdigest()[:12]}.json"
        )
        counts = {n: v for n, (v, unit) in metrics.items() if unit == "count"}
        if not record.exists():
            record.write_text(json.dumps(counts, sort_keys=True))
            return
        for name, value in json.loads(record.read_text()).items():
            self.tally.expect(
                counts.get(name) == value,
                f"count {name} was {value} in an earlier run of this "
                f"seed, now {counts.get(name)}",
            )


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run (see BENCHMARK.json)."""
    serve = run.serve_spans
    counts = run.serve_counts
    queries = counts["queries"]
    requests = counts["handler_requests"]
    handler_ms = 1000 * _per(counts["handler_seconds"], requests)
    client_ms = 1000 * statistics.fmean(s for _, s, _ in run.serve_samples)
    total = serve["total"]
    calls = serve["calls"]
    encode_s = total.get("encode.to_payload", 0.0) + total.get(
        "encode.json_dumps", 0.0
    )
    build = run.build_state
    build_self = build["self"]
    build_total = build["total"]
    lookups = counts["cache_hits"] + counts["cache_misses"]
    churn = run.churn_counts
    backend_total = churn["backend_memory"] + churn["backend_snapshot"]
    reused = sum(r.reused for r in run.maintenance)
    rebuilt = sum(r.tree.num_nodes for r in run.maintenance)
    metrics: dict[str, tuple[float, str]] = {
        "server.handler_ms_mean": (handler_ms, "ms"),
        "server.transport_ms_mean": (client_ms - handler_ms, "ms"),
        "server.encode_ms_mean": (1000 * _per(encode_s, requests), "ms"),
        "server.response_bytes_mean": (
            statistics.fmean(b for _, _, b in run.serve_samples), "bytes"
        ),
        "engine.toc_ms_mean": (
            1000 * _per(counts["toc_seconds"], queries), "ms"
        ),
        "engine.visited_per_query": (
            _per(counts["visited_nodes"], queries), "count"
        ),
        "engine.pruned_alpha_per_query": (
            _per(counts["pruned_alpha"], queries), "count"
        ),
        "engine.pruned_pattern_per_query": (
            _per(counts["pruned_pattern"], queries), "count"
        ),
        "engine.retrieved_per_query": (
            _per(counts["retrieved_nodes"], queries), "count"
        ),
        "engine.cache_hit_ratio": (
            _per(counts["cache_hits"], lookups), "ratio"
        ),
        "engine.cache_misses": (counts["cache_misses"], "count"),
        "engine.backend_share.memory": (
            _per(churn["backend_memory"], backend_total), "ratio"
        ),
        "snapshot.decode_calls": (calls.get("snapshot.decode", 0), "count"),
        "snapshot.decode_ms_total": (
            1000 * total.get("snapshot.decode", 0.0), "ms"
        ),
        "snapshot.write_s": (
            build_total.get("snapshot.write", 0.0), "s"
        ),
        "snapshot.bytes": (run.sizes["snapshot_bytes"], "bytes"),
        "snapshot.diff_ms_p50": (
            tracer.median_ms(run.maintain_state, "snapshot.diff_trees"), "ms"
        ),
        "snapshot.overlay_bytes_p50": (
            statistics.median(run.overlay_bytes), "bytes"
        ),
        "snapshot.overlay_apply_ms_p50": (
            tracer.median_ms(run.churn_spans, "snapshot.overlay_apply"),
            "ms",
        ),
        "decomposition.truss_at_calls": (
            calls.get("decomposition.truss_at", 0), "count"
        ),
        "decomposition.truss_at_ms_total": (
            1000 * total.get("decomposition.truss_at", 0.0), "ms"
        ),
        "decomposition.decompose_calls": (
            build["calls"].get("decomposition.decompose", 0), "count"
        ),
        "decomposition.decompose_s": (
            build_self.get("decomposition.decompose", 0.0), "s"
        ),
        "decomposition.warm_triangles_s": (
            build_total.get("decomposition.warm_triangles", 0.0), "s"
        ),
        "graphs.triangle_index.enumerated": (
            run.build_counters[1].get("enumerated", 0), "count"
        ),
        "graphs.triangle_index.derived": (
            run.build_counters[1].get("derived", 0), "count"
        ),
        "graphs.peel_s": (
            build_total.get("graphs.peel", 0.0), "s"
        ),
        "tctree.frontier_self_s": (
            build_self.get("tctree.build", 0.0), "s"
        ),
        "tctree.nodes": (run.sizes["index_nodes"], "count"),
        "maintain.affected_fraction_mean": (
            statistics.fmean(r.affected_fraction for r in run.maintenance),
            "ratio",
        ),
        "maintain.reused_ratio": (_per(reused, rebuilt), "ratio"),
        "maintain.route.incremental": (
            run.maintain_routes.get("maintain-incremental", 0), "count"
        ),
        "maintain.route.full": (
            run.maintain_routes.get("maintain-full", 0), "count"
        ),
        "maintain.snapshot_byte_mismatches": (run.byte_mismatches, "count"),
        "live.publish_ms_p50": (
            tracer.median_ms(run.churn_spans, "live.apply_delta"), "ms"
        ),
        "live.compactions": (run.compactions, "count"),
        "search.attributed_ms_mean": (
            1000 * _per(
                total.get("search.attributed", 0.0),
                calls.get("search.attributed", 0),
            ),
            "ms",
        ),
        "search.topk_ms_mean": (
            1000 * _per(
                total.get("search.topk", 0.0), calls.get("search.topk", 0)
            ),
            "ms",
        ),
        "core.communities_ms_total": (
            1000 * total.get("core.communities", 0.0), "ms"
        ),
        "client.publish_lateness_ms": (
            1000 * statistics.fmean(run.lateness), "ms"
        ),
        "trace.overhead_frac": (run.results["trace.overhead_frac"], "ratio"),
    }
    for label in ROUTES:
        metrics["route." + label.replace("+", ".")] = (
            run.build_counters[0].get(label, 0), "count"
        )
    other = sum(v for k, v in run.build_counters[0].items() if k not in ROUTES)
    metrics["route.other"] = (other, "count")
    server_self = tracer.layer_table(serve)
    for layer in SERVE_LAYERS:
        metrics[f"self.serve.{layer}_ms"] = (
            1000 * _per(server_self.get(layer, 0.0), requests), "ms"
        )
    metrics["trace.handler_coverage"] = (
        _per(sum(server_self.values()), counts["handler_seconds"]), "ratio"
    )
    build_layers = tracer.layer_table(build)
    for layer in BUILD_LAYERS:
        metrics[f"self.build.{layer}_s"] = (
            build_layers.get(layer, 0.0), "s"
        )
    metrics["trace.build_coverage"] = (
        _per(sum(build_self.values()), run.build_samples[0]), "ratio"
    )
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload, print its report; returns ``(tally, metrics)``."""
    run = Run(WORKLOADS[name], seed, seconds, trace)
    try:
        run.execute()
    finally:
        run.close()
    metrics = run.per_layer() if trace else run.end_to_end()
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, value in run.sizes.items():
        print(f"  input {key:<28} {value}")
    for key, elapsed in run.phase_s.items():
        print(f"  phase {key:<28} {elapsed:.2f} s wall")
    for key, values in (
        ("build_s", run.build_samples),
        ("setup_s", run.setup_samples),
        ("maintain_s", run.maintain_s),
    ):
        print(f"  samples {key:<26} " + " ".join(f"{v:.3f}" for v in values))
    for key, (value, unit) in metrics.items():
        note = ""
        if key.endswith("_p90_ms"):
            count = run.sizes[f"samples.{key.rsplit('_', 2)[0]}"]
            note = f"  (n={count}, {samples_beyond(count, 0.9)} beyond"
            note += ")" if supported(count, 0.9) else ", under 10)"
        print(f"  {key:<36} {value:14.4f} {unit}{note}")
    for problem in run.tally.problems:
        print(f"  FAILED: {problem}")
    print(f"  attempted {run.tally.attempted} failed {run.tally.failed}")
    return run.tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="a workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        tally, found = run_workload(
            name, args.seed, args.seconds, bool(args.trace)
        )
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, (value, unit) in found.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
