"""The four benchmark workloads, driven through the library's public entry points.

Each workload builds its system from the seed, runs a warm-up, then a
measured window, and keeps every answer so the caller can check it
against a separately built reference store afterwards (outside the
timed region).

* ``serve-zipf-open`` - open loop over TCP to an :class:`SlsServer` in
  a child process: the only workload on the frame codec, admission and
  the batch window, with heavy row reuse so the pad caches hit.
* ``batch-uniform-closed`` - ``store.sls_many`` batches of 64 uniform
  queries over 2^16 rows: almost no pad reuse, so AES and the per-query
  dot / field-dot / result-tag loop dominate; serve and cluster are
  bypassed.  Runnable by name, but not in ``BENCHMARK.json``: its runs
  are the longest, and the other three fit the benchmark's time budget
  with longer windows.  Every layer it runs, the other three run too.
* ``rekey-zipf-closed`` - single-query ``store.sls`` on a recovery
  store, with ``reencrypt_table`` every ``REKEY_EVERY`` reads: the only
  workload on the write path and on version-keyed cache refill.
* ``cluster-zipf-closed`` - ``ClusterCoordinator.sls_many`` batches of
  64 on ``LocalCluster(2)``: the only workload on the cluster codec,
  node round-trips, ``pad_share_batch`` and per-shard verification.

The warm-up matters: pad caches fill and the allocator settles during
the first batches, and back-to-back passes in one process were seen to
drift by 40% while caches grew, so nothing before the window is timed.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing as mp
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

import tracer as tr
from harness import peak_rss_mb, poisson_schedule

QUERIES_PER_BATCH = 64
ZIPF_ROWS, ZIPF_DIM = 8192, 64
ZIPF_PF = (60, 100)
ZIPF_HOT_FRACTION, ZIPF_HOT_PROBABILITY = 0.05, 0.9
#: 2^16 rows is 256x the rows the 4096-block OTP cache can hold, so pads
#: are almost never reused; a larger table only lengthens set-up.
UNIFORM_ROWS, UNIFORM_DIM, UNIFORM_PF = 1 << 16, 64, 80

#: Open-loop settings.  The server's defaults (p99 < 50 ms, max_batch 32)
#: would shed at steady state on a 2-CPU host, so both are set explicitly.
#: The rate sits well below capacity (a batch of one or two queries takes
#: 5-10 ms here), so queueing adds little to the service time.
SERVE_RATE_QPS = 50.0
SERVE_CONNECTIONS = 2
SERVE_MAX_BATCH = 16
SERVE_SLO = "serve.latency.p99 < 500ms @ 5%"
SERVE_MAX_QUEUE = 4096

#: Reads between two re-encryptions in ``rekey-zipf-closed``.
REKEY_EVERY = 50

CLUSTER_NODES = 2
#: Per-dispatch deadline; generous so a slow host never trips blame.
CLUSTER_TIMEOUT_S = 60.0

WARMUP_S = 1.5


def make_key(seed: int) -> bytes:
    return np.random.default_rng([seed, 0]).bytes(16)


def make_table(seed: int, n_rows: int, dim: int) -> np.ndarray:
    return np.random.default_rng([seed, 1]).normal(size=(n_rows, dim))


def build_store(seed: int, n_rows: int, dim: int, recovery: bool, tracer=None):
    """One store from the seed; the same seed gives the same key and table.

    With a tracer the layer wrappers go in before the table is loaded,
    so the write path of set-up is traced too.
    """
    from repro.core.params import SecNDPParams
    from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
    from repro.faults.recovery import RecoveryPolicy
    from repro.workloads.secure_sls import SecureEmbeddingStore

    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(make_key(seed), params),
        UntrustedNdpDevice(params),
        quantization="table",
        recovery=RecoveryPolicy(retain_plaintext=True) if recovery else None,
    )
    if tracer is not None:
        tr.install_store(tracer, store)
    table = make_table(seed, n_rows, dim)
    t0 = time.perf_counter()
    store.add_table("emb", table)
    return store, table, time.perf_counter() - t0


def cache_info(store) -> Dict[str, list]:
    """Hit/miss counters of the pad caches; a cache the library lacks is omitted."""
    enc = store.processor.encryptor
    probes = {
        "otp_block": getattr(getattr(enc, "otp", None), "cache_info", None),
        "row": getattr(enc, "row_cache_info", None),
        "tag": getattr(store.processor.mac, "tag_cache_info", None),
    }
    return {name: list(probe()) for name, probe in probes.items() if probe is not None}


def _pairs(trace) -> List[Tuple[List[int], List[int]]]:
    return [
        ([int(r) for r in ix], [int(w) for w in ws])
        for ix, ws in zip(trace.indices, trace.weights)
    ]


@dataclass
class Leg:
    """Everything one warm-up + measured window produced."""

    latencies_ms: List[float] = field(default_factory=list)  #: window requests
    write_ms: List[float] = field(default_factory=list)
    #: (rows, weights, values, counted in qps, request index) per answered query
    answers: list = field(default_factory=list)
    attempted: int = 0          #: requests issued, warm-up included
    failed: int = 0             #: errors and shed requests
    window_s: float = 0.0
    window_requests: int = 0
    lag_ms: List[float] = field(default_factory=list)
    backlog: int = 0
    shed: int = 0
    peak_rss_mb: float = 0.0
    w0: int = 0
    w1: int = 0
    info: dict = field(default_factory=dict)
    #: pid -> flat spans recorded in child processes
    child_spans: Dict[int, list] = field(default_factory=dict)


class Workload:
    """Set-up / run / teardown of one workload, inputs drawn from the seed."""

    name = ""
    n_rows, dim, recovery = ZIPF_ROWS, ZIPF_DIM, False
    per_request = QUERIES_PER_BATCH   #: queries in one request
    entry_spans: Tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        #: seconds of each set-up's whole-table write (quantise + encrypt + tag)
        self.write_samples: List[float] = []

    # -- inputs ------------------------------------------------------------------

    def trace_chunk(self, k: int):
        from repro.workloads.traces import production_trace

        return production_trace(
            self.n_rows, 256, pf_range=ZIPF_PF, hot_fraction=ZIPF_HOT_FRACTION,
            hot_probability=ZIPF_HOT_PROBABILITY, seed=self.seed * 1_000_003 + k,
        )

    def queries(self) -> Iterator[Tuple[List[int], List[int]]]:
        k = 0
        while True:
            yield from _pairs(self.trace_chunk(k))
            k += 1

    def requests(self) -> Iterator[list]:
        """The query stream cut into requests of ``per_request`` queries."""
        it = self.queries()
        while True:
            yield [next(it) for _ in range(self.per_request)]

    def settings(self) -> dict:
        return {"rows": self.n_rows, "dim": self.dim, "queries_per_request": self.per_request}

    def build(self, tracer=None):
        return build_store(self.seed, self.n_rows, self.dim, self.recovery, tracer)

    # -- lifecycle ----------------------------------------------------------------

    def setup(self, tracer=None) -> float:
        """Build the system; returns seconds until it can serve."""
        t0 = time.perf_counter()
        self.store, _table, write_s = self.build(tracer)
        elapsed = time.perf_counter() - t0
        self.write_samples.append(write_s)
        return elapsed

    def teardown(self) -> None:
        self.store = None

    def call(self, batch) -> list:
        """Serve one request; returns one answer per query."""
        return self.store.sls_many("emb", [r for r, _ in batch], [w for _, w in batch])

    def after_request(self, i: int, in_window: bool, leg: "Leg") -> None:
        """Hook after the ``i``-th request (1-based)."""

    def run(self, seconds: float) -> Leg:
        """Warm-up, then the measured window; tears the system down after."""
        leg = Leg()
        self._closed_loop(seconds, leg)
        leg.peak_rss_mb = peak_rss_mb()
        leg.info["cache"] = cache_info(self.store)
        self.teardown()
        return leg

    # -- the closed loop shared by the in-process workloads ----------------------

    def _closed_loop(self, seconds: float, leg: Leg) -> None:
        reqs = self.requests()
        t_end_warm = time.perf_counter() + WARMUP_S
        i = 0
        in_window = False
        while True:
            now = time.perf_counter()
            if not in_window and now >= t_end_warm:
                in_window = True
                leg.w0 = time.perf_counter_ns()
                t_end = now + seconds
            if in_window and now >= t_end:
                break
            batch = next(reqs)
            t0 = time.perf_counter()
            values = self.call(batch)
            dt = time.perf_counter() - t0
            leg.attempted += 1
            i += 1
            for q, (rows, weights) in enumerate(batch):
                leg.answers.append((rows, weights, values[q], in_window, i))
            if in_window:
                leg.latencies_ms.append(dt * 1e3)
                leg.window_requests += 1
            self.after_request(i, in_window, leg)
        leg.w1 = time.perf_counter_ns()
        leg.window_s = (leg.w1 - leg.w0) / 1e9


class BatchUniformClosed(Workload):
    name = "batch-uniform-closed"
    n_rows, dim = UNIFORM_ROWS, UNIFORM_DIM
    entry_spans = ("secure_sls.sls_many",)

    def trace_chunk(self, k: int):
        from repro.workloads.traces import random_trace

        return random_trace(
            self.n_rows, 4 * QUERIES_PER_BATCH, UNIFORM_PF, seed=self.seed * 1_000_003 + k
        )

    def settings(self) -> dict:
        return {**super().settings(), "pooling_factor": UNIFORM_PF, "trace": "random_trace"}


class RekeyZipfClosed(Workload):
    name = "rekey-zipf-closed"
    recovery = True
    per_request = 1
    entry_spans = ("secure_sls.sls", "secure_sls.reencrypt_table")

    def settings(self) -> dict:
        return {**super().settings(), "reencrypt_every": REKEY_EVERY,
                "recovery": "RecoveryPolicy(retain_plaintext=True)"}

    def call(self, batch) -> list:
        rows, weights = batch[0]
        return [self.store.sls("emb", rows, weights)]

    def after_request(self, i: int, in_window: bool, leg: "Leg") -> None:
        if i % REKEY_EVERY:
            return
        t0 = time.perf_counter()
        self.store.reencrypt_table("emb")
        if in_window:
            leg.write_ms.append((time.perf_counter() - t0) * 1e3)


# -- serve: the server runs in a child process ------------------------------------


def split_cpus():
    """``(server CPUs, generator CPUs)``, or ``(None, None)`` on one CPU.

    The server child gets the last CPU and the load generator the rest,
    so the generator is never queued behind the server's two threads
    (its event loop and the crypto offload thread) and its lag stays the
    lag of the schedule, not of the host's run queue.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


def serve_child(conn, seed: int, trace: bool, cpus) -> None:
    """Child entry: build the store, serve until told to stop, report back."""
    if cpus:
        os.sched_setaffinity(0, cpus)
    tracer = tr.Tracer() if trace else None
    store, _table, write_s = build_store(seed, ZIPF_ROWS, ZIPF_DIM, False, tracer)
    asyncio.run(_serve_child(conn, store, write_s, tracer))


async def _serve_child(conn, store, write_s, tracer) -> None:
    from repro.serve import AdmissionConfig, SlsServer

    server = SlsServer(
        store, port=0, max_batch=SERVE_MAX_BATCH,
        admission=AdmissionConfig(slo=SERVE_SLO, max_queue=SERVE_MAX_QUEUE),
    )
    if tracer is not None:
        tr.install_server(tracer, server)
    await server.start()
    conn.send(("ready", server.port, write_s))
    await asyncio.get_running_loop().run_in_executor(None, conn.recv)
    await server.close()
    conn.send(("done", {
        "stats": server.stats(),
        "peak_rss_mb": peak_rss_mb(),
        "cache": cache_info(store),
        "pid": os.getpid(),
        "spans": tr.flat_spans(tracer.spans) if tracer is not None else [],
    }))
    conn.close()


class ServeZipfOpen(Workload):
    name = "serve-zipf-open"
    per_request = 1
    entry_spans = ("secure_sls.sls_scatter",)

    def settings(self) -> dict:
        server_cpus, generator_cpus = split_cpus()
        return {**super().settings(), "rate_qps": SERVE_RATE_QPS,
                "connections": SERVE_CONNECTIONS, "max_batch": SERVE_MAX_BATCH,
                "slo": SERVE_SLO, "max_queue": SERVE_MAX_QUEUE, "codec": "json",
                "arrivals": "poisson",
                "server_cpus": sorted(server_cpus or []),
                "generator_cpus": sorted(generator_cpus or [])}

    def setup(self, tracer=None) -> float:
        t0 = time.perf_counter()
        ctx = mp.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=serve_child, args=(child, self.seed, tracer is not None, split_cpus()[0]),
            daemon=True,
        )
        self.proc.start()
        child.close()
        if not self.conn.poll(120.0):
            self.teardown()
            raise RuntimeError("server child did not report ready")
        _tag, self.port, write_s = self.conn.recv()
        self.write_samples.append(write_s)
        return time.perf_counter() - t0

    def teardown(self) -> dict:
        report: dict = {}
        if getattr(self, "proc", None) is None:
            return report
        try:
            self.conn.send("stop")
            if self.conn.poll(60.0):
                _tag, report = self.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        self.conn.close()
        self.proc.join(30.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(10.0)
        self.proc = None
        return report

    def run(self, seconds: float) -> Leg:
        leg = Leg()
        # The generator must not stall on its own garbage: collector pauses
        # here would show up as lag and as latency the server never caused.
        gc.disable()
        own_cpus = os.sched_getaffinity(0)
        generator_cpus = split_cpus()[1]
        if generator_cpus:
            os.sched_setaffinity(0, generator_cpus)
        try:
            asyncio.run(self._drive(seconds, leg))
        finally:
            os.sched_setaffinity(0, own_cpus)
            gc.enable()
        report = self.teardown()
        leg.peak_rss_mb = report.get("peak_rss_mb", 0.0)
        leg.info["cache"] = report.get("cache", {})
        leg.info["server_stats"] = report.get("stats", {})
        if report.get("spans"):
            leg.child_spans[report["pid"]] = report["spans"]
        leg.info["serving_pid"] = report.get("pid")
        return leg

    async def _drive(self, seconds: float, leg: Leg) -> None:
        from repro.serve import AsyncSlsClient, SlsRequest

        clients = [
            await AsyncSlsClient.connect("127.0.0.1", self.port)
            for _ in range(SERVE_CONNECTIONS)
        ]
        schedule = np.concatenate([
            poisson_schedule(self.seed, SERVE_RATE_QPS, 0.0, WARMUP_S),
            poisson_schedule(self.seed, SERVE_RATE_QPS, WARMUP_S, WARMUP_S + seconds),
        ])
        queries = self.queries()
        loop = asyncio.get_running_loop()
        results: list = []

        async def one(client, request, due, in_window):
            try:
                response = await client.request(request)
            except Exception as exc:  # a lost connection fails this request only
                response = exc
            done = time.perf_counter()
            results.append((request, response, done - due, done, in_window))

        tasks = []
        start = time.perf_counter() + 0.05
        leg.w0 = int((start + WARMUP_S) * 1e9)
        for i, at in enumerate(schedule):
            due = start + at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag = time.perf_counter() - due
            in_window = at >= WARMUP_S
            if in_window:
                leg.lag_ms.append(lag * 1e3)
            rows, weights = next(queries)
            request = SlsRequest(id=i + 1, op="sls", table="emb",
                                 rows=tuple(rows), weights=tuple(weights))
            tasks.append(loop.create_task(
                one(clients[i % SERVE_CONNECTIONS], request, due, in_window)
            ))
        end = start + WARMUP_S + seconds
        delay = end - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        leg.w1 = int(end * 1e9)
        leg.backlog = sum(1 for t in tasks if not t.done())
        await asyncio.wait_for(asyncio.gather(*tasks), 120.0)
        for client in clients:
            await client.close()
        # Goodput: answers completed inside the window per second of it, so
        # a growing backlog lowers it.  Latency stays with the requests
        # that fell due inside the window.
        leg.window_s = seconds
        for request, response, latency, done, in_window in results:
            leg.attempted += 1
            ok = not isinstance(response, Exception) and response.status == "ok"
            if not ok:
                leg.failed += 1
                if not isinstance(response, Exception) and response.status == "overloaded":
                    leg.shed += 1
            if in_window:
                leg.window_requests += 1
                if ok:
                    leg.latencies_ms.append(latency * 1e3)
            if ok:
                leg.answers.append((list(request.rows), list(request.weights),
                                    np.asarray(response.values, dtype=np.float64),
                                    start + WARMUP_S <= done < end, request.id))


# -- cluster: coordinator here, nodes in child processes ---------------------------


class ClusterZipfClosed(Workload):
    name = "cluster-zipf-closed"
    entry_spans = ("cluster.sls_many",)

    def settings(self) -> dict:
        return {**super().settings(), "nodes": CLUSTER_NODES,
                "task_timeout_s": CLUSTER_TIMEOUT_S, "codec": "json",
                "cpus": sorted(split_cpus()[0] or [])}

    def setup(self, tracer=None) -> float:
        """Coordinator and nodes share one CPU (the nodes inherit it at spawn).

        The coordinator awaits one node at a time, so nothing runs in
        parallel anyway; on one CPU each hand-off is a context switch
        rather than the wake-up of an idle virtual CPU.
        """
        from repro.cluster import ClusterCoordinator, LocalCluster

        self.own_cpus = os.sched_getaffinity(0)
        cpus = split_cpus()[0]
        if cpus:
            os.sched_setaffinity(0, cpus)
        t0 = time.perf_counter()
        store, _table, write_s = self.build(tracer)
        self.child_dir = tempfile.mkdtemp(prefix="children-", dir=self.out_dir)
        os.environ[tr.CHILD_DIR_ENV] = self.child_dir
        if tracer is not None:
            os.environ[tr.CHILD_TRACE_ENV] = "1"
        try:
            self.cluster = LocalCluster(CLUSTER_NODES)
            nodes = self.cluster.start()
        finally:
            os.environ.pop(tr.CHILD_DIR_ENV, None)
            os.environ.pop(tr.CHILD_TRACE_ENV, None)
        self.loop = asyncio.new_event_loop()
        self.coordinator = ClusterCoordinator(store, nodes, task_timeout_s=CLUSTER_TIMEOUT_S)
        self.loop.run_until_complete(self.coordinator.setup())
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tr.install_coordinator(tracer, self.coordinator)
        self.store = store
        self.write_samples.append(write_s)
        return elapsed

    def teardown(self) -> List[dict]:
        if getattr(self, "cluster", None) is None:
            return []
        try:
            self.loop.run_until_complete(self.coordinator.close())
        finally:
            self.loop.close()
            deadline = time.monotonic() + 20.0
            while self.cluster.alive() and time.monotonic() < deadline:
                time.sleep(0.05)
            self.cluster.close()
            self.cluster = None
            os.sched_setaffinity(0, self.own_cpus)
        reports = tr.read_children(self.child_dir)
        shutil.rmtree(self.child_dir, ignore_errors=True)
        return reports

    def call(self, batch) -> list:
        return self.loop.run_until_complete(self.coordinator.sls_many(
            "emb", [r for r, _ in batch], [w for _, w in batch]
        ))

    def run(self, seconds: float) -> Leg:
        leg = Leg()
        coordinator = self.coordinator
        self._closed_loop(seconds, leg)
        leg.info["live"] = list(coordinator.live)
        leg.info["quarantined"] = list(coordinator.quarantined)
        leg.info["bounds"] = coordinator.shard_map.bounds["emb"]
        leg.info["cache"] = cache_info(self.store)
        own_rss = peak_rss_mb()
        children = self.teardown()
        leg.peak_rss_mb = own_rss + sum(c["peak_rss_mb"] for c in children)
        leg.info["node_rss_mb"] = [c["peak_rss_mb"] for c in children]
        for child in children:
            if child["spans"]:
                leg.child_spans[child["pid"]] = child["spans"]
        return leg


WORKLOADS = {
    cls.name: cls
    for cls in (ServeZipfOpen, BatchUniformClosed, RekeyZipfClosed, ClusterZipfClosed)
}
