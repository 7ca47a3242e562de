"""Correctness gate, count identities, and the end-to-end / per-layer metrics."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

import tracer as tr
from harness import median, tail_percentile

#: (name, unit); the order is the print order.
END_TO_END = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("serve.scheduler.queue_wait_p50_ms", "ms"),
    ("serve.scheduler.queue_wait_p99_ms", "ms"),
    ("serve.scheduler.batch_size_mean", "count"),
    ("serve.admission.shed_frac", "ratio"),
    ("serve.protocol.codec_ms_per_req", "ms"),
    ("secure_sls.self_share", "ratio"),
    ("secure_sls.dedupe_ratio", "ratio"),
    ("protocol.pad_half_ms_per_query", "ms"),
    ("protocol.device_half_ms_per_query", "ms"),
    ("protocol.combine_ms_per_query", "ms"),
    ("protocol.verify_ms_per_query", "ms"),
    ("encryption.pad_rows", "count"),
    ("encryption.busy_ms", "ms"),
    ("encryption.row_cache_hit_ratio", "ratio"),
    ("otp.block_cache_hit_ratio", "ratio"),
    ("mac.busy_ms", "ms"),
    ("mac.tag_cache_hit_ratio", "ratio"),
    ("tweaked.aes_blocks", "count"),
    ("tweaked.ns_per_block", "ns"),
    ("ring.dots", "count"),
    ("ring.busy_ms", "ms"),
    ("limb_field.field_dots", "count"),
    ("limb_field.busy_ms", "ms"),
    ("checksum.result_tags", "count"),
    ("checksum.busy_ms", "ms"),
    ("encryption.encrypt_ms", "ms"),
    ("mac.attach_tags_ms", "ms"),
    ("cluster.node.rtt_p50_ms", "ms"),
    ("cluster.node.wait_share", "ratio"),
    ("cluster.node.dispatches", "count"),
    ("cluster.node.retries", "count"),
    ("cluster.codec.bytes_per_query_out", "B"),
    ("cluster.codec.bytes_per_query_in", "B"),
    ("cluster.codec.busy_ms", "ms"),
    ("cluster.pad_share_ms_per_batch", "ms"),
    ("cluster.verify_share_ms_per_batch", "ms"),
    ("cluster.finalize_ms_per_batch", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_end", "count"),
    ("trace.queries", "count"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

UNITS = dict(END_TO_END + PER_LAYER)

#: Queries per reference ``sls_many`` call (larger batches share more pads).
REFERENCE_CHUNK = 256


# -- correctness ---------------------------------------------------------------------


def check_answers(workload, legs) -> Tuple[List[Set[int]], str]:
    """Bit-for-bit check of every answer against a separately built store.

    Returns, per leg, the request indices with a wrong answer, plus a
    note on the one plaintext check (within the quantisation tolerance).
    """
    ref_store, table, write_s = workload.build()
    workload.write_samples.append(write_s)  # the same whole-table write
    # Pads are pure functions of (key, version, address), so the pad cache
    # is invisible in the answers; without it the reference is a second,
    # cache-free path, and faster than the cached one.
    otp = getattr(ref_store.processor.encryptor, "otp", None)
    if hasattr(otp, "resize_cache"):
        otp.resize_cache(0)
    flat = [(li, a) for li, leg in enumerate(legs) for a in leg.answers]
    wrong: List[Set[int]] = [set() for _ in legs]
    for start in range(0, len(flat), REFERENCE_CHUNK):
        chunk = flat[start:start + REFERENCE_CHUNK]
        expected = ref_store.sls_many(
            "emb", [a[0] for _, a in chunk], [a[1] for _, a in chunk]
        )
        for (li, (_rows, _w, values, _in_window, req)), ref in zip(chunk, expected):
            got = np.ascontiguousarray(values, dtype=np.float64)
            if got.shape != ref.shape or got.tobytes() != np.ascontiguousarray(ref).tobytes():
                wrong[li].add(req)

    # Once per run: against the float table, within what 8-bit table-wise
    # quantisation can lose (half a step per pooled row, times its weight).
    rows, weights, values = flat[0][1][:3]
    exact = np.asarray(weights, dtype=np.float64) @ table[rows]
    step = (table.max() - table.min()) / 255.0
    tol = sum(weights) * step / 2 * (1 + 1e-9) + 1e-9
    err = float(np.max(np.abs(np.asarray(values) - exact)))
    if err > tol:
        wrong[flat[0][0]].add(flat[0][1][4])
    return wrong, f"plaintext max abs err {err:.4g} (tolerance {tol:.4g})"


def check_identities(workload, spans: tr.SpanSet, node_sets: List[tr.SpanSet], leg) -> List[str]:
    """Counts that must hold exactly over the whole traced leg; returns violations."""
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: {got} != {want}")

    if workload.name != "cluster-zipf-closed":
        entries = _outermost(spans, workload.entry_spans)
        expect("NDP-half calls vs non-empty queries", spans.count("device.weighted_row_sum"),
               sum((s["extra"] or {}).get("nonempty", 0) for s in entries))
        expect("result_tag calls vs verified queries", spans.count("checksum.result_tag"),
               sum((s["extra"] or {}).get("queries", 0) for s in entries))
        return problems

    # Cluster: each batch is masked per shard; a shard with any of the
    # batch's rows gets one dispatch, runs the NDP half once per query it
    # holds rows of, and its share is checked query by query before the
    # combined check of every query.
    batches: Dict[int, List[List[int]]] = {}
    for rows, _w, _v, _in_window, req in leg.answers:
        batches.setdefault(req, []).append(rows)
    shard_queries = dispatched = tags = 0
    for rows_list in batches.values():
        hit = [sum(1 for r in rows_list if any(lo <= x < hi for x in r))
               for lo, hi in leg.info["bounds"]]
        shard_queries += sum(hit)
        shards = sum(1 for h in hit if h)
        dispatched += shards
        tags += len(rows_list) * (shards + 1)
    requests = [s for s in spans.named("cluster.node.request")
                if (s["extra"] or {}).get("op") == "partial_sum"]
    expect("node NDP-half calls vs non-empty shard queries",
           sum(n.count("device.weighted_row_sum") for n in node_sets), shard_queries)
    expect("dispatches vs shards holding rows", len(requests), dispatched)
    expect("dispatches vs live shards x batches", len(requests),
           len(leg.info["live"]) * len(batches))
    expect("result_tag calls vs per-shard + combined checks",
           spans.count("checksum.result_tag"), tags)
    return problems


def _outermost(spans: tr.SpanSet, names) -> List[dict]:
    names = set(names)
    return [
        spans.all[i] for i in spans.idx
        if spans.all[i]["name"] in names and not spans.has_ancestor(i, names)
    ]


# -- metrics ---------------------------------------------------------------------------


def window_correct_queries(leg, wrong: Set[int]) -> int:
    return sum(1 for a in leg.answers if a[3] and a[4] not in wrong)


def end_to_end(workload, leg, wrong: Set[int], setup_s: float) -> Tuple[Dict[str, float], dict]:
    lat = leg.latencies_ms
    pct, tail = tail_percentile(lat)
    writes = leg.write_ms or [w * 1e3 for w in workload.write_samples]
    metrics = {
        "setup_s": setup_s,
        "qps": window_correct_queries(leg, wrong) / leg.window_s,
        "latency_p50_ms": median(lat),
        "latency_p99_ms": tail,
        "write_p50_ms": median(writes),
        "peak_rss_mb": leg.peak_rss_mb,
    }
    notes = {
        "latency_samples": len(lat),
        "latency_tail_percentile": round(pct, 2),
        "write_samples": len(writes),
        "write_source": "reencrypt_table in window" if leg.write_ms else "add_table at set-up",
        "failed_frac": (leg.failed + len(wrong)) / max(leg.attempted, 1),
        "window_requests": leg.window_requests,
        "window_s": leg.window_s,
        "backlog_end": leg.backlog,
        "lag_p99_ms": tail_percentile(leg.lag_ms)[1] if leg.lag_ms else 0.0,
    }
    return metrics, notes


def _ratio(info) -> float:
    hits, misses = info[0], info[1]
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(workload, spans: tr.SpanSet, all_spans: tr.SpanSet,
              node_sets: List[tr.SpanSet], leg_plain, leg_traced,
              wrong_plain: Set[int], wrong_traced: Set[int]) -> Dict[str, float]:
    """Per-layer numbers of the traced leg; 0 where a layer did not run."""
    m = {name: 0.0 for name, _unit in PER_LAYER}
    entries = _outermost(spans, workload.entry_spans)
    queries = sum((s["extra"] or {}).get("queries", 0) for s in entries)
    ms = 1e-6
    m["trace.queries"] = queries
    q = max(queries, 1)

    cats = dict(spans.category_ns())
    for n in node_sets:
        cats["device"] = cats.get("device", 0) + n.category_ns().get("device", 0)
    m["protocol.pad_half_ms_per_query"] = cats.get("pad", 0) * ms / q
    m["protocol.device_half_ms_per_query"] = cats.get("device", 0) * ms / q
    m["protocol.combine_ms_per_query"] = cats.get("combine", 0) * ms / q
    m["protocol.verify_ms_per_query"] = cats.get("verify", 0) * ms / q

    every = [spans] + node_sets
    m["encryption.pad_rows"] = sum((s["extra"] or {}).get("n", 0)
                                   for s in spans.named("encryption.pads_for_rows"))
    m["encryption.busy_ms"] = spans.busy_ns("encryption.pads_for_rows") * ms
    m["mac.busy_ms"] = spans.busy_ns("mac.tag_pads_for_rows") * ms
    blocks = sum((s["extra"] or {}).get("n", 0) for s in spans.named("tweaked.encrypt_counters"))
    m["tweaked.aes_blocks"] = blocks
    m["tweaked.ns_per_block"] = spans.busy_ns("tweaked.encrypt_counters") / blocks if blocks else 0.0
    for count, busy, name in (("ring.dots", "ring.busy_ms", "ring.dot"),
                              ("limb_field.field_dots", "limb_field.busy_ms",
                               "limb_field.field_dot"),
                              ("checksum.result_tags", "checksum.busy_ms",
                               "checksum.result_tag")):
        m[count] = sum(s.count(name) for s in every)
        m[busy] = sum(s.busy_ns(name) for s in every) * ms

    cache = leg_traced.info.get("cache") or {}
    for metric, key in (("encryption.row_cache_hit_ratio", "row"),
                        ("otp.block_cache_hit_ratio", "otp_block"),
                        ("mac.tag_cache_hit_ratio", "tag")):
        if key in cache:
            m[metric] = _ratio(cache[key])

    # Write path: every call of the leg (set-up loads and in-window re-keys).
    for metric, name in (("encryption.encrypt_ms", "encryption.encrypt"),
                         ("mac.attach_tags_ms", "mac.attach_tags")):
        durs = [(s["end"] - s["start"]) * ms for s in all_spans.named(name)]
        m[metric] = median(durs)

    rows_total = sum((s["extra"] or {}).get("rows_total", 0) for s in entries)
    rows_unique = sum((s["extra"] or {}).get("rows_unique", 0) for s in entries)
    m["secure_sls.dedupe_ratio"] = rows_unique / rows_total if rows_total else 0.0
    m["secure_sls.self_share"] = spans.self_share(
        {"secure_sls.sls_many", "secure_sls.sls", "secure_sls.sls_scatter",
         "secure_sls.reencrypt_table"}
    )

    if workload.name == "serve-zipf-open":
        _serve_layers(m, spans, leg_traced)
    if workload.name == "cluster-zipf-closed":
        _cluster_layers(m, spans, entries, queries, len(leg_traced.info["live"]))

    m["trace.residual_share"] = spans.residual_share()
    if workload.name == "serve-zipf-open":
        # Open loop: goodput is pinned to the offered rate, so the cost of
        # tracing shows in latency instead.
        base = median(leg_plain.latencies_ms)
        m["trace.overhead_frac"] = median(leg_traced.latencies_ms) / base - 1 if base else 0.0
    else:
        plain = window_correct_queries(leg_plain, wrong_plain) / leg_plain.window_s
        traced = window_correct_queries(leg_traced, wrong_traced) / leg_traced.window_s
        m["trace.overhead_frac"] = 1 - traced / plain if plain else 0.0
    return m


def _serve_layers(m, spans: tr.SpanSet, leg) -> None:
    executes = spans.named("secure_sls.sls_scatter")
    waits = []
    for sub in spans.named("serve.scheduler.submit"):
        extra = sub["extra"] or {}
        if extra.get("status") != "ok":
            continue
        for ex in executes:
            if (sub["start"] <= ex["start"] and ex["end"] <= sub["end"]
                    and extra["key"] in ex["extra"]["keys"]):
                waits.append(((sub["end"] - sub["start"]) - (ex["end"] - ex["start"])) * 1e-6)
                break
    if waits:
        m["serve.scheduler.queue_wait_p50_ms"] = median(waits)
        m["serve.scheduler.queue_wait_p99_ms"] = tail_percentile(waits)[1]
    if executes:
        m["serve.scheduler.batch_size_mean"] = (
            sum(e["extra"]["queries"] for e in executes) / len(executes)
        )
    requests = max(leg.window_requests, 1)
    m["serve.admission.shed_frac"] = leg.shed / max(leg.attempted, 1)
    codec_ns = spans.busy_ns("codec.encode_frame") + spans.busy_ns("codec.decode_payload")
    m["serve.protocol.codec_ms_per_req"] = codec_ns * 1e-6 / requests
    m["loadgen.lag_p99_ms"] = tail_percentile(leg.lag_ms)[1] if leg.lag_ms else 0.0
    m["loadgen.backlog_end"] = leg.backlog


def _cluster_layers(m, spans: tr.SpanSet, entries, queries: int, live: int) -> None:
    batches = max(len(entries), 1)
    requests = [s for s in spans.named("cluster.node.request")
                if (s["extra"] or {}).get("op") == "partial_sum"]
    rtts = [(s["end"] - s["start"]) * 1e-6 for s in requests]
    m["cluster.node.rtt_p50_ms"] = median(rtts)
    total = sum(s["end"] - s["start"] for s in entries)
    m["cluster.node.wait_share"] = sum(rtts) * 1e6 / total if total else 0.0
    m["cluster.node.dispatches"] = len(requests)
    m["cluster.node.retries"] = len(requests) - live * len(entries)
    q = max(queries, 1)
    m["cluster.codec.bytes_per_query_out"] = sum(
        s["extra"]["bytes"] for s in spans.named("codec.encode_frame")) / q
    m["cluster.codec.bytes_per_query_in"] = sum(
        s["extra"]["bytes"] for s in spans.named("codec.decode_payload")) / q
    m["cluster.codec.busy_ms"] = sum(
        spans.busy_ns(n) for n in ("codec.encode_queries", "codec.decode_device_sums",
                                   "codec.encode_frame", "codec.decode_payload")) * 1e-6
    m["cluster.pad_share_ms_per_batch"] = spans.busy_ns("cluster.pad_share_batch") * 1e-6 / batches
    m["cluster.verify_share_ms_per_batch"] = (
        spans.busy_ns("cluster.verify_partial_share") * 1e-6 / batches)
    m["cluster.finalize_ms_per_batch"] = (
        spans.busy_ns("cluster.finalize_row_sum_batch") * 1e-6 / batches)
