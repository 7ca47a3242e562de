"""Spans recorded from outside the library, by wrapping public methods.

A :class:`Tracer` replaces a method on an object the benchmark built
(or, in a cluster-node child, on a class) with a wrapper that records a
span: name, start, end, parent span and request id.  Spans stay in
memory and are written as Chrome trace-event JSON when the run ends.
Parent links follow a :class:`contextvars.ContextVar`, so they hold
across ``await`` inside one task; work handed to an executor thread
starts a new root there.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from harness import peak_rss_mb, self_time, union_length

# Span record layout (plain lists: cheap to build, picklable across a pipe).
NAME, START, END, PARENT, RID, TID, EXTRA = range(7)

#: Layer categories of the paper's split (Sec. V-E3): the trusted pad
#: half, the NDP ciphertext half, the one-adder combine, and tag
#: verification.  A span counts toward its category only when no
#: ancestor span already belongs to a category.
CATEGORIES = {
    "encryption.pads_for_rows": "pad",
    "mac.tag_pads_for_rows": "pad",
    "device.weighted_row_sum": "device",
    "device.weighted_tag_sum": "device",
    "ring.dot": "combine",
    "ring.add": "combine",
    "protocol.combine_device_sums": "combine",
    "checksum.result_tag": "verify",
    "limb_field.field_dot": "verify",
}

#: Env var naming the directory where spawned children drop their
#: peak RSS (and spans, when tracing) at exit.
CHILD_DIR_ENV = "PERFBENCH_CHILD_DIR"
CHILD_TRACE_ENV = "PERFBENCH_CHILD_TRACE"


class Tracer:
    """In-memory span recorder with method wrappers and an undo list."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._rids = itertools.count(1)
        self._undo: List[tuple] = []
        self._wrapped: set = set()

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, rid: Optional[int]) -> list:
        parent = self._current.get()
        if parent is not None:
            rid = parent[RID]
        elif rid is None:
            rid = next(self._rids)
        span = [name, time.perf_counter_ns(), 0, parent, rid, threading.get_ident(), None]
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        extra: Optional[Callable] = None,
        rid: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``extra(result, *args, **kwargs)`` annotates the span after the
        call; ``rid(*args, **kwargs)`` names the request of a root span.
        A missing attribute is skipped, so the benchmark still runs on a
        library that has dropped or renamed one layer.
        """
        if (id(owner), attr) in self._wrapped or not hasattr(owner, attr):
            return  # already wrapped, or a layer this version of the library lacks
        self._wrapped.add((id(owner), attr))
        orig = getattr(owner, attr)
        current = self._current

        if inspect.iscoroutinefunction(orig):

            @functools.wraps(orig)
            async def wrapper(*args, **kwargs):
                span = self._open(name, rid(*args, **kwargs) if rid else None)
                token = current.set(span)
                try:
                    result = await orig(*args, **kwargs)
                finally:
                    span[END] = time.perf_counter_ns()
                    current.reset(token)
                if extra is not None:
                    span[EXTRA] = extra(result, *args, **kwargs)
                return result

        else:

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                span = self._open(name, rid(*args, **kwargs) if rid else None)
                token = current.set(span)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    span[END] = time.perf_counter_ns()
                    current.reset(token)
                if extra is not None:
                    span[EXTRA] = extra(result, *args, **kwargs)
                return result

        own = isinstance(owner, type) or inspect.ismodule(owner) or attr in vars(owner)
        _set(owner, attr, wrapper)
        self._undo.append((owner, attr, orig if own else None))

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, orig in reversed(self._undo):
            if orig is None:
                object.__delattr__(owner, attr)  # back to the class's method
            else:
                _set(owner, attr, orig)
        self._undo.clear()



def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, type) or inspect.ismodule(owner):
        setattr(owner, attr, value)
    else:
        # object.__setattr__ also reaches frozen dataclass instances (Ring).
        object.__setattr__(owner, attr, value)


# -- wiring: which public methods each layer is timed at ------------------------


def _rows_extra(result, name, batch_rows, *args, **kwargs):
    rows = [list(r) for r in batch_rows]
    total = sum(len(r) for r in rows)
    unique = len({x for r in rows for x in r})
    return {
        "queries": len(rows),
        "nonempty": sum(1 for r in rows if r),
        "rows_total": total,
        "rows_unique": unique,
        "keys": [hash(tuple(int(x) for x in r)) for r in rows],
    }


def _len_extra(index: int):
    def extra(result, *args, **kwargs):
        return {"n": len(args[index])}

    return extra


def install_protocol(tracer: Tracer, processor, device=None) -> None:
    """Wrap the per-layer entry points of one processor (and its device)."""
    tracer.wrap(processor.encryptor, "pads_for_rows", "encryption.pads_for_rows",
                extra=_len_extra(1))
    tracer.wrap(processor.encryptor, "encrypt", "encryption.encrypt")
    tracer.wrap(processor.mac, "tag_pads_for_rows", "mac.tag_pads_for_rows")
    tracer.wrap(processor.mac, "attach_tags", "mac.attach_tags")
    tracer.wrap(processor.cipher, "encrypt_counters", "tweaked.encrypt_counters",
                extra=_len_extra(1))
    tracer.wrap(processor.checksum, "result_tag", "checksum.result_tag")
    tracer.wrap(processor.ring, "dot", "ring.dot")
    tracer.wrap(processor.ring, "add", "ring.add")
    if device is not None:
        install_device(tracer, device)


def install_device(tracer: Tracer, device) -> None:
    tracer.wrap(device, "weighted_row_sum", "device.weighted_row_sum")
    tracer.wrap(device, "weighted_tag_sum", "device.weighted_tag_sum")
    tracer.wrap(device.ring, "dot", "ring.dot")


def install_field_dot(tracer: Tracer) -> None:
    from repro.crypto import limb_field

    tracer.wrap(limb_field, "field_dot", "limb_field.field_dot")


def install_store(tracer: Tracer, store) -> None:
    """Wrap a :class:`SecureEmbeddingStore` and everything under it."""
    tracer.wrap(store, "sls_many", "secure_sls.sls_many", extra=_rows_extra)
    tracer.wrap(
        store, "sls", "secure_sls.sls",
        extra=lambda result, name, rows, *a, **k: _rows_extra(result, name, [rows]),
    )
    tracer.wrap(store, "sls_scatter", "secure_sls.sls_scatter", extra=_rows_extra)
    tracer.wrap(store, "reencrypt_table", "secure_sls.reencrypt_table")
    install_protocol(tracer, store.processor, store.device)
    install_field_dot(tracer)


def install_frames(tracer: Tracer) -> None:
    """Wrap the frame codec; spans carry the payload bytes."""
    from repro.serve import protocol

    tracer.wrap(protocol, "encode_frame", "codec.encode_frame",
                extra=lambda result, *a, **k: {"bytes": len(result)})
    tracer.wrap(protocol, "decode_payload", "codec.decode_payload",
                extra=lambda result, codec, payload, *a, **k: {"bytes": len(payload)})


def install_server(tracer: Tracer, server) -> None:
    """Serve child: scheduler submit spans plus the store beneath them."""
    tracer.wrap(
        server.scheduler, "submit", "serve.scheduler.submit",
        rid=lambda request: request.id,
        extra=lambda response, request: {
            "key": hash(tuple(int(x) for x in request.rows)),
            "status": response.status,
        },
    )
    install_frames(tracer)
    install_store(tracer, server.scheduler.store)


def install_coordinator(tracer: Tracer, coordinator) -> None:
    """Cluster coordinator: node round-trips, wire codec, per-shard work."""
    from repro.cluster import codec

    tracer.wrap(coordinator, "sls_many", "cluster.sls_many", extra=_rows_extra)
    for client in coordinator.clients.values():
        tracer.wrap(client, "request", "cluster.node.request",
                    extra=lambda result, op, *a, **k: {"op": op})
    processor = coordinator.store.processor
    tracer.wrap(processor, "pad_share_batch", "cluster.pad_share_batch")
    tracer.wrap(processor, "combine_device_sums", "protocol.combine_device_sums")
    tracer.wrap(processor, "verify_partial_share", "cluster.verify_partial_share")
    tracer.wrap(processor, "finalize_row_sum_batch", "cluster.finalize_row_sum_batch")
    tracer.wrap(codec, "encode_queries", "codec.encode_queries")
    tracer.wrap(codec, "decode_device_sums", "codec.decode_device_sums")
    install_frames(tracer)
    install_protocol(tracer, processor, coordinator.store.device)
    install_field_dot(tracer)


def install_node_classes(tracer: Tracer) -> None:
    """Cluster-node child: the node builds its device itself, so wrap classes."""
    from repro.cluster import codec
    from repro.core.protocol import UntrustedNdpDevice
    from repro.crypto.ring import Ring

    tracer.wrap(UntrustedNdpDevice, "partial_sum_batch", "node.partial_sum_batch")
    tracer.wrap(Ring, "dot", "ring.dot")
    tracer.wrap(UntrustedNdpDevice, "weighted_row_sum", "device.weighted_row_sum")
    tracer.wrap(UntrustedNdpDevice, "weighted_tag_sum", "device.weighted_tag_sum")
    tracer.wrap(codec, "decode_queries", "codec.decode_queries")
    tracer.wrap(codec, "encode_device_sums", "codec.encode_device_sums")
    install_frames(tracer)
    install_field_dot(tracer)


def install_child_hook() -> None:
    """Run in every spawned child that imports the entry module.

    When :data:`CHILD_DIR_ENV` is set the child reports its peak RSS at
    exit; with :data:`CHILD_TRACE_ENV` it also wraps the node classes and
    reports its spans.  Both land in one JSON file named after the pid.
    """
    out_dir = os.environ.get(CHILD_DIR_ENV)
    if not out_dir:
        return
    tracer = Tracer() if os.environ.get(CHILD_TRACE_ENV) else None
    if tracer is not None:
        install_node_classes(tracer)

    def dump() -> None:
        payload = {
            "pid": os.getpid(),
            "peak_rss_mb": peak_rss_mb(),
            "spans": flat_spans(tracer.spans) if tracer is not None else [],
        }
        path = os.path.join(out_dir, f"child-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(payload, fh)
        os.replace(path + ".tmp", path)

    atexit.register(dump)


def read_children(out_dir: str) -> List[dict]:
    """Every child report left in ``out_dir``."""
    reports = []
    if not os.path.isdir(out_dir):
        return reports
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("child-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                reports.append(json.load(fh))
    return reports


# -- analysis ---------------------------------------------------------------------


def flat_spans(spans: List[list]) -> List[dict]:
    """Span lists -> dicts with integer parent indices (pipe/JSON friendly)."""
    index = {id(s): i for i, s in enumerate(spans)}
    out = []
    for s in spans:
        parent = s[PARENT]
        if isinstance(parent, list):
            parent = index.get(id(parent))
        extra = s[EXTRA] if isinstance(s[EXTRA], dict) else None
        out.append({
            "name": s[NAME], "start": s[START], "end": s[END],
            "parent": parent, "rid": s[RID], "tid": s[TID], "extra": extra,
        })
    return out


class SpanSet:
    """Spans of one process, restricted to a window, with tree queries."""

    def __init__(self, spans: List[dict], w0: int, w1: int):
        roots_in = set()
        for i, s in enumerate(spans):
            if s["parent"] is None and w0 <= s["start"] < w1 and s["end"]:
                roots_in.add(i)
        keep = []
        for i, s in enumerate(spans):
            root = i
            while spans[root]["parent"] is not None:
                root = spans[root]["parent"]
            if root in roots_in and s["end"]:
                keep.append(i)
        self.all = spans
        self.idx = keep
        self.window_ns = w1 - w0
        self.w0, self.w1 = w0, w1
        self.children: Dict[int, List[int]] = defaultdict(list)
        for i in keep:
            parent = spans[i]["parent"]
            if parent is not None:
                self.children[parent].append(i)

    def named(self, name: str) -> List[dict]:
        return [self.all[i] for i in self.idx if self.all[i]["name"] == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def busy_ns(self, name: str) -> int:
        """Inclusive time of the outermost ``name`` spans (no double count)."""
        total = 0
        for i in self.idx:
            s = self.all[i]
            if s["name"] == name and not self.has_ancestor(i, {name}):
                total += s["end"] - s["start"]
        return total

    def has_ancestor(self, i: int, names) -> bool:
        parent = self.all[i]["parent"]
        while parent is not None:
            if self.all[parent]["name"] in names:
                return True
            parent = self.all[parent]["parent"]
        return False

    def category_ns(self) -> Dict[str, int]:
        """Inclusive time per category, outermost categorized spans only."""
        out: Dict[str, int] = defaultdict(int)
        for i in self.idx:
            s = self.all[i]
            cat = CATEGORIES.get(s["name"])
            if cat is None:
                continue
            if self.has_ancestor(i, CATEGORIES.keys()):
                continue
            out[cat] += s["end"] - s["start"]
        return out

    def self_ns(self, i: int) -> int:
        s = self.all[i]
        kids = [(self.all[c]["start"], self.all[c]["end"]) for c in self.children.get(i, [])]
        return self_time(s["start"], s["end"], kids)

    def self_share(self, names) -> float:
        """Self time over inclusive time of the outermost ``names`` spans."""
        names = set(names)
        incl = own = 0
        for i in self.idx:
            s = self.all[i]
            if s["name"] not in names:
                continue
            own += self.self_ns(i)
            if not self.has_ancestor(i, names):
                incl += s["end"] - s["start"]
        return own / incl if incl else 0.0

    def residual_share(self) -> float:
        """Share of the window's wall time covered by no span at all."""
        covered = union_length(
            (max(self.all[i]["start"], self.w0), min(self.all[i]["end"], self.w1))
            for i in self.idx
        )
        return 1.0 - covered / self.window_ns if self.window_ns else 0.0


def chrome_trace(processes: Dict[int, List[dict]], t0: int) -> dict:
    """Chrome trace-event JSON (``ph: X`` complete events, microseconds)."""
    events = []
    for pid, spans in processes.items():
        for i, s in enumerate(spans):
            if not s["end"]:
                continue
            events.append({
                "name": s["name"], "ph": "X", "pid": pid, "tid": s["tid"],
                "ts": (s["start"] - t0) / 1e3, "dur": (s["end"] - s["start"]) / 1e3,
                "args": {"rid": s["rid"], "span": i, "parent": s["parent"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
