#!/usr/bin/env python3
"""The repository benchmark: verified SLS through the library's public entry points.

::

    python3 perfbench/run.py --workload rekey-zipf-closed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one after another

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s`` - library import plus the median of three set-ups (quantise,
  encrypt and tag the table; for serve, spawning the server child; for
  the cluster, spawning the nodes and shipping the replicas).
* ``qps`` - correct answers per second of the measured window (in the
  open loop, goodput: answers completed inside the window).
* ``latency_p50_ms`` / ``latency_p99_ms`` - one request: one query
  (serve, rekey) or one 64-query batch (batch, cluster); open-loop
  requests are timed from when they were due.  ``latency_p99_ms`` falls
  back to the highest percentile with ten samples beyond it; the
  percentile and sample count are printed with it.
* ``write_p50_ms`` - a whole-table write: ``reencrypt_table`` under read
  load in ``rekey-zipf-closed``; elsewhere the ``add_table`` loads of the
  set-ups and of the reference store.
* ``peak_rss_mb`` - peak RSS of the serving process (the server child;
  coordinator plus nodes for the cluster).

``failed_frac`` (failed + shed + wrong answers over attempted) is printed
with them; the final JSON line carries it as ``attempted`` / ``failed``.

``--trace 1`` runs the workload twice for half the time each, untraced
then traced, and reports the per-layer metrics of ``report.PER_LAYER``
from spans recorded by wrapping public methods (``tracer.py``), plus
the tracing overhead between the two.  A layer the workload does not
run reports 0.  The spans are written as Chrome
trace-event JSON under ``.bench_build/perfbench/``.

Every answer is compared bit for bit with a separately built store of
the same seed, outside the timed region; a mismatch or a broken count
identity makes the run exit non-zero.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing as mp  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")

import harness  # noqa: E402
import tracer as tr  # noqa: E402

SETUP_REPEATS = 3

if __name__ == "__mp_main__":
    # Spawned children (cluster nodes) import this file under this name.
    tr.install_child_hook()


def _prepare_env() -> None:
    """Keep everything the run writes (kernel builds, temp files) in the checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no library source at {os.path.relpath(SRC)}/repro: run from a checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ["SECNDP_KERNEL_CACHE"] = os.path.join(BUILD, "secndp-kernels")
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.environ.pop("SECNDP_FAULT_PLAN", None)
    for path in (OUT, os.environ["SECNDP_KERNEL_CACHE"], os.environ["TMPDIR"]):
        os.makedirs(path, exist_ok=True)


def _stamp(workload, args) -> dict:
    from repro import kernels

    return {
        **harness.host_stamp(ROOT, SRC),
        "kernel_tier": kernels.active_tier(),
        "kernel_backend": kernels.backend_name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "settings": workload.settings(),
    }


def plain_run(workload, args, import_s: float):
    import report

    # The host's speed drifts over seconds, so the repeated set-ups (and
    # their table writes) are spread over the run instead of back to back:
    # one before the window, one after it, one after the answer check.
    samples = [workload.setup()]
    leg = workload.run(args.seconds)
    samples.append(workload.setup())
    workload.teardown()
    (wrong,), plaintext = report.check_answers(workload, [leg])
    while len(samples) < SETUP_REPEATS:
        samples.append(workload.setup())
        workload.teardown()
    metrics, notes = report.end_to_end(
        workload, leg, wrong, import_s + harness.median(samples)
    )
    notes["setup_samples_s"] = samples
    notes["import_s"] = import_s
    notes["plaintext_check"] = plaintext
    notes["pad_caches"] = leg.info.get("cache")  # hits, misses, evictions, size, capacity
    notes.update({k: v for k, v in leg.info.items()
                  if k in ("quarantined", "node_rss_mb", "server_stats")})
    return metrics, notes, leg.attempted, leg.failed + len(wrong), []


def traced_run(workload, args):
    import report

    half = args.seconds / 2.0
    workload.setup()
    plain = workload.run(half)
    tracer = tr.Tracer()
    workload.setup(tracer)
    traced = workload.run(half)
    tracer.uninstall()
    (wrong_plain, wrong_traced), plaintext = report.check_answers(workload, [plain, traced])

    serving_pid = traced.info.get("serving_pid")
    if serving_pid is not None:   # serve: the server child did the work
        serving = traced.child_spans.pop(serving_pid)
    else:
        serving = tr.flat_spans(tracer.spans)
    window = tr.SpanSet(serving, traced.w0, traced.w1)
    whole = tr.SpanSet(serving, 0, 1 << 62)
    nodes_window = [tr.SpanSet(s, traced.w0, traced.w1) for s in traced.child_spans.values()]
    nodes_whole = [tr.SpanSet(s, 0, 1 << 62) for s in traced.child_spans.values()]

    problems = report.check_identities(workload, whole, nodes_whole, traced)
    metrics = report.per_layer(workload, window, whole, nodes_window, plain, traced,
                               wrong_plain, wrong_traced)
    processes = {serving_pid or os.getpid(): serving, **traced.child_spans}
    path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(tr.chrome_trace(processes, traced.w0), fh)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + len(wrong_plain) + len(wrong_traced)
    notes = {
        "plaintext_check": plaintext,
        "identity_violations": problems,
        "chrome_trace": os.path.relpath(path, ROOT),
        "failed_frac": failed / max(attempted, 1),
    }
    return metrics, notes, attempted, failed, problems


def run_one(args, import_s: float) -> int:
    import report
    from scenarios import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT)
    stamp = _stamp(workload, args)
    if args.trace:
        metrics, notes, attempted, failed, problems = traced_run(workload, args)
    else:
        metrics, notes, attempted, failed, problems = plain_run(workload, args, import_s)
    correct = failed == 0 and not problems

    print(f"== {workload.name}  seed={args.seed}  trace={args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {report.UNITS[name]}")
    print(f"  {'failed_frac':40s} {notes['failed_frac']:14.6g} ratio"
          f"   ({failed} of {attempted} requests)")
    for key, value in notes.items():
        if key != "failed_frac":
            print(f"  note {key}: {value}")
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"stamp": stamp, "metrics": metrics, "notes": notes,
                   "attempted": attempted, "failed": failed}, fh, indent=1, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": report.UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Workload teardown stops the server and node children on the normal
    path; this also covers a run that failed part-way.  The spawn start
    method also starts multiprocessing's resource-tracker process, which
    would otherwise outlive this one by a moment: stop and reap it too.
    """
    children = mp.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(10.0)
        if child.is_alive():
            child.kill()
            child.join(5.0)
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:  # private API: skipped where this Python lacks it
        stop()


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    from scenarios import WORKLOADS

    status = 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
    summary = {
        "correct": all(r.get("correct") for r in results.values()),
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": {
            f"{w}/{m}": v for w, r in results.items() for m, v in r.get("metrics", {}).items()
        },
    }
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    from scenarios import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still leaves through stop_children() below.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    _prepare_env()
    if args.workload == "all":
        return run_all(args)

    import repro.cluster  # noqa: F401  (import cost belongs to set-up)
    import repro.serve  # noqa: F401
    import repro.workloads.secure_sls  # noqa: F401

    import_s = time.perf_counter() - _T_START
    from repro import kernels

    kernels.warmup()  # a fresh checkout compiles the kernel tier here, untimed
    try:
        return run_one(args, import_s)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
