"""Daemon benchmark: seeded workloads over one keep-alive loopback connection.

    python3 perfbench/run.py --workload warm-read --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The benchmark writes the
workload's store file, starts ``python -m repro.cli serve`` on it, sends
the workload's fixed request sequence in a closed loop, checks every reply
against its own evaluation (``oracle.py``), and prints the metrics by name
with units.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` runs the workload twice, untraced and then through
``trace_launcher.py``, and reports the per-layer table of the traced run
and the tracing overhead (traced minus untraced query p50).

How many requests a workload sends is fixed by ``--seconds`` alone (see
``workload.py``), so two commits always do the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import workload as wl
from daemon import ROOT, SRC, BenchError, Client, Daemon, children_cpu_s, children_peak_rss_mb
from oracle import Oracle
from spans import TIME_LAYERS, layer_table, percentile

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run stops sending after this many multiples of ``--seconds`` (a commit
#: that slow has regressed far past any bound; the exit stays in time).
GUARD = 3

APPEND_PATH = f"/v1/logs/{wl.STORE}/records"


@dataclass
class Pass:
    """What one daemon life measured."""

    setup_s: float
    requests: list[dict[str, Any]] = field(default_factory=list)
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    wrong: list[str] = field(default_factory=list)
    cache: dict[str, float] = field(default_factory=dict)
    truncated: bool = False
    check_s: float = 0.0

    def latencies_ms(self, kind: str) -> list[float]:
        return [r["latency_s"] * 1000.0 for r in self.requests if r["kind"] == kind]

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.requests)


def host_facts() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={model!r} python={platform.python_version()}"


def _send(client: Client, kind: str, body: bytes) -> tuple[int, float, Any, str]:
    path = "/v1/query" if kind == "query" else APPEND_PATH
    return client.call(path, body)


def _cache_stats(client: Client) -> dict[str, float]:
    status, _, payload, _ = client.call("/v1/admin/cache", method=b"GET")
    if status != 200 or not isinstance(payload, dict):
        raise BenchError(f"GET /v1/admin/cache answered {status}")
    return payload


def run_pass(
    w: wl.Workload,
    store: Path,
    oracle: Oracle,
    seconds: int,
    launcher_args: list[str] | None = None,
) -> Pass:
    """Start a daemon, warm it, send the workload, stop it, check replies."""
    cpu_before = children_cpu_s()
    daemon = Daemon(wl.STORE, store, launcher_args=launcher_args)
    result = Pass(setup_s=daemon.setup_s)
    warm: list[tuple[str, dict[str, Any], int, Any]] = []
    replies: list[tuple[str, dict[str, Any], int, Any]] = []
    try:
        client = Client(daemon.port)
        for kind, body in w.warmup:
            status, _, payload, _ = _send(client, kind, json.dumps(body).encode())
            warm.append((kind, body, status, payload))
        cache_before = _cache_stats(client)
        encoded = [(kind, body, json.dumps(body).encode()) for kind, body in w.requests]
        daemon_cpu = daemon.cpu_s()
        started = time.perf_counter()
        limit = started + GUARD * seconds
        for kind, body, data in encoded:
            try:
                status, latency, payload, query_id = _send(client, kind, data)
            except (OSError, BenchError) as exc:
                client.close()
                client = Client(daemon.port)
                status, latency, payload, query_id = 0, 0.0, str(exc), ""
            result.requests.append(
                {"kind": kind, "latency_s": latency, "query_id": query_id}
            )
            replies.append((kind, body, status, payload))
            if time.perf_counter() > limit:
                result.truncated = True
                break
        result.elapsed_s = time.perf_counter() - started
        cache_after = _cache_stats(client)
        client.close()
    except BaseException:
        daemon.kill()
        raise
    daemon.stop()
    result.cpu_s = children_cpu_s() - cpu_before - daemon_cpu
    result.rss_mb = children_peak_rss_mb()
    result.cache = {
        key: value - cache_before[key]
        for key, value in cache_after.items()
        if isinstance(value, int) and key in cache_before
    }
    check_started = time.perf_counter()
    _check(oracle, len(w.store_records), warm, result.wrong)
    problems = _check(oracle, len(w.store_records), replies, result.wrong)
    result.check_s = time.perf_counter() - check_started
    for request, (kind, body, _, payload), problem in zip(result.requests, replies, problems):
        request["ok"] = problem is None
        request["rows_returned"] = request["null_stats"] = 0
        if kind == "query" and isinstance(payload, dict):
            rows = payload.get("incidents", payload.get("instances"))
            request["rows_returned"] = len(rows) if isinstance(rows, list) else 0
            request["null_stats"] = int(body["mode"] == "count" and payload.get("stats", 0) is None)
    return result


def _check(
    oracle: Oracle,
    epoch: int,
    replies: list[tuple[str, dict[str, Any], int, Any]],
    wrong: list[str],
) -> list[str | None]:
    """What is wrong with each reply, or None; the store starts at
    ``epoch`` records and each append reply must report the next one."""
    problems: list[str | None] = []
    for kind, body, status, payload in replies:
        if status != 200 or not isinstance(payload, dict):
            problem = f"status {status}: {str(payload)[:200]}"
        elif kind == "append":
            epoch += len(body["records"])
            problem = None
            if payload.get("epoch") != epoch:
                problem = f"append epoch {payload.get('epoch')!r}, expected {epoch}"
        elif payload.get("epoch") != epoch:
            problem = f"query epoch {payload.get('epoch')!r}, expected {epoch}"
        else:
            problem = oracle.check_query(body, payload)
        if problem is not None:
            wrong.append(f"{kind} {json.dumps(body)[:160]}: {problem}")
        problems.append(problem)
    return problems


def end_to_end(p: Pass, setups: list[float]) -> dict[str, tuple[float, str]]:
    """The user-visible figures of one measured pass.

    Server CPU counts from the start of the measured requests (after the
    warm-up) to the daemon's exit, and includes the process-pool workers it
    reaped.  Peak RSS is the kernel's maximum over the children this process
    has reaped, and the measured daemon is the first of them.
    """
    queries, appends = p.latencies_ms("query"), p.latencies_ms("append")
    done = len(p.requests)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (percentile(queries, 50), "ms"),
        "query_p95_ms": (percentile(queries, 95), "ms"),
        "append_p50_ms": (percentile(appends, 50), "ms"),
        "append_p95_ms": (percentile(appends, 95), "ms"),
        "ops_per_s": (done / p.elapsed_s, "1/s"),
        "server_cpu_ms_per_op": (p.cpu_s * 1000.0 / done, "ms"),
        "server_rss_mb": (p.rss_mb, "MB"),
    }


#: Rows of the per-layer table, in layer order, with their units.
LAYER_ROWS = {
    "socket.self_ms": "ms",
    "dispatch.self_ms": "ms",
    "telemetry.observe_ms": "ms",
    "decode.ms": "ms",
    "admission.wait_ms": "ms",
    "snapshot.ms": "ms",
    "snapshot.records": "count",
    "append.ms": "ms",
    "append.records": "count",
    "parse.ms": "ms",
    "plan.ms": "ms",
    "plan.stats_ms": "ms",
    "cache.probe_ms": "ms",
    "cache.put_ms": "ms",
    "cache.result_hit_ratio": "ratio",
    "cache.memo_hit_ratio": "ratio",
    "cache.evictions": "count",
    "columnar.build_ms": "ms",
    "columnar.builds_per_query": "count",
    "evaluate.ms": "ms",
    "evaluate.pairs_per_query": "count",
    "evaluate.incidents_per_query": "count",
    "exec.parallel_ms": "ms",
    "exec.process_share": "ratio",
    "exec.null_stats_count": "count",
    "materialise.ms": "ms",
    "materialise.useful_ratio": "ratio",
    "encode.ms": "ms",
    "encode.bytes": "B",
    "trace.query_p50_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.reconcile_err_ms": "ms",
}


def per_layer(untraced: Pass, traced: Pass, spans: list[list[Any]]) -> dict[str, tuple[float, str]]:
    table = layer_table(spans, traced.requests)
    cache = traced.cache

    def ratio(hits: str, misses: str) -> float:
        total = cache.get(hits, 0) + cache.get(misses, 0)
        return cache.get(hits, 0) / total if total else 0.0

    table["cache.result_hit_ratio"] = ratio("result_hits", "result_misses")
    table["cache.memo_hit_ratio"] = ratio("memo_hits", "memo_misses")
    table["cache.evictions"] = cache.get("result_evictions", 0) + cache.get("memo_evictions", 0)
    traced_p50 = percentile(traced.latencies_ms("query"), 50)
    table["trace.query_p50_ms"] = traced_p50
    table["trace.overhead_ms"] = traced_p50 - percentile(untraced.latencies_ms("query"), 50)
    return {name: (table[name], unit) for name, unit in LAYER_ROWS.items()}


#: The socket and layer self times must add up to the client latency of
#: every request within this many milliseconds.
RECONCILE_EPSILON_MS = 0.001

#: Times of layers that some workload never enters (warm-read only hits the
#: result cache; only adhoc-scan asks for jobs; nothing builds columns yet)
#: read exactly 0.0 on every run of that workload.  They are printed in the
#: table; the result line carries the figures every workload measures.
TABLE_ONLY = (
    "plan.ms",
    "plan.stats_ms",
    "cache.put_ms",
    "columnar.build_ms",
    "evaluate.ms",
    "exec.parallel_ms",
    "trace.reconcile_err_ms",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-snapshot-sleep-ms",
        type=float,
        default=0.0,
        help="sleep this long in every LogStore.snapshot (tests of the gate)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args: argparse.Namespace, work: Path) -> int:
    w = wl.build(args.workload, args.seed, args.seconds)
    store = work / "store.jsonl"
    w.write_store(store)
    oracle = Oracle(w.store_records + w.appended)
    print(f"host: {host_facts()}")
    print(
        f"workload: {w.name} seed={args.seed} store={len(w.store_records)} records / "
        f"{w.instances} instances, {len(w.requests)} requests "
        f"({sum(k == 'append' for k, _ in w.requests)} appends of "
        f"{len(w.appended)} records), {len(w.warmup)} warm-up"
    )
    sleep = args.inject_snapshot_sleep_ms
    plain = None if sleep <= 0 else ["--snapshot-sleep-ms", str(sleep)]
    first = run_pass(w, store, oracle, args.seconds, plain)
    passes = [first]
    if args.trace:
        spans_path = work / "spans.json"
        traced = run_pass(
            w, store, oracle, args.seconds,
            ["--spans", str(spans_path), "--snapshot-sleep-ms", str(sleep)],
        )
        passes.append(traced)
        metrics = per_layer(first, traced, json.loads(spans_path.read_text()))
        _print_layers(metrics, traced)
        gap = metrics["trace.reconcile_err_ms"][0]
        print(
            f"reconcile: socket + layer self times = client latency within "
            f"{gap:.2e} ms per request (epsilon {RECONCILE_EPSILON_MS} ms)"
        )
        if gap > RECONCILE_EPSILON_MS:
            raise BenchError("socket and layer self times do not add up to the latency")
        metrics = {name: value for name, value in metrics.items() if name not in TABLE_ONLY}
    else:
        setups = [first.setup_s]
        for _ in range(SETUPS - 1):
            daemon = Daemon(wl.STORE, store, launcher_args=plain)
            setups.append(daemon.setup_s)
            daemon.stop()
        metrics = end_to_end(first, setups)
        attempted = len(first.requests)
        print(f"failed_frac: {first.failed / attempted:.6f}")
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
    for p in passes:
        print(f"answer check: {len(p.requests) + len(w.warmup)} replies in {p.check_s:.3f} s")
        for line in p.wrong[:10]:
            print(f"wrong: {line}", file=sys.stderr)
        if p.truncated:
            print(f"warning: stopped after {GUARD}x --seconds", file=sys.stderr)
    attempted = sum(len(p.requests) for p in passes)
    failed = sum(p.failed for p in passes)
    print(
        json.dumps(
            {
                "correct": not any(p.wrong for p in passes),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def _print_layers(metrics: dict[str, tuple[float, str]], traced: Pass) -> None:
    latency = statistics.fmean(r["latency_s"] for r in traced.requests) * 1000.0
    print(
        f"per-layer table: {len(traced.requests)} requests, mean client latency "
        f"{latency:.3f} ms; time rows are per-request means and their share of it"
    )
    for name, (value, unit) in metrics.items():
        share = f"  {100.0 * value / latency:5.1f}%" if name in TIME_LAYERS else ""
        print(f"  {name:30s} {value:14.4f} {unit:5s}{share}")


if __name__ == "__main__":
    sys.exit(main())
