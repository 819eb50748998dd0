"""Per-layer metrics of a traced run, from the launcher's spans.

A span's self time is its duration minus the time its child spans
cover.  Each span name belongs to one layer; a request's time in a layer
is the sum of the self times of its spans there.  Transport is the
client-observed latency minus the request handler's span (both clocks
are ``CLOCK_MONOTONIC``), and the handler's own self time — routing and
dispatch outside any named layer — is reported as unattributed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYER_OF = {
    "server.handler": "unattributed",
    "server.read_body": "server.reply",
    "server.write": "server.reply",
    "server.serve_query": "server.self",
    "server.serve_ingest": "server.self",
    "collection.search": "collection",
    "shards.decode": "storage.shards",
    "mutation.snapshot": "storage.mutation",
    "mutation.add": "storage.mutation",
    "mutation.commit": "storage.mutation",
    "mutation.wal_sync": "storage.mutation",
    "mutation.delta_decode": "storage.mutation",
    "index.build": "index",
    "core.evaluate": "core",
    "core.stream": "core",
    "xmltree.parse": "xmltree",
}
#: Layers in the order the shares are printed; transport comes first.
SHARE_LAYERS = ("transport", "server.reply", "server.self", "collection",
                "storage.shards", "storage.mutation", "index", "core",
                "xmltree", "unattributed")

#: (name, unit, better) of every per-layer metric, in print order.
METRICS = [
    ("server.transport_ms.p50", "ms", "lower"),
    ("server.self_ms.p50", "ms", "lower"),
    ("server.reply_ms.p50", "ms", "lower"),
    ("server.response_bytes.p50", "bytes", "lower"),
    ("collection.search_ms.p50", "ms", "lower"),
    ("collection.probes_per_query", "count", "lower"),
    ("collection.evaluated_per_query", "count", "lower"),
    ("shards.decodes", "count", "lower"),
    ("shards.decode_ms.p50", "ms", "lower"),
    ("mutation.snapshot_ms.p50", "ms", "lower"),
    ("mutation.delta_decodes", "count", "lower"),
    ("mutation.add_ms.p50", "ms", "lower"),
    ("mutation.commit_ms.p50", "ms", "lower"),
    ("mutation.wal_sync_ms.p50", "ms", "lower"),
    ("mutation.wal_bytes_per_input_byte", "ratio", "lower"),
    ("index.builds", "count", "lower"),
    ("index.build_ms.total", "ms", "lower"),
    ("core.evaluate_ms.p50", "ms", "lower"),
    ("core.evaluate_ms.p90", "ms", "lower"),
    ("core.stream_ms.p50", "ms", "lower"),
    ("core.joins_per_query", "count", "lower"),
    ("core.joincache.hit_ratio", "ratio", "higher"),
    ("core.joincache.entries", "count", "lower"),
    ("xmltree.parse_ms.p50", "ms", "lower"),
    ("trace.unattributed_ms.mean", "ms", "lower"),
] + [(f"share.{layer}", "%", "lower") for layer in SHARE_LAYERS] + [
    (f"{side}.{metric}", unit, better)
    for metric, unit, better in (("query_p50_ms", "ms", "lower"),
                                 ("query_p90_ms", "ms", "lower"),
                                 ("queries_per_s", "1/s", "higher"),
                                 ("ingest_p50_ms", "ms", "lower"))
    for side in ("traced", "untraced")]


def percentile(values, q: int) -> float:
    """The q-th percentile (0 for no samples)."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1 or q == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100)[q - 1])


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def compute(trace: dict, requests: list, ingest_bytes: int) -> dict:
    """Per-layer values from one traced pass.

    ``requests`` lists the timed phase's client records
    ``(rid, kind, seconds, response_bytes, streamed)`` with ``kind`` in
    ``read`` (timed query), ``ingest`` and ``marker``.
    """
    timed = {str(r[0]) for r in requests}
    reads = [r for r in requests if r[1] == "read"]
    spans = [s for s in trace["spans"] if s[5] in timed]
    children = defaultdict(float)
    for span in spans:
        if span[4] is not None:
            children[span[4]] += span[3] - span[2]
    per_rid = defaultdict(lambda: defaultdict(float))   # rid -> name -> s
    self_time = defaultdict(lambda: defaultdict(float))  # rid -> layer -> s
    by_name = defaultdict(list)                          # name -> [s]
    for span in spans:
        sid, name, start, end, _parent, rid = span
        duration = end - start
        per_rid[rid][name] += duration
        self_time[rid][LAYER_OF[name]] += duration - children[sid]
        by_name[name].append(duration)

    def count(rid, name) -> float:
        return trace["counts"].get(f"{rid} {name}", 0)

    def total(name) -> float:
        return sum(count(rid, name) for rid in timed)

    ms = 1000.0
    read_ids = [str(r[0]) for r in reads]
    transport = [r[2] - per_rid[str(r[0])]["server.handler"]
                 for r in reads]
    joins = sum(count(rid, "core.joins") for rid in read_ids)
    streamed = [per_rid[str(r[0])]["core.stream"] for r in reads if r[4]]
    out = {
        "server.transport_ms.p50": percentile(transport, 50) * ms,
        "server.self_ms.p50": percentile(
            (self_time[rid]["server.self"] for rid in read_ids), 50) * ms,
        "server.reply_ms.p50": percentile(
            (self_time[rid]["server.reply"] for rid in read_ids), 50) * ms,
        "server.response_bytes.p50": percentile(
            (r[3] for r in reads), 50),
        "collection.search_ms.p50": percentile(
            (per_rid[rid]["collection.search"] for rid in read_ids),
            50) * ms,
        "collection.probes_per_query": _mean(
            count(rid, "collection.probes") for rid in read_ids),
        "collection.evaluated_per_query": _mean(
            count(rid, "core.evaluations") for rid in read_ids),
        "shards.decodes": len(by_name["shards.decode"]),
        "shards.decode_ms.p50": percentile(
            by_name["shards.decode"], 50) * ms,
        "mutation.snapshot_ms.p50": percentile(
            by_name["mutation.snapshot"], 50) * ms,
        "mutation.delta_decodes": len(by_name["mutation.delta_decode"]),
        "mutation.add_ms.p50": percentile(by_name["mutation.add"], 50) * ms,
        "mutation.commit_ms.p50": percentile(
            by_name["mutation.commit"], 50) * ms,
        "mutation.wal_sync_ms.p50": percentile(
            by_name["mutation.wal_sync"], 50) * ms,
        "mutation.wal_bytes_per_input_byte": (
            total("mutation.wal_bytes") / ingest_bytes
            if ingest_bytes else 0.0),
        "index.builds": len(by_name["index.build"]),
        "index.build_ms.total": sum(by_name["index.build"]) * ms,
        "core.evaluate_ms.p50": percentile(
            _read_spans(spans, read_ids, "core.evaluate"), 50) * ms,
        "core.evaluate_ms.p90": percentile(
            _read_spans(spans, read_ids, "core.evaluate"), 90) * ms,
        "core.stream_ms.p50": percentile(streamed, 50) * ms,
        "core.joins_per_query": joins / len(reads) if reads else 0.0,
        "core.joincache.hit_ratio": (
            sum(count(rid, "core.cache_hits") for rid in read_ids) / joins
            if joins else 0.0),
        "core.joincache.entries": trace["gauges"].get(
            "core.joincache.entries", 0),
        "xmltree.parse_ms.p50": percentile(
            by_name["xmltree.parse"], 50) * ms,
        "trace.unattributed_ms.mean": _mean(
            self_time[rid]["unattributed"] for rid in read_ids) * ms,
    }
    mean_latency = _mean(r[2] for r in reads)
    shares = {layer: _mean(self_time[rid][layer] for rid in read_ids)
              for layer in SHARE_LAYERS if layer != "transport"}
    shares["transport"] = _mean(transport)
    for layer in SHARE_LAYERS:
        out[f"share.{layer}"] = (100.0 * shares[layer] / mean_latency
                                 if mean_latency else 0.0)
    return out


def _read_spans(spans, read_ids, name) -> list:
    wanted = set(read_ids)
    return [s[3] - s[2] for s in spans if s[1] == name and s[5] in wanted]
