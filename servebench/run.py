"""Serving benchmark for ``repro-search serve``.

Usage (from the repository root)::

    python3 servebench/run.py --workload selective --seed 1 \\
        --seconds 10 --trace 0

Generates its inputs from ``--seed``, builds the index and starts the
server through the CLI, drives it over keep-alive HTTP, checks every
answer and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and the metrics (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import sys
import time

import corpus
import layers
from harness import BenchError, Client, Server, cli
from oracle import CheckError, Tree, answers, check_hits

#: Index builds (and server starts) per run; setup_s is their median.
SETUP_REPS = 3
SHARDS = "4"
#: Share of selective-class reads recomputed by the subset oracle.
ORACLE_SHARE = 0.25

END_TO_END = [
    ("setup_s", "s"), ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"), ("ingest_p50_ms", "ms"),
    ("peak_rss_mb", "MB"), ("disk_bytes_per_live_byte", "ratio"),
]


class Run:
    """One pass of a workload against one server."""

    def __init__(self, root, workdir, workload, inputs, trees, seed,
                 traced):
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.inputs = inputs
        self.trees = trees            # (name, marker) -> Tree
        self.seed = seed
        self.traced = traced
        self.tag = "traced" if traced else "plain"
        self.ids = itertools.count(1)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.mismatches: list = []
        self.servers: list = []
        self.log: list = []           # (kind, item, reply), in order
        self.metrics: dict = {}

    # -- plumbing ---------------------------------------------------------

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def send(self, client, route, doc):
        self.attempted += 1
        reply = client.post(route, doc)
        if not reply.ok:
            self.failed += 1
            self.errors.append(f"{route} {json.dumps(doc)[:200]} -> "
                               f"{reply.status}: {reply.body[:300]!r}")
        return reply

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            raise CheckError(message)

    def checked(self, step, *args) -> None:
        """Run one check; a failure is recorded and checking goes on."""
        try:
            step(*args)
        except CheckError as exc:
            self.mismatches.append(str(exc))

    # -- set-up -----------------------------------------------------------

    def setup(self, reps: int):
        """Build the index and start the server ``reps`` times; keeps
        the last server.  Returns (server, index dir, seconds each)."""
        writable = self.workload == "mixed_rw"
        times = []
        for rep in range(reps):
            index = self.path(f"index-{self.tag}-{rep}")
            started = time.perf_counter()
            if writable:
                cli(self.root, "index", "ingest", "--create", "--shards",
                    SHARDS, index, self.path("xml"))
                cli(self.root, "index", "compact", index)
            else:
                cli(self.root, "index", "build", "--shards", SHARDS,
                    self.path("xml"), index)
            args = ["--index", index] + (["--writable"] if writable
                                         else [])
            spans = (self.path("spans.json")
                     if self.traced and rep == reps - 1 else None)
            server = Server(self.root, args,
                            self.path(f"serve-{self.tag}-{rep}.log"),
                            spans_out=spans)
            self.servers.append(server)
            server.wait_ready()
            times.append(time.perf_counter() - started)
            if rep < reps - 1:
                server.stop()
                shutil.rmtree(index)
        return server, index, times

    # -- phases -----------------------------------------------------------

    def read(self, client, read, timed: bool) -> None:
        reply = self.send(client, "/query", read.body())
        self.log.append(("read" if timed else "warm", read, reply))

    def drive(self, server) -> None:
        # One connection carries reads and writes.  A second, idle
        # connection for the batches made ingest latency swing 2x
        # between runs: whether a reply waits out the client's delayed
        # ACK (headers and body go out as separate writes) depends on
        # that connection's idle history.
        client = Client(server, self.ids)
        for read in self.inputs.warmup:
            self.read(client, read, timed=False)
        every = self.inputs.shape.batch_every
        batches = iter(self.inputs.batches)
        started = time.perf_counter()
        for i, read in enumerate(self.inputs.reads, 1):
            self.read(client, read, timed=True)
            if every and i % every == 0:
                batch = next(batches, None)
                if batch is not None:
                    self.ingest(client, batch)
        self.elapsed = time.perf_counter() - started
        client.close()

    def ingest(self, client, batch) -> None:
        reply = self.send(client, "/ingest", batch.body())
        self.log.append(("ingest", batch, reply))
        if not reply.ok:
            return
        # Read-your-writes: each new version's marker is found in its
        # document; removed documents and replaced versions are gone.
        for article in batch.add + batch.replace:
            self.marker(client, article.marker, article.name)
        for name in batch.remove + [a.name for a in batch.replace]:
            self.marker(client, self.live[name].marker, None)
        self.apply(batch)

    def marker(self, client, marker, expected_name) -> None:
        reply = self.send(client, "/query", {"terms": [marker]})
        self.log.append(("marker", (marker, expected_name), reply))

    def apply(self, batch) -> None:
        """Update the client's view of the live documents on an ack."""
        for name in batch.remove + [a.name for a in batch.replace]:
            self.gone.append((name, self.live.pop(name).marker))
        for article in batch.add + batch.replace:
            self.live[article.name] = article

    def write_probe(self) -> list:
        """Read-only workloads: committed ingest batches against a small
        writable index, so ingest_p50_ms exists on every workload."""
        base = self.path("probe-base.xml")
        with open(base, "w") as out:
            out.write(self.inputs.probe_base.xml)
        index = self.path(f"probe-{self.tag}")
        cli(self.root, "index", "ingest", "--create", "--shards", SHARDS,
            index, base)
        server = Server(self.root, ["--index", index, "--writable"],
                        self.path(f"probe-{self.tag}.log"))
        self.servers.append(server)
        server.wait_ready()
        client = Client(server, self.ids)
        latencies = []
        for batch in self.inputs.probe:
            reply = self.send(client, "/ingest", batch.body())
            if reply.ok:
                self.checked(self.check_ingest, batch, reply.json(), None)
                latencies.append(reply.seconds)
        client.close()
        server.stop()
        return latencies

    def durability(self, index) -> None:
        """After the server exited: fsck, then reopen from disk alone;
        every acknowledged write is there and nothing removed is back."""
        self.attempted += 2
        done = cli(self.root, "index", "fsck", index, check=False)
        if done.returncode != 0:
            self.failed += 2
            self.errors.append(f"fsck: {done.stdout} {done.stderr}")
            return
        from repro.storage.mutation import MutableIndex
        handle = MutableIndex.open(index)
        snapshot = handle.snapshot()
        try:
            self.check(sorted(snapshot.names()) == sorted(self.live),
                       "reopened index lists other documents than the "
                       "acknowledged writes left live")
            for name, article in self.live.items():
                self.check(snapshot.contains(name, article.marker),
                           f"{name} lost its acknowledged version "
                           f"({article.marker})")
            for name, marker in self.gone:
                self.check(name not in snapshot
                           or not snapshot.contains(name, marker),
                           f"removed {name} ({marker}) came back")
        finally:
            snapshot.close()
            handle.close()

    # -- the pass ---------------------------------------------------------

    def execute(self, reps: int) -> None:
        self.live = {a.name: a for a in self.inputs.articles}
        self.gone = []                # (name, marker) no longer live
        server, index, setup_times = self.setup(reps)
        self.drive(server)
        rss = server.peak_rss_mb()
        server.stop()
        if self.traced:
            with open(self.path("spans.json")) as spans:
                self.trace = json.load(spans)
        disk = sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(index) for f in files)
        live_bytes = sum(len(a.xml.encode("utf-8"))
                         for a in self.live.values())
        self.check_answers()
        if self.workload == "mixed_rw":
            self.checked(self.durability, index)
            ingest = [r.seconds for kind, _, r in self.log
                      if kind == "ingest" and r.ok]
        elif not self.traced:
            ingest = self.write_probe()
        else:
            ingest = []
        reads = [r.seconds for kind, _, r in self.log
                 if kind == "read" and r.ok]
        self.metrics = {
            "setup_s": statistics.median(setup_times),
            "query_p50_ms": layers.percentile(reads, 50) * 1000,
            "query_p90_ms": layers.percentile(reads, 90) * 1000,
            "queries_per_s": len(reads) / self.elapsed,
            "ingest_p50_ms": layers.percentile(ingest, 50) * 1000,
            "peak_rss_mb": rss,
            "disk_bytes_per_live_byte": disk / live_bytes,
        }

    # -- checking ---------------------------------------------------------

    def check_answers(self) -> None:
        """Replay the log against the client's view of the corpus: the
        answer properties on every read, the subset oracle on a seeded
        sample of selective-class reads, read-your-writes on markers."""
        rng = random.Random(f"oracle/{self.seed}")
        state = {a.name: a for a in self.inputs.articles}
        live = None
        expected = {}
        version = 0
        for kind, item, reply in self.log:
            if not reply.ok:
                continue
            if kind == "ingest":
                self.checked(self.check_ingest, item, reply.json(),
                             version)
                for name in item.remove:
                    del state[name]
                for article in item.add + item.replace:
                    state[article.name] = article
                version += 1
                live = None
                continue
            if kind == "marker":
                self.checked(self.check_marker, item, reply.json())
                continue
            if live is None:
                live = {name: self.trees[name, a.marker]
                        for name, a in state.items()}
            oracle = (kind == "read" and self.workload != "blowup"
                      and rng.random() < ORACLE_SHARE)
            self.checked(self.check_read, item, reply, live,
                         (version, item.terms, item.predicate.text())
                         if oracle else None, expected)

    def check_read(self, read, reply, live, key, expected) -> None:
        hits, doc = self.hits_of(read, reply)
        check_hits(live, read.terms, read.predicate, hits,
                   stream=read.stream)
        if key is None:
            return
        if key not in expected:
            expected[key] = answers(live, read.terms, read.predicate)
        self.check_oracle(read, doc, hits, expected[key])

    def hits_of(self, read, reply):
        if read.stream:
            lines = reply.ndjson()
            self.check(lines[0].get("stream") is True
                       and lines[-1].get("returned") == len(lines) - 2
                       and len(lines) - 2 <= 10,
                       f"malformed stream reply for {read.terms}")
            return lines[1:-1], None
        doc = reply.json()
        self.check(doc["returned"] == len(doc["hits"]) <= 50
                   and doc["answers"] >= doc["returned"],
                   f"inconsistent page for {read.terms}: answers "
                   f"{doc['answers']}, returned {doc['returned']}")
        return doc["hits"], doc

    def check_oracle(self, read, doc, hits, expected) -> None:
        got = [(h["size"], h["document"], tuple(sorted(h["nodes"])))
               for h in hits]
        self.check(doc["answers"] == len(expected)
                   and got == expected[:len(got)]
                   and len(got) == min(50, len(expected)),
                   f"{read.terms} [{read.predicate.text()}]: server "
                   f"answered {doc['answers']} ({got[:3]}...), oracle "
                   f"{len(expected)} ({expected[:3]}...)")

    def check_marker(self, item, doc) -> None:
        marker, name = item
        if name is None:
            self.check(doc["answers"] == 0,
                       f"marker {marker} of a removed or replaced "
                       f"version still answers: {doc['matched_documents']}")
        else:
            self.check(doc["answers"] >= 1
                       and doc["matched_documents"] == [name],
                       f"marker {marker} not found in {name} after its "
                       f"ingest was acknowledged")

    def check_ingest(self, batch, doc, version) -> None:
        upserts = sorted(a.name for a in batch.add + batch.replace)
        self.check(doc["added"] == upserts
                   and doc["removed"] == sorted(batch.remove)
                   and doc["committed"] is True,
                   f"ingest reply {doc} for batch {version}")
        if version is None:
            return
        if version:
            self.check(doc["epoch"] == self.first_epoch + version,
                       f"batch {version} committed epoch {doc['epoch']}")
        else:
            self.first_epoch = doc["epoch"]

    def client_records(self) -> list:
        """The timed phase's requests for the per-layer computation."""
        records = []
        for kind, item, reply in self.log:
            if kind == "warm" or not reply.ok:
                continue
            streamed = kind == "read" and item.stream
            records.append((reply.rid, kind, reply.seconds,
                            len(reply.body), streamed))
        return records

    def cleanup(self) -> None:
        for server in self.servers:
            server.kill()


def _trees(articles) -> dict:
    return {(a.name, a.marker): Tree(a.xml) for a in articles}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(root, ".servebench", f"{args.workload}-"
                           f"{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runs = []
    try:
        inputs = corpus.build(args.workload, args.seed, args.seconds,
                              _trees)
        trees = _trees(inputs.articles
                       + [a for b in inputs.batches
                          for a in b.add + b.replace])
        os.makedirs(os.path.join(workdir, "xml"))
        for article in inputs.articles:
            with open(os.path.join(workdir, "xml", article.name),
                      "w") as out:
                out.write(article.xml)
        for traced in ([False, True] if args.trace else [False]):
            run = Run(root, workdir, args.workload, inputs, trees,
                      args.seed, traced)
            runs.append(run)
            run.execute(1 if traced else SETUP_REPS)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for run in runs:
            run.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(os.path.dirname(workdir)):
            os.rmdir(os.path.dirname(workdir))
    for run in runs:
        for error in run.errors[:5]:
            print(f"failed: {error}", file=sys.stderr)
        for mismatch in run.mismatches[:5]:
            print(f"check failed: {mismatch}", file=sys.stderr)

    plain = runs[0].metrics
    if args.trace:
        traced = runs[1]
        metrics = layers.compute(
            traced.trace, traced.client_records(),
            sum(b.xml_bytes() for b in inputs.batches))
        for name in ("query_p50_ms", "query_p90_ms", "queries_per_s",
                     "ingest_p50_ms"):
            metrics[f"traced.{name}"] = traced.metrics[name]
            metrics[f"untraced.{name}"] = plain[name]
        units = {name: unit for name, unit, _ in layers.METRICS}
    else:
        metrics = plain
        units = dict(END_TO_END)
    result = {name: {"value": float(metrics[name]), "unit": unit}
              for name, unit in units.items()}
    for name, entry in result.items():
        print(f"{args.workload:>9} {name:<36} {entry['value']:>14.4f} "
              f"{entry['unit']}")
    print(json.dumps({"correct": not any(r.mismatches for r in runs),
                      "attempted": sum(r.attempted for r in runs),
                      "failed": sum(r.failed for r in runs),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
