"""Start ``repro-search serve`` with spans around each layer's entry points.

Usage: ``python launcher.py SPANS_OUT [serve arguments...]``

The launcher wraps the calls into each layer (listed in ``LAYERS``
below), then runs the CLI's ``serve`` in this process.  Each span
records its name, start and end (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` and so comparable with the client's clock), its
parent span and the request id the client sent in ``X-Bench-Request``.
Counts are taken at the same boundaries.  Spans stay in memory and are
written to ``SPANS_OUT`` as JSON when ``serve`` returns at stdin EOF.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []     # [id, name, start, end, parent, rid]
        self.counts: dict = {}    # "rid name" -> total
        self.gauges: dict = {}    # name -> last value
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- context --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def rid(self):
        return getattr(self._local, "rid", None)

    def set_rid(self, rid) -> None:
        self._local.rid = rid

    def current(self):
        stack = self._stack()
        return stack[-1][1] if stack else None

    # -- spans and counts -----------------------------------------------

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), name, _clock(), None,
                stack[-1][0] if stack else None, self.rid]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = _clock()
        stack = self._stack()
        # Streams can close out of order; remove wherever it sits.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break
        self.spans.append(span)

    def count(self, name: str, n=1) -> None:
        key = f"{self.rid} {name}"
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "gauges": self.gauges}, out)

    # -- wrappers -------------------------------------------------------

    def timed(self, name: str, original, after=None):
        """A function that runs ``original`` inside a span."""
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, kwargs, result)
            return result
        wrapper.__wrapped__ = original
        return wrapper

    def iterated(self, name: str, original, after=None):
        """Like :meth:`timed`, but the span lasts until the returned
        iterator is exhausted or closed."""
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.close(span)
                raise
            return self._drain(span, result, after, args, kwargs)
        wrapper.__wrapped__ = original
        return wrapper

    def _drain(self, span, iterator, after, args, kwargs):
        try:
            yield from iterator
        finally:
            self.close(span)
            if after is not None:
                after(args, kwargs, iterator)


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` (function, method or classmethod)."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports."""
    from repro.collection import collection as collection_mod
    from repro.collection.collection import DocumentCollection
    from repro.collection.mutable import (MutableDocumentCollection,
                                          _SnapshotCollection)
    from repro.collection.sharded import ShardedDocumentCollection
    from repro.index.inverted import InvertedIndex
    from repro.obs import server as server_mod
    from repro.storage.mutation import delta as delta_mod
    from repro.storage.mutation.mutable import MutableIndex
    from repro.storage.mutation.wal import WriteAheadLog
    from repro.storage.shards import reader as reader_mod
    from repro.xmltree import parser as parser_mod

    t = tracer

    # obs.server: the request handler, the guarded paths, body read and
    # response write.  The request id is taken from the client header.
    def handler(original):
        timed = t.timed("server.handler", original)

        def do_post(self):
            t.set_rid(self.headers.get("X-Bench-Request"))
            try:
                return timed(self)
            finally:
                t.set_rid(None)
        return do_post

    _patch(server_mod._Handler, "do_POST", handler)
    for attr, name in (("_read_body", "server.read_body"),
                       ("_reply_json", "server.write"),
                       ("_reply_ndjson", "server.write")):
        _patch(server_mod._Handler, attr,
               lambda f, name=name: t.timed(name, f))
    for attr, name in (("serve_query", "server.serve_query"),
                       ("serve_ingest", "server.serve_ingest")):
        _patch(server_mod._ObsHTTPServer, attr,
               lambda f, name=name: t.timed(name, f))

    # collection: one span per search (the writable collection's search
    # delegates to a snapshot view's; only the outer call is a span),
    # lasting until a streamed result is drained; has_terms probes.
    def search(original):
        timed = t.timed("collection.search", original)
        iterated = t.iterated("collection.search", original)

        def wrapper(self, *args, **kwargs):
            if t.current() == "collection.search":
                return original(self, *args, **kwargs)
            if kwargs.get("stream"):
                return iterated(self, *args, **kwargs)
            return timed(self, *args, **kwargs)
        return wrapper

    for cls in (DocumentCollection, MutableDocumentCollection):
        _patch(cls, "search", search)

    def probe(original):
        def wrapper(self, *args, **kwargs):
            t.count("collection.probes")
            return original(self, *args, **kwargs)
        return wrapper

    for cls in (DocumentCollection, ShardedDocumentCollection,
                _SnapshotCollection, MutableDocumentCollection):
        _patch(cls, "has_terms", probe)

    # core: per-document evaluation, streamed evaluation (until the
    # stream is drained), join counts and the shared JoinCache's size.
    def joins(hits: int, computed: int, cache) -> None:
        t.count("core.evaluations")
        t.count("core.joins", hits + computed)
        t.count("core.cache_hits", hits)
        if cache is not None:
            t.gauges["core.joincache.entries"] = len(cache)

    def after_evaluate(args, kwargs, result):
        joins(result.stats.get("join_cache_hits", 0),
              result.stats.get("fragment_joins", 0), kwargs.get("cache"))

    def after_stream(args, kwargs, stream):
        joins(stream.stats.join_cache_hits, stream.stats.fragment_joins,
              kwargs.get("cache"))

    collection_mod.evaluate = t.timed(
        "core.evaluate", collection_mod.evaluate, after_evaluate)
    collection_mod.stream_evaluate = t.iterated(
        "core.stream", collection_mod.stream_evaluate, after_stream)

    # storage.shards / storage.mutation: documents decoded from mapped
    # shards and from the WAL delta (two importers of build_document).
    reader_mod.build_document = t.timed("shards.decode",
                                        reader_mod.build_document)
    delta_mod.build_document = t.timed("mutation.delta_decode",
                                       delta_mod.build_document)
    for attr in ("snapshot", "add", "commit"):
        _patch(MutableIndex, attr,
               lambda f, attr=attr: t.timed(f"mutation.{attr}", f))
    _patch(WriteAheadLog, "sync",
           lambda f: t.timed("mutation.wal_sync", f))

    def wal_append(original):
        def wrapper(self, *args, **kwargs):
            before = self.bytes
            try:
                return original(self, *args, **kwargs)
            finally:
                t.count("mutation.wal_bytes", self.bytes - before)
        return wrapper

    _patch(WriteAheadLog, "append", wal_append)

    # index: inverted indexes built (scanned or adopted from postings).
    _patch(InvertedIndex, "__init__", lambda f: t.timed("index.build", f))
    _patch(InvertedIndex, "from_postings",
           lambda f: t.timed("index.build", f))

    # xmltree: ingested XML parsed by POST /ingest (imported at call
    # time by the server, so patching the module attribute suffices).
    parser_mod.parse = t.timed("xmltree.parse", parser_mod.parse)


def main(argv) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import serve_main
    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
