"""Seeded inputs of the serving benchmark.

Everything a run sends is made here from ``--seed`` before the server
starts: INEX-like articles from :mod:`repro.workloads.generator`, their
XML text (with the benchmark's own planted terms), the query sequence
and, for ``mixed_rw``, the ingest batches.  The same seed gives the same
bytes.

Planted tokens never collide with the generator's vocabulary (English
words, ``w<k>`` tokens and tag names):

* ``zr<k>``   rare terms, planted in a few nodes of a few articles;
* ``zwarma`` / ``zwarmb`` warm-up terms, planted once in every article
  on nodes that hold no rare term, so warm-up queries share no term
  pair (and no join memo) with the timed queries;
* ``zm<k>``   per-version document markers (``mixed_rw``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from xml.sax.saxutils import escape, quoteattr

from oracle import Filter

WARM_TERMS = ("zwarma", "zwarmb")

#: Zipf skew of the selective query draws over the seeded pool.
QUERY_SKEW = 1.1


@dataclass(frozen=True)
class Shape:
    """The make-up of one workload (see README.md for why)."""

    articles: int
    nodes: int
    rare_terms: int = 0        # pool of planted rare terms
    terms_per_article: int = 0
    pool: int = 0              # distinct selective queries
    queries_per_s: float = 20  # timed reads per requested second
    min_queries: int = 100
    batch_every: int = 0       # mixed_rw: reads between ingest batches
    probe_batches: int = 24    # read-only: batches of the write probe


SHAPES = {
    "selective": Shape(articles=256, nodes=150, rare_terms=64,
                       terms_per_article=4, pool=64,
                       queries_per_s=15),
    "blowup": Shape(articles=48, nodes=300, queries_per_s=12),
    "mixed_rw": Shape(articles=48, nodes=150, rare_terms=24,
                      terms_per_article=4, pool=32, queries_per_s=12,
                      batch_every=8),
}

#: Generator vocabulary ranks the blow-up pairs are drawn from, and the
#: disjoint band their warm-up pairs come from.
BLOWUP_BAND = (100, 220)
BLOWUP_WARM_BAND = (230, 300)
#: A blow-up pair is kept when the summed per-article product of its
#: two terms' node counts lies in this range (the looser warm-up range
#: only has to find six pairs in its rarer band) ...
BLOWUP_COST = (150, 400)
BLOWUP_WARM_COST = (20, 400)
#: ... and when neither term occurs in more than this many nodes of one
#: article: the join/fixpoint work grows steeply with that count, and
#: pairs over it took 1-2.5 s per request.
BLOWUP_MAX_NODES = 6
#: The size bound of filtered blow-up reads (anti-monotonic, pushed down).
BLOWUP_SIZE = 6


@dataclass
class Article:
    """One document version: its name, XML and marker (if any)."""

    name: str
    xml: str
    marker: str = ""


@dataclass
class Read:
    """One ``POST /query`` body plus what the checker needs."""

    terms: tuple
    predicate: Filter
    stream: bool = False

    def body(self) -> dict:
        doc = {"terms": list(self.terms)}
        if self.predicate.text():
            doc["filter"] = self.predicate.text()
        if self.stream:
            doc.update(stream=True, limit=10)
        return doc


@dataclass
class Batch:
    """One committed ``POST /ingest``: upserts plus removals."""

    add: list              # new Articles
    replace: list          # Articles reusing a live name
    remove: list           # names

    def body(self) -> dict:
        return {"documents": [{"name": a.name, "xml": a.xml}
                              for a in self.add + self.replace],
                "remove": list(self.remove)}

    def xml_bytes(self) -> int:
        return sum(len(a.xml.encode("utf-8"))
                   for a in self.add + self.replace)


@dataclass
class Inputs:
    shape: Shape
    articles: list
    warmup: list
    reads: list
    #: mixed_rw: ``batches[i]`` is sent after read ``(i + 1) * every``.
    batches: list = field(default_factory=list)
    #: read-only workloads: the write probe's seed article and batches.
    probe_base: Article = None
    probe: list = field(default_factory=list)


# ----------------------------------------------------------------------
# Articles
# ----------------------------------------------------------------------

def _document(nodes: int, seed: int, name: str):
    from repro.workloads.generator import DocumentSpec, generate_document
    return generate_document(DocumentSpec(nodes=nodes, seed=seed,
                                          name=name))


def _to_xml(doc, extra: dict) -> str:
    """Serialise ``doc`` with ``extra[node]`` words appended to texts."""
    out = []

    def emit(node):
        attrs = "".join(f" {k}={quoteattr(v)}"
                        for k, v in doc.attributes(node).items())
        text = " ".join([doc.text(node)] + extra.get(node, [])).strip()
        out.append(f"<{doc.tag(node)}{attrs}>{escape(text)}")
        for child in doc.children(node):
            emit(child)
        out.append(f"</{doc.tag(node)}>")

    emit(doc.root)
    return "".join(out)


def _focus_nodes(doc, rng) -> list:
    """A section-sized subtree that holds an article's rare terms."""
    candidates = [n for n in doc.node_ids()
                  if 1 <= doc.depth(n) <= 2 and doc.subtree_size(n) >= 6]
    if not candidates:
        return [n for n in doc.node_ids() if n != doc.root]
    root = rng.choice(candidates)
    return list(doc.subtree(root))


def make_article(shape: Shape, rng: random.Random, name: str,
                 rare: list, marker: str = "") -> tuple:
    """One article: returns (Article, its rare terms)."""
    doc = _document(shape.nodes, rng.randrange(1 << 30), name)
    extra: dict = {}
    terms = (rng.sample(rare, shape.terms_per_article)
             if shape.terms_per_article else [])
    focus = _focus_nodes(doc, rng)
    others = [n for n in doc.node_ids() if n != doc.root]
    for term in terms:
        # Clustered in one section, sometimes with one stray occurrence:
        # small fragments satisfy the filters, and the subset
        # enumeration of the checker stays small (at most 4 nodes).
        nodes = set(rng.sample(focus, min(len(focus),
                                          rng.choice((1, 2, 2, 3)))))
        if rng.random() < 0.25:
            nodes.add(rng.choice(others))
        for node in nodes:
            extra.setdefault(node, []).append(term)
    plain = [n for n in others if n not in extra]
    for term in WARM_TERMS:
        extra.setdefault(rng.choice(plain), []).append(term)
    if marker:
        extra.setdefault(doc.root, []).append(marker)
    return Article(name, _to_xml(doc, extra), marker), terms


# ----------------------------------------------------------------------
# Query sequences
# ----------------------------------------------------------------------

def _zipf_draws(rng: random.Random, pool: list, count: int) -> list:
    weights = [1.0 / (rank + 1) ** QUERY_SKEW for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=count)


def _selective_pool(rng: random.Random, article_terms: list,
                    size: int) -> list:
    pool, seen = [], set()
    while len(pool) < size:
        terms = rng.choice(article_terms)
        chosen = tuple(sorted(rng.sample(terms, rng.choice((2, 2, 3)))))
        if chosen in seen:
            continue
        seen.add(chosen)
        pool.append(Read(chosen, Filter(size=rng.choice((4, 5, 6, 7, 8)),
                                        height=rng.choice((2, 3, 4)))))
    return pool


def _warmup(stream: bool) -> list:
    reads = [Read(WARM_TERMS[:1], Filter()),
             Read(WARM_TERMS, Filter(size=6, height=3))]
    if stream:
        reads.append(Read(WARM_TERMS, Filter(), stream=True))
    return reads


def _blowup_pairs(trees: dict, band: tuple, cost: tuple,
                  rng: random.Random, count: int) -> list:
    """``count`` distinct vocabulary pairs whose cost proxy lies in
    ``cost``, one from each of ``count`` equal strata of the candidates
    ordered by the proxy, so every seed draws the same mix of costs.

    The proxy of a pair sums ``a·b·(a + b)`` over the articles, with
    ``a`` and ``b`` the two terms' node counts there; its rank
    correlation with the measured latency is about 0.6.
    """
    from repro.workloads.generator import zipf_vocabulary
    words = zipf_vocabulary(band[1])[band[0]:]
    counts = {w: [len(t.postings.get(w, ())) for t in trees.values()]
              for w in words}
    words = [w for w in words if max(counts[w]) <= BLOWUP_MAX_NODES]
    candidates = []
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            pairs = list(zip(counts[a], counts[b]))
            if cost[0] <= sum(x * y for x, y in pairs) <= cost[1]:
                candidates.append((sum(x * y * (x + y) for x, y in pairs),
                                   a, b))
    if len(candidates) < count:
        raise RuntimeError(f"only {len(candidates)} blow-up pairs in "
                           f"band {band}; need {count}")
    candidates.sort()
    return [rng.choice(candidates[len(candidates) * k // count:
                                  len(candidates) * (k + 1) // count])[1:]
            for k in range(count)]


def _blowup_read(pair: tuple, stream: bool) -> Read:
    if stream:
        return Read(pair, Filter(), stream=True)
    return Read(pair, Filter(size=BLOWUP_SIZE))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def timed_reads(shape: Shape, seconds: int) -> int:
    """Timed reads of one run: fixed by the requested length, not the
    clock, so every run with the same arguments does the same work."""
    return max(shape.min_queries, round(shape.queries_per_s * seconds))


def build(workload: str, seed: int, seconds: int, trees_of) -> Inputs:
    """All inputs of one run.  ``trees_of(articles)`` parses articles
    into the checker's trees (the blow-up pairs are chosen from them)."""
    shape = SHAPES[workload]
    # The corpus, its query pool (the candidate pairs for blowup) and
    # its ingest batches are fixed per workload; the seed draws the
    # read sequence from the pool, so runs on different seeds measure
    # the same data under different request streams.
    corpus_rng = random.Random(f"{workload}/corpus")
    rng = random.Random(f"{workload}/{seed}")
    rare = [f"zr{k}" for k in range(shape.rare_terms)]
    marked = workload == "mixed_rw"
    articles, article_terms = [], []
    for i in range(shape.articles):
        article, terms = make_article(
            shape, corpus_rng, f"a{i:04d}.xml", rare,
            marker=f"zm{i}" if marked else "")
        articles.append(article)
        article_terms.append(terms)
    count = timed_reads(shape, seconds)
    inputs = Inputs(shape, articles, _warmup(workload == "blowup"), [])
    if workload == "blowup":
        trees = trees_of(articles)
        pairs = _blowup_pairs(trees, BLOWUP_BAND, BLOWUP_COST, rng,
                              count)
        # Every third stratum is streamed; the seed picks which third.
        offset = rng.randrange(3)
        inputs.reads = [_blowup_read(pair, k % 3 == offset)
                        for k, pair in enumerate(pairs)]
        rng.shuffle(inputs.reads)
        inputs.warmup += [_blowup_read(pair, i % 3 == 0)
                          for i, pair in enumerate(_blowup_pairs(
                              trees, BLOWUP_WARM_BAND, BLOWUP_WARM_COST,
                              rng, 6))]
    else:
        pool = _selective_pool(corpus_rng, article_terms, shape.pool)
        inputs.reads = _zipf_draws(rng, pool, count)
    if marked:
        inputs.batches = _batches(shape, corpus_rng, rare, articles,
                                  count // shape.batch_every)
    else:
        inputs.probe_base = make_article(shape, rng, "probe-base", rare)[0]
        inputs.probe = [Batch([make_article(shape, rng, f"probe-{i}-{j}",
                                            rare)[0] for j in range(2)],
                              [], [])
                        for i in range(shape.probe_batches)]
    return inputs


def _batches(shape: Shape, rng: random.Random, rare: list,
             articles: list, count: int) -> list:
    """Ingest batches: one new article, one replacement, one removal.

    Live names are tracked so every batch is valid when sent; each
    version carries its own marker so read-your-writes can be checked.
    """
    live = [a.name for a in articles]
    batches = []
    next_marker = len(articles)
    for b in range(count):
        new, _ = make_article(shape, rng, f"n{b:04d}.xml", rare,
                              marker=f"zm{next_marker}")
        target = rng.choice(live)
        replacement, _ = make_article(shape, rng, target, rare,
                                      marker=f"zm{next_marker + 1}")
        next_marker += 2
        victim = rng.choice([n for n in live if n != target])
        live.remove(victim)
        live.append(new.name)
        batches.append(Batch([new], [replacement], [victim]))
    return batches
