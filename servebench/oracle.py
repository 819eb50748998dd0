"""Answer checker for ``POST /query`` responses, independent of ``repro.core``.

It reads the benchmark's own generated XML with ElementTree, derives each
node's keyword set with its own tokenizer, and recomputes answers the
slow, literal way: the paper's §2.3 formula

    σ_P(F1 ⋈* … ⋈* Fm) = σ_P({⋈(F1' ∪ … ∪ Fm') | Fi' ⊆ Fi, Fi' ≠ ∅})

where ``Fi`` holds the single-node fragments whose keywords contain
``ki`` and ``⋈`` of a node set is the minimal connected subtree holding
it.  It shares no code with the engine it checks: node numbering
(preorder), keyword derivation (tag, attribute names and values, the
element's own text and its children's tails; case folding; the engine's
small stopword list) and the canonical hit order ``(size, document,
nodes)`` are restated here from the engine's documented behaviour.

Besides the full recomputation, :func:`check_hits` checks properties
every answer page must have, cheap enough to run on every response.
"""

from __future__ import annotations

import itertools
import re
import xml.etree.ElementTree as ET

__all__ = ["Tree", "Filter", "answers", "check_hits", "hit_key",
           "CheckError"]

_STOPWORDS = frozenset("""
a an and are as at be by for from has have in is it its of on or that the
to was were will with this these those
""".split())
_WORD = re.compile(r"[0-9A-Za-z_]+(?:'[0-9A-Za-z_]+)?")

#: Refuse a recomputation with more subset combinations than this; the
#: workloads keep sampled queries far below it.
MAX_COMBINATIONS = 200_000


class CheckError(AssertionError):
    """A response contradicts the checker."""


def _words(text: str) -> set[str]:
    words = {w.casefold() for w in _WORD.findall(text or "")}
    return words - _STOPWORDS


def _local(tag: str) -> str:
    return tag.rpartition("}")[2] if tag.startswith("{") else tag


class Tree:
    """One document as flat preorder arrays: parent, depth, keywords."""

    __slots__ = ("parent", "depth", "children", "keywords", "postings")

    def __init__(self, xml_text: str) -> None:
        root = ET.fromstring(xml_text)
        self.parent: list[int] = []
        self.depth: list[int] = []
        self.children: list[list[int]] = []
        self.keywords: list[frozenset[str]] = []
        stack = [(root, -1)]
        while stack:
            element, parent = stack.pop()
            nid = len(self.parent)
            self.parent.append(parent)
            self.depth.append(0 if parent < 0 else self.depth[parent] + 1)
            self.children.append([])
            if parent >= 0:
                self.children[parent].append(nid)
            words = _words(_local(element.tag)) | _words(element.text)
            for key, value in element.attrib.items():
                words |= _words(key) | _words(value)
            kids = [c for c in element if isinstance(c.tag, str)]
            for child in kids:
                words |= _words(child.tail)
            self.keywords.append(frozenset(words))
            # Reversed so the first child is numbered next: preorder.
            stack.extend((child, nid) for child in reversed(kids))
        self.postings: dict[str, list[int]] = {}
        for nid, words in enumerate(self.keywords):
            for word in words:
                self.postings.setdefault(word, []).append(nid)

    def __len__(self) -> int:
        return len(self.parent)

    def closure(self, nodes) -> frozenset[int]:
        """The minimal connected subtree holding ``nodes``."""
        nodes = list(nodes)
        top = nodes[0]
        for node in nodes[1:]:
            top = self._lca(top, node)
        result = set()
        for node in nodes:
            while node not in result:
                result.add(node)
                if node == top:
                    break
                node = self.parent[node]
        return frozenset(result)

    def _lca(self, a: int, b: int) -> int:
        while a != b:
            if self.depth[a] >= self.depth[b]:
                a = self.parent[a]
            else:
                b = self.parent[b]
        return a

    def height(self, nodes) -> int:
        depths = [self.depth[n] for n in nodes]
        return max(depths) - min(depths)


class Filter:
    """The anti-monotonic filters the workloads send: size and height."""

    __slots__ = ("size", "height")

    def __init__(self, size=None, height=None) -> None:
        self.size = size
        self.height = height

    def holds(self, tree: Tree, nodes) -> bool:
        if self.size is not None and len(nodes) > self.size:
            return False
        return self.height is None or tree.height(nodes) <= self.height

    def text(self) -> str:
        parts = []
        if self.size is not None:
            parts.append(f"size<={self.size}")
        if self.height is not None:
            parts.append(f"height<={self.height}")
        return " & ".join(parts)


def _nonempty_subsets(items):
    for r in range(1, len(items) + 1):
        yield from itertools.combinations(items, r)


def document_answers(tree: Tree, terms, predicate: Filter
                     ) -> set[frozenset[int]]:
    """§2.3 by literal subset enumeration, over one document."""
    sets = [tree.postings.get(term, []) for term in terms]
    if not all(sets):
        return set()
    combinations = 1
    for nodes in sets:
        combinations *= 2 ** len(nodes) - 1
    if combinations > MAX_COMBINATIONS:
        raise ValueError(f"{combinations} subset combinations for "
                         f"{list(terms)}; the oracle is for rare terms")
    found = set()
    for choice in itertools.product(*(list(_nonempty_subsets(s))
                                      for s in sets)):
        found.add(tree.closure(set().union(*choice)))
    return {nodes for nodes in found if predicate.holds(tree, nodes)}


def hit_key(document: str, nodes) -> tuple:
    """The canonical collection order: size, document, node ids."""
    return (len(nodes), document, tuple(sorted(nodes)))


def answers(trees: dict, terms, predicate: Filter) -> list[tuple]:
    """Every answer over ``trees`` (name → Tree), in canonical order."""
    keys = []
    for name, tree in trees.items():
        for nodes in document_answers(tree, terms, predicate):
            keys.append(hit_key(name, nodes))
    keys.sort()
    return keys


def check_hits(trees: dict, terms, predicate: Filter, hits,
               stream: bool = False) -> None:
    """Check the properties every page of answers must have.

    Each hit is a connected subtree of a live document, reports
    ``size == len(nodes)``, has a query term at every leaf and every
    query term somewhere, and passes the filter; the page is in strictly
    increasing canonical order (so a streamed top-k never shrinks in
    size).  Raises :class:`CheckError` on the first violation.
    """
    previous = None
    for hit in hits:
        name, nodes = hit["document"], hit["nodes"]
        tree = trees.get(name)
        if tree is None:
            raise CheckError(f"hit in unknown document {name!r}")
        members = set(nodes)
        if hit["size"] != len(nodes) or len(members) != len(nodes):
            raise CheckError(f"{name}: size {hit['size']} but nodes "
                             f"{nodes}")
        if not all(0 <= n < len(tree) for n in members):
            raise CheckError(f"{name}: node ids out of range: {nodes}")
        roots = [n for n in members if tree.parent[n] not in members]
        if len(roots) != 1:
            raise CheckError(f"{name}: {nodes} is not a connected "
                             f"subtree")
        for node in members:
            is_leaf = not any(c in members for c in tree.children[node])
            if is_leaf and not any(t in tree.keywords[node]
                                   for t in terms):
                raise CheckError(f"{name}: leaf {node} of {nodes} holds "
                                 f"no query term")
        for term in terms:
            if not any(term in tree.keywords[n] for n in members):
                raise CheckError(f"{name}: {nodes} lacks term {term!r}")
        if not predicate.holds(tree, members):
            raise CheckError(f"{name}: {nodes} fails {predicate.text()}")
        key = hit_key(name, nodes)
        if previous is not None and key <= previous:
            order = "top-k sizes" if stream else "page order"
            raise CheckError(f"{order} broken: {previous} then {key}")
        previous = key
