"""Tests of the benchmark's answer checker on hand-built trees.

Run with ``python -m pytest servebench/test_oracle.py``.
"""

import pytest

from oracle import CheckError, Filter, Tree, answers, check_hits

# The paper's running example: two sections of an article.
ARTICLE = """<article>
  <section><title>Background</title>
    <par>XQuery engines rewrite algebra plans.</par></section>
  <section><title>Techniques for optimization</title>
    <par>Optimization of XQuery relies on rewriting.</par>
    <par>An XQuery processor reorders joins.</par></section>
</article>"""

#   0 article
#   1   section      4 section
#   2     title      5   title  (optimization)
#   3     par (x)    6   par    (x, optimization)
#                    7   par    (x)
TERMS = ("xquery", "optimization")


@pytest.fixture
def tree():
    return Tree(ARTICLE)


def hits(*specs):
    return [{"document": "d", "nodes": list(nodes), "size": len(nodes)}
            for nodes in specs]


def test_preorder_numbering_and_keywords(tree):
    assert tree.parent == [-1, 0, 1, 1, 0, 4, 4, 4]
    assert tree.depth == [0, 1, 2, 2, 1, 2, 2, 2]
    assert tree.postings["xquery"] == [3, 6, 7]
    assert tree.postings["optimization"] == [5, 6]
    # Tag names are keywords; stopwords are not.
    assert "section" in tree.keywords[1]
    assert "of" not in tree.keywords[6]


def test_closure_is_the_minimal_connected_subtree(tree):
    assert tree.closure([6]) == {6}
    assert tree.closure([5, 7]) == {4, 5, 7}
    assert tree.closure([3, 6]) == {0, 1, 3, 4, 6}


def test_running_example_has_four_answers_under_size_3(tree):
    # The repository's documented result for
    # `xquery optimization --max-size 3` on this article.
    found = answers({"d": tree}, TERMS, Filter(size=3))
    assert [key[2] for key in found] == [
        (6,), (4, 5, 6), (4, 5, 7), (4, 6, 7)]


def test_filters_prune(tree):
    assert answers({"d": tree}, TERMS, Filter(size=1)) == [(1, "d", (6,))]
    unfiltered = answers({"d": tree}, TERMS, Filter())
    assert len(unfiltered) > 4
    # Height 1 keeps everything inside the second section.
    shallow = answers({"d": tree}, TERMS, Filter(height=1))
    assert [key[2] for key in shallow] == [
        (6,), (4, 5, 6), (4, 5, 7), (4, 6, 7), (4, 5, 6, 7)]


def test_missing_term_gives_no_answers(tree):
    assert answers({"d": tree}, ("xquery", "absent"), Filter()) == []


def test_valid_page_passes(tree):
    check_hits({"d": tree}, TERMS, Filter(size=3),
               hits([6], [4, 5, 6], [4, 5, 7]))


@pytest.mark.parametrize("bad, message", [
    (hits([3, 6]), "connected"),
    (hits([4, 5]), "lacks term"),
    (hits([4, 5, 6, 7]), "fails"),
    (hits([4, 6, 7], [4, 5, 6]), "order"),
    (hits([6], [6]), "order"),
    ([{"document": "d", "nodes": [4, 5, 6], "size": 2}], "size"),
    ([{"document": "e", "nodes": [6], "size": 1}], "unknown"),
    (hits([99]), "range"),
])
def test_violations_are_caught(tree, bad, message):
    with pytest.raises(CheckError, match=message):
        check_hits({"d": tree}, TERMS, Filter(size=3), bad)


def test_leaf_without_term_is_caught():
    # <a><b>k</b><c>j</c><d/></a>: {0,1,2,3} has a term-less leaf 3.
    tree = Tree("<a><b>k</b><c>j</c><d/></a>")
    with pytest.raises(CheckError, match="leaf 3"):
        check_hits({"d": tree}, ("k", "j"), Filter(),
                   hits([0, 1, 2, 3]))


def test_streamed_sizes_never_decrease(tree):
    with pytest.raises(CheckError, match="top-k sizes"):
        check_hits({"d": tree}, TERMS, Filter(),
                   hits([4, 5, 6], [6]), stream=True)
