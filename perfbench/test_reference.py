"""The benchmark's references against treebraid's own computations.

    python3 -m pytest perfbench/test_reference.py -q

The references (reference.py) are what the benchmark's checks rest on,
so they are tested here against the package: the Betti numbers against
the brute-force oracle on small trees and against the critical-cell
count on the whole corpus, the corpus against its 102 homeomorphism
types, and the tree families against the figures known for them.
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as R  # noqa: E402

tb = pytest.importorskip("treebraid")
pytest.importorskip("networkx")

CORPUS = R.corpus()


def test_corpus_is_every_type_once():
    assert len(CORPUS) == 102
    shapes = [len(R.essential_degrees(R.parse(t))) for t in CORPUS]
    assert {k: shapes.count(k) for k in (1, 2, 3, 4)} == \
        {1: 3, 2: 6, 3: 18, 4: 75}
    for i, a in enumerate(CORPUS[:20]):
        for b in CORPUS[i + 1:]:
            assert not R.homeomorphic(a, b)


@pytest.mark.parametrize("n", (4, 5))
def test_betti_matches_critical_cell_count_on_corpus(n):
    for text in CORPUS:
        ts = tb.tree.subdivide_for(tb.tree.parse_tree(text), n)
        assert R.betti(text, n) == tb.cells.count_critical_cells(ts, n), text


@pytest.mark.parametrize("text,n", [
    (R.radial_tree(3), 4), (R.radial_tree(4), 4), (R.radial_tree(3), 5),
    (R.path_tree([3, 3]), 4), (R.path_tree([3, 3]), 3),
    (R.path_tree([3, 3]), 2),
])
def test_betti_matches_oracle_homology(text, n):
    t = tb.oracle.subdivide_exact(tb.tree.parse_tree(text), n)
    b0, b1, b2 = tb.oracle.betti(tb.oracle.build_complex(t, n, max_dim=3))
    assert (b0, b1, b2) == (1,) + R.betti(text, n)


def test_known_ladder_figures():
    assert R.betti(R.T_MIN, 5) == (40, 30)
    assert R.betti(R.path_tree([5] * 4), 5) == (620, 1656)
    assert R.betti(R.path_tree([5] * 16), 5) == (2480, 33120)
    # a path and a star with the same essential degrees share b1 and b2
    assert R.betti(R.star_tree(8), 5) == R.betti(R.path_tree([5] * 8), 5)
    assert not R.homeomorphic(R.star_tree(8), R.path_tree([5] * 8))


def test_reembedding_keeps_the_homeomorphism_type():
    rng = random.Random(0)
    for text in CORPUS[::7] + [R.star_tree(8)]:
        again = R.reembed(text, rng)
        assert R.homeomorphic(again, text)
        assert tb.tree.trees_homeomorphic(tb.tree.parse_tree(again),
                                          tb.tree.parse_tree(text))


def test_homeomorphism_ignores_subdivision_and_basepoint():
    t = tb.tree.parse_tree(R.T_MIN)
    sub = tb.tree.to_text(tb.tree.subdivide_for(t, 5))
    assert R.homeomorphic(sub, R.T_MIN)
    assert not R.homeomorphic(R.radial_tree(3), R.radial_tree(4))


def test_zero_form_count_matches_coboundary_report():
    for text, n in [(R.radial_tree(3), 4), (R.path_tree([3, 3]), 3)]:
        rep = tb.oracle.verify_d_equals_delta(
            tb.tree.parse_tree(text), n, 0, rng=random.Random(0))
        assert rep["checked"] == R.zero_form_count(text, n)


def test_small_deltas_are_the_only_graphs_up_to_14_vertices():
    want = set()
    for text in CORPUS:
        for n in (4, 5):
            b = R.betti(text, n)
            if b[0] <= 14:
                want.add(b)
    assert R.small_deltas(14) == want
