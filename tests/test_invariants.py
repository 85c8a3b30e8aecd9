"""Invariants on paths a user can reach raise real exceptions.

An `assert` is stripped by `python -O`, so each check below must raise
ValueError (bad arguments) or RuntimeError (a broken internal
invariant) instead.  CI runs this file under `python -O` too.  The
explicit-cell cases guard the reference helpers of explicit.py, which
other tests rely on.
"""

import pytest

from treebraid import cells as C, forms as F, tree as T

import explicit as E
from conftest import T_MIN, path_tree


@pytest.fixture(scope="module")
def tmin4():
    t = T.subdivide_for(T.parse_tree(T_MIN), 4)
    return t, C.enumerate_reduced_1cells(t, 4)


def _bounded_pair(t, cells):
    return next((c1, c2) for c1 in cells for c2 in cells
                if c1.a < c2.a and C.upper_bound_exists(c1, c2, t))


class TestCells:
    def test_to_explicit_wrong_n(self, tmin4):
        t, cells = tmin4
        with pytest.raises(ValueError):
            E.to_explicit(cells[0], t, 5)

    def test_to_explicit_bad_stack(self, tmin4, monkeypatch):
        t, cells = tmin4
        real = E.stack

        def short(*args):
            verts, edges = real(*args)
            return verts[1:], edges

        monkeypatch.setattr(E, "stack", short)
        with pytest.raises(RuntimeError):
            E.to_explicit(cells[0], t, 4)

    def test_upper_bound_mixed_strand_counts(self, tmin4):
        t, cells = tmin4
        c1, c2 = _bounded_pair(t, cells)
        c2 = c2._replace(x=(c2.x[0] + 1,) + c2.x[1:])
        for decide in (C.upper_bound_exists, C.edge_disrespectful_in_lub):
            with pytest.raises(ValueError, match="differ in strand count"):
                decide(c1, c2, t)

    def test_lub_reduced_wrong_n(self, tmin4):
        t, cells = tmin4
        c1, c2 = _bounded_pair(t, cells)
        with pytest.raises(ValueError):
            E.lub_reduced(c1, c2, t, 5)

    def test_lub_reduced_overlapping_stacks(self, tmin4, monkeypatch):
        t, cells = tmin4
        c1, c2 = _bounded_pair(t, cells)
        real = E.stack

        def doubled(*args):
            verts, edges = real(*args)
            return verts + verts[:1], edges

        monkeypatch.setattr(E, "stack", doubled)
        with pytest.raises(RuntimeError):
            E.lub_reduced(c1, c2, t, 4)


class TestForms:
    def test_necessary_cell_not_unique(self, monkeypatch):
        # every direction of x qualifies once the lub flags say so
        t = T.subdivide_for(T.parse_tree(path_tree([4, 3])), 4)
        cells = C.enumerate_reduced_1cells(t, 4)
        a, b = sorted({c.a for c in cells})
        c1 = next(c for c in cells if c.a == b and C.is_critical(c))
        x = (0, 1, 1, 2)
        monkeypatch.setattr(C, "upper_bound_exists", lambda *args: True)
        monkeypatch.setattr(C, "edge_disrespectful_in_lub",
                            lambda *args: (False, True))
        with pytest.raises(RuntimeError):
            F.is_necessary(F.BasicForm((a, x), (c1,)), t)
