"""
The simplicial complex Delta carrying the exterior-face-algebra
structure of H*(B_nT), built from its twin quotient cells.cub_quotient;
the neighborhood hierarchy, the defining tree grown back as a PlaneTree
(checked once, in _grow), n detection and the iso decision, n in {4, 5}.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import itemgetter

from . import cells as _cells
from . import tree as _tree
from .cells import ReducedOneCell


def _check_edges(edges, num_vertices):
    """Raise ValueError naming the first edge, in input order, that is not
    two distinct int ids in 0..num_vertices-1 (bool is no id).  The edge
    is named sorted, by its distinct endpoints when it repeats one, and
    as given when its endpoints do not hash or do not sort, or when it
    is not iterable."""
    for e in edges:
        try:
            ends = list(e)
        except TypeError:  # 5 is named as given
            raise ValueError("bad edge %r" % (e,)) from None
        if not (len(ends) == 2 and ends[0] != ends[1] and all(
                type(i) is int and 0 <= i < num_vertices for i in ends)):
            try:
                pair = set(ends)
                ends = sorted(pair if len(pair) != 2 else ends)
            except TypeError:  # ['a', 0] and [0, [1]] are named as given
                pass
            raise ValueError("bad edge %r" % (ends,))


class Undefined(Exception):
    """The tree T_Delta is undefined for this complex; carries the
    failing condition.  Signals invalid input, not an internal error."""


# ---------------------------------------------------------------------------
# the complex Delta


class DeltaGraph:
    """A 1-dimensional simplicial complex, kept as its twin quotient.

    vertices are indices 0..m-1; cells, when given, labels vertex i with
    the critical 1-cell c of its class Mc*.  n is the strand count when
    known.  Twins (vertices with equal nonempty neighborhoods) are never
    adjacent, and two twin classes are joined completely or not at all.
    So classes[k], the sorted members of class k (classes ordered by
    least member), and ns[k], the frozenset of class ids joined to k,
    determine the graph; edges is a read-only view of the frozenset
    index pairs they stand for (_EdgeView), counted without expanding.
    """

    def __init__(self, num_vertices, edges, cells=None, n=None):
        self.num_vertices = num_vertices
        if iter(edges) is edges:  # one-shot: _check_edges may read it again
            edges = list(edges)
        # group first, then check the result in bulk; _check_edges, which
        # names the first bad edge, runs only when a check fails
        nb = defaultdict(list)  # repeats vanish in the frozensets below
        try:
            for i, j in edges:
                nb[i].append(j)
                nb[j].append(i)
            # every endpoint is in some list (True and 1.0 too, even
            # where they hash as key 1)
            ok = not nb or (
                set(map(type, chain.from_iterable(nb.values()))) == {int}
                and min(nb) >= 0 and max(nb) < num_vertices)
        except (TypeError, ValueError):  # an edge is no pair of hashables
            ok = False
        by_nb = {}
        if ok:
            for v in sorted(nb):
                by_nb.setdefault(frozenset(nb[v]), []).append(v)
            # a loop at v puts v in N(v); then each twin w has v in N(w),
            # so w is in N(v) = N(w): one member per class finds any loop
            ok = not any(vs[0] in key for key, vs in by_nb.items())
        if not ok:
            _check_edges(edges, num_vertices)
            # not reached: the bulk checks refuse only what it refuses
            raise AssertionError("_check_edges passed a refused edge list")
        self.classes = list(by_nb.values())
        cls = {v: k for k, members in enumerate(self.classes) for v in members}
        self.ns = [frozenset(map(cls.__getitem__, vs)) for vs in by_nb]
        self.cells = list(cells) if cells is not None else None
        self.n = n
        self._grown = {}  # n -> the tree _grow grew, or why none grows

    @classmethod
    def from_quotient(cls, num_vertices, classes, ns, cells=None, n=None):
        """Trusted twin classes and class joins: nothing is checked."""
        self = cls(num_vertices, (), cells=cells, n=n)
        self.classes, self.ns = classes, ns
        return self

    @cached_property
    def edges(self):
        """The frozenset index pairs, as a view over the quotient."""
        return _EdgeView(self.classes, self.ns)

    @cached_property
    def _hierarchy(self):
        """The Hierarchy of this Delta; read it through hierarchy()."""
        return Hierarchy(self)

    def _rows(self):
        """(id, cell or None) per vertex, and the sorted [i, j] per edge."""
        return (enumerate(self.cells or repeat(None, self.num_vertices)),
                sorted(map(sorted, self.edges)))

    def to_json(self):
        labels, edges = self._rows()
        out = {"vertices": [{"id": i} if c is None else
                            {"id": i, "cell": c.to_json()} for i, c in labels],
               "edges": edges}
        if self.n is not None:
            out["n"] = self.n
        return out

    @classmethod
    def from_json(cls, obj):
        """The Delta of a JSON object (see to_json).  vertices and edges
        must be JSON lists; ids, edge endpoints, the label fields a, d, x
        and n must be JSON integers; n may be absent or null (unknown)
        and any vertex may go unlabelled."""
        verts, get_id = obj["vertices"], itemgetter("id")
        if {type(verts), type(obj["edges"])} != {list}:  # {} reads as empty
            raise ValueError("vertices and edges must be JSON lists")
        ids = list(map(get_id, verts))
        if not set(map(type, ids)) <= {int} \
                or sorted(ids) != list(range(len(ids))):
            raise ValueError("vertex ids must be 0..m-1")
        n = obj.get("n")
        if n is not None and type(n) is not int:
            raise ValueError("n must be a JSON integer")
        labelled, cell_at = [v for v in verts if "cell" in v], {}
        if labelled:
            a, d, x = zip(*map(itemgetter("a", "d", "x"),
                               map(itemgetter("cell"), labelled)))
            if not (set(map(type, x)) <= {list} and set(map(
                    type, chain(a, d, chain.from_iterable(x)))) == {int}):
                raise ValueError("cell fields a and d must be JSON "
                                 "integers, x a list of them")
            cells = map(tuple.__new__, repeat(ReducedOneCell),
                        zip(a, d, map(tuple, x)))
            cell_at = dict(zip(map(get_id, labelled), cells))
        return cls(len(ids), obj["edges"],
                   cells=map(cell_at.get, range(len(ids))), n=n)

    def to_dot(self):
        labels, edges = self._rows()
        lines = ["graph Delta {"]
        for i, c in labels:
            label = "" if c is None else \
                ' [label="%d,%d,%s"]' % (c.a, c.d, list(c.x))
            lines.append("  v%d%s;" % (i, label))
        lines.extend("  v%d -- v%d;" % (i, j) for i, j in edges)
        lines.append("}")
        return "\n".join(lines)


class _EdgeView:
    """The edges of a DeltaGraph read off its twin quotient: the pairs
    {u, v} with u in class k, v in class j and j in ns[k].  len sums
    |C_k| |C_j| over joined classes k < j; iteration expands each pair
    once."""

    def __init__(self, classes, ns):
        self._classes, self._ns = classes, ns

    def __len__(self):
        sizes = list(map(len, self._classes))
        return sum(sizes[k] * sizes[j]
                   for k, js in enumerate(self._ns) for j in js if k < j)

    def __iter__(self):
        classes = self._classes
        for k, members in enumerate(classes):
            for j in self._ns[k]:
                if k < j:
                    yield from (frozenset((u, v))
                                for u in members for v in classes[j])


# ---------------------------------------------------------------------------
# the edge test and the build


def m_cup_adjacent(c, cp, t):
    """Whether Mc* cup M(cp)* is nonzero, by the combinatorial
    characterization: keyed to the <_r-smaller cell s of the pair,
    (1) s not Type I/II and the least upper bound is critical,
    (2) s Type I and the least upper bound is noncritical,
    (3) s Type II, critical least upper bound, and the direction toward
    the other cell is not s's smallest occupied direction."""
    flags = _cells.edge_disrespectful_in_lub(c, cp, t)  # None over one vertex
    if flags is None:
        return False
    # <_r sorts by vertex first, and c.a != cp.a
    small, other = (c, cp) if c.a < cp.a else (cp, c)
    s_critical = all(flags)
    kind = _cells.classify_exceptional(small)
    if kind == "I":
        return not s_critical
    if kind == "II":
        alpha = t.directions(small.a)[other.a]
        smallest = next(i for i, v in enumerate(small.x) if v != 0)
        return s_critical and alpha != smallest
    return s_critical


N_TOO_LARGE = "Delta is built for n <= 5 only"


def build_delta(t, n):
    """Delta for (t, n), n <= 5: one vertex per critical 1-cell (in <_r
    order), edges the pairs whose M-classes cup nontrivially.

    The critical template of each degree, in <_r order and with its
    CUB labels, is made once per (n, degree) and kept across builds
    (cells.labelled_template); it is stamped at every vertex, and <_r
    sorts by vertex first, so this is the order of ROrder(t, n).critical.
    The cells at a labelled (delta, k) form the twin class (a, delta, k)
    of cells.cub_quotient; the others are isolated.  n >= 6 raises
    ValueError: a cell can have two CUB directions.
    """
    if n > 5:
        raise ValueError(N_TOO_LARGE)
    crit = _cells.stamp(t, n, lambda deg: _cells.labelled_template(n, deg)[0])
    _, joins = _cells.cub_quotient(t, n)
    members, i = defaultdict(list), 0
    for a in _tree.essential_vertices(t):
        template, labelled = _cells.labelled_template(n, t.degree(a))
        for p, delta, k in labelled:
            if (a, delta, k) in joins:  # every key of joins has a partner
                members[a, delta, k].append(i + p)
        i += len(template)
    # members is in order of least member; its keys are the classes
    cls = {key: j for j, key in enumerate(members)}
    return DeltaGraph.from_quotient(
        len(crit), list(members.values()),
        [frozenset(cls[q] for q in joins[key]) for key in members],
        cells=crit, n=n)


# ---------------------------------------------------------------------------
# the neighborhood hierarchy


class Hierarchy:
    """The twin classes of Delta (see DeltaGraph), ordered by
    neighborhood inclusion.  classes and ns are Delta's, so ns[i] holds
    class ids; a neighborhood is a union of whole classes, so N_i is a
    subset of N_j exactly when ns[i] <= ns[j].  below[i] is the
    frozenset of classes j with N_j a subset of N_i (i included),
    kids[i] the ascending Hasse children of i (strict inclusion, nothing
    between) and maximal the ascending <=_N-maximal classes, those that
    are nobody's child.
    """

    def __init__(self, delta):
        self.classes, self.ns = delta.classes, delta.ns
        ns, m = self.ns, len(self.ns)
        self.below = [frozenset(j for j in range(m) if ns[j] <= ns[i])
                      for i in range(m)]
        self.kids = []
        for i in range(m):
            # a strict descendant is a child unless it lies below a
            # larger one; every class between them is larger, so seen first
            kids, covered = [], set()
            for j in sorted(self.below[i] - {i}, key=lambda j: -len(ns[j])):
                if j not in covered:
                    kids.append(j)
                    covered |= self.below[j]
            self.kids.append(sorted(kids))
        child = {j for kids in self.kids for j in kids}
        self.maximal = [i for i in range(m) if i not in child]


def hierarchy(delta):
    """The Hierarchy of delta, built on first use and kept with delta,
    so that detecting n and reconstructing share one."""
    return delta._hierarchy


def _pruned(h, root, n):
    """The sorted classes of H, the descendants of root that survive
    pruning.  For n = 5 the pruning child is cut off with its
    descendants: the first child j of root whose descendants are half of
    root's and include one of any two root children with a common
    descendant.  None when n = 5 and no child qualifies."""
    desc = h.below[root]
    if n != 5:
        return sorted(desc)
    kids = h.kids[root]
    for j in kids:
        dj = h.below[j]
        if 2 * len(dj) == len(desc) and all(
                u in dj or v in dj or h.below[u].isdisjoint(h.below[v])
                for u, v in combinations(kids, 2)):
            return sorted(desc - dj)
    return None


def _solve_increasing(f, target):
    """The unique x >= 3 with f(x) == target, or None; f must be
    strictly increasing on x >= 3, so the scan stops once f(x) reaches
    target."""
    x = 3
    while (v := f(x)) < target:
        x += 1
    return x if v == target else None


def _solve_Y(m, target):
    """The unique x > 2 with Y_m(x) == target, or None (Y_m is strictly
    increasing in x for x >= 3)."""
    return _solve_increasing(lambda x: _cells.radial_rank(m, x), target)


def _grow_tree(children_of, pdeg):
    """The PlaneTree * - p_1 - (subtrees + leaves), ids in preorder:
    children_of[v] lists the children of v in order from "p1" down, and
    v is padded with leaf edges up to its target degree pdeg[v]."""
    parent, children = [None], [[]]
    # (v, p): planned vertex v, or None for a padding leaf, below id p
    todo = [("p1", 0)]
    while todo:
        v, p = todo.pop()
        i = len(parent)
        parent.append(p)
        children.append([])
        children[p].append(i)
        if v is not None:
            kids = children_of.get(v, [])
            todo.extend(repeat((None, i), pdeg[v] - 1 - len(kids)))
            todo.extend((u, i) for u in reversed(kids))
    return _tree.PlaneTree(parent, children)


def reconstruct_tree(delta, n):
    """The tree T_Delta grown from the neighborhood hierarchy (see
    _reconstruct).  Raises Undefined when the complex is not a tree
    braid Delta, in particular when the grown tree's Betti numbers are
    not (|V|, |E|) of Delta.  The outcome is kept with delta, one per n
    (_grow)."""
    if n not in (4, 5):
        raise ValueError("n must be 4 or 5")
    grown = _grow(delta, n)
    if isinstance(grown, str):
        # a fresh exception: re-raising a stored one lengthens its traceback
        raise Undefined(grown)
    return grown


def _grow(delta, n):
    """delta._grown[n]: the tree grown from _reconstruct's plan at n if
    its (b_1, b_2) at n is (|V|, |E|) of delta, the one check, else why
    no tree grows.  Growth runs once per n."""
    if n not in delta._grown:
        try:
            t = _grow_tree(*_reconstruct(delta, n))
        except Undefined as exc:
            delta._grown[n] = str(exc)
        else:
            b = _cells.count_critical_cells(t, n)
            want = (delta.num_vertices, len(delta.edges))
            delta._grown[n] = t if b == want else (
                "the grown tree has (b1, b2) = %s, Delta has "
                "(|V|, |E|) = %s" % (b, want))
    return delta._grown[n]


def _reconstruct(delta, n, root=None):
    """The plan (children_of, pdeg) for _grow_tree of the tree grown from
    the hierarchy of the <=_N-maximal class root (default: the first;
    every maximal class grows the same tree), following the Y-degree
    equations; radial when delta has no edges.  Raises Undefined."""
    if not delta.classes:  # every neighborhood empty: radial (free group)
        deg = _solve_Y(n, delta.num_vertices)
        if deg is None:
            raise Undefined(
                "no radial tree: |Delta| = %d is not a Y_%d value"
                % (delta.num_vertices, n))
        return {}, {"p1": deg}
    h = hierarchy(delta)
    root = h.maximal[0] if root is None else root
    desc = sorted(h.below[root])
    kept = _pruned(h, root, n)
    if kept is None:
        raise Undefined("no pruning child exists (n = 5)")

    # the exceptional three-vertex case (n = 5): H = {p1, [v0], [u]}
    if n == 5 and len(kept) == 2:
        if len(desc) != 4:
            raise Undefined("three-vertex H without a five-vertex H'")
        others = [i for i in desc if i != root and i not in h.kids[root]]
        if len(others) != 1:
            raise Undefined("three-vertex H without a unique joint child")
        w = others[0]
        a = _solve_Y(2, len(h.classes[root]))
        yb = _solve_increasing(
            lambda x: _cells.radial_rank(3, x) - _cells.radial_rank(2, x),
            len(h.classes[w]))
        cdeg = _solve_Y(2, sum(len(h.classes[k]) for k in h.ns[w]))
        if a is None or yb is None or cdeg is None:
            raise Undefined("no degrees solve the exceptional equations")
        return {"p1": ["x"], "x": ["y"]}, {"p1": a, "x": yb, "y": cdeg}

    # H must be a tree rooted at p1: children are taken in the full
    # hierarchy H', then restricted to the surviving vertices (pruning
    # removes vertices and their edges); inclusion is acyclic, so H is a
    # tree iff they name every kept class but the root exactly once
    kept_set = set(kept)
    children_of = {i: [j for j in h.kids[i] if j in kept_set] for i in kept}
    named = sorted(j for kids in children_of.values() for j in kids)
    if named != [i for i in kept if i != root]:
        raise Undefined("H is not a tree")
    children_of["p1"] = [root]

    pdeg = {}
    for i in kept:
        kids = children_of[i]
        if not kids:  # leaf of H
            pdeg[i] = _solve_Y(n - 2, sum(len(h.classes[k]) for k in h.ns[i]))
        else:
            sizes = {len(h.classes[j]) for j in kids}
            if len(sizes) != 1:
                pdeg[i] = None
            else:
                pdeg[i] = _solve_Y(2, sizes.pop())
        if pdeg[i] is None:
            raise Undefined("pdeg undefined for a class of H")
        if kids and len(kids) > pdeg[i] - 1:
            raise Undefined("class has more children than its degree allows")
    pdeg["p1"] = _solve_Y(2, len(h.classes[root]))
    if pdeg["p1"] is None:
        raise Undefined("pdeg_1 undefined")
    return children_of, pdeg


def detect_n(delta):
    """The one m in {4, 5} at which a tree grows from delta (the outcomes
    of _grow, which reconstruct_tree reads too), or "unknown" when delta
    has no edges (a free group, whose rank alone fixes no n).  Raises
    Undefined when a tree grows at neither m or at both."""
    if not delta.classes:
        return "unknown"
    grown = [m for m in (4, 5) if not isinstance(_grow(delta, m), str)]
    if not grown:
        raise Undefined("n is neither 4 (%s) nor 5 (%s)"
                        % (delta._grown[4], delta._grown[5]))
    if len(grown) == 2:
        raise Undefined("a tree grows at both n = 4 and n = 5")
    return grown[0]


# ---------------------------------------------------------------------------
# the isomorphism decision


def _invariants(spec):
    """(b1, n, tree or None) of one decide_isomorphic input; None means
    the group is free.  On a tree, b1 = sum of Y_n(deg a) over essential
    vertices a, and the group is free iff at most one vertex is
    essential or n <= 3 (a critical 2-cell needs four strands).  A
    non-free Delta is reconstructed at its n (detected when absent), so
    a non-Delta raises Undefined and an n outside {4, 5} ValueError;
    b2 is left to decide_isomorphic, which needs it only across n."""
    if isinstance(spec, DeltaGraph):
        if not spec.classes:
            return spec.num_vertices, spec.n, None
        n = detect_n(spec) if spec.n is None else spec.n
        return spec.num_vertices, n, reconstruct_tree(spec, n)
    t, n = spec
    if n < 2:
        raise ValueError("n must be >= 2")
    ess = _tree.essential_vertices(t)
    b1 = sum(_cells.radial_rank(n, t.degree(a)) for a in ess)
    if len(ess) <= 1 or n <= 3:
        return b1, n, None
    if n not in (4, 5):
        raise ValueError("isomorphism decision requires n in {4, 5} "
                         "for non-free groups")
    return b1, n, t


def decide_isomorphic(spec1, spec2):
    """Whether the two tree braid groups are isomorphic.

    Each spec is a (PlaneTree, n) pair or a DeltaGraph.  b1 is compared
    first; free groups (edgeless Delta) then compare by rank alone, and a
    free and a non-free group are never isomorphic.  Non-free groups with
    equal b1 at different n compare by b2 (for a Delta, |E|, which its
    grown tree's b2 equals); equal (b1, b2) raise ValueError, not a
    guess.  At equal n the defining trees are compared up to
    homeomorphism, reconstructing from Delta where no tree was given.
    Raises Undefined when an alleged Delta admits no tree.
    """
    rank1, n1, t1 = _invariants(spec1)
    rank2, n2, t2 = _invariants(spec2)
    if rank1 != rank2 or (t1 is None) != (t2 is None):
        return False
    if t1 is None:
        return True
    if n1 != n2:
        # b2 only now, with both n in {4, 5}: its closed form makes O(n)
        # radial ranks per degree, where b1 makes one
        pair1 = _cells.count_critical_cells(t1, n1)
        pair2 = _cells.count_critical_cells(t2, n2)
        if pair1 != pair2:
            return False
        raise ValueError("isomorphism across strand counts is undecided: "
                         "(b1, b2) = %s at n = %d and at n = %d"
                         % (pair1, n1, n2))
    return _tree.trees_homeomorphic(t1, t2)
