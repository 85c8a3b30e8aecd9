"""
Command-line surface.

Exit codes: 0 success / decided true, 1 decided false (iso) or failed
verification, 2 invalid input or usage, 3 Undefined: no tree braid Delta
(reconstruct, detect-n, iso), 4 internal error (an uncaught exception,
reported on stderr).  3 and 4 hold even when the report cannot be
written.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache
from itertools import islice
from math import log10

from . import cells as _cells
from . import delta as _delta
from . import forms as _forms
from . import oracle as _oracle
from . import tree as _tree


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_tree(path):
    try:
        return _tree.parse_tree(_read_text(path))
    except (OSError, ValueError) as exc:
        raise SystemExit(_fail("cannot read tree %r: %s" % (path, exc)))


def _load_delta(path):
    enabled = gc.isenabled()
    gc.disable()  # the parse makes no reference cycle: nothing to collect
    try:
        return _delta.DeltaGraph.from_json(json.loads(_read_text(path)))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise SystemExit(_fail("cannot read delta %r: %s" % (path, exc)))
    finally:
        if enabled:
            gc.enable()


# the most vertices a subdivided tree may have (about 200 MB)
SUBDIVISION_BUDGET = 1_000_000


def _load_subdivided(path, n):
    """The subdivision for n strands (see tree.subdivide_for) of the tree
    at path.  An n it refuses, or whose subdivision has more than
    SUBDIVISION_BUDGET vertices, exits 2 before anything is built."""
    t = _load_tree(path)
    try:
        size = _tree.subdivided_size(t, n)
    except ValueError as exc:
        raise SystemExit(_fail(str(exc)))
    if size > SUBDIVISION_BUDGET:
        raise SystemExit(_fail(
            "the subdivision for n = %d has %d vertices, more than %d"
            % (n, size, SUBDIVISION_BUDGET)))
    return _tree.subdivide_for(t, n)


def _fail(msg):
    print("error: %s" % msg, file=sys.stderr)
    return 2


def _print_json(obj):
    """Print obj as indented, key-sorted JSON, streamed in batches of
    pieces: no string of the whole document, and few writes even when
    stdout is unbuffered."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    sys.stdout.writelines(iter(lambda: "".join(islice(pieces, 4096)), ""))
    print()


def cmd_subdivide(args):
    t = _load_subdivided(args.tree, args.n)
    print(_tree.to_text(t))
    return 0


def cmd_cells(args):
    t = _load_subdivided(args.tree, args.n)
    for c in _cells.enumerate_reduced_1cells(t, args.n):
        if args.critical and not _cells.is_critical(c):
            continue
        print(json.dumps(c.to_json(), sort_keys=True))
    return 0


def cmd_betti(args):
    t = _load_tree(args.tree)
    try:
        b = _oracle.swiatkowski_betti(t, args.n)
    except (_oracle.BudgetExceeded, ValueError) as exc:
        return _fail(str(exc))
    print(" ".join(map(str, b)))
    return 0


def cmd_radial_rank(args):
    n, x = args.n, args.degree
    # refuse past 4300 digits, the limit on int to str conversion, and
    # before any binomial when Y_n(x) > (N / j)^j / 3 > 10^4300 (n, x >= 3,
    # N = n + x - 2, 1 <= j < min(n, x), j capped to keep it a float)
    j = min(n, x, 10 ** 6) - 1
    try:
        if n >= 3 and x >= 3 and j * (log10(n + x - 2) - log10(j)) > 4301 \
                or (y := _cells.radial_rank(n, x)) >= 10 ** 4300:
            return _fail("Y_%d(%d) has more than 4300 digits" % (n, x))
        print(y)
    except ValueError as exc:
        return _fail(str(exc))
    return 0


def cmd_delta(args):
    t = _load_tree(args.tree)
    try:
        if args.n > 5:  # refused before the subdivision, which grows with n
            raise ValueError(_delta.N_TOO_LARGE)
        dg = _delta.build_delta(_tree.subdivide_for(t, args.n), args.n)
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "dot":
        print(dg.to_dot())
    else:
        _print_json(dg.to_json())
    return 0


def cmd_reconstruct(args):
    dg = _load_delta(args.delta)
    n = args.n if args.n is not None else dg.n
    if n is None:
        n = _delta.detect_n(dg)
        if n == "unknown":
            return _fail("cannot determine n; pass --n")
    try:
        t = _delta.reconstruct_tree(dg, n)
    except ValueError as exc:
        return _fail(str(exc))
    print(_tree.to_text(t))
    return 0


def cmd_detect_n(args):
    print(_delta.detect_n(_load_delta(args.delta)))
    return 0


def cmd_iso(args):
    na = args.n if args.n is not None else args.na
    nb = args.n if args.n is not None else args.nb
    if args.delta:
        spec_a, spec_b = _load_delta(args.a), _load_delta(args.b)
        # a given n overrides the file's, as in reconstruct
        for dg, n in ((spec_a, na), (spec_b, nb)):
            if n is not None:
                dg.n = n
    else:
        if na is None or nb is None:
            return _fail("iso requires --n or both --na and --nb")
        spec_a = (_load_tree(args.a), na)
        spec_b = (_load_tree(args.b), nb)
    try:
        same = _delta.decide_isomorphic(spec_a, spec_b)
    except ValueError as exc:
        return _fail(str(exc))
    print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def cmd_verify(args):
    t = _load_tree(args.tree)
    try:
        coboundary = _oracle.verify_d_equals_delta(
            t, args.n, args.forms_sample)
    except ValueError as exc:
        return _fail(str(exc))
    report = {"counts": _oracle.verify_morse_counts(t, args.n),
              "coboundary": coboundary}
    _print_json(report)
    ok = all(r["pass"] is not False for r in report.values())
    return 0 if ok else 1


def cmd_presentation(args):
    t = _load_subdivided(args.tree, args.n)
    n = args.n
    kverts, edges = _forms.build_complex_K(t, n)
    out = {
        "vertices": [c.to_json() for c in kverts],
        "edges": sorted(map(list, edges)),
        "relations": [],
    }
    # coboundary support chains of the necessary forms f(a,x) and
    # f(a,x)dc_1, c_1 critical; each necessary 1-form is a witness of
    # its one necessary cell
    order = _forms.ROrder(t, n)
    forms = [f for f in _forms.basic_0forms(order.cells)
             if _forms.is_necessary(f, t) is not None]
    for c in order.cells:
        forms.extend(_forms.necessary_witnesses(c, t, order))
    for form in forms:
        out["relations"].append({
            "form": str(form),
            "support": sorted(map(str, _forms.differential(form, t))),
        })
    out["relations"].sort(key=lambda r: r["form"])
    _print_json(out)
    return 0


@cache  # one parser, reused by every call to main
def build_parser():
    p = argparse.ArgumentParser(
        prog="treebraid",
        description="Discrete-Morse invariants of tree braid groups.")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn, tree_arg=True):
        sp = sub.add_parser(name)
        if tree_arg:
            sp.add_argument("tree", help="plane-tree file ('-' for stdin)")
        sp.add_argument("--n", type=int, default=4)
        sp.set_defaults(fn=fn)
        return sp

    add("subdivide", cmd_subdivide)
    sp = add("cells", cmd_cells)
    sp.add_argument("--critical", action="store_true")
    add("betti", cmd_betti)
    sp = add("radial-rank", cmd_radial_rank, tree_arg=False)
    sp.add_argument("--degree", type=int, required=True)
    sp = add("delta", cmd_delta)
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp = sub.add_parser("reconstruct")
    sp.add_argument("--delta", required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(fn=cmd_reconstruct)
    sp = sub.add_parser("detect-n")
    sp.add_argument("--delta", required=True)
    sp.set_defaults(fn=cmd_detect_n)
    sp = sub.add_parser("iso")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--na", type=int, default=None)
    sp.add_argument("--nb", type=int, default=None)
    sp.add_argument("--delta", action="store_true",
                    help="inputs are Delta JSON files, not trees")
    sp.set_defaults(fn=cmd_iso)
    sp = add("verify", cmd_verify)
    sp.add_argument("--forms-sample", type=int, default=50)
    add("presentation", cmd_presentation)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        return 0
    except _delta.Undefined as exc:  # the input is no tree braid Delta
        _report("undefined: %s", exc)
        return 3
    except Exception as exc:
        # exit 1 means "not isomorphic"; a fault must not read as an answer
        _report("internal error: %s: %s", type(exc).__name__, exc)
        return 4


def _report(fmt, *args):
    """Print fmt % args on stderr.  A report that cannot be written (a
    MemoryError with no memory left to format or print it) is dropped,
    so that the exit code still says what happened."""
    try:
        print(fmt % args, file=sys.stderr)
    except Exception:
        pass


if __name__ == "__main__":
    sys.exit(main())
