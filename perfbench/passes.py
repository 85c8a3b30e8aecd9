"""One timed pass over a workload's prepared inputs, in a fresh process.

    python3 perfbench/passes.py --inputs DIR --spawned-at T --out FILE
                                [--trace] [--setup-only]

T is the parent's ``time.monotonic()`` just before it started this
process; set-up is measured from there to the first call into
``treebraid``.  Set-up imports ``treebraid`` and reads ``inputs.json``,
nothing more.  The pass writes its answers, its timings and its peak
resident set to FILE as JSON; with --trace it also installs the
wrappers of ``tracer.py`` and writes the per-layer figures.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def ladder(tb, inputs):
    parse, subdivide = tb.tree.parse_tree, tb.tree.subdivide_for
    out = []
    for pair in inputs["pairs"]:
        n = pair["n"]
        built = []
        for side in pair["sides"]:
            ts = subdivide(parse(side["tree"]), n)
            counts = tb.cells.count_critical_cells(ts, n)
            dg = tb.delta.build_delta(ts, n)
            rebuilt = tb.delta.reconstruct_tree(dg, n)
            built.append((side, counts, dg, rebuilt))
        for k, (side, counts, dg, rebuilt) in enumerate(built):
            same = tb.delta.decide_isomorphic(
                (parse(side["reembedded"]), n), dg)
            partner = tb.delta.decide_isomorphic(dg, built[1 - k][2])
            out.append([list(counts), dg.num_vertices, len(dg.edges),
                        rebuilt, same, partner])
    return out


def ladder_answers(tb, out):
    for row in out:
        row[3] = tb.tree.to_text(row[3])
    return out


def recognize(tb, inputs):
    main = tb.cli.main
    out = []
    for argv in inputs["queries"]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except Exception as exc:  # an escaped exception is an answer too
                code = "raised %s" % type(exc).__name__
        out.append([code, stdout.getvalue().strip(),
                    stderr.getvalue().strip()[:300]])
    return out


def verify(tb, inputs):
    parse, oracle, forms = tb.tree.parse_tree, tb.oracle, tb.forms
    reports = []
    for item in inputs["oracle"]:
        t, n = parse(item["tree"]), item["n"]
        rep = {"counts": oracle.verify_morse_counts(t, n)}
        if item["sample"] is not None:
            rep["coboundary"] = oracle.verify_d_equals_delta(
                t, n, item["sample"], rng=random.Random(item["rng"]))
        reports.append(rep)
    cup = []
    for item in inputs["cup"]:
        n = item["n"]
        ts = tb.tree.subdivide_for(parse(item["tree"]), n)
        dg = tb.delta.build_delta(ts, n)
        order = forms.ROrder(ts, n)
        _, _, m = forms.build_M(ts, n, order)
        crit = order.critical
        terms = {}
        for c in crit:
            col = m[order.ri[c]]
            terms[c] = [order.cells[i] for i in range(order.rm) if col >> i & 1]
        adjacent = {frozenset((dg.cells[i], dg.cells[j]))
                    for i, j in map(tuple, dg.edges)}
        normal = {}
        pairs = disagree = 0
        for i, c1 in enumerate(crit):
            for c2 in crit[i + 1:]:
                acc = set()
                for u in terms[c1]:
                    for v in terms[c2]:
                        key = frozenset((u, v))
                        if key not in normal:
                            normal[key] = forms.cup_normal_form(u, v, ts, n, order)
                        acc ^= normal[key]
                if bool(acc) != (frozenset((c1, c2)) in adjacent):
                    disagree += 1
                pairs += 1
        cup.append([pairs, disagree, dg.num_vertices, len(dg.edges)])
    return {"oracle": reports, "cup": cup}


PASSES = {"ladder": ladder, "recognize": recognize, "verify": verify}


def peak_rss_mb():
    """Peak resident set of this process image.  ru_maxrss would also
    count the parent's pages at fork, which survive exec; VmHWM does not."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    t_import = time.monotonic()
    import treebraid as tb
    import_s = time.monotonic() - t_import
    if not Path(tb.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("imported treebraid from %s, not %s"
                         % (tb.__file__, SRC))
    inputs = json.loads((Path(args.inputs) / "inputs.json").read_text())
    run = PASSES[inputs["workload"]]
    os.chdir(args.inputs)

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer(tb)
    start = time.monotonic()
    setup_s = start - args.spawned_at
    result = {"setup_s": setup_s, "import_s": import_s}
    if not args.setup_only:
        out = run(tb, inputs)
        wall_s = time.monotonic() - start
        peak = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["missing"] = tracer.missing
        if run is ladder:
            out = ladder_answers(tb, out)
        result.update(wall_s=wall_s, peak_rss_mb=peak, answers=out)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
