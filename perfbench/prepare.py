"""Make a workload's inputs from its seed.

    python3 perfbench/prepare.py --workload recognize --seed 7 --out DIR

writes ``DIR/inputs.json`` (read by the timed passes), ``DIR/expect.json``
(read only by the checks) and, for ``recognize``, the Delta JSON files
and tree files the CLI queries name.  The same seed gives the same files.

The Delta of every corpus tree is built once per version of the sources
with ``treebraid.build_delta`` and cached under ``perfbench/.work``; each
one is checked against the reference Betti numbers before it is cached.
Seeds only relabel and pair these, so preparing is cheap and no Delta is
built while set-up is timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import reference as R

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("ladder", "recognize", "verify")

# ladder: each input is paired with its non-homeomorphic partner of the
# same size (equal Betti numbers for the path/star pairs)
LADDER_PAIRS = [
    ("T_MIN", R.T_MIN, "path[3,3,3,3]", R.path_tree([3, 3, 3, 3])),
    ("path4", R.path_tree([5] * 4), "star4", R.star_tree(4)),
    ("path8", R.path_tree([5] * 8), "star8", R.star_tree(8)),
]
LADDER_N = (4, 5)

# recognize: a fixed set of random graphs (not Delta of any tree braid
# group); their labels do not depend on the workload seed
RANDOM_GRAPHS = 40
RANDOM_GRAPH_SEED = "random-graphs"

# verify, part 1: the oracle report of `treebraid verify` (Betti numbers
# by GF(2) rank; with a sample size, also the d = delta check)
VERIFY_ORACLE = [
    (R.radial_tree(3), 4, 0),
    (R.path_tree([3, 3]), 3, 20),
    (R.radial_tree(4), 4, None),
    (R.radial_tree(3), 5, None),
    (R.path_tree([3, 3]), 4, None),
]
# verify, part 2: the cup-product cross-characterisation on one corpus
# tree per stratum (degree multiset of the essential vertices, n);
# trees of one stratum share b1, so the seed barely moves the work
VERIFY_CUP_STRATA = [
    ((4, 5), 5),
    ((3, 4, 5), 4),
    ((3, 4, 4), 5),
    ((3, 4, 5), 5),
    ((3, 3, 4, 4), 4),
]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "treebraid").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def import_treebraid():
    """The package from the sources beside the benchmark."""
    if not (SRC / "treebraid" / "__init__.py").is_file():
        raise SystemExit("treebraid sources not found under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import treebraid

    return treebraid


def corpus_deltas(corpus):
    """{(corpus index, n): (vertex count, edges, cell labels)} for the
    whole corpus, from the per-source-version cache."""
    cache = WORK / "cache" / source_digest() / "corpus-deltas.json"
    if cache.is_file():
        raw = json.loads(cache.read_text())
    else:
        tb = import_treebraid()
        raw = {}
        for i, text in enumerate(corpus):
            for n in (4, 5):
                ts = tb.tree.subdivide_for(tb.tree.parse_tree(text), n)
                obj = tb.delta.build_delta(ts, n).to_json()
                want = R.betti(text, n)
                got = (len(obj["vertices"]), len(obj["edges"]))
                if got != want:
                    raise SystemExit(
                        "Delta of %s at n=%d has (|V|, |E|) = %s, the "
                        "references say %s" % (text, n, got, want))
                raw["%d/%d" % (i, n)] = obj
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(".tmp")
        tmp.write_text(json.dumps(raw))
        tmp.replace(cache)
    out = {}
    for key, obj in raw.items():
        i, n = map(int, key.split("/"))
        cells = [v.get("cell") for v in sorted(obj["vertices"],
                                                key=lambda v: v["id"])]
        out[i, n] = (len(obj["vertices"]), obj["edges"], cells)
    return out


def relabelled(m, edges, cells, n, rng):
    """Delta JSON with vertex ids permuted; without n and the cell labels
    when n is None, as a Delta produced outside treebraid would be."""
    perm = list(range(m))
    rng.shuffle(perm)
    verts = [None] * m
    for v in range(m):
        rec = {"id": perm[v]}
        if n is not None and cells[v] is not None:
            rec["cell"] = cells[v]
        verts[perm[v]] = rec
    obj = {"vertices": verts,
           "edges": sorted(sorted((perm[a], perm[b])) for a, b in edges)}
    if n is not None:
        obj["n"] = n
    return obj


def prepare_ladder(seed):
    inputs, expect = [], []
    for n in LADDER_N:
        for name_a, a, name_b, b in LADDER_PAIRS:
            sides = []
            for name, text in ((name_a, a), (name_b, b)):
                re_text = R.reembed(text, R.seeded(seed, "ladder", name, n))
                sides.append({"name": "%s@%d" % (name, n), "tree": text,
                              "reembedded": re_text})
            inputs.append({"n": n, "sides": sides})
            expect.append({"n": n, "sides": [
                {"tree": s["tree"], "betti": R.betti(s["tree"], n)}
                for s in sides]})
    return {"pairs": inputs}, {"pairs": expect}


def prepare_recognize(seed, out):
    corpus = R.corpus()
    deltas = corpus_deltas(corpus)
    queries, expect = [], []

    def query(argv, kind, fault=None, **info):
        queries.append(argv)
        expect.append(dict(info, kind=kind, fault=fault))

    labelled = {4: [], 5: []}
    for i, text in enumerate(corpus):
        essential = len(R.essential_degrees(R.parse(text)))
        for n in (4, 5):
            m, edges, cells = deltas[i, n]
            # half the files carry n and the cell labels, by a rule that
            # does not depend on the seed, so the failures below repeat
            stripped = (i + n) % 2 == 1
            name = "d%d_%d.json" % (i, n)
            obj = relabelled(m, edges, cells, None if stripped else n,
                             R.seeded(seed, "relabel", i, n))
            (out / name).write_text(json.dumps(obj))
            # detect_n answers 4 on every two-essential-vertex tree at
            # n = 5; reconstruction then fails when n is not in the file
            bad_n = essential == 2 and n == 5
            query(["reconstruct", "--delta", name], "reconstruct",
                  "detect-n-two-essential" if bad_n and stripped else None,
                  tree=text, n=n, stripped=stripped)
            query(["detect-n", "--delta", name], "detect-n",
                  "detect-n-two-essential" if bad_n else None,
                  n=n, free=not edges)
            if not stripped:
                labelled[n].append((i, name))
                twin = "twin%d_%d.json" % (i, n)
                (out / twin).write_text(json.dumps(relabelled(
                    m, edges, cells, n, R.seeded(seed, "twin", i, n))))
                query(["iso", "--delta", name, twin], "iso",
                      a=[text, n], b=[text, n])
    # iso between different corpus trees: a seeded pairing of the files
    # that carry n, every file once on each side
    for n, files in labelled.items():
        shuffled = list(files)
        R.seeded(seed, "iso-pairs", n).shuffle(shuffled)
        for (i, a), (j, b) in zip(files, shuffled):
            query(["iso", "--delta", a, b], "iso",
                  a=[corpus[i], n], b=[corpus[j], n])
    # iso of tree files at different strand counts
    small = [i for i, text in enumerate(corpus)
             if len(R.essential_degrees(R.parse(text))) <= 2]
    for i in small:
        (out / ("t%d.tree" % i)).write_text(corpus[i] + "\n")
    pairing = R.derangement(small, R.seeded(seed, "iso-trees"))
    for i in small:
        j = pairing[i]
        query(["iso", "t%d.tree" % i, "t%d.tree" % j, "--na", "4",
               "--nb", "5"], "iso", a=[corpus[i], 4], b=[corpus[j], 5])
    (out / "tmin.tree").write_text(R.T_MIN + "\n")
    query(["iso", "tmin.tree", "tmin.tree", "--na", "4", "--nb", "5"], "iso",
          "iso-ignores-n", a=[R.T_MIN, 4], b=[R.T_MIN, 5])
    # random graphs, none of them Delta of a tree braid group
    rng = R.seeded(RANDOM_GRAPH_SEED)
    possible = R.small_deltas(14)
    k = 0
    while k < RANDOM_GRAPHS:
        m, edges = R.random_graph(rng)
        if (m, len(edges)) in possible:
            continue
        name = "g%d.json" % k
        (out / name).write_text(json.dumps({
            "vertices": [{"id": v} for v in range(m)], "edges": edges}))
        query(["reconstruct", "--delta", name], "random-graph",
              "accepts-non-delta", m=m, edges=edges)
        k += 1
    return {"queries": queries}, {"queries": expect}


def prepare_verify(seed):
    corpus = R.corpus()
    oracle, cup = [], []
    for k, (text, n, sample) in enumerate(VERIFY_ORACLE):
        oracle.append({
            "tree": R.reembed(text, R.seeded(seed, "verify-tree", k)),
            "n": n, "sample": sample,
            "rng": R.seeded(seed, "verify-forms", k).randrange(1 << 30)})
    for k, (degrees, n) in enumerate(VERIFY_CUP_STRATA):
        members = [text for text in corpus
                   if sorted(R.essential_degrees(R.parse(text)))
                   == list(degrees)]
        if not members:
            raise SystemExit("empty verify stratum %r" % (degrees,))
        rng = R.seeded(seed, "verify-cup", k)
        text = R.reembed(rng.choice(members), rng)
        cup.append({"tree": text, "n": n})
    expect = {
        "oracle": [dict(item, betti=R.betti(item["tree"], item["n"]),
                        zero_forms=R.zero_form_count(item["tree"], item["n"]))
                   for item in oracle],
        "cup": [dict(item, betti=R.betti(item["tree"], item["n"]))
                for item in cup],
    }
    return {"oracle": oracle, "cup": cup}, expect


def prepare(workload, seed, out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "ladder":
        inputs, expect = prepare_ladder(seed)
    elif workload == "recognize":
        inputs, expect = prepare_recognize(seed, out)
    elif workload == "verify":
        inputs, expect = prepare_verify(seed)
    else:
        raise ValueError("unknown workload %r" % workload)
    inputs["workload"] = workload
    (out / "inputs.json").write_text(json.dumps(inputs))
    (out / "expect.json").write_text(json.dumps(expect))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(prepare(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
