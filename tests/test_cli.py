import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treebraid import cells as C, cli, delta as D, forms as F, tree as T

from conftest import (CORPUS, T_MIN, caterpillar, count_hierarchies,
                      path_tree, radial_tree, trees)


@pytest.fixture
def tmin_file(tmp_path):
    p = tmp_path / "tmin.tree"
    p.write_text(T_MIN)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def stripped_delta(text, n, rng):
    """The Delta of the tree text at n as JSON, its vertex ids permuted
    by rng, without n and without the cell labels."""
    dg = D.build_delta(T.subdivide_for(T.parse_tree(text), n), n)
    perm = list(range(dg.num_vertices))
    rng.shuffle(perm)
    return json.dumps({
        "vertices": [{"id": i} for i in range(dg.num_vertices)],
        "edges": sorted(sorted(perm[i] for i in e) for e in dg.edges)})


def scanned_relations(t, n):
    """The relations of `presentation` by testing is_necessary on every
    0-form and on every pair of a 0-form and a critical cell over
    another vertex."""
    all_cells = C.enumerate_reduced_1cells(t, n)
    zero_forms = F.basic_0forms(all_cells)
    criticals = [c for c in all_cells if C.is_critical(c)]
    forms = zero_forms + [
        F.BasicForm(f.base, (c1,))
        for f in zero_forms for c1 in criticals if f.base[0] != c1.a]
    relations = [{"form": str(form),
                  "support": sorted(map(str, F.differential(form, t)))}
                 for form in forms if F.is_necessary(form, t) is not None]
    return sorted(relations, key=lambda r: r["form"])


class TestVerbs:
    def test_radial_rank(self, capsys):
        code, out, _ = run(capsys, "radial-rank", "--n", "5", "--degree", "5")
        assert (code, out.strip()) == (0, "155")
        # one strand: B_1 of a tree is trivial
        code, out, _ = run(capsys, "radial-rank", "--n", "1", "--degree", "4")
        assert (code, out.strip()) == (0, "0")

    def test_radial_rank_large_degree(self, capsys):
        x = 100_000_000
        start = time.perf_counter()
        code, out, _ = run(capsys, "radial-rank", "--n", "4",
                           "--degree", str(x))
        assert time.perf_counter() - start < 1
        want = (x - 2) * (x + 2) * (x + 1) * x // 6 \
            - (x + 2) * (x + 1) * x * (x - 1) // 24 + 1
        assert (code, out.strip()) == (0, str(want))

    @pytest.mark.parametrize("n", ["8000", "3000000"])
    def test_radial_rank_too_long_refused(self, capsys, n):
        start = time.perf_counter()
        code, out, err = run(capsys, "radial-rank", "--n", n, "--degree", n)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: Y_%s(%s) has more than 4300 digits\n" % (n, n)

    def test_radial_rank_long_answer(self, capsys):
        code, out, _ = run(capsys, "radial-rank", "--n", "5000",
                           "--degree", "5000")
        assert code == 0 and out == "%d\n" % C.radial_rank(5000, 5000)
        assert len(out.strip()) == 3012

    def test_subdivide(self, capsys, tmin_file):
        code, out, _ = run(capsys, "subdivide", tmin_file, "--n", "4")
        assert code == 0
        t = T.parse_tree(out)
        assert T.is_sufficiently_subdivided(t, 6)
        assert T.trees_homeomorphic(t, T.parse_tree(T_MIN))

    def test_cells_counts(self, capsys, tmin_file):
        code, out, _ = run(capsys, "cells", tmin_file, "--n", "4")
        assert code == 0 and len(out.splitlines()) == 48
        code, out, _ = run(capsys, "cells", tmin_file, "--n", "4",
                           "--critical")
        assert code == 0 and len(out.splitlines()) == 24

    def test_betti(self, capsys, tmin_file):
        code, out, _ = run(capsys, "betti", tmin_file, "--n", "4")
        assert code == 0 and out.split() == ["1", "24", "6"]

    def test_betti_beyond_brute_force(self, capsys, tmin_file):
        # 9.1 M cells in the subdivided configuration space
        code, out, err = run(capsys, "betti", tmin_file, "--n", "5")
        assert (code, out, err) == (0, "1 40 30\n", "")

    def test_delta_json_and_dot(self, capsys, tmin_file):
        code, out, _ = run(capsys, "delta", tmin_file, "--n", "4")
        obj = json.loads(out)
        assert code == 0
        assert len(obj["vertices"]) == 24 and len(obj["edges"]) == 6
        code, out, _ = run(capsys, "delta", tmin_file, "--n", "4",
                           "--format", "dot")
        assert code == 0 and out.startswith("graph Delta {")

    def test_delta_type_ii_before_type_i(self, capsys, tmp_path):
        # path [4, 4] at n = 5: a Type II cell (no edges) before its Type I
        # partner (3 edges), which T_MIN's degree-3 vertices cannot show
        p = tmp_path / "p44.tree"
        p.write_text(path_tree([4, 4]))
        code, out, _ = run(capsys, "delta", str(p), "--n", "5")
        obj = json.loads(out)
        v, e = obj["vertices"], obj["edges"]
        x = [0, 2, 2, 1]
        assert (code, len(v), len(e)) == (0, 100, 57)
        assert v[31] == {"id": 31, "cell": {"a": 6, "d": 3, "x": x}}
        assert v[46] == {"id": 46, "cell": {"a": 6, "d": 2, "x": x}}
        assert [sum(i in pair for pair in e) for i in (31, 46)] == [0, 3]

    def test_delta_reconstruct_file_round_trip(self, capsys, tmp_path,
                                               tmin_file):
        _, out, _ = run(capsys, "delta", tmin_file, "--n", "4")
        dpath = tmp_path / "d.json"
        dpath.write_text(out)
        code, out, _ = run(capsys, "reconstruct", "--delta", str(dpath))
        assert code == 0
        assert T.trees_homeomorphic(T.parse_tree(out),
                                    T.parse_tree(T_MIN))

    def test_reconstruct_detects_n(self, capsys, tmp_path, tmin_file,
                                   monkeypatch):
        _, out, _ = run(capsys, "delta", tmin_file, "--n", "5")
        obj = json.loads(out)
        obj.pop("n")
        for v in obj["vertices"]:
            v.pop("cell", None)
        dpath = tmp_path / "anon.json"
        dpath.write_text(json.dumps(obj))
        built = count_hierarchies(monkeypatch)
        code, out, _ = run(capsys, "reconstruct", "--delta", str(dpath))
        assert code == 0
        assert len(built) == 1  # detecting n and reconstructing share it
        assert T.trees_homeomorphic(T.parse_tree(out),
                                    T.parse_tree(T_MIN))

    def test_reconstruct_undefined_exit_3(self, capsys, tmp_path):
        dpath = tmp_path / "bad.json"
        dpath.write_text(json.dumps(
            {"n": 4, "vertices": [{"id": 0}, {"id": 1}], "edges": []}))
        code, _, err = run(capsys, "reconstruct", "--delta", str(dpath))
        assert code == 3 and "undefined" in err

    def test_detect_n(self, capsys, tmp_path, tmin_file):
        _, out, _ = run(capsys, "delta", tmin_file, "--n", "5")
        dpath = tmp_path / "d.json"
        dpath.write_text(out)
        code, out, _ = run(capsys, "detect-n", "--delta", str(dpath))
        assert (code, out.strip()) == (0, "5")

    def test_detect_n_refuses_non_delta(self, capsys, tmp_path):
        # the path graph on three vertices is the Delta of no tree
        dpath = tmp_path / "path.json"
        dpath.write_text(json.dumps(
            {"vertices": [{"id": 0}, {"id": 1}, {"id": 2}],
             "edges": [[0, 1], [1, 2]]}))
        for verb in ("detect-n", "reconstruct"):
            code, out, err = run(capsys, verb, "--delta", str(dpath))
            assert (code, out) == (3, "")
            assert err.startswith("undefined: n is neither 4 (")

    @pytest.mark.parametrize("degs", [[3, 3], [4, 5]])
    def test_two_essential_at_5(self, capsys, tmp_path, degs):
        dpath = tmp_path / "d.json"
        dpath.write_text(stripped_delta(path_tree(degs), 5,
                                        random.Random(0)))
        code, out, _ = run(capsys, "detect-n", "--delta", str(dpath))
        assert (code, out.strip()) == (0, "5")
        code, out, _ = run(capsys, "reconstruct", "--delta", str(dpath))
        assert code == 0
        assert T.trees_homeomorphic(T.parse_tree(out),
                                    T.parse_tree(path_tree(degs)))

    @given(trees(2, 9, 3, 6), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_beyond_corpus(self, text, rng):
        # a Delta from outside: relabelled, no n, no labels
        def run_quiet(*argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue().strip(), err.getvalue()

        with tempfile.TemporaryDirectory() as tmp:
            for n in (4, 5):
                a, b = (Path(tmp, "%s%d.json" % (k, n)) for k in "ab")
                a.write_text(stripped_delta(text, n, rng))
                b.write_text(stripped_delta(text, n, rng))
                code, out, err = run_quiet("reconstruct", "--delta", str(a))
                assert code == 0, err
                assert T.trees_homeomorphic(T.parse_tree(out),
                                            T.parse_tree(text))
                assert run_quiet("detect-n", "--delta", str(a)) \
                    == (0, str(n), "")
                assert run_quiet("iso", "--delta", str(a), str(b)) \
                    == (0, "isomorphic", "")

    def test_iso_true_false(self, capsys, tmp_path, tmin_file):
        other = tmp_path / "lin.tree"
        other.write_text(path_tree([3, 3, 3]))
        sub = tmp_path / "sub.tree"
        sub.write_text(T.to_text(T.subdivide_for(T.parse_tree(T_MIN), 9)))
        code, out, _ = run(capsys, "iso", tmin_file, str(sub), "--n", "4")
        assert (code, out.strip()) == (0, "isomorphic")
        code, out, _ = run(capsys, "iso", tmin_file, str(other), "--n", "4")
        assert (code, out.strip()) == (1, "not isomorphic")

    def test_iso_mixed_strands(self, capsys, tmp_path):
        a = tmp_path / "a.tree"
        a.write_text(radial_tree(4))
        b = tmp_path / "b.tree"
        b.write_text(radial_tree(5))
        code, out, _ = run(capsys, "iso", str(a), str(b),
                           "--na", "4", "--nb", "3")
        assert code == 0

    def test_iso_across_n(self, capsys, tmp_path, tmin_file):
        code, out, _ = run(capsys, "iso", tmin_file, tmin_file,
                           "--na", "4", "--nb", "5")
        assert (code, out.strip()) == (1, "not isomorphic")
        a = tmp_path / "a.tree"
        a.write_text(path_tree([5, 5]))
        b = tmp_path / "b.tree"
        b.write_text(path_tree([6, 6]))
        # equal b1 (310) at different n, but b2 276 against 100
        code, out, err = run(capsys, "iso", str(a), str(b),
                             "--na", "5", "--nb", "4")
        assert (code, out.strip(), err) == (1, "not isomorphic", "")

    def test_iso_across_n_equal_betti_refused(self, capsys, tmp_path,
                                              monkeypatch):
        a = tmp_path / "a.tree"
        a.write_text(path_tree([5, 5]))
        b = tmp_path / "b.tree"
        b.write_text(path_tree([6, 6]))
        monkeypatch.setattr(C, "count_critical_cells", lambda t, n: (310, 7))
        code, out, err = run(capsys, "iso", str(a), str(b),
                             "--na", "5", "--nb", "4")
        assert (code, out) == (2, "")
        assert err == ("error: isomorphism across strand counts is "
                       "undecided: (b1, b2) = (310, 7) at n = 5 and at "
                       "n = 4\n")

    def test_iso_huge_n_refused_fast(self, capsys, tmp_path):
        a = tmp_path / "a.tree"
        a.write_text(path_tree([6, 6]))
        b = tmp_path / "b.tree"
        b.write_text(path_tree([5, 5]))
        start = time.perf_counter()
        code, out, err = run(capsys, "iso", str(a), str(b),
                             "--na", "4", "--nb", "1000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_iso_requires_n(self, capsys, tmp_path):
        a = tmp_path / "a.tree"
        a.write_text(radial_tree(4))
        code, _, err = run(capsys, "iso", str(a), str(a))
        assert code == 2 and "error" in err

    def test_iso_calls_share_no_defaults(self, capsys, tmp_path):
        # Y_4(6) = Y_5(5) = 155, but Y_4(5) differs: a leaked --n 4
        # would turn the second answer into "not isomorphic"
        a = tmp_path / "a.tree"
        a.write_text(radial_tree(6))
        b = tmp_path / "b.tree"
        b.write_text(radial_tree(5))
        code, out, _ = run(capsys, "iso", str(a), str(b), "--n", "4")
        assert (code, out.strip()) == (1, "not isomorphic")
        code, out, _ = run(capsys, "iso", str(a), str(b),
                           "--na", "4", "--nb", "5")
        assert (code, out.strip()) == (0, "isomorphic")

    def test_subdivide_deep_tree(self, capsys, tmp_path):
        p = tmp_path / "deep.tree"
        p.write_text(caterpillar(1200))
        code, out, _ = run(capsys, "subdivide", str(p), "--n", "4")
        assert code == 0
        assert T.is_sufficiently_subdivided(T.parse_tree(out), 6)

    def test_verify(self, capsys, tmp_path):
        p = tmp_path / "t.tree"
        p.write_text(path_tree([3, 3]))
        code, out, _ = run(capsys, "verify", str(p), "--n", "4",
                           "--forms-sample", "10")
        rep = json.loads(out)
        assert code == 0
        assert rep["counts"]["pass"] is True
        assert rep["coboundary"]["pass"] is True

    def test_verify_over_budget_skipped(self, capsys, tmin_file):
        # the counts come from the Świątkowski complex (10 647 cells);
        # d = delta needs the brute-force complex, over its budget
        code, out, err = run(capsys, "verify", tmin_file, "--n", "5")
        rep = json.loads(out)
        assert (code, err) == (0, "")
        assert rep["counts"]["pass"] is True
        assert rep["counts"]["b"] == [1, 40, 30]
        assert rep["counts"]["cells"] == [1287, 3960, 3960, 1440]
        assert rep["coboundary"]["pass"] is None
        assert rep["coboundary"]["skipped"].startswith("estimated ")

    def test_presentation(self, capsys, tmp_path):
        p = tmp_path / "t.tree"
        p.write_text(path_tree([3, 3]))
        code, out, _ = run(capsys, "presentation", str(p), "--n", "4")
        rep = json.loads(out)
        assert code == 0
        assert rep["vertices"] and rep["edges"] and rep["relations"]
        for rel in rep["relations"]:
            assert rel["support"]
        forms = [rel["form"] for rel in rep["relations"]]
        assert len(forms) == len(set(forms))

    @pytest.mark.parametrize("verb", ["delta", "verify", "presentation"])
    def test_json_written_in_batches(self, capsys, tmp_path, verb):
        # the bytes of one json.dumps string, written in several batches
        # (path [3, 4, 5] at n = 5: 7 732 pieces of Delta's JSON)
        text, n = path_tree([3, 4, 5]), {"verify": "3"}.get(verb, "5")
        p = tmp_path / "t.tree"
        p.write_text(text)
        code, out, _ = run(capsys, verb, str(p), "--n", n)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n"
        if verb == "delta":
            dg = D.build_delta(T.subdivide_for(T.parse_tree(text), 5), 5)
            assert out == json.dumps(dg.to_json(), indent=2,
                                     sort_keys=True) + "\n"

    @pytest.mark.parametrize("n", [4, 5])
    def test_presentation_relations_match_scan(self, capsys, tmp_path, n):
        p = tmp_path / "t.tree"
        for text in CORPUS:
            t = T.parse_tree(text)
            if len(T.essential_vertices(t)) > 3:
                continue
            p.write_text(text)
            code, out, _ = run(capsys, "presentation", str(p), "--n", str(n))
            assert code == 0
            assert json.loads(out)["relations"] == scanned_relations(
                T.subdivide_for(t, n), n)


class TestErrors:
    def test_usage_exit_2(self, capsys):
        assert run(capsys, "no-such-verb")[0] == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "subdivide", "/nonexistent", "--n", "4")
        assert code == 2 and "error" in err

    def test_bad_tree_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.tree"
        p.write_text("((")
        assert run(capsys, "cells", str(p), "--n", "4")[0] == 2

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        def boom(n, x):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli._cells, "radial_rank", boom)
        code, out, err = run(capsys, "radial-rank", "--n", "5",
                             "--degree", "5")
        assert (code, out) == (4, "")
        assert err.startswith("internal error: RuntimeError: boom")

    @pytest.mark.parametrize("error, code", [(MemoryError, 4),
                                             (D.Undefined, 3)])
    def test_unwritable_report_keeps_exit_code(self, monkeypatch, error,
                                               code):
        # no memory left: the fault and its report both raise MemoryError
        def boom(n, x):
            raise error("boom")

        def no_memory(text):
            raise MemoryError

        monkeypatch.setattr(cli._cells, "radial_rank", boom)
        monkeypatch.setattr(sys.stderr, "write", no_memory)
        assert cli.main(["radial-rank", "--n", "4", "--degree", "3"]) == code

    def test_bad_delta_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run(capsys, "detect-n", "--delta", str(p))[0] == 2

    def test_deep_delta_exit_2(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 200000)
        for argv in (["reconstruct", "--delta", str(p)],
                     ["detect-n", "--delta", str(p)],
                     ["iso", "--delta", str(p), str(p)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot read delta")

    def test_repeated_id_edge_exit_2(self, capsys, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps({"vertices": [{"id": 0}, {"id": 1}],
                                 "edges": [[0, 1, 0]]}))
        code, out, err = run(capsys, "reconstruct", "--delta", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read delta") and "bad edge" in err

    @pytest.mark.parametrize("obj, message", [
        ({"vertices": [{"id": 0}, {"id": 1}, {"id": 2}],
          "edges": [[True, 2], [0, 2]]}, "bad edge"),
        ({"vertices": [{"id": 0}, {"id": True}], "edges": []}, "vertex ids"),
    ])
    def test_bool_id_exit_2(self, capsys, tmp_path, obj, message):
        p = tmp_path / "d.json"
        p.write_text(json.dumps(obj))
        for argv in (["reconstruct", "--delta", str(p), "--n", "4"],
                     ["detect-n", "--delta", str(p)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot read delta") and message in err

    @pytest.mark.parametrize("obj, message", [
        ({"vertices": [{"id": 0, "cell": {"a": 3.7, "d": 1,
                                          "x": [1, "2", True]}}],
          "edges": []}, "cell fields a and d must be JSON integers"),
        ({"vertices": [{"id": 0.0}], "edges": []}, "vertex ids"),
        ({"n": 4.0, "vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1]]},
         "n must be a JSON integer"),
        ({"n": True, "vertices": [{"id": 0}], "edges": []},
         "n must be a JSON integer"),
        ({"vertices": [{"id": 0, "cell": {"a": 0, "d": 1}}], "edges": []},
         "'x'"),
        ({"vertices": [{"id": 0, "cell": None}], "edges": []},
         "not subscriptable"),
    ])
    def test_bad_fields_exit_2(self, capsys, tmp_path, obj, message):
        p = tmp_path / "d.json"
        p.write_text(json.dumps(obj))
        for argv in (["reconstruct", "--delta", str(p)],
                     ["detect-n", "--delta", str(p)],
                     ["iso", "--delta", str(p), str(p)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot read delta")
            assert message in err

    @pytest.mark.parametrize("obj", [
        {"vertices": {}, "edges": []},
        {"vertices": "", "edges": []},
        {"vertices": [{"id": 0}], "edges": {}},
        {"vertices": [{"id": 0}], "edges": ""},
        {"vertices": {"0": {"id": 0}}, "edges": []},
    ])
    def test_non_list_fields_exit_2(self, capsys, tmp_path, obj):
        # not read as an empty list: an empty Delta is a free group
        p = tmp_path / "d.json"
        p.write_text(json.dumps(obj))
        for argv in (["reconstruct", "--delta", str(p), "--n", "4"],
                     ["detect-n", "--delta", str(p)],
                     ["iso", "--delta", str(p), str(p)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "error: cannot read delta %r: vertices and " \
                "edges must be JSON lists\n" % str(p)

    @pytest.mark.parametrize("obj, message", [
        ({"vertices": [{"id": 0}, {"id": 1}], "edges": [["a", 0]]},
         "bad edge ['a', 0]"),
        ({"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, [1]]]},
         "bad edge [0, [1]]"),
        ({"vertices": [{"id": "a"}, {"id": 0}], "edges": []},
         "vertex ids must be 0..m-1"),
    ])
    def test_mixed_type_edge_or_id_named(self, capsys, tmp_path, obj,
                                         message):
        p = tmp_path / "d.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, "reconstruct", "--delta", str(p))
        assert (code, out) == (2, "")
        assert err == "error: cannot read delta %r: %s\n" % (str(p), message)

    @pytest.mark.parametrize("sample", ["-1", "-1000000"])
    def test_verify_negative_sample_exit_2(self, capsys, tmp_path, sample):
        p = tmp_path / "t.tree"
        p.write_text(path_tree([3, 3]))
        code, out, err = run(capsys, "verify", str(p), "--n", "4",
                             "--forms-sample", sample)
        assert (code, out) == (2, "")
        assert err == "error: forms sample must be >= 0, got %s\n" % sample

    def test_verify_bad_n_before_bad_sample(self, capsys, tmin_file):
        # the tree is subdivided for n before the sample is read
        assert run(capsys, "verify", tmin_file, "--n", "1",
                   "--forms-sample", "-1") \
            == (2, "", "error: n must be >= 2\n")

    @pytest.mark.parametrize("n, message", [("1", "n must be >= 2"),
                                            ("6", "n <= 5")])
    def test_delta_bad_n_exit_2(self, capsys, tmin_file, n, message):
        code, out, err = run(capsys, "delta", tmin_file, "--n", n)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_delta_huge_n_refused_before_subdividing(self, capsys, tmin_file,
                                                     monkeypatch):
        # the subdivision for 3 000 000 strands would not fit in memory
        def boom(*args):
            raise AssertionError("n is refused before subdividing")

        monkeypatch.setattr(T, "subdivide_for", boom)
        assert run(capsys, "delta", tmin_file, "--n", "3000000") \
            == (2, "", "error: Delta is built for n <= 5 only\n")

    @pytest.mark.parametrize("verb", ["subdivide", "cells", "presentation"])
    def test_huge_n_refused_before_subdividing(self, capsys, tmin_file,
                                               monkeypatch, verb):
        # T_MIN's subdivision for 3 000 000 strands has 9 chains of
        # 3 000 001 edges: it ended in MemoryError
        def boom(*args):
            raise AssertionError("n is refused before subdividing")

        monkeypatch.setattr(T, "subdivide_for", boom)
        assert run(capsys, verb, tmin_file, "--n", "3000000") == (
            2, "", "error: the subdivision for n = 3000000 has 27000010 "
            "vertices, more than 1000000\n")

    def test_verify_skips_estimate_too_long_to_print(self, capsys,
                                                     tmin_file):
        # the brute-force estimate at n = 4000 has 5459 digits, past the
        # 4300 that int-to-str conversion allows
        code, out, err = run(capsys, "verify", tmin_file, "--n", "4000")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["counts"]["pass"] is None
        assert report["coboundary"]["pass"] is None
        assert report["coboundary"]["skipped"] == (
            "estimated a 5459-digit number of cells exceeds budget 5000000")

    @pytest.mark.parametrize("verb, n, message", [
        ("subdivide", "1", "n must be >= 2"),
        ("cells", "1", "n must be >= 2"),
        ("verify", "1", "n must be >= 2"),
        ("presentation", "1", "n must be >= 2"),
        ("betti", "-1", "n must be >= 0"),
    ])
    def test_bad_n_exit_2(self, capsys, tmin_file, verb, n, message):
        code, out, err = run(capsys, verb, tmin_file, "--n", n)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("n, degree", [("0", "3"), ("4", "2")])
    def test_radial_rank_bad_args_exit_2(self, capsys, n, degree):
        code, out, err = run(capsys, "radial-rank", "--n", n,
                             "--degree", degree)
        assert (code, out) == (2, "")
        assert err.startswith("error: radial_rank requires")

    def test_module_entry_point_quiet(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "treebraid.cli", "radial-rank", "--n", "4",
             "--degree", "3"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "6\n", "")

    @pytest.mark.parametrize("file_n, argv", [(None, ["--n", "7"]),
                                              (3, [])])
    def test_reconstruct_bad_n_exit_2(self, capsys, tmp_path, file_n, argv):
        obj = {"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1]]}
        if file_n is not None:
            obj["n"] = file_n
        p = tmp_path / "d.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, "reconstruct", "--delta", str(p), *argv)
        assert (code, out) == (2, "")
        assert err == "error: n must be 4 or 5\n"

    @pytest.mark.parametrize("file_n", [3, 7])
    def test_iso_delta_bad_n_exit_2(self, capsys, tmp_path, tmin_file,
                                    file_n):
        # refused as reconstruct refuses it; an edgeless Delta (a free
        # group) still answers by rank
        _, out, _ = run(capsys, "delta", tmin_file, "--n", "4")
        obj = dict(json.loads(out), n=file_n)
        p = tmp_path / "d.json"
        p.write_text(json.dumps(obj))
        assert run(capsys, "iso", "--delta", str(p), str(p)) \
            == (2, "", "error: n must be 4 or 5\n")
        free = tmp_path / "free.json"
        free.write_text(json.dumps(
            {"n": file_n, "vertices": [{"id": 0}, {"id": 1}], "edges": []}))
        assert run(capsys, "iso", "--delta", str(free), str(free)) \
            == (0, "isomorphic\n", "")

    @pytest.mark.parametrize("file_n", [None, 4, 5])
    def test_iso_delta_n_overrides_file(self, capsys, tmp_path, tmin_file,
                                        file_n):
        # --n overrides the n of both files, --na and --nb of one each,
        # as reconstruct --n does; T_MIN's Delta at n = 4 grows no tree
        # at n = 5
        _, out, _ = run(capsys, "delta", tmin_file, "--n", "4")
        obj = json.loads(out)
        del obj["n"]
        if file_n is not None:
            obj["n"] = file_n
        p = tmp_path / "d.json"
        p.write_text(json.dumps(obj))
        iso = ("iso", "--delta", str(p), str(p))
        undefined = "undefined: no pruning child exists (n = 5)\n"
        assert run(capsys, *iso, "--n", "4") == (0, "isomorphic\n", "")
        for flags in (["--n", "5"], ["--na", "5"], ["--nb", "5"],
                      ["--n", "5", "--na", "4", "--nb", "4"]):
            assert run(capsys, *iso, *flags) == (3, "", undefined), flags
        for n in ("3", "7"):
            assert run(capsys, *iso, "--n", n) \
                == (2, "", "error: n must be 4 or 5\n")
        assert run(capsys, *iso)[0] == (3 if file_n == 5 else 0)
        free = tmp_path / "free.json"
        free.write_text(json.dumps(
            {"vertices": [{"id": 0}, {"id": 1}], "edges": []}))
        assert run(capsys, "iso", "--delta", str(free), str(free),
                   "--n", "3") == (0, "isomorphic\n", "")


class TestForgedDelta:
    """ROADMAP item 1: the Delta of path [3, 3] at n = 5 with edge
    [5, 10] moved to [8, 11] is no Delta, but the tree grown from it has
    (b1, b2) = (|V|, |E|), the only check made, so it is accepted."""

    @pytest.fixture
    def forged(self, capsys, tmp_path):
        tree = tmp_path / "p33.tree"
        tree.write_text(path_tree([3, 3]))
        _, out, _ = run(capsys, "delta", str(tree), "--n", "5")
        real = tmp_path / "real.json"
        real.write_text(out)
        obj = json.loads(out)
        assert obj["edges"] == [[5, 10], [8, 10], [9, 10], [9, 11], [9, 12]]
        obj["edges"][0] = [8, 11]
        fake = tmp_path / "forged.json"
        fake.write_text(json.dumps(obj))
        return str(fake), str(real)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("verb", ["reconstruct", "detect-n", "iso"])
    def test_refused(self, capsys, forged, verb):
        fake, real = forged
        argv = {"reconstruct": ["reconstruct", "--delta", fake],
                "detect-n": ["detect-n", "--delta", fake],
                "iso": ["iso", fake, real, "--delta"]}[verb]
        assert run(capsys, *argv)[0] == 3


class TestDeterminism:
    def test_byte_identical(self, capsys, tmin_file):
        outs = {run(capsys, "delta", tmin_file, "--n", "5")[1]
                for _ in range(2)}
        assert len(outs) == 1
