import argparse
import copy
import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from decimal import Decimal
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rmhyper import cli, randgen
from rmhyper.cli import run
from rmhyper.core import Hypergraph, PartiteHypergraph, complete_hypergraph
from rmhyper.formats import (
    FormatError,
    dumps,
    from_json_dict,
    load_meta,
    loads,
    to_dot,
)


def path_graph():
    return Hypergraph(["x", "y", "z"], [{"x", "y"}, {"y", "z"}])


class TestJson:
    def test_round_trip_plain(self):
        h = complete_hypergraph(5, 3)
        assert loads(dumps(h)) == h

    def test_round_trip_partite(self):
        p = PartiteHypergraph(path_graph(), [("x", "z"), ("y",)])
        back = loads(dumps(p))
        assert isinstance(back, PartiteHypergraph)
        assert back == p

    def test_canonical_bytes_are_stable(self):
        h = Hypergraph([3, 1, 2], [[2, 3], [1, 2]])
        once = dumps(h)
        assert dumps(loads(once)) == once

    def test_meta_is_preserved_and_ignored(self):
        h = path_graph()
        doc = json.loads(dumps(h, meta={"command": "test", "seed": 1}))
        assert doc["meta"]["seed"] == 1
        assert loads(json.dumps(doc)) == h

    @pytest.mark.parametrize("meta, expected", [(None, {}), ([1], {}), ("x", {}), ({"seed": 1}, {"seed": 1})])
    def test_load_meta_is_an_object_or_empty(self, meta, expected):
        doc = {"vertices": [0, 1], "edges": [[0, 1]]}
        if meta is not None:
            doc["meta"] = meta
        assert load_meta(json.dumps(doc)) == expected

    def test_loader_revalidates(self):
        with pytest.raises(FormatError, match="duplicate edge"):
            loads('{"vertices": [0, 1], "edges": [[0, 1], [1, 0]]}')
        with pytest.raises(FormatError, match="unknown vertex"):
            loads('{"vertices": [0, 1], "edges": [[0, 2]]}')
        with pytest.raises(FormatError, match="more than once"):
            loads('{"vertices": [0, 1], "edges": [[0, 1]], "parts": [[0, 1]]}')

    def test_parse_error_carries_line_info(self):
        with pytest.raises(FormatError, match="line 2"):
            loads('{"vertices": [0, 1],\n "edges": [[0, 1],]}')

    @pytest.mark.parametrize("bad", ["null", "1.5", "true", "[1]"])
    def test_vertex_ids_are_strings_or_integers(self, bad):
        with pytest.raises(FormatError, match="not a string or an integer"):
            loads(f'{{"vertices": [0, {bad}], "edges": []}}')

    def test_vertex_ids_with_one_text_form_are_refused(self):
        with pytest.raises(FormatError, match="same text form"):
            loads('{"vertices": [1, "1", 2], "edges": [[1, "1", 2]]}')
        mixed = loads('{"vertices": [1, "a", 2], "edges": [[1, "a", 2]]}')
        assert mixed.vertices == (1, "a", 2)

    @pytest.mark.parametrize(
        "ids, match",
        [
            ([(0, 1), (1, 2), (2, 0)], "not a string or an integer"),
            ([True, 2, 3], "not a string or an integer"),
            ([1, "1", 2], "same text form"),
        ],
    )
    @pytest.mark.parametrize("writer", [dumps, to_dot])
    def test_writers_refuse_ids_the_loader_refuses(self, writer, ids, match):
        # a written document must load, and one DOT node must be one vertex
        h = Hypergraph(ids, [ids[:2], ids[1:]])
        with pytest.raises(FormatError, match=match):
            writer(h)
        with pytest.raises(FormatError, match=match):
            writer(PartiteHypergraph(h, [[ids[1]], [ids[0], ids[2]]]))

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"vertices": [0, 1], "edges": {}}', "^key 'edges' must be a list$"),
            ('{"vertices": ["a", "b", "c"], "edges": ["ab", ["b", "c"]]}', "^edge #0 is not a JSON array$"),
            ('{"vertices": [0, 1], "edges": [[0, 1], {"0": 1, "1": 2}]}', "^edge #1 is not a JSON array$"),
            ('{"vertices": [0, 1], "edges": [[0, 0, 1]]}', "^edge #0 lists vertex 0 twice$"),
            ('{"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2, true]]}', "^edge #1 member True is not a string or an integer$"),
            ('{"vertices": [0, 1], "edges": [[0, 1]], "parts": [[0], "1"]}', "^part #1 is not a JSON array$"),
            ('{"vertices": [0, 1], "edges": [[0, 1]], "parts": [[0], [1, 1]]}', "^part #1 lists vertex 1 twice$"),
        ],
    )
    def test_edges_and_parts_are_arrays_without_repeats(self, text, match):
        # a string once loaded as the set of its characters, and a repeated
        # member as one member
        with pytest.raises(FormatError, match=match):
            loads(text)

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"vertices": [0, 1, 2, 3], "edges": [[0, 1.0, 2], [true, 3, 0]]}', "^edge #0 member 1.0 is not"),
            ('{"vertices": [0, 1, 2, 3], "edges": [[0, 1, 2], [true, 3, 0]]}', "^edge #1 member True is not"),
            ('{"vertices": [0, 1], "edges": [[0, 1]], "parts": [[0], [1.0]]}', "^part #1 member 1.0 is not"),
            ('{"vertices": ["a", "b"], "edges": [["a", ["b"]]]}', "^edge #0 member \\['b'\\] is not"),
        ],
    )
    def test_members_have_a_vertex_id_type(self, text, match):
        # members were looked up by == alone, so 1.0 and true stood for 1
        with pytest.raises(FormatError, match=match):
            loads(text)

    def test_missing_keys(self):
        with pytest.raises(FormatError, match="vertices"):
            from_json_dict({"edges": []})
        with pytest.raises(FormatError, match="object"):
            from_json_dict([1, 2])


class TestDot:
    def test_incidence_counts_for_path(self):
        dot = to_dot(path_graph())
        lines = dot.strip().splitlines()
        assert sum("shape=circle" in l for l in lines) == 3
        assert sum("shape=box" in l for l in lines) == 2
        assert sum(" -- " in l for l in lines) == 4

    def test_quoting(self):
        h = Hypergraph(['a"b', "c"], [['a"b', "c"]])
        dot = to_dot(h)
        assert '\\"' in dot


def _src_env() -> dict:
    """The environment for a subprocess that imports the package from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestCli:
    def test_construct_h_and_solve_good(self, tmp_path, capsys):
        out = tmp_path / "h32.json"
        assert run(["construct", "h", "--r", "3", "--g", "2", "-o", str(out)]) == 0
        capsys.readouterr()
        h = loads(out.read_text())
        assert h == complete_hypergraph(5, 3)
        code = run(["solve", "good", str(out)])
        captured = capsys.readouterr()
        assert code == 1  # property holds
        report = json.loads(captured.out)
        assert report["status"] == "property_holds"

    def test_single_triple_witness_exit_zero(self, tmp_path, capsys):
        f = tmp_path / "t.json"
        f.write_text(dumps(Hypergraph([1, 2, 3], [[1, 2, 3]])))
        assert run(["solve", "good", str(f)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "witness_found"
        assert set(report["coloring"]) == {"1", "2", "3"}

    def test_girth_infinite_on_path(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(dumps(path_graph()))
        code = run(["girth", str(f), "--cap", "5", "--witness"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["girth"] == "infinite"

    def test_girth_witness_reported(self, tmp_path, capsys):
        f = tmp_path / "k.json"
        f.write_text(dumps(complete_hypergraph(5, 3)))
        code = run(["girth", str(f), "--cap", "4", "--witness"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["girth"] == "2"
        assert len(report["witness"]["edges"]) == 2

    def test_construct_pr_part_rainbow(self, tmp_path, capsys):
        out = tmp_path / "pr.json"
        assert run(["construct", "pr", "--r", "2", "--g", "4", "-o", str(out)]) == 0
        loaded = loads(out.read_text())
        assert isinstance(loaded, PartiteHypergraph)
        code = run(["solve", "part-rainbow", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["status"] == "property_holds"

    def test_solve_good_on_a_partite_file_as_on_its_base(self, tmp_path, capsys):
        out = tmp_path / "pr.json"
        assert run(["construct", "pr", "--r", "3", "--g", "3", "-o", str(out)]) == 0
        base = tmp_path / "base.json"
        base.write_text(dumps(loads(out.read_text()).base))
        reports = []
        for f in (out, base):
            capsys.readouterr()
            assert run(["solve", "good", str(f)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert reports[0]["status"] == "witness_found"

    def test_construct_pr_is_reproducible(self, tmp_path, capsys):
        built = []
        for run_index in ("a", "b"):
            out = tmp_path / f"pr35-{run_index}.json"
            assert run(["construct", "pr", "--r", "3", "--g", "5", "-o", str(out)]) == 0
            built.append(out.read_bytes())
        assert built[0] == built[1]
        doc = json.loads(built[0])
        assert len(doc["edges"]) == 372
        assert "seed" not in doc["meta"]
        assert run(["construct", "pr", "--r", "3", "--g", "5", "--seed", "1"]) == 3
        capsys.readouterr()

    def test_construct_pr_without_a_supplier_is_refused_at_once(self, tmp_path, capsys):
        out = tmp_path / "pr39.json"
        t0 = time.perf_counter()
        code = run(["construct", "pr", "--r", "3", "--g", "9", "-o", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 4
        assert "no supplier for ell=2, g=9, q=6" in capsys.readouterr().err
        assert not out.exists()
        assert elapsed < 1.0

    def test_construct_pr_four_two(self, tmp_path, capsys):
        out = tmp_path / "pr42.json"
        assert run(["construct", "pr", "--r", "4", "--g", "2", "-o", str(out)]) == 0
        capsys.readouterr()
        built = loads(out.read_text())
        assert (built.num_vertices, built.num_edges) == (66_264, 39_732)

    def test_construct_factor(self, tmp_path, capsys):
        pr = tmp_path / "pr.json"
        run(["construct", "pr", "--r", "2", "--g", "3", "-o", str(pr)])
        out = tmp_path / "factor.json"
        assert run(["construct", "factor", "--input", str(pr), "--parts", "3", "-o", str(out)]) == 0
        capsys.readouterr()
        factor = loads(out.read_text())
        assert factor.num_vertices == 9 and factor.num_edges == 6

    @pytest.mark.parametrize(
        "parts", ["30", "1000000000", pytest.param("1" + "0" * 2000, id="2001-digits")]
    )
    def test_construct_factor_beyond_the_limits_is_refused(self, tmp_path, capsys, parts):
        # C(30, 3) = 4060 copies of pr(3, 3) have 284,200 vertices; the other
        # counts pass SIZE_CAP (a 2001-digit count once failed to print)
        pr = tmp_path / "pr33.json"
        assert run(["construct", "pr", "--r", "3", "--g", "3", "-o", str(pr)]) == 0
        out = tmp_path / "factor.json"
        t0 = time.perf_counter()
        code = run(["construct", "factor", "--input", str(pr), "--parts", parts, "-o", str(out)])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith(f"refused: complete partite factor with {parts} parts")
        assert captured.err.rstrip().endswith("[estimate: astronomical]") == (parts != "30")
        assert not out.exists()
        assert elapsed < 1.0

    @pytest.mark.parametrize("parts", ["[[]]", "[]"])
    def test_construct_factor_prices_its_part_lists(self, tmp_path, capsys, parts):
        # an input without vertices once passed the gate whatever --parts was:
        # 10^5 copies of an empty part, or one copy with 10^5 part lists
        empty = tmp_path / "empty.json"
        empty.write_text(f'{{"vertices": [], "edges": [], "parts": {parts}}}')
        out = tmp_path / "factor.json"
        t0 = time.perf_counter()
        code = run(["construct", "factor", "--input", str(empty), "--parts", "100000", "-o", str(out)])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 4, captured.err
        assert captured.err.startswith("refused: complete partite factor with 100000 parts")
        assert not out.exists()
        assert elapsed < 0.2
        assert run(["construct", "factor", "--input", str(empty), "--parts", "3", "-o", str(out)]) == 0

    def test_size_limit_exit_code(self, tmp_path, capsys):
        code = run(["construct", "h", "--r", "3", "--g", "3", "-o", str(tmp_path / "x.json")])
        captured = capsys.readouterr()
        assert code == 4
        assert "refused" in captured.err

    def test_extreme_r_is_refused_as_astronomical(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run(["construct", "h", "--r", "1000000000000000000000", "--g", "2", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.rstrip().endswith("[estimate: astronomical]")
        assert not out.exists()

    def test_r_past_the_float_range_is_refused_as_astronomical(self, tmp_path, capsys):
        # C(n, r) has about 4 * 10^402 digits; its digit count once multiplied
        # r by a float and exited 5 with an OverflowError
        out = tmp_path / "x.json"
        t0 = time.perf_counter()
        code = run(["construct", "h", "--r", "1" + "0" * 400, "--g", "2", "-o", str(out)])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 4, captured.err
        assert captured.err.rstrip().endswith("[estimate: astronomical]")
        assert "~10^40043429448190325182765" in captured.err
        assert not out.exists()
        assert elapsed < 1.0

    def test_precision_dependent_bound_is_an_error(self, capsys, monkeypatch):
        # sides that never separate are undecided up to the precision cap
        monkeypatch.setattr(randgen, "_counting_sides", lambda n, a, g, dps=50: (Decimal(1), Decimal(1)))
        assert run(["bound", "--r", "3", "--g", "3"]) == cli.EXIT_BAD_INPUT == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # the search's first exact evaluation is just below the Newton guess
        assert captured.err == "error: counting inequality undecided at n=2796449 with 960 digits\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["random", "search", "--n", "10", "--r", "200000", "--g", "2"],
             "error: need n >= 39999600002 vertices, got 10"),
            (["bound", "--r", "200000", "--g", "3"],
             "error: no satisfying n found below 1000000000000"),
            (["bound", "--r", "20000", "--g", "3"],
             "error: no satisfying n found below 1000000000000"),
        ],
    )
    def test_huge_r_is_refused_at_once(self, argv, message):
        # C((r-1)^2 + 1, r) has about a million digits at r = 200,000: these
        # commands computed it, or ran mpmath on it, before refusing
        env = _src_env()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "rmhyper", *argv],
            env=env, capture_output=True, text=True, timeout=10,
        )
        elapsed = time.perf_counter() - t0
        assert done.returncode == 3
        assert done.stderr.strip() == message
        assert elapsed < 2.0  # interpreter start-up included

    def test_size_limit_refuses_complete_base(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["construct", "h", "--r", "5", "--g", "2", "--max-edges", "50", "-o", str(out)]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 4
        assert any(line.startswith("refused:") for line in captured.err.splitlines())
        assert not out.exists()

    def test_random_carrier_replay_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["random", "carrier", "--n", "12", "--R", "5", "--g", "3", "--seed", "9"]
        assert run(argv + ["-o", str(a)]) == 0
        assert run(argv + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        meta = json.loads(a.read_text())["meta"]
        assert meta["edge_target"] == 28

    @pytest.mark.parametrize("argv", [["carrier", "--R", "3"], ["search", "--r", "3"]])
    def test_random_refuses_an_oversized_sample(self, tmp_path, capsys, monkeypatch, argv):
        # 2 * ceil(100000^(4/3)) edges would be drawn before any check; a
        # sample past the gate would exit 5 here, not draw millions of edges
        monkeypatch.setattr(randgen, "random", SimpleNamespace(Random=None))
        out = tmp_path / "x.json"
        code = run(["random"] + argv + ["--n", "100000", "--g", "3", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == (
            "refused: a carrier sample exceeds the limits (100000 vertices / 500000 edges)"
            " [estimate: 100000 vertices / 9283178 edges]\n"
        )
        assert not out.exists()

    def test_random_carrier_refuses_a_huge_count_at_once(self, tmp_path, capsys):
        # C(3000000, 1500000) alone takes minutes to compute in full; the
        # vertex count is refused first
        out = tmp_path / "x.json"
        argv = ["random", "carrier", "--n", "3000000", "--R", "1500000", "--g", "2", "-o", str(out)]
        t0 = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - t0
        assert code == 4
        assert capsys.readouterr().err == (
            "refused: a carrier exceeds the limits (100000 vertices / 500000 edges)"
            " [estimate: 3000000 vertices]\n"
        )
        assert not out.exists()
        assert elapsed < 5.0

    @pytest.mark.parametrize("kind", [["carrier", "--R", "5"], ["search", "--r", "3"]])
    def test_random_with_a_huge_n_is_refused_at_once(self, tmp_path, capsys, kind):
        # the sample size has about 4400 digits: its root took seconds of
        # bisection, and a refusal that printed n in full would pass str()'s
        # limit; the vertex count is refused before the root is taken
        out = tmp_path / "x.json"
        argv = ["random", *kind, "--n", "1" + "0" * 3300, "--g", "3", "-o", str(out)]
        t0 = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 4, captured.err
        assert captured.err.startswith(
            "refused: a carrier exceeds the limits (100000 vertices / 500000 edges):"
            " ~10^3300 vertices"
        )
        assert captured.err.rstrip().endswith("[estimate: astronomical]")
        assert not out.exists()
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (
                ["construct", "pr", "--r", "3", "--g", "5", "--max-vertices", "311"],
                "part-rainbow-forced recursion for r=3, g=5 exceeds the limits"
                " (311 vertices / 500000 edges) [estimate: 620 vertices / 372 edges]",
            ),
            (
                ["construct", "factor", "--input", "{pr}", "--parts", "50", "--max-vertices", "311"],
                "complete partite factor with 50 parts exceeds the limits"
                " (311 vertices / 500000 edges) [estimate: 3725 vertices / 2450 edges]",
            ),
            (
                ["random", "carrier", "--n", "200000", "--R", "3", "--g", "3"],
                "a carrier exceeds the limits (100000 vertices / 500000 edges)"
                " [estimate: 200000 vertices]",
            ),
            (
                ["random", "search", "--n", "100000", "--r", "3", "--g", "3"],
                "a carrier sample exceeds the limits (100000 vertices / 500000 edges)"
                " [estimate: 100000 vertices / 9283178 edges]",
            ),
        ],
        ids=["construct-pr", "construct-factor", "random-carrier", "random-search"],
    )
    def test_every_size_refusal_has_one_shape(self, tmp_path, capsys, monkeypatch, argv, refusal):
        pr = tmp_path / "pr23.json"  # the path on three vertices
        assert run(["construct", "pr", "--r", "2", "--g", "3", "-o", str(pr)]) == 0
        # a carrier past the gate would exit 5 here, not draw millions of edges
        monkeypatch.setattr(randgen, "random", SimpleNamespace(Random=None))
        out = tmp_path / "x.json"
        code = run([a.format(pr=pr) for a in argv] + ["-o", str(out)])
        assert code == 4
        assert capsys.readouterr().err == f"refused: {refusal}\n"
        assert not out.exists()

    def test_random_carrier_with_a_huge_girth_target(self, tmp_path, capsys):
        # n^(g+1) alone would have about a billion digits; the target is n + 1
        out = tmp_path / "x.json"
        argv = ["random", "carrier", "--n", "12", "--R", "5", "--g", "1000000000", "-o", str(out)]
        t0 = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - t0
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["meta"]["edge_target"] == 13
        assert elapsed < 2.0

    def test_random_search_cli(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = run(
            ["random", "search", "--n", "8", "--r", "3", "--g", "2", "--seed", "0",
             "--tries", "20", "-o", str(out)]
        )
        capsys.readouterr()
        assert code == 1  # found an instance whose property holds
        meta = json.loads(out.read_text())["meta"]
        assert meta["found"] is True

    def test_bound_cli(self, capsys):
        assert run(["bound", "--r", "3", "--g", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["threshold"] == 7081

    def test_module_form_runs_the_cli(self):
        env = _src_env()
        done = subprocess.run(
            [sys.executable, "-m", "rmhyper", "bound", "--r", "3", "--g", "3"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "threshold" in json.loads(done.stdout)

    def test_convert_round_trip_and_dot(self, tmp_path, capsys):
        src = tmp_path / "h.json"
        run(["construct", "h", "--r", "3", "--g", "2", "-o", str(src)])
        canon = tmp_path / "c.json"
        assert run(["convert", str(src), "--json", "-o", str(canon)]) == 0
        twice = tmp_path / "c2.json"
        assert run(["convert", str(canon), "--json", "-o", str(twice)]) == 0
        capsys.readouterr()
        assert canon.read_bytes() == twice.read_bytes()
        assert run(["convert", str(src), "--dot", "-o", str(tmp_path / "h.dot")]) == 0
        assert "graph incidence" in (tmp_path / "h.dot").read_text()

    def test_schema_closure_across_subcommands(self, tmp_path, capsys):
        # any artifact one subcommand writes is accepted by the others
        artifacts = []
        h = tmp_path / "h.json"
        run(["construct", "h", "--r", "3", "--g", "2", "-o", str(h)])
        artifacts.append(h)
        pr = tmp_path / "pr.json"
        run(["construct", "pr", "--r", "3", "--g", "3", "-o", str(pr)])
        artifacts.append(pr)
        carrier = tmp_path / "carrier.json"
        run(["random", "carrier", "--n", "10", "--R", "4", "--g", "3", "-o", str(carrier)])
        artifacts.append(carrier)
        capsys.readouterr()
        for artifact in artifacts:
            assert run(["girth", str(artifact), "--cap", "4"]) in (0, 1, 2)
            assert run(["convert", str(artifact), "--json"]) == 0
            assert run(["solve", "good", str(artifact), "--budget", "100000"]) in (0, 1, 2)
            capsys.readouterr()

    def test_bad_input_exit_codes(self, tmp_path, capsys):
        missing = run(["girth", str(tmp_path / "nope.json")])
        assert missing == 3
        capsys.readouterr()
        bad, deep = tmp_path / "bad.json", tmp_path / "deep.json"
        bad.write_text("{not json")
        deep.write_text("[" * 50_000 + "]" * 50_000)  # deeper than the parser recurses
        readers = [
            ["girth"], ["solve", "good"], ["solve", "part-rainbow"],
            ["convert", "--json"], ["convert", "--dot"], ["construct", "factor", "--parts", "3", "--input"],
        ]
        for f in (bad, deep):
            for argv in readers:
                assert run(argv + [str(f)]) == 3, (f.name, argv)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith(f"error: {f}: invalid JSON"), captured.err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"vertices": ["a", "b", "c"], "edges": ["ab", ["b", "c"]]}', "edge #0 is not a JSON array"),
            (b'{"vertices": [0, 1], "edges": [[0, 0, 1]]}', "edge #0 lists vertex 0 twice"),
            (b'{"vertices": [' + b"1" * 5000 + b'], "edges": []}', "invalid JSON: an integer has too many digits"),
            (b'{"vertices": ["\xff"], "edges": []}', "not UTF-8 text: invalid start byte"),
        ],
        ids=["string-edge", "repeated-member", "huge-integer", "not-utf8"],
    )
    def test_loader_refusals_name_the_file(self, tmp_path, capsys, content, message):
        # the string edge once loaded as {a, b} (girth exited 1), the
        # repeated member as a 2-edge; the last two exited 3 without the path
        f = tmp_path / "doc.json"
        f.write_bytes(content)
        assert run(["girth", str(f)]) == 3
        assert capsys.readouterr().err == f"error: {f}: {message}\n"

    @pytest.mark.parametrize("argv", [["solve", "good", "{}"], ["convert", "{}", "--dot"]])
    def test_colliding_vertex_ids_are_bad_input(self, tmp_path, capsys, argv):
        # 1 and "1" would be one key of a solve report and one DOT node
        f = tmp_path / "collide.json"
        f.write_text('{"vertices": [1, "1", 2], "edges": [[1, "1", 2]]}')
        out = tmp_path / "out"
        assert run([a.format(f) for a in argv] + ["-o", str(out)]) == 3
        assert "same text form" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, fmt, message",
        [
            ('{"vertices": [0, 1, 2, 3], "edges": [[0, 1.0, 2], [true, 3, 0]]}', "--json",
             "{doc}: edge #0 member 1.0 is not a string or an integer"),
            ('{"vertices": ["\\ud800", "a", "b"], "edges": [["\\ud800", "a", "b"]]}', "--dot",
             "{out}: '\\ud800' cannot be written as UTF-8"),
        ],
        ids=["typed-member", "lone-surrogate"],
    )
    @pytest.mark.parametrize("before", [None, b"kept\n"])
    def test_a_failed_convert_writes_nothing(self, tmp_path, capsys, content, fmt, message, before):
        # the typed members once converted to {0, 1, 2} and {0, 1, 3}; the
        # surrogate left a 0-byte out.dot behind Python's bare codec message
        doc, out = tmp_path / "doc.json", tmp_path / "out"
        doc.write_text(content)
        if before is not None:
            out.write_bytes(before)
        assert run(["convert", str(doc), fmt, "-o", str(out)]) == 3
        assert capsys.readouterr().err == "error: " + message.format(doc=doc, out=out) + "\n"
        assert (out.read_bytes() if out.exists() else None) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"] + ["out"] * (before is not None)
        assert run(["convert", str(doc), fmt]) == 3
        assert capsys.readouterr().out == ""

    def test_usage_errors_do_not_collide_with_budget_exit(self, capsys):
        assert run(["construct", "pr"]) == 3  # missing --r/--g
        assert run(["nonsense"]) == 3
        capsys.readouterr()

    def test_deep_instance_is_solved(self, tmp_path, capsys):
        # 3-uniform loose paths: the search goes n levels deep, and at 30,001
        # vertices the search order must not rescan every vertex per pick
        for n in (1201, 30_001):
            path = Hypergraph(range(n), [(i, i + 1, i + 2) for i in range(0, n - 2, 2)])
            f = tmp_path / "path.json"
            f.write_text(dumps(path))
            assert run(["solve", "good", str(f)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert (report["status"], report["nodes"]) == ("witness_found", n)

    @pytest.mark.parametrize("kind", ["good", "part-rainbow"])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_bad_input(self, tmp_path, capsys, kind, budget):
        f = tmp_path / "rp.json"
        path = Hypergraph(["x", "y", "z"], [["x", "y"], ["y", "z"]])
        f.write_text(dumps(PartiteHypergraph(path, [["x", "z"], ["y"]])))
        assert run(["solve", kind, str(f), "--budget", budget]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "budget" in captured.err

    def test_unexpected_error_has_its_own_exit_code(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli, "find_good_coloring", crash)
        f = tmp_path / "t.json"
        f.write_text(dumps(Hypergraph([1, 2, 3], [[1, 2, 3]])))
        assert run(["solve", "good", str(f)]) == cli.EXIT_ERROR == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "RuntimeError: solver blew up" in err

    def test_part_rainbow_needs_parts(self, tmp_path, capsys):
        f = tmp_path / "plain.json"
        f.write_text(dumps(complete_hypergraph(4, 2)))
        assert run(["solve", "part-rainbow", str(f)]) == 3
        capsys.readouterr()

    def test_output_paths_are_taken_as_given(self, tmp_path, capsys, monkeypatch):
        # an -o path is taken as given, like an input path, so the chain
        # reads back what it wrote whatever RMHYPER_OUTPUT_DIR holds
        monkeypatch.chdir(tmp_path)
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.setenv("RMHYPER_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        for command in (
            "construct pr --r 3 --g 3 -o pr33.json",
            "construct factor --input pr33.json --parts 4 -o f.json",
            "girth pr33.json -o g.json",
        ):
            assert run(shlex.split(command)) == 0, (command, capsys.readouterr().err)
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere", "f.json", "g.json", "pr33.json"]
        assert list((tmp_path / "elsewhere").iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["girth", "{dir}", "-o", "{out}"],
            ["convert", "{dir}", "--json", "-o", "{out}"],
            ["construct", "factor", "--input", "{dir}", "--parts", "3", "-o", "{out}"],
            ["bound", "--r", "3", "--g", "3", "-o", "{missing}/x.json"],
        ],
    )
    def test_file_errors_are_bad_input(self, tmp_path, capsys, argv):
        # a directory as the input, or an output into a missing directory
        folder = tmp_path / "folder"
        folder.mkdir()
        out, missing = tmp_path / "out.json", tmp_path / "missing"
        fill = {"dir": str(folder), "out": str(out), "missing": str(missing)}
        assert run([a.format(**fill) for a in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot ")
        assert not captured.err.startswith("error: unexpected")
        assert not out.exists() and not missing.exists()
        assert list(folder.iterdir()) == []

    @pytest.mark.parametrize("g, code, kept", [("3", 2, 3), ("2", 0, 84)])
    def test_require_target(self, tmp_path, capsys, g, code, kept):
        # at seed 0, n = 12, R = 5: g = 3 keeps 3 of a 28-edge target, g = 2
        # keeps all 84 sampled edges against a target of 42
        out = tmp_path / "carrier.json"
        argv = ["random", "carrier", "--n", "12", "--R", "5", "--g", g, "--require-target"]
        assert run(argv + ["-o", str(out)]) == code
        capsys.readouterr()
        meta = json.loads(out.read_text())["meta"]
        assert (meta["edges_kept"], meta["target_met"]) == (kept, code == 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "h", "--r", "3", "--g", "2", "--input", "x"],
            ["construct", "factor", "--input", "{pr}", "--parts", "3", "--r", "3"],
            ["random", "carrier", "--n", "12", "--R", "5", "--g", "3", "--tries", "4"],
            ["random", "search", "--n", "8", "--r", "3", "--g", "2", "--R", "5"],
            ["random", "search", "--n", "8", "--r", "3", "--g", "2", "--require-target"],
            # no prefix stands for an option, here --require-target and --max-vertices
            ["random", "carrier", "--n", "12", "--R", "5", "--g", "3", "--r"],
            ["construct", "pr", "--r", "3", "--g", "3", "--max-v", "100"],
        ],
    )
    def test_options_of_another_kind_are_refused(self, tmp_path, capsys, argv):
        pr = tmp_path / "pr.json"
        assert run(["construct", "pr", "--r", "2", "--g", "3", "-o", str(pr)]) == 0
        out = tmp_path / "out.json"
        assert run([a.format(pr=pr) for a in argv] + ["-o", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized arguments: ")
        assert not out.exists()


# The 13 commands of the benchmark's ``pipeline`` chain, each with its exit
# code and the SHA-256 of the file it writes.
CLI_CHAIN = [
    ("construct pr --r 3 --g 4 -o pr34.json", 0,
     "20bcba2de7602ee279e17d735ef038aabdfcaa1678dda05c4bd8e84464ad29b3"),
    ("construct factor --input pr34.json --parts 6 -o factor.json", 0,
     "f5f1c1b46359f6c8f9de071545a8060a860536fdb99bb1ffa64d489d11890d7c"),
    ("girth factor.json --cap 4 --witness -o girth_factor.json", 2,
     "4c232f79ca5565aafecfe29ab6c84e4167f6602391da707553f734a8f1599b1e"),
    ("girth pr34.json --cap 8 --witness -o girth_pr34.json", 0,
     "63fca954cbdc3e5091cc5f061ab51287c32fdd60fa30957306685455058fc5e4"),
    ("convert factor.json --json -o factor_copy.json", 0,
     "f5f1c1b46359f6c8f9de071545a8060a860536fdb99bb1ffa64d489d11890d7c"),
    ("convert factor.json --dot -o factor.dot", 0,
     "feb7e05fa42bd46c1072c50ac5100963edddb40efa67d01372b12e7a3693f651"),
    ("construct pr --r 3 --g 3 -o pr33.json", 0,
     "4b71f95c5571f03a61137c64b3efac6e39f0ad5fd3317b4ba93deebca146ea84"),
    ("solve part-rainbow pr33.json -o solve_pr33.json", 1,
     "99db7311e172d6c6c2ab8be180e08613a4156c985e1c41f3c1cb2d16a3eb3a39"),
    ("construct h --r 3 --g 2 -o h32.json", 0,
     "6afa2fa9339b01e9297204b8bb7645b27a52118d80eb9cb1fdb840d93f824b01"),
    ("solve good h32.json -o solve_h32.json", 1,
     "ddeb1588fef4c11d7dc60489338b37dcf9a606b2ab0a8fce99b43e4993790bc1"),
    ("random carrier --n 12 --R 5 --g 3 --seed 7 -o carrier.json", 0,
     "167512b4e063cf49388fb335d02ededecfad90def9a0e56642de94b10b497bc7"),
    ("random search --n 8 --r 3 --g 2 --seed 7 -o found.json", 1,
     "9cebe9e4171713ee8541b279674022564a68be6dc833390949d669581b20381d"),
    ("bound --r 3 --g 3 -o bound.json", 0,
     "369a3ea0e45c4e54f7fb0057f230908fc0f372c06d843fac04c45a8dbf820fa3"),
]


def test_cli_chain_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, code, digest in CLI_CHAIN:
        argv = shlex.split(command)
        assert run(argv) == code, capsys.readouterr().err
        assert hashlib.sha256((tmp_path / argv[-1]).read_bytes()).hexdigest() == digest, command


def test_bound_runs_without_mpmath(tmp_path):
    # the counting bound is plain decimal arithmetic: with mpmath made
    # unimportable, `python -m rmhyper bound` writes the pinned bytes
    script = (
        "import runpy, sys; sys.modules['mpmath'] = None; "
        "sys.argv = ['rmhyper', 'bound', '--r', '3', '--g', '3', '-o', 'bound.json']; "
        "runpy.run_module('rmhyper', run_name='__main__')"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    pinned = {shlex.split(command)[-1]: digest for command, _, digest in CLI_CHAIN}
    assert hashlib.sha256((tmp_path / "bound.json").read_bytes()).hexdigest() == pinned["bound.json"]


@pytest.mark.parametrize("output_dir", [None, "out"])
def test_dash_output_writes_to_stdout(tmp_path, monkeypatch, capsys, output_dir):
    monkeypatch.chdir(tmp_path)
    if output_dir is not None:
        (tmp_path / output_dir).mkdir()
        monkeypatch.setenv("RMHYPER_OUTPUT_DIR", str(tmp_path / output_dir))
    assert run(["bound", "--r", "3", "--g", "3", "-o", "-"]) == 0
    pinned = {shlex.split(command)[-1]: digest for command, _, digest in CLI_CHAIN}
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == pinned["bound.json"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ([] if output_dir is None else [output_dir])


# one command per artifact kind; --require-target changes only the exit code
ARTIFACT_COMMANDS = [
    "construct pr --r 3 --g 3 --max-vertices 5000",
    "construct h --r 2 --g 3 --max-edges 70",
    "construct factor --input pr33.json --parts 4",
    "random carrier --n 12 --R 5 --g 3 --seed 9 --require-target",
    "random search --n 8 --r 3 --g 2 --seed 7 --tries 3 --budget 1000",
]


@pytest.mark.parametrize("command", ARTIFACT_COMMANDS)
def test_rerunning_the_recorded_command_reproduces_the_artifact(tmp_path, monkeypatch, capsys, command):
    # every option of the leaf parser but -h, -o and --require-target is in
    # the meta, and the command rebuilt from the meta writes the same bytes
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "pr", "--r", "3", "--g", "3", "-o", "pr33.json"]) == 0
    argv = shlex.split(command)
    assert run(argv + ["-o", "first.json"]) in (0, 1, 2), capsys.readouterr().err
    meta = json.loads((tmp_path / "first.json").read_text())["meta"]
    leaf = dict(_leaf_commands(cli.build_parser()))[tuple(argv[:2])]
    options = [a for a in leaf._actions if a.dest not in ("help", "output", "require_target")]
    assert options and all(a.option_strings for a in options)
    rerun = shlex.split(meta["command"])
    for action in options:
        rerun += [action.option_strings[-1], str(meta[action.dest])]
    assert rerun[:2] == argv[:2]
    assert run(rerun + ["-o", "again.json"]) in (0, 1, 2), capsys.readouterr().err
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()


def test_counting_threshold_does_not_import_mpmath():
    script = (
        "import sys; from rmhyper.randgen import counting_threshold; "
        "counting_threshold(3, 3); print('mpmath' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_random_search_without_a_find_writes_the_hardest_attempt(tmp_path, capsys):
    # none of the 4 tries is certified: the artifact is the attempt that took
    # the most solver nodes, and the exit code says a good colouring exists
    out = tmp_path / "hardest.json"
    argv = ["random", "search", "--n", "5", "--r", "3", "--g", "2", "--tries", "4", "--seed", "7"]
    assert run(argv + ["-o", str(out)]) == 0, capsys.readouterr().err
    meta = json.loads(out.read_text())["meta"]
    assert (meta["found"], meta["tries"]) == (False, 4)
    digest = "754fa11816e1dd359b75c29ee4675984a9c5961c5988e72b5ff6c61f0bc91a95"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_readme_cli_examples_parse():
    # every example of the README's CLI block is accepted by the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("rmhyper ")]
    assert len(examples) >= 10
    parser = cli.build_parser()
    for line in examples:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.func), line


def _leaf_commands(parser, prefix=()):
    """Every leaf command of ``parser`` with its words, e.g. ("random", "carrier")."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, prefix + (name,))
            return
    yield prefix, parser


class _Deadline(BaseException):  # not an Exception, so run() cannot report it as exit 5
    pass


def _bytes_or_none(path) -> bytes | None:
    return Path(path).read_bytes() if os.path.exists(path) else None


def test_every_integer_option_survives_extreme_values(tmp_path, capsys):
    # each integer option of each leaf command, read from the parser, is set
    # in turn to every value of the menu while the other arguments stay valid;
    # every call must end in a documented exit code, without an "unexpected"
    # error, within its deadline, and a failed call leaves its -o file as it was
    pr33, h32, out = tmp_path / "pr33.json", tmp_path / "h32.json", str(tmp_path / "out")
    assert run(["construct", "pr", "--r", "3", "--g", "3", "-o", str(pr33)]) == 0
    assert run(["construct", "h", "--r", "3", "--g", "2", "-o", str(h32)]) == 0
    valid = {
        ("construct", "pr"): [["--r", "3", "--g", "3"]],
        ("construct", "h"): [["--r", "3", "--g", "2"]],
        ("construct", "factor"): [["--input", str(pr33), "--parts", "4"]],
        ("girth",): [[str(pr33)]],
        ("solve",): [["good", str(h32)], ["part-rainbow", str(pr33)]],
        ("random", "carrier"): [["--n", "12", "--R", "5", "--g", "3"]],
        ("random", "search"): [
            ["--n", "8", "--r", "3", "--g", "2", "--seed", "7", "--tries", "4", "--budget", "2000"]
        ],
        ("bound",): [["--r", "3", "--g", "3"]],
        ("convert",): [[str(h32), "--json"]],
    }
    values = ["-1", "0", "1", "2", "3", "50", str(10**6), str(10**18), "1" + "0" * 2000]

    def expire(*_):
        raise _Deadline

    previous = signal.signal(signal.SIGALRM, expire)
    swept = set()
    try:
        for words, parser in _leaf_commands(cli.build_parser()):
            options = [a.option_strings[0] for a in parser._actions if a.type is int]
            assert words in valid, words
            swept.add(words)
            for base, option, value in product(valid[words], options, values):
                argv = list(base)
                if option in argv:
                    argv[argv.index(option) + 1] = value
                else:
                    argv += [option, value]
                argv = [*words, *argv, "-o", out]
                before = _bytes_or_none(out)
                signal.setitimer(signal.ITIMER_REAL, 5.0)
                try:
                    code = run(argv)
                except _Deadline:
                    pytest.fail(f"no exit within 5 s: {' '.join(argv)[:200]}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                err = capsys.readouterr().err
                assert code in range(5) and "unexpected" not in err, (argv[:4], option, err)
                if code >= cli.EXIT_BAD_INPUT:  # a failed command writes nothing
                    assert _bytes_or_none(out) == before, (argv[:4], option, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert swept == set(valid)


# A small grammar of JSON documents, as text: a valid partite triple system
# (parts {0, 1}, {2, 3}, {4, 5}) under a few mutations (one of which renames
# a vertex everywhere, so that odd ids reach the writers), or other values,
# deep nesting, truncation and bytes that are not UTF-8.
_VALID_DOCUMENT = {
    "vertices": ["0", "1", "2", "3", "4", "5"],
    "edges": [["0", "2", "4"], ["0", "3", "5"], ["1", "2", "5"], ["1", "3", "4"]],
    "parts": [["0", "1"], ["2", "3"], ["4", "5"]],
}
_ODD_ATOMS = [
    '"a"', '"0"', '"01"', "6", "-1", "true", "null", "1.0", "NaN", "-Infinity",
    "9" * 300, "1" * 4400, '"\\ud800"', "{}", "[]",
]
_ATOMS = st.sampled_from(_VALID_DOCUMENT["vertices"] + _ODD_ATOMS)


def _render(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, dict):
        return "{" + ", ".join(f'"{k}": {_render(v)}' for k, v in x.items()) + "}"
    return "[" + ", ".join(map(_render, x)) + "]"


_VALUES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["k", "x"]), inner, max_size=2),
    ),
    max_leaves=6,
)
_DEEP = st.sampled_from([10, 900, 990, 50_000]).map(lambda k: "[" * k + "]" * k)


def _renamed(x, old: str, new: str):
    """``x`` with every atom ``old`` replaced by ``new``."""
    if isinstance(x, list):
        return [_renamed(y, old, new) for y in x]
    if isinstance(x, dict):
        return {k: _renamed(v, old, new) for k, v in x.items()}
    return new if x == old else x


@st.composite
def _documents(draw) -> bytes:
    doc = copy.deepcopy(_VALID_DOCUMENT)
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["vertices", "edges", "parts", "meta", "drop", "rename"]))
        if key == "rename":  # one vertex id, everywhere
            doc = _renamed(doc, draw(st.sampled_from(_VALID_DOCUMENT["vertices"])), draw(_ATOMS))
            continue
        if key == "drop":
            doc.pop(draw(st.sampled_from(sorted(doc))))
            continue
        if key == "meta" or key not in doc:
            doc[key] = draw(st.one_of(_VALUES, _DEEP, st.lists(st.lists(_ATOMS, max_size=4), max_size=4)))
            continue
        items = doc[key]
        if not isinstance(items, list) or not items:
            doc[key] = draw(_VALUES)
            continue
        i = draw(st.integers(0, len(items) - 1))
        op = draw(st.sampled_from(["replace", "extend", "repeat", "add"]))
        if op == "replace":
            items[i] = draw(_VALUES)
        elif op == "add":
            items.append(draw(_VALUES))
        elif isinstance(items[i], list):
            items[i] = items[i] + (items[i][:1] if op == "repeat" else [draw(_ATOMS)])
        else:
            items[i] = draw(_ATOMS)
    text = _render(doc)
    form = draw(st.sampled_from(["mutated"] * 6 + ["value", "deep", "truncated"]))
    if form == "value":
        text = _render(draw(_VALUES))
    elif form == "deep":
        text = draw(_DEEP)
    elif form == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    raw = text.encode()
    if draw(st.integers(0, 9)) == 9:  # a byte sequence that is not UTF-8
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + raw[at:]
    return raw


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(raw=_documents())
def test_every_reader_survives_grammar_documents(tmp_path, capsys, raw):
    # every command that reads a file must end each drawn document in a
    # documented exit code, without an "unexpected" error, within its deadline,
    # and leave its -o file as it was when it fails
    doc, out = tmp_path / "doc.json", str(tmp_path / "out")
    doc.write_bytes(raw)
    readers = [
        ["girth", str(doc)], ["solve", "good", str(doc)], ["solve", "part-rainbow", str(doc)],
        ["convert", str(doc), "--json"], ["convert", str(doc), "--dot"],
        ["construct", "factor", "--input", str(doc), "--parts", "4"],
    ]

    def expire(*_):
        raise _Deadline

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        for argv in readers:
            before = _bytes_or_none(out)
            signal.setitimer(signal.ITIMER_REAL, 5.0)
            try:
                code = run([*argv, "-o", out])
            except _Deadline:
                pytest.fail(f"no exit within 5 s: {argv[0]} on {raw[:200]!r}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = capsys.readouterr().err
            assert code in range(5) and "unexpected" not in err, (argv[:2], raw[:200], err)
            if code >= cli.EXIT_BAD_INPUT:  # a failed command writes nothing
                assert _bytes_or_none(out) == before, (argv[:2], raw[:200], err)
    finally:
        signal.signal(signal.SIGALRM, previous)
