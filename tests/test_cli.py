import collections
import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btfas import GenSpec, build, enumerate_bt, greedy_pack, random_bt, solve, xv, yv
from btfas.cli import (
    MAX_SIDE,
    InstanceFormatError,
    parse_arc,
    parse_instance,
    parse_vertex,
    render_instance,
    run,
)
from btfas.graph_core import place_arc
from btfas.oracles import all_4cycles

from helpers import (
    PACKING_REASONS,
    candidate_packing,
    check_packing_reference,
    four_cycle_bt,
    parse_instance_reference,
    planted_bt,
    random_digraph,
    six_cycle,
    verify_fas_reference,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parents[1] / "src"


def write(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(render_instance(graph), encoding="utf-8")
    return str(path)


def run_json(capsys, argv, expect=0):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return json.loads(captured.out)


# ----------------------------------------------------------------------
# format


def test_token_parsing():
    assert parse_vertex("x3") == xv(3)
    assert parse_vertex("y12") == yv(12)
    assert str(parse_arc("x3>y7")) == "x3>y7"
    for bad in ("z1", "x", "x-1", "x1y2"):
        with pytest.raises(InstanceFormatError):
            parse_vertex(bad)


def test_round_trip_identity():
    rng = random.Random(99)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(0, 5), rng.randint(0, 5))
        assert parse_instance(render_instance(g)) == g


def test_render_parse_render_fixed_point():
    messy = "c a comment\n\np bt 2 2\na y1 x0\n\nc trailing\na x0 y0\n"
    once = render_instance(parse_instance(messy))
    assert render_instance(parse_instance(once)) == once
    assert once == "p bt 2 2\na x0 y0\na y1 x0\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a x0 y0\n",
        "p bt 2\n",
        "p bt two 2\n",
        "p bt 2 2\np bt 2 2\n",
        "p bt 2 2\nq x0 y0\n",
        "p bt 2 2\na x0\n",
        "p bt 2 2\na x0 x1\n",
        "p bt 2 2\na x5 y0\n",
        "p bt 1 1\na x0 y0\na y0 x0\n",
    ],
)
def test_parse_rejects_malformed_files(text):
    with pytest.raises(InstanceFormatError):
        parse_instance(text)


# ----------------------------------------------------------------------
# subcommands


def test_solve_fas_branch(tmp_path, capsys):
    path = write(tmp_path, "c4.bt", four_cycle_bt())
    doc = run_json(capsys, ["solve", path, "--k", "2"])
    assert doc["branch"] == "fas"
    assert doc["fas"] == ["y0>x1", "y1>x0"]
    assert doc["bound"] == 7
    assert doc["order"] == ["x0", "x1", "y0", "y1"]


def test_solve_lists_fas_as_the_sorted_union_of_its_parts(tmp_path, capsys):
    """``fas`` is merged from the two sorted parts, with and without a residual part."""
    cases = [planted_bt(seed, blocks) for seed, blocks in ((0, 4), (2, 4), (0, 6), (1, 6))]
    cases += [random_bt(GenSpec(12, 12, seed=seed)) for seed in range(2)]
    residual_sizes = []
    for g in cases:
        k = len(greedy_pack(g).cycles) + 1
        outcome = solve(g, k)
        doc = run_json(capsys, ["solve", write(tmp_path, "t.bt", g), "--k", str(k)])
        assert doc["fas"] == [str(arc) for arc in sorted(outcome.fas)]
        assert doc["residual_fas"] == [str(arc) for arc in sorted(outcome.residual_part)]
        assert doc["backward"] == [str(arc) for arc in sorted(outcome.backward_part)]
        residual_sizes.append(len(outcome.residual_part))
    assert all(residual_sizes[:4]) and not any(residual_sizes[4:]), residual_sizes


def test_solve_packing_branch(tmp_path, capsys):
    path = write(tmp_path, "c4.bt", four_cycle_bt())
    doc = run_json(capsys, ["solve", path, "--k", "1"])
    assert doc["branch"] == "packing"
    assert doc["packing"] == [["x0", "y0", "x1", "y1"]]
    assert doc["fas"] is None


def test_fas_c4free_subcommand(tmp_path, capsys):
    path = write(tmp_path, "six.bt", six_cycle())
    doc = run_json(capsys, ["fas-c4free", path])
    assert doc["fas"] == ["x1>y1"]
    assert doc["bound"] == 3
    assert doc["trace"][0]["center"] == "x0"


def test_pack_subcommand(tmp_path, capsys):
    path = write(tmp_path, "c4.bt", four_cycle_bt())
    doc = run_json(capsys, ["pack", path])
    assert doc["count"] == 1
    assert doc["maximal"] is True
    assert doc["residual_lambda"] == 4
    limited = run_json(capsys, ["pack", path, "--limit", "1"])
    assert limited["maximal"] is False


def test_oracle_subcommand(tmp_path, capsys):
    path = write(tmp_path, "six.bt", six_cycle())
    doc = run_json(capsys, ["oracle", path, "--min-fas"])
    assert doc["value"] == 1
    doc = run_json(capsys, ["oracle", path, "--max-packing"])
    assert doc["value"] == 0


def test_census_subcommand(tmp_path, capsys):
    path = write(tmp_path, "six.bt", six_cycle())
    doc = run_json(capsys, ["census", path])
    assert doc["sum_first"] == doc["classes2"] == 6
    assert doc["sum_sec"] == doc["classes3"] == 6
    assert {"vertex": "x0", "first": 1, "sec": 1} in doc["per_vertex"]


def test_census_and_max_packing_refuse_large_instances_quickly(tmp_path, capsys):
    """The cross-pair limit is checked before either O(m^2 n^2) enumeration and any mask.

    Within it, the 4-cycle cap stops the max-packing enumeration early.
    """
    t64 = write(tmp_path, "t64.bt", random_bt(GenSpec(64, 64, seed=1)))
    t32 = write(tmp_path, "t32.bt", random_bt(GenSpec(32, 32, seed=1)))
    headers = {}
    for m, n in ((8000, 8000), (100, 100), (65536, 1)):  # no arcs: only the pair count is large
        headers[m] = tmp_path / f"header{m}.bt"
        headers[m].write_text(f"p bt {m} {n}\n", encoding="utf-8")
    limit = "exceeds the census limit of 1024 cross pairs"
    for argv, reason in (
        (["census", t64], limit),
        (["census", str(headers[8000])], limit),
        (["oracle", t64, "--max-packing"], limit),
        (["oracle", str(headers[100]), "--max-packing"], limit),
        (["oracle", str(headers[65536]), "--max-packing"], limit),
        (["oracle", t32, "--max-packing"], "more than 50 4-cycles exceed the configured cap"),
    ):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0, argv
        assert reason in capsys.readouterr().err
    # No cross pair, so no 4-cycle: answered at once, without walking the m(m-1)/2 X pairs.
    empty = tmp_path / "header65536x0.bt"
    empty.write_text("p bt 65536 0\n", encoding="utf-8")
    start = time.perf_counter()
    assert run(["oracle", str(empty), "--max-packing"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["value"] == 0
    # Lopsided sides within the limit: census counts each side once, not once per vertex.
    t1024 = write(tmp_path, "t1024x1.bt", random_bt(GenSpec(1024, 1, seed=1)))
    for path, size in ((str(empty), 65536), (t1024, 1025)):
        start = time.perf_counter()
        doc = run_json(capsys, ["census", path])
        assert time.perf_counter() - start < 10.0, path
        assert len(doc["per_vertex"]) == size
        assert doc["sum_first"] == doc["sum_sec"] == doc["classes2"] == doc["classes3"] == 0


def test_max_packing_refuses_more_cycles_than_its_search_finishes(tmp_path, capsys):
    """random_bt 16x16 seed 1 has 1,815 4-cycles; the exact search ran past 10 s on it."""
    path = write(tmp_path, "r16.bt", random_bt(GenSpec(16, 16, seed=1)))
    start = time.perf_counter()
    assert run(["oracle", path, "--max-packing"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "more than 50 4-cycles exceed the configured cap" in capsys.readouterr().err


def test_emitted_certificates_reverify(tmp_path, capsys):
    instance = write(tmp_path, "c4.bt", four_cycle_bt())

    code = run(["solve", instance, "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    cert = tmp_path / "fas.json"
    cert.write_text(out, encoding="utf-8")
    assert run(["verify", instance, "--fas", str(cert), "--k", "2"]) == 0
    capsys.readouterr()

    code = run(["pack", instance])
    out = capsys.readouterr().out
    assert code == 0
    pcert = tmp_path / "pack.json"
    pcert.write_text(out, encoding="utf-8")
    assert run(["verify", instance, "--packing", str(pcert), "--k", "1"]) == 0
    capsys.readouterr()


def test_verify_rejects_bad_certificates(tmp_path, capsys):
    instance = write(tmp_path, "c4.bt", four_cycle_bt())
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"fas": []}), encoding="utf-8")
    assert run(["verify", instance, "--fas", str(empty)]) == 2
    capsys.readouterr()

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"packing": []}), encoding="utf-8")
    assert run(["verify", instance, "--packing", str(short), "--k", "1"]) == 2
    capsys.readouterr()

    overlapping = tmp_path / "dup.json"
    overlapping.write_text(
        json.dumps({"packing": [["x0", "y0", "x1", "y1"], ["x0", "y0", "x1", "y1"]]}),
        encoding="utf-8",
    )
    assert run(["verify", instance, "--packing", str(overlapping), "--k", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind, cert",
    [
        ("--fas", {"fas": [1]}),
        ("--fas", {"fas": ["y1>x0", None]}),
        ("--packing", {"packing": [[1, 2, 3, 4]]}),
        ("--fas", {"fas": ["x0>x1"]}),
        ("--fas", {"fas": ["x9>y0"]}),
        ("--packing", {"packing": [["x0", "x1", "y0", "y1"]]}),
    ],
)
def test_verify_rejects_non_string_tokens(tmp_path, capsys, kind, cert):
    instance = write(tmp_path, "c4.bt", four_cycle_bt())
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    doc = run_json(capsys, ["verify", instance, kind, str(path)], expect=2)
    assert doc["valid"] is False
    assert doc["reason"]


def test_verify_counts_a_repeated_arc_once(tmp_path, capsys):
    instance = write(tmp_path, "c4.bt", four_cycle_bt())
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"fas": ["y1>x0", "y1>x0"]}), encoding="utf-8")
    assert run_json(capsys, ["verify", instance, "--fas", str(path)])["size"] == 1
    # Eight copies of one arc stay within the bound 7 * (2 - 1) = 7.
    path.write_text(json.dumps({"fas": ["y1>x0"] * 7 + ["y01>x00"]}), encoding="utf-8")
    doc = run_json(capsys, ["verify", instance, "--fas", str(path), "--k", "2"])
    assert doc["size"] == 1 and doc["bound"] == 7
    # Leading zeros name the same arc.
    path.write_text(json.dumps({"fas": ["y01>x00", "y1>x0"]}), encoding="utf-8")
    assert run_json(capsys, ["verify", instance, "--fas", str(path)])["size"] == 1


def test_gen_to_stdout_and_file(tmp_path, capsys):
    code = run(["gen", "--m", "3", "--n", "3", "--seed", "42"])
    text = capsys.readouterr().out
    assert code == 0
    assert parse_instance(text).absent_pair_count() == 0

    out = tmp_path / "i.bt"
    doc = run_json(capsys, ["gen", "--m", "3", "--n", "3", "--seed", "42", "--out", str(out)])
    assert doc["files"] == [str(out)]
    assert out.read_text(encoding="utf-8") == text


def test_gen_count_and_enumerate(tmp_path, capsys):
    prefix = str(tmp_path / "batch-")
    doc = run_json(
        capsys,
        ["gen", "--m", "2", "--n", "2", "--seed", "5", "--count", "3", "--out", prefix],
    )
    assert doc["count"] == 3
    texts = [pathlib.Path(p).read_text(encoding="utf-8") for p in doc["files"]]
    assert len(set(texts)) == 3

    prefix = str(tmp_path / "enum-")
    doc = run_json(
        capsys, ["gen", "--mode", "enumerate", "--m", "2", "--n", "1", "--out", prefix]
    )
    assert doc["count"] == 4


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--count", "1"], "--count"),
        (["--seed", "0"], "--seed"),
        (["--bias", "0.5"], "--bias"),
        (["--seed", "3", "--count", "2"], "--count"),
    ],
)
def test_gen_enumerate_rejects_random_options(tmp_path, capsys, extra, named):
    prefix = str(tmp_path / "enum-")
    argv = ["gen", "--mode", "enumerate", "--m", "1", "--n", "1", "--out", prefix, *extra]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"gen --mode enumerate does not take {named}\n" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_gen_defaults_match_explicit_seed_and_bias(capsys):
    assert run(["gen", "--m", "5", "--n", "4"]) == 0
    default = capsys.readouterr().out
    assert run(["gen", "--m", "5", "--n", "4", "--seed", "0", "--bias", "0.5"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("extra", [[], ["--count", "3"]])
def test_gen_rejects_a_negative_seed_before_writing(tmp_path, capsys, extra):
    prefix = str(tmp_path / "p-")
    assert run(["gen", "--m", "4", "--n", "4", "--seed", "-1", "--out", prefix, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be non-negative, got -1" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_gen_rejects_a_negative_count(tmp_path, capsys):
    prefix = str(tmp_path / "neg-")
    assert run(["gen", "--m", "2", "--n", "2", "--count", "-1", "--out", prefix]) == 1
    assert "--count" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "-1", "--n", "2"],
        ["--m", "2", "--n", "-1", "--mode", "enumerate", "--out", "enum-"],
        ["--m", "1000000000", "--n", "1000000000"],
        ["--m", "8192", "--n", "8193", "--mode", "random-c4free"],
        ["--m", "100000000", "--n", "0"],
        ["--m", "0", "--n", str(MAX_SIDE + 1), "--mode", "random-c4free"],
    ],
)
def test_gen_rejects_bad_sides_before_allocating(capsys, monkeypatch, argv):
    import btfas.cli as cli_module

    def no_generation(*args):
        raise AssertionError("bad sides reached the generator")

    for name in ("random_bt", "random_c4free", "enumerate_bt"):
        monkeypatch.setattr(cli_module.instance_gen, name, no_generation)
    assert run(["gen", *argv]) == 1
    assert "m*n <=" in capsys.readouterr().err


def test_gen_to_an_unwritable_path_exits_1(tmp_path, capsys):
    assert run(["gen", "--m", "2", "--n", "2", "--out", str(tmp_path / "no" / "i.bt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "i.bt" in captured.err


def test_gen_determinism_in_process(capsys):
    run(["gen", "--m", "4", "--n", "4", "--seed", "11"])
    first = capsys.readouterr().out
    run(["gen", "--m", "4", "--n", "4", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second


# ----------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(capsys):
    assert run(["nonsense"]) == 1
    assert run([]) == 1
    assert run(["solve", "--k", "2"]) == 1  # missing instance
    assert run(["gen", "--mode", "enumerate", "--m", "2", "--n", "2"]) == 1
    capsys.readouterr()


def test_parse_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.bt"
    bad.write_text("p bt 1\n", encoding="utf-8")
    assert run(["solve", str(bad), "--k", "1"]) == 1
    assert run(["solve", str(tmp_path / "missing.bt"), "--k", "1"]) == 1
    capsys.readouterr()


def test_unreadable_files_exit_1(tmp_path, capsys):
    instance = tmp_path / "bad.bt"
    instance.write_bytes(b"p bt 2 2\nc \xff\xfe\n")
    assert run(["solve", str(instance), "--k", "1"]) == 1
    good = write(tmp_path, "c4.bt", four_cycle_bt())
    cert = tmp_path / "bad.json"
    cert.write_bytes(b'{"fas": ["\xff"]}')
    assert run(["verify", good, "--fas", str(cert)]) == 1
    assert run(["verify", good, "--fas", ""]) == 1
    assert capsys.readouterr().err.count("cannot read") == 3


def test_stdin_is_read_as_strict_utf8_whatever_the_locale(tmp_path):
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict", PYTHONPATH=str(SRC))

    def solve(source, data=None):
        argv = [sys.executable, "-m", "btfas", "solve", source, "--k", "2"]
        return subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60)

    bad = solve("-", b"p bt 1 1\n\x80\n")
    assert bad.returncode == 1 and bad.stdout == b""
    assert bad.stderr.startswith(b"btfas: error: cannot read -: 'utf-8' codec can't decode byte 0x80")
    assert b"Traceback" not in bad.stderr
    path = write(tmp_path, "c4.bt", four_cycle_bt())
    piped = solve("-", pathlib.Path(path).read_bytes())
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, solve(path).stdout, b"")


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"fas": ' + "[" * 100_000 + "}", '{"fas": [' + "9" * 5000 + "]}"],
    ids=["nested", "nested-fas", "long-integer"],
)
def test_unloadable_certificates_exit_1(tmp_path, capsys, text):
    good = write(tmp_path, "c4.bt", four_cycle_bt())
    cert = tmp_path / "deep.json"
    cert.write_text(text, encoding="utf-8")
    assert run(["verify", good, "--fas", str(cert)]) == 1
    assert capsys.readouterr().out == ""


def test_overlong_vertex_index_exits_1(tmp_path, capsys):
    huge = "1" * 5000
    instance = tmp_path / "huge.bt"
    instance.write_text(f"p bt 1 1\na x{huge} y0\n", encoding="utf-8")
    assert run(["solve", str(instance), "--k", "1"]) == 1
    cert = tmp_path / "huge.json"
    cert.write_text(json.dumps({"fas": [f"x{huge}>y0"]}), encoding="utf-8")
    assert run(["verify", write(tmp_path, "c4.bt", four_cycle_bt()), "--fas", str(cert)]) == 1
    assert "bad vertex token" in capsys.readouterr().err


def test_oversized_header_exits_1_before_allocating(tmp_path, capsys, monkeypatch):
    import btfas.cli as cli_module

    def no_build(*args):
        raise AssertionError("an oversized instance reached build")

    monkeypatch.setattr(cli_module, "build", no_build)
    huge = tmp_path / "huge.bt"
    # The last two pass MAX_PAIRS: an empty side makes m*n zero.
    for header, reason in (
        ("p bt 1000000000 1000000000", "cross pairs"),
        ("p bt 8192 8193", "cross pairs"),
        ("p bt 100000000 0", f"more than {MAX_SIDE} vertices"),
        (f"p bt 0 {MAX_SIDE + 1}", f"more than {MAX_SIDE} vertices"),
    ):
        huge.write_text(f"{header}\na x0 y0\n", encoding="utf-8")
        assert run(["fas-c4free", str(huge)]) == 1
        assert reason in capsys.readouterr().err


def test_precondition_violations_exit_2(tmp_path, capsys):
    incomplete = write(tmp_path, "inc.bt", build(2, 2, [(xv(0), yv(0))]))
    assert run(["solve", incomplete, "--k", "1"]) == 2
    has_cycle = write(tmp_path, "c4.bt", four_cycle_bt())
    capsys.readouterr()
    assert run(["fas-c4free", has_cycle]) == 2
    assert capsys.readouterr().err == "btfas: error: input contains the 4-cycle x0>y0>x1>y1\n"
    big = write(tmp_path, "big.bt", build(12, 11, []))
    assert run(["oracle", big, "--min-fas"]) == 2
    capsys.readouterr()


def test_negative_k_exits_2_for_solve_and_both_verify_kinds(tmp_path, capsys):
    instance = str(GOLDEN / "c4_bt.bt")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"fas": [], "packing": []}), encoding="utf-8")
    for argv in (
        ["solve", instance, "--k", "-1"],
        ["verify", instance, "--fas", str(cert), "--k", "-1"],
        ["verify", instance, "--packing", str(cert), "--k", "-1"],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "btfas: error: k must be non-negative, got -1\n"


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_internal_invariant_violations_exit_3(tmp_path, capsys, monkeypatch):
    from btfas.errors import InternalInvariantError
    import btfas.cli as cli_module

    def broken(graph, k):
        raise InternalInvariantError("simulated bound violation")

    monkeypatch.setattr(cli_module.fas_engine, "solve", broken)
    instance = write(tmp_path, "c4.bt", four_cycle_bt())
    assert run(["solve", instance, "--k", "1"]) == 3
    assert "internal invariant" in capsys.readouterr().err


def test_a_stuck_set_that_the_storage_denies_exits_3(tmp_path, capsys, monkeypatch):
    """verify --fas sorts the cut copy; stale masks make Kahn stop where the storage has no cycle."""
    from btfas.graph_core import BipartiteDigraph

    clear_pairs = BipartiteDigraph.clear_pairs

    def stale_clear_pairs(self, pairs):
        cut = clear_pairs(self, pairs)
        cut.__dict__.update(x_masks=self.x_masks, y_masks=self.y_masks)
        return cut

    monkeypatch.setattr(BipartiteDigraph, "clear_pairs", stale_clear_pairs)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"fas": ["y1>x0"]}), encoding="utf-8")
    assert run(["verify", str(GOLDEN / "c4_bt.bt"), "--fas", str(cert)]) == 3
    err = capsys.readouterr().err
    assert "internal invariant violation: Kahn left x0 without an unplaced in-neighbor" in err


# ----------------------------------------------------------------------
# goldens and selftest


def test_golden_fas_c4free_bytes(capsys):
    code = run(["fas-c4free", str(GOLDEN / "six_cycle.bt")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "six_cycle_fas.json").read_text(encoding="utf-8")


def test_golden_solve_bytes(capsys):
    code = run(["solve", str(GOLDEN / "c4_bt.bt"), "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "c4_bt_solve_k2.json").read_text(encoding="utf-8")


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert [(c["name"], c["instances"]) for c in doc["checks"]] == [
        ("census-identities-exhaustive", 530),
        ("acyclicity-vs-brute-2x2", 81),
        ("c4free-certificates", 16411),
        ("dichotomy-exhaustive", 2120),
        ("min-fas-vs-packing-oracles", 528),
    ]


# ----------------------------------------------------------------------
# fuzzing the boundary: any instance bytes and certificate ends in 0, 1 or 2

_VERTEX = st.one_of(
    st.builds("{}{}".format, st.sampled_from("xyz"), st.integers(-1, 5)),
    st.text(max_size=4),
)
_ARC = st.one_of(st.builds("{}>{}".format, _VERTEX, _VERTEX), _VERTEX)
_LINE = st.one_of(
    st.builds("p bt {} {}".format, st.integers(-1, 4), st.integers(-1, 4)),
    st.builds("a {} {}".format, _VERTEX, _VERTEX),
    st.builds("c {}".format, st.text(max_size=6)),
    st.text(max_size=10),
)
_INSTANCE = st.one_of(
    st.lists(_LINE, max_size=14).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=80),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _ARC,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["fas", "packing", "k"]) | st.text(max_size=3), inner),
    max_leaves=20,
)
_CERTIFICATE = st.one_of(
    st.builds(lambda doc: json.dumps(doc).encode("utf-8"), _JSON),
    st.builds(lambda arcs: json.dumps({"fas": arcs}).encode("utf-8"), st.lists(_ARC, max_size=8)),
    st.builds(
        lambda cycles: json.dumps({"packing": cycles}).encode("utf-8"),
        st.lists(st.lists(_VERTEX, min_size=3, max_size=5), max_size=4),
    ),
    st.builds(lambda depth: b"[" * depth, st.integers(1, 100_000)),
    st.binary(max_size=40),
)


_SIX_CYCLE = b"p bt 3 3\na x0 y0\na x1 y1\na x2 y2\na y0 x1\na y1 x2\na y2 x0\n"


# Pinned cases: the draws shift whenever the source files they sample literals from change.
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(instance=_INSTANCE, certificate=_CERTIFICATE, k=st.integers(-1, 3))
@example(instance=b"p bt 0 0", certificate=b'{"fas": []}', k=-1)
@example(instance=_SIX_CYCLE, certificate=b'{"fas": ["x1>y1"]}', k=1)
@example(instance=_SIX_CYCLE, certificate=b'{"packing": [["x0", "y0", "x1", "y1"]]}', k=1)
@example(instance=_SIX_CYCLE, certificate=b"[" * 100_000, k=2)
def test_cli_boundary_never_raises(instance, certificate, k):
    with tempfile.TemporaryDirectory() as tmp:
        inst, cert = pathlib.Path(tmp, "i.bt"), pathlib.Path(tmp, "c.json")
        inst.write_bytes(instance)
        cert.write_bytes(certificate)
        for argv in (
            ["solve", str(inst), "--k", str(k)],
            ["pack", str(inst)],
            ["fas-c4free", str(inst)],
            ["census", str(inst)],
            ["verify", str(inst), "--fas", str(cert), "--k", str(k)],
            ["verify", str(inst), "--packing", str(cert), "--k", str(k)],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2), (argv, err.getvalue())
            if argv[0] == "verify" and code == 2:
                if k < 0:  # refused before the certificate is read, as for solve
                    assert out.getvalue() == "", argv
                else:
                    assert json.loads(out.getvalue())["valid"] is False


# ----------------------------------------------------------------------
# the token-table parser against the per-token reference


def _token(side: str, index: int, rng: random.Random) -> str:
    return f"{side}{'0' * rng.choice((0, 0, 0, 1, 2))}{index}"


def _instance_text(rng: random.Random) -> str:
    """A seeded instance file, valid or with one or two defects of different kinds."""
    m, n = rng.randint(0, 5), rng.randint(0, 5)
    arcs = [
        (_token(a.tail.side.lower(), a.tail.index, rng), _token(a.head.side.lower(), a.head.index, rng))
        for a in random_digraph(rng, m, n).arcs()
    ]
    rng.shuffle(arcs)
    tail, head = rng.choice(arcs) if arcs else ("x0", "y0")
    defects = {
        "same-side": f"a x{rng.randint(0, 3)} x{rng.randint(0, 3)}",
        "out-of-range": rng.choice((f"a x{m + rng.randint(0, 2)} y0", f"a y{n} x0")),
        "duplicate": f"a {tail} {head}",
        "opposite": f"a {head} {tail}",
        "bad-token": f"a {rng.choice(('z1', 'x', 'x-1', 'x1y2', 'X0', '1', 'x+1'))} y0",
        "bad-line": rng.choice(("a x0", "a x0 y0 y1", "q x0 y0", "pbt 1 1")),
        "second-p": f"p bt {m} {n}",
    }
    lines = [f"a {t} {h}" for t, h in arcs]
    for line in rng.sample(sorted(defects.values()), rng.choice((0, 0, 1, 1, 2))):
        lines.insert(rng.randint(0, len(lines)), line)
    for _ in range(rng.randint(0, 3)):
        blank = rng.choice(("", "c note", "c", "   ", "\t", "\x0c cx", "cp bt 1 1"))
        lines.insert(rng.randint(0, len(lines)), blank)
    header = f"p bt {m} {n}"
    if rng.random() < 0.1:
        header = rng.choice((f"p bt -{m + 1} {n}", f"p bt {m} -1", f"p bt {m}", f"p bt {m} n"))
    # Mostly first; otherwise anywhere, so an arc line may come before it.
    lines.insert(0 if rng.random() < 0.9 else rng.randint(0, len(lines)), header)
    lines = [line.replace(" ", rng.choice((" ", "  ", "\t", "\xa0", "\u3000"))) for line in lines]
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("\n", "", "\r\n"))


# Line ends and blanks that str.splitlines and str.split accept besides "\n" and " ".
_LINE_ENDS = ("\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029")
_BLANKS = (" ", " ", "\t", "\xa0", "\u2003", "\u3000", "\x1f", " \t ")


def _mixed_text(rng: random.Random, lines: list[str]) -> str:
    """The lines joined by mixed line ends, each with its blanks swapped for Unicode ones."""
    lines = [line.replace(" ", rng.choice(_BLANKS)) for line in lines]
    return "".join(line + rng.choice(_LINE_ENDS) for line in lines)[: None if rng.random() < 0.8 else -1]


def _wide_instance_text(rng: random.Random) -> str:
    """Sides up to 40, indices at and past m and n, zero-padded tokens, up to two defects."""
    m, n = rng.randint(0, 40), rng.randint(0, 40)
    pad = lambda side, index: f"{side}{'0' * rng.choice((0, 0, 1, 2))}{index}"  # noqa: E731
    arcs = []
    for p in rng.sample(range(m * n), min(m * n, rng.randint(0, 60))):
        x, y = pad("x", p // n), pad("y", p % n)
        arcs.append((x, y) if rng.random() < 0.5 else (y, x))
    tail, head = rng.choice(arcs) if arcs else ("x0", "y0")
    defects = (
        f"a x{m} y{rng.randrange(max(n, 1))}",
        f"a y{n} x{rng.randrange(max(m, 1))}",
        f"a {pad('x', m + rng.randint(1, 200))} {pad('y', 0)}",
        f"a y{rng.randrange(max(n, 1))} {pad('y', n)}",
        f"a {tail[0]}00{tail[1:]} {head}",  # the same pair again, spelled otherwise
        f"a {head[0]}0{head[1:]} {tail}",
        f"a {rng.choice(('x١', 'x1_0', 'y+1', 'x0x', 'xx1', 'y-0'))} y0",
        f"p bt {m} {n}",
    )
    lines = [f"a {t} {h}" for t, h in arcs]
    for line in rng.sample(defects, rng.choice((0, 0, 1, 1, 2))):
        lines.insert(rng.randint(0, len(lines)), line)
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "c x0 y0", "c", "   ")))
    header = f"p bt {m} {n}" if rng.random() < 0.8 else rng.choice((f"p bt 0{m} 00{n}", f"p bt {m} -{n + 1}"))
    lines.insert(0 if rng.random() < 0.95 else rng.randint(0, len(lines)), header)
    return _mixed_text(rng, lines)


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)


def test_parser_matches_the_reference_on_a_seeded_corpus():
    rng = random.Random(5)
    messages = []
    for _ in range(2000):
        text = _instance_text(rng)
        expected = _outcome(parse_instance_reference, text)
        assert _outcome(parse_instance, text) == expected, text
        if isinstance(expected, tuple):
            assert expected[0] is InstanceFormatError
            messages.append(expected[1])
    # Every line-format, token and build error occurs in the corpus.
    for fragment in (
        "second problem line",
        "expected 'p bt <m> <n>'",
        "non-integer side size",
        "arc before the problem line",
        "expected 'a <tail> <head>'",
        "unknown line type",
        "bad vertex token",
        "does not cross the bipartition",
        "outside a",
        "listed more than once",
        "side sizes must be non-negative",
    ):
        assert any(fragment in message for message in messages), fragment
    assert 500 < len(messages) < 1500

    # Wider: sides up to 40, boundary and padded indices, mixed line ends and blanks.
    rng, parsed, messages = random.Random(6), 0, []
    for _ in range(1000):
        text = _wide_instance_text(rng)
        expected = _outcome(parse_instance_reference, text)
        assert _outcome(parse_instance, text) == expected, text
        if isinstance(expected, tuple):
            messages.append(expected[1])
        else:
            parsed += 1
    assert parsed >= 300
    for fragment in ("outside a", "listed more than once", "does not cross", "bad vertex token", "non-negative"):
        assert sum(fragment in message for message in messages) >= 20, fragment


def test_an_arc_free_file_allocates_its_storage_once():
    side = 4000
    tracemalloc.start()
    try:
        graph = parse_instance(f"p bt {side} {side}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (graph.m, graph.n, graph.arc_count()) == (side, side, 0)
    assert peak <= 1.1 * side * side


def test_the_pair_validator_runs_only_on_a_rejected_arc(monkeypatch):
    import btfas.cli as cli_module

    calls = []

    def recorded(*args):
        calls.append(args[-2:])
        return place_arc(*args)

    monkeypatch.setattr(cli_module, "place_arc", recorded)
    text = render_instance(random_bt(GenSpec(12, 9, seed=4)))
    assert parse_instance(text) == random_bt(GenSpec(12, 9, seed=4))
    assert calls == []
    with pytest.raises(InstanceFormatError, match=r"pair \(x0, y0\) listed more than once"):
        parse_instance(text + "a y00 x000\na x99 y0\n")
    assert calls == [(yv(0), xv(0))]  # only the first rejected arc is named


def test_render_lists_the_arcs_in_canonical_order():
    rng = random.Random(8)
    for shape in [(0, 4), (4, 0), (0, 0)] + [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(200)]:
        g = random_digraph(rng, *shape)
        assert render_instance(g) == "\n".join(
            [f"p bt {g.m} {g.n}"] + [f"a {a.tail} {a.head}" for a in g.arcs()]
        ) + "\n"


def test_repeated_runs_match_a_fresh_parser(tmp_path, monkeypatch):
    import btfas.cli as cli_module

    instance = write(tmp_path, "c4.bt", four_cycle_bt())
    packing = tmp_path / "pack.json"
    packing.write_text(json.dumps({"packing": [["x0", "y0", "x1", "y1"]]}), encoding="utf-8")
    fas = tmp_path / "fas.json"
    fas.write_text(json.dumps({"fas": ["y1>x0"]}), encoding="utf-8")
    calls = [
        ["solve", instance],
        ["solve", instance, "--k", "1"],
        ["verify", instance, "--fas", str(fas), "--packing", str(packing)],
        ["verify", instance, "--packing", str(packing), "--k", "1"],
        ["verify", instance, "--fas", str(fas), "--k", "2"],
        ["verify", instance],
        ["oracle", instance, "--min-fas"],
    ]

    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return run(argv), out.getvalue(), err.getvalue()

    cached = [outcome(argv) for argv in calls]
    assert [code for code, _, _ in cached] == [1, 0, 1, 0, 0, 1, 0]
    build_uncached = cli_module._build_parser.__wrapped__
    fresh = []
    for argv in calls:
        parser = build_uncached()
        monkeypatch.setattr(cli_module, "_build_parser", lambda: parser)
        fresh.append(outcome(argv))
    assert cached == fresh


# ----------------------------------------------------------------------
# verify against the reference path


def test_verify_rejects_both_orientations_of_one_pair(tmp_path, capsys):
    instance = write(tmp_path, "c4.bt", four_cycle_bt())  # x0>y0, y0>x1, x1>y1, y1>x0
    path = tmp_path / "both.json"
    for arcs in (["x0>y0", "y0>x0"], ["y0>x0", "x0>y0"]):
        path.write_text(json.dumps({"fas": arcs}), encoding="utf-8")
        doc = run_json(capsys, ["verify", instance, "--fas", str(path)], expect=2)
        assert doc["reason"] == "arc y0>x0 is not in the instance"


def _mutated_certificate(rng: random.Random, graph) -> list:
    """Backward arcs of a random order, then dropped, foreign or repeated arcs."""
    order = list(graph.vertices())
    rng.shuffle(order)
    position = {v: p for p, v in enumerate(order)}
    tokens = [str(a) for a in graph.arcs() if position[a.tail] > position[a.head]]
    m, n = graph.m, graph.n
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("drop", "foreign", "same-side", "out-of-range", "repeat", "zeros", "bad"))
        if kind == "drop" and tokens:
            tokens.pop(rng.randrange(len(tokens)))
        elif kind == "foreign":  # reversed, or any cross pair: absent pairs are foreign too
            i, j = rng.randrange(m), rng.randrange(n)
            tokens.insert(rng.randint(0, len(tokens)), rng.choice((f"x{i}>y{j}", f"y{j}>x{i}")))
        elif kind == "same-side":
            tokens.insert(rng.randint(0, len(tokens)), f"x{rng.randrange(m)}>x{rng.randrange(m)}")
        elif kind == "out-of-range":
            tokens.insert(rng.randint(0, len(tokens)), rng.choice((f"x{m}>y0", f"y0>x{m + 3}", f"x0>y{n}")))
        elif kind == "repeat" and tokens:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(tokens))
        elif kind == "zeros" and tokens:
            t = tokens.pop(rng.randrange(len(tokens)))
            tokens.insert(rng.randint(0, len(tokens)), t[0] + "0" + t[1:].replace(">", ">0", 1))
        elif kind == "bad" and rng.random() < 0.3:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(("x0y1", "x0>>y1", "z0>y1", "x0>")))
    return tokens


def test_verify_matches_the_reference_on_mutated_certificates(tmp_path):
    rng = random.Random(12)
    outcomes, reasons = collections.Counter(), set()
    for trial in range(500):
        side = 6 if trial % 2 else 9
        graph = random_digraph(rng, side, side) if trial % 5 == 0 else random_bt(GenSpec(side, side, trial))
        text = render_instance(graph)
        doc = {"fas": _mutated_certificate(rng, graph)}
        k = rng.choice((None, None, 1, 3, 40))
        instance, cert = tmp_path / "i.bt", tmp_path / "c.json"
        instance.write_text(text, encoding="utf-8")
        cert.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["verify", str(instance), "--fas", str(cert)] + ([] if k is None else ["--k", str(k)])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert (code, out.getvalue(), err.getvalue()) == verify_fas_reference(text, doc, k), doc
        outcomes[code] += 1
        if code == 2:
            reason = json.loads(out.getvalue())["reason"]
            reasons.add(next(r for r in ("not in the instance", "leaves a cycle", "exceed the bound") if r in reason))
    # Accepted, unparseable, and rejected for each kind of reason all occur.
    assert min(outcomes[code] for code in (0, 1, 2)) >= 20, outcomes
    assert reasons == {"not in the instance", "leaves a cycle", "exceed the bound"}

    # Wider: sides up to 40, tokens at m and n, zero padding, mixed line ends and blanks.
    rng, outcomes = random.Random(13), collections.Counter()
    for trial in range(200):
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        graph = random_digraph(rng, m, n) if trial % 4 == 0 else random_bt(GenSpec(m, n, trial))
        text = _mixed_text(rng, render_instance(graph).splitlines())
        tokens = _mutated_certificate(rng, graph)
        for _ in range(rng.randint(0, 3)):
            tokens.insert(rng.randint(0, len(tokens)), rng.choice((f"x{m}>y0", f"y{n}>x{m - 1}", f"x0>y{n}")))
        pad = "0" * rng.randint(1, 3)
        padded = [t.replace("x", "x" + pad).replace("y", "y" + pad) for t in tokens]
        doc = {"fas": [p if rng.random() < 0.2 else t for t, p in zip(tokens, padded)]}
        k = rng.choice((None, 5, 200))
        instance.write_text(text, encoding="utf-8")
        cert.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["verify", str(instance), "--fas", str(cert)] + ([] if k is None else ["--k", str(k)])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert (code, out.getvalue(), err.getvalue()) == verify_fas_reference(text, doc, k), doc
        outcomes[code] += 1
    assert min(outcomes[code] for code in (0, 1, 2)) >= 10, outcomes


def test_verify_packing_matches_the_reference_on_candidate_lists(tmp_path, capsys):
    rng = random.Random(31)
    graphs = list(enumerate_bt(2, 3))
    graphs += [random_digraph(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(40)]
    instance, cert = tmp_path / "i.bt", tmp_path / "c.json"
    reasons = set()
    for graph in graphs:
        instance.write_text(render_instance(graph), encoding="utf-8")
        genuine = all_4cycles(graph)
        for _ in range(4):
            # Cycles the certificate format can carry: four non-negative vertices.
            cycles = [
                c
                for c in candidate_packing(rng, graph, genuine)
                if len(c.vertices) == 4 and min(v.index for v in c.vertices) >= 0
            ]
            k = rng.choice((None, 0, 1, 2, 4))
            doc = {"packing": [[str(v) for v in c.vertices] for c in cycles]}
            cert.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["verify", str(instance), "--packing", str(cert)] + ([] if k is None else ["--k", str(k)])
            reason = check_packing_reference(graph, cycles, k)
            assert run_json(capsys, argv, expect=0 if reason is None else 2).get("reason") == reason
            reasons.add(reason and next(r for r in PACKING_REASONS if r in reason))
    assert reasons == {None, *PACKING_REASONS}, reasons
