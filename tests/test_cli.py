import json
import pathlib
import random

import pytest

from btfas import build, xv, yv
from btfas.cli import (
    InstanceFormatError,
    parse_arc,
    parse_instance,
    parse_vertex,
    render_instance,
    run,
)

from helpers import four_cycle_bt, random_digraph, six_cycle

GOLDEN = pathlib.Path(__file__).parent / "golden"


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


def test_gen_rejects_a_negative_count(tmp_path, capsys):
    prefix = str(tmp_path / "neg-")
    assert run(["gen", "--m", "2", "--n", "2", "--count", "-1", "--out", prefix]) == 1
    assert "--count" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_oversized_header_exits_1_before_allocating(tmp_path, capsys, monkeypatch):
    import btfas.cli as cli_module

    def no_build(*args):
        raise AssertionError("an oversized instance reached build")

    monkeypatch.setattr(cli_module, "build", no_build)
    huge = tmp_path / "huge.bt"
    for header in ("p bt 1000000000 1000000000", "p bt 8192 8193"):
        huge.write_text(f"{header}\na x0 y0\n", encoding="utf-8")
        assert run(["fas-c4free", str(huge)]) == 1
        assert "cross pairs" in capsys.readouterr().err


def test_precondition_violations_exit_2(tmp_path, capsys):
    incomplete = write(tmp_path, "inc.bt", build(2, 2, [(xv(0), yv(0))]))
    assert run(["solve", incomplete, "--k", "1"]) == 2
    has_cycle = write(tmp_path, "c4.bt", four_cycle_bt())
    assert run(["fas-c4free", has_cycle]) == 2
    big = write(tmp_path, "big.bt", build(12, 11, []))
    assert run(["oracle", big, "--min-fas"]) == 2
    capsys.readouterr()


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
    assert len(doc["checks"]) == 5
