import contextlib
import io
import json
import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "-1", "--n", "2"],
        ["--m", "2", "--n", "-1", "--mode", "enumerate", "--out", "enum-"],
        ["--m", "1000000000", "--n", "1000000000"],
        ["--m", "8192", "--n", "8193", "--mode", "random-c4free"],
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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(instance=_INSTANCE, certificate=_CERTIFICATE, k=st.integers(-1, 3))
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
                assert json.loads(out.getvalue())["valid"] is False
