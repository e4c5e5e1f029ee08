"""Document round-trips and the command surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gkm.cli import main
from gkm.corpus import corpus, corpus_names
from gkm.errors import ParseError, ValidationError
from gkm.jsonio import dumps, graph_to_document, loads, parse_rational


@pytest.fixture()
def cp3_file(tmp_path):
    inst = corpus("cp3-k4")
    path = tmp_path / "cp3-k4.json"
    path.write_text(dumps(inst.graph, inst.xi), encoding="utf-8")
    return path


# -- parsing --------------------------------------------------------------------

def test_parse_rational_forms():
    """A rational is read as its int numerator and denominator, as written."""
    assert parse_rational("3/4", "x") == (3, 4)
    assert parse_rational("6/4", "x") == (6, 4)
    assert parse_rational("-2", "x") == (-2, 1)
    assert parse_rational(5, "x") == (5, 1)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_rational("1/0", "x")


def test_parse_rational_rejects_floats_and_garbage():
    with pytest.raises(ParseError):
        parse_rational(0.5, "x")
    with pytest.raises(ParseError):
        parse_rational("1.5", "x")


def test_round_trip_document():
    inst = corpus("flag-su3")
    doc = graph_to_document(inst.graph, inst.xi)
    graph, xi, report = loads(json.dumps(doc))
    assert graph_to_document(graph, xi) == doc
    assert report.ok


def test_loads_rejects_missing_keys():
    with pytest.raises(ParseError):
        loads(json.dumps({"rank": 2, "valence": 3, "vertices": []}))


def test_loads_rejects_invalid_graph():
    # Break moment compatibility: reverse one weight.
    doc = graph_to_document(corpus("cp3-k4").graph)
    doc["edges"][0]["weight"] = ["-1", "0"]
    with pytest.raises(ValidationError) as err:
        loads(json.dumps(doc))
    failed = {c.name for c in err.value.report if not c.ok}
    assert "moment-compatibility" in failed


# Integers longer than Python converts from text, inside a rational string
# and as a bare JSON number; the latter cannot go through json.dumps.
LIMIT = 4300
LONG = "7" * (LIMIT + 1)


@pytest.fixture()
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LIMIT)
    yield
    sys.set_int_max_str_digits(old)


def _long_integer_document(bare: bool) -> str:
    doc = graph_to_document(corpus("cp3-k4").graph)
    doc["vertices"][1]["mu"][0] = "LONG"
    return json.dumps(doc).replace('"LONG"', LONG if bare else f'"{LONG}/3"')


@pytest.mark.parametrize("bare", [False, True])
def test_loads_rejects_overlong_integer(digit_limit, bare):
    with pytest.raises(ParseError, match=r"vertices\[1\]\.mu\[0\]: integer of 4301 digits"):
        loads(_long_integer_document(bare))


@pytest.mark.parametrize("bare", [False, True])
def test_report_overlong_integer_exits_1(digit_limit, bare, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(_long_integer_document(bare), encoding="utf-8")
    assert main(["report", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vertices[1].mu[0]" in captured.err
    assert "Traceback" not in captured.err


# -- commands -------------------------------------------------------------------

def test_validate_command(cp3_file, capsys):
    assert main(["validate", str(cp3_file)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


@pytest.mark.parametrize("argv", [["validate"], ["report", "--json"]])
def test_commands_validate_the_graph_once(cp3_file, argv, monkeypatch, capsys):
    from gkm.graph import GkmGraph

    calls = []
    validate = GkmGraph.validate
    monkeypatch.setattr(GkmGraph, "validate",
                        lambda self: calls.append(self) or validate(self))
    assert main([argv[0], str(cp3_file), *argv[1:]]) == 0
    assert len(calls) == 1
    if argv[0] == "report":
        payload = json.loads(capsys.readouterr().out)
        assert payload["validation"] == validate(calls[0]).to_jsonable()


def test_report_command_text(cp3_file, capsys):
    assert main(["report", str(cp3_file)]) == 0
    out = capsys.readouterr().out
    assert "moment-image type  : (a)" in out
    assert "hard Lefschetz     : True" in out


def test_report_command_json(cp3_file, capsys):
    assert main(["report", str(cp3_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["type"]["label"] == "a"
    assert payload["report"]["hard_lefschetz"] is True
    assert payload["report"]["ok"] is True
    assert payload["xi"] == ["1", "3"]
    assert payload["xi_source"] == "document"


def test_report_command_not_generic_xi(cp3_file, capsys):
    code = main(["report", str(cp3_file), "--xi", "0,1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "orthogonal" in err


def test_report_searches_xi_when_absent(tmp_path, capsys):
    inst = corpus("tol-d")
    path = tmp_path / "tol.json"
    path.write_text(dumps(inst.graph), encoding="utf-8")  # no xi recorded
    assert main(["report", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["xi_source"] == "search"
    assert payload["report"]["hard_lefschetz"] is True


def test_render_command_deterministic(cp3_file, tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert main(["render", str(cp3_file), "-o", str(out1)]) == 0
    assert main(["render", str(cp3_file), "-o", str(out2)]) == 0
    capsys.readouterr()
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    text = data1.decode()
    assert text.startswith("<svg")
    assert "<polygon" in text  # hull shading and arrowheads
    assert "xi = (1, 3)" in text


def test_render_prints_exact_coordinates(monkeypatch):
    """Every printed number reaches the formatter as an int or a Fraction,
    also for a single vertex, whose picture has no extent."""
    from fractions import Fraction

    from gkm import render
    from gkm.graph import GkmGraph, Vertex, orient
    from gkm.polynomial import Vector

    printed = []
    real = render._fmt
    monkeypatch.setattr(render, "_fmt", lambda value: printed.append(value) or real(value))
    inst = corpus("tol-d")
    point = GkmGraph(2, 0, [Vertex("o", Vector((1, 2)))], [])
    for graph, xi in ((inst.graph, inst.xi), (point, Vector((1, 3)))):
        text = render.render_svg(graph, orient(graph, xi), title="t")
        assert text.startswith("<svg")
    assert printed and {type(v) for v in printed} <= {int, Fraction}
    assert [real(v) for v in (Fraction(-1, 200), Fraction(1, 200), Fraction(3, 200),
                              Fraction(-2049, 4), 0)] == [
        "0.00", "0.00", "0.02", "-512.25", "0.00"]


@pytest.mark.parametrize("given", ["flag", "document"])
def test_render_non_generic_xi_exits_1(given, tmp_path, capsys):
    """A covector the user gave, by --xi or in the document, that is not
    generic exits 1 as `report` does, instead of drawing unoriented."""
    inst = corpus("cp3-k4")
    doc = graph_to_document(inst.graph, inst.xi)
    if given == "document":
        doc["xi"] = ["0", "0"]
    path, out = tmp_path / "cp3-k4.json", tmp_path / "m.svg"
    path.write_text(json.dumps(doc), encoding="utf-8")
    flag = ["--xi", "0,0"] if given == "flag" else []
    assert main(["render", str(path), "-o", str(out), *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: xi is orthogonal")
    assert not out.exists()


def test_render_draws_unoriented_when_the_search_finds_nothing(tmp_path, monkeypatch,
                                                               capsys):
    inst = corpus("cp3-k4")
    path, out = tmp_path / "cp3-k4.json", tmp_path / "m.svg"
    path.write_text(dumps(inst.graph), encoding="utf-8")  # no xi recorded
    monkeypatch.setattr("gkm.cli.find_index_increasing_xi", lambda graph, count=1: [])
    assert main(["render", str(path), "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    text = out.read_text(encoding="utf-8")
    assert text.startswith("<svg") and "xi = " not in text


def test_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    for name in ("cp3-k4", "flag-su3", "tol-d"):
        assert name in out


def test_corpus_materialize_round_trip(tmp_path, capsys):
    assert main(["corpus", "flag-su3"]) == 0
    doc_text = capsys.readouterr().out
    path = tmp_path / "flag.json"
    path.write_text(doc_text, encoding="utf-8")
    assert main(["report", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["type"]["label"] == "f"


def test_corpus_unknown_name(capsys):
    assert main(["corpus", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown" in captured.err


def test_corpus_empty_name_is_unknown(capsys):
    assert main(["corpus", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown" in captured.err


def test_corpus_listing_closed_pipe_has_no_traceback():
    """`gkm corpus | head -1`: the reader leaves after one line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-u", "-m", "gkm.cli", "corpus"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"name")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1)
    assert "Traceback" not in err and "Error" not in err


def _unreadable_path(tmp_path, kind: str) -> Path:
    if kind == "missing":
        return tmp_path / "absent.json"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"rank": 2, "note": "\xe9"}')
    return path


@pytest.mark.parametrize("command", ["validate", "report", "render"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_document_exits_1(command, kind, tmp_path, capsys):
    path = _unreadable_path(tmp_path, kind)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("command, code", [("validate", 0), ("report", 1), ("render", 0)])
def test_a_document_with_no_vertices_exits_without_raising(command, code, tmp_path, capsys):
    """validate calls it valid; report fails at six-dim-scope and nowhere
    else, as a 3-valent moment graph has at least 4 vertices; render draws a
    picture with no points."""
    path = tmp_path / "empty.json"
    path.write_text('{"rank": 2, "valence": 3, "vertices": [], "edges": []}', encoding="utf-8")
    extra = ["-o", str(tmp_path / "empty.svg")] if command == "render" else []
    assert main([command, str(path), *extra]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if command == "render":  # one circle, the tip of the covector's margin arrow
        assert (tmp_path / "empty.svg").read_text(encoding="utf-8").count("<circle") == 1
    if command == "report":
        assert main(["report", str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["report"]["checks"] == [
            {"name": "six-dim-scope", "ok": False,
             "detail": "0 vertices; a 3-valent moment graph has at least 4"}]


def test_render_unwritable_output_exits_1(cp3_file, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.svg"
    assert main(["render", str(cp3_file), "-o", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}")


@pytest.mark.parametrize("command, xi, message", [
    pytest.param(command, xi, message, id=f"{command}-{xi}" if xi else command)
    for command in ("report", "render")
    for xi, message in (("", "--xi component 0: malformed rational ''"),
                        ("1,2,3", "error: vectors are planar (rank 2), got 3 components"),
                        ("1", "error: vectors are planar (rank 2), got 1 components"))
])
def test_empty_xi_flag_is_a_parse_error(command, xi, message, cp3_file, tmp_path, capsys):
    """A malformed --xi exits 1 before anything is drawn or reported,
    whether a component is not a rational or the vector is not planar."""
    extra = ["-o", str(tmp_path / "x.svg")] if command == "render" else []
    assert main([command, str(cp3_file), "--xi", xi, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "x.svg").exists()


_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize("name", corpus_names())
def test_report_json_matches_reference(name, tmp_path, capsys):
    """`gkm report --json` at the document covector, byte for byte against
    the recorded reference output (the document path aside)."""
    inst = corpus(name)
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(inst.graph, inst.xi), encoding="utf-8")
    xi = ",".join(str(c) for c in inst.xi)
    assert main(["report", str(path), "--xi", xi, "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((_REFERENCE / f"{name}.json").read_text(encoding="utf-8"))
    del got["file"], want["file"]
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)


def test_validate_reports_failures(tmp_path, capsys):
    doc = graph_to_document(corpus("cp3-k4").graph)
    doc["edges"][0]["weight"] = ["-1", "0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "moment-compatibility" in capsys.readouterr().out
