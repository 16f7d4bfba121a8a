import json
from pathlib import Path

import pytest

from mananets import cli
from mananets.cli import main

ATP_DOC = """\
{
  "marking": {
    "ATP": 2,
    "H2O": 1
  },
  "places": [
    "ADP",
    "ATP",
    "H2O",
    "Pi"
  ],
  "transitions": {
    "hydrolysis": {
      "post": {
        "ADP": 1,
        "Pi": 1
      },
      "pre": {
        "ATP": 1,
        "H2O": 1
      }
    }
  }
}
"""

ABC_DSL = """\
u: A + B -> C mana: consume 1
marking: A + B
pool: u=2
"""


@pytest.fixture
def atp_path(tmp_path):
    path = tmp_path / "atp.json"
    path.write_text(ATP_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def abc_path(tmp_path):
    path = tmp_path / "abc.crn"
    path.write_text(ABC_DSL, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, atp_path):
    code, out, _ = run(capsys, "validate", atp_path)
    assert code == 0
    assert json.loads(out) == {"violations": []}


def test_validate_reports_and_fails(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"places": ["A"], "transitions": '
                    '{"u": {"pre": {"X": 1}, "post": {}}}}', encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["violations"][0]["kind"] == "unknown-place"


def test_fire(capsys, atp_path):
    code, out, _ = run(capsys, "fire", atp_path, "--transition", "hydrolysis")
    assert code == 0
    assert json.loads(out) == {"marking": {"ADP": 1, "ATP": 1, "Pi": 1}}


def test_fire_not_enabled(capsys, tmp_path):
    path = tmp_path / "dry.crn"
    path.write_text("u: A -> B\nmarking: 0", encoding="utf-8")
    code, out, err = run(capsys, "fire", str(path), "--transition", "u")
    assert code == 1
    assert "not enabled" in err


def test_run_lex_is_deterministic(capsys, atp_path):
    code, out, _ = run(capsys, "run", atp_path, "--steps", "3")
    assert code == 0
    first = json.loads(out)
    code, out, _ = run(capsys, "run", atp_path, "--steps", "3")
    assert json.loads(out) == first
    assert first["steps"] == ["hydrolysis"]
    assert first["final"] == {"ADP": 1, "ATP": 1, "Pi": 1}


def test_run_seeded_reproducible(capsys, atp_path):
    code, out1, _ = run(capsys, "run", atp_path, "--steps", "3", "--seed", "7")
    code, out2, _ = run(capsys, "run", atp_path, "--steps", "3", "--seed", "7")
    assert out1 == out2


def test_run_mana_mode(capsys, abc_path):
    code, out, _ = run(capsys, "run", abc_path, "--steps", "5", "--mana")
    assert code == 0
    result = json.loads(out)
    assert result["steps"] == ["u"]
    assert result["final"] == {"marking": {"C": 1}, "pool": {"u": 1}}


def test_run_seed_conflicts_with_policy(capsys, atp_path):
    with pytest.raises(SystemExit) as err:
        main(["run", atp_path, "--steps", "1", "--seed", "1", "--policy", "lex"])
    assert err.value.code == 2


def test_reach_output(capsys, atp_path):
    code, out, _ = run(capsys, "reach", atp_path, "--depth", "3", "--max-tokens", "10")
    assert code == 0
    graph = json.loads(out)
    assert len(graph["nodes"]) == 2
    assert graph["edges"] == [[1, "hydrolysis", 0]]
    assert graph["truncated"] is False


def test_internalize_externalize_inverse(capsys, abc_path, tmp_path):
    built_path = str(tmp_path / "built.json")
    code, out, _ = run(capsys, "internalize", abc_path, "-o", built_path)
    assert code == 0 and out == ""
    built = json.loads(Path(built_path).read_text(encoding="utf-8"))
    assert "mana:u" in built["places"]
    assert built["marking"] == {"A": 1, "B": 1, "mana:u": 2}

    code, out, _ = run(capsys, "externalize", built_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["places"] == ["A", "B", "C"]
    assert doc["mana"] == {"u": {"consume": 1, "produce": {}}}
    assert doc["marking"] == {"A": 1, "B": 1}
    assert doc["pool"] == {"u": 2}


def test_externalize_rejects_policy_documents(capsys, abc_path):
    code, _, err = run(capsys, "externalize", abc_path)
    assert code == 2
    assert "mana block" in err


def test_externalize_flags_unlabelled_nets(capsys, atp_path):
    code, _, err = run(capsys, "externalize", atp_path)
    assert code == 1
    assert "mana place" in err


def test_check_laws_all_pass(capsys, abc_path):
    code, out, _ = run(capsys, "check-laws", abc_path, "--samples", "8", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 5 and report["samples"] == 8
    assert report["notes"]
    assert {entry["law"] for entry in report["laws"]} >= {
        "left-counit", "right-counit", "coassociativity", "identity",
        "composition", "laxator-naturality"}
    assert all(entry["status"] == "pass" for entry in report["laws"])


def test_check_laws_single_mode(capsys, abc_path):
    code, out, _ = run(capsys, "check-laws", abc_path, "--functor",
                       "--samples", "5", "--seed", "1")
    assert code == 0
    laws = {entry["law"] for entry in json.loads(out)["laws"]}
    assert laws == {"identity", "composition"}


def test_equiv(capsys, abc_path):
    code, out, _ = run(capsys, "equiv", abc_path, "--depth", "5", "--max-tokens", "12")
    assert code == 0
    report = json.loads(out)
    assert report["isomorphic"] is True
    assert report["ext_nodes"] == report["int_nodes"]


def test_export_dot(capsys, abc_path, tmp_path):
    out_path = tmp_path / "net.dot"
    code, _, _ = run(capsys, "export-dot", abc_path, "-o", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert dot.startswith("digraph net {")
    assert '"u" [shape=box];' in dot


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2
    assert "cannot read" in err


def test_malformed_document_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"places": [], "transitions": {}, "wat": 1}', encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "unknown key" in err


def test_unknown_flag_is_usage_error(atp_path):
    with pytest.raises(SystemExit) as err:
        main(["validate", atp_path, "--frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["check-laws", "--samples", "-3"],
    ["reach", "--depth", "-1", "--max-tokens", "4"],
    ["reach", "--depth", "3", "--max-tokens", "-1"],
    ["equiv", "--depth", "-1", "--max-tokens", "4"],
    ["equiv", "--depth", "3", "--max-tokens", "-2"],
    ["run", "--steps", "-2"],
])
def test_negative_bound_is_usage_error(capsys, abc_path, argv):
    with pytest.raises(SystemExit) as err:
        main([argv[0], abc_path, *argv[1:]])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must not be negative" in captured.err


def test_zero_bounds_are_valid(capsys, abc_path):
    assert run(capsys, "check-laws", abc_path, "--samples", "0")[0] == 0
    assert run(capsys, "run", abc_path, "--steps", "0")[0] == 0
    code, out, _ = run(capsys, "reach", abc_path, "--depth", "0", "--max-tokens", "0")
    assert code == 0 and json.loads(out)["nodes"] == [{"A": 1, "B": 1}]
    assert run(capsys, "equiv", abc_path, "--depth", "0", "--max-tokens", "0")[0] == 0


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, argv", [
    ("ring6", ["reach", "--depth", "4", "--max-tokens", "6"]),
    ("ring6", ["equiv", "--depth", "8", "--max-tokens", "12"]),
    ("ring6", ["check-laws", "--samples", "5", "--seed", "0"]),
    ("loop", ["reach", "--depth", "12", "--max-tokens", "8"]),
    ("loop", ["equiv", "--depth", "10", "--max-tokens", "10"]),
    ("loop", ["check-laws", "--samples", "5", "--seed", "0"]),
    ("ring6", ["run", "--steps", "12", "--seed", "3"]),
    ("loop", ["run", "--steps", "12", "--seed", "3", "--mana"]),
])
def test_golden_output(capsys, name, argv):
    """Stdout is byte for byte what the checked-in file holds."""
    code, out, err = run(capsys, argv[0], str(DATA / f"{name}.json"), *argv[1:])
    assert (code, err) == (0, "")
    assert out == (DATA / f"{name}.{argv[0]}.json").read_bytes().decode("utf-8")


def test_golden_check_laws_with_repeated_morphisms(capsys):
    """25 samples at seed 7 draw 19 distinct morphisms out of the loop net."""
    code, out, err = run(capsys, "check-laws", str(DATA / "loop.json"),
                         "--samples", "25", "--seed", "7")
    assert (code, err) == (0, "")
    assert out == (DATA / "loop.check-laws-25.json").read_bytes().decode("utf-8")


DANGLING_DOC = ('{"places": ["A"], "transitions": {"u": {"pre": {"B": 1}, "post": {}}}, '
                '"marking": {"A": 1}}')


@pytest.mark.parametrize("argv", [
    ["equiv", "--depth", "3", "--max-tokens", "4"],
    ["internalize"],
    ["check-laws", "--samples", "3"],
    ["reach", "--depth", "3", "--max-tokens", "4"],
])
def test_malformed_net_is_document_error(capsys, tmp_path, argv):
    path = tmp_path / "dangling.json"
    path.write_text(DANGLING_DOC, encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "mananets: net is not well formed: unknown-place B (pre of u)\n"


@pytest.mark.parametrize("suffix, text, where", [
    (".json", '{"places": ["A"], "transitions": {"u": {"pre": {"A": 1}, "post": {}}}, '
              '"mana": {"u": {"consume": 9223372036854775808}}, "marking": {"A": 1}}',
     "at $.mana.u.consume"),
    (".crn", "u: A -> 0 mana: consume 9223372036854775808\nmarking: A\n",
     "at line 1, col 25"),
], ids=["json", "dsl"])
@pytest.mark.parametrize("argv", [
    ["equiv", "--depth", "2", "--max-tokens", "3"],
    ["internalize"],
    ["check-laws", "--samples", "2"],
    ["run", "--mana", "--steps", "2"],
    ["validate"],
])
def test_oversized_consume_is_document_error(capsys, tmp_path, suffix, text, where, argv):
    path = tmp_path / f"big{suffix}"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"mananets: 'consume' exceeds the bound: 9223372036854775808 {where}\n"


@pytest.mark.parametrize("suffix, text, where", [
    (".json", '{"places": ["A"], "transitions": '
              '{"u": {"pre": {"A": 9223372036854775808}, "post": {}}}}',
     "'A' exceeds the bound: 9223372036854775808 at $.transitions.u.pre.A"),
    (".crn", "u: 9223372036854775808 A -> B\n",
     "'A' exceeds the bound: 9223372036854775808 at line 1, col 4"),
    (".crn", "u: A -> B\npool: u=9223372036854775808\n",
     "'u' exceeds the bound: 9223372036854775808 at line 2, col 9"),
], ids=["json-arc", "dsl-arc", "dsl-pool"])
@pytest.mark.parametrize("argv", [
    ["reach", "--depth", "1", "--max-tokens", "3"],
    ["check-laws", "--samples", "2"],
    ["validate"],
])
def test_oversized_count_is_document_error_with_location(capsys, tmp_path, suffix, text,
                                                         where, argv):
    path = tmp_path / f"big{suffix}"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"mananets: count for {where}\n"


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out


def test_parser_is_built_once_and_reused(capsys, atp_path, abc_path):
    sequence = [
        ["check-laws", abc_path, "--samples", "3", "--seed", "2", "--comonad"],
        ["check-laws", abc_path, "--samples", "3", "--seed", "2"],
        ["run", atp_path, "--steps", "3", "--seed", "1"],
        ["run", atp_path, "--steps", "3", "--policy", "lex"],
        ["run", atp_path, "--steps", "3", "--seed", "1", "--policy", "lex"],
        ["reach", atp_path, "--depth", "3", "--max-tokens", "10"],
    ]
    alone = []
    for argv in sequence:
        cli._parser.cache_clear()
        alone.append(outcome(capsys, argv))
    assert [code for code, _ in alone] == [0, 0, 0, 0, 2, 0]

    cli._parser.cache_clear()
    together = [outcome(capsys, argv) for argv in sequence]
    assert together == alone
    assert cli._parser() is cli._parser()
