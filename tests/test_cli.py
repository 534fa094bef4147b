import argparse
import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from extalg import algebra, cli
from extalg.algebra import AlgebraError, monomial_quiver_algebra
from extalg.cli import (SCHEMA_VERSION, Workspace, WorkspaceError,
                        emit_builtin_examples, load, main, run)
from extalg.gorenstein import GorensteinError
from extalg.linalg import FieldSpec, LinalgError
from extalg.morita import MoritaError
from extalg.structure import StructureError
from extalg.trivext import TrivextError

# the report digests recorded for the benchmark's CLI workload
CLI_DIGESTS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "cli_digests.json"
README_COMMANDS = (
    ("validate",), ("check", "gp"), ("check", "gi"), ("check", "gf"),
    ("verify", "cor35"), ("verify", "cor45"), ("verify", "cor48"),
    ("verify", "thm52"), ("verify", "thm53"), ("verify", "thm54"),
    ("resolve", "pair", "--window", "3"),
    ("resolve", "copair", "--window", "3"),
)


@pytest.fixture(scope="module")
def corpus():
    return emit_builtin_examples()


@pytest.fixture(scope="module")
def ws(corpus):
    return Workspace(copy.deepcopy(corpus))


def default_args(**over):
    base = dict(target=None, bound=None, seed=0, window=2, out=None)
    base.update(over)
    return argparse.Namespace(**base)


def test_corpus_counts(ws):
    counts = ws.counts()
    assert counts["algebras"] == 3
    assert counts["extensions"] == 2
    assert counts["morita_contexts"] == 3
    assert counts["pairs"] == 3
    assert counts["copairs"] == 2
    assert counts["right_pairs"] == 1
    assert sum(counts.values()) >= 5


def test_corpus_content(ws):
    assert ws.extensions["triangular"].total.dim == 3
    assert ws.extensions["d"].total.dim == 2
    assert ws.contexts["nakayama4"].total.dim == 4
    assert ws.contexts["hereditary3"].total.dim == 3
    assert ws.contexts["product2"].total.dim == 2
    assert ws.algebras["k3"].field.p == 3


def test_load_validates_only_the_workspace_algebras(corpus, monkeypatch):
    # opposites, products, extension totals and Morita rings are built from
    # validated parts and are not checked again
    validated = []
    check = algebra.validate_algebra
    monkeypatch.setattr(algebra, "validate_algebra",
                        lambda a: validated.append(a) or check(a))
    Workspace(copy.deepcopy(corpus))
    assert len(validated) == len(corpus["algebras"]) == 3


def test_cli_import_leaves_sympy_unloaded():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, extalg.cli; print('sympy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True)
    assert out.stdout.strip() == "False"


def test_emit_load_round_trip(tmp_path, corpus):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(corpus))
    loaded = load(str(path))
    assert loaded.counts() == Workspace(copy.deepcopy(corpus)).counts()


def test_schema_version_required(corpus):
    bad = copy.deepcopy(corpus)
    bad["schema_version"] = 99
    with pytest.raises(WorkspaceError):
        Workspace(bad)


def test_error_names_entity(corpus):
    bad = copy.deepcopy(corpus)
    bad["pairs"]["broken"] = {"extension": "d", "x": "missing",
                              "alpha": [[0]]}
    with pytest.raises(WorkspaceError, match="pair"):
        Workspace(bad)
    bad2 = copy.deepcopy(corpus)
    bad2["algebras"]["oops"] = {"structure_constants": [[[1], [1]]],
                                "unit": [1]}
    with pytest.raises(WorkspaceError, match="oops"):
        Workspace(bad2)


def test_unknown_references_name_both_entities(corpus):
    bad = copy.deepcopy(corpus)
    bad["pairs"]["broken"] = {"extension": "d", "x": "missing",
                              "alpha": [[0]]}
    with pytest.raises(WorkspaceError,
                       match="^pair 'broken': unknown module 'missing'$"):
        Workspace(bad)
    bad2 = copy.deepcopy(corpus)
    del bad2["tuples"]["nakayama_zero_tuple"]["x"]
    with pytest.raises(WorkspaceError,
                       match="^tuple 'nakayama_zero_tuple': missing key 'x'$"):
        Workspace(bad2)


@pytest.mark.parametrize("content, named", [
    (None, "absent.json"),
    (b"\xff\xfe{}", "ws.json"),
    (b"[1, 2]", "ws.json"),
    ({"field": 5}, "field"),
    ({"field": {"p": "x"}}, "field.p"),
    ({"field": {"p": 4}}, "field.p"),
    ({"field": {"p": 70000}}, "field.p"),
    ({"field": {"p": 2.9}}, "field.p: expected an integer, got 2.9"),
    ({"field": {"p": "3"}}, 'field.p: expected an integer, got "3"'),
    ({"field": {"p": True}}, "field.p: expected an integer, got true"),
    ({"algebras": {"k3": {"p": 3.0, "structure_constants": [[[1]]],
                          "unit": [1]}}},
     "algebra 'k3': p: expected an integer, got 3.0"),
    ({"algebras": {"k3": {"p": "3", "structure_constants": [[[1]]],
                          "unit": [1]}}},
     "algebra 'k3': p: expected an integer"),
    ({"algebras": []}, "algebras"),
], ids=["missing", "not_utf8", "list", "field_int", "p_text", "p_composite",
        "p_too_large", "p_float", "p_numeric_text", "p_bool",
        "algebra_p_float", "algebra_p_text", "algebras_list"])
def test_bad_workspace_exits_2_naming_the_fault(tmp_path, capsys, corpus,
                                                content, named):
    # content: raw bytes, or keys that replace those of the built-in corpus
    path = tmp_path / ("absent.json" if content is None else "ws.json")
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(json.dumps({**corpus, **content}))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_run_validate(ws):
    report = run("validate", ws, default_args())
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["entities"]["pairs"] == 3


def test_run_check_and_verify(ws):
    gp = run("check gp", ws, default_args())
    assert gp["results"]["d_regular_pair"]["answer"] == "certified_yes"
    assert gp["results"]["zk_over_d"]["answer"] == "certified_yes"
    gi = run("check gi", ws, default_args())
    assert gi["results"]["d_regular_copair"]["answer"] == "certified_yes"
    gf = run("check gf", ws, default_args())
    assert gf["results"]["d_regular_right_pair"]["answer"] == "certified_yes"
    v35 = run("verify cor35", ws, default_args())
    assert v35["results"]["tri_regular_pair"]["classification"] == "agree"
    assert v35["results"]["zk_over_d"]["classification"] == "consistent"
    v52 = run("verify thm52", ws, default_args())
    for rep in v52["results"].values():
        assert rep["classification"] != "violation"


def test_run_resolve(ws):
    rep = run("resolve pair", ws, default_args(target="d_regular_pair"))
    result = rep["results"]["d_regular_pair"]
    assert result["validation"]["window_exact"]
    assert result["validation"]["terms_projective"]
    rep2 = run("resolve copair", ws, default_args(target="d_regular_copair"))
    assert rep2["results"]["d_regular_copair"]["validation"]["window_exact"]


def test_run_unknown_target(ws):
    with pytest.raises(WorkspaceError, match="nope"):
        run("check gp", ws, default_args(target="nope"))


def test_run_deterministic(corpus):
    payloads = []
    for _ in range(2):
        fresh = Workspace(copy.deepcopy(corpus))
        report = run("verify cor35", fresh, default_args())
        payloads.append(json.dumps(report, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_main_end_to_end(tmp_path, capsys):
    ws_path = tmp_path / "ws.json"
    out_path = tmp_path / "report.json"
    assert main(["examples", "emit", "--out", str(ws_path)]) == 0
    assert main(["validate", str(ws_path), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert "timing_ms" in report and report["command"] == "validate"
    assert main(["check", "gp", str(ws_path), "--target", "zk_over_d",
                 "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["results"]["zk_over_d"]["regime"] == "self_injective"


def test_main_reports_errors(tmp_path, capsys):
    ws_path = tmp_path / "ws.json"
    assert main(["examples", "emit", "--out", str(ws_path)]) == 0
    code = main(["check", "gp", str(ws_path), "--target", "missing"])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing" in err
    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{not json")
    assert main(["validate", str(bad_path)]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["check", "gp", "--bound", "-3"], "--bound"),
    (["check", "gp", "--seed", "-1"], "--seed"),
    (["resolve", "pair", "--window", "0"], "--window"),
    (["resolve", "pair", "--window", "-2"], "--window"),
])
def test_main_rejects_out_of_range_flags(tmp_path, capsys, argv, flag):
    ws_path = tmp_path / "ws.json"
    assert main(["examples", "emit", "--out", str(ws_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv[:2] + [str(ws_path)] + argv[2:])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_reports_match_recorded_digests(tmp_path):
    ws_path = tmp_path / "ws.json"
    out_path = tmp_path / "report.json"
    assert main(["examples", "emit", "--out", str(ws_path)]) == 0
    got = {}
    for command in README_COMMANDS:
        argv = list(command[:2]) + [str(ws_path)] + list(command[2:])
        assert main(argv + ["--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        report.pop("timing_ms")
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
        got[" ".join(command[:2])] = hashlib.sha256(
            payload.encode("utf-8")).hexdigest()
    assert got == json.loads(CLI_DIGESTS.read_text())


def nakayama_workspace(path):
    """The cyclic Nakayama algebra N(3,3) over GF(101), extended by the zero
    bimodule, with the pair of its regular module."""
    arrows = [[0, 1], [1, 2], [2, 0]]
    relations = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    n = monomial_quiver_algebra(3, arrows, relations, FieldSpec(101))
    path.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION, "field": {"p": 101},
        "algebras": {"n33": {"quiver": {"vertices": 3, "arrows": arrows,
                                        "zero_relations": relations}}},
        "bimodules": {"zero": {"left_over": "n33", "right_over": "n33",
                               "left_action": [[]] * n.dim,
                               "right_action": [[]] * n.dim}},
        "modules": {"reg": {"over": "n33",
                            "action": [m.arr.tolist() for m in n.lmats]}},
        "extensions": {"e": {"base": "n33", "bimodule": "zero"}},
        "pairs": {"reg_pair": {"extension": "e", "x": "reg",
                               "alpha": [[]] * n.dim}},
    }))


def test_library_error_exits_2_naming_the_instance(tmp_path, capsys):
    # N(3,3) over GF(101) once raised StructureError from inside the
    # decider; its regular module is projective over a self-injective
    # algebra
    path = tmp_path / "n33.json"
    out = tmp_path / "report.json"
    nakayama_workspace(path)
    assert main(["check", "gp", str(path), "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())["results"]["reg_pair"]
    assert verdict["answer"] == "certified_yes"
    assert verdict["regime"] == "self_injective"
    assert verdict["certificate"] == {"reason": "projective"}


@pytest.mark.parametrize("error", [AlgebraError, LinalgError, StructureError,
                                   TrivextError, GorensteinError,
                                   MoritaError])
def test_every_library_error_exits_2(tmp_path, capsys, monkeypatch, error):
    def fail(*args):
        raise error("boom")
    monkeypatch.setattr(cli, "gp_check", fail)
    ws_path = tmp_path / "ws.json"
    assert main(["examples", "emit", "--out", str(ws_path)]) == 0
    assert main(["check", "gp", str(ws_path)]) == 2
    assert capsys.readouterr().err == "error: pair 'd_regular_pair': boom\n"
