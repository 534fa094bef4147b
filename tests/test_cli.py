import argparse
import collections
import copy
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from conftest import _count_cover_builds
from extalg import algebra, cli
from extalg.algebra import (AlgebraError, Bimodule, LeftModule,
                            monomial_quiver_algebra, opposite_algebra,
                            tensor_bimodule_left)
from extalg.cli import (SCHEMA_VERSION, Workspace, WorkspaceError,
                        emit_builtin_examples, load, main, run)
from extalg.gorenstein import GorensteinError
from extalg.linalg import FieldSpec, FpMatrix, LinalgError
from extalg.morita import MoritaError
from extalg.structure import StructureError, simples
from extalg.trivext import TrivextError

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the report digests recorded for the benchmark's CLI workload
CLI_DIGESTS = ROOT / "perfbench" / "cli_digests.json"
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
    counts = ws.validate()
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
    # validated parts and are not checked again; loading alone validates
    # none, a command only those it reads (zk_over_d reads k2 alone)
    validated = []
    check = algebra.validate_algebra
    monkeypatch.setattr(algebra, "validate_algebra",
                        lambda a: validated.append(a) or check(a))
    ws = Workspace(copy.deepcopy(corpus))
    assert validated == []
    run("check gp", ws, default_args(target="zk_over_d"))
    assert len(validated) == 1
    ws.validate()
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
    assert loaded.validate() == Workspace(copy.deepcopy(corpus)).validate()


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
        Workspace(bad).validate()
    bad2 = copy.deepcopy(corpus)
    bad2["algebras"]["oops"] = {"structure_constants": [[[1], [1]]],
                                "unit": [1]}
    with pytest.raises(WorkspaceError, match="oops"):
        Workspace(bad2).validate()


def test_unknown_references_name_both_entities(corpus):
    bad = copy.deepcopy(corpus)
    bad["pairs"]["broken"] = {"extension": "d", "x": "missing",
                              "alpha": [[0]]}
    with pytest.raises(WorkspaceError,
                       match="^pair 'broken': unknown module 'missing'$"):
        Workspace(bad).validate()
    with pytest.raises(WorkspaceError,
                       match="^pair 'broken': unknown module 'missing'$"):
        run("check gp", Workspace(bad), default_args())
    bad2 = copy.deepcopy(corpus)
    del bad2["tuples"]["nakayama_zero_tuple"]["x"]
    with pytest.raises(WorkspaceError,
                       match="^tuple 'nakayama_zero_tuple': missing key 'x'$"):
        Workspace(bad2).validate()


def test_a_fault_is_named_by_the_entity_that_has_it(corpus):
    # the unit of k2 acts on m as 0; the pair that reads m does not name it
    bad = copy.deepcopy(corpus)
    bad["modules"]["m"] = {"over": "k2", "action": [[[0]]]}
    bad["pairs"]["p"] = {"extension": "d", "x": "m", "alpha": [[0]]}
    ws = Workspace(bad)
    with pytest.raises(WorkspaceError,
                       match="^module 'm': unit does not act as identity$"):
        run("check gp", ws, default_args(target="p"))


def test_a_command_does_not_fail_on_an_entity_it_does_not_read(
        tmp_path, capsys, corpus):
    # over the 4-dim Nakayama ring, f = g = 1 breaks both composite axioms
    bad = copy.deepcopy(corpus)
    bad["tuples"]["broken_tuple"] = {"context": "nakayama4", "x": "k_left",
                                     "y": "k_left", "f": [[1]], "g": [[1]]}
    good_path, bad_path = tmp_path / "good.json", tmp_path / "bad.json"
    good_path.write_text(json.dumps(corpus))
    bad_path.write_text(json.dumps(bad))
    reports = []
    for path in (good_path, bad_path):
        assert main(["check", "gp", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("timing_ms")
        reports.append(report)
    assert reports[0] == reports[1]
    assert main(["validate", str(bad_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: '{bad_path}': tuple 'broken_tuple': f o (U ox g) != 0\n")


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
    ({"algebras": {"q": {"quiver": {"vertices": 3, "arrows": [[0, 1]],
                                    "zero_relations": [[7]]}}}},
     "algebra 'q': relation [7]: no arrow 7 among the 1 arrows"),
    ({"algebras": {"q": {"quiver": {"vertices": 3,
                                    "arrows": [[0, 1], [1, 2]],
                                    "zero_relations": [[0, 9]]}}}},
     "algebra 'q': relation [0, 9]: no arrow 9"),
    ({"algebras": {"q": {"quiver": {"vertices": 3, "arrows": [[0, 3]]}}}},
     "algebra 'q': arrow 0 (0, 3): no vertex 3"),
    ({"algebras": {"q": {"quiver": {"vertices": 2, "arrows": [[0, 1]],
                                    "zero_relations": [[]]}}}},
     "algebra 'q': relation []: a zero relation is a path of at least one "
     "arrow"),
    ({"algebras": {"q": {"quiver": {"vertices": 0, "arrows": []}}}},
     "algebra 'q': quiver.vertices: need at least one vertex, got 0"),
    ({"algebras": {"k": {"structure_constants": [[[1]]], "unit": [1]}},
      "bimodules": {"m": {"left_over": "k", "right_over": "k",
                          "left_action": [[[1]]],
                          "right_action": [[[1, 0], [0, 1]]]}}},
     "bimodule 'm': left action is 1-dimensional but right action is "
     "2-dimensional"),
    ({"algebras": {"q": {"quiver": {"vertices": 2,
                                    "arrows": [[0, 1], [1, 0]],
                                    "zero_relations": [[True, False]]}}}},
     "algebra 'q': quiver.zero_relations: expected an integer, got true"),
    ({"algebras": {"q": {"quiver": {"vertices": 2.9,
                                    "arrows": [[0, 1]]}}}},
     "algebra 'q': quiver.vertices: expected an integer, got 2.9"),
    ({"algebras": {"q": {"quiver": {"vertices": 3,
                                    "arrows": [[0, 1], [1, 2]],
                                    "zero_relations": [[0, 1.0]]}}}},
     "algebra 'q': quiver.zero_relations: expected an integer, got 1.0"),
    ({"algebras": {"q": {"quiver": {"vertices": 2,
                                    "arrows": [[0, "1"]]}}}},
     'algebra \'q\': quiver.arrows: expected an integer, got "1"'),
    ({"modules": {"m": {"over": "k2", "side": "rigth",
                        "action": [[[1]]]}}},
     'module \'m\': side: expected "left" or "right", got "rigth"'),
    ({"modules": {"m": {"over": "k2", "action": [[[1.5]]]}}},
     "module 'm': action: expected an integer, got 1.5"),
    # one square action matrix per basis element, all of one size
    ({"modules": {"m": {"over": "k2", "action": [[[1]], [[1]]]}}},
     "module 'm': need one action matrix per basis element"),
    ({"modules": {"m": {"over": "k2", "action": [[[1, 0]]]}}},
     "module 'm': action matrices must be square of equal size"),
    ({"algebras": {"a2": {"quiver": {"vertices": 2, "arrows": [[0, 1]]}}},
      "bimodules": {},
      "modules": {"m": {"over": "a2",
                        "action": [[[1]], [[1, 0], [0, 1]], [[0]]]}}},
     "module 'm': action matrices must be square of equal size"),
    # the left regular action of the A2 path algebra, declared a right one
    ({"algebras": {"a2": {"quiver": {"vertices": 2, "arrows": [[0, 1]]}}},
      "bimodules": {},
      "modules": {"m": {"over": "a2", "side": "right",
                        "action": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                                   [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
                                   [[0, 0, 0], [0, 0, 0], [1, 0, 0]]]}}},
     "module 'm': module law violated at (0,2)"),
    ({"algebras": {"k": {"structure_constants": [[[True]]], "unit": [1]}}},
     "algebra 'k': structure_constants: expected an integer, got true"),
    ({"algebras": {"k": {"structure_constants": [[[1]]], "unit": [1.0]}}},
     "algebra 'k': unit: expected an integer, got 1.0"),
    ({"algebras": {"a": {"structure_constants": [[[1]]], "unit": [1, 0]}}},
     "algebra 'a': unit has length 2 but the structure constant table has "
     "dimension 1"),
    ({"modules": {"m": {"over": "k2", "action": [[[1, 0], [0]]]}}},
     "module 'm': action: rows of unequal length"),
    ({"modules": {"m": {"over": "k2", "action": 5}}},
     "module 'm': action: expected a list, got 5"),
    ({"modules": {"m": {"over": "k2", "action": [[[10 ** 20]]]}}},
     "module 'm': action: integer out of the int64 range"),
    ({"algebras": {"q": {"quiver": {"vertices": 2, "arrows": [5]}}}},
     "algebra 'q': quiver.arrows: expected a list, got 5"),
    ({"algebras": {"q": {"quiver": {"vertices": 2,
                                    "arrows": [[0, 1, 1]]}}}},
     "algebra 'q': quiver.arrows: expected [source, target], got [0, 1, 1]"),
    # alpha on X ox M = k ox k over the dual numbers: m acts as 1
    ({"right_pairs": {"rp": {"extension": "d", "x": "k_right",
                             "alpha": [[1]]}}},
     "right pair 'rp': structure map does not square to zero"),
    # over (k, k, k, k) with dim W = 2, dim Q = 1 only the composite
    # f o (g ox U): W ox V ox U -> W breaks
    ({"modules": {"w": {"over": "k2", "side": "right",
                        "action": [[[1, 0], [0, 1]]]},
                  "q": {"over": "k2", "side": "right", "action": [[[1]]]}},
      "pairs": {}, "copairs": {}, "right_pairs": {}, "tuples": {},
      "cotuples": {},
      "right_tuples": {"rt": {"context": "nakayama4", "w": "w", "q": "q",
                              "f": [[0], [1]], "g": [[1, 0]]}}},
     "right tuple 'rt': f o (g ox U) != 0"),
    # a right pair's alpha and a right tuple's f and g are read on X ox M,
    # Q ox U and W ox V, here all 1-dimensional
    ({"right_pairs": {"rp": {"extension": "d", "x": "k_right",
                             "alpha": [[1, 0]]}}},
     "right pair 'rp': alpha shape 1x2 does not match 1x1"),
    ({"right_tuples": {"rt": {"context": "nakayama4", "w": "k_right",
                              "q": "k_right", "f": [[1, 0]], "g": [[0]]}}},
     "right tuple 'rt': f shape 1x2 does not match 1x1"),
    ({"right_tuples": {"rt": {"context": "nakayama4", "w": "k_right",
                              "q": "k_right", "f": [[1]], "g": [[0], [0]]}}},
     "right tuple 'rt': g shape 2x1 does not match 1x1"),
    # the structure maps of left pairs, copairs, tuples and cotuples are
    # named as well: M ox k, U ox k, Hom(U, k) are 1-dimensional, Hom(M, D)
    # over the dual numbers D is 2-dimensional
    ({"pairs": {"zk_over_d": {"extension": "d", "x": "zk",
                              "alpha": [[0, 0]]}}},
     "pair 'zk_over_d': alpha shape 1x2 does not match 1x1"),
    ({"copairs": {"d_regular_copair": {"extension": "d", "y": "d_regular_y",
                                       "beta": [[0, 0]]}}},
     "copair 'd_regular_copair': beta shape 1x2 does not match 2x2"),
    ({"tuples": {"nakayama_unit_tuple": {
        "context": "nakayama4", "x": "k_left", "y": "k_left",
        "f": [[1, 0]], "g": [[0]]}}},
     "tuple 'nakayama_unit_tuple': f shape 1x2 does not match 1x1"),
    ({"cotuples": {"nakayama_unit_cotuple": {
        "context": "nakayama4", "x": "k_left", "y": "k_left",
        "f": [[1, 0]], "g": [[0]]}}},
     "cotuple 'nakayama_unit_cotuple': f shape 1x2 does not match 1x1"),
    # a bimodule's two algebras are over one field
    ({"bimodules": {"b": {"left_over": "k2", "right_over": "k3",
                          "left_action": [[[1]]], "right_action": [[[1]]]}}},
     "bimodule 'b': left algebra is over GF(2) but right algebra is over "
     "GF(3)"),
    # a shape fault of a bimodule names the side of its action
    ({"bimodules": {"b": {"left_over": "k2", "right_over": "k2",
                          "left_action": [[[1]], [[1]]],
                          "right_action": [[[1]]]}}},
     "bimodule 'b': left action: need one action matrix per basis element"),
    ({"bimodules": {"b": {"left_over": "k2", "right_over": "k2",
                          "left_action": [[[1]]],
                          "right_action": [[[1, 0]]]}}},
     "bimodule 'b': right action: action matrices must be square of equal "
     "size"),
    # an entity, and a quiver, is a JSON object
    ({"modules": {"m": [1]}}, "module 'm': expected an object, got [1]"),
    ({"pairs": {"p": "x"}}, "pair 'p': expected an object, got \"x\""),
    ({"algebras": {"a": 3}}, "algebra 'a': expected an object, got 3"),
    ({"algebras": {"q": {"quiver": 3}}},
     "algebra 'q': quiver: expected an object, got 3"),
    # U = k over k on both sides is not a B-A-bimodule for A = k x k
    ({"morita_contexts": {"c": {"a": "k2xk2", "b": "k2", "u": "morita_u",
                                "v": "morita_v"}},
      "tuples": {}, "cotuples": {}, "right_tuples": {}},
     "morita context 'c': u must be a B-A-bimodule"),
    # k and l have the same table but are two algebras, so the
    # k-k-bimodule m is not a B-A-bimodule of the context (k, l)
    ({"algebras": {"k": {"structure_constants": [[[1]]], "unit": [1]},
                   "l": {"structure_constants": [[[1]]], "unit": [1]}},
      "bimodules": {"m": {"left_over": "k", "right_over": "k",
                          "left_action": [[[1]]], "right_action": [[[1]]]}},
      "modules": {}, "extensions": {}, "tuples": {}, "cotuples": {},
      "right_tuples": {},
      "morita_contexts": {"c": {"a": "k", "b": "l", "u": "m", "v": "m"}}},
     "morita context 'c': u must be a B-A-bimodule"),
    # a relation whose arrows do not compose names both arrows
    ({"algebras": {"q": {"quiver": {"vertices": 2, "arrows": [[0, 1]],
                                    "zero_relations": [[0, 0]]}}}},
     "algebra 'q': relation [0, 0]: arrow 0 ends at vertex 1 but arrow 0 "
     "starts at vertex 0"),
    # 201 vertices exceed the dimension bound with no relation at fault
    ({"algebras": {"q": {"quiver": {"vertices": 201, "arrows": []}}}},
     "algebra 'q': quiver algebra exceeds the dimension bound"),
], ids=["missing", "not_utf8", "list", "field_int", "p_text", "p_composite",
        "p_too_large", "p_float", "p_numeric_text", "p_bool",
        "algebra_p_float", "algebra_p_text", "algebras_list",
        "quiver_relation_index", "quiver_path_index", "quiver_arrow_vertex",
        "quiver_empty_relation", "quiver_no_vertex",
        "bimodule_action_sizes", "quiver_relation_bool",
        "quiver_vertices_float", "quiver_relation_float",
        "quiver_arrow_text", "module_side", "action_float",
        "action_count", "action_not_square", "action_sizes", "right_law",
        "structure_constants_bool", "unit_float", "unit_length",
        "action_ragged", "action_not_a_list", "action_huge_int",
        "quiver_arrow_not_a_list",
        "quiver_arrow_three_ends", "right_pair_square", "right_tuple_axiom",
        "right_pair_alpha_columns", "right_tuple_f_columns",
        "right_tuple_g_rows", "pair_alpha_columns", "copair_beta_rows",
        "tuple_f_columns", "cotuple_f_columns", "bimodule_two_fields",
        "bimodule_left_count", "bimodule_right_not_square",
        "module_not_an_object", "pair_not_an_object",
        "algebra_not_an_object", "quiver_not_an_object", "context_leg",
        "context_two_algebras_one_table", "loose_relation", "many_vertices"])
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


@pytest.mark.parametrize("argv", [["examples", "emit"], ["validate", "ws"]],
                         ids=["examples_emit", "validate"])
def test_unwritable_out_exits_2_naming_the_flag(tmp_path, capsys, argv):
    ws_path = tmp_path / "ws.json"
    assert main(["examples", "emit", "--out", str(ws_path)]) == 0
    out = tmp_path / "no" / "such" / "report.json"
    argv = [str(ws_path) if a == "ws" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out '{out}': No such file or directory\n"
    assert not out.parent.exists()


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


def _pairs_workspace(p, algebra, bimodule, actions, alphas):
    """A workspace over GF(p): the algebra a, its a-a-bimodule m, and for
    each action a module x<i> and a pair x<i>_pair over a |x m."""
    return {
        "schema_version": SCHEMA_VERSION, "field": {"p": p},
        "algebras": {"a": algebra},
        "bimodules": {"m": {"left_over": "a", "right_over": "a",
                            **bimodule}},
        "modules": {f"x{i}": {"over": "a", "action": action}
                    for i, action in enumerate(actions)},
        "extensions": {"e": {"base": "a", "bimodule": "m"}},
        "pairs": {f"x{i}_pair": {"extension": "e", "x": f"x{i}",
                                 "alpha": alpha}
                  for i, alpha in enumerate(alphas)}}


def _zero_bimodule(dim):
    return {"left_action": [[]] * dim, "right_action": [[]] * dim}


def _check_gp(tmp_path, capsys, workspace):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(workspace))
    assert main(["check", "gp", str(path)]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_library_error_exits_2_naming_the_instance(tmp_path, capsys):
    # N(3,3) over GF(101) once raised StructureError from inside the
    # decider; its regular module is projective over a self-injective
    # algebra
    arrows = [[0, 1], [1, 2], [2, 0]]
    relations = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    n = monomial_quiver_algebra(3, arrows, relations, FieldSpec(101))
    verdict = _check_gp(tmp_path, capsys, _pairs_workspace(
        101, {"quiver": {"vertices": 3, "arrows": arrows,
                         "zero_relations": relations}},
        _zero_bimodule(n.dim), [LeftModule.regular(n).acts.tolist()],
        [[[]] * n.dim]))["x0_pair"]
    assert verdict["answer"] == "certified_yes"
    assert verdict["regime"] == "self_injective"
    assert verdict["certificate"] == {"reason": "projective"}


def test_check_gp_on_the_wild_simple_needs_no_bound(tmp_path, capsys,
                                                    monkeypatch):
    # the self-injective dimensions of the local wild algebra
    # k<x,y>/(x,y)^2 stop at their first repeated semisimple syzygy, not at
    # the default bound 10, where the syzygies of D(A) reach dimension
    # 3 * 2^10
    _count_cover_builds(monkeypatch, limit=8)
    verdict = _check_gp(tmp_path, capsys, _pairs_workspace(
        2, {"quiver": {"vertices": 1, "arrows": [[0, 0], [0, 0]],
                       "zero_relations": [[0, 0], [0, 1], [1, 0], [1, 1]]}},
        _zero_bimodule(3), [[[[1]], [[0]], [[0]]]], [[[]]]))["x0_pair"]
    assert verdict["answer"] == "certified_no"
    assert verdict["bound"] == 10
    assert verdict["certificate"]["index"] == 1


def _n22_at_65521():
    """The self-injective Nakayama algebra N(2,2) over the largest prime
    accepted, with its simple S_0 over the zero extension."""
    return _pairs_workspace(
        65521, {"quiver": {"vertices": 2, "arrows": [[0, 1], [1, 0]],
                           "zero_relations": [[0, 1], [1, 0]]}},
        _zero_bimodule(4), [[[[1]], [[0]], [[0]], [[0]]]], [[[]]])


def _ta3():
    """T(A3) = A3 |x D(A3), D(A3) = Hom_k(A3, k) with b_i acting on the dual
    basis by the transpose of right multiplication from the left and of
    left multiplication from the right, with the pairs of A3's simples."""
    a = monomial_quiver_algebra(3, [(0, 1), (1, 2)], [], FieldSpec(2))
    left = [m.T for m in LeftModule.regular(opposite_algebra(a)).acts]
    right = [m.T for m in LeftModule.regular(a).acts]
    dual = Bimodule(a, a, [FpMatrix(m, a.field) for m in left],
                    [FpMatrix(m, a.field) for m in right])
    tops = simples(a)
    return _pairs_workspace(
        2, {"quiver": {"vertices": 3, "arrows": [[0, 1], [1, 2]]}},
        {"left_action": [m.tolist() for m in left],
         "right_action": [m.tolist() for m in right]},
        [s.acts.tolist() for s in tops],
        [[[0] * tensor_bimodule_left(dual, s).space.dim] for s in tops])


@pytest.mark.parametrize("workspace, pairs", [(_n22_at_65521, 1), (_ta3, 3)],
                         ids=["n22_at_65521", "ta3"])
def test_check_gp_reads_a_self_injective_regime(tmp_path, capsys, workspace,
                                               pairs):
    # N(2,2) is self-injective, and T(A3) symmetric, so self-injective:
    # check gp reads each simple pair's answer off the regime
    results = _check_gp(tmp_path, capsys, workspace())
    assert len(results) == pairs
    for r in results.values():
        assert r["answer"] == "certified_yes"
        assert r["certificate"]["reason"] == "self_injective_regime"


# the quiver 0 -> 1, 0 -> 2 at p = 65521 in the basis e_0, e_1, e_2, a,
# a + b (test_structure._two_arrows_at_a_plus_b)
ONE_SIDED_TABLE = [
    [[1, 0, 0, 0, 0], [0] * 5, [0] * 5, [0] * 5, [0] * 5],
    [[0] * 5, [0, 1, 0, 0, 0], [0] * 5, [0, 0, 0, 1, 0], [0, 0, 0, 1, 0]],
    [[0] * 5, [0] * 5, [0, 0, 1, 0, 0], [0] * 5, [0, 0, 0, 65520, 1]],
    [[0, 0, 0, 1, 0], [0] * 5, [0] * 5, [0] * 5, [0] * 5],
    [[0, 0, 0, 0, 1], [0] * 5, [0] * 5, [0] * 5, [0] * 5]]


def test_check_gp_answers_on_a_one_sided_table_as_on_its_quiver(tmp_path,
                                                                capsys):
    # A passes the four checks of the path-basis certificate (A^op fails
    # one, e_1.(a + b) = a, and check gp reads nothing over A^op): check gp
    # answers on the pairs of the simples over the zero extension as on the
    # quiver, whose sinks 1 and 2 are projective
    quiver, table = (_check_gp(tmp_path, capsys, _pairs_workspace(
        65521, algebra, _zero_bimodule(5),
        [[[[int(b == i)]] for b in range(5)] for i in range(3)], [[[]]] * 3))
        for algebra in ({"quiver": {"vertices": 3,
                                    "arrows": [[0, 1], [0, 2]]}},
                        {"structure_constants": ONE_SIDED_TABLE,
                         "unit": [1, 1, 1, 0, 0]}))
    assert quiver == table
    assert [r["answer"] for r in quiver.values()] == [
        "certified_no", "certified_yes", "certified_yes"]


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


def test_verify_thm54_builds_each_algebra_once(tmp_path, monkeypatch,
                                               capsys):
    # k2, k2 x k2, the Morita ring's total algebra and its opposite: the
    # opposite extension takes that opposite as its total algebra
    ws_path = tmp_path / "ws.json"
    assert main(["examples", "emit", "--out", str(ws_path)]) == 0
    built, init = [], algebra.Algebra.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.dim)

    monkeypatch.setattr(algebra.Algebra, "__init__", counted)
    assert main(["verify", "thm54", str(ws_path)]) == 0
    capsys.readouterr()
    assert sorted(built) == [1, 2, 4, 4]


def test_readme_pass_builds_each_tensor_and_hom_module_once(tmp_path,
                                                           monkeypatch):
    # each command is one job with a fresh load that builds only the
    # instances it reads; within a job, tensor products and Hom modules are
    # shared by content, so each content is built once (T(X) keeps X, and
    # with it M ox X, for the tests of a resolution), and the pass, with
    # `examples emit`, builds 27 and 10 of them
    built = []
    build_tensor, build_hom = algebra._tensor_space, algebra.HomModule.__init__

    def record(kind, m, x):
        built.append((kind, id(x.over), id(m.left_over),
                      algebra._content(m), algebra._content(x)))

    def tensor(m, x):
        record("tensor", m, x)
        return build_tensor(m, x)

    def hom(self, m, y):
        record("hom", m, y)
        build_hom(self, m, y)

    monkeypatch.setattr(algebra, "_tensor_space", tensor)
    monkeypatch.setattr(algebra.HomModule, "__init__", hom)
    ws_path, out_path = tmp_path / "ws.json", tmp_path / "report.json"
    emit = ("examples", "emit")
    targeted = ("resolve", "pair", "--window", "3", "--target",
                "d_regular_pair")
    per_command = {}
    for command in (emit,) + README_COMMANDS + (targeted,):
        built.clear()
        if command == emit:
            argv = list(emit) + ["--out", str(ws_path)]
        else:
            argv = (list(command[:2]) + [str(ws_path)] + list(command[2:])
                    + ["--out", str(out_path)])
        assert main(argv) == 0
        assert len(set(built)) == len(built), command
        per_command[command] = collections.Counter(b[0] for b in built)
    assert per_command.pop(targeted)["tensor"] <= 3, per_command
    total = sum(per_command.values(), collections.Counter())
    assert total["tensor"] <= 27 and total["hom"] <= 10, per_command
    assert per_command["resolve", "pair", "--window", "3"]["tensor"] <= 8


def _python_in_ci(text):
    """The lines of a workflow that write a .py file through a heredoc, or
    that import extalg."""
    return [line.strip() for line in text.splitlines()
            if "<<" in line and re.search(r"\.py\b", line)
            or re.search(r"\b(from|import) extalg\b", line)]


def test_ci_runs_no_python_that_tier1_does_not():
    # a check of the library belongs in Tier-1, where every run sees it;
    # the workflow runs the installed console script and checked-in files
    assert _python_in_ci("cat > ws.json <<'EOF'\npython3 tests/x.py") == []
    assert _python_in_ci("  cat > spy.py <<'EOF'\n  from extalg import cli\n"
                         "python3 -c 'import extalg.cli'") == [
        "cat > spy.py <<'EOF'", "from extalg import cli",
        "python3 -c 'import extalg.cli'"]
    workflow = ROOT / ".github" / "workflows" / "tier1.yml"
    assert _python_in_ci(workflow.read_text()) == []
