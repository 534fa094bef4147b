"""Command-line entry point: load workspaces of named algebraic entities
from JSON files, run checkers and verifiers over named instances, and emit
deterministic verdict reports.

Workspace and report formats are versioned JSON trees of integers and
strings; reports are byte-identical across reruns with the same inputs
apart from the timing field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

import numpy as np

from .algebra import (Algebra, AlgebraError, Bimodule, LeftModule,
                      RightModule, monomial_quiver_algebra, product_algebra)
from .gorenstein import (GorensteinError, GorensteinVerdict,
                         CompatibilityReport,
                         build_copair_complete_coresolution,
                         build_pair_complete_resolution, gf_check_right,
                         gi_check, gp_check,
                         validate_copair_complete_coresolution,
                         validate_pair_complete_resolution, verify_cor35,
                         verify_cor45, verify_cor48)
from .homology import DimensionVerdict
from .linalg import FieldSpec, FpMatrix, LinalgError
from .morita import (CoTupleModule, MoritaContextData, MoritaError,
                     RightTupleModule, TupleModule, morita_ring,
                     verify_thm52, verify_thm53, verify_thm54)
from .structure import StructureError
from .trivext import (CopairModule, PairModule, RightPairModule,
                      TrivextError, copair_to_module, module_to_copair,
                      module_to_pair, module_to_right_pair, pair_to_module,
                      right_pair_to_module, trivial_extension)

SCHEMA_VERSION = 1


class WorkspaceError(ValueError):
    pass


def _mat(rows, field) -> FpMatrix:
    arr = np.asarray(rows, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape((0, 0) if arr.ndim < 2 else arr.shape)
    return FpMatrix(arr, field)


def _mat_list(data, field):
    return [_mat(m, field) for m in data]


def _dump_mat(m: FpMatrix):
    return m.arr.tolist()


def _field(value, where: str) -> FieldSpec:
    """GF(value) for a JSON integer value; a float, string or bool is
    rejected, not rounded or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkspaceError(f"{where}: expected an integer, got "
                             f"{json.dumps(value)}")
    try:
        return FieldSpec(value)
    except LinalgError as e:
        raise WorkspaceError(f"{where}: {e}") from e


def _algebra(spec, ref, default_field):
    field = _field(spec["p"], "p") if "p" in spec else default_field
    if "quiver" in spec:
        q = spec["quiver"]
        return monomial_quiver_algebra(
            int(q["vertices"]), [tuple(x) for x in q["arrows"]],
            [list(r) for r in q.get("zero_relations", [])], field)
    return Algebra(field, np.asarray(spec["structure_constants"],
                                     dtype=np.int64), spec["unit"])


def _bimodule(spec, ref, _):
    lo = ref("algebras", spec["left_over"])
    ro = ref("algebras", spec["right_over"])
    return Bimodule(lo, ro, _mat_list(spec["left_action"], lo.field),
                    _mat_list(spec["right_action"], ro.field))


def _module(spec, ref, _):
    over = ref("algebras", spec["over"])
    cls = RightModule if spec.get("side") == "right" else LeftModule
    return cls(over, _mat_list(spec["action"], over.field))


def _extension(spec, ref, _):
    return trivial_extension(ref("algebras", spec["base"]),
                             ref("bimodules", spec["bimodule"]))


def _context(spec, ref, _):
    return morita_ring(MoritaContextData(
        ref("algebras", spec["a"]), ref("algebras", spec["b"]),
        ref("bimodules", spec["u"]), ref("bimodules", spec["v"])))


def _presented(cls, module_key: str, map_key: str):
    """Builder of a (co)pair: an extension, a module and one map."""
    def build(spec, ref, _):
        t = ref("extensions", spec["extension"])
        return cls(t, ref("modules", spec[module_key]),
                   _mat(spec[map_key], t.field))
    return build


def _tuple(cls, first: str, second: str):
    """Builder of a (co, right) tuple: a context, the two modules under the
    keys first and second, f and g."""
    def build(spec, ref, _):
        ring = ref("contexts", spec["context"])
        return cls(ring, ref("modules", spec[first]),
                   ref("modules", spec[second]),
                   _mat(spec["f"], ring.prod.field),
                   _mat(spec["g"], ring.prod.field))
    return build


# (workspace key, Workspace attribute, kind named in errors, builder), in
# dependency order
ENTITIES = (
    ("algebras", "algebras", "algebra", _algebra),
    ("bimodules", "bimodules", "bimodule", _bimodule),
    ("modules", "modules", "module", _module),
    ("extensions", "extensions", "extension", _extension),
    ("morita_contexts", "contexts", "morita context", _context),
    ("pairs", "pairs", "pair", _presented(PairModule, "x", "alpha")),
    ("copairs", "copairs", "copair", _presented(CopairModule, "y", "beta")),
    ("right_pairs", "right_pairs", "right pair",
     _presented(RightPairModule, "x", "alpha")),
    ("tuples", "tuples", "tuple", _tuple(TupleModule, "x", "y")),
    ("cotuples", "cotuples", "cotuple", _tuple(CoTupleModule, "x", "y")),
    ("right_tuples", "right_tuples", "right tuple",
     _tuple(RightTupleModule, "w", "q")),
)


class Workspace:
    """Named entities resolved from a workspace file."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise WorkspaceError("expected a JSON object, got "
                                 f"{type(data).__name__}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise WorkspaceError("unsupported or missing schema_version")
        field = data.get("field", {})
        if not isinstance(field, dict):
            raise WorkspaceError("field: expected an object like {\"p\": 2}")
        self.field = _field(field.get("p", 2), "field.p")
        kinds = {attr: kind for _, attr, kind, _ in ENTITIES}

        def ref(attr, name):
            table = getattr(self, attr)
            if name not in table:
                raise WorkspaceError(f"unknown {kinds[attr]} '{name}'")
            return table[name]

        for key, attr, kind, build in ENTITIES:
            table = {}
            setattr(self, attr, table)
            specs = data.get(key, {})
            if not isinstance(specs, dict):
                raise WorkspaceError(f"{key}: expected an object of named "
                                     "entries")
            for name, spec in sorted(specs.items()):
                try:
                    table[name] = build(spec, ref, self.field)
                except KeyError as e:
                    raise WorkspaceError(f"{kind} '{name}': missing key "
                                         f"{e}") from e
                except Exception as e:
                    raise WorkspaceError(f"{kind} '{name}': {e}") from e

    def counts(self) -> dict:
        return {key: len(getattr(self, attr))
                for key, attr, _, _ in ENTITIES}


def load(path: str) -> Workspace:
    """The workspace in the file at path; every error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise WorkspaceError(f"cannot read '{path}': {e.strerror}") from e
    except ValueError as e:     # undecodable bytes or malformed JSON
        raise WorkspaceError(f"'{path}': parse error: {e}") from e
    try:
        return Workspace(data)
    except WorkspaceError as e:
        raise WorkspaceError(f"'{path}': {e}") from e


# ---------------------------------------------------------------------------
# report serialization


def _jsonify(obj):
    if isinstance(obj, GorensteinVerdict):
        return {"answer": obj.answer, "regime": obj.regime,
                "certificate": _jsonify(obj.certificate), "bound": obj.bound}
    if isinstance(obj, DimensionVerdict):
        return {"kind": obj.kind, "value": obj.value}
    if isinstance(obj, CompatibilityReport):
        return {"sufficient_via": obj.sufficient_via,
                "dims": _jsonify(obj.dims)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return repr(obj)


def _base_report(command: str, args) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "seed": args.seed, "bound": args.bound, "window": args.window}


# ---------------------------------------------------------------------------
# command implementations


def _select(table: dict, target: Optional[str], kind: str):
    if target is not None:
        if target not in table:
            raise WorkspaceError(f"unknown {kind} '{target}'")
        return [(target, table[target])]
    return sorted(table.items())


# the errors a command can meet in the library; each is reported against the
# instance it was raised for
LIBRARY_ERRORS = (AlgebraError, LinalgError, StructureError, TrivextError,
                  GorensteinError, MoritaError)


def _resolve(inst, args, build, validate) -> dict:
    """A resolve command on one instance; an unmet lifting hypothesis is a
    result, not an error."""
    try:
        res = build(inst, args.window)
    except GorensteinError as e:
        return {"error": str(e)}
    return {"term_dims": [m.dim for m in res.complex.modules],
            "lo": res.complex.lo, "hi": res.complex.hi,
            "validation": validate(res)}


# command -> (workspace table, instance kind, (instance, args) -> result);
# the lambdas look every function up when they run, so rebinding a module
# name (as perfbench/tracer.py does) reaches these calls too
COMMANDS = {
    "check gp": ("pairs", "pair", lambda x, a: gp_check(
        pair_to_module(x), a.bound)),
    "check gi": ("copairs", "copair", lambda x, a: gi_check(
        copair_to_module(x), a.bound)),
    "check gf": ("right_pairs", "right pair", lambda x, a: gf_check_right(
        right_pair_to_module(x), a.bound)),
    "verify cor35": ("pairs", "pair",
                     lambda x, a: verify_cor35(x, a.bound)),
    "verify cor45": ("copairs", "copair",
                     lambda x, a: verify_cor45(x, a.bound)),
    "verify cor48": ("right_pairs", "right pair",
                     lambda x, a: verify_cor48(x, a.bound)),
    "verify thm52": ("tuples", "tuple",
                     lambda x, a: verify_thm52(x, a.bound)),
    "verify thm53": ("cotuples", "cotuple",
                     lambda x, a: verify_thm53(x, a.bound)),
    "verify thm54": ("right_tuples", "right tuple",
                     lambda x, a: verify_thm54(x, a.bound)),
    "resolve pair": ("pairs", "pair", lambda x, a: _resolve(
        x, a, build_pair_complete_resolution,
        validate_pair_complete_resolution)),
    "resolve copair": ("copairs", "copair", lambda x, a: _resolve(
        x, a, build_copair_complete_coresolution,
        validate_copair_complete_coresolution)),
}

# (command, argument naming the variant, help); the variants are the
# second words of COMMANDS
SUBCOMMANDS = (("check", "mode", "single Gorenstein checks"),
               ("verify", "which", "theorem verification suites"),
               ("resolve", "kind", "build complete (co)resolutions"))


def run(command: str, ws: Workspace, args) -> dict:
    report = _base_report(command, args)
    if command == "validate":
        report["entities"] = ws.counts()
        return report
    if command not in COMMANDS:
        raise WorkspaceError(f"unknown command '{command}'")
    attr, kind, fn = COMMANDS[command]
    results = {}
    for name, inst in _select(getattr(ws, attr), args.target, kind):
        try:
            results[name] = _jsonify(fn(inst, args))
        except LIBRARY_ERRORS as e:
            raise WorkspaceError(f"{kind} '{name}': {e}") from e
    report["results"] = results
    return report


# ---------------------------------------------------------------------------
# canned corpus


def emit_builtin_examples() -> dict:
    """The built-in workspace: small fields, the one-dimensional square-zero
    extension, the triangular-matrix extension, the 4-dim Morita ring, and
    the inflation counterexample instance."""
    field = FieldSpec(2)
    k2 = Algebra(field, np.ones((1, 1, 1), dtype=np.int64), [1])
    prod, _, _ = product_algebra(k2, k2)
    # D = k |x k
    dbim = Bimodule.regular(k2)
    dext = trivial_extension(k2, dbim)
    d_reg_pair = module_to_pair(LeftModule.regular(dext.total), dext)
    d_reg_copair = module_to_copair(LeftModule.regular(dext.total), dext)
    d_reg_right = module_to_right_pair(RightModule.regular(dext.total), dext)
    # triangular 2x2 as an extension of k x k
    e1_on_m = FpMatrix.zeros(1, 1, field)
    e2_on_m = FpMatrix.identity(1, field)
    tri_bim = Bimodule(prod, prod, [e1_on_m, e2_on_m],
                       [e2_on_m.transpose(), e1_on_m.transpose()])
    tri_ext = trivial_extension(prod, tri_bim)
    tri_pair = module_to_pair(LeftModule.regular(tri_ext.total), tri_ext)
    # Z(k) over D: the inflated trivial base module
    zk_x = LeftModule(k2, [FpMatrix.identity(1, field)])
    # 4-dim Morita ring: A = B = U = V = GF(2)
    ubim = Bimodule.regular(k2)
    vbim = Bimodule.regular(k2)
    data = {
        "schema_version": SCHEMA_VERSION,
        "field": {"p": 2},
        "algebras": {
            "k2": {"structure_constants": [[[1]]], "unit": [1]},
            "k3": {"p": 3, "structure_constants": [[[1]]], "unit": [1]},
            "k2xk2": {"structure_constants": prod.sc.tolist(),
                      "unit": prod.unit.tolist()},
        },
        "bimodules": {
            "d_ideal": {"left_over": "k2", "right_over": "k2",
                        "left_action": [[[1]]], "right_action": [[[1]]]},
            "tri_ideal": {"left_over": "k2xk2", "right_over": "k2xk2",
                          "left_action": [_dump_mat(m) for m in
                                          tri_bim.left_action],
                          "right_action": [_dump_mat(m) for m in
                                           tri_bim.right_action]},
            "morita_u": {"left_over": "k2", "right_over": "k2",
                         "left_action": [[[1]]], "right_action": [[[1]]]},
            "morita_v": {"left_over": "k2", "right_over": "k2",
                         "left_action": [[[1]]], "right_action": [[[1]]]},
            "morita_zero": {"left_over": "k2", "right_over": "k2",
                            "left_action": [[]], "right_action": [[]]},
        },
        "modules": {
            "d_regular": {"over": "k2",
                          "action": [_dump_mat(m) for m in
                                     d_reg_pair.x.action]},
            "d_regular_y": {"over": "k2",
                            "action": [_dump_mat(m) for m in
                                       d_reg_copair.y.action]},
            "d_regular_w": {"over": "k2", "side": "right",
                            "action": [_dump_mat(m) for m in
                                       d_reg_right.x.action]},
            "tri_regular": {"over": "k2xk2",
                            "action": [_dump_mat(m) for m in
                                       tri_pair.x.action]},
            "zk": {"over": "k2", "action": [[[1]]]},
            "k_left": {"over": "k2", "action": [[[1]]]},
            "k_right": {"over": "k2", "side": "right", "action": [[[1]]]},
        },
        "extensions": {
            "d": {"base": "k2", "bimodule": "d_ideal"},
            "triangular": {"base": "k2xk2", "bimodule": "tri_ideal"},
        },
        "morita_contexts": {
            "nakayama4": {"a": "k2", "b": "k2", "u": "morita_u",
                          "v": "morita_v"},
            "hereditary3": {"a": "k2", "b": "k2", "u": "morita_u",
                            "v": "morita_zero"},
            "product2": {"a": "k2", "b": "k2", "u": "morita_zero",
                         "v": "morita_zero"},
        },
        "pairs": {
            "d_regular_pair": {"extension": "d", "x": "d_regular",
                               "alpha": _dump_mat(d_reg_pair.alpha.matrix)},
            "tri_regular_pair": {"extension": "triangular",
                                 "x": "tri_regular",
                                 "alpha": _dump_mat(
                                     tri_pair.alpha.matrix)},
            "zk_over_d": {"extension": "d", "x": "zk", "alpha": [[0]]},
        },
        "copairs": {
            "d_regular_copair": {"extension": "d", "y": "d_regular_y",
                                 "beta": _dump_mat(
                                     d_reg_copair.beta.matrix)},
            "zk_over_d_copair": {"extension": "d", "y": "zk",
                                 "beta": [[0]]},
        },
        "right_pairs": {
            "d_regular_right_pair": {"extension": "d", "x": "d_regular_w",
                                     "alpha": _dump_mat(
                                         d_reg_right.alpha.matrix)},
        },
        "tuples": {
            "nakayama_unit_tuple": {"context": "nakayama4", "x": "k_left",
                                    "y": "k_left", "f": [[1]], "g": [[0]]},
            "nakayama_zero_tuple": {"context": "nakayama4", "x": "k_left",
                                    "y": "k_left", "f": [[0]], "g": [[0]]},
        },
        "cotuples": {
            "nakayama_unit_cotuple": {"context": "nakayama4", "x": "k_left",
                                      "y": "k_left", "f": [[1]],
                                      "g": [[0]]},
        },
        "right_tuples": {
            "nakayama_unit_right_tuple": {"context": "nakayama4",
                                          "w": "k_right", "q": "k_right",
                                          "f": [[1]], "g": [[0]]},
        },
    }
    return data


# ---------------------------------------------------------------------------
# entry point


def _write_report(report: dict, out: Optional[str]):
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _int_at_least(low: int):
    """argparse type: an integer >= low; argparse turns a rejection into
    exit status 2 with a message naming the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="extalg",
        description="Checkers and verifiers for square-zero extension "
                    "module theory.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("workspace", help="workspace JSON file")
            p.add_argument("--target", default=None,
                           help="instance name (default: all of the kind)")
            p.add_argument("--bound", type=_int_at_least(0), default=None)
            p.add_argument("--seed", type=_int_at_least(0), default=0)
            p.add_argument("--window", type=_int_at_least(1), default=None)
        p.add_argument("--out", default=None, help="report output path")

    common(sub.add_parser("validate", help="load and validate a workspace"))
    for cmd, dest, help_text in SUBCOMMANDS:
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument(dest, choices=[c.split()[1] for c in COMMANDS
                                      if c.split()[0] == cmd])
        common(p)
    pe = sub.add_parser("examples", help="built-in corpus")
    pe.add_argument("action", choices=["emit"])
    common(pe, needs_file=False)

    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.cmd == "examples":
            _write_report(emit_builtin_examples(), args.out)
            return 0
        ws = load(args.workspace)
        command = " ".join([args.cmd] + [getattr(args, dest) for cmd, dest, _
                                          in SUBCOMMANDS if cmd == args.cmd])
        report = run(command, ws, args)
        report["timing_ms"] = int((time.monotonic() - started) * 1000)
        _write_report(report, args.out)
        return 0
    except WorkspaceError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
