"""Command-line entry point: load workspaces of named algebraic entities
from JSON files, run checkers and verifiers over named instances, and emit
deterministic verdict reports.  A command builds and checks only the
entities it reads, each when first read, with what it references;
`validate` reads them all.

Workspace and report formats are versioned JSON trees of integers and
strings; reports are byte-identical across reruns with the same inputs
apart from the timing field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections.abc import Mapping
from typing import Optional

import numpy as np

from .algebra import (Algebra, AlgebraError, Bimodule, LeftModule,
                      monomial_quiver_algebra, opposite_algebra,
                      product_algebra, swapped_tensor)
from .gorenstein import (GorensteinError, build_copair_complete_coresolution,
                         build_pair_complete_resolution, gf_check_right,
                         gi_check, gp_check,
                         validate_copair_complete_coresolution,
                         validate_pair_complete_resolution, verify_cor35,
                         verify_cor45, verify_cor48)
from .linalg import FieldSpec, FpMatrix, LinalgError, inverse
from .morita import (CoTupleModule, MoritaError, MoritaRing, TupleModule,
                     right_tuple, verify_thm52, verify_thm53, verify_thm54)
from .structure import StructureError
from .trivext import (CopairModule, PairModule, TrivextError,
                      copair_to_module, module_to_copair, module_to_pair,
                      opposite_extension, pair_to_module, right_pair,
                      trivial_extension)

SCHEMA_VERSION = 1


class WorkspaceError(ValueError):
    pass


def _int(value, where: str) -> int:
    """A JSON integer value; a float, string or bool is rejected, not
    rounded or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkspaceError(f"{where}: expected an integer, got "
                             f"{json.dumps(value)}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise WorkspaceError(f"{where}: expected a list, got "
                             f"{json.dumps(value)}")
    return value


def _object(value, where: str, error=WorkspaceError) -> dict:
    if not isinstance(value, dict):
        raise error(f"{where}: expected an object, got {json.dumps(value)}")
    return value


def _ints(value, where: str, depth: int):
    """A JSON array nested `depth` deep of integers (`_int`), as lists."""
    if depth == 0:
        return _int(value, where)
    return [_ints(v, where, depth - 1) for v in _list(value, where)]


def _array(value, where: str, depth: int) -> np.ndarray:
    """`_ints` as an int64 array with `depth` axes; ragged rows are
    rejected."""
    rows = _ints(value, where, depth)
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise WorkspaceError(f"{where}: integer out of the int64 range") \
            from None
    except ValueError:
        raise WorkspaceError(f"{where}: rows of unequal length") from None


def _mat(rows, field, where: str) -> FpMatrix:
    arr = _array(rows, where, 2)
    if arr.size == 0:
        arr = arr.reshape((0, 0) if arr.ndim < 2 else arr.shape)
    return FpMatrix(arr, field)


def _mat_list(data, field, where: str):
    return [_mat(m, field, where) for m in _list(data, where)]


def _field(value, where: str) -> FieldSpec:
    """GF(value) for a JSON integer value."""
    try:
        return FieldSpec(_int(value, where))
    except LinalgError as e:
        raise WorkspaceError(f"{where}: {e}") from e


def _algebra(spec, ws):
    field = _field(spec["p"], "p") if "p" in spec else ws.field
    if "quiver" in spec:
        q = _object(spec["quiver"], "quiver")
        arrows = _ints(q["arrows"], "quiver.arrows", 2)
        for arrow in arrows:
            if len(arrow) != 2:
                raise WorkspaceError("quiver.arrows: expected [source, "
                                     f"target], got {json.dumps(arrow)}")
        return monomial_quiver_algebra(
            _int(q["vertices"], "quiver.vertices"),
            [tuple(x) for x in arrows],
            _ints(q.get("zero_relations", []), "quiver.zero_relations", 2),
            field)
    return Algebra(field, _array(spec["structure_constants"],
                                 "structure_constants", 3),
                   _array(spec["unit"], "unit", 1))


def _bimodule(spec, ws):
    lo = ws.algebras[spec["left_over"]]
    ro = ws.algebras[spec["right_over"]]
    return Bimodule(lo, ro,
                    _mat_list(spec["left_action"], lo.field, "left_action"),
                    _mat_list(spec["right_action"], ro.field, "right_action"))


def _module(spec, ws):
    over = ws.algebras[spec["over"]]
    side = spec.get("side", "left")
    if side not in ("left", "right"):
        raise WorkspaceError('side: expected "left" or "right", got '
                             f"{json.dumps(side)}")
    # a right module is a left module over the opposite algebra
    return LeftModule(opposite_algebra(over) if side == "right" else over,
                      _mat_list(spec["action"], over.field, "action"))


def _extension(spec, ws):
    return trivial_extension(ws.algebras[spec["base"]],
                             ws.bimodules[spec["bimodule"]])


def _context(spec, ws):
    return MoritaRing(ws.algebras[spec["a"]], ws.algebras[spec["b"]],
                      ws.bimodules[spec["u"]], ws.bimodules[spec["v"]])


def _presented(make, module_key: str, map_key: str):
    """Builder of a (co, right) pair: an extension, a module and one map."""
    def build(spec, ws):
        t = ws.extensions[spec["extension"]]
        return make(t, ws.modules[spec[module_key]],
                    _mat(spec[map_key], t.field, map_key))
    return build


def _tuple(make, first: str, second: str):
    """Builder of a (co, right) tuple: a context, the two modules under the
    keys first and second, f and g."""
    def build(spec, ws):
        ring = ws.contexts[spec["context"]]
        return make(ring, ws.modules[spec[first]], ws.modules[spec[second]],
                    _mat(spec["f"], ring.prod.field, "f"),
                    _mat(spec["g"], ring.prod.field, "g"))
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
     _presented(right_pair, "x", "alpha")),
    ("tuples", "tuples", "tuple", _tuple(TupleModule, "x", "y")),
    ("cotuples", "cotuples", "cotuple", _tuple(CoTupleModule, "x", "y")),
    ("right_tuples", "right_tuples", "right tuple",
     _tuple(right_tuple, "w", "q")),
)


class _Named(WorkspaceError):
    """A fault of an entity in the file, named by it; builds pass it on."""


class _Table(Mapping):
    """The entities of one kind by name, each built when first read."""

    def __init__(self, ws: "Workspace", kind: str, build, specs: dict):
        self.ws, self.kind, self.build, self.specs = ws, kind, build, specs
        self.built = {}

    def __getitem__(self, name: str):
        if name not in self.specs:
            raise WorkspaceError(f"unknown {self.kind} '{name}'")
        if name not in self.built:
            where = f"{self.kind} '{name}'"
            spec = _object(self.specs[name], where, _Named)
            try:
                self.built[name] = self.build(spec, self.ws)
            except _Named:
                raise
            except Exception as e:
                what = f"missing key {e}" if isinstance(e, KeyError) else e
                raise _Named(f"{where}: {what}") from e
        return self.built[name]

    def __contains__(self, name) -> bool:
        return name in self.specs

    def __iter__(self):
        return iter(sorted(self.specs))

    def __len__(self) -> int:
        return len(self.specs)


class Workspace:
    """Named entities of a workspace file, each built on first read."""

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
        for key, attr, kind, build in ENTITIES:
            specs = data.get(key, {})
            if not isinstance(specs, dict):
                raise WorkspaceError(f"{key}: expected an object of named "
                                     "entries")
            setattr(self, attr, _Table(self, kind, build, specs))

    def validate(self) -> dict:
        """Build every entity, kind by kind; the number of each kind."""
        return {key: len(list(getattr(self, attr).values()))
                for key, attr, _, _ in ENTITIES}


def load(path: str) -> Workspace:
    """The workspace at path; its faults, found here or in main, name it."""
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
    if dataclasses.is_dataclass(obj):      # verdicts and reports
        return {f.name: _jsonify(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
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


# command -> (workspace table, (instance, args) -> result);
# the lambdas look every function up when they run, so rebinding a module
# name (as perfbench/tracer.py does) reaches these calls too
COMMANDS = {
    "check gp": ("pairs", lambda x, a: gp_check(pair_to_module(x), a.bound)),
    "check gi": ("copairs", lambda x, a: gi_check(
        copair_to_module(x), a.bound)),
    "check gf": ("right_pairs", lambda x, a: gf_check_right(
        pair_to_module(x), a.bound)),
    "verify cor35": ("pairs", lambda x, a: verify_cor35(x, a.bound)),
    "verify cor45": ("copairs", lambda x, a: verify_cor45(x, a.bound)),
    "verify cor48": ("right_pairs", lambda x, a: verify_cor48(x, a.bound)),
    "verify thm52": ("tuples", lambda x, a: verify_thm52(x, a.bound)),
    "verify thm53": ("cotuples", lambda x, a: verify_thm53(x, a.bound)),
    "verify thm54": ("right_tuples", lambda x, a: verify_thm54(x, a.bound)),
    "resolve pair": ("pairs", lambda x, a: _resolve(
        x, a, build_pair_complete_resolution,
        validate_pair_complete_resolution)),
    "resolve copair": ("copairs", lambda x, a: _resolve(
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
        report["entities"] = ws.validate()
        return report
    if command not in COMMANDS:
        raise WorkspaceError(f"unknown command '{command}'")
    attr, fn = COMMANDS[command]
    table, results = getattr(ws, attr), {}
    # every selected instance is built before the first one runs
    names = sorted(table) if args.target is None else [args.target]
    for name, inst in [(name, table[name]) for name in names]:
        try:
            results[name] = _jsonify(fn(inst, args))
        except LIBRARY_ERRORS as e:
            raise WorkspaceError(f"{table.kind} '{name}': {e}") from e
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
    prod = product_algebra(k2, k2)
    # D = k |x k
    dbim = Bimodule.regular(k2)
    dext = trivial_extension(k2, dbim)
    d_reg_pair = module_to_pair(LeftModule.regular(dext.total), dext)
    d_reg_copair = module_to_copair(LeftModule.regular(dext.total), dext)
    d_reg_right = module_to_pair(
        LeftModule.regular(opposite_algebra(dext.total)),
        opposite_extension(dext))
    # a workspace gives a right pair's alpha on X ox M
    d_right_alpha = d_reg_right.alpha.matrix @ inverse(swapped_tensor(
        d_reg_right.t.bimodule, d_reg_right.x))
    # triangular 2x2 as an extension of k x k
    e1_on_m = FpMatrix.zeros(1, 1, field)
    e2_on_m = FpMatrix.identity(1, field)
    tri_bim = Bimodule(prod, prod, [e1_on_m, e2_on_m],
                       [e2_on_m.transpose(), e1_on_m.transpose()])
    tri_ext = trivial_extension(prod, tri_bim)
    tri_pair = module_to_pair(LeftModule.regular(tri_ext.total), tri_ext)
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
                          "left_action": [m.arr.tolist() for m in
                                          tri_bim.left_action],
                          "right_action": [m.arr.tolist() for m in
                                           tri_bim.right_action]},
            "morita_u": {"left_over": "k2", "right_over": "k2",
                         "left_action": [[[1]]], "right_action": [[[1]]]},
            "morita_v": {"left_over": "k2", "right_over": "k2",
                         "left_action": [[[1]]], "right_action": [[[1]]]},
            "morita_zero": {"left_over": "k2", "right_over": "k2",
                            "left_action": [[]], "right_action": [[]]},
        },
        "modules": {
            "d_regular": {"over": "k2", "action": d_reg_pair.x.acts.tolist()},
            "d_regular_y": {"over": "k2",
                            "action": d_reg_copair.y.acts.tolist()},
            "d_regular_w": {"over": "k2", "side": "right",
                            "action": d_reg_right.x.acts.tolist()},
            "tri_regular": {"over": "k2xk2",
                            "action": tri_pair.x.acts.tolist()},
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
                               "alpha": d_reg_pair.alpha.matrix.arr.tolist()},
            "tri_regular_pair": {"extension": "triangular",
                                 "x": "tri_regular",
                                 "alpha": tri_pair.alpha.matrix.arr.tolist()},
            "zk_over_d": {"extension": "d", "x": "zk", "alpha": [[0]]},
        },
        "copairs": {
            "d_regular_copair": {
                "extension": "d", "y": "d_regular_y",
                "beta": d_reg_copair.beta.matrix.arr.tolist()},
            "zk_over_d_copair": {"extension": "d", "y": "zk",
                                 "beta": [[0]]},
        },
        "right_pairs": {
            "d_regular_right_pair": {"extension": "d", "x": "d_regular_w",
                                     "alpha": d_right_alpha.arr.tolist()},
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
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as e:
            raise WorkspaceError(f"--out '{out}': {e.strerror}") from e
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


def _parser() -> argparse.ArgumentParser:
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
    return parser


# built once per process, which saves only where main() runs more than once
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
        where = f"'{args.workspace}': " if isinstance(e, _Named) else ""
        sys.stderr.write(f"error: {where}{e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
