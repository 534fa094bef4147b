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

from .algebra import (Algebra, Bimodule, LeftModule, RightModule,
                      monomial_quiver_algebra, product_algebra)
from .gorenstein import (GorensteinVerdict, CompatibilityReport,
                         build_copair_complete_coresolution,
                         build_pair_complete_resolution, gf_check_right,
                         gi_check, gp_check,
                         validate_copair_complete_coresolution,
                         validate_pair_complete_resolution, verify_cor35,
                         verify_cor45, verify_cor48)
from .homology import DimensionVerdict, default_bound
from .linalg import FieldSpec, FpMatrix
from .morita import (CoTupleModule, MoritaContextData, MoritaRing,
                     RightTupleModule, TupleModule, morita_ring, theta,
                     theta_co, upsilon, verify_thm52, verify_thm53,
                     verify_thm54)
from .trivext import (CopairModule, PairModule, RightPairModule,
                      TrivialExtension, copair_to_module,
                      module_to_copair, module_to_pair,
                      module_to_right_pair, pair_to_module,
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


class Workspace:
    """Named entities resolved from a workspace file."""

    def __init__(self, data: dict):
        if data.get("schema_version") != SCHEMA_VERSION:
            raise WorkspaceError("unsupported or missing schema_version")
        self.data = data
        self.field = FieldSpec(int(data.get("field", {}).get("p", 2)))
        self.algebras = {}
        self.bimodules = {}
        self.modules = {}
        self.extensions = {}
        self.contexts = {}
        self.pairs = {}
        self.copairs = {}
        self.right_pairs = {}
        self.tuples = {}
        self.cotuples = {}
        self.right_tuples = {}
        self._build()

    def _entity(self, table: dict, name: str, kind: str):
        if name not in table:
            raise WorkspaceError(f"{kind} '{name}': unknown reference")
        return table[name]

    def _build(self):
        d = self.data
        for name, spec in sorted(d.get("algebras", {}).items()):
            try:
                field = FieldSpec(int(spec["p"])) if "p" in spec else self.field
                if "quiver" in spec:
                    q = spec["quiver"]
                    self.algebras[name] = monomial_quiver_algebra(
                        int(q["vertices"]),
                        [tuple(x) for x in q["arrows"]],
                        [list(r) for r in q.get("zero_relations", [])],
                        field)
                else:
                    sc = np.asarray(spec["structure_constants"],
                                    dtype=np.int64)
                    self.algebras[name] = Algebra(field, sc, spec["unit"])
            except WorkspaceError:
                raise
            except Exception as e:
                raise WorkspaceError(f"algebra '{name}': {e}")
        for name, spec in sorted(d.get("bimodules", {}).items()):
            try:
                lo = self._entity(self.algebras, spec["left_over"], "bimodule")
                ro = self._entity(self.algebras, spec["right_over"],
                                  "bimodule")
                self.bimodules[name] = Bimodule(
                    lo, ro, _mat_list(spec["left_action"], lo.field),
                    _mat_list(spec["right_action"], ro.field))
            except WorkspaceError:
                raise
            except Exception as e:
                raise WorkspaceError(f"bimodule '{name}': {e}")
        for name, spec in sorted(d.get("modules", {}).items()):
            try:
                over = self._entity(self.algebras, spec["over"], "module")
                cls = RightModule if spec.get("side") == "right" else \
                    LeftModule
                self.modules[name] = cls(
                    over, _mat_list(spec["action"], over.field))
            except WorkspaceError:
                raise
            except Exception as e:
                raise WorkspaceError(f"module '{name}': {e}")
        for name, spec in sorted(d.get("extensions", {}).items()):
            try:
                base = self._entity(self.algebras, spec["base"], "extension")
                bim = self._entity(self.bimodules, spec["bimodule"],
                                   "extension")
                self.extensions[name] = trivial_extension(base, bim)
            except WorkspaceError:
                raise
            except Exception as e:
                raise WorkspaceError(f"extension '{name}': {e}")
        for name, spec in sorted(d.get("morita_contexts", {}).items()):
            try:
                ctx = MoritaContextData(
                    self._entity(self.algebras, spec["a"], "morita context"),
                    self._entity(self.algebras, spec["b"], "morita context"),
                    self._entity(self.bimodules, spec["u"], "morita context"),
                    self._entity(self.bimodules, spec["v"], "morita context"))
                self.contexts[name] = morita_ring(ctx)
            except WorkspaceError:
                raise
            except Exception as e:
                raise WorkspaceError(f"morita context '{name}': {e}")
        for name, spec in sorted(d.get("pairs", {}).items()):
            try:
                t = self._entity(self.extensions, spec["extension"], "pair")
                x = self._entity(self.modules, spec["x"], "pair")
                self.pairs[name] = PairModule(t, x,
                                              _mat(spec["alpha"], t.field))
            except WorkspaceError:
                raise
            except Exception as e:
                raise WorkspaceError(f"pair '{name}': {e}")
        for name, spec in sorted(d.get("copairs", {}).items()):
            try:
                t = self._entity(self.extensions, spec["extension"], "copair")
                y = self._entity(self.modules, spec["y"], "copair")
                self.copairs[name] = CopairModule(t, y,
                                                  _mat(spec["beta"], t.field))
            except WorkspaceError:
                raise
            except Exception as e:
                raise WorkspaceError(f"copair '{name}': {e}")
        for name, spec in sorted(d.get("right_pairs", {}).items()):
            try:
                t = self._entity(self.extensions, spec["extension"],
                                 "right pair")
                x = self._entity(self.modules, spec["x"], "right pair")
                self.right_pairs[name] = RightPairModule(
                    t, x, _mat(spec["alpha"], t.field))
            except WorkspaceError:
                raise
            except Exception as e:
                raise WorkspaceError(f"right pair '{name}': {e}")
        for kind, table, cls in (("tuples", self.tuples, TupleModule),
                                 ("cotuples", self.cotuples, CoTupleModule),
                                 ("right_tuples", self.right_tuples,
                                  RightTupleModule)):
            for name, spec in sorted(d.get(kind, {}).items()):
                try:
                    ring = self._entity(self.contexts, spec["context"],
                                        kind[:-1])
                    first = self._entity(self.modules,
                                         spec.get("x", spec.get("w")),
                                         kind[:-1])
                    second = self._entity(self.modules,
                                          spec.get("y", spec.get("q")),
                                          kind[:-1])
                    table[name] = cls(ring, first, second,
                                      _mat(spec["f"], ring.prod.field),
                                      _mat(spec["g"], ring.prod.field))
                except WorkspaceError:
                    raise
                except Exception as e:
                    raise WorkspaceError(f"{kind[:-1]} '{name}': {e}")

    def counts(self) -> dict:
        return {
            "algebras": len(self.algebras),
            "bimodules": len(self.bimodules),
            "modules": len(self.modules),
            "extensions": len(self.extensions),
            "morita_contexts": len(self.contexts),
            "pairs": len(self.pairs),
            "copairs": len(self.copairs),
            "right_pairs": len(self.right_pairs),
            "tuples": len(self.tuples),
            "cotuples": len(self.cotuples),
            "right_tuples": len(self.right_tuples),
        }

    def to_dict(self) -> dict:
        return self.data


def load(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise WorkspaceError(f"parse error: {e}")
    return Workspace(data)


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


def run(command: str, ws: Workspace, args) -> dict:
    report = _base_report(command, args)
    results = {}
    if command == "validate":
        report["entities"] = ws.counts()
        return report
    if command.startswith("check "):
        mode = command.split()[1]
        if mode == "gp":
            for name, pair in _select(ws.pairs, args.target, "pair"):
                results[name] = _jsonify(gp_check(
                    pair_to_module(pair), args.bound, args.seed))
        elif mode == "gi":
            for name, cp in _select(ws.copairs, args.target, "copair"):
                results[name] = _jsonify(gi_check(
                    copair_to_module(cp), args.bound, args.seed))
        elif mode == "gf":
            for name, rp in _select(ws.right_pairs, args.target,
                                    "right pair"):
                results[name] = _jsonify(gf_check_right(
                    right_pair_to_module(rp), args.bound, args.seed))
        report["results"] = results
        return report
    if command.startswith("verify "):
        which = command.split()[1]
        spec = {
            "cor35": (ws.pairs, verify_cor35, "pair"),
            "cor45": (ws.copairs, verify_cor45, "copair"),
            "cor48": (ws.right_pairs, verify_cor48, "right pair"),
            "thm52": (ws.tuples, verify_thm52, "tuple"),
            "thm53": (ws.cotuples, verify_thm53, "cotuple"),
            "thm54": (ws.right_tuples, verify_thm54, "right tuple"),
        }[which]
        table, fn, kind = spec
        for name, inst in _select(table, args.target, kind):
            results[name] = _jsonify(fn(inst, args.bound, args.seed))
        report["results"] = results
        return report
    if command.startswith("resolve "):
        which = command.split()[1]
        from .gorenstein import GorensteinError
        if which == "pair":
            for name, pair in _select(ws.pairs, args.target, "pair"):
                try:
                    res = build_pair_complete_resolution(pair, args.window,
                                                         args.seed)
                except GorensteinError as e:
                    results[name] = {"error": str(e)}
                    continue
                val = validate_pair_complete_resolution(res, args.seed)
                results[name] = _jsonify({
                    "term_dims": [m.dim for m in res.complex.modules],
                    "lo": res.complex.lo, "hi": res.complex.hi,
                    "validation": val})
        else:
            for name, cp in _select(ws.copairs, args.target, "copair"):
                try:
                    res = build_copair_complete_coresolution(cp, args.window,
                                                             args.seed)
                except GorensteinError as e:
                    results[name] = {"error": str(e)}
                    continue
                val = validate_copair_complete_coresolution(res, args.seed)
                results[name] = _jsonify({
                    "term_dims": [m.dim for m in res.complex.modules],
                    "lo": res.complex.lo, "hi": res.complex.hi,
                    "validation": val})
        report["results"] = results
        return report
    raise WorkspaceError(f"unknown command '{command}'")


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
    pc = sub.add_parser("check", help="single Gorenstein checks")
    pc.add_argument("mode", choices=["gp", "gi", "gf"])
    common(pc)
    pv = sub.add_parser("verify", help="theorem verification suites")
    pv.add_argument("which", choices=["cor35", "cor45", "cor48",
                                      "thm52", "thm53", "thm54"])
    common(pv)
    pr = sub.add_parser("resolve", help="build complete (co)resolutions")
    pr.add_argument("kind", choices=["pair", "copair"])
    common(pr)
    pe = sub.add_parser("examples", help="built-in corpus")
    pe.add_argument("action", choices=["emit"])
    common(pe, needs_file=False)

    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.cmd == "examples":
            data = emit_builtin_examples()
            payload = json.dumps(data, sort_keys=True, indent=2) + "\n"
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            else:
                sys.stdout.write(payload)
            return 0
        ws = load(args.workspace)
        if args.cmd == "validate":
            command = "validate"
        elif args.cmd == "check":
            command = f"check {args.mode}"
        elif args.cmd == "verify":
            command = f"verify {args.which}"
        else:
            command = f"resolve {args.kind}"
        report = run(command, ws, args)
        report["timing_ms"] = int((time.monotonic() - started) * 1000)
        _write_report(report, args.out)
        return 0
    except WorkspaceError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
