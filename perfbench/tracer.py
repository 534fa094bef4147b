"""Outside-in tracer for the extalg layers.

The tracer changes no source file.  It replaces the public functions of the
eight layer modules (plus a few named private helpers and class methods)
with wrappers that record one span per call, and rebinds each wrapped
function in every ``extalg.*`` namespace that imported it: ``from .linalg
import rref`` copies the name into the importing module, so patching
``extalg.linalg`` alone would miss those calls.

A span is ``(job, function, parent function, start, duration, self time)``.
Self time is the duration minus the time covered by child spans.  Spans are
kept in memory and only aggregated into the per-layer metrics once the
traced pass is over.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import pkgutil
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("linalg", "algebra", "structure", "homology", "trivext",
          "gorenstein", "morita", "cli")

# Private helpers that carry work a per-layer metric needs to see.
PRIVATE = {
    "linalg": ("_rref_inplace",),
    "structure": ("_pim_triples",),
}

# Class methods that get a span; (module, class, method).
METHODS = (
    ("algebra", "LeftModule", "validate"),
    ("algebra", "Bimodule", "validate"),
    ("algebra", "ModuleHom", "validate"),
    ("algebra", "HomSpace", "__init__"),
    ("algebra", "HomSpace", "coords"),
)

VALIDATORS = ("algebra.validate_algebra", "algebra.LeftModule.validate",
              "algebra.Bimodule.validate", "algebra.ModuleHom.validate")
TENSOR_BUILDERS = ("tensor_bimodule_left", "tensor_right_bimodule",
                   "tensor_right_left")
CONVERSIONS = ("pair_to_module", "module_to_pair", "copair_to_module",
               "module_to_copair", "right_pair_to_module",
               "module_to_right_pair")
DECIDERS = ("gp_check", "gi_check", "gf_check_right")
HARNESSES = ("verify_thm52", "verify_thm53", "verify_thm54")
CACHED = {"simples": "simples", "_pim_triples": "pim_triples",
          "algebra_radical": "radical", "injective_indecomposables": "iims"}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _bimodule_key(n, bound, seed) -> str:
    h = hashlib.sha1()
    for side in (n.left_over, n.right_over):
        h.update(side.sc.tobytes())
    for m in list(n.left_action) + list(n.right_action):
        h.update(repr(m.arr.shape).encode())
        h.update(m.arr.tobytes())
    h.update(repr((n.left_over.field.p, bound, seed)).encode())
    return h.hexdigest()


class Tracer:
    """Traces while inside ``with tracer:``, which may be entered many
    times; spans and counts accumulate across entries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = -1
        self._stack = []          # [function index, child time] per open span
        self._names = []          # function index -> "layer.qualname"
        self._patched = None      # built on first entry, reused after
        self._compat_seen = set()

    # -- probes: counters read from the arguments or result of a call ------

    def _before(self, qual: str, args, kwargs):
        c = self.counts
        layer, name = qual.split(".", 1)
        if qual == "linalg._rref_inplace":
            a, p = args[0], args[1]
            cells = a.shape[0] * a.shape[1]
            c["elim.calls"] += 1
            c["elim.cells"] += cells
            c["elim.cells.p2" if p == 2 else "elim.cells.podd"] += cells
        elif qual == "linalg.kron":
            a, b = args[0], args[1]
            c["kron.cells"] += a.rows * a.cols * b.rows * b.cols
        elif qual == "algebra.HomSpace.__init__":
            src, tgt = args[1], args[2]
            cells = src.over.dim * (src.dim * tgt.dim) ** 2
            c["homspace.builds"] += 1
            c["homspace.system_cells"] += cells
        elif qual == "structure.find_proper_submodule":
            m = args[0]
            budget = _arg(args, kwargs, 2, "budget",
                          sys.modules["extalg.structure"].EXHAUSTIVE_BUDGET)
            c["sweep.calls"] += 1
            c["sweep.seeded"] += m.over.field.p ** m.dim > budget
        elif layer == "structure" and name in CACHED:
            a = args[0]
            key = (CACHED[name], _arg(args, kwargs, 1, "seed", 0))
            c["cache.calls"] += 1
            c["cache.hits"] += key in a._cache
        elif qual == "gorenstein.gorenstein_regime":
            a = args[0]
            bound = _arg(args, kwargs, 1, "bound")
            if bound is None:  # unwrapped, so that the probe adds no span
                bound = inspect.unwrap(
                    sys.modules["extalg.homology"].default_bound)(a)
            c["regime.calls"] += 1
            c["regime.hits"] += ("regime", bound) in a._cache
        elif qual == "gorenstein.compatibility_report":
            key = (self.job, _bimodule_key(
                args[0], _arg(args, kwargs, 1, "bound"),
                _arg(args, kwargs, 2, "seed", 0)))
            c["compat.calls"] += 1
            c["compat.repeats"] += key in self._compat_seen
            self._compat_seen.add(key)

    def _after(self, qual: str, result):
        if qual == "homology.minimal_projective_resolution":
            self.counts["resolution.term_dim_sum"] += sum(
                t.dim for t in result.terms)
        elif qual == "homology.pd_bounded":
            self.counts["dim_verdicts.exceeds"] += not result.is_finite()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, qual: str):
        idx = len(self._names)
        self._names.append(qual)
        needs_before = qual in _BEFORE
        needs_after = qual in _AFTER
        spans, stack = self.spans, self._stack
        before, after = self._before, self._after

        def probe(hook, *args):
            # the probe's time is the tracer's own: keep it out of the
            # enclosing span's self time
            t0 = perf_counter()
            hook(qual, *args)
            if stack:
                stack[-1][1] += perf_counter() - t0

        def traced(*args, **kwargs):
            if needs_before:
                probe(before, args, kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                spans.append((self.job, idx, parent, t0, dur, dur - frame[1]))
            if needs_after:
                probe(after, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _patches(self):
        """[(owner, attribute, original, wrapper)] for every traced name."""
        pkg = importlib.import_module("extalg")
        modules = [importlib.import_module(f"extalg.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)]
        wrapped = {}           # original function -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"extalg.{layer}"]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and (not name.startswith("_")
                             or name in PRIVATE.get(layer, ()))):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
        patches = [(mod, name, obj, wrapped[obj])
                   for mod in modules for name, obj in vars(mod).items()
                   if isinstance(obj, types.FunctionType) and obj in wrapped]
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"extalg.{layer}"], cls_name)
            original = vars(cls)[meth]
            patches.append((cls, meth, original, self._wrap(
                original, f"{layer}.{cls_name}.{meth}")))
        fpmatrix = sys.modules["extalg.linalg"].FpMatrix
        init, counts = fpmatrix.__init__, self.counts

        def counted_init(obj, *args, **kwargs):
            counts["fpmatrix.builds"] += 1
            init(obj, *args, **kwargs)

        patches.append((fpmatrix, "__init__", init, counted_init))
        return patches

    def __enter__(self) -> "Tracer":
        if self._patched is None:
            self._patched = self._patches()
        for owner, attr, _, wrapper in self._patched:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._patched:
            setattr(owner, attr, original)
        return False

    # -- aggregation --------------------------------------------------------

    def function_table(self):
        """{qualified name: [calls, total seconds, self seconds]}, where the
        total counts only outermost calls of a recursive function."""
        table = {}
        for _, idx, parent, _, dur, self_s in self.spans:
            row = table.setdefault(self._names[idx], [0, 0.0, 0.0])
            row[0] += 1
            row[2] += self_s
            if parent != idx:
                row[1] += dur
        return table

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        table = self.function_table()
        c = self.counts

        def calls(*quals):
            return sum(table.get(q, [0])[0] for q in quals)

        def layer_self(layer):
            return sum((row[2] for q, row in table.items()
                        if q.startswith(layer + ".")), 0.0)

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        return {
            "linalg.self_s": layer_self("linalg"),
            "linalg.elim.cells": c["elim.cells"],
            "linalg.elim.cells.p2": c["elim.cells.p2"],
            "linalg.elim.cells.podd": c["elim.cells.podd"],
            "linalg.elim.calls": c["elim.calls"],
            "linalg.solve.calls": calls("linalg.solve"),
            "linalg.fpmatrix.builds": c["fpmatrix.builds"],
            "linalg.kron.cells": c["kron.cells"],
            "algebra.self_s": layer_self("algebra"),
            "algebra.validate.calls": calls(*VALIDATORS),
            "algebra.validate.self_s": sum(table.get(q, [0, 0, 0.0])[2]
                                           for q in VALIDATORS),
            "algebra.homspace.builds": c["homspace.builds"],
            "algebra.homspace.system_cells": c["homspace.system_cells"],
            "algebra.homspace.coords_calls": calls("algebra.HomSpace.coords"),
            "algebra.tensor.builds": calls(*(f"algebra.{n}"
                                             for n in TENSOR_BUILDERS)),
            "algebra.iso_search.calls": calls("algebra.find_isomorphism"),
            "structure.self_s": layer_self("structure"),
            "structure.sweep.seeded_share": ratio("sweep.seeded",
                                                  "sweep.calls"),
            "structure.cover.calls": calls("structure.projective_cover"),
            "structure.cache.hit_ratio": ratio("cache.hits", "cache.calls"),
            "homology.self_s": layer_self("homology"),
            "homology.resolution.calls": calls(
                "homology.minimal_projective_resolution"),
            "homology.resolution.term_dim_sum": c["resolution.term_dim_sum"],
            "homology.dim_verdicts.calls": calls("homology.pd_bounded"),
            "homology.dim_verdicts.exceeds": c["dim_verdicts.exceeds"],
            "trivext.self_s": layer_self("trivext"),
            "trivext.conversions.calls": calls(*(f"trivext.{n}"
                                                 for n in CONVERSIONS)),
            "gorenstein.self_s": layer_self("gorenstein"),
            "gorenstein.decider.calls": calls(*(f"gorenstein.{n}"
                                                for n in DECIDERS)),
            "gorenstein.compat_report.calls": c["compat.calls"],
            "gorenstein.compat_report.repeat_share": ratio("compat.repeats",
                                                           "compat.calls"),
            "gorenstein.regime.cache_hit_ratio": ratio("regime.hits",
                                                       "regime.calls"),
            "morita.self_s": layer_self("morita"),
            "morita.harness.calls": calls(*(f"morita.{n}" for n in HARNESSES)),
            "cli.self_s": layer_self("cli"),
            "cli.load_s": table.get("cli.load", [0, 0.0])[1],
        }


_BEFORE = {"linalg._rref_inplace", "linalg.kron", "algebra.HomSpace.__init__",
           "structure.find_proper_submodule", "gorenstein.gorenstein_regime",
           "gorenstein.compatibility_report"} | {
               f"structure.{n}" for n in CACHED}
_AFTER = {"homology.minimal_projective_resolution", "homology.pd_bounded"}
