"""Morita context rings with zero pairings, their four-tuple module
categories, and the category isomorphisms onto modules over the trivial
extension (A x B) |x (U + V).

Basis order everywhere: A, B, U, V.  The ring is the total algebra of the
trivial extension, whose structure constants are checked entry by entry
against those of the matrix multiplication rule.  A (co)tuple holds the
module over the ring whose U and V blocks are f and g (resp. evaluate
them), built once in its constructor and checked once, by that module's
law: given valid X, Y and linear f, g, the law fails at a (base, ideal)
basis pair when f or g is not a module map, and at u_i v_j = 0 or
v_i u_j = 0 when one of the two composite axioms does.  theta and theta_co
read the (co)pair off that module; theta_inverse reads the blocks back.
The theorem harnesses are the corollary harness over the extension by
U + V, plus the sufficiency reports on U and V.

A right tuple (W, Q, f, g), W and Q modules over A^op and B^op, is the
`TupleModule` (W, Q, g, f) over the opposite context (A^op, B^op, V^swap,
U^swap), whose ring `MoritaRing.opposite` links back.  Its ideal blocks
come in the order V, U, so upsilon and its inverse are theta and
theta_inverse there plus `_swap_ideal`.  `right_tuple` reads f and g in
the coordinates of Q ox U and W ox V, the one place they enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .algebra import (Algebra, Bimodule, LeftModule, ModuleHom,
                      cokernel_module, hom_from_bimodule, invariant_action,
                      is_exact_at, kernel_module, opposite_algebra,
                      product_algebra, row_space_of_columns, swapped_tensor,
                      tensor_bimodule_left, tensor_map_second)
from .gorenstein import (compatibility_report, gf_check_right, gi_check,
                         gp_check, verify_corollary)
from .linalg import FpMatrix, direct_sum, echelon_coords
from .trivext import (CopairModule, PairModule, Presented,
                      TrivialExtension, module_to_copair, module_to_pair,
                      opposite_extension, pair_to_module, trivial_extension)


class MoritaError(ValueError):
    pass


@dataclass
class MoritaContextData:
    """(A, B, U, V) with both pairings fixed to zero; U is a B-A-bimodule
    and V an A-B-bimodule."""
    a: Algebra
    b: Algebra
    u: Bimodule
    v: Bimodule

    def __post_init__(self):
        if self.u.left_over is not self.b or self.u.right_over is not self.a:
            raise MoritaError("u must be a B-A-bimodule")
        if self.v.left_over is not self.a or self.v.right_over is not self.b:
            raise MoritaError("v must be an A-B-bimodule")


@dataclass
class MoritaRing:
    context: MoritaContextData
    prod: Algebra               # A x B
    e_a: np.ndarray
    e_b: np.ndarray
    bim: Bimodule               # U + V over A x B
    ext: TrivialExtension

    @property
    def total(self) -> Algebra:
        return self.ext.total

    @cached_property
    def opposite(self) -> "MoritaRing":
        """The ring of the opposite context (A^op, B^op, V^swap, U^swap),
        whose opposite is this ring."""
        c = self.context
        op = morita_ring(MoritaContextData(
            opposite_algebra(c.a), opposite_algebra(c.b), c.v.swap(),
            c.u.swap()))
        op.opposite = self
        return op


def morita_ring(d: MoritaContextData) -> MoritaRing:
    """The ring as the extension (A x B) |x (U + V), checked against the
    table of the matrix multiplication rule built here."""
    a, b, u, v = d.a, d.b, d.u, d.v
    field = a.field
    na, nb, du, dv = a.dim, b.dim, u.dim, v.dim
    n = na + nb + du + dv
    oa, ob, ou, ov = 0, na, na + nb, na + nb + du
    sc = np.zeros((n, n, n), dtype=np.int64)
    sc[oa:ob, oa:ob, oa:ob] = a.sc
    sc[ob:ou, ob:ou, ob:ou] = b.sc
    for i in range(na):
        sc[oa + i, ov:, ov:] = v.left_action[i].arr.T
        sc[ou:ov, oa + i, ou:ov] = u.right_action[i].arr.T
    for j in range(nb):
        sc[ob + j, ou:ov, ou:ov] = u.left_action[j].arr.T
        sc[ov:, ob + j, ov:] = v.right_action[j].arr.T
    unit = np.zeros(n, dtype=np.int64)
    unit[oa:ob] = a.unit
    unit[ob:ou] = b.unit
    prod, e_a, e_b = product_algebra(a, b)
    zu = FpMatrix.zeros(du, du, field)
    zv = FpMatrix.zeros(dv, dv, field)
    left = [direct_sum(zu, v.left_action[i]) for i in range(na)] + \
        [direct_sum(u.left_action[j], zv) for j in range(nb)]
    right = [direct_sum(u.right_action[i], zv) for i in range(na)] + \
        [direct_sum(zu, v.right_action[j]) for j in range(nb)]
    bim = Bimodule(prod, prod, left, right, validate=False)
    ext = trivial_extension(prod, bim)
    if not (ext.total.sc == sc).all() or not (ext.total.unit == unit).all():
        raise MoritaError("the two ring constructions disagree")
    return MoritaRing(d, prod, e_a, e_b, bim, ext)


# ---------------------------------------------------------------------------
# tuple categories


class _RingPresented(Presented):
    """A (co)tuple: its module over the ring has U and V blocks f and g
    (resp. their evaluations), and its law fails at a (base, U) or
    (base, V) basis pair when f or g is not a module map, at v_i u_j = 0
    with the first of its `axioms`, and at u_i v_j = 0 with the second."""
    error = MoritaError

    def axiom(self, i: int, j: int) -> Optional[str]:
        k, du = self.ring.prod.dim, self.ring.context.u.dim
        if min(i, j) >= k:
            return self.axioms[i < k + du]
        if max(i, j) >= k:
            return "fg"[max(i, j) >= k + du] + " is not a module map"


class TupleModule(_RingPresented):
    """(X, Y, f, g): X over A, Y over B, f: U ox X -> Y, g: V ox Y -> X,
    with both composites zero."""
    axioms = ("g o (V ox f) != 0", "f o (U ox g) != 0")

    def __init__(self, ring: MoritaRing, x: LeftModule, y: LeftModule,
                 f_matrix: FpMatrix, g_matrix: FpMatrix,
                 validate: bool = True):
        self.ring = ring
        self.x = x
        self.y = y
        self.tsux = tensor_bimodule_left(ring.context.u, x)
        self.tsvy = tensor_bimodule_left(ring.context.v, y)
        self.f = ModuleHom(self.tsux.space, y, f_matrix, validate=False)
        self.g = ModuleHom(self.tsvy.space, x, g_matrix, validate=False)
        du, dv = ring.context.u.dim, ring.context.v.dim
        f = (f_matrix @ self.tsux.project).arr.reshape(y.dim, du, x.dim)
        g = (g_matrix @ self.tsvy.project).arr.reshape(x.dim, dv, y.dim)
        self.module = _ring_module(ring, x, y, f.transpose(1, 0, 2),
                                   g.transpose(1, 0, 2))
        if validate:
            self.validate()

    def composites(self) -> Tuple[ModuleHom, ModuleHom]:
        """(V ox f, U ox g)."""
        ts_vux = tensor_bimodule_left(self.ring.context.v, self.tsux.space)
        ts_uvy = tensor_bimodule_left(self.ring.context.u, self.tsvy.space)
        return (tensor_map_second(ts_vux, self.tsvy, self.f),
                tensor_map_second(ts_uvy, self.tsux, self.g))


def right_tuple(ring: MoritaRing, w: LeftModule, q: LeftModule,
                f_matrix: FpMatrix, g_matrix: FpMatrix) -> TupleModule:
    """The right tuple (W, Q, f, g): W over A and Q over B on the right
    (modules over A^op and B^op), f: Q ox U -> W and g: W ox V -> Q in the
    coordinates of Q ox U and W ox V, with both composites zero.  It is
    the tuple (W, Q, g, f) over the opposite context."""
    op = ring.opposite
    return TupleModule(op, w, q,
                       g_matrix @ swapped_tensor(op.context.u, w).to_left,
                       f_matrix @ swapped_tensor(op.context.v, q).to_left)


class CoTupleModule(_RingPresented):
    """[X, Y, f, g]: f: X -> Hom_B(U, Y), g: Y -> Hom_A(V, X), with both
    postcompositions zero; the injective-side mirror of TupleModule."""
    axioms = ("Hom(U, g) o f != 0", "Hom(V, f) o g != 0")

    def __init__(self, ring: MoritaRing, x: LeftModule, y: LeftModule,
                 f_matrix: FpMatrix, g_matrix: FpMatrix):
        self.ring = ring
        self.x = x
        self.y = y
        self.hom_uy = hom_from_bimodule(ring.context.u, y)
        self.hom_vx = hom_from_bimodule(ring.context.v, x)
        self.f = ModuleHom(x, self.hom_uy.space, f_matrix, validate=False)
        self.g = ModuleHom(y, self.hom_vx.space, g_matrix, validate=False)
        # block k sends b to f(b)(u_k), resp. g(b)(v_k)
        self.module = _ring_module(ring, x, y, *(
            hm.homs.basis_array().transpose(2, 1, 0) @ mat.arr
            for hm, mat in ((self.hom_uy, f_matrix), (self.hom_vx, g_matrix))))
        self.validate()

    def composites(self) -> Tuple[ModuleHom, ModuleHom]:
        """(Hom(U, g), Hom(V, f))."""
        hom_ugv = hom_from_bimodule(self.ring.context.u, self.hom_vx.space)
        hom_vfu = hom_from_bimodule(self.ring.context.v, self.hom_uy.space)
        return (self.hom_uy.postcompose(hom_ugv, self.g),
                self.hom_vx.postcompose(hom_vfu, self.f))


# ---------------------------------------------------------------------------
# the category isomorphisms


def _ring_module(ring: MoritaRing, x: LeftModule, y: LeftModule,
                 u_blocks: np.ndarray, v_blocks: np.ndarray) -> LeftModule:
    """X + Y as a module over the ring: A and B act on X and Y, the k-th
    basis element of U by u_blocks[k]: X -> Y and that of V by
    v_blocks[k]: Y -> X."""
    na, k, du = ring.context.a.dim, ring.prod.dim, ring.context.u.dim
    dx, n = x.dim, x.dim + y.dim
    action = np.zeros((ring.total.dim, n, n), dtype=np.int64)
    action[:na, :dx, :dx] = [m.arr for m in x.action]
    action[na:k, dx:, dx:] = [m.arr for m in y.action]
    action[k:k + du, dx:, :dx] = u_blocks
    action[k + du:, :dx, dx:] = v_blocks
    return LeftModule(ring.total, [FpMatrix(m, ring.prod.field)
                                   for m in action], validate=False)


def theta(t: TupleModule) -> PairModule:
    """The pair ((X, Y), (g, f)) over the extension, read off the module
    over the ring that the tuple holds."""
    return module_to_pair(t.module, t.ring.ext)


def _split_prod_left(ring: MoritaRing, p: LeftModule):
    """Split a left (A x B)-module along the central idempotents; returns
    (x over A, incl_x, y over B, incl_y)."""
    na = ring.context.a.dim
    out = []
    for alg, e, action in ((ring.context.a, ring.e_a, p.action[:na]),
                           (ring.context.b, ring.e_b, p.action[na:])):
        basis = row_space_of_columns(p.act_matrix(e))
        induced = invariant_action(action, basis)
        if induced is None:
            raise MoritaError("idempotent splitting failed")
        out += [LeftModule(alg, induced, validate=False), basis.transpose()]
    return tuple(out)


def _read_blocks(action: list, incl_src: FpMatrix, incl_tgt: FpMatrix,
                 ts) -> Optional[FpMatrix]:
    """The map ts.space -> target, ts the tensor of a bimodule with the
    source, whose block at the k-th bimodule basis element is action[k]
    between the summands with column bases incl_src and incl_tgt; None when
    the action leaves the target summand."""
    d, ds = incl_src.rows, incl_src.cols
    stack = np.array([m.arr for m in action], dtype=np.int64).reshape(
        len(action), d, d) @ incl_src.arr
    plain = stack.transpose(1, 0, 2).reshape(d, len(action) * ds)
    # incl_tgt is an RREF basis transposed
    x = echelon_coords(incl_tgt.transpose(),
                       (FpMatrix(plain, incl_src.field) @ ts.include).arr.T)
    return None if x is None else FpMatrix(x.T, incl_src.field)


def theta_inverse(pair: PairModule, ring: MoritaRing) -> TupleModule:
    """The tuple whose f and g are the U and V blocks of the pair's module
    over the ring, split along the central idempotents of A x B."""
    if pair.t is not ring.ext:
        raise MoritaError("pair does not live over this ring")
    x, incl_x, y, incl_y = _split_prod_left(ring, pair.x)
    ideal = pair_to_module(pair).action[ring.prod.dim:]
    du = ring.context.u.dim
    f = _read_blocks(ideal[:du], incl_x, incl_y,
                     tensor_bimodule_left(ring.context.u, x))
    g = _read_blocks(ideal[du:], incl_y, incl_x,
                     tensor_bimodule_left(ring.context.v, y))
    if f is None or g is None:
        raise MoritaError("structure map does not respect the splitting")
    return TupleModule(ring, x, y, f, g, validate=False)


def _swap_ideal(ring: MoritaRing, action: list) -> list:
    """Reorder per-basis-element matrices of `ring`'s total algebra from
    ideal blocks U, V to V, U, the order of the opposite context's ring;
    with `ring.opposite` in place of `ring` this is the way back."""
    k, du = ring.prod.dim, ring.context.u.dim
    return action[:k] + action[k + du:] + action[k:k + du]


def _right_module(rt: TupleModule) -> LeftModule:
    """upsilon(rt) as a right module over R = rt.ring.opposite, a module
    over R^op: rt's module with the ideal blocks put back in the order U, V.
    The total algebra of rt.ring is R^op up to that reordering of its
    basis, so the law of rt's module carries over."""
    return LeftModule(opposite_algebra(rt.ring.opposite.total),
                      _swap_ideal(rt.ring, rt.module.action), validate=False)


def upsilon(rt: TupleModule) -> PairModule:
    """The right pair ((W, Q), (f, g)) over the extension of
    rt.ring.opposite: the pair over the opposite extension."""
    return module_to_pair(_right_module(rt),
                          opposite_extension(rt.ring.opposite.ext))


def upsilon_inverse(rp: PairModule, ring: MoritaRing) -> TupleModule:
    """The right tuple of the right pair rp over the ring's extension:
    theta_inverse over the opposite context, after putting the ideal
    blocks in the order V, U."""
    if rp.t is not opposite_extension(ring.ext):
        raise MoritaError("pair does not live over this ring")
    op = ring.opposite
    mod = LeftModule(op.total, _swap_ideal(ring, pair_to_module(rp).action))
    return theta_inverse(module_to_pair(mod, op.ext), op)


def theta_co(ct: CoTupleModule) -> CopairModule:
    """The copair over the extension, read off the module over the ring
    that the cotuple holds."""
    return module_to_copair(ct.module, ct.ring.ext)


# ---------------------------------------------------------------------------
# theorem harnesses


def _tuple_hypotheses(t: TupleModule, decide: Callable, bound) -> dict:
    vf, ug = t.composites()
    return {"seq1_exact": is_exact_at(vf, t.g),
            "seq2_exact": is_exact_at(ug, t.f),
            "coker_f_verdict": decide(cokernel_module(t.f)[0], bound),
            "coker_g_verdict": decide(cokernel_module(t.g)[0], bound)}


def verify_theorem(ring: MoritaRing, lhs, hypotheses: dict, bound) -> dict:
    """One (co)tuple's Gorenstein verdict lhs over the Morita ring against
    its tuple-level hypotheses: the corollary harness over the extension
    by U + V, with the hypotheses inlined and the sufficiency reports on U
    and V added."""
    out = verify_corollary(ring.ext, lhs, hypotheses, bound)
    out.update(out.pop("hypotheses"))
    comp_u = compatibility_report(ring.context.u, bound)
    comp_v = compatibility_report(ring.context.v, bound)
    return {**out, "u_report": comp_u, "v_report": comp_v,
            "components_established": comp_u.sufficient_via is not None
            and comp_v.sufficient_via is not None,
            "established": out["hypotheses_established"]}


def verify_thm52(t: TupleModule, bound=None) -> dict:
    """Tuple-level hypotheses vs Gorenstein projectivity."""
    return verify_theorem(t.ring, gp_check(t.module, bound),
                          _tuple_hypotheses(t, gp_check, bound), bound)


def verify_thm53(ct: CoTupleModule, bound=None) -> dict:
    """Hom-side mirror: hypotheses vs Gorenstein injectivity."""
    ug, vf = ct.composites()
    hypotheses = {
        "seq1_exact": is_exact_at(ct.f, ug),
        "seq2_exact": is_exact_at(ct.g, vf),
        "ker_f_verdict": gi_check(kernel_module(ct.f)[0], bound),
        "ker_g_verdict": gi_check(kernel_module(ct.g)[0], bound)}
    return verify_theorem(ct.ring, gi_check(ct.module, bound), hypotheses,
                          bound)


# a right tuple (W, Q, f, g) is the tuple (W, Q, g, f): f and g swap
_EXCHANGE_FG = {"seq1_exact": "seq2_exact", "seq2_exact": "seq1_exact",
                "coker_f_verdict": "coker_g_verdict",
                "coker_g_verdict": "coker_f_verdict"}


def verify_thm54(rt: TupleModule, bound=None) -> dict:
    """Right-module mirror: hypotheses vs Gorenstein flatness of a right
    tuple, the tuple over the opposite context."""
    hyp = _tuple_hypotheses(rt, gf_check_right, bound)
    return verify_theorem(rt.ring.opposite,
                          gf_check_right(_right_module(rt), bound),
                          {_EXCHANGE_FG[k]: v for k, v in hyp.items()},
                          bound)
