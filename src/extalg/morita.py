"""Morita context rings with zero pairings, their four-tuple module
categories, and the category isomorphisms onto modules over the trivial
extension (A x B) |x (U + V).

The ring is that extension, built once (`MoritaRing`); its basis holds
A, B and then the U and V blocks, at the slices the ring records (U before
V for a ring built from a context).  A (co)tuple holds the module over the
ring whose U and V blocks are f and g (resp. evaluate them), built once in
its constructor and checked once, by that module's law: given valid X, Y
and linear f, g, the law fails at a (base, ideal) basis pair when f or g is
not a module map, and at u_i v_j = 0 or v_i u_j = 0 when one of the two
composite axioms does.  theta and theta_co read the (co)pair off that
module; theta_inverse reads the blocks back between the images X and Y of
the central idempotents (1, 0) and (0, 1) of A x B.  The theorem harnesses
are the corollary harness over the extension by U + V, plus the
sufficiency reports on U and V.

A right tuple (W, Q, f, g), W and Q modules over A^op and B^op, is the
`TupleModule` (W, Q, g, f) over the opposite context (A^op, B^op, V^swap,
U^swap); it names its faults in its own letters.  The ring of that context,
`MoritaRing.opposite`, is the opposite extension of this ring's, so a right
tuple's module is the right module over this ring, and upsilon and its
inverse are theta and theta_inverse over the opposite ring.  There the
opposite context's V block, U^swap, comes first.  `right_tuple` reads f
and g in the coordinates of Q ox U and W ox V, the one place they enter.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .algebra import (Algebra, Bimodule, LeftModule, ModuleHom, check_shape,
                      cokernel_module, hom_from_bimodule, is_exact_at,
                      kernel_module, opposite_algebra, product_algebra,
                      row_space_of_columns, swapped_tensor,
                      tensor_bimodule_left, tensor_map_second)
from .gorenstein import (compatibility_report, gf_check_right, gi_check,
                         gp_check, verify_corollary)
from .linalg import FpMatrix, echelon_coords, matmul_mod
from .trivext import (CopairModule, PairModule, Presented, module_to_copair,
                      module_to_pair, opposite_extension, pair_to_module,
                      trivial_extension)


class MoritaError(ValueError):
    pass


class MoritaRing:
    """The Morita context ring of (A, B, U, V), U a B-A-bimodule and V an
    A-B-bimodule, with both pairings zero: the matrix ring [[A, V], [U, B]]
    as the trivial extension ext = (A x B) |x (U + V), built once here.
    u_slice and v_slice are the basis indices of the U and V blocks of its
    total algebra."""

    def __init__(self, a: Algebra, b: Algebra, u: Bimodule, v: Bimodule):
        if u.left_over is not b or u.right_over is not a:
            raise MoritaError("u must be a B-A-bimodule")
        if v.left_over is not a or v.right_over is not b:
            raise MoritaError("v must be an A-B-bimodule")
        self.a, self.b, self.u, self.v = a, b, u, v
        prod = product_algebra(a, b)
        na, nu, k, d = a.dim, u.dim, prod.dim, u.dim + v.dim
        left = np.zeros((k, d, d), dtype=np.int64)
        right = np.zeros_like(left)
        # A x B acts on U + V by B on the left of U and A on its right,
        # and by A on the left of V and B on its right
        left[na:, :nu, :nu], right[:na, :nu, :nu] = u.left.acts, u.right.acts
        left[:na, nu:, nu:], right[na:, nu:, nu:] = v.left.acts, v.right.acts
        self.ext = trivial_extension(
            prod, Bimodule(prod, prod, left, right, validate=False))
        self.u_slice = slice(k, k + nu)
        self.v_slice = slice(k + nu, k + d)

    @property
    def prod(self) -> Algebra:
        """A x B."""
        return self.ext.base

    @property
    def total(self) -> Algebra:
        return self.ext.total

    @cached_property
    def opposite(self) -> "MoritaRing":
        """The ring of the opposite context (A^op, B^op, V^swap, U^swap),
        over `opposite_extension(self.ext)`: the opposite of this ring, with
        no algebra of its own.  Its U block V^swap lies at this ring's
        v_slice and its V block at u_slice.  Its opposite is this ring."""
        op = MoritaRing.__new__(MoritaRing)
        op.a, op.b = opposite_algebra(self.a), opposite_algebra(self.b)
        op.u, op.v = self.v.swap(), self.u.swap()
        op.ext = opposite_extension(self.ext)
        op.u_slice, op.v_slice = self.v_slice, self.u_slice
        op.opposite = self
        return op


# ---------------------------------------------------------------------------
# tuple categories


class _RingPresented(Presented):
    """A (co)tuple: its module over the ring has U and V blocks f and g
    (resp. their evaluations), and its law fails at a (base, U) or
    (base, V) basis pair when f or g is not a module map, at v_i u_j = 0
    with the first of its `axioms`, and at u_i v_j = 0 with the second;
    `letters` name the maps of the U and V blocks."""
    error = MoritaError
    letters = "fg"

    def axiom(self, i: int, j: int) -> Optional[str]:
        k = self.ring.prod.dim
        u_block = range(self.ring.total.dim)[self.ring.u_slice]
        if min(i, j) >= k:
            return self.axioms[i in u_block]
        if max(i, j) >= k:
            return self.letters[max(i, j) not in u_block] + \
                " is not a module map"


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
        self.tsux = tensor_bimodule_left(ring.u, x)
        self.tsvy = tensor_bimodule_left(ring.v, y)
        self.f = ModuleHom(self.tsux.space, y, check_shape(
            "f", f_matrix, y.dim, self.tsux.space.dim), validate=False)
        self.g = ModuleHom(self.tsvy.space, x, check_shape(
            "g", g_matrix, x.dim, self.tsvy.space.dim), validate=False)
        du, dv = ring.u.dim, ring.v.dim
        f = (f_matrix @ self.tsux.project).arr.reshape(y.dim, du, x.dim)
        g = (g_matrix @ self.tsvy.project).arr.reshape(x.dim, dv, y.dim)
        self.module = _ring_module(ring, x, y, f.transpose(1, 0, 2),
                                   g.transpose(1, 0, 2))
        if validate:
            self.validate()

    def composites(self) -> Tuple[ModuleHom, ModuleHom]:
        """(V ox f, U ox g)."""
        ts_vux = tensor_bimodule_left(self.ring.v, self.tsux.space)
        ts_uvy = tensor_bimodule_left(self.ring.u, self.tsvy.space)
        return (tensor_map_second(ts_vux, self.tsvy, self.f),
                tensor_map_second(ts_uvy, self.tsux, self.g))


def right_tuple(ring: MoritaRing, w: LeftModule, q: LeftModule,
                f_matrix: FpMatrix, g_matrix: FpMatrix) -> TupleModule:
    """The right tuple (W, Q, f, g): W over A and Q over B on the right
    (modules over A^op and B^op), f: Q ox U -> W and g: W ox V -> Q in the
    coordinates of Q ox U and W ox V, with both composites zero.  It is
    the tuple (W, Q, g, f) over the opposite context, named in its own
    letters."""
    op = ring.opposite
    rt = TupleModule(op, w, q,
                     swapped_tensor(op.u, w).on_left("g", g_matrix, q.dim),
                     swapped_tensor(op.v, q).on_left("f", f_matrix, w.dim),
                     validate=False)
    rt.letters = "gf"
    rt.axioms = ("f o (g ox U) != 0", "g o (f ox V) != 0")
    rt.validate()
    return rt


class CoTupleModule(_RingPresented):
    """[X, Y, f, g]: f: X -> Hom_B(U, Y), g: Y -> Hom_A(V, X), with both
    postcompositions zero; the injective-side mirror of TupleModule."""
    axioms = ("Hom(U, g) o f != 0", "Hom(V, f) o g != 0")

    def __init__(self, ring: MoritaRing, x: LeftModule, y: LeftModule,
                 f_matrix: FpMatrix, g_matrix: FpMatrix):
        self.ring = ring
        self.x = x
        self.y = y
        self.hom_uy = hom_from_bimodule(ring.u, y)
        self.hom_vx = hom_from_bimodule(ring.v, x)
        self.f = ModuleHom(x, self.hom_uy.space, check_shape(
            "f", f_matrix, self.hom_uy.space.dim, x.dim), validate=False)
        self.g = ModuleHom(y, self.hom_vx.space, check_shape(
            "g", g_matrix, self.hom_vx.space.dim, y.dim), validate=False)
        # block k sends b to f(b)(u_k), resp. g(b)(v_k)
        self.module = _ring_module(ring, x, y, *(matmul_mod(
            hm.homs.basis_array().transpose(2, 1, 0), mat.arr, x.over.field.p)
            for hm, mat in ((self.hom_uy, f_matrix), (self.hom_vx, g_matrix))))
        self.validate()

    def composites(self) -> Tuple[ModuleHom, ModuleHom]:
        """(Hom(U, g), Hom(V, f))."""
        hom_ugv = hom_from_bimodule(self.ring.u, self.hom_vx.space)
        hom_vfu = hom_from_bimodule(self.ring.v, self.hom_uy.space)
        return (self.hom_uy.postcompose(hom_ugv, self.g),
                self.hom_vx.postcompose(hom_vfu, self.f))


# ---------------------------------------------------------------------------
# the category isomorphisms


def _ring_module(ring: MoritaRing, x: LeftModule, y: LeftModule,
                 u_blocks: np.ndarray, v_blocks: np.ndarray) -> LeftModule:
    """X + Y as a module over the ring: A and B act on X and Y, the k-th
    basis element of U by u_blocks[k]: X -> Y and that of V by
    v_blocks[k]: Y -> X."""
    na, k = ring.a.dim, ring.prod.dim
    dx, n = x.dim, x.dim + y.dim
    acts = np.zeros((ring.total.dim, n, n), dtype=np.int64)
    acts[:na, :dx, :dx] = x.acts
    acts[na:k, dx:, dx:] = y.acts
    acts[ring.u_slice, dx:, :dx] = u_blocks
    acts[ring.v_slice, :dx, dx:] = v_blocks
    return LeftModule(ring.total, acts, validate=False)


def theta(t: TupleModule) -> PairModule:
    """The pair ((X, Y), (g, f)) over the extension, read off the module
    over the ring that the tuple holds."""
    return module_to_pair(t.module, t.ring.ext)


def _tuple_of(mod: LeftModule, ring: MoritaRing) -> TupleModule:
    """The tuple of a module over the ring.  X and Y are the images of the
    central idempotents (1, 0) and (0, 1) of A x B, so submodules, and
    u = (0, 1) u (1, 0) maps X into Y, v maps Y into X: every block of the
    action is read between their RREF bases."""
    na, k = ring.a.dim, ring.prod.dim
    field, acts = mod.over.field, mod.acts

    def read(s: slice, src: FpMatrix, tgt: FpMatrix) -> FpMatrix:
        """The blocks of acts[s] from the span of src to that of tgt, in
        their bases, side by side."""
        moved = matmul_mod(acts[s], src.arr.T, field.p).transpose(1, 0, 2)
        plain = moved.reshape(mod.dim, moved.shape[1] * src.rows)
        return FpMatrix.reduced(echelon_coords(tgt, plain.T).T, field)

    def summand(alg: Algebra, s: slice):
        """The image of alg's unit acting by acts[s], with its RREF basis."""
        basis = row_space_of_columns(
            FpMatrix(np.tensordot(alg.unit, acts[s], 1), field))
        r = basis.rows
        return basis, LeftModule(alg, read(s, basis, basis).arr.reshape(
            r, alg.dim, r).transpose(1, 0, 2), validate=False)

    bx, x = summand(ring.a, slice(na))
    by, y = summand(ring.b, slice(na, k))
    f = read(ring.u_slice, bx, by) @ tensor_bimodule_left(ring.u, x).include
    g = read(ring.v_slice, by, bx) @ tensor_bimodule_left(ring.v, y).include
    return TupleModule(ring, x, y, f, g, validate=False)


def theta_inverse(pair: PairModule, ring: MoritaRing) -> TupleModule:
    """The tuple of the pair's module over the ring (`_tuple_of`)."""
    if pair.t is not ring.ext:
        raise MoritaError("pair does not live over this ring")
    return _tuple_of(pair_to_module(pair), ring)


def upsilon(rt: TupleModule) -> PairModule:
    """The right pair ((W, Q), (f, g)) over the extension of
    rt.ring.opposite, a pair over the opposite extension: theta(rt)."""
    return theta(rt)


def upsilon_inverse(rp: PairModule, ring: MoritaRing) -> TupleModule:
    """The right tuple of the right pair rp over the ring's extension: the
    tuple over the opposite context, theta_inverse(rp, ring.opposite)."""
    return theta_inverse(rp, ring.opposite)


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
    comp_u = compatibility_report(ring.u, bound)
    comp_v = compatibility_report(ring.v, bound)
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
    return verify_theorem(rt.ring.opposite, gf_check_right(rt.module, bound),
                          {_EXCHANGE_FG[k]: v for k, v in hyp.items()},
                          bound)
