"""Morita context rings with zero pairings, their four-tuple module
categories, and the category isomorphisms onto modules over the trivial
extension (A x B) |x (U + V).

Basis order everywhere: A, B, U, V.  The direct matrix-ring construction
and the trivial-extension composite produce literally equal structure
constants, so the validated isomorphism witness is the identity.  theta
and theta_co write f and g as the U and V blocks of a module over the ring
and read the (co)pair off that module; theta_inverse reads the blocks back.
The theorem harnesses are the corollary harness over the extension by
U + V, plus the sufficiency reports on U and V.

Right tuples (W, Q, f, g) are the left tuples (W, Q, g, f) over the
opposite context (A^op, B^op, V^swap, U^swap), whose ring `MoritaRing.opposite`
is built once per ring.  Its ideal blocks come in the order V, U, so the
right-side translations are theta/theta_inverse there plus one permutation
of the ideal blocks (`_swap_ideal`); f and g move between the coordinates
of Q ox U, W ox V and their swapped left tensors through `swapped_tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .algebra import (Algebra, Bimodule, LeftModule, ModuleHom, RightModule,
                      cokernel_module, hom_from_bimodule, intertwiner_system,
                      invariant_action, is_exact_at, kernel_module,
                      opposite_algebra, product_algebra, row_space_of_columns,
                      swapped_tensor, tensor_bimodule_left, tensor_map_second)
from .gorenstein import (compatibility_report, gf_check_right, gi_check,
                         gp_check, verify_corollary)
from .linalg import FpMatrix, kron, rank, solve
from .trivext import (CopairModule, PairModule, RightPairModule,
                      TrivialExtension, copair_to_module, module_to_copair,
                      module_to_pair, module_to_right_pair, pair_to_module,
                      trivial_extension)


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
    direct: Algebra             # built from the matrix multiplication rule
    prod: Algebra               # A x B
    e_a: np.ndarray
    e_b: np.ndarray
    bim: Bimodule               # U + V over A x B
    ext: TrivialExtension
    iso: FpMatrix               # direct coords -> ext.total coords

    @property
    def total(self) -> Algebra:
        return self.ext.total

    @cached_property
    def opposite(self) -> "MoritaRing":
        """The ring of the opposite context (A^op, B^op, V^swap, U^swap)."""
        c = self.context
        return morita_ring(MoritaContextData(
            opposite_algebra(c.a), opposite_algebra(c.b), c.v.swap(),
            c.u.swap()))


def morita_ring(d: MoritaContextData) -> MoritaRing:
    """Both constructions of the ring, with the validated identification."""
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
    # checked entry by entry against ext.total below
    direct = Algebra(field, sc, unit, validate=False)
    prod, e_a, e_b = product_algebra(a, b)
    zu = FpMatrix.zeros(du, du, field)
    zv = FpMatrix.zeros(dv, dv, field)
    from .linalg import direct_sum
    left = [direct_sum(zu, v.left_action[i]) for i in range(na)] + \
        [direct_sum(u.left_action[j], zv) for j in range(nb)]
    right = [direct_sum(u.right_action[i], zv) for i in range(na)] + \
        [direct_sum(zu, v.right_action[j]) for j in range(nb)]
    bim = Bimodule(prod, prod, left, right)
    ext = trivial_extension(prod, bim)
    if not (ext.total.sc == direct.sc).all() or \
            not (ext.total.unit == direct.unit).all():
        raise MoritaError("the two ring constructions disagree")
    iso = FpMatrix.identity(n, field)
    return MoritaRing(d, direct, prod, e_a, e_b, bim, ext, iso)


# ---------------------------------------------------------------------------
# tuple categories


class TupleModule:
    """(X, Y, f, g): X over A, Y over B, f: U ox X -> Y, g: V ox Y -> X,
    with both composites zero."""

    def __init__(self, ring: MoritaRing, x: LeftModule, y: LeftModule,
                 f_matrix: FpMatrix, g_matrix: FpMatrix,
                 validate: bool = True):
        self.ring = ring
        self.x = x
        self.y = y
        self.tsux = tensor_bimodule_left(ring.context.u, x)
        self.tsvy = tensor_bimodule_left(ring.context.v, y)
        self.f = ModuleHom(self.tsux.space, y, f_matrix, validate=validate)
        self.g = ModuleHom(self.tsvy.space, x, g_matrix, validate=validate)
        if validate:
            self.validate()

    def validate(self):
        vf, ug = self.composites()
        if not (self.g.matrix @ vf.matrix).is_zero():
            raise MoritaError("g o (V ox f) != 0")
        if not (self.f.matrix @ ug.matrix).is_zero():
            raise MoritaError("f o (U ox g) != 0")

    def composites(self) -> Tuple[ModuleHom, ModuleHom]:
        """(V ox f, U ox g)."""
        ts_vux = tensor_bimodule_left(self.ring.context.v, self.tsux.space)
        ts_uvy = tensor_bimodule_left(self.ring.context.u, self.tsvy.space)
        return (tensor_map_second(ts_vux, self.tsvy, self.f),
                tensor_map_second(ts_uvy, self.tsux, self.g))

    def same_presentation(self, other: "TupleModule") -> bool:
        return (self.x.dim == other.x.dim and self.y.dim == other.y.dim
                and all(p == q for p, q in zip(self.x.action, other.x.action))
                and all(p == q for p, q in zip(self.y.action, other.y.action))
                and self.f.matrix == other.f.matrix
                and self.g.matrix == other.g.matrix)


class RightTupleModule:
    """(W, Q, f, g): W over A, Q over B on the right, f: Q ox U -> W,
    g: W ox V -> Q, with both composites zero.

    Held as the left tuple `left` = (W, Q, g, f) over the opposite
    context; f and g keep the quotient coordinates of Q ox U and W ox V."""

    def __init__(self, ring: MoritaRing, w: RightModule, q: RightModule,
                 f_matrix: FpMatrix, g_matrix: FpMatrix,
                 validate: bool = True):
        self.ring = ring
        self.w = w
        self.q = q
        op = ring.opposite
        wl, ql = w.as_left_over_opposite(), q.as_left_over_opposite()
        qu = swapped_tensor(op.context.v, ql)
        wv = swapped_tensor(op.context.u, wl)
        self.f = ModuleHom(qu.space, w, f_matrix, validate=False)
        self.g = ModuleHom(wv.space, q, g_matrix, validate=False)
        self.left = TupleModule(op, wl, ql, g_matrix @ wv.to_left,
                                f_matrix @ qu.to_left, validate)

    def same_presentation(self, other: "RightTupleModule") -> bool:
        return self.left.same_presentation(other.left)


class CoTupleModule:
    """[X, Y, f, g]: f: X -> Hom_B(U, Y), g: Y -> Hom_A(V, X), with both
    postcompositions zero; the injective-side mirror of TupleModule."""

    def __init__(self, ring: MoritaRing, x: LeftModule, y: LeftModule,
                 f_matrix: FpMatrix, g_matrix: FpMatrix,
                 validate: bool = True):
        self.ring = ring
        self.x = x
        self.y = y
        self.hom_uy = hom_from_bimodule(ring.context.u, y)
        self.hom_vx = hom_from_bimodule(ring.context.v, x)
        self.f = ModuleHom(x, self.hom_uy.space, f_matrix, validate=validate)
        self.g = ModuleHom(y, self.hom_vx.space, g_matrix, validate=validate)
        if validate:
            self.validate()

    def validate(self):
        ug, vf = self.composites()
        if not (ug.matrix @ self.f.matrix).is_zero():
            raise MoritaError("Hom(U, g) o f != 0")
        if not (vf.matrix @ self.g.matrix).is_zero():
            raise MoritaError("Hom(V, f) o g != 0")

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
                                   for m in action])


def theta(t: TupleModule) -> PairModule:
    """The pair ((X, Y), (g, f)) over the extension, read off the module
    over the ring whose U and V blocks are f and g."""
    ring = t.ring
    dx, dy = t.x.dim, t.y.dim
    du, dv = ring.context.u.dim, ring.context.v.dim
    f = (t.f.matrix @ t.tsux.project).arr.reshape(dy, du, dx)
    g = (t.g.matrix @ t.tsvy.project).arr.reshape(dx, dv, dy)
    return module_to_pair(_ring_module(ring, t.x, t.y, f.transpose(1, 0, 2),
                                       g.transpose(1, 0, 2)), ring.ext)


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
    return solve(incl_tgt, FpMatrix(plain, incl_src.field) @ ts.include)


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
    return TupleModule(ring, x, y, f, g)


def _swap_ideal(ring: MoritaRing, action: list) -> list:
    """Reorder per-basis-element matrices of `ring`'s total algebra from
    ideal blocks U, V to V, U, the order of the opposite context's ring;
    with `ring.opposite` in place of `ring` this is the way back."""
    k, du = ring.prod.dim, ring.context.u.dim
    return action[:k] + action[k + du:] + action[k:k + du]


def _right_module(rt: RightTupleModule) -> RightModule:
    """upsilon(rt) as a right module over the ring: theta over the opposite
    context with the ideal blocks put back in the order U, V."""
    mod = pair_to_module(theta(rt.left))
    return RightModule(rt.ring.total, _swap_ideal(rt.ring.opposite,
                                                  mod.action))


def upsilon(rt: RightTupleModule) -> RightPairModule:
    """The right pair ((W, Q), (f, g)) over the extension."""
    return module_to_right_pair(_right_module(rt), rt.ring.ext)


def upsilon_inverse(rp: RightPairModule, ring: MoritaRing) -> RightTupleModule:
    if rp.t is not ring.ext:
        raise MoritaError("pair does not live over this ring")
    op = ring.opposite
    mod = LeftModule(op.total,
                     _swap_ideal(ring, pair_to_module(rp.pair).action))
    lt = theta_inverse(module_to_pair(mod, op.ext), op)
    qu = swapped_tensor(op.context.v, lt.y)
    wv = swapped_tensor(op.context.u, lt.x)
    return RightTupleModule(ring, RightModule.from_left_over_opposite(lt.x),
                            RightModule.from_left_over_opposite(lt.y),
                            lt.g.matrix @ qu.to_right,
                            lt.f.matrix @ wv.to_right, validate=False)


def theta_co(ct: CoTupleModule) -> CopairModule:
    """The copair over the extension, read off the module over the ring
    whose U and V blocks evaluate f and g."""
    ring = ct.ring
    dx, dy = ct.x.dim, ct.y.dim
    du, dv = ring.context.u.dim, ring.context.v.dim
    f = np.array([(ct.hom_uy.evaluation_matrix(k) @ ct.f.matrix).arr
                  for k in range(du)], dtype=np.int64).reshape(du, dy, dx)
    g = np.array([(ct.hom_vx.evaluation_matrix(k) @ ct.g.matrix).arr
                  for k in range(dv)], dtype=np.int64).reshape(dv, dx, dy)
    return module_to_copair(_ring_module(ring, ct.x, ct.y, f, g), ring.ext)


# ---------------------------------------------------------------------------
# hom-sets of tuples


def tuple_hom_dim(s: TupleModule, t: TupleModule) -> int:
    """dim of the space of tuple morphisms (phi, chi) with
    chi o f_s = f_t o (U ox phi) and phi o g_s = g_t o (V ox chi)."""
    if s.ring is not t.ring:
        raise MoritaError("tuples over different rings")
    ring = s.ring
    p = ring.prod.field.p
    dx1, dx2 = s.x.dim, t.x.dim
    dy1, dy2 = s.y.dim, t.y.dim
    nphi, nchi = dx2 * dx1, dy2 * dy1

    def sandwich(a1: FpMatrix, a2: FpMatrix, mid: int, r2: int, c1: int):
        """Matrix of phi -> a1 @ kron(I_mid, phi) @ a2 acting on vec(phi),
        for phi of shape r2 x c1."""
        rows, cols = a1.rows, a2.cols
        a1r = a1.arr.reshape(rows, mid, r2) if mid * r2 else \
            np.zeros((rows, mid, r2), dtype=np.int64)
        a2r = a2.arr.reshape(mid, c1, cols) if mid * c1 else \
            np.zeros((mid, c1, cols), dtype=np.int64)
        m = np.einsum("ria,ibc->rcab", a1r, a2r).reshape(
            rows * cols, r2 * c1)
        return m % p

    blocks = []

    def add(phi_part, chi_part):
        if phi_part is None:
            phi_part = np.zeros((chi_part.shape[0], nphi), dtype=np.int64)
        if chi_part is None:
            chi_part = np.zeros((phi_part.shape[0], nchi), dtype=np.int64)
        blocks.append(np.hstack([phi_part, chi_part]))

    add(intertwiner_system(s.x, t.x).arr, None)
    add(None, intertwiner_system(s.y, t.y).arr)
    # chi o f_s = f_t o (U ox phi)
    du, dv = ring.context.u.dim, ring.context.v.dim
    chi_side = kron(FpMatrix.identity(dy2, s.y.over.field),
                    s.f.matrix.transpose()).arr
    phi_side = sandwich(t.f.matrix @ t.tsux.project,
                        s.tsux.include, du, dx2, dx1)
    add((-phi_side) % p, chi_side)
    # phi o g_s = g_t o (V ox chi)
    phi_side2 = kron(FpMatrix.identity(dx2, s.x.over.field),
                     s.g.matrix.transpose()).arr
    chi_side2 = sandwich(t.g.matrix @ t.tsvy.project,
                         s.tsvy.include, dv, dy2, dy1)
    add(phi_side2, (-chi_side2) % p)
    return nphi + nchi - rank(FpMatrix(np.vstack(blocks), ring.prod.field))


# ---------------------------------------------------------------------------
# theorem harnesses


def _tuple_hypotheses(t: TupleModule, decide: Callable, bound) -> dict:
    vf, ug = t.composites()
    return {"seq1_exact": is_exact_at(vf, t.g),
            "seq2_exact": is_exact_at(ug, t.f),
            "coker_f_verdict": decide(cokernel_module(t.f)[0], bound),
            "coker_g_verdict": decide(cokernel_module(t.g)[0], bound)}


def verify_theorem(ring: MoritaRing, lhs, hypotheses: dict,
                   report: Callable, bound) -> dict:
    """One (co)tuple's Gorenstein verdict lhs over the Morita ring against
    its tuple-level hypotheses: the corollary harness over the extension
    by U + V, with the hypotheses inlined and the sufficiency reports on U
    and V added."""
    out = verify_corollary(ring.ext, lhs, hypotheses, report, bound)
    out.update(out.pop("hypotheses"))
    comp_u = report(ring.context.u, bound)
    comp_v = report(ring.context.v, bound)
    return {**out, "u_report": comp_u, "v_report": comp_v,
            "components_established": comp_u.sufficient_via is not None
            and comp_v.sufficient_via is not None,
            "established": out["hypotheses_established"]}


def verify_thm52(t: TupleModule, bound=None) -> dict:
    """Tuple-level hypotheses vs Gorenstein projectivity."""
    return verify_theorem(t.ring, gp_check(pair_to_module(theta(t)), bound),
                          _tuple_hypotheses(t, gp_check, bound),
                          compatibility_report, bound)


def verify_thm53(ct: CoTupleModule, bound=None) -> dict:
    """Hom-side mirror: hypotheses vs Gorenstein injectivity."""
    ug, vf = ct.composites()
    hypotheses = {
        "seq1_exact": is_exact_at(ct.f, ug),
        "seq2_exact": is_exact_at(ct.g, vf),
        "ker_f_verdict": gi_check(kernel_module(ct.f)[0], bound),
        "ker_g_verdict": gi_check(kernel_module(ct.g)[0], bound)}
    return verify_theorem(ct.ring, gi_check(copair_to_module(theta_co(ct)),
                                            bound),
                          hypotheses, compatibility_report, bound)


# the left tuple (W, Q, g, f) of a right tuple lists f and g the other way
# round
_EXCHANGE_FG = {"seq1_exact": "seq2_exact", "seq2_exact": "seq1_exact",
                "coker_f_verdict": "coker_g_verdict",
                "coker_g_verdict": "coker_f_verdict"}


def verify_thm54(rt: RightTupleModule, bound=None) -> dict:
    """Right-module mirror: hypotheses vs Gorenstein flatness, through the
    left tuple over the opposite context."""
    def decide(coker, bound):
        return gf_check_right(RightModule.from_left_over_opposite(coker),
                              bound)
    left = _tuple_hypotheses(rt.left, decide, bound)
    return verify_theorem(rt.ring, gf_check_right(_right_module(rt), bound),
                          {_EXCHANGE_FG[k]: v for k, v in left.items()},
                          compatibility_report, bound)
