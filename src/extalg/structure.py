"""Structure theory of modules: the radical, simples and projective
indecomposables (PIMs) of an algebra, indecomposable splittings, projective
covers and injective indecomposables.

One deterministic path serves every prime.  One certificate
(`_vertex_split`) reads rad(A), the primitive idempotents and the PIMs off
a path basis; else rad(A) is a chain of trace kernels, the primitive
idempotents of A/rad come from linear algebra and lift to A, and each PIM
is spun.  One primitive idempotent e_i per simple block of A/rad gives the
PIM P_i = A.e_i; the PIM table holds P_i, e_i and the inclusion of P_i
into A.  The simples S_i = top(P_i), non-isomorphic for different blocks,
and the covers of the S_i and P_i come with a certified table; else
`simples` builds the tops.  `split_module` applies the same steps to
End(m), and `find_isomorphism` matches the indecomposable summands of two
modules; None certifies "not isomorphic".

A right module over A is a left module over A^op, so it is covered and
resolved as any other; the injective indecomposables are duals of the
projective ones over the opposite algebra.  Covers are shared per algebra by module
content: equal modules get the same cover, kernel and epimorphism matrix,
held only while some module holds them.  Twins keep their holders alive:
the regular modules live on the algebra; the dual and a bimodule's legs on
their module.  A^op is A itself when A is commutative; else it is
certified, or falls back, on its own table.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import List, Optional, Tuple

import numpy as np

from .algebra import (Algebra, LeftModule, ModuleHom, _echelon_quotient_module,
                      _echelon_submodule, _mul, block_sum_module, dual_module,
                      hom_space, kept, opposite_algebra, row_space_of_columns,
                      shared)
from .linalg import (FieldSpec, FpMatrix, RrefResult, _null_rows,
                     _rref_inplace, echelon_coords, echelon_quotient_maps,
                     hstack, inverse, kernel_basis, matmul_mod, row_basis,
                     solve)

# The split of a matrix block draws its candidates from
# random.Random(_SPLIT_STREAM), fresh for every split; the draws change how
# long a split takes, not the summands it gives (up to isomorphism).
_SPLIT_STREAM = 20231


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spinning


def spin(m, vec) -> FpMatrix:
    """Echelonized row basis of the submodule A.vec, spanned by the b_k.vec
    alone: A is unital and closed under products."""
    field = m.over.field
    v = np.asarray(vec, dtype=np.int64).reshape(-1) % field.p
    return row_basis(FpMatrix(m.acts @ v, field))


# ---------------------------------------------------------------------------
# finite algebras given by structure constants: radical and idempotents


def _power(x: np.ndarray, e: int, mul) -> np.ndarray:
    """x**e for e >= 1 by square and multiply."""
    if e == 1:
        return x
    half = _power(mul(x, x), e // 2, mul)
    return mul(half, x) if e % 2 else half


def _trace_radical(mats: np.ndarray, sc: np.ndarray,
                   field: FieldSpec) -> FpMatrix:
    """RREF row basis, in coordinates of the (n, d, d) stack `mats` whose
    span is closed under products with structure constants sc (mats[i] @
    mats[j] = sum_k sc[i, j, k] mats[k]), of the radical of that span.

    Cohen-Ivanyos-Wales: I_{-1} = A, I_i = {x in I_{i-1} : g_i(xy) = 0 for
    all y}, g_i(z) = Tr(z~^(p^i)) / p^i mod p for any integer lift z~;
    rad A = I_i once p^(i+1) > d (for p > d, Dickson's trace-form kernel).
    Each I_{i-1} is an ideal and g_i is linear on it, so g_i(x b_j) is the
    coordinate vector of x b_j in the RREF basis u of I_{i-1} (its entries
    at the pivots of u) dotted with the values g_i(u_k).  A level raises k
    matrices, not k * n, to the power p^i (at most 2 log2 p^i products of
    d x d matrices each), plus 2 k * n^2 coordinate work.
    Reducing mod p^(i+1) <= p * d keeps entries below d * (p * d)^2.
    """
    p, (n, d, _), q = field.p, mats.shape, 1
    basis = FpMatrix.identity(n, field)
    while q <= d and basis.rows:
        mod, u = q * p, basis.arr
        z = _power(matmul_mod(u, mats.reshape(n, d * d), p).reshape(-1, d, d),
                   q, partial(matmul_mod, p=mod))
        gamma = (np.trace(z, axis1=1, axis2=2) % mod) // q
        g = u @ (sc[..., np.argmax(u != 0, axis=1)] @ gamma % p) % p
        basis = row_basis(FpMatrix(
            kernel_basis(FpMatrix(g.T, field)).arr @ u % p, field))
        q *= p
    return basis


def _minimal_polynomial(x: np.ndarray, one: np.ndarray, mul,
                        field: FieldSpec):
    """(c, powers): x^d = sum_i c_i x^i is the minimal polynomial of x in an
    algebra with unit `one`, and powers holds x^0 .. x^(d-1)."""
    powers = [one]
    while True:
        nxt = mul(powers[-1], x)
        c = solve(FpMatrix(np.array(powers).T, field),
                  FpMatrix.column(nxt, field))
        if c is not None:
            return c.arr[:, 0], np.array(powers)
        powers.append(nxt)


def _roots(f: List[int], p: int) -> List[int]:
    """The roots, ascending, of f over GF(p), given as Python ints reduced
    mod p, constant term first: Horner's rule at every point of GF(p), in
    place on two arrays of 2048 points, so none of the size of the field."""
    t = np.arange(min(p, 2048), dtype=np.int64)
    value, out = np.empty_like(t), []
    for lo in range(0, p, len(t)):
        x, v = t[:p - lo], value[:p - lo]
        v.fill(f[-1])
        for c in reversed(f[:-1]):
            v *= x
            v += c
            v %= p
        out += x[v == 0].tolist()
        t += len(t)
    return out


def _frobenius_fixed(basis: np.ndarray, mul, field: FieldSpec) -> np.ndarray:
    """Rows spanning {z : z^p = z}, the span of the primitive idempotents,
    in the commutative subalgebra spanned by `basis` (z -> z^p is linear)."""
    frob = (_power(basis, field.p, mul) - basis) % field.p
    return kernel_basis(FpMatrix(frob.T, field)).arr @ basis % field.p


def _eigen_split(e: np.ndarray, bs: np.ndarray, mul,
                 field: FieldSpec) -> List[np.ndarray]:
    """The primitive idempotents summing to e of the span of bs, which
    commute, contain e and satisfy b^p = b.  Each b cuts every part f so
    far along the eigenvalues r of x = b.e, which lie in GF(p): they are
    the roots of the minimal polynomial of x over e, a product of distinct
    linear factors as x^p = x, found by a Horner scan of GF(p) (`_roots`)
    in deg.p products of integers.  The Lagrange projector E_r = prod_{s !=
    r} (x - s.e) / (r - s) is the idempotent of the eigenspace of r, and f
    becomes the nonzero f.E_r, ordered by f, then by r.

    This is the cut along the minimal polynomial of b.f over f, once per
    element instead of once per part: the span is a product of copies of
    GF(p), so for f <= e the product f.E_r is nonzero exactly when r is an
    eigenvalue of b.f, and then it is f - (b.f - r.f)^(p-1), the same
    array.  A root costs deg - 1 products, not about 2 log2 p."""
    p = field.p
    parts = e[None]
    for b in bs:
        if len(parts) == len(bs):
            break
        x = mul(b, e)
        c = _minimal_polynomial(x, e, mul, field)[0]
        roots = _roots([-int(ci) % p for ci in c] + [1], p)
        if len(roots) == 1:
            continue
        # row k of proj ends as E_{roots[k]}; the factor x - s.e joins
        # every row but the one of s
        proj = np.repeat(e[None], len(roots), axis=0)
        for k, s in enumerate(roots):
            others = np.arange(len(roots)) != k
            proj[others] = mul(proj[others], (x - s * e) % p)
        scale = [pow(math.prod(r - s for s in roots if s != r), -1, p)
                 for r in roots]
        proj = proj * np.array(scale)[:, None] % p
        cut = mul(parts[:, None], proj[None]).reshape(-1, len(e))
        parts = cut[cut.any(axis=1)]
    return list(parts)


def _split_simple(e: np.ndarray, mul, field: FieldSpec) -> List[np.ndarray]:
    """Orthogonal primitive idempotents summing to e, an idempotent of a
    simple algebra Q; eQe = M_r(GF(q)).

    e is primitive exactly when eQe is commutative (a field).  Otherwise
    r >= 2, and GF(p)[x] has two primitive idempotents for a positive share
    of the x in eQe (those with two distinct eigenvalues, say), so drawing
    x until one does cannot fail.
    """
    basis = row_basis(FpMatrix(mul(mul(e, np.eye(len(e), dtype=np.int64)),
                                   e), field)).arr
    prods = mul(basis[:, None], basis[None])
    if (prods == prods.transpose(1, 0, 2)).all():
        return [e]
    draws = random.Random(_SPLIT_STREAM)
    while True:
        x = np.array([draws.randrange(field.p) for _ in basis]) @ basis
        powers = _minimal_polynomial(x % field.p, e, mul, field)[1]
        parts = _eigen_split(e, _frobenius_fixed(powers, mul, field), mul,
                             field)
        if len(parts) > 1:
            return [g for f in parts for g in _split_simple(f, mul, field)]


def _primitive_idempotents(sc: np.ndarray, unit: np.ndarray, rad: FpMatrix,
                           field: FieldSpec) -> List[List[np.ndarray]]:
    """Orthogonal primitive idempotents of the algebra (sc, unit) with
    radical rad, summing to 1 and grouped by the simple block of A/rad
    that their images lie in.

    The blocks are the primitive idempotents of the centre of Q = A/rad,
    1 alone when the centre is GF(p).1, and primitive in Q when Q is
    commutative.  Newton's step g -> 3g^2 - 2g^3 lifts each until g^2 = g."""
    p = field.p
    qm = echelon_quotient_maps(rad)
    free = qm.include.arr.argmax(axis=0)     # Q has basis b_free[a] + rad
    qsc = (sc[np.ix_(free, free)] @ qm.project.arr.T) % p
    qmul, amul = partial(_mul, qsc, p=p), partial(_mul, sc, p=p)
    m = len(free)
    comm = (qsc - qsc.transpose(1, 0, 2)) % p
    centre = kernel_basis(FpMatrix(comm.reshape(m, m * m).T, field)).arr
    one = qm.project.arr @ unit % p
    blocks = [one] if len(centre) == 1 else _eigen_split(
        one, _frobenius_fixed(centre, qmul, field), qmul, field)
    # lift each to an idempotent of uAu, u = 1 - (those lifted so far)
    groups, u = [], unit
    for block in blocks:
        groups.append([])
        for ebar in ([block] if len(centre) == m
                     else _split_simple(block, qmul, field)):
            pre = np.zeros_like(unit)
            pre[free] = ebar
            g = amul(amul(u, pre), u)
            while ((sq := amul(g, g)) != g).any():
                g = (3 * sq - 2 * amul(sq, g)) % p
            groups[-1].append(g)
            u = (u - g) % p
    return groups


# ---------------------------------------------------------------------------
# radical, top, simples and projective indecomposables of an algebra


def _vertex_split(a: Algebra):
    """(rad A, [(k, S_k)] for the vertices b_k, last first) off a path basis,
    else None (a random basis, M_n(k)).  K holds the b_k whose left
    multiplication has a nonzero diagonal.  If each b_k.b_k has b_k term 1,
    no product with a b_j has a b_k term (J is an ideal), sc[:, K, :] is
    nonzero only on its diagonal and, checked last, the graph i -> l if
    some b_j.b_i has a b_l term is acyclic (J is nilpotent), then J = rad
    A, the b_k are the idempotents the chain and the lift give, and
    b_i.b_k is 0 or b_i, so the i in S_k span A.b_k.  Kept per algebra:
    A^op's blocks are the b_k.A.  The b_k are orthogonal idempotents
    summing to 1: R_k: b_i -> b_i.b_k = c_ik b_i, with c_kk = 1, are
    diagonal, so R_k R_l = R_l R_k, that is c_lk R_l = c_kl R_k; at b_k
    and b_l, c_kl = c_kl c_lk = c_lk = c = c^2, and c = 1 would make b_k =
    R_k(1) = R_l(1) = b_l.  So 1 - sum b_k, in J by the b_k terms of b_k.1
    = b_k, is an idempotent in a nilpotent ideal: 0."""
    def build():
        sc, eye = a.sc, np.eye(a.dim, dtype=np.int64)
        vertex = np.diagonal(sc, axis1=1, axis2=2).any(axis=1)
        k, j = np.flatnonzero(vertex)[::-1], np.flatnonzero(~vertex)
        to_k, at_k = sc[..., k], sc[:, k]
        diag = np.diagonal(at_k, axis1=0, axis2=2)
        if ((sc[k, k, k] != 1).any() or to_k[j].any() or to_k[:, j].any()
                or np.count_nonzero(at_k) != np.count_nonzero(diag)):
            return None
        reach = np.any(sc, axis=0, where=~vertex[:, None, None])[np.ix_(j, j)]
        return None if _has_cycle(reach) else (
            FpMatrix.reduced(eye[j], a.field),
            [(int(v), np.flatnonzero(d)) for v, d in zip(k, diag)])
    return kept(a, "vertex_split", build)


def _has_cycle(graph: np.ndarray) -> bool:
    """The bool adjacency matrix has a cycle (t squarings: walks <= 2^t)."""
    for _ in range(len(graph).bit_length()):
        graph = graph | graph @ graph
    return bool(graph.diagonal().any())


def _triangular(a: Algebra) -> bool:
    """The quiver has no oriented cycle: A is certified and C != 1 has none,
    for C[l, k] = dim e_l.A.e_k: the b_i with b_i terms in b_l.b_i, b_i.b_k."""
    split = _vertex_split(a)

    def build():
        k = [v for v, _ in split[1]]
        cartan = (np.diagonal(a.sc, 0, 1, 2)[k] != 0) @ (np.diagonal(
            a.sc, 0, 0, 2)[k].T != 0).astype(np.int64)
        return not _has_cycle(cartan != np.eye(len(k)))
    return bool(split) and kept(a, "triangular", build)


def algebra_radical(a: Algebra) -> FpMatrix:
    """Row basis (RREF) of rad(A), read off the basis (`_vertex_split`) or
    from the trace chain on the regular representation."""
    split = _vertex_split(a)
    return split[0] if split else kept(a, "radical", lambda: (
        _trace_radical(a.sc.transpose(0, 2, 1), a.sc, a.field)))


def _radical_generators(a: Algebra) -> np.ndarray:
    """The rows of RREF(rad A) whose pivots are not pivots of RREF(rad^2)
    (the arrows of a path algebra): they span a complement of rad^2 in
    rad, so generate rad as a right ideal (Nakayama), for A and A^op.  If
    A is certified and each product of two b_j in J has at most one term,
    rad^2 is spanned by the b_l at those terms; else the r_i r_j are
    eliminated 16 r_i at a time below the RREF rows so far."""
    def build():
        rad, p, n = algebra_radical(a).arr, a.field.p, a.dim
        if _vertex_split(a):
            j = rad.argmax(axis=1)
            terms = (a.sc != 0)[np.ix_(j, j)]
            if terms.sum(axis=2).max(initial=0) <= 1:
                return rad[~terms.any(axis=(0, 1))[j]]
        square, squares = rad[:0], []
        for lo in range(0, len(rad), 16):
            # left[i] is left multiplication by r_i, off the b_a in r_i
            at = rad[lo:lo + 16].any(axis=0)
            left = matmul_mod(rad[lo:lo + 16, at], a.sc[at].reshape(
                -1, n * n), p).reshape(-1, n, n)
            square = np.vstack([square[:len(squares)],
                                matmul_mod(rad, left, p).reshape(-1, n)])
            squares = _rref_inplace(square, p)
        return rad[[r.nonzero()[0][0] not in squares for r in rad]]
    return kept(a, "radical_generators", build)


def _radical_rref(m, rows: Optional[np.ndarray]):
    """(stack, pivots): the g.u for g in `_radical_generators` and u in the
    submodule U spanned by `rows` (all of m if None), RREF in place, whose
    first len(pivots) rows are the basis of rad(A).U = G.A.U = G.U; so 5
    blocks, not dim rad = 15, over A6.  rad(A) is two-sided: either side."""
    field, n, d = m.over.field, m.over.dim, m.dim
    gens = _radical_generators(m.over)
    acts = matmul_mod(gens, m.acts.reshape(n, d * d), field.p).reshape(
        len(gens), d, d).transpose(0, 2, 1)
    moved = acts if rows is None else matmul_mod(rows, acts, field.p)
    stack = moved.reshape(len(moved) * moved.shape[1], d)
    return stack, _rref_inplace(stack, field.p)


def _radical_span(m, rows: Optional[np.ndarray]) -> FpMatrix:
    """Row basis (RREF) of rad(A).U (`_radical_rref`)."""
    stack, pivots = _radical_rref(m, rows)
    return FpMatrix.reduced(stack[:len(pivots)], m.over.field)


def radical_of_module(m) -> Tuple[object, ModuleHom]:
    """rad(m) = rad(A).m with its inclusion, whose matrix is the transposed
    RREF basis of rad(m).  rad(m) and that matrix are kept on m: `simples`
    builds them for every PIM P_i, and a semisimple module's cover reads
    its kernel off the rad(P_i).  The kept pair holds no link back to m."""
    def build():
        rad, incl = _echelon_submodule(m, _radical_span(m, None))
        return rad, incl.matrix
    rad, incl = kept(m, "radical", build)
    return rad, ModuleHom(rad, m, incl, validate=False)


def top_of_module(m) -> Tuple[object, ModuleHom]:
    """m / rad(m) with the projection, modulo the RREF basis of rad(m)
    that `radical_of_module` keeps, with no second elimination."""
    return _echelon_quotient_module(
        m, radical_of_module(m)[1].matrix.transpose())[:2]


def _pim_triples(a: Algebra):
    """(P_i, primitive idempotent e_i with P_i = A.e_i, inclusion of P_i
    into A), one per simple block of A/rad: all that covers and Ext read.
    Gathered for each block S_k of `_vertex_split`, with rad P_k = S_k less
    k; else the e_i come from the chain and the lift, and A.e_i is spun.
    The blocks also give the simples S_k = top(P_k), acted on by sc[:, k,
    k], and, as `_cover_parts` would, the covers of S_k (P_k, the unit row
    at k, kernel rad P_k) and P_k (the identity, kernel 0), which seed the
    shared covers.  A simple of dim P_k = 1 has the content of P_k, so it
    reads the cover of P_k; the two are the same arrays."""
    def build():
        reg, out, split = LeftModule.regular(a), [], _vertex_split(a)
        if split:
            eye, field, tops = np.eye(a.dim, dtype=np.int64), a.field, []
            for t, (k, s) in enumerate(split[1]):
                piece = LeftModule(a, reg.acts[:, s][:, :, s], validate=False)
                at, r = np.eye(len(s), dtype=np.int64), s != k
                top = LeftModule(a, a.sc[:, [k]][:, :, [k]], validate=False)
                kept(piece, "radical", lambda: (LeftModule(
                    a, piece.acts[:, r][:, :, r], validate=False),
                    FpMatrix.reduced(at[:, r], field)))
                z = LeftModule.zero(a)
                shared(piece, "covers", (), lambda: (
                    piece, FpMatrix.reduced(at, field), z,
                    ModuleHom.zero(z, piece), (t,), not r.any()))
                shared(top, "covers", (), lambda: (
                    piece, FpMatrix.reduced(at[~r], field),
                    *radical_of_module(piece), (t,), True))
                tops.append(top)
                out.append((piece, eye[k], FpMatrix.reduced(eye[:, s], field)))
            kept(a, "simples", lambda: tops)
        else:
            for group in _primitive_idempotents(a.sc, a.unit,
                                                algebra_radical(a), a.field):
                piece, incl = _echelon_submodule(reg, spin(reg, group[0]))
                out.append((piece, group[0], incl.matrix))
        return out
    return kept(a, "pim_triples", build)


def simples(a: Algebra) -> List[LeftModule]:
    """Pairwise non-isomorphic simple left modules, the tops of the
    projective indecomposables, built on first use and kept on a."""
    pims = _pim_triples(a)
    return kept(a, "simples", lambda: [top_of_module(p)[0] for p, *_ in pims])


def projective_indecomposables(a: Algebra):
    """List of (P_i, top simple S_i), one per isomorphism class; every
    projective is a direct sum of these."""
    return [(p, s) for (p, _, _), s in zip(_pim_triples(a), simples(a))]


# ---------------------------------------------------------------------------
# splittings of modules


def split_module(m) -> List[Tuple[object, ModuleHom]]:
    """Decompose into indecomposable summands; returns (summand, inclusion)
    pairs whose inclusion images are independent and jointly spanning.

    The summands are the images of orthogonal primitive idempotents of
    End(m) summing to 1; a local End(m) certifies that m is indecomposable.
    The summands and inclusion matrices are kept on m (None when m is
    indecomposable), and every call returns a fresh list.
    """
    split = kept(m, "split", lambda: _split(m))
    if split is None:
        return [(m, ModuleHom.identity(m))]
    return [(s, ModuleHom(s, m, incl, validate=False)) for s, incl in split]


def _split(m) -> Optional[List[Tuple[object, FpMatrix]]]:
    if m.dim == 0:
        return []
    endos, field = hom_space(m, m), m.over.field
    mats = endos.basis_array()
    sc = echelon_coords(endos.mat, (mats[:, None] @ mats[None]).reshape(
        endos.dim, endos.dim, -1))
    unit = echelon_coords(endos.mat, np.eye(m.dim, dtype=int).reshape(-1))
    idems = [e for group in _primitive_idempotents(
        sc, unit, _trace_radical(mats, sc, field), field) for e in group]
    if len(idems) == 1:
        return None
    subs = [_echelon_submodule(m, row_space_of_columns(
        FpMatrix(np.tensordot(e, mats, 1), field))) for e in idems]
    return [(s, incl.matrix) for s, incl in subs]


def find_isomorphism(m, n) -> Optional[ModuleHom]:
    """An isomorphism m -> n, or None when m and n are not isomorphic.

    Each indecomposable summand m_i of m (`split_module`) is matched with
    the first unused summand n_j of n of its dimension that has an
    invertible basis element h of Hom(m_i, n_j).  End(m_i) is local, so if
    m_i and n_j are isomorphic the non-isomorphisms form a proper subspace
    of Hom(m_i, n_j), which no basis lies in; by Krull-Schmidt the greedy
    matching covers m exactly when m and n are isomorphic.  The
    isomorphism sends m_i by h onto n_j; the projections onto the m_i are
    the row blocks of the inverse of the stacked inclusions of m.
    """
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return ModuleHom.zero(m, n)
    pieces, unused, images = split_module(m), split_module(n), []
    for mi, _ in pieces:
        match = next(((j, h) for j, (nj, _) in enumerate(unused)
                      if nj.dim == mi.dim
                      for h in hom_space(mi, nj).basis() if h.is_iso()), None)
        if match is None:
            return None
        j, h = match
        images.append(unused.pop(j)[1].matrix @ h.matrix)
    stacked = hstack([incl.matrix for _, incl in pieces])
    return ModuleHom(m, n, hstack(images) @ inverse(stacked), validate=False)


# ---------------------------------------------------------------------------
# projective covers


@dataclass
class ProjectivePresentation:
    """summands[s] is the index i of the s-th summand P_i of cover, and
    semisimple says rad(module) = 0."""
    module: object
    cover: object
    epi: ModuleHom
    kernel: object
    kernel_inclusion: ModuleHom
    summands: Tuple[int, ...]
    semisimple: bool


def projective_cover(m) -> ProjectivePresentation:
    """Minimal projective surjection onto m.

    The cover is a function of the algebra and the action matrices alone,
    so equal modules share it (`shared`): its parts are kept on m, and the
    algebra indexes them weakly by m's content while a module holds them.
    """
    if m.dim == 0:
        z = LeftModule.zero(m.over)
        return ProjectivePresentation(m, z, ModuleHom.zero(z, m), z,
                                      ModuleHom.zero(z, z), (), True)
    _pim_triples(m.over)    # a simple or PIM reads the cover it seeds
    cover, epi, *parts = shared(m, "covers", (),
                                lambda: _cover_parts(m))
    return ProjectivePresentation(m, cover, ModuleHom(
        cover, m, epi, validate=False), *parts)


def pim_homs(m) -> List[np.ndarray]:
    """For each PIM P_i = A.e_i, the basis phi_w: x -> x.w of Hom(P_i, m)
    = e_i.m, w in the RREF basis of e_i.m, as a (dim e_i.m, m.dim, P_i.dim)
    array.  The actions E_i of all the e_i are one product, or the gather
    acts[k] for the blocks S_k of `_vertex_split`.  If all are diagonal (a
    path basis), so 0/1, e_i.m has the unit rows at diag E_i's support as
    basis, and the action on them is a column slice, whose rows S_k are phi."""
    a, d = m.over, m.dim
    p, n, pims, split = a.field.p, a.dim, _pim_triples(a), _vertex_split(a)
    e_acts = m.acts[[k for k, _ in split[1]]] if split else matmul_mod(
        np.array([e for _, e, _ in pims]), m.acts.reshape(n, d * d),
        p).reshape(len(pims), d, d)
    weights = np.count_nonzero(e_acts) == np.count_nonzero(
        np.diagonal(e_acts, axis1=1, axis2=2))
    out = []
    for t, ((piece, _, incl), e_act) in enumerate(zip(pims, e_acts)):
        if not e_act.any():
            out.append(np.zeros((0, d, piece.dim), dtype=np.int64))
            continue
        if weights:
            moved = m.acts[:, :, np.diagonal(e_act).nonzero()[0]]
        else:
            ws = row_basis(FpMatrix.reduced(e_act.T, m.over.field)).arr
            moved = matmul_mod(m.acts, ws.T, p)
        # phi[b, :, k] is column b of incl acting on basis vector k of e_i.m
        phi = moved[split[1][t][1]] if split else matmul_mod(
            incl.arr.T, moved.reshape(n, -1), p)
        out.append(phi.reshape(piece.dim, d, -1).transpose(2, 1, 0))
    return out


def _cover_parts(m: LeftModule):
    """(cover, epi matrix, kernel, kernel inclusion, summands, semisimple)
    of m != 0.

    Each basis map phi_w of Hom(P_i, m) (`pim_homs`), over every i in turn,
    is a candidate.  Their images in top(m) are row-reduced side by side in
    one elimination, and phi_w is kept exactly when its block of columns
    holds a pivot, i.e. when its image is not inside the images of the
    candidates before it: the greedy choice, for any algebra.  A kept image
    grows by a full copy of the top simple, so the multiplicities are the
    minimal ones.  The projection pi onto top(m) is read off the pivots of
    rad(m)'s in-place elimination, pi = 1 for a semisimple m; a kernel is
    acted on one PIM block at a time, and is 0 for a cover of dim m.  So a
    cover runs two eliminations (rad(m), the choice), plus the kernel's.

    A semisimple m needs no kernel elimination: rad(A).w lies in rad(m) =
    0, so phi_w kills rad(P_i) and its image A.w is a copy of S_i, which
    the greedy choice keeps only when it meets the images before it in 0.
    So ker(epi) is the sum of the rad(P_i) over the summands, and the
    block-diagonal of their RREF bases is the RREF basis of ker(epi): the
    kernel is the block sum of the kept rad(P_i) (`radical_of_module`), its
    inclusion the block-diagonal of theirs, the arrays that eliminating
    epi gives.
    """
    field, d = m.over.field, m.dim
    stack, pivots = _radical_rref(m, None)
    homs = pim_homs(m)
    cands = [(i, phi) for i, phis in enumerate(homs) for phi in phis]
    tops = np.hstack([f.transpose(1, 0, 2).reshape(d, -1) for f in homs])
    if pivots:
        pi = _null_rows(RrefResult(FpMatrix.reduced(stack, field),
                                   len(pivots), pivots), field.p)[1]
        tops = matmul_mod(pi, tops, field.p)
    picked = _rref_inplace(tops, field.p)
    if len(picked) != d - len(pivots):
        raise StructureError("projective cover search failed to reach the top")
    owner = np.repeat(np.arange(len(cands)), [f.shape[1] for _, f in cands])
    # distinct owners in pivot order (np.unique imports numpy.ma, 30 ms)
    chosen = [cands[k] for k in dict.fromkeys(owner[picked])]
    pims = _pim_triples(m.over)
    cover = block_sum_module([pims[i][0] for i, _ in chosen])
    epi = FpMatrix.reduced(np.hstack([phi for _, phi in chosen]), field)
    summands, semisimple = tuple(i for i, _ in chosen), not pivots
    if cover.dim == m.dim:
        # epi is onto (it reaches the top), so bijective: the kernel is 0
        z = LeftModule.zero(m.over)
        return (cover, epi, z, ModuleHom(z, cover, FpMatrix.zeros(
            cover.dim, 0, field), validate=False), summands, semisimple)
    if semisimple:
        rad_of = {i: radical_of_module(pims[i][0]) for i in set(summands)}
        rads = [rad_of[i] for i in summands]
        ker = block_sum_module([rad for rad, _ in rads])
        if ker.dim != cover.dim - m.dim:
            raise StructureError("candidate cover map is not surjective")
        incl, row, col = np.zeros((cover.dim, ker.dim), dtype=np.int64), 0, 0
        for _, inc in rads:
            height, width = inc.matrix.arr.shape
            incl[row:row + height, col:col + width] = inc.matrix.arr
            row, col = row + height, col + width
        return (cover, epi, ker, ModuleHom(ker, cover, FpMatrix.reduced(
            incl, field), validate=False), summands, semisimple)
    # the summands come sorted by PIM: one product per run of copies of P_i
    rows, moved, off = kernel_basis(epi), [], 0
    for i, run in groupby(i for i, _ in chosen):
        pim, width = pims[i][0], pims[i][0].dim * len(list(run))
        part = rows.arr[:, off:off + width].reshape(-1, pim.dim)
        off += width
        moved.append(matmul_mod(part, pim.acts.transpose(0, 2, 1),
                                field.p).reshape(m.over.dim, rows.rows, width))
    ker, ker_incl = _echelon_submodule(cover, rows, np.concatenate(moved, 2))
    if ker.dim != cover.dim - m.dim:
        raise StructureError("candidate cover map is not surjective")
    return cover, epi, ker, ker_incl, summands, semisimple


def is_projective(m) -> bool:
    return projective_cover(m).kernel.dim == 0


# ---------------------------------------------------------------------------
# injective side, by duality


def is_injective(m) -> bool:
    return is_projective(dual_module(m))


def injective_indecomposables(a: Algebra):
    """List of (E_i, socle simple S_i), dual to the projective
    indecomposables of the opposite algebra."""
    return kept(a, "iims", lambda: [
        (dual_module(p0), dual_module(s))
        for p0, s in projective_indecomposables(opposite_algebra(a))])
