"""Structure theory of modules: the radical, simples and projective
indecomposables (PIMs) of an algebra, composition series, indecomposable
splittings, projective covers and injective envelopes.

One deterministic path serves every prime: rad(A) is a chain of trace
kernels, and the primitive idempotents of A/rad come from linear algebra
and lift to A.  One primitive idempotent e_i per simple block of A/rad
gives the PIM P_i = A.e_i and the simple S_i = top(P_i), non-isomorphic
for different blocks.  `split_module` applies the same steps to End(m),
and `find_isomorphism` matches the indecomposable summands of two modules,
so its None is a certified "not isomorphic".

A right module is covered and resolved as the left module over the
opposite algebra (`as_left`); injective envelopes are duals of projective
covers over the opposite algebra.  Covers are shared per algebra by module
content: equal modules get the same cover, kernel and epimorphism matrix,
held only while some module holds them.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .algebra import (Algebra, LeftModule, ModuleHom, _echelon_submodule,
                      _stack, as_left, direct_sum_modules, dual_module,
                      hom_space, kernel_module, opposite_algebra,
                      quotient_module, row_space_of_columns)
from .linalg import (FieldSpec, FpMatrix, echelon_coords,
                     echelon_quotient_maps, hstack, inverse, kernel_basis,
                     rref, row_basis, solve, vstack)

# The split of a matrix block draws its candidates from
# random.Random(_SPLIT_STREAM), fresh for every split; the draws change how
# long a split takes, not the summands it gives (up to isomorphism).
_SPLIT_STREAM = 20231


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spinning


def spin(m, vec) -> FpMatrix:
    """Echelonized row basis of the submodule generated by vec."""
    field = m.over.field
    rows = np.asarray(vec, dtype=np.int64).reshape(1, -1) % field.p
    while True:
        new = [rows]
        for am in m.action:
            new.append((rows @ am.arr.T) % field.p)
        stacked = FpMatrix(np.vstack(new), field)
        r = rref(stacked)
        nxt = r.reduced.arr[: r.rank]
        if nxt.shape[0] == rows.shape[0] and (nxt == rows).all():
            return FpMatrix(nxt, field)
        rows = nxt


# ---------------------------------------------------------------------------
# finite algebras given by structure constants: radical and idempotents


def _mul(sc: np.ndarray, x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Products x*y of coordinate vectors, broadcast over leading axes, in
    the algebra with structure constants sc."""
    n = sc.shape[0]
    # row j of left is x*b_j
    left = ((x @ sc.reshape(n, n * n)) % p).reshape(*np.shape(x)[:-1], n, n)
    return (y[..., None, :] @ left)[..., 0, :] % p


def _power(x: np.ndarray, e: int, mul) -> np.ndarray:
    """x**e for e >= 1 by square and multiply."""
    if e == 1:
        return x
    half = _power(mul(x, x), e // 2, mul)
    return mul(half, x) if e % 2 else half


def _trace_radical(mats: np.ndarray, field: FieldSpec) -> FpMatrix:
    """RREF row basis, in coordinates of the (n, d, d) stack `mats` whose
    span is closed under products, of the radical of that span.

    Cohen-Ivanyos-Wales: I_{-1} = A, I_i = {x in I_{i-1} : g_i(xy) = 0 for
    all y}, g_i(z) = Tr(z~^(p^i)) / p^i mod p for any integer lift z~;
    g_i is linear on I_{i-1}, and rad A = I_i once p^(i+1) > d (for p > d,
    Dickson's trace-form kernel).  Reducing mod p^(i+1) <= p * d after
    every product keeps entries below d * (p * d)^2.
    """
    p = field.p
    n, d, _ = mats.shape
    basis = np.eye(n, dtype=np.int64)
    q = 1
    while q <= d and basis.shape[0]:
        mod = q * p
        xs = np.tensordot(basis, mats, 1) % p
        z = _power((xs[:, None] @ mats[None]) % p, q,
                   lambda u, v: (u @ v) % mod)
        g = (np.trace(z, axis1=2, axis2=3) % mod) // q
        basis = kernel_basis(FpMatrix(g.T, field)).arr @ basis % p
        q *= p
    return row_basis(FpMatrix(basis, field))


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


def _frobenius_fixed(basis: np.ndarray, mul, field: FieldSpec) -> np.ndarray:
    """Rows spanning {z : z^p = z}, the span of the primitive idempotents,
    in the commutative subalgebra spanned by `basis` (z -> z^p is linear)."""
    frob = (_power(basis, field.p, mul) - basis) % field.p
    return kernel_basis(FpMatrix(frob.T, field)).arr @ basis % field.p


def _eigen_split(e: np.ndarray, bs: np.ndarray, mul,
                 field: FieldSpec) -> List[np.ndarray]:
    """The primitive idempotents summing to e of the span of bs, which
    commute, contain e and satisfy b^p = b.  Each part f so far is cut
    along the eigenvalues r of b.f, which lie in GF(p): they are the roots
    of its minimal polynomial, found by one Horner pass over GF(p), and
    f - (b.f - r.f)^(p-1) projects onto the eigenspace of r."""
    p = field.p
    t = np.arange(p, dtype=np.int64)
    parts = [e]
    for b in bs:
        if len(parts) == len(bs):
            break
        nxt = []
        for f in parts:
            x = mul(b, f)
            value = np.ones(p, dtype=np.int64)
            for c in _minimal_polynomial(x, f, mul, field)[0][::-1]:
                value = (value * t - c) % p
            nxt += [(f - _power((x - r * f) % p, p - 1, mul)) % p
                    for r in np.flatnonzero(value == 0)]
        parts = nxt
    return parts


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
    that their images lie in."""
    p = field.p
    qm = echelon_quotient_maps(rad)
    free = qm.include.arr.argmax(axis=0)     # Q has basis b_free[a] + rad
    qsc = (sc[np.ix_(free, free)] @ qm.project.arr.T) % p
    qmul, amul = partial(_mul, qsc, p=p), partial(_mul, sc, p=p)
    m = len(free)
    comm = (qsc - qsc.transpose(1, 0, 2)) % p
    centre = kernel_basis(FpMatrix(comm.reshape(m, m * m).T, field)).arr
    blocks = _eigen_split(qm.project.arr @ unit % p,
                          _frobenius_fixed(centre, qmul, field), qmul, field)
    # lift each to an idempotent of uAu, u = 1 - (those lifted so far)
    groups, u = [], unit
    for block in blocks:
        groups.append([])
        for ebar in _split_simple(block, qmul, field):
            pre = np.zeros_like(unit)
            pre[free] = ebar
            g, prev = amul(amul(u, pre), u), None
            while prev is None or (g != prev).any():
                sq = amul(g, g)
                g, prev = (3 * sq - 2 * amul(sq, g)) % p, g
            groups[-1].append(g)
            u = (u - g) % p
    return groups


# ---------------------------------------------------------------------------
# radical, top, simples and projective indecomposables of an algebra


def algebra_radical(a: Algebra) -> FpMatrix:
    """Row basis (RREF) of rad(A), from the regular representation."""
    if "radical" not in a._cache:
        a._cache["radical"] = _trace_radical(a.sc.transpose(0, 2, 1),
                                             a.field)
    return a._cache["radical"]


def _radical_span(m, rows: np.ndarray) -> FpMatrix:
    """Row basis of rad(A) applied to the row span of `rows` (coordinates
    of m); rad(A) is a two-sided ideal, so this serves either side."""
    p = m.over.field.p
    acts = np.tensordot(algebra_radical(m.over).arr,
                        _stack(m.action, m.dim), 1) % p
    moved = rows @ acts.transpose(0, 2, 1)
    return row_basis(FpMatrix(moved.reshape(len(acts) * len(rows), m.dim),
                              m.over.field))


def radical_of_module(m) -> Tuple[object, ModuleHom]:
    """rad(m) = rad(A).m with its inclusion."""
    return _echelon_submodule(
        m, _radical_span(m, np.eye(m.dim, dtype=np.int64)))


def top_of_module(m) -> Tuple[object, ModuleHom]:
    """m / rad(m) with the projection."""
    _, incl = radical_of_module(m)
    quo, proj, _ = quotient_module(m, incl.matrix)
    return quo, proj


def _pim_triples(a: Algebra):
    """(P_i, top simple S_i, primitive idempotent e_i with P_i = A.e_i,
    inclusion of P_i into A), one triple per simple block of A/rad."""
    if "pim_triples" not in a._cache:
        reg = LeftModule.regular(a)
        out = []
        for group in _primitive_idempotents(a.sc, a.unit, algebra_radical(a),
                                            a.field):
            piece, incl = _echelon_submodule(reg, spin(reg, group[0]))
            out.append((piece, top_of_module(piece)[0], group[0],
                        incl.matrix))
        a._cache["pim_triples"] = out
    return a._cache["pim_triples"]


def simples(a: Algebra) -> List[LeftModule]:
    """Pairwise non-isomorphic simple left modules, the tops of the
    projective indecomposables."""
    return [s for _, s, _, _ in _pim_triples(a)]


def projective_indecomposables(a: Algebra):
    """List of (P_i, top simple S_i), one per isomorphism class; every
    projective is a direct sum of these."""
    return [(p, s) for p, s, _, _ in _pim_triples(a)]


# ---------------------------------------------------------------------------
# submodules, composition series and splittings of modules


def find_proper_submodule(m) -> Optional[FpMatrix]:
    """Row basis of a nonzero proper submodule, the first step of a
    composition filtration, or None when m is simple or zero."""
    bases = _filtration_bases(m)
    return bases[0] if len(bases) > 1 else None


def is_simple(m) -> bool:
    return m.dim > 0 and find_proper_submodule(m) is None


@dataclass
class CompositionSeries:
    """Filtration 0 = F_0 < F_1 < ... < F_k = m with simple quotients.

    factors[i] = F_{i+1}/F_i; witnesses[i] is the inclusion of F_{i+1}
    into m as a ModuleHom.
    """
    factors: List
    witnesses: List[ModuleHom]


def _filtration_bases(m) -> List[FpMatrix]:
    """Strictly increasing row bases (in m coordinates) of a composition
    filtration, ending at the full space.

    The radical layers rad^(j-1)(m) / rad^j(m) are semisimple, so the
    filtration grows from rad^j(m) to rad^(j-1)(m) one simple at a time: a
    vector of e_i.rad^(j-1)(m) outside the current step spins onto a copy
    of S_i over it.
    """
    p = m.over.field.p
    layers = [FpMatrix.identity(m.dim, m.over.field)]
    while layers[-1].rows:
        layers.append(_radical_span(m, layers[-1].arr))
    idems = [m.act_matrix(e).arr for _, _, e, _ in _pim_triples(m.over)]
    out = []
    current = layers.pop()
    for layer in reversed(layers):
        while current.rows < layer.rows:
            v = next(v for e in idems for v in (layer.arr @ e.T) % p
                     if echelon_coords(current, v) is None)
            current = row_basis(vstack([current, spin(m, v)]))
            out.append(current)
    return out


def chop(m) -> CompositionSeries:
    """Composition series, through the radical layers of m."""
    factors, witnesses = [], []
    prev = FpMatrix.zeros(0, m.dim, m.over.field)
    for b in _filtration_bases(m):
        sub, incl = _echelon_submodule(m, b)
        # the previous step in the coordinates of this one
        coords = echelon_coords(incl.matrix.transpose(), prev.arr)
        factors.append(quotient_module(sub, FpMatrix(coords.T,
                                                     m.over.field))[0])
        witnesses.append(incl)
        prev = b
    return CompositionSeries(factors, witnesses)


def split_module(m) -> List[Tuple[object, ModuleHom]]:
    """Decompose into indecomposable summands; returns (summand, inclusion)
    pairs whose inclusion images are independent and jointly spanning.

    The summands are the images of orthogonal primitive idempotents of
    End(m) summing to 1; a local End(m) certifies that m is indecomposable.
    """
    if m.dim == 0:
        return []
    endos = hom_space(m, m)
    mats = endos.basis_array()
    prods = (mats[:, None] @ mats[None]).reshape(endos.dim, endos.dim, -1)
    unit = np.eye(m.dim, dtype=np.int64).reshape(-1)
    idems = [e for group in _primitive_idempotents(
        echelon_coords(endos.mat, prods), echelon_coords(endos.mat, unit),
        _trace_radical(mats, m.over.field), m.over.field) for e in group]
    if len(idems) == 1:
        return [(m, ModuleHom.identity(m))]
    return [_echelon_submodule(m, row_space_of_columns(
        FpMatrix(np.tensordot(e, mats, 1), m.over.field))) for e in idems]


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


def is_isomorphic(m, n) -> bool:
    return find_isomorphism(m, n) is not None


# ---------------------------------------------------------------------------
# projective covers


@dataclass
class ProjectivePresentation:
    """summands[s] is the index i of the s-th summand P_i of cover."""
    module: object
    cover: object
    epi: ModuleHom
    kernel: object
    kernel_inclusion: ModuleHom
    summands: Tuple[int, ...]


def projective_cover(m) -> ProjectivePresentation:
    """Minimal projective surjection onto m.

    The cover is a function of the algebra and the action matrices alone,
    so equal modules share it: its parts are kept on m, and the algebra
    indexes them weakly by m's content, for as long as a module holds them.
    A right module is covered as a left module over the opposite algebra.
    """
    left = as_left(m)
    if left.dim == 0:
        z = LeftModule.zero(left.over)
        return ProjectivePresentation(left, z, ModuleHom.zero(z, left), z,
                                      ModuleHom.zero(z, z), ())
    if "cover" not in m._cache:
        index = left.over._cache.setdefault("covers",
                                            weakref.WeakValueDictionary())
        key = (left.dim, _stack(left.action, left.dim).tobytes())
        holder = index.get(key)
        m._cache["cover"] = (_cover_parts(left) if holder is None
                             else holder._cache["cover"])
        index.setdefault(key, m)
    cover, epi, ker, ker_incl, summands = m._cache["cover"]
    return ProjectivePresentation(left, cover, ModuleHom(
        cover, left, epi, validate=False), ker, ker_incl, summands)


def pim_homs(m) -> List[np.ndarray]:
    """For each PIM P_i = A.e_i, the basis phi_w: x -> x.w of Hom(P_i, m)
    = e_i.m, w in the RREF basis of e_i.m, as a (dim e_i.m, m.dim, P_i.dim)
    array."""
    p = m.over.field.p
    acts = _stack(m.action, m.dim)
    out = []
    for _, _, e_i, incl in _pim_triples(m.over):
        ws = row_space_of_columns(m.act_matrix(e_i)).arr
        # phi[b, :, k] is column b of incl acting on ws[k]
        phi = ((np.tensordot(incl.arr.T, acts, 1) % p) @ ws.T) % p
        out.append(phi.transpose(2, 1, 0))
    return out


def _cover_parts(m: LeftModule):
    """(cover, epi matrix, kernel, kernel inclusion, summands) of m != 0.

    Each basis map phi_w of Hom(P_i, m) (`pim_homs`), over every i in turn,
    is a candidate.  Their images in top(m) are row-reduced side by side in
    one elimination, and phi_w is kept exactly when its block of columns
    holds a pivot, i.e. when its image is not inside the images of the
    candidates before it: the greedy choice, for any algebra.  A kept image
    grows by a full copy of the top simple, so the multiplicities are the
    minimal ones.  The projection onto top(m) is read off the RREF rows of
    rad(m).
    """
    field = m.over.field
    pi = echelon_quotient_maps(
        _radical_span(m, np.eye(m.dim, dtype=np.int64))).project.arr
    homs = pim_homs(m)
    cands = [(i, phi) for i, phis in enumerate(homs) for phi in phis]
    reduced = rref(FpMatrix(np.hstack([
        (pi @ phis).transpose(1, 0, 2).reshape(len(pi), -1)
        for phis in homs]), field))
    if reduced.rank != len(pi):
        raise StructureError("projective cover search failed to reach the top")
    owner = np.repeat(np.arange(len(cands)), [f.shape[1] for _, f in cands])
    chosen = [cands[k] for k in np.unique(owner[reduced.pivot_cols])]
    cover = direct_sum_modules([_pim_triples(m.over)[i][0]
                                for i, _ in chosen])[0]
    epi = ModuleHom(cover, m, FpMatrix(np.hstack([phi for _, phi in chosen]),
                                       field), validate=False)
    ker, ker_incl = kernel_module(epi)
    if ker.dim != cover.dim - m.dim:
        raise StructureError("candidate cover map is not surjective")
    return cover, epi.matrix, ker, ker_incl, tuple(i for i, _ in chosen)


def is_projective(m) -> bool:
    return projective_cover(m).kernel.dim == 0


# ---------------------------------------------------------------------------
# injective side, by duality


def injective_envelope(m):
    """(E, essential mono m -> E), computed as the dual of the projective
    cover of the dual over the opposite algebra."""
    pres = projective_cover(dual_module(m))
    env = type(m)(m.over, dual_module(pres.cover).action, validate=False)
    mono = ModuleHom(m, env, pres.epi.matrix.transpose(), validate=False)
    return env, mono


def is_injective(m) -> bool:
    return is_projective(dual_module(m))


def injective_indecomposables(a: Algebra):
    """List of (E_i, socle simple S_i), dual to the projective
    indecomposables of the opposite algebra."""
    if "iims" not in a._cache:
        a._cache["iims"] = [
            (as_left(dual_module(p0)), as_left(dual_module(s)))
            for p0, s in projective_indecomposables(opposite_algebra(a))]
    return a._cache["iims"]
