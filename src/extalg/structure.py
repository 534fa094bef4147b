"""Structure theory of modules: composition factors, radicals,
indecomposable splittings, projective covers and injective envelopes.

Everything is exact; randomness only enters through explicit seeds, and
only once the exhaustive sweeps exceed their budgets.  Projective covers,
and through them resolutions, take a right module as the left module over
the opposite algebra (`as_left`); injective envelopes are duals of
projective covers over the opposite algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (Algebra, LeftModule, ModuleHom, as_left,
                      direct_sum_modules, dual_module, hom_space,
                      is_isomorphic, kernel_module, opposite_algebra,
                      quotient_module, row_space_of_columns, submodule)
from .linalg import (FpMatrix, echelon_coords, hstack, kernel_basis,
                     projective_points, rank, rref, solve, vstack)

EXHAUSTIVE_BUDGET = 65536


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spinning and irreducibility


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


def find_proper_submodule(m, seed: int = 0,
                          budget: int = EXHAUSTIVE_BUDGET) -> Optional[FpMatrix]:
    """Row basis of a nonzero proper submodule, or None when none exists.

    Exhaustive vector sweep when p^dim fits the budget (then None is a
    certificate of simplicity); seeded sampling on both the module and its
    dual beyond that.  The sweep spins one vector per line
    (`projective_points`), since spin(c.v) = spin(v).
    """
    p = m.over.field.p
    d = m.dim
    if d <= 1:
        return None
    if p ** d <= budget:
        for v in projective_points(d, p):
            s = spin(m, v)
            if s.rows < d:
                return s
        return None
    rng = np.random.default_rng(seed)
    dm = dual_module(m)
    for _ in range(64):
        v = rng.integers(0, p, size=d)
        if not v.any():
            continue
        s = spin(m, v)
        if s.rows < d:
            return s
        # a proper spin in the dual gives a proper submodule of m as its
        # annihilator
        w = rng.integers(0, p, size=d)
        if w.any():
            sd = spin(dm, w)
            if sd.rows < d:
                return kernel_basis(sd)
    return None


def is_simple(m, seed: int = 0) -> bool:
    return m.dim > 0 and find_proper_submodule(m, seed) is None


# ---------------------------------------------------------------------------
# composition series


@dataclass
class CompositionSeries:
    """Filtration 0 = F_0 < F_1 < ... < F_k = m with simple quotients.

    factors[i] = F_{i+1}/F_i; witnesses[i] is the inclusion of F_{i+1}
    into m as a ModuleHom.
    """
    factors: List
    witnesses: List[ModuleHom]


def _filtration_bases(m, seed: int) -> List[FpMatrix]:
    """Strictly increasing row bases (in m coordinates) of a composition
    filtration, ending at the full space."""
    field = m.over.field
    if m.dim == 0:
        return []
    b = find_proper_submodule(m, seed)
    if b is None:
        return [FpMatrix.identity(m.dim, field)]
    sub, incl = submodule(m, b)
    quo, proj, q_incl = quotient_module(m, b.transpose())
    out = []
    for rows in _filtration_bases(sub, seed + 1):
        out.append(row_space_of_columns((incl.matrix @ rows.transpose())))
    sub_rows = out[-1]
    for rows in _filtration_bases(quo, seed + 2):
        lifted = (rows.arr @ q_incl.arr.T) % field.p
        out.append(row_space_of_columns(
            FpMatrix(np.vstack([sub_rows.arr, lifted]), field).transpose()))
    return out


def chop(m, seed: int = 0) -> CompositionSeries:
    """Composition series; the Jordan-Hoelder factor multiset does not
    depend on the seed."""
    bases = _filtration_bases(m, seed)
    factors = []
    witnesses = []
    prev_rows = None
    for b in bases:
        sub, incl = submodule(m, b)
        witnesses.append(incl)
        if prev_rows is None:
            factors.append(sub)
        else:
            # previous step in the coordinates of the current step
            coords = echelon_coords(incl.matrix.transpose(), prev_rows.arr)
            fac, _, _ = quotient_module(sub, FpMatrix(coords.T, m.over.field))
            factors.append(fac)
        prev_rows = b
    return CompositionSeries(factors, witnesses)


def simples(a: Algebra, seed: int = 0) -> List[LeftModule]:
    """Pairwise non-isomorphic simple left modules (all composition factors
    of the regular module)."""
    key = ("simples", seed)
    if key not in a._cache:
        series = chop(LeftModule.regular(a), seed)
        out: List[LeftModule] = []
        for f in series.factors:
            if not any(is_isomorphic(f, s, seed=seed) for s in out):
                out.append(f)
        a._cache[key] = out
    return a._cache[key]


# ---------------------------------------------------------------------------
# radical and top


def algebra_radical(a: Algebra, seed: int = 0) -> FpMatrix:
    """Row basis of rad(A), the intersection of the kernels of all maps
    from the regular module onto simples."""
    key = ("radical", seed)
    if key not in a._cache:
        reg = LeftModule.regular(a)
        mats = []
        for s in simples(a, seed):
            hs = hom_space(reg, s)
            for k in range(hs.dim):
                mats.append(hs.basis_hom(k).matrix)
        if not mats:
            a._cache[key] = FpMatrix.zeros(0, a.dim, a.field)
        else:
            a._cache[key] = kernel_basis(vstack(mats))
    return a._cache[key]


def radical_of_module(m) -> Tuple[object, ModuleHom]:
    """rad(m) = rad(A).m (both sides agree: rad(A) is a two-sided ideal,
    so the same subspace works for right modules)."""
    rad_rows = algebra_radical(m.over)
    if rad_rows.rows == 0 or m.dim == 0:
        return submodule(m, FpMatrix.zeros(0, m.dim, m.over.field))
    cols = hstack([m.act_matrix(rad_rows.arr[k])
                   for k in range(rad_rows.rows)])
    return submodule(m, row_space_of_columns(cols))


def top_of_module(m) -> Tuple[object, ModuleHom]:
    """m / rad(m) with the projection."""
    _, incl = radical_of_module(m)
    quo, proj, _ = quotient_module(m, incl.matrix)
    return quo, proj


# ---------------------------------------------------------------------------
# indecomposable splitting


def _find_idempotent_endo(m, seed: int,
                          budget: int = EXHAUSTIVE_BUDGET):
    """A nontrivial idempotent endomorphism of m, or None.

    Exhaustive sweep of End(m) within the budget (None is then a
    certificate); beyond it, Fitting splittings from seeded random
    endomorphisms via factored characteristic polynomials.
    """
    endos = hom_space(m, m)
    p = m.over.field.p
    h = endos.dim
    if h <= 1:
        return None  # End(m) = k.id: the only idempotents are 0 and 1
    ident = np.eye(m.dim, dtype=np.int64)
    if p ** h <= budget:
        for coords in itertools.product(range(p), repeat=h):
            if not any(coords):
                continue
            e = endos.element(coords)
            arr = e.matrix.arr
            if ((arr @ arr) % p == arr).all() and not (arr == ident).all():
                return e
        return None
    import sympy  # the only use of sympy, so kept off the import path
    rng = np.random.default_rng(seed)
    x = sympy.Symbol("x")
    for _ in range(40):
        coords = rng.integers(0, p, size=h)
        phi = endos.element(coords).matrix.arr
        poly = sympy.Poly(sympy.Matrix(phi.tolist()).charpoly(x), x,
                          modulus=p)
        factors = sympy.factor_list(poly.as_expr(), x, modulus=p)[1]
        if len(factors) < 2:
            continue
        f0 = sympy.Poly(factors[0][0] ** factors[0][1], x, modulus=p)
        fmat = _eval_poly_matrix(f0, phi, p)
        # stabilize: kernel of f0(phi)^dim is the generalized eigenspace
        stable = _power_mod(fmat, max(m.dim, 1), p)
        k = m.dim - rank(FpMatrix(stable, m.over.field))
        if 0 < k < m.dim:
            return ("fitting", FpMatrix(stable, m.over.field))
    return None


def _power_mod(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    """mat**e over GF(p), reduced after every product so that no entry
    leaves int64 range."""
    out = np.eye(mat.shape[0], dtype=np.int64)
    for _ in range(e):
        out = (out @ mat) % p
    return out


def _eval_poly_matrix(poly, mat: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros_like(mat)
    for c in poly.all_coeffs():
        out = (out @ mat + int(c) * np.eye(mat.shape[0], dtype=np.int64)) % p
    return out


def split_module(m, seed: int = 0) -> List[Tuple[object, ModuleHom]]:
    """Decompose into indecomposable summands; returns (summand, inclusion)
    pairs whose inclusion images are independent and jointly spanning."""
    if m.dim == 0:
        return []
    found = _find_idempotent_endo(m, seed)
    if found is None:
        return [(m, ModuleHom.identity(m))]
    if isinstance(found, tuple):
        fmat = found[1]
        part1 = kernel_basis(fmat)
        part2 = row_space_of_columns(fmat)
    else:
        e = found.matrix
        one_minus = FpMatrix.identity(m.dim, m.over.field) - e
        part1 = row_space_of_columns(e)
        part2 = row_space_of_columns(one_minus)
    out = []
    for rows in (part1, part2):
        sub, incl = submodule(m, rows)
        for piece, piece_incl in split_module(sub, seed + 1):
            out.append((piece, incl.compose(piece_incl)))
    return out


# ---------------------------------------------------------------------------
# projective indecomposables and covers


def _pim_triples(a: Algebra, seed: int = 0):
    """(P_i, top simple S_i, idempotent e_i with P_i = A.e_i), one triple
    per isomorphism class of regular-module summand."""
    key = ("pim_triples", seed)
    if key not in a._cache:
        reg = LeftModule.regular(a)
        pieces = split_module(reg, seed)
        big = hstack([incl.matrix for _, incl in pieces])
        coords = solve(big, FpMatrix.column(a.unit, a.field))
        if coords is None:
            raise StructureError("regular module splitting is not spanning")
        out = []
        off = 0
        for piece, incl in pieces:
            block = coords.arr[off:off + piece.dim, 0]
            off += piece.dim
            if any(is_isomorphic(piece, p0, seed=seed) for p0, _, _, _ in out):
                continue
            t, _ = top_of_module(piece)
            if not is_simple(t, seed):
                raise StructureError("top of a regular summand is not simple")
            e = (incl.matrix.arr @ block) % a.field.p
            out.append((piece, t, e, incl.matrix))
        a._cache[key] = out
    return a._cache[key]


def projective_indecomposables(a: Algebra, seed: int = 0):
    """List of (P_i, top simple S_i), one per isomorphism class; every
    projective is a direct sum of these."""
    return [(p, s) for p, s, _, _ in _pim_triples(a, seed)]


@dataclass
class ProjectivePresentation:
    module: object
    cover: object
    epi: ModuleHom
    kernel: object
    kernel_inclusion: ModuleHom


def projective_cover(m, seed: int = 0) -> ProjectivePresentation:
    """Minimal projective surjection onto m.

    Summands are chosen greedily: a basis hom of Hom(P_i, m) is kept
    exactly when it enlarges the image in top(m); the image then grows by
    a full copy of the top simple, so the chosen multiplicities are the
    minimal ones.  A right module is covered as a left module over the
    opposite algebra.
    """
    m = as_left(m)
    a = m.over
    field = a.field
    if m.dim == 0:
        z = LeftModule.zero(a)
        return ProjectivePresentation(m, z, ModuleHom.zero(z, m), z,
                                      ModuleHom.zero(z, z))
    pims = _pim_triples(a, seed)
    top, pi = top_of_module(m)
    chosen: List[Tuple[object, FpMatrix]] = []
    top_image = FpMatrix.zeros(0, top.dim, field)
    for p_i, _, e_i, incl in pims:
        # Hom(A.e, m) is e.m via w -> (v -> v.w); enumerate a basis of e.m
        fixed = row_space_of_columns(m.act_matrix(e_i))
        for k in range(fixed.rows):
            w = fixed.arr[k]
            cols = (np.stack([m.act_matrix(incl.col(b)).apply(w)
                              for b in range(p_i.dim)], axis=1)
                    if p_i.dim else np.zeros((m.dim, 0), dtype=np.int64))
            phi = FpMatrix(cols, field)
            cand_rows = row_space_of_columns(pi.matrix @ phi)
            merged = FpMatrix(np.vstack([top_image.arr, cand_rows.arr]), field)
            if rank(merged) > top_image.rows:
                chosen.append((p_i, phi))
                top_image = row_space_of_columns(merged.transpose())
        if top_image.rows == top.dim:
            break
    if top_image.rows != top.dim:
        raise StructureError("projective cover search failed to reach the top")
    cover, incls, _ = direct_sum_modules([c[0] for c in chosen])
    epi_mat = hstack([phi for _, phi in chosen])
    epi = ModuleHom(cover, m, epi_mat, validate=False)
    if rank(epi_mat) != m.dim:
        raise StructureError("candidate cover map is not surjective")
    ker, ker_incl = kernel_module(epi)
    return ProjectivePresentation(m, cover, epi, ker, ker_incl)


def is_projective(m, seed: int = 0) -> bool:
    return projective_cover(m, seed).kernel.dim == 0


# ---------------------------------------------------------------------------
# injective side, by duality


def injective_envelope(m, seed: int = 0):
    """(E, essential mono m -> E), computed as the dual of the projective
    cover of the dual over the opposite algebra."""
    pres = projective_cover(dual_module(m), seed)
    env = type(m)(m.over, dual_module(pres.cover).action, validate=False)
    mono = ModuleHom(m, env, pres.epi.matrix.transpose(), validate=False)
    return env, mono


def is_injective(m, seed: int = 0) -> bool:
    return is_projective(dual_module(m), seed)


def injective_indecomposables(a: Algebra, seed: int = 0):
    """List of (E_i, socle simple S_i), dual to the projective
    indecomposables of the opposite algebra."""
    key = ("iims", seed)
    if key not in a._cache:
        a._cache[key] = [
            (as_left(dual_module(p0)), as_left(dual_module(s)))
            for p0, s in projective_indecomposables(opposite_algebra(a),
                                                    seed)]
    return a._cache[key]
