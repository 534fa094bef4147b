"""Chain complexes, minimal projective resolutions, syzygies, Ext and the
bounded projective/injective/flat dimension verdicts.

Complexes are finite windows with ascending differentials d^i: X^i ->
X^{i+1}.  A right module is resolved as the left module over the opposite
algebra (`as_left`).  Injective dimension is computed as the projective
dimension of the dual over the opposite algebra; flat dimension coincides
with the projective one for the finite-dimensional modules handled here.
Both resolution builders run one covering loop, fed the minimal or the
padded degree-0 presentation, and every Ext dimension is read off
Hom(resolution, N) by `ext_dims`: off the blocks Hom(P_i, N) = e_i.N of
the PIM summands P_i = A.e_i of each term, with no `HomSpace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (Algebra, AlgebraError, HomSpace, ModuleHom,
                      _same_algebra, as_left, direct_sum_modules, dual_module,
                      field_space, hom_space, is_exact_at, kernel_module)
from .linalg import FpMatrix, echelon_coords, hstack, rank
from .structure import (ProjectivePresentation, _pim_triples, pim_homs,
                        projective_cover, projective_indecomposables)


def default_bound(a: Algebra) -> int:
    return max(10, 2 * a.dim)


class ChainComplex:
    """Modules X^lo .. X^hi with differentials d^i: X^i -> X^{i+1}."""

    def __init__(self, lo: int, modules: Sequence, diffs: Sequence[ModuleHom],
                 validate: bool = True):
        if len(diffs) != max(len(modules) - 1, 0):
            raise AlgebraError("need one differential per adjacent pair")
        self.lo = lo
        self.modules = list(modules)
        self.diffs = list(diffs)
        if validate:
            for d, e in zip(self.diffs, self.diffs[1:]):
                if not (e.matrix @ d.matrix).is_zero():
                    raise AlgebraError("differentials do not square to zero")

    @property
    def hi(self) -> int:
        return self.lo + len(self.modules) - 1

    def module_at(self, i: int):
        return self.modules[i - self.lo]

    def diff_at(self, i: int) -> ModuleHom:
        """The differential leaving X^i."""
        return self.diffs[i - self.lo]

    def __repr__(self):
        dims = [m.dim for m in self.modules]
        return f"ChainComplex(lo={self.lo}, dims={dims})"


def is_exact_complex(c: ChainComplex) -> Tuple[bool, Optional[int]]:
    """Exactness at every interior index; returns the first failure."""
    for i in range(c.lo + 1, c.hi):
        if not is_exact_at(c.diff_at(i - 1), c.diff_at(i)):
            return False, i
    return True, None


# ---------------------------------------------------------------------------
# resolutions


@dataclass
class Resolution:
    """... -> P^{-2} -> P^{-1} -> P^0 -e-> m -> 0, stored front-first.

    terms[i] = P^{-i}; diffs[i]: terms[i+1] -> terms[i]; syzygies[i] is the
    kernel after i covering steps (syzygies[0] = m) and syz_incl[i] embeds
    syzygies[i+1] into terms[i]; summands[i] lists the PIM indices of the
    summands of terms[i], as in `ProjectivePresentation`.
    """
    module: object
    terms: List
    diffs: List[ModuleHom]
    epi: ModuleHom
    syzygies: List
    syz_incl: List[ModuleHom]
    summands: List[Tuple[int, ...]]

    def length(self) -> int:
        return len(self.terms) - 1

    def as_complex(self) -> ChainComplex:
        mods = list(reversed(self.terms))
        diffs = list(reversed(self.diffs))
        return ChainComplex(-self.length(), mods, diffs, validate=False)


def _resolve(pres, n: int) -> Resolution:
    """Extend the degree-0 presentation pres of its module by n covers."""
    terms, diffs, summands = [pres.cover], [], [pres.summands]
    syzygies, syz_incl = [pres.module, pres.kernel], [pres.kernel_inclusion]
    epi = pres.epi
    for _ in range(n):
        nxt = projective_cover(pres.kernel)
        terms.append(nxt.cover)
        summands.append(nxt.summands)
        diffs.append(pres.kernel_inclusion.compose(nxt.epi))
        syzygies.append(nxt.kernel)
        syz_incl.append(nxt.kernel_inclusion)
        pres = nxt
    return Resolution(syzygies[0], terms, diffs, epi, syzygies, syz_incl,
                      summands)


def minimal_projective_resolution(m, n: int) -> Resolution:
    """Resolution of length n by iterated projective covers."""
    return _resolve(projective_cover(m), n)


def non_minimal_resolution(m, n: int) -> Resolution:
    """A deliberately padded projective resolution: the degree-0 cover gets
    an extra indecomposable projective summand mapping to zero.  Used to
    cross-check resolution independence of Ext."""
    pres = projective_cover(m)
    m = pres.module
    extra = projective_indecomposables(m.over)[0][0]
    cover, _, _ = direct_sum_modules([pres.cover, extra])
    epi = ModuleHom(cover, m, hstack([pres.epi.matrix, FpMatrix.zeros(
        m.dim, extra.dim, m.over.field)]), validate=False)
    return _resolve(ProjectivePresentation(
        m, cover, epi, *kernel_module(epi), pres.summands + (0,)), n)


def syzygy(m, i: int):
    """The i-th kernel along the minimal resolution; syzygy(m, 0) = m."""
    if i == 0:
        return m
    return minimal_projective_resolution(m, i - 1).syzygies[i]


# ---------------------------------------------------------------------------
# Ext


@dataclass
class ExtResult:
    dim: int
    cocycles: int
    coboundaries: int


def _precompose_matrix(hs_from: HomSpace, hs_to: HomSpace,
                       d: ModuleHom) -> FpMatrix:
    """Matrix of Hom(Y, q) -> Hom(X, q), phi -> phi o d, for d: X -> Y."""
    return hs_to.coords_many(hs_from.basis_array() @ d.matrix.arr)


def ext_dims(res: Resolution, n, upto: int) -> List[ExtResult]:
    """Ext^0 .. Ext^upto off Hom(res, n), each map ranked once; the
    resolution needs length >= upto+1.

    Hom(P_j, n) is the sum of the blocks Hom(P_i, n) (`pim_homs`) over the
    summands P_i of P_j.  A map on P_{j+1} is fixed by its values on the
    generators e_i of the summands, so precomposition with d_j has the rank
    of psi -> (psi(d_j(e_i)))_i."""
    if res.length() < upto + 1:
        raise AlgebraError("resolution too short for the requested Ext")
    n = as_left(n)
    if not _same_algebra(res.module.over, n.over):
        raise AlgebraError("hom space requires a common algebra")
    homs, pims = pim_homs(n), _pim_triples(n.over)
    # e_i in the coordinates of P_i, whose basis is the RREF incl^T
    gens = [echelon_coords(incl.transpose(), e) for _, _, e, incl in pims]
    ranks = []
    for j in range(upto + 1):
        src, tgt = res.summands[j + 1], res.summands[j]
        cols = np.split(res.diffs[j].matrix.arr,
                        np.cumsum([len(gens[i]) for i in src]), axis=1)
        # row t is d_j of the generator of the t-th summand of P_{j+1}
        images = np.reshape([c @ gens[i] for c, i in zip(cols, src)],
                            (len(src), res.terms[j].dim)) % n.over.field.p
        width = n.dim * len(src)
        values = np.vstack([np.zeros((0, width), dtype=np.int64)] + [
            (homs[i] @ b.T).reshape(len(homs[i]), width) for i, b in zip(
                tgt, np.split(images, np.cumsum([len(gens[i]) for i in tgt]),
                              axis=1))])
        ranks.append(rank(FpMatrix(values, n.over.field)))
    cocycles = [sum(len(homs[i]) for i in s) - r
                for s, r in zip(res.summands, ranks)]
    coboundaries = [0] + ranks
    return [ExtResult(z - b, z, b) for z, b in zip(cocycles, coboundaries)]


def ext_from_resolution(res: Resolution, n, i: int) -> ExtResult:
    """dim Ext^i from an explicit projective resolution (length >= i+1)."""
    return ext_dims(res, n, i)[i]


def ext(m, n, i: int) -> ExtResult:
    """dim Ext^i(m, n) via the minimal projective resolution of m."""
    if i == 0:
        d = hom_space(m, n).dim
        return ExtResult(d, d, 0)
    res = minimal_projective_resolution(m, i + 1)
    return ext_from_resolution(res, n, i)


# ---------------------------------------------------------------------------
# dimension verdicts


@dataclass(frozen=True)
class DimensionVerdict:
    kind: str        # "finite" | "exceeds"
    value: int       # the dimension, or the bound that was exhausted

    @classmethod
    def finite(cls, d: int) -> "DimensionVerdict":
        return cls("finite", d)

    @classmethod
    def exceeds(cls, bound: int) -> "DimensionVerdict":
        return cls("exceeds", bound)

    def is_finite(self) -> bool:
        return self.kind == "finite"


def pd_bounded(m, bound: Optional[int] = None) -> DimensionVerdict:
    """Projective dimension, certified by a minimal resolution with zero
    final syzygy; ExceedsBound when none appears within the bound."""
    if bound is None:
        bound = default_bound(m.over)
    if m.dim == 0:
        return DimensionVerdict.finite(0)
    cur = m
    for d in range(bound + 1):
        pres = projective_cover(cur)
        if pres.kernel.dim == 0:
            return DimensionVerdict.finite(d)
        cur = pres.kernel
    return DimensionVerdict.exceeds(bound)


def id_bounded(m, bound: Optional[int] = None) -> DimensionVerdict:
    """Injective dimension = pd of the dual over the opposite algebra."""
    return pd_bounded(dual_module(m), bound)


def fd_bounded(m, bound: Optional[int] = None) -> DimensionVerdict:
    """Flat dimension; equals pd for finitely generated modules over a
    finite-dimensional algebra (flats are projective here)."""
    return pd_bounded(m, bound)


# ---------------------------------------------------------------------------
# functors applied to complexes


def hom_complex(c: ChainComplex, q) -> ChainComplex:
    """Contravariant Hom(-, q), reindexed so the result ascends: the term
    at -i is Hom(X^i, q), as plain spaces over the ground field."""
    field = q.over.field
    spaces = [hom_space(x, q) for x in c.modules]
    mods = [field_space(field, hs.dim) for hs in reversed(spaces)]
    diffs = []
    for j in reversed(range(len(c.diffs))):
        mat = _precompose_matrix(spaces[j + 1], spaces[j], c.diffs[j])
        diffs.append(ModuleHom(mods[len(c.diffs) - 1 - j],
                               mods[len(c.diffs) - j], mat, validate=False))
    return ChainComplex(-c.hi, mods, diffs, validate=False)


def hom_complex_co(q, c: ChainComplex) -> ChainComplex:
    """Covariant Hom(q, -) applied objectwise, same indexing as c."""
    field = q.over.field
    spaces = [hom_space(q, x) for x in c.modules]
    mods = [field_space(field, hs.dim) for hs in spaces]
    diffs = []
    for j in range(len(c.diffs)):
        mat = spaces[j + 1].coords_many(c.diffs[j].matrix.arr
                                        @ spaces[j].basis_array())
        diffs.append(ModuleHom(mods[j], mods[j + 1], mat, validate=False))
    return ChainComplex(c.lo, mods, diffs, validate=False)
