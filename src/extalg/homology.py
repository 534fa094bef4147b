"""Chain complexes, minimal projective resolutions, syzygies, Ext and the
bounded projective/injective/flat dimension verdicts.

Complexes are finite windows with ascending differentials d^i: X^i ->
X^{i+1}.  A right module is a left module over the opposite algebra and is
resolved as any other.  Injective dimension is computed as the projective
dimension of the dual over the opposite algebra; flat dimension coincides
with the projective one for the finite-dimensional modules handled here.
A resolution grows by one covering loop (`_resolve`) from a degree-0
presentation, and every Ext dimension is read off
Hom(resolution, N) by `ext_dims`: off the blocks Hom(P_i, N) = e_i.N of
the PIM summands P_i = A.e_i of each term, with no `HomSpace`, degree by
degree while the resolution grows one cover at a time, so a reader that
stops early covers nothing it did not read.

A dimension walk stops at the first semisimple non-projective syzygy
Omega^b(m) whose cover names the same PIMs as an earlier Omega^a(m): both
have pd = max pd(S_i) over those PIMs, and a finite pd(m) would make it
pd(m) - a = pd(m) - b, so pd(m) is infinite and the answer exceeds(bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (Algebra, AlgebraError, HomSpace, ModuleHom,
                      _content, _same_algebra, dual_module, field_space,
                      hom_space, is_exact_at, kept)
from .linalg import FpMatrix, _rref_inplace, echelon_coords, matmul_mod
from .structure import _pim_triples, pim_homs, projective_cover


def default_bound(a: Algebra) -> int:
    """The Ext and dimension bound used when none is given.  Where no
    repeated semisimple syzygy stops the walk (`pd_bounded`), degree 10
    can mean syzygies doubling each step, so a caller passes `--bound`:
    over W |x W, W = k<x,y>/(x,y)^2, and for a resolution over W."""
    return max(10, 2 * a.dim)


class ChainComplex:
    """Modules X^lo .. X^hi with differentials d^i: X^i -> X^{i+1}, built
    as a complex: d o d = 0 is not checked (`is_exact_complex` tests it)."""

    def __init__(self, lo: int, modules: Sequence, diffs: Sequence[ModuleHom]):
        if len(diffs) != max(len(modules) - 1, 0):
            raise AlgebraError("need one differential per adjacent pair")
        self.lo, self.modules, self.diffs = lo, list(modules), list(diffs)

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

    def grow(self) -> None:
        """Extend by one term, the projective cover of the last syzygy."""
        nxt = projective_cover(self.syzygies[-1])
        self.terms.append(nxt.cover)
        self.summands.append(nxt.summands)
        incl, field = self.syz_incl[-1], nxt.epi.matrix.field
        self.diffs.append(ModuleHom(nxt.cover, incl.target, FpMatrix.reduced(
            matmul_mod(incl.matrix.arr, nxt.epi.matrix.arr, field.p), field),
            validate=False))
        self.syzygies.append(nxt.kernel)
        self.syz_incl.append(nxt.kernel_inclusion)


def _resolve(pres, n: int) -> Resolution:
    """Extend the degree-0 presentation pres of its module by n covers."""
    res = Resolution(pres.module, [pres.cover], [], pres.epi,
                     [pres.module, pres.kernel], [pres.kernel_inclusion],
                     [pres.summands])
    for _ in range(n):
        res.grow()
    return res


def minimal_projective_resolution(m, n: int) -> Resolution:
    """Resolution of length n by iterated projective covers."""
    return _resolve(projective_cover(m), n)


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


def ext_dims(res: Resolution, n, upto: int) -> Iterator[ExtResult]:
    """Ext^0 .. Ext^upto off Hom(res, n), one degree at a time, each map
    ranked once.  Ext^j reads d_j, and res grows by one cover when d_j is
    missing, so a reader that stops at Ext^j covers nothing past Omega^(j+1).

    Hom(P_j, n) is the sum of the blocks Hom(P_i, n) (`pim_homs`) over the
    summands P_i of P_j.  A map on P_{j+1} is fixed by its values on the
    generators e_i of the summands, so precomposition with d_j has the rank
    of psi -> (psi(d_j(e_i)))_i."""
    if not _same_algebra(res.module.over, n.over):
        raise AlgebraError("hom space requires a common algebra")
    return _ext_degrees(res, n, upto)


def _ext_degrees(res: Resolution, n, upto: int) -> Iterator[ExtResult]:
    # kept on n: the battery's target is a regular module, kept on A
    homs = kept(n, "pim_homs", lambda: pim_homs(n))
    # e_i in the coordinates of P_i (basis the RREF incl^T), kept on A
    gens = kept(n.over, "pim_gens", lambda: [echelon_coords(
        incl.transpose(), e) for _, e, incl in _pim_triples(n.over)])
    p, coboundaries = n.over.field.p, 0
    for j in range(upto + 1):
        if res.length() == j:
            res.grow()
        src, tgt = res.summands[j + 1], res.summands[j]
        # column t is d_j of the generator of the t-th summand of P_{j+1}
        g = np.concatenate([np.zeros(0, np.int64), *(gens[i] for i in src)])
        images = np.add.reduceat(res.diffs[j].matrix.arr * g, [0, *accumulate(
            len(gens[i]) for i in src)][:len(src)], axis=1) % p
        # one product per run of r copies of P_i in P_j, rows (copy, phi)
        s, off = len(src), 0
        values = [np.zeros((0, n.dim * s), dtype=np.int64)]
        for i, run in groupby(tgt):
            (h, _, w), r = homs[i].shape, len(list(run))
            values.append(np.einsum("hnw,rws->rhns", homs[i], images[
                off:off + r * w].reshape(r, w, s)).reshape(r * h, n.dim * s))
            off += r * w
        rk = len(_rref_inplace(np.concatenate(values) % p, p))
        cocycles = sum(len(homs[i]) for i in tgt) - rk
        yield ExtResult(cocycles - coboundaries, cocycles, coboundaries)
        coboundaries = rk


def ext_from_resolution(res: Resolution, n, i: int) -> ExtResult:
    """dim Ext^i from an explicit projective resolution, grown as needed."""
    return list(ext_dims(res, n, i))[i]


def ext(m, n, i: int) -> ExtResult:
    """dim Ext^i(m, n) off the minimal projective resolution of m, for
    every i >= 0 (Ext^0 = Hom(m, n) is the kernel of precomposition with
    the first differential)."""
    return ext_from_resolution(minimal_projective_resolution(m, i + 1), n, i)


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
    """Projective dimension, certified finite by a minimal resolution with
    zero final syzygy; exceeds(bound) when none appears within the bound,
    or sooner on a repeated semisimple syzygy (module docstring).  Kept on
    m per bound, so a second call walks nothing."""
    if bound is None:
        bound = default_bound(m.over)
    def walk():
        cur, supports = m, set()
        for d in range(bound + 1):
            pres = projective_cover(cur)
            if pres.kernel.dim == 0:
                return DimensionVerdict.finite(d)
            if pres.semisimple:
                if frozenset(pres.summands) in supports:
                    break
                supports.add(frozenset(pres.summands))
            cur = pres.kernel
        return DimensionVerdict.exceeds(bound)
    return kept(m, ("pd", bound), walk)


def id_bounded(m, bound: Optional[int] = None) -> DimensionVerdict:
    """Injective dimension = pd of the dual over the opposite algebra."""
    return pd_bounded(dual_module(m), bound)


def fd_bounded(m, bound: Optional[int] = None) -> DimensionVerdict:
    """Flat dimension; equals pd for finitely generated modules over a
    finite-dimensional algebra (flats are projective here)."""
    return pd_bounded(m, bound)


# ---------------------------------------------------------------------------
# functors applied to complexes


def _hom_spaces(c: ChainComplex, hom) -> List[HomSpace]:
    """hom(x) for each term x of c, built once per content: the terms of a
    complete resolution's window repeat."""
    built: dict = {}
    for x in c.modules:
        if _content(x) not in built:
            built[_content(x)] = hom(x)
    return [built[_content(x)] for x in c.modules]


def hom_complex(c: ChainComplex, q) -> ChainComplex:
    """Contravariant Hom(-, q), reindexed so the result ascends: the term
    at -i is Hom(X^i, q), as plain spaces over the ground field."""
    field = q.over.field
    spaces = _hom_spaces(c, lambda x: hom_space(x, q))
    mods = [field_space(field, hs.dim) for hs in reversed(spaces)]
    diffs = []
    for j in reversed(range(len(c.diffs))):
        mat = _precompose_matrix(spaces[j + 1], spaces[j], c.diffs[j])
        diffs.append(ModuleHom(mods[len(c.diffs) - 1 - j],
                               mods[len(c.diffs) - j], mat, validate=False))
    return ChainComplex(-c.hi, mods, diffs)


def hom_complex_co(q, c: ChainComplex) -> ChainComplex:
    """Covariant Hom(q, -) applied objectwise, same indexing as c."""
    field = q.over.field
    spaces = _hom_spaces(c, lambda x: hom_space(q, x))
    mods = [field_space(field, hs.dim) for hs in spaces]
    diffs = []
    for j in range(len(c.diffs)):
        mat = spaces[j + 1].coords_many(c.diffs[j].matrix.arr
                                        @ spaces[j].basis_array())
        diffs.append(ModuleHom(mods[j], mods[j + 1], mat, validate=False))
    return ChainComplex(c.lo, mods, diffs)
