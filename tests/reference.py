"""Reference constructions that only the tests use, built from the
library's own steps: the product of two algebra elements, the hom with
given coordinates, the zero bimodule, a submodule on rows in any form, a
composition series with its inclusions, the injective envelope with its
essential mono, and a padded projective resolution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from extalg.algebra import (Bimodule, LeftModule, ModuleHom,
                            _echelon_submodule, _mul, block_sum_module,
                            dual_module, kernel_module, quotient_module)
from extalg.homology import Resolution, _resolve
from extalg.linalg import FpMatrix, echelon_coords, hstack, row_basis, vstack
from extalg.structure import (ProjectivePresentation, _pim_triples,
                              _radical_span, projective_cover,
                              projective_indecomposables, spin)


def mult(a, x, y) -> np.ndarray:
    """The product x*y of two elements of the algebra a, in coordinates."""
    p = a.field.p
    return _mul(a.sc, np.asarray(x, dtype=np.int64) % p,
                np.asarray(y, dtype=np.int64) % p, p)


def element(hs, coords) -> ModuleHom:
    """The hom of the hom space hs with the given coordinates."""
    coords = np.asarray(coords, dtype=np.int64) % hs.field.p
    acc = (coords @ hs.mat.arr) % hs.field.p
    m = FpMatrix(acc.reshape(hs.target.dim, hs.source.dim), hs.field)
    return ModuleHom(hs.source, hs.target, m, validate=False)


def zero_bimodule(a) -> Bimodule:
    """The zero A-A-bimodule."""
    return Bimodule(a, a, np.zeros((a.dim, 0, 0), dtype=np.int64),
                    np.zeros((a.dim, 0, 0), dtype=np.int64), validate=False)


def submodule(x, basis_rows: FpMatrix):
    """Submodule spanned by the given rows; returns (module, inclusion).
    Raises unless their span is invariant.  The rows are echelonized here;
    inside the library, rows already in RREF (kernel and image bases,
    spans, radical layers) go to `_echelon_submodule` directly."""
    return _echelon_submodule(x, row_basis(basis_rows))


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
    idems = [m.act_matrix(e).arr for _, e, _ in _pim_triples(m.over)]
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


def injective_envelope(m):
    """(E, essential mono m -> E), computed as the dual of the projective
    cover of the dual over the opposite algebra."""
    pres = projective_cover(dual_module(m))
    env = LeftModule(m.over, dual_module(pres.cover).acts, validate=False)
    mono = ModuleHom(m, env, pres.epi.matrix.transpose(), validate=False)
    return env, mono


def non_minimal_resolution(m, n: int) -> Resolution:
    """A deliberately padded projective resolution: the degree-0 cover gets
    an extra indecomposable projective summand mapping to zero.  Used to
    cross-check resolution independence of Ext."""
    pres = projective_cover(m)
    m = pres.module
    extra = projective_indecomposables(m.over)[0][0]
    cover = block_sum_module([pres.cover, extra])
    epi = ModuleHom(cover, m, hstack([pres.epi.matrix, FpMatrix.zeros(
        m.dim, extra.dim, m.over.field)]), validate=False)
    return _resolve(ProjectivePresentation(
        m, cover, epi, *kernel_module(epi), pres.summands + (0,),
        pres.semisimple), n)
