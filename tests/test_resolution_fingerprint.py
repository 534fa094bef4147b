"""A pinned sha256 over minimal projective resolutions.

Every term, differential, summand list and syzygy action of the minimal
resolutions of the simples, the PIMs, A and D(A), over a ladder of quiver
algebras at four primes, goes into one digest.  The RREF, cover and kernel
code may get faster, but any change to a cover it picks, to the basis of a
syzygy or to the order of the summands moves the digest.
"""

import hashlib

import numpy as np

from extalg.algebra import (LeftModule, dual_module,
                            monomial_quiver_algebra, opposite_algebra)
from extalg.homology import minimal_projective_resolution
from extalg.linalg import FieldSpec
from extalg.structure import projective_indecomposables, simples

PRIMES = (2, 3, 101, 65521)
LENGTH = 5

# recorded before the GF(p) kernel skipped zero columns, unit pivots and
# shallow float64 products; every later kernel change must keep it
PINNED = "ba510ed9e86bb872be5fca5508fa0d159e46ca161cb5b9fe171c1062580ccafe"


def _quivers():
    out = [(f"A{n}", n, [(i, i + 1) for i in range(n - 1)], [])
           for n in range(2, 7)]
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 3)):
        out.append((f"N({n},{k})", n, [(i, (i + 1) % n) for i in range(n)],
                    [[(s + j) % n for j in range(k)] for s in range(n)]))
    out.append(("wild", 1, [(0, 0), (0, 0)],
                [[0, 0], [0, 1], [1, 0], [1, 1]]))
    return out


def _put(h, arr):
    a = np.ascontiguousarray(arr, dtype="<i8")
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())


def _put_module(h, m):
    _put(h, m.acts)


def _put_resolution(h, res):
    for term, summands in zip(res.terms, res.summands):
        _put_module(h, term)
        h.update(repr(tuple(summands)).encode())
    _put(h, res.epi.matrix.arr)
    for d in res.diffs:
        _put(h, d.matrix.arr)
    for syz in res.syzygies:
        _put_module(h, syz)
    for incl in res.syz_incl:
        _put(h, incl.matrix.arr)


def resolution_fingerprint() -> str:
    h = hashlib.sha256()
    for p in PRIMES:
        for name, n, arrows, relations in _quivers():
            a = monomial_quiver_algebra(n, arrows, relations, FieldSpec(p))
            mods = (simples(a) + [pim for pim, _ in
                                  projective_indecomposables(a)]
                    + [LeftModule.regular(a),
                       dual_module(LeftModule.regular(opposite_algebra(a)))])
            h.update(f"{name}@{p}:{len(mods)}".encode())
            for m in mods:
                _put_resolution(h, minimal_projective_resolution(m, LENGTH))
    return h.hexdigest()


def test_minimal_resolutions_match_the_pinned_fingerprint():
    assert resolution_fingerprint() == PINNED
