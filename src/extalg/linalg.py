"""Exact dense linear algebra over prime fields GF(p).

Everything higher up (algebras, modules, resolutions) reduces to ranks,
kernels and solves computed here.  Matrices are dense, row-major, with
entries stored as reduced residues in numpy int64 arrays; p <= 65521 keeps
a product with inner dimension k < 2 * 10^9 inside int64.  The public
`FpMatrix` constructor reduces its input; `FpMatrix.reduced` wraps arrays
reduced by construction (RREF results, bases, transposes), as a module's
action stack `algebra.LeftModule.acts` is.  numpy runs int64 products
without BLAS, so `matmul_mod` sends deep products (k >= 16) to float64
BLAS, exact while k * (p-1)^2 < 2^53, and keeps shallow ones in int64; it
serves `echelon_coords`, `validate_algebra` and the module actions of
submodules, covers, PIM homs and radicals.
Elimination visits only the columns that are nonzero in its input.

Zero-row and zero-column matrices are first-class citizens: zero modules
occur all over the place (M = 0, trivial cokernels) and must round-trip
through every operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MAX_PRIME = 65521


class LinalgError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p), 2 <= p <= 65521."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p <= MAX_PRIME):
            raise LinalgError(f"modulus {self.p} out of range [2, {MAX_PRIME}]")
        # trial division: MAX_PRIME < 256 ** 2, so at most 254 divisors
        if any(self.p % d == 0 for d in range(2, math.isqrt(self.p) + 1)):
            raise LinalgError(f"modulus {self.p} is not prime")


class FpMatrix:
    """Dense matrix over GF(p).  Immutable by convention."""

    __slots__ = ("field", "arr")

    def __init__(self, arr, field: FieldSpec):
        a = np.asarray(arr, dtype=np.int64)
        if a.ndim != 2:
            raise LinalgError(f"expected 2-d array, got shape {a.shape}")
        self.arr = a % field.p
        self.field = field

    # -- constructors ------------------------------------------------------

    @classmethod
    def reduced(cls, arr: np.ndarray, field: FieldSpec) -> "FpMatrix":
        """Wrap a 2-d int64 array whose entries are in [0, p) by
        construction (an RREF, a transpose, a block of reduced matrices),
        without the copy and the `% p` of the public constructor."""
        m = cls.__new__(cls)
        m.arr = arr
        m.field = field
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int, field: FieldSpec) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), field)

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> "FpMatrix":
        return cls(np.eye(n, dtype=np.int64), field)

    @classmethod
    def column(cls, vec, field: FieldSpec) -> "FpMatrix":
        v = np.asarray(vec, dtype=np.int64)
        return cls(v.reshape(-1, 1), field)

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.arr.shape[0]

    @property
    def cols(self) -> int:
        return self.arr.shape[1]

    def is_zero(self) -> bool:
        return not self.arr.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (self.field == other.field and self.arr.shape == other.arr.shape
                and bool((self.arr == other.arr).all()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.field.p}, {self.arr.tolist()})"

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "FpMatrix"):
        if self.field != other.field:
            raise LinalgError("field mismatch")

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise LinalgError(f"shape mismatch {self.arr.shape} @ {other.arr.shape}")
        return FpMatrix(self.arr @ other.arr, self.field)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        return FpMatrix(self.arr - other.arr, self.field)

    def transpose(self) -> "FpMatrix":
        return FpMatrix.reduced(self.arr.T, self.field)


@dataclass
class RrefResult:
    reduced: FpMatrix
    rank: int
    pivot_cols: list


def _rref_inplace(a: np.ndarray, p: int):
    """Row-reduce the reduced int64 array a in place; its pivot columns.

    Only the columns that are nonzero in the input are visited: row
    operations keep a zero column zero.  Rows r and after are zero left of
    column c, so the swap and the updates touch columns c and after only; a
    pivot that is already 1 is not scaled, and a pivot column with no other
    nonzero entry updates no row.  The update is one broadcast product,
    so a pivot costs a handful of numpy calls."""
    rows = a.shape[0]
    pivots = []
    r = 0
    for c in a.any(axis=0).nonzero()[0].tolist():
        if r >= rows:
            break
        if not a[r, c]:
            below = a[r + 1:, c].nonzero()[0]
            if not below.size:
                continue
            piv = r + 1 + below[0]
            a[[r, piv], c:] = a[[piv, r], c:]
        if a[r, c] != 1:
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        nz = a[:, c].nonzero()[0]
        if nz.size > 1:
            nz = nz[nz != r]
            a[nz, c:] = (a[nz, c:] - a[nz, c, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return pivots


def rref(m: FpMatrix) -> RrefResult:
    """Unique reduced row-echelon form, rank and pivot columns."""
    a = m.arr.copy()
    pivots = _rref_inplace(a, m.field.p)
    return RrefResult(FpMatrix.reduced(a, m.field), len(pivots), pivots)


def rank(m: FpMatrix) -> int:
    return rref(m).rank


def row_basis(m: FpMatrix) -> FpMatrix:
    """Canonical (echelonized) basis of the row space, zero rows dropped."""
    r = rref(m)
    return FpMatrix.reduced(r.reduced.arr[: r.rank], m.field)


def _null_rows(r: RrefResult, p: int):
    """(free columns, one null-space vector per free column f: 1 at f, 0 at
    the other free columns) for the matrix whose RREF is r."""
    cols = r.reduced.cols
    mask = np.ones(cols, dtype=bool)
    mask[r.pivot_cols] = False
    free = mask.nonzero()[0]
    rows = np.zeros((len(free), cols), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, r.pivot_cols] = (-r.reduced.arr[: r.rank, free]).T % p
    return free, rows


def kernel_basis(m: FpMatrix) -> FpMatrix:
    """Canonical basis of the right null space, one vector per row.

    Row count is cols - rank; the rows are echelonized so equal subspaces
    have literally equal bases.  The null-space rows are already in RREF
    when each one's first nonzero entry is the 1 at its free column.
    """
    free, rows = _null_rows(rref(m), m.field.p)
    if len(free) and (np.argmax(rows != 0, axis=1) != free).any():
        rows = rref(FpMatrix.reduced(rows, m.field)).reduced.arr
    return FpMatrix.reduced(rows, m.field)


def solve(a: FpMatrix, b: FpMatrix) -> Optional[FpMatrix]:
    """Solve a @ x = b; free variables are set to 0.  None if inconsistent."""
    if a.field != b.field:
        raise LinalgError("field mismatch")
    if a.rows != b.rows:
        raise LinalgError("dimension mismatch in solve")
    p = a.field.p
    aug = np.hstack([a.arr, b.arr])
    pivots = _rref_inplace(aug, p)
    if any(c >= a.cols for c in pivots):
        return None
    x = np.zeros((a.cols, b.cols), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = aug[i, a.cols:]
    return FpMatrix.reduced(x, a.field)


def inverse(m: FpMatrix) -> Optional[FpMatrix]:
    if m.rows != m.cols:
        return None
    # m x = I is consistent only for invertible m
    return solve(m, FpMatrix.identity(m.rows, m.field))


def is_invertible(m: FpMatrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def kron(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Kronecker product; (a kron b)(e_i ox e_j) = a e_i ox b e_j with
    row-major tensor index (i, j) -> i * b.rows + j."""
    if a.field != b.field:
        raise LinalgError("field mismatch")
    # the broadcast product is np.kron without its per-call reshaping
    out = a.arr[:, None, :, None] * b.arr[None, :, None, :]
    return FpMatrix(out.reshape(a.rows * b.rows, a.cols * b.cols), a.field)


def hstack(mats: Sequence[FpMatrix]) -> FpMatrix:
    field = mats[0].field
    return FpMatrix(np.hstack([m.arr for m in mats]), field)


def vstack(mats: Sequence[FpMatrix]) -> FpMatrix:
    field = mats[0].field
    return FpMatrix(np.vstack([m.arr for m in mats]), field)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for reduced int64 operands, broadcast as np.matmul.  It
    runs in float64 BLAS when the inner dimension k is at least 16, the
    product has 2^14 or more multiply-adds and k * (p-1)^2 < 2^53 keeps it
    exact; the exact float product is cast back before the `% p`, which
    costs a few times more on floats.  Otherwise it runs in int64: a
    shallow product (say 4608 x 3 by 3 x 3) gains less from BLAS than the
    conversions cost, whatever its size."""
    k = a.shape[-1]
    if k >= 16 and a.size * b.shape[-1] >= 2**14 and k * (p - 1)**2 < 2**53:
        return (a.astype(float) @ b.astype(float)).astype(np.int64) % p
    return a @ b % p


def echelon_coords(basis: FpMatrix, vecs) -> Optional[np.ndarray]:
    """Coordinates of the vectors along the last axis of `vecs` (any
    leading axes are kept) in the row space of `basis`, which is in RREF;
    None when one is not in it.  They are the entries at the pivot
    columns, where the basis is the identity, so one batched product
    checks membership on the other columns only."""
    p = basis.field.p
    v = np.asarray(vecs, dtype=np.int64) % p
    pivots = (np.argmax(basis.arr != 0, axis=1) if basis.cols
              else np.zeros(0, dtype=np.int64))
    free = np.ones(basis.cols, dtype=bool)
    free[pivots] = False
    x = v[..., pivots]
    if (matmul_mod(x, basis.arr[:, free], p) != v[..., free]).any():
        return None
    return x


@dataclass
class QuotientMaps:
    project: FpMatrix   # D -> q
    include: FpMatrix   # q -> D, section with project @ include = I


def quotient_maps(relations: FpMatrix) -> QuotientMaps:
    """Canonical projection/section for F^D modulo the column span of
    `relations`.

    The quotient coordinates are the non-pivot (free) coordinates of the
    echelonized relation space, so two equal subspaces give literally equal
    quotients.
    """
    return echelon_quotient_maps(row_basis(relations.transpose()))


def echelon_quotient_maps(basis: FpMatrix) -> QuotientMaps:
    """`quotient_maps` modulo the row span of `basis`, which is in RREF
    without zero rows: its pivots are read off, not eliminated again."""
    field = basis.field
    pivots = (basis.arr != 0).argmax(axis=1).tolist() if basis.rows else []
    # the rows of proj span the annihilator of the relations
    free, proj = _null_rows(RrefResult(basis, basis.rows, pivots), field.p)
    incl = np.zeros((basis.cols, len(free)), dtype=np.int64)
    incl[free, np.arange(len(free))] = 1
    return QuotientMaps(FpMatrix.reduced(proj, field),
                        FpMatrix.reduced(incl, field))
