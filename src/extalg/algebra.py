"""Finite-dimensional associative algebras over GF(p) and their modules.

An algebra is a structure-constant table c[i][j] = coordinates of b_i * b_j
plus a unit vector.  Modules carry one action matrix per algebra basis
element, acting on the left of coordinate column vectors; right modules use
the reversed composition law.  A right module over A is read as the left
module over A^op with the same matrices (`as_left`); the linear dual and
Hom(-, A) are the one place a module changes side (`other_side`).

Constructors validate their invariants by default, so data is checked where
it enters.  Objects derived from validated parts by a construction that
keeps the axioms skip the check: opposite and product algebras, the total
algebras of extensions, regular modules (their law is the associativity of
the algebra), modules relabelled over the opposite algebra, swapped
bimodules, duals, tensor products and Hom modules.  Submodules and
quotients are checked by invariance instead of by the law: an invariant
subspace of a module, and the quotient by one, satisfy the law because
the inclusion is injective and the projection surjective.  Coordinates in
an echelonized basis (hom spaces, submodules, images) all come from
`linalg.echelon_coords`.

The module law is checked one structure-table row at a time: for each i the
products action(b_i) @ action(b_j) for all j come from one stacked matmul
and are compared with the table row applied to the flattened action stack,
so a check costs dim(A) numpy calls and O(dim(A) * dim(M)^2) memory.  Hom
systems (`intertwiner_system`) and the relations of tensor products
involve only a generating set of the algebra (see `algebra_generators`).
Hom spaces keep their basis in RREF, so coordinates are read off at the
pivot columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .linalg import (FieldSpec, FpMatrix, LinalgError, QuotientMaps,
                     echelon_coords, hstack, in_row_span, kernel_basis, kron,
                     matmul_mod, quotient_maps, rank, row_basis, rref,
                     vstack)


class AlgebraError(ValueError):
    pass


class Algebra:
    """Associative unital algebra via structure constants.

    sc has shape (n, n, n): sc[i, j] = coordinate vector of b_i * b_j.
    """

    def __init__(self, field: FieldSpec, sc, unit, validate: bool = True):
        self.field = field
        self.sc = np.asarray(sc, dtype=np.int64) % field.p
        self.unit = np.asarray(unit, dtype=np.int64) % field.p
        n = self.sc.shape[0]
        if self.sc.shape != (n, n, n) or self.unit.shape != (n,):
            raise AlgebraError("structure constant table has wrong shape")
        if n < 1:
            raise AlgebraError("zero ring not allowed (dim >= 1 required)")
        self.dim = n
        # left/right multiplication matrices of the basis elements
        self.lmats = [FpMatrix(self.sc[i].T, field) for i in range(n)]
        self.rmats = [FpMatrix(self.sc[:, i, :].T, field) for i in range(n)]
        self._cache: dict = {}
        if validate:
            validate_algebra(self)

    def mult(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64) % self.field.p
        y = np.asarray(y, dtype=np.int64) % self.field.p
        return np.einsum("i,j,ijk->k", x, y, self.sc) % self.field.p

    def __repr__(self):
        return f"Algebra(p={self.field.p}, dim={self.dim})"


def validate_algebra(a: Algebra) -> dict:
    """Check associativity and the unit law; raises naming the first
    violated basis triple."""
    p, n = a.field.p, a.dim
    eye = np.eye(n, dtype=np.int64)
    # unit law: row j of these is unit * b_j, resp. b_j * unit
    left, right = ((np.tensordot(a.unit, a.sc, (0, ax)) % p != eye).any(1)
                   for ax in (0, 1))
    for j in range(n):
        if left[j]:
            raise AlgebraError(f"unit law violated: 1 * b_{j} != b_{j}")
        if right[j]:
            raise AlgebraError(f"unit law violated: b_{j} * 1 != b_{j}")
    # associativity via multiplication matrices, L(b_i b_j) = L(b_i) L(b_j),
    # for every j at once; column k of each side is (b_i b_j) b_k
    lm = _stack(a.lmats, n)
    for i in range(n):
        bad = ((np.tensordot(a.sc[i], lm, 1) - lm[i] @ lm) % p).any(axis=1)
        if bad.any():
            j, k = np.argwhere(bad)[0]
            raise AlgebraError(f"associativity violated at triple ({i},{j},{k})")
    return {"dim": n, "p": p, "associative": True, "unital": True}


def field_algebra(field: FieldSpec) -> Algebra:
    """GF(p) viewed as a 1-dimensional algebra over itself."""
    return Algebra(field, np.ones((1, 1, 1), dtype=np.int64), [1])


def opposite_algebra(a: Algebra) -> Algebra:
    key = "opposite"
    if key not in a._cache:
        op = Algebra(a.field, np.transpose(a.sc, (1, 0, 2)), a.unit,
                     validate=False)
        op._cache["opposite"] = a
        a._cache[key] = op
    return a._cache[key]


def algebra_generators(a: Algebra) -> List[int]:
    """Basis indices generating `a` as a unital algebra, picked greedily in
    basis order: b_i joins when it is not in the subalgebra generated by 1
    and the earlier picks.  A linear map between modules intertwines every
    element of `a` iff it intertwines these."""
    if "generators" not in a._cache:
        eye = np.eye(a.dim, dtype=np.int64)
        span = row_basis(FpMatrix(a.unit.reshape(1, -1), a.field))
        gens: List[int] = []
        for i in range(a.dim):
            if span.rows == a.dim:
                break
            if in_row_span(span, eye[i]):
                continue
            gens.append(i)
            grown = vstack([span, FpMatrix(eye[i:i + 1], a.field)])
            while grown.rows > span.rows:
                # close under right multiplication by every generator
                span = grown
                grown = row_basis(vstack([span] + [
                    FpMatrix(span.arr @ a.sc[:, g, :], a.field)
                    for g in gens]))
        a._cache["generators"] = gens
    return a._cache["generators"]


def product_algebra(a: Algebra, b: Algebra) -> Tuple[Algebra, np.ndarray, np.ndarray]:
    """Componentwise product; also returns the two central orthogonal
    idempotents (1,0) and (0,1) as coordinate vectors."""
    if a.field != b.field:
        raise AlgebraError("field mismatch")
    n, m = a.dim, b.dim
    sc = np.zeros((n + m, n + m, n + m), dtype=np.int64)
    sc[:n, :n, :n] = a.sc
    sc[n:, n:, n:] = b.sc
    unit = np.concatenate([a.unit, b.unit])
    e1 = np.concatenate([a.unit, np.zeros(m, dtype=np.int64)])
    e2 = np.concatenate([np.zeros(n, dtype=np.int64), b.unit])
    return Algebra(a.field, sc, unit, validate=False), e1, e2


# ---------------------------------------------------------------------------
# modules


class LeftModule:
    """Left module: action[i] is the matrix of b_i acting on coordinates."""

    side = "left"
    # axes of the structure table giving the law's right-hand side:
    # action(b_i) @ action(b_j) = sum_k table[i][j][k] action(b_k)
    _law_axes = (0, 1, 2)

    def __init__(self, over: Algebra, action: Sequence[FpMatrix],
                 validate: bool = True):
        self.over = over
        self.action = list(action)
        self._cache: dict = {}
        if len(self.action) != over.dim:
            raise AlgebraError("need one action matrix per basis element")
        self.dim = self.action[0].rows if self.action else 0
        for m in self.action:
            if m.rows != self.dim or m.cols != self.dim:
                raise AlgebraError("action matrices must be square of equal size")
        if validate:
            self.validate()

    def validate(self):
        unit_act = self.act_matrix(self.over.unit)
        if not (unit_act.arr == np.eye(self.dim, dtype=np.int64)).all():
            raise AlgebraError("unit does not act as identity")
        p, n, d = self.over.field.p, self.over.dim, self.dim
        table = np.transpose(self.over.sc, self._law_axes)
        acts = _stack(self.action, d)
        flat = acts.reshape(n, d * d)
        for i in range(n):
            # row i of the law: action(b_i) @ action(b_j) for every j at once
            lhs = ((acts[i] @ acts) % p).reshape(n, d * d)
            bad = (lhs != (table[i] @ flat) % p).any(axis=1)
            if bad.any():
                raise AlgebraError(f"{self.side} module law violated at "
                                   f"({i},{int(np.argmax(bad))})")

    def act_matrix(self, elem) -> FpMatrix:
        elem = np.asarray(elem, dtype=np.int64)
        acc = np.zeros((self.dim, self.dim), dtype=np.int64)
        for i in range(self.over.dim):
            if elem[i] % self.over.field.p:
                acc += int(elem[i]) * self.action[i].arr
        return FpMatrix(acc, self.over.field)

    @classmethod
    def regular(cls, a: Algebra) -> "LeftModule":
        return cls(a, a.lmats, validate=False)

    @classmethod
    def zero(cls, a: Algebra) -> "LeftModule":
        z = FpMatrix.zeros(0, 0, a.field)
        return cls(a, [z] * a.dim)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, over={self.over!r})"


class RightModule(LeftModule):
    """Right module; action matrices compose contravariantly:
    action(b_i) @ action(b_j) = sum_k c[j][i][k] action(b_k)."""

    side = "right"
    _law_axes = (1, 0, 2)

    def as_left_over_opposite(self) -> LeftModule:
        return LeftModule(opposite_algebra(self.over), self.action,
                          validate=False)

    @classmethod
    def from_left_over_opposite(cls, m: LeftModule) -> "RightModule":
        return cls(opposite_algebra(m.over), m.action, validate=False)

    @classmethod
    def regular(cls, a: Algebra) -> "RightModule":
        return cls(a, a.rmats, validate=False)


def _stack(action: Sequence[FpMatrix], d: int) -> np.ndarray:
    """Action matrices as one (len(action), d, d) array."""
    return np.array([m.arr for m in action]).reshape(len(action), d, d)


def as_left(m) -> LeftModule:
    """m itself for a left module; for a right module over A, the left
    module over A^op with the same action matrices."""
    return m.as_left_over_opposite() if isinstance(m, RightModule) else m


def other_side(m, action: Sequence[FpMatrix]):
    """The module over m's algebra, on the side opposite to m's, on which
    the basis elements act by `action`: the linear dual and Hom(-, A) turn
    left modules into right ones and back."""
    return (LeftModule if isinstance(m, RightModule) else RightModule)(
        m.over, action, validate=False)


def field_space(field: FieldSpec, d: int) -> LeftModule:
    """GF(p)^d as a module over the 1-dimensional algebra GF(p)."""
    return LeftModule(field_algebra(field), [FpMatrix.identity(d, field)],
                      validate=False)


class Bimodule:
    """Space with commuting left A-action and right B-action."""

    def __init__(self, left_over: Algebra, right_over: Algebra,
                 left_action: Sequence[FpMatrix],
                 right_action: Sequence[FpMatrix], validate: bool = True):
        self.left_over = left_over
        self.right_over = right_over
        self.left_action = list(left_action)
        self.right_action = list(right_action)
        self.dim = self.left_action[0].rows if self.left_action else 0
        self._cache: dict = {}
        if validate:
            self.validate()

    def validate(self):
        self.left_module().validate()
        self.right_module().validate()
        p = self.left_over.field.p
        for l in self.left_action:
            for r in self.right_action:
                if not ((l.arr @ r.arr) % p == (r.arr @ l.arr) % p).all():
                    raise AlgebraError("left and right actions do not commute")

    def left_module(self) -> LeftModule:
        return LeftModule(self.left_over, self.left_action, validate=False)

    def right_module(self) -> RightModule:
        return RightModule(self.right_over, self.right_action, validate=False)

    def swap(self) -> "Bimodule":
        """Same space as a bimodule over the opposite algebras, with the two
        actions exchanged."""
        return Bimodule(opposite_algebra(self.right_over),
                        opposite_algebra(self.left_over),
                        self.right_action, self.left_action, validate=False)

    @classmethod
    def regular(cls, a: Algebra) -> "Bimodule":
        return cls(a, a, a.lmats, a.rmats)

    @classmethod
    def zero(cls, a: Algebra, b: Optional[Algebra] = None) -> "Bimodule":
        b = b or a
        z = FpMatrix.zeros(0, 0, a.field)
        return cls(a, b, [z] * a.dim, [z] * b.dim)

    def __repr__(self):
        return (f"Bimodule(dim={self.dim}, left={self.left_over!r}, "
                f"right={self.right_over!r})")


class ModuleHom:
    """A homomorphism of (one-sided) modules; matrix is target.dim x
    source.dim and intertwines all action matrices."""

    def __init__(self, source, target, matrix: FpMatrix, validate: bool = True):
        self.source = source
        self.target = target
        self.matrix = matrix
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise AlgebraError(
                f"hom matrix shape {matrix.rows}x{matrix.cols} does not match "
                f"{target.dim}x{source.dim}")
        if validate:
            self.validate()

    def validate(self):
        if self.source.over is not self.target.over and \
                self.source.over.sc.shape != self.target.over.sc.shape:
            raise AlgebraError("source and target over different algebras")
        for i in range(self.source.over.dim):
            lhs = self.matrix @ self.source.action[i]
            rhs = self.target.action[i] @ self.matrix
            if lhs != rhs:
                raise AlgebraError(f"hom does not intertwine basis element {i}")

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self after other."""
        return ModuleHom(other.source, self.target,
                         self.matrix @ other.matrix, validate=False)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def is_iso(self) -> bool:
        from .linalg import is_invertible
        return is_invertible(self.matrix)

    @classmethod
    def identity(cls, m) -> "ModuleHom":
        return cls(m, m, FpMatrix.identity(m.dim, m.over.field), validate=False)

    @classmethod
    def zero(cls, source, target) -> "ModuleHom":
        return cls(source, target,
                   FpMatrix.zeros(target.dim, source.dim, source.over.field),
                   validate=False)

    def __repr__(self):
        return f"ModuleHom({self.source.dim}->{self.target.dim})"


# ---------------------------------------------------------------------------
# hom spaces


class HomSpace:
    """Echelonized basis of Hom(source, target) for one-sided modules.

    Vectorization is row-major: vec(T)[a * source.dim + b] = T[a, b].
    """

    def __init__(self, source, target):
        if source.over is not target.over:
            # allow equal algebras built twice, but insist on same tables
            if not _same_algebra(source.over, target.over):
                raise AlgebraError("hom space requires a common algebra")
        self.source = source
        self.target = target
        self.field = source.over.field
        self.mat = kernel_basis(intertwiner_system(source, target))

    @property
    def dim(self) -> int:
        return self.mat.rows

    def basis_hom(self, k: int) -> ModuleHom:
        m = FpMatrix(self.mat.arr[k].reshape(self.target.dim, self.source.dim),
                     self.field)
        return ModuleHom(self.source, self.target, m, validate=False)

    def basis(self) -> List[ModuleHom]:
        return [self.basis_hom(k) for k in range(self.dim)]

    def basis_array(self) -> np.ndarray:
        """The basis homs as one (dim, target.dim, source.dim) array."""
        return self.mat.arr.reshape(self.dim, self.target.dim, self.source.dim)

    def coords(self, matrix: FpMatrix) -> np.ndarray:
        """Coordinates of a hom matrix in this basis; raises if not in span."""
        return self.coords_many([matrix.arr]).arr[:, 0]

    def coords_many(self, mats) -> FpMatrix:
        """Coordinates of a stack of target.dim x source.dim integer arrays,
        one column per array; raises if any is not in the span."""
        v = np.asarray(mats, dtype=np.int64)
        x = echelon_coords(self.mat, v.reshape(len(v), self.mat.cols))
        if x is None:
            raise AlgebraError("matrix is not in the hom space")
        return FpMatrix(x.T, self.field)

    def element(self, coords) -> ModuleHom:
        coords = np.asarray(coords, dtype=np.int64)
        acc = (coords @ self.mat.arr) % self.field.p
        m = FpMatrix(acc.reshape(self.target.dim, self.source.dim), self.field)
        return ModuleHom(self.source, self.target, m, validate=False)


def intertwiner_system(source, target) -> FpMatrix:
    """The linear system on row-major vec(T) whose solutions are the module
    maps T: source -> target: T @ S_g - N_g @ T = 0 for the algebra
    generators g, i.e. (I ox S_g^T - N_g ox I) vec(T) = 0."""
    field = source.over.field
    idt = FpMatrix.identity(target.dim, field)
    ids = FpMatrix.identity(source.dim, field)
    # the empty block gives the width when there are no generators
    return vstack([FpMatrix.zeros(0, target.dim * source.dim, field)] + [
        kron(idt, source.action[g].transpose()) - kron(target.action[g], ids)
        for g in algebra_generators(source.over)])


def _same_algebra(a: Algebra, b: Algebra) -> bool:
    return (a is b) or (a.field == b.field and a.dim == b.dim
                        and (a.sc == b.sc).all() and (a.unit == b.unit).all())


def hom_space(m, n) -> HomSpace:
    return HomSpace(m, n)


# ---------------------------------------------------------------------------
# kernels, cokernels, images, subquotients


def invariant_action(action: Sequence[FpMatrix],
                     basis: FpMatrix) -> Optional[List[FpMatrix]]:
    """The matrices by which `action` acts on the row span of `basis` (in
    RREF), in that basis; None when the span is not invariant."""
    acts = _stack(action, basis.cols)
    # moved[i, j] is action[i] applied to basis row j
    moved = matmul_mod(basis.arr, acts.transpose(0, 2, 1), basis.field.p)
    coords = echelon_coords(basis, moved)
    if coords is None:
        return None
    return [FpMatrix(c.T, basis.field) for c in coords]


def submodule(x, basis_rows: FpMatrix):
    """Submodule spanned by the given rows; returns (module, inclusion).
    Raises unless their span is invariant.  The rows are echelonized here,
    at the public boundary only; inside the library, rows already in RREF
    (kernel and image bases, spans, radical layers) skip this step."""
    return _echelon_submodule(x, row_basis(basis_rows))


def _echelon_submodule(x, basis: FpMatrix):
    """`submodule` for a basis in RREF without zero rows."""
    action = invariant_action(x.action, basis)
    if action is None:
        raise AlgebraError("rows do not span a submodule")
    mod = type(x)(x.over, action, validate=False)
    return mod, ModuleHom(mod, x, basis.transpose(), validate=False)


def quotient_module(x, relation_cols: FpMatrix):
    """Quotient of x by the span of the columns of relation_cols; returns
    (module, projection, section).  Raises unless the span is invariant."""
    field = x.over.field
    qm = quotient_maps(relation_cols)
    moved = (qm.project.arr @ _stack(x.action, x.dim)) % field.p
    if ((moved @ relation_cols.arr) % field.p).any():
        raise AlgebraError("relations do not span a submodule")
    mod = type(x)(x.over, [FpMatrix(m @ qm.include.arr, field)
                           for m in moved], validate=False)
    return mod, ModuleHom(x, mod, qm.project, validate=False), qm.include


def kernel_module(f: ModuleHom):
    """(kernel, inclusion)."""
    return _echelon_submodule(f.source, kernel_basis(f.matrix))


def image_module(f: ModuleHom):
    """(image, inclusion into target, epi from source onto image)."""
    cols = row_space_of_columns(f.matrix)
    img, incl = _echelon_submodule(f.target, cols)
    epi = echelon_coords(cols, f.matrix.arr.T)
    return img, incl, ModuleHom(f.source, img, FpMatrix(epi.T, cols.field),
                                validate=False)


def row_space_of_columns(m: FpMatrix) -> FpMatrix:
    """Echelonized basis (as rows) of the column space of m."""
    rr = rref(m.transpose())
    return FpMatrix(rr.reduced.arr[: rr.rank], m.field)


def cokernel_module(f: ModuleHom):
    """(cokernel, projection)."""
    mod, proj, _ = quotient_module(f.target, f.matrix)
    return mod, proj


def is_exact_at(f: ModuleHom, g: ModuleHom) -> bool:
    """Exactness at B of source(f) -> B -> target(g): im(f) = ker(g)."""
    return _exact_rank(f, g) is not None


def is_kernel_inclusion(f: ModuleHom, g: ModuleHom) -> bool:
    """Is f an injection onto ker(g)?"""
    return _exact_rank(f, g) == f.source.dim


def _exact_rank(f: ModuleHom, g: ModuleHom) -> Optional[int]:
    """rank f when source(f) -> B -> target(g) is exact at B, else None."""
    if f.target.dim != g.source.dim:
        raise AlgebraError("f and g are not composable")
    if not (g.matrix @ f.matrix).is_zero():
        return None
    rank_f = rank(f.matrix)
    return rank_f if rank_f == g.source.dim - rank(g.matrix) else None


# ---------------------------------------------------------------------------
# direct sums


def direct_sum_modules(mods: Sequence):
    """Direct sum of one-sided modules over a common algebra; returns
    (module, inclusions, projections)."""
    over = mods[0].over
    field = over.field
    dims = [m.dim for m in mods]
    total = sum(dims)
    action = []
    for i in range(over.dim):
        acc = np.zeros((total, total), dtype=np.int64)
        off = 0
        for m in mods:
            acc[off:off + m.dim, off:off + m.dim] = m.action[i].arr
            off += m.dim
        action.append(FpMatrix(acc, field))
    mod = type(mods[0])(over, action, validate=False)
    incls, projs = [], []
    off = 0
    for m in mods:
        inc = np.zeros((total, m.dim), dtype=np.int64)
        inc[off:off + m.dim] = np.eye(m.dim, dtype=np.int64)
        incls.append(ModuleHom(m, mod, FpMatrix(inc, field), validate=False))
        projs.append(ModuleHom(mod, m, FpMatrix(inc.T, field), validate=False))
        off += m.dim
    return mod, incls, projs


# ---------------------------------------------------------------------------
# tensor products over an algebra


@dataclass
class TensorSpace:
    """M ox_R X presented as a quotient of the plain tensor space.

    Plain index (a, b) -> a * dim(second) + b.  project/include are the
    canonical quotient maps; space carries whatever module structure
    descends from the uncontracted side.
    """
    space: object            # LeftModule / RightModule (possibly over GF(p))
    project: FpMatrix
    include: FpMatrix
    first_dim: int
    second_dim: int


def _balanced_quotient(rho: Sequence[FpMatrix], lam: Sequence[FpMatrix],
                       over: Algebra) -> QuotientMaps:
    """Quotient maps of M ox X by the relations m.r ox x - m ox r.x, where r
    runs over the generators of `over` acting by rho on M and lam on X."""
    field = over.field
    d1, d2 = rho[0].rows, lam[0].rows
    i1 = FpMatrix.identity(d1, field)
    i2 = FpMatrix.identity(d2, field)
    # the empty block gives the height when there are no generators
    return quotient_maps(hstack([FpMatrix.zeros(d1 * d2, 0, field)] + [
        kron(rho[g], i2) - kron(i1, lam[g])
        for g in algebra_generators(over)]))


def tensor_bimodule_left(m: Bimodule, x: LeftModule) -> TensorSpace:
    """M ox_R X for an A-R-bimodule M and left R-module X; a left A-module."""
    if not _same_algebra(m.right_over, x.over):
        raise AlgebraError("contracted algebras do not match")
    field = x.over.field
    qm = _balanced_quotient(m.right_action, x.action, x.over)
    ix = FpMatrix.identity(x.dim, field)
    action = [qm.project @ kron(la, ix) @ qm.include for la in m.left_action]
    space = LeftModule(m.left_over, action, validate=False)
    return TensorSpace(space, qm.project, qm.include, m.dim, x.dim)


def tensor_right_left(w: RightModule, x: LeftModule) -> TensorSpace:
    """W ox_R X as a plain GF(p) space, with W read as a GF(p)-R-bimodule."""
    k = field_space(w.over.field, w.dim)
    return tensor_bimodule_left(Bimodule(k.over, w.over, k.action, w.action,
                                         validate=False), x)


def tensor_map_second(ts_from: TensorSpace, ts_to: TensorSpace,
                      f: ModuleHom) -> ModuleHom:
    """Induced map M ox f : M ox X -> M ox Y for f: X -> Y (second slot)."""
    field = f.matrix.field
    im = FpMatrix.identity(ts_from.first_dim, field)
    mat = ts_to.project @ kron(im, f.matrix) @ ts_from.include
    return ModuleHom(ts_from.space, ts_to.space, mat, validate=False)


@dataclass
class SwappedTensor:
    """X ox_R M for a right R-module X and an R-B-bimodule M, carried by
    the left tensor N ox X over R^op with N = M^swap.

    This is the one place a right tensor appears.  `to_left` and
    `to_right` are the mutually inverse changes between the quotient
    coordinates of X ox M (plain index (x, m) -> x * dim(M) + m) and those
    of N ox X (plain index (m, x)); `space` is X ox M as a right B-module
    in its own coordinates.
    """
    space: RightModule
    to_left: FpMatrix
    to_right: FpMatrix


def swapped_tensor(n: Bimodule, x: LeftModule) -> SwappedTensor:
    """X ox M from N = M^swap and X read as a left module over R^op."""
    field = x.over.field
    left = tensor_bimodule_left(n, x)
    right = _balanced_quotient(x.action, n.right_action, x.over)
    # entry k = m * dim(X) + x of this array is the plain index x * dim(M) + m
    mx = np.arange(x.dim * n.dim).reshape(x.dim, n.dim).T.reshape(-1)
    to_left = FpMatrix(right.project.arr[:, mx], field) @ left.include
    to_right = FpMatrix(left.project.arr[:, np.argsort(mx)],
                        field) @ right.include
    space = RightModule(opposite_algebra(n.left_over),
                        [to_right @ a @ to_left for a in left.space.action],
                        validate=False)
    return SwappedTensor(space, to_left, to_right)


# ---------------------------------------------------------------------------
# Hom from a bimodule


class HomModule:
    """Hom_A(M, Y) for an A-B-bimodule M and left A-module Y, as a left
    B-module via (b . f)(m) = f(m . b)."""

    def __init__(self, m: Bimodule, y: LeftModule):
        if not _same_algebra(m.left_over, y.over):
            raise AlgebraError("legs do not match")
        self.bimodule = m
        self.y = y
        self.homs = HomSpace(m.left_module(), y)
        stack = self.homs.basis_array()
        self.space = LeftModule(m.right_over, [self.homs.coords_many(
            stack @ ra.arr) for ra in m.right_action], validate=False)

    def evaluation_matrix(self, j: int) -> FpMatrix:
        """Matrix of 'evaluate at the j-th basis vector of M': space -> Y."""
        return FpMatrix(self.homs.basis_array()[:, :, j].T, self.y.over.field)

    def postcompose(self, other: "HomModule", u: ModuleHom) -> ModuleHom:
        """Induced map Hom(M, Y) -> Hom(M, Y') for u: Y -> Y'
        (other must be Hom(M, Y'))."""
        mat = other.homs.coords_many(u.matrix.arr @ self.homs.basis_array())
        return ModuleHom(self.space, other.space, mat, validate=False)


def hom_from_bimodule(m: Bimodule, y: LeftModule) -> HomModule:
    return HomModule(m, y)


# ---------------------------------------------------------------------------
# duality (field-linear dual, standing in for the character module)


def dual_module(x):
    """Field-linear dual; left modules become right modules and vice versa.

    For finite-dimensional modules over GF(p) this is isomorphic to the
    character module Hom_Z(X, Q/Z), which is how it is used throughout.
    """
    return other_side(x, [m.transpose() for m in x.action])


# ---------------------------------------------------------------------------
# monomial quiver algebras


def monomial_quiver_algebra(num_vertices: int,
                            arrows: Sequence[Tuple[int, int]],
                            zero_relations: Sequence[Sequence[int]],
                            field: FieldSpec,
                            max_dim: int = 200) -> Algebra:
    """Path algebra of a quiver modulo monomial (zero-path) relations.

    Arrows are (source, target) pairs of 0-based vertex indices; a relation
    is a list of arrow indices [a_0, a_1, ...] read as the path a_0 then a_1
    etc.  Basis = paths avoiding every relation as a contiguous subpath.
    """
    relations = [tuple(r) for r in zero_relations]
    for r in relations:
        for a, b in zip(r, r[1:]):
            if arrows[a][1] != arrows[b][0]:
                raise AlgebraError("relation is not a composable path")
    # paths as tuples of arrow indices; () paths are the vertex idempotents,
    # tracked as ("e", v).
    paths: List = [("e", v) for v in range(num_vertices)]
    frontier: List[Tuple[int, ...]] = [(i,) for i in range(len(arrows))
                                       if _path_ok((i,), relations)]
    while frontier:
        paths.extend(frontier)
        if len(paths) > max_dim:
            raise AlgebraError("quiver algebra exceeds the dimension bound; "
                               "relations are not admissible")
        nxt = []
        for path in frontier:
            last_target = arrows[path[-1]][1]
            for i, (s, t) in enumerate(arrows):
                if s == last_target and _path_ok(path + (i,), relations):
                    nxt.append(path + (i,))
        frontier = nxt
    index = {pth: k for k, pth in enumerate(paths)}
    n = len(paths)
    sc = np.zeros((n, n, n), dtype=np.int64)
    for i, pi in enumerate(paths):
        for j, pj in enumerate(paths):
            prod = _compose_paths(pi, pj, arrows, relations)
            if prod is not None:
                sc[i, j, index[prod]] = 1
    unit = np.zeros(n, dtype=np.int64)
    for v in range(num_vertices):
        unit[index[("e", v)]] = 1
    return Algebra(field, sc, unit)


def _path_source(p, arrows):
    return p[1] if p[0] == "e" else arrows[p[0]][0]


def _path_target(p, arrows):
    return p[1] if p[0] == "e" else arrows[p[-1]][1]


def _path_ok(p: Tuple[int, ...], relations) -> bool:
    for r in relations:
        k = len(r)
        if k and any(p[i:i + k] == r for i in range(len(p) - k + 1)):
            return False
    return True


def _compose_paths(pi, pj, arrows, relations):
    """Product pi * pj: traverse pj first, then pi (paths act on the left)."""
    ei = pi[0] == "e"
    ej = pj[0] == "e"
    if ei and ej:
        return pi if pi[1] == pj[1] else None
    if ei:
        return pj if _path_target(pj, arrows) == pi[1] else None
    if ej:
        return pi if _path_source(pi, arrows) == pj[1] else None
    if arrows[pj[-1]][1] != arrows[pi[0]][0]:
        return None
    prod = pj + pi
    return prod if _path_ok(prod, relations) else None
