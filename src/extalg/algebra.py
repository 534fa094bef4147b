"""Finite-dimensional associative algebras over GF(p) and their modules.

An algebra is a structure-constant table c[i][j] = coordinates of b_i * b_j
plus a unit vector.  A module carries its action as one reduced int64
stack `acts` of shape (dim A, d, d): acts[i] is the matrix of b_i, acting
on the left of coordinate column vectors.  There is one
module class: a right module over A is the `LeftModule` over A^op
(`opposite_algebra`) with the same matrices, so the linear dual, Hom(-, A)
and the right leg of a bimodule are left modules over the opposite algebra.

Constructors validate their invariants by default, so data is checked where
it enters.  Objects that are right by construction skip the check: quiver
algebras (a path algebra modulo monomial relations is associative and
unital; `monomial_quiver_algebra` checks its indices and relations), and
objects derived from validated parts by a construction that keeps the
axioms: opposite and product algebras, the total algebras of extensions,
regular modules (their law is the associativity of the algebra), bimodule
legs, swapped bimodules, duals, tensor products, Hom modules and
zero modules.  Such algebras take their tables as built, without a `% p`.
Submodules and quotients are checked by invariance instead of by the law:
an invariant subspace of a module, and the quotient by one, satisfy the
law because the inclusion is injective and the projection surjective.
Coordinates in an echelonized basis (hom spaces, submodules, images) all
come from `linalg.echelon_coords`.

The module law is checked one structure-table row at a time: for each i the
products action(b_i) @ action(b_j) for all j come from one stacked matmul
and are compared with the table row applied to the flattened action stack,
so a check costs dim(A) numpy calls and O(dim(A) * dim(M)^2) memory.  The
intertwining equations of a `HomSpace` and the relations of tensor products
involve only a generating set of the algebra (see `algebra_generators`).
Hom spaces keep their basis in RREF, so coordinates are read off at the
pivot columns.  M ox X and Hom(M, Y) are shared by content (`shared`).
"""

from __future__ import annotations

import contextlib
import functools
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .linalg import (FieldSpec, FpMatrix, QuotientMaps, echelon_coords,
                     echelon_quotient_maps, is_invertible, kernel_basis,
                     matmul_mod, quotient_maps, rank, row_basis, vstack)


class AlgebraError(ValueError):
    at: Optional[Tuple[int, int]] = None    # where a module law fails


class Algebra:
    """Associative unital algebra via structure constants.

    sc has shape (n, n, n): sc[i, j] = coordinate vector of b_i * b_j.
    A checked algebra reduces sc and unit mod p; with validate=False they
    are built reduced, C-contiguous and int64, and are taken as they are.
    """

    def __init__(self, field: FieldSpec, sc, unit, validate: bool = True):
        self.field = field
        if validate:
            sc = np.asarray(sc, dtype=np.int64) % field.p
            unit = np.asarray(unit, dtype=np.int64) % field.p
        self.sc, self.unit = sc, unit
        n = self.sc.shape[0]
        if self.sc.shape != (n, n, n):
            raise AlgebraError("structure constant table has wrong shape")
        if self.unit.shape != (n,):
            raise AlgebraError(f"unit has length {self.unit.size} but the "
                               f"structure constant table has dimension {n}")
        if n < 1:
            raise AlgebraError("zero ring not allowed (dim >= 1 required)")
        self.dim = n
        self._cache: dict = {}
        if validate:
            validate_algebra(self)

    def __repr__(self):
        return f"Algebra(p={self.field.p}, dim={self.dim})"


def _mul(sc: np.ndarray, x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Products x*y of reduced coordinate vectors, broadcast over leading
    axes; each contraction is reduced before the next, so no sum overflows."""
    n = sc.shape[0]
    # row j of left is x*b_j
    left = ((x @ sc.reshape(n, n * n)) % p).reshape(*np.shape(x)[:-1], n, n)
    return (y[..., None, :] @ left)[..., 0, :] % p


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
    lm = a.sc.transpose(0, 2, 1)
    by_row = lm.transpose(1, 0, 2).reshape(n, n * n)
    for i in range(n):
        lhs = matmul_mod(a.sc[i], lm.reshape(n, n * n), p).reshape(n, n, n)
        rhs = matmul_mod(lm[i], by_row, p).reshape(n, n, n)
        bad = (lhs != rhs.transpose(1, 0, 2)).any(axis=1)
        if bad.any():
            j, k = np.argwhere(bad)[0]
            raise AlgebraError(f"associativity violated at triple ({i},{j},{k})")
    return {"dim": n, "p": p, "associative": True, "unital": True}


@functools.lru_cache(maxsize=None)
def field_algebra(field: FieldSpec) -> Algebra:
    """GF(p) viewed as a 1-dimensional algebra over itself; one algebra per
    field, so the spaces built over it (`field_space`) share their tensors
    and Hom modules by content."""
    return Algebra(field, np.ones((1, 1, 1), dtype=np.int64),
                   np.ones(1, dtype=np.int64), validate=False)


def kept(obj, key, build):
    """obj._cache[key], built by build() on first use: a cache lives on the
    object it describes."""
    if key not in obj._cache:
        obj._cache[key] = build()
    return obj._cache[key]


def _content(obj) -> tuple:
    """dim and action bytes of a module, kept on it (it is immutable), or
    those of the two legs of a bimodule."""
    if isinstance(obj, Bimodule):
        return _content(obj.left) + _content(obj.right)
    return kept(obj, "content", lambda: (obj.dim, obj.acts.tobytes()))


def shared(obj, name: str, key, build):
    """obj._cache[(name, key)], shared by content: obj.over._cache[name]
    maps (key, content of obj) weakly to the first module given it, whose
    value a content-equal module reads.  The value holds no link to its
    holder, so an entry goes with the last reference to its holder."""
    if (name, key) not in obj._cache:
        index = kept(obj.over, name, weakref.WeakValueDictionary)
        holder = index.get((key, _content(obj)))
        obj._cache[name, key] = build() if holder is None \
            else holder._cache[name, key]
        index.setdefault((key, _content(obj)), obj)
    return obj._cache[name, key]


def opposite_algebra(a: Algebra) -> Algebra:
    """A^op, kept on A and A on it; A itself when A is commutative."""
    def build():
        sc = np.ascontiguousarray(np.transpose(a.sc, (1, 0, 2)))
        op = a if (sc == a.sc).all() else Algebra(a.field, sc, a.unit,
                                                  validate=False)
        kept(op, "opposite", lambda: a)
        return op
    return kept(a, "opposite", build)


def algebra_generators(a: Algebra) -> List[int]:
    """Basis indices generating `a` as a unital algebra, picked greedily in
    basis order: b_i joins when it is not in the subalgebra generated by 1
    and the earlier picks.  A linear map between modules intertwines every
    element of `a` iff it intertwines these."""
    def build():
        eye = np.eye(a.dim, dtype=np.int64)
        span = row_basis(FpMatrix(a.unit.reshape(1, -1), a.field))
        gens: List[int] = []
        for i in range(a.dim):
            if span.rows == a.dim:
                break
            if echelon_coords(span, eye[i]) is not None:
                continue
            gens.append(i)
            grown = vstack([span, FpMatrix(eye[i:i + 1], a.field)])
            while grown.rows > span.rows:
                # close under right multiplication by every generator
                span = grown
                grown = row_basis(vstack([span] + [
                    FpMatrix(span.arr @ a.sc[:, g, :], a.field)
                    for g in gens]))
            span = grown    # the closure in RREF, as echelon_coords needs
        return gens
    return kept(a, "generators", build)


def product_algebra(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise product, in the basis of A followed by that of B."""
    if a.field != b.field:
        raise AlgebraError("field mismatch")
    n, m = a.dim, b.dim
    sc = np.zeros((n + m, n + m, n + m), dtype=np.int64)
    sc[:n, :n, :n] = a.sc
    sc[n:, n:, n:] = b.sc
    return Algebra(a.field, sc, np.concatenate([a.unit, b.unit]),
                   validate=False)


# ---------------------------------------------------------------------------
# modules


class LeftModule:
    """Left module: acts[i] is the matrix of b_i, with acts[i] @ acts[j] =
    sum_k sc[i][j][k] acts[k].  `action` is a list of `FpMatrix` (from the
    CLI or tests) or, inside the library, a stack built reduced, taken as
    it is; the tuple `action` is built from the stack on first read."""

    def __init__(self, over: Algebra, action, validate: bool = True):
        self.over = over
        self._cache: dict = {}
        if not isinstance(action, np.ndarray):
            action = list(action)
            # matrices of unequal shapes stay a list, refused below
            if len({m.arr.shape for m in action}) == 1:
                action = np.array([m.arr for m in action])
        if len(action) != over.dim:
            raise AlgebraError("need one action matrix per basis element")
        if not isinstance(action, np.ndarray) or action.ndim != 3 or \
                action.shape[1] != action.shape[2]:
            raise AlgebraError("action matrices must be square of equal size")
        self.acts = action
        self.dim = action.shape[1]
        if validate:
            self.validate()

    @property
    def action(self) -> Tuple[FpMatrix, ...]:
        return kept(self, "action", lambda: tuple(
            FpMatrix.reduced(m, self.over.field) for m in self.acts))

    def validate(self):
        unit_act = self.act_matrix(self.over.unit)
        if not (unit_act.arr == np.eye(self.dim, dtype=np.int64)).all():
            raise AlgebraError("unit does not act as identity")
        p, n, d = self.over.field.p, self.over.dim, self.dim
        sc, acts = self.over.sc, self.acts
        flat = acts.reshape(n, d * d)
        for i in range(n):
            # row i of the law: action(b_i) @ action(b_j) for every j at once
            lhs = ((acts[i] @ acts) % p).reshape(n, d * d)
            bad = np.flatnonzero((lhs != (sc[i] @ flat) % p).any(axis=1))
            if len(bad):
                exc = AlgebraError(f"module law violated at ({i},{bad[0]})")
                exc.at = (i, int(bad[0]))
                raise exc

    def act_matrix(self, elem) -> FpMatrix:
        p, n, d = self.over.field.p, self.over.dim, self.dim
        x = np.asarray(elem, dtype=np.int64) % p @ self.acts.reshape(n, d * d)
        return FpMatrix.reduced(x.reshape(d, d) % p, self.over.field)

    @classmethod
    def regular(cls, a: Algebra) -> "LeftModule":
        return kept(a, "regular", lambda: cls(a, a.sc.transpose(0, 2, 1),
                                              validate=False))

    @classmethod
    def zero(cls, a: Algebra) -> "LeftModule":
        return cls(a, np.zeros((a.dim, 0, 0), dtype=np.int64), validate=False)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, over={self.over!r})"


def _kron_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The blocks left[g] ox I - I ox right[g], one under the other, as one
    unreduced int64 array; left and right are stacks of square matrices."""
    g, d1, d2 = len(left), left.shape[1], right.shape[1]
    out = left[:, :, None, :, None] * np.eye(d2, dtype=np.int64)[:, None] - \
        np.eye(d1, dtype=np.int64)[:, None, :, None] * right[:, None, :, None]
    return out.reshape(g * d1 * d2, d1 * d2)


def field_space(field: FieldSpec, d: int) -> LeftModule:
    """GF(p)^d as a module over the 1-dimensional algebra GF(p)."""
    return LeftModule(field_algebra(field),
                      np.eye(d, dtype=np.int64)[None], validate=False)


class Bimodule:
    """Space with commuting left A-action and right B-action, kept as its
    two legs: `left`, a module over A, and `right`, the module over B^op
    with the right action's matrices.  Each leg is built from a list of
    `FpMatrix` or a stack, as a `LeftModule` is, and a shape fault names
    its side."""

    def __init__(self, left_over: Algebra, right_over: Algebra,
                 left_action, right_action, validate: bool = True):
        self.left_over = left_over
        self.right_over = right_over
        with _side("left"):
            self.left = LeftModule(left_over, left_action, validate=False)
        with _side("right"):
            self.right = LeftModule(opposite_algebra(right_over),
                                    right_action, validate=False)
        self.dim = self.left.dim
        self._cache: dict = {}
        if validate:
            self.validate()

    @property
    def left_action(self) -> Tuple[FpMatrix, ...]:
        return self.left.action

    @property
    def right_action(self) -> Tuple[FpMatrix, ...]:
        return self.right.action

    def validate(self):
        p, q = self.left_over.field.p, self.right_over.field.p
        if p != q:
            raise AlgebraError(f"left algebra is over GF({p}) but right "
                               f"algebra is over GF({q})")
        for side, mod in (("left", self.left), ("right", self.right)):
            with _side(side):
                mod.validate()
        d, e = self.left.dim, self.right.dim
        if d != e:
            raise AlgebraError(f"left action is {d}-dimensional but right "
                               f"action is {e}-dimensional")
        r = self.right.acts
        if any(((l @ r) % p != (r @ l) % p).any() for l in self.left.acts):
            raise AlgebraError("left and right actions do not commute")

    def swap(self) -> "Bimodule":
        """Same space as a bimodule over the opposite algebras, with the two
        actions exchanged."""
        return Bimodule(opposite_algebra(self.right_over),
                        opposite_algebra(self.left_over),
                        self.right.acts, self.left.acts, validate=False)

    @classmethod
    def regular(cls, a: Algebra) -> "Bimodule":
        return cls(a, a, LeftModule.regular(a).acts,
                   LeftModule.regular(opposite_algebra(a)).acts,
                   validate=False)

    def __repr__(self):
        return (f"Bimodule(dim={self.dim}, left={self.left_over!r}, "
                f"right={self.right_over!r})")


@contextlib.contextmanager
def _side(side: str):
    """Names the side of a bimodule's action in the faults raised inside."""
    try:
        yield
    except AlgebraError as exc:
        raise AlgebraError(f"{side} action: {exc}") from exc


def check_shape(name: str, matrix: FpMatrix, rows: int,
                cols: int) -> FpMatrix:
    """matrix, the map `name` where the data gives it; a matrix that is not
    rows x cols is refused, naming the map and both shapes."""
    if (matrix.rows, matrix.cols) != (rows, cols):
        raise AlgebraError(f"{name} shape {matrix.rows}x{matrix.cols} "
                           f"does not match {rows}x{cols}")
    return matrix


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
        if not _same_algebra(self.source.over, self.target.over):
            raise AlgebraError("source and target over different algebras")
        p, mat = self.matrix.field.p, self.matrix.arr
        bad = (mat @ self.source.acts - self.target.acts @ mat) % p
        for i in np.flatnonzero(bad.any(axis=(1, 2)))[:1]:
            raise AlgebraError(f"hom does not intertwine basis element {i}")

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self after other."""
        return ModuleHom(other.source, self.target,
                         self.matrix @ other.matrix, validate=False)

    def is_iso(self) -> bool:
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

    Vectorization is row-major: vec(T)[a * source.dim + b] = T[a, b].  The
    basis spans the solutions of the intertwining equations T @ S_g - N_g @
    T = 0 for the algebra generators g, i.e. (I ox S_g^T - N_g ox I) vec(T)
    = 0; every space of module maps in the library is built here.
    """

    def __init__(self, source, target):
        # equal algebras built twice are allowed, with the same tables
        if not _same_algebra(source.over, target.over):
            raise AlgebraError("hom space requires a common algebra")
        self.source = source
        self.target = target
        self.field = source.over.field
        gens = algebra_generators(source.over)
        self.mat = kernel_basis(FpMatrix(-_kron_rows(
            target.acts[gens], source.acts[gens].transpose(0, 2, 1)),
            self.field))

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
        return FpMatrix.reduced(self.coords_stack(
            np.asarray(mats, dtype=np.int64)[None])[0], self.field)

    def coords_stack(self, mats: np.ndarray) -> np.ndarray:
        """The (n, dim, k) stack whose i-th matrix has as column j the
        coordinates of mats[i, j], for an (n, k, ...) stack of homs."""
        x = echelon_coords(self.mat, mats.reshape(
            mats.shape[:2] + (self.mat.cols,)))
        if x is None:
            raise AlgebraError("matrix is not in the hom space")
        return x.transpose(0, 2, 1)


def _same_algebra(a: Algebra, b: Algebra) -> bool:
    return (a is b) or (a.field == b.field and a.dim == b.dim
                        and (a.sc == b.sc).all() and (a.unit == b.unit).all())


def hom_space(m, n) -> HomSpace:
    return HomSpace(m, n)


# ---------------------------------------------------------------------------
# kernels, cokernels, images, subquotients


def _echelon_submodule(x, basis: FpMatrix, moved=None):
    """The submodule spanned by a basis in RREF without zero rows; returns
    (module, inclusion) and raises unless the span is invariant.  moved[i,
    j] is x.acts[i] applied to basis row j, computed here unless given; its
    coordinates in the basis are the action of the submodule."""
    if moved is None:
        moved = matmul_mod(basis.arr, x.acts.transpose(0, 2, 1), basis.field.p)
    coords = echelon_coords(basis, moved)
    if coords is None:
        raise AlgebraError("rows do not span a submodule")
    mod = LeftModule(x.over, coords.transpose(0, 2, 1), validate=False)
    return mod, ModuleHom(mod, x, basis.transpose(), validate=False)


def quotient_module(x, relation_cols: FpMatrix):
    """Quotient of x by the span of the columns of relation_cols; returns
    (module, projection, section).  Raises unless the span is invariant."""
    return _echelon_quotient_module(x, row_basis(relation_cols.transpose()))


def _echelon_quotient_module(x, basis: FpMatrix):
    """`quotient_module` modulo the row span of `basis`, in RREF without
    zero rows: its pivots are read off, not eliminated again."""
    p = x.over.field.p
    qm = echelon_quotient_maps(basis)
    moved = (qm.project.arr @ x.acts) % p
    if ((moved @ basis.arr.T) % p).any():
        raise AlgebraError("relations do not span a submodule")
    # include picks the free columns, so the product stays reduced
    mod = LeftModule(x.over, moved @ qm.include.arr, validate=False)
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
    return row_basis(m.transpose())


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


def block_sum_module(mods: Sequence):
    """The direct sum of modules over a common algebra, with
    block-diagonal action matrices, and nothing else."""
    over = mods[0].over
    total = sum(m.dim for m in mods)
    acc = np.zeros((over.dim, total, total), dtype=np.int64)
    off = 0
    for m in mods:
        acc[:, off:off + m.dim, off:off + m.dim] = m.acts
        off += m.dim
    return LeftModule(over, acc, validate=False)


# ---------------------------------------------------------------------------
# tensor products over an algebra


@dataclass
class TensorSpace:
    """M ox_R X presented as a quotient of the plain tensor space.

    Plain index (a, b) -> a * dim(second) + b.  project/include are the
    canonical quotient maps; space carries whatever module structure
    descends from the uncontracted side.
    """
    space: LeftModule        # possibly over GF(p)
    project: FpMatrix
    include: FpMatrix
    first_dim: int


def _balanced_quotient(rho: np.ndarray, lam: np.ndarray,
                       over: Algebra) -> QuotientMaps:
    """Quotient maps of M ox X by the relations m.r ox x - m ox r.x, where r
    runs over the generators of `over` acting by the stacks rho on M and
    lam on X."""
    gens = algebra_generators(over)
    # one block of columns per generator: the transpose of the blocks
    # rho_g^T ox I - I ox lam_g^T stacked by rows
    return quotient_maps(FpMatrix(_kron_rows(
        rho[gens].transpose(0, 2, 1), lam[gens].transpose(0, 2, 1)).T,
        over.field))


def tensor_bimodule_left(m: Bimodule, x: LeftModule) -> TensorSpace:
    """M ox_R X for an A-R-bimodule M and left R-module X; a left A-module,
    shared by content, and by the id of A, which the space keeps alive."""
    if not _same_algebra(m.right_over, x.over):
        raise AlgebraError("contracted algebras do not match")
    return shared(x, "tensors", (_content(m), id(m.left_over)),
                  lambda: _tensor_space(m, x))


def _tensor_space(m: Bimodule, x: LeftModule) -> TensorSpace:
    p, n, d, e = x.over.field.p, m.left_over.dim, m.dim, x.dim
    qm = _balanced_quotient(m.right.acts, x.acts, x.over)
    k = qm.include.cols
    # (L_b ox I) @ include for every b at once: L_b acts on the first index
    # of the plain index (a, c) of include's rows
    moved = matmul_mod(m.left.acts, qm.include.arr.reshape(d, e * k), p)
    action = matmul_mod(qm.project.arr, moved.reshape(n, d * e, k), p)
    space = LeftModule(m.left_over, action, validate=False)
    return TensorSpace(space, qm.project, qm.include, d)


def tensor_right_left(w: LeftModule, x: LeftModule) -> TensorSpace:
    """W ox_R X as a plain GF(p) space, for W a module over R^op read as a
    GF(p)-R-bimodule."""
    k = field_space(w.over.field, w.dim)
    return tensor_bimodule_left(Bimodule(k.over, opposite_algebra(w.over),
                                         k.acts, w.acts, validate=False), x)


def tensor_map_second(ts_from: TensorSpace, ts_to: TensorSpace,
                      f: ModuleHom) -> ModuleHom:
    """Induced map M ox f : M ox X -> M ox Y for f: X -> Y (second slot)."""
    field, d, k = f.matrix.field, ts_from.first_dim, ts_from.include.cols
    # (I ox f) @ include: f acts on the second index of include's rows
    moved = matmul_mod(f.matrix.arr, ts_from.include.arr.reshape(
        d, f.matrix.cols, k), field.p).reshape(d * f.matrix.rows, k)
    mat = ts_to.project @ FpMatrix.reduced(moved, field)
    return ModuleHom(ts_from.space, ts_to.space, mat, validate=False)


def swapped_tensor(n: Bimodule, x: LeftModule) -> FpMatrix:
    """X ox_R M, for a right R-module X (a left module over R^op) and an
    R-B-bimodule M, carried by the left tensor N ox X over R^op with
    N = M^swap: the invertible matrix from the quotient coordinates of
    N ox X (plain index (m, x)) to those of X ox M (plain index (x, m) ->
    x * dim(M) + m).  A map given on X ox M, times it, is the same map on
    N ox X.  This is the one place a right tensor appears: where a map on
    X ox M is given in the paper's coordinates."""
    field = x.over.field
    left = tensor_bimodule_left(n, x)
    right = _balanced_quotient(x.acts, n.right.acts, x.over)
    # entry k = m * dim(X) + x of this array is the plain index x * dim(M) + m
    mx = np.arange(x.dim * n.dim).reshape(x.dim, n.dim).T.reshape(-1)
    return FpMatrix(right.project.arr[:, mx], field) @ left.include


# ---------------------------------------------------------------------------
# Hom from a bimodule


class HomModule:
    """Hom_A(M, Y) for an A-B-bimodule M and left A-module Y, as a left
    B-module via (b . f)(m) = f(m . b); shared, so it links to neither."""

    def __init__(self, m: Bimodule, y: LeftModule):
        self.homs = HomSpace(m.left, LeftModule(y.over, y.acts,
                                                validate=False))
        self.space = LeftModule(m.right_over, self.homs.coords_stack(
            self.homs.basis_array() @ m.right.acts[:, None]), validate=False)

    def postcompose(self, other: "HomModule", u: ModuleHom) -> ModuleHom:
        """Induced map Hom(M, Y) -> Hom(M, Y') for u: Y -> Y'
        (other must be Hom(M, Y'))."""
        mat = other.homs.coords_many(u.matrix.arr @ self.homs.basis_array())
        return ModuleHom(self.space, other.space, mat, validate=False)


def hom_from_bimodule(m: Bimodule, y: LeftModule) -> HomModule:
    """Hom_A(M, Y), kept on Y and shared by content as tensors are."""
    if not _same_algebra(m.left_over, y.over):
        raise AlgebraError("legs do not match")
    return shared(y, "homs", (_content(m), id(m.right_over)),
                  lambda: HomModule(m, y))


# ---------------------------------------------------------------------------
# duality (field-linear dual, standing in for the character module)


def dual_module(x: LeftModule) -> LeftModule:
    """Field-linear dual, a module over the opposite algebra.

    For finite-dimensional modules over GF(p) this is isomorphic to the
    character module Hom_Z(X, Q/Z), which is how it is used throughout.
    Kept on x; the dual holds no link back to x.
    """
    return kept(x, "dual", lambda: LeftModule(
        opposite_algebra(x.over), x.acts.transpose(0, 2, 1), validate=False))


# ---------------------------------------------------------------------------
# monomial quiver algebras

# the largest dimension of a quiver algebra's table: more vertices than
# this, or relations that leave more paths, are refused
_QUIVER_MAX_DIM = 200


def monomial_quiver_algebra(num_vertices: int,
                            arrows: Sequence[Tuple[int, int]],
                            zero_relations: Sequence[Sequence[int]],
                            field: FieldSpec) -> Algebra:
    """Path algebra of a quiver modulo monomial (zero-path) relations.

    Arrows are (source, target) pairs of 0-based vertex indices; a relation
    is a list of arrow indices [a_0, a_1, ...] read as the path a_0 then a_1
    etc.  Basis = paths avoiding every relation as a contiguous subpath.
    The table is associative and unital by construction, so it is not
    checked by `validate_algebra`; the indices and relations are.
    """
    if not 1 <= num_vertices <= _QUIVER_MAX_DIM:
        raise AlgebraError(
            f"quiver.vertices: need at least one vertex, got {num_vertices}"
            if num_vertices < 1 else "quiver algebra exceeds the dimension "
            f"bound: {num_vertices} vertices")
    for i, arrow in enumerate(arrows):
        bad = [v for v in arrow if not 0 <= v < num_vertices]
        if bad:
            raise AlgebraError(f"arrow {i} {tuple(arrow)}: no vertex {bad[0]} "
                               f"among the {num_vertices} vertices")
    relations = [tuple(r) for r in zero_relations]
    for r in relations:
        if not r:
            raise AlgebraError("relation []: a zero relation is a path of at "
                               "least one arrow")
        bad = [a for a in r if not 0 <= a < len(arrows)]
        if bad:
            raise AlgebraError(f"relation {list(r)}: no arrow {bad[0]} "
                               f"among the {len(arrows)} arrows")
        for a, b in zip(r, r[1:]):
            if arrows[a][1] != arrows[b][0]:
                raise AlgebraError(
                    f"relation {list(r)}: arrow {a} ends at vertex "
                    f"{arrows[a][1]} but arrow {b} starts at vertex "
                    f"{arrows[b][0]}")
    # a path is (source, target, arrow indices), a vertex idempotent
    # (v, v, ()); the vertices come first, then the paths by length
    paths = [(v, v, ()) for v in range(num_vertices)]
    frontier = [(s, t, (i,)) for i, (s, t) in enumerate(arrows)
                if _path_ok((i,), relations)]
    while frontier:
        paths.extend(frontier)
        if len(paths) > _QUIVER_MAX_DIM:
            raise AlgebraError("quiver algebra exceeds the dimension bound; "
                               "relations are not admissible")
        frontier = [(s, t, path + (i,)) for s, end, path in frontier
                    for i, (start, t) in enumerate(arrows)
                    if start == end and _path_ok(path + (i,), relations)]
    index = {path: k for k, path in enumerate(paths)}
    ending = [[] for _ in range(num_vertices)]
    for j, (s, t, path) in enumerate(paths):
        ending[t].append((j, s, path))
    n = len(paths)
    sc = np.zeros((n, n, n), dtype=np.int64)
    for i, (si, ti, pi) in enumerate(paths):
        # b_i * b_j runs p_j, then p_i: nonzero only if p_j ends at s_i
        for j, sj, pj in ending[si]:
            if not (pi and pj) or _path_ok(pj + pi, relations):
                sc[i, j, index[sj, ti, pj + pi]] = 1
    unit = np.zeros(n, dtype=np.int64)
    unit[:num_vertices] = 1
    return Algebra(field, sc, unit, validate=False)


def _path_ok(p: Tuple[int, ...], relations) -> bool:
    for r in relations:
        if any(p[i:i + len(r)] == r for i in range(len(p) - len(r) + 1)):
            return False
    return True
