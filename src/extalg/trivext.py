"""Trivial ring extensions and the pair/copair presentations of their
modules.

The extension of an algebra R by an R-R-bimodule M multiplies by
(r1, m1)(r2, m2) = (r1 r2, r1 m2 + m1 r2), making M a square-zero ideal.
Left modules over the extension are equivalent to pairs (X, alpha) with
alpha: M ox X -> X vanishing on M ox M ox X, and to copairs [Y, beta] with
beta: Y -> Hom(M, Y) vanishing under postcomposition with itself.  This
module implements the conversions, the six functors between the base and
extension categories, and the comparison isomorphisms they satisfy.  The
induced and coinduced modules T(X) = X + M ox X and H(Y) = Hom(M, Y) + Y
are built once each as total modules; `functor_T` and `functor_H` read
their pair and copair off them, as `morita.theta` and `theta_co` do.

A pair or copair holds its total module and is checked once, by its law
(`Presented`): at a (base, ideal) basis pair the law says that the
(co)structure map is a module map, and m_i m_j = 0 is the square-zero
axiom.
`module_to_pair` reads a valid module and does not check again.

Right modules over R |x M are left modules over R^op |x M^swap
(`opposite_extension`, whose total algebra is the opposite of the original
one), and a right pair (X, alpha: X ox M -> X) is the `PairModule` over
that extension.  `right_pair` builds one from alpha in the coordinates of
X ox M, the one place those coordinates enter (`swapped_tensor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .algebra import (Algebra, AlgebraError, Bimodule, LeftModule, ModuleHom,
                      check_shape, cokernel_module, field_space,
                      hom_from_bimodule, hom_space, image_module,
                      is_kernel_inclusion, kernel_module, opposite_algebra,
                      swapped_tensor, tensor_bimodule_left, tensor_map_second,
                      tensor_right_left)
from .linalg import FpMatrix, is_invertible, matmul_mod, rank, solve
from .structure import find_isomorphism, is_injective, is_projective


class TrivextError(ValueError):
    pass


class TrivialExtension:
    """R extended by a square-zero copy of the bimodule M.

    Total algebra basis: the R-basis first, then the M-basis; all block
    matrices below are written against this order.
    """

    def __init__(self, base: Algebra, bimodule: Bimodule):
        if bimodule.left_over is not base or bimodule.right_over is not base:
            raise TrivextError("bimodule legs must both be the base algebra")
        self.base, self.bimodule = base, bimodule
        self.base_dim, self.ideal_dim = base.dim, bimodule.dim
        self._cache: dict = {}

    @property
    def field(self):
        return self.base.field

    @cached_property
    def total(self) -> Algebra:
        n, d, m = self.base_dim, self.ideal_dim, self.bimodule
        sc = np.zeros((n + d, n + d, n + d), dtype=np.int64)
        sc[:n, :n, :n] = self.base.sc
        # r_i * m_j and m_j * r_i land in the M part
        sc[:n, n:, n:] = m.left.acts.transpose(0, 2, 1)
        sc[n:, :n, n:] = m.right.acts.transpose(2, 0, 1)
        unit = np.concatenate([self.base.unit, np.zeros(d, dtype=np.int64)])
        # associative because the bimodule is: no need to validate again
        return Algebra(self.base.field, sc, unit, validate=False)

    def __repr__(self):
        return (f"TrivialExtension(base_dim={self.base_dim}, "
                f"ideal_dim={self.ideal_dim}, p={self.field.p})")


def trivial_extension(base: Algebra, bimodule: Bimodule) -> TrivialExtension:
    return TrivialExtension(base, bimodule)


def opposite_extension(t: TrivialExtension) -> TrivialExtension:
    """The extension of the opposite base by the leg-swapped bimodule.  Its
    total algebra has literally the opposite multiplication table, so it is
    opposite_algebra(t.total), set before the extension builds one of its
    own, and a right module over t.total lives over this extension.  A
    commutative extension is its own opposite, as its total algebra is."""
    if "opposite" not in t._cache:
        sc = t.total.sc
        top = t if (sc == sc.transpose(1, 0, 2)).all() else TrivialExtension(
            opposite_algebra(t.base), t.bimodule.swap())
        top.total = opposite_algebra(t.total)
        top._cache["opposite"] = t
        t._cache["opposite"] = top
    return t._cache["opposite"]


# ---------------------------------------------------------------------------
# pair and copair presentations


class Presented:
    """A presentation of the total module `module`, built by its
    constructor.  Given valid base modules and linear maps, the law of that
    module fails at a (base, ideal) basis pair when the map is not a module
    map, and at a product of two ideal basis elements when the square-zero
    axiom fails; `axiom(i, j)` names what the basis pair tests."""
    error = TrivextError

    def validate(self):
        try:
            self.module.validate()
        except AlgebraError as exc:
            raise self.error(exc.at and self.axiom(*exc.at)
                             or str(exc)) from exc

    def axiom(self, i: int, j: int) -> Optional[str]:
        n = self.t.base_dim
        if min(i, j) >= n:
            return f"{self.map_name} does not square to zero"
        if max(i, j) >= n:
            return f"{self.map_name} is not a module map"


class PairModule(Presented):
    """(X, alpha) with X a left module over the base and alpha a module map
    M ox X -> X killing M ox M ox X; (r, m) acts on the total module as
    r.x + alpha(m ox x)."""
    map_name = "structure map"

    def __init__(self, t: TrivialExtension, x: LeftModule,
                 alpha_matrix: FpMatrix, validate: bool = True):
        self.t = t
        self.x = x
        self.tensor = tensor_bimodule_left(t.bimodule, x)
        self.alpha = ModuleHom(self.tensor.space, x, check_shape(
            "alpha", alpha_matrix, x.dim, self.tensor.space.dim),
            validate=False)
        # block j sends b to alpha(m_j ox b)
        ideal = (alpha_matrix @ self.tensor.project).arr.reshape(
            x.dim, t.ideal_dim, x.dim).transpose(1, 0, 2)
        self.module = LeftModule(t.total, np.concatenate([x.acts, ideal]),
                                 validate=False)
        if validate:
            self.validate()

    def m_alpha(self) -> ModuleHom:
        """M ox alpha: M ox M ox X -> M ox X."""
        t2 = tensor_bimodule_left(self.t.bimodule, self.tensor.space)
        return tensor_map_second(t2, self.tensor, self.alpha)

    def __repr__(self):
        return f"PairModule(x_dim={self.x.dim}, over={self.t!r})"


class CopairModule(Presented):
    """[Y, beta] with beta: Y -> Hom(M, Y) killed by postcomposition with
    itself; (r, m) acts on the total module as r.y + (beta y)(m)."""
    map_name = "costructure map"

    def __init__(self, t: TrivialExtension, y: LeftModule,
                 beta_matrix: FpMatrix, validate: bool = True):
        self.t = t
        self.y = y
        self.hom = hom_from_bimodule(t.bimodule, y)
        self.beta = ModuleHom(y, self.hom.space, check_shape(
            "beta", beta_matrix, self.hom.space.dim, y.dim), validate=False)
        # block j sends b to beta(b)(m_j)
        ideal = matmul_mod(self.hom.homs.basis_array().transpose(2, 1, 0),
                           beta_matrix.arr, t.field.p)
        self.module = LeftModule(t.total, np.concatenate([y.acts, ideal]),
                                 validate=False)
        if validate:
            self.validate()

    def beta_post(self) -> ModuleHom:
        """Hom(M, beta): Hom(M, Y) -> Hom(M, Hom(M, Y))."""
        hom2 = hom_from_bimodule(self.t.bimodule, self.hom.space)
        return self.hom.postcompose(hom2, self.beta)

    def __repr__(self):
        return f"CopairModule(y_dim={self.y.dim}, over={self.t!r})"


def right_pair(t: TrivialExtension, x: LeftModule,
               alpha_matrix: FpMatrix) -> PairModule:
    """The right pair (X, alpha: X ox M -> X), X a module over the opposite
    base and alpha in the coordinates of X ox M: the pair over the opposite
    extension, on which x.(r, m) = x.r + alpha(x ox m)."""
    top = opposite_extension(t)
    return PairModule(top, x, swapped_tensor(top.bimodule, x).on_left(
        "alpha", alpha_matrix, x.dim))


# ---------------------------------------------------------------------------
# conversions


def pair_to_module(pair: PairModule) -> LeftModule:
    """The left module over the total algebra that the pair holds."""
    return pair.module


def module_to_pair(mod: LeftModule, t: TrivialExtension) -> PairModule:
    """Inverse of pair_to_module for a valid mod: the structure map is read
    off the action of the ideal basis, and the pair is not checked again."""
    n, d = t.base_dim, t.ideal_dim
    x = LeftModule(t.base, mod.acts[:n], validate=False)
    ts = tensor_bimodule_left(t.bimodule, x)
    # column j * dim X + b of plain is m_j acting on b
    plain = FpMatrix.reduced(mod.acts[n:].transpose(1, 0, 2).reshape(
        x.dim, d * x.dim), t.field)
    alpha_mat = plain @ ts.include
    if alpha_mat @ ts.project != plain:
        raise TrivextError("ideal action does not factor through the "
                           "balanced tensor; not a module over the extension")
    return PairModule(t, x, alpha_mat, validate=False)


def copair_to_module(copair: CopairModule) -> LeftModule:
    """The left module over the total algebra that the copair holds."""
    return copair.module


def module_to_copair(mod: LeftModule, t: TrivialExtension) -> CopairModule:
    """Inverse of copair_to_module for a valid mod, not checked again."""
    n = t.base_dim
    y = LeftModule(t.base, mod.acts[:n], validate=False)
    hm = hom_from_bimodule(t.bimodule, y)
    try:
        # y's basis vector b goes to the map m_j -> (action of m_j)[:, b]
        beta_mat = hm.homs.coords_many(mod.acts[n:].transpose(2, 1, 0))
    except AlgebraError as exc:
        raise TrivextError("ideal action is not given by module maps from "
                           "the bimodule") from exc
    return CopairModule(t, y, beta_mat, validate=False)


# ---------------------------------------------------------------------------
# the six functors


def functor_T(t: TrivialExtension, x: LeftModule) -> PairModule:
    """T(X) = (X + M ox X, mu) with mu feeding the X summand into the
    M ox X summand, read off the total module."""
    return module_to_pair(_extend(t, x), t)


def functor_H(t: TrivialExtension, y: LeftModule) -> CopairModule:
    """H(Y) = [Hom(M, Y) + Y, theta] with theta feeding the hom summand
    into the Y slot of Hom(M, -), read off the total module."""
    return module_to_copair(_coextend(t, y), t)


def functor_Z_pair(t: TrivialExtension, x: LeftModule) -> PairModule:
    ts = tensor_bimodule_left(t.bimodule, x)
    return PairModule(t, x, FpMatrix.zeros(x.dim, ts.space.dim, t.field))


def functor_Z_copair(t: TrivialExtension, y: LeftModule) -> CopairModule:
    hm = hom_from_bimodule(t.bimodule, y)
    return CopairModule(t, y, FpMatrix.zeros(hm.space.dim, y.dim, t.field))


def functor_U(p) -> LeftModule:
    """Forget the (co)structure map."""
    if isinstance(p, PairModule):
        return p.x
    if isinstance(p, CopairModule):
        return p.y
    raise TrivextError("expected a pair or copair")


def functor_C(pair: PairModule) -> Tuple[LeftModule, ModuleHom]:
    """coker(alpha) with the projection from the underlying module."""
    return cokernel_module(pair.alpha)


def functor_K(copair: CopairModule) -> Tuple[LeftModule, ModuleHom]:
    """ker(beta) with the inclusion into the underlying module."""
    return kernel_module(copair.beta)


# ---------------------------------------------------------------------------
# classification of projectives and injectives over the extension


def classify_projective(pair: PairModule
                        ) -> Optional[Tuple[LeftModule, ModuleHom]]:
    """When the converted module is projective over the total algebra,
    return (P, witness) with P projective over the base and pair
    isomorphic to T(P); None otherwise."""
    mod = pair_to_module(pair)
    if not is_projective(mod):
        return None
    cand, _ = functor_C(pair)
    wit = find_isomorphism(mod, _extend(pair.t, cand))
    return None if wit is None else (cand, wit)


def classify_injective(copair: CopairModule
                       ) -> Optional[Tuple[LeftModule, ModuleHom]]:
    """Dual classification: a converted injective is H(E) for the injective
    base module E = ker(beta)."""
    mod = copair_to_module(copair)
    if not is_injective(mod):
        return None
    cand, _ = functor_K(copair)
    wit = find_isomorphism(mod, _coextend(copair.t, cand))
    return None if wit is None else (cand, wit)


# ---------------------------------------------------------------------------
# the canonical short exact sequences


@dataclass
class ShortExactSequence:
    sub: LeftModule
    mid: LeftModule
    quo: LeftModule
    mono: ModuleHom
    epi: ModuleHom

    def is_exact(self) -> bool:
        return (is_kernel_inclusion(self.mono, self.epi)
                and rank(self.epi.matrix) == self.quo.dim)


def _inflate(t: TrivialExtension, x: LeftModule) -> LeftModule:
    """Z(X) directly as a total module: the ideal acts as zero."""
    zero = np.zeros((t.ideal_dim, x.dim, x.dim), dtype=np.int64)
    return LeftModule(t.total, np.concatenate([x.acts, zero]), validate=False)


def _glued(t: TrivialExtension, first: LeftModule, second: LeftModule,
           ideal: np.ndarray) -> LeftModule:
    """first + second as a total module (unchecked): the base acts
    block-diagonally and m_j by the block ideal[j]: first -> second."""
    n, d1, d = t.base_dim, first.dim, first.dim + second.dim
    acts = np.zeros((t.total.dim, d, d), dtype=np.int64)
    acts[:n, :d1, :d1] = first.acts
    acts[:n, d1:, d1:] = second.acts
    acts[n:, d1:, :d1] = ideal
    return LeftModule(t.total, acts, validate=False)


def _extend(t: TrivialExtension, x: LeftModule) -> LeftModule:
    """T(X) = X + M ox X as a total module: m_j sends x to m_j ox x, read
    off the columns j * dim X .. (j+1) * dim X - 1 of the projection."""
    ts = tensor_bimodule_left(t.bimodule, x)
    ideal = ts.project.arr.reshape(ts.space.dim, t.ideal_dim, x.dim)
    tx = _glued(t, x, ts.space, ideal.transpose(1, 0, 2))
    # X holds M ox X, and `shared` hands it to a content-equal module only
    # while X lives: T(X) keeps X, so the tests of a resolution of T(X)
    # read the tensor its lift built
    tx.extended_from = x
    return tx


def _coextend(t: TrivialExtension, y: LeftModule) -> LeftModule:
    """H(Y) = Hom(M, Y) + Y as a total module: m_j sends f to f(m_j)."""
    hm = hom_from_bimodule(t.bimodule, y)
    return _glued(t, hm.space, y, hm.homs.basis_array().transpose(2, 1, 0))


def _inflated_ses(t: TrivialExtension, sub: LeftModule, incl: ModuleHom,
                  mid: LeftModule, quo: LeftModule,
                  epi: ModuleHom) -> ShortExactSequence:
    """0 -> Z(sub) -> mid -> Z(quo) -> 0 from maps of base modules."""
    sub_t, quo_t = _inflate(t, sub), _inflate(t, quo)
    return ShortExactSequence(
        sub_t, mid, quo_t, ModuleHom(sub_t, mid, incl.matrix, validate=False),
        ModuleHom(mid, quo_t, epi.matrix, validate=False))


def ses_of_pair(pair: PairModule) -> ShortExactSequence:
    """0 -> Z(im alpha) -> (X, alpha) -> Z(coker alpha) -> 0 over the
    total algebra."""
    img, incl, _ = image_module(pair.alpha)
    quo, proj = cokernel_module(pair.alpha)
    return _inflated_ses(pair.t, img, incl, pair_to_module(pair), quo, proj)


def ses_of_copair(copair: CopairModule) -> ShortExactSequence:
    """0 -> Z(ker beta) -> [Y, beta] -> Z(im beta) -> 0 over the total
    algebra."""
    kerb, incl = kernel_module(copair.beta)
    img, _, epi = image_module(copair.beta)
    return _inflated_ses(copair.t, kerb, incl, copair_to_module(copair), img,
                         epi)


# ---------------------------------------------------------------------------
# induced factorizations


def induced_delta(pair: PairModule) -> ModuleHom:
    """The unique delta: M ox coker(alpha) -> X with
    delta o (M ox proj) = alpha."""
    quo, proj = cokernel_module(pair.alpha)
    tsq = tensor_bimodule_left(pair.t.bimodule, quo)
    m_proj = tensor_map_second(pair.tensor, tsq, proj)
    dt = solve(m_proj.matrix.transpose(), pair.alpha.matrix.transpose())
    if dt is None:
        raise TrivextError("structure map does not factor through the "
                           "tensored cokernel")
    delta = ModuleHom(tsq.space, pair.x, dt.transpose(), validate=False)
    if delta.matrix @ m_proj.matrix != pair.alpha.matrix:
        raise TrivextError("factorization identity failed")
    return delta


def induced_gamma(copair: CopairModule) -> ModuleHom:
    """The unique gamma: Y -> Hom(M, ker beta) with
    (incl postcomposition) o gamma = beta."""
    kerb, incl = kernel_module(copair.beta)
    hk = hom_from_bimodule(copair.t.bimodule, kerb)
    iota_star = hk.postcompose(copair.hom, incl)
    g = solve(iota_star.matrix, copair.beta.matrix)
    if g is None:
        raise TrivextError("costructure map does not factor through the "
                           "kernel homs")
    gamma = ModuleHom(copair.y, hk.space, g, validate=False)
    if iota_star.matrix @ gamma.matrix != copair.beta.matrix:
        raise TrivextError("factorization identity failed")
    return gamma


# ---------------------------------------------------------------------------
# the comparison isomorphisms


def tensor_iso_pair(w: LeftModule, pair: PairModule) -> ModuleHom:
    """The canonical iso Z(W) ox_total (X, alpha) -> W ox_base coker(alpha)
    for a right base module W (a module over the opposite base), induced by
    w ox x -> w ox proj(x); returned as an invertible map of plain spaces."""
    t = pair.t
    mid = pair_to_module(pair)
    zw = _inflate(opposite_extension(t), w)
    lhs = tensor_right_left(zw, mid)
    quo, proj = cokernel_module(pair.alpha)
    iso = tensor_map_second(lhs, tensor_right_left(w, quo), proj)
    if not is_invertible(iso.matrix):
        raise TrivextError("canonical tensor comparison map is not "
                           "invertible")
    return iso


def hom_iso_copair(x: LeftModule, copair: CopairModule) -> ModuleHom:
    """The canonical iso Hom_base(X, ker beta) -> Hom_total(Z(X), [Y, beta])
    sending u to incl o u; returned as an invertible map of hom-coordinate
    spaces."""
    t = copair.t
    kerb, incl = kernel_module(copair.beta)
    rhs_space = hom_space(x, kerb)
    zx = _inflate(t, x)
    mid = copair_to_module(copair)
    lhs_space = hom_space(zx, mid)
    mat = lhs_space.coords_many(incl.matrix.arr @ rhs_space.basis_array())
    if mat.rows != mat.cols or not is_invertible(mat):
        raise TrivextError("canonical hom comparison map is not invertible")
    return ModuleHom(field_space(t.field, rhs_space.dim),
                     field_space(t.field, lhs_space.dim), mat, validate=False)
