import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import extalg.homology
from conftest import (FIELD2, _count_cover_builds, a2_algebra, a2_morita_ring,
                      double_extension, local_wild_algebra, monomial_quivers,
                      nakayama_ring, product_morita_ring, random_module,
                      small_quiver_algebra, square_zero_extension,
                      triangular_extension)
from extalg.algebra import (Algebra, AlgebraError, Bimodule, HomSpace,
                            LeftModule, dual_module, hom_space,
                            monomial_quiver_algebra, opposite_algebra,
                            product_algebra)
from extalg.gorenstein import CERTIFIED_NO, gp_check
from extalg.homology import (ChainComplex, DimensionVerdict,
                             _precompose_matrix, default_bound, ext, ext_dims,
                             ext_from_resolution, fd_bounded, hom_complex,
                             id_bounded, is_exact_complex,
                             minimal_projective_resolution,
                             non_minimal_resolution, pd_bounded, syzygy)
from extalg.linalg import FieldSpec, FpMatrix, inverse, rank
from extalg.structure import find_isomorphism, projective_cover, simples
from extalg.trivext import trivial_extension


@pytest.fixture(scope="module")
def d_total():
    return square_zero_extension(FIELD2).total


@pytest.fixture(scope="module")
def k_over_d(d_total):
    return LeftModule(d_total, [FpMatrix.identity(1, FIELD2),
                                FpMatrix.zeros(1, 1, FIELD2)])


def test_minimal_resolution_shape(d_total, k_over_d):
    res = minimal_projective_resolution(k_over_d, 3)
    assert [t.dim for t in res.terms] == [2, 2, 2, 2]
    assert res.length() == 3
    cx = ChainComplex(-res.length(), res.terms[::-1], res.diffs[::-1])
    ok, where = is_exact_complex(cx)
    assert ok, where


def test_syzygy_periodicity(d_total, k_over_d):
    s2 = syzygy(k_over_d, 2)
    assert find_isomorphism(s2, k_over_d) is not None


@pytest.mark.parametrize("p", [2, 65521])
def test_wild_syzygies_double(p):
    # over k<x,y>/(x,y)^2 the radical of the cover of S^n is S^(2n)
    s = simples(local_wild_algebra(FieldSpec(p)))[0]
    assert syzygy(s, 0) is s
    assert [syzygy(s, i).dim for i in range(6)] == [1, 2, 4, 8, 16, 32]


def test_ext_periodic_both_paths(d_total, k_over_d):
    for i in range(1, 7):
        assert ext(k_over_d, k_over_d, i).dim == 1
    res = non_minimal_resolution(k_over_d, 7)
    for i in range(1, 7):
        assert ext_from_resolution(res, k_over_d, i).dim == 1
    assert ext(k_over_d, k_over_d, 0).dim == 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(quiver=monomial_quivers(),
       p=st.sampled_from([2, 3, 5, 101, 65521]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ext_is_independent_of_the_resolution(quiver, p, seed):
    # the padded resolution has an extra summand in degrees 0 and 1, so
    # its cocycles and coboundaries differ there; Ext^i does not
    n, arrows, relations = quiver
    a = small_quiver_algebra(n, arrows, relations, FieldSpec(p))
    if a is None:
        return  # more than 30 paths
    rng = np.random.default_rng(seed)
    m, y = simples(a)[rng.integers(n)], random_module(a, rng)
    if any(syzygy(m, i).dim > 16 for i in (1, 2, 3)):
        return  # wild algebras: the syzygies grow exponentially
    minimal = minimal_projective_resolution(m, 3)
    padded = non_minimal_resolution(m, 3)
    for i in range(3):
        assert ext_from_resolution(minimal, y, i).dim == \
            ext_from_resolution(padded, y, i).dim


def _ext_oracle(res, n, upto):
    """(dim, cocycles, coboundaries) of Ext^0..Ext^upto from the Kronecker
    hom spaces of the terms and the matrices of precomposition."""
    spaces = [hom_space(t, n) for t in res.terms[: upto + 2]]
    ranks = [rank(_precompose_matrix(spaces[j], spaces[j + 1], res.diffs[j]))
             for j in range(upto + 1)]
    cocycles = [s.dim - r for s, r in zip(spaces, ranks)]
    return [(z - b, z, b) for z, b in zip(cocycles, [0] + ranks)]


def _rebased(a, rng):
    """a in the basis given by the rows of a random invertible matrix g, so
    its idempotents are no longer basis vectors."""
    p = a.field.p
    ginv = None
    while ginv is None:
        g = rng.integers(0, p, size=(a.dim, a.dim))
        ginv = inverse(FpMatrix(g, a.field))
    # sc[i, j] = (sum_kl g[i, k] g[j, l] a.sc[k, l]) g^-1
    left = np.tensordot(g, a.sc, (1, 0)) % p
    sc = np.tensordot(left, g, (1, 1)).transpose(0, 2, 1) % p
    return Algebra(a.field, sc @ ginv.arr % p, a.unit @ ginv.arr % p)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 101, 65521]),
       seed=st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
@example(quiver=(5, [(0, 1)], []), p=2, seed=None)
@example(quiver=(5, [(0, 1)], []), p=65521, seed=5)
def test_block_read_ext_matches_the_hom_space_oracle(quiver, p, seed):
    # e_i.N = 0 for most pairs of vertices of the five-vertex quiver; with
    # a seed, the algebra is taken in a random basis
    n, arrows, relations = quiver
    a = small_quiver_algebra(n, arrows, relations, FieldSpec(p))
    if a is None:
        return  # more than 30 paths
    if seed is not None:
        a = _rebased(a, np.random.default_rng(seed))
    targets = [LeftModule.regular(a)] + simples(a)
    for m in simples(a):
        if any(syzygy(m, i).dim > 16 for i in (1, 2, 3)):
            continue  # wild algebras: the syzygies grow exponentially
        for res in (minimal_projective_resolution(m, 3),
                    non_minimal_resolution(m, 3)):
            for y in targets:
                got = [(e.dim, e.cocycles, e.coboundaries)
                       for e in ext_dims(res, y, 2)]
                assert got == _ext_oracle(res, y, 2)


def test_ext_dims_needs_a_common_algebra(d_total, k_over_d):
    res = minimal_projective_resolution(k_over_d, 2)
    other = LeftModule.regular(a2_algebra(FIELD2))
    with pytest.raises(AlgebraError):
        ext_dims(res, other, 1)


def test_gp_check_on_the_wild_simple_builds_no_hom_space(monkeypatch):
    s = simples(local_wild_algebra(FIELD2))[0]

    def refuse(*args):
        raise AssertionError("HomSpace built")
    monkeypatch.setattr(HomSpace, "__init__", refuse)
    v = gp_check(s, 4)
    assert v.answer == CERTIFIED_NO
    assert v.certificate["reason"] == "nonvanishing_ext_vs_regular"


def test_ext_vanishes_on_projectives(d_total, k_over_d):
    reg = LeftModule.regular(d_total)
    assert ext(reg, k_over_d, 1).dim == 0
    assert ext(reg, k_over_d, 3).dim == 0


def test_pd_of_triangular_simples():
    a2 = a2_algebra(FIELD2)
    dims = sorted(pd_bounded(s).value for s in simples(a2))
    assert dims == [0, 1]
    assert all(pd_bounded(s).is_finite() for s in simples(a2))


def test_id_of_dual_numbers_regular(d_total):
    v = id_bounded(LeftModule.regular(d_total))
    assert v == DimensionVerdict.finite(0)
    vr = id_bounded(LeftModule.regular(opposite_algebra(d_total)))
    assert vr == DimensionVerdict.finite(0)


def test_fd_equals_pd(d_total, k_over_d):
    assert fd_bounded(k_over_d, 5) == pd_bounded(k_over_d, 5)


def test_unbounded_dimension_reports_exceeds(d_total, k_over_d):
    v = pd_bounded(k_over_d, 4)
    assert v == DimensionVerdict.exceeds(4)
    assert not v.is_finite()


def test_wild_algebra_dimensions():
    w = local_wild_algebra(FIELD2)
    s = simples(w)[0]
    assert pd_bounded(s, 3) == DimensionVerdict.exceeds(3)
    assert id_bounded(LeftModule.regular(w), 3) == DimensionVerdict.exceeds(3)


def _cover_lookups(monkeypatch):
    """The modules a dimension walk asks for a cover of, from now on."""
    asked, look = [], extalg.homology.projective_cover
    monkeypatch.setattr(extalg.homology, "projective_cover",
                        lambda m: asked.append(m) or look(m))
    return asked


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_pd_verdicts_are_kept_per_bound(monkeypatch, p):
    # S_0 of 0 -> 1 -> 2 modulo the path of length 2 has pd 2: at bound 1
    # and at bound 3 it keeps two verdicts, and a second call of either,
    # or of id_bounded on a module whose kept dual was walked, neither
    # builds a cover nor asks for one
    a = monomial_quiver_algebra(3, [(0, 1), (1, 2)], [[0, 1]], FieldSpec(p))
    s0, reg = simples(a)[-1], LeftModule.regular(a)
    verdicts = [pd_bounded(s0, 1), pd_bounded(s0, 3),
                pd_bounded(dual_module(reg), 3)]
    assert verdicts[:2] == [DimensionVerdict.exceeds(1),
                            DimensionVerdict.finite(2)]
    built = _count_cover_builds(monkeypatch)
    asked = _cover_lookups(monkeypatch)
    assert [pd_bounded(s0, 1), pd_bounded(s0, 3), id_bounded(reg, 3)] == \
        verdicts
    assert not built and not asked
    assert id_bounded(reg, 2) == verdicts[2] and asked


# ---------------------------------------------------------------------------
# dimension verdicts against the walk to the bound


def _walked_pd(m, bound, cap=None):
    """pd_bounded's verdict off the cover of every syzygy up to the bound,
    with no early stop; None once a syzygy has dimension above cap."""
    for d in range(bound + 1):
        m = projective_cover(m).kernel
        if m.dim == 0:
            return DimensionVerdict.finite(d)
        if cap is not None and m.dim > cap:
            return None
    return DimensionVerdict.exceeds(bound)


def _check_dimension_walks(a, seed, top=5, cap=None):
    """pd_bounded and id_bounded against _walked_pd at bounds 0..top, on
    the simples, both regular modules, both duals of A and a seeded random
    module, left and right (over A^op)."""
    rng, op = np.random.default_rng(seed), opposite_algebra(a)
    left = simples(a) + [LeftModule.regular(a),
                         dual_module(LeftModule.regular(op)),
                         random_module(a, rng)]
    right = [dual_module(s) for s in simples(a)] + [
        LeftModule.regular(op), dual_module(LeftModule.regular(a)),
        random_module(op, rng)]
    for m in left + right:
        for bound in range(top + 1):
            want = _walked_pd(m, bound, cap)
            if want is not None:
                assert pd_bounded(m, bound) == want, (m, bound)
            want = _walked_pd(dual_module(m), bound, cap)
            if want is not None:
                assert id_bounded(m, bound) == want, (m, bound)


def _path(n):
    return lambda field: monomial_quiver_algebra(
        n, [(i, i + 1) for i in range(n - 1)], [], field)


def _nakayama(n, k):
    """N(n,k): the cyclic quiver on n vertices, paths of length k zero."""
    return lambda field: monomial_quiver_algebra(
        n, [(i, (i + 1) % n) for i in range(n)],
        [[(s + j) % n for j in range(k)] for s in range(n)], field)


def _times_wild(first):
    return lambda field: product_algebra(first(field),
                                         local_wild_algebra(field))


DIMENSION_ALGEBRAS = {
    "dual_numbers": lambda field: square_zero_extension(field).total,
    "triangular": lambda field: triangular_extension(field).total,
    "a2": a2_algebra,
    "wild": local_wild_algebra,
    "dual_numbers_squared": lambda field: double_extension(field).total,
    "nakayama_ring": lambda field: nakayama_ring(field).total,
    "a2_ring": lambda field: a2_morita_ring(field).total,
    "product_ring": lambda field: product_morita_ring(field).total,
    "A3": _path(3), "A4": _path(4),
    "N(2,2)": _nakayama(2, 2), "N(3,2)": _nakayama(3, 2),
    "N(3,3)": _nakayama(3, 3), "N(4,3)": _nakayama(4, 3),
    "dual_numbers_x_wild": _times_wild(
        lambda field: square_zero_extension(field).total),
    "N(3,2)_x_wild": _times_wild(_nakayama(3, 2)),
}


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
@pytest.mark.parametrize("name", sorted(DIMENSION_ALGEBRAS))
def test_dimension_verdicts_match_the_walk_to_the_bound(name, p):
    # over the wild algebra and its products the syzygies are semisimple
    # from degree 1 on, and the verdicts stop before the bound
    _check_dimension_walks(DIMENSION_ALGEBRAS[name](FieldSpec(p)), p)


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_dimension_verdicts_over_wild_by_wild_match_the_walk(p):
    # the syzygies of wild |x wild are not semisimple and grow fast
    wild = local_wild_algebra(FieldSpec(p))
    _check_dimension_walks(
        trivial_extension(wild, Bimodule.regular(wild)).total, p, top=3)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 101, 65521]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(quiver=(3, [(2, 0), (0, 2), (0, 1)],
                 [(0, 1, 0), (1, 0, 1), (1, 0, 2), (0, 1)]), p=2, seed=0)
def test_dimension_verdicts_over_monomial_quivers_match_the_walk(quiver, p,
                                                                 seed):
    # in the example a simple of finite pd has a semisimple and a
    # non-semisimple syzygy whose covers name the same PIM: a repeated
    # support certifies nothing unless both syzygies are semisimple
    n, arrows, relations = quiver
    a = small_quiver_algebra(n, arrows, relations, FieldSpec(p))
    if a is None:
        return  # more than 30 paths
    # wild algebras: the walk to bound 5 meets syzygies of dimension 6^5
    _check_dimension_walks(a, seed, cap=64)


def test_hom_complex_reverses_indices(d_total, k_over_d):
    res = minimal_projective_resolution(k_over_d, 2)
    cx = ChainComplex(-res.length(), res.terms[::-1], res.diffs[::-1])
    hc = hom_complex(cx, LeftModule.regular(d_total))
    assert hc.lo == -cx.hi and hc.hi == -cx.lo
    # Hom(-, A) of the exact-at-interior resolution of k stays exact
    # at the interior because D is self-injective
    ok, _ = is_exact_complex(hc)
    assert ok


def test_default_bound_scales():
    assert default_bound(a2_algebra(FIELD2)) == 10



def test_hom_complex_builds_one_hom_space_per_term_content(monkeypatch,
                                                           d_total,
                                                           k_over_d):
    # the window of a complete resolution over D = k[y]/(y^2) repeats the
    # term D; Hom(-, q) and Hom(q, -) build one space for it, and give the
    # complexes that one space per term gives
    from extalg import homology
    from extalg.gorenstein import complete_resolution
    cx = complete_resolution(k_over_d, 3).complex
    assert len(cx.modules) == 7
    built = []
    monkeypatch.setattr(homology, "hom_space",
                        lambda m, n: built.append(1) or hom_space(m, n))
    got = [f(q) for q in (k_over_d, LeftModule.regular(d_total))
           for f in (lambda q: homology.hom_complex(cx, q),
                     lambda q: homology.hom_complex_co(q, cx))]
    assert len(built) == 4
    monkeypatch.setattr(homology, "_content", id)
    per_term = [f(q) for q in (k_over_d, LeftModule.regular(d_total))
                for f in (lambda q: homology.hom_complex(cx, q),
                          lambda q: homology.hom_complex_co(q, cx))]
    for a, b in zip(got, per_term):
        assert a.lo == b.lo
        assert [m.dim for m in a.modules] == [m.dim for m in b.modules]
        assert [d.matrix for d in a.diffs] == [d.matrix for d in b.diffs]
