import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIELD2, a2_algebra, local_wild_algebra, \
    monomial_quivers, random_module, square_zero_extension
from extalg.algebra import (Algebra, AlgebraError, HomSpace, LeftModule,
                            RightModule, hom_space, monomial_quiver_algebra)
from extalg.gorenstein import CERTIFIED_NO, gp_check
from extalg.homology import (DimensionVerdict, _precompose_matrix,
                             default_bound, ext, ext_dims,
                             ext_from_resolution, fd_bounded, hom_complex,
                             id_bounded, is_exact_complex,
                             minimal_projective_resolution,
                             non_minimal_resolution, pd_bounded, syzygy)
from extalg.linalg import FieldSpec, FpMatrix, inverse, rank
from extalg.structure import is_isomorphic, simples


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
    cx = res.as_complex()
    ok, where = is_exact_complex(cx)
    assert ok, where


def test_syzygy_periodicity(d_total, k_over_d):
    s2 = syzygy(k_over_d, 2)
    assert is_isomorphic(s2, k_over_d)


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
    try:
        a = monomial_quiver_algebra(n, arrows, relations, FieldSpec(p),
                                    max_dim=30)
    except AlgebraError:
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
    try:
        a = monomial_quiver_algebra(n, arrows, relations, FieldSpec(p),
                                    max_dim=30)
    except AlgebraError:
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
    vr = id_bounded(RightModule.regular(d_total))
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


def test_hom_complex_reverses_indices(d_total, k_over_d):
    res = minimal_projective_resolution(k_over_d, 2)
    cx = res.as_complex()
    hc = hom_complex(cx, LeftModule.regular(d_total))
    assert hc.lo == -cx.hi and hc.hi == -cx.lo
    # Hom(-, A) of the exact-at-interior resolution of k stays exact
    # at the interior because D is self-injective
    ok, _ = is_exact_complex(hc)
    assert ok


def test_default_bound_scales():
    assert default_bound(a2_algebra(FIELD2)) == 10
