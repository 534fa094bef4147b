import numpy as np
import pytest

from conftest import (FIELD2, FIELD3, a2_algebra, double_extension,
                      random_copair, random_module, random_pair,
                      random_right_pair, same_action,
                      square_zero_extension, triangular_extension)
from extalg.algebra import (Bimodule, LeftModule, ModuleHom, block_sum_module,
                            field_algebra, hom_from_bimodule, hom_space,
                            monomial_quiver_algebra, opposite_algebra,
                            tensor_bimodule_left, tensor_map_second)
from extalg.homology import id_bounded, pd_bounded
from extalg.linalg import FieldSpec, FpMatrix, is_invertible
from extalg.structure import (is_injective, is_projective,
                              projective_indecomposables, simples)
from extalg.trivext import (CopairModule, PairModule, TrivextError,
                            _coextend, _extend, classify_injective,
                            classify_projective, copair_to_module, functor_C,
                            functor_H, functor_K, functor_T, functor_U,
                            functor_Z_copair, functor_Z_pair, hom_iso_copair,
                            induced_delta, induced_gamma, module_to_copair,
                            module_to_pair, opposite_extension,
                            pair_to_module, right_pair, ses_of_copair,
                            ses_of_pair, tensor_iso_pair, trivial_extension)


@pytest.fixture(scope="module")
def exts():
    return [square_zero_extension(FIELD2), triangular_extension(FIELD2),
            square_zero_extension(FIELD3)]


def test_dual_numbers_table():
    t = square_zero_extension(FIELD2)
    assert t.total.dim == 2
    # basis (1, y): y^2 = 0
    y = np.array([0, 1])
    assert not t.total.mult(y, y).any()
    assert (t.total.mult(t.total.unit, y) == y).all()


def test_triangular_table_matches_quiver():
    from conftest import a2_algebra
    from extalg.homology import pd_bounded
    t = triangular_extension(FIELD2)
    a2 = a2_algebra(FIELD2)
    assert t.total.dim == a2.dim == 3
    for alg in (t.total, a2):
        assert sorted(pd_bounded(s).value for s in simples(alg)) == [0, 1]
        assert id_bounded(LeftModule.regular(alg)).value == 1
        right = LeftModule.regular(opposite_algebra(alg))
        assert id_bounded(right).value == 1


def test_zero_ideal_extension():
    k = field_algebra(FIELD2)
    t = trivial_extension(k, Bimodule.zero(k))
    assert t.total.dim == 1
    pair = module_to_pair(LeftModule.regular(t.total), t)
    assert pair.alpha.matrix.cols == 0
    assert pair_to_module(pair).dim == 1


def test_leg_mismatch_rejected():
    k2 = field_algebra(FIELD2)
    other = field_algebra(FIELD3)
    with pytest.raises(TrivextError):
        trivial_extension(k2, Bimodule.regular(other))


def test_square_zero_law_enforced():
    t = square_zero_extension(FIELD2)
    x = LeftModule.regular(t.base)
    # alpha = identity on M ox X = k does not square to zero
    with pytest.raises(TrivextError):
        PairModule(t, x, FpMatrix.identity(1, FIELD2))
    with pytest.raises(TrivextError):
        CopairModule(t, x, FpMatrix.identity(1, FIELD2))


def test_pair_round_trips(exts):
    rng = np.random.default_rng(5)
    for t in exts:
        for _ in range(5):
            pair = random_pair(t, rng)
            back = module_to_pair(pair_to_module(pair), t)
            assert same_action(back.module, pair.module)
            copair = random_copair(t, rng)
            backc = module_to_copair(copair_to_module(copair), t)
            assert same_action(backc.module, copair.module)
            rp = random_right_pair(t, rng)
            back_r = module_to_pair(pair_to_module(rp), opposite_extension(t))
            assert back_r.alpha.matrix == rp.alpha.matrix
            assert same_action(back_r.x, rp.x)


def test_pair_copair_same_module(exts):
    # converting a total module through either presentation returns it
    rng = np.random.default_rng(6)
    for t in exts:
        mod = random_module(t.total, rng)
        via_pair = pair_to_module(module_to_pair(mod, t))
        via_copair = copair_to_module(module_to_copair(mod, t))
        assert all(a == b for a, b in zip(via_pair.action, mod.action))
        assert all(a == b for a, b in zip(via_copair.action, mod.action))


def test_functor_identities(exts):
    rng = np.random.default_rng(7)
    for t in exts:
        x = random_module(t.base, rng)
        ct, _ = functor_C(functor_T(t, x))
        assert ct.dim == x.dim
        assert all(a == b for a, b in zip(ct.action, x.action))
        assert functor_U(functor_Z_pair(t, x)) is x
        kh, _ = functor_K(functor_H(t, x))
        assert kh.dim == x.dim
        assert all(a == b for a, b in zip(kh.action, x.action))


def test_t_of_projective_is_projective(exts):
    for t in exts:
        reg = LeftModule.regular(t.base)
        tp = pair_to_module(functor_T(t, reg))
        assert is_projective(tp)
        he = copair_to_module(functor_H(t, reg))
        # H of an injective base module is injective over the total algebra
        if is_injective(reg):
            assert is_injective(he)


def test_classify_projective_and_injective():
    t = square_zero_extension(FIELD2)
    reg = LeftModule.regular(t.base)
    got = classify_projective(functor_T(t, reg))
    assert got is not None
    cand, wit = got
    assert cand.dim == reg.dim and wit.is_iso()
    assert classify_projective(functor_Z_pair(t, reg)) is None
    gotc = classify_injective(functor_H(t, reg))
    assert gotc is not None
    assert classify_injective(functor_Z_copair(t, reg)) is None


def test_classify_over_a_large_semisimple_base():
    # GF(2)^17 extended by zero: the isomorphism to T(P) or H(E) lives in
    # a hom space of 2^17 elements
    a = monomial_quiver_algebra(17, [], [], FIELD2)
    t = trivial_extension(a, Bimodule.zero(a))
    reg = LeftModule.regular(a)
    for got in (classify_projective(functor_T(t, reg)),
                classify_injective(functor_H(t, reg))):
        assert got is not None
        cand, wit = got
        wit.validate()
        assert cand.dim == reg.dim and wit.is_iso()


def test_canonical_sequences(exts):
    rng = np.random.default_rng(8)
    for t in exts:
        for _ in range(5):
            pair = random_pair(t, rng)
            ses = ses_of_pair(pair)
            assert ses.is_exact()
            copair = random_copair(t, rng)
            sesc = ses_of_copair(copair)
            assert sesc.is_exact()


def test_induced_factorizations(exts):
    rng = np.random.default_rng(9)
    for t in exts:
        for _ in range(5):
            pair = random_pair(t, rng)
            delta = induced_delta(pair)
            delta.validate()
            copair = random_copair(t, rng)
            gamma = induced_gamma(copair)
            gamma.validate()


def test_comparison_isomorphisms(exts):
    rng = np.random.default_rng(10)
    for t in exts:
        for _ in range(5):
            pair = random_pair(t, rng)
            w = random_module(opposite_algebra(t.base), rng)
            iso = tensor_iso_pair(w, pair)
            assert is_invertible(iso.matrix)
            copair = random_copair(t, rng)
            x = random_module(t.base, rng)
            iso2 = hom_iso_copair(x, copair)
            assert is_invertible(iso2.matrix)


def test_tensor_iso_pair_shares_its_tensor(exts):
    # W ox X is formed over the one GF(p) algebra, so repeated calls find
    # the tensor they built before instead of adding an entry each time
    rng = np.random.default_rng(11)
    for t in exts:
        pair = random_pair(t, rng)
        w = random_module(opposite_algebra(t.base), rng)
        isos = [tensor_iso_pair(w, pair) for _ in range(3)]
        assert all(iso.matrix == isos[0].matrix for iso in isos)
        tensors = [k for k in pair.module._cache
                   if isinstance(k, tuple) and k[0] == "tensors"]
        assert len(tensors) == 1


def test_opposite_extension_tables():
    t = triangular_extension(FIELD2)
    top = opposite_extension(t)
    assert (top.total.sc == np.transpose(t.total.sc, (1, 0, 2))).all()
    assert top.total is opposite_algebra(t.total)
    assert opposite_extension(top) is t
    # a commutative extension is its own opposite, as its total algebra is
    d = square_zero_extension(FIELD2)
    assert opposite_extension(d) is d
    assert opposite_algebra(d.total) is d.total


def _tensor_T(t, x):
    """T(X) built as a pair: X + M ox X with structure map the inclusion of
    the second summand after M ox (projection onto the first)."""
    ts0 = tensor_bimodule_left(t.bimodule, x)
    w = block_sum_module([x, ts0.space])
    proj = ModuleHom(w, x, FpMatrix(np.eye(x.dim, w.dim, dtype=np.int64),
                                    t.field))
    incl = np.eye(w.dim, ts0.space.dim, -x.dim, dtype=np.int64)
    m_proj = tensor_map_second(tensor_bimodule_left(t.bimodule, w), ts0, proj)
    return PairModule(t, w, FpMatrix(incl, t.field) @ m_proj.matrix)


def _hom_H(t, y):
    """H(Y) built as a copair: Hom(M, Y) + Y with f going to the
    coordinates of incl o f in Hom(M, Hom(M, Y) + Y)."""
    hm = hom_from_bimodule(t.bimodule, y)
    w = block_sum_module([hm.space, y])
    hw = hom_from_bimodule(t.bimodule, w)
    incl = np.eye(w.dim, y.dim, -hm.space.dim, dtype=np.int64)
    lifted = hw.homs.coords_many(incl @ hm.homs.basis_array())
    return CopairModule(t, w, FpMatrix(np.hstack(
        [lifted.arr, np.zeros((hw.homs.dim, y.dim), dtype=np.int64)]),
        t.field))


def test_T_and_H_match_their_pair_and_copair_constructions():
    a2 = a2_algebra(FIELD3)
    rng = np.random.default_rng(15)
    for t in (square_zero_extension(FIELD2), square_zero_extension(FIELD3),
              triangular_extension(FIELD2), triangular_extension(FIELD3),
              double_extension(FIELD2),
              trivial_extension(a2, Bimodule.regular(a2))):
        pims = [p for p, _ in projective_indecomposables(t.base)]
        mods = [random_module(t.base, rng, 3) for _ in range(3)] + \
            simples(t.base) + pims
        for x in mods:
            tp, hp = _tensor_T(t, x), _hom_H(t, x)
            assert same_action(functor_T(t, x).module, tp.module)
            assert same_action(functor_H(t, x).module, hp.module)
            for got, want in ((_extend(t, x), pair_to_module(tp)),
                              (_coextend(t, x), copair_to_module(hp))):
                assert got.over is t.total
                assert len(got.action) == len(want.action)
                assert all(a == b for a, b in zip(got.action, want.action))


def test_each_pair_axiom_is_named():
    # the maps are module maps; only the square-zero axiom breaks
    t = square_zero_extension(FIELD2)
    one = FpMatrix.identity(1, FIELD2)
    with pytest.raises(TrivextError,
                       match="^structure map does not square to zero$"):
        PairModule(t, LeftModule.regular(t.base), one)
    with pytest.raises(TrivextError,
                       match="^costructure map does not square to zero$"):
        CopairModule(t, LeftModule.regular(t.base), one)
    with pytest.raises(TrivextError,
                       match="^structure map does not square to zero$"):
        right_pair(t, LeftModule.regular(opposite_algebra(t.base)), one)


def test_maps_that_are_not_module_maps_are_named(tri_ext):
    # over the triangular extension M ox R and Hom(M, R) of R = k x k are
    # one-dimensional, and a module map lands in, resp. comes from, one
    # summand of R
    x = LeftModule.regular(tri_ext.base)
    w = LeftModule.regular(opposite_algebra(tri_ext.base))
    for build, module, good, bad, name in (
            (PairModule, x, [[0], [1]], [[1], [0]], "structure map"),
            (CopairModule, x, [[1, 0]], [[0, 1]], "costructure map"),
            (right_pair, w, [[1], [0]], [[0], [1]], "structure map")):
        build(tri_ext, module, FpMatrix(good, FIELD2))
        with pytest.raises(TrivextError,
                           match=f"^{name} is not a module map$"):
            build(tri_ext, module, FpMatrix(bad, FIELD2))


@pytest.mark.parametrize("p", [2, 3])
def test_law_check_matches_the_square_zero_composites(p):
    # for linear structure maps, the law of the total module holds exactly
    # when alpha o (M ox alpha) and Hom(M, beta) o beta vanish
    field = FieldSpec(p)
    rng = np.random.default_rng(p)
    seen = set()
    for t in (square_zero_extension(field), triangular_extension(field),
              double_extension(field)):
        for _ in range(8):
            x = random_module(t.base, rng, 3)
            ts, hm = (tensor_bimodule_left(t.bimodule, x),
                      hom_from_bimodule(t.bimodule, x))
            for source, target, build, composite in (
                    (ts.space, x, PairModule, lambda c: (
                        c.alpha.matrix @ c.m_alpha().matrix)),
                    (x, hm.space, CopairModule, lambda c: (
                        c.beta_post().matrix @ c.beta.matrix))):
                hs = hom_space(source, target)
                for _ in range(3):
                    mat = hs.element(rng.integers(0, p, size=hs.dim)).matrix
                    unchecked = build(t, x, mat, validate=False)
                    holds = composite(unchecked).is_zero()
                    seen.add(holds)
                    try:
                        build(t, x, mat)
                    except TrivextError:
                        assert not holds
                    else:
                        assert holds
    assert seen == {True, False}
