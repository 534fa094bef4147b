import numpy as np
import pytest

from conftest import FIELD2, a2_algebra, local_wild_algebra, \
    square_zero_extension
from extalg.algebra import (HomSpace, LeftModule, RightModule,
                            direct_sum_modules, field_algebra, is_isomorphic,
                            product_algebra)
from extalg.linalg import FieldSpec, FpMatrix, inverse, rank
from extalg.structure import (_find_idempotent_endo, _power_mod,
                              algebra_radical, chop, injective_envelope,
                              injective_indecomposables, is_injective,
                              is_projective, is_simple, projective_cover,
                              projective_indecomposables, radical_of_module,
                              simples, split_module, spin, top_of_module)


@pytest.fixture(scope="module")
def d_total():
    return square_zero_extension(FIELD2).total


def test_spin_generates_submodule(d_total):
    reg = LeftModule.regular(d_total)
    # the ideal element generates the 1-dim socle
    rows = spin(reg, [0, 1])
    assert rows.rows == 1
    # the unit generates everything
    assert spin(reg, [1, 0]).rows == 2


def test_chop_dual_numbers(d_total):
    series = chop(LeftModule.regular(d_total))
    assert [f.dim for f in series.factors] == [1, 1]
    assert all(is_simple(f) for f in series.factors)


def test_chop_seed_invariance(d_total):
    a2 = a2_algebra(FIELD2)
    for mod in (LeftModule.regular(d_total), LeftModule.regular(a2)):
        base = sorted(f.dim for f in chop(mod, 0).factors)
        for seed in (1, 2, 7):
            assert sorted(f.dim for f in chop(mod, seed).factors) == base


def test_simples_and_radical():
    a2 = a2_algebra(FIELD2)
    s = simples(a2)
    assert len(s) == 2 and all(x.dim == 1 for x in s)
    assert not is_isomorphic(s[0], s[1])
    rad = algebra_radical(a2)
    assert rad.rows == 1  # the arrow spans the radical
    d = square_zero_extension(FIELD2).total
    assert algebra_radical(d).rows == 1


def test_radical_and_top_of_module(d_total):
    reg = LeftModule.regular(d_total)
    radm, _ = radical_of_module(reg)
    assert radm.dim == 1
    top, proj = top_of_module(reg)
    assert top.dim == 1 and rank(proj.matrix) == 1


def test_split_module_triangular():
    a2 = a2_algebra(FIELD2)
    pieces = split_module(LeftModule.regular(a2))
    assert sorted(p.dim for p, _ in pieces) == [1, 2]
    for piece, incl in pieces:
        incl.validate()


def test_pims_triangular():
    a2 = a2_algebra(FIELD2)
    pims = projective_indecomposables(a2)
    assert sorted(p.dim for p, _ in pims) == [1, 2]
    for p, s in pims:
        assert is_projective(p)
        assert is_simple(s)


def test_projective_cover_minimality():
    a2 = a2_algebra(FIELD2)
    for s in simples(a2):
        pres = projective_cover(s)
        assert rank(pres.epi.matrix) == s.dim
        # the cover of a simple is the matching indecomposable
        top, _ = top_of_module(pres.cover)
        assert top.dim == s.dim
    # covers of projectives are isomorphisms
    reg = LeftModule.regular(a2)
    assert projective_cover(reg).kernel.dim == 0


def test_is_projective_closed_under_sums(d_total):
    reg = LeftModule.regular(d_total)
    free2, _, _ = direct_sum_modules([reg, reg])
    assert is_projective(free2)
    triv = LeftModule(d_total, [FpMatrix.identity(1, FIELD2),
                                FpMatrix.zeros(1, 1, FIELD2)])
    assert not is_projective(triv)


def test_self_injectivity_of_dual_numbers(d_total):
    assert is_injective(LeftModule.regular(d_total))
    env, mono = injective_envelope(
        LeftModule(d_total, [FpMatrix.identity(1, FIELD2),
                             FpMatrix.zeros(1, 1, FIELD2)]))
    assert env.dim == 2 and rank(mono.matrix) == 1
    mono.validate()


def test_injective_indecomposables_triangular():
    a2 = a2_algebra(FIELD2)
    iims = injective_indecomposables(a2)
    assert sorted(e.dim for e, _ in iims) == [1, 2]
    for e, _ in iims:
        assert is_injective(e)


def test_right_module_side():
    a2 = a2_algebra(FIELD2)
    reg = RightModule.regular(a2)
    assert is_projective(reg)
    series = chop(reg)
    assert sorted(f.dim for f in series.factors) == [1, 1, 1]


def test_wild_algebra_structure():
    w = local_wild_algebra(FIELD2)
    assert w.dim == 3
    assert len(simples(w)) == 1
    assert algebra_radical(w).rows == 2
    # its simple has a 2-dim syzygy inside the 3-dim cover
    pres = projective_cover(simples(w)[0])
    assert pres.cover.dim == 3 and pres.kernel.dim == 2


def _exact_power(mat, e, p):
    """mat**e over GF(p) in Python integers, which cannot overflow."""
    rows = [[int(x) for x in row] for row in mat]
    n = len(rows)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = [[sum(out[i][k] * rows[k][j] for k in range(n)) % p
                for j in range(n)] for i in range(n)]
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("p, dims", [(65521, range(3, 9)), (101, range(7, 11))])
def test_fitting_power_is_exact(p, dims):
    rng = np.random.default_rng(p)
    for n in dims:
        mat = rng.integers(0, p, size=(n, n))
        assert (_power_mod(mat, n, p) == _exact_power(mat, n, p)).all()


def test_fitting_split_over_large_prime():
    # k^4 at p = 65521 in a scrambled basis: End is too big to sweep, so the
    # split comes from a Fitting power of a dense random endomorphism
    field = FieldSpec(65521)
    k = field_algebra(field)
    k2, _, _ = product_algebra(k, k)
    k4, _, _ = product_algebra(k2, k2)
    rng = np.random.default_rng(5)
    while True:
        change = FpMatrix(rng.integers(0, field.p, size=(4, 4)), field)
        back = inverse(change)
        if back is not None:
            break
    m = LeftModule(k4, [change @ am @ back for am in k4.lmats])
    found = _find_idempotent_endo(m, seed=0)
    assert found is not None and found[0] == "fitting"
    stable = found[1]
    for am in m.action:
        assert am @ stable == stable @ am
    assert 0 < rank(stable) < 4
    assert rank(stable @ stable) == rank(stable)


def test_one_dimensional_endomorphisms_are_not_swept(monkeypatch):
    # End(m) = k.id has no idempotent besides 0 and 1, so splitting a
    # 1-dimensional module builds no endomorphism at all (the sweep of
    # GF(65521) would build 65520)
    built = []
    element = HomSpace.element

    def counted(self, coords):
        built.append(coords)
        return element(self, coords)

    monkeypatch.setattr(HomSpace, "element", counted)
    m = LeftModule.regular(field_algebra(FieldSpec(65521)))
    pieces = split_module(m)
    assert len(pieces) == 1 and pieces[0][0] is m
    assert not built
