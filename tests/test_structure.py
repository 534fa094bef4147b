import gc
import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (FIELD2, _count_cover_builds, a2_algebra,
                      a2_morita_ring, double_extension, local_wild_algebra,
                      monomial_quivers, nakayama_ring, product_morita_ring,
                      random_module, small_quiver_algebra,
                      square_zero_extension, triangular_extension)
from extalg import structure
from extalg.algebra import (Algebra, HomSpace, LeftModule, _content,
                            _echelon_submodule, block_sum_module,
                            dual_module, field_algebra, hom_space,
                            monomial_quiver_algebra, opposite_algebra,
                            product_algebra, quotient_module,
                            row_space_of_columns)
from extalg.gorenstein import (CERTIFIED_NO, UNKNOWN, gorenstein_regime,
                               gp_check)
from extalg.homology import (DimensionVerdict, ext, id_bounded,
                             minimal_projective_resolution, pd_bounded)
from extalg.linalg import (FieldSpec, FpMatrix, LinalgError, echelon_coords,
                           inverse, kernel_basis, quotient_maps, rank, rref,
                           row_basis, vstack)
from extalg.structure import (_pim_triples, algebra_radical, chop,
                              injective_envelope,
                              find_isomorphism, injective_indecomposables,
                              is_injective, is_projective, projective_cover,
                              projective_indecomposables, radical_of_module,
                              simples, split_module, spin, top_of_module)
from test_linalg import _record_casts
from test_resolution_fingerprint import _put, _quivers


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
    assert all(len(chop(f).factors) == 1 for f in series.factors)


def _invertible(n, field, rng):
    """A random invertible n x n matrix and its inverse."""
    while True:
        g = FpMatrix(rng.integers(0, field.p, size=(n, n)), field)
        gi = inverse(g)
        if gi is not None:
            return g, gi


def _conjugate(m, rng):
    """m in a random basis."""
    g, gi = _invertible(m.dim, m.over.field, rng)
    return LeftModule(m.over, [g @ am @ gi for am in m.action])


def test_chop_basis_invariance(d_total):
    a2 = a2_algebra(FIELD2)
    rng = np.random.default_rng(3)
    for mod in (LeftModule.regular(d_total), LeftModule.regular(a2)):
        base = sorted(f.dim for f in chop(mod).factors)
        for _ in range(3):
            assert sorted(f.dim for f in chop(_conjugate(mod, rng)).factors) \
                == base


def test_simples_and_radical():
    a2 = a2_algebra(FIELD2)
    s = simples(a2)
    assert len(s) == 2 and all(x.dim == 1 for x in s)
    assert find_isomorphism(s[0], s[1]) is None
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
        assert len(chop(s).factors) == 1


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
    free2 = block_sum_module([reg, reg])
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
    reg = LeftModule.regular(opposite_algebra(a2))
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


def test_fitting_split_over_large_prime():
    # k^4 at p = 65521 in a scrambled basis: End(m) = k^4 has four blocks
    field = FieldSpec(65521)
    k = field_algebra(field)
    k2 = product_algebra(k, k)
    k4 = product_algebra(k2, k2)
    m = _conjugate(LeftModule.regular(k4), np.random.default_rng(5))
    pieces = split_module(m)
    assert [piece.dim for piece, _ in pieces] == [1, 1, 1, 1]
    span = np.hstack([incl.matrix.arr for _, incl in pieces])
    assert rank(FpMatrix(span, field)) == 4
    for _, incl in pieces:
        incl.validate()


def test_split_matrix_endomorphisms_at_large_prime():
    # S + S + S for the simple S = k: End = M_3(k), a matrix block that
    # only zero divisors split
    field = FieldSpec(65521)
    s = LeftModule.regular(field_algebra(field))
    m = block_sum_module([s, s, s])
    m = _conjugate(m, np.random.default_rng(9))
    pieces = split_module(m)
    assert [piece.dim for piece, _ in pieces] == [1, 1, 1]
    span = np.hstack([incl.matrix.arr for _, incl in pieces])
    assert rank(FpMatrix(span, field)) == 3


def test_one_dimensional_endomorphisms_are_not_swept(monkeypatch):
    # End(m) = k.id has no idempotent besides 0 and 1, so splitting a
    # 1-dimensional module builds no endomorphism at all
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


# ---------------------------------------------------------------------------
# isomorphisms by matching indecomposable summands


def test_regular_module_of_a_large_semisimple_algebra_is_self_isomorphic():
    # GF(2)^17: Hom(reg, reg) has 2^17 elements, past any exhaustive sweep
    reg = LeftModule.regular(monomial_quiver_algebra(17, [], [], FIELD2))
    iso = find_isomorphism(reg, reg)
    assert iso is not None
    iso.validate()
    assert iso.is_iso()


def test_equal_dimensions_with_other_summands_are_not_isomorphic():
    a2 = a2_algebra(FIELD2)
    s0, s1 = simples(a2)
    twice = block_sum_module([s0, s0])
    mixed = block_sum_module([s0, s1])
    assert find_isomorphism(twice, mixed) is None
    assert find_isomorphism(mixed, twice) is None
    swapped = block_sum_module([s1, s0])
    iso = find_isomorphism(mixed, _conjugate(swapped,
                                             np.random.default_rng(3)))
    iso.validate()
    assert iso.is_iso()


def _uniserials(a):
    """The quotients P_i / rad^k(P_i), k >= 1, of every PIM: over the path
    algebra of a linear quiver, each indecomposable exactly once."""
    out = []
    for pim, _ in projective_indecomposables(a):
        rows = FpMatrix.identity(pim.dim, a.field)
        while rows.rows:
            rows = structure._radical_span(pim, rows.arr)
            out.append(quotient_module(pim, rows.transpose())[0])
    return out


def test_one_cover_per_content(monkeypatch):
    # the twins of a module (its dual, its left view, the regular modules
    # of its algebra, the opposite algebra's regime) are kept on what they
    # describe, so a job covers each content once, and a verdict covers
    # only what it reads
    built = _count_cover_builds(monkeypatch)
    wild = local_wild_algebra(FIELD2)
    assert gorenstein_regime(wild, 5)[0] == UNKNOWN
    # wild is commutative: D(A) is one content on both sides, one chain;
    # Omega^1 D(A) = S^3 and Omega^2 D(A) = S^6 are semisimple with the
    # same cover support, so the chain stops there, within the bound
    assert built == [3, 3, 6]
    built.clear()
    v = gp_check(simples(wild)[0], 5)
    assert (v.answer, v.certificate["index"]) == (CERTIFIED_NO, 1)
    # S, Omega^1 S and Omega^2 S: Ext^1 reads d_0 and d_1 only
    assert built == [1, 2, 4]

    def nakayama33():
        return monomial_quiver_algebra(3, [(0, 1), (1, 2), (2, 0)], [
            [s, (s + 1) % 3, (s + 2) % 3] for s in range(3)], FieldSpec(101))
    a = nakayama33()
    regime, dl, dr = gorenstein_regime(a)
    built.clear()
    assert gorenstein_regime(opposite_algebra(a)) == (regime, dr, dl)
    assert not built
    assert gorenstein_regime(opposite_algebra(nakayama33())) == \
        (regime, dr, dl)
    m = simples(a)[0]
    first = id_bounded(m)
    built.clear()
    assert id_bounded(m) == first and not built


@pytest.mark.parametrize("p", [2, 65521])
def test_wild_verdicts_without_a_bound_stop_at_a_repeated_syzygy(
        monkeypatch, p):
    # every syzygy over k<x,y>/(x,y)^2 is a power of its simple S, so each
    # walk stops at its second syzygy of cover support {S}; the walks to
    # the default bound 10 would cover modules of dimension up to 3 * 2^10
    built = _count_cover_builds(monkeypatch, limit=8)
    wild = local_wild_algebra(FieldSpec(p))
    s = simples(wild)[0]
    never = DimensionVerdict.exceeds(10)
    assert gorenstein_regime(wild) == (UNKNOWN, never, never)
    assert built == [3, 3, 6]
    assert pd_bounded(s) == never and id_bounded(s) == never
    v = gp_check(s)
    assert v.answer == CERTIFIED_NO and v.bound == 10
    assert v.certificate["index"] == 1
    # S and Omega^1 S for pd (D(S) has the content of S), Omega^2 S for
    # Ext^1
    assert built == [3, 3, 6, 1, 2, 4]


def test_split_is_kept_on_the_module(monkeypatch):
    a = a2_algebra(FIELD2)
    m = block_sum_module(simples(a) + [LeftModule.regular(a)])
    sources, build = [], structure.hom_space
    monkeypatch.setattr(structure, "hom_space",
                        lambda x, y: sources.append(x) or build(x, y))
    first = split_module(m)
    first.pop()  # find_isomorphism pops what it gets
    second = split_module(m)
    assert len(second) == len(first) + 1 == 4
    assert sum(x is m for x in sources) == 1


@pytest.mark.parametrize("p", [2, 65521])
def test_split_and_match_the_indecomposables_of_a4(p):
    field = FieldSpec(p)
    a = monomial_quiver_algebra(4, [(0, 1), (1, 2), (2, 3)], [], field)
    pieces = _uniserials(a)
    dims = sorted(x.dim for x in pieces)
    assert dims == [1, 1, 1, 1, 2, 2, 2, 3, 3, 4]
    m = block_sum_module(pieces)
    summands = split_module(m)
    assert sorted(x.dim for x, _ in summands) == dims
    span = np.hstack([incl.matrix.arr for _, incl in summands])
    assert rank(FpMatrix(span, field)) == m.dim == 20
    iso = find_isomorphism(m, _conjugate(m, np.random.default_rng(p)))
    iso.validate()
    assert iso.is_iso()
    # the top of P_1 in place of the top of P_0: same dimensions, but S_1
    # twice and S_0 not at all
    tops = [x for x in pieces if x.dim == 1]
    other = block_sum_module([tops[1] if x is tops[0] else x
                              for x in pieces])
    assert find_isomorphism(m, other) is None


# ---------------------------------------------------------------------------
# oracle net: closed-form answers in a random basis


def _rebased(sc, unit, field, g, gi):
    """Structure constants and unit of the same algebra in the basis b'_i =
    sum_j g[i, j] b_j, for g with inverse gi."""
    p = field.p
    prods = np.einsum("ia,jb,abk->ijk", g, g, sc % p) % p
    return Algebra(field, prods @ gi % p, unit @ gi % p)


def _scramble(sc, unit, field, rng):
    """The same algebra in a random basis (`_rebased`)."""
    g, gi = _invertible(len(unit), field, rng)
    return _rebased(sc, unit, field, g.arr, gi.arr)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(quiver=monomial_quivers(),
       p=st.sampled_from([2, 3, 5, 101, 65521]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_structure_of_random_monomial_quivers(quiver, p, seed):
    n, arrows, relations = quiver
    field = FieldSpec(p)
    path = small_quiver_algebra(n, arrows, relations, field)
    if path is None:
        return  # more than 30 paths
    # basis path b_k starts at vertex i exactly when b_k * e_i = b_k
    starts = sorted(int(sum(path.sc[k, i, k] for k in range(path.dim)))
                    for i in range(n))
    a = _scramble(path.sc, path.unit, field, np.random.default_rng(seed))
    assert algebra_radical(a).rows == path.dim - n
    assert [s.dim for s in simples(a)] == [1] * n
    assert sorted(pm.dim for pm, _ in projective_indecomposables(a)) == starts
    assert len(chop(LeftModule.regular(a)).factors) == path.dim
    _assert_radical_certified(a)


def _assert_radical_certified(a):
    """rad(A) is nilpotent, rad^k = 0 for some k <= dim A, and A/rad(A)
    has a zero trace radical."""
    p, rad = a.field.p, algebra_radical(a).arr
    power = rad
    for _ in range(a.dim):
        prods = np.einsum("ia,jb,abk->ijk", power, rad, a.sc) % p
        power = row_basis(FpMatrix(prods.reshape(-1, a.dim), a.field)).arr
    assert power.shape[0] == 0
    qm = quotient_maps(FpMatrix(rad.T, a.field))
    free = qm.include.arr.argmax(axis=0)
    quotient = Algebra(a.field, a.sc[np.ix_(free, free)] @ qm.project.arr.T,
                       qm.project.arr @ a.unit)
    assert algebra_radical(quotient).rows == 0


def _matrix_algebra(n):
    """M_n with basis E_ij (index i * n + j): E_ij E_jk = E_ik."""
    sc = np.zeros((n * n,) * 3, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                sc[i * n + j, j * n + k, i * n + k] = 1
    return sc, np.eye(n, dtype=np.int64).reshape(-1)


def _tensor(x, y):
    """Structure constants and unit of the tensor product of two algebras."""
    (sx, ux), (sy, uy) = x, y
    n = len(ux) * len(uy)
    return (np.einsum("ace,bdf->abcdef", sx, sy).reshape(n, n, n),
            np.kron(ux, uy))


# k[x]/(x^2) and GF(4) = GF(2)[w]/(w^2 + w + 1), basis 1, x (resp. w)
DUAL = (np.array([[[1, 0], [0, 1]], [[0, 1], [0, 0]]]), np.array([1, 0]))
GF4 = (np.array([[[1, 0], [0, 1]], [[0, 1], [1, 1]]]), np.array([1, 0]))


@pytest.mark.parametrize("p, factors, radical, simple, pim", [
    (2, (_matrix_algebra(2), DUAL), 4, 2, 4),
    (3, (_matrix_algebra(2), DUAL), 4, 2, 4),
    (101, (_matrix_algebra(2), DUAL), 4, 2, 4),
    (2, (_matrix_algebra(2), GF4), 0, 4, 4),
])
def test_structure_of_matrix_blocks(p, factors, radical, simple, pim):
    # M_2(k) (x) k[x]/(x^2) and M_2(GF(4)): A/rad is a matrix algebra, so
    # its primitive idempotents come from zero divisors
    field = FieldSpec(p)
    sc, unit = _tensor(*factors)
    a = _scramble(sc, unit, field, np.random.default_rng(p))
    assert algebra_radical(a).rows == radical
    assert [s.dim for s in simples(a)] == [simple]
    assert [pm.dim for pm, _ in projective_indecomposables(a)] == [pim]
    reg = LeftModule.regular(a)
    assert [f.dim for f in chop(reg).factors] == [simple] * (a.dim // simple)
    assert [piece.dim for piece, _ in split_module(reg)] == \
        [pim] * (a.dim // pim)
    _assert_radical_certified(a)


# ---------------------------------------------------------------------------
# the radical chain against its definition on all products


def _all_products_chain(mats, field):
    """(RREF basis of the radical, number of levels) of the span of mats
    as the chain defines it: g_i evaluated on x.b_j for x in a basis of
    I_{i-1} and every basis element b_j."""
    p, (n, d, _) = field.p, mats.shape
    basis, q, levels = np.eye(n, dtype=np.int64), 1, 0
    while q <= d and len(basis):
        xy = (np.tensordot(basis, mats, 1) % p)[:, None] @ mats[None] % p
        z = xy
        for _ in range(q - 1):
            z = z @ xy % (q * p)
        g = np.trace(z, axis1=2, axis2=3) % (q * p) // q
        basis = kernel_basis(FpMatrix(g.T, field)).arr @ basis % p
        q, levels = q * p, levels + 1
    return row_basis(FpMatrix(basis, field)).arr, levels


def _endomorphism_stack(m):
    """The basis matrices of End(m) and their structure constants."""
    endos = hom_space(m, m)
    mats = endos.basis_array()
    prods = (mats[:, None] @ mats[None]).reshape(endos.dim, endos.dim, -1)
    return mats, echelon_coords(endos.mat, prods)


def test_trace_radical_matches_the_all_products_chain(monkeypatch):
    casts = _record_casts(monkeypatch, structure)
    levels = []
    for p in (2, 3, 5, 101):
        field, rng = FieldSpec(p), np.random.default_rng(p)
        truncated = monomial_quiver_algebra(1, [(0, 0)], [[0] * 9], field)
        nakayama = monomial_quiver_algebra(2, [(0, 1), (1, 0)],
                                           [[0, 1, 0, 1, 0], [1, 0, 1, 0, 1]],
                                           field)
        a3 = monomial_quiver_algebra(3, [(0, 1), (1, 2)], [], field)
        m2 = Algebra(field, *_matrix_algebra(2))
        # A6 at p = 2: dim 21, five levels, products on the float path
        a6 = [monomial_quiver_algebra(6, [(i, i + 1) for i in range(5)], [],
                                      field)] if p == 2 else []
        algebras = [_scramble(x.sc, x.unit, field, rng) for x in
                    [truncated, nakayama, product_algebra(a3, m2)] + a6]
        algebras += [opposite_algebra(x) for x in algebras]
        stacks = [(x.sc.transpose(0, 2, 1), x.sc) for x in algebras]
        pims = [pm for pm, _ in projective_indecomposables(a3)]
        m = block_sum_module(pims + simples(a3))
        stacks.append(_endomorphism_stack(_conjugate(m, rng)))
        for mats, sc in stacks:
            want, depth = _all_products_chain(mats, field)
            assert np.array_equal(
                structure._trace_radical(mats, sc, field).arr, want)
            levels.append(depth)
        for x in algebras:
            assert np.array_equal(algebra_radical(x).arr, _all_products_chain(
                x.sc.transpose(0, 2, 1), field)[0])
    assert max(levels) == 5 and np.dtype(float) in casts


# ---------------------------------------------------------------------------
# projective covers against the per-candidate greedy search


def _quadratic_field(p):
    """GF(p^2) = GF(p)[w]/(w^2 - b w - c), basis 1, w."""
    b, c = (1, 1) if p == 2 else (0, next(
        c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1))
    return np.array([[[1, 0], [0, 1]], [[0, 1], [c, b]]]), np.array([1, 0])


def _cover_test_algebra(name, field):
    blocks = {"M2(k[x]/x^2)": DUAL, "M2(GF(p^2))": _quadratic_field(field.p)}
    if name in blocks:
        sc, unit = _tensor(_matrix_algebra(2), blocks[name])
        return _scramble(sc, unit, field, np.random.default_rng(field.p))
    return {"a2": a2_algebra, "wild": local_wild_algebra,
            "dual": lambda f: square_zero_extension(f).total,
            "triangular": lambda f: triangular_extension(f).total,
            "double": lambda f: double_extension(f).total}[name](field)


def _greedy_cover_epi(m) -> np.ndarray:
    """The cover's epimorphism as the per-candidate search chose it: each
    phi_w, w in the RREF basis of e_i.m, gets its own rank test and is kept
    exactly when it enlarges the image in top(m)."""
    field = m.over.field
    _, pi = top_of_module(m)
    chosen, image = [], FpMatrix.zeros(0, pi.target.dim, field)
    for p_i, e_i, incl in _pim_triples(m.over):
        for w in row_space_of_columns(m.act_matrix(e_i)).arr:
            phi = FpMatrix(np.stack([m.act_matrix(incl.arr[:, b]).arr @ w
                                     for b in range(p_i.dim)], axis=1), field)
            merged = vstack([image, row_space_of_columns(pi.matrix @ phi)])
            if rank(merged) > image.rows:
                chosen.append(phi.arr)
                image = row_basis(merged)
    return np.hstack(chosen)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(["a2", "wild", "dual", "triangular", "double",
                             "M2(k[x]/x^2)", "M2(GF(p^2))"]),
       p=st.sampled_from([2, 3, 5, 101, 65521]),
       side=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(name="M2(GF(p^2))", p=3, side="left", seed=1)
@example(name="M2(k[x]/x^2)", p=65521, side="right", seed=2)
@example(name="wild", p=2, side="right", seed=3)
def test_projective_cover_matches_greedy_search(name, p, side, seed):
    # in M2(GF(p^2)) the simple S has e.S of dimension 2, so some
    # candidates of one summand are kept and others are not; a right
    # module is one over the opposite algebra
    a = _cover_test_algebra(name, FieldSpec(p))
    if side == "right":
        a = opposite_algebra(a)
    m = random_module(a, np.random.default_rng(seed), max_dim=8)
    pres = projective_cover(m)
    want = _greedy_cover_epi(m)
    assert np.array_equal(pres.epi.matrix.arr, want)
    # the kernel basis is the unique RREF basis of ker(epi)
    kernel = pres.kernel_inclusion.matrix.arr.T
    assert kernel.shape[0] == pres.cover.dim - m.dim
    assert np.array_equal(row_basis(FpMatrix(kernel, a.field)).arr, kernel)
    assert not (want @ kernel.T % p).any()


# ---------------------------------------------------------------------------
# covers shared by module content


def _copy(m):
    return LeftModule(m.over, [FpMatrix(x.arr.copy(), x.field)
                               for x in m.action])


def test_equal_modules_share_one_cover(monkeypatch):
    a = a2_algebra(FIELD2)
    built = _count_cover_builds(monkeypatch)
    for m in simples(a) + [LeftModule.regular(a),
                           LeftModule.regular(opposite_algebra(a))]:
        m1, m2 = _copy(m), _copy(m)
        first, second = projective_cover(m1), projective_cover(m2)
        assert built.pop() == m.dim and not built
        assert second.module is m2
        assert second.epi.target is second.module
        assert second.epi.source is second.cover is first.cover
        assert second.kernel is first.kernel
        assert np.array_equal(second.epi.matrix.arr, first.epi.matrix.arr)


def test_a_cover_of_the_same_dimension_has_no_kernel_to_compute(
        monkeypatch):
    # a PIM, and D(A) over a self-injective algebra, are their own covers:
    # the epi is bijective, so no kernel is eliminated for
    a3 = monomial_quiver_algebra(3, [(0, 1), (1, 2)], [], FieldSpec(65521))
    nakayama = nakayama_ring(FIELD2).total
    modules = [pim for a in (a3, nakayama) for pim, _, _ in _pim_triples(a)]
    modules.append(dual_module(LeftModule.regular(nakayama)))
    calls, build = [], structure.kernel_basis
    monkeypatch.setattr(structure, "kernel_basis",
                        lambda m: calls.append(m) or build(m))
    for m in modules:
        pres = projective_cover(m)
        assert pres.cover.dim == m.dim and pres.epi.is_iso()
        assert _content(pres.kernel) == _content(LeftModule.zero(m.over))
        assert pres.kernel_inclusion.matrix.arr.shape == (m.dim, 0)
    assert not calls


# ---------------------------------------------------------------------------
# semisimple covers: the kernel read off the PIM table


def _semisimple_test_algebras(field):
    """A4, N(3,3), the wild algebra, M_2(k) (x) k[x]/(x^2), M_3(k) and
    M_2(GF(p^2)) (M_2(GF(4)) at p = 2), each in a random basis."""
    quivers = {name: rest for name, *rest in _quivers()}
    tables = [(a.sc, a.unit) for a in (
        monomial_quiver_algebra(*quivers[name], field)
        for name in ("A4", "N(3,3)", "wild"))]
    tables += [_tensor(_matrix_algebra(2), DUAL), _matrix_algebra(3),
               _tensor(_matrix_algebra(2), _quadratic_field(field.p))]
    rng = np.random.default_rng(field.p)
    return [_scramble(sc, unit, field, rng) for sc, unit in tables]


def _random_semisimple(a, rng):
    """A sum of one to four simples of a, with repeats, in a random
    basis."""
    tops = simples(a)
    picks = rng.integers(0, len(tops), size=rng.integers(1, 5))
    return _conjugate(block_sum_module([tops[i] for i in picks]), rng)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_semisimple_covers_match_the_elimination_path(p):
    # the kernel, its action and its inclusion are the arrays that
    # eliminating epi gives: its RREF kernel basis spans a submodule of the
    # cover whose action is read off the moved basis
    field, rng = FieldSpec(p), np.random.default_rng(p)
    kernels = 0
    for a in _semisimple_test_algebras(field):
        for _ in range(6):
            m = _random_semisimple(a, rng)
            pres = projective_cover(m)
            assert pres.semisimple
            ker, incl = _echelon_submodule(pres.cover,
                                           kernel_basis(pres.epi.matrix))
            for got, want in ((pres.kernel.acts, ker.acts),
                              (pres.kernel_inclusion.matrix.arr,
                               incl.matrix.arr)):
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            kernels += ker.dim > 0
    assert kernels >= 12


def test_a_semisimple_cover_eliminates_no_kernel(monkeypatch):
    # each kept image A.w of a semisimple module is a simple independent of
    # those before it, so ker(epi) is the block sum of the kept rad(P_i);
    # the first four algebras have a radical, so most covers have a kernel
    rng = np.random.default_rng(38)
    algebras = _semisimple_test_algebras(FieldSpec(3))[:4]
    modules = [m for a in algebras
               for m in simples(a) + [_random_semisimple(a, rng)
                                      for _ in range(3)]]
    calls, build = [], structure.kernel_basis
    monkeypatch.setattr(structure, "kernel_basis",
                        lambda m: calls.append(m) or build(m))
    covered = [projective_cover(m) for m in modules]
    assert all(pres.semisimple for pres in covered)
    assert sum(pres.kernel.dim > 0 for pres in covered) >= 12
    assert not calls


@pytest.mark.parametrize("p", [2, 65521])
def test_a_simple_top_needs_no_frobenius_power(monkeypatch, p):
    # the centre of A/rad is GF(p).1 over the wild algebra and k[x]/(x^2),
    # so their one block is 1; k x k and GF(p^2) have a 2-dim centre, but
    # the basis (1,0), (0,1) of k x k's is its blocks, read off without a
    # Frobenius power, while GF(p^2)'s is a field and needs one
    field = FieldSpec(p)
    calls, build = [], structure._frobenius_fixed
    monkeypatch.setattr(structure, "_frobenius_fixed",
                        lambda *args: calls.append(args) or build(*args))

    def idempotents(a):
        groups = structure._primitive_idempotents(
            a.sc, a.unit, algebra_radical(a), field)
        return [len(g) for g in groups]

    assert idempotents(local_wild_algebra(field)) == [1]
    assert idempotents(Algebra(field, *DUAL)) == [1]
    assert not calls
    k = field_algebra(field)
    assert idempotents(product_algebra(k, k)) == [1, 1]
    assert not calls
    assert idempotents(Algebra(field, *_quadratic_field(p))) == [1]
    assert len(calls) == 1


def test_cover_index_entry_goes_with_its_module():
    # a covered module holds its cover, kernel and the kernel's own cover,
    # and nothing of these points back to it: its index entry goes on the
    # last reference, without a cycle collection
    a = a2_algebra(FIELD2)
    mods = [_copy(s) for s in simples(a)]
    verdicts = [pd_bounded(m) for m in mods]
    index = a._cache["covers"]
    entries = len(index)
    gc.disable()
    try:
        del mods
        left = len(index)
    finally:
        gc.enable()
    assert sorted(v.value for v in verdicts) == [0, 1]
    assert entries == 2 and left == 0


def test_nakayama_syzygies_share_covers(monkeypatch):
    # N(4,3): every PIM is uniserial of length 3, so Omega(S_i) has dim 2
    # and Omega^2(S_i) is again a simple; the covers of all four periodic
    # resolutions are the covers of the 4 simples and of their 4 syzygies
    n, k = 4, 3
    a = monomial_quiver_algebra(n, [(i, (i + 1) % n) for i in range(n)],
                                [[(s + j) % n for j in range(k)]
                                 for s in range(n)], FieldSpec(3))
    built = _count_cover_builds(monkeypatch)
    for s in simples(a):
        assert pd_bounded(s) == DimensionVerdict.exceeds(2 * n * k)
        res = minimal_projective_resolution(s, 6)
        assert [t.dim for t in res.terms] == [k] * 7
        assert [z.dim for z in res.syzygies] == [1, k - 1] * 4
    assert sorted(built) == [1] * n + [k - 1] * n


def _spin_closure(m, vec):
    """The span of vec grown by the action until it stops growing."""
    field = m.over.field
    rows = FpMatrix(np.asarray(vec).reshape(1, -1), field)
    while True:
        grown = row_basis(vstack([rows] + [rows @ am.transpose()
                                           for am in m.action]))
        if grown.rows == rows.rows:
            return grown
        rows = grown


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_spin_matches_the_closure(p):
    field = FieldSpec(p)
    rng = np.random.default_rng(p)
    for a in (a2_algebra(field), local_wild_algebra(field),
              double_extension(field).total):
        for m in [LeftModule.regular(a),
                  LeftModule.regular(opposite_algebra(a))] + [
                random_module(a, rng, 6) for _ in range(4)]:
            for vec in [np.zeros(m.dim, dtype=np.int64)] + [
                    rng.integers(0, p, size=m.dim) for _ in range(3)]:
                assert spin(m, vec) == _spin_closure(m, vec)


def test_ext_target_keeps_its_pim_homs(monkeypatch):
    # two gp_check batteries over one algebra read Hom(P_i, A) of the same
    # regular module, computed once and kept on it
    from extalg import homology
    targets, compute = [], homology.pim_homs
    monkeypatch.setattr(homology, "pim_homs",
                        lambda n: targets.append(n) or compute(n))
    a = local_wild_algebra(FIELD2)
    for m in (simples(a)[0], random_module(a, np.random.default_rng(3), 3)):
        assert not is_projective(m)
        gp_check(m, 3)
    assert targets == [LeftModule.regular(a)]


# ---------------------------------------------------------------------------
# the PIM table, pim_homs and the tops against per-PIM constructions

def _oracle_algebras(field):
    """The conftest algebras and the quiver algebras of the pinned
    resolutions, which include the benchmark's quiver ladder."""
    return [a2_algebra(field), local_wild_algebra(field),
            square_zero_extension(field).total,
            triangular_extension(field).total,
            double_extension(field).total] + [
        monomial_quiver_algebra(n, arrows, relations, field)
        for _, n, arrows, relations in _quivers()]


def _per_idempotent_pim_homs(m):
    """pim_homs one idempotent at a time: the RREF basis of e_i.m from the
    columns of the action of e_i, then every basis element of P_i acting
    on it."""
    p = m.over.field.p
    acts = np.stack([x.arr for x in m.action])
    out = []
    for _, e_i, incl in _pim_triples(m.over):
        ws = row_space_of_columns(m.act_matrix(e_i)).arr
        phi = ((np.tensordot(incl.arr.T, acts, 1) % p) @ ws.T) % p
        out.append(phi.transpose(2, 1, 0))
    return out


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_pim_homs_match_the_per_idempotent_construction(p):
    field, rng = FieldSpec(p), np.random.default_rng(p)
    zero_blocks = 0
    for a in _oracle_algebras(field):
        mods = (simples(a) + [pm for pm, _ in projective_indecomposables(a)]
                + [dual_module(LeftModule.regular(opposite_algebra(a)))]
                + [random_module(a, rng, 8) for _ in range(2)]
                + [LeftModule.zero(a)])
        for m in mods:
            got, want = structure.pim_homs(m), _per_idempotent_pim_homs(m)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and g.shape == w.shape
                assert np.array_equal(g, w)
                zero_blocks += not len(g)
    assert zero_blocks > 0


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_simples_are_the_tops_of_the_pims(p):
    for a in _oracle_algebras(FieldSpec(p)):
        tops = [top_of_module(pm)[0] for pm, _, _ in _pim_triples(a)]
        assert simples(a) is simples(a) and len(simples(a)) == len(tops)
        for s, top in zip(simples(a), tops):
            assert [x.arr.tolist() for x in s.action] == \
                [x.arr.tolist() for x in top.action]
        assert [s for _, s in projective_indecomposables(a)] == simples(a)


def test_regime_builds_no_tops_over_the_opposite(monkeypatch):
    # covers and Ext read P_i, e_i and the inclusion only, so the regime
    # (the injective dimensions of A and A_A) builds no top of a PIM
    a = monomial_quiver_algebra(4, [(0, 1), (1, 2), (2, 3)], [], FIELD2)
    op = opposite_algebra(a)
    assert op is not a
    tops, build = [], structure.top_of_module
    monkeypatch.setattr(structure, "top_of_module",
                        lambda m: tops.append(m.over) or build(m))
    assert gorenstein_regime(a)[0] == "iwanaga_gorenstein"
    assert not [x for x in tops if x is op]
    # the tops are built for `simples` alone, once
    simples(a), simples(a)
    assert len([x for x in tops if x is a]) == 4


# ---------------------------------------------------------------------------
# the primitive idempotents, pinned


def _idempotent_algebras(field):
    """The oracle algebras, the Morita ring totals, the opposites of all of
    these, and the non-basic M_2(k), M_3(k) and their products with A2."""
    algebras = _oracle_algebras(field) + [
        make(field).total
        for make in (nakayama_ring, a2_morita_ring, product_morita_ring)]
    algebras += [opposite_algebra(a) for a in algebras]
    for n in (2, 3):
        full = Algebra(field, *_matrix_algebra(n))
        algebras += [full, product_algebra(full, a2_algebra(field))]
    return algebras


# recorded on the implementation that cut every part along every root with
# f - (b.f - r.f)^(p-1), one minimal polynomial per (element, part)
IDEMPOTENT_PIN = "b1b78cf6ef817e1967b7a5109fb41616d9d4eda5d671bbeef8a0b346f293d59b"


def test_primitive_idempotents_match_the_pinned_digest():
    # every idempotent, in order and grouped by block, built afresh from
    # the table (no cache, so an algebra and its opposite both compute)
    h = hashlib.sha256()
    for p in (2, 3, 101, 65521):
        field = FieldSpec(p)
        for k, a in enumerate(_idempotent_algebras(field)):
            groups = structure._primitive_idempotents(
                a.sc, a.unit, algebra_radical(a), field)
            h.update(f"{k}@{p}:{[len(g) for g in groups]}".encode())
            for group in groups:
                for e in group:
                    _put(h, e)
    assert h.hexdigest() == IDEMPOTENT_PIN


# ---------------------------------------------------------------------------
# the radical and idempotents that the basis shows


def _chain_and_lift(a):
    """rad A by the trace chain and the idempotents lifted from A/rad, on
    the table alone."""
    rad = structure._trace_radical(a.sc.transpose(0, 2, 1), a.sc, a.field)
    return rad, structure._primitive_idempotents(a.sc, a.unit, rad, a.field)


def _assert_split_matches_chain(a, certified=True):
    # a fresh copy of the table, which reads nothing off a twin
    a = Algebra(a.field, a.sc, a.unit, validate=False)
    split = structure._vertex_split(a)
    assert (split is not None) == certified
    rad, groups = _chain_and_lift(a)
    if certified:
        assert [len(g) for g in split[1]] == [len(g) for g in groups]
        for e, f in zip(sum(split[1], []), sum(groups, [])):
            assert e.dtype == f.dtype and e.tobytes() == f.tobytes()
    # what the PIM table and the radical read, either way
    got = algebra_radical(a).arr
    assert got.shape == rad.arr.shape and got.tobytes() == rad.arr.tobytes()
    assert [e.dtype for _, e, _ in _pim_triples(a)] == [np.int64] * len(groups)
    assert [e.tobytes() for _, e, _ in _pim_triples(a)] == \
        [g[0].tobytes() for g in groups]


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_vertex_split_matches_the_chain_and_lift(p):
    # the oracle algebras, the Morita totals and their opposites are
    # certified; M_2, M_3 and their products with A2 are not, and fall
    # back; a product of two certified algebras is certified
    field = FieldSpec(p)
    algebras = _idempotent_algebras(field)
    for a in algebras[:-4]:
        _assert_split_matches_chain(a)
    for a in algebras[-4:]:
        _assert_split_matches_chain(a, certified=False)
    for a, b in zip(algebras[:-4:3], algebras[1:-4:3]):
        _assert_split_matches_chain(product_algebra(a, b))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 101, 65521]))
def test_vertex_split_of_random_monomial_quivers(quiver, p):
    field = FieldSpec(p)
    a = small_quiver_algebra(*quiver, field, paths=20)
    if a is not None:
        for b in (a, product_algebra(a2_algebra(field), a)):
            _assert_split_matches_chain(b)
            _assert_split_matches_chain(opposite_algebra(b))


def _spy_chain(monkeypatch):
    """The names of the chain and lift functions called from now on."""
    calls = []
    for name in ("_trace_radical", "_primitive_idempotents"):
        build = getattr(structure, name)
        monkeypatch.setattr(structure, name, lambda *args, name=name,
                            build=build: calls.append(name) or build(*args))
    return calls


def _dual_numbers_at_one_plus_y(field):
    """k[y]/(y^2) in the basis 1 + y, y: (1 + y)^2 = 1 + 2y is no
    idempotent, while span(y) is a square-zero ideal."""
    g = np.array([[1, 1], [0, 1]])
    a = monomial_quiver_algebra(1, [(0, 0)], [[0, 0]], field)
    return _rebased(a.sc, a.unit, field, g, np.array([[1, -1], [0, 1]]))


def _free_cube_at_mixed_degrees(field):
    """k<x,y>/(paths of length 3) in the basis 1, x, y, xx + y, xy, yx,
    yy + x: every b_j of J has a zero diagonal, and J is a nilpotent ideal,
    but x.x = (xx + y) - y and y.y = (yy + x) - x give the cycle x -> y ->
    x in the product graph."""
    a = monomial_quiver_algebra(1, [(0, 0), (0, 0)],
                                [list(w) for w in np.ndindex(2, 2, 2)], field)
    g = np.eye(7, dtype=np.int64)
    g[3, 2] = g[6, 1] = 1
    gi = np.eye(7, dtype=np.int64)
    gi[3, 2] = gi[6, 1] = -1
    return _rebased(a.sc, a.unit, field, g, gi)


@pytest.mark.parametrize("p", [2, 3, 65521])
@pytest.mark.parametrize("table, k, fails", [
    (_dual_numbers_at_one_plus_y, [0], "idempotents"),
    (lambda field: Algebra(field, *_matrix_algebra(2)), [0, 3], "ideal"),
    (_free_cube_at_mixed_degrees, [0], "nilpotent"),
], ids=["idempotents", "ideal", "nilpotent"])
def test_a_table_that_fails_one_check_falls_back(monkeypatch, table, k,
                                                 fails, p):
    a = table(FieldSpec(p))
    sc, j = a.sc, [i for i in range(a.dim) if i not in k]
    # the nonzero diagonals are at k; each table breaks exactly one check
    vertex = np.diagonal(sc, axis1=1, axis2=2).any(axis=1)
    assert vertex.nonzero()[0].tolist() == k
    holds = {
        "idempotents": (sc[np.ix_(k, k)] == np.eye(len(k), dtype=np.int64)[
            ..., None] * np.eye(a.dim, dtype=np.int64)[k]).all()
        and (a.unit == vertex).all(),
        "ideal": not sc[j][..., k].any() and not sc[:, j][..., k].any(),
        # an acyclic graph on J has no walk of length |J|
        "nilpotent": not np.linalg.matrix_power(
            sc[np.ix_(j, j, j)].any(axis=0).astype(np.int64), len(j)).any()}
    assert [c for c, held in holds.items() if not held] == [fails]
    calls = _spy_chain(monkeypatch)
    _assert_split_matches_chain(a, certified=False)
    assert calls.count("_trace_radical") == 2


def test_a3_in_a_random_basis_runs_the_trace_chain(monkeypatch):
    field = FieldSpec(3)
    a3 = monomial_quiver_algebra(3, [(0, 1), (1, 2)], [], field)
    a = _scramble(a3.sc, a3.unit, field, np.random.default_rng(41))
    calls = _spy_chain(monkeypatch)
    assert [s.dim for s in simples(a)] == [1, 1, 1]
    assert calls == ["_trace_radical", "_primitive_idempotents"]
    assert algebra_radical(a).rows == 3
    calls.clear()
    simples(a3)
    assert not calls


def test_pim_idempotents_hash_as_the_lift_gives_them():
    # the e_i of the PIM table, read off the basis where it shows them and
    # handed from A to A^op, hash as the first idempotent of every block
    # that the lift gives on the table alone
    read, lifted = hashlib.sha256(), hashlib.sha256()
    for p in (2, 3, 101, 65521):
        field = FieldSpec(p)
        for a in _idempotent_algebras(field):
            for _, e, _ in _pim_triples(a):
                _put(read, e)
            for group in _chain_and_lift(a)[1]:
                _put(lifted, group[0])
    assert read.hexdigest() == lifted.hexdigest()


# ---------------------------------------------------------------------------
# the PIMs that a path basis shows as blocks of it


def _arrays(*arrs):
    """dtype, shape and bytes of each array: equal lists mean byte for byte
    equal arrays."""
    return [(x.dtype.str, x.shape, x.tobytes()) for x in arrs]


def _pim_table(a):
    """(table, spun): P_i, e_i, the inclusion, rad P_i with its inclusion
    and the top of every PIM of a fresh copy of a's table, and whether
    `spin` ran to build them."""
    a = Algebra(a.field, a.sc, a.unit, validate=False)
    spins, build = [], structure.spin
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "spin",
                   lambda m, v: spins.append(m) or build(m, v))
        table = [_arrays(pim.acts, e, incl.arr, rad.acts, rad_incl.matrix.arr,
                         top_of_module(pim)[0].acts)
                 for pim, e, incl in _pim_triples(a)
                 for rad, rad_incl in [radical_of_module(pim)]]
    return table, bool(spins)


def _assert_blocks_match_the_spin(a, blocks=True):
    # the table read off the blocks is the one that spinning each e_i and
    # eliminating gives, and it spins nothing
    assert (structure._pim_blocks(a) is not None) == blocks
    got, spun = _pim_table(a)
    assert spun != blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_pim_blocks", lambda a: None)
        assert _pim_table(a) == (got, True)


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_pim_blocks_match_the_spin(p):
    # every certified algebra of the idempotent pin, opposites included,
    # has its PIMs as blocks; M_2, M_3 and their products with A2 spin
    algebras = _idempotent_algebras(FieldSpec(p))
    for a in algebras[:-4]:
        _assert_blocks_match_the_spin(a)
    for a in algebras[-4:]:
        _assert_blocks_match_the_spin(a, blocks=False)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 101, 65521]))
def test_pim_blocks_of_random_monomial_quivers_match_the_spin(quiver, p):
    a = small_quiver_algebra(*quiver, FieldSpec(p), paths=20)
    if a is not None:
        _assert_blocks_match_the_spin(a)
        _assert_blocks_match_the_spin(opposite_algebra(a))


def _dual_numbers_squared_at_y1_plus_y2(field):
    """k[y]/(y^2) x k[y]/(y^2) in the basis e_1, y_1 + y_2, e_2, y_2: the
    vertices e_1, e_2 and J = span(y_1 + y_2, y_2) pass the three checks of
    `_vertex_split`, but (y_1 + y_2).e_1 = y_1 is no multiple of y_1 + y_2,
    so A.e_1 = span(e_1, y_1) is no block of the basis."""
    d = monomial_quiver_algebra(1, [(0, 0)], [[0, 0]], field)
    prod = product_algebra(d, d)
    g, gi = np.eye(4, dtype=np.int64), np.eye(4, dtype=np.int64)
    g[1, 3], gi[1, 3] = 1, -1
    return _rebased(prod.sc, prod.unit, field, g, gi)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_a_split_that_shows_no_blocks_spins_its_pims(monkeypatch, p):
    a = _dual_numbers_squared_at_y1_plus_y2(FieldSpec(p))
    assert structure._vertex_split(a) is not None
    assert structure._pim_blocks(a) is None
    table, spun = _pim_table(a)
    assert spun and [t[0][1] for t in table] == [(4, 2, 2)] * 2
    # the same table as the trace chain and the lift give
    monkeypatch.setattr(structure, "_vertex_split", lambda a: None)
    assert _pim_table(a) == (table, True)


def _cover_digest(mods, n):
    """pim_homs, the projective cover, pd and Ext^0..2 against n of each
    module, as bytes and values."""
    out = []
    for m in mods:
        pres = projective_cover(m)
        out.append([_arrays(*structure.pim_homs(m)), _arrays(
            pres.cover.acts, pres.epi.matrix.arr, pres.kernel.acts,
            pres.kernel_inclusion.matrix.arr), pres.summands,
            pd_bounded(m, 4), [ext(m, x, i) for x in (n, mods[0])
                               for i in range(3)]])
    return out


@settings(derandomize=True, max_examples=25, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 65521]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_covers_off_the_blocks_match_the_chain_and_spin(quiver, p, seed):
    # the same modules over a fresh copy of the table, with the split of
    # the basis stubbed out: trace chain, lift, spin and products instead
    # of blocks and gathers, and byte for byte the same covers and Ext
    a = small_quiver_algebra(*quiver, FieldSpec(p), paths=20)
    if a is None:
        return
    rng = np.random.default_rng(seed)
    acts = [random_module(a, rng, 6).acts for _ in range(3)]

    def digest(b):
        return _cover_digest([LeftModule(b, x, validate=False) for x in acts],
                             LeftModule.regular(b))
    want = digest(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_vertex_split", lambda a: None)
        b = Algebra(a.field, a.sc, a.unit, validate=False)
        assert structure._pim_blocks(b) is None
        assert digest(b) == want


# ---------------------------------------------------------------------------
# eigenvalues by gcd splitting


def _prime_at_most(n):
    """The largest prime <= n that FieldSpec accepts."""
    while True:
        try:
            return FieldSpec(n).p
        except LinalgError:
            n -= 1


def _horner_roots(f, p):
    """The roots of f over GF(p) by one Horner pass over all of GF(p)."""
    t, value = np.arange(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
    for c in reversed(f):
        value = (value * t + c) % p
    return np.flatnonzero(value == 0).tolist()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.integers(2, 65521).map(_prime_at_most), k=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(p=2, k=8, seed=0)
@example(p=3, k=8, seed=0)
@example(p=5, k=8, seed=0)
@example(p=7, k=8, seed=0)
@example(p=101, k=8, seed=1)
@example(p=65521, k=8, seed=1)
@example(p=65521, k=1, seed=2)
def test_split_roots_match_the_horner_scan(p, k, seed):
    # f = prod (t - r) over k distinct roots; for k = p, f = t^p - t
    roots = random.Random(seed).sample(range(p), min(k, p))
    f = [1]
    for r in roots:
        f = [(lo - r * hi) % p for lo, hi in zip([0] + f, f + [0])]
    assert f[-1] == 1 and len(f) == len(roots) + 1
    assert structure._split_roots(f, p) == _horner_roots(f, p) \
        == sorted(roots)


def test_primitive_idempotents_allocate_nothing_of_the_size_of_the_field():
    # finding eigenvalues by a pass over GF(65521) allocated about 2 MB
    quivers = {name: rest for name, *rest in _quivers()}
    field = FieldSpec(65521)
    for name in ("N(2,2)", "A3"):
        a = monomial_quiver_algebra(*quivers[name], field)
        rad = algebra_radical(a)
        tracemalloc.start()
        try:
            structure._primitive_idempotents(a.sc, a.unit, rad, field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024, (name, peak)


# ---------------------------------------------------------------------------
# idempotent-adapted bases against the general paths


def _centre_test_algebras(field):
    """k^2, k^3, A3-A6, N(3,3), N(4,3) and M_2(k) x k."""
    quivers = {name: rest for name, *rest in _quivers()}
    k = field_algebra(field)
    kk = product_algebra(k, k)
    return [kk, product_algebra(kk, k)] + [
        monomial_quiver_algebra(*quivers[name], field)
        for name in ("A3", "A4", "A5", "A6", "N(3,3)", "N(4,3)")] + [
        product_algebra(Algebra(field, *_matrix_algebra(2)), k)]


def _frobenius_blocks(centre, one, mul, field):
    """The blocks of the centre by a Frobenius power and eigenvalue cuts."""
    if len(centre) == 1:
        return [one]
    return structure._eigen_split(
        one, structure._frobenius_fixed(centre, mul, field), mul, field)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_centre_blocks_match_the_frobenius_split(monkeypatch, p):
    # the RREF centre of these algebras' tops is a basis of orthogonal
    # idempotents, read off as the blocks; the Frobenius path gives the
    # same arrays in the same order, and so the same lifted idempotents
    field, read, build = FieldSpec(p), [], structure._centre_blocks

    def recorded(*args):
        read.append((args, build(*args)))
        return read[-1][1]
    for a in _centre_test_algebras(field):
        rad = algebra_radical(a)
        monkeypatch.setattr(structure, "_centre_blocks", recorded)
        got = structure._primitive_idempotents(a.sc, a.unit, rad, field)
        monkeypatch.setattr(structure, "_centre_blocks", _frobenius_blocks)
        want = structure._primitive_idempotents(a.sc, a.unit, rad, field)
        assert [len(g) for g in got] == [len(g) for g in want]
        for g, w in zip(sum(got, []), sum(want, [])):
            assert g.dtype == w.dtype == np.int64 and np.array_equal(g, w)
        args, blocks = read[-1]
        oracle = _frobenius_blocks(*args)
        assert len(args[0]) == len(blocks) == len(oracle) > 1
        for b, c, o in zip(blocks, args[0][::-1], oracle):
            assert np.array_equal(b, c) and np.array_equal(b, o)


@pytest.mark.parametrize("p", [2, 65521])
def test_an_idempotent_centre_basis_needs_no_frobenius_power(monkeypatch, p):
    field, calls = FieldSpec(p), []
    for name in ("_frobenius_fixed", "_eigen_split"):
        build = getattr(structure, name)
        monkeypatch.setattr(structure, name, lambda *args, name=name,
                            build=build: calls.append(name) or build(*args))

    def blocks(a):
        groups = structure._primitive_idempotents(
            a.sc, a.unit, algebra_radical(a), field)
        return [len(g) for g in groups]
    quivers = {name: rest for name, *rest in _quivers()}
    k = field_algebra(field)
    assert blocks(monomial_quiver_algebra(*quivers["A3"], field)) == [1] * 3
    assert blocks(product_algebra(k, k)) == [1, 1]
    assert not calls
    assert blocks(Algebra(field, *_quadratic_field(p))) == [1]
    assert sorted(calls) == ["_eigen_split", "_frobenius_fixed"]


def _e_actions(m):
    """The actions of the e_i of the PIM table on m."""
    return [m.act_matrix(e).arr for _, e, _ in _pim_triples(m.over)]


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_pim_homs_weight_bases_match_the_elimination(p):
    # the conftest and quiver modules have diagonal e_i-actions, so
    # pim_homs slices; in a random basis they are not, and it eliminates
    field, rng = FieldSpec(p), np.random.default_rng(p)
    paths = {True: 0, False: 0}
    for a in _oracle_algebras(field):
        mods = (simples(a) + [pm for pm, _ in projective_indecomposables(a)]
                + [random_module(a, rng, 8) for _ in range(2)])
        for m in mods + [_conjugate(m, rng) for m in mods]:
            paths[all(np.array_equal(e, np.diag(np.diag(e)))
                      for e in _e_actions(m))] += 1
            got, want = structure.pim_homs(m), _per_idempotent_pim_homs(m)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and g.shape == w.shape
                assert np.array_equal(g, w)
    assert paths[True] >= 40 and paths[False] >= 20


def _full_radical_span(m, rows):
    """rad(A).U from every basis element of rad(A), U the span of rows."""
    p = m.over.field.p
    acts = np.tensordot(algebra_radical(m.over).arr, m.acts, 1) % p
    moved = rows @ acts.transpose(0, 2, 1) % p
    return row_basis(FpMatrix(moved.reshape(-1, m.dim), m.over.field))


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_radical_span_matches_the_full_radical(p):
    # the generators of rad as a right ideal move every submodule U onto
    # rad(A).U: checked on the radical layers of random modules, left and
    # right, down to 0
    field, rng = FieldSpec(p), np.random.default_rng(p)
    algebras = [make(field).total for make in (
        square_zero_extension, triangular_extension, double_extension,
        nakayama_ring, a2_morita_ring, product_morita_ring)]
    algebras += [a2_algebra(field), local_wild_algebra(field)]
    layers = 0
    for a in algebras + [opposite_algebra(a) for a in algebras]:
        for m in [LeftModule.regular(a)] + [random_module(a, rng, 6)
                                            for _ in range(3)]:
            rows = np.eye(m.dim, dtype=np.int64)
            while len(rows):
                got = structure._radical_span(m, rows)
                assert got == _full_radical_span(m, rows)
                rows, layers = got.arr, layers + 1
        gens = structure._radical_generators(a)
        assert len(gens) <= algebra_radical(a).rows
    assert layers >= 100
    a6 = monomial_quiver_algebra(
        *{name: rest for name, *rest in _quivers()}["A6"], field)
    assert len(structure._radical_generators(a6)) == 5
    assert algebra_radical(a6).rows == 15


def _all_at_once_generators(a):
    """`_radical_generators` off every product r_i r_j at once."""
    rad, p = algebra_radical(a).arr, a.field.p
    left = np.tensordot(rad, a.sc, 1) % p
    square = FpMatrix(np.matmul(rad, left).reshape(-1, a.dim), a.field)
    squares = set(rref(square).pivot_cols)
    return rad[[r.nonzero()[0][0] not in squares for r in rad]]


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_radical_generators_match_all_products_at_once(p):
    # rad^2 eliminated 16 r_i at a time gives the same pivots as all at
    # once: A7, A8 and k<x1..x4>/(paths of length 3) have 21, 28 and 20
    # radical rows, and a random basis of A7 makes them dense.  Over the
    # four loops, the first 16 r_i (the loops and 12 paths xy) give all of
    # rad^2 and the last 4 none of it
    field, rng = FieldSpec(p), np.random.default_rng(p)
    a7, a8 = (monomial_quiver_algebra(n, [(i, i + 1) for i in range(n - 1)],
                                      [], field) for n in (7, 8))
    loops = monomial_quiver_algebra(1, [(0, 0)] * 4, [
        list(w) for w in np.ndindex(4, 4, 4)], field)
    algebras = _idempotent_algebras(field) + [
        a7, a8, loops, _scramble(a7.sc, a7.unit, field, rng)]
    for a in algebras:
        got, want = structure._radical_generators(a), _all_at_once_generators(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert [algebra_radical(a).rows for a in algebras[-4:]] == [21, 28, 20, 21]
    assert len(structure._radical_generators(loops)) == 4


def test_radical_generators_allocate_no_square_of_the_radical():
    # A19 has a radical of dim 171: all its r_i r_j at once are a 171 x 171
    # x 190 int64 stack of 44 MiB, next to the 49 MiB of the left
    # multiplications and a float copy of the table
    a = monomial_quiver_algebra(19, [(i, i + 1) for i in range(18)], [],
                                FIELD2)
    algebra_radical(a)
    tracemalloc.start()
    try:
        gens = structure._radical_generators(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gens) == 18
    assert peak < 32 * 2 ** 20, peak
