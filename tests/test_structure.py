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
from extalg import gorenstein, structure
from extalg.algebra import (Algebra, LeftModule, _content,
                            _echelon_submodule, block_sum_module,
                            dual_module, field_algebra, hom_space,
                            monomial_quiver_algebra, opposite_algebra,
                            product_algebra, quotient_module,
                            row_space_of_columns)
from extalg.cli import Workspace, emit_builtin_examples
from extalg.gorenstein import (CERTIFIED_NO, IWANAGA_GORENSTEIN,
                               SELF_INJECTIVE, UNKNOWN, gorenstein_regime,
                               gp_check)
from extalg.homology import (DimensionVerdict, ext, id_bounded,
                             minimal_projective_resolution, pd_bounded)
from extalg.linalg import (FieldSpec, FpMatrix, LinalgError, echelon_coords,
                           inverse, kernel_basis, quotient_maps, rank, rref,
                           row_basis, vstack)
from extalg.structure import (_pim_triples, algebra_radical,
                              find_isomorphism, injective_indecomposables,
                              is_injective, is_projective, projective_cover,
                              projective_indecomposables, radical_of_module,
                              simples, split_module, spin, top_of_module)
from reference import chop, injective_envelope
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
    # 1-dimensional module searches End(m) for none: neither its centre
    # nor a simple block of it is split
    searched = []
    for name in ("_eigen_split", "_split_simple"):
        monkeypatch.setattr(structure, name,
                            lambda *args, name=name: searched.append(name))
    m = LeftModule.regular(field_algebra(FieldSpec(65521)))
    pieces = split_module(m)
    assert len(pieces) == 1 and pieces[0][0] is m
    assert not searched


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


def test_the_cover_spy_raises_past_its_dimension_cap(monkeypatch):
    # the regular module of A2 (dim 3) is no PIM, so its cover is built;
    # the spy refuses it before the build at a cap of 2, and takes it at
    # the default cap
    a = a2_algebra(FIELD2)
    with pytest.MonkeyPatch.context() as mp:
        _count_cover_builds(mp, max_dim=2)
        with pytest.raises(AssertionError, match="a cover of dim 3 > 2"):
            projective_cover(LeftModule.regular(a))
    built = _count_cover_builds(monkeypatch)
    assert projective_cover(LeftModule.regular(a)).cover.dim == 3
    assert built == [3]


def test_one_cover_per_content(monkeypatch):
    # the twins of a module (its dual, its left view, the regular modules
    # of its algebra) are kept on what they describe, so a job covers each
    # content once, and a verdict covers only what it reads
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
    # Omega^1 S and Omega^2 S: Ext^1 reads d_0 and d_1 only, and the cover
    # of S came with the PIM table
    assert built == [2, 4]

    def nakayama33():
        return monomial_quiver_algebra(3, [(0, 1), (1, 2), (2, 0)], [
            [s, (s + 1) % 3, (s + 2) % 3] for s in range(3)], FieldSpec(101))
    a = nakayama33()
    regime, dl, dr = gorenstein_regime(a)
    built.clear()
    # A^op computes its own regime: its walk covers the dual of A's
    # regular module, a projective A^op-module of dim 9, and stops there
    assert gorenstein_regime(opposite_algebra(a)) == (regime, dr, dl)
    assert built == [9]
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
    # Omega^1 S for pd (S and D(S), of its content, read the cover that
    # came with the PIM table), Omega^2 S for Ext^1
    assert built == [3, 3, 6, 2, 4]


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
    # copies of the simples of A2 read the covers that came with its PIM
    # table and build none; the regular modules, and the simples of A3 in
    # a random basis, which the certificate refuses, build one per content
    a = a2_algebra(FIELD2)
    built = _count_cover_builds(monkeypatch)
    for m, builds in ([(s, 0) for s in simples(a)]
                      + [(LeftModule.regular(a), 1),
                         (LeftModule.regular(opposite_algebra(a)), 1)]
                      + [(s, 1) for s in simples(_a3_in_a_random_basis())]):
        m1, m2 = _copy(m), _copy(m)
        first, second = projective_cover(m1), projective_cover(m2)
        assert built == [m.dim] * builds
        built.clear()
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
    # so their one block is 1; k x k and GF(p^2) have a 2-dim centre, and
    # each takes one Frobenius power
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
    assert len(calls) == 1
    assert idempotents(Algebra(field, *_quadratic_field(p))) == [1]
    assert len(calls) == 2


def test_cover_index_entry_goes_with_its_module():
    # a covered module holds its cover, kernel and the kernel's own cover,
    # and nothing of these points back to it: its index entry goes on the
    # last reference, without a cycle collection.  The entries that came
    # with A2's PIM table, for S_0, P_0 and S_1 = P_1, live on A2, and the
    # copies of its simples add none; S_0 + S_1 adds one.  A3 in a random
    # basis has no such entries: the copies of its simples add three, and
    # its 2-dimensional Omega S_i one (the other has a simple's content)
    a, b = a2_algebra(FIELD2), _a3_in_a_random_basis()
    s0, s1 = simples(a)
    mods = [_copy(s0), _copy(s1), block_sum_module([s0, s1])] + [
        _copy(s) for s in simples(b)]
    verdicts = [pd_bounded(m) for m in mods]
    entries = [len(x._cache["covers"]) for x in (a, b)]
    gc.disable()
    try:
        del mods
        left = [len(x._cache["covers"]) for x in (a, b)]
    finally:
        gc.enable()
    assert sorted(v.value for v in verdicts) == [0, 0, 1, 1, 1, 1]
    assert entries == [4, 4] and left == [3, 0]


def test_nakayama_syzygies_share_covers(monkeypatch):
    # N(4,3): every PIM is uniserial of length 3, so Omega(S_i) has dim 2
    # and Omega^2(S_i) is again a simple; the covers of all four periodic
    # resolutions are the covers of the 4 simples, which come with the PIM
    # table, and of their 4 syzygies.  In a random basis, which the
    # certificate refuses, the covers of the simples are built too
    n, k, field = 4, 3, FieldSpec(3)
    a = monomial_quiver_algebra(n, [(i, (i + 1) % n) for i in range(n)],
                                [[(s + j) % n for j in range(k)]
                                 for s in range(n)], field)
    scrambled = _scramble(a.sc, a.unit, field, np.random.default_rng(43))
    built = _count_cover_builds(monkeypatch)
    for b, want in ((a, [k - 1] * n), (scrambled, [1] * n + [k - 1] * n)):
        for s in simples(b):
            assert pd_bounded(s) == DimensionVerdict.exceeds(2 * n * k)
            res = minimal_projective_resolution(s, 6)
            assert [t.dim for t in res.terms] == [k] * 7
            assert [z.dim for z in res.syzygies] == [1, k - 1] * 4
        assert sorted(built) == want
        built.clear()


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
    # (the injective dimensions of A and A_A) builds no top of a PIM.  A4
    # reads its simples off the PIM table and builds no top at all; A3 in
    # a random basis builds its tops for `simples` alone, once
    tops, build = [], structure.top_of_module
    monkeypatch.setattr(structure, "top_of_module",
                        lambda m: tops.append(m.over) or build(m))
    a4 = monomial_quiver_algebra(4, [(0, 1), (1, 2), (2, 3)], [], FIELD2)
    for a, built in ((a4, 0), (_a3_in_a_random_basis(), 3)):
        op = opposite_algebra(a)
        assert op is not a
        assert gorenstein_regime(a)[0] == "iwanaga_gorenstein"
        assert not tops
        simples(a), simples(a)
        assert len(tops) == len([x for x in tops if x is a]) == built
        tops.clear()


@pytest.mark.parametrize("p", [2, 65521])
def test_regime_builds_nothing_over_the_opposite(monkeypatch, p):
    # A_n has no oriented cycle, so dl = dr is read off the simples of A's
    # PIM table with no dual walk; over N(n,k) dr = id(A_A) is walked over
    # A and dl read off it and the simples, so A^op gets no certificate,
    # no PIM table and no cover.  The wild algebra (dr infinite, A^op = A)
    # and A3 in a random basis (refused) still walk D(_A A) over A^op: two
    # walks, not one
    built, walks = [], []
    for name, over in (("_vertex_split", lambda a: a),
                       ("_pim_triples", lambda a: a),
                       ("_cover_parts", lambda m: m.over)):
        monkeypatch.setattr(structure, name, lambda x, over=over,
                            build=getattr(structure, name):
                            built.append(over(x)) or build(x))
    walk = gorenstein.id_bounded
    monkeypatch.setattr(gorenstein, "id_bounded",
                        lambda m, bound: walks.append(m) or walk(m, bound))
    quivers = {name: rest for name, *rest in _quivers()}
    for name, n in (("A3", 0), ("A4", 0), ("A5", 0), ("A6", 0),
                    ("N(3,2)", 1), ("N(3,3)", 1), ("N(4,3)", 1)):
        a = monomial_quiver_algebra(*quivers[name], FieldSpec(p))
        assert gorenstein_regime(a)[0] != UNKNOWN
        op = opposite_algebra(a)
        assert op is not a and built and len(walks) == n, name
        assert not [x for x in built if x is op], name
        built.clear(), walks.clear()
    for a in (monomial_quiver_algebra(*quivers["wild"], FieldSpec(p)),
              _a3_in_a_random_basis()):
        gorenstein_regime(a)
        assert len(walks) == 2 and walks[1] is LeftModule.regular(a)
        assert [x for x in built if x is opposite_algebra(a)]
        built.clear(), walks.clear()


def test_a6_and_n43_read_their_structure_off_the_path_basis(monkeypatch):
    # A6 and N(4,3) are basic algebras in a path basis: one certificate
    # reads the radical, the vertex idempotents and each PIM, a block of
    # the basis, off it, with no trace chain, no lift, no Frobenius power,
    # no eigenvalue split and no spin, at the largest prime accepted.  The
    # simples and the covers of the simples and PIMs come with the PIM
    # table: no top is built and none of them is covered by elimination.
    # A6 covers nothing by elimination; the walk over N(4,3) covers the
    # syzygies of D(A_A)
    calls, covered = [], []
    for name in ("_frobenius_fixed", "_eigen_split", "_trace_radical",
                 "_primitive_idempotents", "spin", "top_of_module"):
        monkeypatch.setattr(structure, name, lambda *args, name=name,
                            build=getattr(structure, name):
                            calls.append(name) or build(*args))
    build_cover = structure._cover_parts
    monkeypatch.setattr(structure, "_cover_parts",
                        lambda m: covered.append(m) or build_cover(m))
    quivers = {name: rest for name, *rest in _quivers()}
    for name, regime, pds in (
            ("A6", IWANAGA_GORENSTEIN, {("finite", 0), ("finite", 1)}),
            ("N(4,3)", SELF_INJECTIVE, {("exceeds", 24)})):
        a = monomial_quiver_algebra(*quivers[name], FieldSpec(65521))
        tops = simples(a)
        assert gorenstein_regime(a)[0] == regime, name
        assert {(v.kind, v.value) for v in map(pd_bounded, tops)} == pds
        known = {_content(m) for m in tops + [
            pim for pim, _, _ in _pim_triples(a)]}
        assert not [m for m in covered if _content(m) in known], name
        assert bool(covered) == (name == "N(4,3)"), name
        covered.clear()
    assert not calls, calls


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


def _fallback_tables(field):
    """Tables the certificate refuses: M_2, M_3 and their products with A2,
    and A4, N(3,2) and the first six oracle algebras in a random basis."""
    quivers = {name: rest for name, *rest in _quivers()}
    rng = np.random.default_rng(field.p)
    return _idempotent_algebras(field)[-4:] + [
        _scramble(a.sc, a.unit, field, rng) for a in _oracle_algebras(
            field)[:6] + [monomial_quiver_algebra(*quivers[name], field)
                          for name in ("A4", "N(3,2)")]]


# recorded while the fallback found eigenvalues by gcd splitting and A^op
# read its radical, idempotents and radical generators off A
FALLBACK_PIN = "21f2d54811fb93c76adcc6dc15bc0ead814a91c9b2028c9283e43bb86ec8220a"


def test_the_fallback_matches_the_pinned_digest():
    # rad A, the PIM table, the simples, the minimal resolution of each
    # simple to length 3 and the regime of every table that the certificate
    # refuses, and of its opposite, built after it
    h = hashlib.sha256()
    for p in (2, 3, 101, 65521):
        field = FieldSpec(p)
        for k, table in enumerate(_fallback_tables(field)):
            a = Algebra(field, table.sc, table.unit, validate=False)
            for side, b in enumerate((a, opposite_algebra(a))):
                assert structure._vertex_split(b) is None
                h.update(f"{k}.{side}@{p}".encode())
                _put(h, algebra_radical(b).arr)
                for pim, e, incl in _pim_triples(b):
                    for arr in (pim.acts, e, incl.arr):
                        _put(h, arr)
                for s in simples(b):
                    _put(h, s.acts)
                    res = minimal_projective_resolution(s, 3)
                    for arr in ([t.acts for t in res.terms]
                                + [d.matrix.arr for d in res.diffs]
                                + [res.epi.matrix.arr]):
                        _put(h, arr)
                h.update(repr(gorenstein_regime(b, 4)).encode())
    assert h.hexdigest() == FALLBACK_PIN


# ---------------------------------------------------------------------------
# the radical, idempotents and PIMs that the basis shows


def _chain_and_lift(a):
    """The idempotents lifted from A/rad, rad A by the trace chain, on the
    table alone."""
    rad = structure._trace_radical(a.sc.transpose(0, 2, 1), a.sc, a.field)
    return structure._primitive_idempotents(a.sc, a.unit, rad, a.field)


def _arrays(*arrs):
    """dtype, shape and bytes of each array: equal lists mean byte for byte
    equal arrays."""
    return [(x.dtype.str, x.shape, x.tobytes()) for x in arrs]


def _structure_table(a, pims=True):
    """(table, spun): rad A and the e_i, then, with `pims`, P_i, the
    inclusion, rad P_i with its inclusion and the top of every PIM of a
    fresh copy of a's table, which reads nothing off a twin, and whether
    `spin` ran to build them."""
    a = Algebra(a.field, a.sc, a.unit, validate=False)
    spins, build = [], structure.spin
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "spin",
                   lambda m, v: spins.append(m) or build(m, v))
        triples = _pim_triples(a)
        table = [_arrays(algebra_radical(a).arr, *[e for _, e, _ in triples])]
        if pims:
            table += [
                _arrays(pim.acts, incl.arr, rad.acts, rad_incl.matrix.arr,
                        top_of_module(pim)[0].acts)
                for pim, _, incl in triples
                for rad, rad_incl in [radical_of_module(pim)]]
    return table, bool(spins)


def _assert_certificate_matches_the_chain(a, certified=True, pims=True):
    # rad A, the e_i and, with `pims`, the PIM table read off the
    # certificate are byte for byte those that the trace chain, the lift
    # and the spin give, and a certified table spins nothing
    fresh = Algebra(a.field, a.sc, a.unit, validate=False)
    assert (structure._vertex_split(fresh) is not None) == certified
    got, spun = _structure_table(a, pims)
    assert spun != certified
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_vertex_split", lambda a: None)
        assert _structure_table(a, pims) == (got, True)


def _assert_on_the_idempotent_algebras(p, pims):
    # the oracle algebras, the Morita totals and their opposites are
    # certified, with their PIMs as blocks; M_2, M_3 and their products
    # with A2 are not, and fall back; a product of two certified algebras
    # is certified
    algebras = _idempotent_algebras(FieldSpec(p))
    for a in algebras[:-4]:
        _assert_certificate_matches_the_chain(a, pims=pims)
    for a in algebras[-4:]:
        _assert_certificate_matches_the_chain(a, certified=False, pims=pims)
    for a, b in zip(algebras[:-4:3], algebras[1:-4:3]):
        _assert_certificate_matches_the_chain(product_algebra(a, b),
                                              pims=pims)


def _assert_on_a_random_quiver(quiver, p, pims):
    # A, A2 x A and both opposites are certified
    field = FieldSpec(p)
    a = small_quiver_algebra(*quiver, field, paths=20)
    if a is not None:
        for b in (a, product_algebra(a2_algebra(field), a)):
            _assert_certificate_matches_the_chain(b, pims=pims)
            _assert_certificate_matches_the_chain(opposite_algebra(b),
                                                  pims=pims)


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_vertex_split_matches_the_chain_and_lift(p):
    _assert_on_the_idempotent_algebras(p, pims=False)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 101, 65521]))
def test_vertex_split_of_random_monomial_quivers(quiver, p):
    _assert_on_a_random_quiver(quiver, p, pims=False)


def _has_an_oriented_cycle(n, arrows):
    """A depth-first search over the arrows: some path returns to a vertex
    on the stack."""
    on_stack, done = set(), set()

    def visit(v):
        on_stack.add(v)
        for s, t in arrows:
            if s == v and (t in on_stack or t not in done and visit(t)):
                return True
        on_stack.discard(v)
        done.add(v)
        return False
    return any(v not in done and visit(v) for v in range(n))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 65521]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(quiver=(2, [(0, 1), (1, 0)], [(0, 1), (1, 0)]), p=2, seed=0)
@example(quiver=(1, [(0, 0)], [(0, 0)]), p=3, seed=0)
def test_triangular_is_a_quiver_with_no_oriented_cycle(quiver, p, seed):
    # the Cartan matrix off the certificate has unit diagonal and acyclic
    # off-diagonal support exactly when the drawn arrows have no oriented
    # cycle (an arrow is never zero); A^op has the reversed quiver, and a
    # table in a random basis is triangular only where it is certified
    field = FieldSpec(p)
    a = small_quiver_algebra(*quiver, field, paths=20)
    if a is None:
        return
    want = not _has_an_oriented_cycle(*quiver[:2])
    assert structure._triangular(a) == want
    assert structure._triangular(opposite_algebra(a)) == want
    b = _scramble(a.sc, a.unit, field, np.random.default_rng(seed))
    assert structure._triangular(b) == (
        want and structure._vertex_split(b) is not None)


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_pim_blocks_match_the_spin(p):
    _assert_on_the_idempotent_algebras(p, pims=True)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 101, 65521]))
def test_pim_blocks_of_random_monomial_quivers_match_the_spin(quiver, p):
    _assert_on_a_random_quiver(quiver, p, pims=True)


def _assert_seeded_covers_match_the_elimination(a):
    # over a fresh copy of a's table, each simple is byte for byte the top
    # of its PIM, and the covers of the simples and PIMs, and of copies of
    # them, are those that `_cover_parts` eliminates on a fresh copy of the
    # module; `projective_cover` eliminates none of them
    a = Algebra(a.field, a.sc, a.unit, validate=False)
    build, built = structure._cover_parts, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_cover_parts",
                   lambda m: built.append(m) or build(m))
        for (pim, _, _), s in zip(_pim_triples(a), simples(a)):
            assert _arrays(s.acts) == _arrays(top_of_module(pim)[0].acts)
            for m in (pim, s, _copy(pim), _copy(s)):
                pres = projective_cover(m)
                cover, epi, ker, incl, summands, semisimple = build(
                    LeftModule(a, m.acts.copy(), validate=False))
                assert _arrays(pres.cover.acts, pres.epi.matrix.arr,
                               pres.kernel.acts,
                               pres.kernel_inclusion.matrix.arr) == _arrays(
                    cover.acts, epi.arr, ker.acts, incl.matrix.arr)
                assert (pres.summands, pres.semisimple) == (summands,
                                                            semisimple)
    assert not built


def _with_a_sum(a, l, m):
    """a in the basis with b_l + b_m in place of b_l: certified when the
    paths b_l and b_m have the same ends, but no longer monomial, as a
    product with a b_l term now has the terms b_l + b_m and b_m."""
    g, gi = (np.eye(a.dim, dtype=np.int64) for _ in range(2))
    g[l, m], gi[l, m] = 1, -1
    return _rebased(a.sc, a.unit, a.field, g, gi)


def _non_monomial_tables(field):
    """The square 0 -> 1 -> 3, 0 -> 2 -> 3 with one path of length 2 made
    the sum of both, k<x1..x4>/(paths of length 3) with xx + xy for xx,
    and 0 -> 1 -> 2, 0 -> 2 with the path of length 2 plus the arrow 0 ->
    2 for the path: there rad^2 is spanned by no basis element, and the
    arrows read off the terms of the products would miss one."""
    quivers = (((4, [(0, 1), (0, 2), (1, 3), (2, 3)], []), 8, 9),
               ((1, [(0, 0)] * 4, [list(w) for w in np.ndindex(4, 4, 4)]),
                5, 6),
               ((3, [(0, 1), (1, 2), (0, 2)], []), 6, 5))
    return [_with_a_sum(monomial_quiver_algebra(*quiver, field), l, m)
            for quiver, l, m in quivers]


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_seeded_covers_match_the_elimination(p):
    algebras = _idempotent_algebras(FieldSpec(p))
    for a in algebras[:-4] + _non_monomial_tables(FieldSpec(p)):
        _assert_seeded_covers_match_the_elimination(a)


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_equal_content_seeds_are_the_same_arrays(monkeypatch, p):
    # where dim P_k = 1, S_k and P_k have one content, and the first seed
    # indexed is the cover that both, and every copy, read: the two seeds
    # agree byte for byte, so no output depends on which one that is
    seeds, build_shared = {}, structure.shared

    def spy(obj, name, key, build):
        seeds.setdefault((obj.over, _content(obj)), []).append(build())
        return build_shared(obj, name, key, build)
    monkeypatch.setattr(structure, "shared", spy)
    for a in _idempotent_algebras(FieldSpec(p))[:-4]:
        _pim_triples(Algebra(a.field, a.sc, a.unit, validate=False))
    pairs = [pair for pair in seeds.values() if len(pair) > 1]
    assert pairs and all(len(pair) == 2 for pair in pairs)
    for pim_seed, top_seed in pairs:
        assert pim_seed[0].dim == 1 and pim_seed[-1]
        arrays = [_arrays(cover.acts, epi.arr, ker.acts, incl.matrix.arr)
                  for cover, epi, ker, incl, *_ in (pim_seed, top_seed)]
        assert arrays[0] == arrays[1]
        assert pim_seed[4:] == top_seed[4:]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 101, 65521]))
def test_seeded_covers_of_random_monomial_quivers(quiver, p):
    # A, A2 x A and both opposites
    field = FieldSpec(p)
    a = small_quiver_algebra(*quiver, field, paths=20)
    if a is not None:
        for b in (a, product_algebra(a2_algebra(field), a)):
            _assert_seeded_covers_match_the_elimination(b)
            _assert_seeded_covers_match_the_elimination(opposite_algebra(b))


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_a_table_that_is_not_monomial_eliminates_its_arrows(monkeypatch, p):
    # each table is certified on both sides, but a product in J has two
    # terms, so rad^2 is eliminated; the arrows are those of all products
    # at once, as over the monomial table, which eliminates nothing.  The
    # opposite is a fresh table, which reads nothing off its twin
    eliminations, build = [], structure._rref_inplace
    monkeypatch.setattr(structure, "_rref_inplace",
                        lambda *args: eliminations.append(1) or build(*args))
    for a in _non_monomial_tables(FieldSpec(p)):
        op = opposite_algebra(a)
        for b in (a, Algebra(op.field, op.sc, op.unit, validate=False)):
            assert structure._vertex_split(b) is not None
            assert np.count_nonzero(b.sc, axis=2).max() == 2
            eliminations.clear()
            got, want = (structure._radical_generators(b),
                         _all_at_once_generators(b))
            assert eliminations
            assert _arrays(got) == _arrays(want)
    a2 = a2_algebra(FieldSpec(p))
    eliminations.clear()
    assert _arrays(structure._radical_generators(a2)) == _arrays(
        _all_at_once_generators(a2))
    assert not eliminations


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


def _dual_numbers_squared_at_y1_plus_y2(field):
    """k[y]/(y^2) x k[y]/(y^2) in the basis e_1, y_1 + y_2, e_2, y_2: the
    vertices e_1, e_2 and J = span(y_1 + y_2, y_2) pass three checks of
    `_vertex_split`, but (y_1 + y_2).e_1 = y_1 is no multiple of y_1 + y_2,
    so A.e_1 = span(e_1, y_1) is no block of the basis."""
    d = monomial_quiver_algebra(1, [(0, 0)], [[0, 0]], field)
    prod = product_algebra(d, d)
    g, gi = np.eye(4, dtype=np.int64), np.eye(4, dtype=np.int64)
    g[1, 3], gi[1, 3] = 1, -1
    return _rebased(prod.sc, prod.unit, field, g, gi)


@pytest.mark.parametrize("p", [2, 3, 65521])
@pytest.mark.parametrize("table, k, fails", [
    # (1 + y)^2 = (1 + y) + y is off the diagonal of sc[:, K, :] as well
    (_dual_numbers_at_one_plus_y, [0], ["idempotents", "blocks"]),
    (lambda field: Algebra(field, *_matrix_algebra(2)), [0, 3], ["ideal"]),
    (_dual_numbers_squared_at_y1_plus_y2, [0, 2], ["blocks"]),
    (_free_cube_at_mixed_degrees, [0], ["nilpotent"]),
], ids=["idempotents", "ideal", "blocks", "nilpotent"])
def test_a_table_that_fails_one_check_falls_back(monkeypatch, table, k,
                                                 fails, p):
    a = table(FieldSpec(p))
    # the nonzero diagonals are at k; each table breaks the checks named
    vertex = np.diagonal(a.sc, axis1=1, axis2=2).any(axis=1)
    assert vertex.nonzero()[0].tolist() == k
    assert [c for c, held in _checks(a).items() if not held] == fails
    calls = _spy_chain(monkeypatch)
    _assert_certificate_matches_the_chain(a, certified=False)
    assert calls.count("_trace_radical") == 2


def _checks(a):
    """The four checks of the certificate, the first written out in full:
    the b_k are orthogonal idempotents summing to 1."""
    sc = a.sc
    vertex = np.diagonal(sc, axis1=1, axis2=2).any(axis=1)
    k, j = np.flatnonzero(vertex), np.flatnonzero(~vertex)
    return {
        "idempotents": (sc[np.ix_(k, k)] == np.eye(len(k), dtype=np.int64)[
            ..., None] * np.eye(a.dim, dtype=np.int64)[k]).all()
        and (a.unit == vertex).all(),
        "ideal": not sc[j][..., k].any() and not sc[:, j][..., k].any(),
        "blocks": np.count_nonzero(sc[:, k]) == np.count_nonzero(
            np.diagonal(sc[:, k], axis1=0, axis2=2)),
        # an acyclic graph on J has no walk of length |J|
        "nilpotent": not np.linalg.matrix_power(
            sc[np.ix_(j, j, j)].any(axis=0).astype(np.int64), len(j)).any()}


def _rescaled_vertex(a, k, c):
    """a in the basis with c.b_k in place of the vertex b_k: (c.b_k)^2 =
    c.(c.b_k), so for c not 0 or 1 the b_k are no idempotents, while J,
    the blocks and the product graph are those of a."""
    g, gi = (np.eye(a.dim, dtype=np.int64) for _ in range(2))
    g[k, k], gi[k, k] = c, pow(c, -1, a.field.p)
    return _rebased(a.sc, a.unit, a.field, g, gi)


@pytest.mark.parametrize("p", [3, 101, 65521])
def test_the_unit_check_accepts_the_tables_the_idempotent_check_did(p):
    # sc[k, k, k] = 1 with the other three checks gives orthogonal
    # idempotents summing to 1 (`_vertex_split`): the certificate accepts
    # exactly the tables that pass the four checks written out in full,
    # over the idempotent algebras, each of their vertices rescaled by 2
    # and by -1, and the table of k[y]/(y^2) in the basis 1 + y, y
    field = FieldSpec(p)
    algebras = _idempotent_algebras(field)
    rescaled = [_rescaled_vertex(a, int(k), c) for a in algebras[:-4:3]
                for k in np.flatnonzero(np.diagonal(
                    a.sc, axis1=1, axis2=2).any(axis=1))
                for c in sorted({2, p - 1})]
    accepted = 0
    for a in algebras + rescaled + [_dual_numbers_at_one_plus_y(field)]:
        fresh = Algebra(a.field, a.sc, a.unit, validate=False)
        certified = structure._vertex_split(fresh) is not None
        assert certified == all(_checks(a).values())
        accepted += certified
    assert accepted == len(algebras) - 4
    for a in rescaled:
        assert [c for c, held in _checks(a).items() if not held] == [
            "idempotents"]
    _assert_certificate_matches_the_chain(rescaled[0], certified=False)


def _two_arrows_at_a_plus_b(field):
    """The quiver 0 -> 1, 0 -> 2 with arrows a, b in the basis e_0, e_1,
    e_2, a, a + b: (a + b).e_0 = a + b, so A passes the four checks, but
    e_1.(a + b) = a, so the b_k.A are no blocks and A^op fails one."""
    a = monomial_quiver_algebra(3, [(0, 1), (0, 2)], [], field)
    g, gi = np.eye(5, dtype=np.int64), np.eye(5, dtype=np.int64)
    g[4, 3], gi[4, 3] = 1, -1
    return _rebased(a.sc, a.unit, field, g, gi)


def _one_side(a):
    """rad A, the PIM table, the simples, and the covers, pd and Ext of the
    simples and of D(A)."""
    mods = simples(a) + [dual_module(LeftModule.regular(
        opposite_algebra(a)))]
    return ([_arrays(algebra_radical(a).arr)]
            + [_arrays(pim.acts, e, incl.arr) for pim, e, incl in
               _pim_triples(a)] + [_arrays(*(s.acts for s in simples(a)))]
            + _cover_digest(mods, LeftModule.regular(a)))


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_a_one_sided_table_certifies_one_side(monkeypatch, p):
    # A is certified and A^op is not: each checks its own table, and each
    # side answers as the trace chain, the lift and the spin do.  A^op
    # splits its idempotents along eigenvalues that a scan of GF(p) finds,
    # also at the largest prime accepted, and has the regime of the quiver
    roots, scan = [], structure._roots
    monkeypatch.setattr(structure, "_roots",
                        lambda f, q: roots.append(q) or scan(f, q))
    a = _two_arrows_at_a_plus_b(FieldSpec(p))
    got = [_one_side(a), _one_side(opposite_algebra(a))]
    assert structure._vertex_split(a) is not None
    assert structure._vertex_split(opposite_algebra(a)) is None
    assert roots and set(roots) == {p}, roots
    assert gorenstein_regime(opposite_algebra(a))[0] == IWANAGA_GORENSTEIN
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_vertex_split", lambda a: None)
        b = Algebra(a.field, a.sc, a.unit, validate=False)
        assert [_one_side(b), _one_side(opposite_algebra(b))] == got


def test_the_benchmark_algebras_are_certified():
    # the algebras, extension totals and Morita totals of the built-in
    # workspace, and wild, A2 and N(2,2) at p = 65521, and the opposite of
    # each, take the one route that reads rad A, the e_i and the PIMs off
    # the basis
    ws = Workspace(emit_builtin_examples())
    algebras = (list(ws.algebras.values())
                + [e.total for e in ws.extensions.values()]
                + [c.total for c in ws.contexts.values()])
    quivers = {name: rest for name, *rest in _quivers()}
    algebras += [monomial_quiver_algebra(*quivers[name], FieldSpec(65521))
                 for name in ("wild", "A2", "N(2,2)")]
    assert len(algebras) == 11
    for a in algebras + [opposite_algebra(a) for a in algebras]:
        assert structure._vertex_split(a) is not None


def _a3_in_a_random_basis():
    """A3 at p = 3 in a random basis, which the certificate refuses."""
    field = FieldSpec(3)
    a3 = monomial_quiver_algebra(3, [(0, 1), (1, 2)], [], field)
    return _scramble(a3.sc, a3.unit, field, np.random.default_rng(41))


def test_a3_in_a_random_basis_runs_the_trace_chain(monkeypatch):
    a = _a3_in_a_random_basis()
    calls = _spy_chain(monkeypatch)
    assert [s.dim for s in simples(a)] == [1, 1, 1]
    assert calls == ["_trace_radical", "_primitive_idempotents"]
    assert algebra_radical(a).rows == 3
    calls.clear()
    simples(monomial_quiver_algebra(3, [(0, 1), (1, 2)], [], FieldSpec(3)))
    assert not calls


def test_pim_idempotents_hash_as_the_lift_gives_them():
    # the e_i of the PIM table, read off the basis where it shows them, on
    # A and on A^op alike, hash as the first idempotent of every block that
    # the lift gives on the table alone
    read, lifted = hashlib.sha256(), hashlib.sha256()
    for p in (2, 3, 101, 65521):
        field = FieldSpec(p)
        for a in _idempotent_algebras(field):
            for _, e, _ in _pim_triples(a):
                _put(read, e)
            for group in _chain_and_lift(a):
                _put(lifted, group[0])
    assert read.hexdigest() == lifted.hexdigest()


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
    # the same modules over a fresh copy of the table, with the certificate
    # stubbed out: trace chain, lift, spin and products instead of blocks
    # and gathers, and byte for byte the same covers and Ext
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
        assert digest(Algebra(a.field, a.sc, a.unit, validate=False)) == want


# ---------------------------------------------------------------------------
# eigenvalues by a blocked Horner scan


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


def _assert_roots(p, roots):
    # f = prod (t - r) over the distinct roots; for all of GF(p), t^p - t
    f = [1]
    for r in roots:
        f = [(lo - r * hi) % p for lo, hi in zip([0] + f, f + [0])]
    assert f[-1] == 1 and len(f) == len(roots) + 1
    assert structure._roots(f, p) == _horner_roots(f, p) == sorted(roots)


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
def test_roots_match_the_horner_scan(p, k, seed):
    _assert_roots(p, random.Random(seed).sample(range(p), min(k, p)))


@pytest.mark.parametrize("p, roots", [
    (2, [0]), (2, [1]), (2, [1, 0]), (3, [0]), (3, [2]), (3, [2, 0]),
    (3, [1, 2, 0]), (2053, [2047]), (2053, [2048]), (2053, [2052, 2047]),
    (2053, [2048, 0, 2052]), (65521, [65520]), (65521, [2048, 2047]),
    (65521, [65520, 4095, 2048, 2047, 0, 4096, 63487, 63488])])
def test_roots_at_the_ends_of_the_blocks(p, roots):
    # the scan runs 2048 points at a time: roots on either side of a block
    # boundary, at p - 1 in a short last block, and over GF(2) and GF(3)
    _assert_roots(p, roots)


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
    # rad^2 and the last 4 none of it; the certified monomial tables read
    # their arrows off, so the loops are eliminated with a sum in rad^2
    field, rng = FieldSpec(p), np.random.default_rng(p)
    a7, a8 = (monomial_quiver_algebra(n, [(i, i + 1) for i in range(n - 1)],
                                      [], field) for n in (7, 8))
    loops = monomial_quiver_algebra(1, [(0, 0)] * 4, [
        list(w) for w in np.ndindex(4, 4, 4)], field)
    algebras = _idempotent_algebras(field) + [
        a7, a8, loops, _scramble(a7.sc, a7.unit, field, rng)]
    for a in algebras + _non_monomial_tables(field):
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
