"""Submodules and quotients read their induced actions off echelon pivots
and check invariance instead of the module law, and isomorphisms come from
matching indecomposable summands.  Each is compared here with the
construction it replaced, proper submodules and isomorphisms with a full
sweep, and isomorphism, splitting and dimension verdicts with a random
change of basis."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extalg
from conftest import (a2_algebra, a2_morita_ring, double_extension,
                      local_wild_algebra, nakayama_ring, random_module,
                      square_zero_extension, triangular_extension)
from extalg.algebra import (AlgebraError, HomSpace, LeftModule,
                            block_sum_module, monomial_quiver_algebra,
                            opposite_algebra, quotient_module)
from extalg.gorenstein import gp_check
from extalg.homology import pd_bounded
from extalg.linalg import (FieldSpec, FpMatrix, inverse, is_invertible,
                           quotient_maps, rank, row_basis, solve)
from extalg.structure import find_isomorphism, split_module, spin
from reference import chop, element, submodule

ALGEBRAS = {
    "dual_numbers": lambda f: square_zero_extension(f).total,
    "triangular": lambda f: triangular_extension(f).total,
    "a2": a2_algebra,
    "wild": local_wild_algebra,
    "double": lambda f: double_extension(f).total,
    "nakayama": lambda f: nakayama_ring(f).total,
    "a2_ring": lambda f: a2_morita_ring(f).total,
}


def _free(a):
    """The free module of rank 2, checked against the module law."""
    reg = LeftModule.regular(a)
    free = block_sum_module([reg, reg])
    free.validate()
    return free


def _solve_submodule(x, rows):
    """Induced action by one solve per basis element, law checked."""
    incl = row_basis(rows).transpose()
    action = [solve(incl, am @ incl) for am in x.action]
    if any(c is None for c in action):
        return None
    return LeftModule(x.over, action), incl


def _is_invariant(x, rows):
    span = rank(rows)
    return all(rank(FpMatrix(np.vstack([rows.arr, (rows.arr @ am.arr.T)]),
                             rows.field)) == span for am in x.action)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)),
       p=st.sampled_from([2, 3, 101, 65521]),
       side=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_subquotients_match_solve_oracle(name, p, side, seed):
    field = FieldSpec(p)
    a = ALGEBRAS[name](field)
    x = _free(a if side == "left" else opposite_algebra(a))
    rng = np.random.default_rng(seed)
    spun = row_basis(FpMatrix(np.vstack([
        spin(x, rng.integers(0, p, size=x.dim)).arr for _ in range(2)]),
        field))
    loose = FpMatrix(rng.integers(0, p, size=(2, x.dim)), field)
    for rows in (spun, loose):
        oracle = _solve_submodule(x, rows)
        if oracle is None:
            with pytest.raises(AlgebraError):
                submodule(x, rows)
        else:
            sub, incl = submodule(x, rows)
            assert sub.action == oracle[0].action
            assert incl.matrix == oracle[1]
        if _is_invariant(x, rows):
            quo, proj, section = quotient_module(x, rows.transpose())
            qm = quotient_maps(rows.transpose())
            law_checked = LeftModule(x.over, [qm.project @ am @ qm.include
                                              for am in x.action])
            assert quo.action == law_checked.action
            assert proj.matrix == qm.project and section == qm.include
        else:
            with pytest.raises(AlgebraError):
                quotient_module(x, rows.transpose())


def _dual_numbers_plane():
    """k[y]/(y^2) acting on k^2 with y e_0 = e_1."""
    field = FieldSpec(3)
    total = square_zero_extension(field).total
    nil = FpMatrix([[0, 0], [1, 0]], field)
    return LeftModule(total, [FpMatrix.identity(2, field), nil])


def test_non_invariant_rows_raise():
    m = _dual_numbers_plane()
    with pytest.raises(AlgebraError, match="do not span a submodule"):
        submodule(m, FpMatrix([[1, 0]], m.over.field))
    # public rows need not be in RREF: they are echelonized on the way in
    sub, incl = submodule(m, FpMatrix([[0, 2]], m.over.field))
    assert sub.dim == 1 and incl.matrix == FpMatrix([[0], [1]], m.over.field)


def test_non_invariant_relations_raise_even_when_the_law_holds():
    m = _dual_numbers_plane()
    rel = FpMatrix([[1], [0]], m.over.field)  # span(e_0), not invariant
    # the induced action satisfies the module law, so checking the law
    # alone accepts this quotient, though the projection is no module map
    qm = quotient_maps(rel)
    LeftModule(m.over, [qm.project @ am @ qm.include for am in m.action])
    with pytest.raises(AlgebraError, match="do not span a submodule"):
        quotient_module(m, rel)
    assert quotient_module(m, FpMatrix([[0], [1]], m.over.field))[0].dim == 1


@pytest.mark.parametrize("side", ["left", "right"])
def test_subquotients_make_no_solve_and_no_law_check(monkeypatch, side):
    a = nakayama_ring(FieldSpec(3)).total
    x = random_module(a if side == "left" else opposite_algebra(a),
                      np.random.default_rng(5), max_dim=6)
    calls = []
    for mod in (extalg.linalg, extalg.algebra):
        if hasattr(mod, "solve"):
            monkeypatch.setattr(mod, "solve",
                                lambda *a: calls.append("solve"))
    monkeypatch.setattr(LeftModule, "validate",
                        lambda self: calls.append("validate"))
    rows = spin(x, np.eye(x.dim, dtype=np.int64)[-1])
    sub, _ = submodule(x, rows)
    quo, _, _ = quotient_module(x, rows.transpose())
    assert sub.dim + quo.dim == x.dim and calls == []


# ---------------------------------------------------------------------------
# submodules and isomorphisms against full sweeps


def _full_sweep_submodule(m):
    for v in itertools.product(range(m.over.field.p), repeat=m.dim):
        if any(v):
            s = spin(m, v)
            if s.rows < m.dim:
                return s
    return None


def _full_sweep_isomorphism(m, n):
    hs = HomSpace(m, n)
    for coords in itertools.product(range(m.over.field.p), repeat=hs.dim):
        if any(coords):
            h = element(hs, coords)
            if is_invertible(h.matrix):
                return h.matrix
    return None


def _conjugate(m, rng):
    p = m.over.field.p
    while True:
        g = FpMatrix(rng.integers(0, p, size=(m.dim, m.dim)), m.over.field)
        gi = inverse(g)
        if gi is not None:
            return LeftModule(m.over, [g @ am @ gi for am in m.action])


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_projective_sweeps_match_full_sweeps(name, p):
    a = ALGEBRAS[name](FieldSpec(p))
    rng = np.random.default_rng(p)
    mods = [random_module(a, rng, max_dim=4) for _ in range(3)]
    for m in mods:
        # the first step of a composition series is a proper submodule
        # exactly when m is neither simple nor zero
        series = chop(m)
        if _full_sweep_submodule(m) is None:
            assert len(series.factors) <= 1
        else:
            found = series.witnesses[0].matrix.transpose()
            assert len(series.factors) > 1
            assert 0 < found.rows < m.dim and _is_invariant(m, found)
        for n in mods + [_conjugate(m, rng)]:
            # keep the full sweep of the oracle short
            if n.dim != m.dim or p ** HomSpace(m, n).dim > 5 ** 4:
                continue
            iso = find_isomorphism(m, n)
            assert (iso is None) == (_full_sweep_isomorphism(m, n) is None)
            if iso is not None:
                iso.validate()
                assert iso.is_iso()


def test_one_dimensional_hom_at_large_prime_takes_one_element():
    """At p = 65521 the one basis element of a one-dimensional Hom decides
    it; none of its p - 2 other nonzero multiples is looked at."""
    field = FieldSpec(65521)
    a = monomial_quiver_algebra(2, [(0, 1)], [], field)
    simple = LeftModule(a, [FpMatrix([[c]], field) for c in (1, 0, 0)])
    other = LeftModule(a, [FpMatrix([[c]], field) for c in (0, 1, 0)])
    iso = find_isomorphism(simple, simple)
    iso.validate()
    assert iso.is_iso()
    assert find_isomorphism(simple, other) is None  # Hom = 0


@settings(derandomize=True, max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)),
       p=st.sampled_from([2, 3, 5, 101, 65521]),
       parts=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_verdicts_survive_a_change_of_basis(name, p, parts, seed):
    a = ALGEBRAS[name](FieldSpec(p))
    rng = np.random.default_rng(seed)
    m = block_sum_module([random_module(a, rng, max_dim=3)
                          for _ in range(parts)])
    n = _conjugate(m, rng)
    iso = find_isomorphism(m, n)
    iso.validate()
    assert iso.is_iso()
    assert sorted(s.dim for s, _ in split_module(m)) == \
        sorted(s.dim for s, _ in split_module(n))
    assert pd_bounded(m, 4) == pd_bounded(n, 4)
    assert gp_check(m, 4).answer == gp_check(n, 4).answer
