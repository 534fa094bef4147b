import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import extalg.gorenstein
import extalg.homology
from conftest import (FIELD2, FIELD3, _count_cover_builds, a2_algebra,
                      a2_morita_ring, double_extension, local_wild_algebra,
                      monomial_quivers, nakayama_ring, product_morita_ring,
                      random_copair, random_module, random_pair,
                      small_quiver_algebra, square_zero_extension,
                      triangular_extension)
from extalg.algebra import (Algebra, Bimodule, LeftModule, dual_module,
                            field_algebra, hom_space,
                            is_kernel_inclusion, monomial_quiver_algebra,
                            opposite_algebra, product_algebra,
                            tensor_bimodule_left)
from extalg.cli import Workspace, emit_builtin_examples
from extalg.gorenstein import (CERTIFIED_NO, CERTIFIED_YES,
                               IWANAGA_GORENSTEIN, PROBABLE_YES,
                               SELF_INJECTIVE, UNKNOWN, CompleteResolution,
                               GorensteinError, biduality_map,
                               build_copair_complete_coresolution,
                               build_pair_complete_resolution,
                               compatibility_report, complete_resolution,
                               gf_check_right, gi_check, gorenstein_regime,
                               gp_check, holds, solve_module_hom,
                               star_module,
                               thm_pair_hypotheses,
                               validate_complete_resolution,
                               validate_copair_complete_coresolution,
                               validate_pair_complete_resolution,
                               verify_cor35, verify_cor45, verify_cor48,
                               zr_bimodule)
from extalg.homology import (DimensionVerdict, ExtResult, default_bound,
                             ext_dims, ext_from_resolution, id_bounded,
                             minimal_projective_resolution,
                             non_minimal_resolution)
from extalg.linalg import FieldSpec, FpMatrix, is_invertible, rank
from extalg.structure import find_isomorphism, is_projective, simples
from extalg.trivext import (_extend, functor_C, functor_Z_copair,
                            functor_Z_pair, module_to_copair, module_to_pair,
                            opposite_extension, pair_to_module)
from test_resolution_fingerprint import _quivers
from test_structure import _a3_in_a_random_basis, _prime_at_most, _scramble


@pytest.fixture(scope="module")
def d_ext():
    return square_zero_extension(FIELD2)


@pytest.fixture(scope="module")
def tri_ext():
    return triangular_extension(FIELD2)


def simple_over(d_ext):
    return LeftModule(d_ext.total, [FpMatrix.identity(1, FIELD2),
                                    FpMatrix.zeros(1, 1, FIELD2)])


# ---------------------------------------------------------------------------
# regimes


def test_regimes(d_ext, tri_ext):
    regime, dl, dr = gorenstein_regime(d_ext.total)
    assert regime == SELF_INJECTIVE and dl.value == 0 and dr.value == 0
    regime, dl, dr = gorenstein_regime(tri_ext.total)
    assert regime == IWANAGA_GORENSTEIN and dl.value == 1 and dr.value == 1
    regime, dl, dr = gorenstein_regime(local_wild_algebra(FIELD2), bound=3)
    assert regime == UNKNOWN
    assert not dl.is_finite() and not dr.is_finite()
    dd = double_extension(FIELD2)
    assert gorenstein_regime(dd.total)[0] == SELF_INJECTIVE


def test_regime_cached(d_ext):
    a = d_ext.total
    first = gorenstein_regime(a)
    assert gorenstein_regime(a) is first


def _opposite_table(a):
    """A^op as a fresh algebra, linked to no regime that A has read."""
    return Algebra(a.field, np.ascontiguousarray(a.sc.transpose(1, 0, 2)),
                   a.unit, validate=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 101, 65521]),
       bound=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
@example(quiver=(3, [(0, 1), (1, 2)], [(0, 1)]), p=2, bound=3, seed=0)
@example(quiver=(2, [(0, 1), (1, 1)], [(1, 1)]), p=3, bound=2, seed=0)
@example(quiver=(2, [(0, 1), (1, 0), (1, 1)], [(1, 0), (2, 2)]), p=101,
         bound=3, seed=0)
def test_regime_matches_the_two_dual_walks(quiver, p, bound, seed):
    # dl is read off dr (QF, Zaks) where the certificate holds and walked
    # over A^op elsewhere: against both walks on a fresh copy of A, of
    # A^op and of A in a random basis, which the certificate refuses.  In
    # the examples dr = dl = 2 (A3 mod its path of length 2), and a simple
    # of infinite pd makes the regime read Ext^(dr+1)(S, A) for dr = 1
    # (0 -> 1 with a loop at 1 of square 0) and dr = 2
    field = FieldSpec(p)
    a = small_quiver_algebra(*quiver, field, paths=12)
    if a is None:
        return
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        _count_cover_builds(mp, limit=60)
        for x in (Algebra(field, a.sc, a.unit, validate=False),
                  _opposite_table(a), _scramble(a.sc, a.unit, field, rng)):
            got = gorenstein_regime(x, bound)[1:]
            assert got == (id_bounded(LeftModule.regular(x), bound),
                           id_bounded(LeftModule.regular(opposite_algebra(x)),
                                      bound))


def test_a_nonzero_ext_past_dr_makes_dl_infinite(monkeypatch):
    # no known algebra has dr finite and dl infinite (that would refute
    # the Gorenstein symmetry conjecture), so a nonzero Ext^2(S_0, A) is
    # faked over 0 -> 1 with a loop at 1 of square 0, where dr = 1 and S_0
    # has infinite pd: dl is then past every bound, as a walk would find
    calls = []

    def nonzero(res, n, i):
        calls.append(i)
        return ExtResult(1, 1, 0)
    monkeypatch.setattr(extalg.gorenstein, "ext_from_resolution", nonzero)
    a = monomial_quiver_algebra(2, [(0, 1), (1, 1)], [[1, 1]], FIELD3)
    regime, dl, dr = gorenstein_regime(a, 4)
    assert (regime, dl, dr) == (UNKNOWN, DimensionVerdict.exceeds(4),
                                DimensionVerdict.finite(1))
    assert calls == [2]


def _dual_walks(monkeypatch):
    """The modules whose dual the regime walks, from now on."""
    walks, walk = [], extalg.gorenstein.id_bounded
    monkeypatch.setattr(extalg.gorenstein, "id_bounded",
                        lambda m, bound: walks.append(m) or walk(m, bound))
    return walks


def _both_walks(a, bound):
    """(id(_A A), id(A_A)), each walked over the dual."""
    return (id_bounded(LeftModule.regular(a), bound),
            id_bounded(LeftModule.regular(opposite_algebra(a)), bound))


# gl.dim 2: 0 -> 1 -> 2 with the path of length 2 zero
_A3_MOD_PATH2 = (3, [(0, 1), (1, 2)], [[0, 1]])
# quivers with no oriented cycle, and their (dl, dr) = gl.dim
_ACYCLIC = [(f"A{n}", (n, [(i, i + 1) for i in range(n - 1)], []), 1)
            for n in range(2, 7)] + [
    ("A3 mod its path of length 2", _A3_MOD_PATH2, 2),
    ("the square with 0 -> 1 -> 3 zero",
     (4, [(0, 1), (1, 3), (0, 2), (2, 3)], [[0, 1]]), 2)]


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_an_acyclic_quiver_reads_its_regime_off_the_simples(monkeypatch,
                                                             p):
    # finite global dimension: dl = dr is read off Ext^i(S, A) on the
    # simples, with no dual walk, and equals both walks
    walks = _dual_walks(monkeypatch)
    for name, quiver, gldim in _ACYCLIC:
        a = monomial_quiver_algebra(*quiver, FieldSpec(p))
        regime, *got = gorenstein_regime(a)
        assert not walks, name
        assert regime == IWANAGA_GORENSTEIN, name
        assert got == [DimensionVerdict.finite(gldim)] * 2, name
        assert tuple(got) == _both_walks(a, default_bound(a)), name


def test_a_zero_top_ext_sends_the_regime_to_the_walks(monkeypatch):
    # Ext^n(S, A) != 0 for a simple S of pd n, so reading it certifies the
    # route; faked to 0 over A3 mod its path of length 2 (n = 2), the
    # regime walks the duals instead
    calls = []
    monkeypatch.setattr(
        extalg.gorenstein, "ext_from_resolution",
        lambda res, n, i: calls.append(i) or ExtResult(0, 0, 0))
    walks = _dual_walks(monkeypatch)
    a = monomial_quiver_algebra(*_A3_MOD_PATH2, FIELD3)
    got = gorenstein_regime(a)[1:]
    assert calls == [2] and walks
    assert got == _both_walks(a, default_bound(a))


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_a_pd_past_the_bound_or_a_cycle_walks_the_dual(monkeypatch, p):
    # a simple of pd 2 at bound 1, cyclic quivers (N(3,2), the wild
    # algebra, one loop of square 0) and a table the certificate refuses
    # keep the dual walks, and their verdicts
    walks, field = _dual_walks(monkeypatch), FieldSpec(p)
    a3_mod = monomial_quiver_algebra(*_A3_MOD_PATH2, field)
    cases = [(a3_mod, 1)] + [(monomial_quiver_algebra(*quiver, field), None)
                             for quiver in (
        (3, [(0, 1), (1, 2), (2, 0)], [[0, 1], [1, 2], [2, 0]]),
        (1, [(0, 0), (0, 0)], [[0, 0], [0, 1], [1, 0], [1, 1]]),
        (1, [(0, 0)], [[0, 0]]))] + [(_a3_in_a_random_basis(), None)]
    for a, bound in cases:
        got = gorenstein_regime(a, bound)[1:]
        assert walks
        assert got == _both_walks(a, bound or default_bound(a))
        walks.clear()
    assert gorenstein_regime(a3_mod, 1)[0] == UNKNOWN


def _primes_upto(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(n ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    return np.flatnonzero(sieve).tolist()


def test_regime_at_a_slice_of_the_primes():
    # the closed forms at the primes around the 2048-point blocks of the
    # root scan, at every 100th prime and at every p <= dim A (dim A <= 6
    # here, so p in 2, 3, 5): A_n is Iwanaga-Gorenstein with dl = dr = 1,
    # N(n,k) self-injective and the wild algebra unknown, on A and on a
    # fresh A^op, in the path basis and, for A3, in a random one, which
    # takes the fallback
    primes = _primes_upto(65521)
    spread = {2053, *primes[99::100],
              *(_prime_at_most(2 ** k - 1) for k in range(12, 17))}
    quivers = {name: rest for name, *rest in _quivers()}
    want = {"A2": (IWANAGA_GORENSTEIN, 1, 1), "A3": (IWANAGA_GORENSTEIN, 1, 1),
            "N(2,2)": (SELF_INJECTIVE, 0, 0), "N(3,2)": (SELF_INJECTIVE, 0, 0),
            "wild": (UNKNOWN, 10, 10)}
    for p in sorted(spread | set(primes[:3])):
        field = FieldSpec(p)
        tables = {name: monomial_quiver_algebra(*quivers[name], field)
                  for name in want}
        a3 = tables["A3"]
        for name, a in [*tables.items(), ("A3", _scramble(
                a3.sc, a3.unit, field, np.random.default_rng(p)))]:
            if p in spread or p <= a.dim:
                for x in (a, _opposite_table(a)):
                    regime, dl, dr = gorenstein_regime(x)
                    assert (regime, dl.value, dr.value) == want[name], \
                        (name, p, x is a)


# ---------------------------------------------------------------------------
# star and biduality


def test_star_of_regular(d_ext):
    reg = LeftModule.regular(d_ext.total)
    star, _ = star_module(reg)
    op = opposite_algebra(d_ext.total)
    assert star.over is op
    assert find_isomorphism(star, LeftModule.regular(op)) is not None
    ev = biduality_map(reg)
    assert is_invertible(ev.matrix)


def test_biduality_defect_on_simple(tri_ext):
    # the injective non-projective simple has a degenerate star
    bad = [s for s in simples(tri_ext.total)
           if not is_projective(s)]
    assert bad
    ev = biduality_map(bad[0])
    assert ev.matrix.rows != ev.matrix.cols or not is_invertible(ev.matrix)


# ---------------------------------------------------------------------------
# deciders


def test_gp_self_injective_regime(d_ext):
    reg = LeftModule.regular(d_ext.total)
    v = gp_check(reg)
    assert v.answer == CERTIFIED_YES and v.certificate["reason"] == "projective"
    vs = gp_check(simple_over(d_ext))
    assert vs.answer == CERTIFIED_YES
    assert vs.certificate["reason"] == "self_injective_regime"
    assert vs.is_yes() and not vs.is_no()


def test_gp_iwanaga_gorenstein_split(tri_ext):
    verdicts = [gp_check(s) for s in simples(tri_ext.total)]
    answers = sorted(v.answer for v in verdicts)
    assert answers == [CERTIFIED_NO, CERTIFIED_YES]
    no = [v for v in verdicts if v.is_no()][0]
    cert = no.certificate
    assert cert["reason"] == "nonvanishing_ext_vs_regular"
    assert cert["index"] == 1 and cert["dim"] == 1 and cert["side"] == "module"


def test_certified_no_witness_sound(tri_ext):
    # recompute the witnessed Ext dimension through the padded resolution
    bad = [s for s in simples(tri_ext.total) if gp_check(s).is_no()][0]
    cert = gp_check(bad).certificate
    res = non_minimal_resolution(bad, cert["index"] + 2)
    redone = ext_from_resolution(res, LeftModule.regular(tri_ext.total),
                                 cert["index"])
    assert redone.dim == cert["dim"]


def test_gp_unknown_regime_refutation():
    w = local_wild_algebra(FIELD2)
    s = simples(w)[0]
    v = gp_check(s, bound=3)
    assert v.regime == UNKNOWN and v.is_no()
    assert v.certificate["reason"] in ("nonvanishing_ext_vs_regular",
                                       "biduality_not_invertible")
    vp = gp_check(LeftModule.regular(w), bound=3)
    assert vp.answer == CERTIFIED_YES


@pytest.mark.parametrize("p", [2, 3, 101])
def test_gp_unknown_regime_probable_yes(p):
    # k[x]/(x^2) x wild: the simple of the first factor passes both sides of
    # the battery and the biduality check; the wild simple fails the first
    field = FieldSpec(p)
    dual = monomial_quiver_algebra(1, [(0, 0)], [[0, 0]], field)
    a = product_algebra(dual, local_wild_algebra(field))
    # the unit of the first factor acts as 1 on that factor's simple only
    first, wild = sorted(simples(a), key=lambda s: -s.action[0].arr[0, 0])
    v = gp_check(first, bound=3)
    assert (v.answer, v.regime) == (PROBABLE_YES, UNKNOWN)
    assert v.certificate == {"reason": "totally_reflexive_battery",
                             "checked": 3}
    w = gp_check(wild, bound=3)
    assert (w.answer, w.regime) == (CERTIFIED_NO, UNKNOWN)
    assert w.certificate == {"reason": "nonvanishing_ext_vs_regular",
                             "index": 1, "dim": 3, "side": "module"}


def _gp_oracle(g, bound):
    """gp_check's answer and certificate off the full battery: every
    Ext^i(-, A), i <= limit, read off a resolution of length limit + 1."""
    regime, dl, dr = gorenstein_regime(g.over, bound)
    if g.dim == 0 or is_projective(g):
        return CERTIFIED_YES, {"reason": "projective"}
    if regime == SELF_INJECTIVE:
        return CERTIFIED_YES, {"reason": "self_injective_regime"}
    limit = dl.value if regime == IWANAGA_GORENSTEIN else bound
    for side in ("module", "transpose"):
        mod = g if side == "module" else star_module(g)[0]
        res = minimal_projective_resolution(mod, limit + 1)
        dims = list(ext_dims(res, LeftModule.regular(mod.over), limit))
        assert res.length() == limit + 1
        bad = [i for i, e in enumerate(dims) if i and e.dim]
        if bad:
            return CERTIFIED_NO, {"reason": "nonvanishing_ext_vs_regular",
                                  "index": bad[0], "dim": dims[bad[0]].dim,
                                  "side": side}
        if regime == IWANAGA_GORENSTEIN:
            return CERTIFIED_YES, {
                "reason": "ext_vanishing_up_to_selfinjective_dimension",
                "checked": limit, "id_left": dl.value, "id_right": dr.value}
    ev = biduality_map(g).matrix
    if not is_invertible(ev):
        return CERTIFIED_NO, {"reason": "biduality_not_invertible",
                              "rank": rank(ev), "dim": g.dim,
                              "bidual_dim": ev.rows}
    return PROBABLE_YES, {"reason": "totally_reflexive_battery",
                          "checked": bound}


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_early_stopping_battery_matches_the_full_one(p):
    # each algebra is built twice, so that the oracle shares no cache with
    # the decider; the opposite algebra is the algebra itself exactly when
    # the algebra is commutative
    field, rng = FieldSpec(p), np.random.default_rng(p)
    builders = [
        lambda: square_zero_extension(field).total,
        lambda: triangular_extension(field).total,
        lambda: a2_algebra(field), lambda: local_wild_algebra(field),
        lambda: double_extension(field).total,
        lambda: nakayama_ring(field).total,
        lambda: a2_morita_ring(field).total,
        lambda: product_morita_ring(field).total,
        lambda: product_algebra(monomial_quiver_algebra(
            1, [(0, 0)], [[0, 0]], field), local_wild_algebra(field))]
    commutative = []
    for build in builders:
        a, b = build(), build()
        commutative.append(np.array_equal(a.sc, a.sc.transpose(1, 0, 2)))
        assert (opposite_algebra(a) is a) == commutative[-1]
        mods = simples(a) + [random_module(a, rng) for _ in range(2)] + [
            random_module(opposite_algebra(a), rng)]
        for m in mods:
            v = gp_check(m, 3)
            over = b if m.over is a else opposite_algebra(b)
            assert (v.answer, v.certificate) == \
                _gp_oracle(LeftModule(over, m.action), 3)
    assert 0 < sum(commutative) < len(builders)


def test_gi_and_gf_routes(d_ext):
    s = simple_over(d_ext)
    vi = gi_check(s)
    assert vi.answer == CERTIFIED_YES
    assert vi.certificate["route"] == "dual_over_opposite"
    sr = LeftModule(opposite_algebra(d_ext.total), [
        FpMatrix.identity(1, FIELD2), FpMatrix.zeros(1, 1, FIELD2)])
    vf = gf_check_right(sr)
    assert vf.answer == CERTIFIED_YES
    assert vf.certificate["route"] == "character_dual"


def test_gp_gi_duality_coherence(tri_ext):
    # gp of m agrees with gi of its linear dual on the other side
    for s in simples(tri_ext.total):
        gp = gp_check(s)
        gi = gi_check(dual_module(s))  # a module over the opposite algebra
        assert gp.is_yes() == gi.is_yes()


# ---------------------------------------------------------------------------
# compatibility reports


def test_compatibility_established(tri_ext):
    rep = compatibility_report(tri_ext.bimodule)
    assert rep.sufficient_via == "finite_fd_and_pd"
    zr = compatibility_report(zr_bimodule(tri_ext))
    assert zr.sufficient_via is not None


def test_compatibility_not_established_over_dual_numbers(d_ext):
    rep = compatibility_report(zr_bimodule(d_ext))
    assert rep.sufficient_via is None
    assert all(not v.is_finite() for v in rep.dims.values())


# ---------------------------------------------------------------------------
# constrained solving


def test_solve_module_hom_constraints(d_ext):
    reg = LeftModule.regular(d_ext.total)
    ident = FpMatrix.identity(2, FIELD2)
    got = solve_module_hom(reg, reg, ident)
    assert got is not None and got.matrix == ident
    got.validate()
    # End(reg) is a + b.y: fixing the first row leaves b free, set to 0
    got = solve_module_hom(reg, reg, FpMatrix([[1, 0]], FIELD2))
    assert got is not None and got.matrix == ident
    # inconsistent: no module map has a nonzero entry above the diagonal
    assert solve_module_hom(reg, reg, FpMatrix([[0, 1]], FIELD2)) is None
    # two distinct simples of A2: Hom = 0, so only the zero map is left
    s0, s1 = simples(a2_algebra(FIELD2))
    one, nil = FpMatrix.identity(1, FIELD2), FpMatrix.zeros(1, 1, FIELD2)
    assert hom_space(s0, s1).dim == 0
    got = solve_module_hom(s0, s1, nil)
    assert got is not None and got.is_zero()
    assert solve_module_hom(s0, s1, one) is None


def test_solve_module_hom_with_a_zero_side(d_ext, monkeypatch):
    # Hom(M, 0) = Hom(0, M) = {0}: no Hom space is built, and the fixed
    # rows, which a zero side leaves empty, are met by the zero map
    def no_hom_space(*_):
        raise AssertionError("Hom space built for a zero module")

    monkeypatch.setattr(extalg.gorenstein, "hom_space", no_hom_space)
    reg = LeftModule.regular(d_ext.total)
    zero = LeftModule.zero(d_ext.total)
    got = solve_module_hom(reg, zero, FpMatrix.zeros(0, 2, FIELD2))
    assert got is not None and (got.target.dim, got.source.dim) == (0, 2)
    for rows in (0, 2):
        got = solve_module_hom(zero, reg, FpMatrix.zeros(rows, 0, FIELD2))
        assert got is not None and (got.target.dim, got.source.dim) == (2, 0)
    empty = FpMatrix.zeros(0, 0, FIELD2)
    assert solve_module_hom(zero, zero, empty).matrix.rows == 0


# ---------------------------------------------------------------------------
# complete resolutions over the base


def test_complete_resolution_of_k(d_ext):
    k = LeftModule(d_ext.total, [FpMatrix.identity(1, FIELD2),
                                 FpMatrix.zeros(1, 1, FIELD2)])
    cr = complete_resolution(k, 4)
    assert [m.dim for m in cr.complex.modules] == [2] * 9
    val = validate_complete_resolution(cr)
    assert val["window_exact"] and val["kernel_identified"]
    assert val["hom_exact_into_projectives"]


def test_complete_resolution_of_projective(d_ext):
    reg = LeftModule.regular(d_ext.total)
    cr = complete_resolution(reg, 2)
    val = validate_complete_resolution(cr)
    assert val["window_exact"] and val["kernel_identified"]
    assert val["hom_exact_into_projectives"]


def test_complete_resolution_detects_failure():
    w = local_wild_algebra(FIELD2)
    s = simples(w)[0]
    cr = complete_resolution(s, 2)
    val = validate_complete_resolution(cr)
    assert not (val["window_exact"] and val["kernel_identified"]
                and val["hom_exact_into_projectives"])


# ---------------------------------------------------------------------------
# lifted pair resolutions


def test_pair_resolution_regular(d_ext):
    pair = module_to_pair(LeftModule.regular(d_ext.total), d_ext)
    res = build_pair_complete_resolution(pair, window=2)
    val = validate_pair_complete_resolution(res)
    assert all(val[k] for k in ("window_exact", "kernel_identified",
                                "terms_projective",
                                "hom_exact_into_test_modules"))


def test_pair_resolution_triangular(tri_ext):
    pair = module_to_pair(LeftModule.regular(tri_ext.total), tri_ext)
    res = build_pair_complete_resolution(pair, window=2)
    val = validate_pair_complete_resolution(res)
    assert all(val[k] for k in ("window_exact", "kernel_identified",
                                "terms_projective",
                                "hom_exact_into_test_modules"))


@pytest.mark.parametrize("window", [1, 2, 3])
def test_pair_lifting_builds_nothing_past_its_window(d_ext, monkeypatch,
                                                     window):
    # degrees < 0 resolve the pair's module and only degrees >= 0 are
    # lifted: no resolution runs past degree `window`, coker(alpha) itself
    # is never resolved (only Hom(coker(alpha), A) and the pair's module
    # are), and the gluing evaluates at c's vectors directly instead of
    # through c**
    calls, cokers = [], []
    resolve = extalg.gorenstein.minimal_projective_resolution
    cokernel = extalg.gorenstein.functor_C

    def spy(m, n):
        calls.append((m, n))
        return resolve(m, n)

    def coker_spy(p):
        out = cokernel(p)
        cokers.append(out[0])
        return out

    def no_biduality(*_):
        raise AssertionError("biduality map built")

    monkeypatch.setattr(extalg.gorenstein, "minimal_projective_resolution",
                        spy)
    monkeypatch.setattr(extalg.gorenstein, "functor_C", coker_spy)
    monkeypatch.setattr(extalg.gorenstein, "biduality_map", no_biduality)
    pair = module_to_pair(LeftModule.regular(d_ext.total), d_ext)
    res = build_pair_complete_resolution(pair, window)
    assert calls and max(n for _, n in calls) <= window
    assert cokers and not any(m is c for m, _ in calls for c in cokers)
    star = star_module(cokernel(pair)[0])[0]
    assert sorted(m is pair.module for m, _ in calls) == [False, True]
    assert all(m is pair.module or m.action == star.action
               for m, _ in calls)
    assert (res.complex.lo, res.complex.hi) == (-window - 1, window)
    val = validate_pair_complete_resolution(res)
    assert all(val[k] for k in ("window_exact", "kernel_identified",
                                "terms_projective",
                                "hom_exact_into_test_modules"))


def nontrivial_dd_pair(field=FIELD2):
    """A pair over D |x D whose cokernel is Gorenstein projective but not
    projective, found by a deterministic sweep of the structure maps."""
    dd = double_extension(field)
    x = LeftModule.regular(dd.base)
    ts = tensor_bimodule_left(dd.bimodule, x)
    hs = hom_space(ts.space, x)
    from extalg.trivext import PairModule, TrivextError
    for coords in itertools.product(range(field.p), repeat=hs.dim):
        if not any(coords):
            continue
        try:
            pair = PairModule(dd, x, hs.element(coords).matrix)
        except TrivextError:
            continue
        hyp = thm_pair_hypotheses(pair)
        from extalg.trivext import functor_C
        coker, _ = functor_C(pair)
        if (hyp["middle_exact"] and hyp["coker_verdict"].is_yes()
                and coker.dim and not is_projective(coker)):
            return pair
    raise AssertionError("no nontrivial pair found")


def test_pair_resolution_doubly_infinite():
    pair = nontrivial_dd_pair()
    res = build_pair_complete_resolution(pair, window=2)
    dims = [m.dim for m in res.complex.modules]
    assert all(d > 0 for d in dims)  # genuinely two-sided
    val = validate_pair_complete_resolution(res)
    assert all(val[k] for k in ("window_exact", "kernel_identified",
                                "terms_projective",
                                "hom_exact_into_test_modules"))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("window", [2, 3])
def test_pair_negative_half_is_the_minimal_resolution(p, window):
    # degrees < 0 are the minimal resolution of (X, alpha) over the
    # extension; M lies in its radical and, under the hypotheses, each
    # syzygy's cokernel is the next syzygy of coker(alpha), so the terms
    # are T(P_j) for P_j the minimal resolution of coker(alpha)
    field = FieldSpec(p)
    pairs = [nontrivial_dd_pair(field)]
    if p == 2:
        pairs += list(Workspace(emit_builtin_examples()).pairs.values())
    rng = np.random.default_rng(p)
    for make in (double_extension, triangular_extension):
        t = make(field)
        pairs += [random_pair(t, rng, 6) for _ in range(8)]
    built = deep = 0
    for pair in pairs:
        if not holds(thm_pair_hypotheses(pair)):
            continue
        res = build_pair_complete_resolution(pair, window)
        own = minimal_projective_resolution(pair_to_module(pair), window)
        base = minimal_projective_resolution(functor_C(pair)[0], window)
        assert res.epi.matrix == own.epi.matrix
        for j in range(window + 1):
            term = res.complex.module_at(-(j + 1))
            assert term.action == own.terms[j].action
            assert find_isomorphism(
                term, _extend(pair.t, base.terms[j])) is not None
            if j < window:
                assert res.complex.diff_at(-(j + 2)).matrix == \
                    own.diffs[j].matrix
        built += 1
        deep += any(m.dim for m in own.terms[1:])
    assert built >= 12 and deep >= 1


def test_pair_resolution_rejects_bad_hypotheses(d_ext):
    zk = functor_Z_pair(d_ext, LeftModule.regular(d_ext.base))
    with pytest.raises(GorensteinError):
        build_pair_complete_resolution(zk, window=2)


def test_copair_coresolution(d_ext):
    copair = module_to_copair(LeftModule.regular(d_ext.total), d_ext)
    res = build_copair_complete_coresolution(copair, window=2)
    val = validate_copair_complete_coresolution(res)
    assert all(val[k] for k in ("window_exact", "kernel_identified",
                                "terms_injective",
                                "hom_exact_from_test_modules"))


def test_copair_coresolution_rejects_bad_hypotheses(d_ext):
    zk = functor_Z_copair(d_ext, LeftModule.regular(d_ext.base))
    with pytest.raises(GorensteinError):
        build_copair_complete_coresolution(zk, window=2)


def nakayama_22(field):
    """N(2,2): the cyclic quiver on two vertices modulo the paths of length
    2; self-injective."""
    return monomial_quiver_algebra(2, [(0, 1), (1, 0)], [[0, 1], [1, 0]],
                                   field)


@pytest.mark.parametrize("p", [2, 3])
def test_complete_resolution_records(p):
    # every builder returns one record: mono embeds M as ker d^0, epi maps
    # X^-1 onto M, and mono o epi = d^-1
    field = FieldSpec(p)
    dd = double_extension(field)
    sqz = square_zero_extension(field)
    cases = [
        (complete_resolution(simples(nakayama_22(field))[0], 2), -2),
        (build_pair_complete_resolution(module_to_pair(
            LeftModule.regular(dd.total), dd), window=2), -3),
        (build_copair_complete_coresolution(module_to_copair(
            LeftModule.regular(sqz.total), sqz), window=2), -2)]
    if p == 2:
        cases.append((build_pair_complete_resolution(nontrivial_dd_pair(),
                                                     window=2), -3))
    for res, lo in cases:
        assert isinstance(res, CompleteResolution)
        cx = res.complex
        assert cx.lo == lo
        assert res.epi.target is res.mono.source
        assert res.mono.matrix @ res.epi.matrix == cx.diff_at(-1).matrix
        assert is_kernel_inclusion(res.mono, cx.diff_at(0))
        assert rank(res.epi.matrix) == res.mono.source.dim


@pytest.mark.parametrize("p", [2, 3, 101])
def test_gp_iwanaga_gorenstein_battery_decides(p):
    # over N(2,2) x A2 (self-injective dimension 1 on both sides) the
    # battery stops at Ext^1: the simples of the self-injective factor pass,
    # the non-projective simple of the hereditary factor fails
    field = FieldSpec(p)
    nak22, a2 = nakayama_22(field), a2_algebra(field)
    prod = product_algebra(nak22, a2)
    e1 = np.concatenate([nak22.unit, 0 * a2.unit])    # (1, 0)
    regime, dl, dr = gorenstein_regime(prod)
    assert (regime, dl.value, dr.value) == (IWANAGA_GORENSTEIN, 1, 1)
    nak = [s for s in simples(prod) if not s.act_matrix(e1).is_zero()]
    assert len(nak) == 2
    for s in nak:
        v = gp_check(s)
        assert v.answer == CERTIFIED_YES
        assert v.certificate == {
            "reason": "ext_vanishing_up_to_selfinjective_dimension",
            "checked": 1, "id_left": 1, "id_right": 1}
    [s] = [s for s in simples(prod)
           if s.act_matrix(e1).is_zero() and not is_projective(s)]
    v = gp_check(s)
    assert v.answer == CERTIFIED_NO
    assert (v.certificate["index"], v.certificate["side"]) == (1, "module")


def test_compatibility_via_finite_fd_and_id():
    # D(wild) as a wild-k bimodule: injective but of infinite projective
    # dimension on the left, flat on the right
    w = local_wild_algebra(FIELD2)
    dw = dual_module(LeftModule.regular(opposite_algebra(w)))
    n = Bimodule(w, field_algebra(FIELD2), dw.action,
                 [FpMatrix.identity(dw.dim, FIELD2)])
    rep = compatibility_report(n, 4)
    assert rep.sufficient_via == "finite_fd_and_id"
    fd, pd, idim = (rep.dims[k] for k in ("fd_right", "pd_left", "id_left"))
    assert fd.is_finite() and fd.value == 0
    assert not pd.is_finite() and pd.value == 4
    assert idim.is_finite() and idim.value == 0


# ---------------------------------------------------------------------------
# harnesses


def test_verify_cor_pair_agree(tri_ext):
    pair = module_to_pair(LeftModule.regular(tri_ext.total), tri_ext)
    report = verify_cor35(pair)
    assert report["hypotheses_established"]
    assert report["classification"] == "agree"


def test_verify_cor_pair_consistent(d_ext):
    zk = functor_Z_pair(d_ext, LeftModule.regular(d_ext.base))
    report = verify_cor35(zk)
    assert not report["hypotheses_established"]
    assert report["classification"] == "consistent"
    assert report["lhs"].is_yes() and not report["rhs_holds"]


def test_verify_cor_copair_and_right_pair(d_ext):
    copair = module_to_copair(LeftModule.regular(d_ext.total), d_ext)
    rc = verify_cor45(copair)
    assert rc["classification"] in ("agree", "consistent")
    assert rc["agreement"]
    rp = module_to_pair(LeftModule.regular(opposite_algebra(d_ext.total)),
                        opposite_extension(d_ext))
    rr = verify_cor48(rp)
    assert rr["agreement"]


def test_random_pairs_never_violate(tri_ext):
    rng = np.random.default_rng(11)
    for _ in range(10):
        pair = random_pair(tri_ext, rng)
        assert verify_cor35(pair)["classification"] != "violation"
        copair = random_copair(tri_ext, rng)
        assert verify_cor45(copair)["classification"] != "violation"


def test_compatibility_report_is_memoised_on_the_bimodule(monkeypatch):
    t = triangular_extension(FIELD2)
    calls = []
    pd = extalg.homology.pd_bounded
    for mod in (extalg.gorenstein, extalg.homology):
        monkeypatch.setattr(mod, "pd_bounded", lambda *a, **k: calls.append(
            1) or pd(*a, **k))
    assert zr_bimodule(t) is zr_bimodule(t)
    first = compatibility_report(zr_bimodule(t))
    assert calls
    made = len(calls)
    assert compatibility_report(zr_bimodule(t)) is first
    assert len(calls) == made
    compatibility_report(zr_bimodule(t), bound=2)
    assert len(calls) > made  # another bound is another report


@pytest.mark.parametrize("build, field", [
    (square_zero_extension, FIELD2), (square_zero_extension, FIELD3),
    (triangular_extension, FIELD2), (triangular_extension, FIELD3),
    (double_extension, FIELD2)], ids=["D@2", "D@3", "T@2", "T@3", "DD@2"])
def test_zr_bimodule_satisfies_the_law(build, field):
    # built without the law check: it holds by construction, checked here
    zr_bimodule(build(field)).validate()
