import itertools

import numpy as np
import pytest

import extalg.gorenstein
import extalg.homology
from conftest import (FIELD2, double_extension, local_wild_algebra,
                      random_copair, random_pair, square_zero_extension,
                      triangular_extension)
from extalg.algebra import (Bimodule, LeftModule, ModuleHom, RightModule,
                            dual_module, hom_space, monomial_quiver_algebra,
                            product_algebra, tensor_bimodule_left)
from extalg.gorenstein import (CERTIFIED_NO, CERTIFIED_YES,
                               IWANAGA_GORENSTEIN, PROBABLE_YES,
                               SELF_INJECTIVE, UNKNOWN, GorensteinError,
                               biduality_map, build_copair_complete_coresolution,
                               build_pair_complete_resolution,
                               compatibility_report, complete_resolution,
                               gf_check_right, gi_check, gorenstein_regime,
                               gp_check, solve_module_hom, star_module,
                               thm_pair_hypotheses,
                               validate_complete_resolution,
                               validate_copair_complete_coresolution,
                               validate_pair_complete_resolution,
                               verify_cor35, verify_cor45, verify_cor48,
                               zr_bimodule)
from extalg.homology import ext, non_minimal_resolution, ext_from_resolution
from extalg.linalg import FieldSpec, FpMatrix, is_invertible
from extalg.structure import is_isomorphic, is_projective, simples
from extalg.trivext import (functor_Z_copair, functor_Z_pair, functor_T,
                            module_to_copair, module_to_pair,
                            module_to_right_pair, pair_to_module,
                            copair_to_module, right_pair_to_module)


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


# ---------------------------------------------------------------------------
# star and biduality


def test_star_of_regular(d_ext):
    reg = LeftModule.regular(d_ext.total)
    star, _ = star_module(reg)
    assert isinstance(star, RightModule)
    assert is_isomorphic(star.as_left_over_opposite(),
                         RightModule.regular(d_ext.total)
                         .as_left_over_opposite())
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
    a, _, _ = product_algebra(dual, local_wild_algebra(field))
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


def test_gi_and_gf_routes(d_ext):
    s = simple_over(d_ext)
    vi = gi_check(s)
    assert vi.answer == CERTIFIED_YES
    assert vi.certificate["route"] == "dual_over_opposite"
    sr = RightModule(d_ext.total, [FpMatrix.identity(1, FIELD2),
                                   FpMatrix.zeros(1, 1, FIELD2)])
    vf = gf_check_right(sr)
    assert vf.answer == CERTIFIED_YES
    assert vf.certificate["route"] == "character_dual"


def test_gp_gi_duality_coherence(tri_ext):
    # gp of m agrees with gi of its linear dual on the other side
    for s in simples(tri_ext.total):
        gp = gp_check(s)
        dual = dual_module(s)  # right module over the same algebra
        gi = gi_check(dual.as_left_over_opposite())
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
    got = solve_module_hom(reg, reg, left=(ident, ident))
    assert got is not None and got.matrix == ident
    got.validate()
    # inconsistent: require the zero map to equal the identity
    zero = FpMatrix.zeros(2, 2, FIELD2)
    assert solve_module_hom(reg, reg, left=(zero, ident)) is None


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


def nontrivial_dd_pair():
    """A pair over D |x D whose cokernel is Gorenstein projective but not
    projective, found by a deterministic sweep of the structure maps."""
    dd = double_extension(FIELD2)
    x = LeftModule.regular(dd.base)
    ts = tensor_bimodule_left(dd.bimodule, x)
    hs = hom_space(ts.space, x)
    from extalg.trivext import PairModule, TrivextError
    for coords in itertools.product(range(2), repeat=hs.dim):
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
    rp = module_to_right_pair(RightModule.regular(d_ext.total), d_ext)
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
