"""Acceptance gate: ten end-to-end criteria, each printed as a single
pass/fail line in the terminal summary."""

import copy
import itertools
import json
import os
import tempfile

import argparse
import numpy as np

from conftest import (FIELD2, FIELD3, a2_algebra, a2_morita_ring, criterion,
                      dual_numbers_modules, enumerate_pairs, nakayama_ring,
                      product_morita_ring, random_copair, random_module,
                      random_pair, random_right_tuple, random_tuple,
                      same_action, square_zero_extension,
                      triangular_extension)
from test_gorenstein import nontrivial_dd_pair
from extalg.algebra import (LeftModule, dual_module, hom_space,
                            opposite_algebra)
from extalg.cli import Workspace, emit_builtin_examples, main, run
from extalg.gorenstein import (CERTIFIED_NO, CERTIFIED_YES,
                               build_copair_complete_coresolution,
                               build_pair_complete_resolution,
                               compatibility_report, gf_check_right, gi_check,
                               gp_check, thm_copair_hypotheses,
                               thm_pair_hypotheses,
                               validate_copair_complete_coresolution,
                               validate_pair_complete_resolution,
                               verify_cor35, verify_cor45, zr_bimodule)
from extalg.homology import (DimensionVerdict, ext, ext_from_resolution,
                             id_bounded, non_minimal_resolution, pd_bounded)
from extalg.linalg import FpMatrix, is_invertible, rref
from extalg.morita import (CoTupleModule, MoritaError, TupleModule, theta,
                           theta_inverse, upsilon, upsilon_inverse,
                           verify_thm52, verify_thm53, verify_thm54)
from extalg.structure import (find_isomorphism, injective_indecomposables,
                              is_injective, is_projective,
                              projective_indecomposables, simples)
from extalg.trivext import (copair_to_module, functor_C, functor_H, functor_K,
                            functor_T, functor_U, functor_Z_copair,
                            functor_Z_pair, hom_iso_copair, induced_delta,
                            induced_gamma, pair_to_module, ses_of_copair,
                            ses_of_pair, tensor_iso_pair)


def _test_extensions():
    return [square_zero_extension(FIELD2), square_zero_extension(FIELD3),
            triangular_extension(FIELD2), triangular_extension(FIELD3),
            nakayama_ring(FIELD2).ext]


def _same_module(a, b):
    return a.dim == b.dim and all(x == y for x, y in zip(a.action, b.action))


@criterion(1)
def test_criterion_1_functor_identities_and_adjunctions():
    # CT = id, UZ = id, KH = id on the nose, plus the four adjunction
    # dimension equalities, on 200 seeded random instances
    rng = np.random.default_rng(2026)
    count = 0
    for t in _test_extensions():
        for _ in range(40):
            x = random_module(t.base, rng, max_dim=3)
            y = random_module(t.base, rng, max_dim=3)
            pair = random_pair(t, rng, max_dim=3)
            copair = random_copair(t, rng, max_dim=3)

            ct, _ = functor_C(functor_T(t, x))
            assert _same_module(ct, x)
            assert functor_U(functor_Z_pair(t, x)) is x
            kh, _ = functor_K(functor_H(t, y))
            assert _same_module(kh, y)

            # T left adjoint to the forgetful functor
            assert hom_space(pair_to_module(functor_T(t, x)),
                             pair_to_module(pair)).dim == \
                hom_space(x, functor_U(pair)).dim
            # cokernel functor left adjoint to the zero-structure lift
            assert hom_space(functor_C(pair)[0], x).dim == \
                hom_space(pair_to_module(pair),
                          pair_to_module(functor_Z_pair(t, x))).dim
            # kernel functor right adjoint to the zero-structure lift
            assert hom_space(pair_to_module(functor_Z_pair(t, x)),
                             copair_to_module(copair)).dim == \
                hom_space(x, functor_K(copair)[0]).dim
            # H right adjoint to the forgetful functor
            assert hom_space(functor_U(copair), y).dim == \
                hom_space(copair_to_module(copair),
                          copair_to_module(functor_H(t, y))).dim
            count += 1
    assert count == 200


def _match_up_to_iso(got, expect):
    if len(got) != len(expect):
        return False
    for perm in itertools.permutations(range(len(expect))):
        if all(find_isomorphism(g, expect[i]) is not None
               for g, i in zip(got, perm)):
            return True
    return False


@criterion(2)
def test_criterion_2_indecomposable_classification():
    # the projective (injective) indecomposables over the extension are
    # exactly the T-lifts (H-lifts) of the base ones
    for t in (square_zero_extension(FIELD2), triangular_extension(FIELD2),
              nakayama_ring(FIELD2).ext):
        pims = [p for p, _ in projective_indecomposables(t.total)]
        lifted = [pair_to_module(functor_T(t, p))
                  for p, _ in projective_indecomposables(t.base)]
        assert _match_up_to_iso(pims, lifted)
        iims = [e for e, _ in injective_indecomposables(t.total)]
        lifted_i = [copair_to_module(functor_H(t, e))
                    for e, _ in injective_indecomposables(t.base)]
        assert _match_up_to_iso(iims, lifted_i)


@criterion(3)
def test_criterion_3_structure_sequences_random():
    # canonical short exact sequences, induced factorizations and the two
    # comparison isomorphisms on 100+ random instances
    rng = np.random.default_rng(33)
    total = 0
    for t in (square_zero_extension(FIELD2), triangular_extension(FIELD2),
              nakayama_ring(FIELD2).ext):
        for _ in range(34):
            pair = random_pair(t, rng, max_dim=3)
            assert ses_of_pair(pair).is_exact()
            induced_delta(pair).validate()
            w = random_module(opposite_algebra(t.base), rng, max_dim=3)
            assert is_invertible(tensor_iso_pair(w, pair).matrix)

            copair = random_copair(t, rng, max_dim=3)
            assert ses_of_copair(copair).is_exact()
            induced_gamma(copair).validate()
            x = random_module(t.base, rng, max_dim=3)
            assert is_invertible(hom_iso_copair(x, copair).matrix)
            total += 1
    assert total >= 100


@criterion(4)
def test_criterion_4_exhaustive_pair_equivalence():
    # every pair of total dimension <= 4 over the triangular extension:
    # both sides of the projectivity equivalence agree, and the instances
    # fall into exactly the 22 known isomorphism classes
    t = triangular_extension(FIELD2)
    pairs = enumerate_pairs(t, 4)
    assert len(pairs) >= 50
    reps = {}
    for pair in pairs:
        report = verify_cor35(pair)
        assert report["hypotheses_established"]
        assert report["classification"] == "agree"
        mod = pair_to_module(pair)
        key = (rref(pair.x.action[0]).rank, rref(pair.x.action[1]).rank,
               rref(pair.alpha.matrix).rank)
        if key in reps:
            assert find_isomorphism(mod, reps[key]) is not None
        else:
            reps[key] = mod
    assert len(reps) == 22
    expect = {(d1, d2, r)
              for d1 in range(5) for d2 in range(5 - d1)
              for r in range(min(d1, d2) + 1)}
    assert set(reps) == expect


@criterion(5)
def test_criterion_5_hypothesis_necessity():
    # the zero-structure lift of the base field over the dual numbers is a
    # certified positive whose pair-level criterion fails, and exactly the
    # unestablished side conditions explain the gap
    d = square_zero_extension(FIELD2)
    base_reg = LeftModule.regular(d.base)

    zk = functor_Z_pair(d, base_reg)
    assert gp_check(pair_to_module(zk)).answer == CERTIFIED_YES
    hyp = thm_pair_hypotheses(zk)
    assert not hyp["middle_exact"]
    assert compatibility_report(zr_bimodule(d)).sufficient_via is None
    rep = verify_cor35(zk)
    assert rep["classification"] == "consistent"
    assert rep["lhs"].is_yes() and not rep["rhs_holds"]
    assert not rep["hypotheses_established"]

    zc = functor_Z_copair(d, base_reg)
    repc = verify_cor45(zc)
    assert repc["classification"] == "consistent"
    assert repc["lhs"].is_yes() and not repc["rhs_holds"]
    assert not repc["hypotheses_established"]


@criterion(6)
def test_criterion_6_complete_resolutions():
    # every qualifying bundled example admits a validated complete
    # (co)resolution, plus a doubly infinite case with non-projective
    # cokernel
    ws = Workspace(emit_builtin_examples())
    built = 0
    for name, pair in sorted(ws.pairs.items()):
        hyp = thm_pair_hypotheses(pair)
        if not (hyp["middle_exact"] and hyp["coker_verdict"].is_yes()):
            continue
        res = build_pair_complete_resolution(pair, window=2)
        val = validate_pair_complete_resolution(res)
        assert all(val[k] for k in ("window_exact", "kernel_identified",
                                    "terms_projective",
                                    "hom_exact_into_test_modules")), name
        built += 1
    assert built >= 2

    cobuilt = 0
    for name, cp in sorted(ws.copairs.items()):
        hyp = thm_copair_hypotheses(cp)
        if not (hyp["middle_exact"] and hyp["ker_verdict"].is_yes()):
            continue
        res = build_copair_complete_coresolution(cp, window=2)
        val = validate_copair_complete_coresolution(res)
        assert all(val[k] for k in ("window_exact", "kernel_identified",
                                    "terms_injective",
                                    "hom_exact_from_test_modules")), name
        cobuilt += 1
    assert cobuilt >= 1

    pair = nontrivial_dd_pair()
    res = build_pair_complete_resolution(pair, window=2)
    assert all(m.dim > 0 for m in res.complex.modules)
    val = validate_pair_complete_resolution(res)
    assert all(val[k] for k in ("window_exact", "kernel_identified",
                                "terms_projective",
                                "hom_exact_into_test_modules"))


@criterion(7)
def test_criterion_7_exhaustive_deciders():
    # hereditary case: Gorenstein projective iff projective, Gorenstein
    # injective iff injective, certified both ways
    t = triangular_extension(FIELD2)
    for pair in enumerate_pairs(t, 4):
        mod = pair_to_module(pair)
        v = gp_check(mod)
        assert v.answer in (CERTIFIED_YES, CERTIFIED_NO)
        assert v.is_yes() == is_projective(mod)
        assert gi_check(mod).is_yes() == is_injective(mod)

    # dual numbers: every module of dimension <= 3 is certified positive
    # on all three counts
    for mod in dual_numbers_modules(3, FIELD2):
        assert gp_check(mod).answer == CERTIFIED_YES
        assert gi_check(mod).answer == CERTIFIED_YES
        assert gf_check_right(dual_module(mod)).answer == CERTIFIED_YES

    # the self-injective Nakayama Morita ring behaves the same way
    nak = nakayama_ring(FIELD2)
    mods = [pair_to_module(p) for p in enumerate_pairs(nak.ext, 3)]
    assert len(mods) > 5
    for mod in mods:
        assert gp_check(mod).answer == CERTIFIED_YES
        assert gi_check(mod).answer == CERTIFIED_YES
        assert gf_check_right(dual_module(mod)).answer == CERTIFIED_YES


@criterion(8)
def test_criterion_8_homological_oracles():
    # closed-form dimensions: Ext^i(k, k) = 1 for all i over the dual
    # numbers, the simple projective/injective split over the hereditary
    # algebra, and self-injectivity of the dual numbers
    d = square_zero_extension(FIELD2)
    k = LeftModule(d.total, [FpMatrix.identity(1, FIELD2),
                             FpMatrix.zeros(1, 1, FIELD2)])
    res = non_minimal_resolution(k, 7)
    assert ext(k, k, 0).dim == 1
    for i in range(1, 7):
        assert ext(k, k, i).dim == 1
        assert ext_from_resolution(res, k, i).dim == 1

    a2 = a2_algebra(FIELD2)
    verdicts = [pd_bounded(s) for s in simples(a2)]
    assert all(v.is_finite() for v in verdicts)
    assert sorted(v.value for v in verdicts) == [0, 1]

    assert id_bounded(LeftModule.regular(d.total)) == \
        DimensionVerdict.finite(0)
    assert id_bounded(LeftModule.regular(opposite_algebra(d.total))) == \
        DimensionVerdict.finite(0)


@criterion(9)
def test_criterion_9_morita_ring_suite():
    # the rings build (each the extension (A x B) |x (U + V)),
    # the tuple translations are mutually inverse, hom computations match,
    # and the three verification harnesses never report a violation
    nak = nakayama_ring(FIELD2)
    a2m = a2_morita_ring(FIELD2)
    product_morita_ring(FIELD2)

    rng = np.random.default_rng(99)
    tuples = [random_tuple(nak, rng, max_dim=3) for _ in range(40)]
    for tup in tuples:
        assert same_action(theta_inverse(theta(tup), nak).module,
                           tup.module)
        assert verify_thm52(tup)["classification"] != "violation"
    for s, u in zip(tuples, tuples[1:]):
        assert hom_space(s.module, u.module).dim == hom_space(
            pair_to_module(theta(s)), pair_to_module(theta(u))).dim

    for _ in range(15):
        rt = random_right_tuple(nak, rng, max_dim=3)
        assert same_action(upsilon_inverse(upsilon(rt), nak).module,
                           rt.module)
        assert verify_thm54(rt)["classification"] != "violation"

    kx = LeftModule.regular(nak.a)
    for f_e, g_e in itertools.product(range(2), repeat=2):
        f = FpMatrix([[f_e]], FIELD2)
        g = FpMatrix([[g_e]], FIELD2)
        try:
            ct = CoTupleModule(nak, kx, kx, f, g)
        except MoritaError:
            continue
        assert verify_thm53(ct)["classification"] != "violation"

    # exhaustive agreement over the hereditary Morita ring
    seen = 0
    for dx in range(5):
        for dy in range(5 - dx):
            x = LeftModule(a2m.a, [FpMatrix.identity(dx, FIELD2)])
            y = LeftModule(a2m.b, [FpMatrix.identity(dy, FIELD2)])
            for entries in itertools.product(range(2), repeat=dx * dy):
                f = FpMatrix(np.reshape(entries, (dy, dx)), FIELD2)
                g = FpMatrix.zeros(dx, 0, FIELD2)
                rep = verify_thm52(TupleModule(a2m, x, y, f, g))
                assert rep["hypotheses_established"]
                assert rep["classification"] == "agree"
                seen += 1
    assert seen >= 50


@criterion(10)
def test_criterion_10_cli_determinism():
    # every CLI command produces byte-identical reports on fresh
    # workspaces, through the library entry point and the executable
    corpus = emit_builtin_examples()
    commands = ["validate", "check gp", "check gi", "check gf",
                "verify cor35", "verify cor45", "verify cor48",
                "verify thm52", "verify thm53", "verify thm54",
                "resolve pair", "resolve copair"]
    args = argparse.Namespace(target=None, bound=None, seed=0, window=2,
                              out=None)
    for command in commands:
        payloads = []
        for _ in range(2):
            fresh = Workspace(copy.deepcopy(corpus))
            payloads.append(json.dumps(run(command, fresh, args),
                                       sort_keys=True))
        assert payloads[0] == payloads[1], command

    with tempfile.TemporaryDirectory() as tmp:
        ws_path = os.path.join(tmp, "ws.json")
        assert main(["examples", "emit", "--out", ws_path]) == 0
        outs = []
        for i in range(2):
            out_path = os.path.join(tmp, "r%d.json" % i)
            assert main(["verify", "cor35", ws_path,
                         "--out", out_path]) == 0
            with open(out_path, encoding="utf-8") as fh:
                rep = json.load(fh)
            rep.pop("timing_ms", None)
            outs.append(json.dumps(rep, sort_keys=True))
        assert outs[0] == outs[1]
