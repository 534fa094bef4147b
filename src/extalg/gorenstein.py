"""Gorenstein projective/injective/flat deciders with certificates, the
sufficiency reports for (co)compatible bimodules, explicit complete
resolutions, and the verification harnesses tying them together.

Decision power is stated honestly: over a self-injective or two-sided
finitely-cotilted (Iwanaga-Gorenstein) algebra the bounded Ext battery is a
full decision procedure; elsewhere a passing battery yields ProbableYes
with the bound on record, and a failing one yields a certified refutation
with a concrete witness.  The battery is one loop over the module and its
transpose, each side reading Ext^i(-, A) degree by degree off a minimal
resolution grown one cover at a time, and stopping at the first nonzero
Ext^i, its certificate.

A quiver with no oriented cycle gives A finite global dimension, the same
on both sides (Auslander, Nagoya Math. J. 9, 1955), so the regime reads
id(_A A) = id(A_A) (Zaks, J. Algebra 13, 1969) off the simples.  Else it
walks D(A_A), over A, for dr = id(A_A).  dr = 0 gives dl = id(_A A) = 0
(one side self-injective makes both so: Lam, Lectures on Modules and Rings,
Thm. 15.1); any other dr has dl walked on D(_A A), over A^op.

The three kinds of complete resolution (base, lifted pair, dualized
copair) come back as one record, `CompleteResolution`, and their three
validators read the complex they check and share one window check.  The
base and pair builders share one splice: the minimal projective resolution
of the module they resolve in degrees < 0, mono o epi at degree -1, and a
right half from degree 0 on.  The pair builder lifts the right half of
coker(alpha) degree by degree over the total algebra, one constrained Hom
solve per degree into the extended projective T(P^i).

A right pair is the `PairModule` over the opposite extension; the
flatness harness `verify_cor48` reads the sufficiency reports off the
extension it is a right pair over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .algebra import (Algebra, Bimodule, HomSpace, LeftModule, ModuleHom,
                      dual_module, hom_space, is_exact_at,
                      is_kernel_inclusion, kept, opposite_algebra,
                      quotient_module)
from .homology import (ChainComplex, DimensionVerdict, _precompose_matrix,
                       default_bound, ext, ext_dims, fd_bounded, hom_complex,
                       hom_complex_co, id_bounded, is_exact_complex,
                       minimal_projective_resolution, pd_bounded)
from .linalg import FpMatrix, is_invertible, rank, rref, solve
from .structure import (_triangular, injective_indecomposables, is_injective,
                        is_projective, projective_indecomposables, simples)
from .trivext import (CopairModule, PairModule, TrivialExtension,
                      _coextend, _extend, _inflate, copair_to_module,
                      functor_C, functor_K, module_to_pair,
                      opposite_extension, pair_to_module)


class GorensteinError(ValueError):
    pass


CERTIFIED_YES = "certified_yes"
CERTIFIED_NO = "certified_no"
PROBABLE_YES = "probable_yes"

SELF_INJECTIVE = "self_injective"
IWANAGA_GORENSTEIN = "iwanaga_gorenstein"
UNKNOWN = "unknown"


@dataclass
class GorensteinVerdict:
    answer: str
    regime: str
    certificate: dict
    bound: int

    def is_yes(self) -> bool:
        return self.answer in (CERTIFIED_YES, PROBABLE_YES)

    def is_no(self) -> bool:
        return self.answer == CERTIFIED_NO


# ---------------------------------------------------------------------------
# regular-module duality (the totally reflexive battery pieces)


def star_module(m: LeftModule) -> Tuple[LeftModule, HomSpace]:
    """Hom into the regular module, a module over the opposite algebra
    acting through multiplication on the values."""
    hs, op = hom_space(m, LeftModule.regular(m.over)), opposite_algebra(m.over)
    # b acts by right multiplication on the values, as A^op acts on itself
    moved = LeftModule.regular(op).acts[:, None] @ hs.basis_array()
    return LeftModule(op, hs.coords_stack(moved), validate=False), hs


def biduality_map(m) -> ModuleHom:
    """The evaluation map m -> Hom(Hom(m, A), A); invertible exactly for
    reflexive modules."""
    mstar, hs1 = star_module(m)
    mstarstar, hs2 = star_module(mstar)
    # m's basis vector b goes to "evaluate at b": column k is phi_k[:, b]
    mat = hs2.coords_many(hs1.basis_array().transpose(2, 1, 0))
    return ModuleHom(m, mstarstar, mat, validate=False)


# ---------------------------------------------------------------------------
# regimes


def _off_the_simples(a: Algebra, bound: int):
    """dl = dr for a triangular A whose simples have pd <= bound (module
    docstring), else None: the largest i with Ext^i(S, A) != 0 over the
    simples S.  Ext^i(S, -) = 0 past pd(S), so it is the largest pd(S) = n
    once Ext^n(S, A) != 0 is read, or n = 0 (S projective, Hom(S, A) != 0)."""
    if not _triangular(a):
        return None
    pds = [pd_bounded(s, bound) for s in simples(a)]
    s, top = max(zip(simples(a), pds), key=lambda sv: sv[1].value)
    if all(v.is_finite() for v in pds) and (
            not top.value or ext(s, LeftModule.regular(a), top.value).dim):
        return top


def gorenstein_regime(a: Algebra, bound: Optional[int] = None
                      ) -> Tuple[str, object, object]:
    """(regime, left verdict, right verdict) for the self-injective
    dimensions of the two regular modules (module docstring): off the
    simples, else dr walked over A, and dl over A^op unless dr = 0."""
    if bound is None:
        bound = default_bound(a)
    def build():
        dl = dr = _off_the_simples(a, bound)
        if dr is None:
            dr = id_bounded(LeftModule.regular(opposite_algebra(a)), bound)
            dl = dr if dr == DimensionVerdict.finite(0) else id_bounded(
                LeftModule.regular(a), bound)
        regime = UNKNOWN if not (dl.is_finite() and dr.is_finite()) \
            else SELF_INJECTIVE if dl.value == dr.value == 0 \
            else IWANAGA_GORENSTEIN
        return regime, dl, dr
    return kept(a, ("regime", bound), build)


# ---------------------------------------------------------------------------
# the three deciders


def gp_check(g: LeftModule, bound: Optional[int] = None) -> GorensteinVerdict:
    """Gorenstein projectivity of a module, with certificates."""
    a = g.over
    if bound is None:
        bound = default_bound(a)
    regime, dl, dr = gorenstein_regime(a, bound)
    if g.dim == 0 or is_projective(g):
        return GorensteinVerdict(CERTIFIED_YES, regime,
                                 {"reason": "projective"}, bound)
    if regime == SELF_INJECTIVE:
        return GorensteinVerdict(CERTIFIED_YES, regime,
                                 {"reason": "self_injective_regime"}, bound)
    # the bounded totally reflexive battery: Ext^i(-, A) for i = 1..limit
    # on g and, outside the Iwanaga-Gorenstein regime, on its transpose,
    # read degree by degree and stopped at the first nonzero one
    limit = dl.value if regime == IWANAGA_GORENSTEIN else bound
    for side in ("module", "transpose"):
        mod = g if side == "module" else star_module(g)[0]
        dims = ext_dims(minimal_projective_resolution(mod, 0),
                        LeftModule.regular(mod.over), limit)
        for i, e in enumerate(dims):
            if i and e.dim:
                return GorensteinVerdict(
                    CERTIFIED_NO, regime,
                    {"reason": "nonvanishing_ext_vs_regular", "index": i,
                     "dim": e.dim, "side": side}, bound)
        if regime == IWANAGA_GORENSTEIN:
            return GorensteinVerdict(
                CERTIFIED_YES, regime,
                {"reason": "ext_vanishing_up_to_selfinjective_dimension",
                 "checked": limit, "id_left": dl.value, "id_right": dr.value},
                bound)
    ev = biduality_map(g)
    if not is_invertible(ev.matrix):
        return GorensteinVerdict(
            CERTIFIED_NO, regime,
            {"reason": "biduality_not_invertible",
             "rank": rank(ev.matrix), "dim": g.dim,
             "bidual_dim": ev.matrix.rows}, bound)
    return GorensteinVerdict(PROBABLE_YES, regime,
                             {"reason": "totally_reflexive_battery",
                              "checked": bound}, bound)


def _routed(v: GorensteinVerdict, route: str) -> GorensteinVerdict:
    return replace(v, certificate={**v.certificate, "route": route})


def gi_check(y, bound: Optional[int] = None) -> GorensteinVerdict:
    """Gorenstein injectivity, via the dual over the opposite algebra."""
    return _routed(gp_check(dual_module(y), bound),
                   "dual_over_opposite")


def gf_check_right(x: LeftModule,
                   bound: Optional[int] = None) -> GorensteinVerdict:
    """Gorenstein flatness of a right module (a module over the opposite
    algebra) through its character module, realized as the linear dual."""
    return _routed(gi_check(dual_module(x), bound), "character_dual")


# ---------------------------------------------------------------------------
# compatibility sufficiency reports


@dataclass(frozen=True)
class CompatibilityReport:
    sufficient_via: Optional[str]
    dims: dict


def compatibility_report(n: Bimodule,
                         bound: Optional[int] = None) -> CompatibilityReport:
    """Sufficient criteria only, for the compatible and the cocompatible
    case alike (both derive from finite one-sided dimensions); None means
    'not established', never 'refuted'.  Criteria: finite flat dimension on
    the right leg combined with finite projective (or injective) dimension
    on the left leg.  Memoised on the bimodule."""
    def build():
        dims = {"fd_right": fd_bounded(n.right, bound),
                "pd_left": pd_bounded(n.left, bound),
                "id_left": id_bounded(n.left, bound)}
        via = None
        if dims["fd_right"].is_finite() and dims["pd_left"].is_finite():
            via = "finite_fd_and_pd"
        elif dims["fd_right"].is_finite() and dims["id_left"].is_finite():
            via = "finite_fd_and_id"
        return CompatibilityReport(via, dims)
    return kept(n, ("compatibility", bound), build)


def zr_bimodule(t: TrivialExtension) -> Bimodule:
    """The base ring R as a bimodule over the total algebra, with the
    ideal acting as zero on both sides; built once per extension.  It is
    the regular bimodule of R pulled back along the algebra map
    R |x M -> R that kills M, so the law holds by construction."""
    def build():
        reg = Bimodule.regular(t.base)
        return Bimodule(
            t.total, t.total, _inflate(t, reg.left).acts,
            _inflate(opposite_extension(t), reg.right).acts, validate=False)
    return kept(t, "zr_bimodule", build)


# ---------------------------------------------------------------------------
# theorem hypotheses


def holds(hypotheses: dict) -> bool:
    """Every exactness flag holds and every verdict is yes."""
    return all(v.is_yes() if isinstance(v, GorensteinVerdict) else v
               for v in hypotheses.values())


def thm_pair_hypotheses(pair: PairModule,
                        bound: Optional[int] = None) -> dict:
    """Middle-exactness of the structure sequence and Gorenstein
    projectivity of coker(alpha) over the base."""
    return {"middle_exact": is_exact_at(pair.m_alpha(), pair.alpha),
            "coker_verdict": gp_check(functor_C(pair)[0], bound)}


def thm_copair_hypotheses(copair: CopairModule,
                          bound: Optional[int] = None) -> dict:
    """Middle-exactness of the costructure sequence and Gorenstein
    injectivity of ker(beta) over the base."""
    return {"middle_exact": is_exact_at(copair.beta, copair.beta_post()),
            "ker_verdict": gi_check(functor_K(copair)[0], bound)}


# ---------------------------------------------------------------------------
# constrained hom solving


def solve_module_hom(source, target, fixed: FpMatrix) -> Optional[ModuleHom]:
    """A module map T: source -> target whose first fixed.rows rows are
    `fixed`, or None.  The unknowns are T's coordinates in a basis of
    Hom(source, target) echelonized from the last entry of vec(T)
    backwards, so the free ones sit at the free columns of the system on
    all of vec(T): setting them to 0 gives the T that the solve of that
    system returns.  With a zero source or target Hom is {0} and `fixed`
    is empty, so T = 0."""
    if source.dim == 0 or target.dim == 0:
        return ModuleHom.zero(source, target)
    hs = hom_space(source, target)
    field = hs.field
    flat = rref(FpMatrix(hs.mat.arr[:, ::-1], field)).reduced.arr[::-1, ::-1]
    # one row per entry of fixed (the first entries of vec(T)), one column
    # per basis map
    c = solve(FpMatrix(flat[:, :fixed.rows * source.dim].T, field),
              FpMatrix.column(fixed.arr.reshape(-1), field))
    if c is None:
        return None
    return ModuleHom(source, target, FpMatrix(
        (c.arr[:, 0] @ flat).reshape(target.dim, source.dim), field),
        validate=False)


# ---------------------------------------------------------------------------
# complete resolutions over the base


@dataclass
class CompleteResolution:
    """A window of a doubly infinite exact complex with the resolved
    module, pair or copair M = ker d^0 = im d^-1: mono embeds M as ker d^0,
    epi maps X^-1 onto M, and mono o epi = d^-1.  All three builders return
    one; a (co)pair's mono and epi act on its module over the extension."""
    source: object
    complex: ChainComplex
    mono: ModuleHom            # M -> complex.module_at(0)
    epi: ModuleHom             # complex.module_at(-1) -> M


def _right_half(c: LeftModule, window: int
                ) -> Tuple[ModuleHom, ChainComplex]:
    """Degrees 0..window of c's complete resolution, the dual of the
    minimal resolution of Hom(c, A) over the opposite algebra, with the
    mono c -> P^0: evaluation after the augmentation."""
    cstar, hs = star_module(c)
    res = minimal_projective_resolution(cstar, window)
    # P^j := Hom_op(Q_j, op), a module over c's algebra
    terms, spaces = zip(*[star_module(q) for q in res.terms])
    diffs = [ModuleHom(terms[j], terms[j + 1], _precompose_matrix(
        spaces[j], spaces[j + 1], d), validate=False)
        for j, d in enumerate(res.diffs)]
    # c's basis vector b goes to "evaluate at b" after the augmentation
    mono = ModuleHom(c, terms[0], spaces[0].coords_many(
        hs.basis_array().transpose(2, 1, 0) @ res.epi.matrix.arr),
        validate=False)
    return mono, ChainComplex(0, terms, diffs)


def _spliced(source, mod, length: int, mono: ModuleHom,
             right: ChainComplex) -> CompleteResolution:
    """The minimal resolution of mod to `length` in degrees < 0, mono o
    epi at degree -1 and `right` from degree 0 on: a complex, as epi and
    the augmentation behind mono both kill the image of d_1."""
    res = minimal_projective_resolution(mod, length)
    cx = ChainComplex(-(length + 1), list(reversed(res.terms)) + right.modules,
                      list(reversed(res.diffs)) + [mono.compose(res.epi)] +
                      right.diffs)
    return CompleteResolution(source, cx, mono, res.epi)


def complete_resolution(c, window: int) -> CompleteResolution:
    """Degrees < 0 from the minimal projective resolution of c, degrees
    >= 0 from `_right_half`.  The output is a genuine complete-resolution
    window exactly when c is totally reflexive on the window (validated by
    callers)."""
    return _spliced(c, c, window - 1, *_right_half(c, window))


def _window_checks(cx: ChainComplex, mono: ModuleHom, hom_key: str,
                   hom_complexes) -> dict:
    """The checks every complete (co)resolution window takes: exactness,
    mono as the kernel of the degree-0 differential, and exactness of each
    Hom complex of the test family, reported under hom_key."""
    ok_exact, fail_at = is_exact_complex(cx)
    return {"window_exact": ok_exact, "first_failure": fail_at,
            "kernel_identified": is_kernel_inclusion(mono, cx.diff_at(0)),
            hom_key: all(is_exact_complex(hc)[0] for hc in hom_complexes)}


def validate_complete_resolution(cr: CompleteResolution) -> dict:
    """The window checks, with Hom into every projective indecomposable."""
    return _window_checks(cr.complex, cr.mono, "hom_exact_into_projectives", (
        hom_complex(cr.complex, p)
        for p, _ in projective_indecomposables(cr.source.over)))


# ---------------------------------------------------------------------------
# lifted complete resolutions over the extension (pair side)


def build_pair_complete_resolution(pair: PairModule, window: int = None
                                   ) -> CompleteResolution:
    """Degrees < 0 from the minimal projective resolution of the pair's
    module K^0 over the extension; degrees >= 0 lifted from the right half
    P of a complete resolution of coker(alpha) over the base to the
    extended projectives T(P^i) = P^i + M ox P^i (the P block first).  The
    lift lambda_i: K^i -> T(P^i) is the module map over the extension
    whose P block is K^i -> N^i -> P^i, for N^i = im d^(i-1) (N^0 =
    coker(alpha)), and K^(i+1) = coker(lambda_i); d^i = lambda_(i+1) q_i.
    Under the lifting hypotheses the negative terms are T(P_j), up to
    isomorphism, for P_j the minimal resolution of coker(alpha).  The
    complex spans degrees [-window-1, window]; mono = lambda_0 and epi are
    the kernel and cokernel witnesses on the pair's module."""
    t = pair.t
    if window is None:
        window = default_bound(t.total)
    hyp = thm_pair_hypotheses(pair)
    if not hyp["middle_exact"] or hyp["coker_verdict"].is_no():
        raise GorensteinError("lifting hypotheses unmet: structure "
                              "sequence not exact or cokernel refuted")
    coker, rho = functor_C(pair)
    iota, right = _right_half(coker, window)
    mid = pair_to_module(pair)
    terms = [_extend(t, p) for p in right.modules]
    # the P block of lambda_0 is iota rho; that of lambda_(i+1) is the map
    # K^(i+1) -> P^(i+1) that (d^i, 0): T(P^i) -> P^(i+1) induces, as it
    # kills im lambda_i, read through the section of K^(i+1)
    k_mod, block = mid, iota.matrix @ rho.matrix
    diffs = []
    for i, term in enumerate(terms):
        lam = solve_module_hom(k_mod, term, block)
        if lam is None:
            raise GorensteinError("lifting solve failed at degree "
                                  f"{i}; compatibility presumably unmet")
        if i == 0:
            mono = lam
        else:
            diffs.append(lam.compose(q))
        if i < window:
            k_mod, q, section = quotient_module(term, lam.matrix)
            d = right.diff_at(i).matrix
            block = d @ FpMatrix(section.arr[:d.cols], t.field)
    return _spliced(pair, mid, window, mono, ChainComplex(0, terms, diffs))


def validate_pair_complete_resolution(res: CompleteResolution) -> dict:
    """The window checks, with Hom into T(Q) and Z(Q) for every projective
    indecomposable Q of the base, and projectivity of every term."""
    t = res.source.t
    tests = [target for q, _ in projective_indecomposables(t.base)
             for target in (_extend(t, q), _inflate(t, q))]
    checks = _window_checks(res.complex, res.mono,
                            "hom_exact_into_test_modules",
                            (hom_complex(res.complex, m) for m in tests))
    checks["terms_projective"] = all(is_projective(mod)
                                     for mod in res.complex.modules)
    return checks


# ---------------------------------------------------------------------------
# copair coresolutions, by duality through the opposite extension


def build_copair_complete_coresolution(copair: CopairModule,
                                       window: int = None
                                       ) -> CompleteResolution:
    """Dualize, lift over the opposite extension, dualize back: the term at
    degree j is the dual of the pair-side term at degree -1-j, so the
    window-`window` lifting, which spans [-window-1, window], covers the
    degrees [-window, window] of the output.  mono and epi are the
    transposes of the pair-side epi and mono."""
    t = copair.t
    if window is None:
        window = default_bound(t.total)
    hyp = thm_copair_hypotheses(copair)
    if not hyp["middle_exact"] or hyp["ker_verdict"].is_no():
        raise GorensteinError("coresolution hypotheses unmet")
    top = opposite_extension(t)
    mid = copair_to_module(copair)
    res_d = build_pair_complete_resolution(
        module_to_pair(dual_module(mid), top), window)
    mods = [dual_module(res_d.complex.module_at(-1 - j))
            for j in range(-window, window + 1)]
    # transposes of module maps over top: module maps over t, a complex
    diffs = [ModuleHom(mods[idx], mods[idx + 1],
                       res_d.complex.diff_at(-2 - j).matrix.transpose(),
                       validate=False)
             for idx, j in enumerate(range(-window, window))]
    cx = ChainComplex(-window, mods, diffs)
    return CompleteResolution(
        copair, cx, ModuleHom(mid, cx.module_at(0),
                              res_d.epi.matrix.transpose(), validate=False),
        ModuleHom(cx.module_at(-1), mid, res_d.mono.matrix.transpose(),
                  validate=False))


def validate_copair_complete_coresolution(res: CompleteResolution) -> dict:
    """The window checks, with Hom from H(E) and Z(E) for every injective
    indecomposable E of the base, and injectivity of every term."""
    t = res.source.t
    tests = [source for e, _ in injective_indecomposables(t.base)
             for source in (_coextend(t, e), _inflate(t, e))]
    checks = _window_checks(res.complex, res.mono,
                            "hom_exact_from_test_modules",
                            (hom_complex_co(m, res.complex) for m in tests))
    checks["terms_injective"] = all(is_injective(mod)
                                    for mod in res.complex.modules)
    return checks


# ---------------------------------------------------------------------------
# corollary harnesses


def _classify(agree: bool, established: bool) -> str:
    if agree:
        return "agree"
    return "consistent" if not established else "violation"


def verify_corollary(t: TrivialExtension, lhs: GorensteinVerdict,
                     hypotheses: dict, bound: Optional[int]) -> dict:
    """One (co)pair's Gorenstein verdict lhs over the extension t against
    its hypotheses, with the sufficiency reports on the bimodule and on the
    inflated base."""
    rhs = holds(hypotheses)
    comp_m = compatibility_report(t.bimodule, bound)
    comp_zr = compatibility_report(zr_bimodule(t), bound)
    established = comp_m.sufficient_via is not None and \
        comp_zr.sufficient_via is not None
    agree = lhs.is_yes() == rhs
    return {"lhs": lhs, "hypotheses": hypotheses, "rhs_holds": rhs,
            "bimodule_report": comp_m, "base_inflation_report": comp_zr,
            "hypotheses_established": established, "agreement": agree,
            "classification": _classify(agree, established)}


def verify_cor35(pair: PairModule, bound: Optional[int] = None) -> dict:
    """Gorenstein projectivity of a pair vs its structure sequence."""
    return verify_corollary(pair.t, gp_check(pair_to_module(pair), bound),
                            thm_pair_hypotheses(pair, bound), bound)


def verify_cor45(copair: CopairModule, bound: Optional[int] = None) -> dict:
    """Gorenstein injectivity of a copair vs its costructure sequence."""
    return verify_corollary(copair.t, gi_check(copair_to_module(copair),
                                               bound),
                            thm_copair_hypotheses(copair, bound), bound)


def verify_cor48(rp: PairModule, bound: Optional[int] = None) -> dict:
    """Gorenstein flatness of a right pair (a pair over the opposite
    extension) vs its structure sequence and the flatness of coker(alpha),
    a right module over the base."""
    return verify_corollary(
        opposite_extension(rp.t), gf_check_right(pair_to_module(rp), bound),
        {"middle_exact": is_exact_at(rp.m_alpha(), rp.alpha),
         "coker_verdict": gf_check_right(functor_C(rp)[0], bound)}, bound)
