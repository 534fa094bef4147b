import hashlib
import itertools
import re

import numpy as np
import pytest

from conftest import (FIELD2, a2_morita_ring, nakayama_ring,
                      product_morita_ring, random_right_tuple, random_tuple,
                      same_action, triangular_extension)
from extalg.algebra import (Algebra, AlgebraError, Bimodule, LeftModule,
                            ModuleHom, field_algebra,
                            hom_from_bimodule, hom_space, opposite_algebra,
                            product_algebra, tensor_bimodule_left,
                            tensor_map_second)
from extalg.gorenstein import SELF_INJECTIVE, IWANAGA_GORENSTEIN, \
    gorenstein_regime
from extalg.linalg import FieldSpec, FpMatrix
from extalg.morita import (CoTupleModule, MoritaError, MoritaRing,
                           TupleModule, right_tuple, theta, theta_co,
                           theta_inverse, upsilon, upsilon_inverse,
                           verify_thm52, verify_thm53, verify_thm54)
from extalg.structure import find_isomorphism, simples
from extalg.trivext import (copair_to_module, opposite_extension,
                            pair_to_module)
from reference import element
from test_resolution_fingerprint import _put, _put_module


@pytest.fixture(scope="module")
def nak():
    return nakayama_ring(FIELD2)


@pytest.fixture(scope="module")
def a2m():
    return a2_morita_ring(FIELD2)


def _matrix_rule_table(ring):
    """The structure constants and unit of [[A, V], [U, B]] with zero
    pairings, by the matrix multiplication rule, in the basis A, B and the
    U and V blocks at the slices the ring records."""
    a, b, u, v = ring.a, ring.b, ring.u, ring.v
    na, nb = a.dim, b.dim
    su, sv = ring.u_slice, ring.v_slice
    n = na + nb + u.dim + v.dim
    sc = np.zeros((n, n, n), dtype=np.int64)
    sc[:na, :na, :na] = a.sc
    sc[na:na + nb, na:na + nb, na:na + nb] = b.sc
    for i in range(na):
        sc[i, sv, sv] = v.left_action[i].arr.T
        sc[su, i, su] = u.right_action[i].arr.T
    for j in range(nb):
        sc[na + j, su, su] = u.left_action[j].arr.T
        sc[sv, na + j, sv] = v.right_action[j].arr.T
    unit = np.concatenate([a.unit, b.unit, np.zeros(n - na - nb, int)])
    return sc, unit


def test_ring_constructions_agree():
    # the extension (A x B) |x (U + V) has the table of the matrix rule,
    # for each ring and for the ring of its opposite context
    dims = {nakayama_ring: 4, a2_morita_ring: 3, product_morita_ring: 2}
    for p, (make, dim) in itertools.product((2, 3), dims.items()):
        ring = make(FieldSpec(p))
        assert ring.total.dim == dim
        for r in (ring, ring.opposite):
            sc, unit = _matrix_rule_table(r)
            assert (r.total.sc == sc).all()
            assert (r.total.unit == unit).all()


def test_degenerate_ring_is_product():
    prod = product_morita_ring(FIELD2)
    k = field_algebra(FIELD2)
    expect = product_algebra(k, k)
    assert (prod.total.sc == expect.sc).all()


def test_nakayama_ring_regime(nak):
    assert gorenstein_regime(nak.total)[0] == SELF_INJECTIVE
    assert len(simples(nak.total)) == 2


def test_a2_morita_matches_triangular(a2m):
    tri = triangular_extension(FIELD2)
    assert a2m.total.dim == tri.total.dim
    assert gorenstein_regime(a2m.total)[0] == IWANAGA_GORENSTEIN
    assert sorted(s.dim for s in simples(a2m.total)) == \
        sorted(s.dim for s in simples(tri.total))


def test_context_leg_checks():
    k = field_algebra(FIELD2)
    # legs are compared by identity: an equal but distinct copy of k
    other = Algebra(FIELD2, k.sc, k.unit)
    with pytest.raises(MoritaError, match="^u must be a B-A-bimodule$"):
        MoritaRing(k, other, Bimodule.regular(k), Bimodule.regular(k))
    with pytest.raises(MoritaError, match="^v must be an A-B-bimodule$"):
        one = [FpMatrix.identity(1, FIELD2)]
        MoritaRing(k, k, Bimodule.regular(k), Bimodule(k, other, one, one))


def test_tuple_validation(nak):
    k = LeftModule.regular(nak.a)
    one = FpMatrix([[1]], FIELD2)
    zero = FpMatrix.zeros(1, 1, FIELD2)
    TupleModule(nak, k, k, one, zero)  # f then g: composite zero
    with pytest.raises(MoritaError):
        TupleModule(nak, k, k, one, one)  # g o (V ox f) = 1 != 0


def test_theta_round_trip_canned(nak):
    k = LeftModule.regular(nak.a)
    one = FpMatrix([[1]], FIELD2)
    zero = FpMatrix.zeros(1, 1, FIELD2)
    for f, g in ((one, zero), (zero, one), (zero, zero)):
        t = TupleModule(nak, k, k, f, g)
        pair = theta(t)
        back = theta_inverse(pair, nak)
        assert same_action(back.module, t.module)


def test_theta_round_trips_random(nak):
    rng = np.random.default_rng(12)
    for _ in range(10):
        t = random_tuple(nak, rng)
        assert same_action(theta_inverse(theta(t), nak).module, t.module)


def test_upsilon_round_trips(nak):
    rng = np.random.default_rng(13)
    w = LeftModule.regular(opposite_algebra(nak.a))
    one = FpMatrix([[1]], FIELD2)
    zero = FpMatrix.zeros(1, 1, FIELD2)
    rt = right_tuple(nak, w, w, one, zero)
    back = upsilon_inverse(upsilon(rt), nak)
    assert back.ring is rt.ring is nak.opposite
    assert same_action(back.module, rt.module)
    for _ in range(5):
        rt = random_right_tuple(nak, rng)
        back = upsilon_inverse(upsilon(rt), nak)
        assert same_action(back.module, rt.module)


@pytest.mark.parametrize("build", [nakayama_ring, a2_morita_ring,
                                   product_morita_ring])
def test_opposite_ring_links_back(build):
    # the opposite context's ring is the opposite extension of the ring's,
    # built once; a commutative total algebra is its own opposite
    for p in (2, 3):
        ring = build(FieldSpec(p))
        assert ring.opposite is ring.opposite
        assert ring.opposite.opposite is ring
        assert ring.opposite.ext is opposite_extension(ring.ext)
        sc = ring.total.sc
        commutative = (sc == sc.transpose(1, 0, 2)).all()
        assert (ring.opposite.ext is ring.ext) == commutative
        assert commutative == (build is product_morita_ring)


def test_theta_co_builds_valid_copair(nak):
    k = LeftModule.regular(nak.a)
    one = FpMatrix([[1]], FIELD2)
    zero = FpMatrix.zeros(1, 1, FIELD2)
    ct = CoTupleModule(nak, k, k, one, zero)
    copair = theta_co(ct)
    mod = copair_to_module(copair)
    assert mod.dim == 2
    # the same tuple data through the pair route gives an isomorphic module
    t = TupleModule(nak, k, k, one, zero)
    assert find_isomorphism(mod, pair_to_module(theta(t))) is not None


def test_tuple_hom_dim_matches_converted(nak):
    rng = np.random.default_rng(14)
    tuples = [random_tuple(nak, rng) for _ in range(6)]
    for s, t in zip(tuples, tuples[1:]):
        expect = hom_space(pair_to_module(theta(s)),
                           pair_to_module(theta(t))).dim
        assert hom_space(s.module, t.module).dim == expect
    s = tuples[0]
    assert hom_space(s.module, s.module).dim == hom_space(
        pair_to_module(theta(s)), pair_to_module(theta(s))).dim


def _count_tuple_morphisms(s, t):
    """Number of pairs (phi, chi) of linear maps X_s -> X_t, Y_s -> Y_t
    that are module maps with chi o f_s = f_t o (U ox phi) and
    phi o g_s = g_t o (V ox chi), by enumeration."""
    field = s.x.over.field
    (rx, cx), (ry, cy) = (t.x.dim, s.x.dim), (t.y.dim, s.y.dim)
    count = 0
    for entries in itertools.product(range(field.p), repeat=rx * cx + ry * cy):
        phi = FpMatrix(np.reshape(entries[:rx * cx], (rx, cx)), field)
        chi = FpMatrix(np.reshape(entries[rx * cx:], (ry, cy)), field)
        try:
            phi_hom = ModuleHom(s.x, t.x, phi)
            chi_hom = ModuleHom(s.y, t.y, chi)
        except AlgebraError:
            continue
        u_phi = tensor_map_second(s.tsux, t.tsux, phi_hom)
        v_chi = tensor_map_second(s.tsvy, t.tsvy, chi_hom)
        count += (chi @ s.f.matrix == t.f.matrix @ u_phi.matrix
                  and phi @ s.g.matrix == t.g.matrix @ v_chi.matrix)
    return count


@pytest.mark.parametrize("make", [nakayama_ring, a2_morita_ring,
                                  product_morita_ring])
def test_tuple_hom_dim_counts_tuple_morphisms(make):
    # an oracle independent of theta: the morphisms of the tuple category,
    # counted one by one, number p ** dim Hom(s.module, t.module)
    ring = make(FIELD2)
    rng = np.random.default_rng(1)
    tuples = [random_tuple(ring, rng, max_dim=3) for _ in range(6)]
    for s, t in itertools.product(tuples, repeat=2):
        assert _count_tuple_morphisms(s, t) == \
            2 ** hom_space(s.module, t.module).dim


def test_verify_thm52_canned(nak):
    k = LeftModule.regular(nak.a)
    one = FpMatrix([[1]], FIELD2)
    zero = FpMatrix.zeros(1, 1, FIELD2)
    report = verify_thm52(TupleModule(nak, k, k, one, zero))
    assert report["classification"] in ("agree", "consistent")
    assert report["agreement"]
    assert report["components_established"]


def test_verify_thm53_and_54_canned(nak):
    k = LeftModule.regular(nak.a)
    one = FpMatrix([[1]], FIELD2)
    zero = FpMatrix.zeros(1, 1, FIELD2)
    r53 = verify_thm53(CoTupleModule(nak, k, k, one, zero))
    assert r53["agreement"]
    w = LeftModule.regular(opposite_algebra(nak.a))
    r54 = verify_thm54(right_tuple(nak, w, w, one, zero))
    assert r54["agreement"]


def test_thm52_exhaustive_a2(a2m):
    # every tuple with dim X + dim Y <= 3 over the hereditary Morita ring
    seen = 0
    for dx in range(3):
        for dy in range(3 - dx):
            x = LeftModule(a2m.a,
                           [FpMatrix.identity(dx, FIELD2)])
            y = LeftModule(a2m.b,
                           [FpMatrix.identity(dy, FIELD2)])
            for entries in itertools.product(range(2), repeat=dy * dx):
                f = FpMatrix(np.reshape(entries, (dy, dx)), FIELD2)
                g = FpMatrix.zeros(dx, 0, FIELD2)
                t = TupleModule(a2m, x, y, f, g)
                report = verify_thm52(t)
                assert report["hypotheses_established"]
                assert report["classification"] == "agree"
                seen += 1
    assert seen > 5


def _space(alg, d):
    """k^d over the 1-dimensional algebra alg."""
    return LeftModule(alg, [FpMatrix.identity(d, FIELD2)])


# Over (k, k, k, k) the tensors and Hom modules with U = V = k are X and Y
# in their own coordinates, and the two composite axioms of a (co)tuple ask
# g f = 0 and f g = 0.  With dim X = 2, dim Y = 1 this f and g break only
# the first; with dim X = 1, dim Y = 2 the transposes break only the
# second.
_ONE_AXIOM_BROKEN = (
    (2, 1, FpMatrix([[1, 0]], FIELD2), FpMatrix([[0], [1]], FIELD2), 0),
    (1, 2, FpMatrix([[1], [0]], FIELD2), FpMatrix([[0, 1]], FIELD2), 1))


def test_each_tuple_axiom_is_named(nak):
    names = ("g o (V ox f) != 0", "f o (U ox g) != 0")
    for dx, dy, f, g, broken in _ONE_AXIOM_BROKEN:
        x, y = _space(nak.a, dx), _space(nak.b, dy)
        unchecked = TupleModule(nak, x, y, f, g, validate=False)
        assert [not c.is_zero() for c in (
            g @ unchecked.composites()[0].matrix,
            f @ unchecked.composites()[1].matrix)] == [broken == 0,
                                                        broken == 1]
        with pytest.raises(MoritaError, match=re.escape(names[broken])):
            TupleModule(nak, x, y, f, g)


def test_each_cotuple_axiom_is_named(nak):
    names = ("Hom(U, g) o f != 0", "Hom(V, f) o g != 0")
    for dx, dy, f, g, broken in _ONE_AXIOM_BROKEN:
        x, y = _space(nak.a, dx), _space(nak.b, dy)
        with pytest.raises(MoritaError, match=re.escape(names[broken])):
            CoTupleModule(nak, x, y, f, g)


def test_right_tuple_axiom_is_named(nak):
    # f: Q ox U -> W and g: W ox V -> Q; with dim W = 2, dim Q = 1 only the
    # composite f o (g ox U): W ox V ox U -> W breaks; with dim W = 1,
    # dim Q = 2 only g o (f ox V): Q ox U ox V -> Q
    names = ("f o (g ox U) != 0", "g o (f ox V) != 0")
    for dw, dq, g, f, broken in _ONE_AXIOM_BROKEN:
        w = LeftModule(opposite_algebra(nak.a),
                       [FpMatrix.identity(dw, FIELD2)])
        q = LeftModule(opposite_algebra(nak.b),
                       [FpMatrix.identity(dq, FIELD2)])
        with pytest.raises(MoritaError, match=re.escape(names[broken])):
            right_tuple(nak, w, q, f, g)


def test_maps_that_are_not_module_maps_are_named():
    # over (k x k, k x k, M, M) with M = k, (a, b).m = b m and m.(a, b) =
    # m a, both M ox R and Hom(M, R) of R = k x k are one-dimensional, and
    # a module map lands in, resp. comes from, one summand of R
    k = field_algebra(FIELD2)
    prod = product_algebra(k, k)
    zero, one = FpMatrix.zeros(1, 1, FIELD2), FpMatrix.identity(1, FIELD2)
    m = Bimodule(prod, prod, [zero, one], [one, zero])
    ring = MoritaRing(prod, prod, m, m)
    x = LeftModule.regular(prod)
    for build, good, bad in ((TupleModule, [[0], [1]], [[1], [0]]),
                             (CoTupleModule, [[1, 0]], [[0, 1]])):
        good, bad = FpMatrix(good, FIELD2), FpMatrix(bad, FIELD2)
        build(ring, x, x, good, good)
        for f, g, name in ((bad, good, "f"), (good, bad, "g")):
            with pytest.raises(MoritaError,
                               match=f"^{name} is not a module map$"):
                build(ring, x, x, f, g)
    # a right tuple (W, W, f, g) is the tuple (W, W, g, f) over the
    # opposite context, but a g that is not a module map is still named g
    w = LeftModule.regular(opposite_algebra(prod))
    good, bad = FpMatrix([[1], [0]], FIELD2), FpMatrix([[0], [1]], FIELD2)
    right_tuple(ring, w, w, good, good)
    with pytest.raises(MoritaError, match="^g is not a module map$"):
        right_tuple(ring, w, w, good, bad)


def test_law_check_matches_the_composites():
    # for linear f and g, the law of the module over the ring holds exactly
    # when both composites of the (co)tuple vanish
    rng = np.random.default_rng(3)
    seen = set()
    for ring in [nakayama_ring(FIELD2)] * 12 + [a2_morita_ring(FIELD2)] * 4:
        u, v = ring.u, ring.v
        x = _space(ring.a, int(rng.integers(1, 3)))
        y = _space(ring.b, int(rng.integers(1, 3)))
        tsux, tsvy = tensor_bimodule_left(u, x), tensor_bimodule_left(v, y)
        huy, hvx = hom_from_bimodule(u, y), hom_from_bimodule(v, x)
        for kind in ("tuple", "cotuple"):
            spaces = ((hom_space(tsux.space, y), hom_space(tsvy.space, x))
                      if kind == "tuple" else
                      (hom_space(x, huy.space), hom_space(y, hvx.space)))
            f, g = (element(hs, rng.integers(0, 2, size=hs.dim)).matrix
                    for hs in spaces)
            if kind == "tuple":
                vf, ug = TupleModule(ring, x, y, f, g,
                                     validate=False).composites()
                holds = (g @ vf.matrix).is_zero() and \
                    (f @ ug.matrix).is_zero()
            else:
                ugv = hom_from_bimodule(u, hvx.space)
                vfu = hom_from_bimodule(v, huy.space)
                holds = (huy.postcompose(ugv, ModuleHom(y, hvx.space, g))
                         .matrix @ f).is_zero() and \
                    (hvx.postcompose(vfu, ModuleHom(x, huy.space, f))
                     .matrix @ g).is_zero()
            seen.add(holds)
            build = TupleModule if kind == "tuple" else CoTupleModule
            try:
                build(ring, x, y, f, g)
            except MoritaError:
                assert not holds
            else:
                assert holds
    assert seen == {True, False}


@pytest.mark.parametrize("build", [nakayama_ring, a2_morita_ring,
                                   product_morita_ring])
def test_right_module_of_a_right_tuple_satisfies_the_law(build):
    # built without the law check: it holds by construction, checked here
    ring = build(FIELD2)
    rng = np.random.default_rng(23)
    for _ in range(4):
        rt = random_right_tuple(ring, rng, max_dim=3)
        assert rt.module.over is opposite_algebra(ring.total)
        rt.module.validate()


# recorded on the implementation that split X and Y off with stored
# idempotent vectors and read each block with its own helper
TUPLE_PIN = "e12699711ccec4c3ac4781f75995aeaebe9621ec3ba73ea3047ed614ffc7e386"


def test_tuple_readers_match_the_pinned_fingerprint():
    # x, y, f, g and the module over the ring of seeded left and right
    # tuples read off random pairs by theta_inverse and upsilon_inverse
    h = hashlib.sha256()
    for p in (2, 3, 101):
        for make in (nakayama_ring, a2_morita_ring, product_morita_ring):
            ring = make(FieldSpec(p))
            rng = np.random.default_rng(70 + p)
            h.update(f"{make.__name__}@{p}".encode())
            for read in (random_tuple, random_right_tuple):
                for _ in range(4):
                    t = read(ring, rng)
                    _put_module(h, t.x)
                    _put_module(h, t.y)
                    # the module in its own context's basis order A, B, U, V
                    k = t.ring.prod.dim
                    acts = t.module.acts
                    _put(h, np.concatenate([acts[:k], acts[t.ring.u_slice],
                                            acts[t.ring.v_slice]]))
                    _put(h, t.f.matrix.arr)
                    _put(h, t.g.matrix.arr)
    assert h.hexdigest() == TUPLE_PIN
