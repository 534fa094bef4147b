import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FIELD2, FIELD3, a2_algebra, a2_morita_ring,
                      double_extension, local_wild_algebra, monomial_quivers,
                      nakayama_ring, random_module, small_quiver_algebra,
                      square_zero_extension, triangular_extension)
from extalg import algebra
from extalg.algebra import (Algebra, AlgebraError, Bimodule, LeftModule,
                            ModuleHom, algebra_generators,
                            block_sum_module, cokernel_module,
                            dual_module, field_algebra, hom_from_bimodule,
                            hom_space, image_module, is_exact_at,
                            is_kernel_inclusion, kernel_module,
                            monomial_quiver_algebra, opposite_algebra,
                            product_algebra, quotient_module,
                            tensor_bimodule_left, tensor_map_second,
                            tensor_right_left, validate_algebra)
from extalg.gorenstein import solve_module_hom
from extalg.linalg import (FieldSpec, FpMatrix, hstack, inverse, kernel_basis,
                           kron, quotient_maps, solve, vstack)
from extalg.structure import find_isomorphism
from reference import element, mult, submodule
from test_linalg import _record_casts
from test_resolution_fingerprint import _put


def test_validate_catches_broken_tables():
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 0, 0] = 1
    sc[0, 1, 1] = 1
    sc[1, 0, 1] = 1
    sc[1, 1, 0] = 1  # C2 group algebra: fine
    a = Algebra(FIELD2, sc, [1, 0])
    assert validate_algebra(a)["associative"]
    bad = sc.copy()
    bad[0, 1, 1] = 0  # 1 * y = 0 breaks the unit law
    with pytest.raises(AlgebraError):
        Algebra(FIELD2, bad, [1, 0])


def _first_violation(sc, unit, p):
    """The message naming the first failure of the unit law (j in order,
    left before right) or of associativity (triples in lexicographic
    order) of the table, one basis triple at a time; None when it holds."""
    n = len(unit)
    for j in range(n):
        if (unit @ sc[:, j] % p != np.eye(n, dtype=np.int64)[j]).any():
            return f"unit law violated: 1 * b_{j} != b_{j}"
        if (unit @ sc[j] % p != np.eye(n, dtype=np.int64)[j]).any():
            return f"unit law violated: b_{j} * 1 != b_{j}"
    for i, j, k in itertools.product(range(n), repeat=3):
        # (b_i b_j) b_k against b_i (b_j b_k)
        if (sc[i, j] @ sc[:, k] % p != sc[j, k] @ sc[i] % p).any():
            return f"associativity violated at triple ({i},{j},{k})"
    return None


def test_validate_names_the_first_violation_of_a_dim_21_table(monkeypatch):
    # A6 at p = 65521 has dim 21, so both products of each row of the
    # associativity check run in float64 (inner dimension 21)
    p = 65521
    a6 = monomial_quiver_algebra(6, [(i, i + 1) for i in range(5)], [],
                                 FieldSpec(p))
    rng = np.random.default_rng(21)
    # the path basis, where a row of the table has few nonzero products,
    # and a dense basis with b_0 = 1, where one row breaks at many (j, k)
    g = rng.integers(0, p, size=(a6.dim, a6.dim))
    g[0] = a6.unit
    gi = solve(FpMatrix(g, a6.field), FpMatrix.identity(a6.dim, a6.field))
    dense = np.einsum("ia,jb,abk->ijk", g, g, a6.sc) % p @ gi.arr % p
    tables = [(a6.sc, a6.unit), (dense, a6.unit @ gi.arr % p)]
    casts = _record_casts(monkeypatch, algebra)
    seen = []
    for sc0, unit in tables:
        assert validate_algebra(Algebra(a6.field, sc0, unit))["associative"]
        # products of two basis elements outside the support of the unit
        # leave the unit law alone; one with a summand of 1 in front moves
        # unit * b_j
        inner = np.flatnonzero(unit == 0)
        spots = [tuple(rng.choice(inner, 2)) + (rng.integers(a6.dim),)
                 for _ in range(4)] + [(np.flatnonzero(unit)[-1], inner[4], 0)]
        for spot in spots:
            sc = sc0.copy()
            sc[spot] = (sc[spot] + rng.integers(1, p)) % p
            want = _first_violation(sc, unit, p)
            seen.append(want.split(" ")[0])
            casts.clear()
            with pytest.raises(AlgebraError, match=f"^{re.escape(want)}$"):
                validate_algebra(Algebra(a6.field, sc, unit, validate=False))
            assert (np.dtype(float) in casts) == (seen[-1] != "unit")
    assert seen.count("associativity") == 8 and seen.count("unit") == 2


def test_mult_stays_in_int64_at_the_largest_prime():
    # a dense dim-182 table of p - 1 and x = y = (p - 1, ...): each
    # coordinate of x*y is n^2 (p - 1)^3 mod p, past int64 as one sum
    p, n = 65521, 182
    a = Algebra(FieldSpec(p), np.full((n, n, n), p - 1, dtype=np.int64),
                np.zeros(n, dtype=np.int64), validate=False)
    x = np.full(n, p - 1, dtype=np.int64)
    assert (mult(a, x, x) == n * n * (p - 1) ** 3 % p).all()


def test_product_algebra_idempotents():
    k = field_algebra(FIELD2)
    prod = product_algebra(k, k)
    # the central idempotents (1, 0) and (0, 1), from the unit blocks
    e1 = np.concatenate([k.unit, 0 * k.unit])
    e2 = np.concatenate([0 * k.unit, k.unit])
    assert prod.dim == 2
    assert (mult(prod, e1, e1) == e1).all()
    assert (mult(prod, e2, e2) == e2).all()
    assert not mult(prod, e1, e2).any()
    assert ((e1 + e2) % 2 == prod.unit).all()


def test_quiver_a2_basis():
    a = a2_algebra(FIELD2)
    assert a.dim == 3  # e1, e2, the arrow
    op = opposite_algebra(a)
    assert opposite_algebra(op) is a
    assert (op.sc == np.transpose(a.sc, (1, 0, 2))).all()


def test_quiver_relations():
    # one loop with x^2 = 0 gives the dual numbers
    a = monomial_quiver_algebra(1, [(0, 0)], [[0, 0]], FIELD2)
    assert a.dim == 2
    with pytest.raises(AlgebraError, match="exceeds the dimension bound"):
        # inadmissible: no relations on a loop means infinite dimension
        monomial_quiver_algebra(1, [(0, 0)], [], FIELD2)


@pytest.mark.parametrize("vertices, arrows, relations, named", [
    (3, [(0, 1)], [[7]], "relation [7]: no arrow 7"),
    (3, [(0, 1)], [[-1]], "relation [-1]: no arrow -1"),
    (3, [(0, 1), (1, 2)], [[0, 9]], "relation [0, 9]: no arrow 9"),
    (3, [(0, 3)], [], "arrow 0 (0, 3): no vertex 3"),
    (2, [(0, 1), (-1, 0)], [], "arrow 1 (-1, 0): no vertex -1"),
    (2, [(0, 1)], [[0, 0]], "relation [0, 0]: arrow 0 ends at vertex 1 but "
     "arrow 0 starts at vertex 0"),
    (2, [(0, 1)], [[]], "relation []: a zero relation is a path of at least "
     "one arrow"),
    (0, [], [], "quiver.vertices: need at least one vertex, got 0"),
    (-1, [], [], "quiver.vertices: need at least one vertex, got -1"),
    (201, [], [], "quiver algebra exceeds the dimension bound: 201 vertices"),
], ids=["relation_index", "negative_relation", "path_index", "arrow_vertex",
        "negative_vertex", "not_composable", "empty_relation", "no_vertex",
        "negative_vertex_count", "too_many_vertices"])
def test_quiver_indices_out_of_range_raise(vertices, arrows, relations,
                                            named):
    # no relation is dropped and no index error leaks: the message names
    # the arrow or relation whose index is out of range, the two arrows of
    # a relation that do not compose, an empty relation (which A2 would
    # ignore) or a vertex count below one or, with no relation at fault,
    # past the dimension bound, before a table is built
    with pytest.raises(AlgebraError, match=re.escape(named)):
        monomial_quiver_algebra(vertices, arrows, relations, FIELD2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(quiver=monomial_quivers(), p=st.sampled_from([2, 3, 101, 65521]))
def test_quiver_tables_are_associative_and_unital(quiver, p):
    # monomial_quiver_algebra skips validate_algebra: its table is right
    # by construction, and this checks the construction instead
    a = small_quiver_algebra(*quiver, FieldSpec(p))
    if a is not None:
        assert validate_algebra(a) == {"dim": a.dim, "p": p,
                                       "associative": True, "unital": True}


# recorded before a quiver path became one (source, target, arrows)
# record; the basis order, the tables and the refusals must stay
QUIVER_PIN = "62043437a288aa0bfb94e8ab699e801bd8cdf8e0bd9cfefcf051ca0e71eeebbc"


def _pinned_quivers():
    """A_1-A_11, the Nakayama algebras N(n, k) for n <= 5 and k <= 6, the
    local wild algebra, a quiver with relations of three lengths and four
    inputs that are refused."""
    out = [(f"A{n}", n, [(i, i + 1) for i in range(n - 1)], [])
           for n in range(1, 12)]
    for n, k in itertools.product(range(1, 6), range(1, 7)):
        out.append((f"N({n},{k})", n, [(i, (i + 1) % n) for i in range(n)],
                    [[(s + j) % n for j in range(k)] for s in range(n)]))
    return out + [
        ("wild", 1, [(0, 0), (0, 0)], [[0, 0], [0, 1], [1, 0], [1, 1]]),
        ("mixed", 3, [(0, 1), (1, 2), (2, 0), (1, 1)],
         [[3, 3], [0, 1, 2], [2, 0, 3], [1, 2, 0, 1]]),
        ("cycle", 2, [(0, 1), (1, 0)], []),
        ("no_vertex", 2, [(0, 2)], []),
        ("no_arrow", 2, [(0, 1)], [[1]]),
        ("loose", 2, [(0, 1)], [[0, 0]])]


def test_quiver_tables_match_the_pinned_fingerprint():
    h = hashlib.sha256()
    for name, n, arrows, relations in _pinned_quivers():
        h.update(name.encode())
        try:
            a = monomial_quiver_algebra(n, arrows, relations, FIELD2)
        except AlgebraError as e:
            h.update(f"error: {e}".encode())
            continue
        _put(h, a.sc)
        _put(h, a.unit)
    assert h.hexdigest() == QUIVER_PIN


def test_quiver_algebras_skip_the_table_check(monkeypatch):
    # a table given as structure constants is checked where it enters
    calls, check = [], algebra.validate_algebra
    monkeypatch.setattr(algebra, "validate_algebra",
                        lambda a: calls.append(a) or check(a))
    quiver = monomial_quiver_algebra(3, [(0, 1), (1, 2)], [[0, 1]], FIELD2)
    assert calls == []
    table = Algebra(FIELD2, quiver.sc, quiver.unit)
    assert calls == [table]


def test_bimodule_actions_of_different_sizes_raise():
    k = field_algebra(FIELD2)
    with pytest.raises(AlgebraError, match="left action is 1-dimensional "
                       "but right action is 2-dimensional"):
        Bimodule(k, k, [FpMatrix.identity(1, FIELD2)],
                 [FpMatrix.identity(2, FIELD2)])


def test_module_hom_needs_a_common_algebra():
    # k x k and k[x]/(x^2) are both 2-dimensional, with different tables
    k = field_algebra(FIELD2)
    kk = product_algebra(k, k)
    dual_numbers = square_zero_extension(FIELD2).total
    source, target = (LeftModule.regular(a) for a in (kk, dual_numbers))
    with pytest.raises(AlgebraError, match="over different algebras"):
        ModuleHom(source, target, FpMatrix.zeros(2, 2, FIELD2))


def test_module_law_enforced():
    a = a2_algebra(FIELD2)
    good = LeftModule.regular(a)
    assert good.dim == 3
    with pytest.raises(AlgebraError):
        LeftModule(a, [FpMatrix.identity(1, FIELD2)] * 3)
    # the list of matrices and their stack give the same module
    listed = LeftModule(a, list(good.action))
    stacked = LeftModule(a, np.array([m.arr for m in good.action]))
    for m in (listed, stacked):
        assert algebra._content(m) == algebra._content(good)
        assert m.action == good.action
    with pytest.raises(AttributeError):
        good.action = listed.action
    # a stack is checked for its shape as a list is
    for bad, message in ((good.acts[0], "square"),
                         (good.acts[:, :2], "square"),
                         (good.acts[:2], "one action matrix per basis")):
        with pytest.raises(AlgebraError, match=message):
            LeftModule(a, bad)


def test_right_module_opposite_round_trip():
    # a right module over A is a module over A^op, whose opposite is A
    # again, so a right module's dual is over A and its bidual over A^op
    a = a2_algebra(FIELD2)
    op = opposite_algebra(a)
    assert op is not a and opposite_algebra(op) is a
    r = LeftModule.regular(op)
    # b_j acts by right multiplication: entry (k, i) is sc[i, j, k]
    assert (r.acts == a.sc.transpose(1, 2, 0)).all()
    assert dual_module(r).over is a
    back = dual_module(dual_module(r))
    assert back.over is op
    assert all(x == y for x, y in zip(r.action, back.action))


def test_hom_space_and_endomorphisms():
    a = a2_algebra(FIELD2)
    reg = LeftModule.regular(a)
    endos = hom_space(reg, reg)
    # End(A) = A^op for the regular module
    assert endos.dim == a.dim
    for k in range(endos.dim):
        endos.basis_hom(k).validate()
    coords = endos.coords(endos.basis_hom(1).matrix)
    assert element(endos, coords).matrix == endos.basis_hom(1).matrix


def test_hom_element_reduces_its_coordinates_first():
    # coordinates off by a large multiple of p name the same hom; unreduced
    # they overflow int64 against a basis entry of 7 at p = 65521
    field = FieldSpec(65521)
    reg = LeftModule.regular(a2_algebra(field))
    g = FpMatrix(np.array([[1, 0, 0], [7, 1, 0], [11, 13, 1]]), field)
    moved = LeftModule(reg.over, [g @ m @ inverse(g) for m in reg.action])
    homs = hom_space(reg, moved)
    coords = np.arange(1, homs.dim + 1, dtype=np.int64) * (field.p - 1)
    assert element(homs, coords + field.p * 2 ** 46).matrix == \
        element(homs, coords).matrix


def test_kernel_image_cokernel():
    a = field_algebra(FIELD3)
    m = LeftModule(a, [FpMatrix.identity(3, FIELD3)])
    n = LeftModule(a, [FpMatrix.identity(2, FIELD3)])
    f = ModuleHom(m, n, FpMatrix([[1, 0, 2], [0, 0, 0]], FIELD3))
    ker, incl = kernel_module(f)
    assert ker.dim == 2 and (f.matrix @ incl.matrix).is_zero()
    img, iincl, epi = image_module(f)
    assert img.dim == 1
    assert iincl.matrix @ epi.matrix == f.matrix
    cok, proj = cokernel_module(f)
    assert cok.dim == 1 and (proj.matrix @ f.matrix).is_zero()


def test_is_exact_at_matches_ranks():
    a = field_algebra(FIELD2)
    m = LeftModule(a, [FpMatrix.identity(2, FIELD2)])
    f = ModuleHom(m, m, FpMatrix([[0, 1], [0, 0]], FIELD2))
    assert is_exact_at(f, f)  # im = ker = span(e1)
    g = ModuleHom(m, m, FpMatrix.zeros(2, 2, FIELD2))
    assert not is_exact_at(g, g)


def test_is_kernel_inclusion_needs_an_injection_onto_the_kernel():
    a = field_algebra(FIELD2)
    m = LeftModule(a, [FpMatrix.identity(2, FIELD2)])
    line = LeftModule(a, [FpMatrix.identity(1, FIELD2)])
    g = ModuleHom(m, m, FpMatrix([[0, 1], [0, 0]], FIELD2))  # ker = span(e1)
    e1 = ModuleHom(line, m, FpMatrix([[1], [0]], FIELD2))
    e2 = ModuleHom(line, m, FpMatrix([[0], [1]], FIELD2))
    zero = ModuleHom(m, m, FpMatrix.zeros(2, 2, FIELD2))
    assert is_kernel_inclusion(e1, g)
    assert is_exact_at(g, g) and not is_kernel_inclusion(g, g)  # not injective
    assert not is_kernel_inclusion(e2, g)  # g.e2 != 0
    assert not is_kernel_inclusion(e1, zero)  # injective, not onto ker(0)


def test_tensor_hom_adjunction_dims():
    # dim Hom(M ox X, Y) = dim Hom(X, Hom(M, Y)) over the group algebra kC2
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 0, 0] = sc[0, 1, 1] = sc[1, 0, 1] = sc[1, 1, 0] = 1
    a = Algebra(FIELD2, sc, [1, 0])
    m = Bimodule.regular(a)
    reg = LeftModule.regular(a)
    triv = LeftModule(a, [FpMatrix.identity(1, FIELD2)] * 2)
    for x in (reg, triv):
        for y in (reg, triv):
            ts = tensor_bimodule_left(m, x)
            lhs = hom_space(ts.space, y).dim
            hm = hom_from_bimodule(m, y)
            rhs = hom_space(x, hm.space).dim
            assert lhs == rhs


def test_tensor_map_functorial():
    a = a2_algebra(FIELD2)
    m = Bimodule.regular(a)
    reg = LeftModule.regular(a)
    ts = tensor_bimodule_left(m, reg)
    ident = tensor_map_second(ts, ts, ModuleHom.identity(reg))
    assert ident.matrix == FpMatrix.identity(ts.space.dim, FIELD2)


def test_tensor_right_left_dimension():
    a = a2_algebra(FIELD2)
    ts = tensor_right_left(LeftModule.regular(opposite_algebra(a)),
                           LeftModule.regular(a))
    # A ox_A A = A
    assert ts.space.dim == a.dim


def test_dual_module_round_trip():
    a = a2_algebra(FIELD2)
    reg = LeftModule.regular(a)
    d = dual_module(reg)
    assert d.over is opposite_algebra(a)
    dd = dual_module(d)
    assert dd.over is a
    assert all(x == y for x, y in zip(reg.action, dd.action))


def test_find_isomorphism():
    a = a2_algebra(FIELD2)
    reg = LeftModule.regular(a)
    other = block_sum_module([reg])
    wit = find_isomorphism(reg, other)
    assert wit is not None and wit.is_iso()
    wit.validate()
    triv = LeftModule(a, [FpMatrix.identity(1, FIELD2),
                          FpMatrix.zeros(1, 1, FIELD2),
                          FpMatrix.zeros(1, 1, FIELD2)])
    assert find_isomorphism(triv, reg) is None


def test_submodule_quotient_consistency():
    a = a2_algebra(FIELD2)
    reg = LeftModule.regular(a)
    # the arrow spans a submodule of the regular module
    rows = FpMatrix([[0, 0, 1]], FIELD2)
    sub, incl = submodule(reg, rows)
    assert sub.dim == 1
    incl.validate()
    quo, proj, _ = quotient_module(reg, rows.transpose())
    assert quo.dim == 2
    proj.validate()


def _first_law_violation(m):
    """First (i, j) in row-major order where the module law fails, found
    with the plain double loop over basis pairs."""
    p, n = m.over.field.p, m.over.dim
    for i in range(n):
        for j in range(n):
            rhs = sum(int(c) * m.action[k].arr
                      for k, c in enumerate(m.over.sc[i, j]))
            if ((m.action[i].arr @ m.action[j].arr - rhs) % p).any():
                return i, j
    return None


@pytest.mark.parametrize("side", ["left", "right"])
def test_law_violation_names_first_pair(side):
    # the arrow (basis index 2) takes no part in the unit, so breaking its
    # action leaves the unit check passing; with the identity for the arrow,
    # e_0 * arrow = 0 (left) and arrow * e_0 = arrow (right, a module over
    # A^op) both fail first
    a = a2_algebra(FIELD3)
    over = a if side == "left" else opposite_algebra(a)
    action = list(LeftModule.regular(over).action)
    action[2] = FpMatrix.identity(3, FIELD3)
    assert _first_law_violation(LeftModule(over, action,
                                           validate=False)) == (0, 2)
    with pytest.raises(AlgebraError,
                       match=r"^module law violated at \(0,2\)$"):
        LeftModule(over, action)
    # a bimodule names the action whose law fails
    reg = Bimodule.regular(a)
    legs = {"left": reg.left_action, "right": reg.right_action, side: action}
    with pytest.raises(AlgebraError, match=rf"^{side} action: module law "
                       r"violated at \(0,2\)$"):
        Bimodule(a, a, legs["left"], legs["right"])
    rng = np.random.default_rng(7)
    for _ in range(5):
        action[2] = FpMatrix(rng.integers(0, 3, size=(3, 3)), FIELD3)
        broken = LeftModule(over, action, validate=False)
        i, j = _first_law_violation(broken)
        with pytest.raises(AlgebraError, match=rf"at \({i},{j}\)"):
            broken.validate()


def test_coords_match_solve():
    rng = np.random.default_rng(3)
    a = local_wild_algebra(FIELD3)
    reg = LeftModule.regular(a)
    m = block_sum_module([reg, random_module(a, rng)])
    hs = hom_space(m, reg)
    assert hs.dim > 1
    members = [element(hs, rng.integers(0, 3, size=hs.dim)).matrix
               for _ in range(6)]
    many = hs.coords_many([t.arr for t in members])
    assert many.rows == hs.dim and many.cols == len(members)
    for k, t in enumerate(members):
        want = solve(hs.mat.transpose(), FpMatrix.column(t.arr.reshape(-1),
                                                         FIELD3))
        assert (hs.coords(t) == want.arr[:, 0]).all()
        assert (many.arr[:, k] == want.arr[:, 0]).all()
    assert hs.coords_many([]).arr.shape == (hs.dim, 0)
    outside = FpMatrix(rng.integers(0, 3, size=(reg.dim, m.dim)), FIELD3)
    while solve(hs.mat.transpose(),
                FpMatrix.column(outside.arr.reshape(-1), FIELD3)) is not None:
        outside = FpMatrix(rng.integers(0, 3, size=(reg.dim, m.dim)), FIELD3)
    with pytest.raises(AlgebraError):
        hs.coords(outside)
    with pytest.raises(AlgebraError):
        hs.coords_many([members[0].arr, outside.arr])


def test_algebra_generators():
    assert algebra_generators(field_algebra(FIELD3)) == []
    for n in range(2, 7):
        arrows = [(i, i + 1) for i in range(n - 1)]
        a = monomial_quiver_algebra(n, arrows, [], FIELD2)
        # vertices come first in the basis, then the arrows
        assert algebra_generators(a) == (list(range(n - 1))
                                         + list(range(n, 2 * n - 1)))
    k = field_algebra(FIELD2)
    triv = LeftModule(k, [FpMatrix.identity(2, FIELD2)])
    assert hom_space(triv, triv).dim == 4
    # with no generators nothing is contracted
    wide = LeftModule(opposite_algebra(k), [FpMatrix.identity(3, FIELD2)])
    assert tensor_right_left(wide, triv).space.dim == 6


ALGEBRAS = {
    "dual_numbers": lambda f: square_zero_extension(f).total,
    "triangular": lambda f: triangular_extension(f).total,
    "a2": a2_algebra,
    "wild": local_wild_algebra,
    "double": lambda f: double_extension(f).total,
    "nakayama": lambda f: nakayama_ring(f).total,
    "a2_ring": lambda f: a2_morita_ring(f).total,
}


def _full_basis_system(m, n):
    """The intertwining system over every basis element."""
    field = m.over.field
    idt = FpMatrix.identity(n.dim, field)
    ids = FpMatrix.identity(m.dim, field)
    return vstack([kron(idt, m.action[i].transpose())
                   - kron(n.action[i], ids) for i in range(m.over.dim)])


def _full_basis_tensor(bim, x):
    """Quotient maps of bim ox x by the relations of every basis element."""
    field = x.over.field
    i1 = FpMatrix.identity(bim.dim, field)
    i2 = FpMatrix.identity(x.dim, field)
    return quotient_maps(hstack([kron(r, i2) - kron(i1, l) for r, l
                                 in zip(bim.right_action, x.action)]))


def _full_basis_solve(m, n, fixed):
    """solve_module_hom's system with every basis element intertwined: the
    first fixed.rows rows of T, the first entries of vec(T), are fixed."""
    field = m.over.field
    system = _full_basis_system(m, n)
    pinned = FpMatrix.identity(n.dim * m.dim, field).arr[:fixed.rows * m.dim]
    x = solve(vstack([system, FpMatrix(pinned, field)]),
              FpMatrix.column(np.concatenate([
                  np.zeros(system.rows, dtype=np.int64),
                  fixed.arr.reshape(-1)]), field))
    return FpMatrix(x.arr.reshape(n.dim, m.dim), field)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)),
       p=st.sampled_from([2, 3, 101, 65521]),
       side=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generator_hom_system_matches_full_basis(name, p, side, seed):
    a = ALGEBRAS[name](FieldSpec(p))
    if side == "right":
        a = opposite_algebra(a)
    rng = np.random.default_rng(seed)
    m = random_module(a, rng)
    n = random_module(a, rng)
    for src, tgt in ((m, n), (n, m), (m, m)):
        hs = hom_space(src, tgt)
        assert hs.mat == kernel_basis(_full_basis_system(src, tgt))
        # a solve with constraints that some module map meets: its first
        # two rows
        h = element(hs, rng.integers(0, p, size=hs.dim)).matrix
        fixed = FpMatrix(h.arr[:2], a.field)
        got = solve_module_hom(src, tgt, fixed)
        assert got.matrix == _full_basis_solve(src, tgt, fixed)
    # tensor products and Hom modules are built without the law check
    reg = Bimodule.regular(a)
    dual = Bimodule(a, a, reg.right.acts.transpose(0, 2, 1),
                    reg.left.acts.transpose(0, 2, 1))
    for bim in (reg, dual):
        ts = tensor_bimodule_left(bim, m)
        qm = _full_basis_tensor(bim, m)
        assert ts.project == qm.project and ts.include == qm.include
        # the action of each b is M's left action on the first factor,
        # carried to the quotient
        one = FpMatrix.identity(m.dim, a.field)
        assert ts.space.action == tuple(
            qm.project @ kron(la, one) @ qm.include for la in bim.left_action)
        ts.space.validate()
        hom_from_bimodule(bim, n).space.validate()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)), p=st.sampled_from([2, 3, 101]),
       rows=st.sampled_from([0, 1]), seed=st.integers(0, 2 ** 32 - 1))
def test_underdetermined_solve_matches_full_system(name, p, rows, seed):
    # one constrained row (or none) leaves many module maps, so this pins
    # which one is returned: the full system's, with its free entries of
    # vec(T) set to 0
    a = ALGEBRAS[name](FieldSpec(p))
    rng = np.random.default_rng(seed)
    m, n = random_module(a, rng), random_module(a, rng)
    hs = hom_space(m, n)
    h = element(hs, rng.integers(0, p, size=hs.dim)).matrix
    fixed = FpMatrix(h.arr[:rows], a.field)
    got = solve_module_hom(m, n, fixed)
    assert got.matrix == _full_basis_solve(m, n, fixed)


def _copy(m):
    return LeftModule(m.over, [FpMatrix(x.arr.copy(), x.field)
                               for x in m.action])


def test_content_equal_modules_share_one_tensor_and_hom_module():
    a = a2_algebra(FIELD3)
    bim = Bimodule.regular(a)
    for m in [LeftModule.regular(a)] + [random_module(
            a, np.random.default_rng(seed)) for seed in range(3)]:
        m1, m2 = _copy(m), _copy(m)
        assert tensor_bimodule_left(bim, m1) is tensor_bimodule_left(bim, m2)
        assert hom_from_bimodule(bim, m1) is hom_from_bimodule(bim, m2)
    # a content-equal bimodule over another left (resp. right) algebra
    # object shares nothing: the space lives over that algebra
    b = a2_algebra(FIELD3)
    other = Bimodule(b, a, Bimodule.regular(b).left.acts, bim.right.acts)
    x = random_module(a, np.random.default_rng(7))
    ts, ts_other = tensor_bimodule_left(bim, x), tensor_bimodule_left(other, x)
    assert ts is not ts_other
    assert ts.space.over is a and ts_other.space.over is b
    assert ts.project == ts_other.project
    flipped = Bimodule(a, b, bim.left.acts, Bimodule.regular(b).right.acts)
    assert hom_from_bimodule(bim, x) is not hom_from_bimodule(flipped, x)
    assert hom_from_bimodule(flipped, x).space.over is b


def test_shared_index_empties_once_the_holders_go():
    import gc
    a = local_wild_algebra(FIELD2)
    bim = Bimodule.regular(a)
    mods = [random_module(a, np.random.default_rng(seed))
            for seed in range(4)]
    for m in mods:
        tensor_bimodule_left(bim, _copy(m))
        tensor_bimodule_left(bim, m)
        hom_from_bimodule(bim, m)
    assert len(a._cache["tensors"]) > 0 and len(a._cache["homs"]) > 0
    del mods, m
    gc.collect()
    assert len(a._cache["tensors"]) == 0 and len(a._cache["homs"]) == 0


def test_leg_mismatch_raises_before_the_lookup():
    a, b = a2_algebra(FIELD2), local_wild_algebra(FIELD2)
    x = LeftModule.regular(b)
    tensor_bimodule_left(Bimodule.regular(b), x)
    hom_from_bimodule(Bimodule.regular(b), x)
    with pytest.raises(AlgebraError, match="contracted algebras"):
        tensor_bimodule_left(Bimodule.regular(a), x)
    with pytest.raises(AlgebraError, match="legs do not match"):
        hom_from_bimodule(Bimodule.regular(a), x)
