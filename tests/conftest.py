"""Shared fixtures: the small test algebras and extensions, plus seeded
random generators for modules, pairs, copairs and tuples."""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from extalg import algebra, structure
from extalg.algebra import (AlgebraError, Bimodule, LeftModule,
                            block_sum_module, field_algebra, hom_space,
                            monomial_quiver_algebra, opposite_algebra,
                            product_algebra, quotient_module,
                            tensor_bimodule_left)
from extalg.linalg import FieldSpec, FpMatrix, row_basis
from extalg.morita import MoritaRing, theta_inverse, upsilon_inverse
from extalg.structure import spin
from extalg.trivext import (PairModule, TrivextError, module_to_copair,
                            module_to_pair, opposite_extension,
                            trivial_extension)
from reference import chop, element, submodule, zero_bimodule

FIELD2 = FieldSpec(2)
FIELD3 = FieldSpec(3)


def square_zero_extension(field):
    """D = k |x k, the dual numbers k[y]/(y^2) as an extension."""
    k = field_algebra(field)
    return trivial_extension(k, Bimodule.regular(k))


def triangular_extension(field):
    """(k x k) |x M with (a,b).m = b m and m.(a,b) = m a; the total algebra
    is the lower-triangular 2x2 matrix ring."""
    k = field_algebra(field)
    prod = product_algebra(k, k)
    zero = FpMatrix.zeros(1, 1, field)
    one = FpMatrix.identity(1, field)
    bim = Bimodule(prod, prod, [zero, one], [one, zero])
    return trivial_extension(prod, bim)


def a2_algebra(field):
    """Path algebra of the 2-vertex 1-arrow quiver (dim 3, hereditary)."""
    return monomial_quiver_algebra(2, [(0, 1)], [], field)


def local_wild_algebra(field):
    """k<x,y>/(x,y)^2: 3-dimensional, radical square zero, two loops; its
    regular module has unbounded self-injective dimension."""
    return monomial_quiver_algebra(1, [(0, 0), (0, 0)],
                                   [[0, 0], [0, 1], [1, 0], [1, 1]], field)


def double_extension(field):
    """D |x D: 4-dimensional self-injective extension with non-free
    Gorenstein projectives."""
    d = square_zero_extension(field)
    return trivial_extension(d.total, Bimodule.regular(d.total))


def trivial_extension_algebra(a):
    """T(A) = A |x D(A), with D(A) = Hom_k(A, k) in the dual basis: b_i
    acts on it from the left by the transpose of right multiplication by
    b_i, and from the right by the transpose of left multiplication.  The
    bimodule is built checked, so its law tests the transposes.  T(A) is
    symmetric, so self-injective."""
    right_mult = LeftModule.regular(opposite_algebra(a)).acts
    left_mult = LeftModule.regular(a).acts
    return trivial_extension(a, Bimodule(
        a, a, [FpMatrix(r.T, a.field) for r in right_mult],
        [FpMatrix(m.T, a.field) for m in left_mult]))


def nakayama_ring(field):
    """Morita ring of (k, k, k, k): the 4-dim self-injective Nakayama
    algebra."""
    k = field_algebra(field)
    return MoritaRing(k, k, Bimodule.regular(k), Bimodule.regular(k))


def a2_morita_ring(field):
    """Morita ring of (k, k, k, 0): total algebra is 3-dimensional,
    isomorphic to the triangular matrix ring."""
    k = field_algebra(field)
    return MoritaRing(k, k, Bimodule.regular(k), zero_bimodule(k))


def product_morita_ring(field):
    """Morita ring of (k, k, 0, 0): degenerates to k x k."""
    k = field_algebra(field)
    return MoritaRing(k, k, zero_bimodule(k), zero_bimodule(k))


# ---------------------------------------------------------------------------
# seeded random generators


def random_module(a, rng, max_dim=4, tries=30):
    """A random nonzero module of dimension <= max_dim: a random spun
    submodule or quotient of the free module of rank 2.  A right module
    over A is one over opposite_algebra(A)."""
    reg = LeftModule.regular(a)
    free = block_sum_module([reg, reg])
    for _ in range(tries):
        rows = []
        for _ in range(int(rng.integers(1, 4))):
            v = rng.integers(0, a.field.p, size=free.dim)
            if v.any():
                rows.append(spin(free, v).arr)
        if rows:
            basis = row_basis(FpMatrix(np.vstack(rows), a.field))
        else:
            basis = FpMatrix.zeros(0, free.dim, a.field)
        if rng.integers(0, 2) and basis.rows:
            mod, _ = submodule(free, basis)
        else:
            mod, _, _ = quotient_module(free, basis.transpose())[:3]
        if 1 <= mod.dim <= max_dim:
            return mod
    return chop(reg).factors[0]


def random_pair(t, rng, max_dim=4):
    return module_to_pair(random_module(t.total, rng, max_dim), t)


def random_copair(t, rng, max_dim=4):
    return module_to_copair(random_module(t.total, rng, max_dim), t)


def random_right_pair(t, rng, max_dim=4):
    """A right pair over t: a pair over the opposite extension."""
    return module_to_pair(
        random_module(opposite_algebra(t.total), rng, max_dim),
        opposite_extension(t))


def same_action(m, n) -> bool:
    """m and n are the same module: equal dimension and action matrices."""
    return m.dim == n.dim and all(a == b for a, b in zip(m.action, n.action))


def random_tuple(ring, rng, max_dim=4):
    return theta_inverse(random_pair(ring.ext, rng, max_dim), ring)


def random_right_tuple(ring, rng, max_dim=4):
    return upsilon_inverse(random_right_pair(ring.ext, rng, max_dim), ring)


def small_quiver_algebra(n, arrows, relations, field, paths=30):
    """The monomial quiver algebra, or None when it has more than `paths`
    paths: the library's dimension bound, lowered for the call."""
    with mock.patch.object(algebra, "_QUIVER_MAX_DIM", paths):
        try:
            return monomial_quiver_algebra(n, arrows, relations, field)
        except AlgebraError:
            return None


@st.composite
def monomial_quivers(draw):
    """(vertices, arrows, relations): every path of length `length` is zero,
    and so are some of the paths of length 2."""
    n = draw(st.integers(1, 5))
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)),
                           min_size=1, max_size=6))
    paths = [(i,) for i in range(len(arrows))]
    length = draw(st.integers(2, 4))
    for _ in range(length - 1):
        paths = [q + (i,) for q in paths for i, (s, _) in enumerate(arrows)
                 if arrows[q[-1]][1] == s]
    twos = [(i, j) for i, (_, t) in enumerate(arrows)
            for j, (s, _) in enumerate(arrows) if t == s]
    zero = draw(st.lists(st.sampled_from(twos), unique=True)) if twos else []
    return n, arrows, paths + zero


# ---------------------------------------------------------------------------
# spies


# no test covers a module of dim above 120; a syzygy of a drawn quiver
# can reach 1254, whose kernel elimination fills the memory of a host
COVER_DIM_CAP = 160


def _count_cover_builds(monkeypatch, limit=None, max_dim=COVER_DIM_CAP):
    """The dimensions of the modules whose cover is computed from now on;
    a build past `limit`, or of a module of dim above `max_dim`, raises,
    so a walk that does not stop fails fast instead of covering ever
    larger syzygies."""
    dims, build = [], structure._cover_parts

    def counted(m):
        dims.append(m.dim)
        if limit is not None and len(dims) > limit:
            raise AssertionError(f"more than {limit} cover builds: {dims}")
        if m.dim > max_dim:
            raise AssertionError(f"a cover of dim {m.dim} > {max_dim}")
        return build(m)
    monkeypatch.setattr(structure, "_cover_parts", counted)
    return dims


# ---------------------------------------------------------------------------
# exhaustive enumeration helpers


def two_block_module(prod_alg, d1, d2):
    """The (d1, d2)-dimensional module over a product of two copies of k:
    the two unit idempotents act as the complementary block projections."""
    on_first = np.arange(d1 + d2) < d1
    return LeftModule(prod_alg, [FpMatrix(np.diag(on), prod_alg.field)
                                 for on in (on_first, ~on_first)])


def enumerate_pairs(t, max_total):
    """All pair modules over an extension of k x k whose underlying space
    has dimension <= max_total, one per structure map."""
    p = t.field.p
    out = []
    for d1 in range(max_total + 1):
        for d2 in range(max_total + 1 - d1):
            x = two_block_module(t.base, d1, d2)
            ts = tensor_bimodule_left(t.bimodule, x)
            hs = hom_space(ts.space, x)
            for coords in itertools.product(range(p), repeat=hs.dim):
                try:
                    out.append(PairModule(t, x, element(hs, coords).matrix))
                except TrivextError:
                    continue
    return out


def dual_numbers_modules(max_dim, field):
    """All modules over k[y]/(y^2) of dimension <= max_dim: one square-zero
    action matrix each."""
    p = field.p
    total = square_zero_extension(field).total
    out = []
    for n in range(1, max_dim + 1):
        for entries in itertools.product(range(p), repeat=n * n):
            nil = FpMatrix(np.reshape(entries, (n, n)), field)
            if (nil @ nil).is_zero():
                out.append(LeftModule(total, [FpMatrix.identity(n, field),
                                              nil]))
    return out


# ---------------------------------------------------------------------------
# acceptance criterion reporting

CRITERION_RESULTS = {}


def criterion(n):
    """Mark a test as acceptance criterion n; its pass/fail status is
    echoed once in the terminal summary."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            CRITERION_RESULTS[n] = "FAIL"
            result = fn(*args, **kwargs)
            CRITERION_RESULTS[n] = "PASS"
            return result
        return wrapper
    return deco


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_RESULTS:
        terminalreporter.section("acceptance criteria")
        for n in sorted(CRITERION_RESULTS):
            terminalreporter.write_line(
                "[criterion %d] %s" % (n, CRITERION_RESULTS[n]))


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def d_ext():
    return square_zero_extension(FIELD2)


@pytest.fixture(scope="session")
def d_ext3():
    return square_zero_extension(FIELD3)


@pytest.fixture(scope="session")
def tri_ext():
    return triangular_extension(FIELD2)


@pytest.fixture(scope="session")
def tri_ext3():
    return triangular_extension(FIELD3)


@pytest.fixture(scope="session")
def a2():
    return a2_algebra(FIELD2)


@pytest.fixture(scope="session")
def wild3():
    return local_wild_algebra(FIELD2)


@pytest.fixture(scope="session")
def dd_ext():
    return double_extension(FIELD2)


@pytest.fixture(scope="session")
def nak_ring():
    return nakayama_ring(FIELD2)


@pytest.fixture(scope="session")
def a2_ring():
    return a2_morita_ring(FIELD2)


@pytest.fixture(scope="session")
def prod_ring():
    return product_morita_ring(FIELD2)
