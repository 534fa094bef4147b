import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extalg import cli
from extalg.algebra import Algebra, LeftModule
from extalg.linalg import (MAX_PRIME, FieldSpec, FpMatrix, LinalgError,
                           _rref_inplace, echelon_coords, hstack,
                           inverse, is_invertible, kernel_basis, kron,
                           matmul_mod, quotient_maps, rank, row_basis, rref,
                           solve, vstack)
from test_cli import README_COMMANDS
from test_resolution_fingerprint import PINNED, resolution_fingerprint

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def test_field_spec_rejects_bad_moduli():
    with pytest.raises(LinalgError):
        FieldSpec(1)
    with pytest.raises(LinalgError):
        FieldSpec(4)
    with pytest.raises(LinalgError):
        FieldSpec(65537)


def test_field_spec_accepts_exactly_the_primes():
    sieve = np.ones(MAX_PRIME + 1, dtype=bool)
    sieve[:2] = False
    for d in range(2, 256):
        if sieve[d]:
            sieve[d * d::d] = False
    accepted = []
    for p in range(2, MAX_PRIME + 1):
        try:
            FieldSpec(p)
        except LinalgError:
            continue
        accepted.append(p)
    assert accepted == np.flatnonzero(sieve).tolist()
    assert len(accepted) == 6542


def test_rref_all_ones_gf2():
    m = FpMatrix([[1, 1], [1, 1]], F2)
    r = rref(m)
    assert r.rank == 1
    assert r.pivot_cols == [0]
    assert (r.reduced.arr == [[1, 1], [0, 0]]).all()


def test_rref_idempotent():
    rng = np.random.default_rng(0)
    for field in (F2, F3, F5):
        for _ in range(10):
            m = FpMatrix(rng.integers(0, field.p, size=(4, 6)), field)
            once = rref(m).reduced
            assert rref(once).reduced == once


def test_kernel_basis_example():
    m = FpMatrix([[1, 1]], F2)
    kb = kernel_basis(m)
    assert (kb.arr == [[1, 1]]).all()


def test_rank_nullity_random():
    rng = np.random.default_rng(1)
    for field in (F2, F3, F5):
        for _ in range(20):
            rows, cols = rng.integers(1, 6, size=2)
            m = FpMatrix(rng.integers(0, field.p, size=(rows, cols)), field)
            assert rank(m) + kernel_basis(m).rows == cols
            kb = kernel_basis(m)
            if kb.rows:
                assert (m @ kb.transpose()).is_zero()


def test_solve_consistent_and_inconsistent():
    a = FpMatrix([[1, 1], [0, 0]], F2)
    b_ok = FpMatrix([[1], [0]], F2)
    x = solve(a, b_ok)
    assert x is not None and a @ x == b_ok
    b_bad = FpMatrix([[0], [1]], F2)
    assert solve(a, b_bad) is None


def test_inverse_round_trip():
    m = FpMatrix([[1, 2], [1, 1]], F3)
    inv = inverse(m)
    assert inv is not None
    assert m @ inv == FpMatrix.identity(2, F3)
    assert inverse(FpMatrix([[1, 1], [1, 1]], F2)) is None
    assert not is_invertible(FpMatrix([[1, 1], [2, 2]], F3))


def test_kron_index_convention():
    # (a kron b) maps e_i ox e_j at row-major index i * b.rows + j
    a = FpMatrix([[0, 1], [1, 0]], F2)
    b = FpMatrix([[1, 0], [1, 1]], F2)
    k = kron(a, b)
    for i in range(2):
        for j in range(2):
            v = np.zeros(4, dtype=np.int64)
            v[i * 2 + j] = 1
            out = (k.arr @ v) % 2
            expect = np.kron(a.arr[:, i], b.arr[:, j]) % 2
            assert (out == expect).all()


def test_stacks_and_direct_sum():
    a = FpMatrix([[1]], F2)
    b = FpMatrix([[0]], F2)
    assert hstack([a, b]).arr.shape == (1, 2)
    assert vstack([a, b]).arr.shape == (2, 1)


def test_row_basis_and_span():
    m = FpMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]], F5)
    rb = row_basis(m)
    assert rb.rows == 2
    assert echelon_coords(rb, [1, 2, 0]) is not None
    assert echelon_coords(rb, [0, 1, 0]) is None


def test_quotient_maps_section():
    rng = np.random.default_rng(2)
    for field in (F2, F3):
        for _ in range(10):
            rels = FpMatrix(rng.integers(0, field.p, size=(5, 2)), field)
            qm = quotient_maps(rels)
            q = qm.project.rows
            assert q == 5 - rank(rels)
            assert qm.project @ qm.include == FpMatrix.identity(q, field)
            # relations die under the projection
            assert (qm.project @ rels).is_zero()


def test_zero_shapes_round_trip():
    z = FpMatrix.zeros(0, 3, F2)
    assert rank(z) == 0
    assert kernel_basis(z).rows == 3
    z2 = FpMatrix.zeros(3, 0, F2)
    assert kernel_basis(z2).rows == 0
    qm = quotient_maps(FpMatrix.zeros(0, 0, F2))
    assert qm.project.rows == 0


def test_kron_matches_numpy_kron_at_large_prime():
    field = FieldSpec(65521)
    rng = np.random.default_rng(65521)
    for _ in range(30):
        ra, ca, rb, cb = rng.integers(0, 6, size=4)
        a = rng.integers(0, field.p, size=(ra, ca))
        b = rng.integers(0, field.p, size=(rb, cb))
        got = kron(FpMatrix(a, field), FpMatrix(b, field)).arr
        want = np.kron(a, b) % field.p
        assert got.shape == want.shape
        assert (got == want).all()


def _loop_kernel_rows(m):
    """The free-by-pivot double loop the vectorised null-space rows
    replaced."""
    r = rref(m)
    free = [c for c in range(m.cols) if c not in r.pivot_cols]
    rows = np.zeros((len(free), m.cols), dtype=np.int64)
    for k, f in enumerate(free):
        rows[k, f] = 1
        for i, pc in enumerate(r.pivot_cols):
            rows[k, pc] = (-r.reduced.arr[i, f]) % m.field.p
    return rows


def test_kernel_and_quotient_maps_match_loops():
    rng = np.random.default_rng(17)
    for field in (F2, F3, FieldSpec(65521)):
        for _ in range(40):
            r, c = rng.integers(0, 7, size=2)
            m = FpMatrix(rng.integers(0, field.p, size=(r, c)) *
                         rng.integers(0, 2, size=(r, c)), field)
            want = rref(FpMatrix(_loop_kernel_rows(m), field)).reduced
            got = kernel_basis(m)
            assert got.arr.tobytes() == want.arr[:got.rows].tobytes()
            qm = quotient_maps(m)
            proj = _loop_kernel_rows(m.transpose())
            assert qm.project.arr.tobytes() == proj.tobytes()
            free = [c for c in range(m.rows)
                    if c not in rref(m.transpose()).pivot_cols]
            incl = np.zeros((m.rows, len(free)), dtype=np.int64)
            for k, f in enumerate(free):
                incl[f, k] = 1
            assert qm.include.arr.tobytes() == incl.tobytes()


@pytest.mark.parametrize("entries, shape, eliminations", [
    # pivot right of both free columns: null rows (1,0,0), (0,1,0), in RREF
    ([[0, 0, 1]], (1, 3), 1),
    # the row of free column 2 is (0,4,1): its first nonzero lies left of 2
    ([[0, 1, 1]], (1, 3), 2),
    ([], (0, 3), 1),
    ([], (3, 0), 1),
    ([], (0, 0), 1),
])
def test_kernel_basis_is_the_rref_of_the_null_rows(monkeypatch, entries,
                                                   shape, eliminations):
    import extalg.linalg as linalg
    m = FpMatrix(np.array(entries, dtype=np.int64).reshape(shape), F5)
    want = rref(FpMatrix(_loop_kernel_rows(m), F5)).reduced.arr
    assert want.shape == (shape[1] - rank(m), shape[1])
    calls = []
    elim = linalg._rref_inplace
    monkeypatch.setattr(linalg, "_rref_inplace",
                        lambda a, p: calls.append(a.shape) or elim(a, p))
    got = kernel_basis(m)
    assert np.array_equal(got.arr, want)
    # rows already in RREF are not eliminated a second time
    assert len(calls) == eliminations


def test_echelon_coords_reads_pivots_and_checks_membership():
    rng = np.random.default_rng(3)
    for field in (F2, F5, FieldSpec(65521)):
        basis = row_basis(FpMatrix(rng.integers(0, field.p, size=(3, 6)),
                                   field))
        coords = rng.integers(0, field.p, size=(2, 4, basis.rows))
        vecs = (coords @ basis.arr) % field.p
        assert (echelon_coords(basis, vecs) == coords).all()
        # a unit vector at a non-pivot column is outside the row space
        outside = np.zeros(6, dtype=np.int64)
        outside[[c for c in range(6)
                 if c not in rref(basis).pivot_cols][0]] = 1
        assert echelon_coords(basis, np.stack([vecs[0, 0], outside])) is None
    empty = FpMatrix.zeros(0, 0, F2)
    assert echelon_coords(empty, np.zeros((5, 0))).shape == (5, 0)
    assert echelon_coords(FpMatrix.zeros(0, 2, F2), [[0, 1]]) is None


def test_matmul_mod_is_exact_at_the_largest_prime():
    p = 65521
    rng = np.random.default_rng(11)
    # the small products run in int64, the others in float64
    for shape_a, shape_b in (((7, 50), (50, 9)), ((40, 300), (300, 30)),
                             ((3, 20, 200), (200, 5)), ((0, 8), (8, 3)),
                             ((2, 6, 30), (2, 30, 1)),
                             ((16, 300), (3, 300, 16))):
        a = rng.integers(0, p, size=shape_a)
        b = rng.integers(0, p, size=shape_b)
        want = (a.astype(object) @ b.astype(object)) % p
        got = matmul_mod(a, b, p)
        assert got.dtype == np.int64 and (got == want).all()


def test_matmul_mod_falls_back_to_int64_past_the_float_bound():
    # k * (p-1)^2 >= 2^53 from k = bound on: the product of 1 x k by k x 1
    # runs in float64 below the bound and in int64 from it; both are exact
    p = 65521
    bound = -(-2 ** 53 // (p - 1) ** 2)
    rng = np.random.default_rng(12)
    for k in (bound - 1, bound):
        a = np.full((1, k), p - 1, dtype=np.int64)
        b = rng.integers(0, p, size=(k, 1))
        assert matmul_mod(a, b, p)[0, 0] == (p - 1) * int(b.sum()) % p


# ---------------------------------------------------------------------------
# the GF(p) kernels against plain references

KERNEL_PRIMES = (2, 3, 101, 65521)


def _reference_rref(a, p):
    """Textbook Gauss-Jordan elimination on Python ints, column by column:
    (reduced rows, pivot columns)."""
    rows, cols = a.shape
    m = [[int(x) for x in row] for row in a]
    pivots, r = [], 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return np.array(m, dtype=np.int64).reshape(rows, cols), pivots


def _rref_cases(p):
    """Matrices with zero columns, unit and non-unit pivots, all-zero and
    zero-size shapes; drawn from a fixed seed."""
    rng = np.random.default_rng(p)
    cases = [np.zeros(s, dtype=np.int64)
             for s in ((0, 0), (0, 5), (5, 0), (3, 4), (1, 1))]
    cases.append(np.eye(4, 6, dtype=np.int64))
    for _ in range(30):
        rows, cols = rng.integers(1, 9, size=2)
        a = rng.integers(0, p, size=(rows, cols))
        a[:, rng.random(cols) < 0.3] = 0
        if rng.integers(0, 2):
            # a sparse matrix: most pivots come from rows that start late
            a *= rng.random((rows, cols)) < 0.3
        cases.append(a)
    # every pivot a unit, every pivot not a unit (p > 2), and rank deficit
    cases.append(np.triu(np.ones((5, 7), dtype=np.int64)))
    cases.append(np.triu(np.full((5, 7), p - 1, dtype=np.int64)))
    low = rng.integers(0, p, size=(6, 2)) @ rng.integers(0, p, size=(2, 8))
    cases.append(low % p)
    return cases


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_rref_inplace_matches_a_plain_elimination(p):
    for a in _rref_cases(p):
        want, want_pivots = _reference_rref(a, p)
        got = a.copy()
        pivots = _rref_inplace(got, p)
        assert pivots == want_pivots
        assert got.dtype == np.int64 and np.array_equal(got, want)


@st.composite
def _rref_inputs(draw):
    """(p, a): a matrix over GF(p) of any shape down to 0 x n and n x 0,
    with entries 0, 1 and p - 1 drawn often, some rows and columns zeroed
    and some rows repeated."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 10))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    a = np.array(draw(st.lists(entry, min_size=rows * cols,
                               max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    if rows:
        row = st.integers(0, rows - 1)
        a[draw(st.lists(row, max_size=2))] = 0
        for i, j in draw(st.lists(st.tuples(row, row), max_size=3)):
            a[i] = a[j]
    if cols:
        a[:, draw(st.lists(st.integers(0, cols - 1), max_size=3))] = 0
    return p, a


def _wide_case(p):
    """A 64 x 192 matrix of rank at most 48, with zero columns, 8 repeated
    rows and a row of entries p - 1 on every third column."""
    rng = np.random.default_rng(192)
    a = rng.integers(0, p, size=(64, 48)) @ rng.integers(0, p, size=(48, 192))
    a %= p
    a[:, rng.random(192) < 0.2] = 0
    a[40:48] = a[:8]
    a[5, ::3] = p - 1
    return p, a


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_rref_inputs())
@example(case=_wide_case(65521))
@example(case=(3, np.zeros((0, 4), dtype=np.int64)))
@example(case=(101, np.zeros((4, 0), dtype=np.int64)))
def test_rref_inplace_matches_the_reference_on_drawn_matrices(case):
    p, a = case
    want, want_pivots = _reference_rref(a, p)
    got = a.copy()
    assert _rref_inplace(got, p) == want_pivots
    assert got.dtype == np.int64 and np.array_equal(got, want)


class _CastSpy(np.ndarray):
    """An int64 array that records the dtypes it is cast to."""
    casts: list = []

    def astype(self, dtype, *args, **kwargs):
        _CastSpy.casts.append(np.dtype(dtype))
        return super().astype(dtype, *args, **kwargs)


def _record_casts(monkeypatch, module):
    """The dtypes that module's matmul_mod casts its left operand to from
    now on: float64 marks the BLAS path."""
    real = module.matmul_mod
    monkeypatch.setattr(module, "matmul_mod", lambda x, y, p: np.asarray(
        real(np.asarray(x).view(_CastSpy), y, p)))
    _CastSpy.casts = []
    return _CastSpy.casts


@pytest.mark.parametrize("p", (2, 65521))
@pytest.mark.parametrize("k, in_float", [(15, False), (16, True)])
def test_matmul_mod_is_exact_on_both_sides_of_the_depth_rule(k, in_float, p):
    rng = np.random.default_rng(k)
    a = rng.integers(0, p, size=(4, 200, k))
    b = rng.integers(0, p, size=(k, 30))
    # large enough for BLAS: only the inner dimension decides the route
    assert a.size * b.shape[-1] >= 2**14
    _CastSpy.casts = []
    got = np.asarray(matmul_mod(a.view(_CastSpy), b.view(_CastSpy), p))
    assert (np.dtype(float) in _CastSpy.casts) == in_float
    want = (a.astype(object) @ b.astype(object)) % p
    assert got.dtype == np.int64 and (got == want).all()


def test_reduced_wraps_only_reduced_arrays(monkeypatch, tmp_path, capsys):
    # every array the library wraps without `% p` is a reduced 2-d int64
    # array, every action stack a module takes as it is a reduced 3-d
    # int64 array of shape (dim A, d, d), and every table an algebra takes
    # as it is a reduced C-contiguous (n, n, n) int64 array with an (n,)
    # unit: checked over the pinned resolutions (the quiver ladder and
    # more, at four primes) and one pass of the README commands
    wrap, init, table_init = FpMatrix.reduced, LeftModule.__init__, \
        Algebra.__init__
    seen, stacks, tables = [], [], []

    def checked(cls, arr, field):
        assert isinstance(arr, np.ndarray) and arr.ndim == 2
        assert arr.dtype == np.int64
        assert arr.size == 0 or (arr.min() >= 0 and arr.max() < field.p)
        seen.append(arr.shape)
        return wrap(arr, field)

    def checked_init(self, over, action, validate=True):
        if isinstance(action, np.ndarray):
            assert action.ndim == 3 and action.dtype == np.int64
            assert action.size == 0 or (action.min() >= 0
                                        and action.max() < over.field.p)
            assert action.shape == (over.dim,) + action.shape[1:2] * 2
            stacks.append(action.shape)
        init(self, over, action, validate)

    def checked_table(self, field, sc, unit, validate=True):
        if not validate:
            n = len(unit)
            assert sc.dtype == unit.dtype == np.int64
            assert sc.flags.c_contiguous
            assert sc.shape == (n, n, n) and unit.shape == (n,)
            for arr in (sc, unit):
                assert arr.min() >= 0 and arr.max() < field.p
            tables.append(n)
        table_init(self, field, sc, unit, validate)

    monkeypatch.setattr(FpMatrix, "reduced", classmethod(checked))
    monkeypatch.setattr(LeftModule, "__init__", checked_init)
    monkeypatch.setattr(Algebra, "__init__", checked_table)
    assert resolution_fingerprint() == PINNED
    ws = str(tmp_path / "ws.json")
    assert cli.main(["examples", "emit", "--out", ws]) == 0
    for command in README_COMMANDS:
        argv = list(command[:2]) + [ws] + list(command[2:])
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(seen) > 1000 and len(stacks) > 1000 and len(tables) > 50
