import numpy as np
import pytest

from extalg.linalg import (MAX_PRIME, FieldSpec, FpMatrix, LinalgError,
                           direct_sum, echelon_coords, hstack, in_row_span,
                           inverse, is_invertible, kernel_basis, kron,
                           quotient_maps, rank, row_basis, rref, solve, vstack)

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
            out = k.apply(v)
            expect = np.kron(a.arr[:, i], b.arr[:, j]) % 2
            assert (out == expect).all()


def test_stacks_and_direct_sum():
    a = FpMatrix([[1]], F2)
    b = FpMatrix([[0]], F2)
    assert hstack([a, b]).arr.shape == (1, 2)
    assert vstack([a, b]).arr.shape == (2, 1)
    ds = direct_sum(a, FpMatrix.identity(2, F2))
    assert ds.arr.shape == (3, 3) and rank(ds) == 3


def test_row_basis_and_span():
    m = FpMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]], F5)
    rb = row_basis(m)
    assert rb.rows == 2
    assert in_row_span(rb, [1, 2, 0])
    assert not in_row_span(rb, [0, 1, 0])


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
        outside = np.zeros(6, dtype=np.int64)
        outside[[c for c in range(6) if not in_row_span(
            basis, np.eye(6, dtype=np.int64)[c])][0]] = 1
        assert echelon_coords(basis, np.stack([vecs[0, 0], outside])) is None
    empty = FpMatrix.zeros(0, 0, F2)
    assert echelon_coords(empty, np.zeros((5, 0))).shape == (5, 0)
    assert echelon_coords(FpMatrix.zeros(0, 2, F2), [[0, 1]]) is None
