import numpy as np
import pytest

from extalg.linalg import (MAX_PRIME, FieldSpec, FpMatrix, LinalgError,
                           direct_sum, hstack, in_row_span, inverse, is_invertible,
                           kernel_basis, kron, quotient_maps, rank, row_basis,
                           rref, solve, vstack)

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
