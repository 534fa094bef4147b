"""The README's "exact over GF(p) for p <= 65521", checked at every one of
the 6542 primes against the closed-form answers of the benchmark's oracle
families: A3, N(2,2), the local wild algebra and N(3,2), each through the
benchmark's per-algebra query (simples, PIMs, regime, pd and gp of every
simple) at bound 4.

Run from anywhere, with extalg importable (installed, or PYTHONPATH=src):

    python3 tests/prime_sweep.py

It prints the number of primes and of failures, and exits 1 on any
failure.  pytest does not collect it, as its name does not start with
test_; CI runs it in a step of its own.  It takes about 10 s on a 2-core
VM."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench.workloads import (WILD, algebra_query, check_algebra,
                                 linear, nakayama)


def main() -> int:
    primes = [p for p in range(2, 65522)
              if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    assert len(primes) == 6542 and primes[-1] == 65521, len(primes)
    errors = [f"{q.name} at p = {p}: {e}" for p in primes
              for q in (linear(3), nakayama(2, 2), WILD, nakayama(3, 2))
              for e in check_algebra(q, algebra_query(q, p, 4))]
    print(f"{len(primes)} primes, {len(errors)} failures")
    for line in errors[:10]:
        print(line)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
