import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import avgrank
from avgrank.arith import (
    divisors,
    euler_phi,
    factorize,
    gauss_sum,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    legendre,
    moebius,
    ramanujan_sum,
    residue_table,
    sieve_primes,
    squarefree_kernel,
)

PRIMES_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_sieve_matches_known_list():
    assert sieve_primes(100) == PRIMES_100
    assert all(type(p) is int for p in sieve_primes(100))
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert len(sieve_primes(10**6)) == 78498


def test_sieve_beyond_physical_memory_is_refused_before_allocating(monkeypatch):
    # 32 MiB: the sieve to 1e7 (a 10 MB mask and 664,579 primes, ~43 MB at
    # its peak) is refused with a message naming the limit; 1e5 still runs
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**13}.__getitem__)
    with pytest.raises(ValueError, match=r"^the prime sieve to 10000000 needs 0\.0\d+ GiB, more than the 0\.0312 GiB"):
        sieve_primes(10**7)
    assert len(sieve_primes(10**5)) == 9592


@pytest.mark.parametrize("lo", [2, 5])
def test_sieve_peak_memory_per_prime_is_within_the_checked_50_bytes(lo):
    # the memory check assumes the limit + 1 byte mask plus 50 B per prime;
    # compared per prime, since its bound on pi(limit) has ~16% slack that
    # would hide a copy of the prime array (56 B per prime)
    limit = 10**6
    sieve_primes(100)  # numpy's first-call set-up is not the sieve's
    tracemalloc.start()
    try:
        ps = sieve_primes(limit, lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - (limit + 1)) / len(ps) <= 50


def test_sieve_lower_end():
    assert sieve_primes(20, 5) == [5, 7, 11, 13, 17, 19]
    assert sieve_primes(100, 0) == sieve_primes(100, 2) == PRIMES_100
    assert sieve_primes(100, 97) == [97]
    assert sieve_primes(100, 98) == []
    assert sieve_primes(30, 7.5) == [11, 13, 17, 19, 23, 29]  # a float end, as lemma2_lhs passes P + 1
    assert sieve_primes(4, 5) == sieve_primes(1, 5) == []


def test_is_prime_agrees_with_sieve():
    pt = set(sieve_primes(2000))
    for n in range(2000):
        assert is_prime(n) == (n in pt)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # classic composite Mersenne


def test_legendre_euler_criterion():
    for p in [5, 7, 11, 13, 97]:
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(-2 * p, 2 * p):
            want = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == want


def test_residue_table_matches_legendre():
    for p in [5, 13, 101]:
        tab = residue_table(p)
        assert tab.shape == (p,)
        for a in range(p):
            assert int(tab[a]) == legendre(a, p)


def _kronecker_reference(D: int, n: int) -> int:
    """Independent Kronecker symbol via complete multiplicativity in n."""
    if n == 0:
        return 1 if abs(D) == 1 else 0
    out = 1
    if n < 0:
        out *= 1 if D > 0 else -1
        n = -n
    for p, e in factorize(n).items():
        if p == 2:
            if D % 2 == 0:
                s = 0
            elif D % 8 in (1, 7):
                s = 1
            else:
                s = -1
        else:
            s = legendre(D, p)
        out *= s**e
    return out


def test_kronecker_against_reference():
    for D in [1, 5, 8, -3, -4, -8, 12, 13, -20, 21]:
        assert is_fundamental_discriminant(D) or D == 1
        for n in range(-60, 61):
            assert kronecker(D, n) == _kronecker_reference(D, n), (D, n)


def test_kronecker_rejects_non_fundamental():
    with pytest.raises(ValueError):
        kronecker(3, 5)  # 3 = 3 mod 4 is not fundamental
    with pytest.raises(ValueError):
        kronecker(18, 5)


def test_fundamental_discriminants_small():
    fund = [D for D in range(-20, 21) if D and is_fundamental_discriminant(D)]
    assert fund == [-20, -19, -15, -11, -8, -7, -4, -3, 1, 5, 8, 12, 13, 17]


def test_gauss_sum_squares():
    # tau_p^2 = (-1/p) p
    for p in [5, 7, 11, 13, 17]:
        tau = gauss_sum(p)
        want = p if p % 4 == 1 else -p
        assert abs(tau * tau - want) < 1e-8
        # Gauss evaluated the sign: sqrt(p) or i sqrt(p)
        if p % 4 == 1:
            assert abs(tau - math.sqrt(p)) < 1e-8
        else:
            assert abs(tau - 1j * math.sqrt(p)) < 1e-8


def test_ramanujan_sum_known_values():
    # c_b(0) = phi(b); c_b(1) = mu(b)
    for b in range(1, 50):
        assert ramanujan_sum(0, b) == euler_phi(b)
        assert ramanujan_sum(1, b) == moebius(b)
    assert ramanujan_sum(2, 4) == -2
    assert ramanujan_sum(4, 8) == -4


def test_moebius_and_phi():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_squarefree_kernel_and_divisors():
    assert squarefree_kernel(1) == 1
    assert squarefree_kernel(360) == 30
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_factorize_roundtrip():
    for n in [1, 2, 97, 360, 2**10 * 3**4 * 37]:
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def _run_child(code: str, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(avgrank.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=timeout
    )


def test_factorize_stops_at_a_prime_cofactor():
    # below psi_12 a Miller-Rabin prime ends the division: trial division to
    # the square roots of these cofactors takes from tens of seconds to
    # minutes, so a child process that still divides runs into the timeout
    cases = {
        2**4 * 3**3 * 148149037038814817: {2: 4, 3: 3, 148149037038814817: 1},
        10007**2 * (2**61 - 1): {10007: 2, 2**61 - 1: 1},
    }
    code = f"from avgrank.arith import factorize\nfor n in {list(cases)!r}:\n    print(factorize(n))\n"
    out = _run_child(code, 10)
    assert out.stdout.splitlines() == [str(f) for f in cases.values()]


def test_factorize_splits_a_square_of_a_large_prime():
    # trial division would run to 2^31 - 1 here: a child process that still
    # divides runs into the timeout
    out = _run_child("from avgrank.arith import factorize\nprint(factorize((2**31 - 1)**2))\n", 20)
    assert out.stdout == str({2**31 - 1: 2}) + "\n"


def test_factorize_refuses_what_it_cannot_prove():
    # 2^89 - 1 is prime and above psi_12, so Miller-Rabin cannot prove it
    with pytest.raises(ValueError, match=f"cofactor {2**89 - 1} prime"):
        factorize(11 * (2**89 - 1))
    # two 47-bit primes: rho needs ~10^7 steps, past the budget
    with pytest.raises(ValueError, match=r"cannot split the cofactor \d+ within"):
        factorize((10**14 + 31) * (10**14 + 67))


def test_factorize_agrees_with_trial_division_below_1e12():
    # uniform n, and products of two factors below 10^6, which rho splits
    rng = random.Random(52)
    ns = [rng.randrange(1, 10**12) for _ in range(1000)]
    ns += [rng.randrange(2, 10**6) * rng.randrange(2, 10**6) for _ in range(1000)]
    ps = np.array(sieve_primes(10**6), dtype=np.int64)
    for n in ns:
        want, m = {}, n
        for p in ps[n % ps == 0].tolist():  # oracle: every prime below 10^6, then one prime left
            while m % p == 0:
                want[p] = want.get(p, 0) + 1
                m //= p
        if m > 1:
            want[m] = 1
        got = factorize(n)
        assert got == want and list(got) == sorted(got), n
