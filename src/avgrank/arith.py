"""Number-theoretic primitives.

Primes, quadratic symbols (Legendre / Kronecker), Gauss sums, Ramanujan
sums and the usual multiplicative functions.  Everything here is exact
integer arithmetic except the Gauss sum, which is a direct complex
summation.

Legendre values for a fixed prime are served from a cached residue
table (see residue_table); this is the central performance lever for
batch character-sum evaluation.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

__all__ = [
    "sieve_primes",
    "is_prime",
    "legendre",
    "residue_table",
    "kronecker",
    "gauss_sum",
    "ramanujan_sum",
    "squarefree_kernel",
    "is_fundamental_discriminant",
    "moebius",
    "euler_phi",
    "factorize",
]


def _check_memory(need: int, subject: str) -> None:
    """Raise ValueError when need bytes exceed the machine's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{subject} needs {need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def sieve_primes(limit: int, lo: float = 2) -> list[int]:
    """The primes lo <= p <= limit as an ascending list, by the sieve of Eratosthenes; limit < 2
    gives [].  A limit is rejected first when its mask and 50 bytes (measured peak) per prime,
    pi < 1.25506 limit / ln limit, exceed memory."""
    limit = int(limit)
    if limit < 2:
        return []
    _check_memory(limit + 1 + int(50 * 1.25506 * limit / math.log(limit)), f"the prime sieve to {limit}")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    ps = np.flatnonzero(mask)
    return ps[ps.searchsorted(lo) :].tolist()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12: below it, Miller-Rabin on the twelve _MR_BASES is deterministic
# (Sorenson and Webster, Math. Comp. 86 (2017); OEIS A014233)
_PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases _MR_BASES, deterministic for n < _PSI_12."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


@lru_cache(maxsize=512)
def residue_table(p: int) -> np.ndarray:
    """Lookup table t with t[a] = (a/p), built once per prime from the squares."""
    tab = np.full(p, -1, dtype=np.int8)
    tab[0] = 0
    x = np.arange(1, p, dtype=np.int64)
    tab[x * x % p] = 1
    tab.setflags(write=False)
    return tab


def is_fundamental_discriminant(D: int) -> bool:
    """D == 1 mod 4 squarefree, or D = 4m with m == 2, 3 mod 4 squarefree."""
    if D == 0:
        return False
    if D % 4 == 1:
        return _is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(abs(n)).values())


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol chi_D(n) for a fundamental discriminant D (or D = 1).

    Computed by the reciprocity algorithm, no factorization of n needed.
    """
    if D != 1 and not is_fundamental_discriminant(D):
        raise ValueError(f"D={D} is not a fundamental discriminant (or 1)")
    return _kronecker_any(D, n)


def _kronecker_any(a: int, b: int) -> int:
    # Cohen, "A Course in Computational Algebraic Number Theory", Alg. 1.4.10.
    if b == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    v = 0
    while b % 2 == 0:
        b //= 2
        v += 1
    k = 1 if v % 2 == 0 or a % 8 in (1, 7) else -1
    if b < 0:
        b = -b
        if a < 0:
            k = -k
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and b % 8 in (3, 5):
            k = -k
        # reciprocity step (a odd at this point)
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a, b = b % abs(a), abs(a)
    return k if b == 1 else 0


@lru_cache(maxsize=512)
def gauss_sum(p: int) -> complex:
    """tau_p = sum_t (t/p) e^(2 pi i t / p), by direct summation."""
    tab = residue_table(p).astype(np.float64)
    phases = np.exp(2j * np.pi * np.arange(p) / p)
    return complex(np.sum(tab * phases))


# factorize divides by the wheel 5, 7, 11, 13, ... up to _TRIAL_BOUND; each
# Pollard-Brent split takes at most _RHO_STEPS steps of the map, with one gcd
# per _RHO_BATCH products (a split that fails takes 1.0 s on a 94-bit and
# 1.5 s on a 178-bit cofactor, Python 3.11 on a 2-vCPU VM)
_TRIAL_BOUND = 1000
_RHO_STEPS = 1 << 20
_RHO_BATCH = 128


def factorize(n: int) -> dict[int, int]:
    """Factorization of n >= 1 into {prime: exponent}, keys ascending.

    Trial division up to _TRIAL_BOUND, then Pollard-Brent rho on what is
    left.  A cofactor below d^2, d the first divisor not tried, is prime;
    any other is proved prime by Miller-Rabin below psi_12.  A cofactor
    at or above psi_12 that Miller-Rabin passes cannot be proved prime,
    and raises ValueError, as does one that rho does not split within
    _RHO_STEPS steps.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2 if d % 6 == 5 else 4  # 5, 7, 11, 13, ... wheel
    # every prime factor of n is now at least d
    if n < d * d:  # 1 or a prime; most n end here, without the sort below
        if n > 1:
            out[n] = 1
        return out
    todo = [n]
    while todo:
        m = todo.pop()
        if m < d * d or is_prime(m):
            if m >= _PSI_12:
                raise ValueError(f"factorize: cannot prove the cofactor {m} prime: it is at least psi_12")
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_divisor(m)
            todo += (f, m // f)
    return dict(sorted(out.items()))


def _rho_divisor(n: int) -> int:
    """A divisor 1 < f < n of the composite n, by Brent's variant of
    Pollard's rho (R. P. Brent, BIT 20 (1980)): the map x -> x^2 + c from
    y = 2 for c = 1, 2, ...; a round of 2r steps that would pass
    _RHO_STEPS steps in all raises ValueError instead."""
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > _RHO_STEPS:
                raise ValueError(f"factorize: cannot split the cofactor {n} within {_RHO_STEPS} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            steps += 2 * r
            r *= 2
        if g == n:  # a batch passed the factor: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius requires n >= 1")
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def squarefree_kernel(n: int) -> int:
    """Radical: product of the distinct primes dividing n."""
    if n < 1:
        raise ValueError("squarefree_kernel requires n >= 1")
    out = 1
    for p in factorize(n):
        out *= p
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def ramanujan_sum(a: int, b: int) -> int:
    """c_b(a) = sum_{d | gcd(a,b)} d * mu(b/d).

    Equals the exponential sum over coprime residues j mod b of
    e_b(-a * jbar); see oracles.ramanujan_exponential_oracle.
    """
    if b < 1:
        raise ValueError("ramanujan_sum requires b >= 1")
    g = math.gcd(a, b)
    return sum(d * moebius(b // d) for d in divisors(b) if g % d == 0)
