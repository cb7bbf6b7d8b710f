"""Exact combinatorial groundwork: partitions, Bernoulli and Catalan numbers.

All rational arithmetic in this package uses fractions.Fraction, which is
exact, arbitrary precision, and always normalised (lowest terms, positive
denominator).  ``Rat`` is an alias so the intent is visible in signatures.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

Rat = Fraction


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.

    Partitions index Chern numbers, Landweber-Novikov operations, and the
    monomials of the theta-class ring: the partition (2, 1, 1) doubles as
    the monomial t2*t1^2.  Input parts are sorted on construction, so
    ``Partition([1, 2]) == Partition([2, 1])``; the empty partition is the
    unit monomial.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        p = tuple(sorted(parts, reverse=True))
        for x in p:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValueError(f"partition parts must be positive integers, got {x!r}")
        return tuple.__new__(cls, p)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def __str__(self) -> str:
        return ",".join(map(str, self))

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"


EMPTY = Partition()


def parse_partition(text: str) -> Partition:
    """Inverse of str(Partition): "2,1" -> (2,1), "" -> empty partition."""
    text = text.strip()
    if not text:
        return EMPTY
    return Partition(int(x) for x in text.split(","))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order.

    For n = 4: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  This is descending
    lexicographic order on the part tuples; table output and golden files
    rely on it being stable.
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(m, maxpart):
        if m == 0:
            yield ()
            return
        for first in range(min(m, maxpart), 0, -1):
            for rest in gen(m - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n))


def partition_factorial(lam) -> int:
    """The shifted factorial product (i_1+1)! * ... * (i_k+1)!.

    These products are the universal denominators of the theta basis; the
    empty partition gives 1.
    """
    out = 1
    for part in lam:
        out *= factorial(part + 1)
    return out


@lru_cache(maxsize=None)
def splittings(lam: Partition) -> tuple[tuple[Partition, Partition], ...]:
    """All ordered pairs (mu, nu) with multiset union mu + nu = lam.

    Each distinct pair occurs exactly once, e.g. (1,1) splits as
    (0)+(1,1), (1)+(1), (1,1)+(0).  This is the comultiplication behind
    the Cartan rule for the Landweber-Novikov operations.
    """
    lam = Partition(lam)
    values = sorted(set(lam), reverse=True)
    mults = [lam.count(v) for v in values]
    out = []
    for choice in itertools.product(*(range(m + 1) for m in mults)):
        left, right = [], []
        for v, m, j in zip(values, mults, choice):
            left.extend([v] * j)
            right.extend([v] * (m - j))
        out.append((Partition(left), Partition(right)))
    return tuple(out)


_bernoulli_cache: tuple[Fraction, ...] = ()


def bernoulli(n: int) -> Rat:
    """Bernoulli number B_n in the convention B_1 = -1/2.

    Computed by the Akiyama-Tanigawa triangle in exact rationals.  The
    triangle natively yields B_1 = +1/2; only that index differs between
    the two classical conventions (odd B_n vanish for n > 1), so the sign
    is flipped there.  The memo is an immutable tuple swapped in atomically,
    so concurrent readers never observe a partial rebuild.
    """
    global _bernoulli_cache
    if n < 0:
        raise ValueError("n must be >= 0")
    cache = _bernoulli_cache
    if n >= len(cache):
        top = max(n, 2 * len(cache), 16)
        row: list[Fraction] = [Fraction(0)] * (top + 1)
        fresh: list[Fraction] = []
        for m in range(top + 1):
            row[m] = Fraction(1, m + 1)
            for j in range(m, 0, -1):
                row[j - 1] = j * (row[j - 1] - row[j])
            fresh.append(row[0])
        fresh[1] = Fraction(-1, 2)
        cache = _bernoulli_cache = tuple(fresh)
    return cache[n]


def catalan(n: int) -> int:
    """Catalan number C_n = binom(2n, n) / (n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)
