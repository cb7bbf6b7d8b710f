"""Exact combinatorial groundwork: partitions, Bernoulli and Catalan numbers.

All rational arithmetic in this package uses fractions.Fraction, which is
exact, arbitrary precision, and always normalised (lowest terms, positive
denominator).  ``Rat`` is an alias so the intent is visible in signatures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

Rat = Fraction


class TruncationError(ValueError):
    """Requested coefficient index exceeds the truncation order."""


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
    if not text.strip():
        return EMPTY
    parts = [x.strip() for x in text.split(",")]
    if not all(x.isascii() and x.isdigit() for x in parts):
        raise ValueError(f"partition parts must be ASCII digits, got {text!r}")
    return Partition(map(int, parts))


def _walk(n: int, most: int, visit) -> None:
    """Call visit(pairs) for each partition of n with at most ``most`` parts, in
    reverse-lexicographic order; pairs is one list of (part, multiplicity), parts
    decreasing, changed in place between calls.  Each step lowers the last part
    above 1 by one and refills the rest greedily; when the refill needs more than
    ``most`` parts, the part before is lowered instead (Knuth, TAOCP 4A, 7.2.1.4)."""
    pairs = [(n, 1)] if n and most > 0 else []
    length = len(pairs)
    if not n:
        visit(pairs)
    while pairs:
        visit(pairs)
        rest = pairs.pop()[1] if pairs[-1][0] == 1 else 0  # the ones are refilled
        length -= rest
        while pairs:
            part, m = pairs.pop()
            if m > 1:
                pairs.append((part, m - 1))
            rest += part
            length -= 1
            q, r = divmod(rest, part - 1)
            if length + q + (r > 0) <= most:
                pairs.append((part - 1, q))
                if r:
                    pairs.append((r, 1))
                length += q + (r > 0)
                break


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, read off _walk unchecked.

    For n = 4: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  This is descending
    lexicographic order on the part tuples; table output and golden files
    rely on it being stable.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []

    def visit(pairs):
        out.append(tuple.__new__(Partition, [part for part, m in pairs for _ in range(m)]))

    _walk(n, n, visit)
    return tuple(out)


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
def bernoulli(n: int) -> Rat:
    """Bernoulli number B_n in the convention B_1 = -1/2.

    Computed from the classical recurrence sum_{k=0..n} C(n+1, k) B_k = 0
    (n >= 1), which gives B_1 = -1/2 directly; odd B_n vanish for n > 1
    and are returned without summing.  The sum asks for B_0..B_{n-1} in
    ascending order, so each is cached before the next needs it and the
    recursion is never more than two calls deep.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2:
        return Fraction(0)
    return -sum(comb(n + 1, k) * bernoulli(k) for k in range(n)) / (n + 1)


def catalan(n: int) -> int:
    """Catalan number C_n = binom(2n, n) / (n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)
