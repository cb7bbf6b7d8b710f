import random
from fractions import Fraction
from math import lcm

import pytest

from thetacob.core import (
    EMPTY,
    Partition,
    bernoulli,
    catalan,
    parse_partition,
    partition_factorial,
    partitions_of,
)


def partition_count_oracle(n):
    """Independent dynamic-programming partition counter."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for maxpart in range(n + 1):
        table[maxpart][0] = 1
    for maxpart in range(1, n + 1):
        for m in range(1, n + 1):
            table[maxpart][m] = table[maxpart - 1][m]
            if m >= maxpart:
                table[maxpart][m] += table[maxpart][m - maxpart]
    return table[n][n]


def test_partition_canonical_form():
    assert Partition([1, 3, 2]) == Partition((3, 2, 1))
    assert Partition().weight == 0 and Partition().length == 0
    p = Partition((3, 2, 1))
    assert p.weight == 6 and p.length == 3
    with pytest.raises(ValueError):
        Partition((0, 1))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_string_roundtrip():
    assert str(Partition((2, 1))) == "2,1"
    assert parse_partition("2,1") == Partition((2, 1))
    assert parse_partition("") == EMPTY
    assert parse_partition(" 2, 1 ") == Partition((2, 1))


def test_partitions_of_small():
    assert partitions_of(0) == (EMPTY,)
    assert [tuple(p) for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(10)) == 42


def test_partitions_reverse_lexicographic():
    for n in range(1, 31):
        parts = [tuple(p) for p in partitions_of(n)]
        assert parts == sorted(parts, reverse=True)
        for p in partitions_of(n):  # built without the validating constructor
            assert type(p) is Partition and sum(p) == n
            assert all(type(x) is int and x >= 1 for x in p)
            assert all(a >= b for a, b in zip(p, p[1:]))


def test_partition_count_against_oracle():
    for n in range(21):
        assert len(partitions_of(n)) == partition_count_oracle(n)
    assert len(partitions_of(45)) == 89134


def test_partition_factorial():
    assert partition_factorial(EMPTY) == 1
    assert partition_factorial(Partition((2, 1))) == 12
    assert partition_factorial(Partition((3, 3, 1))) == 1152


def test_bernoulli_reference_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)


def akiyama_tanigawa_oracle(top):
    """B_0..B_top (B_1 = -1/2) by the Akiyama-Tanigawa triangle,
    a_(m,j) = 1/(j+1) refined by a_(j-1) <- j (a_(j-1) - a_j), whose row
    starts are the Bernoulli numbers with B_1 = +1/2.  Every entry lies in
    (1/L)Z for L = lcm(1..top+1), so the triangle runs on integers scaled
    by L."""
    scale = lcm(*range(1, top + 2))
    row = [0] * (top + 1)
    out = []
    for m in range(top + 1):
        row[m] = scale // (m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(Fraction(row[0], scale))
    out[1] = -out[1]
    return out


def test_bernoulli_matches_akiyama_tanigawa_oracle():
    assert [bernoulli(n) for n in range(301)] == akiyama_tanigawa_oracle(300)
    assert all(type(bernoulli(n)) is Fraction for n in range(301))
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_odd_vanish():
    for k in range(1, 16):
        assert bernoulli(2 * k + 1) == 0


def test_catalan():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(5) == 42
    # direct binomial evaluation as the oracle
    from math import comb
    for n in range(12):
        assert catalan(n) * (n + 1) == comb(2 * n, n)


def test_rational_arithmetic_exact():
    rng = random.Random(4142)
    for _ in range(200):
        a = Fraction(rng.randint(-2**63, 2**63), rng.randint(1, 2**63))
        c = Fraction(rng.randint(-2**63, 2**63), rng.randint(1, 2**63))
        assert (a + c) - c == a
        assert a.denominator > 0
