"""Integer-matrix normal forms for congruence lattices.

Vectors are rows; a lattice is the row span of an integer matrix.  Every
lattice here contains D*Z^d for the common denominator D of the
congruences, so one elimination modulo D (hnf_mod) computes all of it:
the canonical row Hermite normal form of the congruence module, that of
the integrality lattice (its dual, scaled by D), and the Smith normal
form diagonal of the integrality lattice (alternating row passes on the
basis and on its transpose).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a >= 0 and b > 0."""
    g = gcd(a, b)
    s = pow(a // g, -1, b // g)
    return g, s, (g - s * a) // b


def hnf_mod(rows: list[list[int]], dim: int, modulus: int) -> list[list[int]]:
    """Canonical row HNF of rowspan(rows) + modulus*Z^dim.

    Upper triangular with positive pivots dividing the modulus, entries
    above a pivot reduced into [0, pivot) and every other entry kept in
    [0, modulus) while eliminating (Domich, Kannan and Trotter, 1987).
    """
    D = modulus
    # h[c]: entries from column c on of the echelon row with pivot in column c
    h: list[list[int] | None] = [None] * dim

    def insert(v: list[int], c: int) -> None:
        """Fold in a lattice vector that vanishes before column c (v = its tail)."""
        while True:
            k = next((i for i, x in enumerate(v) if x), None)
            if k is None:
                return
            v, c = v[k:], c + k
            p = h[c]
            if p is None:
                h[c] = v
                return
            a, b = p[0], v[0]
            g, s, t = _bezout(a, b)
            if g != a:  # else p stays the pivot row
                h[c] = [(s * x + t * y) % D for x, y in zip(p, v)]
            v = [((b // g) * x - (a // g) * y) % D for x, y in zip(p[1:], v[1:])]
            c += 1

    for row in rows:
        insert([x % D for x in row], 0)
    basis: list[list[int]] = []
    for c in range(dim):
        # Join the echelon row with D*e_c: the pivot becomes gcd(a, D), and
        # the leftover (D/g)*p, zero in column c, goes on to later columns.
        p = h[c] or [0] * (dim - c)
        g, s, _ = _bezout(p[0], D)
        insert([(D // g) * x % D for x in p[1:]], c + 1)
        row = [0] * c + [g] + [s * x % D for x in p[1:]]
        for r in basis:
            q = r[c] // g
            if q:
                r[c:] = [(x - q * y) % D for x, y in zip(r[c:], row[c:])]
        basis.append(row)
    return basis


def common_denominator(rows) -> int:
    """lcm of the denominators of a rational matrix."""
    return lcm(1, *(x.denominator for row in rows for x in row))


def integrality_lattice(rational_rows: list[list[Fraction]], dim: int):
    """(basis, divisors) of L = {x in Z^dim : R x is integral for every row R}.

    basis is the HNF of L, divisors the Smith normal form diagonal of
    Z^dim / L (d1 | d2 | ...).  With D the common denominator and A = D*R,
    L = {x : A x = 0 mod D} = D * M^dual for M = rowspan(A) + D*Z^dim: if
    the rows of B span M, the columns of D * B^-1 span L.
    """
    D = common_denominator(rational_rows)
    B = hnf_mod([[x.numerator * (D // x.denominator) for x in row] for row in rational_rows],
                dim, D)
    columns = []
    for k in range(dim):
        # solve B x = D e_k from the bottom up; B is upper triangular
        x = [0] * dim
        for i in range(k, -1, -1):
            rest = sum(B[i][j] * x[j] for j in range(i + 1, k + 1))
            x[i] = ((D if i == k else 0) - rest) // B[i][i]
        columns.append(x)
    basis = hnf_mod(columns, dim, D)
    # Row HNF passes on the transpose until the form is diagonal; the
    # transpose of a basis of L also spans a lattice containing D*Z^dim.
    m = basis
    while any(m[i][j] for i in range(dim) for j in range(i + 1, dim)):
        m = hnf_mod(list(zip(*m)), dim, D)
    divisors = [m[i][i] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            a, b = divisors[i], divisors[j]
            divisors[i], divisors[j] = gcd(a, b), lcm(a, b)
    return basis, divisors
