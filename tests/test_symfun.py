import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from thetacob.core import Partition, partitions_of
from thetacob.symfun import (
    BASES,
    ChernVector,
    IncompleteVectorError,
    SymFunExpr,
    convert,
    convert_basis,
    sign_involution,
    to_normal_monomial,
)

P = Partition


# -- oracles: the m-expansions counted factor by factor, and dense inverses ---------


def _contribs(kind, k, residual):
    """Exponent vectors one factor g_k can contribute, bounded by residual."""
    n = len(residual)
    if kind == "p":
        for i in range(n):
            if residual[i] >= k:
                v = [0] * n
                v[i] = k
                yield tuple(v)
        return
    cap = (lambda r: min(1, r)) if kind == "e" else (lambda r: r)

    def rec(i, remaining, prefix):
        if remaining == 0:
            yield prefix + (0,) * (n - i)
            return
        if i == n:
            return
        for take in range(min(cap(residual[i]), remaining), -1, -1):
            yield from rec(i + 1, remaining - take, prefix + (take,))

    yield from rec(0, k, ())


@lru_cache(maxsize=None)
def _completions(kind, factors, residual):
    """Number of ways the factors g_k can jointly produce the residual exponents."""
    if not factors:
        return 1 if not any(residual) else 0
    return sum(_completions(kind, factors[1:],
                            tuple(sorted((r - x for r, x in zip(residual, v)), reverse=True)))
               for v in _contribs(kind, factors[0], residual))


def _oracle_m_expansion(kind, lam):
    return {mu: Fraction(c) for mu in partitions_of(lam.weight)
            if (c := _completions(kind, tuple(lam), tuple(mu)))}


def _mat_inverse(mat):
    """Exact inverse of a square Fraction matrix by Gauss-Jordan elimination."""
    n = len(mat)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


@lru_cache(maxsize=None)
def _to_m_matrix(n, basis):
    """Rows indexed by partitions_of(n): basis_lam = sum_mu M[lam][mu] m_mu."""
    parts = partitions_of(n)
    if basis == "m":
        return [[Fraction(int(lam == mu)) for mu in parts] for lam in parts]
    return [[_oracle_m_expansion(basis, lam).get(mu, Fraction(0)) for mu in parts]
            for lam in parts]


def _times(mat, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in mat]


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


@lru_cache(maxsize=None)
def _from_m_matrix(n, basis):
    """The inverse of the transposed _to_m_matrix: m-coefficients -> basis ones."""
    return _mat_inverse(_transpose(_to_m_matrix(n, basis)))


def _vector(c):
    """A ChernVector's values in partitions_of order."""
    return [c.values[mu] for mu in partitions_of(c.weight)]


def _oracle_convert(x, target):
    parts = partitions_of(x.weight)
    mvec = _times(_transpose(_to_m_matrix(x.weight, x.basis)),
                  [x.terms.get(mu, Fraction(0)) for mu in parts])
    out = _times(_from_m_matrix(x.weight, target), mvec)
    return {mu: c for mu, c in zip(parts, out) if c}


def _oracle_involution_matrix(n):
    parts = partitions_of(n)
    rows = []
    for lam in parts:
        p = _oracle_convert(SymFunExpr.element("m", lam), "p")
        flipped = {kappa: c * (-1) ** kappa.length for kappa, c in p.items()}
        image = _oracle_convert(SymFunExpr("p", n, flipped), "m")
        rows.append([image.get(mu, Fraction(0)) for mu in parts])
    return rows


def _m_expansion(kind, lam):
    """e_lam, h_lam or p_lam in the monomial basis."""
    return convert_basis(SymFunExpr.element(kind, lam), "m").terms


def _involution_matrix(n):
    """A with sign_involution(m_lam) = sum_mu A[lam][mu] m_mu."""
    parts = partitions_of(n)
    images = [sign_involution(SymFunExpr.element("m", lam)).terms for lam in parts]
    return [[image.get(mu, Fraction(0)) for mu in parts] for image in images]


def _random_values(rng, n):
    return {lam: Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for lam in partitions_of(n)}


def test_m_expansion_and_convert_basis_match_the_counting_oracle():
    rng = random.Random(47)
    for n in range(0, 9):
        parts = partitions_of(n)
        for kind in ("e", "h", "p"):
            for lam in parts:
                assert _m_expansion(kind, lam) == _oracle_m_expansion(kind, lam), (kind, lam)
        terms = {rng.choice(parts): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(4)}
        for src in BASES:
            x = SymFunExpr(src, n, dict(terms))
            for dst in BASES:
                assert convert_basis(x, dst).terms == _oracle_convert(x, dst), (n, src, dst)


def test_involution_matrix_matches_the_dense_oracle():
    for n in range(0, 7):
        assert _involution_matrix(n) == _oracle_involution_matrix(n), n


def test_chern_vector_conversions_match_the_dense_oracle():
    rng = random.Random(53)
    for n in range(0, 9):
        parts = partitions_of(n)
        A = _oracle_involution_matrix(n)
        E = _to_m_matrix(n, "e")
        for frame, other in (("tangent", "normal"), ("normal", "tangent")):
            c = ChernVector(n, frame, "monomial", _random_values(rng, n))
            flipped = convert(c, other, "monomial")
            assert (flipped.frame, flipped.basis) == (other, "monomial")
            assert _vector(flipped) == _times(A, _vector(c))
            prod = convert(c, frame, "chern_product")
            assert (prod.frame, prod.basis) == (frame, "chern_product")
            assert _vector(prod) == _times(E, _vector(c))
            c = ChernVector(n, frame, "chern_product", _random_values(rng, n))
            mono = convert(c, frame, "monomial")
            assert (mono.frame, mono.basis) == (frame, "monomial")
            assert _vector(mono) == _times(_mat_inverse(E), _vector(c))
            assert list(mono.values) == list(parts)


def test_m_expansion_small_goldens():
    assert _m_expansion("e", P((2,))) == {P((1, 1)): 1}
    assert _m_expansion("h", P((2,))) == {P((2,)): 1, P((1, 1)): 1}
    assert _m_expansion("p", P((2,))) == {P((2,)): 1}
    assert _m_expansion("e", P((1, 1))) == {P((2,)): 1, P((1, 1)): 2}


def test_convert_basis_goldens():
    e2 = SymFunExpr.element("e", (2,))
    assert convert_basis(e2, "m").terms == {P((1, 1)): 1}
    # 2x2 Jacobi-Trudi determinant: h2 = e1^2 - e2
    h2 = SymFunExpr.element("h", (2,))
    assert convert_basis(h2, "e").terms == {P((1, 1)): 1, P((2,)): -1}
    # Newton identity: p2 = e1^2 - 2 e2
    p2 = SymFunExpr.element("p", (2,))
    assert convert_basis(p2, "e").terms == {P((1, 1)): 1, P((2,)): -2}


def test_all_pairwise_conversions_consistent():
    rng = random.Random(31)
    for n in range(1, 9):
        parts = partitions_of(n)
        terms = {rng.choice(parts): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(3)}
        for src in BASES:
            x = SymFunExpr(src, n, dict(terms))
            for dst in BASES:
                direct = convert_basis(x, dst)
                for mid in BASES:
                    via = convert_basis(convert_basis(x, mid), dst)
                    assert via == direct
                assert convert_basis(direct, src) == x


def test_sign_involution_basics():
    p1 = SymFunExpr.element("p", (1,))
    assert sign_involution(p1).terms == {P((1,)): -1}
    e1 = SymFunExpr.element("e", (1,))
    assert sign_involution(e1).terms == {P((1,)): -1}
    e2 = SymFunExpr.element("e", (2,))
    h2_in_e = convert_basis(SymFunExpr.element("h", (2,)), "e")
    assert sign_involution(e2) == h2_in_e
    # e_k -> (-1)^k h_k in general
    for k in range(1, 7):
        img = sign_involution(SymFunExpr.element("e", (k,)))
        hk = convert_basis(SymFunExpr.element("h", (k,)), "e")
        scaled = SymFunExpr("e", k, {lam: (-1) ** k * c for lam, c in hk.terms.items()})
        assert img == scaled


def test_sign_involution_is_ring_homomorphism_on_products():
    # involution(e_lam) must equal the product of involution(e_parts)
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(2, 8)
        lam = rng.choice(partitions_of(n))
        img = convert_basis(sign_involution(SymFunExpr.element("e", lam)), "m")
        # product of images of the parts, multiplied in the m basis via e-expansion
        sign = (-1) ** n
        hlam = convert_basis(SymFunExpr.element("h", lam), "m")
        expected = SymFunExpr("m", n, {mu: sign * c for mu, c in hlam.terms.items()})
        assert img == expected


def test_sign_involution_involutive():
    rng = random.Random(41)
    for n in range(1, 8):
        parts = partitions_of(n)
        terms = {rng.choice(parts): Fraction(rng.randint(-4, 4)) for _ in range(3)}
        for basis in BASES:
            x = SymFunExpr(basis, n, dict(terms))
            assert sign_involution(sign_involution(x)) == x


def test_involution_matrix_integral_and_involutive():
    for n in range(1, 7):
        A = _involution_matrix(n)
        size = len(A)
        for i in range(size):
            for j in range(size):
                assert A[i][j].denominator == 1
                prod = sum(A[i][k] * A[k][j] for k in range(size))
                assert prod == (1 if i == j else 0)


def test_chern_vector_validation():
    with pytest.raises(IncompleteVectorError):
        ChernVector.build(2, "tangent", "monomial", {(2,): 1})
    with pytest.raises(ValueError):
        ChernVector.build(1, "sideways", "monomial", {(1,): 1})


def test_tangent_normal_exchange_theta_data():
    # the 2n-dimensional theta locus: tangent products all (-1)^n (n+1)!,
    # normal data concentrated on the one-part partition
    for n in range(1, 13):
        val = Fraction((-1) ** n * factorial(n + 1))
        tangent_prod = ChernVector.build(
            n, "tangent", "chern_product", {lam: val for lam in partitions_of(n)})
        mono = convert(tangent_prod, "tangent", "monomial")
        normal = convert(mono, "normal", "monomial")
        for lam in partitions_of(n):
            expected = factorial(n + 1) if lam == P((n,)) else 0
            assert normal.values[lam] == expected, (n, lam)


def test_tangent_normal_weight_one_and_two():
    c1 = ChernVector.build(1, "tangent", "monomial", {(1,): -2})
    assert convert(c1, "normal", "monomial").values[P((1,))] == 2
    theta2 = ChernVector.build(2, "tangent", "chern_product", {(2,): 6, (1, 1): 6})
    mono = convert(theta2, "tangent", "monomial")
    assert mono.values == {P((2,)): -6, P((1, 1)): 6}
    normal = convert(mono, "normal", "monomial")
    assert normal.values == {P((2,)): 6, P((1, 1)): 0}


def test_exchange_involutive_on_random_vectors():
    rng = random.Random(43)
    for n in range(1, 6):
        values = {lam: Fraction(rng.randint(-30, 30)) for lam in partitions_of(n)}
        c = ChernVector.build(n, "tangent", "monomial", values)
        back = convert(convert(c, "normal", "monomial"), "tangent", "monomial")
        assert back.values == c.values and back.frame == "tangent"


def test_chern_product_conversions():
    # c1^2 = m_(2) + 2 m_(1,1) and c2 = m_(1,1)
    mono = ChernVector.build(2, "tangent", "monomial", {(2,): 3, (1, 1): 3})
    prod = convert(mono, "tangent", "chern_product")
    assert prod.values[P((1, 1))] == 3 + 2 * 3  # c1^2
    assert prod.values[P((2,))] == 3            # c2
    assert convert(prod, "tangent", "monomial") == mono
    c1 = ChernVector.build(1, "tangent", "chern_product", {(1,): 7})
    assert convert(c1, "tangent", "monomial").values[P((1,))] == 7


def test_to_normal_monomial_paths():
    theta2 = ChernVector.build(2, "tangent", "chern_product", {(2,): 6, (1, 1): 6})
    direct = to_normal_monomial(theta2)
    assert direct.frame == "normal" and direct.basis == "monomial"
    already = ChernVector.build(2, "normal", "monomial", direct.values)
    assert to_normal_monomial(already) == already
    for frame, basis in (("sideways", "monomial"), ("normal", "chern")):
        with pytest.raises(ValueError, match="must be"):
            convert(theta2, frame, basis)
