"""Symmetric functions in the m/e/h/p bases and Chern-number vectors.

A weight-n symmetric function is a Fraction-linear combination of basis
elements indexed by partitions of n.  Conversions go through the monomial
basis: for each multiplicative basis g in {e, h, p} the expansion of g_lam
into monomials is computed by counting exponent assignments (a 0/1 matrix
count for e, unrestricted for h, single-row for p), and the inverse
matrices are obtained by exact Gaussian elimination.  All matrices are
cached per weight.

ChernVector packages the p(n) Chern numbers of a stably complex manifold.
Two frames (tangent / normal bundle) and two index conventions (monomial
symmetric functions vs. products of Chern classes) coexist; the linear
maps between them are induced by the basis matrices above and by the sign
involution p_k -> -p_k, which exchanges tangent and normal data because
the two bundles sum to a trivial one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .core import Partition, partitions_of

BASES = ("m", "e", "h", "p")


class IncompleteVectorError(ValueError):
    """ChernVector does not cover every partition of its weight."""


class FrameBasisError(ValueError):
    """Operation applied to a ChernVector in the wrong frame or basis."""


# -- expansions into the monomial basis -------------------------------------------


def _contribs(kind: str, k: int, residual: tuple[int, ...]):
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
        top = min(cap(residual[i]), remaining)
        for take in range(top, -1, -1):
            yield from rec(i + 1, remaining - take, prefix + (take,))

    yield from rec(0, k, ())


@lru_cache(maxsize=None)
def _completions(kind: str, factors: tuple[int, ...], residual: tuple[int, ...]) -> int:
    """Number of ways the factors can jointly produce the residual exponents.

    The residual is kept sorted (descending): the count only depends on the
    multiset, which collapses the memo space.
    """
    if not factors:
        return 1 if not any(residual) else 0
    k = factors[0]
    total = 0
    for v in _contribs(kind, k, residual):
        rest = tuple(sorted((r - x for r, x in zip(residual, v)), reverse=True))
        total += _completions(kind, factors[1:], rest)
    return total


@lru_cache(maxsize=None)
def m_expansion(kind: str, lam: Partition) -> dict:
    """Expansion of e_lam / h_lam / p_lam in monomial symmetric functions."""
    if kind not in ("e", "h", "p"):
        raise ValueError(f"unknown multiplicative basis {kind!r}")
    lam = Partition(lam)
    out = {}
    for mu in partitions_of(lam.weight):
        c = _completions(kind, tuple(lam), tuple(mu))
        if c:
            out[mu] = Fraction(c)
    return out


def _mat_inverse(mat):
    """Exact inverse of a square Fraction matrix by Gaussian elimination."""
    n = len(mat)
    a = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular conversion matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


@lru_cache(maxsize=None)
def _to_m_matrix(n: int, basis: str):
    """Rows indexed by partitions_of(n): basis_lam = sum_mu M[lam][mu] m_mu."""
    parts = partitions_of(n)
    if basis == "m":
        return tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(len(parts)))
            for i in range(len(parts))
        )
    rows = []
    for lam in parts:
        exp = m_expansion(basis, lam)
        rows.append(tuple(exp.get(mu, Fraction(0)) for mu in parts))
    return tuple(rows)


@lru_cache(maxsize=None)
def _from_m_matrix(n: int, basis: str):
    """Solves m-coefficient vectors back into the given basis."""
    T = _to_m_matrix(n, basis)
    transpose = tuple(tuple(T[i][j] for i in range(len(T))) for j in range(len(T)))
    return _mat_inverse(transpose)


# -- symmetric function expressions --------------------------------------------------


class SymFunExpr:
    """Homogeneous symmetric function stored as coefficients in one basis."""

    __slots__ = ("basis", "weight", "terms")

    def __init__(self, basis: str, weight: int, terms: dict):
        if basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
        for lam in terms:
            if not isinstance(lam, Partition) or lam.weight != weight:
                raise ValueError(f"bad index {lam!r} for weight {weight}")
        self.basis = basis
        self.weight = weight
        self.terms = terms

    def __repr__(self):
        return f"SymFunExpr(basis={self.basis!r}, weight={self.weight!r}, terms={self.terms!r})"

    @classmethod
    def element(cls, basis: str, lam, coeff=1) -> "SymFunExpr":
        lam = Partition(lam)
        return cls(basis, lam.weight, {lam: Fraction(coeff)})

    def coeff_vector(self):
        parts = partitions_of(self.weight)
        return [self.terms.get(mu, Fraction(0)) for mu in parts]

    def __eq__(self, other):
        if not isinstance(other, SymFunExpr):
            return NotImplemented
        if self.weight != other.weight:
            return False
        a = self if self.basis == other.basis else convert_basis(self, other.basis)
        clean = lambda d: {k: v for k, v in d.items() if v != 0}
        return clean(a.terms) == clean(other.terms)


def _vec_mat(vec, mat):
    cols = len(mat[0]) if mat else 0
    return [sum((vec[i] * mat[i][j] for i in range(len(vec))), Fraction(0)) for j in range(cols)]


def convert_basis(x: SymFunExpr, target: str) -> SymFunExpr:
    """Re-express x in another basis; conversions round-trip exactly."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == x.basis:
        return x
    parts = partitions_of(x.weight)
    mvec = _vec_mat(x.coeff_vector(), _to_m_matrix(x.weight, x.basis))
    if target == "m":
        out = mvec
    else:
        inv = _from_m_matrix(x.weight, target)
        out = [sum((inv[i][j] * mvec[j] for j in range(len(mvec))), Fraction(0))
               for i in range(len(parts))]
    terms = {mu: c for mu, c in zip(parts, out) if c != 0}
    return SymFunExpr(target, x.weight, terms)


def sign_involution(x: SymFunExpr) -> SymFunExpr:
    """The ring involution p_k -> -p_k (equivalently e_k -> (-1)^k h_k).

    It is diagonal in the power-sum basis: p_lam picks up (-1)^length(lam).
    """
    p = convert_basis(x, "p")
    flipped = {lam: c * ((-1) ** lam.length) for lam, c in p.terms.items()}
    return convert_basis(SymFunExpr("p", x.weight, flipped), x.basis)


@lru_cache(maxsize=None)
def involution_matrix(n: int):
    """Matrix A with sign_involution(m_lam) = sum_mu A[lam][mu] m_mu.

    A is an integer involution (A @ A = identity); it converts tangent
    Chern numbers into normal ones and back.
    """
    parts = partitions_of(n)
    rows = []
    for lam in parts:
        image = sign_involution(SymFunExpr.element("m", lam))
        row = []
        for mu in parts:
            c = image.terms.get(mu, Fraction(0))
            if c.denominator != 1:
                raise AssertionError("involution matrix must be integral")
            row.append(c)
        rows.append(tuple(row))
    return tuple(rows)


# -- Chern-number vectors ---------------------------------------------------------------


class ChernVector:
    """The p(n) Chern numbers of a weight-n class, tagged by convention.

    frame:  'tangent' or 'normal' -- which stable bundle the numbers refer to.
    basis:  'monomial' (numbers of monomial symmetric functions in the Chern
            roots) or 'chern_product' (values of products c_{i_1}...c_{i_k};
            the partition (1,1) then means c_1^2).
    """

    __slots__ = ("weight", "frame", "basis", "values")

    def __init__(self, weight: int, frame: str, basis: str, values: dict):
        if frame not in ("tangent", "normal"):
            raise ValueError(f"frame must be tangent|normal, got {frame!r}")
        if basis not in ("monomial", "chern_product"):
            raise ValueError(f"basis must be monomial|chern_product, got {basis!r}")
        parts = set(partitions_of(weight))
        keys = set(values)
        if keys != parts:
            missing = sorted(parts - keys)
            extra = sorted(keys - parts)
            raise IncompleteVectorError(
                f"vector must cover all partitions of {weight}; "
                f"missing {missing}, extraneous {extra}"
            )
        self.weight = weight
        self.frame = frame
        self.basis = basis
        self.values = values

    def __repr__(self):
        return (f"ChernVector(weight={self.weight!r}, frame={self.frame!r}, "
                f"basis={self.basis!r}, values={self.values!r})")

    @classmethod
    def build(cls, weight, frame, basis, values) -> "ChernVector":
        vals = {Partition(k): Fraction(v) for k, v in values.items()}
        return cls(weight, frame, basis, vals)

    def value(self, lam) -> Fraction:
        return self.values[Partition(lam)]

    def as_vector(self):
        return [self.values[mu] for mu in partitions_of(self.weight)]

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values.values())

    def __eq__(self, other):
        if not isinstance(other, ChernVector):
            return NotImplemented
        return (self.weight, self.frame, self.basis) == (other.weight, other.frame, other.basis) \
            and self.values == other.values


def _apply_matrix(c: ChernVector, mat, frame, basis) -> ChernVector:
    parts = partitions_of(c.weight)
    vec = c.as_vector()
    vals = {}
    for i, lam in enumerate(parts):
        vals[lam] = sum((mat[i][j] * vec[j] for j in range(len(parts))), Fraction(0))
    return ChernVector(c.weight, frame, basis, vals)


def tangent_to_normal(c: ChernVector) -> ChernVector:
    """Tangent monomial Chern numbers -> normal ones (involutive map).

    Tangent and normal bundles are stably complementary, so their power
    sums differ by a sign; the induced map on monomial values is the
    involution matrix.
    """
    if c.basis != "monomial":
        raise FrameBasisError("tangent/normal exchange is defined on the monomial basis")
    if c.frame != "tangent":
        raise FrameBasisError("expected a tangent-frame vector")
    return _apply_matrix(c, involution_matrix(c.weight), "normal", "monomial")


def normal_to_tangent(c: ChernVector) -> ChernVector:
    if c.basis != "monomial":
        raise FrameBasisError("tangent/normal exchange is defined on the monomial basis")
    if c.frame != "normal":
        raise FrameBasisError("expected a normal-frame vector")
    return _apply_matrix(c, involution_matrix(c.weight), "tangent", "monomial")


@lru_cache(maxsize=None)
def _e_matrix_inverse(n: int):
    return _mat_inverse(_to_m_matrix(n, "e"))


def chern_product_to_monomial(c: ChernVector) -> ChernVector:
    """Values of Chern-class products -> monomial Chern numbers.

    The product c_{i_1}...c_{i_k} is the elementary symmetric function
    e_lam of the Chern roots, so product values are the e-to-m matrix
    applied to monomial values; this inverts that relation.
    """
    if c.basis != "chern_product":
        raise FrameBasisError("expected a chern_product-basis vector")
    return _apply_matrix(c, _e_matrix_inverse(c.weight), c.frame, "monomial")


def monomial_to_chern_product(c: ChernVector) -> ChernVector:
    if c.basis != "monomial":
        raise FrameBasisError("expected a monomial-basis vector")
    return _apply_matrix(c, _to_m_matrix(c.weight, "e"), c.frame, "chern_product")


def to_normal_monomial(c: ChernVector) -> ChernVector:
    """Normalise any frame/basis combination to (normal, monomial)."""
    if c.basis == "chern_product":
        c = chern_product_to_monomial(c)
    if c.frame == "tangent":
        c = tangent_to_normal(c)
    return c
