"""Symmetric functions in the m/e/h/p bases and Chern-number vectors.

A weight-n symmetric function is a Fraction-linear combination of basis
elements indexed by partitions of n.  Conversions go through the power
sums p (Macdonald, Symmetric Functions and Hall Polynomials, I.2).  The
e, h and p bases are multiplicative, so an element of one is a GradedPoly
in its generators, and a change between them is one substitution of
generator images.  Newton's identities give those images:

    k g_k = sum_{i=1..k} s^(i-1) g_{k-i} p_i,    s = -1 for e, +1 for h,

and, solved for their last term s^(k-1) p_k, the reverse map.  The
monomial basis is reached through the integer matrix P[kappa][mu] =
[m_mu] p_kappa, counted by placing each part of kappa in one variable.
P is lower triangular in partitions_of order (p_kappa only holds the m_mu
whose parts merge those of kappa) with diagonal prod m_i(kappa)!, so
leaving or entering m is one triangular pass, never an inverse.

ChernVector packages the p(n) Chern numbers of a stably complex manifold.
Two frames (tangent / normal bundle) and two index conventions (monomial
symmetric functions vs. products of Chern classes) coexist.  convert maps
between any two through the values of the power sums p_kappa: from
monomial values by P, from product values by p_kappa written in e.  The
tangent and normal bundles sum to a trivial one, so their power sums
differ by a sign, and a change of frame multiplies the value of p_kappa
by (-1)^length(kappa).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .core import Partition, partitions_of
from .gradedring import ONE, GradedPoly, dot, t

BASES = ("m", "e", "h", "p")


class IncompleteVectorError(ValueError):
    """ChernVector does not cover every partition of its weight."""


class FrameBasisError(ValueError):
    """Operation applied to a ChernVector in the wrong frame or basis."""


# -- the power sums and the other bases ---------------------------------------------


@lru_cache(maxsize=None)
def _generator(src: str, dst: str, k: int) -> GradedPoly:
    """The generator src_k as a polynomial in the generators of dst != src.

    Newton's identities give e_k and h_k in p, and p_k in e or h; between
    e and h the image goes through p.
    """
    if k == 0:
        return ONE
    if dst == "p":
        s = -1 if src == "e" else 1
        return dot([(_generator(src, "p", k - i), t(i)) for i in range(1, k + 1)],
                   [s ** (i - 1) for i in range(1, k + 1)], k)
    if src == "p":
        s = -1 if dst == "e" else 1
        # s^(k-1) p_k = k g_k - sum_{i<k} s^(i-1) g_{k-i} p_i, and s^2 = 1
        return dot([(t(k), ONE)] + [(t(k - i), _generator("p", dst, i)) for i in range(1, k)],
                   [k * s ** (k - 1)] + [-s ** (k + i) for i in range(1, k)])
    return _generator(src, "p", k).substitute(lambda i: _generator("p", dst, i))


@lru_cache(maxsize=None)
def _fillings(parts: tuple[int, ...], slots: tuple[int, ...]) -> int:
    """[x^slots] p_parts: the ways to put each part in one slot (a variable)
    so that every slot is filled exactly.  The slots are kept sorted, since
    the count depends only on their multiset."""
    if not parts:
        return 0 if any(slots) else 1
    k, rest = parts[0], parts[1:]
    return sum(_fillings(rest, tuple(sorted(slots[:i] + (s - k,) + slots[i + 1:], reverse=True)))
               for i, s in enumerate(slots) if s >= k)


@lru_cache(maxsize=None)
def _power_sum_rows(n: int, transposed: bool) -> dict:
    """The non-zero entries of P[kappa][mu] = [m_mu] p_kappa by row, or of
    its transpose.  P is lower triangular, so its rows are listed first to
    last and those of the transpose last to first: each row's other
    unknowns come before it, as _solve needs."""
    parts = partitions_of(n)
    rows = {kappa: {mu: c for mu in parts[:i + 1] if (c := _fillings(kappa, mu))}
            for i, kappa in enumerate(parts)}
    if not transposed:
        return rows
    return {mu: {kappa: rows[kappa][mu] for kappa in parts if mu in rows[kappa]}
            for mu in reversed(parts)}


def _mul(rows: dict, x: dict) -> dict:
    """The matrix given by its rows applied to the vector x."""
    return {i: sum((c * x[j] for j, c in row.items()), Fraction(0)) for i, row in rows.items()}


def _solve(rows: dict, y: dict) -> dict:
    """The x with _mul(rows, x) == y, for triangular rows listed so that
    each row's off-diagonal unknowns are solved before it."""
    x = {}
    for i, row in rows.items():
        rest = sum((c * x[j] for j, c in row.items() if j != i), Fraction(0))
        x[i] = (y[i] - rest) / row[i]
    return x


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

    def __eq__(self, other):
        if not isinstance(other, SymFunExpr):
            return NotImplemented
        if self.weight != other.weight:
            return False
        a = self if self.basis == other.basis else convert_basis(self, other.basis)
        clean = lambda d: {k: v for k, v in d.items() if v != 0}
        return clean(a.terms) == clean(other.terms)


def convert_basis(x: SymFunExpr, target: str) -> SymFunExpr:
    """Re-express x in another basis; conversions round-trip exactly."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == x.basis:
        return x
    n, basis, terms = x.weight, x.basis, x.terms
    parts = partitions_of(n)
    if basis == "m":
        terms, basis = _solve(_power_sum_rows(n, True), {mu: terms.get(mu, 0) for mu in parts}), "p"
    if target != basis:
        via = "p" if target == "m" else target
        if basis != via:
            poly = GradedPoly(terms).substitute(lambda k: _generator(basis, via, k))
            terms = dict(poly.items())
        if target == "m":
            terms = _mul(_power_sum_rows(n, True), {mu: terms.get(mu, 0) for mu in parts})
    return SymFunExpr(target, n, {mu: terms[mu] for mu in parts if terms.get(mu)})


def sign_involution(x: SymFunExpr) -> SymFunExpr:
    """The ring involution p_k -> -p_k (equivalently e_k -> (-1)^k h_k).

    It is diagonal in the power-sum basis: p_lam picks up (-1)^length(lam).
    """
    p = convert_basis(x, "p")
    flipped = {lam: c * ((-1) ** lam.length) for lam, c in p.terms.items()}
    return convert_basis(SymFunExpr("p", x.weight, flipped), x.basis)


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
            def listed(partitions):  # as the CLI prints a partition: "2,1"
                return ", ".join(f'"{mu}"' for mu in sorted(partitions)) or "none"

            raise IncompleteVectorError(
                f"vector must cover all partitions of {weight}; "
                f"missing {listed(parts - keys)}, extraneous {listed(keys - parts)}"
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

    def __eq__(self, other):
        if not isinstance(other, ChernVector):
            return NotImplemented
        return (self.weight, self.frame, self.basis) == (other.weight, other.frame, other.basis) \
            and self.values == other.values


@lru_cache(maxsize=None)
def _in_basis(n: int, src: str, dst: str) -> dict:
    """Rows src_lam -> its coefficients in dst, for every partition lam of n."""
    return {lam: convert_basis(SymFunExpr.element(src, lam), dst).terms
            for lam in partitions_of(n)}


def convert(c: ChernVector, frame: str, basis: str) -> ChernVector:
    """c in another frame and basis, through the values of the power sums;
    ChernVector refuses a frame or basis it does not know."""
    n = c.weight
    if c.basis == "monomial":
        power_sums = _mul(_power_sum_rows(n, False), c.values)
    else:
        power_sums = _mul(_in_basis(n, "p", "e"), c.values)
    if frame != c.frame:
        power_sums = {kappa: v * (-1) ** kappa.length for kappa, v in power_sums.items()}
    if basis == "monomial":
        values = _solve(_power_sum_rows(n, False), power_sums)
    else:
        values = _mul(_in_basis(n, "e", "p"), power_sums)
    return ChernVector(n, frame, basis, {lam: values[lam] for lam in partitions_of(n)})


def to_normal_monomial(c: ChernVector) -> ChernVector:
    """Normalise any frame/basis combination to (normal, monomial)."""
    if c.frame == "normal" and c.basis == "monomial":
        return c
    return convert(c, "normal", "monomial")
