"""Hirzebruch genera, theta-divisor invariants, and Chern-number congruences.

A genus is determined by a characteristic series Q(z) = 1 + a_1 z + ...;
its value on the n-th theta class is (n+1)! [z^{n+1}] (z / Q(z)), and on
an arbitrary polynomial class it acts as the induced ring homomorphism.
Q and 1/Q are lists of rational coefficients, inverted by
gradedring._reciprocal, so a genus needs no series type.  Presets
cover the Todd genus (Q = z/(1 - e^{-z})), the signature (Q = z/tanh z)
and the Euler characteristic (Q = 1 + z), all built from exact Bernoulli data.

The congruence generator applies every operation S_mu of weight <= n to
the weight-n decomposition formula and takes the Todd genus, producing
rational functionals that must be integral on the normal Chern numbers of
any stably complex manifold.  The integral vectors form a full-rank
sublattice of Z^{p(n)}, canonicalised by its Hermite normal form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import TYPE_CHECKING, NamedTuple

from .core import (EMPTY, Partition, Rat, TruncationError, bernoulli, catalan,
                   partition_factorial, partitions_of)
from .gradedring import ONE, GradedPoly, _as_poly, _formal_log, _reciprocal

if TYPE_CHECKING:
    from .symfun import ChernVector

# The genus path needs only core and gradedring, and the congruence path
# lattices besides; each function imports the modules beyond core and
# gradedring that it uses, so neither path loads the other's.


class GenusSpec:
    """A genus given by its characteristic series Q with Q(0) = 1.

    ``q`` is the sequence of Q's coefficients from z^0 (ints, Fractions or
    constant GradedPolys), N + 1 of them for order N.
    """

    def __init__(self, q, name: str = "custom"):
        coeffs = [_as_poly(c) for c in q]
        if not coeffs or coeffs[0] != ONE:
            raise ValueError("characteristic series must start with 1")
        if any(c is NotImplemented or not c.is_constant() for c in coeffs):
            raise ValueError("characteristic series must have rational coefficients")
        self._q = coeffs
        self._inv = _reciprocal(coeffs)
        self.name = name

    @property
    def order(self) -> int:
        return len(self._q) - 1

    def coefficients(self) -> list[Fraction]:
        return [c.aug() for c in self._q]


@lru_cache(maxsize=None)
def todd_genus(order: int) -> GenusSpec:
    """Q = z/(1 - e^{-z}) = sum (-1)^n B_n z^n / n!, exactly."""
    return GenusSpec([Fraction((-1) ** n) * bernoulli(n) / factorial(n) for n in range(order + 1)],
                     name="todd")


@lru_cache(maxsize=None)
def l_genus(order: int) -> GenusSpec:
    """Q = z/tanh z = sum_k 2^{2k} B_{2k} z^{2k} / (2k)!, exactly."""
    return GenusSpec([Fraction(2 ** m) * bernoulli(m) / factorial(m) if m % 2 == 0 else 0
                      for m in range(order + 1)], name="l")


@lru_cache(maxsize=None)
def euler_genus(order: int) -> GenusSpec:
    """Q = 1 + z: the genus computing the Euler characteristic."""
    return custom_genus([1, 1], order, name="euler")


def custom_genus(coeffs, order=None, name="custom") -> GenusSpec:
    """Q with the given rational coefficients from z^0, cut or padded with
    zeros to ``order`` (by default, as many as are given)."""
    vals = [Fraction(c) for c in coeffs]
    if order is None:
        order = len(vals) - 1
    return GenusSpec([vals[m] if m < len(vals) else 0 for m in range(order + 1)], name=name)


def genus_preset(name: str, order: int) -> GenusSpec:
    table = {"todd": todd_genus, "l": l_genus, "euler": euler_genus}
    if name not in table:
        raise ValueError(f"unknown genus {name!r}; expected one of {sorted(table)}")
    return table[name](order)


def genus_of_theta(spec: GenusSpec, n: int) -> Rat:
    """Value on the n-th theta class: (n+1)! [z^{n+1}] (z / Q(z))."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > spec.order:
        raise TruncationError(f"genus series truncated at order {spec.order}, need {n}")
    return factorial(n + 1) * spec._inv[n].aug()


def genus_of_poly(spec: GenusSpec, p: GradedPoly) -> Rat:
    """Ring-homomorphic extension t_n -> genus_of_theta(spec, n)."""
    return p.substitute(lambda n: genus_of_theta(spec, n)).aug()


# -- topological invariants of theta divisors ---------------------------------------------


class ThetaInvariants(NamedTuple):
    n: int
    k: int
    betti: tuple
    euler: int
    signature: Rat | None
    chern_tangent: ChernVector | None
    chern_normal: ChernVector | None


def theta_normal_vector(n: int) -> ChernVector:
    """Normal monomial Chern numbers of the n-th theta divisor.

    The normal bundle is a line bundle whose top power evaluates to
    (n+1)!, so only the one-part partition survives.
    """
    from .symfun import ChernVector

    values = {lam: Fraction(0) for lam in partitions_of(n)}
    values[Partition((n,))] = Fraction(factorial(n + 1))
    return ChernVector(n, "normal", "monomial", values)


def theta_tangent_product_vector(n: int) -> ChernVector:
    """Tangent Chern-class products of the n-th theta divisor.

    The total tangent Chern class is 1/(1 + D) with D^n evaluating to
    (n+1)!, so every product c_{i_1}...c_{i_k} equals (-1)^n (n+1)!.
    """
    from .symfun import ChernVector

    val = Fraction((-1) ** n * factorial(n + 1))
    values = {lam: val for lam in partitions_of(n)}
    return ChernVector(n, "tangent", "chern_product", values)


def middle_betti(n: int, k: int = 1) -> int:
    """Middle Betti number: k^{n+1} (n+1)! + n/(n+2) * binom(2n+2, n+1).

    The correction term equals n * C_{n+1} with C the Catalan numbers.
    """
    return k ** (n + 1) * factorial(n + 1) + n * catalan(n + 1)


def theta_signature(n: int, k: int = 1) -> Rat:
    """Signature for even n: 2^{n+2} (2^{n+2} - 1) k^{n+1} B_{n+2} / (n+2)."""
    if n % 2:
        raise ValueError("signature defined for even n")
    return Fraction(2 ** (n + 2) * (2 ** (n + 2) - 1) * k ** (n + 1)) * bernoulli(n + 2) / (n + 2)


def theta_invariants(n: int, k: int = 1) -> ThetaInvariants:
    """Betti numbers, Euler characteristic, signature and Chern data of the
    degree-k theta locus in dimension 2n.

    Betti numbers below the middle agree with the ambient abelian variety
    (binomials), the middle one follows from the Euler characteristic
    (-1)^n k^{n+1} (n+1)!.  Chern vectors are only reported for k = 1.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    betti = [comb(2 * n + 2, j) for j in range(n)]
    betti.append(middle_betti(n, k))
    betti += [comb(2 * n + 2, 2 * n - j) for j in range(n + 1, 2 * n + 1)]
    euler = (-1) ** n * k ** (n + 1) * factorial(n + 1)
    sig = theta_signature(n, k) if n % 2 == 0 else None
    tangent = theta_tangent_product_vector(n) if k == 1 else None
    normal = theta_normal_vector(n) if k == 1 else None
    return ThetaInvariants(n, k, tuple(betti), euler, sig, tangent, normal)


# -- congruence generator -----------------------------------------------------------------


class CongruenceSystem(NamedTuple):
    """Integrality conditions on weight-n normal monomial Chern vectors.

    functionals: rows (mu, {lam: coeff}); a vector passes when every row
    evaluates to an integer.  basis_hnf spans the sublattice of integer
    vectors passing all rows; elementary_divisors describe the quotient.
    """

    weight: int
    functionals: tuple
    basis_hnf: tuple
    elementary_divisors: tuple

    def evaluate(self, c: ChernVector):
        """All (mu, value) evaluations of a vector (converted if needed)."""
        from .symfun import to_normal_monomial

        if c.weight != self.weight:
            raise ValueError(f"vector weight {c.weight} != system weight {self.weight}")
        values = to_normal_monomial(c).values
        return [(mu, sum((v * values[lam] for lam, v in row.items()), Fraction(0)))
                for mu, row in self.functionals]

    def check(self, c: ChernVector):
        """Verdict: (passed, failing) with failing = [(mu, value), ...]."""
        failing = [(mu, val) for mu, val in self.evaluate(c) if val.denominator != 1]
        return (not failing, failing)


@lru_cache(maxsize=None)
def _todd_image(m: int) -> GradedPoly:
    """(Td (x) id) S_t(t_m), with t' written as t.

    A genus sends beta(z) to z/Q(z), so this is (m+1)! [z^{m+1}] of
    beta(z/Q(z)) = beta(1 - e^{-z}) = sum_k t_k (1 - e^{-z})^{k+1}/(k+1)!.
    Expanding the power by the binomial theorem, the coefficient of t_k is
    sum_l (-1)^l C(k+1, l) (-l)^{m+1} / (k+1)! = (-1)^{m-k} S(m+1, k+1),
    with S the Stirling numbers of the second kind: an integer, so the
    division is exact.
    """
    return GradedPoly({
        Partition((k,)) if k else EMPTY:
            sum((-1) ** l * comb(k + 1, l) * (-l) ** (m + 1) for l in range(k + 2))
            // factorial(k + 1)
        for k in range(m + 1)
    })


def _system(n: int, functionals: tuple | list) -> CongruenceSystem:
    """The system of the (mu, {lam: coeff}) rows with its integrality lattice."""
    from .lattices import integrality_lattice

    parts = partitions_of(n)
    rows = [[row.get(lam, Fraction(0)) for lam in parts] for _, row in functionals]
    basis, divisors = integrality_lattice(rows, len(parts))
    return CongruenceSystem(
        weight=n,
        functionals=tuple(functionals),
        basis_hnf=tuple(tuple(r) for r in basis),
        elementary_divisors=tuple(divisors),
    )


@lru_cache(maxsize=None)
def _functionals(n: int) -> tuple:
    """The rows of congruence_system(n), column lam read off the terms of its
    image: a row holds only its non-zero entries, keyed in partitions_of(n) order."""
    rows = {mu: {} for w in range(n + 1) for mu in partitions_of(w)}
    for lam in partitions_of(n):
        for mu, c in GradedPoly.monomial(lam).substitute(_todd_image).items():
            rows[mu][lam] = c * partition_factorial(mu) / partition_factorial(lam)
    return tuple(rows.items())


@lru_cache(maxsize=None)
def congruence_system(n: int) -> CongruenceSystem:
    """Generate all divisibility conditions on weight-n normal Chern numbers.

    Row for the partition mu: lam -> Td(S_mu(t^lam)) / (lam+1)!.  Because
    every operation image of a manifold class is again a manifold class
    and the Todd genus is integral, each row must evaluate to an integer.
    """
    return _system(n, _functionals(n))


def congruence_check(n: int, c: ChernVector):
    """congruence_system(n).check(c) without the integrality lattice, which
    the verdict does not read and which is most of the system's cost."""
    return CongruenceSystem(n, _functionals(n), (), ()).check(c)


# -- classical low-dimension congruence lists ----------------------------------------------


def classical_congruences(n: int):
    """The classical congruences on tangent Chern-class products in
    complex dimension n <= 4 (c1 even; c2 + c1^2 = 0 mod 12; ...).

    Returns (label, modulus, {partition: coeff}) triples, partitions
    indexing products (so (1,1) means c1^2).
    """
    P = Partition
    if n == 1:
        return [("c1 mod 2", 2, {P((1,)): 1})]
    if n == 2:
        return [("c2 + c1^2 mod 12", 12, {P((2,)): 1, P((1, 1)): 1})]
    if n == 3:
        return [
            ("c1*c2 mod 24", 24, {P((2, 1)): 1}),
            ("c3 mod 2", 2, {P((3,)): 1}),
            ("c1^3 mod 2", 2, {P((1, 1, 1)): 1}),
        ]
    if n == 4:
        return [
            (
                "-c4 + c1*c3 + 3*c2^2 + 4*c1^2*c2 - c1^4 mod 720",
                720,
                {P((4,)): -1, P((3, 1)): 1, P((2, 2)): 3, P((2, 1, 1)): 4, P((1, 1, 1, 1)): -1},
            ),
            ("c1^2*c2 + 2*c1^4 mod 12", 12, {P((2, 1, 1)): 1, P((1, 1, 1, 1)): 2}),
            ("-2*c4 + c1*c3 mod 4", 4, {P((4,)): -2, P((3, 1)): 1}),
        ]
    raise ValueError("classical list available for 1 <= n <= 4")


def tangent_product_functional_to_normal_monomial(row: dict, n: int) -> dict:
    """Rewrite a functional on tangent product values as one on normal
    monomial values: sum row_lam e_lam of the tangent roots is the sign
    involution of the same function of the normal roots.
    """
    from .symfun import SymFunExpr, convert_basis, sign_involution

    return convert_basis(sign_involution(SymFunExpr("e", n, row)), "m").terms


def classical_system(n: int) -> CongruenceSystem:
    """The classical congruence list as a system on normal monomial vectors."""
    functionals = []
    for label, modulus, row in classical_congruences(n):
        converted = tangent_product_functional_to_normal_monomial(row, n)
        scaled = {lam: c / modulus for lam, c in converted.items()}
        functionals.append((EMPTY, scaled))
    return _system(n, functionals)


def lattice_contained_in(inner: CongruenceSystem, outer: CongruenceSystem) -> bool:
    """True iff every vector of the inner lattice passes the outer system."""
    from .symfun import ChernVector

    parts = partitions_of(inner.weight)
    return all(outer.check(ChernVector(inner.weight, "normal", "monomial",
                                       {lam: Fraction(x) for lam, x in zip(parts, row)}))[0]
               for row in inner.basis_hnf)


def w_multipliers(n: int) -> list[int]:
    """The least q_m with q_m*w_m passing every Todd-after-operation test,
    for m = 1..n: by the classical integrality criterion, the least multiple
    of w_m lying in the integral cobordism ring.

    T = (Td (x) id) S_t is a ring homomorphism, so T(w_m) = m! g_m with g the
    logarithm of T(beta)(z)/z = sum_k f_k z^k, f_k = _todd_image(k)/(k+1)!,
    read off gradedring._formal_log.  q_m is the lcm of the denominators of
    Td(S_mu(w_m)) = (mu+1)! m! [t^mu] g_m over all mu.
    """
    f = [ONE] + [_todd_image(k) * Fraction(1, factorial(k + 1)) for k in range(1, n + 1)]
    g = _formal_log(f)
    return [lcm(1, *((factorial(m) * partition_factorial(mu) * c).denominator
                     for mu, c in g[m].items())) for m in range(1, n + 1)]
