"""Landweber-Novikov operations on the theta-class ring.

Every operation is read off one ring homomorphism, the total operation

    S_t: t_n -> sum_{k=0..n} I(n, k) (x) t'_k / (k+1)!    (t'_0 = 1),

with I(n, k) = (n+1)! [z^{n+1}] beta^{k+1} the intersection class of the
n-th theta divisor with k generic translates (I(n, 0) = t_n) and t' an
independent family of generators.  S_lam is (lam+1)! times the t'^lam
coefficient of S_t, so S_t(x) = sum S_lam(x) (x) t'^lam/(lam+1)! is the
quantisation of x, and the Cartan rule S_lam(x y) = sum over splittings
lam = mu + nu of S_mu(x) S_nu(y) holds because S_t is multiplicative.
The family {t^lam/(lam+1)!} is the dual basis of {S_lam} under
aug(S_lam(.)), which the quantisation / dequantisation round trip checks.

An element of the theta ring tensored with its t' side is stored as a map
from each t' monomial nu, a packed key as in gradedring, to the polynomial
in t that multiplies t'^nu.  S_t and the product run on gradedring's one
substitution kernel, which adds the t' keys and sums each group by one dot.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .core import Partition, partition_factorial
from .gradedring import (GradedPoly, ZERO, _check_weight, _grouped_dot, _integer_form, _key,
                         _monomial, _new, _substitute, _top_weight, format_monomial,
                         partition_sum, power_weights)


@lru_cache(maxsize=None)
def intersection_class(n: int, k: int) -> GradedPoly:
    """The class of the intersection of the n-th theta divisor with k
    generic translates: (n+1)! [z^{n+1}] beta^{k+1}.  Integral with
    positive coefficients; equals (n+1)! for k = n.

    As beta(z) = z(1+u), this is (n+1)! [z^(n-k)] (1+u)^(k+1), one sum over
    the partitions of n-k with at most k+1 parts (gradedring.partition_sum).
    """
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    return partition_sum(n - k, power_weights(k + 1, min(k + 2, n - k + 1), factorial(n + 1)))


@lru_cache(maxsize=None)
def _generator_image(n: int) -> dict[int, GradedPoly]:
    """S_t(t_n) = sum_{k=0..n} I(n, k) (x) t'_k / (k+1)!, keyed by packed t' monomial."""
    return {_key((k,)) if k else 0: intersection_class(n, k) * Fraction(1, factorial(k + 1))
            for k in range(n + 1)}


def ln_apply(lam, p: GradedPoly) -> GradedPoly:
    """Apply the operation S_lam to a polynomial: (lam+1)! [t'^lam] S_t(p)."""
    lam = Partition(lam)
    keep = {0}
    for part in lam:  # grow the set of sub-multisets of lam one part at a time
        keep |= {sub + _key((part,)) for sub in keep}
    return _substitute(p, _generator_image, keep).get(_key(lam), ZERO) * partition_factorial(lam)


def dual_pairing(lam, mu) -> Fraction:
    """aug(S_lam(t^mu)) / (mu+1)!; the Kronecker delta on equal weights."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.weight != mu.weight:
        raise ValueError(f"weight mismatch: |{lam}| != |{mu}|")
    image = ln_apply(lam, GradedPoly.monomial(mu))
    return image.aug() / partition_factorial(mu)


# -- quantisation ---------------------------------------------------------------------


class TensorElement:
    """Element of the theta ring tensored with its dual-operation side.

    Terms are pairs (mu, nu) with a rational coefficient: mu a monomial in
    the t generators, nu a monomial in an independent family t'.  They are
    stored grouped by nu, as the map from nu to the non-zero polynomial in
    t that multiplies t'^nu.  The dual side is stored with its canonical
    rescaling already applied, so dequantisation is the plain substitution
    t'_n -> t_n on the second leg composed with the augmentation on the
    first.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """From a mapping (mu, nu) -> rational coefficient."""
        polys: dict[int, GradedPoly] = {}
        for (mu, nu), c in (terms or {}).items():
            nu = _key(nu)
            polys[nu] = polys.get(nu, ZERO) + GradedPoly({mu: Fraction(c)})
        self._terms = {nu: q for nu, q in polys.items() if q}

    @classmethod
    def _raw(cls, terms: dict) -> "TensorElement":
        """Wrap a dict of non-zero GradedPoly values keyed by packed t' monomial keys."""
        out = cls()
        out._terms = terms
        return out

    def items(self):
        def key(kv):
            (mu, nu), _ = kv
            return (mu.weight + nu.weight, mu.weight, mu, nu)
        return sorted((((mu, _monomial(nu)[1]), c) for nu, q in self._terms.items()
                       for mu, c in q.items()), key=key)

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        out = dict(self._terms)
        for nu, q in other._terms.items():
            s = out.pop(nu, ZERO) + q
            if s:
                out[nu] = s
        return TensorElement._raw(out)

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        _check_weight(_top_weight(self._terms) + _top_weight(other._terms))
        return TensorElement._raw(_grouped_dot(((1, self._terms, other._terms),)))

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for (mu, nu), c in self.items():
            left = format_monomial(mu)
            right = format_monomial(nu, "'")
            body = f"{left} (x) {right}"
            if c == 1:
                chunks.append(body)
            elif c == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{c}*{body}")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self):
        return f"TensorElement({self.__str__()!r})"


def quantize(p: GradedPoly) -> TensorElement:
    """x -> S_t(x) = sum over partitions lam of S_lam(x) (x) t'^lam/(lam+1)!.

    The lam = empty term is x (x) 1.  The map is an algebra homomorphism,
    and it doubles as the point form of the quantum character: the image
    of x (x) 1 under the deformed character map is exactly this sum.
    """
    return TensorElement._raw(_substitute(p, _generator_image))


def dequantize(T: TensorElement) -> GradedPoly:
    """Augmentation on the t side, substitution t'_n -> t_n on the other."""
    return _new(*_integer_form({nu: q.aug() for nu, q in T._terms.items()}))

