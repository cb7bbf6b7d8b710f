"""Named series and class families of the theta-divisor calculus.

The universal exponential series

    beta(z) = z + sum_{n>=1} t_n z^{n+1}/(n+1)!

encodes the Chern-Dold character over the theta basis.  Its compositional
inverse is the universal logarithm whose coefficients carry the projective
space classes [CP^n]/(n+1); the multiplicative inverse of beta(z)/z
carries the dual classes v_n, and log(beta(z)/z) the power-sum companions
w_n.  Writing beta(z) = z(1+u), u = sum t_n z^n/(n+1)!, each coefficient
of those three series is one sum over the partitions of its weight
(gradedring.partition_sum; Lagrange inversion for the logarithm).

Every coefficient and class is computed once per process, by a cache per
index (_beta_coefficient, _log_coefficient, _cp_class, _v_class,
_w_class), and each per-order function is a view over them:
beta_coefficients, log_coefficients, cp_classes, v_classes and w_classes
give tuples of GradedPoly, the coefficient or class of index m at
position m.  So orders a < b share their first a + 1 coefficients as
objects, and the group law (grouplaw.GroupLaw, kept by group_law_axioms)
reads the tuples; no series type is involved.  decompose() reconstructs
any weight-n class from its normal Chern numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING

from .core import partition_factorial, partitions_of, bernoulli
from .gradedring import GradedPoly, ONE, ZERO, partition_sum, power_weights, t
from .grouplaw import GroupLaw

if TYPE_CHECKING:
    from .symfun import ChernVector


@lru_cache(maxsize=None)
def _beta_coefficient(m: int) -> GradedPoly:
    """[z^m] beta: 0, 1 and then t_(m-1)/m!."""
    return (ZERO, ONE)[m] if m < 2 else t(m - 1) * Fraction(1, factorial(m))


@lru_cache(maxsize=None)
def beta_coefficients(order: int) -> tuple[GradedPoly, ...]:
    """The coefficients of beta(z) = z + sum t_n z^{n+1}/(n+1)!, z^0..z^order."""
    return tuple(_beta_coefficient(m) for m in range(order + 1))


@lru_cache(maxsize=None)
def _log_coefficient(m: int) -> GradedPoly:
    """g_m = (1/m) [z^(m-1)] (1+u)^(-m), beta(z) = z(1+u): Lagrange inversion."""
    return partition_sum(m - 1, power_weights(-m, m), m)


@lru_cache(maxsize=None)
def log_coefficients(order: int) -> tuple[GradedPoly, ...]:
    """The coefficients of the logarithm beta^{-1}, u^0..u^order.

    Each g_m = (1/m) [z^(m-1)] (beta(z)/z)^(-m) (Lagrange inversion) is one
    sum over the partitions of m-1 (gradedring.partition_sum), computed once
    per process: every order reads the same coefficients.
    """
    return (ZERO,) + tuple(_log_coefficient(m) for m in range(1, order + 1))


@lru_cache(maxsize=None)
def _cp_class(n: int) -> GradedPoly:
    """cp_n = (n+1) g_(n+1), for n >= 1."""
    return (n + 1) * _log_coefficient(n + 1)


@lru_cache(maxsize=None)
def cp_classes(order: int) -> tuple[GradedPoly, ...]:
    """Projective-space classes in the theta basis, cp[n] for n < order.

    cp[n] is (n+1) times the coefficient of u^{n+1} in the logarithm, so
    cp[1] = -t1 and cp[2] = 3/2*t1^2 - 1/2*t2; cp[0] is the unit.  Each
    cp_n is computed once per process, and every order reads the same
    classes.
    """
    return (ONE,) + tuple(_cp_class(n) for n in range(1, order))


# The group law F and its axioms' verdicts so far, by total degree.
_LAW = GroupLaw()


def group_law_axioms(order: int) -> dict[str, bool]:
    """The axioms of the universal group law to total order ``order``, each
    named and read as in grouplaw.GroupLaw.axioms (associativity off the
    exponential identity), from the kept logarithm.  One GroupLaw serves
    every order, so each degree is checked once."""
    return _LAW.axioms(beta_coefficients(order), log_coefficients(order), order)


@lru_cache(maxsize=None)
def _v_class(n: int) -> GradedPoly:
    """v_n = (-1)^n (n+1)! [z^n] (1+u)^(-1), beta(z) = z(1+u)."""
    return partition_sum(n, power_weights(-1, n + 1, (-1) ** n * factorial(n + 1)))


@lru_cache(maxsize=None)
def v_classes(order: int) -> tuple[GradedPoly, ...]:
    """Dual classes v_n for n <= order, v[0] = 1.

    v_n is (-1)^n (n+1)! times the coefficient of z^n in the multiplicative
    inverse of beta(z)/z, one sum over the partitions of n
    (gradedring.partition_sum).  Acceptance criterion 1 checks it for n <= 12
    against an independent route, the h-in-terms-of-e Jacobi-Trudi
    determinant with e_n = t_n/(n+1)!.  Each v_n is computed once per
    process, and every order reads the same classes, as the logarithm's
    coefficients are read.
    """
    return (ONE,) + tuple(_v_class(n) for n in range(1, order + 1))


@lru_cache(maxsize=None)
def _w_class(n: int) -> GradedPoly:
    """w_n = n! [z^n] log(1+u), beta(z) = z(1+u)."""
    return partition_sum(n, [0] + [(-1) ** (l - 1) * factorial(n) * factorial(l - 1)
                                   for l in range(1, n + 1)])


@lru_cache(maxsize=None)
def w_classes(order: int) -> tuple[GradedPoly, ...]:
    """Power-sum companions w_n = n! [z^n] log(beta(z)/z); w[0] = 0.

    Each w_n is one sum over the partitions of n (gradedring.partition_sum).
    """
    return (ZERO,) + tuple(_w_class(n) for n in range(1, order + 1))


@lru_cache(maxsize=None)
def q_multiplier(n: int) -> int:
    """Denominator of (n+1) B_n: the minimal integer q with q*v_n integral.

    Odd n > 1 give B_n = 0 and q = 1; q_2 = 2 and q_4 = 6.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return ((n + 1) * bernoulli(n)).denominator


def decompose(c: ChernVector) -> GradedPoly:
    """Rebuild a weight-n class from its normal monomial Chern numbers:
    sum over partitions of c_lam * t^lam / (lam+1)!.
    """
    from .symfun import FrameBasisError

    if c.frame != "normal" or c.basis != "monomial":
        raise FrameBasisError("decompose needs a normal-frame, monomial-basis vector")
    return GradedPoly({lam: c.values[lam] / partition_factorial(lam)
                       for lam in partitions_of(c.weight)})


def psi_on_class(k: int, p: GradedPoly) -> GradedPoly:
    """Grading action of the k-th Adams operation: t_n -> k^n t_n."""
    if k == 0:
        raise ValueError("k must be nonzero")
    return p.substitute(lambda n: GradedPoly.monomial((n,), k ** n))


def theta_power_class(n: int, k: int) -> GradedPoly:
    """Class of the degree-k analogue of the n-th theta divisor: k^{n+1} t_n."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return t(n) * Fraction(k ** (n + 1))
