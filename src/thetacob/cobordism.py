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
objects.  GroupLaw reads such tuples as plain coefficient sequences: it
builds F(u, v) = beta(L(u) + L(v)), L the logarithm, from the univariate
powers of L, not by composing bivariate series.  group_law_axioms keeps
one law, and series.fgl wraps its F in a BiTruncSeries.  decompose()
reconstructs any weight-n class from its normal Chern numbers.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import TYPE_CHECKING

from .core import partition_factorial, partitions_of, bernoulli
from .gradedring import GradedPoly, ONE, ZERO, dot, partition_sum, power_weights, t

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


def _extend_powers(P: list, f, d: int) -> None:
    """Add [z^d] f^j, j = 0..d, to the table P[j][m] = [z^m] f^j of a series f with f_0 = 0."""
    P.append([ZERO] * d)
    P[0].append(ONE if d == 0 else ZERO)
    for j in range(1, d + 1):
        P[j].append(dot((f[k], P[j - 1][d - k]) for k in range(1, d - j + 2)))


class GroupLaw:
    """The group law F(u, v) = beta(L(u) + L(v)) of an exponential beta and
    its logarithm L, and its axioms, kept as a growing prefix by total degree.

    By the binomial theorem F_{m,l} = sum_{j<=m} [u^m]L^j Q_{j,l} with
    Q_{j,l} = sum_i C(i+j, j) b_{i+j} [v^l]L^i.  Three axioms are sets of
    coefficient identities, each of one total degree d, expanded directly
    (nothing is assumed of F): the unit F_{d,0} = delta_{d,1}; commutativity;
    F(beta(z), beta(w)) = beta(z + w) as sum_l R_{l,a} [w^b]beta^l =
    C(a+b, a) beta_{a+b}, with R_{l,a} = sum_m F_{m,l} [z^a]beta^m.  For
    beta = z + ..., that identity to degree N makes F associative modulo
    degree N + 1 (Hazewinkel 1978), so associativity takes its verdict.

    Degree d adds one coefficient to every power of L and of beta, the
    diagonals Q_{j,d-j}, F_{m,d-m} and R_{l,d-l} and degree d's verdicts; an
    order's verdict is all() over degrees 0..order.  A higher order extends
    the kept prefix, so beta and L must agree, on the common prefix, with
    every pair given before.  Both hold at least order + 1 coefficients.
    """

    def __init__(self):
        self._PL, self._Q, self._F = [], [], []  # [u^m] L^j, Q_{j,l}, F_{m,l}
        self._PB, self._R = [], []  # [z^a] beta^m, R_{l,a}
        self._ok = {"unit": [], "commutativity": [], "associativity": [], "exp_identity": []}
        self._lock = threading.Lock()

    def law(self, beta, log, order: int) -> list[list]:
        """F to total order ``order``: row m holds F_{m,l} for l <= order - m."""
        with self._lock:
            F = self._grow(beta, log, order)
            return [F[m][: order + 1 - m] for m in range(order + 1)]

    def axioms(self, beta, log, order: int) -> dict[str, bool]:
        """Each axiom's verdict "residual is zero" to total order ``order``.
        Associativity's is the exponential identity's: False means "not established"."""
        with self._lock:
            self._grow(beta, log, order)
            for d in range(len(self._ok["unit"]), order + 1):
                self._check(beta, d)
            return {name: all(ok[: order + 1]) for name, ok in self._ok.items()}

    def _grow(self, b, L, order) -> list:
        PL, Q, F = self._PL, self._Q, self._F
        for d in range(len(F), order + 1):
            _extend_powers(PL, L, d)
            Q.append([])
            F.append([])
            for j in range(d + 1):
                ns = range(max(j, 1), d + 1)
                Q[j].append(dot(((b[n], PL[n - j][d - j]) for n in ns), (comb(n, j) for n in ns)))
            for m in range(d + 1):
                F[m].append(dot((PL[j][m], Q[j][d - m]) for j in range(m + 1)))
        return F

    def _check(self, b, d) -> None:
        F, PB, R, ok = self._F, self._PB, self._R, self._ok
        _extend_powers(PB, b, d)
        R.append([])
        for l in range(d + 1):
            R[l].append(dot((F[m][l], PB[m][d - l]) for m in range(d - l + 1)))
        ok["unit"].append(F[d][0] == (ONE if d == 1 else ZERO))
        ok["commutativity"].append(all(F[m][d - m] == F[d - m][m] for m in range(d + 1)))
        ok["exp_identity"].append(all(
            dot((R[l][a], PB[l][d - a]) for l in range(d - a + 1)) == comb(d, a) * b[d]
            for a in range(d + 1)))
        ok["associativity"].append(ok["exp_identity"][-1])


# The group law F and its axioms' verdicts so far, by total degree.
_LAW = GroupLaw()


def group_law_axioms(order: int) -> dict[str, bool]:
    """The axioms of the universal group law to total order ``order``, each
    named and read as in GroupLaw.axioms (associativity off the exponential
    identity), from the kept logarithm.  One GroupLaw serves every order, so
    each degree is checked once."""
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
