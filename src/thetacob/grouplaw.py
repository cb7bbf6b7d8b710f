"""The formal group law F(u, v) = beta(L(u) + L(v)) of an exponential beta
and its logarithm L, and the group-law axioms, by total degree.

GroupLaw reads beta and L as plain coefficient sequences, [z^m] at index m,
so it needs no series type: F comes from the univariate powers of L instead
of composing bivariate series, and each axiom is read off coefficients of
powers of beta and of F, degree by degree, so that a kept law grows by the
missing degrees only; associativity is read off the exponential identity.
cobordism keeps one law over the universal series' coefficient tuples;
series.fgl wraps F in a BiTruncSeries for library callers and the tests.
"""

from __future__ import annotations

import threading
from math import comb

from .gradedring import ONE, ZERO, dot


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
