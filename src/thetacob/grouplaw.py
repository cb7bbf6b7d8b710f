"""The formal group law F(u, v) = beta(L(u) + L(v)) of an exponential beta
and its logarithm L, and the group-law axioms, by total degree.

GroupLaw reads beta and L as plain coefficient sequences, [z^m] at index m,
so it needs no series type: F comes from the univariate powers of L instead
of composing bivariate series, and each axiom is read off coefficients of
powers of beta and of F, degree by degree, so that a kept law grows by the
missing degrees only.  cobordism keeps one law over the coefficient tuples
of the universal series; series.fgl, which no module of the package calls,
wraps F's coefficients in a BiTruncSeries for library callers and the tests.
"""

from __future__ import annotations

import threading
from math import comb

from .gradedring import ONE, ZERO, dot

# Total order of the associativity check, the one check in three variables.
# Its cost grows fastest with the order: in-process (2-vCPU host), a fresh
# check at order 16 takes 0.09 s with 6 here and 0.15 s with 12.
ASSOC_ORDER = 6


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
    Q_{j,l} = sum_i C(i+j, j) b_{i+j} [v^l]L^i.  Each axiom is a set of
    coefficient identities, each of one total degree d, expanded directly
    (nothing is assumed of F): the unit F_{d,0} = delta_{d,1}; commutativity;
    F(beta(z), beta(w)) = beta(z + w) as sum_l R_{l,a} [w^b]beta^l =
    C(a+b, a) beta_{a+b}, with R_{l,a} = sum_m F_{m,l} [z^a]beta^m; and, to
    total degree ASSOC_ORDER, associativity as the [u^a v^b w^c] identity
    sum_m F_{m,c} Phi_m[a,b] = sum_l F_{a,l} Phi_l[b,c], with Phi_m = F^m.

    Degree d adds one coefficient to every power of L and of beta, the
    diagonals Q_{j,d-j}, F_{m,d-m} and R_{l,d-l}, the degree-d coefficients
    of each Phi_m and degree d's verdicts; an order's verdict is all() over
    degrees 0..order.  A higher order extends the kept prefix, so beta and L
    must agree, on the common prefix, with every pair given before.  Both
    are sequences of at least order + 1 coefficients.
    """

    def __init__(self):
        self._PL, self._Q, self._F = [], [], []  # [u^m] L^j, Q_{j,l}, F_{m,l}
        self._PB, self._R, self._Phi = [], [], []  # [z^a] beta^m, R_{l,a}, (a, b) -> Phi_m[a,b]
        self._ok = {"unit": [], "commutativity": [], "associativity": [], "exp_identity": []}
        self._lock = threading.Lock()

    def law(self, beta, log, order: int) -> list[list]:
        """F to total order ``order``: row m holds F_{m,l} for l <= order - m."""
        with self._lock:
            F = self._grow(beta, log, order)
            return [F[m][: order + 1 - m] for m in range(order + 1)]

    def axioms(self, beta, log, order: int) -> dict[str, bool]:
        """Each axiom's verdict "residual is zero" to total order ``order``."""
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
        F, PB, R, Phi, ok = self._F, self._PB, self._R, self._Phi, self._ok
        _extend_powers(PB, b, d)
        R.append([])
        for l in range(d + 1):
            R[l].append(dot((F[m][l], PB[m][d - l]) for m in range(d - l + 1)))
        ok["unit"].append(F[d][0] == (ONE if d == 1 else ZERO))
        ok["commutativity"].append(all(F[m][d - m] == F[d - m][m] for m in range(d + 1)))
        ok["exp_identity"].append(all(
            dot((R[l][a], PB[l][d - a]) for l in range(d - a + 1)) == comb(d, a) * b[d]
            for a in range(d + 1)))
        if d > ASSOC_ORDER:
            return
        Phi.append({(0, 0): ONE} if d == 0 else {})
        for m in range(d, 0, -1):  # so Phi_{m-1} holds degrees below d only
            for a in range(d + 1):
                Phi[m][a, d - a] = dot((c, F[a - i][d - a - j]) for (i, j), c in Phi[m - 1].items()
                                       if i <= a and j <= d - a)
        ok["associativity"].append(all(
            dot((F[m][c], Phi[m].get((a, b), ZERO)) for m in range(a + b + 1))
            == dot((F[a][l], Phi[l].get((b, c), ZERO)) for l in range(b + c + 1))
            for a in range(d + 1) for b in range(d + 1 - a) for c in [d - a - b]))
