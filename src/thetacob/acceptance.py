"""Acceptance suite: one check per release criterion, exact unless stated.

Every check either returns a short summary string or raises AssertionError;
run_all() collects (name, passed, detail) triples.  The CLI `selftest`
subcommand and the test suite both consume this registry, so the criteria
run identically in both places.  All rational checks are exact equalities;
the Weierstrass check is weierstrass.verify_lattice at its stated tolerances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .core import EMPTY, Partition, bernoulli, partitions_of
from .gradedring import ONE, ZERO, GradedPoly, _reciprocal, _revert, parse_poly, t
from . import cobordism as cob
from . import landweber as ln
from . import genera
from . import weierstrass as ws

CHECKS: list[tuple[str, object]] = []


# -- the Cartan rule on one factor: an independent route to the operations ----------
#
# S_(k) sends t_h to I(h, k) for k <= h, and S_lam kills t_h when lam has two or
# more parts.  So the Cartan formula peels one generator t_h off a monomial by
#     S_lam(t_h y) = t_h S_lam(y) + sum over distinct parts k <= h of lam of
#                    I(h, k) S_(lam minus one k)(y).
# The package computes the operations from the total operation S_t instead; the
# two routes must agree.


@lru_cache(maxsize=None)
def _cartan_on_factors(lam: Partition, factors: tuple[int, ...]) -> GradedPoly:
    if not factors:
        return ONE if lam == EMPTY else ZERO
    head, tail = factors[0], factors[1:]
    acc = GradedPoly.gen(head) * _cartan_on_factors(lam, tail)
    for k in dict.fromkeys(lam):  # the distinct parts
        if k <= head:
            rest = list(lam)
            rest.remove(k)
            acc = acc + ln.intersection_class(head, k) * _cartan_on_factors(Partition(rest), tail)
    return acc


def _cartan_ln_apply(lam, p: GradedPoly) -> GradedPoly:
    """Apply the operation S_lam to a polynomial in the theta classes."""
    lam = Partition(lam)
    acc = ZERO
    for mono, coeff in p.items():
        acc = acc + coeff * _cartan_on_factors(lam, tuple(mono))
    return acc


# -- the Jacobi-Trudi determinant: an independent route to the dual classes ---------
#
# v_classes inverts the series beta(z)/z.  By Jacobi-Trudi, the same class is
# (n+1)! times the n x n determinant det(e_{1-i+j}) with e_n = t_n/(n+1)!.


def _jacobi_trudi_det(matrix: list[list[GradedPoly]]) -> GradedPoly:
    """Determinant by minor expansion, memoised over column subsets."""
    n = len(matrix)
    memo: dict[frozenset, GradedPoly] = {}

    def minor(r: int, cols: frozenset) -> GradedPoly:
        if r == n:
            return ONE
        if cols in memo:
            return memo[cols]
        acc = ZERO
        for idx, c in enumerate(sorted(cols)):
            entry = matrix[r][c]
            if entry.is_zero():
                continue
            sub = minor(r + 1, cols - {c})
            term = entry * sub
            acc = acc + (term if idx % 2 == 0 else -term)
        memo[cols] = acc
        return acc

    return minor(0, frozenset(range(n)))


def _v_by_jacobi_trudi(n: int) -> GradedPoly:
    """(n+1)! det(e_{1-i+j}) with e_0 = 1, e_n = t_n/(n+1)! and e_{<0} = 0."""
    e = [ONE] + [t(m) * Fraction(1, factorial(m + 1)) for m in range(1, n + 1)]
    matrix = [[e[1 - i + j] if 1 - i + j >= 0 else ZERO for j in range(n)] for i in range(n)]
    return factorial(n + 1) * _jacobi_trudi_det(matrix)


def check(name):
    def register(fn):
        CHECKS.append((name, fn))
        return fn
    return register


@check("1-dual-classes-two-routes")
def dual_classes_exact():
    vs = cob.v_classes(12)
    expected = {
        1: "t1",
        2: "-t2 + 3/2*t1^2",
        3: "t3 - 4*t1*t2 + 3*t1^3",
        4: "-t4 + 5*t1*t3 - 15*t1^2*t2 + 10/3*t2^2 + 15/2*t1^4",
        5: "t5 - 6*t1*t4 + 30*t1*t2^2 - 60*t1^3*t2 - 10*t2*t3 + 45/2*t1^2*t3 + 45/2*t1^5",
    }
    for n, text in expected.items():
        assert vs[n] == parse_poly(text), f"v_{n} mismatch: {vs[n]}"
    for n in range(1, 13):
        assert _v_by_jacobi_trudi(n) == vs[n], f"v_{n}: series inversion and determinant disagree"
    return "v_1..v_5 match the printed forms; inversion and determinant agree"


@check("2-genus-tables")
def genus_tables():
    N = 12
    todd = genera.todd_genus(N)
    euler = genera.euler_genus(N)
    lg = genera.l_genus(N)
    for n in range(1, N + 1):
        assert genera.genus_of_theta(todd, n) == (-1) ** n, f"Td(theta_{n})"
        assert genera.genus_of_theta(euler, n) == (-1) ** n * factorial(n + 1), f"chi(theta_{n})"
    assert genera.genus_of_theta(lg, 2) == -2, "signature of theta_2"
    vs = cob.v_classes(N)
    for n in range(1, N + 1):
        assert genera.genus_of_poly(todd, vs[n]) == (n + 1) * bernoulli(n), f"Td(v_{n})"
    cps = cob.cp_classes(11)
    for n in range(0, 11):
        assert genera.genus_of_poly(todd, cps[n]) == 1, f"Td(cp_{n})"
        assert genera.genus_of_poly(euler, cps[n]) == n + 1, f"chi(cp_{n})"
        expected_l = 1 if n % 2 == 0 else 0
        assert genera.genus_of_poly(lg, cps[n]) == expected_l, f"L(cp_{n})"
    return "Todd/Euler/L values on theta, v and projective classes all exact"


@check("3-landweber-novikov-suite")
def landweber_suite():
    vs = cob.v_classes(9)
    # Master identity behind the v-class actions: S_(k)(Qv) = -z beta^{k-1}.
    # Reading off coefficients (Qv carries (-1)^n v_n/(n+1)!) forces
    # S_(1)(v_1) = +2 and the alternating sign below; see the sign notes in
    # the test suite.
    N = 10
    qv = _reciprocal(cob.beta_coefficients(N + 1)[1:])  # (beta(z)/z)^{-1} to z^N
    b = cob.beta_coefficients(N)
    pw = []  # pw[j][m] = [z^m] beta^j
    for d in range(N + 1):
        cob._extend_powers(pw, b, d)
    for k in range(1, 6):
        lhs = [ln.ln_apply((k,), c) for c in qv]
        assert lhs == [ZERO] + [-c for c in pw[k - 1][:N]], f"S_({k})(Qv) != -z*beta^{k - 1}"
    assert ln.ln_apply(Partition((1,)), vs[1]) == GradedPoly.const(2), "S_(1)(v_1)"
    for n in range(2, 10):
        assert ln.ln_apply(Partition((1,)), vs[n]).is_zero(), f"S_(1)(v_{n})"
        expected = Fraction((-1) ** (n + 1) * n * (n + 1)) * t(n - 2)
        assert ln.ln_apply(Partition((2,)), vs[n]) == expected, f"S_(2)(v_{n})"
    for k in range(1, 5):
        assert [ln.ln_apply((k,), c) for c in b] == pw[k + 1], f"S_({k})(beta) != beta^{k + 1}"
    wsess = cob.w_classes(8)
    for n in range(2, 9):
        assert ln.ln_apply(Partition((1,)), wsess[n]) == t(n - 1), f"S_(1)(w_{n})"
    for n in range(1, 10):
        assert ln.ln_apply(Partition((n,)), t(n)) == GradedPoly.const(factorial(n + 1)), \
            f"S_({n})(t_{n})"
    return "operation actions on v, w, beta and generators all exact"


@check("4-integrality-positivity")
def integrality_positivity():
    for n in range(1, 10):
        for k in range(0, n + 1):
            cls = ln.intersection_class(n, k)
            assert cls.is_integral(), f"intersection class ({n},{k}) not integral"
            assert all(c > 0 for _, c in cls.items()), f"({n},{k}) has nonpositive coefficient"
    vs = cob.v_classes(10)
    for n in range(1, 11):
        y = vs[n].substitute(lambda j: (j + 1) * t(j)) * Fraction(1, n + 1)
        assert y.is_integral(), f"y_{n} not integral in the scaled coordinates"
    for n in range(2, 21, 2):
        sig = genera.theta_signature(n)
        assert sig.denominator == 1, f"signature of theta_{n} not an integer: {sig}"
    return "intersection classes positive-integral, y_n integral, signatures integral"


@check("5-duality-quantisation")
def duality_quantisation():
    for n in range(0, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                expected = Fraction(1 if lam == mu else 0)
                assert ln.dual_pairing(lam, mu) == expected, f"pairing ({lam},{mu})"
    rng = random.Random(90125)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            w = rng.randint(0, 6)
            lam = rng.choice(partitions_of(w)) if w else Partition(())
            terms[lam] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return GradedPoly(terms)

    for _ in range(50):
        p = random_poly()
        assert ln.dequantize(ln.quantize(p)) == p, f"roundtrip failed on {p}"
    for _ in range(10):
        p, q = random_poly(), random_poly()
        pq = p * q
        assert ln.quantize(pq) == ln.quantize(p) * ln.quantize(q), "quantise not multiplicative"
        # quantize is multiplicative by construction; the Cartan recursion is not.
        for w in range(5):
            for lam in partitions_of(w):
                assert ln.ln_apply(lam, pq) == _cartan_ln_apply(lam, pq), \
                    f"S_({lam}) on {pq} differs from the Cartan recursion"
    return "dual pairing is the identity; quantisation round-trips and is multiplicative"


@check("6-formal-group-law")
def formal_group_law():
    b = cob.beta_coefficients(8)
    res = cob.GroupLaw().axioms(b, _revert(b), 8)  # on a Miller-reverted L, not the closed form
    for name, ok in res.items():
        assert ok, f"nonzero {name} residual"
    return "unit, symmetry, associativity and the exponential identity hold exactly"


@check("7-congruence-lattices")
def congruence_lattices():
    gen1 = genera.congruence_system(1)
    assert gen1.elementary_divisors == (2,), f"n=1 divisors {gen1.elementary_divisors}"
    for n in (1, 2, 3):
        gen = genera.congruence_system(n)
        cls = genera.classical_system(n)
        assert genera.lattice_contained_in(gen, cls), f"n={n}: generated !=> classical"
        assert genera.lattice_contained_in(cls, gen), f"n={n}: classical !=> generated"
    gen4 = genera.congruence_system(4)
    cls4 = genera.classical_system(4)
    assert genera.lattice_contained_in(gen4, cls4), "n=4: classical conditions not implied"
    equality4 = genera.lattice_contained_in(cls4, gen4)
    todd = genera.todd_genus(5)
    for n in range(1, 5):
        vec = genera.theta_tangent_product_vector(n)
        ok, failing = genera.congruence_system(n).check(vec)
        assert ok, f"theta_{n} vector fails: {failing}"
        val = genera.genus_of_poly(todd, cob.decompose(genera.theta_normal_vector(n)))
        assert val == (-1) ** n, f"Todd of decomposed theta_{n}"
    note = "equality also holds" if equality4 else "containment strict or unresolved"
    return f"lattices match the classical lists (n=4: {note})"


@check("8-topological-tables")
def topological_tables():
    inv2 = genera.theta_invariants(2, 1)
    assert inv2.betti[2] == 16, "middle Betti of theta_2"
    assert inv2.signature == -2
    for n in range(1, 7):
        for k in (1, 2, 3):
            inv = genera.theta_invariants(n, k)
            for j in range(n):
                assert inv.betti[j] == comb(2 * n + 2, j), f"b_{j}(theta_{n})"
                assert inv.betti[2 * n - j] == inv.betti[j], "Poincare symmetry"
            correction = Fraction(n, n + 2) * comb(2 * n + 2, n + 1)  # middle_betti reads n C_(n+1)
            assert inv.betti[n] == k ** (n + 1) * factorial(n + 1) + correction, \
                f"middle Betti binomial form n={n} k={k}"
            recomputed = sum((-1) ** j * bj for j, bj in enumerate(inv.betti))
            assert recomputed == inv.euler, f"Euler recomputation n={n} k={k}"
            assert cob.theta_power_class(n, k) == k ** (n + 1) * t(n)
            assert cob.theta_power_class(n, k) == k * cob.psi_on_class(k, t(n))
    return "Betti/Euler/Catalan/scaling tables consistent for n <= 6, k <= 3"


@check("9-weierstrass-lemniscatic")
def weierstrass_lemniscatic():
    report = ws.verify_lattice(ws.lemniscatic_lattice())
    failing = [name for name, entry in report.items() if not entry["pass"]]
    assert not failing, f"Weierstrass checks out of tolerance: {', '.join(failing)}"
    return "all lemniscatic closed-form checks within tolerance"


def run_all():
    """Run the registered criteria; returns (name, passed, detail) triples."""
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn() or ""
            results.append((name, True, detail))
        except AssertionError as exc:
            results.append((name, False, str(exc)))
    return results
