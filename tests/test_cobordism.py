from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from thetacob.core import Partition, bernoulli, partitions_of
from thetacob.gradedring import ONE, GradedPoly, parse_poly, t
from thetacob import cobordism
from thetacob.acceptance import _v_by_jacobi_trudi
from thetacob.cli import main
from thetacob.series import TruncSeries, fgl, fgl_axiom_residuals
from thetacob.symfun import ChernVector, FrameBasisError, convert, to_normal_monomial
from thetacob.cobordism import (
    GroupLaw,
    beta_coefficients,
    cp_classes,
    decompose,
    group_law_axioms,
    log_coefficients,
    psi_on_class,
    q_multiplier,
    theta_power_class,
    v_classes,
    w_classes,
)
from thetacob.genera import theta_normal_vector, theta_tangent_product_vector
from conftest import beta, beta_over_z, log_series

P = Partition


# -- reference Chern data, read only by the tests ------------------------------------


def cp_tangent_chern_vector(n: int) -> ChernVector:
    """Tangent monomial Chern numbers of complex projective n-space.

    Textbook data from the total Chern class (1+z)^{n+1}: all n+1 Chern
    roots equal the hyperplane class, so the monomial number for lam is
    the count of distinct arrangements of lam in n+1 slots.
    """
    values = {}
    for lam in partitions_of(n):
        mult = 1
        remaining = n + 1
        for part in sorted(set(lam)):
            m = lam.count(part)
            mult *= comb(remaining, m)
            remaining -= m
        values[lam] = Fraction(mult)
    return ChernVector(n, "tangent", "monomial", values)


def product_chern_vector(a: ChernVector, b: ChernVector) -> ChernVector:
    """Chern numbers of a product manifold from those of the factors.

    Valid in the monomial basis in either frame (both frames obey the same
    splitting rule): the value on lam is the sum over weight-respecting
    splittings lam = mu + nu of the factor values.
    """
    if a.basis != "monomial" or b.basis != "monomial" or a.frame != b.frame:
        raise FrameBasisError("product rule needs monomial vectors in a common frame")
    n = a.weight + b.weight
    values = {lam: Fraction(0) for lam in partitions_of(n)}
    for lam in partitions_of(n):
        total = Fraction(0)
        for mu in partitions_of(a.weight):
            if not Counter(mu) - Counter(lam):  # mu is a sub-multiset of lam
                nu = Partition((Counter(lam) - Counter(mu)).elements())
                total += a.values[mu] * b.values[nu]
        values[lam] = total
    return ChernVector(n, a.frame, "monomial", values)


def test_beta_coefficients():
    b = beta(8)
    assert b[0].is_zero()
    assert b[1] == ONE
    assert b[2] == Fraction(1, 2) * t(1)
    for n in range(1, 8):
        assert b[n + 1] == Fraction(1, factorial(n + 1)) * t(n)


def test_beta_todd_specialisation_is_alternating_exponential():
    # substituting t_n -> (-1)^n must turn beta into 1 - exp(-z)
    b = beta(10)
    for m in range(1, 11):
        value = b[m].substitute(lambda n: Fraction((-1) ** n))
        assert value == Fraction((-1) ** (m - 1), factorial(m))


def test_mischenko_and_cp_classes():
    lg = log_coefficients(8)
    cps = cp_classes(7)
    for n in range(1, 7):
        assert cps[n] == (n + 1) * lg[n + 1]
    assert cps[1] == -t(1)
    assert cps[2] == parse_poly("3/2*t1^2 - 1/2*t2")
    todd = lambda n: Fraction((-1) ** n)
    for n in range(7):
        assert cps[n].substitute(todd) == 1


@pytest.mark.parametrize("calls", [
    [("log", n) for n in range(2, 13)],
    [("log", n) for n in range(12, 1, -1)],
    [("cp", 9), ("log", 4), ("cp", 3), ("log", 12), ("cp", 11), ("log", 7), ("cp", 5),
     ("log", 2), ("cp", 2), ("log", 10)],
], ids=["ascending", "descending", "interleaved"])
def test_log_and_cp_classes_do_not_depend_on_call_order(empty_prefix_caches, calls):
    for kind, n in calls:
        if kind == "log":
            assert list(log_coefficients(n)) == beta(n).revert().coeffs
        else:
            lg = beta(n + 1).revert()
            assert cp_classes(n) == (ONE,) + tuple((m + 1) * lg[m + 1] for m in range(1, n))


@pytest.mark.parametrize("orders", [range(16, 1, -1), range(2, 17)], ids=["descending", "ascending"])
def test_orders_share_their_prefix(empty_prefix_caches, orders):
    """Orders a < b <= 16 read the same coefficient and class objects up to
    index a: each coefficient is computed once, whichever order asks first."""
    views = {"beta": beta_coefficients, "log": log_coefficients, "cp": cp_classes,
             "v": v_classes, "w": w_classes}
    got = {(name, n): view(n) for n in orders for name, view in views.items()}
    for (name, a), short in got.items():
        for b in range(a + 1, 17):
            long = got[name, b]
            assert all(short[i] is long[i] for i in range(len(short))), (name, a, b)


@pytest.mark.parametrize("orders", [range(1, 13), range(12, 0, -1)], ids=["ascending", "descending"])
def test_fgl_from_the_kept_log_matches_a_fresh_reversion(empty_prefix_caches, orders):
    for n in orders:
        b = beta(max(n, 2))
        assert fgl(b, n, log=log_series(max(n, 2))) == fgl(b, n), n


def test_group_law_at_order_zero(empty_prefix_caches):
    assert fgl_axiom_residuals(beta(4), 0) == group_law_axioms(0)
    assert fgl(beta(4), 0) == fgl(beta(4), 0, log=log_series(2))


def _fgl_check_text(capsys, n):
    assert main(["fgl", "check", "--order", str(n)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("orders", [
    [1, 4, 8, 12],
    [12, 8, 4, 1],
    [10, 3, 16, 7],
], ids=["ascending", "descending", "interleaved"])
def test_group_law_axioms_do_not_depend_on_call_order(empty_prefix_caches, capsys,
                                                      monkeypatch, orders):
    kept, longest = cobordism._LAW, 0
    for n in orders:
        assert group_law_axioms(n) == fgl_axiom_residuals(beta(max(n, 2)), n), n
        text = _fgl_check_text(capsys, n)
        with monkeypatch.context() as m:
            m.setattr(cobordism, "_LAW", GroupLaw())
            assert text == _fgl_check_text(capsys, n), n
        # one kept law, checked to the longest order asked
        longest = max(longest, n)
        assert len(kept._F) == len(kept._ok["unit"]) == longest + 1


@pytest.mark.parametrize("orders", [
    range(1, 13),
    range(12, 0, -1),
    [9, 4, 12, 1, 7, 2, 10, 5],
], ids=["ascending", "descending", "interleaved"])
def test_v_classes_do_not_depend_on_call_order(empty_prefix_caches, orders):
    for n in orders:
        qv = beta_over_z(n).inv()
        assert v_classes(n) == (ONE,) + tuple(
            ((-1) ** m * factorial(m + 1)) * qv[m] for m in range(1, n + 1)), n


# -- the closed forms against the series routes -----------------------------------------
#
# Every coefficient of the logarithm, of (beta(z)/z)^(-1) and of log(beta(z)/z)
# is one sum over partitions (gradedring.partition_sum); the generic series
# routes, Lagrange-Buermann reversion, the multiplicative inverse and the
# logarithm recurrence, are their oracles.  Each route's coefficients do not
# depend on the order it is run to, so one run to order 20 serves every order.

ORACLE_ORDER = 20


@pytest.fixture(scope="module")
def oracle_series():
    return {"log": beta(ORACLE_ORDER).revert().coeffs,
            "inv": beta_over_z(ORACLE_ORDER).inv().coeffs,
            "ln": beta_over_z(ORACLE_ORDER).log().coeffs}


@pytest.mark.parametrize("order", range(1, ORACLE_ORDER + 1))
def test_closed_forms_match_the_series_routes(empty_prefix_caches, oracle_series, order):
    assert list(log_coefficients(order)) == oracle_series["log"][:order + 1]
    inv, ln = oracle_series["inv"], oracle_series["ln"]
    assert v_classes(order) == (ONE,) + tuple(
        ((-1) ** n * factorial(n + 1)) * inv[n] for n in range(1, order + 1))
    assert w_classes(order) == tuple(factorial(n) * ln[n] for n in range(order + 1))


def test_v_classes_printed_forms():
    vs = v_classes(5)
    assert vs[0] == ONE
    assert vs[1] == t(1)
    assert vs[2] == parse_poly("-t2 + 3/2*t1^2")
    assert vs[3] == parse_poly("t3 - 4*t1*t2 + 3*t1^3")
    assert vs[4] == parse_poly("-t4 + 5*t1*t3 - 15*t1^2*t2 + 10/3*t2^2 + 15/2*t1^4")
    assert vs[5] == parse_poly(
        "t5 - 6*t1*t4 + 30*t1*t2^2 - 60*t1^3*t2 - 10*t2*t3 + 45/2*t1^2*t3 + 45/2*t1^5")


def test_v_classes_match_jacobi_trudi():
    vs = v_classes(12)
    for n in range(1, 13):
        assert _v_by_jacobi_trudi(n) == vs[n], n


def test_v_classes_inverse_relation():
    vs = v_classes(10)
    qv = TruncSeries(
        [Fraction((-1) ** n, factorial(n + 1)) * vs[n] for n in range(11)], order=10)
    prod = qv * beta_over_z(10)
    assert prod[0] == ONE and all(prod[m].is_zero() for m in range(1, 11))


def test_hurwitz_integrality_of_y():
    vs = v_classes(10)
    for n in range(1, 11):
        y = vs[n].substitute(lambda j: (j + 1) * t(j)) * Fraction(1, n + 1)
        assert y.is_integral(), n
    y2 = vs[2].substitute(lambda j: (j + 1) * t(j)) * Fraction(1, 3)
    assert y2 == -t(2) + 2 * t(1) ** 2  # -x2 + 2 x1^2 in the scaled coordinates


def test_w_classes():
    ws = w_classes(6)
    assert ws[0].is_zero()
    assert ws[1] == Fraction(1, 2) * t(1)
    assert ws[2] == Fraction(1, 3) * t(2) - Fraction(1, 4) * t(1) ** 2
    for n in range(1, 7):
        assert ws[n].is_homogeneous(n)


def test_q_multipliers():
    # denominators of (n+1) B_n: e.g. 11*B_10 = 55/66 = 5/6 gives q_10 = 6
    assert [q_multiplier(n) for n in range(1, 11)] == [1, 2, 1, 6, 1, 6, 1, 10, 1, 6]
    for n in range(1, 11):
        assert (q_multiplier(n) * (n + 1) * bernoulli(n)).denominator == 1


def test_decompose_theta_vectors():
    for n in range(1, 7):
        assert decompose(theta_normal_vector(n)) == t(n)
    zero_vec = ChernVector.build(
        2, "normal", "monomial", {lam: 0 for lam in partitions_of(2)})
    assert decompose(zero_vec).is_zero()


def _decompose_tangent(c: ChernVector) -> GradedPoly:
    """The tangent route: (-1)^n sum over partitions of c_lam * v^lam / (lam+1)!,
    decompose() of the same values read as normal ones, with t_n -> v_n."""
    n = c.weight
    same_sum = decompose(ChernVector(n, "normal", "monomial", c.values))
    return same_sum.substitute(v_classes(n)) * (-1) ** n


def _tangent_monomial(n: int) -> ChernVector:
    return convert(theta_tangent_product_vector(n), "tangent", "monomial")


def test_decompose_tangent_theta2():
    mono = _tangent_monomial(2)
    assert decompose(to_normal_monomial(mono)) == _decompose_tangent(mono) == t(2)


def test_decompose_frame_guards():
    for vec in (theta_tangent_product_vector(2), _tangent_monomial(2),
                convert(theta_normal_vector(2), "normal", "chern_product")):
        with pytest.raises(FrameBasisError):
            decompose(vec)


def test_decompose_routes_agree_on_reference_manifolds():
    # theta loci, their products, and low projective spaces
    cases = [_tangent_monomial(n) for n in (1, 2, 3, 4)]
    cases.append(cp_tangent_chern_vector(1))
    cases.append(cp_tangent_chern_vector(2))
    t1, t2 = _tangent_monomial(1), _tangent_monomial(2)
    cases.append(product_chern_vector(t1, t1))
    cases.append(product_chern_vector(t2, t1))
    for tangent in cases:
        normal = to_normal_monomial(tangent)
        assert decompose(normal) == _decompose_tangent(tangent)


def test_decompose_products_hit_theta_monomials():
    t1, t2 = _tangent_monomial(1), _tangent_monomial(2)
    for a, b in ((t1, t1), (t2, t1)):
        product = to_normal_monomial(product_chern_vector(a, b))
        assert decompose(product) == GradedPoly.monomial((a.weight, b.weight))


def test_cp_chern_vectors():
    cp2 = cp_tangent_chern_vector(2)
    assert cp2.values == {P((2,)): 3, P((1, 1)): 3}
    cp3 = cp_tangent_chern_vector(3)
    # total class (1+z)^4: c_(3) counts 4 slots, c_(2,1) ordered pairs, etc.
    assert cp3.values[P((3,))] == 4
    assert cp3.values[P((2, 1))] == 12
    assert cp3.values[P((1, 1, 1))] == 4
    assert decompose(to_normal_monomial(cp2)) == cp_classes(3)[2]
    assert decompose(to_normal_monomial(cp3)) == cp_classes(4)[3]


def test_adams_operations():
    def adams(k, order):  # (1/k) beta(k L(u)) on the universal series
        return beta(order).compose(log_series(order).scale(Fraction(k))).scale(Fraction(1, k))

    assert adams(1, 6) == TruncSeries.identity(6)
    psi2 = adams(2, 6)
    assert psi2[1] == ONE
    assert psi2[2] == Fraction(1, 2) * t(1)
    # (1/k) beta(k z) is psi_on_class(k, .) on each coefficient of beta
    for k in (2, 3):
        scaled = beta(8).compose(TruncSeries.identity(8).scale(k)).scale(Fraction(1, k))
        assert scaled.coeffs == [psi_on_class(k, c) for c in beta_coefficients(8)], k
    assert psi_on_class(3, t(2)) == 9 * t(2)
    assert psi_on_class(2, t(1) * t(2) + 5) == 8 * t(1) * t(2) + 5
    with pytest.raises(ValueError):
        psi_on_class(0, t(1))


def test_theta_power_scaling():
    for n in range(1, 7):
        for k in (1, 2, 3):
            assert theta_power_class(n, k) == k ** (n + 1) * t(n)
            assert theta_power_class(n, k) == k * psi_on_class(k, t(n))
