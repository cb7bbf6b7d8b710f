import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from thetacob.core import partitions_of
from thetacob.gradedring import GradedPoly, ONE, ZERO, t
from thetacob.series import (
    BiTruncSeries,
    CompositionDomainError,
    NonInvertibleSeriesError,
    NotNormalizedError,
    TruncSeries,
    TruncationError,
    eval_series_at,
    fgl,
    fgl_axiom_residuals,
    format_series,
    residue_extract,
)
from thetacob.cobordism import beta, beta_over_z


# -- reference routes: reversion by composition, the group law by Horner ----------------
#
# The package reverts by Lagrange-Buermann inversion and builds the group law
# from univariate powers of the logarithm; these routes solve f(g) = z order by
# order and evaluate beta(L(u) + L(v)) by bivariate Horner steps instead.

def _revert_by_composition(f):
    """Compositional inverse g with f(g(z)) = g(f(z)) = z.

    Solved order by order: the coefficient of z^m in f(g) is g_m plus
    terms involving only g_1..g_{m-1}, so each step is a triangular
    read-off.  Needs f_0 = 0 and f_1 = 1.
    """
    if not f.coeffs[0].is_zero() or f.coeffs[1] != ONE:
        raise NotNormalizedError("reversion needs f_0 = 0 and f_1 = 1")
    n = f.order
    g = [ZERO, ONE]
    for m in range(2, n + 1):
        partial = TruncSeries(g + [ZERO], order=m)
        h = f.truncated(m, grade_shift=None).compose(partial)
        g.append(-h.coeffs[m])
    shift = 1 if f.grade_shift == 1 else None
    return TruncSeries(g, order=n, grade_shift=shift)


def _fgl_by_horner(beta_series, order):
    """The formal group law F(u, v) = beta(beta^{-1}(u) + beta^{-1}(v)).

    F is the universal group law of geometric cobordisms over the theta
    basis; its exponential is beta.
    """
    if order > beta_series.order:
        raise TruncationError("formal group order exceeds series truncation")
    b = beta_series.truncated(order)
    lg = _revert_by_composition(b)
    u = BiTruncSeries.var(0, order)
    v = BiTruncSeries.var(1, order)
    s = eval_series_at(lg, u) + eval_series_at(lg, v)
    return eval_series_at(b, s)


def _random_normalised(rng, order):
    """z + sum_{m>=2} r_m z^m with small seeded rationals, some of them zero."""
    coeffs = [0, 1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(order - 1)]
    return TruncSeries.from_rationals(coeffs, order)


def test_revert_matches_composition_oracle():
    for n in range(2, 11):
        b = beta(n)
        new, old = b.revert(), _revert_by_composition(b)
        assert new == old and new.grade_shift == old.grade_shift == 1
    rng = random.Random(31)
    for n in (2, 3, 5, 8, 12):
        for _ in range(3):
            f = _random_normalised(rng, n)
            assert f.revert() == _revert_by_composition(f)


def test_fgl_matches_horner_oracle():
    for n in range(1, 11):
        assert fgl(beta(max(n, 2)), n) == _fgl_by_horner(beta(max(n, 2)), n)
    rng = random.Random(32)
    for n in (1, 2, 4, 7, 9):
        f = _random_normalised(rng, n)
        assert fgl(f, n) == _fgl_by_horner(f, n)


def _normalised_series(max_order):
    monomial = st.integers(0, 4).flatmap(lambda w: st.sampled_from(partitions_of(w)))
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    poly = st.dictionaries(monomial, coeff, max_size=3).map(GradedPoly)
    return st.integers(1, max_order).flatmap(
        lambda n: st.lists(poly, min_size=n - 1, max_size=n - 1).map(
            lambda tail: TruncSeries([ZERO, ONE] + tail, order=n)))


@settings(max_examples=40, deadline=None)
@given(f=_normalised_series(6))
def test_revert_property(f):
    g = f.revert()
    assert f.compose(g) == TruncSeries.identity(f.order)
    assert g.revert() == f


def test_inv_geometric_series():
    one_plus_z = TruncSeries.from_rationals([1, 1], 8)
    inv = one_plus_z.inv()
    for m in range(9):
        assert inv[m] == GradedPoly.const(Fraction((-1) ** m))


def test_inv_requires_constant_unit():
    with pytest.raises(NonInvertibleSeriesError):
        TruncSeries.identity(5).inv()
    with pytest.raises(NonInvertibleSeriesError):
        TruncSeries([t(1), ONE], order=4).inv()


def test_qv_times_beta_over_z_is_one():
    qv = beta_over_z(10).inv()
    prod = qv * beta_over_z(10)
    assert prod[0] == ONE
    for m in range(1, 11):
        assert prod[m].is_zero()


def test_pow_beta_squared_golden():
    b = beta(6)
    b2 = b ** 2
    assert b2[2] == ONE
    assert b2[3] == t(1)  # hand expansion; cross-checked by the residue below
    assert residue_extract(b, 2, 1) == 6 * t(1)


def test_compose_identity_and_rational_example():
    f = TruncSeries.from_rationals([1] * 9, 8)  # 1/(1-z)
    z = TruncSeries.identity(8)
    assert f.compose(z) == f
    g = TruncSeries.from_rationals([0, 0, 1], 8)  # z^2
    comp = f.compose(g)
    for m in range(9):
        expected = 1 if m % 2 == 0 else 0
        assert comp[m] == GradedPoly.const(expected)
    with pytest.raises(CompositionDomainError):
        f.compose(TruncSeries.from_rationals([1, 1], 8))


def test_revert_golden_coefficients():
    # order-by-order solve: g2 = -t1/2, g3 = t1^2/2 - t2/6
    lg = beta(6).revert()
    assert lg[1] == ONE
    assert lg[2] == Fraction(-1, 2) * t(1)
    assert lg[3] == Fraction(1, 2) * t(1) ** 2 - Fraction(1, 6) * t(2)


def test_revert_is_compositional_inverse_and_involutive():
    b = beta(8)
    lg = b.revert()
    comp = b.compose(lg)
    assert comp[1] == ONE and all(comp[m].is_zero() for m in (0, 2, 3, 4, 5, 6, 7, 8))
    comp2 = lg.compose(b)
    assert comp2[1] == ONE and all(comp2[m].is_zero() for m in (0, 2, 3, 4, 5, 6, 7, 8))
    assert lg.revert() == b


def test_revert_normalization_errors():
    with pytest.raises(NotNormalizedError):
        TruncSeries.from_rationals([1, 1], 4).revert()
    with pytest.raises(NotNormalizedError):
        TruncSeries.from_rationals([0, 2], 4).revert()
    assert TruncSeries.identity(5).revert() == TruncSeries.identity(5)


def test_exp_log_golden():
    lw = beta_over_z(6).log()
    assert lw[0].is_zero()
    assert lw[1] == Fraction(1, 2) * t(1)
    assert lw[2] == Fraction(1, 6) * t(2) - Fraction(1, 8) * t(1) ** 2
    one = TruncSeries.const(1, 6)
    assert one.log().is_zero()


def test_exp_log_inverse():
    f = beta_over_z(8)
    assert f.log().exp() == f
    g = TruncSeries([ZERO, t(1), t(2), t(1) * t(2)], order=6)
    assert g.exp().log() == g.truncated(6)


def test_exp_log_preconditions():
    with pytest.raises(Exception):
        TruncSeries.const(2, 4).log()
    with pytest.raises(Exception):
        TruncSeries.from_rationals([1, 1], 4).exp()


def test_residue_extraction_goldens():
    b = beta(12)
    assert residue_extract(b, 2, 1) == 6 * t(1)
    for n in range(1, 9):
        assert residue_extract(b, n, n) == GradedPoly.const(factorial(n + 1))
    # the k = n-1 closed form: (n(n+1)/2) n! t1
    for n in range(2, 7):
        expected = Fraction(n * (n + 1), 2) * factorial(n) * t(1)
        assert residue_extract(b, n, n - 1) == expected
    assert residue_extract(b, 3, 2) == 36 * t(1)
    # the k = 1 closed form: binomial convolution over t_k t_{n-k-1}
    from math import comb
    for n in range(2, 8):
        convolution = ZERO
        for k in range(0, n):
            convolution = convolution + comb(n + 1, k + 1) * (
                GradedPoly.gen(k) * GradedPoly.gen(n - k - 1))
        assert residue_extract(b, n, 1) == convolution


def test_residue_truncation_error():
    with pytest.raises(TruncationError):
        residue_extract(beta(4), 5, 1)


def test_grade_shift_tracking():
    b = beta(8)
    assert b.grade_shift == 1
    assert (b * b).grade_shift == 2
    assert beta_over_z(8).grade_shift == 0
    assert beta_over_z(8).inv().grade_shift == 0
    assert b.revert().grade_shift == 1
    with pytest.raises(ValueError):
        TruncSeries([ZERO, t(2)], order=1, grade_shift=1)


def test_format_series():
    b = beta(3)
    assert format_series(b) == "z + 1/2*t1*z^2 + 1/6*t2*z^3"
    assert format_series(TruncSeries.zero(4)) == "0"
    s = TruncSeries([ZERO, ONE, Fraction(3, 2) * t(1) ** 2 - t(2)], order=2)
    assert format_series(s) == "z + (-t2 + 3/2*t1^2)*z^2"


def test_bivariate_mul_and_symmetry():
    u = BiTruncSeries.var(0, 4)
    v = BiTruncSeries.var(1, 4)
    prod = (u + v) * (u + v)
    assert prod.coefficient(2, 0) == ONE
    assert prod.coefficient(1, 1) == GradedPoly.const(2)
    assert prod.is_symmetric()


def test_fgl_low_order():
    F = fgl(beta(6), 6)
    assert F.coefficient(1, 0) == ONE
    assert F.coefficient(0, 1) == ONE
    assert F.coefficient(1, 1) == t(1)
    assert F.is_symmetric()
    assert F.restrict_second_to_zero() == TruncSeries.identity(6)


def test_fgl_axioms():
    res = fgl_axiom_residuals(beta(8), order=8, assoc_order=6)
    assert res == {"unit": True, "commutativity": True,
                   "associativity": True, "exp_identity": True}


def test_eval_series_at_rejects_constant_terms():
    with pytest.raises(CompositionDomainError):
        eval_series_at(beta(4), BiTruncSeries({(0, 0): ONE}, order=4))
