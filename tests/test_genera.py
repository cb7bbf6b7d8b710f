import random
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest

from thetacob.cli_base import MAX_INVARIANTS_N
from thetacob.core import (EMPTY, Partition, TruncationError, bernoulli, catalan,
                           partition_factorial, partitions_of)
from thetacob.gradedring import ONE, GradedPoly, t
from thetacob.landweber import quantize
from thetacob.series import TruncSeries
from thetacob import symfun
from thetacob.symfun import ChernVector, to_normal_monomial
from thetacob.cobordism import (
    cp_classes,
    decompose,
    q_multiplier,
    v_classes,
    w_classes,
)
from thetacob.genera import (
    CongruenceSystem,
    GenusSpec,
    _todd_image,
    classical_congruences,
    classical_system,
    congruence_system,
    custom_genus,
    euler_genus,
    genus_of_poly,
    genus_of_theta,
    genus_preset,
    l_genus,
    lattice_contained_in,
    middle_betti,
    theta_invariants,
    theta_normal_vector,
    theta_signature,
    theta_tangent_product_vector,
    todd_genus,
    tangent_product_functional_to_normal_monomial,
    w_multipliers,
)
from conftest import beta
from test_cobordism import product_chern_vector
from test_landweber import _cartan_ln_apply

P = Partition


def test_genus_presets_on_theta():
    td, eu, lg = todd_genus(12), euler_genus(12), l_genus(12)
    for n in range(1, 13):
        assert genus_of_theta(td, n) == (-1) ** n
        assert genus_of_theta(eu, n) == (-1) ** n * factorial(n + 1)
    assert genus_of_theta(lg, 2) == -2
    for n in range(2, 13, 2):
        expected = Fraction(2 ** (n + 2) * (2 ** (n + 2) - 1)) * bernoulli(n + 2) / (n + 2)
        assert genus_of_theta(lg, n) == expected
    for n in range(1, 12, 2):
        assert genus_of_theta(lg, n) == 0


def test_l_genus_is_the_reciprocal_of_tanh_over_z():
    """Q = z/tanh z, against tanh(z)/z = sum_k 2^{2k+2} (2^{2k+2} - 1) B_{2k+2} z^{2k} / (2k+2)!."""
    order = 60
    tanh_over_z = TruncSeries.from_rationals(
        [Fraction(2 ** (m + 2) * (2 ** (m + 2) - 1)) * bernoulli(m + 2) / factorial(m + 2)
         if m % 2 == 0 else 0 for m in range(order + 1)], order)
    q = TruncSeries.from_rationals(l_genus(order).coefficients(), order)
    assert q * tanh_over_z == TruncSeries.from_rationals([1], order)


def test_genus_spec_validation_and_truncation():
    with pytest.raises(ValueError):
        custom_genus([2, 1], 4)
    spec = custom_genus([1, 1], 4)
    with pytest.raises(TruncationError):
        genus_of_theta(spec, 9)
    for n in (-1, -13):  # not a coefficient counted from the end
        with pytest.raises(ValueError, match="need n >= 0"):
            genus_of_theta(todd_genus(12), n)
    with pytest.raises(ValueError):
        genus_preset("todd-ish", 4)


def test_genus_spec_from_series_and_from_list_agree():
    """GenusSpec takes Q's coefficients as rationals or as the constant
    GradedPolys of a series."""
    for listed in (todd_genus(20), l_genus(20), euler_genus(20),
                   custom_genus(["1", "1/2", "1/12", "-3/7", "5"], 20)):
        series = TruncSeries.from_rationals(listed.coefficients(), 20)
        from_series = GenusSpec(series.coeffs, name=listed.name)
        assert from_series.coefficients() == listed.coefficients()
        assert from_series.order == listed.order == 20
        for n in range(21):
            assert genus_of_theta(from_series, n) == genus_of_theta(listed, n)
    with pytest.raises(ValueError):
        GenusSpec(TruncSeries([ONE, t(1)], order=2).coeffs)
    with pytest.raises(ValueError):
        GenusSpec([1, "1/2"])


def test_genus_of_poly_consistent_with_theta_values():
    for name in ("todd", "l", "euler"):
        spec = genus_preset(name, 8)
        for n in range(1, 9):
            assert genus_of_poly(spec, t(n)) == genus_of_theta(spec, n)


def test_genus_of_v_and_cp_classes():
    td = todd_genus(12)
    eu = euler_genus(12)
    lg = l_genus(10)
    vs = v_classes(8)
    for n in range(1, 9):
        assert genus_of_poly(td, vs[n]) == (n + 1) * bernoulli(n)
    assert genus_of_poly(td, vs[2]) == Fraction(1, 2)
    assert genus_of_poly(eu, vs[1]) == -2
    for n in range(2, 9):
        assert genus_of_poly(eu, vs[n]) == 0
    cps = cp_classes(10)
    for n in range(10):
        assert genus_of_poly(td, cps[n]) == 1
        assert genus_of_poly(lg, cps[n]) == (1 if n % 2 == 0 else 0)


def test_custom_genus_matches_euler():
    spec = custom_genus(["1", "1"], 6)
    for n in range(1, 7):
        assert genus_of_theta(spec, n) == (-1) ** n * factorial(n + 1)


def test_middle_betti_catalan_form():
    """The binomial correction n/(n+2) C(2n+2, n+1) is n C_(n+1), the form
    middle_betti computes, for every n the CLI accepts."""
    for n in range(1, MAX_INVARIANTS_N + 1):
        correction = Fraction(n, n + 2) * comb(2 * n + 2, n + 1)
        assert correction == n * catalan(n + 1)
        for k in (1, 2, 10 ** 6):
            assert middle_betti(n, k) == k ** (n + 1) * factorial(n + 1) + correction


def test_theta_invariants_tables():
    inv = theta_invariants(2, 1)
    assert inv.betti == (1, 6, 16, 6, 1)
    assert inv.euler == 6
    assert inv.signature == -2
    assert theta_invariants(1, 1).euler == -2  # a genus-two curve
    assert theta_invariants(1, 1).betti == (1, 4, 1)
    for n in range(1, 7):
        for k in (1, 2, 3):
            inv = theta_invariants(n, k)
            assert inv.euler == (-1) ** n * k ** (n + 1) * factorial(n + 1)
            for j in range(n):
                assert inv.betti[j] == comb(2 * n + 2, j)
                assert inv.betti[2 * n - j] == inv.betti[j]
            assert inv.betti[n] == middle_betti(n, k)
            assert inv.betti[n] == k ** (n + 1) * factorial(n + 1) + n * catalan(n + 1)
            assert sum((-1) ** j * b for j, b in enumerate(inv.betti)) == inv.euler
            if n % 2 == 0:
                assert inv.signature == theta_signature(n, k)
            else:
                assert inv.signature is None
    inv_k = theta_invariants(3, 2)
    assert inv_k.chern_tangent is None and inv_k.chern_normal is None


def test_signature_integrality():
    for n in range(2, 21, 2):
        assert theta_signature(n).denominator == 1


def test_todd_of_decomposed_theta():
    td = todd_genus(11)
    for n in range(1, 11):
        assert genus_of_poly(td, decompose(theta_normal_vector(n))) == (-1) ** n


def test_euler_of_curve_level_intersections():
    # cutting the n-dimensional theta locus down to a curve leaves
    # Euler characteristic -n (n+1)!
    from thetacob.landweber import intersection_class
    eu = euler_genus(8)
    for n in range(2, 8):
        value = genus_of_poly(eu, intersection_class(n, n - 1))
        assert value == -n * factorial(n + 1)
    # and the point-level cut counts (n+1)! points
    for n in range(1, 8):
        assert genus_of_poly(eu, intersection_class(n, n)) == factorial(n + 1)


def test_congruence_system_low_weights():
    sys1 = congruence_system(1)
    assert sys1.elementary_divisors == (2,)
    assert sys1.basis_hnf == ((2,),)
    sys2 = congruence_system(2)
    assert sys2.elementary_divisors == (1, 12)
    sys3 = congruence_system(3)
    assert sys3.elementary_divisors == (2, 2, 24)


def _milnor_number(k):
    """Milnor's s_k: the prime p when k+1 is a power of p, and 1 otherwise."""
    p = next(d for d in range(2, k + 2) if (k + 1) % d == 0)
    m = k + 1
    while m % p == 0:
        m //= p
    return p if m == 1 else 1


def _invariant_factors(ds):
    """The elementary divisors of diag(ds): every pair replaced by its gcd
    and lcm, which sorts the exponents of each prime."""
    ds = list(ds)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            ds[i], ds[j] = gcd(ds[i], ds[j]), lcm(ds[i], ds[j])
    return tuple(ds)


def test_elementary_divisors_are_milnor_number_products():
    """Z^p(n) / lattice is the sum of the Z/d_lam, d_lam = prod_i s_(lam_i):
    the Milnor generators x_lam have normal Chern vectors that are d_lam
    times an integral unit upper-triangular basis."""
    assert [_milnor_number(k) for k in range(1, 10)] == [2, 3, 2, 5, 1, 7, 2, 3, 1]
    for n in range(11):
        divisors = [1] * len(partitions_of(n))
        for i, lam in enumerate(partitions_of(n)):
            for part in lam:
                divisors[i] *= _milnor_number(part)
        assert congruence_system(n).elementary_divisors == _invariant_factors(divisors), n


def _todd_image_by_quantisation(m, todd):
    """(Td (x) id) S_t(t_m) the long way: the Todd genus of every t-side
    coefficient of the quantisation quantize(t_m), with t' written as t."""
    out = {}
    for (mu, nu), c in quantize(t(m)).items():
        out[nu] = out.get(nu, 0) + c * genus_of_poly(todd, GradedPoly.monomial(mu))
    return GradedPoly(out)


def test_todd_images_match_quantisation_and_stirling():
    images = [_todd_image(m) for m in range(13)]
    todd = todd_genus(13)
    for m in range(13):
        assert images[m] == _todd_image_by_quantisation(m, todd), m
    # Stirling numbers of the second kind, S[n][k]
    S = [[1]]
    for n in range(1, 12):
        S.append([0] + [k * (S[n - 1][k] if k < n else 0) + S[n - 1][k - 1]
                        for k in range(1, n + 1)])
    for m in range(11):
        expected = GradedPoly({Partition((k,)) if k else EMPTY: (-1) ** (m - k) * S[m + 1][k + 1]
                               for k in range(m + 1)})
        assert images[m] == expected, m


def test_todd_images_match_composition_in_any_call_order():
    """The closed form against beta(z/Q(z)) composed once to z^14, and the
    same images whichever weight is asked for first."""
    q = TruncSeries.from_rationals(todd_genus(13).coefficients(), 13)
    composed = beta(14).compose(q.inv().mul_by_z())
    by_composition = [factorial(m + 1) * composed[m + 1] for m in range(13)]
    _todd_image.cache_clear()
    ascending = [_todd_image(m) for m in range(13)]
    _todd_image.cache_clear()
    descending = [_todd_image(m) for m in reversed(range(13))][::-1]
    assert ascending == descending == by_composition


def test_congruence_rows_match_cartan_expansion():
    for n in range(7):
        todd = todd_genus(n + 1)
        rows = []
        for w in range(n + 1):
            for mu in partitions_of(w):
                row = {}
                for lam in partitions_of(n):
                    image = _cartan_ln_apply(mu, GradedPoly.monomial(lam))
                    val = genus_of_poly(todd, image) / partition_factorial(lam)
                    if val:
                        row[lam] = val
                rows.append((mu, row))
        assert congruence_system(n).functionals == tuple(rows), n


def _rows_by_cell_lookup(n):
    """The rows read one coefficient per (mu, lam) cell of the column images:
    the oracle for congruence_system's build from each image's own terms."""
    parts = partitions_of(n)
    columns = {lam: GradedPoly.monomial(lam).substitute(_todd_image) for lam in parts}
    rows = []
    for w in range(n + 1):
        for mu in partitions_of(w):
            row = {}
            for lam in parts:
                val = columns[lam].coeff(mu) * partition_factorial(mu) / partition_factorial(lam)
                if val:
                    row[lam] = val
            rows.append((mu, list(row.items())))
    return rows


@pytest.mark.parametrize("n", range(7, 11))
def test_congruence_rows_match_cell_lookup(n):
    """Rows, row order and key order within each row."""
    rows = [(mu, list(row.items())) for mu, row in congruence_system(n).functionals]
    assert rows == _rows_by_cell_lookup(n)


def _random_vector(rng, n, frame, basis, fractional):
    dens = (1, 2, 3, 12) if fractional else (1,)
    return ChernVector(n, frame, basis, {lam: Fraction(rng.randint(-50, 50), rng.choice(dens))
                                         for lam in partitions_of(n)})


@pytest.mark.parametrize("frame", ["normal", "tangent"])
@pytest.mark.parametrize("basis", ["monomial", "chern_product"])
def test_check_matches_dense_evaluation(frame, basis):
    """Verdicts and failing lists against every row times every partition."""
    rng = random.Random(f"{frame}-{basis}")
    for n in range(9):
        system = congruence_system(n)
        for fractional in (False, True):
            c = _random_vector(rng, n, frame, basis, fractional)
            values = to_normal_monomial(c).values
            dense = [(mu, sum((row.get(lam, 0) * values[lam] for lam in partitions_of(n)),
                              Fraction(0)))
                     for mu, row in system.functionals]
            failing = [(mu, v) for mu, v in dense if v.denominator != 1]
            assert system.check(c) == (not failing, failing), (n, fractional)


def test_check_refuses_a_weight_mismatch_before_converting():
    c = ChernVector(14, "tangent", "chern_product",
                    {lam: Fraction(1) for lam in partitions_of(14)})
    system = congruence_system(2)
    tables = symfun._in_basis.cache_info(), symfun._power_sum_rows.cache_info()
    with pytest.raises(ValueError, match="vector weight 14 != system weight 2"):
        system.check(c)
    assert (symfun._in_basis.cache_info(), symfun._power_sum_rows.cache_info()) == tables


def test_congruence_equivalence_with_classical_lists():
    for n in (1, 2, 3):
        gen, cls = congruence_system(n), classical_system(n)
        assert lattice_contained_in(gen, cls)
        assert lattice_contained_in(cls, gen)
    gen4, cls4 = congruence_system(4), classical_system(4)
    assert lattice_contained_in(gen4, cls4)
    # equality at n=4 is informational; print so the log records the outcome
    print("n=4 classical => generated:", lattice_contained_in(cls4, gen4))


def test_lattice_containment_is_strict_for_the_free_lattice():
    free = CongruenceSystem(weight=2, functionals=(), basis_hnf=((1, 0), (0, 1)),
                            elementary_divisors=(1, 1))
    gen2 = congruence_system(2)
    assert lattice_contained_in(gen2, free)
    assert not lattice_contained_in(free, gen2)


def test_theta_vectors_pass_congruences():
    for n in range(1, 5):
        sysn = congruence_system(n)
        ok, failing = sysn.check(theta_tangent_product_vector(n))
        assert ok, failing
        ok, failing = sysn.check(theta_normal_vector(n))
        assert ok, failing


def test_product_vectors_pass_congruences():
    t1 = theta_normal_vector(1)
    t2 = theta_normal_vector(2)
    prod12 = product_chern_vector(t1, t2)
    ok, failing = congruence_system(3).check(prod12)
    assert ok, failing
    prod111 = product_chern_vector(product_chern_vector(t1, t1), t1)
    ok, failing = congruence_system(3).check(prod111)
    assert ok, failing


def test_failing_vector_reported():
    bad = ChernVector.build(2, "tangent", "chern_product", {(1, 1): 1, (2,): 0})
    ok, failing = congruence_system(2).check(bad)
    assert not ok
    assert failing and failing[0][1] == Fraction(1, 12)


def test_classical_functional_conversion_weight_one():
    row = tangent_product_functional_to_normal_monomial({P((1,)): 1}, 1)
    assert row == {P((1,)): -1}


def test_classical_lists_shape():
    assert len(classical_congruences(1)) == 1
    assert len(classical_congruences(4)) == 3
    with pytest.raises(ValueError):
        classical_congruences(5)


def integrality_multiplier(p):
    """Least q such that q*p passes every Todd-after-operation test: the lcm
    of the denominators of Td(S_mu(p)) over all mu, read off the substitution
    of the generator images into p.  The oracle for w_multipliers."""
    image = p.substitute(_todd_image)
    return lcm(1, *((c * partition_factorial(mu)).denominator for mu, c in image.items()))


def test_integrality_multiplier_matches_q_for_v_classes():
    vs = v_classes(6)
    for n in range(1, 7):
        assert integrality_multiplier(vs[n]) == q_multiplier(n)


def test_integrality_multiplier_matches_cartan_expansion():
    ws = w_classes(8)
    qs = w_multipliers(8)
    for n in range(1, 9):
        todd = todd_genus(n + 1)
        dens = [genus_of_poly(todd, _cartan_ln_apply(mu, ws[n])).denominator
                for w in range(n + 1) for mu in partitions_of(w)]
        assert integrality_multiplier(ws[n]) == qs[n - 1] == lcm(*dens), n


def test_w_multipliers_match_the_substitution_oracle():
    ws = w_classes(16)
    expected = [integrality_multiplier(ws[m]) for m in range(1, 17)]
    for n in range(17):
        assert w_multipliers(n) == expected[:n], n


def test_integrality_multipliers_of_w_classes_are_bernoulli_denominators():
    """The multipliers that `classes wn` prints against the denominator of B_n/n."""
    assert w_multipliers(16) == [(bernoulli(n) / n).denominator for n in range(1, 17)]


def test_integrality_multiplier_on_w_classes():
    ws = w_classes(4)
    # w_1 = t1/2 needs 2
    assert w_multipliers(4)[0] == integrality_multiplier(ws[1]) == 2
    assert integrality_multiplier(2 * ws[1]) == 1
