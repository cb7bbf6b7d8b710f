import ast
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from thetacob import acceptance
from thetacob.acceptance import _cartan_ln_apply
from thetacob.core import EMPTY, Partition, partition_factorial, partitions_of
from thetacob.gradedring import GradedPoly, ONE, ZERO, t
from thetacob.cobordism import v_classes, w_classes
from thetacob.series import residue_extract
from thetacob.landweber import (
    TensorElement,
    dequantize,
    dual_pairing,
    intersection_class,
    ln_apply,
    quantize,
)
from conftest import beta, beta_over_z

P = Partition


# -- reference route: the recursive Cartan expansion ---------------------------------
#
# `_cartan_ln_apply` lives in thetacob.acceptance, whose criterion 5 checks
# the operations against it as well.


def _cartan_quantize(p: GradedPoly) -> TensorElement:
    """sum over lam of S_lam(p) (x) t'^lam/(lam+1)!, each S_lam from the Cartan route."""
    terms = {}
    for w in range(p.top_weight() + 1):
        for lam in partitions_of(w):
            for mu, c in _cartan_ln_apply(lam, p).items():
                terms[(mu, lam)] = c / partition_factorial(lam)
    return TensorElement(terms)


# -- reference route: the tensor product term by term --------------------------------
#
# Tensors as dicts (mu, nu) -> Fraction, multiplied one pair of terms at a
# time; `_times_by_terms` is the former TensorElement.times.


def _times_by_terms(left: dict, right: dict, keep=None) -> dict:
    out: dict[tuple[Partition, Partition], Fraction] = {}
    for (m1, n1), c1 in left.items():
        for (m2, n2), c2 in right.items():
            nu = Partition((*n1, *n2))
            if keep is not None and nu not in keep:
                continue
            key = (Partition((*m1, *m2)), nu)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _generator_terms(n: int) -> dict:
    """S_t(t_n) = sum_k I(n, k) (x) t'_k / (k+1)!, term by term."""
    return {(mu, P((k,)) if k else EMPTY): c / factorial(k + 1)
            for k in range(n + 1) for mu, c in intersection_class(n, k).items()}


def _substitute_by_terms(p: GradedPoly, keep=None) -> dict:
    total: dict = {}
    for mono, c in p.items():
        term = {(EMPTY, EMPTY): c}
        for n in mono:
            term = _times_by_terms(term, _generator_terms(n), keep)
        for key, v in term.items():
            total[key] = total.get(key, 0) + v
    return {key: v for key, v in total.items() if v}


def _ln_apply_by_terms(lam: Partition, p: GradedPoly) -> GradedPoly:
    keep = {sub for w in range(lam.weight + 1) for sub in partitions_of(w)
            if all(sub.count(part) <= lam.count(part) for part in sub)}
    return GradedPoly({mu: c * partition_factorial(lam)
                       for (mu, nu), c in _substitute_by_terms(p, keep).items() if nu == lam})


def _random_poly(rng, max_weight, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = rng.randint(0, max_weight)
        lam = rng.choice(partitions_of(w)) if w else EMPTY
        terms[lam] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return GradedPoly(terms)


def test_generator_action_table():
    assert ln_apply(P((1,)), t(1)) == GradedPoly.const(2)
    for n in range(1, 8):
        assert ln_apply(P((n,)), t(n)) == GradedPoly.const(factorial(n + 1))
    assert ln_apply(P((3,)), t(2)).is_zero()                  # k > n
    assert ln_apply(P((1, 1)), t(3)).is_zero()                # non-one-part
    assert ln_apply(EMPTY, t(3)) == t(3)                      # identity operation
    assert intersection_class(2, 1) == 6 * t(1)
    assert intersection_class(3, 2) == 36 * t(1)


@pytest.mark.parametrize("n", [*range(17), 30])
def test_intersection_classes_match_the_residues(n):
    """The partition sum against (n+1)! [z^(n+1)] of a power of the series beta."""
    b = beta(max(n + 1, 2))
    for k in (range(n + 1) if n <= 16 else (0, 1, 15, 29, 30)):
        assert intersection_class(n, k) == residue_extract(b, n, k), (n, k)
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        intersection_class(n, n + 1)


def test_cartan_rule_products():
    # S_(2,1)(t2 t1) splits as S_(2)(t2) S_(1)(t1) only
    assert ln_apply(P((2, 1)), t(2) * t(1)) == GradedPoly.const(12)
    assert ln_apply(P((1, 1)), t(1) * t(1)) == GradedPoly.const(4)
    assert ln_apply(P((3,)), t(2) * t(1)).is_zero()
    # linearity over rationals
    p = Fraction(2, 3) * t(2) - 5 * t(1) ** 2
    img = ln_apply(P((1,)), p)
    assert img == Fraction(2, 3) * intersection_class(2, 1) - 5 * (2 * 2 * t(1))


def test_operations_match_cartan_expansion():
    rng = random.Random(67)
    polys = [_random_poly(rng, 8) for _ in range(12)]
    polys += [t(3) * t(2) * t(1) ** 2, t(4) ** 2, t(1) ** 6]
    for p in polys:
        for w in range(9):
            for lam in partitions_of(w):
                assert ln_apply(lam, p) == _cartan_ln_apply(lam, p), (lam, p)
        assert quantize(p) == _cartan_quantize(p), p


def test_cartan_route_reads_none_of_the_code_it_checks():
    """The oracle reads intersection_class alone, never S_t or its kernel."""
    source = Path(acceptance.__file__).read_text()
    under_test = {"ln_apply", "quantize", "dequantize", "dual_pairing", "_generator_image",
                  "_substitute", "_grouped_dot"}
    oracles = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)
               and node.name in ("_cartan_on_factors", "_cartan_ln_apply")]
    assert len(oracles) == 2
    for fn in oracles:
        names = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(fn)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not names & under_test, (fn.name, names & under_test)


def _polys(max_weight):
    monomial = st.integers(0, max_weight).flatmap(
        lambda w: st.sampled_from(partitions_of(w)))
    # Every a/d with d <= 12 and |a/d| <= 20, the values of st.fractions(-20, 20,
    # max_denominator=12), drawn as two integers, which is faster to draw.
    coeff = st.builds(lambda a, d: Fraction((a + 20 * d) % (40 * d + 1) - 20 * d, d),
                      st.integers(-240, 240), st.integers(1, 12))
    return st.dictionaries(monomial, coeff, max_size=4).map(GradedPoly)


@settings(max_examples=40, deadline=None)
@given(p=_polys(7), w=st.integers(0, 5), data=st.data())
def test_operations_match_cartan_expansion_property(p, w, data):
    lam = data.draw(st.sampled_from(partitions_of(w)))
    assert ln_apply(lam, p) == _cartan_ln_apply(lam, p)
    assert quantize(p) == _cartan_quantize(p)


@settings(max_examples=40, deadline=None)
@given(p=_polys(6), q=_polys(4),
       lam=st.integers(0, 5).flatmap(lambda w: st.sampled_from(partitions_of(w))))
@example(p=ZERO, q=ZERO, lam=EMPTY)
@example(p=ZERO, q=t(2), lam=P((1,)))
@example(p=GradedPoly.const(Fraction(-2, 3)), q=GradedPoly.const(5), lam=EMPTY)
@example(p=GradedPoly.const(7), q=t(1), lam=P((1,)))
@example(p=t(1) + 1, q=t(1) - 1, lam=P((1, 1)))         # the cross terms cancel
@example(p=v_classes(4)[3], q=v_classes(4)[4], lam=P((1,)))  # S_(1)(v_n) = 0 for n >= 2
def test_tensor_kernel_matches_per_term_oracle(p, q, lam):
    qp, qq = quantize(p), quantize(q)
    assert dict(qp.items()) == _substitute_by_terms(p)
    assert dict((qp * qq).items()) == _times_by_terms(dict(qp.items()), dict(qq.items()))
    assert ln_apply(lam, p) == _ln_apply_by_terms(lam, p)
    assert ln_apply(lam, q) == _ln_apply_by_terms(lam, q)


def test_operations_on_constants():
    assert ln_apply(P((1,)), GradedPoly.const(7)).is_zero()
    assert ln_apply(EMPTY, GradedPoly.const(7)) == GradedPoly.const(7)


def _ln_apply_coefficients(lam, f):
    """S_lam applied to every coefficient of a series."""
    return [ln_apply(lam, c) for c in f.coeffs]


def test_series_action_reproduces_powers():
    b = beta(10)
    for k in range(1, 5):
        assert _ln_apply_coefficients(P((k,)), b) == (b ** (k + 1)).coeffs
    for lam in (P((1, 1)), P((2, 1))):
        assert all(c.is_zero() for c in _ln_apply_coefficients(lam, b)), lam


def test_qv_series_identity():
    # applying S_(k) to the inverse series of beta/z gives -z beta^{k-1};
    # this is the identity the v-class actions are read from
    N = 10
    qv = beta_over_z(N).inv()
    b = beta(N)
    for k in range(1, 6):
        rhs = (b ** (k - 1)).mul_by_z().truncated(N).scale(Fraction(-1))
        assert _ln_apply_coefficients(P((k,)), qv) == rhs.coeffs


def test_v_class_actions_signs():
    # The z^n coefficient of the inverse series carries (-1)^n v_n/(n+1)!,
    # so reading S_(2)(v_n) off -z*beta gives the alternating sign below;
    # in particular S_(1)(v_1) = S_(1)(t_1) = +2, the two-point class.
    vs = v_classes(9)
    assert ln_apply(P((1,)), vs[1]) == GradedPoly.const(2)
    for n in range(2, 10):
        assert ln_apply(P((1,)), vs[n]).is_zero()
        expected = Fraction((-1) ** (n + 1) * n * (n + 1)) * t(n - 2)
        assert ln_apply(P((2,)), vs[n]) == expected


def test_w_class_actions():
    ws = w_classes(8)
    assert ln_apply(P((1,)), ws[1]) == ONE
    for n in range(2, 9):
        assert ln_apply(P((1,)), ws[n]) == t(n - 1)


def test_theta_ring_invariance_and_positivity():
    rng = random.Random(59)
    for _ in range(25):
        w = rng.randint(1, 8)
        terms = {rng.choice(partitions_of(rng.randint(1, w))): rng.randint(-6, 6)
                 for _ in range(3)}
        p = GradedPoly({k: Fraction(v) for k, v in terms.items()})
        for lam_w in range(0, 7):
            lam = rng.choice(partitions_of(lam_w)) if lam_w else EMPTY
            assert ln_apply(lam, p).is_integral()
    for n in range(1, 10):
        for k in range(0, n + 1):
            cls = intersection_class(n, k)
            assert cls.is_integral()
            assert all(c > 0 for _, c in cls.items())


def test_dual_pairing_identity():
    for n in range(0, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert dual_pairing(lam, mu) == (1 if lam == mu else 0)
    with pytest.raises(ValueError):
        dual_pairing(P((2,)), P((1,)))


def test_quantize_golden():
    q = quantize(t(1))
    expected = TensorElement({(EMPTY, P((1,))): Fraction(1), (P((1,)), EMPTY): Fraction(1)})
    assert q == expected
    assert str(q) == "1 (x) t1' + t1 (x) 1"


def test_quantize_roundtrip_and_multiplicativity():
    rng = random.Random(61)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = rng.randint(0, 6)
            lam = rng.choice(partitions_of(w)) if w else EMPTY
            terms[lam] = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        return GradedPoly(terms)

    assert dequantize(quantize(t(2) * t(1))) == t(2) * t(1)
    for _ in range(30):
        p = rand_poly()
        assert dequantize(quantize(p)) == p
    for _ in range(10):
        p, q = rand_poly(), rand_poly()
        assert quantize(p * q) == quantize(p) * quantize(q)
    assert quantize(t(1) * t(1)) == quantize(t(1)) * quantize(t(1))


def test_tensor_product_above_key_capacity_is_refused():
    def primed(nu):
        return TensorElement({(EMPTY, P(nu)): Fraction(1)})

    assert primed((128,)) * primed((127,)) == primed((128, 127))
    for left, right in [((1,) * 255, (1,)), ((200,), (100,))]:
        with pytest.raises(ValueError, match="above 255"):
            primed(left) * primed(right)


# -- vector-field realisation ---------------------------------------------------------


class Diff1Field:
    """First-order derivation realising S_(1) or S_(2) on the coordinate
    ring of formal line diffeomorphisms x + sum a_k x^{k+1}.

    S_(1) sends a_k to k a_{k-1} and S_(2) sends a_k to (k-1) a_{k-2},
    with a_0 read as 1.  Polynomials reuse GradedPoly with generators
    interpreted as the coordinates a_k.
    """

    def __init__(self, k: int):
        if k not in (1, 2):
            raise ValueError("only the generating fields k = 1, 2 are defined")
        self.k = k

    def on_generator(self, j: int) -> GradedPoly:
        if self.k == 1:
            coeff, idx = j, j - 1
        else:
            coeff, idx = j - 1, j - 2
        if coeff == 0 or idx < 0:
            return ZERO
        if idx == 0:
            return GradedPoly.const(coeff)
        return coeff * GradedPoly.gen(idx)

    def apply(self, p: GradedPoly) -> GradedPoly:
        acc = ZERO
        for mono, c in p.items():
            for value in sorted(set(mono)):
                m = mono.count(value)
                rest = list(mono)
                rest.remove(value)
                acc = acc + (c * m) * GradedPoly.monomial(rest) * self.on_generator(value)
        return acc


def diff1_commutator(max_index: int):
    """Images (k, [S_(1), S_(2)] a_k) of a_1..a_max under the commutator."""
    s1, s2 = Diff1Field(1), Diff1Field(2)
    out = []
    for k in range(1, max_index + 1):
        ak = GradedPoly.gen(k)
        image = s1.apply(s2.apply(ak)) - s2.apply(s1.apply(ak))
        out.append((k, image))
    return out


def test_diff1_fields_match_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    n_max = 6
    a = {k: sympy.Symbol(f"a{k}") for k in range(1, n_max + 1)}

    def field(k_field, expr):
        # S1 = d/da1 + sum k a_{k-1} d/da_k ; S2 = d/da2 + sum (k-1) a_{k-2} d/da_k
        out = 0
        for k in range(1, n_max + 1):
            if k_field == 1:
                coeff = k * (a[k - 1] if k - 1 >= 1 else 1) if k >= 1 else 0
            else:
                coeff = (k - 1) * (a[k - 2] if k - 2 >= 1 else 1) if k >= 2 else 0
            out += coeff * sympy.diff(expr, a[k])
        return sympy.expand(out)

    s1, s2 = Diff1Field(1), Diff1Field(2)

    def to_sympy(p):
        total = 0
        for mono, c in p.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for part in mono:
                term *= a[part]
            total += term
        return sympy.expand(total)

    for k in range(1, n_max + 1):
        assert to_sympy(s1.apply(GradedPoly.gen(k))) == field(1, a[k])
        assert to_sympy(s2.apply(GradedPoly.gen(k))) == field(2, a[k])
    sample = GradedPoly.gen(3) * GradedPoly.gen(2) + 4 * GradedPoly.gen(4)
    assert to_sympy(s1.apply(sample)) == field(1, to_sympy(sample))
    assert to_sympy(s2.apply(sample)) == field(2, to_sympy(sample))
    # commutator via composed symbolic derivations
    for k in range(1, n_max + 1):
        sym_comm = sympy.expand(field(1, field(2, a[k])) - field(2, field(1, a[k])))
        ours = s1.apply(s2.apply(GradedPoly.gen(k))) - s2.apply(s1.apply(GradedPoly.gen(k)))
        assert to_sympy(ours) == sym_comm


def test_diff1_commutator_pattern():
    report = diff1_commutator(6)
    for k, image in report:
        if k < 3:
            assert image.is_zero()
        elif k == 3:
            assert image == GradedPoly.const(-1)
        else:
            assert image == -(k - 2) * GradedPoly.gen(k - 3)


def test_diff1_rejects_other_indices():
    with pytest.raises(ValueError):
        Diff1Field(3)


def test_quantize_a_deep_power_from_a_deep_stack(near_recursion_limit):
    p = t(1) ** 100
    assert dict(near_recursion_limit(lambda: quantize(p)).items()) == _substitute_by_terms(p)
