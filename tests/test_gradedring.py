import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from thetacob.cobordism import psi_on_class
from thetacob.core import EMPTY, Partition, partitions_of
from thetacob import gradedring
from thetacob.gradedring import (
    MAX_NESTING,
    ExprSyntaxError,
    GradedPoly,
    MissingGeneratorError,
    ONE,
    ZERO,
    _key,
    _monomial,
    dot,
    format_monomial,
    format_poly,
    parse_poly,
    partition_sum,
    power_weights,
    t,
)


def random_poly(rng, max_weight=12, nterms=5):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        w = rng.randint(0, max_weight)
        lam = rng.choice(partitions_of(w)) if w else Partition(())
        terms[lam] = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
    return GradedPoly(terms)


def test_basic_arithmetic():
    assert t(1) * t(1) == GradedPoly.monomial((1, 1))
    assert (t(1) * t(1)).is_homogeneous(2)
    assert (t(1) + t(2)) * 0 == ZERO
    assert (-t(2) + Fraction(3, 2) * t(1) ** 2) + t(2) == Fraction(3, 2) * t(1) ** 2


def test_unit_and_gen_conventions():
    assert GradedPoly.gen(0) == ONE
    assert t(3).coeff((3,)) == 1
    assert ONE.aug() == 1


def test_mul_commutative_associative_randomised():
    rng = random.Random(11)
    for trial in range(40):
        w = 12 if trial < 10 else 6
        a, b, c = (random_poly(rng, w) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def _mul_by_fractions(self, other):
    """The product term by term in Fractions, over Partitions: the oracle for
    the integer kernel, independent of how monomials are stored."""
    out: dict[Partition, Fraction] = {}
    for m1, c1 in self.items():
        for m2, c2 in other.items():
            m = Partition((*m1, *m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return GradedPoly(out)


def _monomials(top):
    """One pool of every partition of weight <= top.  st.dictionaries draws
    its keys from a sampled pool without replacement, so no draw is
    rejected as a repeated key."""
    return st.sampled_from([mu for w in range(top + 1) for mu in partitions_of(w)])


# Every a/d with d <= 12 and |a/d| <= 9, the values of st.fractions(-9, 9,
# max_denominator=12), drawn as two integers: st.fractions took about two
# thirds of the time spent drawing a _poly.
_coeff = st.builds(lambda a, d: Fraction((a + 9 * d) % (18 * d + 1) - 9 * d, d),
                   st.integers(-108, 108), st.integers(1, 12))
# Zero, constant and empty polynomials all occur (the constant and empty
# ones also as explicit examples), and most coefficients have a denominator
# above 1.
_poly = st.dictionaries(_monomials(5), _coeff, max_size=4).map(GradedPoly)
_CONST = GradedPoly.const(Fraction(-7, 3))


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(_poly, _poly), max_size=4), cancel=st.booleans())
@example(pairs=[(ZERO, _CONST), (_CONST, _CONST)], cancel=True)
def test_dot_and_mul_match_fraction_oracle(pairs, cancel):
    if cancel and pairs:
        # a*b - a*b: products that cancel to zero inside one sum
        a, b = pairs[0]
        pairs = pairs + [(a, -b)]
    expected = ZERO
    for a, b in pairs:
        product = _mul_by_fractions(a, b)
        assert a * b == product
        expected = expected + product
    assert dot(pairs) == expected
    if cancel and len(pairs) == 2:
        assert dot(pairs).is_zero()


_weight = st.one_of(st.just(0), st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30))


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.tuples(_poly, _poly, _weight), max_size=4),
       divisor=st.one_of(st.integers(1, 12), st.integers(1, 10 ** 25)), cancel=st.booleans())
@example(terms=[(ZERO, _CONST, 3), (_CONST, _CONST, -2)], divisor=7, cancel=False)
def test_weighted_dot_matches_fraction_oracle(terms, divisor, cancel):
    if cancel and terms:
        # w*a*b + (-w)*a*b and w*a*b + w*a*(-b): weighted sums that cancel to zero
        a, b, w = terms[0]
        terms = [(a, b, w), (a, b, -w), (a, b, w), (a, -b, w)]
    expected = ZERO
    for a, b, w in terms:
        expected = expected + _mul_by_fractions(a, b) * Fraction(w, divisor)
    got = dot(((a, b) for a, b, _ in terms), (w for _, _, w in terms), divisor)
    assert got == expected
    if cancel:
        assert got.is_zero()


def _partition_sum_by_series(n, weights, divisor):
    """[z^n] of sum_l w[l] u^l / l!, over divisor, for u = sum_i t_i z^i/(i+1)!:
    each power of u expanded as a list of Fraction dicts, one product at a
    time, keyed by sorted part tuples.  The oracle for partition_sum()."""
    power = [{(): Fraction(1)}] + [{} for _ in range(n)]  # u^0 to z^n
    total = {}
    for l, w in enumerate(weights):
        for mono, c in power[n].items():
            total[mono] = total.get(mono, 0) + c * Fraction(w, factorial(l) * divisor)
        product = [{} for _ in range(n + 1)]
        for i, coeff in enumerate(power):
            for j in range(1, n + 1 - i):  # times the term t_j z^j/(j+1)! of u
                for mono, c in coeff.items():
                    key = tuple(sorted(mono + (j,), reverse=True))
                    product[i + j][key] = product[i + j].get(key, 0) + c / factorial(j + 1)
        power = product
    return GradedPoly({Partition(mono): c for mono, c in total.items()})


def test_partition_sum_matches_series_oracle():
    """Full, short (the length pruning) and zero weights, with and without a
    divisor above 1, against the series expansion."""
    rng = random.Random(2718)
    for n in range(13):
        cases = [(power_weights(-n - 1, n + 1), n + 1), (power_weights(3, n + 2), 1),
                 ([0] + [(-1) ** (l - 1) * factorial(l - 1) for l in range(1, n + 1)], 1),
                 ([0] * (n + 1), 5)]
        for _ in range(4):
            weights = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(rng.randint(1, n + 1))]
            cases.append((weights, rng.choice((1, 7, 12))))
        for weights, divisor in cases:
            expected = _partition_sum_by_series(n, weights, divisor)
            assert partition_sum(n, weights, divisor) == expected, (n, weights, divisor)


def _within_key_weight(parts) -> Partition:
    """The parts, in order, that keep the weight at most 255."""
    kept, total = [], 0
    for part in parts:
        if total + part <= 255:
            kept.append(part)
            total += part
    return Partition(kept)


# Many small parts (digits near 255) and a few large ones (high digits).
_key_partition = st.one_of(st.lists(st.integers(1, 6), max_size=300),
                           st.lists(st.integers(1, 255), max_size=8)).map(_within_key_weight)


@settings(max_examples=100, deadline=None)
@given(mus=st.lists(_key_partition, min_size=1, max_size=6))
@example(mus=[Partition((1,) * 255), Partition((255,)), Partition((128, 127)), EMPTY])
def test_packed_keys_round_trip(mus):
    for mu in mus:
        key = _key(mu)
        assert _monomial(key) == (mu.weight, mu) and type(_monomial(key)[1]) is Partition
        assert _key(list(reversed(mu))) == key
    for a in mus:
        for b in mus:
            if a.weight + b.weight <= 255:
                assert _key(a) + _key(b) == _key(Partition((*a, *b)))
    # items() yields Partition keys in descending graded-lex order
    p = GradedPoly({mu: i + 1 for i, mu in enumerate(mus)})
    assert [mu for mu, _ in p.items()] == sorted(set(mus), key=lambda m: (m.weight, m),
                                                 reverse=True)
    assert all(type(mu) is Partition for mu, _ in p.items())
    assert p.top_weight() == max(mu.weight for mu in mus)


def test_weight_above_key_capacity_is_refused():
    t1_255 = GradedPoly.monomial((1,) * 255)
    assert t(128) * t(127) == GradedPoly.monomial((128, 127))
    assert (t1_255 * Fraction(1, 2)).top_weight() == 255
    refused = [
        lambda: t1_255 * t(1),  # 255 + 1 would carry into the t2 digit
        lambda: t(200) * t(100),
        lambda: t(1) ** 256,
        lambda: dot(((t(1), ONE), (t(200), t(56) + 1))),
        lambda: GradedPoly.monomial((1,) * 256),
        lambda: GradedPoly({(256,): 1}),
        lambda: t(300),
        lambda: parse_poly("t1^200*t2^28"),
    ]
    for build in refused:
        with pytest.raises(ValueError, match="above 255"):
            build()


def test_aug_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(40):
        a, b = random_poly(rng, 6), random_poly(rng, 6)
        assert (a * b).aug() == a.aug() * b.aug()
        assert (a + b).aug() == a.aug() + b.aug()
    assert (5 + 3 * t(1)).aug() == 5
    assert (t(3) * t(1)).aug() == 0
    assert ZERO.aug() == 0


def test_substitute():
    todd_like = lambda n: Fraction((-1) ** n)
    assert t(2).substitute(todd_like) == 1
    cp2 = Fraction(3, 2) * t(1) ** 2 - Fraction(1, 2) * t(2)
    assert cp2.substitute(todd_like) == 1
    assert ONE.substitute(todd_like) == 1
    with pytest.raises(MissingGeneratorError, match="t3"):
        t(3).substitute({1: Fraction(1)})


def test_substitute_asks_once_per_distinct_generator():
    calls = []

    def assign(n):
        calls.append(n)
        return t(n) + n

    p = (t(1) + t(2) * t(3) + 2) ** 4 - t(1) ** 6 * t(3)
    image = p.substitute(assign)
    assert sorted(calls) == [1, 2, 3]
    assert image == p.substitute({n: t(n) + n for n in (1, 2, 3)})
    assert image == (t(1) + 1 + (t(2) + 2) * (t(3) + 3) + 2) ** 4 - (t(1) + 1) ** 6 * (t(3) + 3)


def test_substitute_is_ring_homomorphism():
    rng = random.Random(17)
    phi = lambda n: Fraction(n, n + 2)
    for _ in range(30):
        a, b = random_poly(rng, 6), random_poly(rng, 6)
        assert (a * b).substitute(phi) == a.substitute(phi) * b.substitute(phi)
        assert (a + b).substitute(phi) == a.substitute(phi) + b.substitute(phi)


def test_is_integral():
    assert (6 * t(1)).is_integral()
    assert not (Fraction(3, 2) * t(1) ** 2).is_integral()
    assert ZERO.is_integral()


def test_top_weight():
    p = 2 * t(3) + t(1) * t(2) + 5
    assert p.top_weight() == 3


def test_format_golden():
    assert format_poly(-t(2) + Fraction(3, 2) * t(1) ** 2) == "-t2 + 3/2*t1^2"
    assert format_poly(t(3) - 4 * t(1) * t(2) + 3 * t(1) ** 3) == "t3 - 4*t1*t2 + 3*t1^3"
    assert format_poly(ZERO) == "0"
    assert format_poly(GradedPoly.const(Fraction(-1, 3))) == "-1/3"
    assert format_poly(6 * t(1)) == "6*t1"
    assert format_poly(3 * t(1) + 5) == "3*t1 + 5"


def test_format_term_order_graded_lex():
    p = t(1) ** 4 + t(2) * t(1) ** 2 + t(2) ** 2 + t(1) * t(3) + t(4)
    assert format_poly(p) == "t4 + t1*t3 + t2^2 + t1^2*t2 + t1^4"


def test_parse_golden():
    assert parse_poly("-t2 + 3/2*t1^2") == -t(2) + Fraction(3, 2) * t(1) ** 2
    assert parse_poly("2*(t1 + t2)^2") == 2 * (t(1) + t(2)) ** 2
    assert parse_poly("1/2") == GradedPoly.const(Fraction(1, 2))
    assert parse_poly("t0") == ONE
    deepest = "(" * MAX_NESTING + "t1 + 1" + ")" * MAX_NESTING + "^2"
    assert parse_poly(deepest, max_weight=14) == (t(1) + 1) ** 2


@pytest.mark.parametrize("text, message", [
    ("t1 +", "expected a number, 't' or '(' at position 4, found the end"),
    ("(t1", "expected an operator or ')' at position 3, found the end"),
    ("x1", "expected a number, 't' or '(' at position 0, found 'x'"),
    ("2*-t1", "expected a number, 't' or '(' at position 2, found '-'"),
    ("t 1", "expected a digit at position 1, found ' '"),
    ("t1^", "expected a digit at position 3, found the end"),
    ("1/ 00", "expected a non-zero denominator at position 4, found '0'"),
    ("t1 t2", "expected an operator or the end at position 3, found 't'"),
    ("(t1 t2)", "expected an operator or ')' at position 4, found 't'"),
    ("(" * (MAX_NESTING + 1) + "t1" + ")" * (MAX_NESTING + 1),
     f"expected at most {MAX_NESTING} nested parentheses at position {MAX_NESTING}, found '('"),
], ids=["dangling-plus", "unclosed", "bad-character", "sign-after-times", "blank-after-t",
        "no-exponent", "zero-denominator", "juxtaposed", "juxtaposed-in-parentheses", "too-deep"])
def test_parse_errors_say_what_was_expected_where(text, message):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_poly(text)
    assert str(exc.value) == message


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet="0123456789t+-*/^() ", max_size=40))
@example(text="(" * 1000 + "t1" + ")" * 1000)
@example(text="(" * 1000)
def test_parse_returns_a_poly_or_raises_value_error(text):
    # max_weight as the CLI passes it, so that no power is expanded unbounded
    try:
        p = parse_poly(text, max_weight=14)
    except ValueError as exc:  # never RecursionError, nor a token kind in the message
        assert not any(kind in str(exc) for kind in ("'num'", "'gen'", "'end'"))
    else:
        assert isinstance(p, GradedPoly)


def _wrapped(item, level):
    """item = (text, value, level), the level of the grammar its text is
    written at: 0 atom, 1 factor, 2 term, 3 expr.  Parenthesised when
    above `level`."""
    text, value, own = item
    return item if own <= level else (f"({text})", value, 0)


def _power(base, blank, e):
    text, value, _ = _wrapped(base, 0)
    return f"{text}{blank}^{blank}{e}", value ** e, 1


def _product(factors, blank):
    factors = [_wrapped(f, 1) for f in factors]
    value = ONE
    for _, v, _ in factors:
        value = value * v
    return f"{blank}*{blank}".join(text for text, _, _ in factors), value, 2


def _sum(signed_terms, lead, blank):
    text, value = "", ZERO
    for i, (op, term) in enumerate(signed_terms):
        piece, v, _ = _wrapped(term, 2)
        if i or lead:
            text += f"{blank}{op}{blank}" if i else op
            v = -v if op == "-" else v
        text, value = text + piece, value + v
    return text, value, 3


_blank = st.sampled_from(["", " ", "  ", "\t "])
_grammar = st.recursive(
    st.one_of(
        st.builds(lambda zeros, n: (zeros + str(n), GradedPoly.const(n), 0),
                  st.sampled_from(["", "0", "00"]), st.integers(0, 99)),
        st.builds(lambda a, blank, b: (f"{a}{blank}/{blank}{b}", GradedPoly.const(Fraction(a, b)), 0),
                  st.integers(0, 99), _blank, st.integers(1, 99)),
        st.builds(lambda n: (f"t{n}", t(n), 0), st.integers(0, 4)),
    ),
    lambda items: st.one_of(
        st.builds(_power, items, _blank, st.integers(0, 2)),
        st.builds(_product, st.lists(items, min_size=2, max_size=3), _blank),
        st.builds(_sum, st.lists(st.tuples(st.sampled_from("+-"), items), min_size=1, max_size=3),
                  st.booleans(), _blank),
    ).filter(lambda item: item[1].top_weight() <= 30 and len(item[1]) <= 60),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(item=_grammar)
def test_parse_matches_the_value_the_text_was_built_from(item):
    text, value, _ = item
    assert parse_poly(text) == value
    assert parse_poly(f" {text} ", max_weight=30) == value  # every part weighs at most 30


def test_render_parse_roundtrip_randomised():
    rng = random.Random(23)
    for _ in range(60):
        p = random_poly(rng, 8)
        assert parse_poly(format_poly(p)) == p


@settings(max_examples=60, deadline=None)
@given(p=_poly, q=_poly)
@example(p=ZERO, q=_CONST)
@example(p=_CONST, q=ZERO)
def test_cached_text_matches_a_fresh_rendering(p, q):
    first = format_poly(p)
    assert format_poly(p) == first
    assert format_poly(parse_poly(first)) == first
    assert str(p) == first and repr(p) == f"GradedPoly({first!r})"
    # results built from a rendered polynomial render as fresh ones of their terms
    for r in (dot(((p, q),)), dot(((p, q), (q, p)), (3, -1), 2), -p, p + q, p * q):
        fresh = GradedPoly(dict(r.items()))
        assert format_poly(r) == format_poly(fresh) == str(r)


def test_substitute_scales_generators():
    p = t(2) + t(1) ** 2
    doubled = p.substitute(lambda n: 2 ** n * t(n))
    assert doubled == 4 * t(2) + 4 * t(1) ** 2
    assert doubled == psi_on_class(2, p)


def test_substitute_returns_a_polynomial():
    for p in (ZERO, ONE, GradedPoly.const(Fraction(-7, 3))):
        for assign in ({}, lambda n: t(n + 1), lambda n: Fraction(n, 5)):
            image = p.substitute(assign)
            assert isinstance(image, GradedPoly) and image == p
    cp2 = Fraction(3, 2) * t(1) ** 2 - Fraction(1, 2) * t(2)
    for assign in ({1: Fraction(-1), 2: Fraction(1)}, lambda n: Fraction(1, n + 1)):
        image = cp2.substitute(assign)
        assert isinstance(image, GradedPoly) and image.is_constant()
    assert cp2.substitute(lambda n: Fraction(1, n + 1)) == Fraction(5, 24)


def test_substitute_takes_floats_at_their_exact_value():
    assert t(1).substitute(lambda n: 0.5) == Fraction(1, 2)
    assert (t(1) ** 2 - t(2)).substitute({1: 0.25, 2: 1}) == Fraction(-15, 16)
    with pytest.raises(TypeError, match="t1"):
        t(1).substitute(lambda n: "1/2")


def test_len_counts_non_zero_terms():
    assert len(ZERO) == 0 and len(ONE) == 1
    assert len(t(1) ** 2 - t(2) + 3) == 3
    assert len((t(1) + t(2)) - t(2)) == 1
    assert len(Fraction(1, 2) * t(1) + Fraction(1, 3) * t(2)) == 2


def _is_canonical(p: GradedPoly) -> bool:
    """p's integer form is the one stored form of its value: a denominator
    >= 1 sharing no factor with every numerator, and no zero numerator."""
    num, den = p._num, p._den
    fresh = GradedPoly(dict(p.items()))
    return (type(den) is int and den >= 1 and gcd(den, *num.values()) == 1
            and all(type(c) is int and c for c in num.values())
            and (num, den) == (fresh._num, fresh._den))


_scalar = st.one_of(st.integers(-6, 6), _coeff)
_small_poly = st.dictionaries(_monomials(2), _coeff, max_size=3).map(GradedPoly)
# A value for each generator of _poly: a rational or a small polynomial.
_assignment = st.fixed_dictionaries({n: st.one_of(_scalar, _small_poly) for n in range(1, 6)})
_ASSIGN = {n: Fraction(1, n + 1) for n in range(1, 6)}


@settings(max_examples=60, deadline=None)
@given(p=_poly, q=_poly, c=_scalar, k=st.integers(0, 3), w=_weight,
       divisor=st.integers(1, 10 ** 12), assign=_assignment)
@example(p=ZERO, q=_CONST, c=0, k=0, w=0, divisor=1, assign=_ASSIGN)
@example(p=_CONST, q=ZERO, c=Fraction(1, 2), k=3, w=5, divisor=6, assign=_ASSIGN)
def test_every_result_is_canonical(p, q, c, k, w, divisor, assign):
    results = [p + q, p - q, q - p, p + c, c - p, p * q, p * c, c * p, p ** k, -p,
               dot(((p, q), (q, p))), dot(((p, q), (q, q), (p, p)), (w, 3, -w), divisor),
               p.substitute(assign), parse_poly(format_poly(p)), GradedPoly.const(c)]
    for r in results:
        assert _is_canonical(r), r
    assert (p - p)._den == 1 and (p - p).is_zero()
    assert (p + q == q + p) and ((p == q) == (p.items() == q.items()))
    assert (p * Fraction(1, 2) == p) == p.is_zero()  # equal numerators, other denominators


def _render_by_fractions(p: GradedPoly) -> str:
    """The text form term by term from the Fraction coefficients of items():
    the oracle for the renderer of the integer form."""
    items = p.items()
    if not items:
        return "0"
    chunks = []
    for i, (mu, c) in enumerate(items):
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if not mu:
            body = str(mag)
        elif mag == 1:
            body = format_monomial(mu)
        else:
            body = f"{mag}*{format_monomial(mu)}"
        if i == 0:
            chunks.append(body if sign == "+" else "-" + body)
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


@settings(max_examples=60, deadline=None)
@given(p=_poly, q=_poly, c=_scalar)
@example(p=GradedPoly({EMPTY: Fraction(-7, 3), (1,): Fraction(2, 3), (2, 1): 1}), q=ZERO, c=0)
@example(p=_CONST, q=ZERO, c=3)
def test_render_matches_fraction_oracle(p, q, c):
    for r in (p, p * q, p * c + q, dot(((p, q), (q, q)), (3, 5), 7), -p):
        assert format_poly(r) == _render_by_fractions(r)


def test_kernel_builds_no_fraction(monkeypatch):
    a = Fraction(3, 2) * t(1) ** 2 - Fraction(1, 6) * t(2) + 5
    b = Fraction(2, 9) * t(1) + Fraction(7, 4) * t(3) - 1
    c = 6 * t(1) * t(2) - t(3)
    made = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert len(made) == 1  # the count sees a Fraction when one is built
    made.clear()
    results = [dot(((a, b), (b, c), (c, c))), dot(((a, b), (b, a)), (3, -5), 7), a + b, b + c,
               a - b, c - a, a + 1, a * 3, a * b, a ** 3, -b, a == b, a == a, c == 0]
    monkeypatch.undo()
    assert made == []
    assert results[-3:] == [False, True, False]


def _substitute_by_terms(p: GradedPoly, assign) -> GradedPoly:
    """The image term by term, each from its Fraction coefficient and its
    generator images one product at a time: the oracle for substitute()."""
    total = ZERO
    for mu, c in p.items():
        term = GradedPoly.const(c)
        for part in mu:
            term = term * assign[part]
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(p=_poly, assign=_assignment)
@example(p=ZERO, assign=_ASSIGN)
@example(p=_CONST, assign=_ASSIGN)
def test_substitute_matches_term_by_term_oracle(p, assign):
    expected = _substitute_by_terms(p, assign)
    assert p.substitute(assign) == expected
    assert p.substitute(lambda n: assign[n]) == expected


def test_substitute_into_the_deepest_key_from_a_deep_stack(near_recursion_limit):
    p = t(1) ** 255
    assign = {1: t(1) + 1}
    assert near_recursion_limit(lambda: p.substitute(assign)) == _substitute_by_terms(p, assign)


def test_substitute_multiplies_a_shared_prefix_once(monkeypatch):
    """Every monomial's image is built once per call, from the image of the
    monomial less its smallest part: one dot() per distinct monomial at most,
    plus one for the sum."""
    p = GradedPoly({mu: 1 for w in range(1, 9) for mu in partitions_of(w)})
    assert len(p) == 66
    calls = []

    def counting_dot(*args):
        calls.append(args)
        return dot(*args)

    monkeypatch.setattr(gradedring, "dot", counting_dot)
    image = p.substitute(lambda n: t(n) + 1)
    monkeypatch.undo()
    assert len(calls) <= len(p) + 1
    assert image == _substitute_by_terms(p, {n: t(n) + 1 for n in range(1, 9)})
