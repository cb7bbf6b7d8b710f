"""Sparse polynomial ring Q[t1, t2, ...] graded by weight(t_n) = n.

This ring models the subring of the rationalised complex-cobordism
coefficient ring spanned by products of theta-divisor classes, with t_n
the class of the n-th theta divisor and t0 identified with the unit.
A monomial t^lam is stored as the integer sum of 256^(part-1) over the
parts of lam, so base-256 digit i counts the parts equal to i+1: t2*t1^2,
the partition (2,1,1), is 256 + 2.  The key of a product is then the sum
of the keys.  A digit holds a multiplicity of at most 255, so a monomial
of weight above 255 is refused with ValueError wherever a key is built.
Partitions appear only at the interface: constructors, coeff() and aug()
encode, items() and substitute() decode.

The canonical text form (used by the CLI and golden files) lists terms in
descending graded-lex order -- higher weight first, then descending
lexicographic order on the exponent partition -- with generators inside a
monomial printed in ascending index order, e.g. ``-t2 + 3/2*t1^2``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm, log10
from typing import Iterable, Mapping

from .core import EMPTY, Partition


class MissingGeneratorError(ValueError):
    """Raised by substitute() when a generator has no assigned value."""


def _coerce_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(c).__name__}")


# The most weight a packed monomial key holds: one base-256 digit per part size.
_MAX_KEY_WEIGHT = 255


def _key(mu) -> int:
    """The packed key of the monomial t^mu, mu a Partition or any iterable of parts."""
    if not isinstance(mu, Partition):
        mu = Partition(mu)
    _check_weight(sum(mu))
    return sum(1 << 8 * (part - 1) for part in mu)


def _decode(key: int) -> Partition:
    """The Partition of a packed key: one divmod per digit, smallest part first."""
    parts, part, rest = [], 1, key
    while rest:
        rest, count = divmod(rest, 256)
        parts += [part] * count
        part += 1
    parts.reverse()
    return tuple.__new__(Partition, parts)


class _Memo(dict):
    """A dict that computes a missing value from its key with `fill` and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


# Packed key -> its Partition, and -> its weight, for every key decoded so far.
_PARTITION = _Memo(_decode)
_WEIGHT = _Memo(lambda key: sum(_PARTITION[key]))


def _top_weight(keys) -> int:
    return max(map(_WEIGHT.__getitem__, keys), default=0)


def _check_weight(weight: int) -> None:
    if weight > _MAX_KEY_WEIGHT:
        raise ValueError(f"a monomial of weight {weight} is above {_MAX_KEY_WEIGHT}, "
                         "the most a packed monomial key holds")


class GradedPoly:
    """Immutable sparse polynomial with exact rational coefficients.

    Terms map packed monomial keys (see the module docstring) to non-zero
    Fractions; zero coefficients are never stored.  Instances are value
    objects: all arithmetic returns new polynomials, so sharing across
    threads is safe.  Two forms derived from the terms are kept once
    computed, since long-lived series coefficients are reused again and
    again: the integer form and top weight that dot() reads the first time
    the polynomial is a factor, and the canonical text that format_poly()
    renders the first time it is printed.  Neither can go stale, because
    the terms never change.
    """

    __slots__ = ("_terms", "_ints", "_text")

    def __init__(self, terms: Mapping | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = _coerce_coeff(c)
                if c == 0:
                    continue
                mono = _key(mono)
                clean[mono] = clean.get(mono, Fraction(0)) + c
                if clean[mono] == 0:
                    del clean[mono]
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_ints", None)
        object.__setattr__(self, "_text", None)

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, c) -> "GradedPoly":
        return cls({EMPTY: Fraction(c)})

    @classmethod
    def gen(cls, n: int) -> "GradedPoly":
        """The generator t_n (n >= 1); t_0 is the unit by convention."""
        if n == 0:
            return cls.const(1)
        return cls({Partition((n,)): Fraction(1)})

    @classmethod
    def monomial(cls, mu, coeff=1) -> "GradedPoly":
        return cls({Partition(mu): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def items(self):
        """(Partition, coefficient) terms in descending graded-lex order."""
        return sorted(((_PARTITION[m], c) for m, c in self._terms.items()),
                      key=lambda kv: (kv[0].weight, kv[0]), reverse=True)

    def coeff(self, mu) -> Fraction:
        return self._terms.get(_key(mu), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == 0 for m in self._terms)

    def is_integral(self) -> bool:
        """True iff every coefficient has denominator 1."""
        return all(c.denominator == 1 for c in self._terms.values())

    def aug(self) -> Fraction:
        """Augmentation: the coefficient of the unit monomial."""
        return self._terms.get(0, Fraction(0))

    def top_weight(self) -> int:
        return _top_weight(self._terms)

    def is_homogeneous(self, w: int) -> bool:
        return all(_WEIGHT[m] == w for m in self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, Fraction(0)) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        if len(other._terms) == 1 and 0 in other._terms:
            c = other._terms[0]
            return _raw({m: c1 * c for m, c1 in self._terms.items()})
        return dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a non-negative integer")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    __hash__ = None

    # -- homomorphisms -------------------------------------------------------

    def substitute(self, assign) -> "GradedPoly":
        """Image under the ring homomorphism t_n -> assign(n).

        ``assign`` is a mapping or a callable; for mappings a missing
        generator raises MissingGeneratorError naming it.  The values are
        rationals or polynomials, and the image is always a polynomial: a
        constant one for rational values.
        """
        if callable(assign):
            get = assign
        else:
            def get(n, _m=assign):
                try:
                    return _m[n]
                except KeyError:
                    raise MissingGeneratorError(f"no value assigned for generator t{n}") from None
        total = Fraction(0)
        for mono, c in self._terms.items():
            val = c
            for part in _PARTITION[mono]:
                val = val * get(part)
            total = total + val
        return total if isinstance(total, GradedPoly) else GradedPoly.const(total)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"GradedPoly({format_poly(self)!r})"


def _raw(terms: dict) -> GradedPoly:
    p = GradedPoly()
    object.__setattr__(p, "_terms", terms)
    return p


def _numerators(p: GradedPoly) -> tuple[list, int, int]:
    """p's terms as integer numerators over the lcm of its denominators,
    with p's top weight."""
    ints = p._ints
    if ints is None:
        d = lcm(*(c.denominator for c in p._terms.values()))
        ints = ([(m, c.numerator * (d // c.denominator)) for m, c in p._terms.items()], d,
                _top_weight(p._terms))
        object.__setattr__(p, "_ints", ints)
    return ints


def dot(pairs: Iterable[tuple[GradedPoly, GradedPoly]],
        weights: Iterable[int] | None = None, divisor: int = 1) -> GradedPoly:
    """The sum of w*a*b over the (a, b) pairs and their integer weights w,
    divided by the integer divisor >= 1, exactly.

    Without weights every w is 1.  Weights and divisor are the scalar steps
    of the series recurrences (Miller's power recurrence, the inverse, the
    logarithm), so no scaled polynomial is built for them.  Every product
    is accumulated in plain integers over one common denominator, and each
    coefficient of the result is normalised once at the end, so no
    intermediate polynomial or Fraction is built.  A product monomial's
    key is the sum of its factors' keys; a pair whose top weights add up
    to more than 255 is refused with ValueError before any of its products
    is formed, so no digit of a key carries into the next.
    """
    factors = []
    denominator = 1
    for (a, b), w in zip(pairs, repeat(1) if weights is None else weights):
        if w and a._terms and b._terms:
            na, da, wa = _numerators(a)
            nb, db, wb = _numerators(b)
            _check_weight(wa + wb)
            factors.append((na, nb, da * db, w))
            denominator = lcm(denominator, da * db)
    acc: dict[int, int] = {}
    get = acc.get
    for na, nb, d, w in factors:
        scale = denominator // d * w
        for m1, c1 in na:
            c1 *= scale
            for m2, c2 in nb:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    denominator *= divisor
    return _raw({m: Fraction(n, denominator) for m, n in acc.items() if n})


def _as_poly(x):
    if isinstance(x, GradedPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return GradedPoly.const(x)
    return NotImplemented


ZERO = GradedPoly()
ONE = GradedPoly.const(1)


def t(n: int) -> GradedPoly:
    """Shorthand for the generator t_n."""
    return GradedPoly.gen(n)


# -- text form ----------------------------------------------------------------


def format_monomial(mu: Partition) -> str:
    if not mu:
        return "1"
    pieces = []
    for idx in sorted(set(mu)):
        e = mu.count(idx)
        pieces.append(f"t{idx}" + (f"^{e}" if e > 1 else ""))
    return "*".join(pieces)


def format_poly(p: GradedPoly) -> str:
    """Canonical text form, e.g. ``-t2 + 3/2*t1^2`` (see module docstring).

    Rendered once per polynomial and kept with it.
    """
    if p._text is None:
        object.__setattr__(p, "_text", _render(p))
    return p._text


def _render(p: GradedPoly) -> str:
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


# -- parser --------------------------------------------------------------------
#
# expr   := ['+'|'-'] term { ('+'|'-') term }
# term   := factor { '*' factor }
# factor := atom [ '^' NAT ]
# atom   := NAT [ '/' NAT ] | 't' NAT | '(' expr ')'


class ExprSyntaxError(ValueError):
    """Raised when a polynomial expression cannot be parsed."""


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
            continue
        if ch == "t":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExprSyntaxError(f"generator index expected after 't' at position {i}")
            tokens.append(("gen", int(text[i + 1:j])))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j]))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None))
    return tokens


# With max_weight, the parser also refuses a coefficient of more than
# MAX_COEFF_DIGITS decimal digits, before a product or power would build it.
# Every number it returns then stays far below Python's 4300-digit limit on
# int-to-str conversion, also after the CLI's operations scale it.
MAX_COEFF_DIGITS = 1000


def _digits(p: GradedPoly) -> float:
    """log10 of the largest numerator or denominator of p; 0 for ZERO."""
    return max((log10(max(abs(c.numerator), c.denominator)) for c in p._terms.values()),
               default=0.0)


class _Parser:
    def __init__(self, tokens, max_weight=None):
        self.tokens = tokens
        self.pos = 0
        self.max_weight = max_weight

    def check_weight(self, weight: int) -> None:
        """Refuse a generator, product or power above max_weight before it is built."""
        if self.max_weight is not None and weight > self.max_weight:
            raise ValueError(f"weight {weight} is above the limit {self.max_weight}")

    def check_digits(self, digits: float) -> None:
        """Refuse a coefficient of more than MAX_COEFF_DIGITS digits (with max_weight)."""
        if self.max_weight is not None and digits > MAX_COEFF_DIGITS:
            raise ValueError(f"a coefficient of about {digits:.0f} digits is above the limit "
                             f"of {MAX_COEFF_DIGITS} digits")

    def number(self) -> int:
        text = self.take("num")
        self.check_digits(len(text))
        return int(text)

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        k, v = self.tokens[self.pos]
        if kind is not None and k != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {k!r}")
        self.pos += 1
        return v

    def expr(self) -> GradedPoly:
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.take() == "-" else 1
        acc = sign * self.term()
        while self.peek() in "+-":
            op = self.take()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
            self.check_digits(_digits(acc))
        return acc

    def term(self) -> GradedPoly:
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            rhs = self.factor()
            self.check_weight(acc.top_weight() + rhs.top_weight())
            self.check_digits(_digits(acc) + _digits(rhs))
            acc = acc * rhs
        return acc

    def factor(self) -> GradedPoly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.number()
            self.check_weight(base.top_weight() * exp)
            self.check_digits(_digits(base) * exp)
            return base ** exp
        return base

    def atom(self) -> GradedPoly:
        kind = self.peek()
        if kind == "num":
            num = self.number()
            if self.peek() == "/":
                self.take()
                den = self.number()
                if den == 0:
                    raise ExprSyntaxError("zero denominator")
                return GradedPoly.const(Fraction(num, den))
            return GradedPoly.const(num)
        if kind == "gen":
            n = self.take()
            self.check_weight(n)
            return GradedPoly.gen(n)
        if kind == "(":
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                raise ExprSyntaxError("missing closing parenthesis")
            self.take()
            return inner
        raise ExprSyntaxError(f"unexpected token {kind!r}")


def parse_poly(text: str, max_weight: int | None = None) -> GradedPoly:
    """Parse the canonical text form back into a GradedPoly.

    With `max_weight`, a generator, product or power of higher weight, or a
    coefficient of more than MAX_COEFF_DIGITS digits, is a ValueError,
    raised before that part is expanded.
    """
    parser = _Parser(_tokenize(text), max_weight)
    result = parser.expr()
    if parser.peek() != "end":
        raise ExprSyntaxError("trailing input after expression")
    return result
