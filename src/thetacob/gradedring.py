"""Sparse polynomial ring Q[t1, t2, ...] graded by weight(t_n) = n.

This ring models the subring of the rationalised complex-cobordism
coefficient ring spanned by products of theta-divisor classes, with t_n
the class of the n-th theta divisor and t0 identified with the unit.
A monomial t^lam is stored as the integer sum of 256^(part-1) over the
parts of lam, so base-256 digit i counts the parts equal to i+1: t2*t1^2,
the partition (2,1,1), is 256 + 2.  The key of a product is then the sum
of the keys.  A digit holds a multiplicity of at most 255, so a monomial
of weight above 255 is refused with ValueError wherever a key is built.

A polynomial is stored as integer numerators over one common denominator,
kept reduced (the storage of FLINT's fmpq_poly), so the arithmetic runs on
integers alone.  Partitions and Fractions appear only at the interface:
constructors, coeff() and aug() take or give them, items() decodes.  Every
sum of products goes through dot(): the series recurrences _reciprocal (1/f),
_revert (the compositional inverse) and _formal_log (log f), and
_substitute(), the one substitution kernel beside dot() and partition_sum(),
under substitute() and landweber alike; partition_sum() reads core._walk.

A key is decoded by two functools.lru_cache functions, each bounded at
2^16 keys: _monomial(key) gives the pair (weight, Partition), which is
also the monomial's graded-lex sort key, and _text(key) its text.  A
long-lived process that meets more distinct monomials recomputes the
least recently used ones, so the tables never outgrow the bound;
_monomial.cache_info() and _text.cache_info() show their hits, misses,
maxsize and currsize.

The canonical text form (used by the CLI and golden files) lists terms in
descending graded-lex order -- higher weight first, then descending
lexicographic order on the exponent partition -- with generators inside a
monomial printed in ascending index order, e.g. ``-t2 + 3/2*t1^2``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, gcd, lcm, log10
from numbers import Real
from typing import Iterable, Mapping, Sequence

from .core import Partition, _walk


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


@lru_cache(maxsize=1 << 16)  # bounded, as the module docstring says
def _monomial(key: int) -> tuple[int, Partition]:
    """The weight and Partition of a packed key, one divmod per digit: the
    pair is also the monomial's graded-lex sort key."""
    parts, part, rest, weight = [], 1, key, 0
    while rest:
        rest, count = divmod(rest, 256)
        parts += [part] * count
        weight += part * count
        part += 1
    parts.reverse()
    return weight, tuple.__new__(Partition, parts)


@lru_cache(maxsize=1 << 16)
def _text(key: int) -> str:
    """The text of the monomial of a packed key, e.g. ``t1^2*t2``."""
    return format_monomial(_monomial(key)[1])


def _top_weight(keys) -> int:
    return max((_monomial(key)[0] for key in keys), default=0)


def _check_weight(weight: int) -> None:
    if weight > _MAX_KEY_WEIGHT:
        raise ValueError(f"a monomial of weight {weight} is above {_MAX_KEY_WEIGHT}, "
                         "the most a packed monomial key holds")


class GradedPoly:
    """Immutable sparse polynomial with exact rational coefficients.

    The polynomial is sum _num[m]/_den t^m over packed monomial keys m (see
    the module docstring): _num maps each key to a non-zero integer and
    _den is an integer >= 1 with gcd(_den, *_num.values()) == 1, so every
    polynomial has exactly one stored form and equality compares it
    directly.  Instances are value objects: all arithmetic returns new
    polynomials, so sharing across threads is safe.  The top weight and
    the canonical text that format_poly() renders are kept once computed,
    since long-lived series coefficients are reused again and again;
    neither can go stale, because the terms never change.
    """

    __slots__ = ("_num", "_den", "_top", "_text")

    def __init__(self, terms: Mapping | None = None):
        packed: dict[int, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = _coerce_coeff(c)
                if c:
                    mono = _key(mono)
                    packed[mono] = packed.get(mono, 0) + c
        self._num, self._den = _integer_form(packed)
        self._top = self._text = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, c) -> "GradedPoly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _new({0: c.numerator} if c else {}, c.denominator)

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
        num, den = self._num, self._den
        return [(_monomial(m)[1], Fraction(num[m], den))
                for m in sorted(num, key=_monomial, reverse=True)]

    def coeff(self, mu) -> Fraction:
        return Fraction(self._num.get(_key(mu), 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return all(m == 0 for m in self._num)

    def is_integral(self) -> bool:
        """True iff every coefficient has denominator 1."""
        return self._den == 1

    def aug(self) -> Fraction:
        """Augmentation: the coefficient of the unit monomial."""
        return Fraction(self._num.get(0, 0), self._den)

    def top_weight(self) -> int:
        top = self._top
        if top is None:
            top = self._top = _top_weight(self._num)
        return top

    def is_homogeneous(self, w: int) -> bool:
        return all(_monomial(m)[0] == w for m in self._num)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        out = {m: c * sa for m, c in self._num.items()}
        get = out.get
        for m, c in other._num.items():
            out[m] = get(m, 0) + c * sb
        return _canonical({m: c for m, c in out.items() if c}, den)

    __radd__ = __add__

    def __neg__(self):
        return _new({m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num or not other._num:
            return ZERO
        if len(other._num) == 1 and 0 in other._num:
            c = other._num[0]
            return _canonical({m: c1 * c for m, c1 in self._num.items()},
                              self._den * other._den)
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
        return self._den == other._den and self._num == other._num

    def __bool__(self):
        return bool(self._num)

    def __len__(self):
        """The number of non-zero terms."""
        return len(self._num)

    __hash__ = None

    # -- homomorphisms -------------------------------------------------------

    def substitute(self, assign) -> "GradedPoly":
        """Image under the ring homomorphism t_n -> assign(n).

        ``assign`` is a mapping or a callable; for mappings a missing
        generator raises MissingGeneratorError naming it.  The values are
        real numbers or polynomials, and the image is always a polynomial: a
        constant one for scalar values, a float taken at its exact rational
        value.  Any other value raises TypeError.  ``assign`` is asked once
        per distinct generator in a call, and its image is kept for the
        call's other occurrences.  This is _substitute() on the key 0 alone.
        """
        if callable(assign):
            get = assign
        else:
            def get(n, _m=assign):
                try:
                    return _m[n]
                except KeyError:
                    raise MissingGeneratorError(f"no value assigned for generator t{n}") from None

        @lru_cache(maxsize=None)  # one image per distinct generator in this call
        def image(n):
            value = get(n)
            if not isinstance(value, (GradedPoly, Real)):
                raise TypeError(f"the value for t{n} must be a real number or a GradedPoly")
            return {0: value if isinstance(value, GradedPoly) else GradedPoly.const(value)}

        return _substitute(self, image).get(0, ZERO)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"GradedPoly({format_poly(self)!r})"


def _new(num: dict, den: int) -> GradedPoly:
    """Wrap numerators and a denominator that are already canonical."""
    p = object.__new__(GradedPoly)
    p._num = num
    p._den = den
    p._top = p._text = None
    return p


def _canonical(num: dict, den: int) -> GradedPoly:
    """The polynomial sum num[m]/den t^m, for non-zero integer numerators
    and an integer den >= 1, with their common factor divided out."""
    g = gcd(den, *num.values())
    if g > 1:
        num = {m: c // g for m, c in num.items()}
        den //= g
    return _new(num, den)


def _integer_form(terms: Mapping[int, Fraction]) -> tuple[dict, int]:
    """Packed key -> rational coefficient as the canonical (_num, _den).

    The lcm of reduced denominators leaves no factor common to it and all
    the scaled numerators, so nothing is divided out.
    """
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items() if c}, den


def dot(pairs: Iterable[tuple[GradedPoly, GradedPoly]],
        weights: Iterable[int] | None = None, divisor: int = 1) -> GradedPoly:
    """The sum of w*a*b over the (a, b) pairs and their integer weights w,
    divided by the integer divisor >= 1, exactly.

    Without weights every w is 1.  Weights and divisor are the scalar steps
    of the series recurrences (Miller's power recurrence, _reciprocal,
    _formal_log, substitution), so no scaled polynomial is built for them.
    Every product of numerators is accumulated in plain integers over the
    lcm of the pairs' denominators, and the sum is reduced by one gcd at
    the end, so no intermediate polynomial or Fraction is built.  A product
    monomial's key is the sum of its factors' keys; a pair whose top
    weights add up to more than 255 is refused with ValueError before any
    of its products is formed, so no digit of a key carries into the next.
    """
    factors = []
    denominator = 1
    for (a, b), w in zip(pairs, repeat(1) if weights is None else weights):
        if w and a._num and b._num:
            _check_weight(a.top_weight() + b.top_weight())
            d = a._den * b._den
            factors.append((a._num.items(), b._num.items(), d, w))
            denominator = lcm(denominator, d)
    acc: dict[int, int] = {}
    get = acc.get
    for na, nb, d, w in factors:
        scale = denominator // d * w
        for m1, c1 in na:
            c1 *= scale
            for m2, c2 in nb:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    return _canonical({m: n for m, n in acc.items() if n}, denominator * divisor)


def _grouped_dot(terms, keep=None, divisor: int = 1) -> dict[int, GradedPoly]:
    """The sum of w*a*b/divisor over the terms (w, left, right), for left and right
    maps from an extra key to a polynomial, each product keyed by the sum of its
    factors' keys: one weighted dot() per key, and with ``keep`` only its keys."""
    pairs: dict[int, list] = {}
    weights: dict[int, list] = {}
    for w, left, right in terms:
        for k1, a in left.items():
            for k2, b in right.items():
                if keep is None or k1 + k2 in keep:
                    pairs.setdefault(k1 + k2, []).append((a, b))
                    weights.setdefault(k1 + k2, []).append(w)
    return {k: q for k in pairs if (q := dot(pairs[k], weights[k], divisor))}


def _substitute(p: GradedPoly, image, keep=None) -> dict[int, GradedPoly]:
    """The image of p under t_n -> image(n), a map from an extra key to a polynomial,
    multiplied as in _grouped_dot (``keep`` closed under taking sub-multisets).  Each
    term is the image of its monomial less its smallest part, built once per call in a
    loop (never a recursion) from the image of its own rest, times that part's image."""
    images = {0: {0: ONE}}  # packed key -> the image of its monomial

    def split(m):  # the key of m less its smallest part, and that part's image
        digit = ((m & -m).bit_length() - 1) >> 3
        return m - (1 << 8 * digit), image(digit + 1)

    def term(m, c):
        rest, last = split(m) if m else (0, images[0])
        chain = [rest]
        while chain[-1] not in images:
            chain.append(split(chain[-1])[0])
        for key in reversed(chain[:-1]):
            prev, low = split(key)
            images[key] = _grouped_dot(((1, images[prev], low),), keep)
        return c, images[rest], last

    return _grouped_dot((term(m, c) for m, c in p._num.items()), keep, p._den)


def _reciprocal(f: Sequence[GradedPoly]) -> list[GradedPoly]:
    """1/f to the length of f, for f_0 a non-zero rational: from f h = 1, h_0 = 1/f_0
    and h_m = -(1/f_0) sum_{k=1..m} f_k h_{m-k}, one weighted dot() per coefficient."""
    h0 = 1 / f[0].aug()
    h = [GradedPoly.const(h0)]
    for m in range(1, len(f)):
        h.append(dot(((f[k], h[m - k]) for k in range(1, m + 1)),
                     repeat(-h0.numerator), h0.denominator))
    return h


def _revert(f: Sequence[GradedPoly]) -> list[GradedPoly]:
    """The compositional inverse g of f to the length of f, for f_0 = 0 and f_1 = 1.

    Lagrange-Buermann inversion gives g_m = (1/m) [z^(m-1)] h^m for h = (f/z)^{-1},
    and J.C.P. Miller's power recurrence the coefficients of a = h^m: a_0 = 1 and
    a_k = (1/k) sum_{j=1..k} ((m+1) j - k) h_j a_{k-j}, one weighted dot() per
    coefficient, O(n^3) products in all (Brent and Kung, J. ACM 1978).
    """
    h = _reciprocal(f[1:]) if len(f) > 1 else []
    g = [ZERO, ONE][:len(f)]
    for m in range(2, len(f)):
        # a_k = [z^k] h^m; the last, k = m-1, is divided by m too: g_m
        a = [ONE]
        for k in range(1, m):
            a.append(dot(((h[j], a[k - j]) for j in range(1, k + 1)),
                         ((m + 1) * j - k for j in range(1, k + 1)), k if k < m - 1 else k * m))
        g.append(a[m - 1])
    return g


def _formal_log(f: Sequence[GradedPoly]) -> list[GradedPoly]:
    """log f to the length of f, for f_0 = 1: from f g' = f' for g = log f,
    n g_n = n f_n - sum_{k<n} k g_k f_{n-k}, one weighted dot() per coefficient."""
    g = [ZERO]
    for n in range(1, len(f)):
        pairs = [(f[n], ONE)] + [(g[k], f[n - k]) for k in range(1, n)]
        g.append(dot(pairs, [n] + [-k for k in range(1, n)], n))
    return g


def partition_sum(n: int, weights: list[int], divisor: int = 1) -> GradedPoly:
    """[z^n] of sum_l w[l] u^l / l!, divided by the integer divisor >= 1, for
    u = sum_{i>=1} t_i z^i/(i+1)! and the integer weights w = weights.

    By the multinomial theorem this is one sum over the partitions mu of n,
    the term of mu being w[len(mu)] t^mu / (prod_i m_i! prod_j (mu_j+1)!),
    with m_i the number of parts of mu equal to i.  With
    w[l] = alpha (alpha-1)...(alpha-l+1) (power_weights) it is
    [z^n] (1+u)^alpha, and with w[l] = (-1)^(l-1) (l-1)!, w[0] = 0, it is
    [z^n] log(1+u) (Comtet, Advanced Combinatorics, 1974).  core._walk visits
    only the partitions with fewer than len(weights) parts, and the terms are
    built as integers over one denominator: no series arithmetic, no Fraction.
    """
    _check_weight(n)
    terms = []

    def visit(pairs):
        length, key, den = 0, 0, 1
        for part, m in pairs:
            length += m
            key += m << 8 * (part - 1)
            den *= factorial(m) * factorial(part + 1) ** m
        if weights[length]:
            terms.append((key, weights[length], den))

    _walk(n, len(weights) - 1, visit)
    den = lcm(*(d for _, _, d in terms))
    return _canonical({key: w * (den // d) for key, w, d in terms}, den * divisor)


def power_weights(alpha: int, count: int, scale: int = 1) -> list[int]:
    """scale * alpha (alpha-1)...(alpha-l+1) for l < count: the partition_sum
    weights of scale * (1+u)^alpha."""
    out = [scale]
    for l in range(1, count):
        out.append(out[-1] * (alpha - l + 1))
    return out


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


def format_monomial(mu: Partition, mark: str = "") -> str:
    """The text of t^mu, e.g. ``t1^2*t3``; ``mark`` follows each generator."""
    if not mu:
        return "1"
    pieces = []
    for idx in sorted(set(mu)):
        e = mu.count(idx)
        pieces.append(f"t{idx}{mark}" + (f"^{e}" if e > 1 else ""))
    return "*".join(pieces)


def format_poly(p: GradedPoly) -> str:
    """Canonical text form, e.g. ``-t2 + 3/2*t1^2`` (see module docstring).

    Rendered once per polynomial and kept with it.
    """
    if p._text is None:
        p._text = _render(p)
    return p._text


def _render(p: GradedPoly) -> str:
    """The text form from the integer form: one gcd per term reduces its
    coefficient, and each monomial's sort key and text come from the
    bounded caches _monomial and _text."""
    num, den = p._num, p._den
    if not num:
        return "0"
    chunks = []
    for m in sorted(num, key=_monomial, reverse=True):
        c = num[m]
        mag = -c if c < 0 else c
        g = gcd(mag, den)
        text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        if not m:
            body = text
        elif mag == den:
            body = _text(m)
        else:
            body = f"{text}*{_text(m)}"
        if chunks:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
        else:
            chunks.append("-" + body if c < 0 else body)
    return "".join(chunks)


# -- parser --------------------------------------------------------------------
#
# expr   := ['+'|'-'] term { ('+'|'-') term }
# term   := factor { '*' factor }
# factor := atom [ '^' NAT ]
# atom   := NAT [ '/' NAT ] | 't' NAT | '(' expr ')'


class ExprSyntaxError(ValueError):
    """Raised when a polynomial expression cannot be parsed."""


# With max_weight, the parser also refuses a number of more than
# MAX_COEFF_DIGITS decimal digits: one it reads, a generator's index
# included, or a coefficient that a product or power would build,
# before it is built.
# Every number it returns then stays far below Python's 4300-digit limit on
# int-to-str conversion, also after the CLI's operations scale it.
MAX_COEFF_DIGITS = 1000

# The deepest the parser nests parentheses.  Each level takes four Python
# frames (expr, term, factor, atom), so 100 levels stay far inside the
# default recursion limit of 1000 even when the caller is itself deep in
# the stack, as a request loop or a test runner is.
MAX_NESTING = 100


def _digits(p: GradedPoly) -> float:
    """log10 of the largest numerator or denominator of p's coefficients; 0 for ZERO."""
    den = p._den
    return max((log10(max(abs(c) // (g := gcd(c, den)), den // g)) for c in p._num.values()),
               default=0.0)


class _Parser:
    """One recursive-descent pass over the text: `pos` is the index of the
    next character to read, and `depth` the number of open parentheses."""

    def __init__(self, text: str, max_weight=None):
        self.text = text
        self.pos = self.depth = 0
        self.max_weight = max_weight

    def check_weight(self, weight: int) -> None:
        """Refuse a generator, product or power above max_weight before it is built."""
        if self.max_weight is not None and weight > self.max_weight:
            raise ValueError(f"weight {weight} is above the limit {self.max_weight}")

    def check_digits(self, digits: float) -> None:
        """Refuse a number of more than MAX_COEFF_DIGITS digits (with max_weight)."""
        if self.max_weight is not None and digits > MAX_COEFF_DIGITS:
            raise ValueError(f"a number of about {digits:.0f} digits is above the limit "
                             f"of {MAX_COEFF_DIGITS} digits")

    def fail(self, expected: str):
        found = repr(self.text[self.pos]) if self.pos < len(self.text) else "the end"
        raise ExprSyntaxError(f"expected {expected} at position {self.pos}, found {found}")

    def peek(self) -> str:
        """The next character that is not blank, '' at the end; pos moves to it."""
        text, i = self.text, self.pos
        while i < len(text) and text[i].isspace():
            i += 1
        self.pos = i
        return text[i:i + 1]

    def natural(self) -> int:
        """The number whose digits start at pos: at least one digit."""
        text, start = self.text, self.pos
        while self.pos < len(text) and text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.fail("a digit")
        self.check_digits(self.pos - start)
        return int(text[start:self.pos])

    def number(self) -> int:
        """The number at the next character that is not blank."""
        self.peek()
        return self.natural()

    def expr(self) -> GradedPoly:
        sign = self.peek()
        if sign in ("+", "-"):
            self.pos += 1
        acc = -self.term() if sign == "-" else self.term()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
            self.check_digits(_digits(acc))
        return acc

    def term(self) -> GradedPoly:
        acc = self.factor()
        while self.peek() == "*":
            self.pos += 1
            rhs = self.factor()
            self.check_weight(acc.top_weight() + rhs.top_weight())
            self.check_digits(_digits(acc) + _digits(rhs))
            acc = acc * rhs
        return acc

    def factor(self) -> GradedPoly:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        exp = self.number()
        self.check_weight(base.top_weight() * exp)
        self.check_digits(_digits(base) * exp)
        return base ** exp

    def atom(self) -> GradedPoly:
        first = self.peek()
        if first == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"at most {MAX_NESTING} nested parentheses")
            self.pos += 1
            self.depth += 1
            inner = self.expr()
            if self.peek() != ")":
                self.fail("an operator or ')'")
            self.pos += 1
            self.depth -= 1
            return inner
        if first == "t":
            self.pos += 1
            n = self.natural()
            self.check_weight(n)
            return GradedPoly.gen(n)
        if not first.isdecimal():
            self.fail("a number, 't' or '('")
        num = self.natural()
        if self.peek() != "/":
            return GradedPoly.const(num)
        self.pos += 1
        den = self.number()
        if den == 0:
            self.pos -= 1  # the denominator's last digit
            self.fail("a non-zero denominator")
        return GradedPoly.const(Fraction(num, den))


def parse_poly(text: str, max_weight: int | None = None) -> GradedPoly:
    """Parse the canonical text form back into a GradedPoly.

    A malformed expression, or parentheses nested more than MAX_NESTING
    deep, is an ExprSyntaxError that reads "expected <what> at position
    <i>, found <character or the end>", i counting from 0.  With
    `max_weight`, a generator, product or power of higher weight, or a
    number of more than MAX_COEFF_DIGITS digits, is a ValueError,
    raised before that part is expanded.
    """
    parser = _Parser(text, max_weight)
    result = parser.expr()
    if parser.peek():
        parser.fail("an operator or the end")
    return result
