"""Truncated power series with GradedPoly coefficients.

TruncSeries holds f_0..f_N for a series sum f_m z^m; every operation is
exact and never reads beyond the truncation order.  Two normalisations
coexist in this package and are never converted silently:

* beta-form: exponential-type series like z + sum t_n z^{n+1}/(n+1)!,
  tagged with grade_shift = 1 (coefficient of z^m is weight-homogeneous
  of weight m-1);
* Q-form: characteristic series 1 + sum a_n z^n, grade_shift = 0.

BiTruncSeries holds a bivariate series truncated by total degree, such as
the formal group law F(u, v) = beta(beta^{-1}(u) + beta^{-1}(v)) that fgl
returns.  It multiplies and compares; it does not compose.  fgl and
fgl_axiom_residuals hand the coefficients of beta and of its logarithm to
cobordism.GroupLaw, which builds F and checks its axioms degree by degree.

This module is a leaf: no other module of the package imports it, and no
CLI subcommand, selftest included, loads it.  It serves library callers
and the tests.  The package keeps the universal series as coefficient
lists (cobordism.beta_coefficients, log_coefficients and the class
families): every coefficient of beta's logarithm, of (beta(z)/z)^{-1}, of
log(beta(z)/z) and of a power of beta is one sum over partitions
(gradedring.partition_sum), and the group law reads those lists.  revert,
inv, log and residue_extract serve generic series, and the tests check
those closed forms against them.  revert, inv and log wrap the coefficient
recurrences gradedring._revert (Lagrange-Buermann inversion with Miller's
power recurrence), _reciprocal and _formal_log, which genera and the
acceptance suite run on plain coefficient lists.  TruncationError is
core's, which genera raises too.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .cobordism import GroupLaw
from .core import TruncationError
from .gradedring import (GradedPoly, ONE, ZERO, _as_poly, _formal_log, _reciprocal, _revert,
                         dot, format_poly)


class SeriesError(ValueError):
    pass


class NonInvertibleSeriesError(SeriesError):
    """Series has no multiplicative inverse (constant term not a nonzero rational)."""


class CompositionDomainError(SeriesError):
    """Inner series of a composition must have zero constant term."""


class NotNormalizedError(SeriesError):
    """revert() needs f_0 = 0 and f_1 = 1."""


def _to_poly(c) -> GradedPoly:
    p = _as_poly(c)
    if p is NotImplemented:
        p = _as_poly(Fraction(c))
    return p


class TruncSeries:
    """Series sum_{m=0}^{N} f_m z^m with GradedPoly coefficients.

    ``grade_shift = s`` asserts that f_m is weight-homogeneous of weight
    m - s; the assertion is checked at construction, so it stays true
    through every derived series that can carry it.
    """

    __slots__ = ("coeffs", "order", "grade_shift")

    def __init__(self, coeffs, order=None, grade_shift=None):
        coeffs = [_to_poly(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = coeffs[: order + 1]
        coeffs += [ZERO] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order
        if grade_shift is not None:
            for m, f in enumerate(coeffs):
                if not f.is_homogeneous(m - grade_shift):
                    raise ValueError(
                        f"coefficient of z^{m} is not weight-homogeneous of weight {m - grade_shift}"
                    )
        self.grade_shift = grade_shift

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls([], order=order)

    @classmethod
    def const(cls, c, order):
        return cls([_to_poly(c)], order=order, grade_shift=None)

    @classmethod
    def identity(cls, order):
        """The series z."""
        return cls([ZERO, ONE], order=order, grade_shift=1)

    @classmethod
    def from_rationals(cls, values, order):
        return cls([GradedPoly.const(Fraction(v)) for v in values], order=order)

    # -- inspection ---------------------------------------------------------

    def __getitem__(self, m: int) -> GradedPoly:
        if m < 0 or m > self.order:
            raise TruncationError(f"coefficient z^{m} outside truncation order {self.order}")
        return self.coeffs[m]

    def __iter__(self):
        return iter(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def truncated(self, order: int, grade_shift="keep") -> "TruncSeries":
        if grade_shift == "keep":
            grade_shift = self.grade_shift
        return TruncSeries(self.coeffs[: order + 1], order=order, grade_shift=grade_shift)

    # -- linear structure -----------------------------------------------------

    def _common_order(self, other):
        return min(self.order, other.order)

    def _as_series(self, other):
        """`other` as a series of this order, or NotImplemented if it is no scalar."""
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction, GradedPoly)):
            return TruncSeries.const(other, self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._as_series(other)
        if other is NotImplemented:
            return NotImplemented
        n = self._common_order(other)
        shift = self.grade_shift if self.grade_shift == other.grade_shift else None
        return TruncSeries(
            [self.coeffs[m] + other.coeffs[m] for m in range(n + 1)], order=n, grade_shift=shift
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], order=self.order, grade_shift=self.grade_shift)

    def __sub__(self, other):
        other = self._as_series(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._as_series(other)
        if other is NotImplemented:
            return NotImplemented
        return (-self) + other

    def scale(self, c) -> "TruncSeries":
        """Multiply every coefficient by a scalar (rational or polynomial)."""
        p = _to_poly(c)
        shift = self.grade_shift if p.is_constant() else None
        return TruncSeries([p * f for f in self.coeffs], order=self.order, grade_shift=shift)

    # -- multiplicative structure ------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GradedPoly)):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common_order(other)
        a, b = self.coeffs, other.coeffs
        out = [dot((a[i], b[m - i]) for i in range(m + 1)) for m in range(n + 1)]
        shift = None
        if self.grade_shift is not None and other.grade_shift is not None:
            shift = self.grade_shift + other.grade_shift
        return TruncSeries(out, order=n, grade_shift=shift)

    __rmul__ = __mul__

    def inv(self) -> "TruncSeries":
        """Multiplicative inverse (gradedring._reciprocal): needs a nonzero
        rational constant term."""
        f = self.coeffs
        if not f[0].is_constant() or f[0].is_zero():
            raise NonInvertibleSeriesError(
                "series inverse needs a nonzero constant rational leading coefficient"
            )
        shift = -self.grade_shift if self.grade_shift is not None else None
        return TruncSeries(_reciprocal(f), order=self.order, grade_shift=shift)

    def __pow__(self, k: int) -> "TruncSeries":
        if not isinstance(k, int):
            raise ValueError("series power must be an integer")
        if k < 0:
            return self.inv() ** (-k)
        result = TruncSeries.const(1, self.order)
        if self.grade_shift is not None:
            result = TruncSeries([ONE], order=self.order, grade_shift=0)
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def divide_by_z(self) -> "TruncSeries":
        """Shift down by one power of z; needs f_0 = 0.  Order drops by one."""
        if not self.coeffs[0].is_zero():
            raise SeriesError("cannot divide by z: nonzero constant term")
        shift = self.grade_shift - 1 if self.grade_shift is not None else None
        return TruncSeries(self.coeffs[1:], order=self.order - 1, grade_shift=shift)

    def mul_by_z(self) -> "TruncSeries":
        shift = self.grade_shift + 1 if self.grade_shift is not None else None
        return TruncSeries([ZERO] + self.coeffs, order=self.order + 1, grade_shift=shift)

    # -- composition ----------------------------------------------------------

    def compose(self, g: "TruncSeries") -> "TruncSeries":
        """f(g(z)) truncated; the inner series must have g_0 = 0."""
        if not g.coeffs[0].is_zero():
            raise CompositionDomainError("inner series must have zero constant term")
        n = self._common_order(g)
        acc = TruncSeries.const(self.coeffs[n], n)
        for m in range(n - 1, -1, -1):
            acc = acc * g.truncated(n) + self.coeffs[m]
        shift = None
        if g.grade_shift == 1 and self.grade_shift is not None:
            shift = self.grade_shift
        return TruncSeries(acc.coeffs, order=n, grade_shift=shift)

    def revert(self) -> "TruncSeries":
        """Compositional inverse g with f(g(z)) = g(f(z)) = z
        (gradedring._revert): needs f_0 = 0 and f_1 = 1 (at order 0, only f_0 = 0)."""
        f = self.coeffs
        if not f[0].is_zero() or (self.order > 0 and f[1] != ONE):
            raise NotNormalizedError("reversion needs f_0 = 0 and f_1 = 1")
        shift = 1 if self.grade_shift == 1 else None
        return TruncSeries(_revert(f), order=self.order, grade_shift=shift)

    # -- exp / log ---------------------------------------------------------------

    def exp(self) -> "TruncSeries":
        """Formal exponential; needs f_0 = 0."""
        if not self.coeffs[0].is_zero():
            raise SeriesError("exp needs zero constant term")
        n = self.order
        acc = TruncSeries.const(1, n)
        for k in range(n, 0, -1):
            acc = acc * self.scale(Fraction(1, k)) + 1
        shift = 0 if self.grade_shift == 0 else None
        return TruncSeries(acc.coeffs, order=n, grade_shift=shift)

    def log(self) -> "TruncSeries":
        """Formal logarithm (gradedring._formal_log); needs f_0 = 1."""
        if self.coeffs[0] != ONE:
            raise SeriesError("log needs constant term 1")
        shift = 0 if self.grade_shift == 0 else None
        return TruncSeries(_formal_log(self.coeffs), order=self.order, grade_shift=shift)

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"TruncSeries({format_series(self)!r})"


def residue_extract(beta_series: TruncSeries, n: int, k: int) -> GradedPoly:
    """(n+1)! times the coefficient of z^{n+1} in beta_series^{k+1}.

    Applied to the universal exponential series this is the class of the
    intersection of a theta divisor with k of its generic translates.
    """
    if n + 1 > beta_series.order:
        raise TruncationError(f"need series order {n + 1}, have {beta_series.order}")
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    power = beta_series.truncated(n + 1) ** (k + 1)
    return factorial(n + 1) * power[n + 1]


def format_series(f: TruncSeries) -> str:
    """Canonical text form, e.g. ``z + 1/2*t1*z^2``.

    Multi-term coefficients are parenthesised; zero series prints "0".
    """
    chunks = [_term(c, "" if m == 0 else "z" if m == 1 else f"z^{m}")
              for m, c in enumerate(f.coeffs) if not c.is_zero()]
    return " + ".join(chunks) if chunks else "0"


def _term(c: GradedPoly, mono: str) -> str:
    """The text of c times the monomial ``mono`` (c alone when it is ""): a
    coefficient of several terms or with a sign is parenthesised, and 1 is
    left out."""
    body = format_poly(c)
    if not mono:
        return body
    if c == ONE:
        return mono
    if len(c) > 1 or body.startswith("-"):
        return f"({body})*{mono}"
    return f"{body}*{mono}"


# -- bivariate series -------------------------------------------------------------


class BiTruncSeries:
    """Series sum f_{m,l} u^m v^l truncated by total degree m + l <= N."""

    __slots__ = ("terms", "order")

    def __init__(self, terms=None, order=0):
        self.order = order
        clean: dict[tuple[int, int], GradedPoly] = {}
        if terms:
            for (m, l), c in terms.items():
                if m + l > order:
                    continue
                c = _to_poly(c)
                if not c.is_zero():
                    clean[(m, l)] = c
        self.terms = clean

    def coefficient(self, m: int, l: int) -> GradedPoly:
        return self.terms.get((m, l), ZERO)

    def __mul__(self, other):
        if not isinstance(other, BiTruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        pairs: dict[tuple[int, int], list] = {}
        for (m1, l1), a in self.terms.items():
            for (m2, l2), b in other.terms.items():
                if m1 + m2 + l1 + l2 <= n:
                    pairs.setdefault((m1 + m2, l1 + l2), []).append((a, b))
        return BiTruncSeries({key: dot(ps) for key, ps in pairs.items()}, order=n)

    def __eq__(self, other):
        if not isinstance(other, BiTruncSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        def key(kv):
            (m, l), _ = kv
            return (m + l, m, l)
        chunks = []
        for (m, l), c in sorted(self.terms.items(), key=key):
            mono = "*".join(filter(None, [
                ("u" if m == 1 else f"u^{m}") if m else "",
                ("v" if l == 1 else f"v^{l}") if l else "",
            ]))
            chunks.append(_term(c, mono))
        return " + ".join(chunks)


def _law_inputs(beta_series: TruncSeries, order: int, log: TruncSeries | None):
    if order > beta_series.order:
        raise TruncationError("formal group order exceeds series truncation")
    b = beta_series.truncated(order)
    return b.coeffs, (b.revert() if log is None else log.truncated(order)).coeffs


def fgl(beta_series: TruncSeries, order: int, log: TruncSeries | None = None) -> BiTruncSeries:
    """The formal group law F(u, v) = beta(beta^{-1}(u) + beta^{-1}(v)).

    F is the universal group law of geometric cobordisms over the theta
    basis; its exponential is beta.  ``log``, when given, must be
    L = beta^{-1} to at least ``order``; without it beta_series is reverted.
    """
    F = GroupLaw().law(*_law_inputs(beta_series, order, log), order)
    return BiTruncSeries({(m, l): c for m, row in enumerate(F) for l, c in enumerate(row)},
                         order=order)


def fgl_axiom_residuals(beta_series: TruncSeries, order: int,
                        log: TruncSeries | None = None) -> dict[str, bool]:
    """The group-law axioms to total order ``order``, named and read as in
    cobordism.GroupLaw.axioms: 'unit', 'commutativity', 'associativity' and
    'exp_identity' (F(beta(z), beta(w)) = beta(z+w)).  ``log`` is as for fgl().
    """
    return GroupLaw().axioms(*_law_inputs(beta_series, order, log), order)
