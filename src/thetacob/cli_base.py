"""What every command-line handler shares: the input bounds, the validation
error, the output envelope and the expression parser's flag-naming wrapper.

The handler modules import this module and never `thetacob.cli`: under
``python -m thetacob.cli`` that module runs as ``__main__``, and importing
it by name would compile it a second time.
"""

from __future__ import annotations

FORMAT_VERSION = "1.0.0"

# Largest `congruences --n`: one run takes 3.2 s at 14 (2.5 to 3.5 s),
# nearly all of it in the lattice step, and 7.3 s at 15 (6.5 to 7.5 s, cap
# lifted); `--check` computes no lattice and takes 0.6 s on a weight-14
# tangent Chern-product vector (2-vCPU Xeon host, Python 3.11.7, one-shot,
# median of 3).
MAX_CONGRUENCE_WEIGHT = 14

# Largest `fgl check --order` (2-vCPU host, Python 3.11): one-shot, median
# of 3, a check takes 0.14 s at 16, 0.25 s at 18 and 0.56 s at 20 (0.55 to
# 0.58 s); in-process at 20 the logarithm takes 0.01 s and the axioms
# 0.33 to 0.55 s.  A process checks each degree once, so a repeated or
# lower order checks nothing.
MAX_FGL_ORDER = 20

# Largest `--max-weight` and THETA_MAX_WEIGHT: at 20, `classes wn` takes
# 0.35 s one-shot (same host, median of 3; 0.19 s at 16), and `beta`,
# `logarithm` and `classes cpn|vn` 0.10 to 0.17 s, against 0.08 s for
# `python -c pass`.
MAX_WEIGHT = 20

# Least and largest modulus of a `weierstrass verify` half-period.  The
# stated tolerances are absolute, set for periods of modulus near 1; the
# float series lose all precision well outside this range (at 1e-6 and at
# 1e8 a lemniscatic lattice's Newton iterates turn NaN, at 1e200 g3
# overflows), and below 0.1 some checks already fail.
MIN_HALF_PERIOD = 1e-4
MAX_HALF_PERIOD = 1e4

# Largest max(|omega1|, |omega2|)^2 / Im(conj(omega1) omega2): 1 for the
# square lattice, larger the longer and flatter the cell the two
# half-periods span.  The quasi-periodicity factors exp(4 eta_k (z + omega_k))
# grow with it and overflow a float from about 17 on (random period pairs).
MAX_PERIOD_SKEW = 10

# Largest `invariants --n`: the Chern tables run over the partitions of n,
# one-shot on a 2-vCPU Xeon host, median of 5: 1.4 s at 45 (1.3 to 1.6 s)
# and 3.7 s at 50 (3.3 to 3.9 s), timed with the cap lifted.
MAX_INVARIANTS_N = 45

# Largest `invariants --k`: the Euler characteristic and the middle Betti
# number grow as k^(n+1), so at n = 45 they keep under 350 digits, far below
# Python's 4300-digit limit on int-to-str conversion.
MAX_INVARIANTS_K = 10 ** 6

# Largest `theta intersect --n`: one-shot, at most 0.1 s at 30 for --k 7, 15
# and 30 (2-vCPU host, median of 3).  Above the cap one class takes, in-process, at most 0.04 s
# at 35, 0.1 s at 40 and 0.5 s at 50 (worst --k near n/4).
MAX_THETA_N = 30

# Largest weight of `quantize --expr`, `ln apply --expr` and `ln apply
# --partition`: one-shot, median of 5 (2-vCPU host), quantising the sum of
# all monomials of weight <= 14 takes 0.95 s (0.74 to 1.07 s), and of weight
# 16 alone (cap lifted) 1.3 s (0.87 to 1.47 s).
MAX_EXPR_WEIGHT = 14

# Largest N in `genus --of theta:N` and weight of `genus --of poly:EXPR`.
# The genus series is cheap here (the L-genus takes 0.5 s to order 200);
# the bound is set by the terms the parser may expand below it:
# `(1+t1+...+t6)^10` has 8008 and takes 0.4 to 0.6 s one-shot with a preset
# genus, and 1.6 to 1.9 s with a genus file {"coeffs": ["1", "1/<50 sevens>"]},
# whose widest term has about 3000 digits (2-vCPU host, five runs each).
MAX_GENUS_WEIGHT = 60

# Largest sum, over the coefficients of a genus file up to the order that a
# request uses, of the decimal digits of each (of its numerator or its
# denominator, whichever is longer).  Inverting the series costs most when
# long denominators sit at z^1 and z^2: with two of 594 digits there (1247
# in all), `genus --of theta:60` takes 0.56 to 0.66 s one-shot and 0.44 to
# 0.46 s in-process, and with two of 750 (1559 in all) 0.68 s in-process
# (2-vCPU Xeon host, Python 3.11.7).  The Todd series to z^60 has 1201.
MAX_GENUS_FILE_DIGITS = 1250

# Longest numerator or denominator of a printed genus value, checked before
# it is converted to text; Python refuses to convert one of 4300 digits.
# `genus --of poly:EXPR` also refuses, before it sums, an expression whose
# widest term may pass it: the coefficient's digits plus, for each factor
# t_n, the digits of the genus of theta_n.
MAX_VALUE_DIGITS = 4000


class CliError(ValueError):
    """Validation failure reported with exit code 2."""


def _emit(args, command: str, params: dict, payload, text_lines) -> None:
    if args.format == "json":
        import json

        envelope = {
            "command": command,
            "params": params,
            "format_version": FORMAT_VERSION,
            "payload": payload,
        }
        print(json.dumps(envelope, indent=2))
    else:
        for line in text_lines:
            print(line)


def _digits(x: Fraction) -> int:
    """Bound on the decimal digits of x's numerator or denominator, read
    from its bit length: converting a long integer to text is quadratic."""
    return max(abs(x.numerator), x.denominator).bit_length() * 30103 // 100000 + 1


def _parse_expr(flag: str, text: str, max_weight: int):
    from .gradedring import parse_poly

    try:
        return parse_poly(text, max_weight=max_weight)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None
