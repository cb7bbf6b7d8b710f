"""Command-line handlers for `genus`, `invariants` and `congruences`: the
subcommands that run `genera`.
"""

from __future__ import annotations

import os

from .cli_base import (
    MAX_CONGRUENCE_WEIGHT,
    MAX_GENUS_FILE_DIGITS,
    MAX_GENUS_WEIGHT,
    MAX_INVARIANTS_K,
    MAX_INVARIANTS_N,
    MAX_VALUE_DIGITS,
    CliError,
    _digits,
    _emit,
    _parse_expr,
)


def _genus_coeff(index: int, value) -> Fraction:
    """Coefficient `index` of a genus file; a string is bounded before it is built.

    A decimal exponent counts as digits: "1e5000" and "1e-5000" both have
    more than MAX_COEFF_DIGITS.
    """
    from fractions import Fraction

    from .gradedring import MAX_COEFF_DIGITS

    if isinstance(value, str):
        mantissa, _, exponent = value.lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if not exponent.isdecimal():
            exponent = "0"  # no exponent, or one that Fraction refuses
        if (len(exponent) > len(str(MAX_COEFF_DIGITS))
                or len(mantissa) + int(exponent) > MAX_COEFF_DIGITS):
            raise CliError(f"--name: genus file coefficient {index} has more than "
                           f"{MAX_COEFF_DIGITS} digits")
    try:
        if isinstance(value, bool):
            raise TypeError("Fraction(True) would be 1")
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise CliError(f"--name: genus file coefficient {index} is not a rational number: "
                       f"{value!r}") from None


def _load_genus(name: str, order: int) -> genera.GenusSpec:
    from . import genera

    if name.startswith("file:"):
        import json
        from fractions import Fraction

        path = name[5:]
        try:
            with open(path) as fh:
                # A JSON integer stays text until _genus_coeff has bounded it.
                data = json.load(fh, parse_int=str)
        # ValueError: JSON and UTF-8 decoding errors; RecursionError: arrays nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            raise CliError(f"--name: cannot read genus file {path}: {exc}") from None
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
            raise CliError('--name: a genus file must be {"coeffs": ["1", "-1/2", ...]}')
        coeffs = [_genus_coeff(i, c) for i, c in enumerate(data["coeffs"])]
        if not coeffs or coeffs[0] != 1:
            raise CliError("--name: the genus file's coefficient list must start with 1")
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        digits = sum(len(str(max(abs(c.numerator), c.denominator))) for c in coeffs[:order + 1])
        if digits > MAX_GENUS_FILE_DIGITS:
            raise CliError(f"--name: the genus file's coefficients up to z^{order} have "
                           f"{digits} digits in all, above the limit of {MAX_GENUS_FILE_DIGITS}")
        return genera.custom_genus(coeffs, order, name=os.path.basename(path))
    try:
        return genera.genus_preset(name, order)
    except ValueError as exc:
        raise CliError(f"--name: {exc}, or file:PATH") from None


def cmd_genus(args):
    from . import genera
    from .gradedring import format_poly

    target = args.of
    if target.startswith("theta:"):
        digits = target[6:]
        try:  # int() alone would also read "+3", " 3", "3_0" and non-ASCII digits
            n = int(digits) if digits.isascii() and digits.isdigit() else -1
        except ValueError:  # more digits than int() converts
            n = -1
        if not 0 <= n <= MAX_GENUS_WEIGHT:
            raise CliError(f"--of theta:N needs an integer N between 0 and {MAX_GENUS_WEIGHT}, "
                           f"got {target!r}")
        spec = _load_genus(args.name, max(n, 2))
        value = genera.genus_of_theta(spec, n)
        shown = f"theta:{n}"
    elif target.startswith("poly:"):
        poly = _parse_expr("--of", target[5:], MAX_GENUS_WEIGHT)
        order = max(poly.top_weight(), 2)
        spec = _load_genus(args.name, order)
        gen_digits = {n: _digits(genera.genus_of_theta(spec, n))
                      for n in {part for mu, _ in poly.items() for part in mu}}
        widest = max((_digits(c) + sum(gen_digits[n] for n in mu) for mu, c in poly.items()),
                     default=0)
        if widest > MAX_VALUE_DIGITS:
            raise CliError(f"--name: a term of the genus value may have {widest} digits, "
                           f"above the limit of {MAX_VALUE_DIGITS}")
        value = genera.genus_of_poly(spec, poly)
        shown = f"poly:{format_poly(poly)}"
    else:
        raise CliError('--of must be "theta:N" or "poly:EXPR"')
    if max(abs(value.numerator), value.denominator) >= 10 ** MAX_VALUE_DIGITS:
        raise CliError(f"--name: the genus value has more than {MAX_VALUE_DIGITS} digits")
    payload = {"name": spec.name, "of": shown, "value": str(value)}
    lines = [f"{spec.name} genus of {shown} = {value}"]
    _emit(args, "genus", {"name": args.name, "of": target}, payload, lines)


def _chern_values_payload(vec: ChernVector) -> dict:
    from .core import partitions_of

    return {str(lam): str(vec.values[lam]) for lam in partitions_of(vec.weight)}


def cmd_invariants(args):
    from . import genera

    if not 1 <= args.n <= MAX_INVARIANTS_N:
        raise CliError(f"--n must be between 1 and {MAX_INVARIANTS_N}, got {args.n}")
    if not 1 <= args.k <= MAX_INVARIANTS_K:
        raise CliError(f"--k must be between 1 and {MAX_INVARIANTS_K}, got {args.k}")
    inv = genera.theta_invariants(args.n, args.k)
    payload = {
        "n": inv.n,
        "k": inv.k,
        "betti": list(inv.betti),
        "euler": inv.euler,
        "signature": str(inv.signature) if inv.signature is not None else None,
        "chern_tangent_products": _chern_values_payload(inv.chern_tangent)
        if inv.chern_tangent else None,
        "chern_normal_monomial": _chern_values_payload(inv.chern_normal)
        if inv.chern_normal else None,
    }
    lines = [
        f"theta locus n={inv.n}, degree k={inv.k}",
        f"  betti     {' '.join(str(b) for b in inv.betti)}",
        f"  euler     {inv.euler}",
        f"  signature {payload['signature'] if payload['signature'] is not None else '-'}",
    ]
    if inv.chern_tangent:
        lines.append(f"  tangent chern products  {payload['chern_tangent_products']}")
        lines.append(f"  normal chern (monomial) {payload['chern_normal_monomial']}")
    _emit(args, "invariants", {"n": args.n, "k": args.k}, payload, lines)


def _load_chern_vector(path: str, weight: int) -> ChernVector:
    """The vector in a `--check` file, refused unless its weight is `weight`.

    The weight is compared before the vector is built, because building
    it enumerates the partitions of the file's weight.
    """
    import json
    from fractions import Fraction

    from .core import parse_partition
    from .symfun import ChernVector

    try:
        with open(path) as fh:
            data = json.load(fh)
    # ValueError: bad JSON or an oversized integer; RecursionError: arrays nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"--check: cannot read vector file {path}: {exc}") from None
    try:
        file_weight = data["weight"]
        if type(file_weight) is not int:  # not a bool, a float or a string either
            raise TypeError(f"the weight must be an integer, got {file_weight!r}")
        if file_weight == weight:
            if not isinstance(data["values"], dict):
                raise TypeError("values must map partitions to numbers")
            values = {parse_partition(k): Fraction(str(v)) for k, v in data["values"].items()}
            return ChernVector(weight, data["frame"], data["basis"], values)
    except (KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(f"--check: malformed Chern vector file: {exc}") from None
    raise CliError(f"--check: vector weight {file_weight} != --n {weight}")


def cmd_congruences(args):
    from . import genera

    if not 0 <= args.n <= MAX_CONGRUENCE_WEIGHT:
        raise CliError(f"--n must be between 0 and {MAX_CONGRUENCE_WEIGHT}, got {args.n}")
    vec = _load_chern_vector(args.check, args.n) if args.check else None
    sys_n = genera.congruence_system(args.n)
    if vec is not None:
        ok, failing = sys_n.check(vec)
        payload = {
            "weight": args.n,
            "pass": ok,
            "failing": [{"mu": str(mu), "value": str(v)} for mu, v in failing],
        }
        lines = [f"vector verdict at weight {args.n}: {'pass' if ok else 'FAIL'}"]
        lines += [f"  functional mu=({f['mu']}) evaluates to {f['value']}" for f in payload["failing"]]
        _emit(args, "congruences", {"n": args.n, "check": args.check}, payload, lines)
        return
    payload = {
        "weight": sys_n.weight,
        "functionals": [
            {"mu": str(mu), "coeffs": {str(lam): str(c) for lam, c in sorted(
                row.items(), key=lambda kv: (kv[0].weight, kv[0]), reverse=True)}}
            for mu, row in sys_n.functionals
        ],
        "elementary_divisors": list(sys_n.elementary_divisors),
    }
    lines = [f"congruence system at weight {args.n}"]
    lines.append(f"  elementary divisors: {list(sys_n.elementary_divisors)}")
    for f in payload["functionals"]:
        lines.append(f"  mu=({f['mu']}): {f['coeffs']}")
    lines.append(f"  hnf basis rows: {[list(r) for r in sys_n.basis_hnf]}")
    _emit(args, "congruences", {"n": args.n}, payload, lines)
