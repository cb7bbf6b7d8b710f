"""Command-line handlers for `genus`, `invariants` and `congruences`: the
subcommands that run `genera`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import lcm

from . import genera  # every handler here runs it, and it loads fractions, core and gradedring
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
from .core import parse_partition, partitions_of
from .gradedring import MAX_COEFF_DIGITS, format_poly


class _JsonInt(str):
    """The text of a JSON integer, which _read_json keeps unconverted."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused when it gives a key twice: json.load keeps the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} given twice")
        obj[key] = value
    return obj


def _read_json(path: str, flag: str, kind: str):
    """The JSON document in a file, each number kept as its text for
    _read_number to bound; NaN and Infinity stay floats, which it refuses."""
    import json

    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_JsonInt, parse_float=str,
                             object_pairs_hook=_unique_keys)
    # ValueError: JSON and UTF-8 decoding errors; RecursionError: arrays nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"{flag}: cannot read {kind} file {path}: {exc}") from None


def _read_number(value, what: str) -> Fraction:
    """A number of an input file, read by Fraction from its decimal text.

    Only a JSON number or string is a number.  Its text is bounded before
    it is built, and a decimal exponent counts as digits: "1e5000" and
    "1e-5000" both have more than MAX_COEFF_DIGITS.
    """
    if isinstance(value, str):
        mantissa, _, exponent = value.lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if not exponent.isdecimal():
            exponent = "0"  # no exponent, or one that Fraction refuses
        if (len(exponent) > len(str(MAX_COEFF_DIGITS))
                or len(mantissa) + int(exponent) > MAX_COEFF_DIGITS):
            raise CliError(f"{what} has more than {MAX_COEFF_DIGITS} digits")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise CliError(f"{what} is not a rational number: {value!r}")


def _load_genus(name: str, order: int) -> genera.GenusSpec:
    if name.startswith("file:"):
        path = name[5:]
        data = _read_json(path, "--name", "genus")
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
            raise CliError('--name: a genus file must be {"coeffs": ["1", "-1/2", ...]}')
        coeffs = [_read_number(c, f"--name: genus file coefficient {i}")
                  for i, c in enumerate(data["coeffs"])]
        if not coeffs or coeffs[0] != 1:
            raise CliError("--name: the genus file's coefficient list must start with 1")
        coeffs += [0] * (order + 1 - len(coeffs))
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


def _chern_values_payload(keys: list, vec: ChernVector) -> dict:
    """The vector's values as text under the keys, str(lam) for lam in partitions_of order."""
    return dict(zip(keys, [str(vec.values[lam]) for lam in partitions_of(vec.weight)]))


def cmd_invariants(args):
    if not 1 <= args.n <= MAX_INVARIANTS_N:
        raise CliError(f"--n must be between 1 and {MAX_INVARIANTS_N}, got {args.n}")
    if not 1 <= args.k <= MAX_INVARIANTS_K:
        raise CliError(f"--k must be between 1 and {MAX_INVARIANTS_K}, got {args.k}")
    inv = genera.theta_invariants(args.n, args.k)
    keys = [str(lam) for lam in partitions_of(args.n)] if inv.chern_tangent else None
    payload = {
        "n": inv.n,
        "k": inv.k,
        "betti": list(inv.betti),
        "euler": inv.euler,
        "signature": str(inv.signature) if inv.signature is not None else None,
        "chern_tangent_products": _chern_values_payload(keys, inv.chern_tangent)
        if inv.chern_tangent else None,
        "chern_normal_monomial": _chern_values_payload(keys, inv.chern_normal)
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
    from .symfun import ChernVector

    data = _read_json(path, "--check", "vector")
    if not isinstance(data, dict):
        raise CliError("--check: a Chern vector file must be a JSON object")
    if missing := [repr(key) for key in ("weight", "frame", "basis", "values") if key not in data]:
        raise CliError(f"--check: the Chern vector file is missing {', '.join(missing)}")
    try:
        file_weight = data["weight"]
        if type(file_weight) is not _JsonInt:  # not a bool, a float or a string either
            raise TypeError(f"the weight must be an integer, got {file_weight!r}")
        if _read_number(file_weight, "the weight") == weight:
            if not isinstance(data["values"], dict):
                raise TypeError("values must map partitions to numbers")
            values = {}
            for k, v in data["values"].items():
                if (lam := parse_partition(k)) in values:
                    raise ValueError(f"values give the partition {str(lam)!r} twice")
                values[lam] = _read_number(v, f"value {k!r}")
            common = 1  # the conversions compute over the values' common denominator
            for v in values.values():
                if (common := lcm(common, v.denominator)) >= 10 ** MAX_COEFF_DIGITS:
                    raise ValueError("the values' common denominator has more than "
                                     f"{MAX_COEFF_DIGITS} digits")
            return ChernVector(weight, data["frame"], data["basis"], values)
    except (TypeError, ValueError) as exc:  # CliError from _read_number included
        raise CliError(f"--check: malformed Chern vector file: {exc}") from None
    raise CliError(f"--check: vector weight {file_weight} != --n {weight}")


def cmd_congruences(args):
    if not 0 <= args.n <= MAX_CONGRUENCE_WEIGHT:
        raise CliError(f"--n must be between 0 and {MAX_CONGRUENCE_WEIGHT}, got {args.n}")
    if args.check:
        ok, failing = genera.congruence_check(args.n, _load_chern_vector(args.check, args.n))
        payload = {
            "weight": args.n,
            "pass": ok,
            "failing": [{"mu": str(mu), "value": str(v)} for mu, v in failing],
        }
        lines = [f"vector verdict at weight {args.n}: {'pass' if ok else 'FAIL'}"]
        lines += [f"  functional mu=({f['mu']}) evaluates to {f['value']}" for f in payload["failing"]]
        _emit(args, "congruences", {"n": args.n, "check": args.check}, payload, lines)
        return
    sys_n = genera.congruence_system(args.n)
    payload = {
        "weight": sys_n.weight,
        "functionals": [
            {"mu": str(mu), "coeffs": {str(lam): str(c) for lam, c in row.items()}}
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
