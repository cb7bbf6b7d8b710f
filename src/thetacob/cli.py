"""Command-line front end: every computation as a deterministic emitter.

Output is wrapped in a fixed envelope {command, params, format_version,
payload}; identical inputs produce byte-identical output (fixed orderings,
no timestamps).  ``--format json`` emits the envelope, the default text
format prints aligned human-readable tables.  Exit codes: 0 success, 2
parameter/validation error, 3 tolerance failure in `weierstrass verify`;
`selftest` exits 1 when a criterion fails.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

# Each handler imports the modules it uses, json and fractions included, so
# that a process compiles and loads only what its subcommand runs.  The
# annotations that name those modules are never evaluated.

FORMAT_VERSION = "1.0.0"

# Largest `congruences --n`: one run takes about 3 s at 14, nearly all of it
# in the lattice step (the rows take 0.1 s), and 6 to 10 s at 15.  `--check`
# adds about 0.1 s at 14 in any frame and basis (2-vCPU host, one-shot).
MAX_CONGRUENCE_WEIGHT = 14

# Largest `fgl check --order` (2-vCPU host, Python 3.11): one-shot, median
# of 5, a check takes 0.17 to 0.18 s at 16, 0.24 to 0.31 s at 18 and 0.45 to
# 0.49 s at 20; in-process at 20 the logarithm takes 0.01 to 0.03 s and the
# axioms 0.31 to 0.43 s.  A process checks each degree once, so a repeated or
# lower order checks nothing.
MAX_FGL_ORDER = 20

# Largest `--max-weight` and THETA_MAX_WEIGHT: at 16, `classes wn` takes
# about 0.33 s one-shot (same host), nearly all of it in the integrality
# multipliers; `logarithm`, `classes cpn` and `classes vn` take 0.12 to 0.17 s.
MAX_WEIGHT = 16

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
# about 2.3 s at 45 and 6 s at 50.
MAX_INVARIANTS_N = 45

# Largest `invariants --k`: the Euler characteristic and the middle Betti
# number grow as k^(n+1), so at n = 45 they keep under 350 digits, far below
# Python's 4300-digit limit on int-to-str conversion.
MAX_INVARIANTS_K = 10 ** 6

# Largest `theta intersect --n`: one-shot, at most 0.13 s at 30 for any --k
# (2-vCPU host).  Above the cap one class takes, in-process, at most 0.04 s
# at 35, 0.1 s at 40 and 0.5 s at 50 (worst --k near n/4).
MAX_THETA_N = 30

# Largest weight of `quantize --expr`, `ln apply --expr` and `ln apply
# --partition`: one-shot, quantising the sum of all monomials of weight
# <= 14 takes 1.5 to 1.7 s, and of weight 16 alone (cap lifted) 1.3 to 1.5 s.
MAX_EXPR_WEIGHT = 14

# Largest N in `genus --of theta:N` and weight of `genus --of poly:EXPR`.
# The genus series is cheap here (the L-genus takes 0.5 s to order 200);
# the bound is set by the terms the parser may expand below it:
# `(1+t1+...+t6)^10` has 8008 and takes 0.8 to 1.1 s one-shot with a preset
# genus, and 2.5 to 3.1 s with a genus file {"coeffs": ["1", "1/<50 sevens>"]},
# whose widest term has about 3000 digits (2-vCPU host).
MAX_GENUS_WEIGHT = 60

# Largest sum, over the coefficients of a genus file up to the order that a
# request uses, of the decimal digits of each (of its numerator or its
# denominator, whichever is longer).  Inverting the series costs most when
# long denominators sit at z^1 and z^2: `genus --of theta:60` then takes
# up to about 1 s at 1250 digits and 1.4 s at 1560 (in-process, 2-vCPU
# host).  The Todd series to z^60 has 1201.
MAX_GENUS_FILE_DIGITS = 1250

# Longest numerator or denominator of a printed genus value, checked before
# it is converted to text; Python refuses to convert one of 4300 digits.
# `genus --of poly:EXPR` also refuses, before it sums, an expression whose
# widest term may pass it: the coefficient's digits plus, for each factor
# t_n, the digits of the genus of theta_n.
MAX_VALUE_DIGITS = 4000


class CliError(ValueError):
    """Validation failure reported with exit code 2."""


def _default_weight() -> int:
    env = os.environ.get("THETA_MAX_WEIGHT")
    if env is None:
        return 12
    try:
        return int(env)
    except ValueError:
        raise CliError(f"THETA_MAX_WEIGHT must be an integer, got {env!r}") from None


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


def _frac(x: Fraction) -> str:
    return str(x)


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


# -- subcommand handlers -------------------------------------------------------------


def cmd_beta(args):
    from . import cobordism as cob
    from .gradedring import format_poly

    n = args.max_weight
    b = cob.beta(n + 1)
    coeffs = [format_poly(b[m]) for m in range(n + 2)]
    payload = {"max_weight": n, "coefficients": coeffs}
    lines = [f"beta(z) up to weight {n} (coefficient of z^m has weight m-1)"]
    lines += [f"  z^{m:<3} {coeffs[m]}" for m in range(1, n + 2)]
    _emit(args, "beta", {"max_weight": n}, payload, lines)


def cmd_logarithm(args):
    from . import cobordism as cob
    from .gradedring import format_poly

    n = args.max_weight
    lg = cob.mischenko_log(n + 1)
    cps = cob.cp_classes(n + 1)
    coeffs = [format_poly(lg[m]) for m in range(n + 2)]
    payload = {
        "max_weight": n,
        "coefficients": coeffs,
        "cp_classes": [format_poly(cps[m]) for m in range(n + 1)],
    }
    lines = [f"beta^-1(u) up to weight {n}; cp_n = (n+1) * [u^(n+1)] beta^-1"]
    for m in range(1, n + 1):
        lines.append(f"  n={m:<3} coeff {coeffs[m + 1]:<40} cp_{m} = {payload['cp_classes'][m]}")
    _emit(args, "logarithm", {"max_weight": n}, payload, lines)


def cmd_classes(args):
    from . import cobordism as cob
    from .gradedring import format_poly

    n = args.max_weight
    family = args.family
    rows = []
    if family == "vn":
        vs = cob.v_classes(n)
        for m in range(1, n + 1):
            rows.append({"n": m, "poly": format_poly(vs[m]), "q": cob.q_multiplier(m)})
        header = "v_n classes with minimal integral multipliers q_n"
        lines = [header] + [f"  v{r['n']} = {r['poly']}   (q_{r['n']} = {r['q']})" for r in rows]
    elif family == "wn":
        from . import genera

        wcl = cob.w_classes(n)
        for m in range(1, n + 1):
            rows.append({
                "n": m,
                "poly": format_poly(wcl[m]),
                "q": genera.integrality_multiplier(wcl[m]),
            })
        header = "w_n classes with empirical minimal integral multipliers"
        lines = [header] + [f"  w{r['n']} = {r['poly']}   (q_{r['n']} = {r['q']})" for r in rows]
    else:
        cps = cob.cp_classes(n + 1)
        for m in range(1, n + 1):
            rows.append({"n": m, "poly": format_poly(cps[m]), "q": 1})
        header = "cp_n projective-space classes (already integral cobordism classes)"
        lines = [header] + [f"  cp{r['n']} = {r['poly']}" for r in rows]
    payload = {"family": family, "max_weight": n, "classes": rows}
    _emit(args, "classes", {"family": family, "max_weight": n}, payload, lines)


def cmd_ln_apply(args):
    from . import landweber as ln
    from .core import parse_partition
    from .gradedring import format_poly

    try:
        lam = parse_partition(args.partition)
    except ValueError:
        raise CliError("--partition must be a comma-separated list of positive integers, "
                       f"got {args.partition!r}") from None
    if lam.weight > MAX_EXPR_WEIGHT:
        raise CliError(f"--partition must have weight at most {MAX_EXPR_WEIGHT}, got {lam.weight}")
    poly = _parse_expr("--expr", args.expr, MAX_EXPR_WEIGHT)
    result = ln.ln_apply(lam, poly)
    payload = {"partition": str(lam), "expr": format_poly(poly), "result": format_poly(result)}
    lines = [f"S_({lam}) applied to {payload['expr']}", f"  = {payload['result']}"]
    _emit(args, "ln apply", {"partition": str(lam), "expr": args.expr}, payload, lines)


def cmd_theta_intersect(args):
    from . import landweber as ln
    from .gradedring import format_poly

    n, k = args.n, args.k
    if not 0 <= n <= MAX_THETA_N:
        raise CliError(f"--n must be between 0 and {MAX_THETA_N}, got {n}")
    if not 0 <= k <= n:
        raise CliError(f"--k must be between 0 and --n ({n}), got {k}")
    cls = ln.intersection_class(n, k)
    payload = {"n": n, "k": k, "poly": format_poly(cls)}
    lines = [f"theta intersection class (n={n}, k={k}): {payload['poly']}"]
    _emit(args, "theta intersect", {"n": n, "k": k}, payload, lines)


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
        except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding errors included
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
        try:
            n = int(target[6:])
        except ValueError:
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
        gen_digits = {n: _digits(genera.genus_of_theta(spec, n)) for n in range(order + 1)}
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
    payload = {"name": spec.name, "of": shown, "value": _frac(value)}
    lines = [f"{spec.name} genus of {shown} = {value}"]
    _emit(args, "genus", {"name": args.name, "of": target}, payload, lines)


def _chern_values_payload(vec: ChernVector) -> dict:
    from .core import partitions_of

    return {str(lam): _frac(vec.values[lam]) for lam in partitions_of(vec.weight)}


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
        "signature": _frac(inv.signature) if inv.signature is not None else None,
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
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or an oversized integer
        raise CliError(f"--check: cannot read vector file {path}: {exc}") from None
    try:
        file_weight = int(data["weight"])
        if file_weight == weight:
            values = {parse_partition(k): Fraction(str(v)) for k, v in data["values"].items()}
            return ChernVector(weight, data["frame"], data["basis"], values)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
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
            "failing": [{"mu": str(mu), "value": _frac(v)} for mu, v in failing],
        }
        lines = [f"vector verdict at weight {args.n}: {'pass' if ok else 'FAIL'}"]
        lines += [f"  functional mu=({f['mu']}) evaluates to {f['value']}" for f in payload["failing"]]
        _emit(args, "congruences", {"n": args.n, "check": args.check}, payload, lines)
        return
    payload = {
        "weight": sys_n.weight,
        "functionals": [
            {"mu": str(mu), "coeffs": {str(lam): _frac(c) for lam, c in sorted(
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


def cmd_quantize(args):
    from . import landweber as ln
    from .gradedring import format_poly

    poly = _parse_expr("--expr", args.expr, MAX_EXPR_WEIGHT)
    q = ln.quantize(poly)
    terms = [
        {"t": str(mu), "tp": str(nu), "coeff": _frac(c)}
        for (mu, nu), c in q.items()
    ]
    payload = {"expr": format_poly(poly), "tensor": terms}
    lines = [f"quantisation of {payload['expr']}", f"  = {q}"]
    if args.roundtrip:
        back = ln.dequantize(q)
        ok = back == poly
        payload["roundtrip"] = "ok" if ok else f"mismatch: {format_poly(back)}"
        lines.append(f"  dequantise-roundtrip: {payload['roundtrip']}")
        if not ok:
            _emit(args, "quantize", {"expr": args.expr}, payload, lines)
            raise CliError("quantisation roundtrip failed")
    _emit(args, "quantize", {"expr": args.expr, "roundtrip": bool(args.roundtrip)},
          payload, lines)


def cmd_fgl_check(args):
    from . import cobordism as cob

    order = args.order
    if not 1 <= order <= MAX_FGL_ORDER:
        raise CliError(f"--order must be between 1 and {MAX_FGL_ORDER}, got {order}")
    # F is built from the logarithm the other subcommands keep, and each
    # degree is checked once per process.
    res = cob.group_law_axioms(order)
    payload = {name: ("0" if ok else "nonzero") for name, ok in res.items()}
    payload["order"] = order
    payload["pass"] = all(res.values())
    lines = [f"formal group law axioms to total order {order}"]
    for name, ok in res.items():
        lines.append(f"  {name:<16} residual {'0' if ok else 'NONZERO'}")
    _emit(args, "fgl check", {"order": order}, payload, lines)
    if not payload["pass"]:
        raise CliError("formal group law residual nonzero")


def _parse_half_period(flag: str, text: str) -> complex:
    try:
        value = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise CliError(f"{flag}: cannot parse complex number {text!r}") from None
    if not MIN_HALF_PERIOD <= abs(value) <= MAX_HALF_PERIOD:  # NaN and inf fail too
        raise CliError(f"{flag} must be a finite complex number of modulus between "
                       f"{MIN_HALF_PERIOD:g} and {MAX_HALF_PERIOD:g}, got {text!r}")
    return value


def cmd_weierstrass_verify(args):
    from . import weierstrass as ws

    if args.lemniscatic or (args.omega1 is None and args.omega2 is None):
        omega1, omega2 = complex(1.0), complex(0.0, 1.0)
    else:
        if args.omega1 is None or args.omega2 is None:
            raise CliError("provide both --omega1 and --omega2, or use --lemniscatic")
        omega1 = _parse_half_period("--omega1", args.omega1)
        omega2 = _parse_half_period("--omega2", args.omega2)
        area = (omega1.conjugate() * omega2).imag  # <= 0 is refused by lattice_init
        skew = max(abs(omega1), abs(omega2)) ** 2 / area if area > 0 else 1.0
        if skew > MAX_PERIOD_SKEW:
            raise CliError(f"--omega1/--omega2 span a cell too long and flat: "
                           f"max(|omega1|, |omega2|)^2 / Im(conj(omega1) omega2) must be "
                           f"at most {MAX_PERIOD_SKEW}, got {skew:.3g}")
    if args.tol is not None and not 0 < args.tol < float("inf"):
        raise CliError(f"--tol must be a finite number > 0, got {args.tol}")
    # --tol replaces every check's tolerance; the lattice construction
    # gate stays at its default (or looser) so absurdly tight tolerances
    # surface as check failures (exit 3), not parameter errors.
    build_tol = max(args.tol, 1e-10) if args.tol is not None else 1e-10
    try:
        lattice = ws.lattice_init(omega1, omega2, tol=build_tol)
    except (ws.LatticeError, ws.ConvergenceError) as exc:
        raise CliError(f"--omega1/--omega2: {exc}") from None
    report = ws.verify_lattice(lattice, tol=args.tol)
    all_ok = all(entry["pass"] for entry in report.values())
    payload = {"omega1": repr(omega1), "omega2": repr(omega2), "checks": report, "pass": all_ok}
    lines = [f"weierstrass verification for omega1={omega1}, omega2={omega2}"]
    for name, entry in report.items():
        status = "ok " if entry["pass"] else "FAIL"
        lines.append(f"  {status} {name:<26} residual {entry['residual']:.3e}  (tol {entry['tol']:.1e})")
    _emit(args, "weierstrass verify",
          {"omega1": repr(omega1), "omega2": repr(omega2), "tol": args.tol}, payload, lines)
    if not all_ok:
        sys.exit(3)


def cmd_selftest(args):
    from .acceptance import run_all

    results = run_all()
    payload = {"results": [{"criterion": name, "pass": ok, "detail": detail}
                           for name, ok, detail in results]}
    lines = ["acceptance criteria"]
    for name, ok, detail in results:
        lines.append(f"  {'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if not ok else ""))
    _emit(args, "selftest", {}, payload, lines)
    if not all(ok for _, ok, _ in results):
        sys.exit(1)


# -- parser -----------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetacob",
        description="Exact theta-divisor calculus for complex cobordism",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight(p):
        p.add_argument("--max-weight", type=int, default=None,
                       help="truncation weight (default: THETA_MAX_WEIGHT or 12)")

    p = sub.add_parser("beta", help="universal exponential series table")
    add_weight(p)
    p.set_defaults(handler=cmd_beta)

    p = sub.add_parser("logarithm", help="universal logarithm and projective classes")
    add_weight(p)
    p.set_defaults(handler=cmd_logarithm)

    p = sub.add_parser("classes", help="dual class family tables")
    p.add_argument("family", choices=("vn", "wn", "cpn"))
    add_weight(p)
    p.set_defaults(handler=cmd_classes)

    p = sub.add_parser("ln", help="Landweber-Novikov operations")
    lnsub = p.add_subparsers(dest="ln_command", required=True)
    pa = lnsub.add_parser("apply", help="apply S_lambda to a polynomial")
    pa.add_argument("--partition", required=True, help='e.g. "2,1"')
    pa.add_argument("--expr", required=True, help='e.g. "t3 - 4*t1*t2"')
    pa.set_defaults(handler=cmd_ln_apply)

    p = sub.add_parser("theta", help="theta intersection classes")
    thsub = p.add_subparsers(dest="theta_command", required=True)
    pi = thsub.add_parser("intersect", help="class of n-th divisor cut by k translates")
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--k", type=int, required=True)
    pi.set_defaults(handler=cmd_theta_intersect)

    p = sub.add_parser("genus", help="evaluate a Hirzebruch genus")
    p.add_argument("--name", required=True,
                   help="todd | l | euler | file:Q.json (custom characteristic series)")
    p.add_argument("--of", required=True, help='"theta:N" or \'poly:"t2 + t1^2"\'')
    p.set_defaults(handler=cmd_genus)

    p = sub.add_parser("invariants", help="Betti/Euler/signature/Chern tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(handler=cmd_invariants)

    p = sub.add_parser("congruences", help="Chern-number congruence systems")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", help="JSON Chern-vector file to test")
    p.set_defaults(handler=cmd_congruences)

    p = sub.add_parser("quantize", help="quantisation-map image of a polynomial")
    p.add_argument("--expr", required=True)
    p.add_argument("--roundtrip", action="store_true",
                   help="assert dequantise(quantise(x)) == x")
    p.set_defaults(handler=cmd_quantize)

    p = sub.add_parser("fgl", help="formal group law")
    fsub = p.add_subparsers(dest="fgl_command", required=True)
    # 6 is series.ASSOC_ORDER, which this module does not import.
    pc = fsub.add_parser("check", help="axiom residuals (must vanish exactly; "
                         "associativity to total order 6 at most)",
                         description="Check the group-law axioms to total order --order, "
                         "associativity to total order 6 at most: it is the one check in "
                         "three variables.")
    pc.add_argument("--order", type=int, default=8)
    pc.set_defaults(handler=cmd_fgl_check)

    p = sub.add_parser("weierstrass", help="floating-point elliptic checks")
    wsub = p.add_subparsers(dest="weierstrass_command", required=True)
    pv = wsub.add_parser("verify", help="residual report for one lattice")
    pv.add_argument("--lemniscatic", action="store_true")
    pv.add_argument("--omega1", help='half-period, e.g. "1.3+0.2i"')
    pv.add_argument("--omega2")
    pv.add_argument("--tol", type=float, default=None,
                    help="uniform tolerance override for all checks")
    pv.set_defaults(handler=cmd_weierstrass_verify)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "max_weight"):
            source = "--max-weight"
            if args.max_weight is None:
                source, args.max_weight = "THETA_MAX_WEIGHT", _default_weight()
            if not 1 <= args.max_weight <= MAX_WEIGHT:
                raise CliError(f"{source} must be between 1 and {MAX_WEIGHT}, "
                               f"got {args.max_weight}")
        args.handler(args)
    except ValueError as exc:  # CliError and the parser's errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
