"""Command-line handlers for `ln apply`, `quantize` and `theta intersect`:
the subcommands that run `landweber`'s operations.
"""

from __future__ import annotations

from . import landweber as ln  # every handler here runs it, and it loads core and gradedring
from .cli_base import MAX_EXPR_WEIGHT, MAX_THETA_N, CliError, _emit, _parse_expr
from .core import parse_partition
from .gradedring import format_poly


def cmd_ln_apply(args):
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
    n, k = args.n, args.k
    if not 0 <= n <= MAX_THETA_N:
        raise CliError(f"--n must be between 0 and {MAX_THETA_N}, got {n}")
    if not 0 <= k <= n:
        raise CliError(f"--k must be between 0 and --n ({n}), got {k}")
    cls = ln.intersection_class(n, k)
    payload = {"n": n, "k": k, "poly": format_poly(cls)}
    lines = [f"theta intersection class (n={n}, k={k}): {payload['poly']}"]
    _emit(args, "theta intersect", {"n": n, "k": k}, payload, lines)


def cmd_quantize(args):
    poly = _parse_expr("--expr", args.expr, MAX_EXPR_WEIGHT)
    q = ln.quantize(poly)
    terms = [
        {"t": str(mu), "tp": str(nu), "coeff": str(c)}
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
