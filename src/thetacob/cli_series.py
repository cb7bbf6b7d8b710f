"""Command-line handlers for `beta`, `logarithm`, `classes` and `fgl check`:
the subcommands that read `cobordism`'s universal series.
"""

from __future__ import annotations

from . import cobordism as cob  # every handler here runs it, and it loads gradedring
from .cli_base import MAX_FGL_ORDER, CliError, _emit
from .gradedring import format_poly


def cmd_beta(args):
    n = args.max_weight
    b = cob.beta_coefficients(n + 1)
    coeffs = [format_poly(b[m]) for m in range(n + 2)]
    payload = {"max_weight": n, "coefficients": coeffs}
    lines = [f"beta(z) up to weight {n} (coefficient of z^m has weight m-1)"]
    lines += [f"  z^{m:<3} {coeffs[m]}" for m in range(1, n + 2)]
    _emit(args, "beta", {"max_weight": n}, payload, lines)


def cmd_logarithm(args):
    n = args.max_weight
    lg = cob.log_coefficients(n + 1)
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
    n, family = args.max_weight, args.family
    if family == "vn":
        polys, qs = cob.v_classes(n), [cob.q_multiplier(m) for m in range(1, n + 1)]
        header = "v_n classes with minimal integral multipliers q_n"
    elif family == "wn":
        from .genera import w_multipliers

        polys, qs = cob.w_classes(n), w_multipliers(n)
        header = "w_n classes with empirical minimal integral multipliers"
    else:
        polys, qs = cob.cp_classes(n + 1), [1] * n
        header = "cp_n projective-space classes (already integral cobordism classes)"
    rows = [{"n": m, "poly": format_poly(polys[m]), "q": qs[m - 1]} for m in range(1, n + 1)]
    lines = [header] + [f"  {family[:-1]}{r['n']} = {r['poly']}"
                        + ("" if family == "cpn" else f"   (q_{r['n']} = {r['q']})") for r in rows]
    payload = {"family": family, "max_weight": n, "classes": rows}
    _emit(args, "classes", {"family": family, "max_weight": n}, payload, lines)


def cmd_fgl_check(args):
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
