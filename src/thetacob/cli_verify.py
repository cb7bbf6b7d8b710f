"""Command-line handlers for `weierstrass verify` and `selftest`: the
subcommands that exit non-zero when one of their checks fails.
"""

from __future__ import annotations

import sys

from .cli_base import MAX_HALF_PERIOD, MAX_PERIOD_SKEW, MIN_HALF_PERIOD, CliError, _emit


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

    if args.lemniscatic and (args.omega1 is not None or args.omega2 is not None):
        raise CliError("--lemniscatic fixes the half-periods 1 and i: "
                       "give it or --omega1/--omega2, not both")
    if args.omega1 is None and args.omega2 is None:
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
