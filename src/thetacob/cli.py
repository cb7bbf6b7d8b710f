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
import gc
import os
import sys

from .cli_base import MAX_WEIGHT, CliError

# Each subcommand's handler is named "module:function" and its module is
# imported on dispatch, so that a process compiles only the handlers of the
# subcommand it runs; each handler imports the computation modules it uses,
# json and fractions included, unless every handler of its module does.


def _default_weight() -> int:
    env = os.environ.get("THETA_MAX_WEIGHT")
    if env is None:
        return 12
    try:
        return int(env)
    except ValueError:
        raise CliError(f"THETA_MAX_WEIGHT must be an integer, got {env!r}") from None


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
    p.set_defaults(handler="cli_series:cmd_beta")

    p = sub.add_parser("logarithm", help="universal logarithm and projective classes")
    add_weight(p)
    p.set_defaults(handler="cli_series:cmd_logarithm")

    p = sub.add_parser("classes", help="dual class family tables")
    p.add_argument("family", choices=("vn", "wn", "cpn"))
    add_weight(p)
    p.set_defaults(handler="cli_series:cmd_classes")

    p = sub.add_parser("ln", help="Landweber-Novikov operations")
    lnsub = p.add_subparsers(dest="ln_command", required=True)
    pa = lnsub.add_parser("apply", help="apply S_lambda to a polynomial")
    pa.add_argument("--partition", required=True, help='e.g. "2,1"')
    pa.add_argument("--expr", required=True, help='e.g. "t3 - 4*t1*t2"')
    pa.set_defaults(handler="cli_operations:cmd_ln_apply")

    p = sub.add_parser("theta", help="theta intersection classes")
    thsub = p.add_subparsers(dest="theta_command", required=True)
    pi = thsub.add_parser("intersect", help="class of n-th divisor cut by k translates")
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--k", type=int, required=True)
    pi.set_defaults(handler="cli_operations:cmd_theta_intersect")

    p = sub.add_parser("genus", help="evaluate a Hirzebruch genus")
    p.add_argument("--name", required=True,
                   help="todd | l | euler | file:Q.json (custom characteristic series)")
    p.add_argument("--of", required=True, help='"theta:N" or \'poly:"t2 + t1^2"\'')
    p.set_defaults(handler="cli_genera:cmd_genus")

    p = sub.add_parser("invariants", help="Betti/Euler/signature/Chern tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(handler="cli_genera:cmd_invariants")

    p = sub.add_parser("congruences", help="Chern-number congruence systems")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", help="JSON Chern-vector file to test")
    p.set_defaults(handler="cli_genera:cmd_congruences")

    p = sub.add_parser("quantize", help="quantisation-map image of a polynomial")
    p.add_argument("--expr", required=True)
    p.add_argument("--roundtrip", action="store_true",
                   help="assert dequantise(quantise(x)) == x")
    p.set_defaults(handler="cli_operations:cmd_quantize")

    p = sub.add_parser("fgl", help="formal group law")
    fsub = p.add_subparsers(dest="fgl_command", required=True)
    pc = fsub.add_parser("check", help="axiom residuals (must vanish exactly)")
    pc.add_argument("--order", type=int, default=8, help="check every axiom to this total order")
    pc.set_defaults(handler="cli_series:cmd_fgl_check")

    p = sub.add_parser("weierstrass", help="floating-point elliptic checks")
    wsub = p.add_subparsers(dest="weierstrass_command", required=True)
    pv = wsub.add_parser("verify", help="residual report for one lattice")
    pv.add_argument("--lemniscatic", action="store_true")
    pv.add_argument("--omega1", help='half-period, e.g. "1.3+0.2i"')
    pv.add_argument("--omega2")
    pv.add_argument("--tol", type=float, default=None,
                    help="uniform tolerance override for all checks")
    pv.set_defaults(handler="cli_verify:cmd_weierstrass_verify")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(handler="cli_verify:cmd_selftest")

    return parser


@functools.lru_cache  # bounded at 128 argvs; a raised SystemExit is never stored
def _parse(argv: tuple[str, ...]) -> dict:
    return vars(build_parser().parse_args(argv))


def main(argv=None) -> int:
    """Run one subcommand on `argv` (default: ``sys.argv[1:]``) and return
    its exit code: 0 success, 2 a parameter or validation error, 3 a
    tolerance failure in `weierstrass verify`, 1 a failing `selftest`
    criterion.  An argparse error or ``--help`` prints as usual and raises
    `SystemExit` (2 and 0).

    The parsed arguments of the last 128 distinct argvs are cached, so a
    process that repeats a request skips argparse; each call gets a fresh
    namespace, so ``THETA_MAX_WEIGHT`` is read on every call and no
    handler sees what another changed.  `main` never freezes the garbage
    collector: only `oneshot`, whose process ends when it returns, does.
    """
    args = argparse.Namespace(**_parse(tuple(sys.argv[1:] if argv is None else argv)))
    try:
        if hasattr(args, "max_weight"):
            source = "--max-weight"
            if args.max_weight is None:
                source, args.max_weight = "THETA_MAX_WEIGHT", _default_weight()
            if not 1 <= args.max_weight <= MAX_WEIGHT:
                raise CliError(f"{source} must be between 1 and {MAX_WEIGHT}, "
                               f"got {args.max_weight}")
        module, _, name = args.handler.partition(":")
        # __import__ rather than importlib, so that -X importtime lists it.
        getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(args)
    except ValueError as exc:  # CliError and the parser's errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def oneshot() -> int:
    """`main` on the command line, for a process that ends when it returns:
    the entry of `python -m thetacob.cli` and of the `thetacob` script.

    Before returning main's exit code it freezes the garbage collector, so
    that finalisation, which still runs atexit handlers and flushes stdout
    and stderr, no longer collects and frees a heap that the operating
    system takes back at exit anyway.  A caller that keeps running calls
    `main`, which leaves the collector as it found it.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(oneshot())
