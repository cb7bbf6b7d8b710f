"""Seeded request lists for the three workloads.

The seed fixes the request order and the small generated inputs
(expressions, partitions, n/k, half-periods, the ``--check`` vector and the
session's weight order).  The program only ever sees the generated argv.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli_oneshot", "operations", "session_ladder")

# Expected exit code of every request: every workload is built from inputs
# on which no command fails.
EXPECTED_EXIT = 0


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``files`` maps a path relative to the checkout root to
    the content the benchmark writes there before the call."""

    kind: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = field(default=())
    # Run in the traced run only: a request of many seconds, whose single
    # time follows the host's drifting speed and whose repeats would not fit
    # in an untraced run.
    trace_only: bool = False

    @property
    def key(self) -> str:
        """Digest-store key: the argv; input files are named by content."""
        return json.dumps(list(self.argv))


# -- small generators -------------------------------------------------------------------


def _partitions_with_length(rng: random.Random, weight: int, length: int) -> list[int]:
    """A uniformly drawn composition of `weight` into `length` positive parts,
    sorted descending.  Quantisation cost depends mainly on (weight, length),
    so fixing both keeps a request's cost steady across seeds."""
    cuts = sorted(rng.sample(range(1, weight), length - 1))
    bounds = [0] + cuts + [weight]
    return sorted((b - a for a, b in zip(bounds, bounds[1:])), reverse=True)


def _random_partition(rng: random.Random, weight: int) -> list[int]:
    return _partitions_with_length(rng, weight, rng.randint(1, weight))


def _monomial(parts: list[int]) -> str:
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return "*".join(f"t{p}" + (f"^{e}" if e > 1 else "") for p, e in sorted(counts.items(), reverse=True))


def _small_expr(rng: random.Random, max_weight: int, terms: int) -> str:
    """A sum of `terms` integer multiples of distinct monomials of weight 1..max_weight."""
    seen: set[str] = set()
    out = []
    while len(out) < terms:
        mono = _monomial(_random_partition(rng, rng.randint(1, max_weight)))
        if mono in seen:
            continue
        seen.add(mono)
        c = rng.choice([1, 2, 3, 5, 7])
        sign = "-" if out and rng.random() < 0.5 else "+"
        term = mono if c == 1 else f"{c}*{mono}"
        out.append(term if not out else f" {sign} {term}")
    return "".join(out)


def _partition_arg(parts: list[int]) -> str:
    return ",".join(str(p) for p in parts)


def _check_vector(rng: random.Random) -> tuple[str, str]:
    """A Chern-vector file for ``congruences --check``: small integers on
    every partition of a weight in 2..4, in a seeded frame and basis."""
    weight = rng.randint(2, 4)
    values = {_partition_arg(p): rng.randint(-24, 24) for p in _all_partitions(weight)}
    vec = {
        "weight": weight,
        "frame": rng.choice(["tangent", "normal"]),
        "basis": rng.choice(["chern_product", "monomial"]),
        "values": values,
    }
    text = json.dumps(vec, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return f"perfbench/.runs/inputs/vec-{digest}.json", text


def _all_partitions(n: int, maxpart: int | None = None) -> list[list[int]]:
    maxpart = n if maxpart is None else maxpart
    if n == 0:
        return [[]]
    out = []
    for first in range(min(n, maxpart), 0, -1):
        out += [[first] + rest for rest in _all_partitions(n - first, first)]
    return out


def _complex_arg(z: complex) -> str:
    return f"{z.real:.4f}{z.imag:+.4f}i"


def _half_periods(rng: random.Random) -> tuple[str, str]:
    """omega1 of modulus 0.8..1.4 at any angle; tau = omega2/omega1 with
    Im(tau) in [0.8, 1.5] and |Re(tau)| <= 0.45, well inside the valid region."""
    omega1 = cmath.rect(rng.uniform(0.8, 1.4), rng.uniform(-3.1, 3.1))
    tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.8, 1.5))
    return _complex_arg(omega1), _complex_arg(omega1 * tau)


# -- workloads --------------------------------------------------------------------------


def cli_oneshot(seed: int) -> list[Request]:
    """Thirty-four one-shot calls at the default weight covering every
    subcommand a CLI user runs routinely, in seeded order.

    Most calls take 0.1 to 0.16 s, mostly interpreter start; thirteen take
    0.2 s or more.  The counts put the median well inside the first group
    and the tail percentile (10 samples beyond) inside the second, so that
    neither sits on the edge between them, where a seeded input that costs a
    little more would move it."""
    rng = random.Random(f"cli_oneshot:{seed}")
    reqs = [
        Request("beta", ("beta",)),
        Request("logarithm", ("logarithm",)),
        Request("classes_vn", ("classes", "vn")),
        Request("classes_vn_json", ("--format", "json", "classes", "vn")),
        Request("classes_cpn", ("classes", "cpn")),
        Request("congruences", ("congruences", "--n", "7")),
        Request("congruences", ("congruences", "--n", "6")),
        Request("fgl_check", ("fgl", "check")),
        Request("fgl_check", ("fgl", "check", "--order", "8")),
        Request("weierstrass_lemniscatic", ("weierstrass", "verify", "--lemniscatic")),
    ]
    def add(make) -> None:
        """Append a fresh draw of `make()`, drawing again on a repeat."""
        keys = {r.key for r in reqs}
        req = make()
        while req.key in keys:
            req = make()
        reqs.append(req)

    def theta_intersect() -> Request:
        n = rng.randint(2, 8)
        return Request("theta_intersect", ("theta", "intersect", "--n", str(n),
                                           "--k", str(rng.randint(0, n))))

    def check_vector() -> Request:
        path, text = _check_vector(rng)
        weight = json.loads(text)["weight"]
        return Request("congruences_check", ("congruences", "--n", str(weight), "--check", path),
                       files=((path, text),))

    def weierstrass_generic() -> Request:
        w1, w2 = _half_periods(rng)
        return Request("weierstrass_generic", ("weierstrass", "verify", f"--omega1={w1}", f"--omega2={w2}"))

    for _ in range(4):
        add(lambda: Request("ln_apply", ("ln", "apply",
                                         "--partition", _partition_arg(_random_partition(rng, rng.randint(1, 4))),
                                         "--expr", _small_expr(rng, 6, 3))))
    for _ in range(3):
        add(theta_intersect)
    for name in ("todd", "l", "euler"):
        add(lambda: Request("genus_theta", ("genus", "--name", name, "--of", f"theta:{rng.randint(1, 9)}")))
        add(lambda: Request("genus_poly", ("genus", "--name", name, "--of", f"poly:{_small_expr(rng, 6, 2)}")))
    for _ in range(3):
        add(lambda: Request("invariants", ("invariants", "--n", str(rng.randint(1, 6)),
                                           "--k", str(rng.choice([1, 1, 2, 3])))))
    for _ in range(2):
        add(check_vector)
        add(lambda: Request("quantize", ("quantize", "--expr", _small_expr(rng, 5, 2), "--roundtrip")))
    for _ in range(4):
        add(weierstrass_generic)
    rng.shuffle(reqs)
    return reqs


# (weight, number of factors) of the seeded products quantised in `operations`.
# With two `ln apply` (0.13 to 0.17 s) on each of the twelve products, an
# untraced run has 37 requests: its median is an `ln apply` and its tail
# percentile (10 samples beyond) a quantisation, neither on the edge
# between the two groups.
PRODUCT_SHAPES = ((8, 5),) * 3 + ((9, 5),) * 3 + ((10, 6),) * 3 + ((11, 6),) * 3


def operations(seed: int) -> list[Request]:
    """selftest and classes wn at weight 10 (traced runs only), congruences
    at n = 9, and quantisation round trips and operations on seeded
    products."""
    rng = random.Random(f"operations:{seed}")
    reqs = [
        Request("selftest", ("selftest",), trace_only=True),
        Request("classes_wn", ("classes", "wn", "--max-weight", "10"), trace_only=True),
        Request("congruences", ("congruences", "--n", "9")),
    ]
    products = []
    for weight, length in PRODUCT_SHAPES:
        expr = None
        while expr is None or expr in products:
            coeff = rng.choice(["", "2*", "3*", "5*"])
            expr = coeff + _monomial(_partitions_with_length(rng, weight, length))
        products.append(expr)
    for expr in products:
        reqs.append(Request("quantize", ("quantize", "--expr", expr, "--roundtrip")))
    for expr in products:
        lams: list[str] = []
        while len(lams) < 2:
            lam = _partition_arg(_random_partition(rng, rng.randint(1, 6)))
            if lam not in lams:
                lams.append(lam)
        for lam in lams:
            reqs.append(Request("ln_apply", ("ln", "apply", "--partition", lam, "--expr", expr)))
    rng.shuffle(reqs)
    return reqs


SESSION_WEIGHTS = tuple(range(6, 14))


def session_ladder(seed: int) -> list[Request]:
    """Weights 6..13, each visited three times.  A first visit runs
    logarithm, classes cpn, classes vn and fgl check; a repeat visit runs
    the first three.

    The first visits climb the ladder in ascending order, so each weight
    extends the prefix the one below it computed.  The repeat visits, exact
    cache hits, follow in seeded order.  Which requests miss, and what ran
    before each miss, is then the same for every seed, so the seed moves
    neither the tail nor the peak RSS by changing which cache state or heap
    a costly request meets.  Three fifths of the requests are hits, so the
    median is a hit and not the edge between hits and misses.  `fgl check`
    keeps no cache (at order 10 it takes a second each time), so repeating
    it would only lengthen the run; its first visits at weights 10..13
    already repeat `--order 10` four times."""
    rng = random.Random(f"session_ladder:{seed}")
    repeats = list(SESSION_WEIGHTS) * 2
    rng.shuffle(repeats)
    reqs = []
    for i, w in enumerate(list(SESSION_WEIGHTS) + repeats):
        mw = ("--max-weight", str(w))
        reqs += [
            Request("logarithm", ("logarithm",) + mw),
            Request("classes_cpn", ("classes", "cpn") + mw),
            Request("classes_vn", ("classes", "vn") + mw),
        ]
        if i < len(SESSION_WEIGHTS):
            reqs.append(Request("fgl_check", ("fgl", "check", "--order", str(min(w, 10)))))
    return reqs


GENERATORS = {"cli_oneshot": cli_oneshot, "operations": operations, "session_ladder": session_ladder}


def requests_for(workload: str, seed: int) -> list[Request]:
    return GENERATORS[workload](seed)
