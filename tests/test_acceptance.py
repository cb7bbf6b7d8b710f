"""Release criteria, one test per criterion (run with -v for the matrix).

The checks live in thetacob.acceptance so the CLI selftest and this module
execute the identical suite; every rational criterion is an exact equality
and the floating-point criterion uses verify_lattice's stated tolerances.
"""

import pytest

from thetacob import acceptance
from thetacob.acceptance import CHECKS


@pytest.mark.parametrize("name,fn", CHECKS, ids=[name for name, _ in CHECKS])
def test_acceptance_criterion(name, fn):
    detail = fn()
    print(f"{name}: PASS  {detail}")


def test_weierstrass_criterion_names_failing_entries(monkeypatch):
    def one_failing(L):
        return {"legendre": {"residual": 0.0, "tol": 1e-10, "pass": True},
                "g3_lemniscatic": {"residual": 1.0, "tol": 1e-9, "pass": False}}

    monkeypatch.setattr(acceptance.ws, "verify_lattice", one_failing)
    monkeypatch.setattr(acceptance, "CHECKS",
                        [(name, fn) for name, fn in CHECKS if name == "9-weierstrass-lemniscatic"])
    [(name, passed, detail)] = acceptance.run_all()
    assert name == "9-weierstrass-lemniscatic" and not passed
    assert "g3_lemniscatic" in detail and "legendre" not in detail
