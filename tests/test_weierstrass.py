import cmath
import math
import random

import pytest

from thetacob.weierstrass import (
    LatticeError,
    PoleError,
    half_periods,
    lattice_init,
    lemniscatic_lattice,
    phi_eps,
    sigma_w,
    verify_lattice,
    wp,
    wp_prime,
    xi,
    xi_jacobian_signs,
    xi_newton_roots,
    zeta_w,
)


@pytest.fixture(scope="module")
def lem():
    return lemniscatic_lattice()


@pytest.fixture(scope="module")
def skew():
    return lattice_init(1.3 + 0.2j, -0.4 + 1.1j)


def test_lattice_rejects_degenerate_pairs():
    with pytest.raises(LatticeError):
        lattice_init(1.0, 2.0)
    with pytest.raises(LatticeError):
        lattice_init(1.0, -1j)


def test_lemniscatic_closed_forms(lem):
    assert abs(lem.eta1 - math.pi / 4) < 1e-9
    assert abs(lem.eta2 + 1j * math.pi / 4) < 1e-9
    assert abs(lem.a) < 1e-9
    assert abs(lem.b + math.pi / 4) < 1e-9
    assert abs(lem.g3) < 1e-9
    e_val = math.gamma(0.25) ** 4 / (32 * math.pi)
    assert abs(lem.g2 - 4 * e_val ** 2) < 1e-8
    assert lem.legendre_residual < 1e-10


def test_wp_values_lemniscatic(lem):
    e_val = math.gamma(0.25) ** 4 / (32 * math.pi)
    assert abs(wp(1.0, lem) - e_val) < 1e-7
    assert abs(wp(1j, lem) + e_val) < 1e-7
    assert abs(wp(1 + 1j, lem)) < 1e-9
    assert abs(wp_prime(1.0, lem)) < 1e-9
    # caustic comparison: e exceeds pi/4 with a visible margin
    margin = e_val - math.pi / 4
    assert margin > 0.9


def test_wp_periodicity_and_evenness(lem, skew):
    rng = random.Random(5)
    for L in (lem, skew):
        b1, b2 = 2 * L.omega1, 2 * L.omega2
        for _ in range(25):
            z = rng.uniform(0.05, 0.95) * b1 + rng.uniform(0.05, 0.95) * b2
            ref = wp(z, L)
            scale = max(1.0, abs(ref))
            assert abs(wp(z + b1, L) - ref) / scale < 1e-9
            assert abs(wp(z + 3 * b2 - 2 * b1, L) - ref) / scale < 1e-9
            assert abs(wp(-z, L) - ref) / scale < 1e-9
            assert abs(wp_prime(-z, L) + wp_prime(z, L)) / scale < 1e-9


def test_wp_satisfies_cubic(lem, skew):
    rng = random.Random(6)
    for L in (lem, skew):
        for _ in range(20):
            z = rng.uniform(0.1, 0.9) * 2 * L.omega1 + rng.uniform(0.1, 0.9) * 2 * L.omega2
            p, pp = wp(z, L), wp_prime(z, L)
            lhs = pp * pp
            rhs = 4 * p ** 3 - L.g2 * p - L.g3
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-8


def test_zeta_quasi_periodicity(lem, skew):
    rng = random.Random(7)
    for L in (lem, skew):
        b1, b2 = 2 * L.omega1, 2 * L.omega2
        for _ in range(25):
            z = rng.uniform(0.05, 0.95) * b1 + rng.uniform(0.05, 0.95) * b2
            assert abs(zeta_w(z + b1, L) - zeta_w(z, L) - 2 * L.eta1) < 1e-9
            assert abs(zeta_w(z + b2, L) - zeta_w(z, L) - 2 * L.eta2) < 1e-9
            assert abs(zeta_w(-z, L) + zeta_w(z, L)) < 1e-9


def test_sigma_quasi_periodicity(lem, skew):
    rng = random.Random(8)
    for L in (lem, skew):
        for _ in range(25):
            z = rng.uniform(0.05, 0.95) * 2 * L.omega1 + rng.uniform(0.05, 0.95) * 2 * L.omega2
            for wk, ek in ((L.omega1, L.eta1), (L.omega2, L.eta2)):
                lhs = sigma_w(z + 2 * wk, L)
                rhs = -sigma_w(z, L) * cmath.exp(2 * ek * (z + wk))
                assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9


def test_sigma_odd_and_normalised(lem):
    assert sigma_w(0.0, lem) == 0
    for z in (0.3 + 0.1j, 0.9 - 0.4j):
        assert abs(sigma_w(-z, lem) + sigma_w(z, lem)) < 1e-12
    # sigma(z)/z -> 1 at the origin
    assert abs(sigma_w(1e-4, lem) / 1e-4 - 1) < 1e-6


def test_pole_guard(lem):
    with pytest.raises(PoleError):
        wp(0.0, lem)
    with pytest.raises(PoleError):
        zeta_w(2.0 + 2.0j, lem)  # a lattice point


def test_xi_properties(lem, skew):
    rng = random.Random(9)
    for L in (lem, skew):
        b1, b2 = 2 * L.omega1, 2 * L.omega2
        for w in half_periods(L):
            assert abs(xi(w, L)) < 1e-8
        for _ in range(100):
            z = rng.uniform(0.05, 0.95) * b1 + rng.uniform(0.05, 0.95) * b2
            assert abs(xi(z + b1, L) - xi(z, L)) < 1e-8
            assert abs(xi(z + b2, L) - xi(z, L)) < 1e-8
            assert abs(xi(-z, L) + xi(z, L)) < 1e-8


def test_xi_jacobian_signs(lem):
    assert xi_jacobian_signs(lem) == (1, 1, -1)


def test_xi_roots_lemniscatic(lem):
    roots = xi_newton_roots(lem)
    assert len(roots) == 3
    targets = half_periods(lem)
    for r in roots:
        dist = min(abs(r - h - 2 * m * lem.omega1 - 2 * n * lem.omega2)
                   for h in targets for m in (-1, 0, 1) for n in (-1, 0, 1))
        assert dist < 1e-6


def test_legendre_over_random_lattices():
    rng = random.Random(11)
    for _ in range(20):
        while True:
            tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.6))
            if abs(tau) <= 3:
                break
        scale = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(0.5, 2.0)
        L = lattice_init(scale, scale * tau)
        assert L.legendre_residual < 1e-10


def test_phi_transformation_laws(lem, skew):
    rng = random.Random(12)
    for L in (lem, skew):
        for _ in range(20):
            z = rng.uniform(0.05, 0.95) * 2 * L.omega1 + rng.uniform(0.05, 0.95) * 2 * L.omega2
            for eps in (0, 1):
                for omega_ref in half_periods(L):
                    for wk, ek in ((L.omega1, L.eta1), (L.omega2, L.eta2)):
                        lhs = phi_eps(z + 2 * wk, eps, omega_ref, L)
                        rhs = phi_eps(z, eps, omega_ref, L) * cmath.exp(4 * ek * (z + wk))
                        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-8


def test_phi_basic_values(lem):
    z = 0.37 + 0.21j
    assert abs(phi_eps(z, 0, lem.omega1, lem) - sigma_w(z, lem) ** 2) < 1e-12
    with pytest.raises(ValueError):
        phi_eps(z, 2, lem.omega1, lem)


STATED_TOLS = {
    "legendre": 1e-10, "xi_linear_system": 1e-10, "xi_half_period_zeros": 1e-8,
    "xi_double_periodicity": 1e-8, "xi_odd": 1e-8, "zeta_quasi_periodicity": 1e-8,
    "sigma_quasi_periodicity": 1e-8, "wp_prime_critical": 1e-8,
    "phi0_quasi_periodicity": 1e-8, "phi1_quasi_periodicity": 1e-8,
    "eta1_lemniscatic": 1e-9, "a_lemniscatic": 1e-9, "b_lemniscatic": 1e-9,
    "g3_lemniscatic": 1e-9, "wp_half_period_gamma": 1e-7, "jacobian_signs": 0.5,
    "xi_root_count": 0.5, "xi_root_distance": 1e-6, "caustic_margin": 0.5,
}


def test_verify_report_structure(lem):
    report = verify_lattice(lem, npoints=10)
    assert all(entry["pass"] for entry in report.values()), {
        k: v for k, v in report.items() if not v["pass"]}
    assert list(report) == list(STATED_TOLS)
    assert {name: entry["tol"] for name, entry in report.items()} == STATED_TOLS


def test_verify_report_generic_lattice(skew):
    report = verify_lattice(skew, npoints=10)
    assert all(entry["pass"] for entry in report.values())
    assert "xi_root_count" not in report  # lemniscatic-only checks absent


@pytest.mark.parametrize("tol", [1e-30, 1e-12, 1e-3])
def test_verify_report_uniform_tolerance(skew, tol):
    stated = verify_lattice(skew, npoints=10)
    report = verify_lattice(skew, npoints=10, tol=tol)
    assert list(report) == list(stated)
    for name, entry in report.items():
        assert entry["residual"] == stated[name]["residual"]
        assert entry["tol"] == tol and entry["pass"] == (entry["residual"] <= tol), name
