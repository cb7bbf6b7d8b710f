import sys

import pytest

from thetacob import cobordism
from thetacob.series import TruncSeries


# The universal series as TruncSeries, over the coefficients cobordism keeps.
def beta(order):
    return TruncSeries(cobordism.beta_coefficients(order), grade_shift=1)


def beta_over_z(order):
    return beta(order + 1).divide_by_z()


def log_series(order):
    return TruncSeries(cobordism.log_coefficients(order), grade_shift=1)


@pytest.fixture
def empty_prefix_caches(monkeypatch):
    """Start from no computed coefficient of beta or of the logarithm, no
    cp_n, v_n or w_n, no kept group law and no cached tuple built from them."""
    cached = (cobordism._beta_coefficient, cobordism._log_coefficient, cobordism._cp_class,
              cobordism._v_class, cobordism._w_class, cobordism.beta_coefficients,
              cobordism.log_coefficients, cobordism.cp_classes, cobordism.v_classes,
              cobordism.w_classes)
    monkeypatch.setattr(cobordism, "_LAW", cobordism.GroupLaw())
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()


@pytest.fixture
def near_recursion_limit():
    """A function that calls fn() from a stack `spare` frames short of
    sys.getrecursionlimit(), as a request loop or a deep caller would: code
    that recurses once per part of a monomial fails there at high weight."""
    def call(fn, spare=150):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back

        def descend(n):
            return descend(n - 1) if n else fn()

        return descend(sys.getrecursionlimit() - spare - depth)

    return call
