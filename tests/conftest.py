import sys

import pytest

from thetacob import cobordism
from thetacob.grouplaw import GroupLaw


@pytest.fixture
def empty_prefix_caches(monkeypatch):
    """Start from no computed coefficient of beta or of the logarithm, no
    cp_n, v_n or w_n, no kept group law and no cached series or tuple built
    from them."""
    cached = (cobordism._beta_coefficient, cobordism._log_coefficient, cobordism._cp_class,
              cobordism._v_class, cobordism._w_class, cobordism.beta_coefficients,
              cobordism.beta, cobordism.beta_over_z, cobordism.log_coefficients,
              cobordism.mischenko_log, cobordism.cp_classes, cobordism.v_classes,
              cobordism.w_classes)
    monkeypatch.setattr(cobordism, "_LAW", GroupLaw())
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
