import pytest

from thetacob import cobordism
from thetacob.series import GroupLaw


@pytest.fixture
def empty_prefix_caches(monkeypatch):
    """Start from no computed logarithm coefficient, v_n or w_n, no kept
    group law and no cached classes built from them."""
    cached = (cobordism._log_coefficient, cobordism._v_class, cobordism._w_class,
              cobordism.mischenko_log, cobordism.cp_classes, cobordism.v_classes,
              cobordism.w_classes)
    monkeypatch.setattr(cobordism, "_LAW", GroupLaw())
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()
