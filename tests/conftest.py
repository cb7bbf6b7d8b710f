import pytest

from thetacob import cobordism
from thetacob.series import GroupLaw, Inversion, Reversion


@pytest.fixture
def empty_prefix_caches(monkeypatch):
    """Start from no kept logarithm, inverse coefficients or group law and no
    cached classes built from them."""
    cached = (cobordism.mischenko_log, cobordism.cp_classes, cobordism.v_classes)
    monkeypatch.setattr(cobordism, "_LOG", Reversion())
    monkeypatch.setattr(cobordism, "_INV", Inversion())
    monkeypatch.setattr(cobordism, "_LAW", GroupLaw())
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()
