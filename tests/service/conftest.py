import pytest

from repro.service import aserve


@pytest.fixture
def pool_only(monkeypatch):
    """Send every served request to the worker pool, however small its source.

    Small id-space requests run on the server's event loop and never
    touch the pool; tests of the pool's retry, breaker and worker
    recovery use this to keep their requests on it.
    """
    monkeypatch.setattr(aserve, "INLINE_MAX_FACTS", 0)
