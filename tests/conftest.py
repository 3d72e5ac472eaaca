import importlib
import pkgutil
import weakref

import pytest

from dicke_squeeze import ed


def ed_caches():
    """Every module-level cache of ``ed``'s modules: each ``functools``
    cache and each ``weakref.WeakKeyDictionary``, found by walking the
    modules, so a cache added to any of them is found too."""
    caches = {}
    for info in pkgutil.iter_modules(ed.__path__):
        module = importlib.import_module(f"{ed.__name__}.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") or isinstance(value, weakref.WeakKeyDictionary):
                caches[f"{info.name}.{name}"] = value
    return caches


def _clear_ed_caches():
    for cache in ed_caches().values():
        if isinstance(cache, weakref.WeakKeyDictionary):
            cache.clear()
        else:
            cache.cache_clear()


@pytest.fixture
def clear_ed_caches():
    """Empty every cache of ``ed`` (``ed_caches``) before the test, and hand
    the test the clearing function. A test that counts what a run prepares
    then counts the same whatever ran before it."""
    _clear_ed_caches()
    return _clear_ed_caches
