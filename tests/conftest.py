import pytest

from dicke_squeeze.ed import basis, hamiltonians, solver


@pytest.fixture
def clear_ed_caches():
    """Empty every cache of ``ed`` before the test: the factor and orbit
    caches, the unit bands, the block layouts and the start vectors. A test
    that counts what a run prepares then counts the same whatever ran before
    it."""
    for cache in (
        hamiltonians._spin_factors,
        hamiltonians.boson_factors,
        basis.translation_orbits,
        solver._start_vector,
    ):
        cache.cache_clear()
    hamiltonians._UNIT_BANDS.clear()
    hamiltonians._BLOCK_LAYOUTS.clear()
