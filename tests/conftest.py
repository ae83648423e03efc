import pytest

from gaptiles.grid import HeightTable


@pytest.fixture(scope="session", autouse=True)
def no_height_cache():
    """Run the suite without $GAPTILES_CACHE, so the process-wide height
    table, which the pipeline uses, lives in memory: no test reads or writes
    a cache directory it did not make itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("GAPTILES_CACHE", raising=False)
        yield


@pytest.fixture(scope="session")
def table():
    """One in-memory height table shared across the whole test session."""
    return HeightTable()
