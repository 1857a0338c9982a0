import pytest
from hypothesis import settings

from lmrttg.scans import verify_seven_pairs

# the same examples every run, no example database in the checkout, and no
# timing-dependent deadline failures
settings.register_profile("lmrttg", derandomize=True, database=None, deadline=None)
settings.load_profile("lmrttg")


@pytest.fixture(scope="session")
def seven_pairs_report():
    """The exhaustive seven-pairs scan, run once per session."""
    return verify_seven_pairs()
