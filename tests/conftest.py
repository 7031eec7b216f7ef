import hypothesis
import pytest

from pretsums.sieve import get_sieve

hypothesis.settings.register_profile(
    "default", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def sieve():
    return get_sieve(10**6)
