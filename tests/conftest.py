"""Settings shared by every test module."""

import pytest

from cubiclat import admissibility


@pytest.fixture(autouse=True)
def no_admissible_list_held():
    """Start each test with no admissible list held, as every cubiclat
    process starts, so a range is sieved unless the test itself sieved a
    larger one first."""
    admissibility._held = (0, [])
