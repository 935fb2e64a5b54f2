"""Settings shared by every test module."""

import pytest

from cubiclat import admissibility, lattices


def clear_holds():
    """Hold nothing, as every cubiclat process starts: no admissible list,
    so a range is sieved unless the test itself sieved a larger one first;
    and an empty ``lattices._held_entry``, so a catalog name is built and
    its invariants computed, a chow, gram-lambda or scroll-ideal payload is
    built, and so is the command-line parser."""
    admissibility._held = (0, [])
    lattices._held_entry.cache_clear()


@pytest.fixture(autouse=True)
def nothing_held():
    """Start each test with nothing held (``clear_holds``)."""
    clear_holds()
