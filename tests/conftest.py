"""Settings shared by every test module."""

import pytest

from cubiclat import admissibility, cli, lattices


def clear_holds():
    """Hold nothing, as every cubiclat process starts: no admissible list,
    so a range is sieved unless the test itself sieved a larger one first;
    no catalog lattice, so a name is built and its invariants computed; and
    no fixed command-line answer, so a chow, gram-lambda or scroll-ideal
    payload is built."""
    admissibility._held = (0, [])
    lattices._held_entry.cache_clear()
    cli._fixed_answer.cache_clear()


@pytest.fixture(autouse=True)
def nothing_held():
    """Start each test with nothing held (``clear_holds``)."""
    clear_holds()
