"""Fuzz test of the lattice file reader.

``lattice_from_json`` is the one reader of user files, so any text must
either parse or raise ``LatticeFormatError``.  The inputs are arbitrary
text, arbitrary JSON documents, and valid documents with a few fields
replaced by any JSON value or removed.
"""

import json

from hypothesis import given, settings, strategies as st

from cubiclat.errors import LatticeFormatError
from cubiclat.lattices import lattice_from_json

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


@st.composite
def valid_lattices(draw):
    n = draw(st.integers(0, 4))
    entries = {(i, j): draw(st.integers(-3, 3)) for i in range(n) for j in range(i, n)}
    doc = {"rank": n, "gram": [[entries[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]}
    if draw(st.booleans()):
        doc["label"] = draw(st.text(max_size=6))
    return doc


int_rows = st.lists(st.lists(st.integers(-2, 2), max_size=4), max_size=4)
REMOVE = object()


@st.composite
def corrupted(draw):
    """A valid document with one or two fields replaced or removed.

    Most replacements are small integers or integer rows, which pass the
    type checks and reach the value checks behind them.
    """
    doc = draw(valid_lattices())
    keys = st.sampled_from(sorted(doc) + ["label", "extra"])
    for key in draw(st.lists(keys, min_size=1, max_size=2, unique=True)):
        value = draw(st.integers(-2, 5) | int_rows | values | st.just(REMOVE))
        if value is REMOVE:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


documents = st.text() | values.map(json.dumps) | corrupted().map(json.dumps)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_lattice_reader_raises_only_format_errors(text):
    try:
        lattice_from_json(text)
    except LatticeFormatError:
        pass
