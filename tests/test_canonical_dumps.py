"""The canonical writer against the standard library.

``io.canonical_dumps`` writes the bytes of ``json.dumps(value,
sort_keys=True, indent=2)`` plus a newline without json's pure-Python
indent path, and splices any ``Dumped`` text it meets.  The oracle is
json itself, on drawn payloads of every shape the command line emits:
str-keyed dicts, lists, str, int, bool and None, with escapes, non-ASCII
and lone surrogates in keys and values, empty containers and deep
nesting.  Wide lists and dicts of plain str, rational literals mixed with
those characters, take the writer's one-pass path for rows of plain str;
a ``Dumped`` among them, a str subclass, must send its row to the
general path.
"""

from __future__ import annotations

import json

from hypothesis import given
from hypothesis import strategies as st

from hom3lie.io import Dumped, canonical_dumps

# quotes, backslashes, control characters, non-ASCII past and inside the
# BMP, separators json escapes, and lone surrogates (argv carries them
# for undecodable bytes under surrogateescape)
SPECIAL = '"\\\n\r\t\b\f\x00\x1f\x7f\u00e9\u2028\u2029\ufeff\U0001f600\ud800\udfff'
CHARS = st.one_of(st.characters(exclude_categories=()), st.sampled_from(SPECIAL))
TEXT = st.text(CHARS, max_size=8)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(-(10 ** 40), 10 ** 40),
    st.booleans(),
    st.none(),
)


def _containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4)


@st.composite
def nested(draw, child):
    """``child`` wrapped in 10 to 30 drawn layers, each a one-item list or a
    dict holding it beside up to two scalars."""
    value = draw(child)
    for key in draw(st.lists(st.none() | TEXT, min_size=10, max_size=30)):
        value = [value] if key is None else {**draw(st.dictionaries(TEXT, SCALARS, max_size=2)), key: value}
    return value


PAYLOADS = st.recursive(SCALARS, _containers, max_leaves=24)
DEEP = PAYLOADS | nested(PAYLOADS)


def _paths(value, path=()):
    """Every subvalue's path of keys and list positions, the root's first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _replaced(value[head], rest, new)}
    return [*value[:head], _replaced(value[head], rest, new), *value[head + 1:]]


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@given(DEEP)
def test_canonical_dumps_matches_json_dumps(payload):
    got = canonical_dumps(payload)
    assert isinstance(got, Dumped)
    assert got == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@given(DEEP)
def test_a_dumped_subvalue_splices_to_the_same_bytes(payload):
    """Replacing any subvalue, at any depth, by its own ``canonical_dumps``
    leaves the bytes of the whole unchanged."""
    want = canonical_dumps(payload)
    for path in _paths(payload):
        spliced = _replaced(payload, path, canonical_dumps(_at(payload, path)))
        assert canonical_dumps(spliced) == want, path


# a matrix row or a sparse vector as the writers build them, with escapes mixed in
LEAF = st.one_of(st.fractions().map(str), st.sampled_from(["0", "-1/2"]), TEXT)
ROWS = st.lists(LEAF, min_size=1, max_size=40)
STR_DICTS = st.dictionaries(TEXT, LEAF, min_size=1, max_size=12)


@given(ROWS | STR_DICTS | st.lists(ROWS | STR_DICTS, max_size=4) | st.dictionaries(TEXT, ROWS, max_size=3))
def test_rows_and_dicts_of_plain_strings_match_json_dumps(payload):
    assert canonical_dumps(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@given(ROWS, st.data())
def test_a_dumped_inside_a_row_of_strings_splices(row, data):
    """A row of plain str holding one ``Dumped`` is spliced, not encoded as a string."""
    at, inner = data.draw(st.integers(0, len(row))), data.draw(LEAF | PAYLOADS)
    spliced = [*row[:at], canonical_dumps(inner), *row[at:]]
    assert canonical_dumps(spliced) == json.dumps([*row[:at], inner, *row[at:]], sort_keys=True, indent=2) + "\n"
