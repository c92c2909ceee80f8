"""The codec on supports against the codec coordinate by coordinate.

``io``'s writers fill "0" and format only a vector's support, and its
readers look literals up in the file's memo and build a location only
when an entry needs the validating path.  The oracles in
``dense_oracle`` are the writers and readers as they were before: every
coordinate formatted, every entry parsed with its location built first.
On drawn values, well-formed and malformed, the library must give the
same rows and values, or raise the same exception type with the same
message, and leave the memo as the oracle leaves it.
"""

from __future__ import annotations

from fractions import Fraction

import dense_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hom3lie import io
from hom3lie.linalg import Mat, Subspace, Vec

HUGE = 10 ** 4300  # past it, str() of an int raises and format_rat prints through Decimal
NUMERATORS = st.integers(-40, 40) | st.integers(-HUGE * 10, HUGE * 10) | st.integers(HUGE, HUGE + 10 ** 6)
# huge values are built, not listed: hypothesis reprs the elements of sampled_from
DENOMINATORS = st.integers(1, 12) | st.integers(1, 3).map(lambda k: k * HUGE + 1)
NONZERO = st.builds(Fraction, NUMERATORS, DENOMINATORS).filter(bool)


@st.composite
def vecs(draw, n=None):
    n = draw(st.integers(0, 12)) if n is None else n
    support = draw(st.dictionaries(st.integers(0, n - 1), NONZERO, max_size=n)) if n else {}
    return Vec.sparse(n, support)


@st.composite
def mats(draw):
    cols = draw(st.integers(0, 8))
    return Mat.sparse(cols, draw(st.lists(vecs(cols), max_size=6)))


@given(vecs())
def test_vec_to_dense_matches_the_dense_writer(v):
    assert io.vec_to_dense(v) == oracle.vec_to_dense(v)


@given(mats())
def test_mat_to_lists_matches_the_dense_writer(m):
    assert io.mat_to_lists(m) == oracle.mat_to_lists(m)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(vecs(n), max_size=4))))
def test_subspace_to_dict_matches_the_dense_writer(case):
    n, vectors = case
    s = Subspace.span(n, vectors)
    assert io.subspace_to_dict(s) == oracle.subspace_to_dict(s)


# -- readers ---------------------------------------------------------------

LITERALS = st.sampled_from(["0", "1", "-1", "2", "-1/2", "3/4", "+7", "10/4", "-0", "007"]) | (
    st.fractions(max_denominator=30).map(str))
NOT_LITERALS = [0.5, 1.0, True, False, None, [], {}, [1], "0.5", "1e3", "1/0", "", " 1", "1 ", "1_0", "١",
                "1" * 4301, f"1/{'3' * 4301}"]
MALFORMED = st.sampled_from(NOT_LITERALS) | st.sampled_from([1, -1]).map(lambda s: s * 10 ** 5000)
VALUES = st.one_of(LITERALS, LITERALS, st.integers(-5, 5), MALFORMED)
BAD_KEYS = st.sampled_from([" 1", "1 ", "01", "007", "0", "00", "+1", "1_0", "١", "", "-1", "1.0", "9" * 4301, 1])


def keys(n):
    return st.integers(1, n).map(str) | st.integers(n + 1, n + 3).map(str) | BAD_KEYS


@st.composite
def good_then_bad(draw, good, bad, container=list):
    """Good items, then any items: the first fault comes after good ones."""
    items = draw(st.lists(good, max_size=4)) + draw(st.lists(bad, max_size=3))
    return dict(items) if container is dict else items


def memo_seed(draw):
    return {s: Fraction(s) for s in draw(st.lists(LITERALS, max_size=6))}


def outcome(read, *args):
    try:
        return "value", read(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def rows(n):
    row = st.lists(VALUES, min_size=n, max_size=n)
    good = st.lists(LITERALS, min_size=n, max_size=n)
    return good_then_bad(good, row | st.lists(VALUES, max_size=n + 1) | MALFORMED)


@settings(max_examples=150)
@given(st.data())
def test_vec_from_sparse_matches_the_validating_reader(data):
    n = data.draw(st.integers(1, 12))
    good = st.tuples(st.integers(1, n).map(str), LITERALS)
    d = data.draw(good_then_bad(good, st.tuples(keys(n), VALUES), dict))
    seed = memo_seed(data.draw)
    new, old = dict(seed), dict(seed)
    assert outcome(io.vec_from_sparse, d, n, "v", new) == outcome(oracle.vec_from_sparse, d, n, "v", old)
    assert new == old
    assert outcome(io.vec_from_sparse, d, n, "v", {}) == outcome(oracle.vec_from_sparse, d, n, "v", {})


@settings(max_examples=150)
@given(st.data())
def test_vec_from_dense_matches_the_validating_reader(data):
    n = data.draw(st.integers(1, 8))
    raw = data.draw(rows(n).map(lambda rs: rs[-1] if rs else []) | st.lists(VALUES, max_size=n + 1)
                    | MALFORMED)
    seed = memo_seed(data.draw)
    new, old = dict(seed), dict(seed)
    assert outcome(io.vec_from_dense, raw, "b", n, new) == outcome(oracle.vec_from_dense, raw, "b", n, old)
    assert new == old


@settings(max_examples=150)
@given(st.data())
def test_mat_from_lists_matches_the_validating_reader(data):
    n = data.draw(st.integers(1, 6))
    raw = data.draw(rows(n) | st.lists(st.lists(VALUES, max_size=n + 1), max_size=n + 1) | MALFORMED)
    shape = data.draw(st.sampled_from([(n, n), (None, None), (n + 1, n), (n, n - 1)]))
    seed = memo_seed(data.draw)
    new, old = dict(seed), dict(seed)
    assert (outcome(io.mat_from_lists, raw, "m", new, *shape)
            == outcome(oracle.mat_from_lists, raw, "m", *shape, old))
    assert new == old


EDITS = ("past n", "at 0", "reversed", "repeated", "short", "a bool", "a float", "a str")


def edited(args, how, n):
    """Good args edited so that ``_args_tuple`` refuses them."""
    return {"past n": [*args[:-1], n + 1], "at 0": [0, *args[1:]], "reversed": args[::-1],
            "repeated": args[:1] * len(args), "short": args[:-1], "a bool": [True, *args[1:]],
            "a float": [*args[:-1], float(args[-1])], "a str": [*args[:-1], str(args[-1])]}[how]


def bad_args(count, n):
    """Good args, and args that fail: edited good ones or drawn at random."""
    good = st.lists(st.integers(1, n), min_size=count, max_size=count, unique=True).map(sorted)
    edits = st.tuples(good, st.sampled_from(EDITS)).map(lambda case: edited(*case, n))
    index = st.integers(-1, n + 2) | st.booleans() | st.sampled_from(["1", 1.0, None])
    drawn = st.lists(index, max_size=count + 1)
    return good, edits | drawn | MALFORMED


@st.composite
def keyed(draw, count, n, field, value, bad_value):
    """A list of {"args", field} entries: good ones, mostly one faulty entry
    (bad args, a bad value, a missing key or not an object), then any."""
    good_args, bad = bad_args(count, n)
    good = st.fixed_dictionaries({"args": good_args, field: value})
    faulty = st.one_of(
        st.fixed_dictionaries({"args": bad, field: value}),
        st.fixed_dictionaries({"args": good_args, field: bad_value}),
        st.sampled_from(["args", field]).flatmap(lambda k: st.fixed_dictionaries({k: good_args | value})),
        MALFORMED)
    probe = draw(faulty.map(lambda e: [e]) | st.just([]))
    return draw(st.lists(good, max_size=4)) + probe + draw(st.lists(good | faulty, max_size=2))


def sparse_values(n):
    return st.dictionaries(st.integers(1, n).map(str), LITERALS, max_size=3)


@settings(max_examples=150)
@given(st.data())
def test_keyed_entries_of_sparse_values_match_the_validating_reader(data):
    n, m = data.draw(st.integers(3, 6)), data.draw(st.integers(1, 4))
    bad_value = st.dictionaries(keys(m), VALUES, max_size=3) | MALFORMED
    entries = data.draw(keyed(3, n, "value", sparse_values(m), bad_value) | MALFORMED)
    d = data.draw(st.sampled_from([{"brackets": entries}, {"other": entries}, entries]))
    seed = memo_seed(data.draw)
    new, old = dict(seed), dict(seed)
    got = outcome(io._keyed_entries, d, "brackets", 3, n, "f", "bracket",
                  lambda raw, loc: io.vec_from_sparse(raw, m, loc, new), "value")
    want = outcome(oracle.keyed_entries, d, "brackets", 3, n, "f", "bracket",
                   lambda raw, loc: oracle.vec_from_sparse(raw, m, loc, old), "value")
    assert got == want
    assert new == old


@settings(max_examples=150)
@given(st.data())
def test_keyed_entries_of_matrices_match_the_validating_reader(data):
    n, m = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 3))
    matrix = st.lists(st.lists(LITERALS, min_size=m, max_size=m), min_size=m, max_size=m)
    bad_matrix = rows(m) | st.lists(st.lists(VALUES, max_size=m + 1), max_size=m + 1) | MALFORMED
    entries = data.draw(keyed(2, n, "matrix", matrix, bad_matrix))
    seed = memo_seed(data.draw)
    new, old = dict(seed), dict(seed)
    got = outcome(io._keyed_entries, {"rho": entries}, "rho", 2, n, "r", "action",
                  lambda raw, loc: io.mat_from_lists(raw, loc, new, m, m), "matrix")
    want = outcome(oracle.keyed_entries, {"rho": entries}, "rho", 2, n, "r", "action",
                   lambda raw, loc: oracle.mat_from_lists(raw, loc, m, m, old), "matrix")
    assert got == want
    assert new == old


def sparse_readers(m, new, old):
    return (lambda raw, loc: io.vec_from_sparse(raw, m, loc, new),
            lambda raw, loc: oracle.vec_from_sparse(raw, m, loc, old))


def matrix_readers(m, new, old):
    return (lambda raw, loc: io.mat_from_lists(raw, loc, new, m, m),
            lambda raw, loc: oracle.mat_from_lists(raw, loc, m, m, old))


@pytest.mark.parametrize("how", EDITS)
@pytest.mark.parametrize("count, field, value, readers", [
    (3, "value", {"2": "-1"}, sparse_readers), (2, "matrix", [["1", "0"], ["-1/2", "3"]], matrix_readers)])
def test_keyed_entries_with_each_edit_of_good_args_match_the_validating_reader(how, count, field, value, readers):
    """Every edit, after a good entry, on the last entry that the fast path could take."""
    n = 4
    entries = [{"args": list(range(1, count + 1)), field: value},
               {"args": edited(list(range(n - count + 1, n + 1)), how, n), field: value}]
    new, old = {}, {}
    parse_new, parse_old = readers(2, new, old)
    assert (outcome(io._keyed_entries, {"t": entries}, "t", count, n, "f", "entry", parse_new, field)
            == outcome(oracle.keyed_entries, {"t": entries}, "t", count, n, "f", "entry", parse_old, field))
    assert new == old


@pytest.mark.parametrize("key", [" 1", "1 ", "01", "007", "0", "00", "+1", "1_0", "١", "", "-1", "1.0", "4",
                                 "9" * 4301, 1])
def test_each_bad_key_after_good_ones_matches_the_validating_reader(key):
    d = {"1": "1", "3": "-1/2", key: "2"}
    for memo in ({}, {"2": Fraction(2)}):
        new, old = dict(memo), dict(memo)
        assert outcome(io.vec_from_sparse, d, 3, "v", new) == outcome(oracle.vec_from_sparse, d, 3, "v", old)
        assert new == old


@pytest.mark.parametrize("bad", NOT_LITERALS, ids=range(len(NOT_LITERALS)))
def test_each_bad_entry_after_good_ones_matches_the_validating_reader(bad):
    row, rows = ["1", "0", "-1/2", bad], [["0"] * 4, ["1", "0", "-1/2", bad]]
    memos = [{"1": Fraction(1)} for _ in range(4)]
    assert (outcome(io.vec_from_dense, row, "b", 4, memos[0])
            == outcome(oracle.vec_from_dense, row, "b", 4, memos[1]))
    assert (outcome(io.mat_from_lists, rows, "m", memos[2], 2, 4)
            == outcome(oracle.mat_from_lists, rows, "m", 2, 4, memos[3]))
    assert memos[0] == memos[1] and memos[2] == memos[3]
