"""The CLI contract under malformed input.

Every subcommand runs with each of its input files broken in turn.  A
valid file is broken by dropping a key or an entry, by replacing a value
with a JSON value of another type, with a zero, negative or huge
dimension or index, with a float, NaN or Infinity literal, or with an
integer of 5,000 digits; or the whole file is replaced by JSON nested
thousands of levels deep or by bytes that are not UTF-8.  ``cli.main``
runs in process, twice.  It must return 0, 1 or 2 without raising,
write errors as one ``error:`` line and no traceback, and give the same
exit code, stdout, stderr and output files both times.

Every subcommand also runs on valid files with one library function it
calls replaced by one that raises.  A refusal, a ``ValueError`` such as
a ``PreconditionError``, must give exit 1, a verdict whose ``error``
names its type and nothing on stderr; a ``DimensionMismatch`` or a
``FileFormatError`` exit 2 and one ``error:`` line.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hom3lie import cli
from hom3lie.errors import DimensionMismatch, PreconditionError
from hom3lie.extensions import Cocycle, t_star_extension
from hom3lie.fixtures import l3
from hom3lie.io import (
    FileFormatError,
    algebra_to_dict,
    cocycle_to_dict,
    form_to_dict,
    matrix_to_dict,
    representation_to_dict,
    subspace_to_dict,
)
from hom3lie.linalg import Mat, Subspace, Vec
from hom3lie.representations import coadjoint_rep
from test_cli_bytes import run

_TSTAR, _Q = t_star_extension(l3(), Cocycle.zero(3, 3))
VALID = {
    "algebra": algebra_to_dict(l3()),
    "matrix": matrix_to_dict(Mat.diagonal([0, 1, -1])),
    "rep": representation_to_dict(coadjoint_rep(l3()), "algebra.json"),
    "theta": cocycle_to_dict(Cocycle(3, 3, {(0, 1, 2): Vec.basis(3, 0)}), "algebra.json"),
    "tstar": algebra_to_dict(_TSTAR),
    "form": form_to_dict(_Q),
    "ideal": subspace_to_dict(Subspace.span(6, [Vec.basis(6, 3 + i) for i in range(3)])),
    "complement": subspace_to_dict(Subspace.span(6, [Vec.basis(6, i) for i in range(3)])),
    "outdir": {},
}
# input slots are the names of VALID; "second" is another algebra file, and
# "outdir" puts a file where ``fixtures`` must make its output directory
COMMANDS = (
    ["verify", "--checks", "skew,jacobi,multiplicative,regular", "algebra"],
    ["derivations", "algebra", "--k", "1", "--inner", "--output", "out.json"],
    ["extend", "direct-sum", "algebra", "second", "--output", "out.json"],
    ["extend", "derivation", "algebra", "matrix", "--output", "out.json"],
    ["extend", "semidirect", "algebra", "rep"],
    ["extend", "t-theta", "algebra", "rep", "theta"],
    ["extend", "t-star", "algebra", "theta"],
    ["series", "algebra", "--kind", "ascending"],
    ["metric", "tstar", "form"],
    ["reconstruct", "tstar", "form", "ideal", "complement", "--output-dir", "bundle"],
    ["fixtures", "--output-dir", "outdir"],
)
SLOTS = set(VALID) | {"second"}
CASES = [(argv, slot) for argv in COMMANDS for slot in argv if slot in SLOTS]

BIG = "1" * 5000  # past the 4,300-digit limit of int() on a string
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.sampled_from(["1/0", "0.5", "1e3", " 1", "01"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
ODD = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([10 ** 40, -(10 ** 40), float("nan"), float("inf"), float("-inf"), 0.5]),
    st.sampled_from(["BIG", BIG, f"1/{BIG}"]),  # "BIG" becomes a 5,000-digit JSON number
    JSON,
)


def paths(doc, prefix=()):
    """Every key or list position in a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


@st.composite
def broken(draw, doc) -> bytes:
    """The bytes of a broken copy of ``doc``."""
    how = draw(st.sampled_from(["drop", "replace", "replace", "nest", "bytes"]))
    if how == "nest":
        depth = draw(st.sampled_from([900, 5000, 100_000]))
        return ("[" * depth + "]" * depth * draw(st.booleans())).encode()
    if how == "bytes":
        text = json.dumps(doc).encode()
        return draw(st.sampled_from([text.decode().encode("utf-16"), b"\xff" + text,
                                     draw(st.binary(max_size=20))]))
    doc = json.loads(json.dumps(doc))
    where = list(paths(doc))
    if not where:
        return json.dumps(draw(ODD)).replace('"BIG"', BIG).encode()
    *outer, last = draw(st.sampled_from(where))
    parent = doc
    for key in outer:
        parent = parent[key]
    if how == "drop":
        del parent[last]
    else:
        parent[last] = draw(ODD)
    return json.dumps(doc).replace('"BIG"', BIG).encode()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("argv, slot", CASES,
                         ids=[f"{' '.join(a[:2]) if a[0] == 'extend' else a[0]}:{s}" for a, s in CASES])
@settings(max_examples=12)
@given(data=st.data())
def test_broken_input_keeps_the_cli_contract(work, argv, slot, data):
    for name in SLOTS & set(argv):
        doc = VALID.get(name, VALID["algebra"])
        raw = data.draw(broken(doc), label=name) if name == slot else json.dumps(doc).encode()
        (work / name).write_bytes(raw)
    outputs = [work / "out.json", work / "bundle"]
    argv = [str(work / a) if a in SLOTS or a in ("out.json", "bundle") else a for a in argv]
    first = run(argv, outputs)
    code, _, err, _ = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err == "" if code < 2 else err.startswith("error: ") and err.count("\n") == 1
    assert run(argv, outputs) == first


# one library function each subcommand calls through ``hom3lie.cli``
CALLS = (
    (["verify", "algebra"], cli, "verify_hom_jacobi"),
    (["derivations", "algebra", "--k", "1"], cli, "derivation_space"),
    (["extend", "t-theta", "algebra", "rep", "theta"], cli, "t_theta_extension"),
    (["series", "algebra"], cli, "series"),
    (["metric", "tstar", "form"], cli, "verify_metric"),
    (["reconstruct", "tstar", "form", "ideal"], cli, "reconstruct_t_star"),
    (["fixtures", "--output-dir", "fx"], cli.fixture_mod, "catalog"),
)


@pytest.mark.parametrize("exc", [PreconditionError, ValueError, DimensionMismatch, FileFormatError])
@pytest.mark.parametrize("argv, module, name", CALLS, ids=[argv[0] for argv, *_ in CALLS])
def test_a_raising_library_call_keeps_the_cli_contract(tmp_path, monkeypatch, argv, module, name, exc):
    for slot, doc in VALID.items():
        (tmp_path / slot).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise exc("refused")

    monkeypatch.setattr(module, name, refuse)
    code, out, err, _ = run(["--json", *argv], [tmp_path / "fx"])
    if exc in (DimensionMismatch, FileFormatError):
        assert (code, out, err) == (2, "", "error: refused\n")
    else:
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == f"{exc.__name__}: refused"
