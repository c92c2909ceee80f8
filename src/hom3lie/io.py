"""JSON codecs for every value the command line reads or writes.

Rationals serialize as strings ``"p/q"`` (or ``"p"`` when the
denominator is one); plain integers are accepted as shorthand on input,
floats and decimal or exponent strings are rejected.  Basis indices are
1-based in files and 0-based in the Python API.

Output is canonical: the bytes of ``json.dumps(value, sort_keys=True,
indent=2)`` and one trailing newline, so equal values produce identical
bytes.  One writer makes them, :func:`canonical_dumps`, for the shapes
the command line emits: dicts with str keys, lists, str, int, bool and
None.  It stays off json's pure-Python indent path.  Its result is a
:class:`Dumped`, and a payload holding one splices its text in, every
line break re-indented to the depth it sits at; ASCII-escaped output
holds no raw newline, so this is exact.  A file written once is thus
not serialized again inside the verdict.  Writers walk supports: a
dense row is "0" but at its support, and a list of plain str is encoded
in one C-level pass.  Readers take a literal from the file's memo and
build locations only on a slow path, the validating code, run on a new
literal or an irregular entry; a fault's message is the stderr line of
exit 2, so the fast paths keep every message and their order.

Schemas
-------
algebra         {"dim": n, "alpha": [[rat]], "brackets":
                 [{"args": [i,j,k], "value": {"idx": rat}}]}
representation  {"algebra": path, "module_dim": m, "A": [[rat]],
                 "rho": [{"args": [i,j], "matrix": [[rat]]}]}
cocycle         {"algebra": path, "module_dim": m, "theta":
                 [{"args": [i,j,k], "value": {"idx": rat}}]}
matrix          {"matrix": [[rat]]}
form            {"dim": n, "gram": [[rat]]}
subspace        {"ambient_dim": n, "basis": [[rat]]}

The ``algebra`` entry of representation and cocycle files is a path
relative to the referencing file; it is only resolved when the file is
loaded standalone, an explicitly supplied algebra always wins.
"""

from __future__ import annotations

import contextlib
import decimal
import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .algebras import Hom3LieAlgebra
from .extensions import BilinForm, Cocycle
from .linalg import Mat, Subspace, Vec
from .representations import Representation
from .sparse import AltTable, numerators


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class FileFormatError(ValueError):
    """Malformed input; the message names the offending location."""

    def __init__(self, message: str, location: str = "") -> None:
        super().__init__(f"{location}: {message}" if location else message)


def parse_rat(x: Any, where: str, memo: dict[str, Fraction]) -> Fraction:
    """An int or a ``"p/q"`` literal as a Fraction; ``memo``, the literals of
    one file already parsed, takes in a new one (the readers look there first)."""
    if isinstance(x, bool) or isinstance(x, float):
        raise FileFormatError(f"expected an exact rational, got {x!r}", where)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):  # Fraction alone also takes "0.5", "1e3"
            raise FileFormatError(f"bad rational literal {x!r}", where)
        try:
            value = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:  # ValueError: int() refuses > 4,300 digits
            raise FileFormatError(f"bad rational literal {x!r}", where) from exc
        memo[x] = value
        return value
    raise FileFormatError(f"expected an exact rational, got {type(x).__name__}", where)


def _expect(d: Any, key: str, where: str) -> Any:
    if not isinstance(d, dict):
        raise FileFormatError("expected an object", where)
    if key not in d:
        raise FileFormatError(f"missing key {key!r}", where)
    return d[key]


def _expect_int(x: Any, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise FileFormatError(f"expected an integer, got {x!r}", where)
    return x


def format_rat(x: Union[Fraction, int], scale: int = 1) -> str:
    """x over ``scale`` (a Fraction, or an int numerator) as str() writes that Fraction; past the
    4,300-digit limit of str() on an int (ValueError), a Decimal prints it exactly."""
    try:
        if scale == 1:
            return str(x)
        g = math.gcd(x, scale)
        return f"{x // g}/{scale // g}" if scale > g else str(x // g)
    except ValueError:
        x = Fraction(x, scale)
        num = str(decimal.Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{decimal.Decimal(x.denominator)}"


def _sparse_entries(t: AltTable) -> list[dict]:
    """Table-file entries, each value from the numerators and scale of ``t`` (canonical_dumps sorts keys)."""
    return _keyed_list(t.num, "value", lambda v: {str(i + 1): format_rat(a, t.scale) for i, a in v.items()})


def vec_from_sparse(d: Any, n: int, where: str, memo: dict) -> Vec:
    if not isinstance(d, dict):
        raise FileFormatError("expected an object of index -> rational", where)
    support, width = {}, len(str(n))
    for key, raw in d.items():  # int() also takes "01", " 1", "+1", "1_0" and "١"
        if not (isinstance(key, str) and key.isascii() and key.isdigit() and key[0] != "0"):
            raise FileFormatError(f"bad index {key!r}", where)
        if len(key) > width or (i := int(key)) > n:  # int() refuses keys over 4,300 digits
            raise FileFormatError(f"index {key} out of range 1..{n}", where)
        value = memo[raw] if type(raw) is str and raw in memo else parse_rat(raw, f"{where}[{key}]", memo)
        if value:
            support[i - 1] = value
    return Vec.sparse(n, support)


def vec_to_dense(v: Vec) -> list[str]:
    row = ["0"] * v.n
    for i, x in v.support.items():
        row[i] = format_rat(x)
    return row


def vec_from_dense(raw: Any, where: str, length: int, memo: dict) -> Vec:
    if not isinstance(raw, list):
        raise FileFormatError("expected a list of rationals", where)
    if len(raw) != length:
        raise FileFormatError(f"expected {length} entries, got {len(raw)}", where)
    return Vec(memo[x] if type(x) is str and x in memo else parse_rat(x, f"{where}[{c}]", memo)
               for c, x in enumerate(raw))


def mat_to_lists(m: Mat) -> list[list[str]]:
    return [vec_to_dense(v) for v in m.row_vecs]


def mat_from_lists(raw: Any, where: str, memo: dict, rows: Optional[int] = None,
                   cols: Optional[int] = None) -> Mat:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise FileFormatError("expected a non-empty list of rows", where)
    ncols = len(raw[0])
    if any(len(r) != ncols for r in raw):
        raise FileFormatError("ragged rows", where)
    if rows is not None and len(raw) != rows:
        raise FileFormatError(f"expected {rows} rows, got {len(raw)}", where)
    if cols is not None and ncols != cols:
        raise FileFormatError(f"expected {cols} columns, got {ncols}", where)
    return Mat.sparse(ncols, (vec_from_dense(row, f"{where}[{r}]", ncols, memo) for r, row in enumerate(raw)))


def _args_tuple(raw: Any, count: int, n: int, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or len(raw) != count:
        raise FileFormatError(f"expected {count} indices", where)
    idx = tuple(_expect_int(x, where) for x in raw)
    for x in idx:
        if not (1 <= x <= n):
            raise FileFormatError(f"index {x} out of range 1..{n}", where)
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise FileFormatError(f"indices {list(idx)} must be strictly increasing", where)
    return tuple(x - 1 for x in idx)


def _keyed_list(table: dict, field: str, encode: Callable[[Any], Any]) -> list[dict]:
    """Inverse of :func:`_keyed_entries`: entries in key order, 1-based."""
    return [{"args": [a + 1 for a in key], field: encode(v)} for key, v in sorted(table.items())]


def _keyed_entries(d: Any, key: str, count: int, n: int, where: str, what: str,
                   parse: Callable[[Any, str], Any], field: str) -> dict:
    """The list ``d[key]`` of {"args": increasing indices, field: value} entries."""
    raw = _expect(d, key, where)
    if not isinstance(raw, list):
        raise FileFormatError("expected a list", f"{where}.{key}")
    table: dict = {}
    for pos, entry in enumerate(raw):
        args = entry.get("args") if type(entry) is dict and field in entry else None
        if (type(args) is list and len(args) == count and set(map(type, args)) == {int} and 0 < args[0]
                and args[-1] <= n and all(map(int.__lt__, args, args[1:]))
                and (ids := tuple(a - 1 for a in args)) not in table):
            with contextlib.suppress(FileFormatError):  # a fault: the validating path below raises it
                table[ids] = parse(entry[field], "")
                continue
        loc = f"{where}.{key}[{pos}]"
        args = _args_tuple(_expect(entry, "args", loc), count, n, f"{loc}.args")
        if args in table:
            raise FileFormatError(f"duplicate {what} for {[a + 1 for a in args]}", loc)
        table[args] = parse(_expect(entry, field, loc), f"{loc}.{field}")
    return table


def _positive_dim(d: Any, key: str, where: str) -> int:
    n = _expect_int(_expect(d, key, where), f"{where}.{key}")
    if n < 1:
        raise FileFormatError("dimension must be positive", f"{where}.{key}")
    return n


# -- algebra ---------------------------------------------------------------


def algebra_to_dict(L: Hom3LieAlgebra) -> dict:
    return {"dim": L.dim, "alpha": mat_to_lists(L.twist), "brackets": _sparse_entries(L.alt)}


def algebra_from_dict(d: Any, where: str = "algebra") -> Hom3LieAlgebra:
    n, memo = _positive_dim(d, "dim", where), {}
    alpha = mat_from_lists(_expect(d, "alpha", where), f"{where}.alpha", memo, n, n)
    table = _keyed_entries(d, "brackets", 3, n, where, "bracket",
                           lambda raw, loc: vec_from_sparse(raw, n, loc, memo).support, "value")
    return Hom3LieAlgebra(n, numerators(table), alpha)


# -- representation --------------------------------------------------------


def representation_to_dict(r: Representation, algebra_ref: str) -> dict:
    rho = _keyed_list({p: r.rho_basis(*p) for p in {key[:2] for key in r.alt.num}}, "matrix", mat_to_lists)
    return {"algebra": algebra_ref, "module_dim": r.module_dim, "A": mat_to_lists(r.twist),
            "rho": rho}


def representation_from_dict(
    d: Any, algebra: Hom3LieAlgebra, where: str = "representation"
) -> Representation:
    n, m, memo = algebra.dim, _positive_dim(d, "module_dim", where), {}
    twist = mat_from_lists(_expect(d, "A", where), f"{where}.A", memo, m, m)
    mats = _keyed_entries(d, "rho", 2, n, where, "action",
                          lambda raw, loc: mat_from_lists(raw, loc, memo, m, m), "matrix")
    table = {(i, j, n + c): {n + t: x for t, x in col.support.items()}
             for (i, j), mat in mats.items() for c, col in enumerate(mat.transpose().row_vecs)}
    return Representation(n, m, twist, numerators(table))


# -- cocycle ---------------------------------------------------------------


def cocycle_to_dict(th: Cocycle, algebra_ref: str) -> dict:
    return {"algebra": algebra_ref, "module_dim": th.module_dim, "theta": _sparse_entries(th.alt)}


def cocycle_from_dict(d: Any, algebra: Hom3LieAlgebra, where: str = "cocycle") -> Cocycle:
    m, memo = _positive_dim(d, "module_dim", where), {}
    table = _keyed_entries(d, "theta", 3, algebra.dim, where, "value",
                           lambda raw, loc: vec_from_sparse(raw, m, loc, memo).support, "value")
    return Cocycle(algebra.dim, m, numerators(table))


# -- simple wrappers -------------------------------------------------------


def matrix_to_dict(m: Mat) -> dict:
    return {"matrix": mat_to_lists(m)}


def form_to_dict(b: BilinForm) -> dict:
    return {"dim": b.dim, "gram": mat_to_lists(b.gram)}


def subspace_to_dict(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": [vec_to_dense(v) for v in s.basis]}


def subspace_from_dict(d: Any, where: str = "subspace") -> Subspace:
    n, memo = _positive_dim(d, "ambient_dim", where), {}
    raw = _expect(d, "basis", where)
    if not isinstance(raw, list):
        raise FileFormatError("expected a list of vectors", f"{where}.basis")
    vecs = [vec_from_dense(row, f"{where}.basis[{i}]", n, memo) for i, row in enumerate(raw)]
    return Subspace.span(n, vecs)


# -- files -----------------------------------------------------------------


class Dumped(str):
    """Text of :func:`canonical_dumps`, spliced as it is into a payload holding it."""


def _dump(value: Any, nl: str) -> str:
    """``value`` at the depth whose line break and indent is ``nl``."""
    if type(value) is str:
        return _encode(value)
    if type(value) is int:  # as json.dumps writes it, without its per-call cost
        return int.__repr__(value)
    if isinstance(value, Dumped):  # ensure_ascii output holds no raw newline
        return value[:-1].replace("\n", nl)
    inner = nl + "  "
    if value and isinstance(value, dict):  # str leaves inline, as a sparse vector holds them
        return "{" + inner + ("," + inner).join(
            _encode(k) + ": " + (_encode(v) if type(v := value[k]) is str else _dump(v, inner))
            for k in sorted(value)) + nl + "}"
    if value and isinstance(value, (list, tuple)):  # a row of plain str in one C-level pass
        items = map(_encode, value) if set(map(type, value)) == {str} else (_dump(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    return json.dumps(value)


def canonical_dumps(payload: Any) -> Dumped:
    return Dumped(_dump(payload, "\n") + "\n")


def read_json(path: Union[str, Path]) -> Any:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(str(exc), str(p)) from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", str(p)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}", str(p)) from exc
    except ValueError as exc:  # an integer literal over 4,300 digits
        raise FileFormatError("invalid JSON: integer literal too long", str(p)) from exc
    except RecursionError as exc:
        raise FileFormatError("invalid JSON: nested too deeply", str(p)) from exc


def write_json(path: Union[str, Path], payload: Any) -> Dumped:
    """Write ``payload`` canonically to ``path``; returns the text, to splice."""
    text = canonical_dumps(payload)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot write: {exc.strerror or exc}", str(path)) from exc
    return text


def load_algebra(path: Union[str, Path]) -> Hom3LieAlgebra:
    return algebra_from_dict(read_json(path), where=str(path))


def _load_over(path: Union[str, Path], algebra: Optional[Hom3LieAlgebra], from_dict: Any) -> tuple:
    """Load a file that refers to its algebra, resolving the reference if needed."""
    p = Path(path)
    d = read_json(p)
    if algebra is None:
        ref = _expect(d, "algebra", str(p))
        if not isinstance(ref, str):
            raise FileFormatError("algebra reference must be a path string", str(p))
        algebra = load_algebra(p.parent / ref)
    return algebra, from_dict(d, algebra, where=str(p))


def load_representation(
    path: Union[str, Path], algebra: Optional[Hom3LieAlgebra] = None
) -> tuple[Hom3LieAlgebra, Representation]:
    return _load_over(path, algebra, representation_from_dict)


def load_cocycle(
    path: Union[str, Path], algebra: Optional[Hom3LieAlgebra] = None
) -> tuple[Hom3LieAlgebra, Cocycle]:
    return _load_over(path, algebra, cocycle_from_dict)


def load_matrix(path: Union[str, Path]) -> Mat:
    return mat_from_lists(_expect(read_json(path), "matrix", str(path)), f"{path}.matrix", {})


def load_form(path: Union[str, Path]) -> BilinForm:
    d, where = read_json(path), str(path)
    n = _positive_dim(d, "dim", where)
    return BilinForm(n, mat_from_lists(_expect(d, "gram", where), f"{where}.gram", {}, n, n))


def load_subspace(path: Union[str, Path]) -> Subspace:
    return subspace_from_dict(read_json(path), where=str(path))
