"""Byte table of ``hom3lie`` runs of every subcommand.

``cli_bytes.json`` records, for each command line of ``CASES``, the exit
code and the sha256 digests of stdout, stderr and every file the run
writes.  Every extension kind runs a pass, a failing check, a rejected
input, a wrong number of inputs and a missing file, each as text and as
``--json``, with and without ``--output``; ``extend t-theta`` also runs
with a module-dimension-1 action that is no representation and a cocycle
on a module of dimension 2 (RepresentationInvalid, exit 1), and with the
coadjoint action and that cocycle (exit 2), which pins the order of its
checks; ``reconstruct`` runs with and
without ``--output-dir``, on the T*-double of A4 and on that of A4y + L3
(cyclic theta, dim 14), the latter also with its base part as the complement, with the base
part as the subspace, which is no ideal (exit 1) and with a subspace that is
not twist-stable (exit 1); ``metric`` runs on both doubles and rejects
the double of A4y + L3 along a coboundary that is not cyclic, with more
witnesses than it keeps; ``derivations`` runs on A4y + L3 (A4y the Yau
twist of A4 by a dense rotation) at grades -1 to 2, with and without
``--inner`` and ``--output``, on A4y + A4y + L3 at grades -1 and 2 and
with ``--inner`` at grade 2, on L3, on a singular twist at a negative
grade and past ``--max-k``; ``extend derivation`` also runs, as text and
as ``--json``, on A4y and on A4y + L3 with an accepted D (the first basis
vector of the grade-1 derivations) and a rejected one, and with D = 0 on
L3 with a twist it does not commute with and on A4 with a shear twist,
which fails hom-Jacobi, so that their hom-Jacobi and multiplicativity
witnesses, not skewness ones, reach the output.  On A4y, ``extend
semidirect`` runs with the adjoint and the coadjoint action and with a
representation file written from the coadjoint action (which fails
there, so a file of A4's coadjoint action, which passes, is read back
on A4 too), and ``extend
t-theta`` with the adjoint action and the coboundary of 2 alpha + I -
alpha^2, each as text and as ``--json``, with and without ``--output``,
so that the builders of both actions and of coboundaries reach the
output on a 4-dimensional base.  ``extend t-star`` runs on A4y with that
coboundary, whose extension fails (R2) and (R3) of the coadjoint action,
and ``extend t-theta`` and ``extend semidirect`` on A4 with the shear
twist, which fails hom-Jacobi, with the zero action on a 2-dimensional
module and theta = 0, so that failures of every block of the one
extension sweep reach the output.  ``verify`` runs with the default checks
and with ``--checks regular`` on A4y, A4y + L3, A4 with the shear twist
(which fails hom-Jacobi), L3 with a twist that is not multiplicative and
L3 with a singular twist, and on A4 with an unknown check after a known one
(exit 2), and on a file whose bracket value is a list, and ``reconstruct``
on a subspace file whose basis is no list (exit 2 each); ``series`` runs
every kind on A4y + L3 and on its T*-double, and the descending and ascending kinds on N4 and on its
T*-double along theta = 0, whose ascending series have three terms,
and, as ``--json`` only, the ascending kind on N4 carried along a map
with denominators 3, 7 and 11 and on its T*-double along theta = 0,
whose centralizer systems have rows of several entries, so that their
signs reach the output; ``fixtures`` writes its six files into ``fx``, whose
digests are recorded.  The test replays each line through
``cli.main`` in a directory holding the inputs, with relative paths, so
that no digest depends on where the directory is.

``cli_inputs.json`` records the sha256 digest of each input file, which
the library's writers and builders make, so that a change to one shows
even where no command reads that file back.

Running this file prints the table for the ``hom3lie`` on the path, and
with the argument ``inputs`` the input digests:

    PYTHONPATH=src python3 tests/test_cli_bytes.py > tests/cli_bytes.json
    PYTHONPATH=src python3 tests/test_cli_bytes.py inputs > tests/cli_inputs.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from conftest import action_block
from test_sparse_sweeps import carried
from hom3lie.algebras import Hom3LieAlgebra, direct_sum, increasing_triples
from hom3lie.cli import main
from hom3lie.derivations import derivation_space
from hom3lie.extensions import Cocycle, coboundary, cyclic_part, t_star_extension
from hom3lie.fixtures import a4, l3, l3h, n4
from hom3lie.io import (
    algebra_to_dict,
    cocycle_to_dict,
    form_to_dict,
    matrix_to_dict,
    representation_to_dict,
    subspace_to_dict,
    write_json,
)
from hom3lie.linalg import Mat, Subspace, Vec, inverse
from hom3lie.representations import Representation, adjoint_rep, coadjoint_rep

TABLE = Path(__file__).with_name("cli_bytes.json")
INPUTS = Path(__file__).with_name("cli_inputs.json")

# inputs per kind and scenario; "missing.json" is never written
EXTEND = {
    "direct-sum": {
        "pass": ["L3.json", "A4.json"],
        "check": ["L3.json", "L3-nonmult.json"],
        "rejected": ["L3.json", "D.json"],
        "arity": ["L3.json"],
        "missing": ["L3.json", "missing.json"],
    },
    "derivation": {
        "pass": ["L3.json", "D.json"],
        "check": ["L3.json", "D-bad.json"],
        "rejected": ["L3.json", "D-2x2.json"],
        "arity": ["L3.json", "D.json", "D.json"],
        "missing": ["missing.json", "D.json"],
    },
    "semidirect": {
        "pass": ["L3.json", "coadjoint"],
        "check": ["L3-nonmult.json", "rep-zero.json"],
        "rejected": ["L3.json", "rep-bad.json"],
        "arity": ["L3.json"],
        "missing": ["L3.json", "missing.json"],
    },
    "t-theta": {
        "pass": ["L3.json", "coadjoint", "theta-L3.json"],
        "check": ["L3-nonmult.json", "rep-zero.json", "theta-zero.json"],
        "rejected": ["A4.json", "coadjoint", "theta-A4.json"],
        "rep-invalid": ["L3.json", "rep-bad.json", "theta-module-2.json"],
        "theta-shape": ["L3.json", "coadjoint", "theta-module-2.json"],
        "arity": ["L3.json", "coadjoint"],
        "missing": ["L3.json", "adjoint", "missing.json"],
    },
    "t-star": {
        "pass": ["L3.json", "theta-L3.json"],
        "check": ["A4.json", "theta-A4.json"],
        "rejected": ["L3.json", "theta-module-2.json"],
        "arity": ["L3.json", "theta-L3.json", "theta-L3.json"],
        "missing": ["missing.json", "theta-L3.json"],
    },
}
RECONSTRUCT = (
    ["tstar.json", "q.json", "ideal.json"],
    ["tstar.json", "q.json", "ideal.json", "complement.json"],
    ["tstar.json", "q.json", "ideal-short.json"],
    ["tstar.json", "q.json", "missing.json"],
    ["tstar-A4yL3.json", "q14.json", "ideal14.json"],
    ["tstar-A4yL3.json", "q14.json", "ideal14.json", "base14.json"],
    ["tstar-A4yL3.json", "q14.json", "base14.json"],
    ["tstar-A4yL3.json", "q14.json", "unstable14.json"],
)
METRIC = (
    ["tstar.json", "q.json"],
    ["tstar-A4yL3.json", "q14.json"],
    ["tstar-A4yL3-coboundary.json", "q14.json"],
)
DERIVATIONS = [
    ["A4yL3.json", "--k", str(k), *inner]
    for k in (-1, 0, 1, 2)
    for inner in ([], ["--inner"])
] + [["L3.json", "--k", "0"], ["L3-singular.json", "--k", "-1"], ["A4yL3.json", "--k", "4"]] + [
    ["A4yA4yL3.json", "--k", k, *inner] for k, inner in (("-1", []), ("2", []), ("2", ["--inner"]))]
DERIVATION_EXTENSIONS = (
    ["A4y.json", "D-A4y.json"],
    ["A4y.json", "D-A4y-bad.json"],
    ["A4yL3.json", "D-A4yL3.json"],
    ["A4yL3.json", "D-A4yL3-bad.json"],
    ["L3-nonmult.json", "D-zero.json"],
    ["A4-shear.json", "D-zero-4.json"],
)
MODULE_EXTENSIONS = (
    ["semidirect", "A4y.json", "adjoint"],
    ["semidirect", "A4y.json", "coadjoint"],
    ["semidirect", "A4y.json", "rep-coadjoint-A4y.json"],
    ["semidirect", "A4.json", "rep-coadjoint-A4.json"],
    ["t-theta", "A4y.json", "adjoint", "theta-A4y-coboundary.json"],
    ["t-star", "A4y.json", "theta-A4y-coboundary.json"],
    ["t-theta", "A4-shear.json", "rep-zero-4.json", "theta-zero-4.json"],
    ["semidirect", "A4-shear.json", "rep-zero-4.json"],
)
VERIFY = [
    [name, *checks]
    for name in ("A4y.json", "A4yL3.json", "A4-shear.json", "L3-nonmult.json", "L3-singular.json")
    for checks in ([], ["--checks", "regular"])
]
SERIES = [[name, "--kind", kind] for name in ("A4yL3.json", "tstar-A4yL3.json")
          for kind in ("derived", "descending", "ascending")] + [
    [name, "--kind", kind] for name in ("N4.json", "tstar-N4.json") for kind in ("descending", "ascending")]
CASES = [
    [*mode, "extend", kind, *inputs, *out]
    for kind, scenarios in EXTEND.items()
    for inputs in scenarios.values()
    for mode in ([], ["--json"])
    for out in ([], ["--output", "out.json"])
] + [
    [*mode, "reconstruct", *inputs, *out]
    for inputs in RECONSTRUCT
    for mode in ([], ["--json"])
    for out in ([], ["--output-dir", "bundle"])
] + [
    [*mode, "metric", *inputs] for inputs in METRIC for mode in ([], ["--json"])
] + [
    [*mode, "derivations", *args, *out]
    for args in DERIVATIONS
    for mode in ([], ["--json"])
    for out in ([], ["--output", "out.json"])
] + [[*mode, "--max-k", "1", "derivations", "A4yL3.json", "--k", "-2"] for mode in ([], ["--json"])] + [
    [*mode, "extend", "derivation", *inputs] for inputs in DERIVATION_EXTENSIONS for mode in ([], ["--json"])
] + [
    [*mode, "extend", *inputs, *out]
    for inputs in MODULE_EXTENSIONS
    for mode in ([], ["--json"])
    for out in ([], ["--output", "out.json"])
] + [
    [*mode, "verify", *args] for args in VERIFY for mode in ([], ["--json"])
] + [["verify", "A4.json", "--checks", "jacobi,bogus"], ["verify", "L3-list-value.json"],
      ["reconstruct", "tstar.json", "q.json", "basis-not-list.json"]] + [
    [*mode, "series", *args] for args in SERIES for mode in ([], ["--json"])
] + [
    ["--json", "series", name, "--kind", "ascending"] for name in ("N4-carried.json", "tstar-N4-carried.json")
] + [[*mode, "fixtures", "--output-dir", "fx"] for mode in ([], ["--json"])]


def yau_twisted_a4() -> Hom3LieAlgebra:
    """A4 with bracket alpha o [.,.,.] and twist alpha = R12 R23 R34, each
    Rij the rotation of the (i, j) plane with cosine 3/5 and sine 4/5."""
    alpha = Mat.identity(4)
    for i in range(3):
        rows = [[int(r == c) for c in range(4)] for r in range(4)]
        rows[i][i] = rows[i + 1][i + 1] = Fraction(3, 5)
        rows[i][i + 1], rows[i + 1][i] = Fraction(-4, 5), Fraction(4, 5)
        alpha = alpha @ Mat.from_rows(rows)
    return Hom3LieAlgebra(4, {key: alpha.apply(v) for key, v in a4().table.items()}, alpha)


def elementary(n: int, r: int, c: int) -> Mat:
    """The n x n matrix with a single 1 at row r, column c."""
    return Mat.from_rows([[int((i, j) == (r, c)) for j in range(n)] for i in range(n)])


def carried_n4() -> Hom3LieAlgebra:
    """N4 carried along phi, a unit lower times a unit upper triangular map
    with entries over 3, 7 and 11, so that its table and twist get denominators."""
    phi = Mat.identity(4)
    for cells in ({(1, 0): (1, 3), (2, 0): (-2, 7), (3, 1): (1, 11), (3, 2): (2, 3)},
                  {(0, 1): (-1, 7), (0, 3): (2, 11), (1, 2): (1, 3), (2, 3): (-2, 11)}):
        phi = phi @ Mat.from_rows([[Fraction(*cells.get((r, c), (int(r == c), 1))) for c in range(4)]
                                   for r in range(4)])
    return carried(n4(), phi, inverse(phi))


def write_inputs(d: Path) -> None:
    L, A, Ay, N = l3(), a4(), yau_twisted_a4(), carried_n4()
    Ay3 = direct_sum(Ay, L)
    commuting = Ay.twist.scale(2) + Mat.identity(4) - Ay.twist @ Ay.twist
    nonmult, list_value = algebra_to_dict(L), algebra_to_dict(L)
    nonmult["alpha"] = [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]
    list_value["brackets"][0]["value"] = ["1", "0", "0"]
    files = {
        "L3.json": algebra_to_dict(L),
        "L3-singular.json": algebra_to_dict(l3h(0)),
        "A4yL3.json": algebra_to_dict(Ay3),
        "A4yA4yL3.json": algebra_to_dict(direct_sum(Ay, Ay3)),
        "A4y.json": algebra_to_dict(Ay),
        "A4.json": algebra_to_dict(A),
        "N4.json": algebra_to_dict(n4()),
        "tstar-N4.json": algebra_to_dict(t_star_extension(n4(), Cocycle.zero(4, 4))[0]),
        "N4-carried.json": algebra_to_dict(N),
        "tstar-N4-carried.json": algebra_to_dict(t_star_extension(N, Cocycle.zero(4, 4))[0]),
        "A4-shear.json": algebra_to_dict(Hom3LieAlgebra(4, A.table, Mat.identity(4) + elementary(4, 0, 1))),
        "L3-nonmult.json": nonmult,
        "L3-list-value.json": list_value,
        "basis-not-list.json": {"ambient_dim": 8, "basis": "1"},
        "D.json": matrix_to_dict(Mat.diagonal([0, 1, -1])),
        "D-bad.json": matrix_to_dict(elementary(3, 1, 0)),
        "D-2x2.json": matrix_to_dict(Mat.identity(2)),
        "D-A4y.json": matrix_to_dict(derivation_space(Ay, 1).basis[0]),
        "D-A4y-bad.json": matrix_to_dict(elementary(4, 1, 0)),
        "D-A4yL3.json": matrix_to_dict(derivation_space(Ay3, 1).basis[0]),
        "D-A4yL3-bad.json": matrix_to_dict(elementary(7, 1, 0)),
        "D-zero.json": matrix_to_dict(Mat.zero(3, 3)),
        "D-zero-4.json": matrix_to_dict(Mat.zero(4, 4)),
        "rep-zero.json": representation_to_dict(
            Representation(3, 2, Mat.identity(2), {}), "L3-nonmult.json"),
        "rep-bad.json": representation_to_dict(
            Representation(3, 1, Mat.identity(1), action_block(3, 1, {(0, 1): Mat.identity(1)})), "L3.json"),
        "theta-L3.json": cocycle_to_dict(Cocycle(3, 3, {(0, 1, 2): Vec.basis(3, 0)}), "L3.json"),
        "theta-zero.json": cocycle_to_dict(Cocycle.zero(3, 2), "L3-nonmult.json"),
        "rep-zero-4.json": representation_to_dict(
            Representation(4, 2, Mat.identity(2), {}), "A4-shear.json"),
        "theta-zero-4.json": cocycle_to_dict(Cocycle.zero(4, 2), "A4-shear.json"),
        "theta-A4.json": cocycle_to_dict(Cocycle(4, 4, {(0, 1, 2): Vec.basis(4, 0)}), "A4.json"),
        "theta-module-2.json": cocycle_to_dict(Cocycle.zero(3, 2), "L3.json"),
        "rep-coadjoint-A4y.json": representation_to_dict(coadjoint_rep(Ay), "A4y.json"),
        "rep-coadjoint-A4.json": representation_to_dict(coadjoint_rep(A), "A4.json"),
        "theta-A4y-coboundary.json": cocycle_to_dict(
            coboundary(Ay, adjoint_rep(Ay), commuting), "A4y.json"),
    }
    cyclic = cyclic_part(Cocycle(4, 4, {(0, 1, 2): Vec.basis(4, 3)}))
    tstar, q = t_star_extension(A, cyclic)
    dual = [Vec.basis(8, 4 + i) for i in range(4)]
    files.update({
        "tstar.json": algebra_to_dict(tstar),
        "q.json": form_to_dict(q),
        "ideal.json": subspace_to_dict(Subspace.span(8, dual)),
        "complement.json": subspace_to_dict(Subspace.span(8, [Vec.basis(8, i) for i in range(4)])),
        "ideal-short.json": subspace_to_dict(Subspace.span(8, dual[:2])),
    })
    base = Ay3
    alpha, n = base.twist, base.dim
    f = alpha.scale(2) + Mat.identity(n) - alpha @ alpha
    raw = Cocycle(n, n, {key: Vec(tuple((sum(key) + 2 * l) % 5 - 2 for l in range(n)))
                         for key in increasing_triples(n)})
    tstar, q = t_star_extension(base, cyclic_part(raw))
    dual = [Vec.basis(2 * n, n + i) for i in range(n)]
    twisted = [Vec.basis(2 * n, 0) + Vec.basis(2 * n, n + 1)] + dual[1:]
    files.update({
        "tstar-A4yL3.json": algebra_to_dict(tstar),
        "tstar-A4yL3-coboundary.json": algebra_to_dict(
            t_star_extension(base, coboundary(base, coadjoint_rep(base), f))[0]),
        "q14.json": form_to_dict(q),
        "ideal14.json": subspace_to_dict(Subspace.span(2 * n, dual)),
        "base14.json": subspace_to_dict(
            Subspace.span(2 * n, [Vec.basis(2 * n, i) for i in range(n)])),
        "unstable14.json": subspace_to_dict(Subspace.span(2 * n, twisted)),
    })
    for name, payload in files.items():
        write_json(d / name, payload)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], outputs: list[Path]) -> tuple[int, str, str, dict[str, bytes]]:
    """Exit code, stdout, stderr and the files written under ``outputs`` by
    one in-process run of ``cli.main``; the files are removed afterwards."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    files = {}
    for path in outputs:
        for f in sorted([path] if path.is_file() else path.glob("*")):
            files[f.as_posix()] = f.read_bytes()
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
    return code, out.getvalue(), err.getvalue(), files


def run_case(argv: list[str]) -> dict:
    """Run one command line in the current directory and digest what it leaves."""
    code, out, err, files = run(argv, [Path("out.json"), Path("bundle"), Path("fx")])
    return {"argv": argv, "exit": code, "stdout": digest(out.encode()), "stderr": digest(err.encode()),
            "files": {name: digest(data) for name, data in files.items()}}


def input_digests(d: Path) -> dict[str, str]:
    """The sha256 digest of each file :func:`write_inputs` writes into ``d``."""
    return {f.name: digest(f.read_bytes()) for f in sorted(d.iterdir())}


def test_input_files_match_their_digests(tmp_path):
    """The writers and builders behind the inputs, seen even where no command reads one back."""
    write_inputs(tmp_path)
    table, written = json.loads(INPUTS.read_text(encoding="utf-8")), input_digests(tmp_path)
    changed = sorted(name for name in table.keys() | written.keys() if table.get(name) != written.get(name))
    assert not changed, "input files differ from their digests: " + ", ".join(changed)


def test_cli_runs_match_the_byte_table(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    assert [row["argv"] for row in table] == CASES
    changed = [" ".join(row["argv"]) for row in table if run_case(row["argv"]) != row]
    assert not changed, "runs differ from the byte table:\n" + "\n".join(changed)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        if sys.argv[1:] == ["inputs"]:
            sys.stdout.write(json.dumps(input_digests(Path(tmp)), indent=1) + "\n")
            sys.exit()
        os.chdir(tmp)
        rows = [run_case(argv) for argv in CASES]
    sys.stdout.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
