import decimal
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import hom3lie
from conftest import action_block
from hom3lie.algebras import verify_multiplicative
from hom3lie.cli import main
from hom3lie.extensions import BilinForm, Cocycle
from hom3lie.fixtures import catalog, l3
from hom3lie.io import (
    FileFormatError,
    algebra_from_dict,
    algebra_to_dict,
    canonical_dumps,
    cocycle_to_dict,
    form_to_dict,
    format_rat,
    load_algebra,
    load_cocycle,
    load_representation,
    matrix_to_dict,
    parse_rat,
    representation_from_dict,
    representation_to_dict,
    subspace_from_dict,
    subspace_to_dict,
    vec_from_sparse,
    write_json,
)
from hom3lie.linalg import Mat, Subspace, Vec
from hom3lie.representations import Representation, adjoint_rep


def data_file(name: str) -> str:
    return str(resources.files("hom3lie.data") / f"{name}.json")


def test_parse_rat():
    assert parse_rat("3/4", "x", {}) == Fraction(3, 4)
    assert parse_rat(-2, "x", {}) == Fraction(-2)
    for bad in ("1/0", "abc", 1.5, True, None):
        with pytest.raises(FileFormatError):
            parse_rat(bad, "x", {})


def test_vec_sparse_guards():
    with pytest.raises(FileFormatError):
        vec_from_sparse({"0": "1"}, 3, "v", {})
    with pytest.raises(FileFormatError):
        vec_from_sparse({"4": "1"}, 3, "v", {})
    assert vec_from_sparse({"2": "1/2"}, 3, "v", {}) == Vec.of(0, "1/2", 0)


def test_algebra_round_trip_values(algebras):
    for L in algebras.values():
        assert algebra_from_dict(algebra_to_dict(L)) == L


def test_shipped_fixture_files_round_trip_byte_identical(algebras):
    for name, L in algebras.items():
        raw = Path(data_file(name)).read_text(encoding="utf-8")
        loaded = algebra_from_dict(json.loads(raw))
        assert loaded == L
        assert canonical_dumps(algebra_to_dict(loaded)) == raw


def test_algebra_dict_validation_errors():
    good = algebra_to_dict(l3())
    for mutate in (
        lambda d: d.pop("dim"),
        lambda d: d["brackets"].append({"args": [1, 1, 2], "value": {"1": "1"}}),
        lambda d: d["brackets"].append({"args": [1, 2, 3], "value": {"1": "1"}}),
        lambda d: d.__setitem__("alpha", [["1"]]),
        lambda d: d["brackets"][0]["value"].__setitem__("1", "1/0"),
    ):
        d = json.loads(json.dumps(good))
        mutate(d)
        with pytest.raises(FileFormatError):
            algebra_from_dict(d)


def test_representation_files_on_another_module_dimension_round_trip():
    # column c of the matrix on (i, j) is the value on (i, j, n + c), so n != m shows a mixed-up offset
    mats = {(0, 1): Mat.from_rows([[1, "2/3"], [0, -1]]), (1, 2): Mat.from_rows([[0, 0], [5, 0]])}
    r = Representation(3, 2, Mat.from_rows([[0, 1], [1, 0]]), action_block(3, 2, mats))
    d = representation_to_dict(r, "L3.json")
    assert [entry["matrix"] for entry in d["rho"]] == [
        [["1", "2/3"], ["0", "-1"]], [["0", "0"], ["5", "0"]]]
    assert representation_from_dict(d, l3()) == r


@pytest.mark.parametrize("entry, message", [
    ({"args": [1, 2], "matrix": [["1", "0", "0"]] * 3}, "rho[0].matrix: expected 2 rows, got 3"),
    ({"args": [1, 2], "matrix": [["1", "0", "0"]] * 2}, "rho[0].matrix: expected 2 columns, got 3"),
    ({"args": [2, 1], "matrix": [["1", "0"]] * 2}, "rho[0].args: indices [2, 1] must be strictly increasing"),
    ({"args": [1, 4], "matrix": [["1", "0"]] * 2}, "rho[0].args: index 4 out of range 1..3"),
    ({"args": [1, 2, 3], "matrix": [["1", "0"]] * 2}, "rho[0].args: expected 2 indices"),
])
def test_representation_file_shape_and_key_errors(entry, message):
    d = {"algebra": "L3.json", "module_dim": 2, "A": [["1", "0"], ["0", "1"]], "rho": [entry]}
    with pytest.raises(FileFormatError, match=re.escape(message)):
        representation_from_dict(d, l3())


def test_representation_and_cocycle_files(tmp_path):
    L = l3()
    r = adjoint_rep(L)
    write_json(tmp_path / "L3.json", algebra_to_dict(L))
    write_json(tmp_path / "rep.json", representation_to_dict(r, "L3.json"))
    th = Cocycle(3, 3, {(0, 1, 2): Vec.of(1, 0, "2/3")})
    write_json(tmp_path / "theta.json", cocycle_to_dict(th, "L3.json"))

    loaded_alg, loaded_rep = load_representation(tmp_path / "rep.json")
    assert loaded_alg == L and loaded_rep == r
    loaded_alg2, loaded_th = load_cocycle(tmp_path / "theta.json")
    assert loaded_alg2 == L and loaded_th == th
    # explicit algebra wins over the file reference
    _, again = load_cocycle(tmp_path / "theta.json", algebra=L)
    assert again == th
    # a standalone file must name its algebra by a path string
    d = cocycle_to_dict(th, "L3.json")
    d["algebra"] = 3
    write_json(tmp_path / "theta-ref.json", d)
    with pytest.raises(FileFormatError, match="algebra reference must be a path string"):
        load_cocycle(tmp_path / "theta-ref.json")


def test_subspace_round_trip():
    s = Subspace.span(3, [Vec.of(1, 1, 0), Vec.of(0, 0, 2)])
    assert subspace_from_dict(subspace_to_dict(s)) == s


# -- CLI -------------------------------------------------------------------


def test_cli_verify_pass_and_json_determinism(capsys):
    assert main(["--json", "verify", data_file("A4")]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "verify", data_file("A4")]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["flags"] == {"jacobi": True, "multiplicative": True, "skew": True}


def test_cli_verify_failure_with_witness(tmp_path, capsys):
    d = algebra_to_dict(catalog()["A4"])
    d["brackets"][0]["value"] = {"1": "1", "4": "1"}  # perturb e4 to e4 + e1
    bad = tmp_path / "A4-broken.json"
    bad.write_text(canonical_dumps(d), encoding="utf-8")
    assert main(["--json", "verify", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["jacobi"] is False
    assert payload["witnesses_total"] > 0
    assert payload["witnesses"][0]["identity"] == "hom_jacobi"


def test_cli_verify_malformed_inputs(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(broken)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    shaped = tmp_path / "shaped.json"
    shaped.write_text('{"dim": 2, "alpha": [["1"]], "brackets": []}', encoding="utf-8")
    assert main(["verify", str(shaped)]) == 2
    capsys.readouterr()


def test_cli_verify_abelian_file(tmp_path):
    write_json(tmp_path / "ab2.json", {"dim": 2, "alpha": [["1", "0"], ["0", "1"]], "brackets": []})
    assert main(["verify", str(tmp_path / "ab2.json")]) == 0


def test_cli_verify_regular_check(capsys):
    assert main(["verify", data_file("L3"), "--checks", "regular"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("selection", ["", ","])
def test_cli_verify_empty_check_selection_is_an_error(selection, capsys):
    assert main(["--json", "verify", data_file("L3"), "--checks", selection]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --checks selects no check; "
                            "choose from skew, jacobi, multiplicative, regular\n")


def test_cli_derivations(capsys):
    assert main(["--json", "derivations", data_file("AB3"), "--k", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived_data"]["dimension"] == 9
    assert len(payload["derived_data"]["basis"]) == 9

    assert main(["--json", "derivations", data_file("L3"), "--k", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived_data"]["dimension"] == 6

    assert main(["--json", "derivations", data_file("AB3s"), "--k", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived_data"]["dimension"] == 3

    # negative grade on a non-regular algebra is a named failure
    assert main(["--json", "derivations", data_file("N4"), "--k", "7"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "range" in payload["error"]


def test_cli_derivations_negative_grade_needs_regular(tmp_path, capsys):
    from hom3lie.fixtures import l3h

    write_json(tmp_path / "L3h0.json", algebra_to_dict(l3h(0)))
    assert main(["--json", "derivations", str(tmp_path / "L3h0.json"), "--k", "-1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "RegularTwistRequired" in payload["error"]


def test_cli_extend_direct_sum(tmp_path, capsys):
    out = tmp_path / "sum.json"
    rc = main(["--json", "extend", "direct-sum", data_file("AB3"), data_file("AB3"),
               "--output", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived_data"]["algebra"]["dim"] == 6
    assert load_algebra(out).dim == 6


def test_cli_extend_semidirect_adjoint(capsys):
    assert main(["--json", "extend", "semidirect", data_file("L3"), "adjoint"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == {"jacobi": True, "multiplicative": True, "skew": True}


def test_cli_extend_t_star(tmp_path, capsys):
    write_json(tmp_path / "theta0.json",
               cocycle_to_dict(Cocycle.zero(3, 3), "L3.json"))
    rc = main(["--json", "extend", "t-star", data_file("L3"), str(tmp_path / "theta0.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived_data"]["algebra"]["dim"] == 6
    assert payload["derived_data"]["q_gram"][0][3] == "1"


def test_cli_extend_t_theta_with_rep_file(tmp_path, capsys):
    from hom3lie.representations import coadjoint_rep

    L = l3()
    write_json(tmp_path / "L3.json", algebra_to_dict(L))
    write_json(tmp_path / "rep.json", representation_to_dict(coadjoint_rep(L), "L3.json"))
    write_json(tmp_path / "theta.json",
               cocycle_to_dict(Cocycle(3, 3, {(0, 1, 2): Vec.basis(3, 0)}), "L3.json"))
    rc = main(["--json", "extend", "t-theta", str(tmp_path / "L3.json"),
               str(tmp_path / "rep.json"), str(tmp_path / "theta.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived_data"]["algebra"]["dim"] == 6
    assert payload["flags"]["jacobi"] is True


def test_cli_extend_derivation(tmp_path, capsys):
    write_json(tmp_path / "D.json", matrix_to_dict(Mat.diagonal([0, 1, -1])))
    rc = main(["--json", "extend", "derivation", data_file("L3"), str(tmp_path / "D.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["jacobi"] is True
    assert payload["derived_data"]["skew"] is False

    write_json(tmp_path / "bad.json", matrix_to_dict(Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])))
    rc = main(["--json", "extend", "derivation", data_file("L3"), str(tmp_path / "bad.json")])
    assert rc == 1


def test_cli_series(capsys):
    assert main(["--json", "series", data_file("L3"), "--kind", "derived"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived_data"]["dims"] == [3, 1, 0]
    assert payload["derived_data"]["length"] == 2


def test_cli_metric(tmp_path, capsys):
    from hom3lie.extensions import t_star_extension

    L = l3()
    alg, q = t_star_extension(L, Cocycle.zero(3, 3))
    write_json(tmp_path / "alg.json", algebra_to_dict(alg))
    write_json(tmp_path / "q.json", form_to_dict(q))
    assert main(["--json", "metric", str(tmp_path / "alg.json"), str(tmp_path / "q.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == {"symmetric": True, "nondegenerate": True, "invariant": True}

    bad = Cocycle(3, 3, {(0, 1, 2): Vec.of(0, 0, 1)})
    alg2, q2 = t_star_extension(L, bad)
    write_json(tmp_path / "alg2.json", algebra_to_dict(alg2))
    assert main(["--json", "metric", str(tmp_path / "alg2.json"), str(tmp_path / "q.json")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["invariant"] is False


def test_cli_reconstruct(tmp_path, capsys):
    from hom3lie.extensions import t_star_extension

    L = l3()
    alg, q = t_star_extension(L, Cocycle.zero(3, 3))
    write_json(tmp_path / "alg.json", algebra_to_dict(alg))
    write_json(tmp_path / "q.json", form_to_dict(q))
    ideal = Subspace.span(6, [Vec.basis(6, 3 + i) for i in range(3)])
    write_json(tmp_path / "ideal.json", subspace_to_dict(ideal))
    outdir = tmp_path / "bundle"
    rc = main(["--json", "reconstruct", str(tmp_path / "alg.json"), str(tmp_path / "q.json"),
               str(tmp_path / "ideal.json"), "--output-dir", str(outdir)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["isometry"] is True
    assert (outdir / "quotient.json").exists()
    assert load_algebra(outdir / "quotient.json") == L
    assert (outdir / "verdict.json").exists()

    # violated precondition: ideal of the wrong dimension
    write_json(tmp_path / "short.json", subspace_to_dict(Subspace.span(6, [Vec.basis(6, 3)])))
    rc = main(["--json", "reconstruct", str(tmp_path / "alg.json"), str(tmp_path / "q.json"),
               str(tmp_path / "short.json")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert "HalfDimensionRequired" in payload["error"]


def test_cli_fixtures_round_trip(tmp_path, capsys):
    rc = main(["--json", "fixtures", "--output-dir", str(tmp_path / "fx")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    written = payload["derived_data"]["written"]
    assert len(written) == 6
    for name, L in catalog().items():
        path = tmp_path / "fx" / f"{name}.json"
        assert load_algebra(path) == L
        assert path.read_text(encoding="utf-8") == Path(data_file(name)).read_text(encoding="utf-8")


def test_cli_text_output(capsys):
    assert main(["verify", data_file("N4")]) == 0
    out = capsys.readouterr().out
    assert "check jacobi: pass" in out


def test_parse_rat_rejects_decimal_and_exponent_literals(tmp_path, capsys):
    for bad in ("0.5", "1.0", "1e3", "-2.5/3", " 1", "1_000", "inf"):
        with pytest.raises(FileFormatError):
            parse_rat(bad, "x", {})
    assert parse_rat("+7", "x", {}) == 7 and parse_rat("-10/4", "x", {}) == Fraction(-5, 2)
    d = algebra_to_dict(l3())
    d["brackets"][0]["value"]["1"] = "0.5"
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert "bad rational literal '0.5'" in capsys.readouterr().err


def _assert_one_line_error(capsys) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["derivations", data_file("A4"), "--output"],
    ["extend", "direct-sum", data_file("A4"), data_file("L3"), "--output"],
])
def test_cli_output_into_a_missing_directory_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "nodir" / "out.json"
    assert main(argv + [str(target)]) == 2
    _assert_one_line_error(capsys)
    assert not target.exists()


def test_cli_output_dir_that_is_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["fixtures", "--output-dir", str(blocker)]) == 2
    _assert_one_line_error(capsys)


def test_cli_metric_with_a_form_of_the_wrong_dimension_exits_2(tmp_path, capsys):
    form = tmp_path / "form2.json"
    write_json(form, {"dim": 2, "gram": [["0", "1"], ["1", "0"]]})
    assert main(["metric", data_file("A4"), str(form)]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_cli_series_rejects_max_steps_below_one(capsys, steps):
    assert main(["--max-steps", steps, "series", data_file("A4")]) == 2
    _assert_one_line_error(capsys)


def test_cli_non_utf8_input_exits_2_and_names_the_path(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"dim": 1}'.encode("utf-16-le"))
    with pytest.raises(FileFormatError):
        load_algebra(path)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err and err.count("\n") == 1


def test_sparse_index_keys_must_be_canonical(tmp_path, capsys):
    for bad in (" 1", "1 ", "01", "+1", "1_0", "0", "-1", "1.0", "", "١"):
        with pytest.raises(FileFormatError):
            vec_from_sparse({bad: "1"}, 3, "v", {})
    assert vec_from_sparse({"3": "2", "1": "1"}, 3, "v", {}) == Vec.of(1, 0, 2)
    d = algebra_to_dict(l3())
    d["brackets"][0]["value"] = {"1": "1", "01": "2"}
    path = tmp_path / "padded.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert "bad index '01'" in capsys.readouterr().err


@pytest.mark.parametrize("diag", [(1, 1, 1, 1), (1, 2, 3, 4)])
def test_cli_reconstruct_ideal_of_another_ambient_dim_exits_2(tmp_path, capsys, diag):
    # the identity is a metric on A4 and diag(1,2,3,4) is not: the
    # ambient-dimension mismatch is reported first either way
    write_json(tmp_path / "form.json", form_to_dict(BilinForm(4, Mat.diagonal(diag))))
    ideal = Subspace.span(6, [Vec.basis(6, 0), Vec.basis(6, 1)])
    write_json(tmp_path / "ideal.json", subspace_to_dict(ideal))
    assert main(["reconstruct", data_file("A4"), str(tmp_path / "form.json"),
                 str(tmp_path / "ideal.json")]) == 2
    _assert_one_line_error(capsys)


def test_cli_reconstruct_complement_of_another_ambient_dim_exits_2(tmp_path, capsys):
    from hom3lie.extensions import t_star_extension

    alg, q = t_star_extension(l3(), Cocycle.zero(3, 3))
    write_json(tmp_path / "alg.json", algebra_to_dict(alg))
    write_json(tmp_path / "q.json", form_to_dict(q))
    ideal = Subspace.span(6, [Vec.basis(6, 3 + i) for i in range(3)])
    write_json(tmp_path / "ideal.json", subspace_to_dict(ideal))
    write_json(tmp_path / "comp.json", subspace_to_dict(Subspace.full(3)))
    assert main(["reconstruct", str(tmp_path / "alg.json"), str(tmp_path / "q.json"),
                 str(tmp_path / "ideal.json"), str(tmp_path / "comp.json")]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("dim", [0, -1, -2])
def test_cli_rejects_form_and_subspace_dims_below_one(tmp_path, capsys, dim):
    write_json(tmp_path / "form.json", {"dim": dim, "gram": [["1"]]})
    write_json(tmp_path / "metric.json", form_to_dict(BilinForm(4, Mat.identity(4))))
    write_json(tmp_path / "ideal.json", {"ambient_dim": dim, "basis": []})
    write_json(tmp_path / "half.json", {"ambient_dim": 4, "basis": [["1", "0", "0", "0"]]})
    for form, ideal in (("form", "half"), ("metric", "ideal")):
        assert main(["reconstruct", data_file("A4"), str(tmp_path / f"{form}.json"),
                     str(tmp_path / f"{ideal}.json")]) == 2
        err = capsys.readouterr().err
        assert "dimension must be positive" in err and err.count("\n") == 1
    assert main(["metric", data_file("A4"), str(tmp_path / "form.json")]) == 2
    _assert_one_line_error(capsys)


def _with_long_integer(case: str) -> str:
    """L3 as JSON text with one 5,000-digit integer, past Python's int-string limit."""
    big = "1" * 5000
    d = algebra_to_dict(l3())
    if case == "index key":
        d["brackets"][0]["value"] = {big: "1"}
    elif case == "rational string":
        d["brackets"][0]["value"]["1"] = big
    else:
        d["alpha"][0][0] = "BIG"
        return json.dumps(d).replace('"BIG"', big)
    return json.dumps(d)


@pytest.mark.parametrize("case, where", [
    ("index key", "brackets[0].value: index 111"),
    ("rational string", "brackets[0].value[1]: bad rational literal '111"),
    ("JSON number", "invalid JSON: integer literal too long"),
])
def test_cli_integers_over_4300_digits_exit_2(tmp_path, capsys, case, where):
    path = tmp_path / "long.json"
    path.write_text(_with_long_integer(case), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and where in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_format_rat_matches_the_decimal_form():
    # str() is the fast path; past 4,300 digits it raises and Decimal prints
    big = 10 ** 4999 + 1  # 5,000 digits
    for x in (Fraction(0), Fraction(7), Fraction(-7), Fraction(3, 4), Fraction(-22, 7),
              Fraction(big), Fraction(-big), Fraction(1, big), Fraction(-big, big + 2)):
        num = str(decimal.Decimal(x.numerator))
        assert format_rat(x) == (num if x.denominator == 1 else f"{num}/{decimal.Decimal(x.denominator)}")


def test_cli_witnesses_over_4300_digits_are_written(tmp_path, capsys):
    # alpha has two 2,200-digit entries, so the witness sides hold
    # 4,400-digit products, past the limit of str() on an int
    big = "9" * 2200
    d = algebra_to_dict(catalog()["A4"])
    d["alpha"][0][0] = d["alpha"][1][1] = big
    path = tmp_path / "big.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    args = ["--json", "verify", "--checks", "multiplicative", str(path)]
    assert main(args) == 1
    first = capsys.readouterr()
    assert first.err == ""
    verdict = json.loads(first.out)
    assert verdict["flags"] == {"multiplicative": False} and verdict["witnesses"]
    written = [x for w in verdict["witnesses"] for x in w["left"] + w["right"]]
    assert max(len(x.lstrip("-")) for x in written) > 4300
    # every side is an integer here; Decimal reads it back exactly, Fraction cannot
    report = verify_multiplicative(load_algebra(path))
    exact = [x for v in report.violations for x in v.left.entries + v.right.entries]
    assert [int(decimal.Decimal(x)) for x in written] == exact
    assert main(args) == 1
    assert capsys.readouterr().out == first.out


def test_cli_deeply_nested_json_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["--json", "verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "nested too deeply" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("kind", ["t-star", "t-theta"])
def test_cli_cocycle_module_dim_past_the_index_range_exits_2(tmp_path, capsys, kind):
    # nothing else in a cocycle file is sized by module_dim, so a huge one
    # loads; it must be rejected as a dimension mismatch, not crash len()
    d = cocycle_to_dict(Cocycle(3, 3, {(0, 1, 2): Vec.basis(3, 0)}), "L3.json")
    d["module_dim"] = 10 ** 40
    write_json(tmp_path / "theta.json", d)
    rep = ["coadjoint"] if kind == "t-theta" else []
    assert main(["extend", kind, data_file("L3"), *rep, str(tmp_path / "theta.json")]) == 2
    _assert_one_line_error(capsys)


def _run_catching_usage_errors(argv, out, capsys):
    """Exit code, stdout, stderr and the files written into ``out`` by one
    in-process ``main`` call; a usage error's ``SystemExit`` gives its code."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_cli_main_called_again_in_one_process_repeats_each_run(tmp_path, capsys):
    """``main`` reuses one parser: no option or default of one call reaches the next."""
    out = tmp_path / "out"
    theta = tmp_path / "theta.json"
    write_json(theta, cocycle_to_dict(Cocycle(3, 3, {(0, 1, 2): Vec.basis(3, 0)}), "L3.json"))
    a4, l3_file = data_file("A4"), data_file("L3")
    sequence = [
        ["derivations", a4, "--k", "1", "--inner", "--output", str(out / "d.json")],
        ["derivations", a4, "--k", "1", "--output", str(out / "d.json")],
        ["--json", "verify", a4],
        ["verify", a4],
        ["--max-k", "1", "derivations", l3_file, "--k", "2"],
        ["derivations", l3_file, "--k", "2"],
        ["--json", "extend", "t-theta", l3_file, "coadjoint", str(theta), "--output", str(out / "e.json")],
        ["reconstruct", l3_file],
        ["--json", "extend", "t-star", l3_file, str(theta), "--output", str(out / "e.json")],
    ]
    first = [_run_catching_usage_errors(argv, out, capsys) for argv in sequence]
    again = [_run_catching_usage_errors(argv, out, capsys) for argv in reversed(sequence)]
    assert again[::-1] == first
    # each option changes what its pair gives, so a value carried over would show
    for i in (0, 2, 4):
        assert first[i] != first[i + 1]
    assert [run[0] for run in first] == [0, 0, 0, 0, 1, 0, 0, 2, 0]
    assert first[7][2].startswith("usage: hom3lie reconstruct")


def test_cli_in_a_fresh_process_gives_the_in_process_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal width
    env = dict(os.environ, PYTHONPATH=str(Path(hom3lie.__file__).resolve().parent.parent))
    for argv in (["--json", "verify", data_file("A4")], ["verify"]):
        done = subprocess.run([sys.executable, "-m", "hom3lie.cli", *argv], env=env,
                              capture_output=True, text=True, cwd=tmp_path)
        code, out, err, _ = _run_catching_usage_errors(argv, tmp_path / "out", capsys)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    assert code == 2 and err.startswith("usage: hom3lie verify")
