"""Command-line surface.

Subcommands: verify, derivations, extend, series, metric, reconstruct,
fixtures.  Exit codes: 0 when every selected check passed, 1 when a
check failed or a precondition was violated (the verdict names the
reason), 2 on malformed input, inputs of mismatched dimensions or an
output path that cannot be written.  Output is a deterministic verdict,
rendered as text by default or as canonical JSON with ``--json``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from . import fixtures as fixture_mod
from .algebras import (
    AlgebraReport,
    Hom3LieAlgebra,
    direct_sum,
    verify_axioms,
    verify_hom_jacobi,
    verify_multiplicative,
    verify_regular,
)
from .derivations import derivation_extension, derivation_space, inner_space
from .errors import DimensionMismatch
from .extensions import Cocycle, t_star_extension, t_theta_extension, verify_metric
from .io import (
    FileFormatError,
    algebra_to_dict,
    canonical_dumps,
    cocycle_to_dict,
    load_algebra,
    load_cocycle,
    load_form,
    load_matrix,
    load_representation,
    load_subspace,
    mat_to_lists,
    matrix_to_dict,
    subspace_to_dict,
    vec_to_dense,
    write_json,
)
from .representations import _extension_sweep, adjoint_rep, coadjoint_rep
from .structure import reconstruct_t_star, series

DEFAULT_CHECKS = ("skew", "jacobi", "multiplicative")
ALL_CHECKS = ("skew", "jacobi", "multiplicative", "regular")


@dataclass
class Verdict:
    """Deterministic record of one command run."""

    command: str
    inputs: list[str]
    flags: dict[str, bool] = field(default_factory=dict)
    witnesses: list[dict] = field(default_factory=list)
    witnesses_total: int = 0
    derived_data: Any = None  # a dict, or its text as written to a file
    error: Optional[str] = None

    def payload(self) -> dict:
        out = {"command": self.command, "inputs": self.inputs, "flags": self.flags,
               "witnesses": self.witnesses, "witnesses_total": self.witnesses_total}
        unless_unset = {"derived_data": self.derived_data, "error": self.error}
        return {**out, **{key: value for key, value in unless_unset.items() if value is not None}}

    @property
    def exit_code(self) -> int:
        return 0 if self.error is None and all(self.flags.values()) else 1

    def render_text(self) -> str:
        lines = [f"command: {self.command}", *(f"input: {name}" for name in self.inputs)]
        lines += [f"check {name}: {'pass' if self.flags[name] else 'FAIL'}" for name in sorted(self.flags)]
        if self.witnesses_total:
            lines.append(f"violations: {self.witnesses_total} (showing {len(self.witnesses)})")
            lines += [f"  {w}" for w in self.witnesses]
        if self.error is not None:
            lines.append(f"error: {self.error}")
        return "\n".join(lines)


def _record(verdict: Verdict, report: AlgebraReport, checks: tuple[str, ...]) -> None:
    """Set the flags ``report`` checked among ``checks``, its witnesses and their total."""
    flags = {"skew": report.skew_ok, "jacobi": report.hom_jacobi_ok,
             "multiplicative": report.multiplicative_ok, "regular": report.regular_ok}
    verdict.flags = {name: ok for name, ok in flags.items() if ok is not None and name in checks}
    verdict.witnesses = [{"identity": v.identity, "indices": [i + 1 for i in v.indices],
                          "left": vec_to_dense(v.left), "right": vec_to_dense(v.right)}
                         for v in report.violations]
    verdict.witnesses_total = report.violations_total


def cmd_verify(args: argparse.Namespace, verdict: Verdict) -> None:
    verdict.inputs = [args.file]
    alg = load_algebra(args.file)
    checks = DEFAULT_CHECKS if args.checks is None else tuple(args.checks.split(","))
    if not any(checks):
        raise FileFormatError(f"--checks selects no check; choose from {', '.join(ALL_CHECKS)}")
    for c in checks:
        if c not in ALL_CHECKS:
            raise FileFormatError(f"unknown check {c!r}; choose from {', '.join(ALL_CHECKS)}")
    report = AlgebraReport(skew_ok=True)  # increasing-triple storage makes skewness structural
    if "jacobi" in checks:
        report = report.merged(verify_hom_jacobi(alg))
    if "multiplicative" in checks or "regular" in checks:
        report = report.merged(verify_regular(alg) if "regular" in checks else verify_multiplicative(alg))
    _record(verdict, report, checks)


def cmd_derivations(args: argparse.Namespace, verdict: Verdict) -> None:
    verdict.inputs = [args.file]
    alg = load_algebra(args.file)
    if abs(args.k) > args.max_k:
        verdict.error = f"grade {args.k} outside configured range |k| <= {args.max_k}"
        return
    space = derivation_space(alg, args.k)
    data: dict[str, Any] = {
        "k": args.k,
        "dimension": space.dimension,
        "basis": [mat_to_lists(m) for m in space.basis],
    }
    if args.inner:
        inner = inner_space(alg, args.k)
        data["inner_dimension"] = inner.dimension
        data["inner_basis"] = [mat_to_lists(m) for m in inner.basis]
    verdict.derived_data = write_json(args.output, data) if args.output else data


def _resolve_rep(alg: Hom3LieAlgebra, source: str):
    builtin = {"adjoint": adjoint_rep, "coadjoint": coadjoint_rep}.get(source)
    return builtin(alg) if builtin else load_representation(source, algebra=alg)[1]


def cmd_extend(args: argparse.Namespace, verdict: Verdict) -> None:
    kind = args.kind
    inputs = list(args.inputs)
    verdict.inputs = [kind] + inputs
    arity = 3 if kind == "t-theta" else 2
    if len(inputs) != arity:
        raise FileFormatError(f"extend {kind} expects {arity} inputs, got {len(inputs)}")
    alg = load_algebra(inputs[0])
    data: dict[str, Any] = {}
    if kind == "derivation":
        ext, report = derivation_extension(alg, load_matrix(inputs[1]))
        table = [{"args": [i + 1 for i in key], "value": vec_to_dense(v)}
                 for key in itertools.product(range(ext.dim), repeat=3)
                 if not (v := ext.value(*key)).is_zero()]
        data = {"dim": ext.dim, "alpha_prime": mat_to_lists(ext.twist), "table": table,
                "skew": bool(report.skew_ok)}
        # the literal extension rule is not skew, so only the
        # extension-theorem verdict and the twist check gate the exit
        report = replace(report, skew_ok=None)
    elif kind in ("t-theta", "semidirect"):  # semidirect: the extension along theta = 0
        rep = _resolve_rep(alg, inputs[1])
        th = (load_cocycle(inputs[2], algebra=alg)[1] if kind == "t-theta"
              else Cocycle.zero(alg.dim, rep.module_dim))
        result, report = t_theta_extension(alg, rep, th)
    elif kind == "direct-sum":
        result = direct_sum(alg, load_algebra(inputs[1]))
        report = verify_axioms(result)
    else:  # t-star
        _, th = load_cocycle(inputs[1], algebra=alg)
        result, form = t_star_extension(alg, th)
        report = _extension_sweep(result, alg.dim)[2]
        data["q_gram"] = mat_to_lists(form.gram)
    if kind != "derivation":
        data["algebra"] = algebra_to_dict(result)
    _record(verdict, report, ALL_CHECKS)
    if args.output:  # the algebra, or a derivation extension's whole data
        text = write_json(args.output, data.get("algebra", data))
        data = dict(data, algebra=text) if "algebra" in data else text
    verdict.derived_data = data


def cmd_series(args: argparse.Namespace, verdict: Verdict) -> None:
    verdict.inputs = [args.file]
    if args.max_steps < 1:
        raise FileFormatError(f"--max-steps must be at least 1, got {args.max_steps}")
    alg = load_algebra(args.file)
    kind = {"derived": "derived", "descending": "central_descending",
            "ascending": "central_ascending"}[args.kind]
    result = series(alg, kind, max_steps=args.max_steps)
    verdict.flags["stabilized"] = result.stabilized
    verdict.derived_data = {"kind": result.kind, "dims": [t.dim for t in result.terms],
                            "length": result.length, "terms": [subspace_to_dict(t) for t in result.terms]}


def cmd_metric(args: argparse.Namespace, verdict: Verdict) -> None:
    verdict.inputs = [args.file, args.form]
    alg = load_algebra(args.file)
    form = load_form(args.form)
    report = verify_metric(alg, form)
    verdict.flags = {
        "symmetric": report.symmetric_ok,
        "nondegenerate": report.nondegenerate_ok,
        "invariant": report.invariant_ok,
    }
    verdict.witnesses = [{"identity": "invariant", "indices": [i + 1 for i in w]}
                         for w in report.witnesses]
    verdict.witnesses_total = report.violations_total
    verdict.derived_data = {"twist_invariant": report.twist_invariant_ok}


def cmd_reconstruct(args: argparse.Namespace, verdict: Verdict) -> Optional[str]:
    """With ``--output-dir``, the text of the ``verdict.json`` it writes."""
    verdict.inputs = [args.file, args.form, args.ideal] + ([args.complement] if args.complement else [])
    alg = load_algebra(args.file)
    form = load_form(args.form)
    ideal = load_subspace(args.ideal)
    comp = load_subspace(args.complement) if args.complement else None
    res = reconstruct_t_star(alg, form, ideal, comp)
    verdict.flags["isometry"] = res.isometry_ok
    bundle = {
        "quotient": algebra_to_dict(res.quotient),
        "theta": cocycle_to_dict(res.theta, "quotient.json"),
        "tstar": algebra_to_dict(res.tstar),
        "sigma": matrix_to_dict(res.sigma),
        "isometry_ok": res.isometry_ok,
    }
    verdict.derived_data = bundle
    if not args.output_dir:
        return None
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("quotient", "theta", "tstar", "sigma"):
        bundle[name] = write_json(out / f"{name}.json", bundle[name])
    return write_json(out / "verdict.json", verdict.payload())


def cmd_fixtures(args: argparse.Namespace, verdict: Verdict) -> None:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for name, alg in fixture_mod.catalog().items():
        path = out / f"{name}.json"
        write_json(path, algebra_to_dict(alg))
        names.append(str(path))
    verdict.derived_data = {"written": names}


@functools.cache  # built on the first call, not at import; each parse_args makes a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hom3lie",
        description="Exact verification and constructions for hom 3-Lie algebras.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="emit the verdict as canonical JSON")
    mode.add_argument("--text", action="store_false", dest="json",
                      help="emit a human-readable verdict (default)")
    parser.add_argument("--max-k", type=int, default=3, dest="max_k",
                        help="largest derivation grade served (default 3)")
    parser.add_argument("--max-steps", type=int, default=64, dest="max_steps",
                        help="safety bound for series computations (default 64)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="run identity checks on an algebra file")
    p.add_argument("file")
    p.add_argument("--checks", default=None,
                   help="comma-separated subset of skew,jacobi,multiplicative,regular")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derivations", help="emit a basis of a derivation grade")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--inner", action="store_true", help="also emit the inner derivations")
    p.add_argument("--output", default=None, help="write the basis bundle to this file")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("extend", help="build one of the extension constructions")
    p.add_argument("kind", choices=["direct-sum", "derivation", "semidirect", "t-theta", "t-star"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("--output", default=None, help="write the constructed algebra to this file")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("series", help="compute derived/central series")
    p.add_argument("file")
    p.add_argument("--kind", choices=["derived", "descending", "ascending"], default="derived")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("metric", help="check a bilinear form for metric structure")
    p.add_argument("file")
    p.add_argument("form")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("reconstruct", help="present a metric algebra as a dual-space extension")
    p.add_argument("file")
    p.add_argument("form")
    p.add_argument("ideal")
    p.add_argument("complement", nargs="?", default=None)
    p.add_argument("--output-dir", default=None, dest="output_dir")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("fixtures", help="write the bundled example algebras")
    p.add_argument("--output-dir", default="fixtures", dest="output_dir")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and print its verdict; the one place an outcome becomes an exit code."""
    args = build_parser().parse_args(argv)
    verdict, dumped = Verdict(args.subcommand, []), None
    try:
        dumped = args.func(args, verdict)
    except (FileFormatError, DimensionMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a PreconditionError, or a library's other refusal
        verdict.error = f"{type(exc).__name__}: {exc}"
    if args.json:
        sys.stdout.write(dumped or canonical_dumps(verdict.payload()))
    else:
        print(verdict.render_text())
    return verdict.exit_code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
