"""Acceptance suite: the package-level exit criteria.

Each test prints one pass/fail line (run with ``pytest -s`` to see
them).  All checks are exact: the scalars are rationals, so every
tolerance is zero.
"""

import random
from fractions import Fraction
from importlib import resources

from conftest import random_mat
from test_derivations import elementary, naive_derivation_space

from hom3lie.algebras import (
    Hom3LieAlgebra,
    direct_sum,
    graph,
    increasing_triples,
    is_morphism,
    is_subalgebra,
    verify_hom_jacobi,
    verify_multiplicative,
)
from hom3lie.cli import main
from hom3lie.derivations import (
    commutator,
    derivation_extension,
    derivation_space,
    is_alpha_k_derivation,
)
from hom3lie.extensions import (
    Cocycle,
    coboundary,
    cyclic_part,
    is_isometry,
    semidirect_product,
    shift_isomorphism,
    t_star_extension,
    theta_cyclic_ok,
    verify_cocycle,
    verify_metric,
)
from hom3lie.io import algebra_to_dict, canonical_dumps, load_algebra
from hom3lie.linalg import Mat, Subspace, Vec
from hom3lie.representations import adjoint_rep, coadjoint_rep
from hom3lie.structure import reconstruct_t_star, tstar_solvability_check


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {name}: {status}{suffix}")


def rand_theta(rng, n):
    table = {}
    for key in increasing_triples(n):
        v = Vec.of(*[rng.randint(-2, 2) for _ in range(n)])
        if not v.is_zero():
            table[key] = v
    return Cocycle(n, n, table)


def nonzero_fraction(rng):
    while True:
        f = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if f != 0:
            return f


def test_criterion_01_axiom_suite(algebras):
    ok = True
    for name, L in algebras.items():
        ok &= bool(verify_hom_jacobi(L).hom_jacobi_ok)
        ok &= bool(verify_multiplicative(L).multiplicative_ok)

    # Perturb entries off the existing support: rescaling a structure
    # constant in place is a diagonal basis change that keeps the
    # fundamental identity, so it is not a perturbation of the axioms.
    a4 = algebras["A4"]
    rng = random.Random(20240)
    keys = sorted(a4.table)
    failures_witnessed = 0
    for _ in range(20):
        key = keys[rng.randrange(len(keys))]
        support = set(a4.table[key].support)
        coord = rng.choice([c for c in range(4) if c not in support])
        entries = list(a4.table[key].entries)
        entries[coord] += nonzero_fraction(rng)
        table = dict(a4.table)
        table[key] = Vec(tuple(entries))
        broken = Hom3LieAlgebra(4, table, Mat.identity(4))
        rep = verify_hom_jacobi(broken)
        if rep.hom_jacobi_ok is False and rep.violations:
            w = rep.violations[0]
            if w.identity == "hom_jacobi" and len(w.indices) == 5 and w.left != w.right:
                failures_witnessed += 1
    ok &= failures_witnessed == 20
    report(1, "axiom suite + perturbations", ok, f"{failures_witnessed}/20 perturbations caught")
    assert ok


def test_criterion_02_morphism_graph_biconditional(algebras):
    rng = random.Random(20241)
    names = ["L3", "A4", "AB3s"]
    agreements = 0
    total = 0
    ok = True
    pairs = [(a, b) for a in names for b in names]
    for src, dst in pairs:
        L, G = algebras[src], algebras[dst]
        total_alg = direct_sum(L, G)
        candidates = [random_mat(rng, G.dim, L.dim) for _ in range(12)]
        candidates.append(Mat.zero(G.dim, L.dim))
        if L.dim == G.dim:
            candidates.append(Mat.identity(L.dim))
        for phi in candidates:
            lhs = is_morphism(phi, L, G)
            rhs = is_subalgebra(total_alg, graph(phi, L, G))
            total += 1
            if lhs == rhs:
                agreements += 1
            else:
                ok = False
    ok &= agreements == total and total >= 102
    report(2, "morphism <-> graph subalgebra", ok, f"{agreements}/{total} agreements")
    assert ok


def test_criterion_03_derivation_space_dimensions(algebras):
    expected = {"AB3": 9, "AB3s": 3, "L3": 6}
    ok = True
    details = []
    for name, want in expected.items():
        L = algebras[name]
        space = derivation_space(L, 0)
        oracle = naive_derivation_space(L, 0).dim
        census = sum(
            1 for r in range(3) for c in range(3)
            if is_alpha_k_derivation(L, elementary(3, r, c), 0)
        )
        good = space.dimension == want == oracle
        # the elementary census is a lower-bound cross-check
        good &= census <= want
        for r in range(3):
            for c in range(3):
                e = elementary(3, r, c)
                good &= is_alpha_k_derivation(L, e, 0) == space.contains(e)
        ok &= good
        details.append(f"{name}:{space.dimension}/oracle {oracle}")
    report(3, "derivation space dimensions", ok, ", ".join(details))
    assert ok


def test_criterion_04_commutator_grading(algebras):
    ok = True
    checked = 0
    for name in ("L3", "L3h2", "N4"):
        L = algebras[name]
        spaces = {k: derivation_space(L, k) for k in range(4)}
        for k in range(4):
            for s in range(4 - k):
                for d in spaces[k].basis:
                    for dp in spaces[s].basis:
                        checked += 1
                        if not spaces[k + s].contains(commutator(d, dp)):
                            ok = False
    report(4, "commutator grading", ok, f"{checked} pairs, zero failures" if ok else "failures")
    assert ok


def test_criterion_05_derivation_extension_biconditional(algebras):
    rng = random.Random(20242)
    ok = True
    positives = 0
    negatives = 0
    for name, L in algebras.items():
        space = derivation_space(L, 1)
        for d in space.basis:
            _, rep = derivation_extension(L, d)
            positives += 1
            if rep.hom_jacobi_ok is not True:
                ok = False
        if space.dimension == L.dim * L.dim:
            continue  # every map is a derivation, nothing to refute
        found = 0
        while found < 4:
            d = random_mat(rng, L.dim, L.dim)
            if is_alpha_k_derivation(L, d, 1):
                continue
            found += 1
            negatives += 1
            _, rep = derivation_extension(L, d)
            if rep.hom_jacobi_ok is not False:
                ok = False
    ok &= negatives >= 20
    report(5, "derivation extension iff", ok,
           f"{positives} derivations true, {negatives} non-derivations false")
    assert ok


def test_criterion_06_semidirect_adjoint(algebras):
    ok = True
    for name in ("L3", "N4", "A4"):
        L = algebras[name]
        s = semidirect_product(L, adjoint_rep(L))
        ok &= bool(verify_hom_jacobi(s).hom_jacobi_ok)
        ok &= bool(verify_multiplicative(s).multiplicative_ok)
    report(6, "semidirect product of adjoint", ok)
    assert ok


def test_criterion_07_coboundaries_and_shifts(algebras):
    rng = random.Random(20243)
    ok = True
    checked = 0
    for name in ("L3", "N4"):
        L = algebras[name]
        r = coadjoint_rep(L)
        n = L.dim
        for _ in range(25):
            f = random_mat(rng, n, n)
            th_f = coboundary(L, r, f)
            if not verify_cocycle(L, r, th_f).ok:
                ok = False
            _, shift_ok = shift_isomorphism(L, r, Cocycle.zero(n, n), f)
            if not shift_ok:
                ok = False
            checked += 1
    ok &= checked == 50
    report(7, "coboundary cocycles + shift isomorphisms", ok, f"{checked}/50 maps")
    assert ok


def test_criterion_08_metric_iff_cyclic(algebras):
    rng = random.Random(20244)
    ok = True
    satisfied = violated = agreements = 0
    for name in ("N4", "A4"):
        L = algebras[name]
        n = L.dim
        while satisfied < 25 * (1 if name == "N4" else 2):
            th = cyclic_part(rand_theta(rng, n))
            if not theta_cyclic_ok(L, th):
                ok = False
            alg, q = t_star_extension(L, th)
            inv = verify_metric(alg, q).invariant_ok
            if inv == theta_cyclic_ok(L, th) == True:
                agreements += 1
            else:
                ok = False
            satisfied += 1
        while violated < 25 * (1 if name == "N4" else 2):
            th = rand_theta(rng, n)
            if theta_cyclic_ok(L, th):
                continue
            alg, q = t_star_extension(L, th)
            inv = verify_metric(alg, q).invariant_ok
            if inv is False:
                agreements += 1
            else:
                ok = False
            violated += 1
    ok &= satisfied == 50 and violated == 50 and agreements == 100
    report(8, "metric invariance iff cyclic pairing", ok,
           f"{agreements}/100 exact agreements")
    assert ok


def test_criterion_09_tstar_solvability(algebras):
    rng = random.Random(20245)
    ok = True
    cases = []
    for name in ("L3", "N4", "AB3"):
        L = algebras[name]
        n = L.dim
        for label, th in (("0", Cocycle.zero(n, n)), ("cyclic", cyclic_part(rand_theta(rng, n)))):
            rep = tstar_solvability_check(L, th)
            good = rep.solvable_implication_ok and rep.nilpotent_implication_ok and rep.solvable_bound_ok
            ok &= good
            cases.append(f"{name}/{label}:{'ok' if good else 'FAIL'}")
    report(9, "dual-space extension solvability", ok, ", ".join(cases))
    assert ok


def test_criterion_10_reconstruction_round_trip(algebras):
    rng = random.Random(20246)
    ok = True
    for name in ("L3", "N4", "AB3"):
        L = algebras[name]
        n = L.dim
        ideal = Subspace.span(2 * n, [Vec.basis(2 * n, n + i) for i in range(n)])
        for th in (Cocycle.zero(n, n), cyclic_part(rand_theta(rng, n))):
            G, q = t_star_extension(L, th)
            res = reconstruct_t_star(G, q, ideal)
            ok &= res.isometry_ok
            ok &= res.theta.table == th.table
            # re-run the isometry check on the returned data
            _, q2 = t_star_extension(res.quotient, res.theta)
            ok &= is_isometry(G, q, res.tstar, q2, res.sigma)
    report(10, "metric reconstruction round trip", ok)
    assert ok


def test_criterion_11_cli_round_trip_and_exit_codes(tmp_path, capsys, algebras):
    ok = True
    for name, L in algebras.items():
        raw = (resources.files("hom3lie.data") / f"{name}.json").read_text(encoding="utf-8")
        loaded = load_algebra(str(resources.files("hom3lie.data") / f"{name}.json"))
        ok &= loaded == L
        ok &= canonical_dumps(algebra_to_dict(loaded)) == raw

    good = str(resources.files("hom3lie.data") / "A4.json")
    ok &= main(["verify", good]) == 0

    d = algebra_to_dict(algebras["A4"])
    d["brackets"][0]["value"] = {"1": "1", "4": "1"}
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(d), encoding="utf-8")
    ok &= main(["verify", str(bad)]) == 1

    mal = tmp_path / "mal.json"
    mal.write_text("{", encoding="utf-8")
    ok &= main(["verify", str(mal)]) == 2
    capsys.readouterr()
    report(11, "cli round trip + exit codes", ok)
    assert ok
