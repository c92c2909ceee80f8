"""Mutation check: known faults that the test suite must catch.

Each entry of ``MUTANTS`` names a file under ``src/hom3lie``, a piece of
its text that occurs exactly once, a replacement that breaks the
library on purpose, and the tests that must then fail.  For each entry
and each of its tests, ``src/`` is copied to a temporary directory, the
replacement is made there, and that test runs alone against the copy;
the check fails unless pytest reports it failing, so a mutant must be
caught by each of its tests, not only by the set of them.  The tests
first run once against an unmutated copy and must pass there, so a
mutant cannot be caught by a test that fails anyway.

Needs only pytest and the standard library (the suite itself needs
hypothesis).  Usage, from anywhere:

    python3 tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # pytest processes at a time

SWEEPS = "tests/test_sparse_sweeps.py::"
ORBITS = SWEEPS + "test_orbits_partition_the_tuples_with_distinct_indices_in_each_block"
TRUNCATED = SWEEPS + "test_truncated_witnesses_match_the_dense_sweeps"
METRIC = SWEEPS + "test_metric_sweep_matches_the_dense_sweep"
KERNEL = "tests/test_elimination_kernel.py::test_rref_rank_and_nullspace_match_the_dense_oracle"
WIDE = "tests/test_elimination_kernel.py::test_wide_entries_match_the_dense_oracle"
SUBSPACE_BRACKET = "tests/test_algebras.py::test_subspace_bracket_matches_the_span_of_all_ordered_triples"
PAIRS = "tests/test_pairs.py::test_pairs_match_partial_and_evaluate_on_every_ordered_pair"
LEAF = "tests/test_pairs.py::test_partial_at_basis_vectors_is_the_stored_leaf"
NUMERATORS = "tests/test_pairs.py::test_get_partial_and_pairs_are_numerators_over_the_scale"
RECONSTRUCTION = "tests/test_pairs.py::test_reconstruction_matches_the_change_of_basis_construction"
THETA = "tests/test_pairs.py::test_reconstructed_theta_matches_direct_brackets"
IDEAL = "tests/test_algebras.py::test_is_ideal_and_quotient_match_the_brute_force_oracle"
VEC_MAT = "tests/test_sparse_linalg.py"
CYCLIC = "tests/test_extensions.py::test_theta_cyclic_ok_matches_the_pairwise_sweep"
CYCLIC_PART = "tests/test_extensions.py::test_cyclic_part_matches_the_dense_alternation"
FOUR_SETS = "tests/test_extensions.py::test_the_four_set_reader_matches_the_dense_oracles"
NO_TRIE = "tests/test_extensions.py::test_an_accepted_metric_check_builds_no_trie"
MORPHISM = "tests/test_pairs.py::test_a_morphism_between_algebras_of_coprime_denominators"
COPRIME_REP = SWEEPS + "test_representation_sweep_matches_the_dense_sweep_on_coprime_scales"
ZERO_ACTION = SWEEPS + "test_extension_by_the_zero_action_fails_hom_jacobi_where_the_base_does"
OTHER_M_REP = SWEEPS + "test_representation_sweep_matches_the_dense_sweep_on_another_module_dimension"
OTHER_M_SEMIDIRECT = SWEEPS + "test_semidirect_table_matches_the_literal_bracket_on_another_module_dimension"
OTHER_M_ACTION = SWEEPS + "test_action_matches_the_skew_extension_of_its_table_on_another_module_dimension"
SIDES = SWEEPS + "test_hom_jacobi_sides_yield_the_unrestricted_loop_in_order"
EXTENSION = SWEEPS + "test_extension_sweep_matches_the_full_sweep_and_the_dense_sweeps"
LITERAL_ACTIONS = SWEEPS + "test_adjoint_coadjoint_and_dual_blocks_match_the_literal_matrices"
LITERAL_COBOUNDARY = SWEEPS + "test_coboundary_matches_the_literal_formula"
CLI_BYTES = "tests/test_cli_bytes.py::test_cli_runs_match_the_byte_table"
INPUT_DIGESTS = "tests/test_cli_bytes.py::test_input_files_match_their_digests"
ZERO_MODULE = ("tests/test_representations.py::"
               "test_a_module_of_dimension_zero_is_a_representation_of_a_non_multiplicative_algebra")
DERIVATIONS = "tests/test_derivations.py"
LEIBNIZ = DERIVATIONS + "::test_leibniz_sides_match_the_dense_rule_on_coprime_scales"
PRESERVES = "tests/test_pairs.py::test_preserves_bracket_matches_direct_brackets"
WRITER = "tests/test_canonical_dumps.py::test_canonical_dumps_matches_json_dumps"
SPLICE = "tests/test_canonical_dumps.py::test_a_dumped_subvalue_splices_to_the_same_bytes"
CENTRALIZER = "tests/test_structure.py::test_centralizer_and_ascending_series_match_the_dense_oracle"
CONTRACT = "tests/test_cli_fuzz.py::test_a_raising_library_call_keeps_the_cli_contract"
REUSE = "tests/test_io_cli.py::test_cli_main_called_again_in_one_process_repeats_each_run"
COMPLEMENT = "tests/test_structure.py::test_isotropic_complement_matches_the_sequential_oracle"
COMPLEMENT_EXAMPLES = "tests/test_structure.py::test_isotropic_complement_examples"
IMAGES = "tests/test_pairs.py::test_bracket_images_yield_what_every_increasing_triple_yields"
CODEC = "tests/test_codec_oracle.py::"
SWEEP_ORACLE = SWEEPS + "test_sweep_keeps_what_merging_every_member_and_sorting_keeps"
SIGNED_MATVEC = "tests/test_sparse_linalg.py::test_add_matvec_adds_the_signed_dense_product_in_place"
MERGED = "tests/test_algebras.py::test_merged_ands_shared_flags_and_keeps_the_first_witnesses"
INFORMATIONAL = "tests/test_guards.py::test_twist_invariance_does_not_enter_ok"
ROWS_WRITER = "tests/test_canonical_dumps.py::test_rows_and_dicts_of_plain_strings_match_json_dumps"
CASCADE = "tests/test_elimination_kernel.py::test_cascades_match_the_dense_oracle"
CASCADE_SOLVE = "tests/test_elimination_kernel.py::test_cascade_solve_matches_the_dense_oracle"
UNIT_ROWS = "tests/test_elimination_kernel.py::test_every_chain_column_is_a_unit_row_of_the_rref"
CANDIDATES = DERIVATIONS + "::test_derivation_space_keeps_each_kind_of_candidate_triple"
INPUTS_KEPT = "tests/test_elimination_kernel.py::test_kernel_calls_leave_every_input_support_unchanged"
STORED = "tests/test_numerators.py::"
DIRECT_SUM = STORED + "test_a_direct_sum_holds_both_summands_over_the_lcm_of_their_scales"
QUOTIENT = STORED + "test_a_quotient_holds_the_projected_bracket_over_its_own_scale"
T_STAR = STORED + "test_the_adjoint_coadjoint_and_t_star_tables_hold_their_fraction_evaluations"
T_THETA = STORED + "test_a_theta_extension_holds_action_and_theta_over_the_lcm_of_the_scales"
COBOUNDARY = STORED + "test_a_coboundary_and_a_sum_of_cocycles_hold_their_fraction_evaluations"
CYCLIC_STORED = STORED + "test_the_cyclic_part_holds_the_alternation_by_sorted_keys"
RECONSTRUCTED = STORED + "test_a_reconstruction_holds_theta_and_the_double_as_their_fraction_evaluations"
WHOLE = STORED + "test_subspace_bracket_with_the_whole_space_last_matches_the_dense_evaluation"
NO_VIEW = STORED + "test_accepted_extend_and_reconstruct_runs_build_no_fraction_view"

# (name, file under src/hom3lie, old text, new text, tests that must fail)
MUTANTS: tuple[tuple[str, str, str, str, tuple[str, ...]], ...] = (
    ("orbit-sign", "algebras.py",
     "self.maps = [(m + tuple(len(m) + i for i in p), s * t)",
     "self.maps = [(m + tuple(len(m) + i for i in p), s)",
     (ORBITS, TRUNCATED)),
    ("orbit-size", "algebras.py",
     "self.total += len(self.maps)", "self.total += 1",
     (ORBITS, TRUNCATED)),
    ("repeated-index", "algebras.py",
     "itertools.combinations(range(n), k) for k in self.blocks",
     "itertools.combinations_with_replacement(range(n), k) for k in self.blocks",
     (ORBITS,)),
    ("witnesses-in-sweep-order", "algebras.py",
     "        if self.blocks:\n", "        if False:\n",
     (ORBITS, TRUNCATED)),
    ("cocycle-sweep-compares-the-algebra-coordinates", "representations.py",
     "if {k: a for k, a in lhs.items() if k >= n} != {k: a for k, a in rhs.items() if k >= n}:",
     "if lhs != rhs:",
     (ZERO_ACTION, SWEEPS + "test_cocycle_sweep_matches_the_dense_sweep")),
    ("cocycle-witness-in-the-hom-jacobi-slots", "representations.py",
     "lambda u, v, x, y, z: (x, y, z, u, v)", "lambda x, y, z, u, v: (x, y, z, u, v)",
     (EXTENSION, SWEEPS + "test_cocycle_sweep_matches_the_dense_sweep")),
    ("r1-admits-triples-without-a-module-index", "representations.py",
     "        if key[2] >= n:\n", "        if True:\n",
     (ZERO_ACTION, CLI_BYTES, ZERO_MODULE)),
    ("bracket-images-skip-the-last-index", "algebras.py",
     "range(j + 1, L.dim)", "range(j + 1, L.dim - 1)",
     (IMAGES, CLI_BYTES, PRESERVES, MORPHISM, EXTENSION)),
    ("bracket-images-action-candidates-dropped", "algebras.py",
     "if not m.keys().isdisjoint(cols[k]))})", "if False)})",
     (IMAGES, CLI_BYTES, PRESERVES, MORPHISM, EXTENSION)),
    ("bracket-images-candidates-unsorted", "algebras.py",
     "keys = sorted({", "keys = list({",
     (IMAGES, TRUNCATED, CLI_BYTES)),
    ("extension-hom-jacobi-from-the-algebra-block-only", "representations.py",
     "            jacobi.add(key, lhs, rhs)\n",
     "            if log is cocycle:\n                jacobi.add(key, lhs, rhs)\n",
     (EXTENSION, CLI_BYTES)),
    ("hom-jacobi-candidates-from-the-b-support-only", "algebras.py",
     "{*(live if x else ()), *(q for i in y for q in holding.get(i, ()))}",
     "{*(live if x else ())}",
     (SIDES, CLI_BYTES, DERIVATIONS)),
    ("hom-jacobi-candidates-from-the-keys-only", "algebras.py",
     "{*(live if x else ()), *(q for", "{*(q for",
     (SIDES, OTHER_M_REP, DERIVATIONS)),
    ("leibniz-candidates-from-the-keys-only", "algebras.py",
     "live if x else ()", "live if x and key else ()",
     (LEIBNIZ,)),
    ("bracket-images-yield-equal-triples", "algebras.py",
     "for key, lhs, rhs in images if lhs != rhs)", "for key, lhs, rhs in images)",
     (PRESERVES, TRUNCATED, EXTENSION)),
    ("r2-key-from-the-wrong-slots", "representations.py",
     "lambda u, _, x, y, z: (x, y, z, u)", "lambda x, _, u, y, z: (x, y, z, u)",
     (TRUNCATED, COPRIME_REP)),
    ("r3-before-r2", "representations.py",
     "v.indices, v.identity)", "v.identity, v.indices)",
     (TRUNCATED,)),
    ("representation-witnesses-cut-before-the-sort", "representations.py",
     "sorted((v for p in parts for v in p.violations),", "sorted(Report().merged(*parts).violations,",
     (TRUNCATED, COPRIME_REP)),
    ("kernel-no-back-substitution", "linalg.py",
     "            if p in prow:\n", "            if False:\n",
     (KERNEL,)),
    ("kernel-pivot-at-last-column", "linalg.py",
     "p = min(row)", "p = max(row)",
     (KERNEL,)),
    ("kernel-no-normalisation", "linalg.py",
     "Fraction(a, row[p])", "Fraction(a)",
     (KERNEL,)),
    ("kernel-lcm-multiplier-dropped", "linalg.py",
     "(m // pivots[p][p] * a, pivots[p])", "(a, pivots[p])",
     (KERNEL, WIDE)),
    ("kernel-back-substitution-multiplier-dropped", "linalg.py",
     "_combination(row[p] // g, prow,", "_combination(1, prow,",
     (KERNEL, WIDE)),
    ("kernel-row-cleared-without-dividing-the-scale", "linalg.py",
     "a.numerator * (d // a.denominator)", "a.numerator * d",
     (KERNEL, WIDE)),
    ("subspace-bracket-skips-a-pair", "algebras.py",
     "j + 1 if same23 else 0", "j + 2 if same23 else 0",
     ("tests/test_algebras.py::test_subspace_bracket_examples",)),
    ("bracket-images-filter-reads-the-right-side-only", "algebras.py",
     "{*left.num, *(", "{*(",
     (IMAGES, SWEEPS + "test_hom_jacobi_and_multiplicativity_match_the_dense_sweeps")),
    ("bracket-images-reuse-the-source-bracket-for-any-target", "algebras.py",
     "(G.alt, G.alt.scale)", "(L.alt, L.alt.scale)",
     (MORPHISM,)),
    ("partial-shares-the-leaf-at-any-coefficient", "sparse.py",
     "if len(level) == 1 and level[0][1] == 1:", "if len(level) == 1:",
     (LEAF, NUMERATORS)),
    ("pairs-keeps-empty-contractions", "sparse.py",
     "if (val := self.partial(images[a], images[b]))}", "if (val := self.partial(images[a], images[b])) or 1}",
     (PAIRS,)),
    ("leibniz-drops-the-split-sign", "algebras.py",
     "add_matvec(rhs, m, y[i], s)", "add_matvec(rhs, m, y[i])",
     (SIDES, LEIBNIZ, TRUNCATED)),
    ("leibniz-compares-unpruned-sides", "algebras.py",
     "if lhs != rhs and (lhs := pruned(lhs)) != (rhs := pruned(rhs)):", "if lhs != rhs:",
     (SIDES, LEIBNIZ)),
    ("add-matvec-ignores-the-sign", "linalg.py",
     "f = xc if sign > 0 else -xc", "f = xc",
     (SIGNED_MATVEC, SIDES, LEIBNIZ)),
    ("sweep-early-exit-before-the-witnesses-are-full", "algebras.py",
     "if len(self.kept) == MAX_WITNESSES and", "if self.kept and",
     (SWEEP_ORACLE, TRUNCATED)),
    ("derivation-drops-the-split-sign", "derivations.py",
     "row.get(r * n + col, 0) - sign * a", "row.get(r * n + col, 0) - a",
     (DERIVATIONS,)),
    ("metric-no-transpose", "extensions.py",
     "if p[0] < p[1]}", "if p[0] < p[1] and p[2] <= p[3]}",
     (TRUNCATED, METRIC, CYCLIC, FOUR_SETS)),
    ("metric-diagonal-skipped", "extensions.py",
     "c == d or om.get", "c != d and om.get",
     (TRUNCATED, METRIC, CYCLIC, FOUR_SETS)),
    ("four-sets-place-sign-dropped", "extensions.py",
     "[d] = x if r % 2 else -x", "[d] = x",
     (CYCLIC_PART, FOUR_SETS, CLI_BYTES)),
    ("metric-four-count-dropped", "extensions.py",
     "if len(om) < 4 or len({*om.values()}) > 1:", "if len({*om.values()}) > 1:",
     (METRIC, CYCLIC, FOUR_SETS)),
    ("metric-skips-own-index-keys", "extensions.py",
     "if len(om) < 4 or", "if len({*q}) == 4 and len(om) < 4 or",
     (TRUNCATED, METRIC, CYCLIC, FOUR_SETS)),
    ("cyclic-ok-four-count-dropped", "extensions.py",
     "all(len(om) == 4 and len({*om.values()}) == 1", "all(len({*om.values()}) == 1",
     (CYCLIC, CYCLIC_PART, FOUR_SETS)),
    ("cyclic-ok-any-for-all", "extensions.py",
     "return all(len(om) == 4", "return any(len(om) == 4",
     (CYCLIC, CYCLIC_PART, FOUR_SETS)),
    ("cyclic-ok-skips-repeated-indices", "extensions.py",
     "for om in _four_sets(th.alt.num).values())",
     "for q, om in _four_sets(th.alt.num).items() if len({*q}) == 4)",
     (CYCLIC, CYCLIC_PART, FOUR_SETS)),
    ("cyclic-part-reads-repeated-indices", "extensions.py",
     "if len({*w}) == 4 and (s := sum(omegas.values())):", "if s := sum(omegas.values()):",
     (CYCLIC_PART, FOUR_SETS)),
    ("metric-reads-the-trie", "extensions.py",
     "{k: matvec(gt, v) for k, v in", "{k: matvec(gt, alg.alt.get(*k)) for k, v in",
     (NO_TRIE,)),
    ("reconstruction-pairs-the-ideal", "structure.py",
     "pair = lifts @ form.gram", "pair = Mat.sparse(n2, ideal.basis) @ form.gram",
     (RECONSTRUCTION,)),
    ("pruned-keeps-zeros", "linalg.py",
     "return {t: a for t, a in acc.items() if a}", "return dict(acc)",
     (VEC_MAT,)),
    ("concat-shifted", "linalg.py",
     "shifted = {i + n: a for i, a in other.support.items()}",
     "shifted = {i + n + 1: a for i, a in other.support.items()}",
     (VEC_MAT,)),
    ("transpose-negated", "linalg.py",
     "cols[c][r] = a", "cols[c][r] = -a",
     (VEC_MAT,)),
    ("negative-index-read-from-support", "linalg.py",
     "if type(i) is int and 0 <= i < self.n:", "if type(i) is int and i < self.n:",
     (VEC_MAT,)),
    ("mat-equality-ignores-columns", "linalg.py",
     "return self.cols == other.cols and self.row_vecs == other.row_vecs",
     "return self.row_vecs == other.row_vecs",
     (VEC_MAT,)),
    ("cyclic-part-position-unsigned", "extensions.py",
     "[w[r]] = s if r % 2 else -s", "[w[r]] = s",
     (CYCLIC_PART,)),
    ("bracket-images-multiplier-d", "algebras.py",
     "{r: d * d * dg * x for", "{r: d * dg * x for",
     (MORPHISM,)),
    ("hom-jacobi-witness-scale-drops-a-d", "algebras.py",
     "(alt.scale * d) ** 2", "alt.scale ** 2 * d",
     (TRUNCATED,)),
    ("action-rows-without-module-offset", "representations.py",
     "{r - n: a for r, a in cols.get(n + c, {}).items()}", "{r: a for r, a in cols.get(n + c, {}).items()}",
     (OTHER_M_ACTION, CLI_BYTES)),
    ("action-matrix-not-divided-by-the-scale", "representations.py",
     "self.alt.scale)) for c in range(m)]", "1)) for c in range(m)]",
     (OTHER_M_ACTION, INPUT_DIGESTS)),
    ("action-columns-offset-by-the-module-dimension", "io.py",
     "(i, j, n + c): {n + t: x", "(i, j, m + c): {n + t: x",
     ("tests/test_io_cli.py::test_representation_files_on_another_module_dimension_round_trip", CLI_BYTES)),
    ("semidirect-without-the-action-block", "representations.py",
     "parts = (L.alt, 0, 0), (r.alt, 0, 0), *(", "parts = (L.alt, 0, 0), *(",
     (OTHER_M_SEMIDIRECT, "tests/test_representations.py::test_semidirect_components")),
    ("coadjoint-sign-dropped", "representations.py",
     "cols.setdefault((i, j, t), {})[c] = -x", "cols.setdefault((i, j, t), {})[c] = x",
     (LITERAL_ACTIONS, CLI_BYTES)),
    ("dual-without-the-transposed-index", "representations.py",
     "cols.setdefault((i, j, t), {})[c] = -x", "cols.setdefault((i, j, c), {})[t] = -x",
     (LITERAL_ACTIONS, CLI_BYTES)),
    ("shear-with-minus-f", "extensions.py",
     "f.row(i).concat(Vec.basis(m, i))", "(-f.row(i)).concat(Vec.basis(m, i))",
     (LITERAL_COBOUNDARY, "tests/test_extensions.py::test_coboundary_values")),
    ("extend-verifies-multiplicativity-only", "representations.py",
     "own = (_report(jacobi, \"hom_jacobi\", E.dim, jscale), "
     "_report(mult, \"multiplicative\", E.dim, scale))",
     "own = (_report(mult, \"multiplicative\", E.dim, scale),)",
     (EXTENSION, CLI_BYTES)),
    ("presolve-drops-a-fixed-unit-row", "linalg.py",
     "pivots.update((c, {c: 1}) for c in fixed)", "pivots.update((c, {c: 1}) for c in sorted(fixed)[:-1])",
     (KERNEL, CASCADE, CASCADE_SOLVE, UNIT_ROWS)),
    ("presolve-fixes-a-two-entry-row", "linalg.py",
     "[i for i, k in enumerate(live) if k == 1]", "[i for i, k in enumerate(live) if k <= 2]",
     (KERNEL, CASCADE, CASCADE_SOLVE)),
    ("presolve-stops-after-one-round", "linalg.py",
     "queue += [j for j in holding[c] if live[j] == 1]", "[j for j in holding[c] if live[j] == 1]",
     (CASCADE, CASCADE_SOLVE, UNIT_ROWS)),
    ("presolve-edits-the-callers-rows", "linalg.py",
     "row if k == len(row) else {c: a for c, a in row.items() if c not in fixed}",
     "row if k == len(row) else [row.pop(c) for c in fixed & row.keys()] and row",
     (INPUTS_KEPT,)),
    ("derivation-candidates-miss-the-first-split", "derivations.py",
     "if (j, kk) in tk or (i, kk) in tk", "if (i, kk) in tk",
     (CANDIDATES,)),
    ("derivation-candidates-miss-the-middle-split", "derivations.py",
     "(j, kk) in tk or (i, kk) in tk or", "(j, kk) in tk or",
     (CANDIDATES,)),
    ("derivation-candidates-miss-the-last-split", "derivations.py",
     " or (i, j) in tk or", " or",
     (CANDIDATES,)),
    ("derivation-candidates-miss-the-triples-with-b-only", "derivations.py",
     " or (i, j, kk) in L.alt.num:", ":",
     (CANDIDATES,)),
    ("kernel-int-check-reads-the-first-entry", "linalg.py",
     "if not all(type(a) is int for a in row.values()):",
     "if type(next(iter(row.values()))) is not int:",
     (WIDE,)),
    ("theta-divided-without-d-cubed", "structure.py",
     "e * D * d ** 3", "e * D",
     (THETA, RECONSTRUCTION)),
    ("theta-divided-without-e", "structure.py",
     "e * D * d ** 3", "D * d ** 3",
     (THETA, RECONSTRUCTION)),
    ("projection-pivot-column-sign", "linalg.py",
     "{pos[c]: -x for c, x in row.items() if c != p}", "{pos[c]: x for c, x in row.items() if c != p}",
     (IDEAL,)),
    ("complement-diagonal-without-its-half", "structure.py",
     "h / 2 if l == j else h", "h if l == j else h",
     (COMPLEMENT, COMPLEMENT_EXAMPLES)),
    ("complement-diagonal-dropped", "structure.py",
     "for l in range(j + 1):", "for l in range(j):",
     (COMPLEMENT, COMPLEMENT_EXAMPLES)),
    ("centralizer-drops-the-split-sign", "structure.py",
     "[a] = sign * c", "[a] = c",
     (CENTRALIZER, CLI_BYTES)),
    ("adjoint-drops-the-split-sign", "representations.py",
     "{n + t: s * x for", "{n + t: x for",
     (LITERAL_ACTIONS, CLI_BYTES)),
    ("splits-middle-unsigned", "sparse.py",
     "(v, (u, w), -1)", "(v, (u, w), 1)",
     (NUMERATORS, TRUNCATED, LITERAL_ACTIONS)),
    ("trie-swapped-pair-unsigned", "sparse.py",
     "neg if s > 0 else pos", "pos if s > 0 else neg",
     (PAIRS, NUMERATORS)),
    ("twist-stable-skips-the-twist", "algebras.py",
     "matvec(s.projection[1], matvec(acols, b))", "matvec(s.projection[1], b)",
     (IDEAL, "tests/test_algebras.py::test_subalgebra_and_ideal_examples")),
    ("metric-reads-gram-columns", "extensions.py",
     "cleared([row.support for row in gram.row_vecs])",
     "cleared([gram.col(c).support for c in range(n)])",
     (METRIC,)),
    ("derivation-commutation-rows-dropped", "derivations.py",
     "for p, q in itertools.product(range(n), repeat=2):", "for p, q in ():",
     (DERIVATIONS,)),
    ("derivation-left-side-without-d-squared", "derivations.py",
     "{out * n + t: d * d * b for", "{out * n + t: b for",
     (DERIVATIONS,)),
    ("derivation-action-only-coordinates-dropped", "derivations.py",
     "rows += outs.values()", "rows += outs.values() if bval else []",
     (DERIVATIONS,)),
    ("leibniz-left-side-without-c-squared", "derivations.py",
     "{r: c * c * x for r, x in col.items()}", "{r: x for r, x in col.items()}",
     (DERIVATIONS,)),
    ("extension-d-e-i-sign", "derivations.py",
     "(-1, k, i)", "(1, k, i)",
     (DERIVATIONS,)),
    ("extension-d-slot-twist-not-identity", "derivations.py",
     "block_diag(Mat.identity(1))", "block_diag(Mat.identity(1).scale(2))",
     (DERIVATIONS,)),
    ("derivation-extension-value-not-divided", "derivations.py",
     "self.base.bracket_basis(i, j, k).support", "self.base.alt.get(i, j, k)",
     (DERIVATIONS, CLI_BYTES)),
    ("extension-leibniz-failures-counted-once", "derivations.py",
     "nn * leibniz.total", "leibniz.total",
     (DERIVATIONS,)),
    ("splice-without-reindent", "io.py",
     'return value[:-1].replace("\\n", nl)', "return value[:-1]",
     (SPLICE, CLI_BYTES)),
    ("writer-unsorted-keys", "io.py",
     "for k in sorted(value))", "for k in value)",
     (WRITER, CLI_BYTES, INPUT_DIGESTS)),
    ("support-writer-off-by-one", "io.py",
     "        row[i] = format_rat(x)\n", "        row[i - 1] = format_rat(x)\n",
     (CODEC + "test_vec_to_dense_matches_the_dense_writer", CODEC + "test_mat_to_lists_matches_the_dense_writer",
      CLI_BYTES)),
    ("sparse-reader-accepts-a-leading-zero", "io.py",
     'key.isdigit() and key[0] != "0"):', "key.isdigit()):",
     (CODEC + "test_vec_from_sparse_matches_the_validating_reader",
      CODEC + "test_each_bad_key_after_good_ones_matches_the_validating_reader",
      "tests/test_io_cli.py::test_sparse_index_keys_must_be_canonical")),
    ("keyed-fast-path-one-past-n", "io.py",
     "and args[-1] <= n and", "and args[-1] <= n + 1 and",
     (CODEC + "test_keyed_entries_with_each_edit_of_good_args_match_the_validating_reader",)),
    ("leaf-row-without-escapes", "io.py",
     "map(_encode, value) if", "('\"' + s + '\"' for s in value) if",
     (ROWS_WRITER,)),
    ("refusal-caught-before-malformed-input", "cli.py",
     "    except (FileFormatError, DimensionMismatch, OSError) as exc:\n"
     "        print(f\"error: {exc}\", file=sys.stderr)\n"
     "        return 2\n"
     "    except ValueError as exc:  # a PreconditionError, or a library's other refusal\n"
     "        verdict.error = f\"{type(exc).__name__}: {exc}\"\n",
     "    except ValueError as exc:\n"
     "        verdict.error = f\"{type(exc).__name__}: {exc}\"\n"
     "    except (FileFormatError, DimensionMismatch, OSError) as exc:\n"
     "        print(f\"error: {exc}\", file=sys.stderr)\n"
     "        return 2\n",
     (CLI_BYTES, CONTRACT)),
    ("record-ignores-the-selected-checks", "cli.py",
     "for name, ok in flags.items() if name in checks}", "for name, ok in flags.items()}",
     (CLI_BYTES,)),
    ("record-writes-sides-for-a-witness-without-them", "cli.py",
     "{} if v.left is None else", "{\"left\": [], \"right\": []} if v.left is None else",
     (CLI_BYTES,)),
    ("merged-ors-the-flags", "algebras.py",
     "flags.get(name, True) and ok", "flags.get(name, False) or ok",
     (MERGED,)),
    ("ok-reads-twist-invariance", "algebras.py",
     " if name != \"twist_invariant\")", ")",
     (INFORMATIONAL,)),
    ("parse-into-a-shared-namespace", "cli.py",
     "def main(argv: Optional[list[str]] = None) -> int:\n"
     "    \"\"\"Run one command and print its verdict; the one place an outcome becomes an exit code.\"\"\"\n"
     "    args = build_parser().parse_args(argv)\n",
     "_SHARED = argparse.Namespace()\n\n\n"
     "def main(argv: Optional[list[str]] = None) -> int:\n"
     "    args = build_parser().parse_args(argv, namespace=_SHARED)\n",
     (REUSE, CLI_BYTES)),
    ("complement-rank-against-the-subspace-dimension", "structure.py",
     "rank(gram) != n", "rank(gram) != k",
     ("tests/test_structure.py::test_isotropic_complement_rejects_a_degenerate_form_of_the_subspace_rank",)),
    ("hyperbolic-form-without-the-wrap", "extensions.py",
     "Vec.basis(2 * n, (i + n) % (2 * n))", "Vec.basis(2 * n, i + n)",
     ("tests/test_extensions.py::test_hyperbolic_form_evaluates_like_the_pairing", COMPLEMENT_EXAMPLES,
      CLI_BYTES)),
    ("scale-not-reduced", "sparse.py",
     "g = math.gcd(scale, *itertools.chain(*map(dict.values, num.values()))) if scale > 1 else 1", "g = 1",
     (QUOTIENT, COBOUNDARY, CYCLIC_STORED, RECONSTRUCTED)),
    ("view-numerators-not-divided", "sparse.py",
     "rational(value, self.scale)) for key, value in", "rational(value, 1)) for key, value in",
     (DIRECT_SUM, QUOTIENT, T_STAR, CYCLIC_STORED)),
    ("direct-sum-keeps-the-first-summands-scale", "sparse.py",
     "scale, num = math.lcm(*(alt.scale for alt, _, _ in parts)), {}", "scale, num = parts[0][0].scale, {}",
     (DIRECT_SUM, T_THETA)),
    ("theta-added-without-rescaling", "sparse.py",
     "scale // alt.scale,", "scale // alt.scale if not t else 1,",
     (T_STAR, T_THETA, RECONSTRUCTED)),
    ("bracket-images-keys-from-the-view", "algebras.py",
     "{*left.num, *(", "{*left.values, *(",
     (NO_VIEW,)),
    ("whole-space-shortcut-on-a-proper-slot", "algebras.py",
     "s3.dim == L.dim", "s3.dim <= L.dim",
     (WHOLE, SUBSPACE_BRACKET)),
    ("whole-space-shortcut-reads-one-column", "algebras.py",
     "cols = ab.values() if whole", "cols = list(ab.values())[:1] if whole",
     (WHOLE, SUBSPACE_BRACKET)),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for ``tests`` run against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile", "mutants", "--hypothesis-seed", "0", "--rootdir", str(ROOT),
           *(str(ROOT / t) for t in tests)]
    return subprocess.run(cmd, cwd=src.parent, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def check(tmp: Path, file: str, old: str, new: str, tests: tuple[str, ...]) -> str:
    """Run ``tests`` on a copy of ``src/`` in ``tmp`` with the mutant in place;
    '' if it is caught.  The unmutated entry (no file) must instead pass.
    """
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if file:
        path = src / "hom3lie" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"the old text occurs {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
    code = run_tests(src, tests)
    if code != (1 if file else 0):
        return f"pytest exit {code}"
    return ""


def main() -> int:
    unmutated = ("unmutated", "", "", "", tuple(sorted({t for m in MUTANTS for t in m[4]})))
    entries = [unmutated, *((f"{name}  {test}", file, old, new, (test,))
                            for name, file, old, new, tests in MUTANTS for test in tests)]
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(lambda i: check(Path(tmp) / str(i), *entries[i][1:]), range(len(entries))))
    for (name, *_), problem in zip(entries, results):
        verdict = "passes" if name == "unmutated" else "caught"
        print(f"{'FAILED  ' + problem if problem else verdict}  {name}")
    missed = sum(bool(problem) for problem in results)
    print(f"{len(results) - missed} of {len(results)} checks hold")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
