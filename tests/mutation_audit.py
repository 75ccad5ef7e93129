"""Check that each named mutant of the package fails the tests written to catch it.

    python tests/mutation_audit.py [NAME ...]

A mutant is one exact text replacement in one file under ``src/``: ``old``
must occur in that file exactly once, and ``tests/test_mutation_table.py``
checks this in tier-1, so the table cannot rot silently. For each mutant (all
of them, or the NAMEs given) the script copies the tree (``src``, ``tests``,
``perfbench`` and ``pyproject.toml``) into a temporary directory, applies the
replacement there, and runs each of the mutant's test ids on its own with
``python -m pytest``. A mutant is killed when every one of its tests fails;
a test that passes on the mutant is a survivor. Before any mutant, each test
is run once on an unmutated copy, and a test that does not pass there is
reported as broken instead of judged. The script prints one line per test
run and exits 1 if there is a survivor or a broken test. It changes nothing
in the tree it reads. Its name does not start with ``test_``, so pytest does
not collect it.

A later change that fixes a fault adds a row here, with the test that fails
on the fault, instead of describing the check in prose.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids that must fail on the mutant


MUTANTS = (
    Mutant(
        "ties_overwritten",
        "src/qviterbi/trellis.py",
        "kept.setdefault(froms[x], []).extend(head | s for s in tails)",
        "kept[froms[x]] = [head | s for s in tails]",
        ("tests/test_trellis.py::TestViterbiDecode::test_321_keeps_both_ties",),
    ),
    Mutant(
        "backtrack_without_metric_check",
        "src/qviterbi/trellis.py",
        "if paths[x] == target:",
        "if True:",
        ("tests/test_trellis.py::TestViterbiDecode::test_633_single_error",),
    ),
    Mutant(
        "phases_reused_by_beta_alone",
        "src/qviterbi/problem.py",
        "                if (beta, gamma) != last:\n",
        "                if last is None or beta != last[0]:\n",
        ("tests/test_problem.py::test_shared_phases_equal_per_layer_recomputation[betas2-gammas2]",),
    ),
    Mutant(
        "hits_from_one_ml_word",
        "src/qviterbi/engine.py",
        "hits = int(counts[problem.distances == f_min].sum())",
        "hits = int(counts[int(np.argmin(problem.distances))])",
        ("tests/test_engine.py::test_solution_hits_count_every_ml_codeword[train_upo]",),
    ),
    Mutant(
        "d_counts_the_zero_word",
        "src/qviterbi/codes.py",
        "return min((w.bit_count() for w in self.codewords if w), default=0)",
        "return min((w.bit_count() for w in self.codewords), default=0)",
        ("tests/test_codes.py::TestCodeFromGenerator::test_633_codespace",),
    ),
    Mutant(
        "bit_strings_not_stripped",
        "src/qviterbi/codes.py",
        'if not isinstance(s, str) or not s or s.strip("01"):',
        "if not isinstance(s, str) or not s:",
        ("tests/test_codes.py::TestJsonInterface::test_codewords_json_rejects[underscore]",),
    ),
    Mutant(
        "d_computed_at_load",
        "src/qviterbi/codes.py",
        "def _finish_code(generator: Gf2Matrix, pivots, branch_bits, name) -> Code:\n",
        "def _finish_code(generator: Gf2Matrix, pivots, branch_bits, name) -> Code:\n"
        "    code = _finish_code_lazily(generator, pivots, branch_bits, name)\n"
        "    code.d\n"
        "    return code\n"
        "\n\n"
        "def _finish_code_lazily(generator: Gf2Matrix, pivots, branch_bits, name) -> Code:\n",
        ("tests/test_trellis.py::TestGolay24::test_oracle_never_lists_the_codewords",),
    ),
    Mutant(
        "numpy_imported_by_codes",
        "src/qviterbi/codes.py",
        "from .errors import LengthError, NotLinearError, RankError\n",
        "from .errors import LengthError, NotLinearError, RankError\nimport numpy  # noqa: F401\n",
        ("tests/test_imports.py::test_cold_start_loads_no_numpy_until_a_decode",),
    ),
    Mutant(
        "engine_imported_by_cli",
        "src/qviterbi/cli.py",
        "from .trellis import build_trellis, viterbi_decode\n",
        "from .trellis import build_trellis, viterbi_decode\nfrom . import engine  # noqa: F401\n",
        ("tests/test_imports.py::test_cold_start_loads_no_numpy_until_a_decode",),
    ),
    Mutant(
        "parity_check_misses_last_row",
        "src/qviterbi/codes.py",
        "for p, g in zip(pivots, generator.words) if",
        "for p, g in zip(pivots[:-1], generator.words) if",
        ("tests/test_codes.py::TestCodeFromGenerator::test_633_parity_check",),
    ),
    Mutant(
        "trellis_drops_one_branch",
        "src/qviterbi/trellis.py",
        "    return Trellis(code, tuple(sections))\n",
        "    froms, labels, j = sections[-1]\n"
        "    sections[-1] = (froms[:-1], labels[:-1], j)\n"
        "    return Trellis(code, tuple(sections))\n",
        ("tests/test_trellis.py::TestBuildTrellis::test_path_count_is_codespace_size[lbc_633]",),
    ),
    Mutant(
        "trellis_basis_not_reduced",
        "src/qviterbi/trellis.py",
        "                x = min(x, x ^ y)\n",
        "                pass\n",
        ("tests/test_trellis.py::TestBuildTrellis::test_branch_sets_are_the_codeword_triples[lbc_633]",
         "tests/test_trellis.py::TestBuildTrellis::test_k_cap_build_work_is_bounded_by_the_branch_count"),
    ),
    Mutant(
        "trellis_label_shifted_by_one_bit",
        "src/qviterbi/trellis.py",
        "span([x & mask for x in basis])",
        "span([(x >> 1) & mask for x in basis])",
        ("tests/test_trellis.py::TestBuildTrellis::test_branch_sets_are_the_codeword_triples[conv_r12_m2]",),
    ),
    Mutant(
        "trellis_merges_placed_first",
        "src/qviterbi/trellis.py",
        "basis = splits + merges",
        "basis = merges + splits",
        ("tests/test_trellis.py::TestBuildTrellis::test_each_end_states_predecessors_are_its_aligned_block[lbc_633]",
         "tests/test_trellis.py::TestViterbiDecode::test_633_single_error"),
    ),
    Mutant(
        "viterbi_skips_one_min_round",
        "src/qviterbi/trellis.py",
        "for _ in range(j):",
        "for _ in range(j - (j > 1)):",
        ("tests/test_trellis.py::TestViterbiDecode::test_633_every_section_width[3]",
         "tests/test_trellis.py::TestViterbiDecode::test_633_every_section_width[6]"),
    ),
    Mutant(
        "backtrack_block_off_by_one",
        "src/qviterbi/trellis.py",
        "for x in range(i << j, (i + 1) << j):",
        "for x in range((i << j) + 1, ((i + 1) << j) + 1):",
        ("tests/test_trellis.py::TestViterbiDecode::test_321_keeps_both_ties",
         "tests/test_trellis.py::TestGolay24::test_matches_brute_force[111100000000000000000000]"),
    ),
    Mutant(
        "brute_force_minimum_off_by_one",
        "src/qviterbi/trellis.py",
        "best_metric = min(metrics)",
        "best_metric = min(metrics) + 1",
        ("tests/test_trellis.py::TestBruteForce::test_633_single_error",),
    ),
    Mutant(
        "real_product_drops_imaginary_part",
        "src/qviterbi/problem.py",
        "return w.dot(values.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()",
        "return (w.dot(values.view(np.float64).reshape(-1, 2)) * [1.0, 0.0]).view(np.complex128).ravel()",
        ("tests/test_problem.py::test_dense_transform_equals_butterfly[7]",),
    ),
    Mutant(
        "dense_inverse_without_its_scale",
        "src/qviterbi/problem.py",
        "_matrix_product(walsh_matrix(k) / size, k)",
        "_matrix_product(walsh_matrix(k), k)",
        ("tests/test_problem.py::test_inverse_that_carries_the_scale_equals_the_divided_mixer_phase[complex_product]",
         "tests/test_problem.py::test_inverse_that_carries_the_scale_equals_the_divided_mixer_phase[real_product]"),
    ),
    Mutant(
        "butterfly_inverse_without_its_scale",
        "src/qviterbi/problem.py",
        "lambda values: _butterfly(values * scale)",
        "lambda values: _butterfly(values.copy())",
        ("tests/test_problem.py::test_inverse_that_carries_the_scale_equals_the_divided_mixer_phase[butterfly]",),
    ),
    Mutant(
        "butterfly_transforms_its_input_in_place",
        "src/qviterbi/problem.py",
        "return fwht, lambda values:",
        "return _butterfly, lambda values:",
        ("tests/test_problem.py::test_bindings_leave_both_starts_unchanged[butterfly]",),
    ),
    Mutant(
        "beta_written_into_the_cost_row",
        "src/qviterbi/problem.py",
        "angles[1, 0] = gamma",
        "angles[1, 0] = beta",
        ("tests/test_problem.py::test_shared_phases_equal_per_layer_recomputation[betas1-gammas1]",
         "tests/test_problem.py::test_inverse_that_carries_the_scale_equals_the_divided_mixer_phase[complex_product]"),
    ),
    Mutant(
        "probability_buffer_shared_by_all_bindings",
        "src/qviterbi/problem.py",
        "probs = np.empty(start.size)",
        'probs = globals().setdefault("_probability_buffers", {}).setdefault(start.size, np.empty(start.size))',
        ("tests/test_problem.py::test_returned_arrays_are_not_overwritten_by_later_evaluations",),
    ),
    Mutant(
        "shots_without_rng_accepted",
        "src/qviterbi/problem.py",
        "if (shots is None) != (rng is None):",
        "if shots is None and rng is not None:",
        ("tests/test_problem.py::test_cost_takes_shots_and_rng_together",),
    ),
    Mutant(
        "nelder_mead_stable_sort",
        "src/qviterbi/nelder_mead.py",
        "order = np.array(fsim).argsort().tolist()",
        'order = np.array(fsim).argsort(kind="stable").tolist()',
        ("tests/test_nelder_mead.py::test_matches_scipy_on_exact_ties[staircase-x04]",),
    ),
    Mutant(
        "every_round_seeded_as_stage_0",
        "src/qviterbi/engine.py",
        "child_seed(seed, _ROLE_INIT, stage, j)",
        "child_seed(seed, _ROLE_INIT, 0, j)",
        ("tests/test_engine.py::test_every_draw_starts_from_its_own_seed[train_fpo-exact]",),
    ),
    Mutant(
        "codespace_amplitude_in_closed_form",
        "src/qviterbi/statevector.py",
        "math.prod([_SQRT2_INV] * code.k)",
        "2 ** (-code.k / 2)",
        ("tests/test_statevector.py::TestStatePreparation::test_prepared_state_is_the_gate_built_state_byte_for_byte[lbc_321]",),
    ),
    Mutant(
        "codespace_amplitude_as_a_power",
        "src/qviterbi/statevector.py",
        "math.prod([_SQRT2_INV] * code.k)",
        "_SQRT2_INV ** code.k",
        ("tests/test_statevector.py::TestStatePreparation::test_prepared_state_is_the_gate_built_state_byte_for_byte[hamming_15_11]",),
    ),
    Mutant(
        "mixer_rotation_in_one_expression",
        "src/qviterbi/statevector.py",
        "        amps[first] = c * a - 1j * s * b\n        amps[second] = -1j * s * a + c * b\n",
        "        amps[...] = c * amps - 1j * s * amps[index ^ mask]\n",
        ("tests/test_statevector.py::TestMixerUnitary::test_rotation_keeps_the_signs_of_zeros[lbc_633]",),
    ),
)


def copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for entry in COPIED:
        source = os.path.join(ROOT, entry)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(dest, entry), ignore=ignore)
        else:
            shutil.copy2(source, dest)


def apply(mutant: Mutant, tree: str) -> None:
    path = os.path.join(tree, mutant.path)
    with open(path) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"mutation_audit: {mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}, not once")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run_test(tree: str, test: str) -> int:
    """The pytest exit code of one test id run in ``tree``: 0 passed, 1 failed, else an error."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                          cwd=tree, env=env, capture_output=True, timeout=600).returncode


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not argv or m.name in argv]
    tests = sorted({t for m in mutants for t in m.tests})

    with tempfile.TemporaryDirectory(prefix="mutation_audit_") as tmp:
        clean = os.path.join(tmp, "clean")
        copy_tree(clean)
        broken = {t for t in tests if run_test(clean, t) != 0}
        for t in sorted(broken):
            print(f"BROKEN   {t} (does not pass on the unmutated tree)")

        survivors = []
        for i, mutant in enumerate(mutants):
            tree = os.path.join(tmp, f"mutant{i}")
            copy_tree(tree)
            apply(mutant, tree)
            for t in mutant.tests:
                if t in broken:
                    continue
                rc = run_test(tree, t)
                verdict = {0: "SURVIVED", 1: "killed"}.get(rc, f"ERROR rc={rc}")
                print(f"{verdict:8} {mutant.name}: {t}")
                if rc != 1:
                    survivors.append((mutant.name, t))
            shutil.rmtree(tree)

    print(f"{len(mutants)} mutants, {len(survivors)} survivors, {len(broken)} broken tests")
    for name, t in survivors:
        print(f"  survivor: {name} ({t})")
    return 1 if survivors or broken else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
