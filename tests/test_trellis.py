import ast
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qviterbi.trellis
from qviterbi import (
    BitVector,
    Gf2Matrix,
    LengthError,
    Trellis,
    build_trellis,
    code_from_codewords,
    code_from_generator,
    ml_brute_force,
    viterbi_decode,
)
from qviterbi.codes import span
from cold_start import seeded_systematic_28_20
from conftest import BUILTIN_NAMES, bit_array, generators, span_words

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def bv(s):
    return BitVector.from_string(s)


def syndrome_columns(code):
    """H's column at each bit of a word (string order) as a syndrome, the first check row most significant."""
    h = bit_array(code.parity_check).astype(np.int64)
    return (h.T @ (1 << np.arange(h.shape[0] - 1, -1, -1, dtype=np.int64))).tolist()


def branch_layers(trellis):
    """Each section's branches as (from_state, label, to_state) int triples, in
    index order, states being partial syndromes. A branch starts at the state
    in its ``froms`` position of the previous cut. It ends at its start state
    plus H's columns at the section's bits times its label, and the state at
    position i of the next cut is the end of the first branch of block i."""
    b = trellis.branch_bits
    columns = syndrome_columns(trellis.code)
    states = [0]
    layers = []
    for t, (froms, labels, j) in enumerate(trellis.sections):
        steps = [columns[t * b + p] for p in range(b)]
        layer = []
        for f, label in zip(froms, labels):
            to = states[f]
            for p, column in enumerate(steps):
                if (label >> (b - 1 - p)) & 1:
                    to ^= column
            layer.append((states[f], label, to))
        layers.append(layer)
        states = [to for _, _, to in layer[::1 << j]]
    return layers


def node_layers(trellis):
    """The states at each of the len(sections) + 1 cuts, read off the branch endpoints."""
    layers = branch_layers(trellis)
    first = {frm for frm, _, _ in layers[0]}
    return [tuple(sorted(first))] + [tuple(sorted({to for _, _, to in branches})) for branches in layers]


def path_count(trellis):
    """Number of root-to-sink paths, by forward dynamic programming."""
    counts = {0: 1}
    for branches in branch_layers(trellis):
        nxt = {}
        for frm, _, to in branches:
            if frm in counts:
                nxt[to] = nxt.get(to, 0) + counts[frm]
        counts = nxt
    return counts.get(0, 0)


def codeword_triples(code):
    """Each section's set of triples (H prefix_t, section bits, H prefix_t+1)
    over the codewords, where prefix_t is a codeword with its bits from cut t
    on set to zero; computed with numpy from the codeword list and H."""
    b = code.branch_bits
    words = np.array([[int(x) for x in str(c)] for c in code.codespace], dtype=np.int64)
    h = bit_array(code.parity_check).astype(np.int64)
    leading = 1 << np.arange(h.shape[0] - 1, -1, -1, dtype=np.int64)
    states = []
    for t in range(code.n // b + 1):
        prefix = words.copy()
        prefix[:, t * b:] = 0
        states.append((prefix @ h.T % 2 @ leading).tolist())
    weights = 1 << np.arange(b - 1, -1, -1, dtype=np.int64)
    return [set(zip(states[t], (words[:, t * b:(t + 1) * b] @ weights).tolist(), states[t + 1]))
            for t in range(code.n // b)]


def assert_branch_sets_are_the_codeword_triples(code, trellis):
    """Each section holds every branch once, and its branches are the codewords' triples."""
    assert len(trellis.sections) == code.n // code.branch_bits
    for layer, triples in zip(branch_layers(trellis), codeword_triples(code)):
        assert len(set(layer)) == len(layer)
        assert set(layer) == triples


def assert_blocks_are_the_predecessors(code, trellis):
    """Each aligned block of 2^j branches is exactly the set of codeword
    triples into one end state, and each end state has one block."""
    for (froms, _, j), layer, triples in zip(trellis.sections, branch_layers(trellis), codeword_triples(code)):
        ends = {to for _, _, to in triples}
        assert len(froms) >> j == len(ends)
        blocks = [layer[i << j:(i + 1) << j] for i in range(len(froms) >> j)]
        assert {block[0][2] for block in blocks} == ends
        for block in blocks:
            to = block[0][2]
            assert set(block) == {triple for triple in triples if triple[2] == to}


class TestBuildTrellis:
    def test_633_has_eight_paths(self, lbc_633):
        trellis = build_trellis(lbc_633)
        assert path_count(trellis) == 8
        assert len(node_layers(trellis)) == 7

    def test_zero_code_single_path(self):
        code = code_from_codewords([BitVector(4, 0)])
        trellis = build_trellis(code)
        assert path_count(trellis) == 1
        result = viterbi_decode(trellis, bv("1111"))
        assert result.best_metric == 4
        assert [str(c) for c in result.best_codewords] == ["0000"]

    def test_convolutional_shape(self, conv_code):
        trellis = build_trellis(conv_code)
        assert path_count(trellis) == 8
        assert len(trellis.sections) == 5
        assert trellis.branch_bits == 2

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_null_state_at_both_ends(self, name, all_builtins):
        layers = node_layers(build_trellis(all_builtins[name]))
        assert layers[0] == (0,)
        assert layers[-1] == (0,)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_path_count_is_codespace_size(self, name, all_builtins):
        code = all_builtins[name]
        assert path_count(build_trellis(code)) == 1 << code.k

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_branch_sets_are_the_codeword_triples(self, name, all_builtins):
        code = all_builtins[name]
        assert_branch_sets_are_the_codeword_triples(code, build_trellis(code))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_each_end_states_predecessors_are_its_aligned_block(self, name, all_builtins):
        code = all_builtins[name]
        assert_blocks_are_the_predecessors(code, build_trellis(code))

    def test_k_cap_build_work_is_bounded_by_the_branch_count(self, monkeypatch):
        # A seeded [28, 20] code: 2^20 messages, 7164 branches. The build
        # lists each branch once per field and no message; a build that would
        # list more fails before it makes the list.
        code = code_from_generator(Gf2Matrix.from_rows(seeded_systematic_28_20()))
        branches = 7164
        listed = []

        def counting_span(values):
            listed.append(1 << len(values))
            assert sum(listed) <= 3 * branches
            return span(values)

        monkeypatch.setattr(qviterbi.trellis, "span", counting_span)
        trellis = build_trellis(code)
        monkeypatch.undo()
        assert sum(len(froms) for froms, _, _ in trellis.sections) == branches
        assert sum(listed) <= 3 * branches
        assert "codewords" not in vars(code)
        rng = random.Random(20)
        for _ in range(3):
            r = BitVector(code.n, rng.getrandbits(code.n))
            assert viterbi_decode(trellis, r) == ml_brute_force(code, r)


# Builds the two-codeword code with n = argv[1] and branch_bits = argv[2] and
# decodes argv[3], under a 1 GB address-space limit; prints the sections and
# the result as a Python literal.
WIDE_SECTIONS = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qviterbi import BitVector, build_trellis, code_from_codewords, viterbi_decode
n, b = int(sys.argv[1]), int(sys.argv[2])
code = code_from_codewords([BitVector(n, 0), BitVector(n, (1 << n) - 1)], branch_bits=b)
trellis = build_trellis(code)
result = viterbi_decode(trellis, BitVector.from_string(sys.argv[3]))
print(repr((trellis.sections, result.best_metric, [str(c) for c in result.best_codewords])))
"""


class TestViterbiDecode:
    def test_633_single_error(self, lbc_633):
        result = viterbi_decode(build_trellis(lbc_633), bv("111011"))
        assert result.best_metric == 1
        assert [str(c) for c in result.best_codewords] == ["011011"]

    def test_codeword_decodes_to_itself(self, lbc_633):
        trellis = build_trellis(lbc_633)
        for c in lbc_633.codespace:
            result = viterbi_decode(trellis, c)
            assert result.best_metric == 0
            assert result.best_codewords == (c,)

    def test_321_keeps_both_ties(self, lbc_321):
        result = viterbi_decode(build_trellis(lbc_321), bv("011"))
        assert result.best_metric == 1
        assert [str(c) for c in result.best_codewords] == ["010", "111"]

    def test_length_mismatch(self, lbc_633):
        with pytest.raises(LengthError):
            viterbi_decode(build_trellis(lbc_633), bv("111"))

    def test_backtrack_deeper_than_the_recursion_limit(self):
        # 1200 sections, more than Python's default recursion limit of 1000.
        n = 1200
        trellis = build_trellis(code_from_generator(Gf2Matrix.from_rows([[1] * n])))
        result = viterbi_decode(trellis, bv("1" * n))
        assert result.best_metric == 0
        assert result.best_codewords == (bv("1" * n),)
        result = viterbi_decode(trellis, bv("1" * (n // 2) + "0" * (n // 2)))
        assert result.best_metric == n // 2
        assert result.best_codewords == (BitVector(n, 0), bv("1" * n))

    @pytest.mark.parametrize("branch_bits", [20, 40])
    def test_wide_sections_on_few_codewords(self, branch_bits):
        # Two codewords in 2^20- or 2^40-label sections: the build and the
        # decode work over the labels that occur, not over every label. Both
        # run in a child process with 1 GB of address space, so a table over
        # every label fails here with MemoryError, not by exhausting memory.
        n = 40
        received = "1" * 25 + "0" * 15
        child = subprocess.run([sys.executable, "-c", WIDE_SECTIONS, str(n), str(branch_bits), received],
                               env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        sections, best_metric, best_codewords = ast.literal_eval(child.stdout)
        code = code_from_codewords([BitVector(n, 0), bv("1" * n)], branch_bits=branch_bits)
        assert path_count(Trellis(code, branch_bits, sections)) == 2
        result = ml_brute_force(code, bv(received))
        assert (best_metric, best_codewords) == (result.best_metric, [str(c) for c in result.best_codewords])
        assert best_metric == 15
        assert best_codewords == ["1" * n]

    @pytest.mark.parametrize("branch_bits", [1, 2, 3, 6])
    def test_633_every_section_width(self, lbc_633, branch_bits):
        # Widths 3 and 6 leave sections with fewer branches than labels.
        code = code_from_codewords(list(lbc_633.codespace), branch_bits=branch_bits)
        trellis = build_trellis(code)
        assert path_count(trellis) == 8
        assert_blocks_are_the_predecessors(code, trellis)
        if branch_bits >= 3:
            # A section merges at least four branches into one state, so the
            # forward pass takes two or more rounds of pairwise minima.
            assert max(j for _, _, j in trellis.sections) >= 2
        for v in range(1 << code.n):
            r = BitVector(code.n, v)
            assert viterbi_decode(trellis, r) == ml_brute_force(code, r)


def golay24_code():
    # Cyclic Golay [23,12,7] from g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11, plus a parity bit.
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = [[0] * i + g + [0] * (11 - i) for i in range(12)]
    return code_from_generator(Gf2Matrix.from_rows([r + [sum(r) % 2] for r in rows]))


class TestGolay24:
    """The extended Golay [24,12,8] code: thousands of trellis states and six-way ties."""

    @pytest.fixture(scope="class")
    def golay24(self):
        code = golay24_code()
        assert (code.n, code.k, code.d) == (24, 12, 8)
        return code, build_trellis(code)

    def test_oracle_never_lists_the_codewords(self):
        # The trellis is built from G and H alone, so neither lazy field is
        # computed by a build and a decode.
        code = golay24_code()
        result = viterbi_decode(build_trellis(code), bv("1111" + "0" * 20))
        assert result.best_metric == 4
        assert "codewords" not in vars(code) and "d" not in vars(code)
        assert code.d == 8
        assert len(vars(code)["codewords"]) == 1 << 12

    def test_branch_sets_are_the_codeword_triples(self, golay24):
        code, trellis = golay24
        assert_branch_sets_are_the_codeword_triples(code, trellis)

    def test_each_end_states_predecessors_are_its_aligned_block(self, golay24):
        code, trellis = golay24
        assert_blocks_are_the_predecessors(code, trellis)

    def test_trellis_has_thousands_of_states(self, golay24):
        code, trellis = golay24
        assert path_count(trellis) == 1 << code.k
        assert max(map(len, node_layers(trellis))) == 4096

    @pytest.mark.parametrize("received", ["0" * 24, "1" * 24, "1111" + "0" * 20, "11" + "0" * 20 + "11",
                                          "1" + "0" * 10 + "11" + "0" * 10 + "1"])
    def test_matches_brute_force(self, golay24, received):
        code, trellis = golay24
        r = bv(received)
        result = viterbi_decode(trellis, r)
        assert result == ml_brute_force(code, r)
        weight = received.count("1")
        if weight == 4:
            # Four positions lie in exactly five octads: the zero word and five
            # weight-8 codewords tie at metric 4.
            assert result.best_metric == 4
            assert len(result.best_codewords) == 6
        else:
            assert result.best_metric == 0
            assert result.best_codewords == (r,)


class TestBruteForce:
    def test_633_single_error(self, lbc_633):
        result = ml_brute_force(lbc_633, bv("111011"))
        assert result.best_metric == 1
        assert [str(c) for c in result.best_codewords] == ["011011"]

    def test_zero_vector(self, lbc_633):
        result = ml_brute_force(lbc_633, bv("000000"))
        assert result.best_metric == 0
        assert [str(c) for c in result.best_codewords] == ["000000"]

    def test_length_mismatch(self, lbc_633):
        with pytest.raises(LengthError):
            ml_brute_force(lbc_633, bv("0"))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_oracle_agreement_exhaustive(name, all_builtins):
    code = all_builtins[name]
    trellis = build_trellis(code)
    for v in range(1 << code.n):
        r = BitVector(code.n, v)
        via_trellis = viterbi_decode(trellis, r)
        via_scan = ml_brute_force(code, r)
        assert via_trellis.best_metric == via_scan.best_metric
        assert via_trellis.best_codewords == via_scan.best_codewords


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_metric_bounded_by_received_weight(name, all_builtins):
    code = all_builtins[name]
    trellis = build_trellis(code)
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = BitVector.from_string("".join(map(str, rng.integers(0, 2, code.n).tolist())))
        assert viterbi_decode(trellis, r).best_metric <= str(r).count("1")


@st.composite
def random_codes(draw):
    """A generated code, built from its generator or from its codeword list
    with sections of any width that divides n, n included, plus received
    words to decode."""
    rows = draw(generators(max_n=8))
    n = len(rows[0])
    if draw(st.booleans()):
        code = code_from_generator(Gf2Matrix.from_rows(rows))
    else:
        # Widths that cut the word first, widest first, then n and 1: in this
        # order the 150 derandomized cases hold 2-, 3- and 4-bit sections of
        # 4-, 6- and 8-bit words, and whole-word sections.
        widths = sorted((b for b in range(1, n + 1) if n % b == 0), key=lambda b: (b in (1, n), -b))
        code = code_from_codewords([bv(w) for w in span_words(rows)], branch_bits=draw(st.sampled_from(widths)))
    received = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=4))
    return rows, code, [BitVector.from_string("".join(map(str, r))) for r in received]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_codes())
def test_random_codes_trellis_matches_brute_force(case):
    rows, code, received = case
    trellis = build_trellis(code)
    decoded = [viterbi_decode(trellis, r) for r in received]
    assert "codewords" not in vars(code) and "d" not in vars(code)
    assert bit_array(Gf2Matrix.from_rows(rows)).tolist() == rows
    assert code.generator.rref()[0] == code.generator
    assert [str(c) for c in code.codespace] == span_words(rows)
    assert span(code.generator.words) == list(code.codewords)
    assert code.d == min((w.count("1") for w in span_words(rows) if "1" in w), default=0)
    g = np.array(rows, dtype=np.int64)
    h = bit_array(code.parity_check).astype(np.int64)
    assert not (g @ h.T % 2).any()
    assert h.shape == (code.n - code.k, code.n)
    assert code.parity_check.rref()[0].rows == code.n - code.k
    assert path_count(trellis) == 1 << code.k
    layers = node_layers(trellis)
    assert layers[0] == layers[-1] == (0,)
    # Every branch starts at a position of the previous cut: the forward
    # pass of viterbi_decode reads a metric for every ``froms`` entry.
    for t, (froms, _, _) in enumerate(trellis.sections):
        assert set(froms) == set(range(len(layers[t])))
    # The states at a cut are H times each codeword's bits before it, the
    # first check row leading, each section's branches are exactly the
    # codewords' triples, and each end state's predecessors are its block.
    assert_branch_sets_are_the_codeword_triples(code, trellis)
    assert_blocks_are_the_predecessors(code, trellis)
    assert decoded == [ml_brute_force(code, r) for r in received]
