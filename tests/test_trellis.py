import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi import (
    BitVector,
    Gf2Matrix,
    LengthError,
    build_trellis,
    code_from_codewords,
    code_from_generator,
    ml_brute_force,
    viterbi_decode,
)
from conftest import BUILTIN_NAMES, bit_array, generators, span_words


def bv(s):
    return BitVector.from_string(s)


def path_count(trellis):
    """Number of root-to-sink paths, by forward dynamic programming."""
    counts = {0: 1}
    for branches in trellis.branch_layers:
        nxt = {}
        for frm, _, to in branches:
            if frm in counts:
                nxt[to] = nxt.get(to, 0) + counts[frm]
        counts = nxt
    return counts.get(0, 0)


class TestBuildTrellis:
    def test_633_has_eight_paths(self, lbc_633):
        trellis = build_trellis(lbc_633)
        assert path_count(trellis) == 8
        assert len(trellis.node_layers) == 7

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
        assert trellis.num_instants == 5
        assert trellis.branch_bits == 2

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_null_state_at_both_ends(self, name, all_builtins):
        trellis = build_trellis(all_builtins[name])
        assert trellis.node_layers[0] == (0,)
        assert trellis.node_layers[-1] == (0,)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_path_count_is_codespace_size(self, name, all_builtins):
        code = all_builtins[name]
        assert path_count(build_trellis(code)) == 1 << code.k


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
    with 1- or 2-bit trellis sections, plus received words to decode."""
    how = draw(st.sampled_from(["generator", "codewords", "sections"]))
    rows = draw(generators(max_n=8, even_n=how == "sections"))
    if how == "generator":
        code = code_from_generator(Gf2Matrix.from_rows(rows))
    else:
        words = [bv(w) for w in span_words(rows)]
        code = code_from_codewords(words, branch_bits=2 if how == "sections" else 1)
    n = len(rows[0])
    received = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=4))
    return rows, code, [BitVector.from_string("".join(map(str, r))) for r in received]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_codes())
def test_random_codes_trellis_matches_brute_force(case):
    rows, code, received = case
    assert bit_array(Gf2Matrix.from_rows(rows)).tolist() == rows
    assert code.generator.rref()[0] == code.generator
    assert [str(c) for c in code.codespace] == span_words(rows)
    g = np.array(rows, dtype=np.int64)
    h = bit_array(code.parity_check).astype(np.int64)
    assert not (g @ h.T % 2).any()
    assert h.shape == (code.n - code.k, code.n)
    assert code.parity_check.rank() == code.n - code.k
    trellis = build_trellis(code)
    assert path_count(trellis) == 1 << code.k
    assert trellis.node_layers[0] == trellis.node_layers[-1] == (0,)
    # The states at a cut are H times each codeword's bits before it, the first check row leading.
    words = np.array([[int(x) for x in str(c)] for c in code.codespace], dtype=np.int64)
    leading = 1 << np.arange(h.shape[0] - 1, -1, -1, dtype=np.int64)
    for t, layer in enumerate(trellis.node_layers):
        prefix = words.copy()
        prefix[:, t * code.branch_bits:] = 0
        assert layer == tuple(sorted(set((prefix @ h.T % 2 @ leading).tolist())))
    for r in received:
        assert viterbi_decode(trellis, r) == ml_brute_force(code, r)
