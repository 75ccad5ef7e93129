import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi import (
    BitVector,
    cli,
    LengthError,
    NotLinearError,
    RankError,
    builtin_code,
    builtin_names,
    code_from_json,
    load_code,
)
from qviterbi.codes import rref
from conftest import (
    BUILTIN_NAMES,
    CODESPACE_321,
    CODESPACE_633,
    CODESPACE_CONV,
    PARITY_633,
    bit_array,
    generators,
    span_words,
    words_of,
)


def bv(s):
    return BitVector.from_string(s)


class TestBitVector:
    def test_string_roundtrip(self):
        assert str(bv("0101")) == "0101"

    def test_index_roundtrip(self):
        for v in range(16):
            assert BitVector.from_string(str(BitVector(4, v))) == BitVector(4, v)
            assert BitVector(4, v).to_index() == v

    def test_leftmost_bit_is_most_significant(self):
        assert bv("100").to_index() == 4
        assert bv("001").to_index() == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bv("01x")
        for length, value in ((0, 0), (3, 8), (3, -1), (3, True), (True, 1), (3, 1.0)):
            with pytest.raises(ValueError):
                BitVector(length, value)


class TestGf2Matrix:
    """GF(2) matrices held as one int per row, and their row reduction ``rref``."""

    def test_rref_pivots_strictly_increasing(self):
        reduced, pivots = rref(words_of([[0, 1, 0], [1, 0, 1], [1, 1, 1]]), 3)
        assert (reduced, pivots) == ((0b101, 0b010), (0, 1))
        assert rref(reduced, 3) == (reduced, pivots)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_rref_is_independent_of_row_order_and_repeats(self, data):
        # The RREF of a row space is unique: any spanning list of its words,
        # in any order and with repeats, reduces to the same rows and pivots.
        rows = data.draw(generators(max_n=8))
        n = len(rows[0])
        expected = rref(words_of(rows), n)
        words = [int(w, 2) for w in span_words(rows)]
        listed = data.draw(st.permutations(words + data.draw(st.lists(st.sampled_from(words), max_size=4))))
        assert rref(listed, n) == expected

    def test_rank(self):
        # Duplicate rows collapse; a zero row is dropped.
        assert rref([0b10, 0b01], 2) == ((0b10, 0b01), (0, 1))
        assert rref([0b11, 0b11], 2) == ((0b11,), (0,))
        assert rref([0b011, 0, 0b001], 3) == ((0b010, 0b001), (1, 2))

    def test_rejects_non_binary(self):
        # A generator's entries are the ints 0 and 1: not 2, a bool or a float.
        for entry in (2, True, 1.0):
            with pytest.raises(ValueError, match=f"got {entry!r}$"):
                code_from_json({"generator": [[0, entry]]})


class TestCodeFromGenerator:
    def test_633_codespace(self, lbc_633):
        assert sorted(str(c) for c in lbc_633.codespace) == sorted(CODESPACE_633)
        assert (lbc_633.n, lbc_633.k, lbc_633.d) == (6, 3, 3)

    def test_633_parity_check(self, lbc_633):
        assert bit_array(lbc_633.parity_check, 6).tolist() == PARITY_633

    def test_single_bit_code(self):
        code = code_from_json({"generator": [[1]]})
        assert sorted(str(c) for c in code.codespace) == ["0", "1"]
        assert code.d == 1

    def test_321_codespace(self, lbc_321):
        assert sorted(str(c) for c in lbc_321.codespace) == sorted(CODESPACE_321)
        assert lbc_321.d == 1

    def test_rank_deficient(self):
        with pytest.raises(RankError, match="rank 1 < 2 rows"):
            code_from_json({"generator": [[1, 0, 1], [1, 0, 1]]})

    def test_more_rows_than_columns(self):
        with pytest.raises(RankError, match=r"more rows \(2\) than columns \(1\)"):
            code_from_json({"generator": [[1], [1]]})


class TestCodeFromCodewords:
    """Codes built from a codeword-list JSON."""

    def test_convolutional_codespace(self, conv_code):
        assert sorted(str(c) for c in conv_code.codespace) == sorted(CODESPACE_CONV)
        assert (conv_code.k, conv_code.d) == (3, 5)

    def test_zero_code(self):
        code = code_from_json({"codewords": ["0000"]})
        assert code.k == 0
        assert code.d == 0
        assert [str(c) for c in code.codespace] == ["0000"]

    def test_rank_two_code(self):
        code = code_from_json({"codewords": CODESPACE_321})
        assert code.k == 2
        # Independent check: scan the listed words for the minimum weight.
        assert code.d == min(w.count("1") for w in CODESPACE_321 if "1" in w) == 1

    def test_not_closed(self):
        with pytest.raises(NotLinearError):
            code_from_json({"codewords": ["000", "010", "101", "110"]})

    def test_not_power_of_two(self):
        with pytest.raises(NotLinearError):
            code_from_json({"codewords": ["000", "010", "101"]})

    def test_missing_zero(self):
        with pytest.raises(NotLinearError):
            code_from_json({"codewords": ["01", "10"]})

    def test_mixed_lengths(self):
        with pytest.raises(LengthError):
            code_from_json({"codewords": ["00", "010"]})


@pytest.mark.parametrize("name", BUILTIN_NAMES)
class TestCodeInvariants:
    def test_linearity_random_pairs(self, name, all_builtins):
        code = all_builtins[name]
        rng = np.random.default_rng(7)
        members = {c.to_index() for c in code.codespace}
        for _ in range(100):
            c1, c2 = rng.choice(len(code.codespace), 2)
            assert code.codespace[c1].to_index() ^ code.codespace[c2].to_index() in members

    def test_parity_check_is_bidirectional(self, name, all_builtins):
        code = all_builtins[name]
        h = bit_array(code.parity_check, code.n)
        members = {c.to_index() for c in code.codespace}
        for v in range(1 << code.n):
            word = np.array([int(b) for b in str(BitVector(code.n, v))], dtype=np.uint8)
            syndrome_zero = not (word @ h.T % 2).any()
            assert syndrome_zero == (v in members)

    def test_d_is_min_pairwise_distance(self, name, all_builtins):
        code = all_builtins[name]
        pairwise = min(
            sum(x != y for x, y in zip(str(a), str(b)))
            for a, b in itertools.combinations(code.codespace, 2)
        )
        assert code.d == pairwise

    def test_codespace_size(self, name, all_builtins):
        code = all_builtins[name]
        assert len(code.codespace) == 1 << code.k


class TestJsonInterface:
    def test_builtin_names(self):
        assert builtin_names() == sorted(BUILTIN_NAMES)

    def test_generator_json(self):
        code = code_from_json(
            {"name": "toy", "n": 3, "k": 2, "generator": [[0, 1, 0], [1, 0, 1]]}
        )
        assert sorted(str(c) for c in code.codespace) == sorted(CODESPACE_321)

    def test_generator_json_shape_mismatch(self):
        with pytest.raises(ValueError):
            code_from_json({"n": 4, "generator": [[0, 1, 0], [1, 0, 1]]})

    def test_codewords_json_with_branch_bits(self):
        code = code_from_json({"name": "c", "codewords": CODESPACE_CONV, "branch_bits": 2})
        assert code.branch_bits == 2

    def test_missing_fields(self):
        with pytest.raises(ValueError):
            code_from_json({"name": "empty"})

    def test_load_code_from_file(self, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"name": "file_code", "codewords": CODESPACE_321}))
        code = load_code(str(path))
        assert code.k == 2

    @pytest.mark.parametrize("codewords, error, message", [
        (["000", "0_1"], ValueError, "not a bit string: '0_1'"),
        (["000", " 01"], ValueError, "not a bit string: ' 01'"),
        (["000", "01 "], ValueError, "not a bit string: '01 '"),
        (["00", "+1"], ValueError, "not a bit string: '+1'"),
        (["00", "0\u0661"], ValueError, "not a bit string: '0\u0661'"),
        (["", "00"], ValueError, "not a bit string: ''"),
        (["000", "012"], ValueError, "not a bit string: '012'"),
        (["00", 5], ValueError, "not a bit string: 5"),
        (["00", "010", "0x"], ValueError, "not a bit string: '0x'"),
        (["00", "010"], LengthError, "codewords have mixed lengths"),
        ([], NotLinearError, "empty codeword list"),
    ], ids=["underscore", "leading_space", "trailing_space", "plus", "non_ascii_digit", "empty_string",
            "digit_2", "int", "bad_after_mixed_lengths", "mixed_lengths", "empty_list"])
    def test_codewords_json_rejects(self, codewords, error, message, tmp_path, capsys):
        # Each listed word must be a non-empty string of ASCII 0s and 1s, all
        # of one length; every string is checked before the lengths.
        body = {"codewords": codewords}
        with pytest.raises(error) as raised:
            code_from_json(body)
        assert str(raised.value) == message
        path = tmp_path / "code.json"
        path.write_text(json.dumps(body))
        assert cli.main(["oracle", "--code", str(path), "--received", "00"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("generator, message", [
        ([1, 0], "matrix rows must be lists"),
        ("10", "matrix rows must be lists"),
        ([], "generator has no rows"),
        ([[1, 0], [1]], "ragged rows"),
        ([[2], [1, 0]], "ragged rows"),
        ([[1] * 22] * 21, "k = 21 exceeds the enumeration cap of 20"),
    ], ids=["flat_list", "string", "no_rows", "ragged", "ragged_before_entries", "k_cap_before_rank"])
    def test_generator_json_rejects(self, generator, message, tmp_path, capsys):
        # The checks run in this order: lists of lists, at least one row, one
        # row length, 0/1 entries (TestGf2Matrix), at most n rows, the k cap,
        # full rank (TestCodeFromGenerator).
        body = {"generator": generator}
        with pytest.raises(ValueError) as raised:
            code_from_json(body)
        assert str(raised.value) == message
        path = tmp_path / "code.json"
        path.write_text(json.dumps(body))
        assert cli.main(["oracle", "--code", str(path), "--received", "0"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_load_code_builtin(self):
        assert load_code("lbc_633").n == 6

    def test_builtin_unknown(self):
        with pytest.raises(KeyError):
            builtin_code("nope")
