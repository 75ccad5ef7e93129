import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi import (
    BitVector,
    cli,
    Gf2Matrix,
    LengthError,
    NotLinearError,
    RankError,
    builtin_code,
    builtin_names,
    code_from_codewords,
    code_from_generator,
    code_from_json,
    load_code,
    min_weight_codewords,
)
from conftest import (
    BUILTIN_NAMES,
    CODESPACE_321,
    CODESPACE_633,
    CODESPACE_CONV,
    MIN_WEIGHT_633,
    MIN_WEIGHT_CONV,
    PARITY_633,
    bit_array,
    generators,
    span_words,
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
    def test_rref_pivots_strictly_increasing(self):
        m = Gf2Matrix.from_rows([[0, 1, 0], [1, 0, 1], [1, 1, 1]])
        reduced, pivots = m.rref()
        assert list(pivots) == sorted(pivots)
        assert reduced.rank() == len(pivots)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_rref_is_independent_of_row_order_and_repeats(self, data):
        # The RREF of a row space is unique: any spanning list of its words,
        # in any order and with repeats, reduces to the same rows and pivots.
        rows = data.draw(generators(max_n=8))
        n = len(rows[0])
        expected = Gf2Matrix.from_rows(rows).rref()
        words = [int(w, 2) for w in span_words(rows)]
        listed = data.draw(st.permutations(words + data.draw(st.lists(st.sampled_from(words), max_size=4))))
        assert Gf2Matrix(n, tuple(listed)).rref() == expected

    def test_rank(self):
        assert Gf2Matrix.from_rows([[1, 0], [0, 1]]).rank() == 2
        assert Gf2Matrix.from_rows([[1, 1], [1, 1]]).rank() == 1

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Gf2Matrix.from_rows([[0, 2]])
        with pytest.raises(ValueError):
            Gf2Matrix(2, (4,))
        with pytest.raises(ValueError):
            Gf2Matrix(2, (True,))


class TestCodeFromGenerator:
    def test_633_codespace(self, lbc_633):
        assert sorted(str(c) for c in lbc_633.codespace) == sorted(CODESPACE_633)
        assert (lbc_633.n, lbc_633.k, lbc_633.d) == (6, 3, 3)

    def test_633_parity_check(self, lbc_633):
        assert bit_array(lbc_633.parity_check).tolist() == PARITY_633

    def test_single_bit_code(self):
        code = code_from_generator(Gf2Matrix.from_rows([[1]]))
        assert sorted(str(c) for c in code.codespace) == ["0", "1"]
        assert code.d == 1

    def test_321_codespace(self, lbc_321):
        assert sorted(str(c) for c in lbc_321.codespace) == sorted(CODESPACE_321)
        assert lbc_321.d == 1

    def test_rank_deficient(self):
        with pytest.raises(RankError):
            code_from_generator(Gf2Matrix.from_rows([[1, 0, 1], [1, 0, 1]]))

    def test_more_rows_than_columns(self):
        with pytest.raises(RankError):
            code_from_generator(Gf2Matrix.from_rows([[1], [1]]))


class TestCodeFromCodewords:
    def test_convolutional_codespace(self, conv_code):
        assert sorted(str(c) for c in conv_code.codespace) == sorted(CODESPACE_CONV)
        assert (conv_code.k, conv_code.d) == (3, 5)

    def test_zero_code(self):
        code = code_from_codewords([BitVector(4, 0)])
        assert code.k == 0
        assert code.d == 0
        assert [str(c) for c in code.codespace] == ["0000"]

    def test_rank_two_code(self):
        words = [bv(s) for s in CODESPACE_321]
        code = code_from_codewords(words)
        assert code.k == 2
        # Independent check: scan the listed words for the minimum weight.
        assert code.d == min(str(w).count("1") for w in words if "1" in str(w)) == 1

    def test_not_closed(self):
        with pytest.raises(NotLinearError):
            code_from_codewords([bv("000"), bv("010"), bv("101"), bv("110")])

    def test_not_power_of_two(self):
        with pytest.raises(NotLinearError):
            code_from_codewords([bv("000"), bv("010"), bv("101")])

    def test_missing_zero(self):
        with pytest.raises(NotLinearError):
            code_from_codewords([bv("01"), bv("10")])

    def test_mixed_lengths(self):
        with pytest.raises(LengthError):
            code_from_codewords([bv("00"), bv("010")])


class TestMinWeightCodewords:
    def test_633(self, lbc_633):
        assert [str(c) for c in min_weight_codewords(lbc_633)] == sorted(MIN_WEIGHT_633)

    def test_convolutional(self, conv_code):
        assert [str(c) for c in min_weight_codewords(conv_code)] == sorted(MIN_WEIGHT_CONV)

    def test_321(self, lbc_321):
        assert [str(c) for c in min_weight_codewords(lbc_321)] == ["010"]


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
        h = bit_array(code.parity_check)
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
        assert code.name == "toy"
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
        assert code.name == "file_code"
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

    def test_load_code_builtin(self):
        assert load_code("lbc_633").n == 6

    def test_builtin_unknown(self):
        with pytest.raises(KeyError):
            builtin_code("nope")
