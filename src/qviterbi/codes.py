"""Binary linear codes over GF(2): words, generator and parity-check matrices, codespaces.

A word is one int. Bit 1 of a word is the leftmost character of its printed
string, maps to qubit index 0, and is the most significant bit of the int.
A ``BitVector`` is ``(length, value)``, the int with its printed length; a
GF(2) matrix is a tuple of such ints, one per row, so rows and codewords share
one format.
Everything here is Python int arithmetic, so loading a code imports no array
library.

Loading a code reduces its generator (or its codeword list) to RREF and derives
a parity-check matrix; it does not list the codewords. ``Code.codewords`` and
``Code.d`` enumerate the 2^k words on first access and keep them. The trellis
oracle reads only G and H, so ``oracle`` never lists them; ``decode``,
``landscape`` and ``ml_brute_force`` do, once per code.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import LengthError, NotLinearError, RankError

# ``decode``, ``landscape`` and ``ml_brute_force`` list all 2**k codewords, and
# this cap guards that enumeration. The oracle's trellis build costs its branch
# count, not 2**k, but the cap is checked when a code loads, so it still
# applies to ``oracle``.
MAX_MESSAGE_BITS = 20


def _check_bit_string(s) -> None:
    # ``int(s, 2)`` alone would also take "0_1", " 01", "+1" and non-ASCII digits.
    if not isinstance(s, str) or not s or s.strip("01"):
        raise ValueError(f"not a bit string: {s!r}")


@dataclass(frozen=True)
class BitVector:
    """Immutable word over GF(2): ``length`` bits held as one int, leftmost bit most significant."""

    length: int
    value: int

    def __post_init__(self):
        if type(self.length) is not int or type(self.value) is not int:
            raise ValueError("BitVector length and value must be integers (not bool or float)")
        if self.length < 1:
            raise ValueError("BitVector must have positive length")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value {self.value} out of range for length {self.length}")

    @classmethod
    def from_string(cls, s: str) -> BitVector:
        _check_bit_string(s)
        return cls(len(s), int(s, 2))

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")

    def to_index(self) -> int:
        """Integer encoding with the leftmost bit most significant."""
        return self.value


def rref(words, cols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row-echelon form over GF(2) of the rows ``words``, ``cols`` wide, with zero rows dropped.

    Returns the reduced rows and their pivot columns (strictly increasing).
    The rows not yet taken as pivots are held as a set, so rows that become
    equal as columns are cleared collapse into one; a list of all 2^k
    codewords halves at each pivot. The RREF of a row space is unique, so
    which row is taken as a pivot does not change the result.
    """
    reduced, rest, pivots = [], set(words), []
    for c in range(cols):
        bit = 1 << (cols - 1 - c)
        top = next((w for w in rest if w & bit), 0)
        if top:
            # Earlier pivots are already cleared from ``rest``, so ``top``
            # leads at column c; clear column c from every other row.
            reduced = [w ^ top if w & bit else w for w in reduced] + [top]
            rest = {w ^ top if w & bit else w for w in rest}
            rest.discard(0)
            pivots.append(c)
    return tuple(reduced), tuple(pivots)


@dataclass(frozen=True)
class Code:
    """A binary linear code, held as its generator and parity-check matrices.

    Fields: ``n`` and ``k``, the length and dimension; ``generator``, k rows
    of n columns in reduced row-echelon form; ``parity_check``, n - k rows
    with the code as their null space; each matrix is a tuple of ints, one
    per row, leftmost column most significant; ``branch_bits``, the trellis
    branch label width (more than 1 only for terminated convolutional codes
    ingested as codeword lists). Derived: ``codewords`` holds every codeword
    as an integer (leftmost bit most significant) in ascending order, which
    is also message order: bit j of a word's index is its bit at the pivot
    of generator row k - 1 - j. It is the span of the generator rows,
    enumerated on first access and kept; ``d``, the least weight of a
    nonzero codeword (0 when k = 0), is scanned from it on first access.
    The trellis oracle reads neither; the compiled circuit and the mixer
    read both, and ``ml_brute_force`` the words. ``codespace`` derives the
    same words, in the same order, as bit vectors on each access.
    """

    n: int
    k: int
    generator: tuple[int, ...]
    parity_check: tuple[int, ...]
    branch_bits: int

    @cached_property
    def codewords(self) -> tuple[int, ...]:
        # Each earlier RREF row has a more significant pivot, so the span of
        # the rows is sorted.
        return tuple(span(self.generator))

    @cached_property
    def d(self) -> int:
        return min((w.bit_count() for w in self.codewords if w), default=0)

    @property
    def codespace(self) -> tuple[BitVector, ...]:
        return tuple(BitVector(self.n, w) for w in self.codewords)


def span(values) -> list[int]:
    """Every XOR combination of ``values``, indexed by message: entry m is the
    XOR of the values at the set bits of m, the last value being bit 0.

    ``span(code.generator)`` is ``code.codewords``. Given any linear
    function of each generator row, it lists that function of every
    codeword, in the same order.
    """
    words = [0]
    for v in reversed(values):
        words += [w ^ v for w in words]
    return words


def _finish_code(n: int, words, branch_bits: int) -> Code:
    # The generator is the RREF of ``words``. H has one check per non-pivot
    # column f: c_f equals the sum of G[i, f] * c_{p_i}, because an RREF
    # codeword carries message bit i at pivot p_i. For a systematic
    # generator [I | P] this is [P^T | I].
    generator, pivots = rref(words, n)
    pivot_set = set(pivots)
    parity_check = tuple(
        (1 << (n - 1 - f)) | sum(1 << (n - 1 - p) for p, g in zip(pivots, generator) if (g >> (n - 1 - f)) & 1)
        for f in range(n) if f not in pivot_set
    )
    return Code(n, len(generator), generator, parity_check, branch_bits)


# Built-in codes: a [6,3,3] block code, a [3,2,1] block code, and a rate-1/2
# memory-2 convolutional code terminated after five 2-bit instants.
_BUILTIN_SPECS: dict[str, dict] = {
    "lbc_633": {
        "generator": [
            [1, 0, 0, 0, 1, 1],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 1, 1, 1, 0],
        ],
    },
    "lbc_321": {
        "generator": [
            [0, 1, 0],
            [1, 0, 1],
        ],
    },
    "conv_r12_m2": {
        "codewords": [
            "0000000000",
            "0000110111",
            "0011011100",
            "0011101011",
            "1101110000",
            "1101000111",
            "1110101100",
            "1110011011",
        ],
        "branch_bits": 2,
    },
}


def builtin_names() -> list[str]:
    return sorted(_BUILTIN_SPECS)


def builtin_code(name: str) -> Code:
    if name not in _BUILTIN_SPECS:
        raise KeyError(f"unknown built-in code {name!r}; known: {', '.join(builtin_names())}")
    return code_from_json(_BUILTIN_SPECS[name])


# The keys each code JSON shape may hold.
_JSON_KEYS = {
    "generator": {"name", "n", "k", "generator"},
    "codewords": {"name", "n", "k", "codewords", "branch_bits"},
}


def code_from_json(obj: dict) -> Code:
    """Build a code from its JSON description.

    Two shapes are accepted:
    ``{"name": str, "n": int, "k": int, "generator": [[0|1, ...], ...]}`` or
    ``{"name": str, "n": int, "k": int, "codewords": ["0101...", ...],
    "branch_bits": int}``. Only ``generator`` or ``codewords`` is required;
    ``branch_bits`` defaults to 1. A declared ``n`` or ``k`` must be an
    integer equal to the built code's; ``name`` must be a string, and is
    checked but not stored. Any other key, or both ``generator`` and
    ``codewords``, raises ``ValueError``. A generator needs at least one
    row, all of one length, and at most ``MAX_MESSAGE_BITS`` rows; more rows
    than columns or a rank below the row count raises ``RankError``. A
    codeword list's basis is found by row reduction: a set of 2^k distinct
    words whose span has dimension k is that span, and any other set raises
    ``NotLinearError``. Either way the stored generator is the RREF.
    """
    if not isinstance(obj, dict):
        raise ValueError("code JSON must be an object")
    if "generator" in obj:
        shape = "generator"
    elif "codewords" in obj:
        shape = "codewords"
    else:
        raise ValueError("code JSON needs either a 'generator' or a 'codewords' field")
    unknown = sorted(set(obj) - _JSON_KEYS[shape])
    if unknown:
        raise ValueError(f"unexpected key(s) {', '.join(map(repr, unknown))} in a {shape!r} code JSON; "
                         f"allowed: {', '.join(sorted(_JSON_KEYS[shape]))}")
    if not isinstance(obj.get("name", ""), str):
        raise ValueError(f"name must be a string, got {obj['name']!r}")
    if shape == "generator":
        rows = obj["generator"]
        if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
            raise ValueError("matrix rows must be lists")
        if not rows:
            raise ValueError("generator has no rows")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        for r in rows:
            for x in r:
                if type(x) is not int or x not in (0, 1):
                    raise ValueError(f"matrix entries must be the integers 0 or 1 (not bool or float), got {x!r}")
        if len(rows) > n:
            raise RankError(f"generator has more rows ({len(rows)}) than columns ({n})")
        if len(rows) > MAX_MESSAGE_BITS:
            raise ValueError(f"k = {len(rows)} exceeds the enumeration cap of {MAX_MESSAGE_BITS}")
        code = _finish_code(n, [sum(x << (n - 1 - j) for j, x in enumerate(r)) for r in rows], 1)
        if code.k < len(rows):
            raise RankError(f"generator is rank-deficient: rank {code.k} < {len(rows)} rows")
    else:
        strings = obj["codewords"]
        if not isinstance(strings, list):
            raise ValueError("codewords must be a list of bit strings")
        for s in strings:
            _check_bit_string(s)
        branch_bits = _json_int(obj, "branch_bits", 1)
        if not strings:
            raise NotLinearError("empty codeword list")
        lengths = {len(s) for s in strings}
        if len(lengths) != 1:
            raise LengthError("codewords have mixed lengths")
        (n,) = lengths
        words = {int(s, 2) for s in strings}
        if len(words) != len(strings):
            raise NotLinearError("duplicate codewords in list")
        if 0 not in words:
            raise NotLinearError("codespace must contain the all-zero word")
        size = len(words)
        if size & (size - 1):
            raise NotLinearError(f"|codespace| = {size} is not a power of two")
        if branch_bits < 1 or n % branch_bits:
            raise ValueError(f"branch_bits = {branch_bits} does not divide n = {n} into sections")
        code = _finish_code(n, words, branch_bits)
        if (1 << code.k) != size:
            raise NotLinearError("codeword set is not closed under XOR")
    for key, built in (("n", code.n), ("k", code.k)):
        if key in obj and _json_int(obj, key) != built:
            raise ValueError(f"declared {key} = {obj[key]} but the code has {key} = {built}")
    return code


def _json_int(obj: dict, key: str, default: int | None = None) -> int:
    value = obj.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def load_code(source: str) -> Code:
    """Resolve a code from a built-in name or a JSON file path."""
    if source in _BUILTIN_SPECS:
        return builtin_code(source)
    with open(source) as fh:
        return code_from_json(json.load(fh))
