"""Binary linear codes over GF(2): words, generator and parity-check matrices, codespaces.

A word is one int. Bit 1 of a word is the leftmost character of its printed
string, maps to qubit index 0, and is the most significant bit of the int.
A ``BitVector`` is ``(length, value)``, the int with its printed length; a
GF(2) matrix holds one such int per row, so rows and codewords share one format.
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

MAX_MESSAGE_BITS = 20  # codespace enumeration is capped at 2**20 words


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


@dataclass(frozen=True)
class Gf2Matrix:
    """Binary matrix with one integer per row (leftmost column most significant)."""

    cols: int
    words: tuple[int, ...]

    def __post_init__(self):
        limit = 1 << self.cols
        if any(type(w) is not int or not 0 <= w < limit for w in self.words):
            raise ValueError(f"matrix rows must be integers in [0, 2^{self.cols})")

    @property
    def rows(self) -> int:
        return len(self.words)

    @classmethod
    def from_rows(cls, rows) -> Gf2Matrix:
        if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
            raise ValueError("matrix rows must be lists")
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        for r in rows:
            for x in r:
                if type(x) is not int or x not in (0, 1):
                    raise ValueError(f"matrix entries must be the integers 0 or 1 (not bool or float), got {x!r}")
        return cls(ncols, tuple(sum(x << (ncols - 1 - j) for j, x in enumerate(r)) for r in rows))

    def rref(self) -> tuple[Gf2Matrix, tuple[int, ...]]:
        """Reduced row-echelon form over GF(2) with zero rows dropped.

        Returns the reduced matrix and its pivot columns (strictly increasing).
        The rows not yet taken as pivots are held as a set, so rows that
        become equal as columns are cleared collapse into one; a list of all
        2^k codewords halves at each pivot. The RREF of a row space is unique,
        so which row is taken as a pivot does not change the result.
        """
        reduced, rest, pivots = [], set(self.words), []
        for c in range(self.cols):
            bit = 1 << (self.cols - 1 - c)
            top = next((w for w in rest if w & bit), 0)
            if top:
                # Earlier pivots are already cleared from ``rest``, so ``top``
                # leads at column c; clear column c from every other row.
                reduced = [w ^ top if w & bit else w for w in reduced] + [top]
                rest = {w ^ top if w & bit else w for w in rest}
                rest.discard(0)
                pivots.append(c)
        return Gf2Matrix(self.cols, tuple(reduced)), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[0].rows


@dataclass(frozen=True)
class Code:
    """A binary linear code, held as its generator and parity-check matrices.

    ``generator`` is stored in reduced row-echelon form and ``parity_check``
    is an (n - k) x n matrix whose null space is the code. ``codewords`` holds
    every codeword as an integer (leftmost bit most significant) in ascending
    order, which is also message order: bit j of a word's index is its bit at
    the pivot of generator row k - 1 - j. It is the span of the generator
    rows, enumerated on first access and kept; ``d`` is the least weight of a
    nonzero codeword (0 when k = 0), scanned from ``codewords`` on first
    access. The trellis oracle reads neither; the compiled circuit and the
    mixer read both, and ``ml_brute_force`` the words. ``codespace`` derives
    the same words, in the same order, as bit vectors on each access; they
    are stored once, in ``codewords``. ``branch_bits`` is the trellis branch
    label width (more than 1 only for terminated convolutional codes ingested
    as codeword lists).
    """

    n: int
    k: int
    generator: Gf2Matrix
    parity_check: Gf2Matrix
    branch_bits: int = 1
    name: str = ""

    @cached_property
    def codewords(self) -> tuple[int, ...]:
        # Each earlier RREF row has a more significant pivot, so the span of
        # the rows is sorted.
        return tuple(span(self.generator.words))

    @cached_property
    def d(self) -> int:
        return min((w.bit_count() for w in self.codewords if w), default=0)

    @property
    def codespace(self) -> tuple[BitVector, ...]:
        return tuple(BitVector(self.n, w) for w in self.codewords)


def _parity_check(generator: Gf2Matrix, pivots: tuple[int, ...]) -> Gf2Matrix:
    # One check per non-pivot column f: c_f equals the sum of G[i, f] * c_{p_i},
    # because an RREF codeword carries message bit i at pivot p_i. For a
    # systematic generator [I | P] this is [P^T | I].
    n = generator.cols
    pivot_set = set(pivots)
    return Gf2Matrix(n, tuple(
        (1 << (n - 1 - f)) | sum(1 << (n - 1 - p) for p, g in zip(pivots, generator.words) if (g >> (n - 1 - f)) & 1)
        for f in range(n) if f not in pivot_set
    ))


def span(values) -> list[int]:
    """Every XOR combination of ``values``, indexed by message: entry m is the
    XOR of the values at the set bits of m, the last value being bit 0.

    ``span(code.generator.words)`` is ``code.codewords``. Given any linear
    function of each generator row, it lists that function of every
    codeword, in the same order.
    """
    words = [0]
    for v in reversed(values):
        words += [w ^ v for w in words]
    return words


def _finish_code(generator: Gf2Matrix, pivots, branch_bits, name) -> Code:
    return Code(
        n=generator.cols,
        k=generator.rows,
        generator=generator,
        parity_check=_parity_check(generator, pivots),
        branch_bits=branch_bits,
        name=name,
    )


def code_from_generator(generator: Gf2Matrix, name: str = "") -> Code:
    """Build a code from a full-row-rank generator matrix.

    The generator is reduced to RREF before use; the codespace is the span of
    its rows and the minimum distance is found by a weight scan, both on
    first access.
    """
    if generator.rows > generator.cols:
        raise RankError(f"generator has more rows ({generator.rows}) than columns ({generator.cols})")
    if generator.rows > MAX_MESSAGE_BITS:
        raise ValueError(f"k = {generator.rows} exceeds the enumeration cap of {MAX_MESSAGE_BITS}")
    reduced, pivots = generator.rref()
    if reduced.rows < generator.rows:
        raise RankError(f"generator is rank-deficient: rank {reduced.rows} < {generator.rows} rows")
    return _finish_code(reduced, pivots, 1, name)


def code_from_codewords(
    words: list[BitVector],
    name: str = "",
    branch_bits: int = 1,
) -> Code:
    """Build a code from an explicit, XOR-closed codeword list.

    A generator basis is extracted by row reduction; ``k`` is the rank. Raises
    NotLinearError when the set is not a linear code: a set of 2^k distinct
    words whose span has dimension k is that span.
    """
    return _code_from_word_ints({w.length for w in words}, [w.value for w in words], name, branch_bits)


def _code_from_word_ints(lengths: set[int], words: list[int], name: str, branch_bits: int) -> Code:
    # The core of ``code_from_codewords`` and of a codeword-list JSON: ``words``
    # are the listed codewords as ints, and ``lengths`` their printed lengths.
    if not words:
        raise NotLinearError("empty codeword list")
    if len(lengths) != 1:
        raise LengthError("codewords have mixed lengths")
    (n,) = lengths
    ints = set(words)
    if len(ints) != len(words):
        raise NotLinearError("duplicate codewords in list")
    if 0 not in ints:
        raise NotLinearError("codespace must contain the all-zero word")
    size = len(ints)
    if size & (size - 1):
        raise NotLinearError(f"|codespace| = {size} is not a power of two")
    if branch_bits < 1 or n % branch_bits:
        raise ValueError(f"branch_bits = {branch_bits} does not divide n = {n} into sections")
    reduced, pivots = Gf2Matrix(n, tuple(ints)).rref()
    if (1 << reduced.rows) != size:
        raise NotLinearError("codeword set is not closed under XOR")
    return _finish_code(reduced, pivots, branch_bits, name)


def min_weight_codewords(code: Code) -> list[BitVector]:
    """All nonzero codewords of weight exactly ``code.d``, in lexicographic order."""
    return [BitVector(code.n, w) for w in code.codewords if 0 < w.bit_count() == code.d]


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
    return code_from_json({"name": name, **_BUILTIN_SPECS[name]})


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
    integer equal to the built code's. Any other key, or both ``generator``
    and ``codewords``, raises ``ValueError``.
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
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    if shape == "generator":
        code = code_from_generator(Gf2Matrix.from_rows(obj["generator"]), name=name)
    else:
        strings = obj["codewords"]
        if not isinstance(strings, list):
            raise ValueError("codewords must be a list of bit strings")
        for s in strings:
            _check_bit_string(s)
        code = _code_from_word_ints({len(s) for s in strings}, [int(s, 2) for s in strings], name,
                                    _json_int(obj, "branch_bits", 1))
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
