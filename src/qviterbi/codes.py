"""Binary linear codes over GF(2): bit vectors, matrices, codespaces, distances.

Bit-order convention used everywhere in this package: bit 1 of a word is the
leftmost character of its printed string, maps to qubit index 0, and is the
most significant bit of the word's integer encoding.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import LengthError, NotLinearError, RankError

MAX_MESSAGE_BITS = 20  # codespace enumeration is capped at 2**20 words


@dataclass(frozen=True, order=True)
class BitVector:
    """Immutable fixed-length vector over GF(2)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("BitVector must have positive length")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("BitVector entries must be 0 or 1")

    @classmethod
    def from_string(cls, s: str) -> BitVector:
        if not isinstance(s, str) or not s or set(s) - {"0", "1"}:
            raise ValueError(f"not a bit string: {s!r}")
        return cls(tuple(int(c) for c in s))

    @classmethod
    def from_index(cls, index: int, length: int) -> BitVector:
        """Inverse of ``to_index`` for a given printed length."""
        if not 0 <= index < (1 << length):
            raise ValueError(f"index {index} out of range for length {length}")
        return cls(tuple((index >> (length - 1 - i)) & 1 for i in range(length)))

    @classmethod
    def zero(cls, length: int) -> BitVector:
        return cls((0,) * length)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __xor__(self, other: BitVector) -> BitVector:
        if len(self) != len(other):
            raise LengthError(f"length mismatch: {len(self)} vs {len(other)}")
        return BitVector(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    @property
    def weight(self) -> int:
        """Hamming weight (number of 1 entries)."""
        return sum(self.bits)

    def to_index(self) -> int:
        """Integer encoding with the leftmost bit most significant."""
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value


def popcounts(values: np.ndarray, num_bits: int) -> np.ndarray:
    """Hamming weight of each integer in ``values`` that fits in ``num_bits`` bits."""
    counts = np.zeros(values.shape, dtype=np.int64)
    for b in range(num_bits):
        counts += (values >> b) & 1
    return counts


def hamming_distance(a: BitVector, b: BitVector) -> int:
    """Number of positions where ``a`` and ``b`` differ."""
    if len(a) != len(b):
        raise LengthError(f"length mismatch: {len(a)} vs {len(b)}")
    return (a.to_index() ^ b.to_index()).bit_count()


@dataclass(frozen=True)
class Gf2Matrix:
    """Dense binary matrix with row-major storage and GF(2) row reduction."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != self.rows * self.cols:
            raise ValueError("bits length does not match rows*cols")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("matrix entries must be 0 or 1")

    @classmethod
    def from_rows(cls, rows) -> Gf2Matrix:
        if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
            raise ValueError("matrix rows must be lists")
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(int(x) & 1 if x in (0, 1) else _bad_entry(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> Gf2Matrix:
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        if arr.shape[0] == 0:
            return cls(0, arr.shape[1], ())
        return cls.from_rows(arr.tolist())

    def to_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8).reshape(self.rows, self.cols)

    def row(self, i: int) -> BitVector:
        return BitVector(self.bits[i * self.cols : (i + 1) * self.cols])

    def rref(self) -> tuple[Gf2Matrix, tuple[int, ...]]:
        """Reduced row-echelon form over GF(2) with zero rows dropped.

        Returns the reduced matrix and its pivot columns (strictly increasing).
        """
        a = self.to_array().copy()
        m, n = a.shape
        pivots = []
        r = 0
        for c in range(n):
            pivot = None
            for i in range(r, m):
                if a[i, c]:
                    pivot = i
                    break
            if pivot is None:
                continue
            if pivot != r:
                a[[r, pivot]] = a[[pivot, r]]
            for i in range(m):
                if i != r and a[i, c]:
                    a[i] ^= a[r]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return Gf2Matrix.from_array(a[:r]), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[0].rows

    def pivot_columns(self) -> tuple[int, ...]:
        """Leading-one column of each row; raises if rows are not in RREF order."""
        arr = self.to_array()
        pivots = []
        for i in range(self.rows):
            nz = np.flatnonzero(arr[i])
            if nz.size == 0:
                raise ValueError("zero row in generator")
            pivots.append(int(nz[0]))
        if any(p2 <= p1 for p1, p2 in zip(pivots, pivots[1:])):
            raise ValueError("pivot columns not strictly increasing")
        for i, p in enumerate(pivots):
            col = arr[:, p]
            if col.sum() != 1 or col[i] != 1:
                raise ValueError("pivot column is not a unit vector")
        return tuple(pivots)


def _bad_entry(x):
    raise ValueError(f"matrix entries must be 0 or 1, got {x!r}")


@dataclass(frozen=True)
class Code:
    """A binary linear code with its fully enumerated codewords.

    ``generator`` is stored in reduced row-echelon form and ``parity_check``
    is an (n - k) x n matrix whose null space is the code. ``codewords`` holds
    every codeword as an integer (leftmost bit most significant) in ascending
    order, which is also message order: bit j of a word's index is its bit at
    the pivot of generator row k - 1 - j. ``codespace`` holds the same words,
    in the same order, as bit vectors. ``branch_bits`` is the trellis branch
    label width (more than 1 only for terminated convolutional codes ingested
    as codeword lists).
    """

    n: int
    k: int
    d: int
    generator: Gf2Matrix
    parity_check: Gf2Matrix
    codewords: tuple[int, ...]
    codespace: tuple[BitVector, ...]
    kind: str = "block"
    branch_bits: int = 1
    name: str = ""


def _parity_check(generator: Gf2Matrix, pivots: tuple[int, ...]) -> Gf2Matrix:
    # One check per non-pivot column f: c_f equals the sum of G[i, f] * c_{p_i},
    # because an RREF codeword carries message bit i at pivot p_i. For a
    # systematic generator [I | P] this is [P^T | I].
    g = generator.to_array()
    free = [f for f in range(generator.cols) if f not in pivots]
    h = np.zeros((len(free), generator.cols), dtype=np.uint8)
    for row, f in enumerate(free):
        h[row, f] = 1
        h[row, list(pivots)] = g[:, f]
    return Gf2Matrix.from_array(h)


def _finish_code(generator: Gf2Matrix, pivots, kind, branch_bits, name) -> Code:
    # Doubling from the last row makes it the least significant message bit;
    # each earlier row has a more significant pivot, so the list stays sorted.
    words = [0]
    for i in reversed(range(generator.rows)):
        row = generator.row(i).to_index()
        words += [w ^ row for w in words]
    return Code(
        n=generator.cols,
        k=generator.rows,
        d=min((w.bit_count() for w in words[1:]), default=0),
        generator=generator,
        parity_check=_parity_check(generator, pivots),
        codewords=tuple(words),
        codespace=tuple(BitVector.from_index(w, generator.cols) for w in words),
        kind=kind,
        branch_bits=branch_bits,
        name=name,
    )


def code_from_generator(generator: Gf2Matrix, name: str = "") -> Code:
    """Build a code from a full-row-rank generator matrix.

    The generator is reduced to RREF before use; the codespace is the span of
    its rows and the minimum distance is found by a weight scan.
    """
    if generator.rows > generator.cols:
        raise RankError(f"generator has more rows ({generator.rows}) than columns ({generator.cols})")
    if generator.rows > MAX_MESSAGE_BITS:
        raise ValueError(f"k = {generator.rows} exceeds the enumeration cap of {MAX_MESSAGE_BITS}")
    reduced, pivots = generator.rref()
    if reduced.rows < generator.rows:
        raise RankError(f"generator is rank-deficient: rank {reduced.rows} < {generator.rows} rows")
    return _finish_code(reduced, pivots, "block", 1, name)


def code_from_codewords(
    words: list[BitVector],
    name: str = "",
    kind: str = "block",
    branch_bits: int = 1,
) -> Code:
    """Build a code from an explicit, XOR-closed codeword list.

    A generator basis is extracted by row reduction; ``k`` is the rank. Raises
    NotLinearError when the set is not a linear code: a set of 2^k distinct
    words whose span has dimension k is that span.
    """
    if not words:
        raise NotLinearError("empty codeword list")
    n = len(words[0])
    if any(len(w) != n for w in words):
        raise LengthError("codewords have mixed lengths")
    ints = {w.to_index() for w in words}
    if len(ints) != len(words):
        raise NotLinearError("duplicate codewords in list")
    if 0 not in ints:
        raise NotLinearError("codespace must contain the all-zero word")
    size = len(ints)
    if size & (size - 1):
        raise NotLinearError(f"|codespace| = {size} is not a power of two")
    if branch_bits < 1 or n % branch_bits:
        raise ValueError(f"branch_bits = {branch_bits} does not divide n = {n} into sections")
    reduced, pivots = Gf2Matrix.from_rows([w.bits for w in words]).rref()
    if (1 << reduced.rows) != size:
        raise NotLinearError("codeword set is not closed under XOR")
    return _finish_code(reduced, pivots, kind, branch_bits, name)


def min_weight_codewords(code: Code) -> list[BitVector]:
    """All nonzero codewords of weight exactly ``code.d``, in lexicographic order."""
    return [c for c in code.codespace if 0 < c.weight == code.d]


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
        "kind": "convolutional-terminated",
        "branch_bits": 2,
    },
}


def builtin_names() -> list[str]:
    return sorted(_BUILTIN_SPECS)


def builtin_code(name: str) -> Code:
    if name not in _BUILTIN_SPECS:
        raise KeyError(f"unknown built-in code {name!r}; known: {', '.join(builtin_names())}")
    return code_from_json({"name": name, **_BUILTIN_SPECS[name]})


def code_from_json(obj: dict) -> Code:
    """Build a code from its JSON description.

    Two shapes are accepted:
    ``{"name": str, "n": int, "k": int, "generator": [[0|1, ...], ...]}`` or
    ``{"name": str, "codewords": ["0101...", ...]}`` with an optional
    ``"branch_bits"`` key for convolutional codeword lists. Either shape may
    declare ``"n"`` and ``"k"``; a declared value must be an integer equal to
    the built code's.
    """
    if not isinstance(obj, dict):
        raise ValueError("code JSON must be an object")
    name = obj.get("name", "")
    if "generator" in obj:
        code = code_from_generator(Gf2Matrix.from_rows(obj["generator"]), name=name)
    elif "codewords" in obj:
        if not isinstance(obj["codewords"], list):
            raise ValueError("codewords must be a list of bit strings")
        words = [BitVector.from_string(s) for s in obj["codewords"]]
        branch_bits = _json_int(obj, "branch_bits", 1)
        code = code_from_codewords(
            words,
            name=name,
            kind=obj.get("kind", "convolutional-terminated" if branch_bits > 1 else "block"),
            branch_bits=branch_bits,
        )
    else:
        raise ValueError("code JSON needs either a 'generator' or a 'codewords' field")
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
