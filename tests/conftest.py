import numpy as np
import pytest
from hypothesis import strategies as st

from qviterbi import Gf2Matrix, builtin_code

# Reference data for the built-in codes, duplicated as literals so the tests
# do not trust the library's own enumeration.
CODESPACE_633 = [
    "000000", "001110", "010101", "100011",
    "011011", "110110", "101101", "111000",
]
MIN_WEIGHT_633 = ["001110", "010101", "100011", "111000"]
PARITY_633 = [
    [0, 1, 1, 1, 0, 0],
    [1, 0, 1, 0, 1, 0],
    [1, 1, 0, 0, 0, 1],
]

CODESPACE_321 = ["000", "010", "101", "111"]

CODESPACE_CONV = [
    "0000000000", "0000110111", "0011011100", "0011101011",
    "1101110000", "1101000111", "1110101100", "1110011011",
]
MIN_WEIGHT_CONV = ["0000110111", "0011011100", "1101110000"]

BUILTIN_NAMES = ["lbc_321", "lbc_633", "conv_r12_m2"]


@pytest.fixture(scope="session")
def lbc_633():
    return builtin_code("lbc_633")


@pytest.fixture(scope="session")
def lbc_321():
    return builtin_code("lbc_321")


@pytest.fixture(scope="session")
def conv_code():
    return builtin_code("conv_r12_m2")


@pytest.fixture(scope="session")
def all_builtins(lbc_321, lbc_633, conv_code):
    return {"lbc_321": lbc_321, "lbc_633": lbc_633, "conv_r12_m2": conv_code}


def reed_muller_1(m):
    points = range(1 << m)
    return [[1] * (1 << m)] + [[(x >> b) & 1 for x in points] for b in range(m)]


def cyclic_generator(poly, n):
    """Generator rows of the length-n cyclic code of ``poly``: its shifts, lowest degree first."""
    r = len(poly) - 1
    return [[0] * i + list(poly) + [0] * (n - r - 1 - i) for i in range(n - r)]


def _rank(rows):
    return Gf2Matrix.from_rows(rows).rref()[0].rows


@st.composite
def generators(draw, max_n=6):
    """Full-rank generator matrices, systematic or not, with n <= max_n."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        parity = draw(st.lists(st.lists(st.integers(0, 1), min_size=n - k, max_size=n - k),
                               min_size=k, max_size=k))
        return [[int(i == j) for j in range(k)] + parity[i] for i in range(k)]
    return draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=k, max_size=k)
                .filter(lambda rows: _rank(rows) == k))


def bit_array(matrix):
    """The entries of a ``Gf2Matrix`` as a (rows, cols) uint8 array, read off its row words."""
    bits = [[(w >> (matrix.cols - 1 - j)) & 1 for j in range(matrix.cols)] for w in matrix.words]
    return np.array(bits, dtype=np.uint8).reshape(matrix.rows, matrix.cols)


def span_words(rows):
    """Every XOR combination of the rows, as sorted bit strings."""
    span = {0}
    for row in rows:
        word = int("".join(map(str, row)), 2)
        span |= {w ^ word for w in span}
    return [format(w, f"0{len(rows[0])}b") for w in sorted(span)]
