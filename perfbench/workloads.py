"""Seeded inputs for the qviterbi benchmark: codes, received words, requests.

Every code is built here from a generator polynomial or matrix, or, for the
convolutional codes, from an explicit codeword list, and its n, k and d are
checked by this module's own numpy enumeration before anything reaches the
library. The built-in codes are passed to the CLI by name; this module keeps
literal copies of them so the oracle never reads the library's tables.

A workload is a fixed cycle of request templates (code, command, strategy,
p, ...). The seed draws only the contents: which codeword is sent, which
positions flip and the CLI seed. Every run of a workload therefore walks the
same mix of request shapes in the same order, which keeps run-to-run spread
down to the variation of the inputs themselves.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import zlib
from dataclasses import dataclass
from itertools import product

import numpy as np

# Generator polynomials, lowest degree first.
_POLY_HAMMING7 = [1, 1, 0, 1]  # 1 + x + x^3
_POLY_HAMMING15 = [1, 1, 0, 0, 1]  # 1 + x + x^4
_POLY_BCH15 = [1, 0, 0, 0, 1, 0, 1, 1, 1]  # 1 + x^4 + x^6 + x^7 + x^8
_POLY_GOLAY23 = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]  # 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11


def cyclic_generator(poly: list[int], n: int) -> list[list[int]]:
    """k = n - deg(g) shifted copies of the generator polynomial."""
    r = len(poly) - 1
    return [[0] * i + list(poly) + [0] * (n - r - 1 - i) for i in range(n - r)]


def reed_muller_1(m: int) -> list[list[int]]:
    """RM(1, m): the all-ones row plus one row per coordinate of F_2^m."""
    points = range(1 << m)
    return [[1] * (1 << m)] + [[(x >> b) & 1 for x in points] for b in range(m)]


def extend_with_parity(rows: list[list[int]]) -> list[list[int]]:
    return [r + [sum(r) & 1] for r in rows]


def conv75_codewords(info_bits: int) -> list[str]:
    """Rate-1/2 (7,5) convolutional code, zero-terminated after 2 tail bits."""
    words = []
    for msg in range(1 << info_bits):
        s1 = s2 = 0
        out = []
        for t in range(info_bits + 2):
            u = (msg >> (info_bits - 1 - t)) & 1 if t < info_bits else 0
            out += [u ^ s1 ^ s2, u ^ s2]
            s1, s2 = u, s1
        words.append("".join(map(str, out)))
    return words


# name -> (CLI spec or None for a built-in, literal description, (n, k, d)).
# The literal description is what this module enumerates itself.
def _specs() -> dict[str, tuple[dict | None, dict, tuple[int, int, int]]]:
    golay23 = cyclic_generator(_POLY_GOLAY23, 23)
    table = {
        "hamming7": ({"generator": cyclic_generator(_POLY_HAMMING7, 7)}, (7, 4, 3)),
        "hamming15": ({"generator": cyclic_generator(_POLY_HAMMING15, 15)}, (15, 11, 3)),
        "bch15": ({"generator": cyclic_generator(_POLY_BCH15, 15)}, (15, 7, 5)),
        "rm16": ({"generator": reed_muller_1(4)}, (16, 5, 8)),
        "golay23": ({"generator": golay23}, (23, 12, 7)),
        "golay24": ({"generator": extend_with_parity(golay23)}, (24, 12, 8)),
        "conv16": ({"codewords": conv75_codewords(6), "branch_bits": 2}, (16, 6, 5)),
        "conv20": ({"codewords": conv75_codewords(8), "branch_bits": 2}, (20, 8, 5)),
    }
    specs = {name: ({"name": name, **body}, body, nkd) for name, (body, nkd) in table.items()}
    # Literal copies of the library's built-in codes.
    specs["lbc_633"] = (None, {"generator": [[1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 1, 0]]},
                        (6, 3, 3))
    specs["lbc_321"] = (None, {"generator": [[0, 1, 0], [1, 0, 1]]}, (3, 2, 1))
    specs["conv_r12_m2"] = (None, {"codewords": [
        "0000000000", "0000110111", "0011011100", "0011101011",
        "1101110000", "1101000111", "1110101100", "1110011011",
    ]}, (10, 3, 5))
    return specs


SPECS = _specs()
BUILTINS = ("lbc_633", "lbc_321", "conv_r12_m2")


def gf2_rref(mat: np.ndarray) -> np.ndarray:
    """Reduced row-echelon form over GF(2), zero rows dropped."""
    a = np.array(mat, dtype=np.uint8) & 1
    r = 0
    for c in range(a.shape[1]):
        hits = np.flatnonzero(a[r:, c])
        if hits.size == 0:
            continue
        a[[r, r + hits[0]]] = a[[r + hits[0], r]]
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        a[others] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return a[:r]


def _rows_to_ints(rows: np.ndarray) -> np.ndarray:
    weights = 1 << np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    return rows.astype(np.int64) @ weights


@dataclass(frozen=True)
class CodeInfo:
    """What the benchmark knows about a code from its own enumeration."""

    name: str
    source: str  # the --code argument: a built-in name or a JSON path
    n: int
    k: int
    d: int
    codewords: np.ndarray  # int64, leftmost bit most significant
    min_weight_count: int  # mixer terms
    prep_gates: int  # H + CX gates of the gate-built codespace preparation

    @property
    def radius(self) -> int:
        return (self.d - 1) // 2


def popcount(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    counts = np.zeros(v.shape, dtype=np.int64)
    while np.any(v):
        counts += (v & np.uint64(1)).astype(np.int64)
        v = v >> np.uint64(1)
    return counts


def analyse(name: str, source: str) -> CodeInfo:
    """Enumerate a code with numpy and check its declared n, k and d."""
    _, literal, (n_exp, k_exp, d_exp) = SPECS[name]
    if "generator" in literal:
        gen = np.array(literal["generator"], dtype=np.uint8)
    else:
        gen = np.array([[int(c) for c in w] for w in literal["codewords"]], dtype=np.uint8)
    basis = gf2_rref(gen)
    k, n = basis.shape
    msgs = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    words = np.unique(_rows_to_ints((msgs @ basis) & 1))
    if "codewords" in literal:
        listed = np.unique(_rows_to_ints(gen))
        if listed.size != len(literal["codewords"]) or not np.array_equal(listed, words):
            raise ValueError(f"{name}: codeword list is not a linear code")
    weights = popcount(words)
    d = int(weights[weights > 0].min())
    if (n, k, d) != (n_exp, k_exp, d_exp) or words.size != 1 << k:
        raise ValueError(f"{name}: enumerated [{n},{k},{d}], expected [{n_exp},{k_exp},{d_exp}]")
    prep_gates = int(basis.sum())  # one H per pivot, one CX per other set bit
    return CodeInfo(name, source, n, k, d, words, int(np.sum(weights == d)), prep_gates)


@dataclass(frozen=True)
class Template:
    """The fixed shape of one request slot in a workload's cycle."""

    code: str
    command: str = "decode"
    strategy: str = "upo"
    p: int = 1
    q: int = 1
    mode: str = "exact"
    shots: int = 2000


def _templates(codes, strategies=("upo",), ps=(1,), q=1, mode="exact", shots=2000, command="decode"):
    templates = [Template(c, command, s, p, q, mode, shots) for p, s, c in product(ps, strategies, codes)]
    # One fixed order, the same for every seed, that spreads the heavy
    # templates through the cycle: where a run's time limit cuts the cycle
    # then matters little.
    random.Random(0).shuffle(templates)
    return templates


# Why each workload exists is written up in perfbench/README.md.
WORKLOADS: dict[str, list[Template]] = {
    "decode_small": _templates(("lbc_633", "lbc_321", "conv_r12_m2", "hamming7"),
                               strategies=("upo", "fpo", "random"), ps=(1, 2, 3), q=2),
    # Hamming [15,11,3] twice, so that the median request falls inside one
    # code's latency cluster rather than between two.
    "decode_wide": _templates(("bch15", "hamming15", "hamming15", "conv16", "rm16")),
    "decode_sampled": _templates(("lbc_633", "lbc_321", "conv_r12_m2"),
                                 strategies=("upo", "fpo"), ps=(1, 2), mode="sampled", shots=256),
    "oracle_bulk": _templates(("golay23", "golay24", "hamming15", "conv20") + BUILTINS, command="oracle"),
}

# Request slots per run; a run that uses them all starts over from the first.
REQUESTS_PER_RUN = 4000


@dataclass(frozen=True)
class Request:
    index: int
    template: Template
    received: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Inputs:
    codes: dict[str, CodeInfo]
    requests: tuple[Request, ...]
    input_hash: str


def write_code_files(names, outdir: str) -> dict[str, str]:
    """Write each non-built-in code as a code-JSON file; return its --code source."""
    os.makedirs(outdir, exist_ok=True)
    sources = {}
    for name in names:
        cli_spec = SPECS[name][0]
        if cli_spec is None:
            sources[name] = name
            continue
        path = os.path.join(outdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cli_spec, fh, sort_keys=True)
        sources[name] = path
    return sources


def make_inputs(workload: str, seed: int, outdir: str) -> Inputs:
    """All inputs of one run: the same workload and seed give the same inputs."""
    templates = WORKLOADS[workload]
    names = list(dict.fromkeys(t.code for t in templates))
    sources = write_code_files(names, outdir)
    codes = {name: analyse(name, sources[name]) for name in names}
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    requests = []
    for i in range(REQUESTS_PER_RUN):
        tpl = templates[i % len(templates)]
        info = codes[tpl.code]
        # Flip counts cycle 0 .. radius+1, shifted by one each pass through the
        # templates, so every code gets words beyond its correction radius, and
        # codes that are not perfect get Viterbi ties.
        flips = (i + i // len(templates)) % (info.radius + 2)
        word = int(info.codewords[rng.integers(info.codewords.size)])
        for pos in rng.choice(info.n, size=flips, replace=False):
            word ^= 1 << int(pos)
        received = format(word, f"0{info.n}b")
        argv = [tpl.command, "--code", info.source, "--received", received]
        if tpl.command == "decode":
            argv += ["--strategy", tpl.strategy, "--p", str(tpl.p), "--q", str(tpl.q),
                     "--mode", tpl.mode, "--shots", str(tpl.shots),
                     "--seed", str(int(rng.integers(1 << 31)))]
        requests.append(Request(i, tpl, received, tuple(argv)))
    digest = hashlib.sha256()
    for name in names:
        digest.update(json.dumps([name, SPECS[name][1]], sort_keys=True).encode())
    for req in requests:
        digest.update("\0".join(req.argv[:1] + req.argv[3:]).encode())
    return Inputs(codes, tuple(requests), digest.hexdigest())
