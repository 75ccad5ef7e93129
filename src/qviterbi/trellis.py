"""The syndrome trellis of a code and the classical minimum-path-metric decoder.

One construction serves every code, block or terminated convolutional: it reads
the code's codeword list and parity-check matrix. This is the exact classical
reference that every variational decode is checked against. Ties are never
broken: the decoder returns all codewords attaining the minimum metric.
"""
from __future__ import annotations

from dataclasses import dataclass

from .codes import BitVector, Code
from .errors import LengthError


@dataclass(frozen=True)
class Trellis:
    """Layered graph whose root-to-sink paths spell exactly the codewords.

    ``node_layers`` has one entry per time point (num_instants + 1 layers);
    ``branch_layers[t]`` holds the surviving branches of instant ``t`` as
    ``(from_state, label, to_state)`` int triples, ``label`` being the section's
    bits as an int. States are ints; the first and last layers hold only state 0.
    """

    code: Code
    branch_bits: int
    node_layers: tuple[tuple[int, ...], ...]
    branch_layers: tuple[tuple[tuple[int, int, int], ...], ...]

    @property
    def num_instants(self) -> int:
        return len(self.branch_layers)

    @property
    def depth(self) -> int:
        return len(self.node_layers)

    def path_count(self) -> int:
        """Number of root-to-sink paths, by forward dynamic programming."""
        counts = {0: 1}
        for branches in self.branch_layers:
            nxt: dict[int, int] = {}
            for frm, _, to in branches:
                if frm in counts:
                    nxt[to] = nxt.get(to, 0) + counts[frm]
            counts = nxt
        return counts.get(0, 0)


@dataclass(frozen=True)
class DecodeResult:
    best_metric: int
    best_codewords: tuple[BitVector, ...]


def build_trellis(code: Code) -> Trellis:
    """Build the syndrome trellis of ``code`` from its codewords.

    The word is cut into sections of ``code.branch_bits`` bits. The state at a
    cut is the partial syndrome H c of the codeword's bits before the cut
    (the later bits set to zero), so every codeword traces one path from
    state 0 back to state 0, and only the branches of codeword paths are
    built. Any path from 0 to 0 spells a word with zero syndrome, which is a
    codeword, so the paths are exactly the codewords.
    """
    b = code.branch_bits
    check_rows = code.parity_check.words

    def syndrome(word: int) -> int:
        s = 0
        for row in check_rows:
            s = (s << 1) | ((row & word).bit_count() & 1)
        return s

    states = [0] * len(code.codewords)
    node_layers = [(0,)]
    branch_layers = []
    for t in range(code.n // b):
        shift = code.n - (t + 1) * b
        labels = [(w >> shift) & ((1 << b) - 1) for w in code.codewords]
        step = {v: syndrome(v << shift) for v in set(labels)}
        nxt = [s ^ step[v] for s, v in zip(states, labels)]
        branch_layers.append(tuple(set(zip(states, labels, nxt))))
        node_layers.append(tuple(sorted(set(nxt))))
        states = nxt
    return Trellis(code, b, tuple(node_layers), tuple(branch_layers))


def viterbi_decode(trellis: Trellis, received: BitVector) -> DecodeResult:
    """Minimum-path-metric decoding over the trellis, keeping all ties."""
    code = trellis.code
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    b = trellis.branch_bits
    r = received.to_index()
    chunks = [(r >> (code.n - (t + 1) * b)) & ((1 << b) - 1) for t in range(trellis.num_instants)]

    dist: dict[int, int] = {0: 0}
    preds: list[dict[int, list[tuple[int, int]]]] = []
    for branches, chunk in zip(trellis.branch_layers, chunks):
        ndist: dict[int, int] = {}
        npred: dict[int, list[tuple[int, int]]] = {}
        for frm, label, to in branches:
            if frm not in dist:
                continue
            metric = dist[frm] + (label ^ chunk).bit_count()
            if to not in ndist or metric < ndist[to]:
                ndist[to] = metric
                npred[to] = [(frm, label)]
            elif metric == ndist[to]:
                npred[to].append((frm, label))
        dist = ndist
        preds.append(npred)

    best_metric = dist[0]
    words: list[int] = []
    # Backtrack every tied survivor with an explicit stack: the depth is not
    # bounded by Python's recursion limit, and no self-referencing closure keeps
    # ``preds`` alive until the cycle collector runs.
    stack = [(trellis.num_instants, 0, 0)]
    while stack:
        t, state, suffix = stack.pop()
        if t == 0:
            words.append(suffix)
        else:
            shift = code.n - t * b
            stack.extend((t - 1, frm, suffix | (label << shift)) for frm, label in preds[t - 1][state])
    return DecodeResult(best_metric, tuple(BitVector(code.n, w) for w in sorted(words)))


def ml_brute_force(code: Code, received: BitVector) -> DecodeResult:
    """Exhaustive distance scan over the codewords; independent of the trellis."""
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    r = received.to_index()
    metrics = [(w ^ r).bit_count() for w in code.codewords]
    best_metric = min(metrics)
    best = tuple(BitVector(code.n, w) for w, m in zip(code.codewords, metrics) if m == best_metric)
    return DecodeResult(best_metric, best)
