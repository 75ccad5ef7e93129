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
class Branch:
    time: int
    from_state: int
    bits: tuple[int, ...]
    to_state: int


@dataclass(frozen=True)
class Trellis:
    """Layered graph whose root-to-sink paths spell exactly the codewords.

    ``node_layers`` has one entry per time point (num_instants + 1 layers);
    ``branch_layers[t]`` holds the surviving branches of instant ``t``. State
    labels are integers; the first and last layers contain only state 0.
    """

    code: Code
    branch_bits: int
    node_layers: tuple[tuple[int, ...], ...]
    branch_layers: tuple[tuple[Branch, ...], ...]

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
            for br in branches:
                if br.from_state in counts:
                    nxt[br.to_state] = nxt.get(br.to_state, 0) + counts[br.from_state]
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
    check_rows = [code.parity_check.row(i).to_index() for i in range(code.parity_check.rows)]

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
        bits = {v: BitVector.from_index(v, b).bits for v in step}
        nxt = [s ^ step[v] for s, v in zip(states, labels)]
        branch_layers.append(tuple(Branch(t, s, bits[v], to) for s, v, to in set(zip(states, labels, nxt))))
        node_layers.append(tuple(sorted(set(nxt))))
        states = nxt
    return Trellis(code, b, tuple(node_layers), tuple(branch_layers))


def viterbi_decode(trellis: Trellis, received: BitVector) -> DecodeResult:
    """Minimum-path-metric decoding over the trellis, keeping all ties."""
    code = trellis.code
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    b = trellis.branch_bits
    chunks = [received.bits[t * b : (t + 1) * b] for t in range(trellis.num_instants)]

    dist: dict[int, int] = {0: 0}
    preds: list[dict[int, list[Branch]]] = []
    for t, branches in enumerate(trellis.branch_layers):
        ndist: dict[int, int] = {}
        npred: dict[int, list[Branch]] = {}
        for br in branches:
            if br.from_state not in dist:
                continue
            metric = dist[br.from_state] + sum(x != y for x, y in zip(br.bits, chunks[t]))
            if br.to_state not in ndist or metric < ndist[br.to_state]:
                ndist[br.to_state] = metric
                npred[br.to_state] = [br]
            elif metric == ndist[br.to_state]:
                npred[br.to_state].append(br)
        dist = ndist
        preds.append(npred)

    best_metric = dist[0]
    paths: list[tuple[int, ...]] = []
    # Backtrack every tied survivor with an explicit stack: the depth is not
    # bounded by Python's recursion limit, and no self-referencing closure keeps
    # ``preds`` alive until the cycle collector runs.
    stack = [(trellis.num_instants, 0, ())]
    while stack:
        t, state, suffix = stack.pop()
        if t == 0:
            paths.append(suffix)
        else:
            stack.extend((t - 1, br.from_state, br.bits + suffix) for br in preds[t - 1][state])
    return DecodeResult(best_metric, tuple(sorted(BitVector(p) for p in paths)))


def ml_brute_force(code: Code, received: BitVector) -> DecodeResult:
    """Exhaustive distance scan over the codewords; independent of the trellis."""
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    r = received.to_index()
    metrics = [(w ^ r).bit_count() for w in code.codewords]
    best_metric = min(metrics)
    best = tuple(BitVector.from_index(w, code.n) for w, m in zip(code.codewords, metrics) if m == best_metric)
    return DecodeResult(best_metric, best)
