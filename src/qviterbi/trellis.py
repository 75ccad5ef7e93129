"""The syndrome trellis of a code and the classical minimum-path-metric decoder.

One construction serves every code, block or terminated convolutional, and
every section width: it reads only the code's generator and parity-check
rows. A section's branch (state before, label, state after) is linear in the
message, so its distinct branches are the XOR span of a basis of the
generator rows' own branches, and each section costs work equal to its branch
count, not to the 2^k messages (Wolf, IEEE T-IT 1978; McEliece, IEEE T-IT
1996). ``ml_brute_force`` reads the codeword list, so the two oracles share
no decoding code. This is the exact classical reference that every
variational decode is checked against. Ties are never broken: the decoder
returns all codewords attaining the minimum metric.

A section is stored by index, not by state: ``codes.span`` of the basis lists
the branches so that the branches into one end state form one aligned block,
and each start state is named by its position among the previous section's
end states. The decoder keeps only path metrics, one list per cut indexed by
state position, and no survivor lists. Its forward pass adds the label costs
to a whole section at once and takes the minimum of each block by pairwise
rounds. The backtrack recovers the survivors from the metrics: it scans only
the blocks of the states on a minimum path, and keeps a branch exactly when
its path metric equals its end state's metric.
"""
from __future__ import annotations

from dataclasses import dataclass

from .codes import BitVector, Code, span
from .errors import LengthError


@dataclass(frozen=True)
class Trellis:
    """Layered graph whose root-to-sink paths spell exactly the codewords.

    ``sections[t]`` is ``(froms, labels, j)`` for instant ``t``: branch ``x``
    starts at the state in position ``froms[x]`` of the cut before the section
    and carries the section's bits ``labels[x]`` as an int. The branches into
    the end state in position ``i`` are exactly the aligned block ``x = i *
    2^j ... (i + 1) * 2^j - 1``, so a section with ``len(froms) >> j`` end
    states merges ``2^j`` branches into each. Each branch occurs once. The
    cuts at both ends hold the one state 0, in position 0. Every branch lies
    on a codeword path, so every start position is an end state of the
    previous section and every end state reaches the sink.
    """

    code: Code
    sections: tuple[tuple[list[int], list[int], int], ...]


@dataclass(frozen=True)
class DecodeResult:
    best_metric: int
    best_codewords: tuple[BitVector, ...]


def build_trellis(code: Code) -> Trellis:
    """Build the syndrome trellis of ``code`` from its generator and parity-check rows.

    The word is cut into sections of ``code.branch_bits`` bits. The state at a
    cut is the partial syndrome H c of the codeword's bits before the cut
    (the later bits set to zero), so every codeword traces one path from
    state 0 back to state 0, and only the branches of codeword paths are
    built. Any path from 0 to 0 spells a word with zero syndrome, which is a
    codeword, so the paths are exactly the codewords.

    A codeword's branch in a section, (partial syndrome before, section bits,
    partial syndrome after), is linear in its message, so the section's
    branches are the XOR span of the generator rows' branches. Each row's
    partial syndrome moves from cut to cut by H's columns at the row's bits in
    the section. Each row's branch is packed as one int, end state most
    significant, and the rows are reduced to a basis of r_t <= k elements.
    The j elements whose end state is 0 (the merges) go last: ``codes.span``
    makes them the low j bits of a branch's index, so the branches into one
    end state are one aligned block of 2^j, and the end state of block i is
    the span of the other elements' end states at i. A state's position in
    that order is GF(2)-linear in the state, so each start position is the
    span of the basis elements' start positions, each found by reducing the
    start state against the previous cut's basis in at most k steps. A
    section spans two lists of its 2^r_t branches and no end states; it reads
    no codeword list, keeps no table over states or labels, and the same
    steps serve every section width.
    """
    b = code.branch_bits
    mask = (1 << b) - 1
    # columns[bit] is H's column at that bit of a word (bit 0 rightmost), as a
    # syndrome with the first check row most significant.
    columns = [0] * code.n
    rows = code.parity_check
    r = len(rows)
    for i, row in enumerate(rows):
        check = 1 << (r - 1 - i)
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= check
            row ^= low
    generator = code.generator
    partial = [0] * code.k  # each generator row's partial syndrome at the current cut
    # A basis of the current cut's states, each packed above the bit it sets
    # in a state's position: a state packed above zero and reduced against it
    # leaves the state's position.
    cut: list[int] = []
    sections = []
    for shift in range(code.n - b, -1, -b):
        before = partial
        for bit in range(shift, shift + b):
            partial = [s ^ columns[bit] if (g >> bit) & 1 else s for s, g in zip(partial, generator)]
        # Each row's branch packed as one int, reduced against the basis so far:
        # an appended element has every earlier element's leading bit cleared,
        # so the leading bits differ and the basis spans each branch once.
        basis = []
        for frm, g, to in zip(before, generator, partial):
            x = (to << r | frm) << b | (g >> shift) & mask
            for y in basis:
                x = min(x, x ^ y)
            if x:
                basis.append(x)
        # The merges, whose end state is 0, go last. The splits keep their
        # basis order, so their end states have distinct leading bits, each
        # cleared in every later one.
        splits = [x for x in basis if x >> (r + b)]
        merges = [x for x in basis if not x >> (r + b)]
        basis = splits + merges
        positions = []
        for x in basis:
            p = (x >> b & ((1 << r) - 1)) << len(cut)
            for y in cut:
                p = min(p, p ^ y)
            positions.append(p)
        m = len(splits)
        cut = [(x >> (r + b)) << m | 1 << (m - 1 - q) for q, x in enumerate(splits)]
        sections.append((span(positions), span([x & mask for x in basis]), len(merges)))
    return Trellis(code, tuple(sections))


def viterbi_decode(trellis: Trellis, received: BitVector) -> DecodeResult:
    """Minimum-path-metric decoding over the trellis, keeping all ties.

    The forward pass is add-compare-select on metrics alone, a whole section
    at a time: each branch's path metric is its start state's metric plus the
    label's Hamming distance to the received section, and j rounds of pairwise
    minima reduce each aligned block of 2^j to its end state's metric. The
    backtrack walks from the sink to the root. For each end state on a minimum
    path it scans only that state's block, and keeps a branch whose path
    metric equals the state's metric. It carries each kept state's codeword
    suffixes, so every tied codeword is returned, in ascending order, without
    recursion.
    """
    code = trellis.code
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    b = code.branch_bits
    r = received.to_index()
    mask = (1 << b) - 1

    # Every ``froms`` entry is a position in the previous cut, so it always has a metric.
    metrics = [0]
    history = []
    for (froms, labels, j), shift in zip(trellis.sections, range(code.n - b, -1, -b)):
        chunk = (r >> shift) & mask
        paths = [metrics[f] + (label ^ chunk).bit_count() for f, label in zip(froms, labels)]
        history.append((froms, labels, j, shift, paths, metrics))
        metrics = paths
        for _ in range(j):
            metrics = [x if x < y else y for x, y in zip(metrics[::2], metrics[1::2])]
    best = metrics[0]

    suffixes = {0: [0]}
    for froms, labels, j, shift, paths, before in reversed(history):
        kept: dict[int, list[int]] = {}
        for i, tails in suffixes.items():
            target = metrics[i]
            for x in range(i << j, (i + 1) << j):
                if paths[x] == target:
                    head = labels[x] << shift
                    kept.setdefault(froms[x], []).extend(head | s for s in tails)
        suffixes, metrics = kept, before
    words = sorted(suffixes[0])
    return DecodeResult(best, tuple(BitVector(code.n, w) for w in words))


def ml_brute_force(code: Code, received: BitVector) -> DecodeResult:
    """Exhaustive distance scan over the codewords; independent of the trellis."""
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    r = received.to_index()
    metrics = [(w ^ r).bit_count() for w in code.codewords]
    best_metric = min(metrics)
    best = tuple(BitVector(code.n, w) for w, m in zip(code.codewords, metrics) if m == best_metric)
    return DecodeResult(best_metric, best)
