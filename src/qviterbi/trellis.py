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

The decoder keeps only path metrics, one ``{state: metric}`` dict per time
point, and no survivor lists. The backtrack recovers the survivors from the
metrics: a branch lies on a minimum path exactly when its start metric plus
its label cost equals its end metric and its end state lies on one too.
"""
from __future__ import annotations

from dataclasses import dataclass

from .codes import BitVector, Code, span
from .errors import LengthError


@dataclass(frozen=True)
class Trellis:
    """Layered graph whose root-to-sink paths spell exactly the codewords.

    ``branch_layers[t]`` holds the branches of instant ``t`` as
    ``(from_state, label, to_state)`` int triples, ``label`` being the section's
    bits as an int; each branch occurs once, in no set order. States are ints;
    the paths start and end at state 0. Every branch lies on a codeword path,
    so every ``from_state`` is reachable from the root and every ``to_state``
    reaches the sink.
    """

    code: Code
    branch_bits: int
    branch_layers: tuple[tuple[tuple[int, int, int], ...], ...]

    @property
    def num_instants(self) -> int:
        return len(self.branch_layers)


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
    the section. The rows' branches are reduced to a basis of r_t <= k
    elements, and ``codes.span`` of each field of the basis lists the 2^r_t
    distinct branches once each: the work per section is proportional to its
    branch count. Each start state reuses the int object of the previous
    section's end state, so a layer holds no second int per branch. The
    build reads no codeword list, and the same steps serve every section
    width. The order of the branches within a layer is not part of the
    result.
    """
    b = code.branch_bits
    mask = (1 << b) - 1
    # columns[j] is H's column at bit j of a word (bit 0 rightmost), as a
    # syndrome with the first check row most significant.
    columns = [0] * code.n
    rows = code.parity_check.words
    r = len(rows)
    for i, row in enumerate(rows):
        check = 1 << (r - 1 - i)
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= check
            row ^= low
    generator = code.generator.words
    partial = [0] * code.k  # each generator row's partial syndrome at the current cut
    states = {0: 0}  # the one int object kept for each state at the current cut
    branch_layers = []
    for shift in range(code.n - b, -1, -b):
        before = partial
        for j in range(shift, shift + b):
            partial = [s ^ columns[j] if (g >> j) & 1 else s for s, g in zip(partial, generator)]
        # Each row's branch packed as one int, reduced against the basis so far:
        # an appended element has every earlier element's leading bit cleared,
        # so the leading bits differ and the basis spans each branch once.
        basis = []
        for frm, g, to in zip(before, generator, partial):
            x = (frm << b | (g >> shift) & mask) << r | to
            for y in basis:
                x = min(x, x ^ y)
            if x:
                basis.append(x)
        # Every start state is an end state of the previous section.
        froms = list(map(states.__getitem__, span([x >> (b + r) for x in basis])))
        labels = span([(x >> r) & mask for x in basis])
        tos = span([x & ((1 << r) - 1) for x in basis])
        states = dict(zip(tos, tos))
        # Through a list, so the tuple is made at its final size. ``tuple(zip())``
        # grows a guessed size by resizing, and CPython then parks the freed
        # layers on its per-size tuple free lists, which the next build does
        # not draw from: up to 0.5 MB kept over a run of decode requests.
        branch_layers.append(tuple(list(zip(froms, labels, tos))))
    return Trellis(code, b, tuple(branch_layers))


def viterbi_decode(trellis: Trellis, received: BitVector) -> DecodeResult:
    """Minimum-path-metric decoding over the trellis, keeping all ties.

    The forward pass is add-compare-select on metrics alone. The backtrack walks
    from the sink to the root and keeps a branch ``(frm, label, to)`` when
    ``to`` lies on a minimum path and ``metric[frm]`` plus the label's Hamming
    distance to the received section equals ``metric[to]``. It carries each
    kept state's codeword suffixes, so every tied codeword is returned, in
    ascending order, without recursion.
    """
    code = trellis.code
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    b = trellis.branch_bits
    r = received.to_index()
    chunks = [(r >> (code.n - (t + 1) * b)) & ((1 << b) - 1) for t in range(trellis.num_instants)]

    # Every branch's ``frm`` lies on a codeword path, so it always has a metric.
    metrics: list[dict[int, int]] = [{0: 0}]
    for branches, chunk in zip(trellis.branch_layers, chunks):
        before = metrics[-1]
        after: dict[int, int] = {}
        for frm, label, to in branches:
            metric = before[frm] + (label ^ chunk).bit_count()
            if to not in after or metric < after[to]:
                after[to] = metric
        metrics.append(after)

    suffixes = {0: [0]}
    for t in range(trellis.num_instants - 1, -1, -1):
        before, after, chunk = metrics[t], metrics[t + 1], chunks[t]
        shift = code.n - (t + 1) * b
        kept: dict[int, list[int]] = {}
        for frm, label, to in trellis.branch_layers[t]:
            if to in suffixes and before[frm] + (label ^ chunk).bit_count() == after[to]:
                head = label << shift
                kept.setdefault(frm, []).extend(head | s for s in suffixes[to])
        suffixes = kept
    words = sorted(suffixes[0])
    return DecodeResult(metrics[-1][0], tuple(BitVector(code.n, w) for w in words))


def ml_brute_force(code: Code, received: BitVector) -> DecodeResult:
    """Exhaustive distance scan over the codewords; independent of the trellis."""
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    r = received.to_index()
    metrics = [(w ^ r).bit_count() for w in code.codewords]
    best_metric = min(metrics)
    best = tuple(BitVector(code.n, w) for w, m in zip(code.codewords, metrics) if m == best_metric)
    return DecodeResult(best_metric, best)
