"""Reducing Shrikhande coordinates to pairs of K4 coordinates.

The 16 maximum independent sets of the Shrikhande graph can be matched with
16 of the 24 maximum independent sets of K4 x K4 so that two Shrikhande
codes intersect exactly when their partners do.  Applying that table
fiberwise at the last Shrikhande coordinate turns a code of D(m+1,n) into a
code of D(m,n+2); iterating eliminates all Shrikhande coordinates and lands
in a Hamming graph.  The table is not unique, so the canonical one here is
the lexicographically least valid assignment under the canonical orderings
of both code lists, and every reduction applies it.  Both lists are the
independent 4-sets of their graph, Sh and K4 x K4, in lexicographic order
of their members (graphs.independent_sets_of_size), so no search runs.
The end result of the iteration can depend on the order in which
Shrikhande coordinates are consumed; the order is therefore an explicit
argument.

The reduction works on the code's mask, an int.  Vertex (prefix, s, suffix)
of D(m,n) and vertex (prefix, z, suffix) of D(m-1,n+2) have the same index
when s = z, so each fiber's partner goes into the same bits of the output.
A step from D(m,k) reads the mask a slice at a time, as a table key: the
slice at offset o is mask >> o & selector, and its image goes back in as
out |= table[key] << o.  The last Shrikhande digit s is index bits
2k..2k+3, so a fiber is 16 bits at stride 4^k.  For k >= 1 a slice is the
four fibers along one line of the last K4 coordinate, the one of stride 1:
16 nibbles at stride 4^k, nibble s holding bit t for the fiber whose last
K4 value is t.  Its table holds the 240 ordered quadruples of pairwise
disjoint Shrikhande codes laid out that way, each mapped to its partners
laid out the same way.  For k = 0 a fiber is a 16-bit word and a slice is
two adjacent words, looked up among the 256 pairs of Shrikhande codes;
D(1,0), a single word, is looked up among the 16 single codes in the same
table.  Both words of a pair key are nonzero, so it is at least 2^16 and
above every single key.  The k = 0 step of D(m,0), m >= 2, reads all its
pair keys at once: the mask's bytes unpack, by one struct, to its 32-bit
words, the words map through the table, and one pack writes the images
back, so that step is linear in the mask.  All m steps of a full
reduction run inline on the int, from one plan per (m, n) that binds each
step's table, selector and offsets (or the word struct) and the K4 lines
the input is checked on, and one Code is built at the end.  The pairing
owns everything derived from it: its slice tables, one per k, and its
plans, one per (m, n), are built on first use and kept on the
PairingTable, and a reduction reads derive_pairing().plan(m, n).  So
derive_pairing.cache_clear, which functools provides and nothing wraps,
drops the pairing with its tables and plans, and the next reduction
rebuilds all three.  An explicit order first permutes the Shrikhande
coordinates of the input's mask: that permutes 4-bit groups of index bits
(graphs._slots gives each group's place), which delta swaps do, each
exchanging two index bits.

The lookups are reduce_sh_coordinates' check of its input.  A code whose
every lookup succeeds, and which meets every line of its K4 directions of
stride above 1, is a maximum independent set: each step finds a Shrikhande
code in every fiber, so the code has no edge along that coordinate, and the
last step gives it code_size members; the table preserves meeting, so a
step keeps or removes no edge along any other coordinate; a quadruple's
fibers are disjoint, so a first step with k = n >= 1 finds one member on
each line of the stride-1 direction; and code_size members meeting every K4
line of a direction hold one on each, so no K4 edge joins two.  The lines of
the other K4 directions are part of the plan, read off codes._line_cover
when the plan is resolved.  A maximum independent set passes all of this,
so on any other input a lookup fails or a line is missed, and the input's
assert_mds names the fault.  Under an
explicit order the steps read a permuted copy of the mask, which is a
maximum independent set exactly when the input is (permuting Shrikhande
coordinates is an automorphism), and the message still names the input's
members.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from struct import Struct
from typing import Optional, Sequence

from .codes import Code, _line_cover, _mds_by_line_cover
from .errors import ConsistencyError
from .graphs import (
    DoobParams,
    _delta_swaps,
    _FrozenRecord,
    _slots,
    _swap_index_bits,
    doob_graph,
    independent_sets_of_size,
    shrikhande,
)


@lru_cache(maxsize=None)
def sh_codes() -> tuple[Code, ...]:
    """The 16 maximum independent sets of the Shrikhande graph, canonical order."""
    params = DoobParams(1, 0)
    return tuple(Code(params, members) for members in independent_sets_of_size(shrikhande(), 4))


@lru_cache(maxsize=None)
def k4_pair_codes() -> tuple[Code, ...]:
    """The 24 maximum independent sets of K4 x K4, canonical order."""
    params = DoobParams(0, 2)
    rows = doob_graph(params)
    return tuple(Code(params, members) for members in independent_sets_of_size(rows, 4))


class PairingTable(_FrozenRecord):
    """Intersection-preserving matching of Shrikhande codes with K4-pair codes.

    domain[i] and image[i] are partners; two domain codes intersect iff the
    corresponding image codes do.
    """

    domain: tuple[Code, ...]
    image: tuple[Code, ...]

    @cached_property
    def _slice_tables(self) -> dict[int, dict[int, int]]:
        return {}

    @cached_property
    def _plans(self) -> dict[tuple[int, int], tuple]:
        return {}

    def slice_table(self, k: int) -> dict[int, int]:
        """The reduction's slice table for the last Shrikhande coordinate of
        D(m,k), built on first use and kept on this pairing.

        Bit s of a Shrikhande code's mask is vertex s, and bit z = 4a + b of
        a K4-pair code's is the pair of K4 values (a, b).  For k = 0 the keys
        are the 16 domain masks and the 256 pairs lo | hi << 16 of them, each
        mapped to its partners' masks laid out the same way.  For k >= 1 they
        are the 240 ordered quadruples of pairwise disjoint domain codes,
        code t with its bit s moved to bit 4^k * s + t, each mapped to its
        partners moved the same way.
        """
        tables = self._slice_tables
        if k not in tables:
            words = [(dom.mask, img.mask) for dom, img in zip(self.domain, self.image)]
            if k == 0:
                table = dict(words)
                table.update(
                    (lo | hi << 16, low_image | high_image << 16)
                    for lo, low_image in words
                    for hi, high_image in words
                )
            else:
                stride = 4**k
                spread = [(w, _spread(w, stride), _spread(img, stride)) for w, img in words]
                rows = [(0, 0, 0)]  # (vertices used, key, image) of the fibers so far
                for t in range(4):
                    rows = [
                        (used | w, key | w_spread << t, image | img_spread << t)
                        for used, key, image in rows
                        for w, w_spread, img_spread in spread
                        if not used & w
                    ]
                table = {key: image for _, key, image in rows}
            tables[k] = table
        return tables[k]

    def __reduce__(self):
        # The slice tables and plans are derived, and a plan's struct does
        # not pickle: a copy is the fields alone and builds its own.
        return type(self), (self.domain, self.image)

    def plan(self, m: int, n: int) -> tuple:
        """(words, steps, lines, target) for reducing codes of D(m,n), m >= 1,
        over this pairing's slice tables, resolved on first use and kept on
        this pairing.

        words is (layout, table) for the first step of D(m,0), m >= 2, whose
        slices are the 32-bit words of the mask: layout is the struct of
        those words, little-endian, and table the k = 0 slice table;
        otherwise None.  Each remaining step from D(m-i, k), k = n + 2i, is
        (table, selector, offsets): its slice table, the bits of a slice at
        offset 0, and the offsets of the slices, which tile the index bits.
        D(1,0)'s one word is one such slice.  lines is the line cover kernel
        (codes._line_cover) of the K4 directions past the stride-1 one, with
        no shifts: what a reduction checks of its input besides its lookups.
        target is D(0, n + 2m), the parameters of the result.
        """
        plan = self._plans.get((m, n))
        if plan is not None:
            return plan
        vertex_count = DoobParams(m, n).vertex_count
        words, steps = None, []
        for step in range(m):
            k = n + 2 * step
            table = self.slice_table(k)
            if k:
                stride = 4**k
                selector = 0xF * _spread(0xFFFF, stride)
                offsets = tuple(
                    row + low
                    for row in range(0, vertex_count, 16 * stride)
                    for low in range(0, stride, 4)
                )
            elif m == 1:  # D(1,0): one word, looked up among the singles
                selector, offsets = 0xFFFF, (0,)
            else:
                words = (Struct(f"<{vertex_count // 32}I"), table)
                continue
            steps.append((table, selector, offsets))
        lines = (_line_cover(m, n)[0][1:], ())
        plan = self._plans[m, n] = (words, tuple(steps), lines, DoobParams(0, n + 2 * m))
        return plan


def _spread(word: int, stride: int) -> int:
    """word with its bit s moved to bit stride * s."""
    return sum(1 << stride * s for s in range(16) if word >> s & 1)


@lru_cache(maxsize=None)
def derive_pairing() -> PairingTable:
    """Search for the canonical intersection-preserving matching.

    Backtracking over domain slots in canonical order, trying candidate image
    codes in canonical order; the first complete assignment found is the
    lexicographically least one.  A candidate is placed only if it meets the
    images of all earlier slots exactly as its domain code meets theirs, so
    the complete table preserves meeting for every pair.
    """
    domain = sh_codes()
    candidates = k4_pair_codes()
    domain_meet = [[bool(a.mask & b.mask) for b in domain] for a in domain]
    candidate_meet = [[bool(a.mask & b.mask) for b in candidates] for a in candidates]
    assignment: list[int] = []
    used = [False] * len(candidates)

    def extend() -> bool:
        slot = len(assignment)
        if slot == len(domain):
            return True
        for c in range(len(candidates)):
            if used[c]:
                continue
            if any(
                candidate_meet[assignment[j]][c] != domain_meet[j][slot]
                for j in range(slot)
            ):
                continue
            assignment.append(c)
            used[c] = True
            if extend():
                return True
            assignment.pop()
            used[c] = False
        return False

    if not extend():
        raise ConsistencyError(
            "no intersection-preserving matching of Shrikhande codes onto "
            "K4-pair codes exists; the Shrikhande connection set is wrong"
        )
    return PairingTable(domain, tuple(candidates[c] for c in assignment))


def _exchanges(entries: list, targets) -> list[tuple[int, int]]:
    """Exchanges (p, q), p < q, of positions that bring entry targets[p] to
    position p for each p in turn; entries lists the entry at each position
    and is updated."""
    pairs = []
    for p, target in enumerate(targets):
        q = entries.index(target)
        if q != p:
            pairs.append((p, q))
            entries[p], entries[q] = entries[q], entries[p]
    return pairs


@lru_cache(maxsize=None)
def _slot_swaps(m: int, n: int, perm: tuple[int, ...]) -> tuple:
    """Delta swaps that move old Shrikhande coordinate perm[p] to slot p.

    Slot p is the 4-bit digit whose lowest index bit is log2 of its stride
    (graphs._slots), so every exchange of two slots is four exchanges of
    index bits.
    """
    bits = [stride.bit_length() - 1 for _, stride in _slots(m, n)]
    pairs = []
    for p, q in _exchanges(list(range(m)), perm):
        # Slot q > p sits below slot p.
        pairs.extend((bits[q] + t, bits[p] + t) for t in range(4))
    return _delta_swaps(DoobParams(m, n).vertex_count, pairs)


def reduce_sh_coordinates(code: Code, order: Optional[Sequence[int]] = None) -> Code:
    """Eliminate all Shrikhande coordinates, landing in a Hamming graph.

    order lists original Shrikhande coordinate positions in the order they
    are consumed; default is last first (m-1, m-2, ..., 0).  Different orders
    can produce different results.  The input must be a maximum independent
    set; the steps' own lookups and a K4 line cover check that it is, and
    any other input raises the ConsistencyError of its assert_mds.
    """
    params = code.params
    m = params.m
    mask = code.mask
    if order is not None:
        order = tuple(order)
        if sorted(order) != list(range(m)):
            raise ValueError(f"{order!r} is not a permutation of the {m} Shrikhande coordinates")
        # Arrange slots so that last-coordinate steps consume them in order.
        mask = _swap_index_bits(mask, _slot_swaps(m, params.n, order[::-1]))
    if m == 0:
        code.assert_mds(context="reduction input")
        return code
    words, steps, lines, target = derive_pairing().plan(m, params.n)
    try:
        if words is not None:
            layout, table = words
            keys = layout.unpack(mask.to_bytes(layout.size, "little"))
            mask = int.from_bytes(layout.pack(*map(table.__getitem__, keys)), "little")
        for table, selector, offsets in steps:
            out = 0
            for offset in offsets:
                out |= table[mask >> offset & selector] << offset
            mask = out
    except KeyError:  # a slice that is no table entry
        mask = None
    if mask is None or not _mds_by_line_cover(code.mask, lines):
        code.assert_mds(context="reduction input")
        raise ConsistencyError("reduction input: passed assert_mds but not the pairing table")
    return Code.from_mask(target, mask)
