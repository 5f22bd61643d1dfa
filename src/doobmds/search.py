"""Exhaustive enumeration of maximum independent sets in desk-scale Doob graphs.

Single factors (one Shrikhande graph or one K4) are solved by direct DFS over
vertex indices with a conflict bitmask.  Products are solved by fibering at
the last coordinate: a maximum independent set of G x F restricts, for each
vertex f of F, to a fiber in G, and a counting argument forces every fiber to
be a maximum independent set of G.  Independence across fibers then says the
fibers at adjacent factor vertices are disjoint, so enumeration reduces to
assembling pairwise-compatible smaller codes.

Every code is handled as its vertex mask, sub-codes included: a product
code's mask is the sum of its sub-code masks, each spread to the product's
indexing and shifted to its factor vertex, and enumerate_mds builds each
Code from its mask, so a member tuple exists only once something reads
Code.members.  Output order is still lexicographic on the member tuples,
independent of the search order: it is sorted by the bit-reversed mask,
descending.  Counting and enumeration both run in the calling process: at
desk scale the few representative searches cost less than starting
workers, and the images, not the searches, are most of the work.

Neither counting nor enumeration searches every first choice.  An
automorphism g of G, applied to every fiber at once, maps an assignment (c_f)
to (g c_f): fibers stay maximum independent sets, and fibers that were
disjoint stay disjoint, so valid assignments go to valid assignments,
bijectively.  With A(c) the valid assignments that have c at factor vertex 0,

    A(g c) = g A(c),

so only one representative per orbit of G's codes is searched.
Enumeration walks each orbit's Schreier tree, the breadth-first tree by
which the generators reach every code of the orbit from its representative
(Seress, Permutation Group Algorithms, 2003): the block of a code reached
from code p by generator g is the image of p's block under g lifted to the
product.  The lift sends product vertex u * |F| + f to g(u) * |F| + f, so its
shift plan is g's plan with each selector spread over the |F| bits of every
vertex u and each shift multiplied by |F|; an image costs one orbit step.

Counting on the Shrikhande split weights each representative by its orbit,

    count(G x Sh) = sum over orbits O of the sub-codes of |O| * |A(rep_O)|,

and adds up the choices left at the last factor vertex instead of visiting
them.  On the K4 split the four fibers are pairwise disjoint codes of G, so
they partition V(G): a code of G x K4 is an ordered partition of V(G) into
four codes of G, a latin coloring (Bespalov & Krotov, "Distance-2 MDS codes
and latin colorings in the Doob graphs").  Each partition has one part
through vertex 0 and 4! orderings, and the stabilizer Stab(0) of vertex 0 in
Aut G maps the partitions with part c to those with part g(c), so

    count(G x K4) = 24 * sum over the Stab(0)-orbits O' of the sub-codes
                    through vertex 0 of |O'| * P(rep_O'),

with P(c) the number of partitions of V(G) minus c into three codes.  P is
an exact cover that always covers the lowest vertex left (Knuth's Algorithm
X): the first part is a sub-code disjoint from c through the lowest vertex
outside c, the second one disjoint from both through the lowest vertex
outside both, and the third, the vertices left, is looked up among the
sub-codes.  Neither the last part nor the orderings are searched.
"""

from __future__ import annotations

import operator

from .graphs import (
    DoobParams,
    _FrozenRecord,
    check_desk_scale,
    complete_graph,
    independent_sets_of_size,
    shrikhande,
)
from .symmetry import (
    _apply_plan,
    _orbit_trees,
    _shift_plan,
    _vertex_zero_stabilizer,
    doob_symmetries,
)

# Externally published census counts; everything else this tool reports is
# derived by its own search and flagged so.  A code of the Hamming graph
# D(0,n) = H(n,4) is the graph of an (n-1)-ary quasigroup of order 4; their
# numbers through n = 5 are in McKay & Wanless, "A census of small Latin
# hypercubes" (2008), and Potapov & Krotov, "On the number of n-ary
# quasigroups of finite order" (2011).
PUBLISHED_COUNTS = {
    (0, 1): 4,
    (0, 2): 24,
    (1, 0): 16,
    (0, 3): 576,
    (0, 4): 55296,
    (0, 5): 36972288,
}

# Sub-codes per block when building vertex-incidence bitsets.
TRANSPOSE_BLOCK = 1024

# Largest word length whose codes are listed (D(0,4) has 55296 codes, D(0,5)
# 36972288): the most a split may split off, and the most enumerate_mds builds.
_LISTED_WORD_LENGTH = 4


class EnumerationResult(_FrozenRecord):
    """The maximum independent sets of D(m,n), in canonical order."""

    params: DoobParams
    codes: tuple[Code, ...]

    @property
    def count(self) -> int:
        return len(self.codes)


def _decompose(params: DoobParams):
    """Split off the last coordinate: (params of the rest, factor graph).

    The rest is None when the graph is a single factor.  Counting and
    enumeration both list every code of the rest, so a rest past the listed
    word length is refused.  D(3,0) splits off D(2,0) and is admitted.
    """
    if params.n >= 1:
        rest = DoobParams(params.m, params.n - 1) if params.word_length > 1 else None
    else:
        rest = DoobParams(params.m - 1, 0) if params.m >= 2 else None
    if rest is not None and rest.word_length > _LISTED_WORD_LENGTH:
        raise _too_many_to_list(f"{params} splits off {rest}, whose codes are")
    return rest, complete_graph(4) if params.n else shrikhande()


def _too_many_to_list(subject: str):
    """The DeskScaleError refusing to list codes, subject naming them."""
    from .errors import DeskScaleError

    return DeskScaleError(
        f"{subject} too many to list (the limit is word length "
        f"{_LISTED_WORD_LENGTH}, D(0,4)'s 55296 codes)"
    )


class _DisjointRows(dict):
    """rows[i]: bitmask over sub-code indices, bit j set iff codes i, j are disjoint.

    Rows are computed on first use from vertex-incidence bitsets: with B[v]
    the set of sub-codes containing v, the codes meeting code c are
    OR_{v in c} B[v].  No pair of codes is ever compared directly.
    """

    def __init__(self, sub_masks):
        super().__init__()
        self.masks = sub_masks
        self.full = (1 << len(sub_masks)) - 1
        width = max(sub_masks, default=0).bit_length()
        # Transpose the code-by-vertex bit matrix by string slicing, one block
        # of codes at a time to bound the text's size.  Line k of a block's
        # text is its code len-1-k, vertex 0 last, so the characters in
        # column v, read as binary, are that block's part of B[v].
        self.incidence = [0] * width
        for start in range(0, len(sub_masks), TRANSPOSE_BLOCK):
            block = sub_masks[start : start + TRANSPOSE_BLOCK]
            text = "".join([format(mask, f"0{width}b") for mask in reversed(block)])
            for v in range(width):
                self.incidence[v] |= int(text[width - 1 - v :: width], 2) << start

    def __missing__(self, i):
        meets = 0
        mask = self.masks[i]
        while mask:
            low = mask & -mask
            meets |= self.incidence[low.bit_length() - 1]
            mask ^= low
        row = self[i] = self.full ^ meets
        return row


def _compatibility(sub_masks):
    """Disjointness rows of the sub-codes, each computed when first read."""
    return _DisjointRows(sub_masks)


def _assemble(factor_masks, compat, first, count_only=False):
    """Assign a sub-code to every factor vertex, disjoint across factor edges.

    Returns assignment tuples (sub-code index per factor vertex), or just
    their number when count_only; counting adds up the choices left at the
    last factor vertex instead of visiting them.  first, a bitmask over
    sub-code indices, restricts the choice at factor vertex 0: the searches
    run one orbit representative at a time.
    """
    factor_count = len(factor_masks)
    last = factor_count - 1
    full = compat.full
    assignment = [0] * factor_count
    out = []
    total = 0

    def walk(t):
        nonlocal total
        allowed = full if t else first
        row = factor_masks[t] & ((1 << t) - 1)
        while row and allowed:
            low = row & -row
            allowed &= compat[assignment[low.bit_length() - 1]]
            row ^= low
        if count_only and t == last:
            total += allowed.bit_count()
            return
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            assignment[t] = low.bit_length() - 1
            if t == last:
                out.append(tuple(assignment))
            else:
                walk(t + 1)

    walk(0)
    return total if count_only else out


def _generator_plans(params: DoobParams):
    """Shift plans of the generators of Aut D(m,n)."""
    return [_shift_plan(perm) for perm in doob_symmetries(params).generators]


def _member_tuples(params: DoobParams) -> list[int]:
    """The mask of every maximum independent set of D(m,n), block by block.

    The codes with one sub-code c at factor vertex 0 form a block.  Only the
    orbit representatives' blocks are searched; every other block is the
    image of its parent's block in the orbit's Schreier tree, under the
    generator lifted to the product.  (The name is older than the masks;
    bench/tracing.py wraps the function under it.)  Past the listed word
    length it refuses, after the split has refused a rest too large.
    """
    rest, factor = _decompose(params)
    if params.word_length > _LISTED_WORD_LENGTH:
        raise _too_many_to_list(f"the codes of {params} are")
    if rest is None:
        return [sum(1 << v for v in t) for t in independent_sets_of_size(factor, params.code_size)]
    sub_masks = _member_tuples(rest)
    plans = _generator_plans(rest)
    trees, parent, via = _orbit_trees(sub_masks, plans)
    width = factor.vertex_count
    spread_digits = str.maketrans({"0": "0" * width, "1": "0" * (width - 1) + "1"})

    def spread(mask):
        return int(format(mask, "b").translate(spread_digits), 2)

    # Vertex u of a spread mask sits at bit u * width, so times (2^width - 1)
    # it fills u's whole block u * width + f, f < width.
    block = (1 << width) - 1
    lifted = [tuple((spread(sel) * block, shift * width) for sel, shift in plan) for plan in plans]
    spreads = [spread(mask) for mask in sub_masks]
    shifts = range(width)
    out = []
    start = {}  # tree node -> index of its block's first mask in out
    compat = _compatibility(sub_masks)
    searched = [_assemble(factor.neighbor_masks, compat, 1 << tree[0]) for tree in trees]
    for tree, assignments in zip(trees, searched):
        size = len(assignments)
        start[tree[0]] = len(out)
        out += [
            sum(map(operator.lshift, map(spreads.__getitem__, assignment), shifts))
            for assignment in assignments
        ]
        for j in tree[1:]:
            plan, source = lifted[via[j]], start[parent[j]]
            start[j] = len(out)
            out += [_apply_plan(plan, mask) for mask in out[source : source + size]]
    return out


def _lexicographic_key(size: int):
    """Sort key on masks of equal popcount: by it, descending, the member
    tuples come out in increasing lexicographic order.

    Of two such codes, the one holding the lowest vertex where they differ
    has the smaller member tuple; reversing the size bits puts that vertex
    at the highest differing bit, where that code has a 1.  The bits are
    reversed a byte at a time: each byte of the little-endian bytes through
    a table of reversed bytes, read big-endian, then shifted past the
    padding of the last byte (D(0,1) has 4 vertices).
    """
    reversed_bytes = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
    length = (size + 7) // 8
    padding = 8 * length - size
    return lambda mask: (
        int.from_bytes(mask.to_bytes(length, "little").translate(reversed_bytes), "big") >> padding
    )


def enumerate_mds(params: DoobParams) -> EnumerationResult:
    """All maximum independent sets of D(m,n), in canonical order.

    Parameters past desk scale are refused first, then those past the
    listed word length, 4: D(2,1) alone has 3707136 codes of 1024 bits,
    which count_mds counts without listing them.  The search runs in this
    process.  The codes are built from masks, in lexicographic order of
    their member tuples, and are not checked again: each is assembled from
    |F| codes of G, disjoint across the edges of F, so it is independent and
    of maximum size.
    """
    from .codes import Code

    check_desk_scale(params)
    masks = _member_tuples(params)
    masks.sort(key=_lexicographic_key(params.vertex_count), reverse=True)
    codes = tuple(Code.from_mask(params, mask) for mask in masks)
    return EnumerationResult(params, codes)


def count_mds(params: DoobParams) -> int:
    """Number of maximum independent sets of D(m,n), without materializing them.

    Orbit-weighted, in this process: on the K4 split one exact cover per
    Stab(0)-orbit of the parts through vertex 0, on the Shrikhande split one
    assignment search per orbit of the first-fiber sub-codes.
    """
    check_desk_scale(params)
    rest, factor = _decompose(params)
    if rest is None:
        return len(independent_sets_of_size(factor, params.code_size))
    sub_masks = _member_tuples(rest)
    compat = _compatibility(sub_masks)
    if params.n:
        return _count_latin_colorings(rest, sub_masks, compat)
    trees, _, _ = _orbit_trees(sub_masks, _generator_plans(rest))
    return sum(
        len(tree) * _assemble(factor.neighbor_masks, compat, 1 << tree[0], count_only=True)
        for tree in trees
    )


def _count_latin_colorings(rest: DoobParams, sub_masks, compat) -> int:
    """Codes of G x K4, counted as ordered partitions of V(G) into four codes
    of G: 24 * sum over the Stab(0)-orbits O' of |O'| * P(rep_O').
    """
    through_zero = [i for i, mask in enumerate(sub_masks) if mask & 1]
    plans = [_shift_plan(perm) for perm in _vertex_zero_stabilizer(rest)]
    trees, _, _ = _orbit_trees([sub_masks[i] for i in through_zero], plans)
    codes = set(sub_masks)
    incidence = compat.incidence
    full = (1 << rest.vertex_count) - 1
    total = 0
    for tree in trees:
        c = through_zero[tree[0]]
        row = compat[c]
        left = full ^ sub_masks[c]
        firsts = row & incidence[(left & -left).bit_length() - 1]
        covers = 0
        while firsts:
            low = firsts & -firsts
            firsts ^= low
            i = low.bit_length() - 1
            last_two = left ^ sub_masks[i]
            seconds = row & compat[i] & incidence[(last_two & -last_two).bit_length() - 1]
            while seconds:
                low = seconds & -seconds
                seconds ^= low
                covers += last_two ^ sub_masks[low.bit_length() - 1] in codes
        total += len(tree) * covers
    return 24 * total
