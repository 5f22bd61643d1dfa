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

On the Shrikhande split the same step is taken again at level 1, factor
vertex 1, which is adjacent to vertex 0.  The stabilizer Stab(r) of the
representative r maps the assignments with (r, c) at factor vertices 0 and
1 onto those with (r, h c), so beside r one choice c per Stab(r)-orbit of
the sub-codes disjoint from r is searched.  Stab(r) acts by all its Schreier
generators t_{g x}^-1 g t_x, read off r's Schreier tree and the level-0
image table: t_x is the tree path from r to x.  Enumeration builds r's
block from level-1 blocks as it builds the level-0 blocks: one searched per
Stab(r)-orbit, each other one the image of its parent's block in that
orbit's Schreier tree under the lifted Schreier generator.  The K4 split
stays at level 0: there the level-1 orbits are small and their set-up costs
more than it saves.

Counting on the Shrikhande split weights each representative by its orbit,
and each level-1 representative by its Stab(r)-orbit,

    count(G x Sh) = sum over orbits O of the sub-codes of |O| *
                    sum over the Stab-orbits O1 beside rep_O of |O1| * |A(rep_O, rep_O1)|,

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

The split is an argument of _decompose and _count: count_mds splits off a
K4 coordinate when there is one, and the Shrikhande split of the same graph
(D(2,1) = D(1,1) x Sh, D(1,3) = D(0,3) x Sh) counts it a second way.  Both
read disjointness rows of the sub-codes, made from a vertex-incidence
bitset per vertex: the transpose of the code-by-vertex bit matrix, which
delta swaps (graphs._swap_index_bits, the reduction's kernel) build one
square block of codes at a time.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .graphs import (
    DoobParams,
    _delta_swaps,
    _FrozenRecord,
    _swap_index_bits,
    check_desk_scale,
    complete_graph,
    independent_sets_of_size,
    shrikhande,
)
from .symmetry import (
    _apply_plan,
    _orbit_trees,
    _schreier_generators,
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


def _decompose(params: DoobParams, sh=None):
    """Split off one coordinate: (params of the rest, factor graph).

    sh true splits off a Shrikhande coordinate, false a K4 one; by default
    a K4 one, or a Shrikhande one when n = 0.  The rest is None when the
    graph is a single factor.  Counting and enumeration both list every
    code of the rest, so a rest past the listed word length is refused.
    D(3,0) splits off D(2,0) and is admitted.
    """
    if sh is None:
        sh = params.n == 0
    m, n = (params.m - 1, params.n) if sh else (params.m, params.n - 1)
    if min(m, n) < 0:
        raise ValueError(f"{params} has no {'Shrikhande' if sh else 'K4'} coordinate")
    rest = DoobParams(m, n) if m + n else None
    if rest is not None and rest.word_length > _LISTED_WORD_LENGTH:
        raise _too_many_to_list(f"{params} splits off {rest}, whose codes are")
    return rest, shrikhande() if sh else complete_graph(4)


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
    OR_{v in c} B[v].  No pair of codes is ever compared directly.  The OR
    is taken a byte of c's mask at a time: parts[p][b] is the OR of the B[v]
    of the vertices 8p + k for the bits k of byte value b, made when a row
    first needs it.  Codes share their bytes' values (the codes of D(2,0),
    D(1,2) and D(0,4) show 12 values per byte), so a row costs about one OR
    per byte, not one per vertex.
    """

    def __init__(self, sub_masks):
        super().__init__()
        self.masks = sub_masks
        self.full = (1 << len(sub_masks)) - 1
        width = max(sub_masks, default=0).bit_length()
        # Transpose the code-by-vertex bit matrix by delta swaps, one square
        # block of side codes at a time.  Laid side by side, bit v of the
        # block's mask k is index k * side + v; exchanging index bits b and
        # log2(side) + b for every b moves it to v * side + k, so bytes
        # v * side / 8 and up of the result are the block's part of B[v].
        side = max(8, 1 << (width - 1).bit_length())
        size = side // 8
        swaps = _transpose_swaps(side)
        columns = []
        for start in range(0, len(sub_masks), side):
            block = [mask.to_bytes(size, "little") for mask in sub_masks[start : start + side]]
            laid = _swap_index_bits(int.from_bytes(b"".join(block), "little"), swaps)
            data = laid.to_bytes(side * size, "little")
            columns.append([data[at : at + size] for at in range(0, width * size, size)])
        self.incidence = [int.from_bytes(b"".join(parts), "little") for parts in zip(*columns)]
        self.parts = [{} for _ in range(0, width, 8)]

    def __missing__(self, i):
        meets = 0
        byte_parts = self.parts
        for p, byte in enumerate(self.masks[i].to_bytes(len(byte_parts), "little")):
            if byte:
                part = byte_parts[p].get(byte)
                if part is None:
                    part = byte_parts[p][byte] = self._part(p, byte)
                meets |= part
        row = self[i] = self.full ^ meets
        return row

    def _part(self, p, byte):
        part = 0
        for k in range(8):
            if byte >> k & 1:
                part |= self.incidence[8 * p + k]
        return part


@lru_cache(maxsize=None)
def _transpose_swaps(side: int) -> tuple:
    """Delta swaps transposing a side x side bit matrix, side a power of two."""
    log = side.bit_length() - 1
    return _delta_swaps(side * side, [(b, log + b) for b in range(log)])


def _compatibility(sub_masks):
    """Disjointness rows of the sub-codes, each computed when first read."""
    return _DisjointRows(sub_masks)


def _assemble(factor_masks, compat, first, count_only=False, second=None):
    """Assign a sub-code to every factor vertex, disjoint across factor edges.

    Returns assignment tuples (sub-code index per factor vertex), or just
    their number when count_only; counting adds up the choices left at the
    last factor vertex instead of visiting them.  first, a bitmask over
    sub-code indices, restricts the choice at factor vertex 0, and second,
    if given, the choice at factor vertex 1: the searches run one orbit
    representative at a time.
    """
    factor_count = len(factor_masks)
    last = factor_count - 1
    full = compat.full
    bounds = [first, full if second is None else second] + [full] * (factor_count - 2)
    assignment = [0] * factor_count
    out = []
    total = 0

    def walk(t):
        nonlocal total
        allowed = bounds[t]
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


def _level_one(sub_masks, compat, orbits, tree, perms):
    """The choices at factor vertex 1 of the Shrikhande split beside the
    representative r = tree[0] at factor vertex 0, in orbits under Stab(r).

    Factor vertex 1, (0,1), is adjacent to vertex 0, so the choices are the
    sub-codes disjoint from r.  orbits is the level-0 result,
    _orbit_trees(sub_masks, plans of perms) for the generators perms of
    Aut G, and tree one of its trees.  Returns (choices, trees, parent, via,
    plans): the choices as positions in sub_masks, the Schreier trees of
    their orbits (_orbit_trees) as positions in choices, and the shift plans
    of the Schreier generators of Stab(r) that the trees were built with.
    The plans go by their number of parts, fewest first, so that the trees
    reach each choice by the cheapest image they can.
    """
    stabilizer = _schreier_generators(tree, *orbits[1:], perms)
    plans = sorted(map(_shift_plan, stabilizer), key=len)
    disjoint = compat[tree[0]]
    choices = [j for j in range(len(sub_masks)) if disjoint >> j & 1]
    return (choices, *_orbit_trees([sub_masks[j] for j in choices], plans)[:3], plans)


def _add_blocks(out: list, trees, parent, via, lifted, search):
    """Append each tree's blocks to out: the root's block, which search(tree)
    appends, then each other node's, the image of its parent's block under
    the lifted plan lifted[via[node]].  Blocks of one tree are equally long."""
    start = {}  # tree node -> index of its block's first mask in out
    for tree in trees:
        start[tree[0]] = len(out)
        search(tree)
        size = len(out) - start[tree[0]]
        for j in tree[1:]:
            plan, source = lifted[via[j]], start[parent[j]]
            start[j] = len(out)
            out += [_apply_plan(plan, mask) for mask in out[source : source + size]]


def _member_tuples(params: DoobParams) -> list[int]:
    """The mask of every maximum independent set of D(m,n), block by block.

    The codes with one sub-code c at factor vertex 0 form a block.  Only the
    orbit representatives' blocks are searched; every other block is the
    image of its parent's block in the orbit's Schreier tree, under the
    generator lifted to the product.  On the Shrikhande split a
    representative's block is itself built so, one level down: one block
    per Stab(r)-orbit of the choices at factor vertex 1 is searched, and the
    others are images under the lifted Schreier generators.  (The name is
    older than the masks; bench/tracing.py wraps the function under it.)
    Past the listed word length it refuses, after the split has refused a
    rest too large.
    """
    rest, factor = _decompose(params)
    if params.word_length > _LISTED_WORD_LENGTH:
        raise _too_many_to_list(f"the codes of {params} are")
    if rest is None:
        return [sum(1 << v for v in t) for t in independent_sets_of_size(factor, params.code_size)]
    sub_masks = _member_tuples(rest)
    perms = doob_symmetries(rest).generators
    plans = [_shift_plan(perm) for perm in perms]
    orbits = _orbit_trees(sub_masks, plans)
    width = factor.vertex_count
    spread_digits = str.maketrans({"0": "0" * width, "1": "0" * (width - 1) + "1"})

    def spread(mask):
        return int(format(mask, "b").translate(spread_digits), 2)

    # Vertex u of a spread mask sits at bit u * width, so times (2^width - 1)
    # it fills u's whole block u * width + f, f < width.
    block = (1 << width) - 1

    def lift(plans):
        return [
            tuple((spread(sel) * block, shift * width) for sel, shift in plan) for plan in plans
        ]

    spreads = [spread(mask) for mask in sub_masks]
    shifts = range(width)
    compat = _compatibility(sub_masks)
    out = []

    def search(first, second=None):
        assignments = _assemble(factor.neighbor_masks, compat, first, second=second)
        out.extend(
            [
                sum(map(operator.lshift, map(spreads.__getitem__, assignment), shifts))
                for assignment in assignments
            ]
        )

    def search_by_level_one(tree):
        r = tree[0]
        choices, trees1, parent1, via1, plans1 = _level_one(sub_masks, compat, orbits, tree, perms)
        _add_blocks(
            out, trees1, parent1, via1, lift(plans1), lambda t: search(1 << r, 1 << choices[t[0]])
        )

    def search_alone(tree):
        search(1 << tree[0])

    level_zero = search_by_level_one if factor is shrikhande() else search_alone
    _add_blocks(out, *orbits[:3], lift(plans), level_zero)
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
    assignment search per orbit of the first-fiber sub-codes and, beside
    each, per Stab-orbit of the second-fiber ones.
    """
    check_desk_scale(params)
    return _count(params)


def _count(params: DoobParams, sh=None) -> int:
    """count_mds on the split that sh chooses, as in _decompose."""
    rest, factor = _decompose(params, sh)
    if rest is None:
        return len(independent_sets_of_size(factor, params.code_size))
    sub_masks = _member_tuples(rest)
    compat = _compatibility(sub_masks)
    if factor is not shrikhande():
        return _count_latin_colorings(rest, sub_masks, compat)
    perms = doob_symmetries(rest).generators
    orbits = _orbit_trees(sub_masks, [_shift_plan(perm) for perm in perms])
    total = 0
    for tree in orbits[0]:
        choices, trees1, _, _, _ = _level_one(sub_masks, compat, orbits, tree, perms)
        total += len(tree) * sum(
            len(tree1)
            * _assemble(
                factor.neighbor_masks, compat, 1 << tree[0], True, 1 << choices[tree1[0]]
            )
            for tree1 in trees1
        )
    return total


def _count_latin_colorings(rest: DoobParams, sub_masks, compat) -> int:
    """Codes of G x K4, counted as ordered partitions of V(G) into four codes
    of G: 24 * sum over the Stab(0)-orbits O' of |O'| * P(rep_O').
    """
    through_zero = [i for i, mask in enumerate(sub_masks) if mask & 1]
    plans = [_shift_plan(perm) for perm in _vertex_zero_stabilizer(rest)]
    trees = _orbit_trees([sub_masks[i] for i in through_zero], plans)[0]
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
