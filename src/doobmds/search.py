"""Exhaustive enumeration of maximum independent sets in desk-scale Doob graphs.

A factor, one Shrikhande graph or one K4, is read as its rows, the
neighbor masks that graphs.shrikhande() and complete_graph(4) return.  Single
factors are solved by direct DFS over vertex indices with a conflict
bitmask.  Products are solved by fibering at the last coordinate: a maximum
independent set of G x F restricts, for each vertex f of F, to a fiber in
G, and a counting argument forces every fiber to be a maximum independent
set of G.  Independence across fibers then says the fibers at adjacent
factor vertices are disjoint, so enumeration reduces to assembling
pairwise-compatible smaller codes.

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

The search repeats that step down a prefix of fixed sub-codes (_by_orbits).
With codes fixed at factor vertices 0, ..., k-1, an element h of the group
fixing all of them maps the assignments with that prefix and c at vertex k
onto those with the prefix and h c, so beside the prefix one choice per
orbit of the sub-codes allowed at vertex k (disjoint from the prefix's codes
at its neighbors) is fixed in turn.  Each step (_orbit_step) takes the allowed
sub-codes as a bitmask and the group by generators, and returns the orbits'
Schreier trees, the breadth-first trees by which the generators reach every
choice of an orbit from its root (Seress, Permutation Group Algorithms,
2003).  The next level's group, the stabilizer Stab(r) of the root r, is
generated by the Schreier generators t_{g x}^-1 g t_x, read off r's tree
and the step's image table: t_x is the tree path from r to x.  The depth
follows from the split: 2 on the Shrikhande split, where factor vertex 1,
(0,1), is adjacent to vertex 0 and its choices are the sub-codes disjoint
from r, and 1 on the K4 split, where the level-1 orbits are small and their
set-up costs more than it saves.  At the last level the rest of the
factor vertices are searched beside the prefix.

Enumeration builds the blocks of the codes with a given prefix the same way
at every level: the root's block is searched, or built from the next level,
and the block of a choice reached from choice p by generator g is the image
of p's block under g lifted to the product.  The lift sends product vertex
u * |F| + f to g(u) * |F| + f, so its shift plan is g's plan with each
selector spread over the |F| bits of every vertex u and each shift
multiplied by |F|.  Blocks are imaged by the packed action of the orbit
step (symmetry._image_positions): a root's block is packed into one int
once, and each other block is one application of the lifted plan, its
selectors repeated over the block, to its parent's packed int, split back
into masks once.  Counting on the Shrikhande split weights each root's
count by its orbit's size,

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

with P(c) the number of partitions of V(G) minus c into three codes; the
orbits come from the same orbit step, on the sub-codes through vertex 0.  P is
an exact cover that always covers the lowest vertex left (Knuth's Algorithm
X): the first part is a sub-code disjoint from c through the lowest vertex
outside c, the second one disjoint from both through the lowest vertex
outside both, and the third, the vertices left, is looked up among the
sub-codes.  Neither the last part nor the orderings are searched.

The split is an argument of _decompose and _count: count_mds splits off a
K4 coordinate when there is one, and the Shrikhande split of the same graph
(D(2,1) = D(1,1) x Sh, D(1,3) = D(0,3) x Sh) counts it a second way.
_decompose returns the choice with the factor's rows, and _by_orbits takes
it along for its depth.  Both splits read disjointness rows of the
sub-codes, made from a vertex-incidence bitset per vertex: the transpose of
the code-by-vertex bit matrix, which delta swaps (graphs._swap_index_bits,
which also permutes the reduction's Shrikhande coordinates) build one
square block of codes at a time.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial
from itertools import repeat

from .errors import DeskScaleError
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
    _block_size,
    _orbit_trees,
    _packed_plan,
    _schreier_generators,
    _shift_plan,
    _splitter,
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
    """Split off one coordinate: (params of the rest, sh, the factor's rows).

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
    return rest, sh, shrikhande() if sh else complete_graph(4)


def _too_many_to_list(subject: str):
    """The DeskScaleError refusing to list codes, subject naming them."""
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


def _assemble(rows, compat, prefix, count_only=False):
    """Assign a sub-code to every factor vertex, disjoint across the edges of
    the factor's rows.

    Factor vertices 0, 1, ... take the sub-codes prefix names, a choice the
    caller made disjoint across the edges among them; the search assigns the
    rest.  Returns assignment tuples (sub-code index per factor vertex), or
    just their number when count_only; counting adds up the choices left at
    the last factor vertex instead of visiting them.
    """
    factor_count = len(rows)
    last = factor_count - 1
    full = compat.full
    assignment = [*prefix, *[0] * (factor_count - len(prefix))]
    out = []
    total = 0

    def walk(t):
        nonlocal total
        allowed = full
        row = rows[t] & ((1 << t) - 1)
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

    walk(len(prefix))
    return total if count_only else out


def _orbit_step(sub_masks, allowed, perms):
    """The sub-codes in allowed, a bitmask over sub-code indices, in orbits
    under the group that perms generate, which maps allowed onto itself.

    Returns (choices, orbits, plans): the choices as positions in sub_masks,
    in increasing order, the _orbit_trees result of their masks, as
    positions in choices, and the shift plans of perms it was built with.
    """
    plans = [_shift_plan(perm) for perm in perms]
    choices = [j for j, digit in enumerate(reversed(format(allowed, "b"))) if digit == "1"]
    return choices, _orbit_trees([sub_masks[j] for j in choices], plans), plans


def _by_orbits(rows, sh, sub_masks, compat, perms, leaf, lift=None, prefix=()):
    """leaf's results beside the fixed prefix, from one search per orbit.

    Factor vertex k = len(prefix) takes the sub-codes disjoint from the
    prefix's codes at its neighbors in the factor's rows, in orbits under
    perms, which fix every code of the prefix.  Beside each orbit's root r
    the next level is taken the same way, under the Schreier generators of
    Stab(r) in that group, down to depth 2 on the Shrikhande split (sh
    true) and 1 on the K4 split, where leaf(prefix + (r,)) searches the
    rest.  With lift, leaf returns code masks and so does this, block by
    block: the root's block is searched, and every other node's is the
    image of its parent's block under the plan lifted by lift.  Without it,
    leaf returns a count, and this the sum of each root's count times its
    orbit's size.
    """
    allowed = compat.full
    for t, c in enumerate(prefix):
        if rows[len(prefix)] >> t & 1:
            allowed &= compat[c]
    choices, (trees, parent, via, images), plans = _orbit_step(sub_masks, allowed, perms)
    depth = 2 if sh else 1
    lifted = [lift(plan) for plan in plans] if lift else None
    size = _block_size((), lifted) if lift else 0  # the product's masks are no wider
    out = [] if lift else 0
    for tree in trees:
        fixed = (*prefix, choices[tree[0]])
        if len(fixed) < depth:
            stabilizer = _schreier_generators(tree, parent, via, images, perms)
            block = _by_orbits(rows, sh, sub_masks, compat, stabilizer, leaf, lift, fixed)
        else:
            block = leaf(fixed)
        if not lift:
            out += len(tree) * block
            continue
        out += block
        if len(tree) == 1:
            continue
        # Every node's block, packed: the root's from its masks, any other
        # node's the image of its parent's under the lifted plan, which is
        # repeated over the block's length once per generator used.
        run = len(block)
        root = b"".join([mask.to_bytes(size, "little") for mask in block])
        packed = {tree[0]: int.from_bytes(root, "little")}
        repeated = {}  # generator -> its lifted plan repeated over the block
        split = _splitter(size, run)
        for j in tree[1:]:
            k = via[j]
            if k not in repeated:
                repeated[k] = _packed_plan(lifted[k], size, run)
            packed[j] = image = _apply_plan(repeated[k], packed[parent[j]])
            out += map(int.from_bytes, split(image), repeat("little"))
    return out


def _member_tuples(params: DoobParams) -> list[int]:
    """The mask of every maximum independent set of D(m,n), block by block.

    The codes with one sub-code c at factor vertex 0 form a block, searched
    by _by_orbits: one per orbit, and on the Shrikhande split, within it,
    one per Stab(r)-orbit at factor vertex 1; every other block is an image
    under a generator lifted to the product.  (The name is older than the
    masks; bench/tracing.py wraps the function under it.)  Past the listed
    word length it refuses, after the split has refused a rest too large.
    """
    rest, sh, rows = _decompose(params)
    if params.word_length > _LISTED_WORD_LENGTH:
        raise _too_many_to_list(f"the codes of {params} are")
    if rest is None:
        return [sum(1 << v for v in t) for t in independent_sets_of_size(rows, params.code_size)]
    sub_masks = _member_tuples(rest)
    width = len(rows)
    spread_digits = str.maketrans({"0": "0" * width, "1": "0" * (width - 1) + "1"})

    def spread(mask):
        return int(format(mask, "b").translate(spread_digits), 2)

    # Vertex u of a spread mask sits at bit u * width, so times (2^width - 1)
    # it fills u's whole block u * width + f, f < width.
    block = (1 << width) - 1

    def lift(plan):
        return tuple((spread(sel) * block, shift * width) for sel, shift in plan)

    spreads = [spread(mask) for mask in sub_masks]
    shifts = range(width)
    compat = _compatibility(sub_masks)

    def search(prefix):
        return [
            sum(map(operator.lshift, map(spreads.__getitem__, assignment), shifts))
            for assignment in _assemble(rows, compat, prefix)
        ]

    perms = doob_symmetries(rest).generators
    return _by_orbits(rows, sh, sub_masks, compat, perms, search, lift)


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
    rest, sh, rows = _decompose(params, sh)
    if rest is None:
        return len(independent_sets_of_size(rows, params.code_size))
    sub_masks = _member_tuples(rest)
    compat = _compatibility(sub_masks)
    if not sh:
        return _count_latin_colorings(rest, sub_masks, compat)
    leaf = partial(_assemble, rows, compat, count_only=True)
    return _by_orbits(rows, sh, sub_masks, compat, doob_symmetries(rest).generators, leaf)


def _count_latin_colorings(rest: DoobParams, sub_masks, compat) -> int:
    """Codes of G x K4, counted as ordered partitions of V(G) into four codes
    of G: 24 * sum over the Stab(0)-orbits O' of |O'| * P(rep_O').
    """
    incidence = compat.incidence
    choices, (trees, *_), _ = _orbit_step(sub_masks, incidence[0], _vertex_zero_stabilizer(rest))
    codes = set(sub_masks)
    full = (1 << rest.vertex_count) - 1
    total = 0
    for tree in trees:
        c = choices[tree[0]]
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
