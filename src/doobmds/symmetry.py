"""Automorphisms of Doob graphs, and orbit classification of code lists.

The Shrikhande graph and K4 are Cartesian-prime, so the automorphism group of
D(m,n) = Sh^m x K4^n is (Aut Sh wr S_m) x (S_4 wr S_n), of order
192^m m! 24^n n! (Imrich & Klavzar, Product Graphs, 2000).  Its generators
are written down in closed form: three Shrikhande symmetries at the first
Shrikhande slot, two permutations of K4 at the first K4 slot, and swaps of
adjacent like slots, which carry those to every other slot.  The stabilizer
of vertex 0, by which code counting groups the codes through vertex 0, is
generated the same way from the factors' stabilizers of 0.  Codes are
classified into orbits by closing the code list under the generators, acting
on vertex bitmasks: each generator is precomputed as a shift plan (vertices
grouped by how far the permutation moves them), so the image of a mask is a
handful of AND/shift/OR operations on Python ints.

The orbit search applies each plan to many masks at once.  Up to _PACK
masks are laid side by side in one int, little-endian, one block of whole
bytes each, as wide as the widest mask or selector; the selector of each
part is repeated in every block.  Then each part costs one AND, one shift
and one OR per packed int, whatever the number of masks in it, and no bit
crosses into the next block, since a permutation of the vertices moves every
vertex to a vertex.  The image's bytes, cut into blocks by one precompiled
struct unpack per run length, are looked up among the masks' own blocks,
which gives the list position of every mask's image under every generator
before the breadth-first search starts.  The lookup is keyed by the masks'
bytes, the blocks already made for packing, so no int is rebuilt from an
image; the table holds one bytes copy of the list.  The search lifts its
blocks of product codes by the same kernel (_block_size, _packed_plan and
_splitter).

The Schreier trees also give stabilizers (Seress, Permutation Group
Algorithms, 2003).  The transversal t_x of an orbit, the product of the
generators along the tree path from the root r to x, maps r to x; then
t_{g x}^-1 g t_x fixes r for every generator g, and these Schreier
generators generate Stab(r).  The position of g x is read off the image
table the orbit search already built.  Elements are composed and inverted
as permutation tuples, and the search applies them as shift plans.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import repeat
from math import factorial
from typing import Sequence, Union

from .errors import ConsistencyError, ParameterMismatchError
from .graphs import DoobParams, _FrozenRecord, _repeat, _slots

Perm = tuple[int, ...]

# Masks laid side by side in one int by the packed action of _orbit_trees.
_PACK = 512


def _sh_perm(image) -> Perm:
    """Shrikhande vertex permutation (a, b) -> image(a, b) mod 4, indices 4a + b."""
    return tuple(
        4 * (a % 4) + b % 4 for a, b in (image(*divmod(v, 4)) for v in range(16))
    )


# Generators of Aut Sh (order 192): the translation by (1,0) and two
# reflections, (a,b) -> (a,a-b) and the swap (a,b) -> (b,a).  The swap after
# the first reflection is the order-6 rotation (a,b) -> (a-b,a); rotation and
# swap generate the 12 linear maps that permute the connection set
# {+-(1,0), +-(0,1), +-(1,1)}, and conjugating the translation by the rotation
# gives the translation by (1,1), so all 16 translations are there too.  The
# first reflection fixes a and moves b, so its shift plan has 7 parts, where
# the rotation's has 13.
_SH_GENERATORS = (
    _sh_perm(lambda a, b: (a + 1, b)),
    _sh_perm(lambda a, b: (a, a - b)),
    _sh_perm(lambda a, b: (b, a)),
)

# Generators of Aut K4 = S_4: the transposition (0 1) and the 4-cycle (0 1 2 3).
_K4_GENERATORS = ((1, 0, 2, 3), (1, 2, 3, 0))

# Generators of the stabilizer of 0 in S_4 (order 6): the transposition
# (1 2) and the 3-cycle (1 2 3).  In Aut Sh, both reflections of
# _SH_GENERATORS fix (0,0), and they generate its stabilizer, the 12 linear
# maps.
_K4_STABILIZER_GENERATORS = ((0, 2, 1, 3), (0, 2, 3, 1))


class AutomorphismGroup(_FrozenRecord):
    """The automorphism group of a graph on degree vertices, by generators and order."""

    degree: int
    generators: tuple[Perm, ...]
    order: int


# ---------------------------------------------------------------------------
# Factor and slot-swap permutations
# ---------------------------------------------------------------------------


def lift_factor_perm(params: DoobParams, slot: int, factor_perm: Perm) -> Perm:
    """Vertex permutation applying factor_perm at one coordinate slot."""
    slots = _slots(params.m, params.n)
    if not 0 <= slot < len(slots):
        raise ValueError(f"slot {slot} out of range for {params}")
    radix, place = slots[slot]
    if len(factor_perm) != radix:
        raise ValueError("factor permutation does not fit the slot's alphabet")
    out = []
    for v in range(params.vertex_count):
        digit = v // place % radix
        out.append(v + (factor_perm[digit] - digit) * place)
    return tuple(out)


def swap_slots_perm(params: DoobParams, a: int, b: int) -> Perm:
    """Vertex permutation exchanging two equal coordinate slots."""
    slots = _slots(params.m, params.n)
    (radix, place_a), (radix_b, place_b) = slots[a], slots[b]
    if radix != radix_b:
        raise ValueError(f"slots {a} and {b} carry different factors")
    out = []
    for v in range(params.vertex_count):
        da = v // place_a % radix
        db = v // place_b % radix
        out.append(v + (db - da) * (place_a - place_b))
    return tuple(out)


def _slot_generators(params: DoobParams, sh_gens, k4_gens) -> tuple[Perm, ...]:
    """sh_gens at slot 0, k4_gens at slot m, and the swaps of adjacent like slots."""
    m, n = params.m, params.n
    gens: list[Perm] = []
    if m:
        gens += [lift_factor_perm(params, 0, gen) for gen in sh_gens]
    if n:
        gens += [lift_factor_perm(params, m, gen) for gen in k4_gens]
    for slot in [*range(m - 1), *range(m, m + n - 1)]:
        gens.append(swap_slots_perm(params, slot, slot + 1))
    return tuple(gens)


@lru_cache(maxsize=None)
def doob_symmetries(params: DoobParams) -> AutomorphismGroup:
    """The full automorphism group of D(m,n), by closed-form generators.

    The factor generators act at slot 0 (Shrikhande) and slot m (K4); the
    swaps of adjacent like slots conjugate them to every other slot.
    """
    m, n = params.m, params.n
    gens = _slot_generators(params, _SH_GENERATORS, _K4_GENERATORS)
    order = 192**m * factorial(m) * 24**n * factorial(n)
    return AutomorphismGroup(params.vertex_count, gens, order)


def _vertex_zero_stabilizer(params: DoobParams) -> tuple[Perm, ...]:
    """Closed-form generators of the stabilizer of vertex 0 in Aut D(m,n).

    An element of the wreath products fixes (0, ..., 0) exactly when each of
    its factor permutations fixes 0, so the stabilizer is (Stab_Sh(0) wr S_m)
    x (Stab_K4(0) wr S_n), of order 12^m m! 6^n n! = |Aut| / 4^(2m+n), and the
    slot swaps carry the factor stabilizers' generators to every slot.
    """
    return _slot_generators(params, _SH_GENERATORS[1:], _K4_STABILIZER_GENERATORS)


# ---------------------------------------------------------------------------
# Orbits of code lists
# ---------------------------------------------------------------------------


class OrbitPartition(_FrozenRecord):
    """Partition of a code list into orbit classes of list positions."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(cls) for cls in self.classes))


def apply_perm_to_code(code: Code, perm: Perm) -> Code:
    if len(perm) != code.params.vertex_count:
        raise ParameterMismatchError(
            f"permutation on {len(perm)} points applied to a code over {code.params}"
        )
    from .codes import Code

    return Code.from_members(code.params, (perm[v] for v in code.members))


def _shift_plan(perm: Perm) -> tuple[tuple[int, int], ...]:
    """(selector, shift) pairs: perm moves the vertices in selector by shift."""
    parts: dict[int, int] = {}
    for v, image in enumerate(perm):
        parts[image - v] = parts.get(image - v, 0) | 1 << v
    return tuple((selector, shift) for shift, selector in parts.items())


def _apply_plan(plan, mask: int) -> int:
    """Image of a vertex mask under the permutation a shift plan was made from."""
    image = 0
    for selector, shift in plan:
        part = mask & selector
        image |= part << shift if shift >= 0 else part >> -shift
    return image


def _block_size(masks: Sequence[int], plans) -> int:
    """Bytes per block of the packed action: whole bytes, as wide as the
    widest mask or selector, and at least one."""
    width = max(
        [1, *map(int.bit_length, masks), *(sel.bit_length() for plan in plans for sel, _ in plan)]
    )
    return -(-width // 8)


def _packed_plan(plan, size: int, run: int):
    """plan with each selector repeated in run blocks of size bytes."""
    total = 8 * size * run
    return [(_repeat(sel, 8 * size, total), shift) for sel, shift in plan]


def _splitter(size: int, run: int):
    """The blocks of a packed int of run blocks of size bytes, as a tuple of
    bytes, least significant first: one to_bytes and one precompiled unpack."""
    unpack = struct.Struct(f"{size}s" * run).unpack
    length = size * run
    return lambda packed: unpack(packed.to_bytes(length, "little"))


def _image_positions(masks: Sequence[int], plans) -> list[list[int]]:
    """images[k][i], the position in masks of the image of masks[i] under
    plans[k], by the packed action; -1 for an image outside the list.  A
    duplicate mask is an inconsistency."""
    count = len(masks)
    size = _block_size(masks, plans)
    keys = [mask.to_bytes(size, "little") for mask in masks]
    position = dict(zip(keys, range(count)))
    if len(position) != count:
        raise ConsistencyError("duplicate codes in the list to classify")
    # (packed int, split) of each run of up to _PACK masks; block i of a run
    # is bits 8 * size * i and up.  Runs but the last are _PACK long.
    splits = {}
    packed = []
    for start in range(0, count, _PACK):
        run = keys[start : start + _PACK]
        if len(run) not in splits:
            splits[len(run)] = _splitter(size, len(run))
        packed.append((int.from_bytes(b"".join(run), "little"), splits[len(run)]))
    outside = repeat(-1)
    images = []
    for plan in plans:
        repeated = _packed_plan(plan, size, min(count, _PACK))
        found = []
        for chunk, split in packed:
            found += map(position.get, split(_apply_plan(repeated, chunk)), outside)
        images.append(found)
    return images


def _orbit_trees(masks: Sequence[int], plans):
    """Breadth-first (Schreier) trees of the orbits of distinct masks under plans.

    Returns (trees, parent, via, images).  Each tree lists list positions in
    the order the search reached them, rooted at the least position not in
    an earlier tree; a non-root position j was reached as the image of
    masks[parent[j]] under plans[via[j]].  A root is its own parent.
    images[k][i] is the position of the image of masks[i] under plans[k].
    A duplicate mask, or an image outside the list, is an inconsistency.

    The plans are shift plans of permutations (_shift_plan).  Every mask's
    image under every plan is found before the search, by the packed action
    the module docstring describes.
    """
    count = len(masks)
    images = _image_positions(masks, plans)
    leaving = [column.index(-1) for column in images if -1 in column]
    if leaving:
        raise ConsistencyError(
            f"a group generator maps code {min(leaving)} outside the given list"
        )
    columns = list(enumerate(images))
    parent = [-1] * count  # -1 until the position is reached
    via = [0] * count
    trees = []
    for start in range(count):
        if parent[start] >= 0:
            continue
        parent[start] = start
        tree = [start]
        for i in tree:
            for k, column in columns:
                j = column[i]
                if parent[j] < 0:
                    parent[j] = i
                    via[j] = k
                    tree.append(j)
        trees.append(tree)
    return trees, parent, via, images


# ---------------------------------------------------------------------------
# Stabilizers: Schreier generators
# ---------------------------------------------------------------------------


def _compose(p: Perm, q: Perm) -> Perm:
    """The permutation that applies p first, then q: v -> q[p[v]]."""
    return tuple(map(q.__getitem__, p))


def _invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for v, image in enumerate(p):
        out[image] = v
    return tuple(out)


def _schreier_generators(tree, parent, via, images, perms) -> list[Perm]:
    """Generators of the stabilizer of the root r = tree[0] in the group perms
    generate, from r's tree in (trees, parent, via, images) = _orbit_trees(
    masks, plans of perms).

    The transversal t[x], the product of the perms along the tree path from
    r to x (t[x] is t[parent[x]] then perms[via[x]]), maps r's mask to
    masks[x].  For each x of the orbit in tree order, and each g of perms in
    order, the element t[x], then g, then the inverse of t[g x] maps r's mask
    to itself, g x read off images; by Schreier's lemma these elements
    generate the whole stabilizer (Seress, Permutation Group Algorithms,
    2003).  Tree edges, identities and repeats are dropped.
    """
    identity = tuple(range(len(perms[0])))
    t = {tree[0]: identity}
    for x in tree[1:]:
        t[x] = _compose(t[parent[x]], perms[via[x]])
    inverse = {}
    found = {}
    for x in tree:
        for k, g in enumerate(perms):
            y = images[k][x]
            if parent[y] == x and via[y] == k and y != tree[0]:
                continue  # a tree edge: t[y] is t[x] then g
            if y not in inverse:
                inverse[y] = _invert(t[y]).__getitem__
            s = tuple(map(inverse[y], map(g.__getitem__, t[x])))
            if s != identity:
                found[s] = None
    return list(found)


def orbits_of_masks(
    masks: Sequence[int], perms: Sequence[Perm], degree: int
) -> tuple[tuple[int, ...], ...]:
    """Orbits of distinct vertex masks under the group the perms generate.

    Returned as classes of list positions, each sorted, ordered by their
    smallest position.  The list must be closed under every perm, which must
    permute range(degree); a duplicate mask or an image outside the list is
    an inconsistency.
    """
    for perm in perms:
        if len(perm) != degree:
            raise ParameterMismatchError(
                f"permutation on {len(perm)} points applied to codes on {degree} vertices"
            )
        if sorted(perm) != list(range(degree)):
            raise ValueError(f"not a permutation of {degree} points")
    trees = _orbit_trees(masks, [_shift_plan(perm) for perm in perms])[0]
    return tuple(tuple(sorted(tree)) for tree in trees)


def orbits_of_codes(
    codes: Sequence[Code], group: Union[AutomorphismGroup, Sequence[Perm]]
) -> OrbitPartition:
    """Orbits of the codes under the group action, as a partition of positions.

    The code list must be closed under every generator; a generator mapping
    some code outside the list is an inconsistency.  Closure under the
    generators implies closure under the whole group.
    """
    perms = group.generators if isinstance(group, AutomorphismGroup) else tuple(group)
    if not codes:
        return OrbitPartition(())
    degrees = {code.params.vertex_count for code in codes}
    if len(degrees) != 1:
        raise ParameterMismatchError("codes to classify lie in graphs of different sizes")
    masks = [code.mask for code in codes]
    return OrbitPartition(orbits_of_masks(masks, perms, degrees.pop()))
