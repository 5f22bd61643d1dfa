"""Automorphisms at desk scale and orbit classification of code lists.

Isomorphisms are found by backtracking over a vertex order chosen to keep
constraints tight, pruned by iterated neighborhood color refinement with a
palette shared between the two graphs.  Small graphs get their certified full
automorphism group this way.  For product graphs the group is generated from
per-factor automorphisms plus swaps of equal factors; that subgroup is the
natural one but is not claimed to be the full automorphism group.  Codes are
classified into orbits by closing the code list under the generators, acting
on vertex bitmasks: each generator is precomputed as a shift plan (vertices
grouped by how far the permutation moves them), so the image of a mask is a
handful of AND/shift/OR operations on Python ints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Optional, Sequence, Union

from .codes import Code
from .errors import ConsistencyError, DeskScaleError, ParameterMismatchError
from .graphs import DoobParams, Graph, complete_graph, doob_graph, shrikhande

Perm = tuple[int, ...]

# Backtracking group search is restricted to graphs this small.
GROUP_SEARCH_LIMIT = 64

# Full element lists are materialized only up to this group order.
ELEMENT_LIST_LIMIT = 10_000


def identity_perm(size: int) -> Perm:
    return tuple(range(size))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    if len(p) != len(q):
        raise ValueError("composing permutations of different sizes")
    return tuple(q[p[v]] for v in range(len(p)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for v, image in enumerate(p):
        out[image] = v
    return tuple(out)


def is_automorphism(graph: Graph, perm: Perm) -> bool:
    """Exact check: perm is a bijection preserving adjacency both ways."""
    n = graph.vertex_count
    if len(perm) != n or sorted(perm) != list(range(n)):
        return False
    for u in range(n):
        image_mask = 0
        for w in graph.neighbors(u):
            image_mask |= 1 << perm[w]
        if image_mask != graph.neighbor_masks[perm[u]]:
            return False
    return True


def _joint_colors(g: Graph, h: Graph):
    """Refined vertex colors for both graphs over a shared palette.

    Every round is isomorphism-invariant, so the coloring is sound for
    pruning whether or not the fixpoint was reached at the iteration cap.
    """
    cg = [g.degree(v) for v in range(g.vertex_count)]
    ch = [h.degree(v) for v in range(h.vertex_count)]
    for _ in range(g.vertex_count + 2):
        sig_g = [
            (cg[v], tuple(sorted(cg[w] for w in g.neighbors(v))))
            for v in range(g.vertex_count)
        ]
        sig_h = [
            (ch[v], tuple(sorted(ch[w] for w in h.neighbors(v))))
            for v in range(h.vertex_count)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(sig_g) | set(sig_h)))}
        new_g = [palette[s] for s in sig_g]
        new_h = [palette[s] for s in sig_h]
        if new_g == cg and new_h == ch:
            break
        cg, ch = new_g, new_h
    return cg, ch


def _branch_order(g: Graph, colors) -> list[int]:
    """Source vertex order: maximize already-placed neighbors, break ties by
    scarcer color class, then index."""
    n = g.vertex_count
    class_size = Counter(colors)
    placed_mask = 0
    order = []
    remaining = set(range(n))
    while remaining:
        best = min(
            remaining,
            key=lambda v: (
                -(g.neighbor_masks[v] & placed_mask).bit_count(),
                class_size[colors[v]],
                v,
            ),
        )
        order.append(best)
        remaining.remove(best)
        placed_mask |= 1 << best
    return order


def isomorphisms(g: Graph, h: Graph, limit: Optional[int] = None) -> list[Perm]:
    """Adjacency-preserving bijections from g onto h, at most limit of them.

    Returned as vertex-indexed tuples in a deterministic order.
    """
    n = g.vertex_count
    if n != h.vertex_count or g.edge_count() != h.edge_count():
        return []
    if n > GROUP_SEARCH_LIMIT:
        raise DeskScaleError(
            f"isomorphism search limited to {GROUP_SEARCH_LIMIT} vertices, got {n}"
        )
    cg, ch = _joint_colors(g, h)
    if sorted(cg) != sorted(ch):
        return []
    full = (1 << n) - 1
    color_masks: dict[int, int] = {}
    for v in range(n):
        color_masks[ch[v]] = color_masks.get(ch[v], 0) | 1 << v
    order = _branch_order(g, cg)
    mapping = [-1] * n
    used = 0
    out: list[Perm] = []

    def walk(depth) -> bool:
        nonlocal used
        if depth == n:
            out.append(tuple(mapping))
            return limit is not None and len(out) >= limit
        v = order[depth]
        allowed = color_masks.get(cg[v], 0) & ~used
        for u in order[:depth]:
            if not allowed:
                return False
            if g.adjacent(u, v):
                allowed &= h.neighbor_masks[mapping[u]]
            else:
                allowed &= full & ~h.neighbor_masks[mapping[u]]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            target = low.bit_length() - 1
            mapping[v] = target
            used |= low
            stop = walk(depth + 1)
            used &= ~low
            mapping[v] = -1
            if stop:
                return True
        return False

    walk(0)
    return out


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return bool(isomorphisms(g, h, limit=1))


@dataclass(frozen=True)
class AutomorphismGroup:
    """A permutation group on graph vertices.

    elements is the full list when the order is at most ELEMENT_LIST_LIMIT,
    else None.  certified_full records whether the group was proved to be the
    whole automorphism group (by exhaustive search) rather than generated
    from factor symmetries.
    """

    degree: int
    generators: tuple[Perm, ...]
    elements: Optional[tuple[Perm, ...]]
    certified_full: bool

    @property
    def order(self) -> Optional[int]:
        return None if self.elements is None else len(self.elements)


def closure(generators: Sequence[Perm], degree: int, cap: Optional[int] = None):
    """All products of the generators; None if the cap is exceeded."""
    ident = identity_perm(degree)
    known = {ident}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for p in frontier:
            for gen in generators:
                q = compose(p, gen)
                if q not in known:
                    known.add(q)
                    next_frontier.append(q)
                    if cap is not None and len(known) > cap:
                        return None
        frontier = next_frontier
    return known


def generating_subset(elements: Sequence[Perm], degree: int) -> tuple[Perm, ...]:
    """Small generating set extracted greedily from a full element list."""
    gens: list[Perm] = []
    known = {identity_perm(degree)}
    for element in sorted(set(elements)):
        if element not in known:
            gens.append(element)
            known = closure(gens, degree)
    return tuple(gens)


def automorphism_group(graph: Graph) -> AutomorphismGroup:
    """Certified full automorphism group by exhaustive backtracking."""
    elements = tuple(sorted(isomorphisms(graph, graph)))
    generators = generating_subset(elements, graph.vertex_count)
    kept = elements if len(elements) <= ELEMENT_LIST_LIMIT else None
    return AutomorphismGroup(graph.vertex_count, generators, kept, certified_full=True)


# ---------------------------------------------------------------------------
# Generated symmetries of product graphs
# ---------------------------------------------------------------------------


def _place_values(params: DoobParams):
    radices = [16] * params.m + [4] * params.n
    values = []
    acc = 1
    for radix in reversed(radices):
        values.append(acc)
        acc *= radix
    return radices, list(reversed(values))


def lift_factor_perm(params: DoobParams, slot: int, factor_perm: Perm) -> Perm:
    """Vertex permutation applying factor_perm at one coordinate slot."""
    radices, place = _place_values(params)
    if not 0 <= slot < len(radices):
        raise ValueError(f"slot {slot} out of range for {params}")
    if len(factor_perm) != radices[slot]:
        raise ValueError("factor permutation does not fit the slot's alphabet")
    out = []
    for v in range(params.vertex_count):
        digit = v // place[slot] % radices[slot]
        out.append(v + (factor_perm[digit] - digit) * place[slot])
    return tuple(out)


def swap_slots_perm(params: DoobParams, a: int, b: int) -> Perm:
    """Vertex permutation exchanging two equal coordinate slots."""
    radices, place = _place_values(params)
    if radices[a] != radices[b]:
        raise ValueError(f"slots {a} and {b} carry different factors")
    out = []
    for v in range(params.vertex_count):
        da = v // place[a] % radices[a]
        db = v // place[b] % radices[b]
        out.append(v + (db - da) * place[a] + (da - db) * place[b])
    return tuple(out)


@lru_cache(maxsize=None)
def doob_symmetries(params: DoobParams) -> AutomorphismGroup:
    """Symmetries of D(m,n) for orbit work.

    Single factors get the certified group.  Products get the subgroup
    generated by factor automorphisms and swaps of like factors, with the
    element list materialized only while it stays small.
    """
    if params.m + params.n == 1:
        return automorphism_group(doob_graph(params))
    gens: list[Perm] = []
    sh_gens = automorphism_group(shrikhande()).generators
    k4_gens = automorphism_group(complete_graph(4)).generators
    for slot in range(params.m):
        for gen in sh_gens:
            gens.append(lift_factor_perm(params, slot, gen))
    for slot in range(params.m, params.m + params.n):
        for gen in k4_gens:
            gens.append(lift_factor_perm(params, slot, gen))
    for slot in range(params.m - 1):
        gens.append(swap_slots_perm(params, slot, slot + 1))
    for slot in range(params.m, params.m + params.n - 1):
        gens.append(swap_slots_perm(params, slot, slot + 1))
    # The generated group is (Aut Sh wr S_m) x (S_4 wr S_n); its order is known
    # in closed form, so the element list is built only when it will be kept.
    order = 192**params.m * factorial(params.m) * 24**params.n * factorial(params.n)
    elements = None
    if order <= ELEMENT_LIST_LIMIT:
        elements = tuple(sorted(closure(gens, params.vertex_count)))
    return AutomorphismGroup(params.vertex_count, tuple(gens), elements, certified_full=False)


# ---------------------------------------------------------------------------
# Orbits of code lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitPartition:
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


def orbits_of_masks(
    masks: Sequence[int], perms: Sequence[Perm], degree: int
) -> tuple[tuple[int, ...], ...]:
    """Orbits of distinct vertex masks under the group the perms generate.

    Returned as classes of list positions, each sorted, ordered by their
    smallest position.  The list must be closed under every perm, which must
    permute range(degree); a duplicate mask or an image outside the list is
    an inconsistency.
    """
    position = {mask: i for i, mask in enumerate(masks)}
    if len(position) != len(masks):
        raise ConsistencyError("duplicate codes in the list to classify")
    for perm in perms:
        if len(perm) != degree:
            raise ParameterMismatchError(
                f"permutation on {len(perm)} points applied to codes on {degree} vertices"
            )
        if sorted(perm) != list(range(degree)):
            raise ValueError(f"not a permutation of {degree} points")
    plans = [_shift_plan(perm) for perm in perms]
    parent = list(range(len(masks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, mask in enumerate(masks):
        for plan in plans:
            j = position.get(_apply_plan(plan, mask))
            if j is None:
                raise ConsistencyError(
                    f"a group generator maps code {i} outside the given list"
                )
            a, b = find(i), find(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    classes: dict[int, list[int]] = {}
    for i in range(len(masks)):
        classes.setdefault(find(i), []).append(i)
    return tuple(tuple(cls) for cls in classes.values())


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
