"""Independent oracles the test suite checks the package against.

Everything here is re-implemented from scratch over plain labeled tuples and
sets, sharing nothing with the package internals except the documented vertex
index convention, so agreement is a meaningful cross-check.  That convention
is read digit by digit with divmod, the reference for graphs._slots and the
permutations symmetry lifts from a factor or a swap of two coordinates.  The
subset scan literally tests every candidate subset on 16-vertex graphs; the
bounded search adds only a greedy clique-cover feasibility bound so 64-vertex
graphs finish; latin squares are counted row by row; the two 16-vertex symmetry
groups are built from their geometric descriptions rather than searched for.
The reference Shrikhande reduction regroups members fiber by fiber with
divmod and takes the pairing table as a dict of plain member tuples; the
reference parity code tests every labeled vertex against the rule.

The section on rules and codes holds small helpers over the package's Code,
ParityRule and PairingTable objects that only the tests use; the rule file
writer, since the package only reads rule files; the member
tuple of a mask by one byte per bit and the MDS test by every edge shift,
the references for Code.members and Code.is_mds read by K4 line; and the
reference for the search's symmetry shortcut: the plain fibered assembly,
which runs the search's own _assemble with every sub-code tried at the first
fiber, and so checks the shortcut, not the assembly; and the count by
orbit-weighted assembly that count_mds used before it counted latin
colorings, the second method for its K4 split; the splits of a graph's
coordinates into two sides of word length at least 2, and the codes
reducible over a split, by the number of their distinct sections; the
images of masks and the Schreier trees of their orbits, made one mask and
one generator at a time, the references for the packed action of
symmetry._image_positions and _orbit_trees; and the listed masks with each
lifted block imaged one mask at a time, the reference for the packed lift
of search._member_tuples, in order.  The last section works on
graphs as the package builds them, tuples of per-vertex neighbor masks: a
graph from an adjacency predicate, the adjacency queries over those rows,
graph invariants, permutation arithmetic, and an exhaustive backtracking
automorphism search, the reference for the closed-form generators of
doob_symmetries.
"""

import collections
import functools
import itertools
import json

from doobmds import ConsistencyError, ParameterMismatchError, ParityRule, graphs, search, symmetry

SH_DIFFS = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}


def shrikhande_adjacency():
    """Adjacency sets over (a, b) labels on the 4x4 torus."""
    vertices = [(a, b) for a in range(4) for b in range(4)]
    adj = {v: set() for v in vertices}
    for a, b in vertices:
        for da, db in SH_DIFFS:
            adj[(a, b)].add(((a + da) % 4, (b + db) % 4))
    return adj


def k4_adjacency():
    return {v: {w for w in range(4) if w != v} for v in range(4)}


def doob_adjacency(m, n):
    """Adjacency over labeled tuples (m Shrikhande pairs, then n K4 values).

    Product rule: neighbors differ in exactly one coordinate and are adjacent
    in that factor.
    """
    factors = [shrikhande_adjacency()] * m + [k4_adjacency()] * n
    vertex_sets = [sorted(f) for f in factors]
    vertices = list(itertools.product(*vertex_sets))
    adj = {v: set() for v in vertices}
    for v in vertices:
        for i, factor in enumerate(factors):
            for image in factor[v[i]]:
                adj[v].add(v[:i] + (image,) + v[i + 1 :])
    return adj


def encode_label(label, m, n):
    """The package's index convention: Shrikhande digits base 16, K4 base 4."""
    index = 0
    for i in range(m):
        a, b = label[i]
        index = index * 16 + 4 * a + b
    for j in range(n):
        index = index * 4 + label[m + j]
    return index


def decode_label(index, m, n):
    """Inverse of encode_label: m Shrikhande pairs, then n K4 values."""
    values = []
    for _ in range(n):
        index, value = divmod(index, 4)
        values.append(value)
    for _ in range(m):
        index, digit = divmod(index, 16)
        values.append(divmod(digit, 4))
    return tuple(values[::-1])


def vertex_digits(index, m, n):
    """The digits of a vertex index, most significant first, by divmod from
    the last: n K4 values base 4, then m Shrikhande digits 4a + b base 16."""
    digits = []
    for radix in [4] * n + [16] * m:
        index, digit = divmod(index, radix)
        digits.append(digit)
    return digits[::-1]


def digits_index(digits, m, n):
    """Inverse of vertex_digits."""
    index = 0
    for radix, digit in zip([16] * m + [4] * n, digits):
        index = index * radix + digit
    return index


def lift_perm_by_digits(m, n, slot, factor_perm):
    """The vertex permutation applying factor_perm to one digit, vertex by vertex."""
    out = []
    for v in range(4 ** (2 * m + n)):
        digits = vertex_digits(v, m, n)
        digits[slot] = factor_perm[digits[slot]]
        out.append(digits_index(digits, m, n))
    return tuple(out)


def swap_perm_by_digits(m, n, a, b):
    """The vertex permutation exchanging two digits, vertex by vertex."""
    out = []
    for v in range(4 ** (2 * m + n)):
        digits = vertex_digits(v, m, n)
        digits[a], digits[b] = digits[b], digits[a]
        out.append(digits_index(digits, m, n))
    return tuple(out)


def scan_independent_sets(adj, size):
    """Literal scan of every size-subset; the independent ones, as frozensets."""
    vertices = sorted(adj)
    out = []
    for combo in itertools.combinations(vertices, size):
        if all(b not in adj[a] for a, b in itertools.combinations(combo, 2)):
            out.append(frozenset(combo))
    return out


def greedy_clique_cover(adj):
    """Vertex -> clique id for a greedy partition of the graph into cliques."""
    cover = {}
    unassigned = set(adj)
    clique_id = 0
    while unassigned:
        clique = []
        for v in sorted(unassigned):
            if all(v in adj[u] for u in clique):
                clique.append(v)
        for v in clique:
            cover[v] = clique_id
            unassigned.remove(v)
        clique_id += 1
    return cover


def search_max_independent_sets(adj, size):
    """All independent sets of the given size, by DFS in label order.

    An independent set meets each cover clique at most once, so the number of
    distinct clique ids among the remaining candidates bounds what can still
    be added; that is the only pruning beyond the conflict set.
    """
    vertices = sorted(adj)
    position = {v: i for i, v in enumerate(vertices)}
    cover = greedy_clique_cover(adj)
    out = []
    chosen = []

    def walk(start, banned):
        need = size - len(chosen)
        if need == 0:
            out.append(frozenset(chosen))
            return
        candidates = [v for v in vertices[start:] if v not in banned]
        if len({cover[v] for v in candidates}) < need:
            return
        for v in candidates:
            chosen.append(v)
            walk(position[v] + 1, banned | adj[v] | {v})
            chosen.pop()

    walk(0, set())
    return out


def latin_squares_order4():
    """All 4x4 latin squares over {0,1,2,3}, as tuples of row tuples."""
    perms = list(itertools.permutations(range(4)))
    out = []
    for r0 in perms:
        for r1 in perms:
            if any(r1[c] == r0[c] for c in range(4)):
                continue
            for r2 in perms:
                if any(r2[c] in (r0[c], r1[c]) for c in range(4)):
                    continue
                for r3 in perms:
                    if any(r3[c] in (r0[c], r1[c], r2[c]) for c in range(4)):
                        continue
                    out.append((r0, r1, r2, r3))
    return out


def latin_square_members(square):
    """Cells of a square as vertex indices of the three-coordinate Hamming graph."""
    return frozenset(
        16 * row + 4 * col + square[row][col] for row in range(4) for col in range(4)
    )


def _sh_perm(f):
    out = []
    for v in range(16):
        a, b = f(*divmod(v, 4))
        out.append(4 * a + b)
    return tuple(out)


def shrikhande_geometric_group():
    """The 192 automorphisms from the torus geometry.

    Generated by the two unit translations, the order-3 map cycling the three
    connection axes, the coordinate swap, and negation; closed by plain BFS.
    """
    gens = [
        _sh_perm(lambda a, b: ((a + 1) % 4, b)),
        _sh_perm(lambda a, b: (a, (b + 1) % 4)),
        _sh_perm(lambda a, b: (-b % 4, (a - b) % 4)),
        _sh_perm(lambda a, b: (b, a)),
        _sh_perm(lambda a, b: (-a % 4, -b % 4)),
    ]
    identity = tuple(range(16))
    known = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[v]] for v in range(16))
                if q not in known:
                    known.add(q)
                    fresh.append(q)
        frontier = fresh
    return known


def rook_symmetry_group():
    """The 1152 symmetries of K4 x K4, written out directly.

    Relabel rows, relabel columns, optionally transpose first.
    """
    out = set()
    for sigma in itertools.permutations(range(4)):
        for tau in itertools.permutations(range(4)):
            out.add(tuple(4 * sigma[v // 4] + tau[v % 4] for v in range(16)))
            out.add(tuple(4 * sigma[v % 4] + tau[v // 4] for v in range(16)))
    return out


def orbit_size_multiset(member_sets, perms):
    """Sorted orbit sizes of frozenset codes under a full permutation list."""
    remaining = {frozenset(s) for s in member_sets}
    if len(remaining) != len(list(member_sets)):
        raise ValueError("duplicate codes")
    sizes = []
    while remaining:
        seed = min(remaining, key=lambda s: tuple(sorted(s)))
        orbit = {frozenset(p[v] for v in seed) for p in perms}
        if not orbit <= remaining:
            raise ValueError("code list is not closed under the permutations")
        sizes.append(len(orbit))
        remaining -= orbit
    return sorted(sizes)


def pattern_preserving_assignments(domain_sets, candidate_sets):
    """Every injective map preserving meets-iff-partners-meet, as index tuples.

    Used to confirm both that the package's table is valid and that it is the
    lexicographically least among all valid ones.
    """
    dm = [[bool(a & b) for b in domain_sets] for a in domain_sets]
    cm = [[bool(a & b) for b in candidate_sets] for a in candidate_sets]
    out = []
    assignment = []
    used = set()

    def walk():
        slot = len(assignment)
        if slot == len(domain_sets):
            out.append(tuple(assignment))
            return
        for c in range(len(candidate_sets)):
            if c in used:
                continue
            if any(cm[assignment[j]][c] != dm[j][slot] for j in range(slot)):
                continue
            assignment.append(c)
            used.add(c)
            walk()
            assignment.pop()
            used.remove(c)

    walk()
    return out


def last_sh_fibers(members, n):
    """Fibers at the last Shrikhande coordinate, grouped member by member.

    Keys are (prefix, suffix): the packed other Shrikhande coordinates and the
    packed K4 coordinates.  Values are the sorted Shrikhande vertex indices
    there.  Keys appear in the order of each fiber's lowest member.
    """
    suffix_size = 4**n
    fibers = {}
    for index in members:
        rest, suffix = divmod(index, suffix_size)
        prefix, s = divmod(rest, 16)
        fibers.setdefault((prefix, suffix), []).append(s)
    return {key: tuple(sorted(values)) for key, values in fibers.items()}


def reduce_last_sh(members, n, partner_of):
    """Reference reduction of the last Shrikhande coordinate, member by member.

    partner_of maps a Shrikhande code's sorted member tuple to its partner's.
    """
    suffix_size = 4**n
    out = []
    for (prefix, suffix), fiber in last_sh_fibers(members, n).items():
        for z in partner_of[fiber]:
            out.append(prefix * 16 * suffix_size + z * suffix_size + suffix)
    return tuple(sorted(out))


def permute_sh(members, m, n, perm):
    """New Shrikhande slot p holds old coordinate perm[p]; digit arithmetic."""
    suffix_size = 4**n
    out = []
    for index in members:
        rest, suffix = divmod(index, suffix_size)
        digits = []
        for _ in range(m):
            rest, d = divmod(rest, 16)
            digits.append(d)
        digits.reverse()
        new = 0
        for p in perm:
            new = new * 16 + digits[p]
        out.append(new * suffix_size + suffix)
    return tuple(sorted(out))


def reduce_sh(members, m, n, partner_of, order):
    """Reference for consuming every Shrikhande coordinate in the given order."""
    perm = tuple(order[m - 1 - p] for p in range(m))
    members = permute_sh(members, m, n, perm)
    for step in range(m):
        members = reduce_last_sh(members, n + 2 * step, partner_of)
    return members


def parity_members(m, n, bits):
    """Reference parity code, vertex by vertex over labeled tuples.

    A Shrikhande pair (a, b) gives first component a and second b; a K4 value
    v gives v // 2 and v % 2.  The members are the vertices whose first
    components sum to an even number and whose second components sum to
    bits[p] mod 2, where p indexes the first-component vector with Shrikhande
    positions as base-4 digits and K4 positions as base-2 digits.
    """
    sh_labels = [(a, b) for a in range(4) for b in range(4)]
    out = []
    for label in itertools.product(*([sh_labels] * m + [range(4)] * n)):
        firsts = [a for a, _ in label[:m]] + [v // 2 for v in label[m:]]
        seconds = [b for _, b in label[:m]] + [v % 2 for v in label[m:]]
        if sum(firsts) % 2:
            continue
        point = 0
        for position, value in enumerate(firsts):
            point = point * (4 if position < m else 2) + value
        if sum(seconds) % 2 == bits[point]:
            out.append(encode_label(label, m, n))
    return tuple(sorted(out))


def essentially_equal(rule_a, rule_b):
    """True iff two parity rules agree at every first-component vector with
    even coordinate sum."""
    if rule_a.params != rule_b.params:
        raise ValueError(f"comparing rules over {rule_a.params} and {rule_b.params}")
    return essential_key(rule_a) == essential_key(rule_b)


# ---------------------------------------------------------------------------
# Rules, codes and pairing tables, on the package's objects
# ---------------------------------------------------------------------------


def dump_rule(rule):
    """The rule file text of rule, as json.dumps writes it: sorted keys, no
    spaces, one trailing newline; the writer for the reader's round trips."""
    obj = {"m": rule.params.m, "n": rule.params.n, "bits": "".join(map(str, rule.bits))}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def all_parity_rules(params):
    """Every rule over the given parameters, in table order."""
    size = 4**params.m * 2**params.n
    for bits in itertools.product((0, 1), repeat=size):
        yield ParityRule(params, bits)


def constant_rule(params, bit):
    """The rule with the same bit at every first-component vector."""
    return ParityRule(params, (bit,) * (4**params.m * 2**params.n))


def essential_key(rule):
    """The rule's bits at the first-component vectors with even coordinate sum.

    The vectors are listed with itertools.product in table order (Shrikhande
    positions base 4, K4 positions base 2, most significant first).
    """
    m, n = rule.params.m, rule.params.n
    points = itertools.product(*([range(4)] * m + [range(2)] * n))
    return tuple(bit for point, bit in zip(points, rule.bits) if sum(point) % 2 == 0)


def mask_members(mask):
    """The set bits of mask in increasing order, by itertools.compress over
    one byte per bit: the reference for Code.members."""
    bits = format(mask, "b").encode().translate(bytes.maketrans(b"01", b"\x00\x01"))
    return tuple(itertools.compress(itertools.count(), bits[::-1]))


def is_mds_by_edge_shifts(code, graph):
    """code_size members and no edge of any shift of the graph's rows with
    both ends in the code: the reference for Code.is_mds by line cover."""
    mask = code.mask
    return mask.bit_count() == code.params.code_size and not any(
        (mask & selector) << d & mask for d, selector in _graph_shifts(graph)
    )


@functools.lru_cache(maxsize=None)
def _graph_shifts(graph):
    """graphs._row_shifts(graph), computed once per rows tuple."""
    return graphs._row_shifts(graph)


def sort_codes(codes):
    """Codes in lexicographic order of their member tuples."""
    return sorted(codes, key=lambda code: code.members)


def intersection_size(code, other):
    """Number of vertices two codes of the same graph share."""
    if code.params != other.params:
        raise ParameterMismatchError(f"intersecting codes from {code.params} and {other.params}")
    return (code.mask & other.mask).bit_count()


def intersection_profile(code, family):
    """Intersection sizes of one code against a fixed ordered family."""
    return tuple(intersection_size(code, other) for other in family)


def code_vertices(code):
    """The code's members as labels: m Shrikhande pairs, then n K4 values."""
    return tuple(decode_label(v, code.params.m, code.params.n) for v in code.members)


def pairing_violations(table):
    """Pairs (i, j), i <= j, of domain slots that meet while their images do
    not, or the other way round."""
    out = []
    size = len(table.domain)
    for i in range(size):
        for j in range(i, size):
            domain_meet = intersection_size(table.domain[i], table.domain[j]) > 0
            image_meet = intersection_size(table.image[i], table.image[j]) > 0
            if domain_meet != image_meet:
                out.append((i, j))
    return out


def full_assembly_masks(params):
    """Every code mask of D(m,n) by the fibered search without symmetry.

    The reference for the search's orbit-representative driver: every
    sub-code is tried at factor vertex 0, and each assignment (c_f) gives the
    mask with bit g * width + f for each vertex g of c_f.
    """
    rest, _, factor = search._decompose(params)
    if rest is None:
        return [
            sum(1 << v for v in members)
            for members in search.independent_sets_of_size(factor, params.code_size)
        ]
    sub_masks = full_assembly_masks(rest)
    compat = search._compatibility(sub_masks)
    width = len(factor)
    spreads = [
        sum(1 << g * width for g in range(mask.bit_length()) if mask >> g & 1)
        for mask in sub_masks
    ]
    return [
        sum(spreads[c] << f for f, c in enumerate(assignment))
        for assignment in search._assemble(factor, compat, ())
    ]


def orbit_assembly_count(params):
    """The number of codes of D(m,n) by full-Aut orbits of the first fiber.

    The second method for count_mds on the K4 split: one assignment search
    per orbit of the sub-codes under Aut G, weighted by the orbit's size,
    with the choices left at the last factor vertex added up as a popcount.
    It shares the assembly with enumeration, not count_mds's exact cover.
    """
    rest, _, factor = search._decompose(params)
    if rest is None:
        return len(search.independent_sets_of_size(factor, params.code_size))
    sub_masks = search._member_tuples(rest)
    trees = search._orbit_trees(
        sub_masks, [symmetry._shift_plan(perm) for perm in symmetry.doob_symmetries(rest).generators]
    )[0]
    compat = search._compatibility(sub_masks)
    return sum(
        len(tree)
        * search._assemble(factor, compat, (tree[0],), count_only=True)
        for tree in trees
    )


def coordinate_splits(m, n):
    """The splits A | B of the coordinate slots of D(m,n), each side of word
    length at least 2, as the slots of A, the side holding slot 0."""
    weight = [2] * m + [1] * n
    return [
        part
        for size in range(1, m + n)
        for part in itertools.combinations(range(m + n), size)
        if part[0] == 0 and 2 <= sum(weight[s] for s in part) <= 2 * m + n - 2
    ]


def reducible_masks(params, masks, part):
    """The masks among masks of the codes of D(m,n) reducible over part | the
    other slots.

    A code is reducible over A | B exactly when its sections
    {b : (a, b) in C}, over a in V(A), take 4 distinct values.  Exchanges of
    index bits (delta swaps) move A's digits above B's, keeping the order of
    the slots on each side; then the section at a is the slice of |V(B)|
    bits of the mask at a * |V(B)|.
    """
    m, n = params.m, params.n
    widths = [4] * m + [2] * n
    order = [*part, *(s for s in range(m + n) if s not in part)]

    def offsets(slots):  # lowest index bit of each slot, the last slot lowest
        out, at = {}, 0
        for s in reversed(slots):
            out[s] = at
            at += widths[s]
        return out

    old, new = offsets(range(m + n)), offsets(order)
    source = [0] * sum(widths)  # source[q]: the original index bit that goes to bit q
    for s in order:
        for i in range(widths[s]):
            source[new[s] + i] = old[s] + i
    at = list(range(len(source)))  # at[q]: the original index bit now at bit q
    swaps = []
    for q, bit in enumerate(source):
        r = at.index(bit)
        if r != q:
            j, k = sorted((q, r))
            selector = sum(1 << v for v in range(params.vertex_count) if v >> j & 1 and not v >> k & 1)
            swaps.append(((1 << k) - (1 << j), selector))
            at[q], at[r] = at[r], at[q]
    size = 4 ** (2 * m + n - sum(widths[s] for s in part) // 2) // 8  # bytes of V(B)
    out = set()
    for mask in masks:
        moved = mask
        for d, selector in swaps:
            t = ((moved >> d) ^ moved) & selector
            moved ^= t ^ (t << d)
        data = moved.to_bytes(params.vertex_count // 8, "little")
        if len({data[i : i + size] for i in range(0, len(data), size)}) == 4:
            out.add(mask)
    return out


def image_positions(masks, plans):
    """symmetry._image_positions one mask and one plan at a time: the
    reference for its packed action.

    images[k][i] is the position in masks of the image of masks[i] under
    plans[k], made by symmetry._apply_plan and looked up by its int, or -1
    if it is not in the list.  A duplicate mask has the packed version's
    error.
    """
    position = {mask: i for i, mask in enumerate(masks)}
    if len(position) != len(masks):
        raise ConsistencyError("duplicate codes in the list to classify")
    return [
        [position.get(symmetry._apply_plan(plan, mask), -1) for mask in masks] for plan in plans
    ]


def orbit_trees(masks, plans):
    """symmetry._orbit_trees one mask and one plan at a time.

    Breadth-first (Schreier) trees of the orbits of distinct masks under the
    shift plans, as (trees, parent, via, images), images by image_positions.
    Errors (a duplicate mask, an image outside the list) have the packed
    version's text.
    """
    images = image_positions(masks, plans)
    outside = [i for i in range(len(masks)) if any(column[i] < 0 for column in images)]
    if outside:
        raise ConsistencyError(
            f"a group generator maps code {outside[0]} outside the given list"
        )
    parent = [-1] * len(masks)
    via = [0] * len(masks)
    trees = []
    for start in range(len(masks)):
        if parent[start] >= 0:
            continue
        parent[start] = start
        tree = [start]
        for i in tree:
            for k in range(len(plans)):
                j = images[k][i]
                if parent[j] < 0:
                    parent[j] = i
                    via[j] = k
                    tree.append(j)
        trees.append(tree)
    return trees, parent, via, images


def member_masks(params):
    """search._member_tuples with each lifted block imaged one mask at a
    time by symmetry._apply_plan: the reference for the packed lift, list
    order included.  The searched blocks and the orbit steps are the
    search's own; the rest's masks come from this function.
    """
    rest, sh, rows = search._decompose(params)
    if rest is None:
        return [
            sum(1 << v for v in members)
            for members in search.independent_sets_of_size(rows, params.code_size)
        ]
    sub_masks = member_masks(rest)
    width = len(rows)
    compat = search._compatibility(sub_masks)

    def spread(mask):
        return sum(1 << g * width for g in range(mask.bit_length()) if mask >> g & 1)

    def lift(plan):
        return [(spread(sel) * ((1 << width) - 1), shift * width) for sel, shift in plan]

    spreads = [spread(mask) for mask in sub_masks]

    def by_orbits(perms, prefix):
        allowed = compat.full
        for t, c in enumerate(prefix):
            if rows[len(prefix)] >> t & 1:
                allowed &= compat[c]
        choices, (trees, parent, via, images), plans = search._orbit_step(
            sub_masks, allowed, perms
        )
        lifted = [lift(plan) for plan in plans]
        out = []
        start = {}  # tree node -> index of its block's first mask in out
        for tree in trees:
            fixed = (*prefix, choices[tree[0]])
            if len(fixed) < (2 if sh else 1):
                stabilizer = symmetry._schreier_generators(tree, parent, via, images, perms)
                block = by_orbits(stabilizer, fixed)
            else:
                block = [
                    sum(spreads[c] << f for f, c in enumerate(assignment))
                    for assignment in search._assemble(rows, compat, fixed)
                ]
            start[tree[0]] = len(out)
            out += block
            for j in tree[1:]:
                plan, source = lifted[via[j]], start[parent[j]]
                start[j] = len(out)
                source_block = out[source : source + len(block)]
                out += [symmetry._apply_plan(plan, mask) for mask in source_block]
        return out

    return by_orbits(symmetry.doob_symmetries(rest).generators, ())


# ---------------------------------------------------------------------------
# Graph invariants and the symmetry search, on graphs as tuples of rows
# ---------------------------------------------------------------------------
#
# A graph here is what the package's graph builders return: the tuple of its
# rows, bit v of row u set iff u ~ v.  The
# backtracking search finds whole automorphism groups of graphs up to 64
# vertices, the reference that the closed-form generators of
# doob_symmetries are checked against.

# Backtracking group search is restricted to graphs this small.
GROUP_SEARCH_LIMIT = 64

# Full element lists are materialized only up to this group order.
ELEMENT_LIST_LIMIT = 10_000


def graph_from_predicate(n, adjacent):
    """The rows of a graph on n vertices from an adjacency predicate on index pairs u < v."""
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if adjacent(u, v):
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return tuple(masks)


def adjacent(graph, u, v):
    return bool(graph[u] >> v & 1)


def neighbors(graph, u):
    """The neighbors of u in increasing order."""
    mask = graph[u]
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def degree(graph, u):
    return graph[u].bit_count()


def edge_count(graph):
    return sum(mask.bit_count() for mask in graph) // 2


def sh_pair(i):
    if not 0 <= i <= 15:
        raise ValueError(f"Shrikhande index out of range: {i}")
    return divmod(i, 4)


def k4_pair(v):
    """Two-bit view (a, b) of a K4 value, v = 2a + b with a, b in {0, 1}."""
    if not 0 <= v <= 3:
        raise ValueError(f"K4 value out of range: {v}")
    return divmod(v, 2)


def k4_value(a, b):
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"K4 pair out of range: ({a}, {b})")
    return 2 * a + b


def regular_degree(graph):
    """Common degree if the graph is regular, else None."""
    degrees = {degree(graph, u) for u in range(len(graph))}
    return degrees.pop() if len(degrees) == 1 else None


def common_neighbor_count(graph, u, v):
    return (graph[u] & graph[v]).bit_count()


def summary(graph):
    deg = regular_degree(graph)
    shape = f"{deg}-regular" if deg is not None else "irregular"
    return f"{len(graph)} vertices, {edge_count(graph)} edges, {shape}"


def clique_number(graph):
    """Size of a largest clique, by branch and bound on candidate bitmasks."""
    best = 0

    def extend(candidates, size):
        nonlocal best
        if size > best:
            best = size
        while candidates:
            if size + candidates.bit_count() <= best:
                return
            low = candidates & -candidates
            candidates ^= low
            extend(candidates & graph[low.bit_length() - 1], size + 1)

    extend((1 << len(graph)) - 1, 0)
    return best


def identity_perm(size):
    return tuple(range(size))


def compose(p, q):
    """Apply p first, then q."""
    if len(p) != len(q):
        raise ValueError("composing permutations of different sizes")
    return tuple(map(q.__getitem__, p))


def invert(p):
    out = [0] * len(p)
    for v, image in enumerate(p):
        out[image] = v
    return tuple(out)


def is_automorphism(graph, perm):
    """Exact check: perm is a bijection preserving adjacency both ways."""
    n = len(graph)
    if len(perm) != n or sorted(perm) != list(range(n)):
        return False
    for u in range(n):
        image_mask = 0
        for w in neighbors(graph, u):
            image_mask |= 1 << perm[w]
        if image_mask != graph[perm[u]]:
            return False
    return True


def _joint_colors(g, h):
    """Refined vertex colors for both graphs over a shared palette.

    Every round is isomorphism-invariant, so the coloring is sound for
    pruning whether or not the fixpoint was reached at the iteration cap.
    """
    cg = [degree(g, v) for v in range(len(g))]
    ch = [degree(h, v) for v in range(len(h))]
    for _ in range(len(g) + 2):
        sig_g = [
            (cg[v], tuple(sorted(cg[w] for w in neighbors(g, v))))
            for v in range(len(g))
        ]
        sig_h = [
            (ch[v], tuple(sorted(ch[w] for w in neighbors(h, v))))
            for v in range(len(h))
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(sig_g) | set(sig_h)))}
        new_g = [palette[s] for s in sig_g]
        new_h = [palette[s] for s in sig_h]
        if new_g == cg and new_h == ch:
            break
        cg, ch = new_g, new_h
    return cg, ch


def _branch_order(g, colors):
    """Source vertex order: maximize already-placed neighbors, break ties by
    scarcer color class, then index."""
    n = len(g)
    class_size = collections.Counter(colors)
    placed_mask = 0
    order = []
    remaining = set(range(n))
    while remaining:
        best = min(
            remaining,
            key=lambda v: (
                -(g[v] & placed_mask).bit_count(),
                class_size[colors[v]],
                v,
            ),
        )
        order.append(best)
        remaining.remove(best)
        placed_mask |= 1 << best
    return order


def isomorphisms(g, h, limit=None):
    """Adjacency-preserving bijections from g onto h, at most limit of them.

    Backtracking over a vertex order chosen to keep constraints tight, pruned
    by iterated neighborhood color refinement with a palette shared between
    the two graphs.  Returned as vertex-indexed tuples in a deterministic
    order.
    """
    n = len(g)
    if n != len(h) or edge_count(g) != edge_count(h):
        return []
    if n > GROUP_SEARCH_LIMIT:
        raise ValueError(
            f"isomorphism search limited to {GROUP_SEARCH_LIMIT} vertices, got {n}"
        )
    cg, ch = _joint_colors(g, h)
    if sorted(cg) != sorted(ch):
        return []
    full = (1 << n) - 1
    color_masks = {}
    for v in range(n):
        color_masks[ch[v]] = color_masks.get(ch[v], 0) | 1 << v
    order = _branch_order(g, cg)
    mapping = [-1] * n
    used = 0
    out = []

    def walk(depth):
        nonlocal used
        if depth == n:
            out.append(tuple(mapping))
            return limit is not None and len(out) >= limit
        v = order[depth]
        allowed = color_masks.get(cg[v], 0) & ~used
        for u in order[:depth]:
            if not allowed:
                return False
            if adjacent(g, u, v):
                allowed &= h[mapping[u]]
            else:
                allowed &= full & ~h[mapping[u]]
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


def are_isomorphic(g, h):
    return bool(isomorphisms(g, h, limit=1))


def closure(generators, degree, cap=None):
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


def generating_subset(elements, degree):
    """Small generating set extracted greedily from a full element list."""
    gens = []
    known = {identity_perm(degree)}
    for element in sorted(set(elements)):
        if element not in known:
            gens.append(element)
            known = closure(gens, degree)
    return tuple(gens)


class SearchedGroup(collections.namedtuple("SearchedGroup", "generators elements")):
    """An automorphism group found by exhaustive search.

    elements is the sorted full list when the order is at most
    ELEMENT_LIST_LIMIT, else None.
    """

    @property
    def order(self):
        return None if self.elements is None else len(self.elements)


def automorphism_group(graph):
    """The full automorphism group by exhaustive backtracking."""
    elements = tuple(sorted(isomorphisms(graph, graph)))
    generators = generating_subset(elements, len(graph))
    kept = elements if len(elements) <= ELEMENT_LIST_LIMIT else None
    return SearchedGroup(generators, kept)
