"""Independent oracles the test suite checks the package against.

Everything here is re-implemented from scratch over plain labeled tuples and
sets, sharing nothing with the package internals except the documented vertex
index convention, so agreement is a meaningful cross-check.  The subset scan
literally tests every candidate subset on 16-vertex graphs; the bounded
search adds only a greedy clique-cover feasibility bound so 64-vertex graphs
finish; latin squares are counted row by row; the two 16-vertex symmetry
groups are built from their geometric descriptions rather than searched for.
The reference Shrikhande reduction regroups members fiber by fiber with
divmod and takes the pairing table as a dict of plain member tuples; the
reference parity code tests every labeled vertex against the rule.
"""

import itertools

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


class NotAShrikhandeFiber(LookupError):
    """A fiber with no partner: args are (fiber, prefix, suffix)."""


def reduce_last_sh(members, n, partner_of):
    """Reference reduction of the last Shrikhande coordinate, member by member.

    partner_of maps a Shrikhande code's sorted member tuple to its partner's.
    Raises NotAShrikhandeFiber for the first fiber, in order of lowest member,
    that has no partner.
    """
    suffix_size = 4**n
    out = []
    for (prefix, suffix), fiber in last_sh_fibers(members, n).items():
        if fiber not in partner_of:
            raise NotAShrikhandeFiber(fiber, prefix, suffix)
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
