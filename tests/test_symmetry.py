import itertools
import random
from math import factorial

import pytest

import oracles
from doobmds import (
    AutomorphismGroup,
    ConsistencyError,
    DoobParams,
    ParameterMismatchError,
    apply_perm_to_code,
    complete_graph,
    doob_graph,
    doob_symmetries,
    enumerate_mds,
    orbits_of_codes,
)
from doobmds.symmetry import (
    _PACK,
    _apply_plan,
    _compose,
    _invert,
    _orbit_trees,
    _schreier_generators,
    _shift_plan,
    _vertex_zero_stabilizer,
    lift_factor_perm,
    swap_slots_perm,
)
from oracles import (
    ELEMENT_LIST_LIMIT,
    are_isomorphic,
    automorphism_group,
    closure,
    compose,
    generating_subset,
    identity_perm,
    invert,
    is_automorphism,
    isomorphisms,
)

WORD_LENGTH_UP_TO_6 = [
    (m, n) for m in range(4) for n in range(7) if 0 < m + n and 2 * m + n <= 6
]

# len(doob_symmetries(D(m,n)).generators) when the factor groups were found
# by search, generated per slot: the closed form must use no more.
SEARCHED_GENERATOR_COUNTS = {
    (0, 1): 3, (0, 2): 7, (0, 3): 11, (0, 4): 15, (0, 5): 19, (0, 6): 23,
    (1, 0): 4, (1, 1): 7, (1, 2): 11, (1, 3): 15, (1, 4): 19,
    (2, 0): 9, (2, 1): 12, (2, 2): 16, (3, 0): 14,
}


def group_elements(params):
    """Every element of doob_symmetries(params), closed from its generators."""
    return closure(doob_symmetries(params).generators, params.vertex_count)


def test_compose_applies_left_then_right():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (2, 1, 0)
    assert compose(q, p) == (1, 0, 2)
    assert invert(p) == (2, 0, 1)
    assert compose(p, invert(p)) == identity_perm(3)
    with pytest.raises(ValueError):
        compose(p, (0, 1))


def test_shrikhande_group(sh_graph):
    group = automorphism_group(sh_graph)
    assert group.order == 192
    elements = set(group.elements)
    assert elements == oracles.shrikhande_geometric_group()
    assert all(is_automorphism(sh_graph, p) for p in group.elements)
    assert closure(group.generators, 16) == elements
    assert group_elements(DoobParams(1, 0)) == elements
    # closed under composition and inversion
    sample = group.elements[::17]
    for p in sample:
        assert invert(p) in elements
        for q in sample:
            assert compose(p, q) in elements


def test_rook_group(rook_graph):
    group = automorphism_group(rook_graph)
    assert group.order == 1152
    assert set(group.elements) == oracles.rook_symmetry_group()
    assert group_elements(DoobParams(0, 2)) == oracles.rook_symmetry_group()


def test_k4_group_is_all_permutations():
    everything = set(itertools.permutations(range(4)))
    assert set(automorphism_group(complete_graph(4)).elements) == everything
    assert group_elements(DoobParams(0, 1)) == everything


def test_edgeless_pair_group():
    group = automorphism_group((0, 0))
    assert group.order == 2
    assert set(group.elements) == {(0, 1), (1, 0)}


def test_is_automorphism_rejects():
    g = complete_graph(3)
    assert not is_automorphism(g, (0, 1))  # wrong size
    assert not is_automorphism(g, (0, 0, 1))  # not a bijection
    path = oracles.graph_from_predicate(3, lambda u, v: v - u == 1)
    assert not is_automorphism(path, (1, 0, 2))  # moves the endpoint onto the middle


def test_relabeled_shrikhande_is_isomorphic(sh_graph):
    relabel = tuple(reversed(range(16)))
    shuffled = oracles.graph_from_predicate(
        16, lambda u, v: oracles.adjacent(sh_graph, relabel[u], relabel[v])
    )
    assert are_isomorphic(sh_graph, shuffled)
    found = isomorphisms(sh_graph, shuffled, limit=5)
    assert len(found) == 5
    for perm in found:
        assert is_automorphism(sh_graph, compose(perm, relabel))


def test_isomorphism_guard():
    big = doob_graph(DoobParams(0, 4))
    with pytest.raises(ValueError, match="limited to 64 vertices"):
        isomorphisms(big, big)
    # 64 vertices is exactly the limit and must still work
    assert are_isomorphic(doob_graph(DoobParams(1, 1)), doob_graph(DoobParams(1, 1)))


def test_closure_and_generating_subset(sh_graph):
    group = automorphism_group(sh_graph)
    assert closure(group.generators, 16, cap=100) is None
    regenerated = generating_subset(group.elements, 16)
    assert closure(regenerated, 16) == set(group.elements)
    assert len(regenerated) <= len(group.elements)


def test_single_factor_symmetries_are_certified():
    """The closed form is the whole group the search finds."""
    for params, order in [(DoobParams(1, 0), 192), (DoobParams(0, 1), 24)]:
        group = doob_symmetries(params)
        assert group.order == order
        searched = automorphism_group(doob_graph(params))
        assert group_elements(params) == set(searched.elements)


def test_product_symmetries():
    params = DoobParams(1, 1)
    group = doob_symmetries(params)
    assert group.order == 192 * 24
    assert len(group_elements(params)) == 4608
    graph = doob_graph(params)
    for gen in group.generators:
        assert is_automorphism(graph, gen)


def test_product_symmetries_beyond_element_cap():
    group = doob_symmetries(DoobParams(2, 0))
    assert group.order == 192**2 * 2 > ELEMENT_LIST_LIMIT
    graph = doob_graph(DoobParams(2, 0))
    for gen in group.generators:
        assert is_automorphism(graph, gen)


@pytest.mark.parametrize("m, n", WORD_LENGTH_UP_TO_6)
def test_closed_form_order_and_generator_count(m, n):
    group = doob_symmetries(DoobParams(m, n))
    assert group.order == 192**m * factorial(m) * 24**n * factorial(n)
    assert group.degree == 4 ** (2 * m + n)
    # three Shrikhande and two K4 generators, plus the adjacent slot swaps
    assert len(group.generators) == (m and m + 2) + (n and n + 1)
    assert len(group.generators) <= SEARCHED_GENERATOR_COUNTS[(m, n)]


@pytest.mark.parametrize("m, n", [p for p in WORD_LENGTH_UP_TO_6 if 2 * p[0] + p[1] <= 4])
def test_every_generator_is_an_automorphism(m, n):
    graph = doob_graph(DoobParams(m, n))
    for gen in doob_symmetries(DoobParams(m, n)).generators:
        assert is_automorphism(graph, gen)


@pytest.mark.parametrize("m, n", [p for p in WORD_LENGTH_UP_TO_6 if 2 * p[0] + p[1] <= 4])
def test_vertex_zero_stabilizer_generators_fix_zero(m, n):
    graph = doob_graph(DoobParams(m, n))
    for gen in _vertex_zero_stabilizer(DoobParams(m, n)):
        assert gen[0] == 0
        assert is_automorphism(graph, gen)


@pytest.mark.parametrize(
    "m, n, order", [(1, 0, 12), (0, 2, 72), (1, 1, 72), (0, 3, 1296), (2, 0, 288)]
)
def test_vertex_zero_stabilizer_order(m, n, order):
    # |Aut D(m,n)| / 4^(2m+n): the group is transitive on the vertices.
    params = DoobParams(m, n)
    assert order * params.vertex_count == doob_symmetries(params).order
    assert len(closure(_vertex_zero_stabilizer(params), params.vertex_count)) == order


def test_lift_and_swap():
    params = DoobParams(0, 2)
    swap = swap_slots_perm(params, 0, 1)
    assert all(swap[4 * a + b] == 4 * b + a for a in range(4) for b in range(4))
    lifted = lift_factor_perm(params, 1, (1, 0, 2, 3))
    assert lifted[0] == 1 and lifted[1] == 0 and lifted[2] == 2
    assert lifted[4] == 5
    with pytest.raises(ValueError):
        lift_factor_perm(params, 2, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        lift_factor_perm(params, 0, (0, 1))
    with pytest.raises(ValueError):
        swap_slots_perm(DoobParams(1, 1), 0, 1)


@pytest.mark.parametrize("m, n", [(2, 1), (1, 2)])
def test_lift_and_swap_match_the_digit_by_digit_oracle(m, n):
    params = DoobParams(m, n)
    rng = random.Random(10 * m + n)
    for slot in range(m + n):
        radix = 16 if slot < m else 4
        for _ in range(3):
            perm = tuple(rng.sample(range(radix), radix))
            expected = oracles.lift_perm_by_digits(m, n, slot, perm)
            assert lift_factor_perm(params, slot, perm) == expected
    for a, b in itertools.permutations(range(m + n), 2):
        if (a < m) == (b < m):
            assert swap_slots_perm(params, a, b) == oracles.swap_perm_by_digits(m, n, a, b)
        else:
            with pytest.raises(ValueError):
                swap_slots_perm(params, a, b)


def test_orbit_census_of_small_families(codes_by_params):
    one_sh = orbits_of_codes(codes_by_params[(1, 0)], doob_symmetries(DoobParams(1, 0)))
    assert one_sh.sizes == (4, 12)
    two_k4 = orbits_of_codes(codes_by_params[(0, 2)], doob_symmetries(DoobParams(0, 2)))
    assert two_k4.sizes == (24,)
    one_k4 = orbits_of_codes(codes_by_params[(0, 1)], doob_symmetries(DoobParams(0, 1)))
    assert one_k4.sizes == (4,)


def test_orbit_census_against_oracle(codes_by_params):
    for key in [(1, 0), (0, 2)]:
        params = DoobParams(*key)
        group = doob_symmetries(params)
        ours = orbits_of_codes(codes_by_params[key], group).sizes
        theirs = oracles.orbit_size_multiset(
            [set(code.members) for code in codes_by_params[key]], group_elements(params)
        )
        assert ours == tuple(theirs)
        for size in ours:
            assert group.order % size == 0


def test_generators_and_full_element_list_agree(codes_by_params):
    codes = codes_by_params[(1, 0)]
    params = DoobParams(1, 0)
    via_generators = orbits_of_codes(codes, doob_symmetries(params))
    via_elements = orbits_of_codes(codes, sorted(group_elements(params)))
    assert via_generators.classes == via_elements.classes


def test_family_closure_under_product_symmetries(codes_by_params):
    partition = orbits_of_codes(
        codes_by_params[(1, 1)], doob_symmetries(DoobParams(1, 1))
    )
    assert sum(partition.sizes) == 240
    order = doob_symmetries(DoobParams(1, 1)).order
    for size in partition.sizes:
        assert order % size == 0


def test_orbits_reject_bad_input(codes_by_params):
    codes = codes_by_params[(0, 2)]
    group = doob_symmetries(DoobParams(0, 2))
    with pytest.raises(ConsistencyError):
        orbits_of_codes(codes[:3], group)
    with pytest.raises(ConsistencyError):
        orbits_of_codes([codes[0], codes[0]], group)


def test_closure_error_names_the_first_code_mapped_outside(codes_by_params):
    group = doob_symmetries(DoobParams(1, 1))
    listed = codes_by_params[(1, 1)][1:]
    present = set(listed)
    leaving = [
        i
        for i, code in enumerate(listed)
        if any(apply_perm_to_code(code, perm) not in present for perm in group.generators)
    ]
    assert len(leaving) > 1
    with pytest.raises(ConsistencyError, match=f"maps code {leaving[0]} outside the given list"):
        orbits_of_codes(listed, group)


def test_trivial_group_gives_singletons(codes_by_params):
    codes = codes_by_params[(0, 2)]
    partition = orbits_of_codes(codes, [identity_perm(16)])
    assert partition.sizes == (1,) * 24


def test_apply_perm_to_code_checks_degree(codes_by_params):
    code = codes_by_params[(0, 1)][0]
    with pytest.raises(ParameterMismatchError):
        apply_perm_to_code(code, identity_perm(16))


def test_shift_plan_matches_code_action(codes_by_params):
    cases = [
        (codes_by_params[(1, 1)], doob_symmetries(DoobParams(1, 1)).generators),
        (codes_by_params[(1, 0)], sorted(group_elements(DoobParams(1, 0)))),
    ]
    for codes, perms in cases:
        for perm in perms:
            plan = _shift_plan(perm)
            for code in codes:
                assert _apply_plan(plan, code.mask) == apply_perm_to_code(code, perm).mask


def test_shift_plans_of_the_generators_are_short():
    # The reflection (a,b) -> (a,a-b) has 7 parts where the order-6 rotation
    # (a,b) -> (a-b,a) it replaced had 13; the orbit step pays per part.
    generators = doob_symmetries(DoobParams(1, 2)).generators
    parts = [len(_shift_plan(perm)) for perm in generators]
    assert parts == [2, 7, 7, 3, 2, 7]
    assert sum(parts) == 28


def test_orbit_trees_record_how_each_code_was_reached(codes_by_params):
    masks = [code.mask for code in codes_by_params[(1, 1)]]
    plans = [_shift_plan(perm) for perm in doob_symmetries(DoobParams(1, 1)).generators]
    trees, parent, via, images = _orbit_trees(masks, plans)
    assert sorted(len(tree) for tree in trees) == [24, 72, 144]
    for tree in trees:
        assert parent[tree[0]] == tree[0] == min(tree)
        for j in tree[1:]:
            assert tree.index(parent[j]) < tree.index(j)
            assert _apply_plan(plans[via[j]], masks[parent[j]]) == masks[j]
    assert len(images) == len(masks) * len(plans)
    for i, mask in enumerate(masks):
        for k, plan in enumerate(plans):
            assert masks[images[i * len(plans) + k]] == _apply_plan(plan, mask)


def test_compose_and_invert_match_the_oracle():
    rng = random.Random(3)
    p, q = (tuple(rng.sample(range(64), 64)) for _ in range(2))
    assert _compose(p, q) == compose(p, q)
    assert _invert(p) == invert(p)
    assert _compose(p, _invert(p)) == identity_perm(64)


def _rooted_trees(masks, r, perms):
    """Orbit trees of masks with masks[r] moved to position 0, so that the
    tree holding it is rooted there: that tree, and the parent, via and
    images of _orbit_trees."""
    reordered = [masks[r]] + masks[:r] + masks[r + 1 :]
    trees, *rest = _orbit_trees(reordered, [_shift_plan(perm) for perm in perms])
    return trees[0], *rest


def _image(perm, mask):
    return sum(1 << perm[v] for v in range(mask.bit_length()) if mask >> v & 1)


@pytest.mark.parametrize("m, n", [(1, 0), (1, 1)])
def test_schreier_generators_fix_the_root_and_generate_its_stabilizer(codes_by_params, m, n):
    params = DoobParams(m, n)
    group = doob_symmetries(params)
    perms, degree = group.generators, params.vertex_count
    masks = [code.mask for code in codes_by_params[(m, n)]]
    for r in range(len(masks)):
        tree, parent, via, images = _rooted_trees(masks, r, perms)
        generators = _schreier_generators(tree, parent, via, images, perms)
        assert all(_image(s, masks[r]) == masks[r] for s in generators)
        # They fix r, so they generate a subgroup of Stab(r), of order
        # |Aut| / |orbit(r)|; they generate all of it.
        assert len(closure(generators, degree)) == group.order // len(tree)


def _trees_or_error(orbit_trees, masks, plans):
    try:
        return orbit_trees(masks, plans)
    except ConsistencyError as exc:
        return f"ConsistencyError: {exc}"


def test_packed_orbit_trees_match_the_per_mask_oracle(codes_by_params):
    """The packed action gives the per-mask search's (trees, parent, via,
    images), and its errors, for lists of every length around the packing
    size."""
    cases = []
    for key, codes in codes_by_params.items():
        params = DoobParams(*key)
        masks = [code.mask for code in codes]
        for perms in (doob_symmetries(params).generators, _vertex_zero_stabilizer(params)):
            cases.append((masks, [_shift_plan(perm) for perm in perms]))
    d12 = DoobParams(1, 2)
    masks = [code.mask for code in enumerate_mds(d12).codes]
    aut = [_shift_plan(perm) for perm in doob_symmetries(d12).generators]
    stab = [_shift_plan(perm) for perm in _vertex_zero_stabilizer(d12)]
    identity = [_shift_plan(identity_perm(d12.vertex_count))]
    cases += [(masks, aut), (masks, stab), (masks, [])]
    rng = random.Random(14)
    for length in (0, 1, _PACK - 1, _PACK, _PACK + 1, 2 * _PACK + 1):
        sample = rng.sample(masks, length)
        # Not closed under Aut (an outside error, unless empty); closed under
        # the identity, so every image is found at its own position.
        cases += [(sample, aut), (sample, identity)]
    # Masks wider than every selector: the bit past the graph is in no part
    # of any plan, so each wide mask maps among the plain ones and is a root
    # of its own tree; without the plain ones, every image is outside.
    d11 = [code.mask for code in codes_by_params[(1, 1)]]
    d11_aut = [_shift_plan(perm) for perm in doob_symmetries(DoobParams(1, 1)).generators]
    cases.append((d11 + [mask | 1 << 300 for mask in d11], d11_aut))
    cases.append(([1 << 300 | mask for mask in d11], d11_aut))
    cases.append((d11 + d11[:1], d11_aut))  # a duplicate
    outcomes = []
    for masks, plans in cases:
        outcomes.append(_trees_or_error(_orbit_trees, masks, plans))
        assert outcomes[-1] == _trees_or_error(oracles.orbit_trees, masks, plans)
    assert "ConsistencyError: duplicate codes in the list to classify" in outcomes
    assert sum(isinstance(outcome, str) and "outside" in outcome for outcome in outcomes) >= 6


def test_orbits_check_permutation_degree(codes_by_params):
    codes = codes_by_params[(0, 1)]
    with pytest.raises(ParameterMismatchError):
        orbits_of_codes(codes, [identity_perm(16)])


def test_group_dataclass_order_property():
    """A group is its degree, generators and order: no element list is kept."""
    group = AutomorphismGroup(3, ((1, 2, 0),), 3)
    assert group.order == 3
    assert AutomorphismGroup._fields == ("degree", "generators", "order")
    assert set(vars(group)) == {"degree", "generators", "order"}
