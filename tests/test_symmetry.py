import pytest

import oracles
from doobmds import (
    AutomorphismGroup,
    ConsistencyError,
    DeskScaleError,
    DoobParams,
    ParameterMismatchError,
    apply_perm_to_code,
    are_isomorphic,
    automorphism_group,
    complete_graph,
    doob_graph,
    doob_symmetries,
    graph_from_predicate,
    identity_perm,
    is_automorphism,
    isomorphisms,
    orbits_of_codes,
)
from doobmds.symmetry import (
    _apply_plan,
    _shift_plan,
    closure,
    compose,
    generating_subset,
    invert,
    lift_factor_perm,
    swap_slots_perm,
)


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
    assert group.certified_full
    assert group.order == 192
    elements = set(group.elements)
    assert elements == oracles.shrikhande_geometric_group()
    assert all(is_automorphism(sh_graph, p) for p in group.elements)
    assert closure(group.generators, 16) == elements
    # closed under composition and inversion
    sample = group.elements[::17]
    for p in sample:
        assert invert(p) in elements
        for q in sample:
            assert compose(p, q) in elements


def test_rook_group(rook_graph):
    group = automorphism_group(rook_graph)
    assert group.certified_full
    assert group.order == 1152
    assert set(group.elements) == oracles.rook_symmetry_group()


def test_k4_group_is_all_permutations():
    import itertools

    group = automorphism_group(complete_graph(4))
    assert set(group.elements) == set(itertools.permutations(range(4)))


def test_edgeless_pair_group():
    from doobmds import Graph

    group = automorphism_group(Graph(2, (0, 0)))
    assert group.order == 2
    assert set(group.elements) == {(0, 1), (1, 0)}


def test_is_automorphism_rejects():
    g = complete_graph(3)
    assert not is_automorphism(g, (0, 1))  # wrong size
    assert not is_automorphism(g, (0, 0, 1))  # not a bijection
    path = graph_from_predicate(3, lambda u, v: v - u == 1)
    assert not is_automorphism(path, (1, 0, 2))  # moves the endpoint onto the middle


def test_relabeled_shrikhande_is_isomorphic(sh_graph):
    relabel = tuple(reversed(range(16)))
    shuffled = graph_from_predicate(
        16, lambda u, v: sh_graph.adjacent(relabel[u], relabel[v])
    )
    assert are_isomorphic(sh_graph, shuffled)
    found = isomorphisms(sh_graph, shuffled, limit=5)
    assert len(found) == 5
    for perm in found:
        assert is_automorphism(sh_graph, compose(perm, relabel))


def test_isomorphism_guard():
    big = doob_graph(DoobParams(0, 4))
    with pytest.raises(DeskScaleError):
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
    for params, order in [(DoobParams(1, 0), 192), (DoobParams(0, 1), 24)]:
        group = doob_symmetries(params)
        assert group.certified_full
        assert group.order == order


def test_product_symmetries():
    params = DoobParams(1, 1)
    group = doob_symmetries(params)
    assert not group.certified_full
    assert group.order == 192 * 24
    graph = doob_graph(params)
    for gen in group.generators:
        assert is_automorphism(graph, gen)


def test_product_symmetries_beyond_element_cap():
    group = doob_symmetries(DoobParams(2, 0))
    assert group.elements is None and group.order is None
    graph = doob_graph(DoobParams(2, 0))
    for gen in group.generators:
        assert is_automorphism(graph, gen)


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


def test_orbit_census_of_small_families(codes_by_params):
    one_sh = orbits_of_codes(codes_by_params[(1, 0)], doob_symmetries(DoobParams(1, 0)))
    assert one_sh.sizes == (4, 12)
    two_k4 = orbits_of_codes(codes_by_params[(0, 2)], doob_symmetries(DoobParams(0, 2)))
    assert two_k4.sizes == (24,)
    one_k4 = orbits_of_codes(codes_by_params[(0, 1)], doob_symmetries(DoobParams(0, 1)))
    assert one_k4.sizes == (4,)


def test_orbit_census_against_oracle(codes_by_params):
    for key in [(1, 0), (0, 2)]:
        group = doob_symmetries(DoobParams(*key))
        ours = orbits_of_codes(codes_by_params[key], group).sizes
        theirs = oracles.orbit_size_multiset(
            [set(code.members) for code in codes_by_params[key]], group.elements
        )
        assert ours == tuple(theirs)
        for size in ours:
            assert group.order % size == 0


def test_generators_and_full_element_list_agree(codes_by_params):
    codes = codes_by_params[(1, 0)]
    group = doob_symmetries(DoobParams(1, 0))
    via_generators = orbits_of_codes(codes, group)
    via_elements = orbits_of_codes(codes, group.elements)
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
        (codes_by_params[(1, 0)], doob_symmetries(DoobParams(1, 0)).elements),
    ]
    for codes, perms in cases:
        for perm in perms:
            plan = _shift_plan(perm)
            for code in codes:
                assert _apply_plan(plan, code.mask) == apply_perm_to_code(code, perm).mask


def test_orbits_check_permutation_degree(codes_by_params):
    codes = codes_by_params[(0, 1)]
    with pytest.raises(ParameterMismatchError):
        orbits_of_codes(codes, [identity_perm(16)])


def test_group_dataclass_order_property():
    group = AutomorphismGroup(3, ((0, 1, 2),), None, certified_full=False)
    assert group.order is None
