import itertools
import pickle
import random

import pytest

from doobmds import (
    Code,
    ConsistencyError,
    DoobParams,
    PairingTable,
    ParityRule,
    build_parity_code,
    derive_pairing,
    enumerate_mds,
    k4_pair_codes,
    reduce_sh_coordinates,
    sh_codes,
)
from doobmds import reduction
from doobmds.graphs import _swap_index_bits
from doobmds.parity import rule_domain_size, rule_from_hex

import oracles


def partner_tuples(table):
    """The pairing table as the oracles take it: member tuple -> member tuple."""
    return {dom.members: img.members for dom, img in zip(table.domain, table.image)}


def test_code_lists_are_canonical(codes_by_params):
    # The pairing's lists are the independent 4-sets of Sh and K4 x K4; the
    # search, a second method, lists the same codes in the same order.
    assert sh_codes() == codes_by_params[(1, 0)] == enumerate_mds(DoobParams(1, 0)).codes
    assert k4_pair_codes() == codes_by_params[(0, 2)] == enumerate_mds(DoobParams(0, 2)).codes
    assert [code.members for code in sh_codes()] == sorted(code.members for code in sh_codes())
    assert all(code.is_mds() for code in sh_codes() + k4_pair_codes())


def test_pairing_is_valid():
    table = derive_pairing()
    assert len(table.domain) == 16
    assert len(set(c.members for c in table.image)) == 16
    assert all(c.params == DoobParams(0, 2) for c in table.image)
    assert oracles.pairing_violations(table) == []


def test_pairing_pattern_matrices_equal_entrywise():
    table = derive_pairing()
    for i in range(16):
        for j in range(16):
            domain_meet = oracles.intersection_size(table.domain[i], table.domain[j]) > 0
            image_meet = oracles.intersection_size(table.image[i], table.image[j]) > 0
            assert domain_meet == image_meet


def test_pairing_is_lexicographically_least():
    # The oracle enumerates every valid assignment and takes the minimum.
    domain_sets = [frozenset(c.members) for c in sh_codes()]
    candidate_sets = [frozenset(c.members) for c in k4_pair_codes()]
    all_valid = oracles.pattern_preserving_assignments(domain_sets, candidate_sets)
    assert all_valid, "no valid assignment would mean a wrong connection set"
    table = derive_pairing()
    candidates = k4_pair_codes()
    derived = tuple(candidates.index(img) for img in table.image)
    assert derived == min(all_valid)


def test_corrupting_the_pairing_is_detected():
    table = derive_pairing()
    for i in range(16):
        for j in range(i + 1, 16):
            swapped = list(table.image)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            violations = oracles.pairing_violations(PairingTable(table.domain, tuple(swapped)))
            if violations:
                # the report names a pair involving a swapped slot
                assert any(i in pair or j in pair for pair in violations)
                return
    pytest.fail("no swap broke the pattern, which cannot happen")


def test_diagonal_always_meets():
    table = derive_pairing()
    for dom, img in zip(table.domain, table.image):
        assert oracles.intersection_size(dom, dom) == 4
        assert oracles.intersection_size(img, img) == 4


def test_single_coordinate_reduction_equals_table():
    table = derive_pairing()
    for dom, img in zip(table.domain, table.image):
        assert reduce_sh_coordinates(dom) == img


def test_reduction_preserves_cardinality_and_is_injective(codes_by_params):
    images = [reduce_sh_coordinates(c) for c in codes_by_params[(1, 1)]]
    target = {c.members: c for c in codes_by_params[(0, 3)]}
    for source, image in zip(codes_by_params[(1, 1)], images):
        assert len(image) == len(source)
        assert image.params == DoobParams(0, 3)
        assert image.members in target  # lands among the verified codes
    assert len({image.members for image in images}) == len(images)


def test_reduction_fibers_are_shrikhande_codes(codes_by_params):
    sh_sets = {c.members for c in sh_codes()}
    for code in codes_by_params[(1, 1)][:40]:
        for fiber in oracles.last_sh_fibers(code.members, code.params.n).values():
            assert fiber in sh_sets


def test_two_step_reduction_matches_iterated(codes_by_params):
    # The reference's single step, applied to D(2,0) and then to D(1,2).
    partner_of = partner_tuples(derive_pairing())
    for code in codes_by_params[(2, 0)][:25]:
        one_step = oracles.reduce_last_sh(code.members, 0, partner_of)
        reduced = reduce_sh_coordinates(code)
        assert reduced.members == oracles.reduce_last_sh(one_step, 2, partner_of)
        assert reduced.params == DoobParams(0, 4)


def test_identity_reduction_on_pure_k4_codes(codes_by_params):
    code = codes_by_params[(0, 2)][0]
    assert reduce_sh_coordinates(code) == code


def test_consumption_order_can_change_the_result(codes_by_params):
    seen_difference = False
    for code in codes_by_params[(2, 0)][:50]:
        a = reduce_sh_coordinates(code, order=(1, 0))
        b = reduce_sh_coordinates(code, order=(0, 1))
        assert a.params == b.params == DoobParams(0, 4)
        if a.members != b.members:
            seen_difference = True
            break
    assert seen_difference


def test_default_order_is_last_first(codes_by_params):
    for code in codes_by_params[(2, 0)][:10]:
        assert reduce_sh_coordinates(code) == reduce_sh_coordinates(code, order=(1, 0))


def test_rejects_non_mds_input():
    bad = Code(DoobParams(1, 0), (0, 1, 2, 3))
    with pytest.raises(ConsistencyError, match="adjacent members 0 and 1"):
        reduce_sh_coordinates(bad)
    with pytest.raises(ConsistencyError, match="1 members, expected 4"):
        reduce_sh_coordinates(Code(DoobParams(0, 2), (0,)))


def test_rejects_bad_order(codes_by_params):
    code = codes_by_params[(2, 0)][0]
    with pytest.raises(ValueError):
        reduce_sh_coordinates(code, order=(0, 0))
    with pytest.raises(ValueError):
        reduce_sh_coordinates(code, order=(0, 1, 2))


def test_permute_sh_coordinates(codes_by_params):
    # The delta swaps an explicit order applies to the input's mask move old
    # Shrikhande coordinate perm[p] to slot p, as the digit arithmetic of
    # the reference does.
    samples = [
        (DoobParams(2, 0), codes_by_params[(2, 0)][:20]),
        (DoobParams(3, 0), random_parity_codes(3, 0, 2)),
        (DoobParams(2, 2), random_parity_codes(2, 2, 2)),
    ]
    for params, codes in samples:
        m, n = params.m, params.n
        for perm in itertools.permutations(range(m)):
            swaps = reduction._slot_swaps(m, n, perm)
            assert (swaps == ()) == (perm == tuple(range(m)))
            for code in codes:
                expected = oracles.permute_sh(code.members, m, n, perm)
                assert _swap_index_bits(code.mask, swaps) == sum(1 << v for v in expected)


def test_reduced_codes_verify_everywhere(codes_by_params):
    # Chains down to pure K4 parameters stay maximum independent sets.
    for code in codes_by_params[(2, 0)][:25]:
        reduce_sh_coordinates(code).assert_mds()
    for code in codes_by_params[(1, 1)][:25]:
        reduce_sh_coordinates(code).assert_mds()


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 0)])
def test_reduction_matches_member_by_member_reference(codes_by_params, m, n):
    params = DoobParams(m, n)
    codes = codes_by_params[(m, n)] if (m, n) in codes_by_params else enumerate_mds(params).codes
    partner_of = partner_tuples(derive_pairing())
    orders = [(1, 0), (0, 1)] if m == 2 else [(0,)]
    for order in orders:
        for code in codes:
            reduced = reduce_sh_coordinates(code, order=order)
            expected = oracles.reduce_sh(code.members, m, n, partner_of, order)
            assert reduced.members == expected
            assert reduced.mask == sum(1 << v for v in expected)
            assert reduced.params == DoobParams(0, n + 2 * m)


def test_valid_input_is_checked_by_the_table_alone(codes_by_params, monkeypatch):
    """A valid D(2,0) code, reduced in either order, runs no assert_mds, and
    the only Code built is the result: none for the permuted input or the
    D(1,2) in between, so nothing checks them."""
    checked, built = [], []
    assert_mds, post_init = Code.assert_mds, vars(Code)["__post_init__"]

    def counting_check(self, *args, **kwargs):
        checked.append(self.params)
        return assert_mds(self, *args, **kwargs)

    def counting_build(self, *args):
        built.append(self.params)
        return post_init(self, *args)

    monkeypatch.setattr(Code, "assert_mds", counting_check)
    monkeypatch.setattr(Code, "__post_init__", counting_build)
    for code in codes_by_params[(2, 0)][:50]:
        for order in [(1, 0), (0, 1)]:
            assert reduce_sh_coordinates(code, order=order).params == DoobParams(0, 4)
    assert checked == []
    assert built == [DoobParams(0, 4)] * 100


def reduction_outcome(code, order=None):
    """The ConsistencyError message of reduce_sh_coordinates, or None."""
    try:
        reduce_sh_coordinates(code, order=order)
    except ConsistencyError as exc:
        return str(exc)
    return None


def assert_mds_outcome(code):
    """The ConsistencyError message of the input's own assert_mds, as the
    reduction names it, or None."""
    try:
        code.assert_mds(context="reduction input")
    except ConsistencyError as exc:
        return str(exc)
    return None


def moved_member(code, v, w):
    """code with member v moved to vertex w (merged into w if w is a member)."""
    return Code.from_mask(code.params, code.mask & ~(1 << v) | 1 << w)


def test_table_check_agrees_with_assert_mds_on_d11(codes_by_params):
    # Every D(1,1) code with its last fiber (K4 value 3) at the Shrikhande
    # coordinate replaced by each Shrikhande code: every lookup succeeds, and
    # only the K4 line cover can fail.  Then each member moved along each
    # index bit.
    params = DoobParams(1, 1)
    last = sum(1 << (4 * s + 3) for s in range(16))
    spread = [sum(1 << (4 * s + 3) for s in fiber.members) for fiber in sh_codes()]
    raised = passed = 0
    for code in codes_by_params[(1, 1)]:
        inputs = [Code.from_mask(params, code.mask & ~last | fiber) for fiber in spread]
        inputs += [moved_member(code, v, v ^ 1 << b) for v in code.members for b in range(6)]
        for bad in inputs:
            expected = assert_mds_outcome(bad)
            assert reduction_outcome(bad) == expected, bad
            raised += expected is not None
            passed += expected is None
    assert raised and passed


def fiber_mutants(code, fiber):
    """code with fiber number fiber at its last Shrikhande coordinate (the
    fibers numbered by their first vertex) replaced by each other Shrikhande
    code, and exchanged with each other fiber that differs from it."""
    params = code.params
    stride = 4**params.n

    def bits(f):
        start = f // stride * 16 * stride + f % stride
        return [1 << start + stride * s for s in range(16)]

    def read(f):
        return [s for s, bit in enumerate(bits(f)) if code.mask & bit]

    def put(mask, f, values):
        return mask & ~sum(bits(f)) | sum(bits(f)[s] for s in values)

    mine = read(fiber)
    masks = [put(code.mask, fiber, other.members) for other in sh_codes()]
    for other in range(params.code_size // 4):
        if read(other) != mine:
            masks.append(put(put(code.mask, fiber, read(other)), other, mine))
    return [Code.from_mask(params, mask) for mask in masks if mask != code.mask]


@pytest.mark.parametrize("m, n", [(1, 2), (2, 0)])
def test_table_check_agrees_with_assert_mds_on_samples(codes_by_params, m, n):
    # Each sampled code, one member moved, and one fiber at the last
    # Shrikhande coordinate swapped for each other Shrikhande code and for
    # each other fiber.  A swap keeps every fiber a Shrikhande code; at D(1,2)
    # an exchange of two fibers with the same stride-1 K4 value keeps every
    # line of the stride-4 direction met, so only the slice quadruples, which
    # check the stride-1 direction in place of the line cover, can fail.
    params = DoobParams(m, n)
    codes = codes_by_params[(m, n)] if (m, n) in codes_by_params else enumerate_mds(params).codes
    rng = random.Random(100 * m + n)
    orders = [None] + list(itertools.permutations(range(m)))
    outcomes = set()
    for code in rng.sample(codes, 60):
        v = rng.choice(code.members)
        inputs = [code, moved_member(code, v, rng.randrange(params.vertex_count))]
        inputs += [moved_member(code, v, v ^ 1 << b) for b in range(params.vertex_count.bit_length() - 1)]
        inputs += fiber_mutants(code, rng.randrange(params.code_size // 4))
        for bad in inputs:
            expected = assert_mds_outcome(bad)
            for order in orders:
                assert reduction_outcome(bad, order) == expected
            outcomes.add(expected is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("k", range(5))
def test_slice_tables_map_each_fiber_to_its_partner(k):
    """Every entry of the slice table for k decodes, fiber by fiber, to
    Shrikhande codes and their partners: pairs and singles at k = 0,
    ordered quadruples of disjoint codes at k >= 1."""
    pairing = derive_pairing()
    partner_of = {dom.mask: img.mask for dom, img in zip(pairing.domain, pairing.image)}
    k4_pair_masks = {code.mask for code in k4_pair_codes()}
    table = pairing.slice_table(k)
    fibers = 2 if k == 0 else 4
    # place[t][s]: the bit of vertex s of fiber t in a key or image.
    place = [[16 * t + s if k == 0 else 4**k * s + t for s in range(16)] for t in range(fibers)]

    def decode(bits):
        return [sum((bits >> place[t][s] & 1) << s for s in range(16)) for t in range(fibers)]

    def encode(words):
        return sum(1 << place[t][s] for t in range(fibers) for s in range(16) if words[t] >> s & 1)

    widths = []
    for key, image in table.items():
        words, images = decode(key), decode(image)
        assert (encode(words), encode(images)) == (key, image)  # nothing outside the layout
        used = [t for t in range(fibers) if words[t]]
        widths.append(len(used))
        assert used == list(range(len(used)))  # a single is the low word
        for t in used:
            assert words[t] in partner_of and images[t] == partner_of[words[t]]
            assert images[t] in k4_pair_masks
        if k:
            assert sum(words) == 0xFFFF and len(set(words)) == 4  # a partition
    if k == 0:
        assert len(table) == 272 and sorted(widths) == [1] * 16 + [2] * 256
    else:
        assert len(table) == 240 and set(widths) == {4}
    assert pairing.slice_table(k) is table  # built once


def test_every_d10_four_set_fails_as_assert_mds_unless_a_shrikhande_code():
    # D(1,0) is one 16-bit fiber word, read as a two-word slice with no high word.
    params = DoobParams(1, 0)
    shrikhande_masks = {code.mask for code in sh_codes()}
    failed = 0
    for members in itertools.combinations(range(16), 4):
        code = Code(params, members)
        expected = assert_mds_outcome(code)
        assert reduction_outcome(code) == expected
        assert (expected is None) == (code.mask in shrikhande_masks)
        failed += expected is not None
    assert failed == 1804


def test_a_later_step_catches_a_repeated_row():
    """Row 1 of a D(2,0) parity code set to row 0: every fiber at the last
    Shrikhande coordinate is still a Shrikhande code, so the first step's
    lookups succeed, and the second step's fail."""
    params = DoobParams(2, 0)
    code = build_parity_code(rule_from_hex(params, "c3a5"))
    row0 = code.mask & 0xFFFF
    bad = Code.from_mask(params, code.mask & ~(0xFFFF << 16) | row0 << 16)
    (pairs, word, places), (table, selector, offsets) = derive_pairing().plan(2, 0)[0]
    assert (word, places) == (0xFFFFFFFF, tuple(range(0, params.vertex_count, 32)))
    keys = [bad.mask >> place & word for place in places]
    assert all(key in pairs for key in keys)
    after_first = sum(pairs[key] << place for key, place in zip(keys, places))
    assert any(after_first >> offset & selector not in table for offset in offsets)
    for order in (None, (1, 0), (0, 1)):
        with pytest.raises(ConsistencyError, match=r"^reduction input: adjacent members 1 and 17$"):
            reduce_sh_coordinates(bad, order=order)
    assert reduction_outcome(bad) == assert_mds_outcome(bad)


@pytest.mark.parametrize("m", [2, 3])
def test_word_step_rejects_a_word_not_in_the_table(m):
    """A D(m,0) code with one 32-bit word of the first step, a pair of
    fibers, made a word that is no table key: a member of its low fiber is
    moved so that the fiber is no Shrikhande code.  The code keeps its size,
    so assert_mds names an adjacent pair, and the reduction gives the same
    message in the default order and in every explicit one."""
    params = DoobParams(m, 0)
    if m == 2:
        code = enumerate_mds(params).codes[3]
    else:
        code = random_parity_codes(3, 0, 1)[0]
    table = derive_pairing().slice_table(0)
    shrikhande_masks = {fiber.mask for fiber in sh_codes()}
    words = params.vertex_count // 32
    for index in (0, words // 2, words - 1):
        word = code.mask >> 32 * index & 0xFFFFFFFF
        low = word & 0xFFFF
        s = (low & -low).bit_length() - 1
        moved = [low ^ 1 << s | 1 << t for t in range(16) if not low >> t & 1]
        bad_low = next(fiber for fiber in moved if fiber not in shrikhande_masks)
        bad_word = word ^ low ^ bad_low
        assert word in table and bad_word not in table
        bad = Code.from_mask(params, code.mask ^ (word ^ bad_word) << 32 * index)
        expected = assert_mds_outcome(bad)
        assert expected.startswith("reduction input: adjacent members ")
        for order in [None, *itertools.permutations(range(m))]:
            assert reduction_outcome(bad, order) == expected


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 4) for n in range(7 - 2 * m)])
def test_every_plan_step_tiles_the_index_bits(m, n):
    """The shifted selectors of each step, cut to the vertex bits, partition
    them, and every key and image of the step's table lies inside its
    selector, so the one slice loop reads each bit once and writes each
    image back in place: D(1,0)'s one 16-bit word under the 32-bit selector
    too."""
    vertex_bits = (1 << DoobParams(m, n).vertex_count) - 1
    steps, _, _ = derive_pairing().plan(m, n)
    assert len(steps) == m
    for table, selector, offsets in steps:
        covered = 0
        for offset in offsets:
            part = selector << offset & vertex_bits
            assert not covered & part
            covered |= part
        assert covered == vertex_bits
        assert not any((key | image) & ~selector for key, image in table.items())


def test_clearing_the_pairing_empties_the_plans(codes_by_params):
    # The resolved plans bind the pairing's slice tables and live on the
    # pairing, so clearing derive_pairing's cache drops them with it: a new
    # pairing starts with no tables or plans, and the next reduction
    # rebuilds its tables and the plan on it.
    code = codes_by_params[(2, 0)][0]
    expected = reduce_sh_coordinates(code)
    old = derive_pairing()
    assert (2, 0) in old._plans and {0, 2} <= set(old._slice_tables)
    derive_pairing.cache_clear()
    new = derive_pairing()
    assert new is not old and new == old
    assert new._plans == {} and new._slice_tables == {}
    assert reduce_sh_coordinates(code) == expected
    assert derive_pairing() is new and set(new._plans) == {(2, 0)}
    ((first, _, _), (second, _, _)), lines, target = new._plans[2, 0]
    assert first is new.slice_table(0) and second is new.slice_table(2)
    assert new.plan(2, 0) is new._plans[2, 0]
    assert lines == ((), ()) and target == DoobParams(0, 4)
    for other in old._slice_tables.values():
        assert all(other is not table for table in new._slice_tables.values())


def test_pairing_pickles_without_its_derived_tables(codes_by_params):
    reduce_sh_coordinates(codes_by_params[(2, 0)][0])
    pairing = derive_pairing()
    assert pairing._plans
    copy = pickle.loads(pickle.dumps(pairing))
    assert copy == pairing and "_plans" not in vars(copy)
    assert copy.plan(2, 0)[1:] == pairing.plan(2, 0)[1:]


def test_table_check_on_pure_k4_input():
    # No Shrikhande coordinate: assert_mds is the whole check.
    params = DoobParams(0, 2)
    for mask in (0, 1, 0b1000_0100_0010_0001, 0b0001_0001_0001_0001, 0b1000_0100_0010_0011):
        bad = Code.from_mask(params, mask)
        assert reduction_outcome(bad) == assert_mds_outcome(bad)


# Strides 4^n of 1, 4, 16, 64 and 256, each with several rows (prefixes).
WIDE_PARAMS = [(2, 1), (1, 3), (3, 0), (2, 2), (1, 4)]


def random_parity_codes(m, n, count):
    """Parity codes of seeded random rules: maximum independent sets of any
    desk-scale D(m,n), with no enumeration."""
    params = DoobParams(m, n)
    rng = random.Random(100 * m + n)
    size = rule_domain_size(params)
    return [
        build_parity_code(ParityRule(params, tuple(rng.randrange(2) for _ in range(size))))
        for _ in range(count)
    ]


@pytest.mark.parametrize("m, n", WIDE_PARAMS)
def test_word_kernel_matches_member_by_member_reference(m, n):
    partner_of = partner_tuples(derive_pairing())
    for code in random_parity_codes(m, n, 3):
        for order in itertools.permutations(range(m)):
            reduced = reduce_sh_coordinates(code, order=order)
            assert reduced.members == oracles.reduce_sh(code.members, m, n, partner_of, order)
            assert reduced.params == DoobParams(0, n + 2 * m)


@pytest.mark.parametrize("m, n", WIDE_PARAMS)
def test_error_names_the_input_in_every_order(m, n):
    # Seeded parity codes of word length 5 and 6, each with one member moved
    # along each index bit and a few of its fiber mutants.  An explicit order
    # reduces a permuted copy of the mask; the error still names the input's
    # own members, as its assert_mds does.
    params = DoobParams(m, n)
    rng = random.Random(10 * m + n)
    orders = [None] + list(itertools.permutations(range(m)))
    outcomes = set()
    for code in random_parity_codes(m, n, 2):
        v = rng.choice(code.members)
        inputs = [moved_member(code, v, v ^ 1 << b) for b in range(2 * params.word_length)]
        inputs += rng.sample(fiber_mutants(code, rng.randrange(params.code_size // 4)), 4)
        for bad in inputs:
            expected = assert_mds_outcome(bad)
            for order in orders:
                assert reduction_outcome(bad, order) == expected, (order, bad.members)
            outcomes.add(expected is None)
    assert False in outcomes
