import itertools

import pytest

from doobmds import (
    DeskScaleError,
    DoobParams,
    FormatError,
    ParityRule,
    bounds_report,
    build_parity_code,
    representative_rules,
    shrikhande,
)
from doobmds.parity import (
    even_point_indices,
    index_point,
    load_rule,
    point_index,
    read_rule,
    rule_domain_size,
    rule_from_hex,
)

import oracles

SMALL = [DoobParams(1, 0), DoobParams(0, 2)]
MEDIUM = SMALL + [DoobParams(1, 1)]


def test_rule_table_shapes():
    assert rule_domain_size(DoobParams(1, 0)) == 4
    assert rule_domain_size(DoobParams(0, 2)) == 4
    assert rule_domain_size(DoobParams(1, 1)) == 8
    assert rule_domain_size(DoobParams(2, 0)) == 16
    with pytest.raises(ValueError):
        ParityRule(DoobParams(1, 0), (0, 1))
    with pytest.raises(ValueError):
        ParityRule(DoobParams(1, 0), (0, 1, 2, 0))


def test_point_indexing_round_trip():
    for params in [DoobParams(1, 1), DoobParams(2, 0), DoobParams(0, 3)]:
        for index in range(rule_domain_size(params)):
            assert point_index(params, index_point(params, index)) == index
    assert point_index(DoobParams(1, 1), (3, 1)) == 7
    assert index_point(DoobParams(1, 1), 7) == (3, 1)
    with pytest.raises(ValueError):
        point_index(DoobParams(1, 1), (0, 2))  # K4 position is binary
    with pytest.raises(ValueError):
        point_index(DoobParams(1, 1), (0,))


def test_all_constructions_are_maximum_independent_sets():
    for params in MEDIUM:
        for rule in oracles.all_parity_rules(params):
            code = build_parity_code(rule)
            assert len(code) == params.code_size
            code.assert_mds()
    for rule in itertools.islice(representative_rules(DoobParams(2, 0)), 0, 256, 16):
        code = build_parity_code(rule)
        assert len(code) == 64
        code.assert_mds()


def test_forced_example_with_zero_rule():
    # One Shrikhande coordinate, rule constantly 0: both components even.
    code = build_parity_code(oracles.constant_rule(DoobParams(1, 0), 0))
    assert code.members == (0, 2, 8, 10)  # (0,0), (0,2), (2,0), (2,2)


def test_zero_rule_on_two_k4_coordinates(codes_by_params):
    code = build_parity_code(oracles.constant_rule(DoobParams(0, 2), 0))
    assert len(code) == 4
    assert code.members in {c.members for c in codes_by_params[(0, 2)]}


def test_distinct_code_counts_match_class_counts():
    for params, expected in [(DoobParams(1, 0), 4), (DoobParams(0, 2), 4), (DoobParams(1, 1), 16)]:
        distinct = {build_parity_code(rule).members for rule in oracles.all_parity_rules(params)}
        assert len(distinct) == expected
        assert bounds_report(params).lower_exact == expected
    distinct20 = {
        build_parity_code(rule).members for rule in representative_rules(DoobParams(2, 0))
    }
    assert len(distinct20) == 256
    assert bounds_report(DoobParams(2, 0)).lower_exact == 256


def test_code_depends_only_on_even_sum_values():
    for params in MEDIUM:
        codes = {}
        for rule in oracles.all_parity_rules(params):
            key = oracles.essential_key(rule)
            members = build_parity_code(rule).members
            assert codes.setdefault(key, members) == members


def test_code_equality_iff_essential_equality():
    for params in SMALL:
        rules = list(oracles.all_parity_rules(params))
        built = [build_parity_code(rule).members for rule in rules]
        for i, j in itertools.combinations(range(len(rules)), 2):
            same_class = oracles.essentially_equal(rules[i], rules[j])
            assert same_class == (built[i] == built[j])


def test_essential_equality_basics():
    params = DoobParams(1, 0)
    zero = oracles.constant_rule(params, 0)
    assert oracles.essentially_equal(zero, zero)
    # (1,) has odd sum: flipping there changes nothing essential
    odd_flip = ParityRule(params, (0, 1, 0, 0))
    assert oracles.essentially_equal(zero, odd_flip)
    assert build_parity_code(zero) == build_parity_code(odd_flip)
    # (2,) has even sum: flipping there is essential and changes the code
    even_flip = ParityRule(params, (0, 0, 1, 0))
    assert not oracles.essentially_equal(zero, even_flip)
    assert build_parity_code(zero) != build_parity_code(even_flip)
    with pytest.raises(ValueError):
        oracles.essentially_equal(zero, oracles.constant_rule(DoobParams(0, 2), 0))


def test_even_point_counts():
    assert len(even_point_indices(DoobParams(1, 0))) == 2
    assert len(even_point_indices(DoobParams(0, 2))) == 2
    assert len(even_point_indices(DoobParams(1, 1))) == 4
    assert len(even_point_indices(DoobParams(2, 0))) == 8


def test_exhaustive_partition_of_the_full_rule_space_at_two_sh_coordinates():
    params = DoobParams(2, 0)
    size = rule_domain_size(params)
    keys = set()
    for packed in range(2 ** size):
        bits = tuple(packed >> (size - 1 - k) & 1 for k in range(size))
        keys.add(oracles.essential_key(ParityRule(params, bits)))
    assert len(keys) == 256


def test_class_count_switches_to_symbolic():
    # Exact through word length 6, the last at desk scale; symbolic past it.
    assert bounds_report(DoobParams(0, 1)).lower_exact == 2
    for params in (DoobParams(3, 0), DoobParams(2, 2), DoobParams(0, 6)):
        r = bounds_report(params)
        assert (r.lower_log2_log2, r.lower_exact) == (5, 2 ** 32)
    for params, exponent in ((DoobParams(3, 1), 6), (DoobParams(4, 0), 7)):
        r = bounds_report(params)
        assert (r.lower_log2_log2, r.lower_exact) == (exponent, None)


def test_completion_properties():
    """Fixing all but one coordinate of a member: a K4 coordinate completes in
    exactly one way, a Shrikhande coordinate in exactly four pairwise
    non-adjacent ways."""
    sh = shrikhande()
    for params in [DoobParams(1, 1), DoobParams(0, 2)]:
        code = build_parity_code(oracles.constant_rule(params, 0))
        member_set = set(oracles.code_vertices(code))
        m = params.m
        for vertex in member_set:
            for slot in range(m, m + params.n):
                count = sum(
                    vertex[:slot] + (value,) + vertex[slot + 1 :] in member_set
                    for value in range(4)
                )
                assert count == 1
            for slot in range(m):
                completions = [
                    pair
                    for pair in itertools.product(range(4), repeat=2)
                    if vertex[:slot] + (pair,) + vertex[slot + 1 :] in member_set
                ]
                assert len(completions) == 4
                for p, q in itertools.combinations(completions, 2):
                    assert not oracles.adjacent(sh, 4 * p[0] + p[1], 4 * q[0] + q[1])


def test_rule_enumeration_guard():
    # D(3,0) has 32 even-sum vectors, past the 16 of the enumeration cap.
    with pytest.raises(DeskScaleError):
        next(representative_rules(DoobParams(3, 0)))


def test_bounds_reports():
    r = bounds_report(DoobParams(1, 0))
    assert (r.lower_exact, r.upper_exact, r.actual) == (4, 24, 16)
    r = bounds_report(DoobParams(1, 1))
    assert (r.lower_exact, r.upper_exact, r.actual) == (16, 576, 240)
    assert r.lower_exact <= r.actual <= r.upper_exact
    r = bounds_report(DoobParams(0, 1))
    assert (r.lower_exact, r.actual) == (2, 4)
    r = bounds_report(DoobParams(2, 0))
    assert (r.lower_exact, r.upper_exact, r.actual) == (256, 55296, 5856)
    assert r.upper_params == DoobParams(0, 4)
    assert r.lower_log2_log2 == 3
    r = bounds_report(DoobParams(2, 1))
    assert (r.lower_exact, r.upper_exact, r.actual) == (65536, 36972288, 3707136)
    assert r.upper_params == DoobParams(0, 5)


def test_rule_files_round_trip(tmp_path):
    rule = ParityRule(DoobParams(1, 1), (0, 1, 1, 0, 1, 0, 0, 1))
    text = oracles.dump_rule(rule)
    assert load_rule(text) == rule
    path = tmp_path / "rule.json"
    path.write_text(text)
    assert read_rule(path) == rule
    assert text == '{"bits":"01101001","m":1,"n":1}\n'


def test_rule_file_rejects_malformed():
    for text in [
        "nope",
        '{"m":1,"n":0}',
        '{"m":1,"n":0,"bits":"012"}',
        '{"m":1,"n":0,"bits":"01"}',
        '{"m":1,"n":0,"bits":7}',
        '{"m":-1,"n":1,"bits":"01"}',
    ]:
        with pytest.raises(FormatError):
            load_rule(text)


def test_rule_from_hex():
    rule = rule_from_hex(DoobParams(1, 0), "a")
    assert rule.bits == (1, 0, 1, 0)
    assert rule_from_hex(DoobParams(1, 0), "0").bits == (0, 0, 0, 0)
    with pytest.raises(FormatError):
        rule_from_hex(DoobParams(1, 0), "zz")
    with pytest.raises(FormatError):
        rule_from_hex(DoobParams(1, 0), "100")  # 9 bits into a 4-entry table
    assert rule_from_hex(DoobParams(1, 2), "C3A5") == rule_from_hex(DoobParams(1, 2), "c3a5")
    for text in ("c_3a5", "0xc3a5", " c3a5", "c3a5\n", "+c3a5", "-0", "", "\uff11"):
        with pytest.raises(FormatError, match="not a hex string"):
            rule_from_hex(DoobParams(1, 2), text)


def packed_bits(packed, width):
    return tuple(packed >> (width - 1 - position) & 1 for position in range(width))


@pytest.mark.parametrize("m, n", [(1, 0), (0, 2), (1, 1), (0, 3), (2, 0)])
def test_rule_tables_read_packed_integers_most_significant_first(m, n):
    params = DoobParams(m, n)
    size = rule_domain_size(params)
    if size <= 8:
        rules = list(oracles.all_parity_rules(params))
        assert [rule.bits for rule in rules] == [packed_bits(p, size) for p in range(2**size)]
        for packed in (0, 1, 2**size // 3, 2**size - 1):
            assert rule_from_hex(params, format(packed, "x")) == rules[packed]
    even = even_point_indices(params)
    for packed, rule in enumerate(representative_rules(params)):
        expected = [0] * size
        for index, bit in zip(even, packed_bits(packed, len(even))):
            expected[index] = bit
        assert rule.bits == tuple(expected)


WORD_LENGTH_AT_MOST_4 = [(0, 1), (1, 0), (0, 2), (1, 1), (0, 3), (2, 0), (1, 2), (0, 4)]


@pytest.mark.parametrize("m, n", WORD_LENGTH_AT_MOST_4)
def test_parity_code_matches_member_by_member_reference(m, n):
    for rule in representative_rules(DoobParams(m, n)):
        code = build_parity_code(rule)
        assert code.members == oracles.parity_members(m, n, rule.bits), rule
        assert len(code) == code.params.code_size
