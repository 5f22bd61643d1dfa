import json
import pickle
import random
import time
from enum import IntEnum

import pytest

import oracles
from doobmds import (
    Code,
    ConsistencyError,
    DoobParams,
    FormatError,
    ParameterMismatchError,
    ParityRule,
    build_parity_code,
    canonical_json,
    code_from_obj,
    doob_graph,
    code_to_obj,
    dump_code,
    enumerate_mds,
    load_code,
    read_code,
    reduce_sh_coordinates,
    write_code,
)
from doobmds import codes, graphs
from doobmds.cli import main
from doobmds.codes import member_from_obj, member_to_obj
from doobmds.parity import rule_domain_size, rule_from_hex


class Vertex(IntEnum):
    A = 0
    B = 2


def test_code_construction_validates():
    p = DoobParams(1, 0)
    assert Code(p, (0, 2, 8, 10)).mask == 0b10100000101
    cases = [
        ((2, 0), "members must be strictly increasing"),
        ((0, 0), "members must be strictly increasing"),
        ((0, 16), "member 16 out of range for D(1,0)"),
        ((0, True), "member True is not an integer index"),
        # The first bad member decides the error.
        ((16, True), "member 16 out of range"),
        ((True, 16), "member True is not"),
        ((5, 3, 99), "members must be strictly increasing"),
        ((0, 2.0), "member 2.0 is not"),
        ((-1, 2), "member -1 out of range"),
    ]
    for members, message in cases:
        with pytest.raises(ValueError) as info:
            Code(p, members)
        assert str(info.value).startswith(message), (members, info.value)


def test_code_accepts_int_subclasses_and_lists():
    p = DoobParams(1, 0)
    code = Code(p, (Vertex.A, Vertex.B))
    assert code.members == (0, 2) and code.mask == 0b101
    listed = Code(p, [0, 2, 8, 10])  # a list is kept as given
    assert listed.members == [0, 2, 8, 10] and listed.mask == 0b10100000101
    with pytest.raises(ValueError, match="strictly increasing"):
        Code(p, [2, 0])
    assert Code(p, ()).mask == 0


def test_mask_constructor_validates():
    p = DoobParams(1, 0)
    assert Code.from_mask(p, 0b10100000101).members == (0, 2, 8, 10)
    assert Code.from_mask(p, 0).members == ()
    assert len(Code.from_mask(p, (1 << 16) - 1)) == 16
    cases = [
        (-1, "mask is negative"),
        (True, "mask True is not an int"),
        (5.0, "mask 5.0 is not an int"),
        (1 << 16, "mask has bit 16, out of range for D(1,0)"),
    ]
    for mask, message in cases:
        with pytest.raises(ValueError) as info:
            Code.from_mask(p, mask)
        assert str(info.value) == message, (mask, info.value)
    with pytest.raises(TypeError):
        Code(p, (0, 2), mask=0b101)


def test_mask_built_and_member_built_codes_agree(codes_by_params):
    for key in [(1, 0), (0, 2), (1, 1)]:
        for code in codes_by_params[key][:20]:
            by_members = Code(code.params, tuple(code.members))
            by_mask = Code.from_mask(code.params, by_members.mask)
            assert by_mask == by_members and hash(by_mask) == hash(by_members)
            assert by_mask.members == by_members.members
            assert type(by_mask.members) is tuple
            assert len(by_mask) == len(by_members) == code.params.code_size
            assert repr(by_mask) == repr(by_members)
            assert repr(by_mask).startswith("Code(params=DoobParams(m=")
    p = DoobParams(1, 0)
    assert Code(p, [0, 2]) == Code(p, (0, 2)) == Code.from_mask(p, 0b101)
    assert Code(p, (0, 2)) != Code(DoobParams(0, 2), (0, 2))
    assert Code(p, (0, 2)) != Code(p, (0, 3))


def test_code_is_immutable_and_pickles():
    code = Code.from_mask(DoobParams(1, 0), 0b101)
    with pytest.raises(AttributeError):
        code.mask = 1
    with pytest.raises(AttributeError):
        del code.params
    copy = pickle.loads(pickle.dumps(code))
    assert copy == code and copy.members == (0, 2)


def test_from_members_sorts_and_rejects_duplicates():
    p = DoobParams(0, 2)
    code = Code.from_members(p, [6, 0, 11, 13])
    assert code.members == (0, 6, 11, 13)
    with pytest.raises(ValueError):
        Code.from_members(p, [0, 6, 6, 13])


def test_membership_and_mask():
    p = DoobParams(0, 1)
    code = Code(p, (2,))
    assert 2 in code and 1 not in code
    assert "2" not in code
    assert code.mask == 4
    assert len(code) == 1


def test_intersection_size_and_mismatch():
    p = DoobParams(1, 0)
    a = Code(p, (0, 2, 8, 10))
    b = Code(p, (0, 5, 10, 15))
    assert oracles.intersection_size(a, b) == 2
    assert oracles.intersection_profile(a, [a, b]) == (4, 2)
    other = Code(DoobParams(0, 2), (0, 5, 10, 15))
    with pytest.raises(ParameterMismatchError):
        oracles.intersection_size(a, other)


def test_independence_checks(codes_by_params):
    good = codes_by_params[(1, 0)][0]
    assert good.is_independent()
    assert good.is_mds()
    bad = Code(DoobParams(1, 0), (0, 1, 2, 3))  # a row contains adjacent pairs
    assert not bad.is_independent()
    with pytest.raises(ConsistencyError, match="adjacent members"):
        bad.assert_mds()
    short = Code(DoobParams(1, 0), (0, 2))
    with pytest.raises(ConsistencyError, match="2 members"):
        short.assert_mds()


def member_loop_pair(code, rows):
    """First adjacent pair by walking the members' rows in order."""
    for v in code.members:
        hit = rows[v] & code.mask
        if hit:
            return v, (hit & -hit).bit_length() - 1
    return None


@pytest.mark.parametrize("m, n", [(1, 0), (0, 3), (1, 1), (2, 0), (1, 2), (0, 4), (2, 1), (3, 0)])
def test_independence_checks_match_member_loop(codes_by_params, m, n):
    # Full-size codes with one member moved, so assert_mds reaches the
    # adjacency check: every mismatch of result or message would show.  Past
    # word length 4, parity codes perturbed as in the line cover test, which
    # also drops a member.  The checks on D(m,n)'s closed-form shifts agree
    # with the member loop and with the same kernels on the product graph's.
    params = DoobParams(m, n)
    rows = doob_graph(params)
    rng = random.Random(m * 10 + n)
    moved_codes = []
    if params.word_length <= 4:
        family = codes_by_params.get((m, n)) or enumerate_mds(params).codes
        for code in family[:100]:
            for _ in range(5):
                members = set(code.members)
                members.remove(rng.choice(code.members))
                free = [v for v in range(params.vertex_count) if v not in members]
                members.add(rng.choice(free))
                moved_codes.append(Code.from_members(params, members))
    else:
        size = rule_domain_size(params)
        for _ in range(3):
            rule = ParityRule(params, tuple(rng.randrange(2) for _ in range(size)))
            for mask in perturbed_masks(build_parity_code(rule), rng):
                moved_codes.append(Code.from_mask(params, mask))
    seen = set()
    shifts = graphs._row_shifts(rows)
    for moved in moved_codes:
        expected = member_loop_pair(moved, rows)
        seen.add(expected is None)
        independent = expected is None
        assert moved.is_independent() == codes._independent(moved.mask, shifts) == independent
        assert moved.first_adjacent_pair() == codes._first_pair(moved.mask, shifts) == expected
        if independent and len(moved) == params.code_size:
            moved.assert_mds()
            continue
        with pytest.raises(ConsistencyError) as info:
            moved.assert_mds(context="moved")
        assert str(info.value) == expected_mds_error(moved, rows, "moved")
    assert False in seen


# Every D(m,n) with 2m + n <= 6, up to 4096 vertices.
ALL_PARAMS = [(m, n) for m in range(4) for n in range(7) if 0 < m + n and 2 * m + n <= 6]


def one_per_line_mask(rng, vertex_count):
    """A mask with one random member on each last-coordinate K4 line {4i, ..., 4i + 3}."""
    return sum(1 << v + rng.randrange(4) for v in range(0, vertex_count, 4))


@pytest.mark.parametrize("m, n", ALL_PARAMS)
def test_members_match_the_bit_by_bit_oracle(m, n):
    params = DoobParams(m, n)
    size = params.vertex_count
    rng = random.Random(10 * m + n)
    lined = [one_per_line_mask(rng, size) for _ in range(4)]
    masks = [0, (1 << size) - 1, *lined, *(rng.getrandbits(size) for _ in range(4))]
    for line in {0, size // 4 - 1, rng.randrange(size // 4)}:
        word = 0b1111 << 4 * line
        masks.append(lined[0] & ~word)  # an empty line
        masks.append(lined[0] & ~word | 0b0101 << 4 * line)  # two members on a line
        masks.append(lined[0] | word)  # four
    # With a line layout (n >= 1, at most 256 vertices) the lined masks are
    # read by K4 line and the rest fall back to the bit read; without one,
    # every mask takes the bit read.
    assert (params._line_layout is not None) == (n >= 1 and size <= 256)
    built = [Code.from_mask(params, mask) for mask in masks]
    if (m, n) == (0, 4):
        # The reduction images of every D(1,2) and D(2,0) code, mask-built
        # on the reduction's own params: all of them are read by K4 line.
        built += [
            reduce_sh_coordinates(code)
            for key in [(1, 2), (2, 0)]
            for code in enumerate_mds(DoobParams(*key)).codes
        ]
    for code in built:
        members = code.members
        assert type(members) is tuple
        assert members == oracles.mask_members(code.mask), (params, hex(code.mask))
        assert code.members is members
    given = oracles.mask_members(lined[1])
    assert Code(params, given).members is given


def coordinate_strides(params):
    """(stride, size) of each coordinate's digit of a vertex index, last first."""
    k4 = [(4**j, 4) for j in range(params.n)]
    return k4 + [(4**params.n * 16**p, 16) for p in range(params.m)]


def perturbed_masks(code, rng):
    """Masks near the code: one member moved along a K4 line, across a
    Shrikhande edge or to a random free vertex; two members that differ only
    at the last coordinate, a K4 one, and one other trading their last
    digits; and one member dropped."""
    params, mask, members = code.params, code.mask, code.members
    coordinates = coordinate_strides(params)
    out = [mask & ~(1 << rng.choice(members))]
    for _ in range(3):
        v = rng.choice(members)
        rest = mask & ~(1 << v)
        for stride, size in coordinates:
            digit = v // stride % size
            if size == 4:
                new = rng.choice([d for d in range(4) if d != digit])
            else:
                a, b = divmod(digit, 4)
                da, db = rng.choice(sorted(oracles.SH_DIFFS))
                new = (a + da) % 4 * 4 + (b + db) % 4
            out.append(rest | 1 << v + (new - digit) * stride)
        free = [u for u in range(params.vertex_count) if not mask >> u & 1]
        out.append(rest | 1 << rng.choice(free))
        # The last coordinate is a K4 one when n >= 1.
        for stride, size in coordinates[1:] if params.n else ():
            # The members that differ from v at this and the last coordinate only.
            def others(u):
                return u // 4 % (stride // 4), u // (stride * size)

            for w in members:
                if others(w) == others(v) and w // stride % size != v // stride % size:
                    delta = w % 4 - v % 4
                    if delta:
                        out.append(mask ^ (1 << v | 1 << w | 1 << v + delta | 1 << w - delta))
    return out


def expected_mds_error(code, rows, context):
    """assert_mds's text for a code that is not MDS, from the member loop."""
    if len(code) != code.params.code_size:
        return f"{context}: {len(code)} members, expected {code.params.code_size}"
    v, w = member_loop_pair(code, rows)
    return f"{context}: adjacent members {v} and {w}"


# Every D(m,n) with 2m + n <= 5; all codes through word length 4, parity codes past it.
MDS_PARAMS = [(m, n) for m in range(3) for n in range(6) if 0 < m + n and 2 * m + n <= 5]


@pytest.mark.parametrize("m, n", MDS_PARAMS)
def test_mds_check_by_line_cover_matches_the_edge_shift_oracle(m, n):
    params = DoobParams(m, n)
    rows = doob_graph(params)
    if params.word_length <= 4:
        family = enumerate_mds(params).codes
    else:
        rng = random.Random(m)
        size = rule_domain_size(params)
        family = [
            build_parity_code(ParityRule(params, tuple(rng.randrange(2) for _ in range(size))))
            for _ in range(6)
        ]
    for code in family:
        assert code.is_mds() and oracles.is_mds_by_edge_shifts(code, rows)
    rng = random.Random(7 * m + n)
    outcomes = set()
    for code in family[:: max(1, len(family) // 60)]:
        for mask in perturbed_masks(code, rng):
            moved = Code.from_mask(params, mask)
            expected = oracles.is_mds_by_edge_shifts(moved, rows)
            outcomes.add(expected)
            assert moved.is_mds() == expected, (params, hex(mask))
            if expected:
                moved.assert_mds()
                continue
            with pytest.raises(ConsistencyError) as info:
                moved.assert_mds(context="moved")
            assert str(info.value) == expected_mds_error(moved, rows, "moved")
    assert False in outcomes


def test_assert_mds_texts_are_pinned():
    params = DoobParams(1, 2)
    code = build_parity_code(rule_from_hex(params, "c3a5"))
    assert code.members[:2] == (1, 4)
    k4_line = Code.from_mask(params, code.mask ^ 0b11)  # member 1 moved to 0 on its K4 line
    sh_edge = Code.from_mask(params, code.mask ^ 0b110011)  # 1, 4 trade last digits: 0, 5
    short = Code.from_mask(params, code.mask ^ 0b10)
    assert code.is_mds()
    code.assert_mds()
    for bad, text in [
        (k4_line, "x: adjacent members 0 and 4"),
        (sh_edge, "x: adjacent members 0 and 16"),
        (short, "x: 63 members, expected 64"),
    ]:
        assert not bad.is_mds()
        with pytest.raises(ConsistencyError) as info:
            bad.assert_mds(context="x")
        assert str(info.value) == text
    # sh_edge meets every K4 line once, so only a Shrikhande shift rejects it.
    kernel = params._line_cover
    assert codes._mds_by_line_cover(sh_edge.mask, (kernel[0], ()))
    assert not codes._mds_by_line_cover(k4_line.mask, (kernel[0], ()))


def test_line_cover_kernel_is_cached_per_parameters(monkeypatch):
    # The kernel is built once per params object and kept on it, so a check
    # reads it with no call; a new params object builds its own, with one
    # call of the builder, which keeps nothing.
    graphs._edge_shifts.cache_clear()
    code = enumerate_mds(DoobParams(1, 1)).codes[0]
    params = code.params
    assert code.is_mds()
    kernel = params._line_cover
    assert kernel == codes._line_cover(1, 1) and kernel is not codes._line_cover(1, 1)
    assert kernel[0] == ((1, 2, int("1" * 16, 16)),)
    assert kernel[1] == tuple(pair for pair in graphs._edge_shifts(1, 1) if pair[0] >= 4)
    cached = {"vertex_count", "code_size", "_line_layout", "_line_cover"}
    assert set(vars(params)) <= {"m", "n"} | cached
    calls = []

    def counting(m, n, _original=codes._line_cover):
        calls.append((m, n))
        return _original(m, n)

    monkeypatch.setattr(codes, "_line_cover", counting)
    graphs._edge_shifts.cache_clear()
    code.assert_mds()
    assert params._line_cover is kernel and calls == []
    fresh = Code.from_mask(DoobParams(1, 1), code.mask)
    fresh.assert_mds()
    assert fresh.is_mds()
    rebuilt = fresh.params._line_cover
    assert rebuilt == kernel and rebuilt is not kernel and calls == [(1, 1)]


def test_default_checks_build_no_product_graph(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("a product graph was built")

    monkeypatch.setattr(graphs, "doob_graph", refuse)
    graphs._edge_shifts.cache_clear()
    # Fresh params objects, so that nothing is found on them.
    d12 = Code.from_mask(
        DoobParams(1, 2), build_parity_code(rule_from_hex(DoobParams(1, 2), "c3a5")).mask
    )
    d30 = Code.from_mask(
        DoobParams(3, 0),
        build_parity_code(rule_from_hex(DoobParams(3, 0), "0123456789abcdef")).mask,
    )
    for code in (d12, d30):
        assert code.is_independent() and code.first_adjacent_pair() is None
        assert code.is_mds()
        code.assert_mds()
    for code, flip, pair in [
        (d12, 0b11, (0, 4)),  # member 1 moved to 0 on its K4 line
        (d12, 0b110011, (0, 16)),  # members 1 and 4 trade last digits
        (d30, 0b11, (1, 2)),  # member 0 moved to 1 across a Shrikhande edge
    ]:
        bad = Code.from_mask(code.params, code.mask ^ flip)
        assert not bad.is_independent() and bad.first_adjacent_pair() == pair
        assert not bad.is_mds()
        with pytest.raises(ConsistencyError) as info:
            bad.assert_mds(context="x")
        assert str(info.value) == f"x: adjacent members {pair[0]} and {pair[1]}"
    for code in (d12, d30):
        short = Code.from_mask(code.params, code.mask & code.mask - 1)  # lowest dropped
        assert not short.is_mds()
        with pytest.raises(ConsistencyError) as info:
            short.assert_mds(context="x")
        size = code.params.code_size
        assert str(info.value) == f"x: {size - 1} members, expected {size}"
    write_code(d30, tmp_path / "l30.code")
    write_code(Code.from_mask(d30.params, d30.mask ^ 0b11), tmp_path / "sh-edge30.code")
    capsys.readouterr()
    status = main(["verify", str(tmp_path / "l30.code"), str(tmp_path / "sh-edge30.code")])
    assert status == 1
    assert capsys.readouterr().out == (
        f"{tmp_path / 'l30.code'}: MDS ok, |M|=1024\n"
        f"{tmp_path / 'sh-edge30.code'}: not independent: (1,2)\n"
    )


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}\n'


def test_member_json_shapes():
    p = DoobParams(1, 1)
    assert member_to_obj((4 * 2 + 3) * 4 + 1, p) == [[2, 3], 1]
    assert member_from_obj([[2, 3], 1], p) == (4 * 2 + 3) * 4 + 1
    p2 = DoobParams(0, 2)
    assert member_to_obj(6, p2) == [1, 2]
    assert member_from_obj([1, 2], p2) == 6


def test_code_file_round_trip_bit_exact(codes_by_params, tmp_path):
    for params_key in [(1, 0), (0, 2), (1, 1)]:
        for code in codes_by_params[params_key][:3]:
            text = dump_code(code)
            assert load_code(text) == code
            assert dump_code(load_code(text)) == text
            path = tmp_path / "c.code"
            write_code(code, path)
            assert read_code(path) == code
            assert path.read_text() == text


def test_code_file_layout(codes_by_params):
    code = codes_by_params[(1, 1)][0]
    obj = json.loads(dump_code(code))
    assert set(obj) == {"m", "n", "members"}
    assert obj["m"] == 1 and obj["n"] == 1
    assert len(obj["members"]) == 16
    first = obj["members"][0]
    assert isinstance(first[0], list) and isinstance(first[1], int)


def test_members_serialized_in_index_order(codes_by_params):
    p = DoobParams(0, 2)
    for code in codes_by_params[(0, 2)]:
        obj = code_to_obj(code)
        indices = [member_from_obj(member, p) for member in obj["members"]]
        assert indices == sorted(indices)


def test_load_rejects_malformed_documents():
    cases = [
        "not json",
        '{"m":0,"n":1}',  # no members
        '{"m":0,"members":[]}',  # no n
        '{"m":-1,"n":2,"members":[]}',
        '{"m":0,"n":0,"members":[]}',
        '{"m":0,"n":1,"members":[[0,1]]}',  # member of wrong arity
        '{"m":0,"n":1,"members":[[4]]}',
        '{"m":0,"n":1,"members":[4]}',
        '{"m":1,"n":0,"members":[[0,0]]}',  # pair not wrapped in a list
        '{"m":1,"n":0,"members":[[[0,4]]]}',
        '{"m":0,"n":1,"members":[[true]]}',
        '{"m":0,"n":2,"members":[[0,1],[0,0]]}',  # out of order
        '{"m":0,"n":2,"members":[[0,0],[0,0]]}',  # duplicate
    ]
    for text in cases:
        with pytest.raises(FormatError):
            load_code(text)


def _parity_code(m, n, seed):
    """The parity code of a seeded random rule over D(m,n)."""
    params = DoobParams(m, n)
    rng = random.Random(seed)
    bits = tuple(rng.randrange(2) for _ in range(4**m * 2**n))
    return build_parity_code(ParityRule(params, bits))


def test_canonical_files_skip_the_json_parse(codes_by_params, monkeypatch):
    """Canonical dumps of both fiber types, at every word length up to 6,
    load by the fiber-layout decoder alone."""
    rng = random.Random(12)
    expected = [
        code for key in [(1, 0), (0, 2), (1, 1), (0, 3), (2, 0)] for code in codes_by_params[key]
    ]
    for m, n in [(1, 2), (0, 4)]:
        expected += rng.sample(enumerate_mds(DoobParams(m, n)).codes, 200)
    for m, n in [(2, 1), (1, 3), (3, 0), (2, 2), (0, 6)]:
        expected.append(_parity_code(m, n, 2 * m + n))
    texts = [dump_code(code) for code in expected]

    def refuse(*args, **kwargs):
        raise AssertionError("canonical text reached json.loads")

    monkeypatch.setattr(codes.json, "loads", refuse)
    for code, text in zip(expected, texts):
        loaded = load_code(text)
        assert loaded.members == code.members and loaded.mask == code.mask


def test_codes_that_are_not_fibered_take_the_json_path(capsys, tmp_path):
    """A D(1,2) dump with one member moved to another K4 line, so that one
    line has two members and another none, is the template's length but no
    canonical dump: the JSON path loads it, and verify finds the adjacency."""
    code = _parity_code(1, 2, 0)
    members = set(code.members)
    moved = min(members)
    line = moved // 4 + 1  # the next K4 line, which keeps its own member
    members.remove(moved)
    members.add(next(4 * line + k for k in range(4) if 4 * line + k not in members))
    members = tuple(sorted(members))
    text = dump_code(Code(code.params, members))
    assert len(text) == len(dump_code(code))
    assert codes._load_canonical(text.encode()) is None
    assert load_code(text) == Code(code.params, members)
    path = tmp_path / "moved.code"
    path.write_text(text)
    assert main(["verify", str(path)]) == 1
    assert "not independent" in capsys.readouterr().out


def test_canonical_layout_errors_match_the_json_path(monkeypatch):
    """Malformed documents in dump_code's key order and spacing get the JSON
    path's message, and a huge m never has 4^(2m+n) computed."""
    real_vertex_count = DoobParams.vertex_count.func

    def guarded_vertex_count(params):
        assert params.word_length <= 6, f"vertex count of {params} computed"
        return real_vertex_count(params)

    monkeypatch.setattr(DoobParams, "vertex_count", property(guarded_vertex_count))
    cases = [
        ('{"m":0,"members":[[4]],"n":1}\n', "bad K4 coordinate 4 in member [4]"),
        ('{"m":0,"members":[[true]],"n":1}\n', "bad K4 coordinate True in member [True]"),
        ('{"m":1,"members":[[[0,4]]],"n":0}\n', "bad Shrikhande coordinate [0, 4] in member"),
        (
            '{"m":0,"members":[[0,1],[0,0]],"n":2}\n',
            "members are not in strictly increasing index order",
        ),
        (
            '{"m":0,"members":[[0,0],[0,0]],"n":2}\n',
            "members are not in strictly increasing index order",
        ),
        (
            '{"m":01,"members":[[[0,0]]],"n":0}\n',
            "invalid JSON: Expecting ',' delimiter: line 1 column 7 (char 6)",
        ),
        (
            '{"m":0,"members":[[0,1] [0,2]],"n":2}\n',
            "invalid JSON: Expecting ',' delimiter: line 1 column 25 (char 24)",
        ),
        ('{"m":0,"members":[],"n":0}\n', "empty parameter set: need m + n >= 1"),
        (
            '{"m":9,"members":[[[0,0]]],"n":0}\n',
            "parameters m = 9, n = 0 have word length 2m + n over 6",
        ),
        (
            '{"m":1000000,"members":[[[0,0]]],"n":0}\n',
            "parameters m = 1000000, n = 0 have word length 2m + n over 6",
        ),
        ('{"m":0,"members":[[1]],"n":1}\nx', "invalid JSON: Extra data: line 2 column 1"),
    ]
    for text, message in cases:
        start = time.perf_counter()
        with pytest.raises(FormatError) as info:
            load_code(text)
        assert time.perf_counter() - start < 1.0, text
        assert str(info.value).startswith(message), (text, info.value)


def _outcome(text):
    """What load_code makes of text: the code's fields, or the error message."""
    try:
        code = load_code(text)
    except FormatError as exc:
        return "error", str(exc)
    return "code", code.params, code.mask, tuple(code.members)


def test_canonical_fast_path_matches_the_json_path_under_mutation(codes_by_params, monkeypatch):
    """Every one-character substitution or deletion in canonical dumps loads to
    the same code, or fails with the same message, with the fast path on and
    off.  D(2,0) members contain "],[", and word length 6 is the largest a
    file may declare.  The word-length-6 parity codes are mutated from the
    header through the first member and from the last member through the
    trailer; the two sparse word-length-6 codes are not fibered, so they and
    the empty code take the JSON path."""
    fibered = [
        dump_code(code)
        for key in [(1, 0), (0, 2), (1, 1), (2, 0)]
        for code in (codes_by_params[key][0], codes_by_params[key][-1])
    ]
    parity = [dump_code(_parity_code(3, 0, 30)), dump_code(_parity_code(2, 2, 22))]
    others = [
        dump_code(Code(DoobParams(3, 0), (0, 17, 300, 2049, 4095))),
        dump_code(Code(DoobParams(2, 2), (1, 64, 1000, 4000))),
        dump_code(Code(DoobParams(1, 0), ())),
    ]
    assert all(codes._load_canonical(text.encode()) is not None for text in fibered + parity)
    assert all(codes._load_canonical(text.encode()) is None for text in others)
    texts = fibered + parity + others
    mutants = set(texts)
    for text in texts:
        positions = range(len(text))
        if text in parity:
            # Members meet at "],[[", which occurs inside no member of either.
            first_separator_end = text.index("],[[") + 2
            last_separator = text.rindex("],[[") + 1
            positions = [*range(first_separator_end), *range(last_separator, len(text))]
        for i in positions:
            mutants.add(text[:i] + text[i + 1 :])
            for char in '[],0134"m':
                mutants.add(text[:i] + char + text[i + 1 :])
    mutants = sorted(mutants)
    fast = [_outcome(text) for text in mutants]
    canonical = sum(codes._load_canonical(text.encode()) is not None for text in mutants)
    assert canonical > len(texts)  # some mutants are other canonical dumps
    monkeypatch.setattr(codes, "_load_canonical", lambda data: None)
    for text, outcome in zip(mutants, fast):
        assert _outcome(text) == outcome, text


def test_read_code_decodes_utf8_with_universal_newlines(codes_by_params, tmp_path, monkeypatch):
    code = codes_by_params[(1, 1)][0]
    text = dump_code(code)
    path = tmp_path / "c.code"
    # Read with its newline made "\n", the text is canonical: no JSON parse.
    monkeypatch.setattr(codes.json, "loads", None)
    for newline in ["\r\n", "\r"]:
        path.write_bytes(text.replace("\n", newline).encode())
        assert codes._load_canonical(path.read_bytes()) is None  # decoded, then canonical
        assert read_code(path) == code
    path.write_bytes(text.encode()[:-1] + b"\xff\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        read_code(path)


def _read_outcome(path):
    """What read_code makes of the file: the code's fields, or the error message."""
    try:
        code = read_code(path)
    except FormatError as exc:
        return "error", str(exc)
    return "code", code.params, code.mask, tuple(code.members)


def test_lean_canonical_read_rejects_as_the_json_path(codes_by_params, tmp_path, monkeypatch):
    """The fiber-layout read has no ASCII scan and no scan for "x": a K4
    digit outside 0-3 fails int(), a Shrikhande fiber that is none of the 16
    codes fails the table, and a byte that is not ASCII fails one of those or
    the header or the template compare.  Each such file is rejected, and
    read_code gives the JSON path's code or FormatError."""
    k4 = dump_code(codes_by_params[(1, 1)][5]).encode()
    sh = dump_code(codes_by_params[(2, 0)][7]).encode()
    k4_digits = range(len(k4))[codes._fiber_layout(1, 1)[2][0]]
    sh_digits = range(len(sh))[codes._fiber_layout(2, 0)[2][1]]

    def put(data, at, new):
        return data[:at] + new + data[at + len(new) :]

    cases = [
        put(k4, at, new)
        for at in (k4_digits[0], k4_digits[7], k4_digits[-1])
        for new in (b"4", b"_", b"x", b"\xb3", b" ")
    ]
    cases += [
        put(data, at, new)
        for data in (k4, sh)
        for at in (1, 20, len(data) - 2)
        for new in (b"\xe9", "\u00e9".encode())
    ]
    cases += [put(sh, at, b"%d" % ((sh[at] - 47) % 4)) for at in (sh_digits[0], sh_digits[5])]
    cases += [put(sh, sh_digits[3], new) for new in (b"4", b"\xb3")]
    cases += [
        put(data, at, digit)
        for data in (k4, sh)
        for at in (5, len(data) - 3)
        for digit in (b"0", b"1", b"2", b"9", b"x")
        if data[at : at + 1] != digit
    ]
    cases += [k4[:-1], sh[:-1], k4[:-1] + b" ", sh + b"\n"]
    paths = []
    for i, data in enumerate(cases):
        assert codes._load_canonical(data) is None, data
        paths.append(tmp_path / f"case_{i:03d}.code")
        paths[-1].write_bytes(data)
    lean = [_read_outcome(path) for path in paths]
    monkeypatch.setattr(codes, "_load_canonical", lambda data: None)
    assert [_read_outcome(path) for path in paths] == lean
    # Without its final newline, a dump is still the code's JSON.
    assert lean[-4][:3] == ("code", DoobParams(1, 1), codes_by_params[(1, 1)][5].mask)
    assert lean[-3][:3] == ("code", DoobParams(2, 0), codes_by_params[(2, 0)][7].mask)
    assert sum(outcome[0] == "error" for outcome in lean) > len(lean) // 2


def test_canonical_files_load_without_a_decode(codes_by_params, tmp_path, monkeypatch):
    """read_code tries the fiber layout on the file's bytes: a canonical file
    is neither decoded nor parsed as JSON, whatever type its path has."""
    expected = [codes_by_params[key][-1] for key in [(1, 0), (0, 2), (1, 1), (0, 3), (2, 0)]]
    expected += [_parity_code(m, n, 2 * m + n) for m, n in [(1, 2), (0, 4), (3, 0), (0, 6)]]
    paths = []
    for i, code in enumerate(expected):
        path = tmp_path / f"c{i}.code"
        write_code(code, path)
        paths.append([path, str(path), bytes(path)])

    def refuse(*args, **kwargs):
        raise AssertionError("canonical file decoded or parsed")

    monkeypatch.setattr(codes, "_decode_text", refuse)
    monkeypatch.setattr(codes.json, "loads", refuse)
    for code, spellings in zip(expected, paths):
        for path in spellings:
            loaded = read_code(path)
            assert loaded.members == code.members and loaded.mask == code.mask


def _member_texts(params):
    """Each vertex's member as the JSON serializer writes it, by index."""
    return [canonical_json(member_to_obj(v, params))[:-1] for v in range(params.vertex_count)]


def test_dump_code_writes_what_the_json_serializer_writes(codes_by_params):
    """dump_code fills the fiber layout's template for fibered codes, and
    gives the JSON serializer's text for every code.  Every code of word
    length up to 4 is checked against its members' JSON texts joined; the
    serializer itself checks the small families, samples of the large ones,
    parity codes up to word length 6, and codes that are not fibered or not
    MDS, which take the JSON path."""
    rng = random.Random(4)
    fibered = []
    for m, n in [(1, 0), (0, 1), (0, 2), (1, 1), (0, 3), (2, 0), (1, 2), (0, 4)]:
        params = DoobParams(m, n)
        member_text = _member_texts(params).__getitem__
        head, tail = f'{{"m":{m},"members":[', f'],"n":{n}}}\n'
        family = enumerate_mds(params).codes
        for code in family:
            assert dump_code(code) == head + ",".join(map(member_text, code.members)) + tail
        fibered += family if len(family) < 1000 else rng.sample(family, 200)
    for m in range(4):
        for n in range(1 - min(m, 1), 7 - 2 * m):
            fibered += [_parity_code(m, n, seed) for seed in (m + n, 10 + m + n)]
    d12 = _parity_code(1, 2, 0)
    moved = set(d12.members)  # two members on the next K4 line, none on the first
    moved.remove(min(moved))
    moved.add(next(4 + k for k in range(4) if 4 + k not in moved))
    d20 = codes_by_params[(2, 0)][0]
    others = [
        Code(DoobParams(3, 0), (0, 17, 300, 2049, 4095)),
        Code(DoobParams(2, 2), (1, 64, 1000, 4000)),
        Code(DoobParams(1, 0), ()),
        Code(DoobParams(1, 0), (0, 2, 8)),
        Code(DoobParams(1, 1), codes_by_params[(1, 1)][5].members[1:]),
        Code(d12.params, tuple(sorted(moved))),
        # A Shrikhande fiber that is four members but no code of Sh.
        Code.from_mask(d20.params, d20.mask & ~0xFFFF | 0b1111),
        Code(DoobParams(4, 0), (0, 5, 65535)),
        Code(DoobParams(0, 7), (3, 16383)),
    ]
    assert all(codes._dump_canonical(code) is not None for code in fibered)
    assert all(codes._dump_canonical(code) is None for code in others)
    for code in fibered + others:
        assert dump_code(code) == canonical_json(code_to_obj(code))


def test_non_canonical_text_loads_the_same_code(codes_by_params):
    for code in codes_by_params[(1, 1)][:3] + codes_by_params[(0, 3)][:3]:
        text = dump_code(code)
        obj = code_to_obj(code)
        variants = [
            json.dumps(obj, indent=2),
            text.rstrip("\n"),
            text + "\n",
            json.dumps({"m": obj["m"], "n": obj["n"], "members": obj["members"]}),
        ]
        for variant in variants:
            loaded = load_code(variant)
            assert loaded.members == code.members and loaded.mask == code.mask


def test_load_accepts_minimal_document():
    code = load_code('{"m":0,"n":1,"members":[[1],[3]]}')
    assert code.members == (1, 3)


def test_sort_codes_is_lexicographic():
    p = DoobParams(0, 1)
    codes = [Code(p, (3,)), Code(p, (1,)), Code(p, (0,))]
    assert [c.members for c in oracles.sort_codes(codes)] == [(0,), (1,), (3,)]
