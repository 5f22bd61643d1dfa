import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from doobmds import (
    DESK_SCALE_LIMIT,
    AutomorphismGroup,
    BoundsReport,
    Code,
    ConsistencyError,
    DeskScaleError,
    DoobParams,
    EnumerationResult,
    FormatError,
    OrbitPartition,
    PairingTable,
    ParityRule,
    check_desk_scale,
    complete_graph,
    doob_graph,
    shrikhande,
)
from doobmds.codes import _first_pair, _independent, member_from_obj, member_to_obj
from doobmds.graphs import (
    MAX_WORD_LENGTH,
    SHRIKHANDE_CONNECTION_SET,
    _edge_shifts,
    _FrozenRecord,
    _repeat,
    _row_shifts,
    _slots,
    _vertex_digits,
)
from doobmds.symmetry import _PACK

import oracles
from oracles import (
    are_isomorphic,
    clique_number,
    common_neighbor_count,
    k4_pair,
    k4_value,
    regular_degree,
    sh_pair,
    summary,
)


def test_params_validation():
    with pytest.raises(ValueError):
        DoobParams(-1, 2)
    with pytest.raises(ValueError):
        DoobParams(0, 0)
    p = DoobParams(2, 1)
    assert p.word_length == 5
    assert p.vertex_count == 4 ** 5
    assert p.code_size == 4 ** 4
    assert str(p) == "D(2,1)"
    # vertex_count and code_size, once read, pickle with the fields.
    for params in (DoobParams(2, 1), p):
        copy = pickle.loads(pickle.dumps(params))
        assert copy == params and hash(copy) == hash(params)
        assert (copy.vertex_count, copy.code_size) == (4 ** 5, 4 ** 4)


P01 = DoobParams(0, 1)

# Every value class on the record base: its full field tuple and its repr,
# as @dataclass(frozen=True) printed it.
RECORDS = [
    (DoobParams, (2, 1), "DoobParams(m=2, n=1)"),
    (
        AutomorphismGroup,
        (3, ((1, 2, 0),), 3),
        "AutomorphismGroup(degree=3, generators=((1, 2, 0),), order=3)",
    ),
    (OrbitPartition, (((0, 1), (2,)),), "OrbitPartition(classes=((0, 1), (2,)))"),
    (EnumerationResult, (P01, ()), "EnumerationResult(params=DoobParams(m=0, n=1), codes=())"),
    (ParityRule, (P01, (0, 1)), "ParityRule(params=DoobParams(m=0, n=1), bits=(0, 1))"),
    (
        BoundsReport,
        (P01, 0, 2, P01, 4, 4),
        "BoundsReport(params=DoobParams(m=0, n=1), lower_log2_log2=0, lower_exact=2, "
        "upper_params=DoobParams(m=0, n=1), upper_exact=4, actual=4)",
    ),
    (PairingTable, ((), ()), "PairingTable(domain=(), image=())"),
]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_classes_behave_as_frozen_dataclasses(cls, values, text):
    record = cls(*values)
    assert repr(record) == text
    assert hash(record) == hash(values)
    assert record == cls(*values) and not record != cls(*values)
    assert record == cls(**dict(zip(cls._fields, values)))
    assert record != values
    subclass = type("Sub", (cls,), {})
    assert record != subclass(*values) and subclass(*values) != record
    assert pickle.loads(pickle.dumps(record)) == record
    name = cls._fields[0]
    for attempt in (
        lambda: setattr(record, name, 0),
        lambda: delattr(record, name),
        lambda: setattr(record, "unknown", 0),
    ):
        with pytest.raises(FrozenInstanceError):  # an AttributeError
            attempt()
    assert getattr(record, name) is values[0]
    for bad_call in (  # missing, extra, repeated and unknown arguments
        lambda: cls(),
        lambda: cls(*values, 0),
        lambda: cls(*values, **{name: values[0]}),
        lambda: cls(*values, no_such_field=0),
    ):
        with pytest.raises(TypeError):
            bad_call()


def test_record_defaults_and_validation_errors():
    # No field has a default: a class attribute of a field's name is not one.
    record = type("Record", (_FrozenRecord,), {"__annotations__": {"x": int}, "x": 3})
    with pytest.raises(TypeError, match="missing required arguments: x"):
        record()
    assert record(4).x == 4
    with pytest.raises(ValueError, match=r"^parameters must be nonnegative, got \(-1, 2\)$"):
        DoobParams(-1, 2)
    with pytest.raises(ValueError, match=r"^empty parameter set: need m \+ n >= 1$"):
        DoobParams(m=0, n=0)
    with pytest.raises(ValueError, match=r"^rule table has 1 entries, D\(0,1\) needs 2$"):
        ParityRule(P01, (0,))
    with pytest.raises(ValueError, match=r"^rule table entries must be 0 or 1$"):
        ParityRule(P01, (0, 2))


def test_connection_set_is_symmetric():
    for da, db in SHRIKHANDE_CONNECTION_SET:
        assert (-da % 4, -db % 4) in SHRIKHANDE_CONNECTION_SET


def test_shrikhande_basics(sh_graph):
    assert len(sh_graph) == 16
    assert regular_degree(sh_graph) == 6
    assert oracles.edge_count(sh_graph) == 48
    for u in range(16):
        assert not oracles.adjacent(sh_graph, u, u)
        for v in range(16):
            assert oracles.adjacent(sh_graph, u, v) == oracles.adjacent(sh_graph, v, u)


def test_shrikhande_matches_oracle_adjacency(sh_graph):
    adj = oracles.shrikhande_adjacency()
    for a, b in adj:
        u = 4 * a + b
        expected = {4 * c + d for c, d in adj[(a, b)]}
        assert set(oracles.neighbors(sh_graph, u)) == expected


def test_shrikhande_is_strongly_regular_2_2(sh_graph):
    # Common neighbor counts 2 and 2: identical to those of K4 x K4.
    for u in range(16):
        for v in range(u + 1, 16):
            assert common_neighbor_count(sh_graph, u, v) == 2


def test_rook_graph_shares_parameters(rook_graph):
    assert len(rook_graph) == 16
    assert regular_degree(rook_graph) == 6
    for u in range(16):
        for v in range(u + 1, 16):
            assert common_neighbor_count(rook_graph, u, v) == 2


def test_clique_number_separates_the_two_16_vertex_graphs(sh_graph, rook_graph):
    # Same strongly-regular parameters, so a finer invariant is needed.
    assert clique_number(sh_graph) == 3
    assert clique_number(rook_graph) == 4


def test_the_two_16_vertex_graphs_are_not_isomorphic(sh_graph, rook_graph):
    assert not are_isomorphic(sh_graph, rook_graph)
    assert are_isomorphic(sh_graph, sh_graph)


def test_complete_graph():
    k4 = complete_graph(4)
    assert len(k4) == 4
    assert oracles.edge_count(k4) == 6
    with pytest.raises(ValueError):
        complete_graph(1)


def test_doob_graph_degree_and_size():
    for m, n in [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2)]:
        g = doob_graph(DoobParams(m, n))
        assert len(g) == 4 ** (2 * m + n)
        assert regular_degree(g) == 6 * m + 3 * n


def test_doob_adjacency_matches_oracle():
    for m, n in [(1, 1), (0, 2)]:
        g = doob_graph(DoobParams(m, n))
        adj = oracles.doob_adjacency(m, n)
        for label, neighbors in adj.items():
            u = oracles.encode_label(label, m, n)
            assert set(oracles.neighbors(g, u)) == {
                oracles.encode_label(w, m, n) for w in neighbors
            }


def test_desk_scale_guard():
    with pytest.raises(DeskScaleError) as from_graph:
        doob_graph(DoobParams(3, 1))
    with pytest.raises(DeskScaleError) as from_check:
        check_desk_scale(DoobParams(3, 1))
    with pytest.raises(DeskScaleError) as from_shifts:
        _edge_shifts(3, 1)
    assert str(from_graph.value) == str(from_check.value) == str(from_shifts.value) == (
        "D(3,1) has 4^7 vertices, over the desk-scale limit 4096"
    )
    with pytest.raises(DeskScaleError) as info:
        check_desk_scale(DoobParams(0, 7))
    assert str(info.value) == "D(0,7) has 4^7 vertices, over the desk-scale limit 4096"
    check_desk_scale(DoobParams(3, 0))  # 4096 exactly is allowed
    assert DESK_SCALE_LIMIT == 4**MAX_WORD_LENGTH == 4096


def test_desk_scale_guard_computes_no_vertex_count():
    # 4^(2 * 10^12) would not fit in memory; the guard reads the word length only.
    params = DoobParams(10**12, 0)
    with pytest.raises(DeskScaleError) as info:
        check_desk_scale(params)
    assert str(info.value) == (
        "D(1000000000000,0) has 4^2000000000000 vertices, over the desk-scale limit 4096"
    )
    assert "vertex_count" not in vars(params)


# A vertex is its index; member_to_obj and member_from_obj are the one place
# where an index meets its coordinates.


def test_vertex_codec_worked_example():
    # Two K4 coordinates (1, 2) sit at index 6.
    p = DoobParams(0, 2)
    assert member_from_obj([1, 2], p) == 6
    assert member_to_obj(6, p) == [1, 2]


def test_vertex_codec_round_trip_exhaustive():
    # The index convention, and the oracle's independent encoder, agree.
    p = DoobParams(1, 1)
    for index in range(p.vertex_count):
        obj = member_to_obj(index, p)
        assert member_from_obj(obj, p) == oracles.encode_label(obj, 1, 1) == index
        assert oracles.decode_label(index, 1, 1) == (tuple(obj[0]), obj[1])


def test_vertex_codec_orders_sh_first():
    p = DoobParams(1, 1)
    assert member_from_obj([[2, 3], 1], p) == (4 * 2 + 3) * 4 + 1


@given(st.integers(0, 2), st.integers(0, 3))
def test_vertex_codec_round_trip_random_params(m, n):
    if m + n == 0 or 2 * m + n > 5:
        return
    p = DoobParams(m, n)
    for index in (0, 1, p.vertex_count // 2, p.vertex_count - 1):
        obj = member_to_obj(index, p)
        assert member_from_obj(obj, p) == oracles.encode_label(obj, m, n) == index


def test_vertex_codec_rejects_bad_shapes():
    p = DoobParams(1, 1)
    with pytest.raises(FormatError, match="does not have 1 Shrikhande"):
        member_from_obj([1], p)
    with pytest.raises(FormatError, match="bad K4 coordinate 4"):
        member_from_obj([[1, 2], 4], p)
    with pytest.raises(FormatError, match=r"bad Shrikhande coordinate \[4, 0\]"):
        member_from_obj([[4, 0], 1], p)


def test_small_codecs():
    assert sh_pair(11) == (2, 3)
    assert k4_pair(3) == (1, 1)
    assert k4_value(1, 0) == 2
    with pytest.raises(ValueError):
        sh_pair(16)
    with pytest.raises(ValueError):
        k4_pair(4)


def test_graph_summary_mentions_shape(sh_graph):
    text = summary(sh_graph)
    assert "16 vertices" in text and "6-regular" in text


def test_neighbors_iteration_matches_masks(sh_graph):
    for u in range(16):
        mask = 0
        for v in oracles.neighbors(sh_graph, u):
            mask |= 1 << v
        assert mask == sh_graph[u]
        assert oracles.degree(sh_graph, u) == mask.bit_count()


def test_edgeless_graph_helpers():
    g = (0, 0)
    assert oracles.edge_count(g) == 0
    assert regular_degree(g) == 0
    assert clique_number(g) == 1


WORD_LENGTH_UP_TO_4 = [(m, n) for m in range(3) for n in range(5) if 0 < m + n and 2 * m + n <= 4]


def oracle_edges_by_index(m, n):
    """Oracle adjacency translated to index pairs (u, w) with u < w."""
    edges = set()
    for a, neighbors in oracles.doob_adjacency(m, n).items():
        u = oracles.encode_label(a, m, n)
        for b in neighbors:
            w = oracles.encode_label(b, m, n)
            if u < w:
                edges.add((u, w))
    return edges


def shift_edges(shifts):
    """Every pair (u, u + d) that edge shifts name."""
    return {(u, u + d) for d, selector in shifts for u in oracles.mask_members(selector)}


def check_random_sets(rows, params, edges, seed):
    """The independence kernel on the edge shifts of rows, and
    Code.is_independent on D(m,n)'s, agree with a pair test over edges, on
    random vertex sets and on random independent sets with and without one
    extra vertex."""
    rng = random.Random(seed)
    outcomes = set()
    for trial in range(300):
        size = rng.randint(1, max(2, len(rows) // 4))
        members = rng.sample(range(len(rows)), size)
        if trial % 2:
            kept = []
            for v in members:
                if not any((min(u, v), max(u, v)) in edges for u in kept):
                    kept.append(v)
            if trial % 4 == 1:
                kept.append(members[-1])
            members = set(kept)
        independent = not any((u, w) in edges for u in members for w in members)
        code = Code(params, tuple(sorted(members)))
        assert _independent(code.mask, _row_shifts(rows)) == code.is_independent() == independent
        outcomes.add(independent)
    assert outcomes == {True, False}


@pytest.mark.parametrize("m, n", WORD_LENGTH_UP_TO_4)
def test_edge_shifts_match_oracle_adjacency(m, n):
    params = DoobParams(m, n)
    rows = doob_graph(params)
    edges = oracle_edges_by_index(m, n)
    assert shift_edges(_row_shifts(rows)) == edges
    assert [d for d, _ in _row_shifts(rows)] == sorted({w - u for u, w in edges})
    check_random_sets(rows, params, edges, seed=2 * m + n)


# Every D(m,n) with 2m + n <= 6, up to 4096 vertices.
WORD_LENGTH_UP_TO_6 = [(m, n) for m in range(4) for n in range(7) if 0 < m + n and 2 * m + n <= 6]


@pytest.mark.parametrize("m, n", WORD_LENGTH_UP_TO_6)
def test_closed_form_edge_shifts_match_the_product_graph(m, n):
    # The product rule over labeled tuples: doob_graph is built from _edge_shifts.
    shifts = _edge_shifts(m, n)
    edges = oracle_edges_by_index(m, n)
    assert shift_edges(shifts) == edges
    assert [d for d, _ in shifts] == sorted({w - u for u, w in edges})


def test_edge_shift_counts():
    assert len(_row_shifts(doob_graph(DoobParams(1, 2)))) == 13
    assert len(_row_shifts(doob_graph(DoobParams(3, 0)))) == 21
    assert _row_shifts(shrikhande()) == _edge_shifts(1, 0)
    assert _row_shifts(complete_graph(4)) == _edge_shifts(0, 1)


@pytest.mark.parametrize(
    "rows, m, n",
    [(shrikhande(), 1, 0), (doob_graph(DoobParams(0, 2)), 0, 2)],
    ids=["Sh", "K4xK4"],
)
def test_edge_shifts_without_params(rows, m, n):
    # A graph is its rows alone: the shifts are read off them, with no params.
    edges = oracle_edges_by_index(m, n)
    assert shift_edges(_row_shifts(rows)) == edges
    check_random_sets(rows, DoobParams(m, n), edges, seed=m + n)


@pytest.mark.parametrize("keep", ["higher", "lower", "mixed"])
def test_edge_shifts_on_one_sided_adjacency(sh_graph, keep):
    """Each edge stored in one row only still gives the same shifts and checks."""
    rows = [0] * len(sh_graph)
    for u, w in oracle_edges_by_index(1, 0):
        if keep == "lower" or (keep == "mixed" and (u + w) % 2):
            rows[u] |= 1 << w
        else:
            rows[w] |= 1 << u
    one_sided = tuple(rows)
    assert _row_shifts(one_sided) == _row_shifts(sh_graph)
    params = DoobParams(1, 0)
    check_random_sets(one_sided, params, oracle_edges_by_index(1, 0), seed=len(keep))
    u, w = min(oracle_edges_by_index(1, 0))
    spread = Code(params, tuple(sorted({u, w, 10, 15})))
    pair = _first_pair(spread.mask, _row_shifts(one_sided))
    assert pair == spread.first_adjacent_pair()
    assert pair is not None and (min(pair), max(pair)) in oracle_edges_by_index(1, 0)
    with pytest.raises(ConsistencyError, match=f"adjacent members {pair[0]} and {pair[1]}"):
        spread.assert_mds()


def doubled(pattern, period, blocks):
    """pattern in at least blocks blocks of period bits, by doubling, with
    no cut at the last block: enough for the packed orbit action, which
    only ANDs a repeated selector with masks of blocks blocks."""
    out, filled = pattern, 1
    while filled < blocks:
        out |= out << filled * period
        filled *= 2
    return out


def repeated_bit_by_bit(pattern, period, total):
    """Bit t is bit t mod period of pattern, for t < total."""
    bits = [pattern >> t % period & 1 for t in range(total)]
    return int("".join(map(str, reversed(bits))), 2)


@pytest.mark.parametrize("period", [1, 3, 8, 64, 1024])
def test_repeat_matches_doubling_and_its_definition(period):
    # _PACK blocks is a full run of the packed action; fewer is its last run.
    rng = random.Random(period)
    for blocks in (1, 2, 3, 100, _PACK - 1, _PACK):
        total = period * blocks
        for pattern in (0, (1 << period) - 1, rng.getrandbits(period), rng.getrandbits(period)):
            repeated = _repeat(pattern, period, total)
            assert repeated == doubled(pattern, period, blocks) & (1 << total) - 1
            assert repeated == repeated_bit_by_bit(pattern, period, total)


@pytest.mark.parametrize(
    "m, n", [(m, n) for m in range(4) for n in range(MAX_WORD_LENGTH + 1 - 2 * m) if m + n]
)
def test_slots_and_vertex_digits_match_the_divmod_oracle(m, n):
    # Each slot's (radix, stride) is pinned by the one vertex whose digits
    # are all 0 but radix - 1 at that slot.
    params = DoobParams(m, n)
    slots = _slots(m, n)
    assert [radix for radix, _ in slots] == [16] * m + [4] * n
    for i, (radix, stride) in enumerate(slots):
        assert oracles.vertex_digits((radix - 1) * stride, m, n) == [
            radix - 1 if j == i else 0 for j in range(m + n)
        ]
    for index in range(params.vertex_count):
        assert _vertex_digits(index, params) == oracles.vertex_digits(index, m, n)
