import itertools

import pytest

from doobmds import (
    Code,
    DeskScaleError,
    DoobParams,
    count_mds,
    doob_graph,
    enumerate_mds,
    shrikhande,
)
from doobmds import search
from doobmds.search import PUBLISHED_COUNTS, independent_sets_of_size

import oracles

# Counts not stated in the source material, pinned after independent derivation.
# (2, 1) and (1, 3) come from the exhaustive leaf walk that preceded
# orbit-weighted counting, so count_mds reproduces them by a second method.
DERIVED_COUNTS = {
    (1, 1): 240,
    (0, 3): 576,
    (2, 0): 5856,
    (1, 2): 16128,
    (2, 1): 3707136,
    (1, 3): 11377152,
}


def test_stated_counts(codes_by_params):
    for key, want in PUBLISHED_COUNTS.items():
        assert len(codes_by_params[key]) == want


def test_derived_counts_are_stable(codes_by_params):
    for key in [(1, 1), (0, 3), (2, 0)]:
        assert len(codes_by_params[key]) == DERIVED_COUNTS[key]
    for key in [(1, 2), (2, 1), (1, 3)]:
        assert count_mds(DoobParams(*key)) == DERIVED_COUNTS[key]


def test_oracle_equivalence_subset_scan_16_vertices(codes_by_params):
    # Literal scan of all 1820 4-subsets (and 4 singletons) on each factor.
    for m, n in [(1, 0), (0, 2), (0, 1)]:
        adj = oracles.doob_adjacency(m, n)
        size = DoobParams(m, n).code_size
        expected = {
            frozenset(oracles.encode_label(v, m, n) for v in s)
            for s in oracles.scan_independent_sets(adj, size)
        }
        got = {frozenset(c.members) for c in codes_by_params[(m, n)]}
        assert got == expected


def test_shrikhande_has_no_larger_independent_set():
    adj = oracles.shrikhande_adjacency()
    assert oracles.scan_independent_sets(adj, 5) == []


def test_oracle_equivalence_bounded_search_64_vertices(codes_by_params):
    for m, n in [(1, 1), (0, 3)]:
        adj = oracles.doob_adjacency(m, n)
        size = DoobParams(m, n).code_size
        expected = {
            frozenset(oracles.encode_label(v, m, n) for v in s)
            for s in oracles.search_max_independent_sets(adj, size)
        }
        got = {frozenset(c.members) for c in codes_by_params[(m, n)]}
        assert got == expected


def test_every_enumerated_code_is_verified(codes_by_params):
    # enumerate_mds verifies on the way out; re-check a sample against the graph
    for key in [(1, 0), (0, 2), (1, 1)]:
        graph = doob_graph(DoobParams(*key))
        for code in codes_by_params[key]:
            assert code.is_mds(graph)


def test_output_is_sorted_and_deduplicated(codes_by_params):
    for codes in codes_by_params.values():
        members = [c.members for c in codes]
        assert members == sorted(members)
        assert len(set(members)) == len(members)


def test_counts_match_materialization(codes_by_params):
    materialized = dict(codes_by_params)
    materialized[(1, 2)] = enumerate_mds(DoobParams(1, 2)).codes
    for (m, n), codes in materialized.items():
        assert count_mds(DoobParams(m, n)) == len(codes)


def test_disjoint_rows_match_pairwise_test(codes_by_params):
    # 5856 sub-codes span several transpose blocks of the incidence bitsets.
    masks = [code.mask for code in codes_by_params[(2, 0)]]
    rows = search._compatibility(masks)
    for i in list(range(0, len(masks), 397)) + [len(masks) - 1]:
        expected = sum(1 << j for j, other in enumerate(masks) if not masks[i] & other)
        assert rows[i] == expected


def test_count_only_result_has_no_codes():
    result = enumerate_mds(DoobParams(0, 2), materialize=False)
    assert result.count == 24
    assert result.codes is None
    assert not result.is_materialized()


def test_parallel_enumeration_identical(codes_by_params):
    for key in [(1, 1), (2, 0)]:
        parallel = enumerate_mds(DoobParams(*key), jobs=4, verify=False)
        assert [c.members for c in parallel.codes] == [
            c.members for c in codes_by_params[key]
        ]
        assert count_mds(DoobParams(*key), jobs=4) == len(codes_by_params[key])


def test_worker_pool_is_clamped(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(search.multiprocessing, "get_context", lambda method: Context)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    result = enumerate_mds(DoobParams(1, 1), jobs=1000, verify=False)
    assert started == [3]
    assert result.count == 240
    assert search._worker_count(1000, 2) == 2
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert search._worker_count(1000, 5856) == 1


def test_desk_scale_guard_message():
    with pytest.raises(DeskScaleError, match="desk-scale limit 4096"):
        enumerate_mds(DoobParams(2, 3))
    with pytest.raises(DeskScaleError):
        count_mds(DoobParams(4, 0))


def test_k4_fibers_of_two_coordinate_codes(codes_by_params):
    """Each code over one Shrikhande and one K4 coordinate is four disjoint
    Shrikhande codes indexed by the K4 value, and every such assignment occurs."""
    sh_sets = {frozenset(c.members) for c in codes_by_params[(1, 0)]}
    seen = set()
    for code in codes_by_params[(1, 1)]:
        fibers = [frozenset(v // 4 for v in code.members if v % 4 == f) for f in range(4)]
        for fiber in fibers:
            assert fiber in sh_sets
        for a, b in itertools.combinations(fibers, 2):
            assert not a & b
        seen.add(tuple(fibers))
    assert len(seen) == len(codes_by_params[(1, 1)])
    # conversely: count all ordered disjoint 4-tuples of Shrikhande codes
    sh_list = sorted(sh_sets, key=sorted)
    built = sum(
        1
        for quad in itertools.permutations(range(16), 4)
        if all(
            not sh_list[i] & sh_list[j] for i, j in itertools.combinations(quad, 2)
        )
    )
    assert built == len(codes_by_params[(1, 1)])


def test_latin_square_cross_check(codes_by_params):
    squares = oracles.latin_squares_order4()
    assert len(squares) == 576
    expected = {oracles.latin_square_members(s) for s in squares}
    got = {frozenset(c.members) for c in codes_by_params[(0, 3)]}
    assert got == expected


def test_independent_sets_of_size_order():
    sets = independent_sets_of_size(shrikhande(), 4)
    assert len(sets) == 16
    assert sets == sorted(sets)
    singles = independent_sets_of_size(shrikhande(), 1)
    assert len(singles) == 16


def test_code_objects_carry_parameters(codes_by_params):
    for (m, n), codes in codes_by_params.items():
        for code in codes[:2]:
            assert code.params == DoobParams(m, n)
            assert isinstance(code, Code)
            assert len(code) == DoobParams(m, n).code_size
