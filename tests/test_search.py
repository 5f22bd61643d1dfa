import itertools
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from doobmds import (
    Code,
    DeskScaleError,
    DoobParams,
    build_parity_code,
    count_mds,
    doob_graph,
    doob_symmetries,
    enumerate_mds,
    representative_rules,
    shrikhande,
)
from doobmds import cli, search
from doobmds.search import PUBLISHED_COUNTS, independent_sets_of_size
from doobmds.symmetry import _schreier_generators, orbits_of_masks

import oracles

# Counts not stated in the source material, pinned after independent derivation.
# (2, 1) and (1, 3) come from the exhaustive leaf walk that preceded
# orbit-weighted counting.  count_mds now counts them as latin colorings (exact
# covers by four sub-codes); oracles.orbit_assembly_count reproduces them by
# the orbit-weighted assembly, and the Shrikhande split, weighted at two
# levels, by a product with a different last factor.
DERIVED_COUNTS = {
    (1, 1): 240,
    (2, 0): 5856,
    (1, 2): 16128,
    (2, 1): 3707136,
    (1, 3): 11377152,
}


def test_stated_counts(codes_by_params):
    for key in [(0, 1), (0, 2), (1, 0), (0, 3)]:
        assert len(codes_by_params[key]) == PUBLISHED_COUNTS[key]


def test_hamming_counts_are_the_published_quasigroup_counts():
    assert enumerate_mds(DoobParams(0, 4)).count == PUBLISHED_COUNTS[(0, 4)] == 55296
    assert count_mds(DoobParams(0, 5)) == PUBLISHED_COUNTS[(0, 5)] == 36972288


def test_derived_counts_are_stable(codes_by_params):
    for key in [(1, 1), (2, 0)]:
        assert len(codes_by_params[key]) == DERIVED_COUNTS[key]
    for key in [(1, 2), (2, 1), (1, 3)]:
        assert count_mds(DoobParams(*key)) == DERIVED_COUNTS[key]


@pytest.mark.parametrize(
    "m, n", [(m, n) for m in range(3) for n in range(1, 6) if 2 * m + n <= 5]
)
def test_latin_coloring_count_matches_orbit_assembly(m, n):
    assert count_mds(DoobParams(m, n)) == oracles.orbit_assembly_count(DoobParams(m, n))


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
    # enumerate_mds does not re-check what it builds; every code is checked here.
    enumerated = dict(codes_by_params)
    for key in [(1, 2), (0, 4)]:
        enumerated[key] = enumerate_mds(DoobParams(*key)).codes
    for key, codes in enumerated.items():
        graph = doob_graph(DoobParams(*key))
        assert all(code.is_mds() for code in codes), key
        assert all(oracles.is_mds_by_edge_shifts(code, graph) for code in codes), key


def test_enumeration_does_not_recheck_its_codes(monkeypatch):
    calls = []
    original = Code.assert_mds

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Code, "assert_mds", counted)
    assert enumerate_mds(DoobParams(1, 1)).count == 240
    assert calls == []


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


@pytest.mark.parametrize("m, n", [(0, 1), (0, 2), (1, 0), (1, 1), (0, 3), (2, 0)])
def test_incidence_is_the_transposed_bit_matrix(codes_by_params, m, n):
    # Square blocks of 8 (D(0,1)'s 4 vertices, padded), 16, 64 and 256 codes;
    # D(1,1)'s 240 codes fill part of one block, D(2,0)'s 5856 fill 23.
    masks = [code.mask for code in codes_by_params[(m, n)]]
    incidence = search._compatibility(masks).incidence
    assert len(incidence) == DoobParams(m, n).vertex_count
    for v, column in enumerate(incidence):
        assert column == sum(1 << i for i, mask in enumerate(masks) if mask >> v & 1)
    rows = search._compatibility(masks)
    for i in range(0, len(masks), 1 + len(masks) // 300):
        assert rows[i] == sum(1 << j for j, other in enumerate(masks) if not masks[i] & other)


def test_disjoint_rows_match_pairwise_test(codes_by_params):
    # 5856 sub-codes span 23 transpose blocks of the incidence bitsets.
    masks = [code.mask for code in codes_by_params[(2, 0)]]
    rows = search._compatibility(masks)
    for i in list(range(0, len(masks), 397)) + [len(masks) - 1]:
        expected = sum(1 << j for j, other in enumerate(masks) if not masks[i] & other)
        assert rows[i] == expected


@pytest.mark.parametrize(
    "m, n", [(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2), (2, 0)]
)
def test_member_masks_match_the_full_assembly(m, n):
    # Searched blocks and Schreier-tree images together give each code once.
    masks = search._member_tuples(DoobParams(m, n))
    reference = oracles.full_assembly_masks(DoobParams(m, n))
    assert len(masks) == len(reference) == len(set(reference))
    assert set(masks) == set(reference)


def _image(perm, mask):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def test_one_representative_per_orbit_is_searched(monkeypatch):
    # D(2,0) = D(1,0) x Sh: one search per Aut-orbit of the first fiber and,
    # beside each, per Stab(r)-orbit of the second, with Stab(r) found here
    # from the 192 elements of Aut Sh.
    pairs = []  # the (r, c) prefix of each search
    original = search._assemble

    def recorded(factor_masks, compat, prefix, count_only=False):
        pairs.append(tuple(prefix))
        return original(factor_masks, compat, prefix, count_only)

    monkeypatch.setattr(search, "_assemble", recorded)
    assert len(search._member_tuples(DoobParams(2, 0))) == 5856
    assert len(pairs) == 5 and all(len(pair) == 2 for pair in pairs)
    sh = DoobParams(1, 0)
    masks = search._member_tuples(sh)
    generators = doob_symmetries(sh).generators
    orbits = orbits_of_masks(masks, generators, 16)
    firsts = sorted({r for r, _ in pairs})
    assert len(firsts) == len(orbits) == 2
    assert all(len(set(orbit) & set(firsts)) == 1 for orbit in orbits)
    group = oracles.closure(generators, 16)
    assert len(group) == 192
    level_one_sizes = []
    for r in firsts:
        stabilizer = [g for g in group if _image(g, masks[r]) == masks[r]]
        choices = [j for j, mask in enumerate(masks) if not mask & masks[r]]
        level_one = orbits_of_masks([masks[j] for j in choices], stabilizer, 16)
        seconds = [c for first, c in pairs if first == r]
        assert len(seconds) == len(set(seconds)) == len(level_one)
        for orbit in level_one:
            assert len({choices[i] for i in orbit} & set(seconds)) == 1
        level_one_sizes.append(sorted(map(len, level_one)))
    assert sorted(level_one_sizes) == [[1, 2, 2], [3, 6]]


@pytest.fixture(scope="module")
def d30_level_one():
    """Level 1 of D(3,0) = D(2,0) x Sh: the disjointness rows of D(2,0)'s
    codes, and _orbit_step's result beside each of the 14 orbit
    representatives r among them, by r: the codes disjoint from r, in
    orbits under the Schreier generators of Stab(r)."""
    rest = DoobParams(2, 0)
    sub_masks = search._member_tuples(rest)
    compat = search._compatibility(sub_masks)
    perms = doob_symmetries(rest).generators
    _, (trees, *orbits), _ = search._orbit_step(sub_masks, compat.full, perms)
    level_one = {
        tree[0]: search._orbit_step(
            sub_masks, compat[tree[0]], _schreier_generators(tree, *orbits, perms)
        )
        for tree in trees
    }
    return compat, level_one


def test_level_one_orbits_are_those_of_the_whole_stabilizer(d30_level_one):
    # Every Schreier generator counts: the first 16 of each list generate a
    # subgroup of each Stab(r), with finer orbits that total 390.
    _, level_one = d30_level_one
    assert len(level_one) == 14
    assert sum(len(orbits[0]) for _, orbits, _ in level_one.values()) == 360


@pytest.mark.parametrize("r", [74, 122, 2766])
def test_weighted_level_one_matches_plain_on_light_d30_representatives(d30_level_one, r):
    # D(3,0)'s three representatives with 33 level-1 choices each: the count
    # beside r weighted by Stab(r)-orbits equals the plain search beside r.
    compat, level_one = d30_level_one
    factor_masks = shrikhande()
    choices, (trees1, *_), _ = level_one[r]
    assert len(choices) == 33
    weighted = sum(
        len(tree1) * search._assemble(factor_masks, compat, (r, choices[tree1[0]]), True)
        for tree1 in trees1
    )
    plain = search._assemble(factor_masks, compat, (r,), True)
    assert weighted == plain == 25296


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (1, 3)])
def test_both_splits_give_the_same_count(m, n):
    # The second method at word length 5: D(2,1) = D(1,1) x Sh and
    # D(1,3) = D(0,3) x Sh, counted on the weighted Shrikhande split, against
    # the latin colorings of the K4 split.
    params = DoobParams(m, n)
    on_sh = search._count(params, sh=True)
    assert on_sh == search._count(params, sh=False) == DERIVED_COUNTS[(m, n)]


@pytest.mark.parametrize("m, n", [(2, 0), (1, 1), (1, 2)])
def test_weighted_shrikhande_split_matches_plain_assembly(m, n):
    # Plain: every sub-code tried at both first fibers, no weights.
    params = DoobParams(m, n)
    rest, sh, rows = search._decompose(params, sh=True)
    assert sh and rows is shrikhande()
    compat = search._compatibility(search._member_tuples(rest))
    plain = search._assemble(rows, compat, (), count_only=True)
    weighted = count_mds(params) if n == 0 else search._count(params, sh=True)
    assert weighted == plain == len(enumerate_mds(params).codes)


@pytest.mark.parametrize(
    "m, n, by_split, union",
    [
        (1, 1, {}, 0),
        (2, 0, {(0,): 2400}, 2400),
        (1, 2, {(0,): 5760}, 5760),
        (0, 4, {(0, 1): 13824, (0, 2): 13824, (0, 3): 13824}, 34560),
    ],
)
def test_reducible_codes_of_each_split(m, n, by_split, union):
    # A code reducible over A | B composes a code of D(A) x K4 with one of
    # D(B) x K4 through their K4 coordinate, and each split has
    # |MDS(A x K4)| * |MDS(B x K4)| / 24 of them.  D(0,4)'s splits overlap.
    params = DoobParams(m, n)
    masks = search._member_tuples(params)
    assert oracles.coordinate_splits(m, n) == list(by_split)
    found = set()
    for part, count in by_split.items():
        reducible = oracles.reducible_masks(params, masks, part)
        sh = sum(s < m for s in part)
        a, b = DoobParams(sh, len(part) - sh + 1), DoobParams(m - sh, n - len(part) + sh + 1)
        assert 24 * len(reducible) == count_mds(a) * count_mds(b) == 24 * count
        found |= reducible
    assert len(found) == union


@pytest.mark.parametrize(
    "m, n, semilinear, orbits, both",
    [
        (1, 1, 240, 3, 0),
        (2, 0, 4560, 11, 1104),
        (1, 2, 13536, 9, 3168),
        (0, 4, 39744, 4, 19008),
    ],
)
def test_every_code_is_semilinear_or_reducible(m, n, semilinear, orbits, both):
    # A code is semilinear if its orbit under Aut D(m,n) holds the parity
    # code of a representative rule.  With the reducible codes of every
    # split, the census at word length 4 leaves no code that is neither.
    params = DoobParams(m, n)
    masks = search._member_tuples(params)
    position = {mask: i for i, mask in enumerate(masks)}
    parity = {position[build_parity_code(rule).mask] for rule in representative_rules(params)}
    classes = orbits_of_masks(masks, doob_symmetries(params).generators, params.vertex_count)
    linear = [cls for cls in classes if parity.intersection(cls)]
    found = {masks[i] for cls in linear for i in cls}
    assert (len(found), len(linear)) == (semilinear, orbits)
    reducible = set().union(
        *(oracles.reducible_masks(params, masks, part) for part in oracles.coordinate_splits(m, n))
    )
    assert len(found & reducible) == both
    assert len(found | reducible) == len(masks)


def test_split_choice_needs_the_coordinate():
    assert search._decompose(DoobParams(1, 2), sh=True)[0] == DoobParams(0, 2)
    assert search._decompose(DoobParams(1, 2), sh=False)[0] == DoobParams(1, 1)
    assert search._decompose(DoobParams(1, 0), sh=True)[0] is None
    with pytest.raises(ValueError, match="no K4 coordinate"):
        search._decompose(DoobParams(2, 0), sh=False)
    with pytest.raises(ValueError, match="no Shrikhande coordinate"):
        search._decompose(DoobParams(0, 3), sh=True)


def test_parallel_enumeration_identical(codes_by_params):
    # enumerate_mds takes no worker count; a second run gives the same order.
    for key in [(1, 1), (2, 0)]:
        again = enumerate_mds(DoobParams(*key))
        assert [c.members for c in again.codes] == [
            c.members for c in codes_by_params[key]
        ]
        assert count_mds(DoobParams(*key)) == len(codes_by_params[key])


@pytest.fixture
def serial_pool(monkeypatch):
    """Worker pools that run their tasks in this process, recorded as
    (start method, processes); a pool of the default context has method None."""
    pools = []

    class SerialPool:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    class Context:
        def __init__(self, method):
            self.method = method

        def Pool(self, processes):
            pools.append((self.method, processes))
            return SerialPool()

    monkeypatch.setattr(multiprocessing, "get_context", Context)
    monkeypatch.setattr(multiprocessing, "Pool", Context(None).Pool)
    return pools


def _enumerate_count(capsys, tmp_path, m, n, jobs):
    """Count printed by the CLI's enumerate M N --out DIR --jobs JOBS."""
    out = tmp_path / f"d{m}{n}"
    assert cli.main(["enumerate", str(m), str(n), "--out", str(out), "--jobs", str(jobs)]) == 0
    return int(capsys.readouterr().out)


def test_worker_pool_is_clamped(monkeypatch, tmp_path, capsys, serial_pool):
    # Any --jobs, on any number of cores, runs the search in this process.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _enumerate_count(capsys, tmp_path, 1, 2, 1000) == 16128
    assert _enumerate_count(capsys, tmp_path, 1, 1, 2) == 240
    assert serial_pool == []


@pytest.mark.parametrize("methods, default", [(["fork", "spawn"], "fork"), (["spawn"], None)])
def test_worker_start_method_is_portable(monkeypatch, tmp_path, capsys, serial_pool, methods, default):
    # No start method is chosen, whatever the platform offers or defaults to.
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: default)
    assert _enumerate_count(capsys, tmp_path, 1, 2, 1000) == 16128
    assert _enumerate_count(capsys, tmp_path, 1, 1, 2) == 240
    assert serial_pool == []


def test_only_worker_pools_import_multiprocessing(tmp_path):
    """No CLI command imports multiprocessing, whatever its --jobs."""
    probe = (
        "import sys\n"
        "from doobmds import cli\n"
        "imported = ['multiprocessing' in sys.modules]\n"
        "cli.main(['enumerate', '1', '1', '--out', sys.argv[1], '--jobs', '2'])\n"
        "cli.main(['enumerate', '2', '0', '--count-only', '--jobs', '2'])\n"
        "imported.append('multiprocessing' in sys.modules)\n"
        "print(imported)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "d11")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.stdout == "240\n5856\n[False, False]\n", done.stderr


def test_desk_scale_guard_message():
    with pytest.raises(DeskScaleError, match="desk-scale limit 4096"):
        enumerate_mds(DoobParams(2, 3))
    with pytest.raises(DeskScaleError):
        count_mds(DoobParams(4, 0))


@pytest.mark.parametrize("m, n, rest", [(2, 2, "D(2,1)"), (1, 4, "D(1,3)"), (0, 6, "D(0,5)")])
def test_split_guard_refuses_a_rest_past_word_length_4(m, n, rest):
    # Each graph passes the 4096-vertex guard, but its rest has millions of codes.
    message = re.escape(f"D({m},{n}) splits off {rest}")
    with pytest.raises(DeskScaleError, match=message):
        count_mds(DoobParams(m, n))
    with pytest.raises(DeskScaleError, match=message):
        enumerate_mds(DoobParams(m, n))


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (0, 5), (3, 0)])
def test_enumeration_guard_refuses_past_word_length_4(monkeypatch, m, n):
    # Each rest passes the split guard, and each graph has millions of codes
    # (D(3,0) at least 2^32), so enumerate_mds refuses before any search.
    def refuse(*args, **kwargs):
        raise AssertionError("the enumeration searched something")

    monkeypatch.setattr(search, "_orbit_trees", refuse)
    monkeypatch.setattr(search, "_assemble", refuse)
    with pytest.raises(DeskScaleError, match=re.escape(f"the codes of D({m},{n}) are too many")):
        enumerate_mds(DoobParams(m, n))


def test_split_guard_admits_d30(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the split counted something")

    monkeypatch.setattr(search, "_member_tuples", refuse)
    monkeypatch.setattr(search, "_assemble", refuse)
    rest, sh, rows = search._decompose(DoobParams(3, 0))
    assert rest == DoobParams(2, 0)
    assert sh and rows is shrikhande()


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


@pytest.mark.parametrize("m, n", [(0, 3), (1, 1), (1, 2), (2, 0)])
def test_enumeration_order_is_lexicographic_in_members(m, n):
    members = [code.members for code in enumerate_mds(DoobParams(m, n)).codes]
    assert members == sorted(members)
    assert len(set(members)) == len(members)
