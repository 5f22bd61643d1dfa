"""Acceptance gate: the full checklist for this package, one test per criterion.

Each test prints a single pass line straight to the terminal (past pytest's
capture) and enforces the stated wall-clock tolerance.  Everything here is
exact arithmetic; there are no approximate comparisons.
"""

import filecmp
import time

import oracles
from doobmds import (
    DoobParams,
    bounds_report,
    derive_pairing,
    doob_graph,
    enumerate_mds,
    orbits_of_codes,
    reduce_sh_coordinates,
    representative_rules,
)
from doobmds.cli import main
from doobmds.parity import (
    ParityRule,
    build_parity_code,
    rule_domain_size,
)


def report(capsys, criterion: int, line: str):
    with capsys.disabled():
        print(f"\ncriterion {criterion}: PASS - {line}")


def test_criterion_1_census_reproduction(capsys):
    """Exactly 4, 24, 16 codes for D(0,1), D(0,2), D(1,0), each run under 1s."""
    timings = []
    for (m, n), expected in [((0, 1), 4), ((0, 2), 24), ((1, 0), 16)]:
        started = time.monotonic()
        result = enumerate_mds(DoobParams(m, n))
        elapsed = time.monotonic() - started
        assert result.count == expected
        assert len(result.codes) == expected
        assert elapsed < 1.0
        timings.append(f"D({m},{n})={result.count} in {elapsed:.3f}s")
    report(capsys, 1, "census 4/24/16, " + ", ".join(timings))


def test_criterion_2_orbit_census(capsys):
    """Orbit sizes {4,12} for the 16 Shrikhande codes, {24} for D(0,2); <10s."""
    started = time.monotonic()
    sh_params, k4_params = DoobParams(1, 0), DoobParams(0, 2)
    sh_group = oracles.automorphism_group(doob_graph(sh_params))
    k4_group = oracles.automorphism_group(doob_graph(k4_params))
    assert sh_group.order == 192 and k4_group.order == 1152
    sh_orbits = orbits_of_codes(enumerate_mds(sh_params).codes, sh_group.generators)
    k4_orbits = orbits_of_codes(enumerate_mds(k4_params).codes, k4_group.generators)
    elapsed = time.monotonic() - started
    assert sh_orbits.sizes == (4, 12)
    assert k4_orbits.sizes == (24,)
    assert elapsed < 10.0
    report(capsys, 2, f"orbits (4,12) and (24,) incl. group search in {elapsed:.2f}s")


def test_criterion_3_latin_square_cross_check(capsys):
    """|MDS(0,3)| = 576 by the independent latin-square counter and by search; <1min."""
    started = time.monotonic()
    squares = oracles.latin_squares_order4()
    assert len(squares) == 576
    result = enumerate_mds(DoobParams(0, 3))
    assert result.count == 576
    from_squares = {tuple(sorted(oracles.latin_square_members(sq))) for sq in squares}
    assert from_squares == {code.members for code in result.codes}
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(capsys, 3, f"576 = latin squares of order 4 = |MDS(0,3)| in {elapsed:.2f}s")


def test_criterion_4_pairing_and_reduction_suite(capsys):
    """Pairing table valid with equal intersection matrices; reduction is
    injective on MDS(1,0) and MDS(1,1); |MDS(1,1)| respects the 576 bound; <5min."""
    started = time.monotonic()
    table = derive_pairing()
    assert oracles.pairing_violations(table) == []
    domain_matrix = [oracles.intersection_profile(code, table.domain) for code in table.domain]
    image_matrix = [oracles.intersection_profile(code, table.image) for code in table.image]
    assert domain_matrix == image_matrix

    sh_images = {reduce_sh_coordinates(c).members for c in enumerate_mds(DoobParams(1, 0)).codes}
    assert len(sh_images) == 16
    target_24 = {code.members for code in enumerate_mds(DoobParams(0, 2)).codes}
    assert sh_images <= target_24

    mixed = enumerate_mds(DoobParams(1, 1))
    assert mixed.count <= 576  # the injection into MDS(0,3) forces this
    mixed_images = set()
    for code in mixed.codes:
        reduced = reduce_sh_coordinates(code)
        reduced.assert_mds(context="acceptance reduction")
        mixed_images.add(reduced.members)
    assert len(mixed_images) == mixed.count  # pairwise distinct: injective
    target_576 = {code.members for code in enumerate_mds(DoobParams(0, 3)).codes}
    assert mixed_images <= target_576
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(
        capsys,
        4,
        f"pairing valid, matrices equal, reduction injective on 16+{mixed.count} "
        f"codes, {mixed.count} <= 576, in {elapsed:.2f}s",
    )


def _criterion_5_rules(params: DoobParams):
    # At two Shrikhande coordinates the full rule space is 2^16; one
    # representative per essential class gives the stated 256 constructions.
    if (params.m, params.n) == (2, 0):
        return representative_rules(params)
    return oracles.all_parity_rules(params)


def test_criterion_5_parity_family_suite(capsys):
    """All 16+16+256+256 = 544 parity constructions verify with the right size; <1min."""
    started = time.monotonic()
    built = 0
    for m, n in [(1, 0), (0, 2), (1, 1), (2, 0)]:
        params = DoobParams(m, n)
        for rule in _criterion_5_rules(params):
            code = build_parity_code(rule)
            assert len(code) == params.code_size
            code.assert_mds(context="acceptance parity construction")
            built += 1
    elapsed = time.monotonic() - started
    assert built == 544
    assert elapsed < 60.0
    report(capsys, 5, f"544 parity codes built and verified in {elapsed:.2f}s")


def test_criterion_6_distinct_code_counts(capsys):
    """Distinct parity codes number 2^(2^(2m+n-1)): 4, 4, 16, 256; classes agree; <1min."""
    started = time.monotonic()
    checks = []
    for (m, n), expected in [((1, 0), 4), ((0, 2), 4), ((1, 1), 16), ((2, 0), 256)]:
        params = DoobParams(m, n)
        assert bounds_report(params).lower_exact == expected
        distinct = {build_parity_code(rule).members for rule in _criterion_5_rules(params)}
        assert len(distinct) == expected
        checks.append(f"({m},{n})={expected}")
    # the essential-equality relation partitions the full rule space likewise
    for m, n, expected in [(1, 0, 4), (0, 2, 4), (1, 1, 16), (2, 0, 256)]:
        params = DoobParams(m, n)
        size = rule_domain_size(params)
        keys = {
            oracles.essential_key(
                ParityRule(
                    params, tuple(packed >> (size - 1 - k) & 1 for k in range(size))
                )
            )
            for packed in range(2 ** size)
        }
        assert len(keys) == expected
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(capsys, 6, "distinct counts " + ", ".join(checks) + f" in {elapsed:.2f}s")


def test_criterion_7_sandwich(capsys):
    """Bounds hold and are printed: 4 <= 16 <= 24 at (1,0); 16 <= 240 <= 576 at (1,1)."""
    assert main(["bounds", "1", "0"]) == 0
    line_10 = capsys.readouterr().out
    assert line_10 == "lower 4, upper 24 (=|MDS(0,2)|), actual 16\n"
    assert main(["bounds", "1", "1"]) == 0
    line_11 = capsys.readouterr().out
    assert line_11 == "lower 16, upper 576 (=|MDS(0,3)|), actual 240\n"
    for params in [DoobParams(1, 0), DoobParams(1, 1)]:
        r = bounds_report(params)
        assert r.lower_exact <= r.actual <= r.upper_exact
    report(capsys, 7, f"printed {line_10.strip()!r} and {line_11.strip()!r}")


def test_criterion_8_asymptotics_substituted(capsys):
    """The growth statement concerns unbounded word length and cannot be run at
    desk scale; it is substituted by its finite instantiations, which this
    suite checks exhaustively: the doubly exponential family of criteria 5-6
    (lower), the injective reduction of criterion 4 (upper), and the criterion
    7 sandwich between them."""
    for (m, n), expected in [((1, 0), 4), ((0, 2), 4), ((1, 1), 16), ((2, 0), 256)]:
        params = DoobParams(m, n)
        word = params.word_length
        r = bounds_report(params)
        assert r.lower_exact == 2 ** (2 ** (word - 1))
        assert r.upper_params == DoobParams(0, word)
    report(
        capsys,
        8,
        "asymptotic growth claim not desk-checkable; explicitly substituted by "
        "the finite lower/upper instantiations of criteria 4-7",
    )


def test_criterion_9_determinism_across_jobs(tmp_path, capsys):
    """Artifacts from the criteria 1-6 enumerations are byte-identical for
    jobs=1 and jobs=4."""
    compared = 0
    for m, n in [(0, 1), (0, 2), (1, 0), (1, 1), (0, 3)]:
        serial = tmp_path / f"serial_{m}_{n}"
        parallel = tmp_path / f"parallel_{m}_{n}"
        for directory, jobs in [(serial, "1"), (parallel, "4")]:
            assert (
                main(
                    ["enumerate", str(m), str(n), "--out", str(directory), "--jobs", jobs]
                )
                == 0
            )
        capsys.readouterr()
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in parallel.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(serial, parallel, names, shallow=False)
        assert (sorted(match), mismatch, errors) == (names, [], [])
        compared += len(names)
    report(capsys, 9, f"{compared} artifact files byte-identical between jobs=1 and jobs=4")
