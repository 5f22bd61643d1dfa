"""Command-line interface with bit-exact, cacheable outputs.

Subcommands: enumerate, verify, xi, kappa, lambda, bounds, classify.  All
emitted JSON is canonical (sorted keys, compact, trailing newline) and
contains nothing run-dependent, so repeated runs and different worker counts
produce byte-identical files; timing goes to stderr only.  Exit codes:
0 success, 1 a checked input code failed verification, 2 desk-scale guard,
3 input parse problem, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .codes import canonical_json, code_to_obj, dump_code, read_code
from .errors import (
    ConsistencyError,
    DeskScaleError,
    FormatError,
    ParameterMismatchError,
)
from .graphs import DoobParams, doob_graph
from .parity import bounds_report, build_parity_code, read_rule, rule_from_hex
from .reduction import derive_pairing, pairing_violations, reduce_sh_coordinates
from .search import PUBLISHED_COUNTS, count_mds, enumerate_mds
from .symmetry import doob_symmetries, orbits_of_codes

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_GUARD = 2
EXIT_PARSE = 3
EXIT_INCONSISTENT = 4


def _parse_params(m, n) -> DoobParams:
    try:
        return DoobParams(int(m), int(n))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad parameters ({m}, {n}): {exc}") from None


def cache_root() -> Path:
    return Path(os.environ.get("DOOB_CACHE_DIR", "cache"))


def _cache_dir(params: DoobParams) -> Path:
    return cache_root() / f"d{params.m}_{params.n}"


def _emit(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _note(message: str):
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _manifest_obj(params: DoobParams, count: int) -> dict:
    provenance = "published" if (params.m, params.n) in PUBLISHED_COUNTS else "derived"
    return {
        "command": "enumerate",
        "count": count,
        "count_provenance": provenance,
        "params": [params.m, params.n],
        "tool_version": __version__,
    }


def _cached_count(directory: Path, params: DoobParams):
    """Count from a valid cache directory, or None to recompute."""
    manifest_path = directory / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    count = manifest.get("count")
    if (
        manifest.get("tool_version") != __version__
        or manifest.get("params") != [params.m, params.n]
        or not isinstance(count, int)
    ):
        return None
    if len(list(directory.glob("code_*.code"))) != count:
        return None
    return count


def _write_code_dir(directory: Path, params: DoobParams, codes):
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("code_*.code"):
        stale.unlink()
    width = max(1, len(str(len(codes) - 1)))
    for i, code in enumerate(codes):
        (directory / f"code_{i:0{width}d}.code").write_text(dump_code(code))
    (directory / "manifest.json").write_text(
        canonical_json(_manifest_obj(params, len(codes)))
    )


def cmd_enumerate(args) -> int:
    params = _parse_params(args.m, args.n)
    started = time.monotonic()
    if args.count_only:
        count = count_mds(params)
        _check_against_known(params, count)
        print(count)
        _note(f"counted {params} in {time.monotonic() - started:.2f}s")
        return EXIT_OK
    directory = Path(args.out) if args.out else _cache_dir(params)
    if args.out is None and not args.no_cache:
        cached = _cached_count(directory, params)
        if cached is not None:
            _check_against_known(params, cached)
            print(cached)
            _note(f"reused cache {directory}")
            return EXIT_OK
    result = enumerate_mds(params, jobs=args.jobs)
    _check_against_known(params, result.count)
    _write_code_dir(directory, params, result.codes)
    print(result.count)
    _note(
        f"enumerated {params}: {result.count} codes "
        f"in {time.monotonic() - started:.2f}s -> {directory}"
    )
    return EXIT_OK


def _check_against_known(params: DoobParams, count: int):
    known = PUBLISHED_COUNTS.get((params.m, params.n))
    if known is not None and count != known:
        raise ConsistencyError(
            f"enumeration found {count} codes for {params}, expected {known}"
        )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _certificate(code) -> tuple[str, bool]:
    expected = code.params.code_size
    if len(code.members) != expected:
        return f"wrong cardinality {len(code.members)} != {expected}", False
    graph = doob_graph(code.params)
    for v in code.members:
        hit = graph.neighbor_masks[v] & code.mask
        if hit:
            w = (hit & -hit).bit_length() - 1
            return f"not independent: ({v},{w})", False
    return f"MDS ok, |M|={expected}", True


def cmd_verify(args) -> int:
    all_ok = True
    parse_failed = False
    for path in args.files:
        try:
            code = read_code(path)
        except (FormatError, OSError) as exc:
            print(f"{path}: parse error: {exc}")
            parse_failed = True
            continue
        line, ok = _certificate(code)
        print(f"{path}: {line}")
        all_ok = all_ok and ok
    if parse_failed:
        return EXIT_PARSE
    return EXIT_OK if all_ok else EXIT_FAILED_CHECK


# ---------------------------------------------------------------------------
# xi / kappa / lambda
# ---------------------------------------------------------------------------


def cmd_xi(args) -> int:
    table = derive_pairing()
    violations = pairing_violations(table)
    if violations:
        raise ConsistencyError(
            f"derived table violates the intersection property at {violations[:3]}"
        )
    payload = [
        {"sh_code": code_to_obj(dom), "image_code": code_to_obj(img)}
        for dom, img in zip(table.domain, table.image)
    ]
    _emit(canonical_json(payload), args.out)
    return EXIT_OK


def _parse_order(text: str, m: int):
    try:
        order = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise FormatError(f"bad coordinate order {text!r}") from None
    if sorted(order) != list(range(m)):
        raise FormatError(
            f"order {text!r} is not a permutation of the {m} Shrikhande coordinates"
        )
    return order


def cmd_kappa(args) -> int:
    code = read_code(args.input)
    order = _parse_order(args.order, code.params.m) if args.order else None
    result = reduce_sh_coordinates(code, order=order)
    result.assert_mds(context="reduction output")
    _emit(dump_code(result), args.out)
    _note(f"reduced {code.params} -> {result.params}")
    return EXIT_OK


def cmd_lambda(args) -> int:
    if args.inline and args.rule_file:
        raise FormatError("give either a rule file or --inline, not both")
    if args.inline:
        m, n, hex_text = args.inline
        rule = rule_from_hex(_parse_params(m, n), hex_text)
    elif args.rule_file:
        rule = read_rule(args.rule_file)
    else:
        raise FormatError("a rule file or --inline M N HEX is required")
    code = build_parity_code(rule)
    code.assert_mds(context="parity construction")
    _emit(dump_code(code), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds / classify
# ---------------------------------------------------------------------------


def _format_bounds(report) -> str:
    if report.lower_exact is not None:
        lower = str(report.lower_exact)
    else:
        lower = f"2^2^{report.lower_log2_log2}"
    word = report.params.word_length
    if report.upper_exact is not None:
        upper = f"{report.upper_exact} (=|MDS(0,{word})|)"
    else:
        upper = f"|MDS(0,{word})| (not computed at desk scale)"
    actual = str(report.actual) if report.actual is not None else "not computed"
    return f"lower {lower}, upper {upper}, actual {actual}"


def cmd_bounds(args) -> int:
    params = _parse_params(args.m, args.n)
    report = bounds_report(params)
    if (
        report.lower_exact is not None
        and report.actual is not None
        and report.upper_exact is not None
        and not (report.lower_exact <= report.actual <= report.upper_exact)
    ):
        raise ConsistencyError(
            f"bound sandwich violated at {params}: "
            f"{report.lower_exact} <= {report.actual} <= {report.upper_exact} fails"
        )
    print(_format_bounds(report))
    return EXIT_OK


def cmd_classify(args) -> int:
    directory = Path(args.directory)
    files = sorted(directory.glob("*.code"))
    if not files:
        raise FormatError(f"no .code files in {directory}")
    codes = [read_code(path) for path in files]
    params = codes[0].params
    for code, path in zip(codes, files):
        if code.params != params:
            raise ParameterMismatchError(
                f"{path} has parameters {code.params}, expected {params}"
            )
    group = doob_symmetries(params)
    partition = orbits_of_codes(codes, group)
    print("orbits: " + ", ".join(str(size) for size in partition.sizes))
    if args.out:
        keyed = sorted(
            (
                len(cls),
                min((codes[i] for i in cls), key=lambda c: c.members).members,
                cls,
            )
            for cls in partition.classes
        )
        payload = {
            "sizes": [size for size, _, _ in keyed],
            "representatives": [
                code_to_obj(next(c for c in codes if c.members == members))
                for _, members, _ in keyed
            ],
        }
        Path(args.out).write_text(canonical_json(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doobmds",
        description=(
            "Maximum independent sets (distance-2 MDS codes) in Doob graphs: "
            "exhaustive desk-scale enumeration, reduction of Shrikhande "
            "coordinates to K4 pairs, and the parity code family."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate all codes of D(m,n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--count-only", action="store_true", help="print the count, write nothing")
    p.add_argument("--out", help="write code files here instead of the cache")
    p.add_argument("--no-cache", action="store_true", help="ignore any cached result")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for materialized enumeration (default 1)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check code files for the maximum independent set property")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("xi", help="emit the Shrikhande-to-K4-pair code table")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser("kappa", help="reduce all Shrikhande coordinates of a code")
    p.add_argument("input", metavar="IN.code")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument(
        "--order",
        help="comma-separated consumption order of Shrikhande coordinates "
        "(default: last first); different orders can give different codes",
    )
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("lambda", help="build the parity code of a rule")
    p.add_argument("rule_file", nargs="?", metavar="RULE.json")
    p.add_argument(
        "--inline",
        nargs=3,
        metavar=("M", "N", "HEX"),
        help="rule given inline as parameters plus a hex bit table",
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("bounds", help="lower/upper bounds and the actual code count")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("classify", help="orbit sizes of a directory of code files")
    p.add_argument("directory", metavar="DIR")
    p.add_argument("--out", help="write the orbit report as JSON")
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except DeskScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConsistencyError, ParameterMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
