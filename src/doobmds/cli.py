"""Command-line interface with bit-exact, cacheable outputs.

Subcommands: enumerate, verify, xi, kappa, lambda, bounds, classify.  All
emitted JSON is canonical (sorted keys, compact, trailing newline) and
contains nothing run-dependent, so repeated runs produce byte-identical
files; timing goes to stderr only.  `enumerate --jobs` must be at least 1
and changes nothing: enumeration and counting run in this process.  An
empty `--out` or `--order` is refused.  Exit codes: 0 success, 1 a checked
input code failed verification, 2 desk-scale guard or a usage error that
argparse reports (a missing argument, a bad `--jobs`, an unknown
subcommand), 3 input parse problem (M or N not in ASCII decimal digits
too), 4 internal consistency failure.

Each subcommand imports the modules it uses when it runs, so a run loads and
compiles only those: `enumerate --count-only` needs graphs, symmetry and
search, and never codes, parity or reduction.  A call-time import reads the
module attribute as it is then, so a wrapper patched onto it applies.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    ConsistencyError,
    DeskScaleError,
    FormatError,
    ParameterMismatchError,
)
from .graphs import DoobParams

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_GUARD = 2
EXIT_PARSE = 3
EXIT_INCONSISTENT = 4


def _parse_params(m: str, n: str) -> DoobParams:
    """M and N in ASCII decimal digits; int() would also take a sign,
    surrounding whitespace, "_" between digits and the digits of other
    scripts.  The word length 2m + n, which the commands print, must be
    within int()'s digit limit too."""
    try:
        if not all(text.isascii() and text.isdigit() for text in (m, n)):
            raise ValueError("M and N must be ASCII decimal digits")
        params = DoobParams(int(m), int(n))
        str(params.word_length)
        return params
    except ValueError as exc:  # not digits, past int()'s digit limit, or m + n = 0
        raise FormatError(f"bad parameters ({m!r}, {n!r}): {exc}") from None


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


def _manifest_obj(params: DoobParams, count: int, digest: str) -> dict:
    from .search import PUBLISHED_COUNTS

    provenance = "published" if (params.m, params.n) in PUBLISHED_COUNTS else "derived"
    return {
        "codes_sha256": digest,
        "command": "enumerate",
        "count": count,
        "count_provenance": provenance,
        "params": [params.m, params.n],
        "tool_version": __version__,
    }


def _codes_digest(paths) -> str:
    """SHA-256 of the files' bytes, read in the given order and concatenated:
    for a directory of code files, what `cat code_*.code | sha256sum` prints."""
    import hashlib

    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _cached_count(directory: Path, params: DoobParams):
    """Count from a valid cache directory, or None to recompute.

    The manifest's count is taken only if it is an int equal to count_mds,
    as many code files are there, and the manifest's digest of their bytes
    matches them: a cache is listed only up to word length 4, where counting
    takes milliseconds.
    """
    import json

    manifest_path = directory / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError, RecursionError):  # unreadable, not UTF-8, bad JSON, too deep
        return None
    if not isinstance(manifest, dict):
        return None
    count = manifest.get("count")
    files = sorted(directory.glob("code_*.code"))
    if (
        manifest.get("tool_version") != __version__
        or manifest.get("params") != [params.m, params.n]
        or type(count) is not int
        or len(files) != count
        or manifest.get("codes_sha256") != _codes_digest(files)
    ):
        return None
    from .search import count_mds

    return count if count == count_mds(params) else None


def _write_files(directory: Path, params: DoobParams, codes):
    from .codes import canonical_json, write_code

    width = max(1, len(str(len(codes) - 1)))
    paths = [directory / f"code_{i:0{width}d}.code" for i in range(len(codes))]
    for code, path in zip(codes, paths):
        write_code(code, path)
    (directory / "manifest.json").write_text(
        canonical_json(_manifest_obj(params, len(codes), _codes_digest(paths)))
    )


def _write_code_dir(directory: Path, params: DoobParams, codes, replace: bool):
    """Write the code files and manifest.json of codes to directory.

    They go to a new hidden sibling directory first, which is then renamed to
    directory, so a failed write leaves no half-written directory under that
    name.  With replace (the cache, which only this writes) a directory
    already there is replaced whole.  Without it (an --out directory) an
    existing directory keeps its other files, and its code files and
    manifest are rewritten in place.
    """
    if not replace and directory.exists():
        directory.mkdir(exist_ok=True)  # FileExistsError if it is not a directory
        for stale in directory.glob("code_*.code"):
            stale.unlink()
        _write_files(directory, params, codes)
        return
    import shutil

    # Named by this process's id, so any left by an earlier process are stale.
    staging = directory.with_name(f".{directory.name}.{os.getpid()}.new")
    retired = directory.with_name(f".{directory.name}.{os.getpid()}.old")
    try:
        for stale in (staging, retired):
            shutil.rmtree(stale, ignore_errors=True)
        staging.mkdir(parents=True)
        _write_files(staging, params, codes)
        if directory.exists():
            os.rename(directory, retired)
        os.rename(staging, directory)
    finally:
        for leftover in (staging, retired):
            shutil.rmtree(leftover, ignore_errors=True)


def cmd_enumerate(args) -> int:
    params = _parse_params(args.m, args.n)
    started = time.monotonic()
    if args.count_only:
        from .search import count_mds

        count = count_mds(params)
        _check_against_known(params, count)
        print(count)
        _note(f"counted {params} in {time.monotonic() - started:.2f}s")
        return EXIT_OK
    from .search import _LISTED_WORD_LENGTH, enumerate_mds

    directory = Path(args.out) if args.out else _cache_dir(params)
    # No cache is ever written past the listed word length; enumerate_mds
    # refuses there before a forged one could make _cached_count count.
    if args.out is None and not args.no_cache and params.word_length <= _LISTED_WORD_LENGTH:
        cached = _cached_count(directory, params)
        if cached is not None:
            _check_against_known(params, cached)
            print(cached)
            _note(f"reused cache {directory}")
            return EXIT_OK
    result = enumerate_mds(params)
    _check_against_known(params, result.count)
    _write_code_dir(directory, params, result.codes, replace=not args.out)
    print(result.count)
    _note(
        f"enumerated {params}: {result.count} codes "
        f"in {time.monotonic() - started:.2f}s -> {directory}"
    )
    return EXIT_OK


def _check_against_known(params: DoobParams, count: int):
    from .search import PUBLISHED_COUNTS

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
    if len(code) != expected:
        return f"wrong cardinality {len(code)} != {expected}", False
    pair = code.first_adjacent_pair()
    if pair is not None:
        return f"not independent: ({pair[0]},{pair[1]})", False
    return f"MDS ok, |M|={expected}", True


def cmd_verify(args) -> int:
    from .codes import read_code

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
    from .codes import canonical_json, code_to_obj
    from .reduction import derive_pairing

    table = derive_pairing()
    payload = [
        {"sh_code": code_to_obj(dom), "image_code": code_to_obj(img)}
        for dom, img in zip(table.domain, table.image)
    ]
    _emit(canonical_json(payload), args.out)
    return EXIT_OK


def _parse_order(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII decimal digits; int() would also take a sign,
    surrounding whitespace and the digits of other scripts, and refuses more
    digits than its conversion limit (4300 by default)."""
    parts = text.split(",")
    if all(part.isascii() and part.isdigit() for part in parts):
        try:
            return tuple(map(int, parts))
        except ValueError:  # past int()'s digit limit
            pass
    raise FormatError(f"bad coordinate order {text!r}")


def cmd_kappa(args) -> int:
    from .codes import dump_code, read_code
    from .reduction import reduce_sh_coordinates

    code = read_code(args.input)
    order = _parse_order(args.order) if args.order else None
    try:
        result = reduce_sh_coordinates(code, order=order)
    except ValueError as exc:  # the order is not a permutation
        raise FormatError(f"bad coordinate order {args.order!r}: {exc}") from None
    _emit(dump_code(result), args.out)
    _note(f"reduced {code.params} -> {result.params}")
    return EXIT_OK


def cmd_lambda(args) -> int:
    from .codes import dump_code
    from .parity import build_parity_code, read_rule, rule_from_hex

    if args.inline and args.rule_file:
        raise FormatError("give either a rule file or --inline, not both")
    if args.inline:
        m, n, hex_text = args.inline
        rule = rule_from_hex(_parse_params(m, n), hex_text)
    elif args.rule_file:
        rule = read_rule(args.rule_file)
    else:
        raise FormatError("a rule file or --inline M N HEX is required")
    _emit(dump_code(build_parity_code(rule)), args.out)
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
    from .parity import bounds_report

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


def _code_files(directory: Path) -> list[str]:
    """Paths of the names in directory ending in .code, hidden ones too, sorted
    by name: the set Path.glob("*.code") gives, and none if the directory
    cannot be listed."""
    try:
        names = [name for name in os.listdir(directory) if name.endswith(".code")]
    except OSError:
        return []
    names.sort()
    # The text str(directory / name) puts before name: "" for ".", as pathlib drops it.
    prefix = str(directory / "_")[:-1]
    return [prefix + name for name in names]


def cmd_classify(args) -> int:
    from .codes import canonical_json, code_to_obj, read_code
    from .symmetry import doob_symmetries, orbits_of_codes

    directory = Path(args.directory)
    files = _code_files(directory)
    if not files:
        raise FormatError(f"no .code files in {directory}")
    codes = [read_code(path) for path in files]
    params = codes[0].params
    for code, path in zip(codes, files):
        # Codes read by the fiber layout share one params object.
        if code.params is not params and code.params != params:
            raise ParameterMismatchError(
                f"{path} has parameters {code.params}, expected {params}"
            )
    group = doob_symmetries(params)
    partition = orbits_of_codes(codes, group)
    print("orbits: " + ", ".join(str(size) for size in partition.sizes))
    if args.out:
        # Each class by size, then by its least member tuple, which is also its
        # representative's; members are distinct, so the index never decides.
        keyed = []
        for cls in partition.classes:
            least = min(cls, key=lambda i: codes[i].members)
            keyed.append((len(cls), codes[least].members, least))
        keyed.sort()
        payload = {
            "sizes": [size for size, _, _ in keyed],
            "representatives": [code_to_obj(codes[i]) for _, _, i in keyed],
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
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("--count-only", action="store_true", help="print the count, write nothing")
    p.add_argument("--out", help="write code files here instead of the cache")
    p.add_argument("--no-cache", action="store_true", help="ignore any cached result")
    p.add_argument("--jobs", type=int, default=1, help="at least 1; no effect yet, the search runs in one process (default 1)")
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
    p.add_argument("m")
    p.add_argument("n")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("classify", help="orbit sizes of a directory of code files")
    p.add_argument("directory", metavar="DIR")
    p.add_argument("--out", help="write the orbit report as JSON")
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise FormatError("--jobs must be at least 1")
        for option in ("out", "order"):
            if getattr(args, option, None) == "":
                raise FormatError(f"--{option} must not be empty")
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
