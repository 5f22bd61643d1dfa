import filecmp
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import doobmds
from doobmds import (
    Code,
    DoobParams,
    canonical_json,
    code_to_obj,
    doob_symmetries,
    dump_code,
    enumerate_mds,
    load_code,
    orbits_of_codes,
    read_code,
)
from doobmds import codes as codes_module
from doobmds import cli
from doobmds.cli import cache_root, main


def run(capsys, *argv):
    exit_code = main(list(argv))
    captured = capsys.readouterr()
    return exit_code, captured.out, captured.err


def write_code_file(path, m, n, members):
    path.write_text(dump_code(Code(DoobParams(m, n), tuple(members))))
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_enumerate_count_only(capsys):
    code, out, err = run(capsys, "enumerate", "0", "2", "--count-only")
    assert (code, out) == (0, "24\n")
    assert "counted" in err
    assert cache_root().exists() is False  # nothing written


def test_enumerate_writes_files_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "d02"
    code, out, _ = run(capsys, "enumerate", "0", "2", "--out", str(out_dir))
    assert (code, out) == (0, "24\n")
    files = sorted(out_dir.glob("code_*.code"))
    assert len(files) == 24
    assert files[0].name == "code_00.code" and files[-1].name == "code_23.code"
    for path in files:
        read_code(path).assert_mds()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["count"] == 24
    assert manifest["count_provenance"] == "published"
    assert manifest["params"] == [0, 2]
    assert manifest["command"] == "enumerate"


def test_enumerate_hamming_counts_are_published(tmp_path, capsys):
    # |MDS(0,3)| = 576 is the number of latin squares of order 4.
    out_dir = tmp_path / "d03"
    code, out, _ = run(capsys, "enumerate", "0", "3", "--out", str(out_dir))
    assert (code, out) == (0, "576\n")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["count_provenance"] == "published"


def test_enumerate_derived_provenance(tmp_path, capsys):
    out_dir = tmp_path / "d11"
    code, out, _ = run(capsys, "enumerate", "1", "1", "--out", str(out_dir))
    assert (code, out) == (0, "240\n")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["count_provenance"] == "derived"
    assert len(list(out_dir.glob("code_*.code"))) == 240


def test_enumerate_cache_reuse(capsys):
    code, out, err = run(capsys, "enumerate", "0", "2")
    assert (code, out) == (0, "24\n")
    assert "enumerated" in err
    code, out, err = run(capsys, "enumerate", "0", "2")
    assert (code, out) == (0, "24\n")
    assert "reused cache" in err
    code, out, err = run(capsys, "enumerate", "0", "2", "--no-cache")
    assert (code, out) == (0, "24\n")
    assert "enumerated" in err


@pytest.mark.parametrize(
    "manifest",
    [b"{broken", b"[]", b'"x"', b"\xff\xfe{}", b"[" * 3000 + b"]" * 3000],
    ids=["bad-json", "list", "string", "not-utf8", "too-deep"],
)
def test_enumerate_corrupt_cache_recomputes(capsys, manifest):
    run(capsys, "enumerate", "0", "2")
    manifest_path = cache_root() / "d0_2" / "manifest.json"
    manifest_path.write_bytes(manifest)
    code, out, err = run(capsys, "enumerate", "0", "2")
    assert (code, out) == (0, "24\n")
    assert "enumerated" in err
    assert json.loads(manifest_path.read_text())["count"] == 24


def test_failed_cache_write_leaves_no_directory_half_written(capsys, monkeypatch):
    run(capsys, "enumerate", "0", "2")
    directory = cache_root() / "d0_2"
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    original = codes_module.write_code
    written = []

    def failing(code, path):  # the fifth file and every one after it fail
        if len(written) == 4:
            raise OSError("disk full")
        written.append(path)
        original(code, path)

    monkeypatch.setattr(codes_module, "write_code", failing)
    code, out, err = run(capsys, "enumerate", "0", "2", "--no-cache")
    assert (code, out, err) == (3, "", "error: disk full\n")
    assert len(written) == 4
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before
    code, _, _ = run(capsys, "enumerate", "1", "0")  # no cache to keep: none is made
    assert code == 3
    assert [path.name for path in cache_root().iterdir()] == ["d0_2"]
    code, out, err = run(capsys, "enumerate", "0", "2")
    assert (code, out) == (0, "24\n") and "reused cache" in err


def test_enumerate_out_into_an_existing_directory_keeps_its_other_files(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept")
    (out_dir / "code_99.code").write_text("stale")
    code, out, _ = run(capsys, "enumerate", "0", "2", "--out", str(out_dir))
    assert (code, out) == (0, "24\n")
    assert (out_dir / "notes.txt").read_text() == "kept"
    assert len(list(out_dir.glob("code_*.code"))) == 24
    assert not (out_dir / "code_99.code").exists()


def test_enumerate_stale_file_count_recomputes(capsys):
    run(capsys, "enumerate", "0", "2")
    victim = cache_root() / "d0_2" / "code_00.code"
    victim.unlink()
    code, out, err = run(capsys, "enumerate", "0", "2")
    assert (code, out) == (0, "24\n")
    assert "enumerated" in err
    assert len(list((cache_root() / "d0_2").glob("code_*.code"))) == 24


@pytest.mark.parametrize("claimed, kept", [(True, 1), (5, 5)], ids=["true", "as-many-files"])
def test_enumerate_cache_count_is_checked_against_the_search(capsys, claimed, kept):
    # A manifest count is a hit only if it is an int equal to the true count:
    # not true with one file left, nor any N with N files left.
    run(capsys, "enumerate", "1", "1")
    directory = cache_root() / "d1_1"
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for path in sorted(directory.glob("code_*.code"))[kept:]:
        path.unlink()
    manifest_path.write_text(canonical_json({**manifest, "count": claimed}))
    code, out, err = run(capsys, "enumerate", "1", "1")
    assert (code, out) == (0, "240\n")
    assert "enumerated" in err
    assert json.loads(manifest_path.read_text()) == manifest
    assert len(list(directory.glob("code_*.code"))) == 240
    code, out, err = run(capsys, "enumerate", "1", "1")
    assert (code, out) == (0, "240\n")
    assert "reused cache" in err


def test_enumerate_manifest_holds_the_digest_of_the_code_files(capsys):
    import hashlib

    run(capsys, "enumerate", "1", "1")
    directory = cache_root() / "d1_1"
    manifest = json.loads((directory / "manifest.json").read_text())
    joined = b"".join(path.read_bytes() for path in sorted(directory.glob("code_*.code")))
    assert manifest["codes_sha256"] == hashlib.sha256(joined).hexdigest()


@pytest.mark.parametrize("damage", ["duplicate", "no-digest"])
def test_enumerate_cache_with_changed_files_or_no_digest_recomputes(capsys, damage):
    # A file copied over another leaves the count and the file count right;
    # reused, the cache would hold a duplicate code that classify refuses.
    run(capsys, "enumerate", "1", "1")
    directory = cache_root() / "d1_1"
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if damage == "duplicate":
        (directory / "code_000.code").write_bytes((directory / "code_001.code").read_bytes())
    else:
        del manifest["codes_sha256"]
        manifest_path.write_text(canonical_json(manifest))
    code, out, err = run(capsys, "enumerate", "1", "1")
    assert (code, out) == (0, "240\n")
    assert "enumerated" in err and "reused cache" not in err
    code, out, _ = run(capsys, "classify", str(directory))
    assert (code, out) == (0, "orbits: 24, 72, 144\n")
    code, out, err = run(capsys, "enumerate", "1", "1")
    assert (code, out) == (0, "240\n") and "reused cache" in err


def test_enumerate_guard_and_bad_input(capsys):
    code, _, err = run(capsys, "enumerate", "0", "7", "--count-only")
    assert code == 2 and err.startswith("error:")
    # 4^7144 has over 4300 digits, past Python's int-to-text limit; the guard
    # goes by word length and never forms it.
    code, out, err = run(capsys, "enumerate", "3572", "0", "--count-only")
    assert (code, out) == (2, "")
    assert err == "error: D(3572,0) has 4^7144 vertices, over the desk-scale limit 4096\n"
    code, _, err = run(capsys, "enumerate", "0", "0", "--count-only")
    assert code == 3
    code, _, err = run(capsys, "enumerate", "0", "2", "--jobs", "0")
    assert code == 3 and "--jobs" in err


def test_enumerate_refuses_a_split_past_word_length_4(capsys):
    # D(0,6) has 4096 vertices, within the vertex guard; its rest D(0,5) has
    # 36972288 codes, so the split guard refuses it before listing any.
    started = time.monotonic()
    code, out, err = run(capsys, "enumerate", "0", "6", "--count-only")
    assert time.monotonic() - started < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: D(0,6) splits off D(0,5)")


def test_enumerate_refuses_to_list_codes_past_word_length_4(tmp_path, capsys):
    # D(2,1) passes both the vertex and the split guard, but has 3707136 codes
    # of 1024 bits: refused before the search, and before any directory is made.
    out_dir = tmp_path / "big"
    started = time.monotonic()
    code, out, err = run(capsys, "enumerate", "2", "1", "--out", str(out_dir))
    assert time.monotonic() - started < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: the codes of D(2,1) are too many to list")
    assert not out_dir.exists()


def test_enumerate_reads_no_cache_past_word_length_4(capsys, monkeypatch):
    # A cache is only ever written up to word length 4.  A forged D(3,0)
    # manifest that matches its (absent) code files must not get as far as
    # the hour-long count that checks a cached count.
    import hashlib

    from doobmds import search

    def refuse(params):
        raise AssertionError(f"{params} was counted")

    monkeypatch.setattr(search, "count_mds", refuse)
    directory = cache_root() / "d3_0"
    directory.mkdir(parents=True)
    manifest = {
        "count": 0,
        "codes_sha256": hashlib.sha256(b"").hexdigest(),
        "params": [3, 0],
        "tool_version": doobmds.__version__,
    }
    (directory / "manifest.json").write_text(canonical_json(manifest))
    code, out, err = run(capsys, "enumerate", "3", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: the codes of D(3,0) are too many to list")


def test_jobs_give_byte_identical_output(tmp_path, capsys):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert run(capsys, "enumerate", "1", "1", "--out", str(serial))[0] == 0
    assert run(capsys, "enumerate", "1", "1", "--out", str(parallel), "--jobs", "4")[0] == 0
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(serial, parallel, names, shallow=False)
    assert (sorted(match), mismatch, errors) == (names, [], [])


def test_verify_good_files(tmp_path, capsys):
    good = write_code_file(tmp_path / "good.code", 0, 2, (0, 5, 10, 15))
    code, out, _ = run(capsys, "verify", good)
    assert code == 0
    assert out == f"{good}: MDS ok, |M|=4\n"


def test_verify_flags_violations(tmp_path, capsys):
    good = write_code_file(tmp_path / "good.code", 0, 2, (0, 5, 10, 15))
    clash = write_code_file(tmp_path / "clash.code", 0, 2, (0, 1, 10, 15))
    short = write_code_file(tmp_path / "short.code", 0, 2, (0, 5))
    code, out, _ = run(capsys, "verify", good, clash, short)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].endswith("MDS ok, |M|=4")
    assert lines[1].endswith("not independent: (0,1)")
    assert lines[2].endswith("wrong cardinality 2 != 4")


def test_verify_output_on_codes_with_one_clash(tmp_path, capsys):
    """The D(1,2) parity code of rule c3a5 with member [[0,0],0,1] moved
    along its K4 line, and with it and [[0,0],1,0] trading last K4 values,
    which meets every K4 line once and has a Shrikhande edge.  CI pins the
    same output."""
    good = tmp_path / "l.code"
    assert run(capsys, "lambda", "--inline", "1", "2", "c3a5", "--out", str(good))[0] == 0
    text = good.read_text()
    k4_line = tmp_path / "k4-line.code"
    k4_line.write_text(text.replace("[[0,0],0,1]", "[[0,0],0,0]", 1))
    sh_edge = tmp_path / "sh-edge.code"
    sh_edge.write_text(text.replace("[[0,0],0,1],[[0,0],1,0]", "[[0,0],0,0],[[0,0],1,1]", 1))
    code, out, _ = run(capsys, "verify", str(good), str(k4_line), str(sh_edge))
    assert code == 1
    assert out == (
        f"{good}: MDS ok, |M|=64\n"
        f"{k4_line}: not independent: (0,4)\n"
        f"{sh_edge}: not independent: (0,16)\n"
    )


def test_verify_parse_problems(tmp_path, capsys):
    garbage = tmp_path / "garbage.code"
    garbage.write_text("not json")
    good = write_code_file(tmp_path / "good.code", 0, 2, (0, 5, 10, 15))
    code, out, _ = run(capsys, "verify", str(garbage), good)
    assert code == 3
    assert "parse error" in out.splitlines()[0]
    code, out, _ = run(capsys, "verify", str(tmp_path / "absent.code"))
    assert code == 3


def test_verify_names_the_file_it_cannot_read(tmp_path, capsys):
    """A missing file, a directory and bytes that are not UTF-8: one line
    each, as open() would have named them, and exit 3."""
    missing = str(tmp_path / "missing.code")
    directory = tmp_path / "x.code"
    directory.mkdir()
    not_utf8 = tmp_path / "bad.code"
    not_utf8.write_bytes(b'{"m":0,"members":[[0\xff]],"n":1}\n')
    code, out, _ = run(capsys, "verify", missing, str(directory), str(not_utf8))
    assert code == 3
    assert out == (
        f"{missing}: parse error: [Errno 2] No such file or directory: '{missing}'\n"
        f"{directory}: parse error: [Errno 21] Is a directory: '{directory}'\n"
        f"{not_utf8}: parse error: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
        "in position 20: invalid start byte\n"
    )


def test_files_past_desk_scale_or_the_digit_limit_are_parse_errors(tmp_path, capsys):
    huge_m = tmp_path / "huge_m.code"
    huge_m.write_text('{"m":100000,"members":[],"n":0}\n')
    digits = tmp_path / "digits.code"
    digits.write_text('{"m":' + "1" * 5000 + ',"members":[],"n":0}\n')
    code, out, _ = run(capsys, "verify", str(huge_m), str(digits))
    assert code == 3
    lines = out.splitlines()
    assert lines[0].endswith(
        "parse error: parameters m = 100000, n = 0 have word length 2m + n over 6"
    )
    assert "parse error: invalid JSON: Exceeds the limit (4300 digits)" in lines[1]
    rule = tmp_path / "rule.json"
    rule.write_text('{"bits":"0","m":' + "1" * 5000 + ',"n":0}\n')
    code, out, err = run(capsys, "lambda", str(rule))
    assert (code, out) == (3, "")
    assert err.startswith("error: invalid JSON: Exceeds the limit (4300 digits)")
    rule.write_text('{"bits":"0","m":100000,"n":0}\n')
    code, _, err = run(capsys, "lambda", str(rule))
    assert code == 3 and "word length 2m + n over 6" in err


DEEP = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_json_is_a_parse_error_in_verify(tmp_path, capsys):
    deep = tmp_path / "deep.code"
    deep.write_text(DEEP)
    good = write_code_file(tmp_path / "good.code", 0, 2, (0, 5, 10, 15))
    code, out, _ = run(capsys, "verify", str(deep), good)
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith(f"{deep}: parse error: invalid JSON: maximum recursion depth")
    assert lines[1] == f"{good}: MDS ok, |M|=4"


def test_deeply_nested_json_is_a_parse_error_in_kappa(tmp_path, capsys):
    deep = tmp_path / "deep.code"
    deep.write_text(DEEP)
    code, out, err = run(capsys, "kappa", str(deep))
    assert (code, out) == (3, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth")


def test_deeply_nested_json_is_a_parse_error_in_lambda(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    code, out, err = run(capsys, "lambda", str(deep))
    assert (code, out) == (3, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth")


def test_files_that_are_not_utf8_are_parse_errors(tmp_path, capsys):
    bad_code = tmp_path / "bad.code"
    bad_code.write_bytes(b'{"m":0,"members":[[0],[1]],"n":1}\xff\n')
    code, out, _ = run(capsys, "verify", str(bad_code))
    assert code == 3
    assert out.startswith(f"{bad_code}: parse error: not UTF-8 text")
    code, out, err = run(capsys, "kappa", str(bad_code))
    assert (code, out) == (3, "")
    assert err.startswith("error: not UTF-8 text")
    code, out, err = run(capsys, "classify", str(tmp_path))
    assert (code, out) == (3, "")
    assert err.startswith("error: not UTF-8 text")
    rule = tmp_path / "rule.json"
    rule.write_bytes(b'{"bits":"0000","m":1,"n":0}\n\xc3')
    code, out, err = run(capsys, "lambda", str(rule))
    assert (code, out) == (3, "")
    assert err.startswith("error: not UTF-8 text")


def test_xi_table(tmp_path, capsys):
    code, out, _ = run(capsys, "xi")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 16
    for entry in payload:
        domain = entry["sh_code"]
        image = entry["image_code"]
        assert (domain["m"], domain["n"]) == (1, 0)
        assert (image["m"], image["n"]) == (0, 2)
        assert len(image["members"]) == 4
    out_path = tmp_path / "table.json"
    assert run(capsys, "xi", "--out", str(out_path))[0] == 0
    assert out_path.read_text() == out


def test_kappa(tmp_path, capsys):
    source = write_code_file(tmp_path / "sh.code", 1, 0, (0, 2, 8, 10))
    code, out, err = run(capsys, "kappa", source)
    assert code == 0
    result = load_code(out)
    assert result.params == DoobParams(0, 2)
    result.assert_mds()
    assert "reduced D(1,0) -> D(0,2)" in err
    out_path = tmp_path / "reduced.code"
    assert run(capsys, "kappa", source, "--out", str(out_path))[0] == 0
    assert out_path.read_text() == out
    assert run(capsys, "kappa", source, "--order", "0")[1] == out


def test_kappa_without_sh_coordinates_is_identity(tmp_path, capsys):
    source = tmp_path / "k4.code"
    text = dump_code(Code(DoobParams(0, 2), (0, 5, 10, 15)))
    source.write_text(text)
    code, out, _ = run(capsys, "kappa", str(source))
    assert (code, out) == (0, text)


def test_kappa_errors(tmp_path, capsys):
    source = write_code_file(tmp_path / "sh.code", 1, 0, (0, 2, 8, 10))
    code, _, err = run(capsys, "kappa", source, "--order", "1,0")
    assert code == 3 and "permutation" in err
    code, _, err = run(capsys, "kappa", source, "--order", "x")
    assert code == 3
    bad = write_code_file(tmp_path / "bad.code", 1, 0, (0, 1, 2, 3))
    code, _, err = run(capsys, "kappa", bad)
    assert code == 4 and "error:" in err
    code, _, _ = run(capsys, "kappa", str(tmp_path / "absent.code"))
    assert code == 3


@pytest.mark.parametrize(
    "order",
    [
        *("+1,0", " 1,0", "1,0 ", "0_1,0", "\u0661,\u0660", "1,-0", "1,,0"),
        pytest.param("1" * 5000, id="5000-digits"),
    ],
)
def test_kappa_order_is_ascii_decimal_digits(tmp_path, capsys, order):
    # int() takes a sign, surrounding whitespace, "_" between digits and
    # Arabic-Indic digits, so the first six of these read as 1,0 and gave
    # its output.  A coordinate of 5000 digits is past int()'s conversion
    # limit, whose ValueError used to escape as a traceback.
    source = str(tmp_path / "l20.code")
    assert run(capsys, "lambda", "--inline", "2", "0", "c3a5", "--out", source)[0] == 0
    assert run(capsys, "kappa", source, "--order", "1,0")[0] == 0
    code, out, err = run(capsys, "kappa", source, "--order", order)
    assert (code, out, err) == (3, "", f"error: bad coordinate order {order!r}\n")


def test_lambda_from_file_and_inline(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    rule_path.write_text('{"bits":"0000","m":1,"n":0}\n')
    code, out, _ = run(capsys, "lambda", str(rule_path))
    assert code == 0
    built = load_code(out)
    assert built.members == (0, 2, 8, 10)
    code, inline_out, _ = run(capsys, "lambda", "--inline", "1", "0", "0")
    assert (code, inline_out) == (0, out)
    out_path = tmp_path / "code.code"
    assert run(capsys, "lambda", str(rule_path), "--out", str(out_path))[0] == 0
    assert out_path.read_text() == out


def test_lambda_input_errors(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    rule_path.write_text('{"bits":"0000","m":1,"n":0}\n')
    assert run(capsys, "lambda")[0] == 3
    assert run(capsys, "lambda", str(rule_path), "--inline", "1", "0", "0")[0] == 3
    assert run(capsys, "lambda", "--inline", "1", "0", "zz")[0] == 3
    assert run(capsys, "lambda", "--inline", "1", "0", "100")[0] == 3
    # int(text, 16) takes all of these; the inline rule is hex digits only.
    for text in ("c_3a5", "0xc3a5", " c3a5", "+c3a5", "-0", ""):
        code, out, err = run(capsys, "lambda", "--inline", "1", "2", text)
        assert (code, out, err) == (3, "", f"error: not a hex string: {text!r}\n")
    assert run(capsys, "lambda", str(tmp_path / "absent.json"))[0] == 3


def test_lambda_inline_guard(capsys):
    # D(20,0) has a rule table of 2^40 bits; it is refused before that is sized.
    for m in ("7", "20"):
        code, out, err = run(capsys, "lambda", "--inline", m, "0", "1")
        assert (code, out) == (2, "")
        assert err == f"error: D({m},0) has 4^{2 * int(m)} vertices, over the desk-scale limit 4096\n"


def test_bounds_lines(capsys):
    assert run(capsys, "bounds", "1", "0")[1] == (
        "lower 4, upper 24 (=|MDS(0,2)|), actual 16\n"
    )
    assert run(capsys, "bounds", "1", "1")[1] == (
        "lower 16, upper 576 (=|MDS(0,3)|), actual 240\n"
    )
    assert run(capsys, "bounds", "0", "1")[1] == (
        "lower 2, upper 4 (=|MDS(0,1)|), actual 4\n"
    )
    assert run(capsys, "bounds", "2", "0")[1] == (
        "lower 256, upper 55296 (=|MDS(0,4)|), actual 5856\n"
    )
    assert run(capsys, "bounds", "2", "1")[1] == (
        "lower 65536, upper 36972288 (=|MDS(0,5)|), actual 3707136\n"
    )
    assert run(capsys, "bounds", "1", "3")[1] == (
        "lower 65536, upper 36972288 (=|MDS(0,5)|), actual 11377152\n"
    )
    assert run(capsys, "bounds", "0", "5")[1] == (
        "lower 65536, upper 36972288 (=|MDS(0,5)|), actual 36972288\n"
    )
    assert run(capsys, "bounds", "3", "0")[1] == (
        "lower 4294967296, upper |MDS(0,6)| (not computed at desk scale), actual not computed\n"
    )
    assert run(capsys, "bounds", "3", "1")[1] == (
        "lower 2^2^6, upper |MDS(0,7)| (not computed at desk scale), actual not computed\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "+1", "\u0661", "--count-only"),
        ("enumerate", "x", "0"),
        ("enumerate", "-1", "1", "--count-only"),
        ("bounds", "1_0", "0"),
        ("bounds", " 1", "0"),
        ("bounds", "1", "0\n"),
        ("bounds", "", "1"),
        ("lambda", "--inline", " 1", "2", "c3a5"),
        ("lambda", "--inline", "1", "+2", "c3a5"),
    ],
)
def test_parameters_are_ascii_decimal_digits(capsys, argv):
    # int() takes a sign, surrounding whitespace, "_" between digits and
    # Arabic-Indic digits: "+1" "\u0661" counted D(1,1), "1_0" reported
    # D(10,0), and " 1" built a D(1,2) code.  A word that is not a number
    # was argparse's usage error (exit 2).
    m, n = argv[2:4] if argv[0] == "lambda" else argv[1:3]
    message = f"error: bad parameters ({m!r}, {n!r}): M and N must be ASCII decimal digits\n"
    assert run(capsys, *argv) == (3, "", message)


NINES = "9" * 4300  # int() takes it; 2m + n then has 4301 digits


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit here"
)
@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", NINES, "0"),
        ("enumerate", NINES, "0", "--count-only"),
        ("lambda", "--inline", NINES, "0", "1"),
    ],
    ids=["bounds", "enumerate", "lambda"],
)
def test_parameters_whose_word_length_is_past_the_digit_limit(capsys, argv):
    # The bounds line and the desk-scale message print 2m + n, which str()
    # refuses past 4300 digits: each command exited 1 with a ValueError
    # traceback.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: bad parameters ({NINES!r}, '0'): ")


def test_classify(tmp_path, capsys):
    out_dir = tmp_path / "d10"
    run(capsys, "enumerate", "1", "0", "--out", str(out_dir))
    report = tmp_path / "orbits.json"
    code, out, _ = run(capsys, "classify", str(out_dir), "--out", str(report))
    assert (code, out) == (0, "orbits: 4, 12\n")
    payload = json.loads(report.read_text())
    assert payload["sizes"] == [4, 12]
    assert len(payload["representatives"]) == 2
    for obj in payload["representatives"]:
        assert (obj["m"], obj["n"]) == (1, 0)
        assert len(obj["members"]) == 4


def test_classify_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(capsys, "classify", str(empty))[0] == 3
    assert run(capsys, "classify", str(tmp_path / "missing"))[0] == 3

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    write_code_file(mixed / "a.code", 1, 0, (0, 2, 8, 10))
    write_code_file(mixed / "b.code", 0, 2, (0, 5, 10, 15))
    assert run(capsys, "classify", str(mixed))[0] == 4

    partial = tmp_path / "partial"
    run(capsys, "enumerate", "1", "0", "--out", str(partial))
    # 5 codes can never be a union of the orbits, whose sizes are 4 and 12
    for extra in sorted(partial.glob("code_*.code"))[5:]:
        extra.unlink()
    assert run(capsys, "classify", str(partial))[0] == 4


def test_classify_reads_the_files_a_code_glob_matches(tmp_path, capsys):
    """Every name ending in .code, hidden ones too; nothing else."""
    directory = tmp_path / "d10"
    run(capsys, "enumerate", "1", "0", "--out", str(directory))
    # Without this file the list is not closed under the group (exit 4).
    (directory / "code_00.code").rename(directory / ".x.code")
    (directory / "X.CODE").write_text("not json")
    (directory / "x.code.bak").write_text("not json")
    assert run(capsys, "classify", str(directory))[:2] == (0, "orbits: 4, 12\n")
    (directory / "x.code").mkdir()
    code, _, err = run(capsys, "classify", str(directory) + "/")
    assert code == 3 and str(directory / "x.code") in err
    assert run(capsys, "classify", str(tmp_path / "missing"))[0] == 3


@pytest.mark.parametrize("m, n", [(1, 1), (2, 0), (1, 2)])
def test_classify_report_reads_the_members_of_its_representatives_only(m, n, monkeypatch):
    """Every code of D(m,n), in shuffled order, as classify lists files named
    in shuffled order: each class's representative, chosen by the masks'
    lexicographic key, is its code of least member tuple, and no other
    code's members are read.  (The report's bytes through the CLI are pinned
    on D(2,0) by the test below and on D(1,2) by CI.)"""
    params = DoobParams(m, n)
    listed = list(enumerate_mds(params).codes)
    random.Random(m + 4 * n).shuffle(listed)
    listed = [Code.from_mask(params, code.mask) for code in listed]  # no members kept
    partition = orbits_of_codes(listed, doob_symmetries(params))
    read = []
    members = Code.members.fget
    monkeypatch.setattr(Code, "members", property(lambda code: read.append(code) or members(code)))
    report = cli._orbit_report(listed, partition)
    monkeypatch.undo()

    keyed = sorted(
        (
            (len(cls), min((listed[i] for i in cls), key=lambda c: c.members))
            for cls in partition.classes
        ),
        key=lambda pair: (pair[0], pair[1].members),
    )
    assert report == {
        "sizes": [size for size, _ in keyed],
        "representatives": [code_to_obj(least) for _, least in keyed],
    }
    assert set(read) == {least for _, least in keyed}


def test_classify_report_keeps_the_least_member_representatives(
    codes_by_params, tmp_path, capsys
):
    """The report on orbits of D(2,0) is byte for byte the one a linear search
    for each class's least member tuple gives."""
    params = DoobParams(2, 0)
    group = doob_symmetries(params)
    # Whole orbits of up to 144 codes: four have 144, so ties in size are
    # broken by the least member tuple.
    codes = [
        codes_by_params[(2, 0)][i]
        for cls in orbits_of_codes(codes_by_params[(2, 0)], group).classes
        if len(cls) <= 144
        for i in cls
    ]
    labels = list(range(len(codes)))
    random.Random(5).shuffle(labels)
    directory = tmp_path / "d20"
    directory.mkdir()
    for code, label in zip(codes, labels):
        (directory / f"code_{label:03d}.code").write_text(dump_code(code))
    report = tmp_path / "orbits.json"
    code, out, _ = run(capsys, "classify", str(directory), "--out", str(report))
    assert (code, out) == (0, "orbits: 24, 72, 144, 144, 144, 144\n")

    listed = [read_code(path) for path in sorted(directory.glob("*.code"), key=str)]
    partition = orbits_of_codes(listed, group)
    keyed = sorted(
        (len(cls), min((listed[i] for i in cls), key=lambda c: c.members).members, cls)
        for cls in partition.classes
    )
    payload = {
        "sizes": [size for size, _, _ in keyed],
        "representatives": [
            code_to_obj(next(c for c in listed if c.members == members))
            for _, members, _ in keyed
        ],
    }
    assert report.read_text() == canonical_json(payload)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "0", "2", "--out", ""],
        ["xi", "--out", ""],
        ["kappa", "{code}", "--out", ""],
        ["kappa", "{code}", "--order", ""],
        ["lambda", "--inline", "1", "2", "c3a5", "--out", ""],
        ["classify", "{dir}", "--out", ""],
    ],
    ids=["enumerate", "xi", "kappa-out", "kappa-order", "lambda", "classify"],
)
def test_empty_out_or_order_is_refused(tmp_path, capsys, argv):
    # Each command tests these values for truth, so an empty one used to
    # fall back to the cache, stdout, no report or the default order.
    code_dir = tmp_path / "codes"
    code_dir.mkdir()
    code_path = code_dir / "l12.code"
    assert run(capsys, "lambda", "--inline", "1", "2", "c3a5", "--out", str(code_path))[0] == 0
    argv = [arg.format(code=code_path, dir=code_dir) for arg in argv]
    option = argv[-2]
    assert run(capsys, *argv) == (3, "", f"error: {option} must not be empty\n")
    assert not cache_root().exists()


def test_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate"])
    assert excinfo.value.code == 2


def imported_modules(argv, cwd):
    """A fresh `python -X importtime ARGV`: the process, and every module it imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(doobmds.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc, names


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    _, startup = imported_modules(["-c", "pass"], tmp_path)  # what site loads anyway

    def cli_imports(*args):
        proc, names = imported_modules(["-m", "doobmds.cli", *args], tmp_path)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, names - startup

    out, names = cli_imports("enumerate", "2", "1", "--count-only")
    assert out == "3707136\n"
    assert {"doobmds.graphs", "doobmds.search", "doobmds.symmetry"} <= names
    never = {"doobmds.codes", "doobmds.parity", "doobmds.reduction", "dataclasses", "inspect", "json"}
    assert not names & never

    directory = tmp_path / "d02"
    directory.mkdir()
    for i, code in enumerate(enumerate_mds(DoobParams(0, 2)).codes):
        (directory / f"code_{i:02d}.code").write_text(dump_code(code))
    out, names = cli_imports("classify", str(directory))
    assert out.startswith("orbits: ")
    assert "doobmds.codes" in names
    assert not names & {"doobmds.parity", "doobmds.reduction", "doobmds.search"}

    out, names = cli_imports("--version")
    assert out == doobmds.__version__ + "\n"
    package = {name for name in names if name.split(".")[0] == "doobmds"}
    assert package <= {"doobmds", "doobmds.cli", "doobmds.errors", "doobmds.graphs"}


def test_kappa_xi_and_version_load_only_what_they_use(tmp_path):
    """kappa and xi build the pairing from the factors' rows, with no search
    and no automorphism group; --version needs only errors and graphs."""
    probe = (
        "import sys\n"
        "from doobmds import cli\n"
        "try:\n"
        "    cli.main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(name for name in sys.modules if name.startswith('doobmds.')))\n"
    )
    members = enumerate_mds(DoobParams(1, 1)).codes[5].members
    source = write_code_file(tmp_path / "d11.code", 1, 1, members)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def loaded(*argv):
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        return done.stdout.splitlines()[-1], done.stderr

    for argv in (
        ("kappa", source, "--out", str(tmp_path / "k.code")),
        ("xi", "--out", str(tmp_path / "xi.json")),
    ):
        names, err = loaded(*argv)
        assert "'doobmds.reduction'" in names, err
        assert "doobmds.search" not in names and "doobmds.symmetry" not in names, names
    names, err = loaded("--version")
    assert names == "['doobmds.cli', 'doobmds.errors', 'doobmds.graphs']", err
