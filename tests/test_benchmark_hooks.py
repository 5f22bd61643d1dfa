"""The program names the benchmark under bench/ wraps, clears or calls.

bench/tracing.py times Code construction and verification by replacing
Code.__post_init__ and Code.assert_mds on the class, and wraps or counts a few
private functions; this pins each of them, and that every way a Code is built
runs __post_init__, so the traced construction time covers them all.
"""

import importlib
import pkgutil

import pytest

import doobmds
from doobmds import (
    Code,
    DoobParams,
    build_parity_code,
    dump_code,
    enumerate_mds,
    load_code,
    reduce_sh_coordinates,
    representative_rules,
)
from doobmds import codes, graphs, parity, reduction, search, symmetry


def test_wrapped_methods_are_defined_on_code():
    assert "__post_init__" in vars(Code)
    assert "assert_mds" in vars(Code)


def test_wrapped_and_cleared_functions_exist():
    for function in (search._member_tuples, search._compatibility, symmetry.apply_perm_to_code):
        assert callable(function)
    cached = [
        graphs.doob_graph,
        graphs.shrikhande,
        graphs.complete_graph,
        symmetry.doob_symmetries,
        reduction.derive_pairing,
        reduction.sh_codes,
        reduction.k4_pair_codes,
        parity.even_point_indices,
        parity._vertex_profile,
    ]
    for function in cached:
        assert callable(function.cache_clear), function


def test_no_cached_function_wraps_its_cache_clear():
    # clear_program_caches calls cache_clear on the program's lru caches; each
    # is the one functools provides, so a clear drops that cache and no
    # other state rides on it.
    checked = set()
    for info in pkgutil.iter_modules(doobmds.__path__):
        module = importlib.import_module(f"doobmds.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                assert "cache_clear" not in vars(value), f"{info.name}.{name}"
                checked.add(f"{info.name}.{name}")
    assert {"reduction.derive_pairing", "graphs._slots", "codes._fiber_layout"} <= checked


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one for every Code.__post_init__ call."""
    calls = []
    original = vars(Code)["__post_init__"]

    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(Code, "__post_init__", counting)
    return calls


def test_every_construction_path_runs_post_init(constructions):
    p = DoobParams(1, 0)
    Code(p, (0, 2, 8, 10))
    assert len(constructions) == 1
    Code.from_mask(p, 0b10100000101)
    assert len(constructions) == 2

    result = enumerate_mds(DoobParams(1, 1))
    code = result.codes[7]
    assert constructions[-result.count :] == list(result.codes)

    loaded = load_code(dump_code(code))  # the canonical fast path
    assert loaded == code and constructions[-1] is loaded

    rule = next(iter(representative_rules(DoobParams(2, 0))))
    built = build_parity_code(rule)
    assert constructions[-1] is built

    source = enumerate_mds(DoobParams(2, 0)).codes[3]
    reduction.derive_pairing()  # built and cached here, so its codes are counted before
    for order in (None, (0, 1)):
        before = len(constructions)
        reduced = reduce_sh_coordinates(source, order=order)
        assert len(constructions) == before + 1 and constructions[-1] is reduced


def test_cli_calls_patched_functions_through_their_modules(monkeypatch, tmp_path):
    """bench/tracing.py patches module attributes once doobmds.cli is imported;
    the CLI imports each function when it runs, so the patched one is called."""
    from doobmds import cli

    calls = {}
    for module, name in ((search, "count_mds"), (codes, "read_code"), (symmetry, "orbits_of_codes")):

        def counting(*args, _original=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    assert cli.main(["enumerate", "1", "1", "--count-only"]) == 0
    for i, code in enumerate(enumerate_mds(DoobParams(0, 2)).codes):
        (tmp_path / f"code_{i:02d}.code").write_text(dump_code(code))
    assert cli.main(["classify", str(tmp_path)]) == 0
    assert calls == {"count_mds": 1, "read_code": 24, "orbits_of_codes": 1}
