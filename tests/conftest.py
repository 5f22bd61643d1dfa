import pytest

from doobmds import DoobParams, doob_graph, enumerate_mds, shrikhande


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    # Keep CLI cache writes out of the working tree.
    monkeypatch.setenv("DOOB_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture(scope="session")
def sh_graph():
    return shrikhande()


@pytest.fixture(scope="session")
def rook_graph():
    return doob_graph(DoobParams(0, 2))


@pytest.fixture(scope="session")
def codes_by_params():
    """Enumerations for every parameter set the suite reuses (each code is
    checked against its graph by test_every_enumerated_code_is_verified)."""
    out = {}
    for m, n in [(0, 1), (1, 0), (0, 2), (1, 1), (0, 3), (2, 0)]:
        out[(m, n)] = enumerate_mds(DoobParams(m, n)).codes
    return out
