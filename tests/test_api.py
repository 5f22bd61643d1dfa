import pytest

import doobmds

PUBLIC_NAMES = {
    "__version__",
    "AutomorphismGroup",
    "BoundsReport",
    "Code",
    "ConsistencyError",
    "DESK_SCALE_LIMIT",
    "DeskScaleError",
    "DoobError",
    "DoobParams",
    "EnumerationResult",
    "FormatError",
    "OrbitPartition",
    "PairingTable",
    "ParameterMismatchError",
    "ParityRule",
    "apply_perm_to_code",
    "bounds_report",
    "build_parity_code",
    "canonical_json",
    "check_desk_scale",
    "code_from_obj",
    "code_to_obj",
    "complete_graph",
    "count_mds",
    "derive_pairing",
    "doob_graph",
    "doob_symmetries",
    "dump_code",
    "enumerate_mds",
    "k4_pair_codes",
    "load_code",
    "orbits_of_codes",
    "read_code",
    "reduce_sh_coordinates",
    "representative_rules",
    "sh_codes",
    "shrikhande",
    "write_code",
}


def test_public_api_is_pinned():
    assert len(doobmds.__all__) == len(PUBLIC_NAMES) == 38
    assert set(doobmds.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(doobmds, name), name


def test_names_resolve_lazily_to_their_modules():
    from doobmds import codes, graphs, search

    assert doobmds.Code is codes.Code
    assert doobmds.DoobParams is graphs.DoobParams
    assert doobmds.count_mds is search.count_mds
    with pytest.raises(AttributeError, match="no_such_name"):
        doobmds.no_such_name
    assert PUBLIC_NAMES <= set(dir(doobmds))
    namespace = {}
    exec("from doobmds import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert all(namespace[name] is getattr(doobmds, name) for name in PUBLIC_NAMES)
