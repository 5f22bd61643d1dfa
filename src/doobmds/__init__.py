"""Maximum independent sets (distance-2 MDS codes) in Doob graphs.

Doob graphs are Cartesian products of Shrikhande graphs and K4 factors.  This
package enumerates their maximum independent sets exhaustively at desk scale,
reduces Shrikhande coordinates to pairs of K4 coordinates via an
intersection-preserving code table, builds the doubly-exponential parity
family, and classifies code lists into symmetry orbits.
"""

__version__ = "0.1.0"

# Where each public name is defined.  A name is imported from its module on
# first access (PEP 562), so a CLI run loads only the modules its subcommand
# uses; the value is then kept in this module's globals.
_SOURCES = {
    "Code": "codes",
    "canonical_json": "codes",
    "code_from_obj": "codes",
    "code_to_obj": "codes",
    "dump_code": "codes",
    "load_code": "codes",
    "read_code": "codes",
    "write_code": "codes",
    "ConsistencyError": "errors",
    "DeskScaleError": "errors",
    "DoobError": "errors",
    "FormatError": "errors",
    "ParameterMismatchError": "errors",
    "DESK_SCALE_LIMIT": "graphs",
    "DoobParams": "graphs",
    "check_desk_scale": "graphs",
    "complete_graph": "graphs",
    "doob_graph": "graphs",
    "shrikhande": "graphs",
    "BoundsReport": "parity",
    "ParityRule": "parity",
    "bounds_report": "parity",
    "build_parity_code": "parity",
    "representative_rules": "parity",
    "PairingTable": "reduction",
    "derive_pairing": "reduction",
    "k4_pair_codes": "reduction",
    "reduce_sh_coordinates": "reduction",
    "sh_codes": "reduction",
    "EnumerationResult": "search",
    "count_mds": "search",
    "enumerate_mds": "search",
    "AutomorphismGroup": "symmetry",
    "OrbitPartition": "symmetry",
    "apply_perm_to_code": "symmetry",
    "doob_symmetries": "symmetry",
    "orbits_of_codes": "symmetry",
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
