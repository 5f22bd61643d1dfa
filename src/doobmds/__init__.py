"""Maximum independent sets (distance-2 MDS codes) in Doob graphs.

Doob graphs are Cartesian products of Shrikhande graphs and K4 factors.  This
package enumerates their maximum independent sets exhaustively at desk scale,
reduces Shrikhande coordinates to pairs of K4 coordinates via an
intersection-preserving code table, builds the doubly-exponential parity
family, and classifies code lists into symmetry orbits.
"""

__version__ = "0.1.0"

from .codes import (
    Code,
    canonical_json,
    code_from_obj,
    code_to_obj,
    dump_code,
    load_code,
    read_code,
    write_code,
)
from .errors import (
    ConsistencyError,
    DeskScaleError,
    DoobError,
    FormatError,
    ParameterMismatchError,
)
from .graphs import (
    DESK_SCALE_LIMIT,
    DoobParams,
    DoobVertex,
    Graph,
    check_desk_scale,
    complete_graph,
    decode_vertex,
    doob_graph,
    encode_vertex,
    graph_from_predicate,
    shrikhande,
)
from .parity import (
    BoundsReport,
    EssentialClassCount,
    ParityRule,
    bounds_report,
    build_parity_code,
    count_essential_classes,
    representative_rules,
)
from .reduction import (
    PairingTable,
    derive_pairing,
    k4_pair_codes,
    permute_sh_coordinates,
    reduce_last_sh_coordinate,
    reduce_sh_coordinates,
    sh_codes,
)
from .search import EnumerationResult, count_mds, enumerate_mds
from .symmetry import (
    AutomorphismGroup,
    OrbitPartition,
    apply_perm_to_code,
    doob_symmetries,
    orbits_of_codes,
)

__all__ = [
    "__version__",
    "AutomorphismGroup",
    "BoundsReport",
    "Code",
    "ConsistencyError",
    "DESK_SCALE_LIMIT",
    "DeskScaleError",
    "DoobError",
    "DoobParams",
    "DoobVertex",
    "EnumerationResult",
    "EssentialClassCount",
    "FormatError",
    "Graph",
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
    "count_essential_classes",
    "count_mds",
    "decode_vertex",
    "derive_pairing",
    "doob_graph",
    "doob_symmetries",
    "dump_code",
    "encode_vertex",
    "enumerate_mds",
    "graph_from_predicate",
    "k4_pair_codes",
    "load_code",
    "orbits_of_codes",
    "permute_sh_coordinates",
    "read_code",
    "reduce_last_sh_coordinate",
    "reduce_sh_coordinates",
    "representative_rules",
    "sh_codes",
    "shrikhande",
    "write_code",
]
