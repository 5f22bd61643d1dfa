"""Vertex codes in Doob graphs: validation, intersections, and file round-trips.

A code is a subset of the vertices of D(m,n), stored as a strictly increasing
tuple of vertex indices plus a membership bitmask.  The on-disk form is one
JSON object: {"m": m, "members": [...], "n": n} where each member lists its m
Shrikhande coordinates as [a, b] pairs followed by its n K4 values, and the
members appear in increasing index order.  Serialization is canonical (sorted
keys, no whitespace, single trailing newline) so equal codes produce
byte-identical files.

Loading reads byte-canonical text (exactly what dump_code writes) by slicing
it at the fixed member width and looking each member up in a per-parameter
table of member texts.  Any other text goes through the full JSON parse and
validation, which also gives every error message; both ways give the same
code for the same document.

Independence is checked on the mask, with no loop over members: for each
distinct index difference d > 0 of an edge, the graph keeps the vertices u
with u ~ u + d as a selector mask (Graph.edge_shifts), and a code is
independent iff (mask & selector) << d & mask is 0 for every d.  Only a code
that fails is walked member by member, to name its first adjacent pair.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

from .errors import ConsistencyError, FormatError, ParameterMismatchError
from .graphs import DoobParams, DoobVertex, Graph, decode_vertex, doob_graph, encode_vertex


@dataclass(frozen=True)
class Code:
    """An immutable vertex subset of D(m,n)."""

    params: DoobParams
    members: tuple[int, ...]
    mask: int = field(default=-1, compare=False, repr=False)

    def __post_init__(self):
        members = self.members
        if (
            isinstance(members, tuple)
            and members
            and set(map(type, members)) <= {int}
            and members[0] >= 0
            and members[-1] < self.params.vertex_count
            and all(map(operator.lt, members, members[1:]))
        ):
            # Plain increasing in-range ints: the loop below would accept them.
            object.__setattr__(self, "mask", sum(map((1).__lshift__, members)))
            return
        mask = 0
        prev = -1
        for v in self.members:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"member {v!r} is not an integer index")
            if not 0 <= v < self.params.vertex_count:
                raise ValueError(f"member {v} out of range for {self.params}")
            if v <= prev:
                raise ValueError("members must be strictly increasing")
            prev = v
            mask |= 1 << v
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_members(cls, params: DoobParams, members: Iterable[int]) -> "Code":
        """Build a code from an unordered member iterable; duplicates are an error."""
        ordered = tuple(sorted(members))
        return cls(params, ordered)

    def __len__(self):
        return len(self.members)

    def __contains__(self, v):
        return isinstance(v, int) and 0 <= v < self.params.vertex_count and self.mask >> v & 1

    def intersection_size(self, other: "Code") -> int:
        if self.params != other.params:
            raise ParameterMismatchError(
                f"intersecting codes from {self.params} and {other.params}"
            )
        return (self.mask & other.mask).bit_count()

    def _resolve_graph(self, graph: Optional[Graph]) -> Graph:
        if graph is None:
            return doob_graph(self.params)
        if graph.params is not None and graph.params != self.params:
            raise ParameterMismatchError(
                f"code over {self.params} checked against graph of {graph.params}"
            )
        if graph.vertex_count != self.params.vertex_count:
            raise ParameterMismatchError(
                f"code over {self.params} checked against a {graph.vertex_count}-vertex graph"
            )
        return graph

    def is_independent(self, graph: Optional[Graph] = None) -> bool:
        return _independent(self.mask, self._resolve_graph(graph))

    def first_adjacent_pair(self, graph: Optional[Graph] = None) -> Optional[tuple[int, int]]:
        """The first member v (in index order) with a neighbor in the code, and
        that neighbor's lowest index w; None if the code is independent."""
        g = self._resolve_graph(graph)
        if _independent(self.mask, g):
            return None
        for v in self.members:
            hit = g.neighbor_masks[v] & self.mask
            if hit:
                return v, (hit & -hit).bit_length() - 1
        return None  # not reached: the edge the shift check found is in a member's row

    def is_mds(self, graph: Optional[Graph] = None) -> bool:
        """True iff this is a maximum independent set (a distance-2 MDS code)."""
        return len(self.members) == self.params.code_size and self.is_independent(graph)

    def assert_mds(self, graph: Optional[Graph] = None, context: str = "code"):
        """Raise ConsistencyError with a reason if this is not an MDS code."""
        if len(self.members) != self.params.code_size:
            raise ConsistencyError(
                f"{context}: {len(self.members)} members, expected {self.params.code_size}"
            )
        pair = self.first_adjacent_pair(graph)
        if pair is not None:
            raise ConsistencyError(f"{context}: adjacent members {pair[0]} and {pair[1]}")

    def vertices(self) -> tuple[DoobVertex, ...]:
        return tuple(decode_vertex(v, self.params) for v in self.members)


def _independent(mask: int, graph: Graph) -> bool:
    """No edge u ~ u + d of graph has both ends in mask: one shift per distinct d."""
    for d, selector in graph.edge_shifts:
        if (mask & selector) << d & mask:
            return False
    return True


def sort_codes(codes: Iterable[Code]) -> list[Code]:
    """Deterministic order: lexicographic by member tuple."""
    return sorted(codes, key=lambda c: c.members)


def intersection_profile(code: Code, family: Iterable[Code]) -> tuple[int, ...]:
    """Intersection sizes of one code against a fixed ordered family."""
    return tuple(code.intersection_size(other) for other in family)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, compact separators, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def member_to_obj(index: int, params: DoobParams) -> list:
    vertex = decode_vertex(index, params)
    return [list(pair) for pair in vertex.sh] + list(vertex.k)


def _plain_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def member_from_obj(obj, params: DoobParams) -> int:
    if not isinstance(obj, list) or len(obj) != params.m + params.n:
        raise FormatError(
            f"member {obj!r} does not have {params.m} Shrikhande + {params.n} K4 coordinates"
        )
    sh = []
    for pair in obj[: params.m]:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_plain_int(x) and 0 <= x <= 3 for x in pair)
        ):
            raise FormatError(f"bad Shrikhande coordinate {pair!r} in member {obj!r}")
        sh.append((pair[0], pair[1]))
    k = []
    for value in obj[params.m :]:
        if not _plain_int(value) or not 0 <= value <= 3:
            raise FormatError(f"bad K4 coordinate {value!r} in member {obj!r}")
        k.append(value)
    return encode_vertex(DoobVertex(tuple(sh), tuple(k)), params)


def code_to_obj(code: Code) -> dict:
    return {
        "m": code.params.m,
        "n": code.params.n,
        "members": [member_to_obj(v, code.params) for v in code.members],
    }


def params_from_obj(obj) -> DoobParams:
    if not isinstance(obj, dict):
        raise FormatError("top level is not a JSON object")
    for key in ("m", "n"):
        if key not in obj:
            raise FormatError(f"missing key {key!r}")
        if not _plain_int(obj[key]) or obj[key] < 0:
            raise FormatError(f"key {key!r} must be a nonnegative integer")
    try:
        return DoobParams(obj["m"], obj["n"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def code_from_obj(obj) -> Code:
    params = params_from_obj(obj)
    if "members" not in obj or not isinstance(obj["members"], list):
        raise FormatError("missing or malformed 'members' list")
    indices = [member_from_obj(member, params) for member in obj["members"]]
    for earlier, later in zip(indices, indices[1:]):
        if later <= earlier:
            raise FormatError("members are not in strictly increasing index order")
    return Code(params, tuple(indices))


def dump_code(code: Code) -> str:
    return canonical_json(code_to_obj(code))


# The exact text dump_code writes at word length 2m + n <= 6, so m and n are
# single digits; longer numbers are left to the JSON parse.
_CANONICAL_CODE = re.compile(r'\{"m":([0-9]),"members":\[(.*)\],"n":([0-9])\}\n')


@lru_cache(maxsize=None)
def _member_indices(params: DoobParams) -> dict[str, int]:
    """Canonical JSON text of every member of D(m,n), mapped to its index."""
    return {
        json.dumps(member_to_obj(v, params), separators=(",", ":")): v
        for v in range(params.vertex_count)
    }


def _load_canonical(text: str) -> Optional[Code]:
    """The code whose dump_code is text, or None if text is not such a dump."""
    match = _CANONICAL_CODE.fullmatch(text)
    if match is None:
        return None
    m, body, n = int(match[1]), match[2], int(match[3])
    # Word length first, so 4 ** (2m + n) is never computed past the desk scale 4^6.
    if m + n == 0 or 2 * m + n > 6:
        return None
    params = DoobParams(m, n)
    width = 1 + 6 * m + 2 * n  # "[", m "[a,b]," and n "k,", the last comma as "]"
    tokens = [body[i : i + width] for i in range(0, len(body), width + 1)]
    if ",".join(tokens) != body:
        return None
    try:
        indices = tuple(map(_member_indices(params).__getitem__, tokens))
    except KeyError:
        return None
    if not all(map(operator.lt, indices, indices[1:])):
        return None
    return Code(params, indices)


def load_code(text: str) -> Code:
    code = _load_canonical(text)
    if code is not None:
        return code
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    return code_from_obj(obj)


def write_code(code: Code, path):
    with open(path, "w") as handle:
        handle.write(dump_code(code))


def read_code(path) -> Code:
    with open(path) as handle:
        return load_code(handle.read())
