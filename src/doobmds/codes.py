"""Vertex codes in Doob graphs: validation, intersections, and file round-trips.

A code is a subset of the vertices of D(m,n), stored as its membership
bitmask: bit v is set iff vertex v is a member.  The mask is the code's
identity (equality, hashing, size); the strictly increasing tuple of member
indices is derived from it on first read and kept, unless the code was built
from members, which are then kept as given.  When n >= 1 the last
coordinate is a K4 one, and its lines are the vertex blocks {4i, ..., 4i+3},
so hex digit i of the mask is line i's word.  A code with one member on
every such line, as every maximum independent set has, has the digits 1, 2,
4 and 8 only; each is translated to the place p of its member, and one int
addition of a base adds 4i to place i, a byte per member, up to 256
vertices.  Any other mask, every mask over D(m,0) and every mask over
more than 256 vertices has its set bits read one byte per vertex.  The
on-disk form is one JSON object: {"m": m, "members": [...], "n": n} where
each member lists its m Shrikhande coordinates as [a, b] pairs followed by
its n K4 values, and the members appear in increasing index order.
Serialization is canonical (sorted keys, no whitespace, single trailing
newline) so equal codes produce byte-identical files.

Loading reads byte-canonical text (exactly what dump_code writes) by its
fiber layout, and read_code tries that first, on the file's raw bytes (read
by os.read until it returns nothing).  Only a file it rejects is decoded as
UTF-8 with universal newlines, where bytes that are not UTF-8 are a
FormatError, and goes to load_code, which tries the layout again on the
decoded text and then parses JSON.  Every fiber of a maximum independent set
of D(m,n) at the last coordinate is a code of that factor: one member on
each K4 line when n >= 1, one of the 16 Shrikhande codes on each Sh copy
when n = 0.  So a canonical dump over D(m,n) is a fixed text, built once per
(m, n), except at the last coordinate's digits.  The text must equal that
template with those digits zeroed; the digits then give each fiber's word in
hex (a K4 value v is the digit 1 << v, an Sh fiber's eight digits are looked
up among the 16 codes, which graphs.independent_sets_of_size lists, as it
does for the search), and one int() of the hex is the code's mask.  Any
other text, including every set of members that is not fibered so, goes
through the full JSON parse and validation, which also gives every error
message; both ways give the same code for the same document.  dump_code
writes the same way round: a code whose every fiber at the last coordinate
is a code of its factor is the template with the digits filled in from the
mask's fiber words, and any other code is serialized through JSON, to the
same text.  Parameters of word length 2m + n over MAX_WORD_LENGTH are a
format error, found before any 4^(2m+n) is computed.

Independence is checked on the mask, with no loop over members: for each
distinct index difference d > 0 of an edge, the vertices u with u ~ u + d
form a selector mask, and a code is independent iff (mask & selector) << d
& mask is 0 for every d.  The pairs (d, selector) are those of D(m,n) in
closed form, built once per (m, n) with no product graph
(graphs._edge_shifts).  A code that fails has its first adjacent pair named
from the same shifts.

is_mds and assert_mds check most of the edges by line cover instead.
D(m,n) has 4^(2m+n-1) = code_size K4 lines in each of its n K4 directions,
and they partition the vertices.  A mask of code_size members that meets
every line of a direction therefore holds exactly one member on each, so no
K4 edge of that direction joins two members; and a maximum independent set,
with at most one member per line and code_size members, meets them all.
For the direction of stride s = 4^j, the line through vertex v with digit j
zero is met iff bit v of x | x >> s | x >> 2s | x >> 3s is set, two shifts
and two ORs.  What is left are the Shrikhande edges, the edge shifts with
d >= 4^n.  The lines and those shifts are read off D(m,n)'s edge shifts.
assert_mds names the first adjacent pair of a mask that fails, from the
full edge shifts, so its errors are those of that check.

Both per-(m, n) kernels, the member read's layout (_line_layout) and the
line cover (_line_cover), are built here and have one cache each: the
params object, as DoobParams._line_layout and DoobParams._line_cover, so
Code.members, is_mds and assert_mds find theirs with one attribute read
on the code's params.  The builders keep nothing; a params object parsed
from a file rebuilds its kernels, which costs little next to the parse.
DoobParams imports this module only when it first builds one.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from itertools import compress, count
from typing import Iterable, Optional, Sequence

from .errors import ConsistencyError, FormatError
from .graphs import (
    MAX_WORD_LENGTH,
    DoobParams,
    _edge_shifts,
    _FrozenRecord,
    _vertex_digits,
    independent_sets_of_size,
    shrikhande,
)


class Code:
    """An immutable vertex subset of D(m,n), stored as its membership mask.

    Code(params, members) validates a strictly increasing sequence of vertex
    indices and keeps it as given; Code.from_mask(params, mask), the one mask
    constructor, checks only the mask's type, sign and width.  Both run
    __post_init__.  Equality and hashing use (params, mask), and a mask-built
    code derives its members tuple from the mask on first read.
    """

    __slots__ = ("params", "mask", "_members")
    __setattr__ = _FrozenRecord.__setattr__
    __delattr__ = _FrozenRecord.__delattr__

    def __init__(self, params: DoobParams, members: Sequence[int]):
        _set_params(self, params)
        self.__post_init__(members, None)

    def __post_init__(self, members, mask):
        if mask is not None:
            if type(mask) is not int:
                raise ValueError(f"mask {mask!r} is not an int")
            if mask < 0:
                raise ValueError("mask is negative")
            if mask.bit_length() > self.params.vertex_count:
                raise ValueError(
                    f"mask has bit {mask.bit_length() - 1}, out of range for {self.params}"
                )
            _set_mask(self, mask)
            _set_members(self, None)
            return
        _set_members(self, members)
        mask = 0
        prev = -1
        for v in members:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"member {v!r} is not an integer index")
            if not 0 <= v < self.params.vertex_count:
                raise ValueError(f"member {v} out of range for {self.params}")
            if v <= prev:
                raise ValueError("members must be strictly increasing")
            prev = v
            mask |= 1 << v
        _set_mask(self, mask)

    @classmethod
    def from_mask(cls, params: DoobParams, mask: int) -> "Code":
        """The code whose members are the set bits of mask."""
        code = object.__new__(cls)
        _set_params(code, params)
        code.__post_init__(None, mask)
        return code

    @classmethod
    def from_members(cls, params: DoobParams, members: Iterable[int]) -> "Code":
        """Build a code from an unordered member iterable; duplicates are an error."""
        ordered = tuple(sorted(members))
        return cls(params, ordered)

    @property
    def members(self) -> Sequence[int]:
        """Member vertex indices in increasing order."""
        members = self._members
        if members is None:
            layout = self.params._line_layout
            if layout is not None:  # by K4 line; a line without exactly one member reads "x"
                spec, base, lines = layout
                places = format(self.mask, spec).encode().translate(_K4_DIGIT)
                if b"x" not in places:
                    packed = int.from_bytes(places, "big") + base
                    members = tuple(packed.to_bytes(lines, "little"))
            if members is None:
                members = tuple(compress(count(), bit_bytes(self.mask)))
            _set_members(self, members)
        return members

    def __reduce__(self):
        return Code.from_mask, (self.params, self.mask)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and self.params == other.params

    def __hash__(self):
        return hash((self.params, self.mask))

    def __repr__(self):
        return f"Code(params={self.params!r}, members={self.members!r})"

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, v):
        return isinstance(v, int) and 0 <= v < self.params.vertex_count and self.mask >> v & 1

    def is_independent(self) -> bool:
        params = self.params
        return _independent(self.mask, _edge_shifts(params.m, params.n))

    def first_adjacent_pair(self) -> Optional[tuple[int, int]]:
        """The first member v (in index order) with a neighbor in the code, and
        that neighbor's lowest index w; None if the code is independent."""
        params = self.params
        return _first_pair(self.mask, _edge_shifts(params.m, params.n))

    def is_mds(self) -> bool:
        """True iff this is a maximum independent set (a distance-2 MDS code)."""
        mask, params = self.mask, self.params
        if mask.bit_count() != params.code_size:
            return False
        return _mds_by_line_cover(mask, params._line_cover)

    def assert_mds(self, context: str = "code"):
        """Raise ConsistencyError with a reason if this is not an MDS code."""
        mask, params = self.mask, self.params
        size = mask.bit_count()
        expected = params.code_size
        if size != expected:
            raise ConsistencyError(f"{context}: {size} members, expected {expected}")
        if not _mds_by_line_cover(mask, params._line_cover):
            # code_size members missing a K4 line put two on another: a pair either way.
            v, w = self.first_adjacent_pair()
            raise ConsistencyError(f"{context}: adjacent members {v} and {w}")


# Code's slot setters, which its frozen __setattr__ refuses.  Called directly,
# they skip the lookup of the slot by name that object.__setattr__ makes.
_set_params, _set_mask, _set_members = (
    Code.params.__set__,
    Code.mask.__set__,
    Code._members.__set__,
)


_BIT_BYTE = bytes.maketrans(b"01", b"\x00\x01")


def bit_bytes(mask: int) -> bytes:
    """Byte v is 1 if bit v of mask is set, else 0, through its highest set bit."""
    return format(mask, "b").encode().translate(_BIT_BYTE)[::-1]


def _independent(mask: int, shifts) -> bool:
    """No edge u ~ u + d of the edge shifts has both ends in mask: one shift per d."""
    for d, selector in shifts:
        if (mask & selector) << d & mask:
            return False
    return True


def _first_pair(mask: int, shifts) -> Optional[tuple[int, int]]:
    """The lowest v in mask with a neighbor w in mask, and the lowest such w,
    from edge shifts with d ascending; None if there is no such v.

    The edges {u, u + d} inside mask have their lower ends u at the set bits
    of mask & selector & mask >> d.  v is the lowest lower end over all d;
    it is no upper end, as the lower end of that edge would be lower, so
    every neighbor of v in mask is above it, and w is v + the least d.
    """
    v = w = None
    for d, selector in shifts:
        ends = mask & selector & mask >> d
        if ends:
            u = (ends & -ends).bit_length() - 1
            if v is None or u < v:
                v, w = u, u + d
    return None if v is None else (v, w)


def _line_layout(m: int, n: int) -> Optional[tuple[str, int, int]]:
    """The read of members by K4 line over D(m,n), or None unless n >= 1
    and D(m,n) has at most 256 vertices: the format spec of the mask's hex
    digits, one per K4 line {4i, ..., 4i + 3}; 4i - 48 in byte i for each
    line i; and the number of lines.

    Code.members writes the digits, most significant first, and translates
    each by _K4_DIGIT to the ASCII place "0"-"3" of its line's one member,
    or "x" for a line with none or several.  Read big-endian and plus the
    base, the places are the members 4i + place, a byte each.
    """
    vertex_count = DoobParams(m, n).vertex_count
    if not n or vertex_count > 256:
        return None
    lines = vertex_count // 4
    starts = int.from_bytes(bytes(range(0, vertex_count, 4)), "little")
    return f"0{lines}x", starts - int.from_bytes(b"0" * lines, "little"), lines


def _line_cover(m: int, n: int) -> tuple[tuple, tuple]:
    """(lines, shifts) for checking codes of D(m,n) by line cover, from its
    edge shifts.

    lines has (s, 2s, L) for each K4 coordinate j, s = 4^j, where L holds
    the vertices whose digit j is 0, one per line in direction j: L is the
    selector of the shift 3s, the one edge from digit 0 to digit 3.  The
    shifts are the pairs with d >= 4^n, the Shrikhande edges, which follow
    the 3n K4 pairs.
    """
    shifts = _edge_shifts(m, n)
    lines = tuple((d // 3, 2 * d // 3, line) for d, line in shifts[2 : 3 * n : 3])
    return lines, shifts[3 * n :]


def _mds_by_line_cover(mask: int, kernel) -> bool:
    """For a mask of code_size members: True iff it meets every K4 line and
    no Shrikhande edge has both ends in it, which is iff it is MDS."""
    lines, shifts = kernel
    for s, double, line in lines:
        hit = mask | mask >> s
        if (hit | hit >> double) & line != line:
            return False
    return not shifts or _independent(mask, shifts)  # D(0,n) has no Shrikhande shifts


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, compact separators, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def member_to_obj(index: int, params: DoobParams) -> list:
    """Vertex index to its JSON coordinates: [a, b] per Shrikhande digit, then K4 values."""
    digits = _vertex_digits(index, params)
    return [list(divmod(digit, 4)) for digit in digits[: params.m]] + digits[params.m :]


def _plain_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def member_from_obj(obj, params: DoobParams) -> int:
    """JSON coordinates to the vertex index, each coordinate checked once."""
    if not isinstance(obj, list) or len(obj) != params.m + params.n:
        raise FormatError(
            f"member {obj!r} does not have {params.m} Shrikhande + {params.n} K4 coordinates"
        )
    index = 0
    for pair in obj[: params.m]:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_plain_int(x) and 0 <= x <= 3 for x in pair)
        ):
            raise FormatError(f"bad Shrikhande coordinate {pair!r} in member {obj!r}")
        index = index * 16 + 4 * pair[0] + pair[1]
    for value in obj[params.m :]:
        if not _plain_int(value) or not 0 <= value <= 3:
            raise FormatError(f"bad K4 coordinate {value!r} in member {obj!r}")
        index = index * 4 + value
    return index


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
    # A rule table has 4^m 2^n bits and a code's mask 4^(2m + n), both sized from
    # these; parameters past desk scale are a format error before either is.
    if 2 * obj["m"] + obj["n"] > MAX_WORD_LENGTH:
        raise FormatError(
            f"parameters m = {obj['m']}, n = {obj['n']} have word length 2m + n "
            f"over {MAX_WORD_LENGTH}"
        )
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
    text = _dump_canonical(code)
    return canonical_json(code_to_obj(code)) if text is None else text


# K4 digits 0-3 to the hex digit of their fiber word; any other byte to "x",
# which no hex digit is ("_" and whitespace would pass int()).
_K4_HEX = bytes(b"1248"[c - 48] if 48 <= c <= 51 else 120 for c in range(256))
# And back: the hex digit of a K4 fiber word with one member to its K4
# digit; any other byte to "x".
_K4_DIGIT = bytes(b"0123"[b"1248".index(c)] if c in b"1248" else 120 for c in range(256))


@lru_cache(maxsize=None)
def _fiber_layout(m: int, n: int):
    """(params, template, digits, zeros, slots, table, spell) for canonical
    dumps over D(m,n), or None when m + n = 0 or 2m + n is past desk scale.

    Every fiber of a code over D(m,n) = G x F at the last coordinate, F = K4
    when n >= 1 and Sh when n = 0, is a code of F: one member for K4, one of
    the 16 Shrikhande codes for Sh.  Members are written "[" + "[a,b]," * m
    + "k," * n with the last comma as "]", w = 1 + 6m + 2n bytes, joined by
    ",", so every dump is template (the dump with each last-coordinate digit
    "0") except at those digits.  digits slices them out of the member list
    with stride w + 1: the K4 value, or the a and the b of the closing
    "[a,b]]"; zeros refills one slice.  For Sh, slots are the eight slices
    of a fiber's digits, members in index order, with stride 4(w + 1),
    table maps those eight digit bytes to the fiber's 16-bit word as
    reversed hex, and spell maps the bytes of that reversed hex back to the
    eight digits; for K4 slots is digits and table and spell are None.
    """
    # Word length first, so 4 ** (2m + n) is never computed past desk scale.
    if m + n == 0 or 2 * m + n > MAX_WORD_LENGTH:
        return None
    params = DoobParams(m, n)
    width = 1 + 6 * m + 2 * n
    stride = width + 1
    start = len('{"m":0,"members":[')
    stop = start + params.code_size * stride
    if n:
        digits = slots = (slice(start + width - 2, stop, stride),)
        table = spell = None
        fiber_hex = "1"  # K4 value 0
    else:
        digits = tuple(slice(start + offset, stop, stride) for offset in (width - 5, width - 3))
        slots = tuple(
            slice(start + member * stride + offset, stop, 4 * stride)
            for member in range(4)
            for offset in (width - 5, width - 3)
        )
        table, spell = {}, {}
        for members in independent_sets_of_size(shrikhande(), 4):
            fiber_hex = format(sum(1 << s for s in members), "04x")
            key = tuple(48 + digit for s in members for digit in divmod(s, 4))
            table[key] = fiber_hex[::-1]
            spell[tuple(fiber_hex[::-1].encode())] = bytes(key)
    # Any code of this layout will do: one fiber everywhere, repeated over
    # the code_size hex digits of a mask.  Its digits are then zeroed.
    code = Code.from_mask(params, int(fiber_hex * (params.code_size // len(fiber_hex)), 16))
    template = bytearray(canonical_json(code_to_obj(code)).encode())
    zeros = b"0" * params.code_size
    for digit_slice in digits:
        template[digit_slice] = zeros
    return params, bytes(template), digits, zeros, slots, table, spell


def _dump_canonical(code: Code) -> Optional[str]:
    """dump_code(code) as its fiber layout's template with the digits filled
    in from the mask's fiber words, or None if the code has no layout or a
    fiber at the last coordinate that is not a code of its factor."""
    layout = _fiber_layout(code.params.m, code.params.n)
    if layout is None:
        return None
    params, template, digits, _, slots, _, spell = layout
    # The mask's hex digits, least significant first: one per K4 line, four
    # (reversed) per Shrikhande copy.
    hexs = format(code.mask, f"0{params.code_size}x")[::-1].encode()
    text = bytearray(template)
    if spell is None:
        values = hexs.translate(_K4_DIGIT)
        if b"x" in values:
            return None
        text[digits[0]] = values
    else:
        try:
            spelled = b"".join(map(spell.__getitem__, zip(*[hexs[i::4] for i in range(4)])))
        except KeyError:
            return None
        for i, slot in enumerate(slots):
            text[slot] = spelled[i::8]
    return text.decode()


def _load_canonical(data: bytes) -> Optional[Code]:
    """The code whose dump_code is data, or None if data is not such a dump."""
    if not data.isascii():
        return None
    m, n = data[5:6], data[-3:-2]
    if not (m.isdigit() and n.isdigit()):
        return None
    layout = _fiber_layout(m[0] - 48, n[0] - 48)
    if layout is None:
        return None
    params, template, digits, zeros, slots, table, _ = layout
    if len(data) != len(template):
        return None
    rest = bytearray(data)
    for digit_slice in digits:
        rest[digit_slice] = zeros
    if rest != template:
        return None
    if table is None:
        hexs = data[slots[0]].translate(_K4_HEX)
        if b"x" in hexs:
            return None
    else:
        try:
            hexs = "".join(map(table.__getitem__, zip(*[data[s] for s in slots])))
        except KeyError:
            return None
    return Code.from_mask(params, int(hexs[::-1], 16))


def _parse_json(text: str):
    """The JSON document text, with any parse failure as a FormatError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise FormatError(f"invalid JSON: {exc}") from None


def load_code(text: str) -> Code:
    code = _load_canonical(text.encode()) if text.isascii() else None
    return code_from_obj(_parse_json(text)) if code is None else code


def write_code(code: Code, path):
    with open(path, "w") as handle:
        handle.write(dump_code(code))


# Bytes asked of each os.read: more than any canonical code file up to word
# length 6, so such a file takes one read and one empty one.
_READ_SIZE = 1 << 16
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # O_BINARY: Windows, no newline mapping


def _read_bytes(path) -> bytes:
    """A file's contents: os.read until it returns nothing."""
    fd = os.open(path, _READ_FLAGS)
    try:
        parts = []
        while part := os.read(fd, _READ_SIZE):
            parts.append(part)
    except OSError as exc:
        # os.read names no file (as on a directory); open() would have.
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return b"".join(parts)


def _decode_text(data: bytes) -> str:
    """data decoded as UTF-8, with universal newlines; bad bytes are a FormatError."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_text(path) -> str:
    """A file's contents decoded as UTF-8, with universal newlines."""
    return _decode_text(_read_bytes(path))


def read_code(path) -> Code:
    data = _read_bytes(path)
    code = _load_canonical(data)
    if code is None:
        code = load_code(_decode_text(data))
    return code
