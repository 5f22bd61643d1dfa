"""Reducing Shrikhande coordinates to pairs of K4 coordinates.

The 16 maximum independent sets of the Shrikhande graph can be matched with
16 of the 24 maximum independent sets of K4 x K4 so that two Shrikhande codes
intersect exactly when their partners do.  Applying that table fiberwise at
the last Shrikhande coordinate turns a code of D(m+1,n) into a code of
D(m,n+2); iterating eliminates all Shrikhande coordinates and lands in a
Hamming graph.  The table is not unique, so the canonical one here is the
lexicographically least valid assignment under the canonical orderings of
both code lists.  The end result of the iteration can depend on the order in
which Shrikhande coordinates are consumed; the order is therefore an explicit
argument.

The reduction works on the code's mask.  Written out as one byte per vertex
(1 for a member), the fiber at the last Shrikhande coordinate through a
vertex is the 16-byte slice at stride 4^n, and the partner code's bytes go
into the same slice of the output, because vertex (prefix, s, suffix) of
D(m,n) and vertex (prefix, z, suffix) of D(m-1,n+2) have the same index when
s = z.  The fibers are read and written by mapping over one cached tuple of
slices per (size, stride), and the output bytes are parsed back into the new
code's mask.  Permuting Shrikhande coordinates rewrites each member's
base-16 digits directly, without decoding it to a vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .codes import Code, bit_bytes
from .errors import ConsistencyError
from .graphs import DoobParams
from .search import enumerate_mds

_BYTE_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


@lru_cache(maxsize=None)
def sh_codes() -> tuple[Code, ...]:
    """The 16 maximum independent sets of the Shrikhande graph, canonical order."""
    return enumerate_mds(DoobParams(1, 0)).codes


@lru_cache(maxsize=None)
def k4_pair_codes() -> tuple[Code, ...]:
    """The 24 maximum independent sets of K4 x K4, canonical order."""
    return enumerate_mds(DoobParams(0, 2)).codes


@dataclass(frozen=True)
class PairingTable:
    """Intersection-preserving matching of Shrikhande codes with K4-pair codes.

    domain[i] and image[i] are partners; two domain codes intersect iff the
    corresponding image codes do.
    """

    domain: tuple[Code, ...]
    image: tuple[Code, ...]

    @cached_property
    def partner_fibers(self) -> dict[bytes, bytearray]:
        """Bit bytes (byte s is 1 iff s is a member) of each domain code, mapped
        to those of its partner.  The partner's are a bytearray, which slice
        assignment copies without converting it first."""
        return {
            bit_bytes(dom.mask, 16): bytearray(bit_bytes(img.mask, 16))
            for dom, img in zip(self.domain, self.image)
        }


@lru_cache(maxsize=None)
def derive_pairing() -> PairingTable:
    """Search for the canonical intersection-preserving matching.

    Backtracking over domain slots in canonical order, trying candidate image
    codes in canonical order; the first complete assignment found is the
    lexicographically least one.  A candidate is placed only if it meets the
    images of all earlier slots exactly as its domain code meets theirs, so
    the complete table preserves meeting for every pair.
    """
    domain = sh_codes()
    candidates = k4_pair_codes()
    domain_meet = [[bool(a.mask & b.mask) for b in domain] for a in domain]
    candidate_meet = [[bool(a.mask & b.mask) for b in candidates] for a in candidates]
    assignment: list[int] = []
    used = [False] * len(candidates)

    def extend() -> bool:
        slot = len(assignment)
        if slot == len(domain):
            return True
        for c in range(len(candidates)):
            if used[c]:
                continue
            if any(
                candidate_meet[assignment[j]][c] != domain_meet[j][slot]
                for j in range(slot)
            ):
                continue
            assignment.append(c)
            used[c] = True
            if extend():
                return True
            assignment.pop()
            used[c] = False
        return False

    if not extend():
        raise ConsistencyError(
            "no intersection-preserving matching of Shrikhande codes onto "
            "K4-pair codes exists; the Shrikhande connection set is wrong"
        )
    return PairingTable(domain, tuple(candidates[c] for c in assignment))


def _fiber_error(bits: bytes, partners: dict, stride: int) -> ConsistencyError:
    """The error naming the non-Shrikhande fiber that holds the lowest member."""
    bad = []
    for fiber_slice in _fiber_slices(len(bits), stride):
        fiber = bits[fiber_slice]
        if fiber not in partners:
            base = fiber_slice.start
            bad.append((base + stride * fiber.index(1), base, fiber))
    _, base, fiber = min(bad)
    prefix, suffix = divmod(base, 16 * stride)
    values = tuple(s for s in range(16) if fiber[s])
    return ConsistencyError(
        f"fiber {values} at prefix {prefix}, suffix {suffix} is not a Shrikhande code"
    )


def reduce_last_sh_coordinate(code: Code, table: Optional[PairingTable] = None) -> Code:
    """Replace the last Shrikhande coordinate by two K4 coordinates.

    Every fiber of a maximum independent set at that coordinate is one of the
    16 Shrikhande codes; each fiber is replaced by its partner code, whose
    members supply the two new K4 values.  The new values sit between the
    remaining Shrikhande block and the old K4 block.  Requires a maximum
    independent set; preserves cardinality and the property of being one.
    """
    if code.params.m < 1:
        raise ValueError("code has no Shrikhande coordinate to reduce")
    code.assert_mds(context="reduction input")
    return _reduce_last(code, table)


def _reduce_last(code: Code, table: Optional[PairingTable]) -> Code:
    """reduce_last_sh_coordinate without the input check, for codes already
    known to be maximum independent sets."""
    params = code.params
    partners = (table or derive_pairing()).partner_fibers
    size = params.vertex_count
    stride = 4 ** params.n
    bits = bit_bytes(code.mask, size)
    fibers = _fiber_slices(size, stride)
    try:
        images = list(map(partners.__getitem__, map(bits.__getitem__, fibers)))
    except KeyError:
        raise _fiber_error(bits, partners, stride) from None
    out = bytearray(size)
    deque(map(out.__setitem__, fibers, images), maxlen=0)
    mask = int(out[::-1].translate(_BYTE_DIGIT), 2)
    return Code.from_mask(_reduced_params(params), mask)


@lru_cache(maxsize=None)
def _fiber_slices(size: int, stride: int) -> tuple[slice, ...]:
    """The slice of every fiber at the last Shrikhande coordinate, lowest base first."""
    span = 16 * stride
    return tuple(
        slice(base, base + span, stride)
        for row in range(0, size, span)
        for base in range(row, row + stride)
    )


@lru_cache(maxsize=None)
def _reduced_params(params: DoobParams) -> DoobParams:
    """D(m-1, n+2), one object per D(m,n), so later checks find its graph on it."""
    return DoobParams(params.m - 1, params.n + 2)


def permute_sh_coordinates(code: Code, perm: Sequence[int]) -> Code:
    """Relabel so that new Shrikhande slot p holds old coordinate perm[p]."""
    params = code.params
    perm = tuple(perm)
    if sorted(perm) != list(range(params.m)):
        raise ValueError(f"{perm!r} is not a permutation of {params.m} coordinates")
    if perm == tuple(range(params.m)):
        return code
    stride = 4 ** params.n
    digits = [0] * params.m
    members = []
    for index in code.members:
        rest, suffix = divmod(index, stride)
        for slot in range(params.m - 1, -1, -1):
            rest, digits[slot] = divmod(rest, 16)
        new = 0
        for p in perm:
            new = new * 16 + digits[p]
        members.append(new * stride + suffix)
    return Code.from_members(params, members)


def reduce_sh_coordinates(
    code: Code,
    table: Optional[PairingTable] = None,
    order: Optional[Sequence[int]] = None,
) -> Code:
    """Eliminate all Shrikhande coordinates, landing in a Hamming graph.

    order lists original Shrikhande coordinate positions in the order they
    are consumed; default is last first (m-1, m-2, ..., 0).  Different orders
    can produce different results.
    """
    m = code.params.m
    if order is None:
        order = tuple(range(m - 1, -1, -1))
    order = tuple(order)
    if sorted(order) != list(range(m)):
        raise ValueError(f"{order!r} is not a permutation of the {m} Shrikhande coordinates")
    # Arrange slots so plain last-coordinate reduction consumes them in order.
    perm = tuple(order[m - 1 - p] for p in range(m))
    current = permute_sh_coordinates(code, perm)
    # Checked once: each step maps a maximum independent set to another.
    current.assert_mds(context="reduction input")
    for _ in range(m):
        current = _reduce_last(current, table)
    return current
