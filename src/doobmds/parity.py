"""The parity family of maximum independent sets, and the bounds it yields.

Write every coordinate as a pair: a Shrikhande vertex (a, b) contributes
first component a and second component b (both mod 4), a K4 value v the bit
pair (v div 2, v mod 2).  For any rule assigning a target bit to each vector
of first components, the vertices whose first components have even sum and
whose second components sum to the target parity form a maximum independent
set.  The rule's values at odd-sum vectors never matter, since no member has
one; rules agreeing on the even-sum vectors are 'essentially equal' and yield
the same code, and essentially different rules yield different codes.  That
gives 2^(2^(2m+n-1)) distinct codes, the lower bound reported here; the
upper bound comes from the injection of all codes into those of the Hamming
graph H(2m+n,4).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .codes import Code, _parse_json, _read_text, params_from_obj
from .errors import DeskScaleError, FormatError
from .graphs import MAX_WORD_LENGTH, DoobParams, _FrozenRecord, _vertex_digits, check_desk_scale

# Most even-sum vectors a rule enumeration ranges over (2^16 representative rules).
_RULE_ENUMERATION_LIMIT = 16

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def rule_domain_size(params: DoobParams) -> int:
    """Number of first-component vectors: 4^m * 2^n."""
    return 4 ** params.m * 2 ** params.n


def point_index(params: DoobParams, point: Sequence[int]) -> int:
    """Mixed-radix index of a first-component vector, most significant first.

    Shrikhande positions are base-4 digits, K4 positions base-2.
    """
    if len(point) != params.m + params.n:
        raise ValueError(f"point {tuple(point)!r} has wrong length for {params}")
    index = 0
    for position, value in enumerate(point):
        radix = 4 if position < params.m else 2
        if not 0 <= value < radix:
            raise ValueError(f"component {value} out of range at position {position}")
        index = index * radix + value
    return index


def index_point(params: DoobParams, index: int) -> tuple[int, ...]:
    """Inverse of point_index."""
    if not 0 <= index < rule_domain_size(params):
        raise ValueError(f"point index {index} out of range for {params}")
    digits = []
    for position in range(params.m + params.n - 1, -1, -1):
        radix = 4 if position < params.m else 2
        index, digit = divmod(index, radix)
        digits.append(digit)
    return tuple(reversed(digits))


class ParityRule(_FrozenRecord):
    """A total map from first-component vectors to target parity bits."""

    params: DoobParams
    bits: tuple[int, ...]

    def __post_init__(self):
        expected = rule_domain_size(self.params)
        if len(self.bits) != expected:
            raise ValueError(
                f"rule table has {len(self.bits)} entries, {self.params} needs {expected}"
            )
        if any(bit not in (0, 1) for bit in self.bits):
            raise ValueError("rule table entries must be 0 or 1")


@lru_cache(maxsize=None)
def even_point_indices(params: DoobParams) -> tuple[int, ...]:
    """Indices of the first-component vectors with even coordinate sum."""
    return tuple(
        index
        for index in range(rule_domain_size(params))
        if sum(index_point(params, index)) % 2 == 0
    )


def _unpack_bits(packed: int, width: int) -> tuple[int, ...]:
    """The width binary digits of 0 <= packed < 2^width, most significant first."""
    return tuple(map(int, format(packed, f"0{width}b")))


def representative_rules(params: DoobParams) -> Iterator[ParityRule]:
    """One rule per essential class: zero at odd-sum vectors, everything else free."""
    even = even_point_indices(params)
    if len(even) > _RULE_ENUMERATION_LIMIT:
        raise DeskScaleError(
            f"{params} has {len(even)} even-sum vectors; "
            f"representative enumeration is capped at {_RULE_ENUMERATION_LIMIT}"
        )
    size = rule_domain_size(params)
    for packed in range(2 ** len(even)):
        bits = [0] * size
        for index, bit in zip(even, _unpack_bits(packed, len(even))):
            bits[index] = bit
        yield ParityRule(params, tuple(bits))


@lru_cache(maxsize=None)
def _vertex_profile(params: DoobParams) -> tuple[tuple[int, int], ...]:
    """Per first-component vector: the masks of its vertices with even first
    sum and second-sum parity 0, and 1 (both 0 at an odd-sum vector)."""
    check_desk_scale(params)
    profile = [[0, 0] for _ in range(rule_domain_size(params))]
    for index in range(params.vertex_count):
        digits = _vertex_digits(index, params)
        sh, k = digits[: params.m], digits[params.m :]
        first = [digit >> 2 for digit in sh] + [v >> 1 for v in k]
        if sum(first) % 2 == 0:
            second_sum = sum(digit & 3 for digit in sh) + sum(v & 1 for v in k)
            profile[point_index(params, first)][second_sum % 2] |= 1 << index
    return tuple(map(tuple, profile))


def build_parity_code(rule: ParityRule) -> Code:
    """The code selected by a rule: even first sum, prescribed second parity.

    It is the union over the first-component vectors p of the vertices on p
    with second parity rule.bits[p]; the parts are disjoint, so their masks add.
    """
    profile = _vertex_profile(rule.params)
    return Code.from_mask(rule.params, sum(map(operator.getitem, profile, rule.bits)))


class BoundsReport(_FrozenRecord):
    """Sandwich of the code count: parity family below, Hamming count above."""

    params: DoobParams
    lower_log2_log2: int
    lower_exact: Optional[int]
    upper_params: DoobParams
    upper_exact: Optional[int]
    actual: Optional[int]


def bounds_report(params: DoobParams) -> BoundsReport:
    """Lower and upper bounds on the number of codes, with exact values when cheap.

    The lower bound is the number of essential classes, 2^(2^(2m+n-1)),
    exact up to word length MAX_WORD_LENGTH and symbolic past it.  The upper
    reference count |MDS(0,2m+n)| and the actual count are attached only for
    word length 2m+n up to 5, where each count_mds call takes under a second
    (D(0,5), the slowest, about half of one); a Hamming graph's upper count
    is its actual count, counted once.
    """
    word = params.word_length
    upper_params = DoobParams(0, word)
    upper_exact = None
    actual = None
    if word <= 5:
        from .search import count_mds

        upper_exact = count_mds(upper_params)
        actual = upper_exact if params == upper_params else count_mds(params)
    return BoundsReport(
        params=params,
        lower_log2_log2=word - 1,
        lower_exact=2 ** 2 ** (word - 1) if word <= MAX_WORD_LENGTH else None,
        upper_params=upper_params,
        upper_exact=upper_exact,
        actual=actual,
    )


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------


def rule_from_obj(obj) -> ParityRule:
    params = params_from_obj(obj)
    bits = obj.get("bits")
    if not isinstance(bits, str):
        raise FormatError("missing or malformed 'bits' string")
    if len(bits) != rule_domain_size(params):
        raise FormatError(
            f"'bits' has length {len(bits)}, {params} needs {rule_domain_size(params)}"
        )
    if any(ch not in "01" for ch in bits):
        raise FormatError("'bits' may contain only 0 and 1")
    return ParityRule(params, tuple(int(ch) for ch in bits))


def rule_from_hex(params: DoobParams, text: str) -> ParityRule:
    """Inline hex form: the bit string read as a big-endian hex integer, in
    hex digits only (int(text, 16) would also take a sign, "0x", "_" and
    surrounding whitespace)."""
    check_desk_scale(params)  # before 2 ** size: size is 2^40 for D(20,0)
    size = rule_domain_size(params)
    if not text or not set(text) <= _HEX_DIGITS:
        raise FormatError(f"not a hex string: {text!r}")
    value = int(text, 16)
    if value >= 2 ** size:
        raise FormatError(f"hex value {text!r} out of range for a {size}-bit table")
    return ParityRule(params, _unpack_bits(value, size))


def load_rule(text: str) -> ParityRule:
    return rule_from_obj(_parse_json(text))


def read_rule(path) -> ParityRule:
    return load_rule(_read_text(path))
