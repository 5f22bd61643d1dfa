"""Shrikhande graph, complete graphs, Doob graphs and their vertex indexing.

The Doob graph D(m,n) is the Cartesian product of m copies of the Shrikhande
graph Sh and n copies of K4.  Vertices of Sh are the elements of Z4 x Z4 with
connection set {+-(1,0), +-(0,1), +-(1,1)}: the torus grid lines plus the
slanted diagonals.  A vertex is its index, and a graph is the tuple of its
rows, the per-vertex neighbor bitmasks (bit v of row u is set iff u ~ v).
The index of a vertex of D(m,n) has m Shrikhande digits 4a + b, base 16,
then n K4 values, base 4, most significant first.  _slots(m, n), the one
table of that layout, gives each coordinate's (radix, stride); the edge
shifts, _vertex_digits, the symmetries' lifted factor permutations and slot
swaps, and the reduction's Shrikhande slot swaps all read it.  Parameters
past DESK_SCALE_LIMIT vertices are rejected outright instead of degrading.
The check compares the word length 2m + n with MAX_WORD_LENGTH, so no
refused vertex count is ever computed.
The edge shifts of D(m,n) are a closed form of (m, n) built from those of
Sh and K4.  They are the one definition of its adjacency: the checks on
codes read them, and doob_graph is built from them.

DoobParams also keeps, per params object, the two kernels that codes
reads once per code: the member read by K4 line and the line cover of the
MDS check.  Each is built on first read, by codes, which is imported only
then, and kept nowhere else.

Three kernels here serve several modules.  _repeat repeats a bit pattern in
every block of a mask, by doubling: the edge shifts' selectors, the
index-bit masks of the delta swaps and the packed selectors of the orbit
search are all made by it.  The delta swaps (_delta_swaps,
_swap_index_bits) exchange index bits of a mask: the reduction moves a
Shrikhande digit with them, and the search transposes the bit matrix of its
sub-codes' masks with them.  independent_sets_of_size lists the codes of a
single factor: the search's base case, the 16 Shrikhande codes that
canonical code files are read and written by, and the factor lists of the
reduction's pairing.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Optional, Sequence

from .errors import DeskScaleError

# Largest word length 2m + n of a desk-scale D(m,n), and its vertex count.
MAX_WORD_LENGTH = 6
DESK_SCALE_LIMIT = 4**MAX_WORD_LENGTH

# Differences (mod 4) that make two Shrikhande vertices adjacent.
SHRIKHANDE_CONNECTION_SET = frozenset(
    {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
)


class _FrozenRecord:
    """Base of the package's immutable value classes: what @dataclass(frozen=True)
    gave them, without importing dataclasses (and inspect) at start-up.

    A subclass's fields are its base's, then the names annotated in its own
    body, in order; none has a default.  __init__ takes the fields by
    position or keyword, then calls
    __post_init__, the validation hook.  Equality (within one class), hash
    and repr go by the field values, as the dataclass methods did.  Instances
    keep their __dict__, so cached_property and pickling work as on any class.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(vars(cls).get("__annotations__", ()))
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:  # then get gives the value, not a 1-tuple
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """One value per field from a call's arguments, or the call's TypeError."""
        fields, name = cls._fields, f"{cls.__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(
                f"{name} takes {len(fields) + 1} positional arguments "
                f"but {len(args) + 1} were given"
            )
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
            if key in fields[: len(args)]:
                raise TypeError(f"{name} got multiple values for argument {key!r}")
            values[key] = value
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name} missing required arguments: {', '.join(missing)}")
        return [values[key] for key in fields]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class DoobParams(_FrozenRecord):
    """Parameters (m, n) of the Doob graph D(m,n) = Sh^m x K4^n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"parameters must be nonnegative, got ({self.m}, {self.n})")
        if self.m + self.n == 0:
            raise ValueError("empty parameter set: need m + n >= 1")

    @property
    def word_length(self) -> int:
        """Diameter-scale quantity 2m + n (the Hamming word length after reduction)."""
        return 2 * self.m + self.n

    @cached_property  # read on every Code built, by its width check
    def vertex_count(self) -> int:
        return 4 ** self.word_length

    @cached_property  # read by every Code.assert_mds and is_mds
    def code_size(self) -> int:
        """Cardinality of a maximum independent set: 4^(2m+n-1)."""
        return 4 ** (self.word_length - 1)

    # Kernels read once per code; codes is imported on first read only, so
    # the count path loads none.

    @cached_property  # read by every Code.members built from a mask
    def _line_layout(self) -> Optional[tuple[str, int, int]]:
        """codes._line_layout's read of members by K4 line, or None."""
        from .codes import _line_layout

        return _line_layout(self.m, self.n)

    @cached_property  # read by every Code.assert_mds and is_mds
    def _line_cover(self) -> tuple[tuple, tuple]:
        """codes._line_cover's (lines, shifts) for D(m,n)."""
        from .codes import _line_cover

        return _line_cover(self.m, self.n)

    def __str__(self):
        return f"D({self.m},{self.n})"


def check_desk_scale(params: DoobParams):
    """Refuse parameters whose graph exceeds the desk-scale vertex limit,
    by word length: 4^(2m+n) is never computed for them."""
    if params.word_length > MAX_WORD_LENGTH:
        raise DeskScaleError(
            f"{params} has 4^{params.word_length} vertices, "
            f"over the desk-scale limit {DESK_SCALE_LIMIT}"
        )


@lru_cache(maxsize=None)
def shrikhande() -> tuple[int, ...]:
    """The rows of the Shrikhande graph on Z4 x Z4, vertex (a,b) at index 4a + b."""
    return tuple(
        sum(1 << 4 * ((a + da) % 4) + (b + db) % 4 for da, db in SHRIKHANDE_CONNECTION_SET)
        for a in range(4)
        for b in range(4)
    )


@lru_cache(maxsize=None)
def complete_graph(q: int) -> tuple[int, ...]:
    """The rows of the complete graph K_q."""
    if q < 2:
        raise ValueError(f"complete graph order must be at least 2, got {q}")
    full = (1 << q) - 1
    return tuple(full ^ 1 << u for u in range(q))


@lru_cache(maxsize=None)
def doob_graph(params: DoobParams) -> tuple[int, ...]:
    """The rows of the Doob graph D(m,n), from _edge_shifts: u ~ u + d for
    each pair (d, selector) and each u in selector.  The shifts refuse
    parameters past desk scale first.
    """
    shifts = _edge_shifts(params.m, params.n)
    rows = [0] * params.vertex_count
    for d, selector in shifts:
        while selector:
            low = selector & -selector
            u = low.bit_length() - 1
            rows[u] |= low << d
            rows[u + d] |= low
            selector ^= low
    return tuple(rows)


def _row_shifts(rows: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The edge shifts of a graph's rows: pairs (d, selector), d ascending,
    u ~ u + d exactly for the u in selector.

    Every edge {u, u + d} with d > 0 is in exactly one selector, so a
    vertex set is independent iff (mask & selector) << d & mask is 0 for
    every pair.  Each bit w != u of row u counts, with d = |w - u| and the
    selector bit at min(u, w), so an edge stored in only one row is kept.
    Doob graphs have few distinct d (13 for D(1,2)).
    """
    selectors: dict[int, int] = {}
    for u, row in enumerate(rows):
        while row:
            low = row & -row
            w = low.bit_length() - 1
            d = abs(w - u)
            if d:
                selectors[d] = selectors.get(d, 0) | 1 << min(u, w)
            row ^= low
    return tuple(sorted(selectors.items()))


@lru_cache(maxsize=None)
def _edge_shifts(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The edge shifts of D(m,n), as _row_shifts gives them, in closed form.

    An edge of D(m,n) changes one coordinate, so it is an edge of that
    coordinate's factor, Sh or K4, moved by the stride s of its digit in the
    vertex index, which _slots gives: 4^j for the j-th K4 coordinate from
    the last, 4^n 16^p for the p-th Shrikhande one from the last K4.  Each
    pair (d, selector) of the factor, q vertices, gives the pair (d s,
    selector spread to s bits per factor vertex and repeated every q s
    bits).  A coordinate's shifts lie in [s, q s), and these ranges do not
    overlap, so each d is one coordinate's, and sorted by d the pairs are in
    _row_shifts' form.
    """
    params = DoobParams(m, n)
    check_desk_scale(params)
    factors = {16: shrikhande(), 4: complete_graph(4)}
    pairs = []
    for q, s in _slots(m, n):
        for d, selector in _row_shifts(factors[q]):
            spread = sum(((1 << s) - 1) << x * s for x in range(q) if selector >> x & 1)
            pairs.append((d * s, _repeat(spread, q * s, params.vertex_count)))
    return tuple(sorted(pairs))


def _repeat(pattern: int, period: int, total: int) -> int:
    """pattern, at most period bits wide, repeated every period bits through
    total bits, a multiple of period.

    By doubling: each OR of a shifted copy costs time linear in its width.
    A product with a unit of total bits would cost the pattern's width times
    that, which is an order of magnitude more for the 1024-bit selectors of
    D(1,2) over 512 blocks.
    """
    out, width = pattern, period
    while width < total:
        out |= out << width
        width *= 2
    return out & (1 << total) - 1


def _index_bit_set(bit: int, vertex_count: int) -> int:
    """The mask of the vertex indices below vertex_count that have the given bit."""
    half = 1 << bit
    return _repeat(((1 << half) - 1) << half, 2 * half, vertex_count)


def _delta_swaps(vertex_count: int, pairs: Sequence[tuple[int, int]]) -> tuple:
    """(d, selector) for each exchange of index bits j < k in pairs, in order.

    The selector holds the indices with bit j set and bit k clear; adding
    d = 2^k - 2^j to one of them exchanges the two bits.
    """
    return tuple(
        (
            (1 << k) - (1 << j),
            _index_bit_set(j, vertex_count) & ~_index_bit_set(k, vertex_count),
        )
        for j, k in pairs
    )


def _swap_index_bits(mask: int, swaps) -> int:
    """Move bit v of mask to the index v has after each exchange of swaps."""
    for d, selector in swaps:
        t = ((mask >> d) ^ mask) & selector
        mask ^= t ^ (t << d)
    return mask


def independent_sets_of_size(rows: Sequence[int], size: int) -> list[tuple[int, ...]]:
    """All independent sets of exactly the given size in the graph of rows,
    lexicographically ordered."""
    n = len(rows)
    out = []
    chosen = []

    def walk(start, banned, need):
        if need == 0:
            out.append(tuple(chosen))
            return
        for v in range(start, n - need + 1):
            if banned >> v & 1:
                continue
            chosen.append(v)
            walk(v + 1, banned | rows[v] | 1 << v, need - 1)
            chosen.pop()

    walk(0, 0, size)
    return out


@lru_cache(maxsize=None)
def _slots(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """(radix, stride) of each coordinate of a vertex index of D(m,n), most
    significant first: m Shrikhande digits 4a + b, radix 16, then n K4
    values, radix 4.  The stride is the product of the radices after it."""
    return tuple((16, 4**n * 16 ** (m - 1 - p)) for p in range(m)) + tuple(
        (4, 4 ** (n - 1 - j)) for j in range(n)
    )


def _vertex_digits(index: int, params: DoobParams) -> list[int]:
    """The digits of a vertex index of D(m,n), in _slots order."""
    return [index // stride % radix for radix, stride in _slots(params.m, params.n)]
