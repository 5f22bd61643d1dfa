"""Exhaustive enumeration of maximum independent sets in desk-scale Doob graphs.

Single factors (one Shrikhande graph or one K4) are solved by direct DFS over
vertex indices with a conflict bitmask.  Products are solved by fibering at
the last coordinate: a maximum independent set of G x F restricts, for each
vertex f of F, to a fiber in G, and a counting argument forces every fiber to
be a maximum independent set of G.  Independence across fibers then says the
fibers at adjacent factor vertices are disjoint, so enumeration reduces to
assembling pairwise-compatible smaller codes.  Output order is lexicographic
on the member tuples, independent of the search order and of the worker
count.

Counting does not visit every assignment.  An automorphism g of G, applied to
every fiber at once, maps an assignment (c_f) to (g c_f): fibers stay maximum
independent sets, and fibers that were disjoint stay disjoint, so valid
assignments go to valid assignments, bijectively.  Hence the assignments with
c_0 = c are as many as those with c_0 = g c, and

    count(G x F) = sum over orbits O of the sub-codes of |O| * completions(rep_O),

where completions(c) counts the valid assignments with c at factor vertex 0.
At the last factor vertex the remaining choices are counted as one popcount.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Optional

from .codes import Code
from .graphs import (
    DoobParams,
    Graph,
    check_desk_scale,
    complete_graph,
    doob_graph,
    shrikhande,
)
from .symmetry import doob_symmetries, orbits_of_masks

# Externally published census counts; everything else this tool reports is
# derived by its own search and flagged so.
PUBLISHED_COUNTS = {(0, 1): 4, (0, 2): 24, (1, 0): 16}

# Sub-codes per block when building vertex-incidence bitsets.
TRANSPOSE_BLOCK = 1024


@dataclass(frozen=True)
class EnumerationResult:
    params: DoobParams
    count: int
    codes: Optional[tuple[Code, ...]]

    def is_materialized(self) -> bool:
        return self.codes is not None


def independent_sets_of_size(graph: Graph, size: int) -> list[tuple[int, ...]]:
    """All independent sets of exactly the given size, lexicographically ordered."""
    n = graph.vertex_count
    masks = graph.neighbor_masks
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
            walk(v + 1, banned | masks[v] | 1 << v, need - 1)
            chosen.pop()

    walk(0, 0, size)
    return out


def _decompose(params: DoobParams):
    """Split off the last coordinate: (params of the rest, factor graph).

    The rest is None when the graph is a single factor.
    """
    if params.n >= 1:
        rest = DoobParams(params.m, params.n - 1) if params.word_length > 1 else None
        return rest, complete_graph(4)
    rest = DoobParams(params.m - 1, 0) if params.m >= 2 else None
    return rest, shrikhande()


class _DisjointRows(dict):
    """rows[i]: bitmask over sub-code indices, bit j set iff codes i, j are disjoint.

    Rows are computed on first use from vertex-incidence bitsets: with B[v]
    the set of sub-codes containing v, the codes meeting code c are
    OR_{v in c} B[v].  No pair of codes is ever compared directly.
    """

    def __init__(self, sub_masks):
        super().__init__()
        self.masks = sub_masks
        self.full = (1 << len(sub_masks)) - 1
        width = max(sub_masks, default=0).bit_length()
        # Transpose the code-by-vertex bit matrix by string slicing, one block
        # of codes at a time to bound the text's size.  Line k of a block's
        # text is its code len-1-k, vertex 0 last, so the characters in
        # column v, read as binary, are that block's part of B[v].
        self.incidence = [0] * width
        for start in range(0, len(sub_masks), TRANSPOSE_BLOCK):
            block = sub_masks[start : start + TRANSPOSE_BLOCK]
            text = "".join([format(mask, f"0{width}b") for mask in reversed(block)])
            for v in range(width):
                self.incidence[v] |= int(text[width - 1 - v :: width], 2) << start

    def __missing__(self, i):
        meets = 0
        mask = self.masks[i]
        while mask:
            low = mask & -mask
            meets |= self.incidence[low.bit_length() - 1]
            mask ^= low
        row = self[i] = self.full ^ meets
        return row


def _compatibility(sub_masks):
    """Disjointness rows of the sub-codes, each computed when first read."""
    return _DisjointRows(sub_masks)


def _assemble(factor_masks, compat, first=None, count_only=False):
    """Assign a sub-code to every factor vertex, disjoint across factor edges.

    Returns assignment tuples (sub-code index per factor vertex), or just
    their number when count_only; counting adds up the choices left at the
    last factor vertex instead of visiting them.  first, a bitmask over
    sub-code indices, restricts the choice at factor vertex 0; the parallel
    driver and the orbit-weighted count use it to split the search.
    """
    factor_count = len(factor_masks)
    last = factor_count - 1
    full = compat.full
    if first is None:
        first = full
    assignment = [0] * factor_count
    out = []
    total = 0

    def walk(t):
        nonlocal total
        allowed = full if t else first
        row = factor_masks[t] & ((1 << t) - 1)
        while row and allowed:
            low = row & -row
            allowed &= compat[assignment[low.bit_length() - 1]]
            row ^= low
        if count_only and t == last:
            total += allowed.bit_count()
            return
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            assignment[t] = low.bit_length() - 1
            if t == last:
                out.append(tuple(assignment))
            else:
                walk(t + 1)

    walk(0)
    return total if count_only else out


def _assembly_worker(task):
    factor_masks, sub_masks, first = task
    return _assemble(factor_masks, _compatibility(sub_masks), first=first)


def _worker_count(jobs: int, sub_count: int) -> int:
    """Worker processes worth starting: no more than asked, cores, or sub-codes."""
    return min(jobs, os.cpu_count() or 1, sub_count)


def _run_assembly(factor: Graph, sub_masks, jobs):
    """Every valid assignment, the first factor vertex split across workers."""
    sub_count = len(sub_masks)
    jobs = _worker_count(jobs, sub_count)
    if jobs <= 1 or sub_count < 2 * jobs:
        return _assemble(factor.neighbor_masks, _compatibility(sub_masks))
    firsts = [sum(1 << i for i in range(start, sub_count, jobs)) for start in range(jobs)]
    tasks = [(factor.neighbor_masks, tuple(sub_masks), first) for first in firsts]
    context = multiprocessing.get_context("fork")
    with context.Pool(jobs) as pool:
        parts = pool.map(_assembly_worker, tasks)
    return [assignment for part in parts for assignment in part]


def _member_tuples(params: DoobParams, jobs: int) -> list[tuple[int, ...]]:
    rest, factor = _decompose(params)
    if rest is None:
        return independent_sets_of_size(factor, params.code_size)
    sub_members = _member_tuples(rest, 1)
    sub_masks = [_mask(t) for t in sub_members]
    assignments = _run_assembly(factor, sub_masks, jobs)
    width = factor.vertex_count
    out = []
    for assignment in assignments:
        members = sorted(
            g * width + f for f, i in enumerate(assignment) for g in sub_members[i]
        )
        out.append(tuple(members))
    return out


def _mask(members) -> int:
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def enumerate_mds(
    params: DoobParams, materialize: bool = True, jobs: int = 1, verify: bool = True
) -> EnumerationResult:
    """All maximum independent sets of D(m,n), verified and in canonical order.

    With materialize=False only the count is produced (constant memory in the
    number of codes at the target parameters), by count_mds in this process.
    Otherwise jobs worker processes, at most one per core, split the search.
    """
    check_desk_scale(params)
    if not materialize:
        return EnumerationResult(params, count_mds(params), None)
    tuples = sorted(_member_tuples(params, jobs))
    codes = tuple(Code(params, members) for members in tuples)
    if verify:
        graph = doob_graph(params)
        for position, code in enumerate(codes):
            code.assert_mds(graph, context=f"enumerated code {position}")
    return EnumerationResult(params, len(codes), codes)


def count_mds(params: DoobParams, jobs: int = 1) -> int:
    """Number of maximum independent sets of D(m,n), without materializing them.

    Orbit-weighted: the sub-codes at the first factor vertex are grouped into
    orbits under the symmetries of the rest of the graph, and only one
    representative per orbit is searched.  The count runs in this process
    and jobs has no effect: worker processes only split materialized
    enumeration (enumerate_mds).
    """
    check_desk_scale(params)
    rest, factor = _decompose(params)
    if rest is None:
        return len(independent_sets_of_size(factor, params.code_size))
    sub_masks = [_mask(t) for t in _member_tuples(rest, 1)]
    orbits = orbits_of_masks(sub_masks, doob_symmetries(rest).generators, rest.vertex_count)
    compat = _compatibility(sub_masks)
    return sum(
        len(orbit)
        * _assemble(factor.neighbor_masks, compat, first=1 << orbit[0], count_only=True)
        for orbit in orbits
    )
