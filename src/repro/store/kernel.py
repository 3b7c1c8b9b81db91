"""The sorted-column matching kernel: merge-join intersection over sorted ids.

The matcher works on dense integer ids (:mod:`repro.store.encoding`).  This
module holds the substrate under its hot loops: flat sorted columns
(contiguous value lists with per-row offset bounds) over which candidate
narrowing is a galloping ``bisect`` merge-join instead of per-element hash
probes.  One production kernel and one oracle implement one interface:

* ``python`` — the sorted-column kernel, the default.
* ``sets``   — the earlier set-based path, kept verbatim as the reference
  oracle the parity suites and ``bench_kernel.py`` compare against.  It is
  selected only through ``LocalMatcher(kernel=)`` or ``$REPRO_KERNEL``.

The choice never changes results: both yield the identical match *sequence*
and the identical ``search_steps`` counter (see ``docs/performance.md`` for
why the decomposition is exact).

The sorted columns live on the :class:`~repro.store.encoding.EncodedGraph`,
are built lazily per predicate, memoized per graph version, and invalidated
*per predicate* when ``apply_ops`` patches the encoding — an incremental
mutation touches only the mutated predicates' columns, everything else
stays warm.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import IRI, Literal, PatternTerm, Variable
from ..sparql.query_graph import QueryEdge, QueryGraph
from .encoding import PREDICATE_ANY, EncodedGraph, predicate_code

#: The sorted-column kernel (the production default).
KERNEL_PYTHON = "python"
#: The set-based reference path (the parity oracle).
KERNEL_SETS = "sets"
#: Every selectable kernel, in preference order.
KERNEL_CHOICES = (KERNEL_PYTHON, KERNEL_SETS)
#: Environment variable overriding the kernel for the whole process (and,
#: through environment inheritance, for process-pool workers).
KERNEL_ENV = "REPRO_KERNEL"


def default_kernel() -> str:
    """The kernel this process runs without explicit selection.

    ``$REPRO_KERNEL`` wins when set; otherwise ``python``.
    """
    env = os.environ.get(KERNEL_ENV)
    if env:
        return resolve_kernel(env)
    return KERNEL_PYTHON


def resolve_kernel(name: Optional[str] = None) -> str:
    """Validate ``name`` (``None`` means :func:`default_kernel`).

    Raises ``ValueError`` for unknown names, listing the valid choices — the
    same error contract as every other bad argument in the package.
    """
    if name is None:
        return default_kernel()
    if name not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {name!r}; choose from: {', '.join(KERNEL_CHOICES)}"
        )
    return name


# ----------------------------------------------------------------------
# Sorted adjacency columns (cached per EncodedGraph)
# ----------------------------------------------------------------------
class SortedColumn:
    """One predicate-direction's CSR adjacency: sorted keys, offset rows.

    ``values`` is a flat Python list (contiguous sorted rows), so the gallop
    path probes it with ``bisect_left(values, item, lo, hi)`` — no slicing,
    no element boxing.
    """

    __slots__ = ("keys", "values", "offsets", "_rows")

    def __init__(self, rows: List[Tuple[int, Sequence[int]]]) -> None:
        #: Every row key in sorted order (the predicate's endpoint pool).
        self.keys: List[int] = [key for key, _ in rows]
        flat: List[int] = []
        offsets = [0]
        for _, row_values in rows:
            flat.extend(row_values)
            offsets.append(len(flat))
        self.values = flat
        self.offsets = offsets
        self._rows = {key: position for position, (key, _) in enumerate(rows)}

    def bounds(self, key: int) -> Optional[Tuple[int, int]]:
        """``(lo, hi)`` bounds of ``key``'s row in ``values`` (None if absent)."""
        position = self._rows.get(key)
        if position is None:
            return None
        return self.offsets[position], self.offsets[position + 1]

    def row(self, key: int) -> List[int]:
        """The sorted neighbour ids of ``key`` (empty list when absent)."""
        span = self.bounds(key)
        if span is None:
            return []
        return self.values[span[0] : span[1]]


class SortedAdjacency:
    """Per-predicate sorted adjacency columns over one :class:`EncodedGraph`.

    Columns are built lazily (first probe of a predicate/direction pair) and
    memoized until :meth:`invalidate` drops exactly the predicates an
    ``apply_ops`` patch touched — the incremental counterpart of
    :func:`~repro.store.encoding.patch_encoded_view`.  The memoized
    :meth:`vertex_pool` / column keys are also the once-per-version sorted
    candidate pools the matcher reuses across warm-session queries (they
    replace the per-query ``sorted(pool)`` of the set path).
    """

    __slots__ = ("encoded", "_out", "_in", "_vertex_pool")

    def __init__(self, encoded: EncodedGraph) -> None:
        self.encoded = encoded
        self._out: Dict[int, SortedColumn] = {}
        self._in: Dict[int, SortedColumn] = {}
        self._vertex_pool: Optional[List[int]] = None

    def invalidate(self, codes: Set[int]) -> None:
        """Drop the columns for the mutated predicates (and the ANY rollups)."""
        for code in codes:
            self._out.pop(code, None)
            self._in.pop(code, None)
        self._out.pop(PREDICATE_ANY, None)
        self._in.pop(PREDICATE_ANY, None)
        self._vertex_pool = None

    @staticmethod
    def _build(source: Dict[int, Set[int]], keys) -> SortedColumn:
        return SortedColumn([(key, sorted(source[key])) for key in sorted(keys)])

    def out_column(self, code: int) -> SortedColumn:
        """The subject→objects column of ``code`` (empty for absent codes)."""
        column = self._out.get(code)
        if column is None:
            encoded = self.encoded
            if code == PREDICATE_ANY:
                column = self._build(encoded._out_nbrs, encoded._out_nbrs)
            elif code >= 0:
                subjects = encoded._p_subjects.get(code, ())
                column = self._build(
                    {s: encoded._spo[s][code] for s in subjects}, subjects
                )
            else:
                column = SortedColumn([])
            self._out[code] = column
        return column

    def in_column(self, code: int) -> SortedColumn:
        """The object→subjects column of ``code`` (empty for absent codes)."""
        column = self._in.get(code)
        if column is None:
            encoded = self.encoded
            if code == PREDICATE_ANY:
                column = self._build(encoded._in_nbrs, encoded._in_nbrs)
            elif code >= 0:
                by_object = encoded._pos.get(code, {})
                column = self._build(by_object, by_object)
            else:
                column = SortedColumn([])
            self._in[code] = column
        return column

    # -- kernel probes (sorted-list counterparts of EncodedGraph's) --------
    def objects_from(self, subject_id: int, code: int) -> List[int]:
        """Sorted ids of objects reached from ``subject_id`` via ``code``."""
        return self.out_column(code).row(subject_id)

    def subjects_to(self, code: int, object_id: int) -> List[int]:
        """Sorted ids of subjects reaching ``object_id`` via ``code``."""
        return self.in_column(code).row(object_id)

    def subject_keys(self, code: int) -> List[int]:
        """Sorted ids of all subjects of ``code`` (memoized per version)."""
        return self.out_column(code).keys

    def object_keys(self, code: int) -> List[int]:
        """Sorted ids of all objects of ``code`` (memoized per version)."""
        return self.in_column(code).keys

    def vertex_pool(self) -> List[int]:
        """Every vertex id in candidate-sort order.

        Memoized per graph version — the "all vertices" candidate pool is
        sorted once, not once per query.
        """
        pool = self._vertex_pool
        if pool is None:
            pool = list(self.encoded.sorted_vertex_ids)
            self._vertex_pool = pool
        return pool


def adjacency_view(encoded: EncodedGraph) -> SortedAdjacency:
    """The (cached) sorted-column adjacency of ``encoded``."""
    adjacency = encoded._kernel_adjacency
    if adjacency is None:
        adjacency = SortedAdjacency(encoded)
        encoded._kernel_adjacency = adjacency
    return adjacency


# ----------------------------------------------------------------------
# Compiled query vertices (one shape per runner family)
# ----------------------------------------------------------------------
class CompiledSetVertex:
    """The PR 5 compiled vertex: id-set pool plus integer edge tuples."""

    __slots__ = ("index", "pool", "sorted_pool", "narrow_edges", "check_edges")

    def __init__(
        self,
        index: int,
        pool: Set[int],
        narrow_edges: List[Tuple[bool, int, int]],
        check_edges: List[Tuple[bool, int, bool, int, int]],
    ) -> None:
        self.index = index
        self.pool = pool
        #: Ids sort exactly like the old ``(type, n3)`` candidate order, so
        #: this sort happens once per query instead of once per search step.
        self.sorted_pool = sorted(pool)
        #: ``(vertex_is_subject, predicate_code, other_vertex_index)`` per
        #: incident non-loop edge, in query-edge order.
        self.narrow_edges = narrow_edges
        #: ``(subject_is_self, subject_index, object_is_self, object_index,
        #: predicate_code)`` per incident edge (loops included).
        self.check_edges = check_edges


class CompiledArrayVertex:
    """A query vertex compiled for the sorted-column kernel.

    The pool is already in id (= candidate) order — pools come out of
    :meth:`ArrayRunner.compute_pools` sorted.  Narrowing carries only the
    non-loop incident edges, pre-resolved to their adjacency columns; the
    only residual per-candidate checks are self-loops: a non-loop edge
    toward an *assigned* neighbour is enforced by intersecting that
    neighbour's adjacency row into the frontier, and an edge toward an
    unassigned neighbour is checked when that neighbour's own frontier
    narrows through this vertex — exactly the cases the set path's
    ``_consistent`` covers.
    """

    __slots__ = ("index", "pool", "narrow_columns", "loop_codes")

    def __init__(
        self,
        index: int,
        pool: List[int],
        narrow_columns: List[Tuple[Dict[int, int], List[int], List[int], int]],
        loop_codes: List[int],
    ) -> None:
        self.index = index
        self.pool = pool
        #: ``(row index, offsets, values, other_vertex_index)`` per incident
        #: non-loop edge — the internals of the adjacency column whose row at
        #: the other endpoint's assignment narrows this vertex's frontier,
        #: flattened so the per-depth hot loop runs on plain dict/list
        #: lookups.  Columns never change within one ``find_matches`` call
        #: (invalidation happens on graph mutation, between calls), so
        #: caching their internals here is safe.
        self.narrow_columns = narrow_columns
        self.loop_codes = loop_codes


# ----------------------------------------------------------------------
# Match runners: one per kernel, one interface
# ----------------------------------------------------------------------
class MatchRunner:
    """One ``find_matches`` call's kernel state (never shared across calls).

    The matcher drives the same three steps whatever the kernel:
    :meth:`compute_pools` (per-vertex candidate pools, sorted in id order),
    :meth:`compile` (query vertices to integer tuples in visit order), and
    :meth:`frontier` (the batched candidate list for one search depth).
    ``intersections`` counts candidate-set merge operations — the work
    metric behind ``repro_kernel_intersections_total``.
    """

    kernel = ""

    def __init__(self, encoded: EncodedGraph, signature_index) -> None:
        self.encoded = encoded
        self.signatures = signature_index
        #: Candidate-pool/frontier intersection operations performed so far.
        self.intersections = 0

    def compute_pools(
        self,
        query: QueryGraph,
        relaxed_edges: Optional[Dict[PatternTerm, Set[int]]] = None,
    ) -> Dict[PatternTerm, Sequence[int]]:
        raise NotImplementedError

    def compile(self, query, order, pools) -> List[object]:
        raise NotImplementedError

    def frontier(
        self, vertex, assignment: List[Optional[int]]
    ) -> Tuple[List[int], int]:
        """``(surviving candidates, candidates tried)`` for one search depth.

        ``tried`` is the number of ordered candidates *before* the residual
        consistency filter — exactly what the set path charged
        ``search_steps`` per depth, so totals agree bit-for-bit.
        """
        raise NotImplementedError


class SetRunner(MatchRunner):
    """The PR 5 reference kernel: hash-set narrowing + per-edge probes."""

    kernel = KERNEL_SETS

    def compute_pools(self, query, relaxed_edges=None):
        from .candidates import compute_candidate_ids

        return compute_candidate_ids(
            self.encoded, query, self.signatures, relaxed_edges, kernel=KERNEL_SETS
        )

    def compile(self, query, order, pools):
        compiled: List[CompiledSetVertex] = []
        encoded = self.encoded
        for vertex in order:
            vertex_index = query.vertex_index(vertex)
            narrow_edges: List[Tuple[bool, int, int]] = []
            check_edges: List[Tuple[bool, int, bool, int, int]] = []
            for edge in query.edges_of(vertex):
                code = predicate_code(encoded, edge.predicate)
                subject_index = query.vertex_index(edge.subject)
                object_index = query.vertex_index(edge.object)
                check_edges.append(
                    (
                        edge.subject == vertex,
                        subject_index,
                        edge.object == vertex,
                        object_index,
                        code,
                    )
                )
                other = edge.other_endpoint(vertex)
                if other == vertex:
                    continue  # self-loop: no already-assigned "other" side
                if edge.subject == vertex:
                    narrow_edges.append((True, code, object_index))
                else:
                    narrow_edges.append((False, code, subject_index))
            compiled.append(
                CompiledSetVertex(vertex_index, pools[vertex], narrow_edges, check_edges)
            )
        return compiled

    def frontier(self, vertex, assignment):
        encoded = self.encoded
        narrowed: Optional[Set[int]] = None
        for is_subject, code, other_index in vertex.narrow_edges:
            other_value = assignment[other_index]
            if other_value is None:
                continue
            if is_subject:
                reachable = encoded.subjects_to(code, other_value)
            else:
                reachable = encoded.objects_from(other_value, code)
            if narrowed is None:
                narrowed = reachable
            else:
                narrowed = narrowed & reachable
                self.intersections += 1
            if not narrowed:
                return [], 0
        if narrowed is None:
            ordered: Sequence[int] = vertex.sorted_pool
        else:
            narrowed = narrowed & vertex.pool
            self.intersections += 1
            if not narrowed:
                return [], 0
            ordered = sorted(narrowed)
        tried = len(ordered)
        survivors = [
            candidate
            for candidate in ordered
            if self._consistent(vertex, candidate, assignment)
        ]
        return survivors, tried

    def _consistent(self, vertex, candidate: int, assignment) -> bool:
        """Check every query edge between ``vertex`` and determined vertices."""
        has_edge = self.encoded.has_edge
        for subject_is_self, subject_index, object_is_self, object_index, code in (
            vertex.check_edges
        ):
            subject_value = candidate if subject_is_self else assignment[subject_index]
            object_value = candidate if object_is_self else assignment[object_index]
            if subject_value is None or object_value is None:
                continue
            if not has_edge(subject_value, code, object_value):
                return False
        return True


class ArrayRunner(MatchRunner):
    """The sorted-column kernel (``python``).

    Candidate pools and frontiers are sorted lists; narrowing is a merge-join
    over the adjacency rows of already-assigned neighbours (plus the pool
    itself), smallest row driving.  Because every non-loop incident edge
    toward an assigned vertex participates in the merge, the only residual
    per-candidate check is the self-loop probe — the set path's consistency
    verdicts are reproduced exactly, at merge-join cost.
    """

    kernel = KERNEL_PYTHON

    def __init__(self, encoded, signature_index) -> None:
        super().__init__(encoded, signature_index)
        self.adjacency = adjacency_view(encoded)

    # -- candidate pools -------------------------------------------------
    def compute_pools(self, query, relaxed_edges=None):
        relaxed_edges = relaxed_edges or {}
        pools: Dict[PatternTerm, List[int]] = {}
        for query_vertex in query.vertices:
            if isinstance(query_vertex, (IRI, Literal)):
                vertex_id = self.encoded.dictionary.get(query_vertex)
                if vertex_id is not None and self.encoded.is_vertex(vertex_id):
                    pools[query_vertex] = [vertex_id]
                else:
                    pools[query_vertex] = []
            else:
                pools[query_vertex] = self._variable_pool(
                    query, query_vertex, relaxed_edges.get(query_vertex, set())
                )
        return pools

    def _endpoint_column(self, edge: QueryEdge, query_vertex: PatternTerm) -> List[int]:
        """Sorted ids that could sit at ``query_vertex``'s end of ``edge``.

        The sorted-column counterpart of the set path's per-edge endpoint
        sets: membership in this list *is* edge support, so the same list
        drives both seeding and support filtering.
        """
        encoded = self.encoded
        adjacency = self.adjacency
        code = predicate_code(encoded, edge.predicate)
        if edge.subject == query_vertex:
            other = edge.object
            if isinstance(other, Variable):
                return adjacency.subject_keys(code)
            other_id = encoded.dictionary.get(other)
            if other_id is None:
                return []
            return adjacency.subjects_to(code, other_id)
        other = edge.subject
        if isinstance(other, Variable):
            return adjacency.object_keys(code)
        other_id = encoded.dictionary.get(other)
        if other_id is None:
            return []
        return adjacency.objects_from(other_id, code)

    def _variable_pool(self, query, query_vertex, relaxed: Set[int]) -> List[int]:
        required = [
            edge for edge in query.edges_of(query_vertex) if edge.index not in relaxed
        ]
        if not required:
            # Every incident edge was relaxed: any vertex could match.
            return self.adjacency.vertex_pool()
        columns = []
        for edge in required:
            column = self._endpoint_column(edge, query_vertex)
            if not column:
                return []
            columns.append(column)
        seed_position = min(range(len(columns)), key=lambda i: len(columns[i]))
        seed = columns[seed_position]
        needed = self.signatures.query_signature(
            query, query_vertex, skip_edges=relaxed
        ).bits
        others = [
            column
            for position, column in enumerate(columns)
            if position != seed_position
        ]
        bits_by_id = self.signatures.bits_matrix(self.encoded)
        survivors = []
        self.intersections += len(others)
        for vertex_id in seed:
            if needed and (bits_by_id[vertex_id] & needed) != needed:
                continue
            supported = True
            for column in others:
                position = bisect_left(column, vertex_id)
                if position >= len(column) or column[position] != vertex_id:
                    supported = False
                    break
            if supported:
                survivors.append(vertex_id)
        return survivors

    # -- compilation -----------------------------------------------------
    def compile(self, query, order, pools):
        compiled: List[CompiledArrayVertex] = []
        encoded = self.encoded
        adjacency = self.adjacency
        for vertex in order:
            vertex_index = query.vertex_index(vertex)
            narrow_columns = []
            loop_codes: List[int] = []
            for edge in query.edges_of(vertex):
                code = predicate_code(encoded, edge.predicate)
                if edge.other_endpoint(vertex) == vertex:
                    loop_codes.append(code)
                    continue
                # The row to intersect is keyed by the *other* endpoint's
                # assignment: vertex-as-subject narrows through the inbound
                # column of the object, and vice versa.
                if edge.subject == vertex:
                    column = adjacency.in_column(code)
                    other_index = query.vertex_index(edge.object)
                else:
                    column = adjacency.out_column(code)
                    other_index = query.vertex_index(edge.subject)
                narrow_columns.append(
                    (column._rows, column.offsets, column.values, other_index)
                )
            compiled.append(
                CompiledArrayVertex(vertex_index, pools[vertex], narrow_columns, loop_codes)
            )
        return compiled

    # -- the batched frontier --------------------------------------------
    def frontier(self, vertex, assignment):
        spans = None
        for rows, offsets, values, other_index in vertex.narrow_columns:
            other_value = assignment[other_index]
            if other_value is None:
                continue
            position = rows.get(other_value)
            if position is None:
                return [], 0
            lo = offsets[position]
            hi = offsets[position + 1]
            if spans is None:
                spans = [(hi - lo, values, lo, hi)]
            else:
                spans.append((hi - lo, values, lo, hi))
        if spans is None:
            # Nothing adjacent assigned yet (always the case at depth 0):
            # the frontier is the whole pool.
            survivors = vertex.pool
        else:
            pool = vertex.pool
            spans.append((len(pool), pool, 0, len(pool)))
            # The smallest span drives the merge; the rest are probe targets
            # (their relative order does not matter, so no sort).
            best = 0
            for position in range(1, len(spans)):
                if spans[position][0] < spans[best][0]:
                    best = position
            _, values, lo, hi = spans[best]
            rest = spans[:best] + spans[best + 1 :]
            self.intersections += len(rest)
            # Gallop: iterate the smallest row in place, probe the other
            # rows with bounded bisects on the flat lists.
            survivors = []
            add = survivors.append
            for position in range(lo, hi):
                item = values[position]
                for _, other_values, other_lo, other_hi in rest:
                    probe = bisect_left(other_values, item, other_lo, other_hi)
                    if probe >= other_hi or other_values[probe] != item:
                        break
                else:
                    add(item)
        tried = len(survivors)
        if vertex.loop_codes:
            has_edge = self.encoded.has_edge
            for code in vertex.loop_codes:
                survivors = [
                    candidate
                    for candidate in survivors
                    if has_edge(candidate, code, candidate)
                ]
        return survivors, tried


def make_runner(kernel: str, encoded: EncodedGraph, signature_index) -> MatchRunner:
    """One fresh per-call runner for ``kernel`` (already resolved)."""
    if kernel == KERNEL_SETS:
        return SetRunner(encoded, signature_index)
    return ArrayRunner(encoded, signature_index)
