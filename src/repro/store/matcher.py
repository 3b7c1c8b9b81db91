"""Centralized BGP matcher (subgraph homomorphism search).

This is the "local evaluation inside one site" engine and also the
ground-truth centralized evaluator used by the tests: finding all matches of
a BGP query over an RDF graph is finding all subgraph homomorphisms from the
query graph to the data graph (Definition 3).

The matcher is a classic backtracking search over the query vertices in a
connectivity-preserving order, with candidate filtering (signatures +
per-edge support) done upfront.  Variables on predicates are supported.
Distinct query vertices may map to the same data vertex (homomorphism, not
isomorphism), matching SPARQL semantics.

The search runs entirely on dense integer ids from
:mod:`repro.store.encoding`, and the per-depth candidate computation is
delegated to a *match runner* (:mod:`repro.store.kernel`): the ``python``
kernel narrows candidates by galloping merge-join over sorted adjacency
lists, and ``sets`` is the original hash-set path kept as the reference
oracle.  The search itself is a batched backtracking frontier — one runner
call computes a whole depth's ordered candidates at once — and both
runners produce the identical match sequence and identical
``search_steps`` (the frontier's pre-consistency candidate count per depth,
exactly what the per-candidate loop used to charge).

Assignments decode back to :class:`~repro.rdf.terms.Node` objects only when
a complete match is yielded.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..planner.optimizer import QueryPlanner
from ..rdf.graph import RDFGraph
from ..rdf.terms import Node, PatternTerm, Variable
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import Binding, ResultSet
from ..sparql.query_graph import QueryGraph, traversal_order
from .encoding import encoded_view
from .kernel import MatchRunner, make_runner, resolve_kernel
from .signatures import SignatureIndex


class LocalMatcher:
    """Find all matches of BGP queries over a single in-memory RDF graph."""

    def __init__(
        self,
        graph: RDFGraph,
        signature_index: Optional[SignatureIndex] = None,
        planner: Optional[QueryPlanner] = None,
        kernel: Optional[str] = None,
    ) -> None:
        self._graph = graph
        self._signatures = signature_index or SignatureIndex(graph)
        self._planner = planner
        #: Kernel name pinned at construction, or ``None`` to resolve the
        #: process default (``$REPRO_KERNEL``, else ``python``) on every
        #: call — so one warm matcher follows the environment.  Only the
        #: parity suites pin the ``sets`` oracle.
        self._kernel = kernel
        #: Number of candidate assignments attempted by the most recent
        #: ``find_matches``/``evaluate`` call (a deterministic work measure
        #: used by the planner benchmarks).
        self.search_steps = 0
        #: Candidate-column intersection operations the most recent call
        #: performed (the kernel's work measure; observability only — unlike
        #: ``search_steps`` it may differ between kernels).
        self.kernel_intersections = 0
        #: Kernel name the most recent call actually ran with.
        self.last_kernel = ""

    @property
    def graph(self) -> RDFGraph:
        return self._graph

    @property
    def signatures(self) -> SignatureIndex:
        return self._signatures

    @property
    def planner(self) -> Optional[QueryPlanner]:
        return self._planner

    @property
    def kernel(self) -> str:
        """The kernel name a call made right now would run with."""
        return resolve_kernel(self._kernel)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, query: SelectQuery) -> ResultSet:
        """Evaluate a SELECT/ASK query and return its solutions.

        Disconnected BGPs are evaluated one connected component at a time and
        combined with a cross product, mirroring the paper's assumption that
        connected components are considered separately.
        """
        components = query.bgp.connected_components()
        if not components:
            return ResultSet([], query.effective_projection)
        partial: List[List[Dict[PatternTerm, Node]]] = []
        steps = 0
        intersections = 0
        for component in components:
            graph = QueryGraph(component)
            partial.append(list(self.find_matches(graph)))
            steps += self.search_steps
            intersections += self.kernel_intersections
        self.search_steps = steps
        self.kernel_intersections = intersections
        combined = partial[0]
        for extra in partial[1:]:
            combined = [{**left, **right} for left in combined for right in extra]
        bindings = [self._to_binding(assignment) for assignment in combined]
        results = ResultSet(bindings, query.variables)
        projected = results.project(query.effective_projection, distinct=query.distinct)
        return projected.limit(query.limit)

    def find_matches(
        self,
        query: QueryGraph,
        order: Optional[Sequence[PatternTerm]] = None,
    ) -> Iterator[Dict[PatternTerm, Node]]:
        """Yield complete assignments (query vertex → data vertex) for ``query``.

        The vertex visit order is, in priority: the explicit ``order``
        argument, the attached planner's cost-based order, or the seed's
        static :func:`traversal_order`.  Any permutation of the query
        vertices yields the same matches — the order only changes how much
        of the search space is explored before failures are detected.
        """
        self.search_steps = 0
        self.kernel_intersections = 0
        kernel = resolve_kernel(self._kernel)
        self.last_kernel = kernel
        encoded = encoded_view(self._graph)
        runner = make_runner(kernel, encoded, self._signatures)
        try:
            pools = runner.compute_pools(query)
            if any(len(pools[vertex]) == 0 for vertex in query.vertices):
                return
            if order is not None:
                chosen = list(order)
            elif self._planner is not None:
                chosen = self._planner.order_for(query)
            else:
                chosen = traversal_order(query)
            compiled = runner.compile(query, chosen, pools)
            assignment: List[Optional[int]] = [None] * query.num_vertices
            term_of = encoded.dictionary.term_of
            positions = range(len(compiled))
            for _ in self._extend(assignment, compiled, runner):
                # The inner generator is suspended with every slot assigned,
                # so the complete match decodes straight off the assignment.
                yield {
                    chosen[position]: term_of(assignment[compiled[position].index])
                    for position in positions
                }
        finally:
            self.kernel_intersections += runner.intersections

    def count_matches(self, query: QueryGraph) -> int:
        """Number of complete matches (used by benchmarks)."""
        return sum(1 for _ in self.find_matches(query))

    # ------------------------------------------------------------------
    # Backtracking search (batched frontier over the kernel runner)
    # ------------------------------------------------------------------
    def _extend(
        self,
        assignment: List[Optional[int]],
        compiled: List[object],
        runner: MatchRunner,
    ) -> Iterator[None]:
        """DFS over the compiled vertices; yields once per complete match.

        Iterative (an explicit per-depth frame stack) rather than nested
        generators: every yielded match would otherwise bubble through one
        generator frame per query vertex.  Each depth's candidate frontier
        is computed in one batched runner call when the depth is first
        entered; ``tried`` — the frontier size before residual consistency
        filtering — is charged to ``search_steps`` right there, exactly the
        count the old per-candidate loop accumulated lazily (all callers
        consume the generator fully, so the totals are identical).
        """
        if not compiled:
            yield None
            return
        frontier = runner.frontier
        last = len(compiled) - 1
        stack: List[Optional[List[object]]] = [None] * len(compiled)
        depth = 0
        while depth >= 0:
            frame = stack[depth]
            if frame is None:
                survivors, tried = frontier(compiled[depth], assignment)
                self.search_steps += tried
                frame = [survivors, 0]
                stack[depth] = frame
            survivors, position = frame
            if position == len(survivors):
                stack[depth] = None
                assignment[compiled[depth].index] = None
                depth -= 1
                continue
            frame[1] = position + 1
            assignment[compiled[depth].index] = survivors[position]
            if depth == last:
                yield None  # the caller reads the complete assignment in place
            else:
                depth += 1

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _to_binding(assignment: Dict[PatternTerm, Node]) -> Binding:
        return Binding({vertex: value for vertex, value in assignment.items() if isinstance(vertex, Variable)})


def evaluate_centralized(
    graph: RDFGraph,
    query: SelectQuery,
    planner: Optional[QueryPlanner] = None,
) -> ResultSet:
    """One-shot convenience wrapper: evaluate ``query`` over ``graph`` centrally."""
    return LocalMatcher(graph, planner=planner).evaluate(query)
