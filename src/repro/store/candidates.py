"""Per-variable candidate computation.

Existing RDF stores (the paper names gStore's filter-and-evaluate design)
first compute a candidate set for every query variable, then run subgraph
matching over those candidates.  The candidate sets are also the raw
material of the paper's third optimization (Section VI): each site computes
the *internal* candidates of every variable, compresses them into a bit
vector, and the coordinator ORs the vectors so sites can discard extended
candidates that are internal nowhere.

The computation runs on the graph's dictionary-encoded view
(:mod:`repro.store.encoding`): seeds, edge-support probes and signature
containment all work on integer ids, and the resulting id sets are decoded
to :class:`~repro.rdf.terms.Node` sets only at this module's public
boundary.  :func:`compute_candidate_ids` is the kernel-side entry point the
matcher uses directly, skipping the decode/re-encode round trip.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..rdf.graph import RDFGraph
from ..rdf.terms import IRI, Literal, Node, PatternTerm, Variable
from ..sparql.query_graph import QueryEdge, QueryGraph
from .encoding import (
    PREDICATE_ABSENT,
    PREDICATE_ANY,
    EncodedGraph,
    encoded_view,
    predicate_code,
)
from .signatures import SignatureIndex

__all__ = [
    "predicate_code",
    "edge_supported",
    "compute_candidate_ids",
    "compute_candidates",
    "candidate_sizes",
]


def edge_supported(
    graph: RDFGraph,
    vertex: Node,
    query: QueryGraph,
    query_vertex: PatternTerm,
    edge_index: int,
) -> bool:
    """Does ``vertex`` have at least one incident data edge matching query edge ``edge_index``?

    Only the direction and (constant) predicate are checked, plus the other
    endpoint when it is a constant; the other endpoint being a variable means
    any neighbour will do.
    """
    encoded = encoded_view(graph)
    vertex_id = encoded.dictionary.get(vertex)
    if vertex_id is None:
        return False
    edge = query.edge_at(edge_index)
    if query_vertex not in (edge.subject, edge.object):
        raise ValueError("query vertex is not an endpoint of the given edge")
    return _edge_supported_id(encoded, vertex_id, edge, query_vertex)


def _edge_supported_id(
    encoded: EncodedGraph,
    vertex_id: int,
    edge: QueryEdge,
    query_vertex: PatternTerm,
) -> bool:
    """Integer-kernel edge-support probe (see :func:`edge_supported`)."""
    code = predicate_code(encoded, edge.predicate)
    if edge.subject == query_vertex:
        other = edge.object
        if isinstance(other, Variable):
            return encoded.has_out_edge(vertex_id, code)
        other_id = encoded.dictionary.get(other)
        return other_id is not None and encoded.has_edge(vertex_id, code, other_id)
    other = edge.subject
    if isinstance(other, Variable):
        return encoded.has_in_edge(vertex_id, code)
    other_id = encoded.dictionary.get(other)
    return other_id is not None and encoded.has_edge(other_id, code, vertex_id)


def compute_candidate_ids(
    encoded: EncodedGraph,
    query: QueryGraph,
    signature_index: SignatureIndex,
    relaxed_edges: Optional[Dict[PatternTerm, Set[int]]] = None,
    kernel: Optional[str] = None,
) -> Dict[PatternTerm, Set[int]]:
    """Candidate *ids* for every query vertex — the matcher's fast path.

    Same semantics as :func:`compute_candidates` (without ``restrict_to``),
    but input and output stay in the integer domain of ``encoded``.

    ``kernel`` picks the filtering substrate (``None`` means the process
    default, :func:`repro.store.kernel.default_kernel`): the ``python``
    kernel filters the seed pool by sorted-column membership, the ``sets``
    oracle by per-edge probes.  The choice never changes the returned sets
    — only how fast they are computed.
    """
    from .kernel import KERNEL_SETS, make_runner, resolve_kernel

    kernel = resolve_kernel(kernel)
    if kernel != KERNEL_SETS:
        runner = make_runner(kernel, encoded, signature_index)
        pools = runner.compute_pools(query, relaxed_edges)
        return {vertex: set(pool) for vertex, pool in pools.items()}
    relaxed_edges = relaxed_edges or {}
    candidates: Dict[PatternTerm, Set[int]] = {}
    for query_vertex in query.vertices:
        relaxed = relaxed_edges.get(query_vertex, set())
        if isinstance(query_vertex, (IRI, Literal)):
            vertex_id = encoded.dictionary.get(query_vertex)
            if vertex_id is not None and encoded.is_vertex(vertex_id):
                candidates[query_vertex] = {vertex_id}
            else:
                candidates[query_vertex] = set()
        else:
            candidates[query_vertex] = _variable_candidate_ids(
                encoded, query, query_vertex, signature_index, relaxed
            )
    return candidates


def compute_candidates(
    graph: RDFGraph,
    query: QueryGraph,
    signature_index: Optional[SignatureIndex] = None,
    relaxed_edges: Optional[Dict[PatternTerm, Set[int]]] = None,
    restrict_to: Optional[Set[Node]] = None,
) -> Dict[PatternTerm, Set[Node]]:
    """Compute a candidate set for every query vertex.

    Parameters
    ----------
    graph:
        The data graph (a whole RDF graph, or one fragment's graph).
    query:
        The query graph.
    signature_index:
        Optional pre-built signature index over ``graph``; built on demand
        when omitted.
    relaxed_edges:
        Per query vertex, indices of query edges whose support must *not* be
        required.  Sites use this for extended vertices, whose edges inside
        other fragments are invisible locally.
    restrict_to:
        Optional universe to intersect every candidate set with (e.g. only
        internal vertices of a fragment).

    Returns
    -------
    dict
        Mapping each query vertex (constant vertices included) to the set of
        data vertices that could match it based on local-only checks.
    """
    encoded = encoded_view(graph)
    index = signature_index or SignatureIndex(graph)
    id_candidates = compute_candidate_ids(encoded, query, index, relaxed_edges)
    decode = encoded.dictionary.decode_ids
    candidates: Dict[PatternTerm, Set[Node]] = {}
    for query_vertex, ids in id_candidates.items():
        found = decode(ids)
        if restrict_to is not None:
            found &= restrict_to
        candidates[query_vertex] = found
    return candidates


def _variable_candidate_ids(
    encoded: EncodedGraph,
    query: QueryGraph,
    query_vertex: PatternTerm,
    index: SignatureIndex,
    relaxed: Set[int],
) -> Set[int]:
    required_edges = [edge for edge in query.edges_of(query_vertex) if edge.index not in relaxed]
    if not required_edges:
        # Every incident edge was relaxed: any vertex could match.
        return set(encoded.vertex_ids)
    # Seed with the most selective incident edge to avoid scanning all vertices.
    seed: Optional[Set[int]] = None
    for edge in required_edges:
        matching = _edge_endpoint_ids(encoded, edge, query_vertex)
        if seed is None or len(matching) < len(seed):
            seed = matching
        if not seed:
            return set()
    assert seed is not None
    needed = index.query_signature(query, query_vertex, skip_edges=relaxed).bits
    signature_bits = index.bits_matrix(encoded)
    survivors: Set[int] = set()
    for vertex_id in seed:
        if (signature_bits[vertex_id] & needed) != needed:
            continue
        if all(
            _edge_supported_id(encoded, vertex_id, edge, query_vertex)
            for edge in required_edges
        ):
            survivors.add(vertex_id)
    return survivors


def _edge_endpoint_ids(
    encoded: EncodedGraph, edge: QueryEdge, query_vertex: PatternTerm
) -> Set[int]:
    """Ids of data vertices that could sit at ``query_vertex``'s end of ``edge``.

    Returns live index sets — callers only iterate them, never mutate.
    """
    code = predicate_code(encoded, edge.predicate)
    if edge.subject == query_vertex:
        other = edge.object
        if isinstance(other, Variable):
            return encoded.subjects_of_predicate(code)
        other_id = encoded.dictionary.get(other)
        if other_id is None:
            return set()
        return encoded.subjects_to(code, other_id)
    other = edge.subject
    if isinstance(other, Variable):
        return encoded.objects_of_predicate(code)
    other_id = encoded.dictionary.get(other)
    if other_id is None:
        return set()
    return encoded.objects_from(other_id, code)


def candidate_sizes(candidates: Dict[PatternTerm, Set[Node]]) -> Dict[str, int]:
    """Small helper used by statistics and logging."""
    return {vertex.n3(): len(values) for vertex, values in candidates.items()}
