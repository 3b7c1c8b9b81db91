"""Local triple store substrate: encoding, signatures, candidates, matcher, store facade."""

from .candidates import candidate_sizes, compute_candidates, edge_supported
from .encoding import EncodedGraph, TermDictionary, encoded_view
from .kernel import (
    KERNEL_CHOICES,
    KERNEL_ENV,
    KERNEL_PYTHON,
    KERNEL_SETS,
    default_kernel,
    resolve_kernel,
)
from .matcher import LocalMatcher, evaluate_centralized
from .signatures import DEFAULT_SIGNATURE_BITS, SignatureIndex, VertexSignature
from .triple_store import TripleStore

__all__ = [
    "DEFAULT_SIGNATURE_BITS",
    "EncodedGraph",
    "KERNEL_CHOICES",
    "KERNEL_ENV",
    "KERNEL_PYTHON",
    "KERNEL_SETS",
    "LocalMatcher",
    "SignatureIndex",
    "TermDictionary",
    "TripleStore",
    "VertexSignature",
    "candidate_sizes",
    "compute_candidates",
    "default_kernel",
    "edge_supported",
    "encoded_view",
    "evaluate_centralized",
    "resolve_kernel",
]
