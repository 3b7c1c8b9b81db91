"""Snapshot of the public API surface.

Anything exported from ``repro`` or ``repro.api`` is a compatibility
promise: downstream code imports these names, and the docs reference them.
This test freezes the surface so an accidental rename/removal fails CI; a
*deliberate* change updates the snapshot here (and ``docs/api.md``).
"""

import dataclasses
import re
from pathlib import Path

import pytest

import repro
import repro.api
import repro.bench

#: Everything ``repro`` exports — keep sorted.
REPRO_EXPORTS = [
    "ABLATION_CONFIGS",
    "AppliedDelta",
    "AsyncSession",
    "Binding",
    "CentralizedEngine",
    "Cluster",
    "ClusterStore",
    "DistributedResult",
    "EngineConfig",
    "ExecutorBackend",
    "FaultPlan",
    "GStoreDEngine",
    "GraphStatistics",
    "HashPartitioner",
    "IRI",
    "LECFeature",
    "Literal",
    "LocalMatcher",
    "LocalPartialMatch",
    "MetisLikePartitioner",
    "MetricsRegistry",
    "Namespace",
    "NamespaceManager",
    "OptimizationLevel",
    "PartitionedGraph",
    "QueryEngine",
    "QueryPlan",
    "QueryPlanner",
    "QueryServer",
    "QueryStatistics",
    "RDFGraph",
    "Result",
    "ResultSet",
    "RetryPolicy",
    "SelectQuery",
    "SemanticHashPartitioner",
    "SerialBackend",
    "Session",
    "ShipmentSnapshot",
    "StageProfiler",
    "StoreError",
    "ThreadPoolBackend",
    "Trace",
    "Tracer",
    "Triple",
    "TripleStore",
    "Variable",
    "__version__",
    "build_cluster",
    "collect_statistics",
    "engine_names",
    "evaluate_centralized",
    "make_backend",
    "make_engine",
    "make_partitioner",
    "open",
    "open_session",
    "parse_query",
    "partitioning_cost",
    "run_per_site",
    "select_best_partitioning",
]

#: Everything ``repro.api`` exports — keep sorted.
REPRO_API_EXPORTS = [
    "AdmissionController",
    "AdmissionError",
    "AsyncSession",
    "CentralizedEngine",
    "EngineAdapter",
    "EngineSpec",
    "QueryBatch",
    "QueryEngine",
    "QueryServer",
    "Result",
    "ResultCache",
    "STAGE_CENTRALIZED",
    "Session",
    "engine_aliases",
    "engine_names",
    "engine_spec",
    "engine_specs",
    "make_engine",
    "open",
    "open_session",
    "register_engine",
    "resolve_engine_name",
    "result_cache_key",
]

#: The engine registry is part of the CLI and docs contract too.
ENGINE_REGISTRY_SNAPSHOT = ("centralized", "cloud", "decomp", "dream", "gstored", "s2x")


def test_repro_all_matches_the_snapshot():
    assert sorted(repro.__all__) == sorted(REPRO_EXPORTS)


def test_repro_api_all_matches_the_snapshot():
    assert sorted(repro.api.__all__) == sorted(REPRO_API_EXPORTS)


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None


def test_engine_registry_matches_the_snapshot():
    assert repro.engine_names() == ENGINE_REGISTRY_SNAPSHOT


def test_open_is_the_session_entry_point():
    assert repro.open is repro.open_session is repro.api.open_session


def test_version_matches_pyproject():
    # tomllib is 3.11+, and the package supports 3.10: read it with a regex.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == repro.__version__


@pytest.mark.parametrize(
    "module, name",
    [(repro, "quickstart_cluster"), (repro.bench, "make_partitioner")],
    ids=["repro.quickstart_cluster", "repro.bench.make_partitioner"],
)
def test_removed_shims_are_gone(module, name):
    """The deprecation shims were deleted, not merely unexported."""
    assert not hasattr(module, name)


def _open_with(**options):
    repro.open(dataset="paper", **options).close()


def _session_with(**options):
    with repro.open(dataset="paper") as session:
        repro.Session(session.cluster, **options).close()


@pytest.mark.parametrize(
    "call, option",
    [
        (lambda **options: repro.EngineConfig(**options), "shards_per_site"),
        (_open_with, "kernel"),
        (_open_with, "shards_per_site"),
        (_session_with, "kernel"),
    ],
    ids=["EngineConfig-shards_per_site", "open-kernel", "open-shards_per_site", "Session-kernel"],
)
def test_removed_options_are_rejected(call, option):
    """Kernel choice and intra-site sharding are no longer settable."""
    with pytest.raises(TypeError, match=option):
        call(**{option: 2})


#: The settable ``EngineConfig`` fields, in declaration order.
ENGINE_CONFIG_FIELDS = (
    "use_lec_assembly",
    "use_lec_pruning",
    "use_candidate_exchange",
    "star_shortcut",
    "bit_vector_bits",
    "paranoid_validation",
    "use_planner",
    "plan_cache_size",
    "executor",
    "max_workers",
)


def test_engine_config_fields_match_the_snapshot():
    fields = tuple(field.name for field in dataclasses.fields(repro.EngineConfig))
    assert fields == ENGINE_CONFIG_FIELDS
    assert "shards_per_site" not in repro.EngineConfig.full().describe()
