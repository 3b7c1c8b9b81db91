"""The harness runs without tripping any deprecation warning."""

import warnings

import repro.bench as bench


def test_internal_call_paths_do_not_warn():
    """The harness itself must not route through deprecated code paths."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        workload = bench.prepare_workload("YAGO2", num_sites=2)
        bench.run_query(workload, "YQ1")
