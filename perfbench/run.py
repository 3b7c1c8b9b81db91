#!/usr/bin/env python3
"""End-to-end benchmark of ``repro``'s distributed SPARQL evaluation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lubm-complex --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing hooked.
``--trace 1`` alternates untraced rounds with rounds whose calls into each
layer are timed from outside (see ``tracing.py``) and reports the per-layer
metrics.  End-to-end times are put at a reference speed of the host, measured
between operations (see ``speed.py``).  Every answer is checked against the
centralized engine between rounds.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
every metric by name with its unit.  A run also writes its metadata, all
metrics and (when tracing) its spans under ``perfbench/out/``.

See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from measure import TAIL_MIN_BEYOND, coverage, median, ratio, self_time_by_name, tail
from speed import SpeedProbe
from tracing import Installed, SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Untraced rounds a run needs at least: a tail needs more than ten samples.
MIN_ROUNDS = TAIL_MIN_BEYOND + 1
#: Rounds of each kind a traced run needs at least (its metrics are medians).
TRACE_MIN_ROUNDS = 5
#: The loop stops here even when it has too few rounds, so a run ends in time.
LOOP_LIMIT_S = 120.0

E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "round_p50_ms": "ms",
    "round_tail_ms": "ms",
    "queries_per_s": "1/s",
    "critical_path_p50_ms": "ms",
    "shipped_kb_per_query": "KB",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics but not in the JSON result: they are 0
#: on some workloads (no writes) or on every clean run, and the JSON's
#: ``failed``/``attempted`` already carry the failure ratio.
E2E_PRINTED_UNITS: Dict[str, str] = {
    "update_p50_ms": "ms",
    "update_tail_ms": "ms",
    "failed_op_ratio": "ratio",
}

STAGES = ("candidate_exchange", "partial_evaluation", "lec_pruning", "assembly")

LAYER_UNITS: Dict[str, str] = {
    "api.self_ms": "ms",
    "api.coverage": "ratio",
    "sparql.parse_ms": "ms",
    "sparql.project_ms": "ms",
    "planner.plan_ms": "ms",
    "planner.cache_hit_ratio": "ratio",
    "planner.stats_refresh_ms": "ms",
    "exec.dispatch_ms": "ms",
    "exec.tasks": "count",
    "candidate_exchange.site_ms": "ms",
    "candidate_exchange.union_ms": "ms",
    "partial_eval.ms": "ms",
    "partial_eval.lpms": "count",
    "partial_eval.filtered_candidates": "count",
    "store.local_eval_ms": "ms",
    "store.search_steps": "count",
    "store.signature_ms": "ms",
    "lec.features_ms": "ms",
    "lec.features_per_lpm": "ratio",
    "pruning.ms": "ms",
    "pruning.join_attempts": "count",
    "pruning.complete_per_attempt": "ratio",
    "pruning.pruned_lpm_ratio": "ratio",
    "assembly.ms": "ms",
    "assembly.join_attempts": "count",
    "assembly.join_success_ratio": "ratio",
    "distributed.send_ms": "ms",
    "distributed.messages": "count",
    **{f"distributed.shipped_kb.{stage}": "KB" for stage in STAGES},
    "distributed.modelled_network_ms": "ms",
    "obs.record_ms": "ms",
    "partition.apply_ms": "ms",
    "store.encoding_patch_ms": "ms",
    "persist.append_ms": "ms",
    "persist.bytes_per_op": "B",
    "datasets.generate_s": "s",
    "partition.partition_s": "s",
    "distributed.build_cluster_s": "s",
    "persist.create_s": "s",
    "api.warmup_s": "s",
    "trace.overhead_ratio": "ratio",
    **E2E_PRINTED_UNITS,
}

SETUP_PHASES = (
    "datasets.generate_s",
    "partition.partition_s",
    "distributed.build_cluster_s",
    "persist.create_s",
    "api.warmup_s",
)

#: Per-round counts that must repeat exactly from round to round.
REPEATING_COUNTS = (
    "exec.tasks",
    "partial_eval.lpms",
    "partial_eval.filtered_candidates",
    "store.search_steps",
    "lec.features_per_lpm",
    "pruning.join_attempts",
    "assembly.join_attempts",
    "distributed.messages",
    *(f"distributed.shipped_kb.{stage}" for stage in STAGES),
)


def _import_repro() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro`` from it."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {package}")


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _query_results(outcome) -> List[object]:
    return [op.value for op in outcome.ops if not op.op.is_update and op.error is None]


def _critical_path_s(result) -> float:
    """Sum over stages of the slowest site plus coordinator time (measured only)."""
    return sum(
        max(stage.site_times_s.values(), default=0.0) + stage.coordinator_time_s
        for stage in result.statistics.stages
    )


@dataclass(frozen=True)
class RoundSummary:
    """What the metrics need from a round, so results are not kept alive
    (a run that held every result grew its heap, and the collector's work
    with it, round after round).

    Times are at the reference speed (``speed.py``): the measured time
    divided by ``speed_factor``, how much slower than that speed the host
    ran during the round.
    """

    seconds: float
    raw_seconds: float
    speed_factor: float
    queries: int
    critical_path_s: float
    shipped_bytes: int
    #: ``(template, ms)`` per operation; writes are labelled ``add``/``remove``.
    op_ms: Tuple[Tuple[str, float], ...]
    update_ms: Tuple[float, ...]

    @classmethod
    def of(cls, outcome, speed_factor: float) -> "RoundSummary":
        results = _query_results(outcome)
        return cls(
            seconds=outcome.seconds / speed_factor,
            raw_seconds=outcome.seconds,
            speed_factor=speed_factor,
            queries=len(results),
            critical_path_s=sum(_critical_path_s(result) for result in results) / speed_factor,
            shipped_bytes=sum(result.shipment.total_bytes for result in results),
            op_ms=tuple(
                (
                    op.op.label if op.op.state == "base" else f"{op.op.label}@{op.op.state}",
                    _ms(op.seconds / speed_factor),
                )
                for op in outcome.ops
            ),
            update_ms=tuple(_ms(op.seconds / speed_factor) for op in outcome.ops if op.op.is_update),
        )


def end_to_end_metrics(
    rounds: List[RoundSummary], setup_totals: List[float]
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The user-visible metrics over the untraced rounds, plus how they were sampled."""
    round_ms = [_ms(summary.seconds) for summary in rounds]
    tail_pct, tail_ms = tail(round_ms)
    queries = sum(summary.queries for summary in rounds)
    metrics = {
        "setup_s": median(setup_totals),
        "round_p50_ms": median(round_ms),
        "round_tail_ms": tail_ms,
        "queries_per_s": queries / sum(summary.seconds for summary in rounds),
        "critical_path_p50_ms": median([_ms(summary.critical_path_s) for summary in rounds]),
        "shipped_kb_per_query": ratio(sum(summary.shipped_bytes for summary in rounds) / 1024.0, queries),
    }
    sampling = {
        "rounds": len(round_ms),
        "round_tail_percentile": round(tail_pct, 2),
        "queries": queries,
        "measured_round_p50_ms": round(median([_ms(summary.raw_seconds) for summary in rounds]), 3),
        "speed_factor_p50": round(median([summary.speed_factor for summary in rounds]), 4),
    }
    return metrics, sampling


def update_metrics(rounds: List[RoundSummary]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """``Session.update`` latency over the untraced rounds (0 without writes)."""
    updates = [ms for summary in rounds for ms in summary.update_ms]
    metrics = {"update_p50_ms": median(updates) if updates else 0.0, "update_tail_ms": 0.0}
    sampling: Dict[str, object] = {"updates": len(updates)}
    if len(updates) > TAIL_MIN_BEYOND:
        percentile, metrics["update_tail_ms"] = tail(updates)
        sampling["update_tail_percentile"] = round(percentile, 2)
    return metrics, sampling


def layer_metrics(spans, attributes, outcome) -> Dict[str, float]:
    """Per-layer self times (ms) and counts of one traced round."""
    own = self_time_by_name(spans)

    def self_ms(*names: str) -> float:
        return _ms(sum(own.get(name, 0.0) for name in names))

    def attribute_sum(span_name: str, key: str) -> float:
        return sum(
            attributes.get(index, {}).get(key, 0)
            for index, span in enumerate(spans)
            if span[0] == span_name
        )

    dispatch_s = candidate_site_s = 0.0
    shipped = dict.fromkeys(STAGES, 0)
    for index, (name, start, end, _parent, _query) in enumerate(spans):
        found = attributes.get(index, {})
        if name == "exec.map" and found:
            dispatch_s += (end - start) - sum(found["elapsed_by_task"].values())
            candidate_site_s += found["elapsed_by_task"].get("engine.candidate_vectors", 0.0)
        elif name == "distributed.send" and found:
            shipped[found["stage"]] = shipped.get(found["stage"], 0) + found["bytes"]

    results = _query_results(outcome)

    def counter(stage: str, name: str) -> int:
        return sum(result.statistics.counter(stage, name) for result in results)

    lpms = counter("partial_evaluation", "local_partial_matches")
    planned = sum(
        1 for result in results if result.statistics.counter("planning", "planned_vertices") > 0
    )
    pruning_attempts = attribute_sum("pruning", "join_attempts")
    assembly_attempts = attribute_sum("assembly", "join_attempts")
    metrics = {
        "api.self_ms": self_ms("api.query", "api.update"),
        "api.coverage": coverage(spans, "api.query"),
        "sparql.parse_ms": self_ms("sparql.parse"),
        "sparql.project_ms": self_ms("sparql.project"),
        "planner.plan_ms": self_ms("planner.plan"),
        "planner.cache_hit_ratio": ratio(counter("planning", "plan_cache_hit"), planned),
        "planner.stats_refresh_ms": self_ms("planner.stats_refresh"),
        "exec.dispatch_ms": _ms(dispatch_s),
        "exec.tasks": attribute_sum("exec.map", "tasks"),
        "candidate_exchange.site_ms": _ms(candidate_site_s),
        "candidate_exchange.union_ms": self_ms("candidate_exchange.union"),
        "partial_eval.ms": self_ms("partial_eval"),
        "partial_eval.lpms": lpms,
        "partial_eval.filtered_candidates": counter("partial_evaluation", "filtered_extended_candidates"),
        "store.local_eval_ms": self_ms("store.local_eval"),
        "store.search_steps": sum(result.statistics.work.get("search_steps", 0) for result in results),
        "store.signature_ms": self_ms("store.signature"),
        "lec.features_ms": self_ms("lec.features"),
        "lec.features_per_lpm": ratio(counter("lec_pruning", "lec_features"), lpms),
        "pruning.ms": self_ms("pruning"),
        "pruning.join_attempts": pruning_attempts,
        "pruning.complete_per_attempt": ratio(
            attribute_sum("pruning", "complete_combinations"), pruning_attempts
        ),
        "pruning.pruned_lpm_ratio": ratio(counter("lec_pruning", "pruned_local_partial_matches"), lpms),
        "assembly.ms": self_ms("assembly"),
        "assembly.join_attempts": assembly_attempts,
        "assembly.join_success_ratio": ratio(
            attribute_sum("assembly", "successful_joins"), assembly_attempts
        ),
        "distributed.send_ms": self_ms("distributed.send", "distributed.broadcast"),
        "distributed.messages": sum(1 for span in spans if span[0] == "distributed.send"),
        "distributed.modelled_network_ms": _ms(
            sum(stage.network_time_s for result in results for stage in result.statistics.stages)
        ),
        "obs.record_ms": self_ms("obs.record"),
        "partition.apply_ms": self_ms("partition.apply"),
        "store.encoding_patch_ms": self_ms("store.encoding_patch"),
        "persist.append_ms": self_ms("persist.append"),
    }
    for stage in STAGES:
        metrics[f"distributed.shipped_kb.{stage}"] = shipped.get(stage, 0) / 1024.0
    return metrics


def _template_medians(rounds: List[RoundSummary]) -> Dict[str, float]:
    by_label: Dict[str, List[float]] = {}
    for summary in rounds:
        for label, ms in summary.op_ms:
            by_label.setdefault(label, []).append(ms)
    return {label: median(values) for label, values in by_label.items()}


def _file_size(path) -> int:
    return path.stat().st_size if path is not None and path.exists() else 0


def run(args: argparse.Namespace) -> int:
    from workloads import (
        PARTITIONER,
        SITES,
        WORKLOADS,
        AnswerChecker,
        RoundOutcome,
        dataset_seeds,
        prepare,
        run_round,
    )

    import repro.store

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    traced_run = args.trace == 1
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    probe = SpeedProbe()
    datasets = []
    setup_factors: List[float] = []
    try:
        for index, seed in enumerate(dataset_seeds(args.seed)):
            dataset_dir = workdir / f"dataset{index}"
            dataset_dir.mkdir()
            mark = probe.mark()
            datasets.append(prepare(workload, seed, dataset_dir, probe))
            setup_factors.append(probe.factor(mark))
        setups = [prepared.phases for prepared in datasets]
        checkers = [AnswerChecker(prepared) for prepared in datasets]
        recorder = SpanRecorder()
        untraced, traced, layer_rounds, span_rounds = [], [], [], []
        absent: List[str] = []
        failures: List[str] = []
        attempted = 0
        journaled_ops = 0
        store_size_before = sum(_file_size(prepared.store_path) for prepared in datasets)
        min_rounds = TRACE_MIN_ROUNDS if traced_run else MIN_ROUNDS
        # Set-up leaves hundreds of thousands of objects behind; collect them now, or
        # the first full collection lands in the first timed round.
        gc.collect()
        loop_started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_started
            enough = len(untraced) >= min_rounds and (not traced_run or len(traced) >= min_rounds)
            if elapsed >= LOOP_LIMIT_S or (enough and elapsed >= args.seconds):
                break
            trace_round = traced_run and len(untraced) > len(traced)
            installed = Installed(recorder) if trace_round else None
            mark = probe.mark()
            try:
                parts = [run_round(prepared, probe) for prepared in datasets]
            finally:
                if installed is not None:
                    installed.remove()
                    absent = installed.absent
            if probe.mark() == mark:
                probe.sample()
            speed_factor = probe.factor(mark)
            for checker, part in zip(checkers, parts):
                failures.extend(checker.failures(part))
            outcome = RoundOutcome(
                sum(part.seconds for part in parts), [op for part in parts for op in part.ops]
            )
            attempted += len(outcome.ops)
            journaled_ops += sum(
                op.value.total for op in outcome.ops if op.op.is_update and op.error is None
            )
            if trace_round:
                spans, attributes = recorder.take()
                traced.append(RoundSummary.of(outcome, speed_factor))
                layer_rounds.append(layer_metrics(spans, attributes, outcome))
                span_rounds.append(spans)
            else:
                untraced.append(RoundSummary.of(outcome, speed_factor))
        store_growth = sum(_file_size(prepared.store_path) for prepared in datasets) - store_size_before
        kernel = repro.store.resolve_kernel(None)
        executor = datasets[0].session.backend.name
    finally:
        for prepared in datasets:
            prepared.session.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if len(untraced) < min_rounds or (traced_run and len(traced) < min_rounds):
        raise SystemExit(
            f"perfbench: only {len(untraced)} untraced / {len(traced)} traced rounds in {LOOP_LIMIT_S:.0f} s"
        )

    metrics, sampling = update_metrics(untraced)
    metrics["failed_op_ratio"] = len(failures) / attempted
    counts_repeat: Dict[str, bool] = {}
    if traced_run:
        for name in layer_rounds[0]:
            metrics[name] = median([values[name] for values in layer_rounds])
        for phase in SETUP_PHASES:
            metrics[phase] = median([phases.get(phase, 0.0) for phases in setups])
        metrics["persist.bytes_per_op"] = store_growth / journaled_ops if journaled_ops else 0.0
        metrics["trace.overhead_ratio"] = median([o.seconds for o in traced]) / median(
            [o.seconds for o in untraced]
        )
        counts_repeat = {
            name: len({values[name] for values in layer_rounds}) == 1 for name in REPEATING_COUNTS
        }
    else:
        round_metrics, round_sampling = end_to_end_metrics(
            untraced, [phases["total"] / factor for phases, factor in zip(setups, setup_factors)]
        )
        metrics.update(round_metrics)
        sampling.update(round_sampling)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reported = LAYER_UNITS if traced_run else E2E_UNITS
    printed = LAYER_UNITS if traced_run else {**E2E_UNITS, **E2E_PRINTED_UNITS}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    metadata = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "kernel": kernel,
        "executor": executor,
        "sites": SITES,
        "partitioner": PARTITIONER,
        "setups": len(setups),
        "setup_phases_s": setups,
        "setup_speed_factors": setup_factors,
        "untraced_rounds": len(untraced),
        "traced_rounds": len(traced),
        "sampling": sampling,
        "absent_hooks": absent,
        "counts_repeat": counts_repeat,
        "failures": failures[:20],
        "round_ms": [_ms(summary.seconds) for summary in untraced],
        "measured_round_ms": [_ms(summary.raw_seconds) for summary in untraced],
        "round_speed_factors": [summary.speed_factor for summary in untraced],
        "traced_round_ms": [_ms(summary.seconds) for summary in traced],
        "query_ms_by_template": _template_medians(untraced),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in printed.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(metadata, indent=2) + "\n")
    if traced_run:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(span_rounds))

    print(f"# {workload.name} seed={args.seed} trace={args.trace} rounds={len(untraced)}+{len(traced)} "
          f"sampling={json.dumps(sampling)} kernel={kernel} executor={executor}")
    for name, unit in printed.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for target in absent:
        print(f"# hook absent: {target}")
    for name, same in counts_repeat.items():
        if not same:
            print(f"# count did not repeat between rounds: {name}")
    for problem in failures[:5]:
        print(f"# failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()},
    }))
    return 0


def main() -> int:
    args = _parse_args(sys.argv[1:])
    _import_repro()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
