"""Outside-in tracing: spans recorded around ``repro``'s public functions.

The program itself is not changed.  Creating an :class:`Installed` swaps
each hooked attribute (a module-level function, or a method on a class) for
a wrapper that records one span per call, and its ``remove()`` puts every
original back.  A hook whose module or attribute no longer exists is
reported as absent instead of failing the run, so the unchanged benchmark
keeps working after a later change deletes one of these functions.

Spans are kept in memory as ``(name, start, end, parent, query_id)`` and
written out by the caller when the run ends.  Only calls made inside a root
span (``Session.query`` / ``Session.update``) are recorded; the benchmark's
own answer checks run outside one and leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``on_result(recorder, span_index, args, kwargs, result)`` — turns a hooked
#: call's return value into the span's attributes.
ResultHook = Callable[["SpanRecorder", int, tuple, dict, Any], None]


class SpanRecorder:
    """Collects spans of one thread of calls, in memory."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        #: Attributes read from return values, keyed by span index.
        self.attributes: Dict[int, Dict[str, Any]] = {}
        self._stack: List[int] = []
        self._query_id = 0

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        root: bool,
        on_result: Optional[ResultHook],
    ) -> Any:
        if not root and not self._stack:
            return fn(*args, **kwargs)
        if root and not self._stack:
            self._query_id += 1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self._query_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(self, index, args, kwargs, result)
        return result

    def take(self) -> Tuple[List[tuple], Dict[int, Dict[str, Any]]]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = [tuple(span) for span in self.spans]
        attributes = self.attributes
        self.spans, self.attributes = [], {}
        return spans, attributes


# ----------------------------------------------------------------------
# Attributes read from return values
# ----------------------------------------------------------------------
def _task_results(recorder: SpanRecorder, index: int, args, kwargs, results) -> None:
    elapsed: Dict[str, float] = {}
    for result in results:
        elapsed[result.stage] = elapsed.get(result.stage, 0.0) + result.elapsed_s
    recorder.attributes[index] = {"tasks": len(results), "elapsed_by_task": elapsed}


def _pruning_outcome(recorder: SpanRecorder, index: int, args, kwargs, returned) -> None:
    outcome = returned[0]
    recorder.attributes[index] = {
        "join_attempts": outcome.join_attempts,
        "complete_combinations": outcome.complete_combinations,
    }


def _assembly_outcome(recorder: SpanRecorder, index: int, args, kwargs, outcome) -> None:
    recorder.attributes[index] = {
        "join_attempts": outcome.join_attempts,
        "successful_joins": outcome.successful_joins,
    }


def _sent_bytes(recorder: SpanRecorder, index: int, args, kwargs, size) -> None:
    # MessageBus.send(self, source, destination, kind, payload, stage="")
    stage = args[5] if len(args) > 5 else kwargs.get("stage", "")
    recorder.attributes[index] = {"bytes": size, "stage": stage}


@dataclass(frozen=True)
class Hook:
    """One public function timed from outside: ``module[.owner].attribute``."""

    name: str
    module: str
    owner: Optional[str]
    attribute: str
    root: bool = False
    on_result: Optional[ResultHook] = None

    @property
    def target(self) -> str:
        parts = [self.module] + ([self.owner] if self.owner else []) + [self.attribute]
        return ".".join(parts)


#: Every hooked function, in the layer order of the benchmark's README.
#: Module-level functions are hooked where the caller looks them up (the name
#: "as bound in" the calling module), so the swap is seen by the caller.
HOOKS: Tuple[Hook, ...] = (
    Hook("api.query", "repro.api.session", "Session", "query", root=True),
    Hook("api.update", "repro.api.session", "Session", "update", root=True),
    Hook("sparql.parse", "repro.api.session", None, "parse_query"),
    Hook("sparql.project", "repro.sparql.bindings", "ResultSet", "project"),
    Hook("planner.plan", "repro.planner.optimizer", "QueryPlanner", "plan_for"),
    Hook("planner.stats_refresh", "repro.distributed.cluster", "Cluster", "graph_statistics"),
    Hook("exec.map", "repro.exec.backend", "ExecutorBackend", "map_site_tasks", on_result=_task_results),
    Hook("candidate_exchange.union", "repro.core.engine", None, "union_site_vectors"),
    Hook("partial_eval", "repro.core.partial_eval", "PartialEvaluator", "evaluate"),
    Hook("store.local_eval", "repro.distributed.site", "Site", "local_evaluate"),
    Hook("store.signature", "repro.store.signatures", "SignatureIndex", "bits_matrix"),
    Hook("lec.features", "repro.core.site_tasks", None, "compute_lec_features"),
    Hook("pruning", "repro.core.engine", None, "prune_features", on_result=_pruning_outcome),
    Hook("assembly", "repro.core.engine", None, "assemble_matches", on_result=_assembly_outcome),
    Hook("distributed.send", "repro.distributed.network", "MessageBus", "send", on_result=_sent_bytes),
    Hook("distributed.broadcast", "repro.distributed.network", "MessageBus", "broadcast"),
    Hook("obs.record", "repro.api.session", None, "record_query"),
    Hook("partition.apply", "repro.distributed.cluster", "Cluster", "apply"),
    Hook("store.encoding_patch", "repro.distributed.cluster", None, "patch_encoded_view"),
    Hook("persist.append", "repro.persist.store", "ClusterStore", "append_ops"),
)


def _resolve(hook: Hook) -> Optional[Tuple[Any, Callable, bool]]:
    """``(holder, original, defined_on_holder)``, or ``None`` when absent."""
    try:
        holder: Any = importlib.import_module(hook.module)
    except ImportError:
        return None
    if hook.owner is not None:
        holder = getattr(holder, hook.owner, None)
        if not inspect.isclass(holder):
            return None
        # Only plain functions are wrapped: a staticmethod/classmethod or a
        # property would need a different wrapper, so treat it as absent.
        original = inspect.getattr_static(holder, hook.attribute, None)
        if not inspect.isfunction(original):
            return None
        return holder, original, hook.attribute in vars(holder)
    original = getattr(holder, hook.attribute, None)
    if not callable(original):
        return None
    return holder, original, True


def _wrapper(recorder: SpanRecorder, hook: Hook, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return recorder.call(hook.name, original, args, kwargs, hook.root, hook.on_result)

    return traced


class Installed:
    """The hooks currently swapped in; :meth:`remove` restores the originals."""

    def __init__(self, recorder: SpanRecorder, hooks: Tuple[Hook, ...] = HOOKS) -> None:
        self.recorder = recorder
        self.absent: List[str] = []
        self._restore: List[Tuple[Any, str, Callable, bool]] = []
        for hook in hooks:
            resolved = _resolve(hook)
            if resolved is None:
                self.absent.append(hook.target)
                continue
            holder, original, defined_here = resolved
            setattr(holder, hook.attribute, _wrapper(recorder, hook, original))
            self._restore.append((holder, hook.attribute, original, defined_here))

    def remove(self) -> None:
        for holder, attribute, original, defined_here in reversed(self._restore):
            if defined_here:
                setattr(holder, attribute, original)
            else:
                delattr(holder, attribute)
        self._restore.clear()

