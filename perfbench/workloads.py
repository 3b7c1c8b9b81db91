"""The four LUBM workloads: set-up, the fixed operation sequence of a round,
and the answer checks.

Every workload runs on 6 sites with the ``hash`` partitioner, the serial
backend and the default matching kernel, with one client in a closed loop.
``--seed`` is the LUBM generator seed (and, on ``lubm-star-rw``, the seed of
the written batch); the program only sees the generated inputs.

Set-up and the rounds call ``repro``'s public API only:
``repro.datasets.lubm.generate``, ``make_partitioner``, ``build_cluster``,
``ClusterStore.create`` and ``Session.from_cluster``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.api.session import Session
from repro.datasets import lubm
from repro.distributed.cluster import build_cluster
from repro.partition.partitioners import make_partitioner
from repro.persist import ClusterStore
from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.triples import Triple
from repro.sparql.parser import parse_query
from speed import SpeedProbe

SITES = 6
PARTITIONER = "hash"
EXECUTOR = "serial"

_PREFIX = f"PREFIX ub: <{lubm.UB.base}> "

#: The three 3-hop paths of ``lubm-paths``, sent as raw SPARQL text so every
#: call parses.
PATH_QUERIES: Dict[str, str] = {
    "path_all": _PREFIX + "SELECT * WHERE { ?a ?p ?b . ?b ?q ?c . ?c ?r ?d . }",
    "path_course": _PREFIX
    + "SELECT * WHERE { ?s ub:takesCourse ?c . ?t ub:teacherOf ?c . ?t ub:doctoralDegreeFrom ?u . }",
    "path_advisor": _PREFIX
    + "SELECT * WHERE { ?s ub:advisor ?t . ?t ub:worksFor ?d . ?d ub:subOrganizationOf ?u . }",
}

#: LUBM graphs per run.  A run measures the workload on each of them, from
#: seeds derived from ``--seed``: the generator's random choices move the
#: join work of a single graph by a third from seed to seed, and a round over
#: several graphs averages that out.
DATASETS_PER_RUN = 3

#: New undergraduates per write on ``lubm-star-rw`` (two triples each).
WRITE_BATCH_STUDENTS = 10


@dataclass(frozen=True)
class Op:
    """One operation of a round: a query, or a write of ``triples``."""

    label: str
    query: str = ""
    add: Tuple[Triple, ...] = ()
    remove: Tuple[Triple, ...] = ()
    #: Graph state a query runs in; answers are checked per (label, state).
    state: str = "base"

    @property
    def is_update(self) -> bool:
        return bool(self.add or self.remove)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: int
    universities_per_scale: int = 2
    #: Named LUBM queries, or keys of :data:`PATH_QUERIES` (sent as text).
    reads: Tuple[str, ...] = ()
    store_backed: bool = False

    def ops(self, seed: int) -> List[Op]:
        """The round's fixed operation sequence."""
        if not self.store_backed:
            return [Op(name, query=PATH_QUERIES.get(name, name)) for name in self.reads]
        batch = tuple(_student_batch(seed, self.scale * self.universities_per_scale))
        # Add, read, remove, read: the round leaves the graph as it found it,
        # so every round does the same work.  A round of one write would
        # alternate between a cheap and a dear shape and its median would
        # fall between the two.
        added = [Op(name, query=name, state="added") for name in self.reads]
        base = [Op(name, query=name) for name in self.reads]
        return [Op("add", add=batch), *added, Op("remove", remove=batch), *base]


def _student_batch(seed: int, universities: int) -> List[Triple]:
    """``memberOf`` plus ``rdf:type`` triples of new undergraduates.

    The first student joins the department LQ5 reads, so reads after the
    write see it.
    """
    rng = random.Random(seed)
    triples: List[Triple] = []
    for index in range(WRITE_BATCH_STUDENTS):
        if index == 0:
            university, department = 0, 1
        else:
            university, department = rng.randrange(universities), rng.randrange(3)
        prefix = f"University{university}/Department{department}"
        student = lubm.UNIV.term(f"{prefix}/BenchUndergraduate{seed}_{index}")
        triples.append(Triple(student, lubm.MEMBER_OF, lubm.UNIV.term(prefix)))
        triples.append(Triple(student, RDF_TYPE, lubm.UNDERGRADUATE_STUDENT))
    return triples


def dataset_seeds(seed: int) -> List[int]:
    """The generator seeds of one run's graphs (distinct for distinct ``seed``)."""
    return [seed * DATASETS_PER_RUN + index for index in range(DATASETS_PER_RUN)]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "lubm-complex",
            "LQ1 LQ3 LQ6 LQ7 at scale 3: partial evaluation and the coordinator LEC join split the time",
            scale=3,
            reads=lubm.COMPLEX_QUERIES,
        ),
        Workload(
            "lubm-paths",
            "three 3-hop paths as raw SPARQL at one university: coordinator joins and assembly dominate",
            scale=1,
            universities_per_scale=1,
            reads=tuple(PATH_QUERIES),
        ),
        Workload(
            "lubm-star",
            "LQ2 LQ4 LQ5 at scale 3: the star shortcut, so the store matcher and per-query overhead dominate",
            scale=3,
            reads=lubm.STAR_QUERIES,
        ),
        Workload(
            "lubm-star-rw",
            "the lubm-star reads beside store-backed writes: delta routing, encoding patches and the journal",
            scale=3,
            reads=lubm.STAR_QUERIES,
            store_backed=True,
        ),
    )
}


@dataclass
class Prepared:
    """A set-up workload: the open session and what its set-up cost."""

    session: Session
    ops: List[Op]
    #: Seconds per set-up phase, and ``total`` for the whole set-up.
    phases: Dict[str, float]
    store_path: Optional[Path] = None


def prepare(workload: Workload, seed: int, workdir: Path, probe: Optional[SpeedProbe] = None) -> Prepared:
    """Generate, partition, build (and snapshot), open, and run one warm-up round.

    With a ``probe``, the host's speed is sampled before the first phase and
    after each one, outside the phases' times.
    """
    phases: Dict[str, float] = {}

    def sample() -> None:
        if probe is not None:
            probe.sample()

    sample()
    mark = time.perf_counter()
    graph = lubm.generate(
        workload.scale, seed=seed, universities_per_scale=workload.universities_per_scale
    )
    phases["datasets.generate_s"] = time.perf_counter() - mark
    sample()
    mark = time.perf_counter()
    partitioned = make_partitioner(PARTITIONER, SITES).partition(graph)
    phases["partition.partition_s"] = time.perf_counter() - mark
    sample()
    mark = time.perf_counter()
    cluster = build_cluster(partitioned)
    phases["distributed.build_cluster_s"] = time.perf_counter() - mark
    sample()
    store = None
    store_path = None
    if workload.store_backed:
        mark = time.perf_counter()
        store_path = workdir / "lubm.store"
        store = ClusterStore.create(store_path, partitioned, dataset="LUBM", scale=workload.scale)
        for site in cluster:
            statistics = store.load_statistics(site.site_id)
            if statistics is not None:
                site.store.preload_statistics(statistics)
        cluster.attach_store(store)
        phases["persist.create_s"] = time.perf_counter() - mark
        sample()
    mark = time.perf_counter()
    session = Session.from_cluster(
        cluster,
        dataset="LUBM",
        scale=workload.scale,
        queries=lubm.queries(),
        executor=EXECUTOR,
        store=store,
    )
    prepared = Prepared(session, workload.ops(seed), phases, store_path)
    run_round(prepared)
    phases["api.warmup_s"] = time.perf_counter() - mark
    sample()
    phases["total"] = sum(phases.values())
    return prepared


@dataclass
class OpOutcome:
    op: Op
    seconds: float
    value: Any = None
    error: Optional[BaseException] = None


@dataclass
class RoundOutcome:
    seconds: float
    ops: List[OpOutcome] = field(default_factory=list)


def run_round(prepared: Prepared, probe: Optional[SpeedProbe] = None) -> RoundOutcome:
    """One pass over the workload's operations, timed as a whole and per op.

    With a ``probe``, the host's speed is sampled between operations when
    one is due; the round's time leaves the samples out.
    """
    session = prepared.session
    outcomes: List[OpOutcome] = []
    probing_s = 0.0
    round_started = time.perf_counter()
    for op in prepared.ops:
        started = time.perf_counter()
        try:
            if op.is_update:
                value = session.update(add=op.add, remove=op.remove)
            else:
                value = session.query(op.query)
        except Exception as error:  # counted into failed_op_ratio
            outcomes.append(OpOutcome(op, time.perf_counter() - started, error=error))
        else:
            outcomes.append(OpOutcome(op, time.perf_counter() - started, value))
        if probe is not None:
            probing_s += probe.due()
    return RoundOutcome(time.perf_counter() - round_started - probing_s, outcomes)


class AnswerChecker:
    """Checks answers against the centralized engine, and determinism.

    Runs outside the timed rounds.  On creation it walks the round's
    operations once and asks the ``centralized`` engine each query, so each
    expected answer is computed on the graph state its query runs in.  After
    each round, a query's answer must equal that answer, and its shipment
    fingerprint (bytes and messages per stage) must be the same in every
    round.  A write must apply exactly its batch.
    """

    def __init__(self, prepared: Prepared) -> None:
        session = prepared.session
        centralized = session.engine("centralized")
        writes = any(op.is_update for op in prepared.ops)
        self._expected: Dict[Tuple[str, str], Any] = {}
        for op in prepared.ops:
            if op.is_update:
                session.update(add=op.add, remove=op.remove)
                continue
            if writes:
                # The sites patch their indexes on the first read after a
                # write; without these reads the first timed round would
                # catch up on two writes at once.
                session.query(op.query)
            if (op.label, op.state) not in self._expected:
                named = session.queries
                parsed = named[op.query] if op.query in named else parse_query(op.query)
                self._expected[(op.label, op.state)] = centralized.execute(parsed)
        self._fingerprints: Dict[int, Tuple] = {}

    def failures(self, outcome: RoundOutcome) -> List[str]:
        """One message per failed operation of the round."""
        failed: List[str] = []
        for position, op_outcome in enumerate(outcome.ops):
            problem = self._check(position, op_outcome)
            if problem:
                failed.append(f"{op_outcome.op.label}: {problem}")
        return failed

    def _check(self, position: int, outcome: OpOutcome) -> str:
        op = outcome.op
        if outcome.error is not None:
            return f"raised {type(outcome.error).__name__}: {outcome.error}"
        if op.is_update:
            applied = outcome.value
            if (applied.added, applied.removed) != (len(op.add), len(op.remove)):
                return f"applied +{applied.added}/-{applied.removed}, expected +{len(op.add)}/-{len(op.remove)}"
            return ""
        expected = self._expected[(op.label, op.state)]
        if outcome.value != expected:
            return f"{len(outcome.value)} rows differ from the centralized answer ({len(expected)} rows)"
        shipment = outcome.value.shipment
        fingerprint = (
            tuple(sorted(shipment.bytes_by_stage.items())),
            tuple(sorted(shipment.messages_by_stage.items())),
        )
        if self._fingerprints.setdefault(position, fingerprint) != fingerprint:
            return "shipment fingerprint changed between rounds"
        return ""
