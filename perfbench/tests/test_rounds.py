"""The round: a fixed operation sequence that every round repeats exactly."""

from dataclasses import replace

from repro.datasets import lubm

from workloads import PATH_QUERIES, WORKLOADS, AnswerChecker, prepare, run_round


def test_read_only_rounds_are_the_named_reads():
    assert [op.query for op in WORKLOADS["lubm-complex"].ops(1)] == list(lubm.COMPLEX_QUERIES)
    assert [op.query for op in WORKLOADS["lubm-star"].ops(1)] == list(lubm.STAR_QUERIES)
    assert [op.query for op in WORKLOADS["lubm-paths"].ops(1)] == list(PATH_QUERIES.values())


def test_a_write_round_adds_reads_removes_and_reads_again():
    ops = WORKLOADS["lubm-star-rw"].ops(5)
    assert [op.label for op in ops] == ["add", *lubm.STAR_QUERIES, "remove", *lubm.STAR_QUERIES]
    assert ops[0].add == ops[4].remove and ops[0].add
    assert [op.state for op in ops if not op.is_update] == ["added"] * 3 + ["base"] * 3
    assert WORKLOADS["lubm-star-rw"].ops(5) == ops
    assert WORKLOADS["lubm-star-rw"].ops(6)[0].add != ops[0].add


def test_a_write_round_passes_its_checks_and_leaves_the_graph_as_it_was(tmp_path):
    small = replace(WORKLOADS["lubm-star-rw"], scale=1, universities_per_scale=1)
    prepared = prepare(small, 3, tmp_path)
    try:
        before = len(prepared.session.graph)
        checker = AnswerChecker(prepared)
        for _ in range(2):
            outcome = run_round(prepared)
            assert checker.failures(outcome) == []
            assert len(prepared.session.graph) == before
        assert set(prepared.phases) >= {"datasets.generate_s", "persist.create_s", "api.warmup_s", "total"}
    finally:
        prepared.session.close()


def test_a_wrong_answer_counts_as_a_failed_operation(tmp_path):
    small = replace(WORKLOADS["lubm-star"], scale=1, universities_per_scale=1)
    prepared = prepare(small, 3, tmp_path)
    try:
        checker = AnswerChecker(prepared)
        outcome = run_round(prepared)
        outcome.ops[0].value, outcome.ops[1].value = outcome.ops[1].value, outcome.ops[0].value
        assert len(checker.failures(outcome)) == 2
    finally:
        prepared.session.close()
