"""The speed probe: samples between operations, and the slowdown factor."""

from dataclasses import replace

import pytest

import speed
from speed import REFERENCE_TASK_S, SpeedProbe
from workloads import WORKLOADS, prepare, run_round


def test_the_factor_is_the_window_mean_over_the_reference_time():
    probe = SpeedProbe()
    probe.samples.extend([REFERENCE_TASK_S, 3 * REFERENCE_TASK_S])
    mark = probe.mark()
    probe.samples.extend([2 * REFERENCE_TASK_S, 4 * REFERENCE_TASK_S])
    assert probe.factor(0) == pytest.approx(2.5)
    assert probe.factor(mark) == pytest.approx(3.0)


def test_a_window_without_samples_has_no_factor():
    probe = SpeedProbe()
    with pytest.raises(ValueError):
        probe.factor(probe.mark())


def test_a_sample_is_due_only_after_the_interval(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(speed.time, "perf_counter", lambda: clock[0])
    probe = SpeedProbe(every_s=0.15)
    probe.due()
    assert len(probe.samples) == 1
    clock[0] += 0.1
    assert probe.due() == 0.0 and len(probe.samples) == 1
    clock[0] += 0.1
    probe.due()
    assert len(probe.samples) == 2


def test_the_probe_keeps_the_collector_as_it_found_it():
    import gc

    probe = SpeedProbe()
    assert gc.isenabled()
    probe.sample()
    assert gc.isenabled()
    gc.disable()
    try:
        probe.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_probed_round_samples_between_operations_and_leaves_them_out_of_its_time(tmp_path):
    small = replace(WORKLOADS["lubm-star"], scale=1, universities_per_scale=1)
    probe = SpeedProbe(every_s=0.0)
    prepared = prepare(small, 3, tmp_path, probe)
    try:
        assert len(probe.samples) == 5  # before the first phase and after each of four
        assert prepared.phases["total"] == pytest.approx(
            sum(value for name, value in prepared.phases.items() if name != "total")
        )
        mark = probe.mark()
        outcome = run_round(prepared, probe)
        assert probe.mark() - mark == len(outcome.ops)
        assert outcome.seconds < sum(op.seconds for op in outcome.ops) + min(probe.samples[mark:])
    finally:
        prepared.session.close()
