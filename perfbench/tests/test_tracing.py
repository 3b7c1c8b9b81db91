"""Outside-in hooks: spans, restoration, and absent hooks."""

import sys
import types

from tracing import HOOKS, Hook, Installed, SpanRecorder


class _Service:
    def handle(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2


def _hooks_for(module_name):
    return (
        Hook("root", module_name, "_Service", "handle", root=True),
        Hook("inner", module_name, "_Service", "inner"),
    )


def test_spans_nest_under_the_root_and_originals_come_back():
    recorder = SpanRecorder()
    original = _Service.inner
    installed = Installed(recorder, _hooks_for(__name__))
    try:
        assert _Service().handle(3) == 7
    finally:
        installed.remove()
    assert _Service.inner is original
    spans, _ = recorder.take()
    assert [(name, parent, query) for name, _s, _e, parent, query in spans] == [
        ("root", None, 1),
        ("inner", 0, 1),
    ]
    assert all(start <= end for _n, start, end, _p, _q in spans)


def test_calls_outside_a_root_span_are_not_recorded():
    recorder = SpanRecorder()
    installed = Installed(recorder, _hooks_for(__name__))
    try:
        assert _Service().inner(2) == 4
    finally:
        installed.remove()
    assert recorder.take()[0] == []


def test_missing_hooks_are_reported_absent():
    hooks = (
        Hook("gone", "no_such_module_for_perfbench", None, "f"),
        Hook("gone", __name__, "_Service", "deleted_method"),
        Hook("gone", __name__, "NoSuchClass", "f"),
    )
    installed = Installed(SpanRecorder(), hooks)
    installed.remove()
    assert installed.absent == [hook.target for hook in hooks]


def test_an_inherited_method_is_restored_to_the_base_class():
    base = type("Base", (), {"run": lambda self: "base"})
    child = type("Child", (base,), {})
    module = types.ModuleType("perfbench_fake")
    module.Child = child
    sys.modules["perfbench_fake"] = module
    try:
        installed = Installed(SpanRecorder(), (Hook("run", "perfbench_fake", "Child", "run"),))
        assert "run" in vars(child)
        installed.remove()
        assert "run" not in vars(child)
        assert child().run() == "base"
    finally:
        del sys.modules["perfbench_fake"]


def test_every_hook_of_the_benchmark_exists_in_the_program():
    installed = Installed(SpanRecorder(), HOOKS)
    installed.remove()
    assert installed.absent == []
