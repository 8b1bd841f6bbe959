"""Span recorder: self-time arithmetic and outside-in wrapping."""

import types

from pbench.spans import SpanRecorder, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def _recorder():
    clock = FakeClock()
    return SpanRecorder(clock=clock), clock


def test_nested_and_sibling_self_times():
    rec, clock = _recorder()
    root = rec.begin("root")            # 0 .. 100
    clock.now = 10
    a = rec.begin("a")                  # 10 .. 40
    clock.now = 15
    a1 = rec.begin("a1")                # 15 .. 25
    clock.now = 25
    rec.end(a1)
    clock.now = 40
    rec.end(a)
    clock.now = 50
    b = rec.begin("b")                  # 50 .. 80 (sibling of a)
    clock.now = 80
    rec.end(b)
    clock.now = 100
    rec.end(root)
    selfs = dict(zip(rec.names, rec.self_times()))
    assert selfs == {"root": 100 - 30 - 30, "a": 30 - 10, "a1": 10,
                     "b": 30}
    assert rec.parents == [-1, root, a, root]
    # self times under a root sum to the root's duration
    assert sum(rec.self_times()) == rec.ends[root] - rec.starts[root] == 100


def test_overlapping_children_count_once():
    rec, _ = _recorder()
    parent = rec.add("p", 0, 100)
    rec._open.append(parent)
    rec.add("c1", 10, 60)
    rec.add("c2", 40, 90)               # overlaps c1 by 20
    rec.add("c3", 95, 120)              # runs past the parent's end
    rec._open.pop()
    assert rec.self_times()[0] == 100 - (90 - 10) - (100 - 95)


def test_layer_calls_count_outermost_only():
    rec, clock = _recorder()
    outer = rec.begin("solve")
    inner = rec.begin("lu")             # same layer as solve
    clock.now = 5
    rec.end(inner)
    other = rec.begin("kernel")
    clock.now = 7
    rec.end(other)
    clock.now = 10
    rec.end(outer)
    layer = {"solve": "solvers", "lu": "solvers"}.get
    self_ns, calls = rec.layer_totals(lambda n: layer(n, n))
    assert calls == {"solvers": 1, "kernel": 1}
    assert self_ns == {"solvers": 8, "kernel": 2}


class Engine:
    def step(self, x):
        return helper(x) + 1

    @classmethod
    def make(cls):
        return cls()


def helper(x):
    return 2 * x


def test_tracer_wraps_and_restores():
    rec = SpanRecorder()
    tracer = Tracer(rec)
    module = types.ModuleType("fakeprog.engine")
    module.helper = helper
    import sys
    sys.modules["fakeprog.engine"] = module
    original_step = Engine.__dict__["step"]
    try:
        tracer.method(Engine, "step", "Engine.step")
        tracer.method(Engine, "make", "Engine.make")
        assert tracer.function(helper, "helper", prefix="fakeprog") == 1
        assert Engine.make().step(3) == 7
        assert module.helper(1) == 2
        assert rec.names == ["Engine.make", "Engine.step", "helper"]
    finally:
        tracer.uninstall()
        del sys.modules["fakeprog.engine"]
    assert Engine.__dict__["step"] is original_step
    assert isinstance(Engine.__dict__["make"], classmethod)
    assert module.helper is helper


def test_inherited_method_is_removed_on_uninstall():
    class Child(Engine):
        pass

    rec = SpanRecorder()
    tracer = Tracer(rec)
    tracer.method(Child, "step", "Child.step")
    assert "step" in Child.__dict__
    tracer.uninstall()
    assert "step" not in Child.__dict__


def test_exception_closes_spans():
    rec = SpanRecorder()
    tracer = Tracer(rec)

    class Boom:
        def run(self):
            raise RuntimeError("x")

    tracer.method(Boom, "run", "Boom.run")
    try:
        Boom().run()
    except RuntimeError:
        pass
    tracer.uninstall()
    assert rec.ends[0] >= rec.starts[0]
    assert rec._open == []
