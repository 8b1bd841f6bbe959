"""The shared step controllers, driven through the stepper seam.

``repro.circuit.transient`` owns the only fixed-step and adaptive
loops; the scalar (monolithic / partitioned) and lane-batched engines
plug into them as *steppers*.  These tests drive the loops with a
scripted stepper — Newton failures and LTE errors on demand, no
circuit — so the controller's corner cases are pinned independently
of device physics.
"""

import importlib

import numpy as np
import pytest

from repro.circuit.batch_sim import _RunState
from repro.circuit.logic import LogicFamily, build_inverter
from repro.circuit.transient import (
    _FAC_BLIND,
    _FAC_MAX,
    _ScalarStepper,
    _adaptive_loop,
    _fixed_loop,
    _step_plan,
    transient,
)
from repro.circuit.waveforms import Pulse
from repro.errors import AnalysisError

# the package re-exports the transient() function under the module's
# name, so the module itself has to be looked up explicitly
transient_mod = importlib.import_module("repro.circuit.transient")


class FakeStepper:
    """Scripted stepper over ``lanes`` copies of the ramp ``x(t) = t``.

    ``fail(t_next, step)`` returns the lanes whose Newton "fails" for
    that attempt; ``noise(k)`` is added to every attempt's solution
    (``k`` counts attempts), which is what the LTE estimate sees.
    """

    def __init__(self, lanes=1, fail=None, noise=None, restart=None):
        self.x = np.zeros((lanes, 2))
        self.alive = np.ones(lanes, dtype=bool)
        self.n_nodes = 2
        self.dropped = []
        self.accepted = []
        self.attempts = 0
        self._fail = fail or (lambda t_next, step: [])
        self._noise = noise or (lambda k: 0.0)
        self._restart = restart

    def solve(self, t_next, step, x_start):
        self.attempts += 1
        failed = [lane for lane in self._fail(t_next, step)
                  if self.alive[lane]]
        x_new = np.full_like(self.x, t_next) + self._noise(self.attempts)
        x_new[failed] = self.x[failed]
        return x_new, failed

    def accept(self, t_next, x_new, step):
        self.accepted.append((t_next, step))
        self.x = x_new

    def restart_lanes(self, t):
        if self._restart is not None:
            return self._restart(t)
        return list(np.flatnonzero(self.alive))

    @property
    def times(self):
        return [t for t, _ in self.accepted]

    @property
    def steps(self):
        return [step for _, step in self.accepted]


class ScalarFake(FakeStepper):
    """The scalar engine's give-up policy: raise."""

    give_up = _ScalarStepper.give_up


class BatchFake(FakeStepper):
    """The lane batch's give-up policy: drop the failing lanes."""

    give_up = _RunState.give_up


def _adaptive(stepper, t_end=1.0, breakpoints=(), method="trap",
              **kwargs):
    plan = _step_plan(t_end, method, kwargs.pop("dt", None), True,
                      kwargs.pop("rtol", None), kwargs.pop("atol", None),
                      kwargs.pop("dt_min", None), kwargs.pop("dt_max", None),
                      None)
    stats = {}
    _adaptive_loop(stepper, t_end, list(breakpoints), method, plan, stats)
    return stats


def _fixed(stepper, dt, t_end=1.0, breakpoints=(), max_halvings=None):
    plan = _step_plan(t_end, "trap", dt, False, None, None, None, None,
                      max_halvings)
    stats = {}
    _fixed_loop(stepper, t_end, list(breakpoints), "trap", plan, stats)
    return stats


def _alternating(amplitude):
    return lambda k: amplitude * (-1.0) ** k


class TestIrreducibleNewtonFailure:
    @staticmethod
    def _fails_late(lanes):
        return lambda t_next, step: lanes if t_next > 0.5 else []

    def test_adaptive_scalar_raises(self):
        stepper = ScalarFake(fail=self._fails_late([0]))
        with pytest.raises(AnalysisError, match="stalled"):
            _adaptive(stepper, dt_min=1e-3)
        assert stepper.times[-1] <= 0.5

    def test_adaptive_batch_drops_failing_lane(self):
        stepper = BatchFake(lanes=3, fail=self._fails_late([1]))
        stats = _adaptive(stepper, dt_min=1e-3)
        assert stepper.dropped == [1]
        assert list(stepper.alive) == [True, False, True]
        # the survivors retried the same step and ran to the end
        assert stepper.times[-1] == 1.0
        assert stats["rejected_newton"] >= 1

    def test_fixed_scalar_raises_after_max_halvings(self):
        stepper = ScalarFake(fail=self._fails_late([0]))
        with pytest.raises(AnalysisError, match="stalled"):
            _fixed(stepper, dt=0.1, max_halvings=3)
        assert stepper.attempts - len(stepper.accepted) == 4

    def test_fixed_batch_drops_failing_lane(self):
        stepper = BatchFake(lanes=2, fail=self._fails_late([0]))
        stats = _fixed(stepper, dt=0.1, max_halvings=3)
        assert stepper.dropped == [0]
        assert stepper.times[-1] == pytest.approx(1.0)
        assert stats["rejected_newton"] == 4


def test_lte_reject_at_dt_min_floor_is_accepted():
    dt_min = 1e-2
    stepper = ScalarFake(noise=_alternating(1e-2))
    stats = _adaptive(stepper, dt_min=dt_min, dt_max=0.1, dt=0.1)
    # every estimate is far above tolerance, so the controller shrinks
    # to the floor and then has to accept there instead of stalling
    assert stats["rejected_lte"] > 0
    assert stats["dt_smallest"] == pytest.approx(dt_min)
    assert stepper.times[-1] == 1.0
    assert all(step <= dt_min * (1 + 1e-9) for step in stepper.steps[3:])


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
def test_breakpoint_sliver_below_dt_min_lands_exactly(mode):
    dt_min = 1e-3
    bps = [0.5, 0.5 + dt_min / 10.0]
    stepper = ScalarFake()
    if mode == "adaptive":
        stats = _adaptive(stepper, breakpoints=bps, dt_min=dt_min)
    else:
        stats = _fixed(stepper, dt=0.01, breakpoints=bps)
    times = stepper.times
    assert bps[0] in times and bps[1] in times
    i = times.index(bps[1])
    assert times[i - 1] == bps[0]
    assert stepper.steps[i] == bps[1] - bps[0] < dt_min
    assert stats["breakpoints_hit"] == 2
    assert times[-1] == 1.0


def test_predictor_restart_caps_growth_at_fac_blind():
    # Lane 0 has tiny but nonzero errors everywhere (so its PI factor
    # clamps at _FAC_MAX); lane 1 owns the breakpoint and restarts its
    # predictor there.  The step after the restart must grow by no
    # more than _FAC_BLIND while lane 1 is predictor-blind.
    bp = 0.25
    stepper = FakeStepper(lanes=2, noise=_alternating(1e-12),
                          restart=lambda t: [1])
    _adaptive(stepper, t_end=10.0, breakpoints=[bp], dt=1e-4,
              dt_min=1e-9, dt_max=10.0)
    times, steps = stepper.times, stepper.steps
    i = times.index(bp)
    assert steps[i + 2] / steps[i + 1] == pytest.approx(_FAC_BLIND)
    # once lane 1 has history again the cap lifts
    assert steps[i + 3] / steps[i + 2] == pytest.approx(_FAC_MAX)


def test_accepted_step_cap_raises(monkeypatch):
    monkeypatch.setattr(transient_mod, "_MAX_ACCEPTED_STEPS", 5)
    stepper = ScalarFake()
    with pytest.raises(AnalysisError, match="exceeded 5 accepted"):
        _adaptive(stepper, dt=1e-3, dt_max=1e-3)
    assert len(stepper.accepted) == 6


def test_scalar_fixed_step_counts_rejected_newton(monkeypatch):
    """A fixed-step Newton failure is counted like in the batch
    engine (and the halved retry still lands the run)."""
    fam = LogicFamily.default(vdd=0.6)
    circuit = build_inverter(fam, Pulse(0.0, 0.6, delay=2e-12, rise=1e-12,
                                        fall=1e-12, width=5e-12,
                                        period=1e-9))[0]
    original = transient_mod.newton_solve
    calls = []

    def fail_once(*args, **kwargs):
        if kwargs.get("analysis") == "tran" and not calls:
            calls.append(kwargs["time"])
            raise AnalysisError("scripted failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(transient_mod, "newton_solve", fail_once)
    stats = {}
    ds = transient(circuit, tstop=1e-11, dt=1e-12, stats=stats)
    assert stats["rejected_newton"] == 1
    assert ds.axis[-1] == pytest.approx(1e-11)
