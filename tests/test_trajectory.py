"""The checks every Trajectory runs when built."""

import numpy as np
import pytest

from dualsim.errors import EngineError
from dualsim.trajectory import Paradigm, Termination, Trajectory

STARTS = "a trajectory starts at t = 0 with the initial condition"
INCREASING = "sample times must be strictly increasing"
STATES = "all state components must be finite and >= 0"


def build(times, states):
    states = np.asarray(states, dtype=float)
    species = ("tumour", "effector")[:states.shape[1]]
    return Trajectory(np.asarray(times, dtype=float), states, species, Termination.COMPLETED, Paradigm.ABS)


@pytest.mark.parametrize("times, states, message", [
    ([0.0, 1.0], [[1.0, 2.0], [np.nan, 2.0]], STATES),
    ([0.0, 1.0], [[1.0, 2.0], [1.0, np.inf]], STATES),
    ([0.0, 1.0], [[1.0, -np.inf], [1.0, 2.0]], STATES),
    ([0.0, 1.0], [[1.0, 2.0], [-1.0, 2.0]], STATES),
    ([0.0, 1.0, 2.0], [[1.0], [-1e-300], [1.0]], STATES),
    ([0.0, 1.0, 1.0], [[1.0], [1.0], [1.0]], INCREASING),
    ([0.0, 2.0, 1.0], [[1.0], [1.0], [1.0]], INCREASING),
    ([0.0, np.nan, 2.0], [[1.0], [1.0], [1.0]], INCREASING),
    ([0.0, 1.0, np.nan], [[1.0], [1.0], [1.0]], INCREASING),
    ([0.5, 1.0], [[1.0], [1.0]], STARTS),
    ([np.nan, 1.0], [[1.0], [1.0]], STARTS),
    ([-1e-300, 1.0], [[1.0], [1.0]], STARTS),
    # the checks run in this order: the times first, then the states
    ([0.0, 0.0], [[np.nan], [-1.0]], INCREASING),
    ([1.0, 0.0], [[np.nan], [-1.0]], STARTS),
], ids=["nan-state", "inf-state", "minus-inf-state", "negative-state", "tiny-negative-state",
        "repeated-time", "decreasing-time", "nan-time", "nan-last-time", "late-start", "nan-start",
        "negative-start", "times-before-states", "start-before-times"])
def test_a_bad_trajectory_is_refused_with_its_message(times, states, message):
    with pytest.raises(EngineError) as info:
        build(times, states)
    assert str(info.value) == message


@pytest.mark.parametrize("times, states", [
    ([0.0, 1.0], [[-0.0, 2.0], [1.0, -0.0]]),
    ([-0.0, 1.0], [[1.0], [0.0]]),
    ([0.0], [[3.0, 4.0]]),
    ([0.0], [[0.0]]),
    ([0.0, 1e-300, 1e300], [[0.0], [1e300], [0.0]]),
    ([0.0, 1.0], [[], []]),
], ids=["minus-zero-state", "minus-zero-start", "one-sample", "one-zero-sample", "extremes", "no-species"])
def test_a_valid_trajectory_is_held_as_float64(times, states):
    traj = build(times, states)
    assert traj.times.dtype == traj.states.dtype == np.float64
    assert traj.times.tolist() == list(times)
    assert traj.end_time == times[-1]


def test_shape_errors_come_before_the_value_checks():
    with pytest.raises(EngineError, match="states must be"):
        Trajectory(np.array([np.nan]), np.array([[-1.0]]), ("tumour", "effector"),
                   Termination.COMPLETED, Paradigm.ABS)
    with pytest.raises(EngineError, match="matching lengths"):
        Trajectory(np.array([0.0, 0.0]), np.array([[-1.0]]), ("tumour",), Termination.COMPLETED, Paradigm.ABS)
    with pytest.raises(EngineError, match="starts at t = 0"):
        Trajectory(np.array([]), np.empty((0, 1)), ("tumour",), Termination.COMPLETED, Paradigm.ABS)
