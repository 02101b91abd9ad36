"""Tests for the array-level process and measurement models and the RK4 step
that both filters run."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from eh2marg import (
    EH2FilterState,
    EKFState,
    EulerAngles,
    EulerState,
    GimbalLockError,
    ImuSample,
    ImuStream,
    NoiseParams,
    NonFiniteState,
    RunMetrics,
    Trajectory,
    WorldConstants,
    eh2_step,
)
from eh2marg.dynamics import _rk4_floats, checked_state, process_model, rk4_step
from eh2marg.linearization import jacobians_measurement


def _rk4(x, omega, dt):
    """One RK4 step of the process model with the gyro held, as the EKF predicts."""
    omega = np.asarray(omega, dtype=np.float64)
    return rk4_step(lambda xs: process_model(xs, omega), x, dt)


def _h(x: EulerState, world) -> np.ndarray:
    return jacobians_measurement(x.attitude.as_array(), world)[0]


def test_state_derivative_examples():
    d = process_model(EulerState().as_vector(), np.array([0.1, 0.0, 0.0]))
    assert_allclose(d, [0.1, 0.0, 0.0, 0.0, 0.0, 0.0])

    x = EulerState(bias=np.array([0.1, 0.0, 0.0]))
    assert_allclose(process_model(x.as_vector(), np.array([0.1, 0.0, 0.0])), 0.0)

    x = EulerState(attitude=EulerAngles(np.pi / 2.0, np.pi / 4.0, 0.0))
    assert_allclose(
        process_model(x.as_vector(), np.array([0.0, 0.0, 1.0]))[:3],
        [0.0, -1.0, 0.0],
        atol=1e-15,
    )


def test_state_derivative_bias_block_always_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = EulerState(
            attitude=EulerAngles(
                rng.uniform(-3, 3), rng.uniform(-1.4, 1.4), rng.uniform(-3, 3)
            ),
            bias=rng.standard_normal(3) * 0.1,
        )
        assert_allclose(process_model(x.as_vector(), rng.standard_normal(3))[3:], 0.0)


_state_and_rate_stacks = st.integers(min_value=1, max_value=20).flatmap(
    lambda n: arrays(
        np.float64,
        (n, 9),
        elements=st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    )
)


@given(_state_and_rate_stacks)
def test_stacked_process_model_equals_row_by_row_exactly(cols):
    """f of a (6, N) stack equals, bit for bit, f of each (6,) column with its
    own gyro rate; the stack is rejected exactly when one of its columns is."""
    x, omega = cols[:, :6].T, cols[:, 6:].T
    rows_in_band = []
    for k in range(x.shape[1]):
        try:
            process_model(x[:, k], omega[:, k])
        except GimbalLockError:
            rows_in_band.append(k)
    if rows_in_band:
        with pytest.raises(GimbalLockError):
            process_model(x, omega)
        return
    f_all = process_model(x, omega)
    assert f_all.shape == x.shape
    for k in range(x.shape[1]):
        assert np.array_equal(f_all[:, k], process_model(x[:, k], omega[:, k]))


class TestMeasurement:
    def test_zero_state(self, world):
        y = _h(EulerState(), world)
        assert y.shape == (6,)
        assert_allclose(y[:3], world.g_inertial)
        assert_allclose(y[3:], world.h_inertial)
        assert_allclose(y, np.r_[world.g_inertial, world.h_inertial])

    def test_bias_invariance(self, world):
        e = EulerAngles(0.4, -0.3, 1.2)
        y1 = _h(EulerState(attitude=e, bias=np.zeros(3)), world)
        y2 = _h(EulerState(attitude=e, bias=np.array([0.5, -0.2, 0.1])), world)
        assert_allclose(y1, y2)

    def test_quarter_yaw_mag(self):
        w = WorldConstants(h_inertial=[1.0, 0.0, 0.5])
        y = _h(EulerState(attitude=EulerAngles(0.0, 0.0, np.pi / 2.0)), w)
        assert_allclose(y[3:], [0.0, -1.0, 0.5], atol=1e-12)

    def test_norm_invariants(self, world):
        rng = np.random.default_rng(4)
        for _ in range(50):
            e = EulerAngles(rng.uniform(-3, 3), rng.uniform(-1.4, 1.4), rng.uniform(-3, 3))
            y = _h(EulerState(attitude=e), world)
            assert np.linalg.norm(y[:3]) == pytest.approx(np.linalg.norm(world.g_inertial), abs=1e-10)
            assert np.linalg.norm(y[3:]) == pytest.approx(np.linalg.norm(world.h_inertial), abs=1e-10)

    def test_stack_takes_integer_references_as_rows_do(self):
        # The stack rotates its references in a float buffer: integer
        # vectors must not truncate the rotated values.
        angles = np.array([[0.3, -0.2, 1.1], [-1.0, 0.5, -2.0]])
        world = WorldConstants([0, 0, 10], [1, 0, 1])
        h_all = jacobians_measurement(angles.T, world)[0]
        for k, row in enumerate(angles):
            assert np.array_equal(h_all[:, k], jacobians_measurement(row, world)[0])


@given(
    st.floats(-3.14, 3.14),
    st.floats(-1.5, 1.5),
    st.floats(-3.14, 3.14),
    arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
    arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
)
def test_every_state_keeps_its_read_only_vector(phi, theta, psi, bias, other_bias):
    # The steps step from the kept vector, so every way of building a state
    # must keep [phi, theta, psi, b] in it, read-only, with bias as its tail.
    x = np.array([phi, theta, psi, *bias])
    built = EulerState(EulerAngles(phi, theta, psi), bias)
    states = [
        built,
        EulerState.from_vector(x),
        EulerState._from_checked(x.copy()),
        dataclasses.replace(EulerState(), attitude=built.attitude, bias=bias),
    ]
    for state in states:
        kept = state._vector
        assert kept.tobytes() == x.tobytes() and not kept.flags.writeable
        assert np.shares_memory(state.bias, kept) and np.array_equal(state.bias, bias)
        v = state.as_vector()
        assert v.tobytes() == x.tobytes() and v.flags.writeable
        v[:] = 7.0
        assert kept.tobytes() == x.tobytes()
    moved = dataclasses.replace(states[2], bias=other_bias)
    assert moved._vector.tobytes() == np.r_[x[:3], other_bias].tobytes()



def test_copied_and_pickled_states_keep_one_read_only_vector():
    # A copy must keep bias as a view of the vector the steps read, or a
    # write into one would not reach the other.
    x = np.array([0.3, -0.2, 1.1, 0.01, -0.02, 0.03])
    for state in (EulerState.from_vector(x), EulerState._from_checked(x.copy())):
        for copied in (copy.deepcopy(state), copy.copy(state), pickle.loads(pickle.dumps(state))):
            kept = copied._vector
            assert kept.tobytes() == x.tobytes()
            assert np.shares_memory(copied.bias, kept) and copied.bias.base is kept
            assert not kept.flags.writeable and not copied.bias.flags.writeable
            assert copied.attitude == state.attitude


def _arrays(obj, name="obj"):
    """Every array a container holds, with its path: fields, derived private
    attributes, the arrays in tuples, and those of nested containers."""
    if isinstance(obj, np.ndarray):
        yield name, obj
    elif isinstance(obj, tuple):
        for i, v in enumerate(obj):
            yield from _arrays(v, f"{name}[{i}]")
    elif hasattr(obj, "__dict__"):
        for key, v in vars(obj).items():
            yield from _arrays(v, f"{name}.{key}")


def _containers(cert, model):
    traj = Trajectory(np.arange(3.0), np.zeros((3, 3)), np.ones((3, 3)))
    x0 = EulerState(EulerAngles(0.1, -0.2, 0.3), np.array([0.01, -0.02, 0.03]))
    sample = ImuSample(0.0, [0.1, 0.2, 0.3], [0.0, 0.0, 9.81], [0.48, 0.0, 0.58])
    stepped = eh2_step(EH2FilterState(x0, cert.L), sample, WorldConstants(), 0.01)
    metrics = RunMetrics([0.1, 0.2, 0.3], [-0.4, -0.5, -0.6], [0.4, 0.5, 0.6])
    return [
        x0, EulerState._from_checked(x0.as_vector()), stepped, EKFState(x0), sample,
        NoiseParams(), WorldConstants(), cert, traj, model, metrics,
    ]


def test_frozen_containers_keep_read_only_arrays_through_copies(cert, model):
    copies = (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)))
    for original in _containers(cert, model):
        for copied in map(lambda f: f(original), copies):
            assert type(copied) is type(original)
            want = {name: a.tobytes() for name, a in _arrays(original)}
            got = dict(_arrays(copied))
            # A state's gain table and its world are rebuilt on the next
            # step, not copied.
            lost = set(want) - set(got)
            assert all(n.startswith(("obj._table", "obj._world")) for n in lost), lost
            for name, arr in got.items():
                assert not arr.flags.writeable, name
                if name in want:
                    assert arr.tobytes() == want[name], name
            if isinstance(copied, ImuSample):
                assert np.shares_memory(copied.a_m, copied.stacked_measurement())
                assert np.shares_memory(copied.m_m, copied.stacked_measurement())
            for state in (copied, getattr(copied, "xhat", None)):
                if isinstance(state, EulerState):
                    assert np.shares_memory(state.bias, state._vector)


def test_frozen_containers_compare_by_value(cert, model):
    # Equal constructor arguments make equal containers, arrays compared entry
    # by entry: a tuple of arrays has no truth value to compare by.  An
    # ImuStream keeps writable columns, so it is compared here only.
    stream = ImuStream(np.arange(3) * 0.01, *(np.full((3, 3), v) for v in range(4)))
    for original in _containers(cert, model) + [stream]:
        cls, args = original.__reduce__()
        k = next((i for i, a in enumerate(args) if isinstance(a, np.ndarray)), None)
        if k is None:  # NoiseParams holds floats and keeps the dataclass __eq__
            continue
        changed = args[k].copy()
        changed.flat[-1] += 1.0
        other = cls(*args[:k], changed, *args[k + 1 :])
        same, differ = original == copy.deepcopy(original), original == other
        assert same is True and differ is False, cls.__name__
        assert (original != other) is True


class TestIntegrateStep:
    def test_zero_rate_fixed_point(self):
        x = EulerState(attitude=EulerAngles(0.2, 0.1, -0.4)).as_vector()
        out = _rk4(x, np.zeros(3), 0.01)
        assert_allclose(out, x, atol=1e-16)

    def test_single_axis_roll_exact(self):
        # pure roll is linear in time, so RK4 integrates it exactly
        x = np.zeros(6)
        for _ in range(100):
            x = _rk4(x, [0.3, 0.0, 0.0], 0.01)
        assert x[0] == pytest.approx(0.3, abs=1e-13)
        assert_allclose(x[1:3], 0.0, atol=1e-13)

    def test_given_first_stage_changes_nothing(self):
        # A caller that already holds f(x) hands it over as k1, bit for bit.
        rng = np.random.default_rng(12)
        x = np.column_stack([rng.uniform(-1.2, 1.2, (5, 3)), rng.normal(0.0, 0.01, (5, 3))]).T
        omega = rng.normal(0.0, 0.5, (5, 3)).T
        for xs, om in ((x, omega), (x[:, 2], omega[:, 2])):
            f = lambda v, om=om: process_model(v, om)
            assert np.array_equal(rk4_step(f, xs, 0.01, f(xs)), rk4_step(f, xs, 0.01))

    def test_gimbal_guard_raises(self):
        x = EulerState(attitude=EulerAngles(0.0, np.pi / 2.0 - 2e-6, 0.0)).as_vector()
        with pytest.raises(GimbalLockError):
            _rk4(x, [0.0, 1.0, 0.0], 0.01)

    def test_wrap_after_step(self):
        x = EulerState(attitude=EulerAngles(np.pi - 0.001, 0.0, 0.0)).as_vector()
        out = _rk4(x, [1.0, 0.0, 0.0], 0.01)
        assert -np.pi < out[0] <= np.pi
        assert out[0] == pytest.approx(-np.pi + 0.009, abs=1e-12)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_wrap_one_ulp_above_pi_stays_in_interval(self, stacked):
        # (pi - a) % (2 pi) rounds up to 2 pi for a = pi + 1 ulp; the wrap
        # must still land in (-pi, pi], where EulerState accepts the state.
        x = np.array([np.nextafter(np.pi, 4.0), 0.1, 0.0, 0.0, 0.0, 0.0])
        if stacked:
            x = np.stack([np.zeros(6), x], axis=1)
        out = checked_state(x)
        state = out[:, -1] if stacked else out
        assert -np.pi < state[0] <= np.pi
        assert EulerState.from_vector(state).attitude.phi == -np.pi + 2 * np.spacing(np.pi)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("angle", [np.inf, -np.inf])
    def test_non_finite_state_rejected_before_wrapping(self, angle, column, stacked):
        # Finiteness is checked before the attitude is wrapped: the error
        # names the value the step produced, and no wrap of an infinite
        # angle warns (every warning fails this suite).
        x = np.array([0.1, -0.2, 0.3, 0.01, np.nan, 0.02])
        x[column] = angle
        if stacked:
            x = np.stack([np.zeros(6), x], axis=1)
        with pytest.raises(NonFiniteState, match=rf"{angle!r},.*nan"):
            checked_state(x)
        assert x.T.reshape(-1, 6)[-1, column] == angle

    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
        st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6),
        st.floats(1e-3, 1.0),
    )
    def test_float_rk4_is_the_array_rk4_bit_for_bit(self, x, gains, dt):
        # One state's steps run RK4 on Python floats.  With f(x) = g x + 1,
        # written once per kind, the stage sums weigh as much as x itself,
        # so a sum taken in another order shows in the result's last bits.
        g = np.array(gains)

        def run(step):
            try:
                return step()
            except (GimbalLockError, NonFiniteState) as exc:
                return type(exc)

        got = run(
            lambda: np.array(
                _rk4_floats(
                    lambda *v: tuple(gi * vi + 1.0 for gi, vi in zip(gains, v)),
                    list(x), dt, [gi * xi + 1.0 for gi, xi in zip(gains, x)],
                )
            )
        )
        want = run(lambda: rk4_step(lambda v: g * v + 1.0, np.array(x), dt))
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes()
        else:
            assert got is want

    def test_rk4_self_convergence_order(self):
        """Error vs a dt/8 reference must shrink ~16x when dt halves."""
        omega = np.array([0.9, -0.7, 1.1])
        x0 = np.r_[0.1, -0.2, 0.4, 0.0, 0.0, 0.0]
        T = 0.64

        def final_state(dt):
            x = x0
            for _ in range(int(round(T / dt))):
                x = _rk4(x, omega, dt)
            return x

        ref = final_state(0.0025)
        err1 = np.linalg.norm(final_state(0.04) - ref)
        err2 = np.linalg.norm(final_state(0.02) - ref)
        order = np.log2(err1 / err2)
        assert order >= 3.8

    def test_matches_scipy_reference(self, world):
        omega = np.array([0.5, 0.3, -0.8])
        x0 = np.r_[0.05, 0.1, -0.3, 0.01, -0.02, 0.005]

        def rhs(_t, x):
            return process_model(x, omega)

        sol = solve_ivp(rhs, (0.0, 1.0), x0, rtol=1e-12, atol=1e-12, dense_output=True)
        x = x0
        for _ in range(100):
            x = _rk4(x, omega, 0.01)
        assert_allclose(x, sol.y[:, -1], atol=1e-7)
