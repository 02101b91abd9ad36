"""Tests for gain synthesis: Riccati/Lyapunov solvers, H2 norm, LMI check.

The H2 norm of a gain other than the synthesized one comes from scipy's
Lyapunov solver (:func:`_scipy_h2`), an oracle independent of the
package's; the LMI check is the one :func:`synthesize_gain` runs, at any
gamma (:func:`_lmi_check`).
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose

from eh2marg.errors import NonConvergence, SynthesisFailure
from eh2marg.linearization import nominal_model
from eh2marg.sensors import NoiseParams, WorldConstants
from eh2marg.synthesis import (
    LMI_EIG_TOL,
    GainCertificate,
    _error_system,
    _lmi_report,
    load_gain_text,
    save_gain_text,
    solve_care,
    solve_lyapunov,
    synthesize_gain,
)

SQRT2 = math.sqrt(2.0)

#: Design models on which the numpy solvers are checked against scipy's.
DESIGNS = {
    "default": (NoiseParams(), WorldConstants()),
    "noisy": (NoiseParams(n_w=0.05, n_b=1e-3, n_a=0.2, n_m=0.05), WorldConstants()),
    "quiet_gyro": (NoiseParams(n_w=1e-3, n_b=1e-5, n_a=0.05, n_m=0.01), WorldConstants()),
    "other_world": (
        NoiseParams(),
        WorldConstants(g_inertial=[0.0, 0.0, 20.0], h_inertial=[0.2, 0.1, -0.4]),
    ),
}

#: Every NoiseParams field at 0.1x, 1x and 10x its default: 81 design models.
_N0 = NoiseParams()
NOISE_GRID = [
    NoiseParams(n_w=_N0.n_w * a, n_b=_N0.n_b * b, n_a=_N0.n_a * c, n_m=_N0.n_m * d)
    for a, b, c, d in itertools.product((0.1, 1.0, 10.0), repeat=4)
]


def _rel(actual, reference):
    return np.linalg.norm(actual - reference) / np.linalg.norm(reference)


def _scipy_h2(m, L):
    """H2 norm of gain L's error system Cz [sI - (A + L Cy)]^-1 (Bw + L Dw)
    through scipy's Lyapunov solver; None if A + L Cy is not Hurwitz."""
    F = m.A + L @ m.Cy
    if not np.max(np.linalg.eigvals(F).real) < 0.0:
        return None
    G = m.Bw + L @ m.Dw
    Y = scipy.linalg.solve_continuous_lyapunov(F, -G @ G.T)
    return math.sqrt(np.trace(m.Cz @ Y @ m.Cz.T))


def _lmi_check(m, L, gamma):
    """The LMI check that synthesize_gain runs, for a Hurwitz gain L at bound gamma."""
    F, max_real, G = _error_system(m, L)
    return _lmi_report(m, F, max_real, G, solve_lyapunov(F, G @ G.T), gamma)


def _scalar_model(a=-1.0, cy=1.0):
    """1-state error plant with unit process and measurement noise channels."""
    return SimpleNamespace(
        A=np.array([[a]]),
        Bw=np.array([[1.0, 0.0]]),
        Cy=np.array([[cy]]),
        Dw=np.array([[0.0, 1.0]]),
        Cz=np.array([[1.0]]),
    )


class TestSolveLyapunov:
    def test_identity_example(self):
        assert_allclose(solve_lyapunov(-np.eye(2), 2.0 * np.eye(2)), np.eye(2), atol=1e-12)

    def test_scalar(self):
        assert_allclose(solve_lyapunov([[-1.0]], [[1.0]]), [[0.5]], atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_property(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(6, 6))
        F = M - (np.max(np.real(np.linalg.eigvals(M))) + 1.0) * np.eye(6)
        G = rng.normal(size=(6, 4))
        Q = G @ G.T
        P = solve_lyapunov(F, Q)
        assert_allclose(P, P.T, atol=1e-10)
        assert np.linalg.norm(F @ P + P @ F.T + Q) <= 1e-8 * np.linalg.norm(Q)

    def test_singular_spectrum_rejected(self):
        with pytest.raises(NonConvergence):
            solve_lyapunov(np.zeros((2, 2)), np.eye(2))


class TestSolveCare:
    def test_scalar_integrator(self):
        assert_allclose(solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]]), [[1.0]], atol=1e-12)

    def test_scalar_stable(self):
        # a = -1: p^2 + 2p - 1 = 0 -> p = sqrt(2) - 1.
        P = solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert_allclose(P, [[SQRT2 - 1.0]], atol=1e-12)

    def test_matrix_case_residual(self):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 2))
        Q = np.eye(4)
        R = np.eye(2)
        P = solve_care(A, B, Q, R)
        res = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
        assert np.linalg.norm(res) <= 1e-8 * max(np.linalg.norm(P), 1.0)
        assert np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) > 0.0

    def test_no_stabilizing_solution_rejected(self):
        # A = B = 0: every Hamiltonian eigenvalue is 0, none is stable.
        with pytest.raises(NonConvergence, match="stable eigenvalues"):
            solve_care(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2), np.eye(1))

    def test_unstabilizable_pair_rejected(self):
        # An unstable mode that B cannot reach has no stabilizing solution.
        with pytest.raises(NonConvergence):
            solve_care([[1.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]], np.eye(2), [[1.0]])


@pytest.mark.parametrize("design", DESIGNS)
class TestAgainstScipy:
    """The numpy solvers match scipy's on the design models."""

    def test_care_and_gain(self, design):
        m = nominal_model(*DESIGNS[design])
        V = m.Dw @ m.Dw.T
        args = (m.A.T, m.Cy.T, m.Bw @ m.Bw.T, V)
        P_ref = scipy.linalg.solve_continuous_are(*args)
        assert _rel(solve_care(*args), P_ref) <= 1e-12
        L_ref = -np.linalg.solve(V, m.Cy @ P_ref).T
        assert _rel(synthesize_gain(m).L, L_ref) <= 1e-12

    def test_lyapunov(self, design):
        m = nominal_model(*DESIGNS[design])
        cert = synthesize_gain(m)
        L = cert.L
        F = m.A + L @ m.Cy
        G = m.Bw + L @ m.Dw
        for Q in (G @ G.T, np.eye(6)):
            P_ref = scipy.linalg.solve_continuous_lyapunov(F, -Q)
            assert _rel(solve_lyapunov(F, Q), P_ref) <= 1e-12
        Y_ref = scipy.linalg.solve_continuous_lyapunov(F, -G @ G.T)
        h2_ref = math.sqrt(np.trace(m.Cz @ Y_ref @ m.Cz.T))
        assert cert.h2_norm == pytest.approx(h2_ref, rel=1e-12)


class TestSynthesizeGainScalar:
    def test_scalar_chain(self):
        cert = synthesize_gain(_scalar_model())
        assert_allclose(cert.L, [[-(SQRT2 - 1.0)]], atol=1e-12)
        assert cert.h2_norm == pytest.approx(math.sqrt(SQRT2 - 1.0), rel=1e-12)
        assert cert.lmi_feasible
        assert cert.max_closedloop_real_eig == pytest.approx(-SQRT2, rel=1e-12)

    def test_optimality_against_perturbations(self):
        m = _scalar_model()
        cert = synthesize_gain(m)
        for dl in (-0.05, -0.01, 0.01, 0.05):
            assert _scipy_h2(m, cert.L + dl) > cert.h2_norm

    def test_zero_cy_stable_plant(self):
        cert = synthesize_gain(_scalar_model(cy=0.0))
        assert_allclose(cert.L, [[0.0]], atol=0)
        assert cert.h2_norm == pytest.approx(1.0 / SQRT2, rel=1e-12)

    def test_zero_cy_unstable_plant(self):
        with pytest.raises(SynthesisFailure):
            synthesize_gain(_scalar_model(a=0.1, cy=0.0))

    def test_unstable_closed_loop_is_synthesis_failure(self, monkeypatch):
        # A destabilizing Riccati solution gives L = 5 and A + L Cy = 4.
        monkeypatch.setattr("eh2marg.synthesis.solve_care", lambda *args: np.array([[-5.0]]))
        with pytest.raises(SynthesisFailure, match="not Hurwitz"):
            synthesize_gain(_scalar_model())


class TestSynthesizeGainNominal:
    def test_certificate(self, model, cert):
        assert cert.L.shape == (6, 6)
        assert cert.lmi_feasible
        assert cert.max_closedloop_real_eig < 0.0
        assert cert.gamma == pytest.approx(cert.h2_norm * (1.0 + 1e-9), rel=1e-15)
        # Independent recomputation through scipy's Lyapunov solver.
        assert _scipy_h2(model, cert.L) == pytest.approx(cert.h2_norm, rel=1e-12)

    def test_deterministic(self, model, cert):
        again = synthesize_gain(model)
        assert np.array_equal(again.L, cert.L)
        assert again.h2_norm == cert.h2_norm

    def test_gain_moves_estimate_toward_measurement(self, cert):
        # Innovation feedback must be negative along the gravity channel:
        # a roll error raises a_y, and the phi row must pull phi back down.
        assert cert.L[0, 1] < 0.0
        assert cert.L[1, 0] > 0.0

    def test_perturbed_gains_are_worse(self, model, cert):
        scale = 0.1 * np.linalg.norm(cert.L)
        rng = np.random.default_rng(2024)
        for _ in range(5):
            dl = rng.normal(size=(6, 6))
            dl *= scale / np.linalg.norm(dl)
            h2 = _scipy_h2(model, cert.L + dl)
            if h2 is not None:
                assert h2 >= cert.h2_norm

    def test_singular_measurement_noise(self, world):
        m = nominal_model(noise=NoiseParams(n_a=0.0, n_m=0.0), world=world)
        with pytest.raises(SynthesisFailure, match="noise"):
            synthesize_gain(m)

    def test_gramian_nonconvergence_is_synthesis_failure(self, world):
        # The error system's Gramian solve misses its residual bound here.
        m = nominal_model(NoiseParams(n_w=5e-9, n_b=1e-10, n_a=200.0, n_m=5e-9), world)
        with pytest.raises(SynthesisFailure, match="Gramian did not converge"):
            synthesize_gain(m)

    def test_certificate_norm_matches_scipy_on_noise_grid(self):
        for noise in NOISE_GRID:
            m = nominal_model(noise, WorldConstants())
            cert = synthesize_gain(m)
            assert cert.h2_norm == pytest.approx(_scipy_h2(m, cert.L), rel=1e-12), noise
            max_real = np.max(np.linalg.eigvals(m.A + cert.L @ m.Cy).real)
            assert cert.max_closedloop_real_eig == max_real, noise

    def test_one_gramian_solve_per_synthesis(self, model, monkeypatch):
        # Lyapunov: the Gramian Y0 and the LMI check's P_I; eigvals: the
        # detectability test's eig(A) and eig(A + L Cy).
        calls = {"solve_lyapunov": 0, "eigvals": 0}

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)
            return call

        monkeypatch.setattr(
            "eh2marg.synthesis.solve_lyapunov", counted("solve_lyapunov", solve_lyapunov)
        )
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        synthesize_gain(model)
        assert calls == {"solve_lyapunov": 2, "eigvals": 2}


class TestVerifyLmi:
    """The LMI check's verdicts at bounds other than the certified one."""

    def test_feasible_above_achieved_norm(self, model, cert):
        report = _lmi_check(model, cert.L, cert.h2_norm * 1.01)
        assert report.feasible
        assert report.block1_max_eig < 0.0
        assert report.block2_max_eig < 0.0
        assert report.trace_q < report.gamma_sq

    def test_infeasible_below_achieved_norm(self, model, cert):
        report = _lmi_check(model, cert.L, cert.h2_norm * 0.5)
        assert not report.feasible
        assert "trace" in report.reason

    def test_gamma_zero_infeasible(self, model, cert):
        assert not _lmi_check(model, cert.L, 0.0).feasible

    def test_scalar_roundtrip(self):
        # The open loop x' = -x + w1: Gramian 1/2, H2 norm 1/sqrt(2).
        m = _scalar_model()
        h2 = 1.0 / SQRT2
        assert _lmi_check(m, np.zeros((1, 1)), h2 * 1.05).feasible
        assert not _lmi_check(m, np.zeros((1, 1)), h2 * 0.95).feasible


def _x_form_lmi(m, L, gamma):
    """Reference evaluation of the LMI as written, in the certificate's own
    coordinates: X = inv(Y), W = X L, both blocks assembled, then
    equilibrated by the congruences diag(Y_h, I) and diag(I / q_bar, Y_h).
    Returns (feasible, block 1 max eigenvalue, block 2 max eigenvalue)."""
    F = m.A + L @ m.Cy
    G = m.Bw + L @ m.Dw
    Y0 = solve_lyapunov(F, G @ G.T)
    P_I = solve_lyapunov(F, np.eye(6))
    trace0 = np.trace(m.Cz @ Y0 @ m.Cz.T)
    budget = gamma**2 - trace0
    if budget <= 0.0:
        return False, np.inf, np.inf
    delta = budget / (3.0 * np.trace(m.Cz @ P_I @ m.Cz.T))
    rho = min(budget / (3.0 * trace0), 0.5)
    Y = Y0 + delta * P_I
    Y = 0.5 * (Y + Y.T)
    Y_h = np.linalg.cholesky(Y)
    X = np.linalg.inv(Y)
    X = 0.5 * (X + X.T)
    W = X @ L
    XF = X @ m.A + W @ m.Cy
    XG = X @ m.Bw + W @ m.Dw
    block1 = np.block([[XF + XF.T, XG], [XG.T, -np.eye(12)]])
    Q = (1.0 + rho) * (m.Cz @ Y @ m.Cz.T)
    block2 = np.block([[-Q, m.Cz], [m.Cz.T, -X]])
    q_bar = math.sqrt(np.trace(Q) / 3.0)
    eigs = []
    for block, scale in (
        (block1, scipy.linalg.block_diag(Y_h, np.eye(12))),
        (block2, scipy.linalg.block_diag(np.eye(3) / q_bar, Y_h)),
    ):
        eq = scale.T @ block @ scale
        eigs.append(np.max(np.linalg.eigvalsh(0.5 * (eq + eq.T))))
    feasible = eigs[0] < LMI_EIG_TOL and eigs[1] < LMI_EIG_TOL and np.trace(Q) < gamma**2
    return feasible, eigs[0], eigs[1]


def _check_against_x_form(m):
    cert = synthesize_gain(m)
    assert cert.lmi_feasible == _x_form_lmi(m, cert.L, cert.gamma * (1.0 + 1e-6))[0]
    for gamma in (cert.gamma * (1.0 + 1e-6), 1.01 * cert.h2_norm, 0.5 * cert.h2_norm):
        report = _lmi_check(m, cert.L, gamma)
        feasible, eig1, eig2 = _x_form_lmi(m, cert.L, gamma)
        assert report.feasible == feasible
        margins = [report.block1_max_eig, report.block2_max_eig]
        assert_allclose(margins, [eig1, eig2], rtol=0, atol=1e-12)


class TestVerifyLmiAgainstXForm:
    """The Cholesky-coordinate check agrees with the LMI evaluated through X = inv(Y)."""

    @pytest.mark.parametrize("design", DESIGNS)
    def test_designs(self, design):
        _check_against_x_form(nominal_model(*DESIGNS[design]))

    def test_noise_grid(self):
        for noise in NOISE_GRID:
            _check_against_x_form(nominal_model(noise, WorldConstants()))


class TestGainCertificateValidation:
    def test_requires_hurwitz(self):
        with pytest.raises(ValueError, match="Hurwitz"):
            GainCertificate(
                L=np.zeros((6, 6)),
                gamma=1.0,
                max_closedloop_real_eig=0.0,
                lmi_feasible=True,
                h2_norm=0.5,
            )

    def test_requires_consistent_bound(self):
        with pytest.raises(ValueError, match="gamma"):
            GainCertificate(
                L=np.zeros((6, 6)),
                gamma=1.0,
                max_closedloop_real_eig=-1.0,
                lmi_feasible=True,
                h2_norm=2.0,
            )


class TestGainTextFormat:
    def test_roundtrip_bit_exact(self, cert, tmp_path):
        path = tmp_path / "gain.txt"
        save_gain_text(cert.L, path)
        assert np.array_equal(load_gain_text(path), cert.L)

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, max_side=7),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_roundtrip_bit_exact_property(self, tmp_path_factory, L):
        path = tmp_path_factory.mktemp("gain") / "gain.txt"
        save_gain_text(L, path)
        loaded = load_gain_text(path)
        assert loaded.shape == L.shape
        assert loaded.tobytes() == L.tobytes()  # -0.0 and subnormals included

    def test_layout(self, tmp_path):
        path = tmp_path / "gain.txt"
        save_gain_text(np.array([[1.0, -2.5], [0.125, 3e-17]]), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "2 2"
        assert len(lines) == 4
        assert lines[2].split() == ["1", "-2.5"]

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gain.txt"
        path.write_text("# header\n\n2 1\n# mid comment\n1.5\n\n-0.25\n")
        assert_allclose(load_gain_text(path), [[1.5], [-0.25]], atol=0)

    def test_malformed_row_count(self, tmp_path):
        path = tmp_path / "gain.txt"
        path.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(ValueError, match="rows"):
            load_gain_text(path)

    def test_malformed_row_width(self, tmp_path):
        path = tmp_path / "gain.txt"
        path.write_text("1 3\n1.0 2.0\n")
        with pytest.raises(ValueError, match="values"):
            load_gain_text(path)

    def test_non_matrix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            save_gain_text(np.ones(6), tmp_path / "gain.txt")
