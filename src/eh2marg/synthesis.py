"""H2-optimal estimator gain synthesis and LMI certification.

The gain is computed through the Riccati dual of the H2 estimation problem
(a filter CARE driven by the noise intensities in Bw/Dw, solved by Potter's
eigenvector method) and then certified against the synthesis LMI, evaluated
constructively: a Lyapunov certificate Y is built from the closed-loop error
system's controllability Gramian Y0 plus a small inflation along P_I, the
Gramian of the identity, that turns the non-strict numerical inequalities
into strict ones (each one Kronecker-sum linear solve), and the LMI blocks
are checked in the coordinates of Y's Cholesky factor, where the certificate
X = Y^-1 cancels and is never formed.  The LMI check is therefore an
independent route to the same feasibility statement and the acceptance
oracle for the CARE result.  Y0 is solved once per synthesis: the achieved
H2 norm and the LMI check both read it.

The gain matrix can be exported to and loaded from a plain-text format
(row-major, whitespace-delimited, 17 significant digits) so a precomputed
gain can be shipped to an embedded target.
"""

import os
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NonConvergence, SynthesisFailure
from .linearization import LinearModel
from .kinematics import _Container, _frozen

__all__ = [
    "GainCertificate",
    "load_gain_text",
    "save_gain_text",
    "solve_care",
    "solve_lyapunov",
    "synthesize_gain",
]

#: Strictness margin for the "< 0" LMI blocks, applied to the equilibrated blocks.
LMI_EIG_TOL = -1e-9


@dataclass(frozen=True, eq=False)
class GainCertificate(_Container):
    """A synthesized estimator gain, kept read-only, with its optimality and stability evidence."""

    L: NDArray[np.float64]
    gamma: float
    max_closedloop_real_eig: float
    lmi_feasible: bool
    h2_norm: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", _frozen(self.L))
        if not np.all(np.isfinite(self.L)):
            raise ValueError("gain matrix contains non-finite entries")
        if not self.max_closedloop_real_eig < 0.0:
            raise ValueError("certificate requires a Hurwitz closed loop")
        if not self.h2_norm <= self.gamma * (1.0 + 1e-6):
            raise ValueError("h2_norm exceeds the certified gamma bound")


@dataclass(frozen=True)
class LmiReport:
    """Outcome of :func:`_lmi_report`'s LMI feasibility check, with eigenvalue margins."""

    feasible: bool
    block1_max_eig: float
    block2_max_eig: float
    trace_q: float
    gamma_sq: float
    max_closedloop_real_eig: float
    reason: str = ""


def solve_lyapunov(F: NDArray[np.float64], Q: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve the continuous Lyapunov equation F P + P F^T + Q = 0 as one dense
    solve of (F (x) I + I (x) F) vec(P) = -vec(Q), 36 x 36 for the 6-state design.

    Raises
    ------
    NonConvergence
        If the solve fails or the residual exceeds 1e-8 * ||Q||.
    """
    F = np.asarray(F, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    eye = np.eye(F.shape[0])
    try:
        P = np.linalg.solve(np.kron(F, eye) + np.kron(eye, F), -Q.ravel()).reshape(Q.shape)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergence(f"Lyapunov solve failed: {exc}") from exc
    residual = np.linalg.norm(F @ P + P @ F.T + Q)
    bound = 1e-8 * max(np.linalg.norm(Q), 1e-300)
    if not residual <= bound:
        raise NonConvergence(
            f"Lyapunov residual {residual:.3e} exceeds tolerance {bound:.3e}"
        )
    return P


def solve_care(
    A: NDArray[np.float64],
    B: NDArray[np.float64],
    Q: NDArray[np.float64],
    R: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Solve the CARE A^T P + P A - P B R^-1 B^T P + Q = 0 for P = U2 U1^-1, where
    [U1; U2] are the stable eigenvectors of the Hamiltonian [[A, -B R^-1 B^T], [-Q, -A^T]].

    Raises
    ------
    NonConvergence
        If the Hamiltonian does not have exactly n stable eigenvalues, U1
        is singular, or the relative residual exceeds 1e-8.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    n = A.shape[0]
    try:
        H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
        eigvals, U = np.linalg.eig(H)
        stable = np.flatnonzero(eigvals.real < 0.0)
        if stable.size != n:
            raise NonConvergence(f"Hamiltonian has {stable.size} stable eigenvalues, not {n}")
        P = np.linalg.solve(U[:n, stable].T, U[n:, stable].T).T.real
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergence(f"CARE solve failed: {exc}") from exc
    residual = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
    scale = max(np.linalg.norm(Q), np.linalg.norm(P), 1.0)
    rel = np.linalg.norm(residual) / scale
    if not rel <= 1e-8:
        raise NonConvergence(f"CARE relative residual {rel:.3e} exceeds 1e-8")
    return P


def _error_system(m: LinearModel, L: NDArray[np.float64]) -> tuple[NDArray, float, NDArray]:
    """Gain L's error system: F = A + L Cy, the largest real part of eig(F)
    and G = Bw + L Dw."""
    L = np.asarray(L, dtype=np.float64)
    F = m.A + L @ m.Cy
    return F, float(np.max(np.real(np.linalg.eigvals(F)))), m.Bw + L @ m.Dw


def _pbh_detectable(A: NDArray[np.float64], Cy: NDArray[np.float64]) -> tuple[bool, complex]:
    """PBH test: every eigenvalue of A with Re >= 0 must be observable."""
    scale = max(np.linalg.norm(A), np.linalg.norm(Cy), 1.0)
    for lam in np.linalg.eigvals(A):
        if lam.real < -1e-12 * scale:
            continue
        stacked = np.vstack([A - lam * np.eye(A.shape[0]), Cy])
        smin = np.linalg.svd(stacked, compute_uv=False)[-1]
        if smin <= 1e-9 * scale:
            return False, lam
    return True, 0j


def synthesize_gain(m: LinearModel) -> GainCertificate:
    """Compute the H2-optimal estimator gain for the linearized plant.

    Solves the filter CARE for the stationary error covariance, recovers the
    gain, re-computes the achieved H2 norm of the error system
    Cz [sI - (A + L Cy)]^-1 (Bw + L Dw) through the independent Lyapunov
    route, from its controllability Gramian Y0, and certifies the result
    against the LMI at a relative slack of 1e-6 with the same Y0.

    Raises
    ------
    SynthesisFailure
        If (A, Cy) is not detectable, Dw Dw^T is singular, the Riccati
        solve does not converge, its gain leaves A + L Cy not Hurwitz or
        the Lyapunov solve for the error system's Gramian does not converge.
    """
    V = m.Dw @ m.Dw.T
    v_min = float(np.min(np.linalg.eigvalsh(V)))
    if v_min <= 0.0:
        raise SynthesisFailure(
            f"Dw Dw^T is singular (min eigenvalue {v_min:.3e}); every measurement "
            "channel needs nonzero noise"
        )
    detectable, bad_eig = _pbh_detectable(m.A, m.Cy)
    if not detectable:
        raise SynthesisFailure(f"(A, Cy) is not detectable: eigenvalue {bad_eig} unobservable")

    # No cross-covariance term: LinearModel keeps noise channels disjoint, Bw Dw^T = 0.
    try:
        P = solve_care(m.A.T, m.Cy.T, m.Bw @ m.Bw.T, V)
    except NonConvergence as exc:
        raise SynthesisFailure(f"filter CARE did not converge: {exc}") from exc
    L = -np.linalg.solve(V.T, (P @ m.Cy.T).T).T

    F, max_real, G = _error_system(m, L)
    if not max_real < 0.0:
        raise SynthesisFailure(
            "synthesized closed loop is not Hurwitz: "
            f"A + L Cy has max real eigenvalue {max_real:.3e} >= 0"
        )
    try:
        Y0 = solve_lyapunov(F, G @ G.T)
    except NonConvergence as exc:
        raise SynthesisFailure(f"closed-loop Gramian did not converge: {exc}") from exc
    h2 = float(np.sqrt(max(np.trace(m.Cz @ Y0 @ m.Cz.T), 0.0)))
    gamma = h2 * (1.0 + 1e-9)
    report = _lmi_report(m, F, max_real, G, Y0, gamma * (1.0 + 1e-6))
    return GainCertificate(
        L=L,
        gamma=gamma,
        max_closedloop_real_eig=max_real,
        lmi_feasible=report.feasible,
        h2_norm=h2,
    )


def _lmi_report(
    m: LinearModel, F: NDArray, max_real: float, G: NDArray, Y0: NDArray, gamma: float
) -> LmiReport:
    """Check the synthesis LMI for a gain L and an H2 bound gamma, given L's
    Hurwitz error system F = A + L Cy, G = Bw + L Dw, the largest real part
    max_real of eig(F) and the controllability Gramian Y0 of (F, G).

    The LMI asks for X > 0, W = X L and a slack Q with block 1 =
    [X A + W Cy + (.)^T, X Bw + W Dw; *, -I] < 0, block 2 = [-Q, Cz; Cz^T, -X]
    < 0 and trace(Q) < gamma^2.  The candidate is constructed, not searched
    for: X = Y^-1 with Y the error system's controllability Gramian inflated
    along the identity, and Q a scaled copy of the achieved output
    covariance, so all three hold exactly when gamma exceeds the achieved H2
    norm.  The blocks are checked after the congruences diag(Y_h, I) and
    diag(I / q_bar, Y_h), with Y = Y_h Y_h^T (Cholesky) and q_bar^2 =
    trace(Q) / nz, which keep definiteness and equilibrate raw scales of
    1e5 and 1e-10 that would drown the tolerance in rounding.  There X drops
    out: with M = Y_h^-1 (A + L Cy) Y_h, block 1 is [M + M^T, Y_h^-1 (Bw +
    L Dw); *, -I] and block 2 is [-Q / q_bar^2, Cz Y_h / q_bar; *, -I].

    Returns an :class:`LmiReport`; never raises for an infeasible pair.
    """
    gamma_sq = float(gamma) ** 2

    def infeasible(reason: str, trace_q: float = np.inf) -> LmiReport:
        return LmiReport(False, np.inf, np.inf, trace_q, gamma_sq, max_real, reason)

    try:
        P_I = solve_lyapunov(F, np.eye(F.shape[0]))
    except NonConvergence as exc:
        return infeasible(str(exc))
    trace0 = float(np.trace(m.Cz @ Y0 @ m.Cz.T))
    budget = gamma_sq - trace0
    if budget <= 0.0:
        return infeasible(
            f"trace bound violated: achieved {trace0:.6e} >= gamma^2 {gamma_sq:.6e}", trace0
        )
    # Y = Y0 + delta P_I satisfies F Y + Y F^T + G G^T = -delta I exactly;
    # a third of the trace budget buys the inflation, a third the Q margin.
    # trace(Cz P_I Cz^T) > 0 because P_I > 0 and LinearModel rejects Cz = 0.
    delta = budget / (3.0 * float(np.trace(m.Cz @ P_I @ m.Cz.T)))
    rho = min(budget / (3.0 * trace0), 0.5) if trace0 > 0.0 else 0.5
    Y = 0.5 * ((Y0 + delta * P_I) + (Y0 + delta * P_I).T)
    try:
        Y_h = np.linalg.cholesky(Y)
    except np.linalg.LinAlgError as exc:
        return infeasible(f"certificate not PD: {exc}")
    n = F.shape[0]
    M, Y_h_inv_G = np.hsplit(np.linalg.solve(Y_h, np.hstack([F @ Y_h, G])), [n])
    block1 = np.block([[M + M.T, Y_h_inv_G], [Y_h_inv_G.T, -np.eye(G.shape[1])]])
    eig1 = float(np.max(np.linalg.eigvalsh(block1)))

    Q_slack = (1.0 + rho) * (m.Cz @ Y @ m.Cz.T)
    trace_q = float(np.trace(Q_slack))
    q_bar = np.sqrt(trace_q / m.Cz.shape[0])
    Cz_Y_h = m.Cz @ Y_h / q_bar
    block2 = np.block([[-Q_slack / q_bar**2, Cz_Y_h], [Cz_Y_h.T, -np.eye(n)]])
    eig2 = float(np.max(np.linalg.eigvalsh(block2)))

    checks = (
        (eig1 < LMI_EIG_TOL, f"block1 max eigenvalue {eig1:.3e}"),
        (eig2 < LMI_EIG_TOL, f"block2 max eigenvalue {eig2:.3e}"),
        (trace_q < gamma_sq, f"trace(Q) {trace_q:.6e} >= gamma^2 {gamma_sq:.6e}"),
    )
    feasible = all(holds for holds, _ in checks)
    reason = "; ".join(violation for holds, violation in checks if not holds)
    return LmiReport(feasible, eig1, eig2, trace_q, gamma_sq, max_real, reason)


def save_gain_text(L: NDArray[np.float64], path: str | os.PathLike) -> None:
    """Write a matrix in the plain-text gain format.

    First data line holds ``rows cols``; each following line is one row,
    whitespace-delimited, 17 significant digits.  Lines starting with ``#``
    are comments.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2:
        raise ValueError("gain must be a 2-D matrix")
    rows, cols = L.shape
    lines = ["# eh2marg gain matrix", f"{rows} {cols}"]
    for i in range(rows):
        lines.append(" ".join(format(v, ".17g") for v in L[i]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_gain_text(path: str | os.PathLike) -> NDArray[np.float64]:
    """Read a matrix written by :func:`save_gain_text`."""
    with open(path, "r", encoding="ascii") as fh:
        data_lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not data_lines:
        raise ValueError(f"{path}: no data lines")
    header = data_lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: first data line must be 'rows cols'")
    rows, cols = int(header[0]), int(header[1])
    if len(data_lines) - 1 != rows:
        raise ValueError(f"{path}: expected {rows} rows, found {len(data_lines) - 1}")
    # Every row is checked against the header before anything is allocated,
    # so a header cannot ask for more memory than the file holds values.
    values = [line.split() for line in data_lines[1:]]
    for i, row in enumerate(values):
        if len(row) != cols:
            raise ValueError(f"{path}: row {i} has {len(row)} values, expected {cols}")
    out = np.array([[float(v) for v in row] for row in values]).reshape(rows, cols)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{path}: non-finite entries")
    return out
