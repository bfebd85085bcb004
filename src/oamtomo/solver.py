"""Density-matrix recovery from intensity scans.

Two estimators share the least-squares objective || A x - p ||:

* ``reconstruct_positive`` minimizes over the PSD cone with a factored
  Levenberg-Marquardt iteration on X = L L^dag, started from the PSD
  projection of A^+ p. Its ``converged`` flag is a first-order
  optimality certificate, lambda_min(S) >= -tol and |<S, X>| / Tr X <= tol
  for the gradient matrix S = A^T (A x - p), both relative to ||A^T p||:
  the estimate is a minimizer to that tolerance. The certificate says
  nothing about uniqueness; when A has a null space the minimizer set can
  be a whole face of the cone.
* ``reconstruct_pseudoinverse`` takes the minimum-norm least-squares
  solution A^+ p with no positivity constraint, from the map's least-squares model.

Both report trace-normalized estimates so errors compare shape, not scale,
and I/d for an estimate of degenerate trace.
``uniqueness_entropy`` probes solution uniqueness: run the estimator many
times (random restarts, or random null-space shifts for the baseline),
stack the estimates' coordinates as columns, and take the Shannon entropy of
the normalized singular values. Zero entropy means every run agreed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qstate import (
    DensityMatrix,
    coords_to_hermitian,
    hermitian_to_coords,
    project_psd,
    random_state,
    state_to_json_dict,
)
from .sensor import IntensityScan, MeasurementMap

__all__ = [
    "SolverConfig",
    "ReconstructionReport",
    "reconstruct_positive",
    "reconstruct_pseudoinverse",
    "multistart_estimates",
    "uniqueness_entropy",
    "singular_value_entropy",
    "report_to_json_dict",
]

BRANCHES = ("positive", "pseudoinverse")  # the estimators multistart_estimates runs
DEGENERATE_TRACE = 1e-14
RANK_TOL = 0.05  # eigenvalues above this fraction of the largest set the initial factor width
LM_DAMPING = 1e-10  # initial damping, relative to ||J||_F^2, the trace of the Gram matrix
LM_TRIALS = 40  # damping increases tried before a refinement step counts as stalled
LM_RAISE = 4.0  # damping factor after a rejected step
LM_MIN_SHRINK = 0.1  # smallest damping factor after an accepted step
SLOW_GAIN = 0.25  # a step keeping more of the excess objective than this is slow
TRIAL_STEPS = 5  # damped steps a narrower factor gets to beat the current objective
# A Gauss-Newton step at a unique low-rank minimizer sends each spurious column
# E of L to E/2, so a singular value of L that lands in this band of its value
# before the step is halving. The band allows for the damping and the step's
# second-order term; a wider one (0.3-0.7) also caught genuine columns that
# were still converging, and cost the camera scans steps. The tail
# extrapolation reads the size of a step against the last one's in this band.
HALVING = (0.4, 0.6)


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 20000
    rel_tolerance: float = 1e-12  # optimality certificate, relative to ||A^T p||
    multistart: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.rel_tolerance <= 0:
            raise ValueError("rel_tolerance must be positive")
        if self.multistart < 1:
            raise ValueError("multistart must be at least 1")


@dataclass(frozen=True)
class ReconstructionReport:
    estimate: DensityMatrix
    objective_history: list[float]
    iterations_used: int
    converged: bool
    metadata: dict = field(default_factory=dict)


def _finalize(mmap: MeasurementMap, raw: np.ndarray, project: bool = True) -> tuple[DensityMatrix, dict]:
    """Trace-normalize a Hermitian estimate for reporting, or report I/d when
    its trace is degenerate. With ``project`` the estimate is a validated
    state; without, it is left as normalized (the pseudoinverse's)."""
    tr = np.trace(raw).real
    meta: dict = {"raw_trace": float(tr)}
    if abs(tr) < DEGENERATE_TRACE:
        meta["degenerate_normalization"] = True
        d = mmap.basis.dim
        return DensityMatrix(mmap.basis, np.eye(d) / d), meta
    est = raw / tr
    if project:  # re-clip tiny negative eigenvalues introduced by normalization rounding
        est = project_psd(est)
        est /= np.trace(est).real
    return DensityMatrix(mmap.basis, est, validate=project), meta


def _jacobian(M: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Jacobian in (Re L, Im L) of Tr(M_i L L^dag): rows 2 [Re M_i L | Im M_i L]."""
    G = (M.reshape(-1, L.shape[0]) @ L).reshape(M.shape[0], -1)  # one GEMM, not a batch of small ones
    return 2.0 * np.concatenate([G.real, G.imag], axis=1)


def _certificate(S: np.ndarray, X: np.ndarray, scale: float) -> tuple[float, float, np.ndarray]:
    """Relative first-order optimality residuals of a PSD iterate X.

    S is the gradient of the objective as a Hermitian matrix. X minimizes
    over the PSD cone iff lambda_min(S) >= 0 and <S, X> = 0. Returns
    (lambda_min, |<S, X>| / Tr X), both divided by ``scale``, and the
    eigenvector of lambda_min.
    """
    tr = float(np.trace(X).real)
    inner = float(np.vdot(X, S).real)
    w, v = np.linalg.eigh(S)
    comp = abs(inner) / tr if tr > 0 else 0.0
    return float(w[0]) / scale, comp / scale, v[:, 0]


def _singular_values(L: np.ndarray) -> np.ndarray:
    """Singular values of L in descending order, from its k x k Gram matrix."""
    return np.sqrt(np.clip(np.linalg.eigvalsh(L.conj().T @ L)[::-1], 0.0, None))


def _truncate(L: np.ndarray, j: int) -> np.ndarray:
    """The best rank-j factor of L: its truncated SVD u[:, :j] sv[:j]."""
    u, sv, _ = np.linalg.svd(L, full_matrices=False)
    return u[:, :j] * sv[:j]


def reconstruct_positive(
    mmap: MeasurementMap,
    scan: IntensityScan,
    cfg: SolverConfig = SolverConfig(),
    initial: DensityMatrix | None = None,
) -> ReconstructionReport:
    """Least-squares minimizer of ||A x - p|| over the PSD cone.

    A factored Levenberg-Marquardt iteration on X = L L^dag. L starts from
    the PSD projection of ``initial``, or of A^+ p when none is given,
    keeping the eigenvalues above RANK_TOL of the largest. Each step solves
    (J^T J + mu) delta = -J^T r for the update D of L (:func:`_jacobian`)
    through the smaller Gram matrix, one dense solve per damping trial (a
    singular system rejects the trial). It is accepted on the exact change
    of 0.5 ||r||^2, -dr.(r + dr/2) with dr = J delta + W coords(D D^dag),
    so noisy data certify at the default tolerance: there a difference of
    objective values cancels below the certificate's resolution.

    The width of L adapts. When lambda_min(S) < 0, a new column along that
    eigenvector (the Burer-Monteiro rank update, with an exact line search)
    competes with the damped step, and the larger decrease wins. A factor
    wider than the minimizer's rank makes the damped steps converge only
    linearly. At a unique low-rank minimizer each step halves the spurious
    columns, so the singular values of L are kept from step to step: once
    the trailing ones have fallen into the HALVING band of their previous
    values on two accepted steps in a row, L is cut to its leading columns
    by a truncated SVD, unless that raises the objective. A step can also
    halve with no singular value halving: at a minimizer that is not unique,
    Gauss-Newton converges linearly along the face, each step half the last
    and ||A x - p|| quartered. When an accepted step D is in the HALVING band
    of the previous accepted step's size and no singular value is halving, L
    moves on by D once more, the rest of the geometric series D/2 + D/4 + ...,
    if that lowers the objective (Decker, Keller & Kelley 1983; Griewank
    1985). Slower columns go on trial: when a step gains less than SLOW_GAIN
    the weakest column is dropped, and the trial is kept if a few steps from
    the narrower factor end below the current objective.

    ``converged`` is the first-order certificate of the module docstring with
    tol = rel_tolerance: X is a minimizer to that tolerance, not necessarily
    the only one. Every damped step, trial steps included, counts toward
    ``iterations_used`` and ``max_iterations``; a halving drop or a tail
    extrapolation is not a step and does not count. ``objective_history``
    holds ||A x - p|| at the start and after each outer step. The metadata
    carry both certificate values, ``stop_reason`` ("certified",
    "max_iterations" or "stalled"), the number of steps, the final factor
    width, the number of tail extrapolations kept, and ``unexplained_fraction``
    2 f_res / ||p||^2, the share of the scan's power that no state fits
    (None for a scan of zeros).
    """
    d = mmap.basis.dim
    s, vt, b, f_res, x, _ = mmap.least_squares(scan)
    e = math.frexp(s[0])[1]  # ||A^T p|| = ||s b|| grows as extent^4: scale by 2^-e, exactly, before squaring
    scale = math.ldexp(float(np.linalg.norm(np.ldexp(s, -e) * b)), e) or 1.0
    tol = cfg.rel_tolerance
    M = coords_to_hermitian(s[:, None] * vt, d)  # (W x)_i = Tr(M_i X)
    # W coords(H) = Wr @ H.view(float).ravel() for a Hermitian H, since Tr(M_i H) = <M_i, H>
    Wr = M.reshape(len(M), -1).view(float)

    def state(L):
        Xn = L @ L.conj().T
        r = Wr @ Xn.view(float).ravel() - b
        return Xn, r, 0.5 * float(r @ r) + f_res

    def damped_step(L, cur, mu):
        """One accepted damped step from L and its decrease of f, or None."""
        r = cur[1]
        J = _jacobian(M, L)
        wide = J.shape[0] <= J.shape[1]  # solve through the smaller Gram matrix
        gram, rhs = (J @ J.T, r) if wide else (J.T @ J, -(J.T @ r))
        if mu is None:
            mu = LM_DAMPING * float(np.trace(gram))
        for _ in range(LM_TRIALS):
            try:
                y = np.linalg.solve(gram + mu * np.eye(len(gram)), rhs)
            except np.linalg.LinAlgError:
                mu *= LM_RAISE
                continue
            delta = -(J.T @ y) if wide else y
            D = (delta[: len(delta) // 2] + 1j * delta[len(delta) // 2 :]).reshape(L.shape)
            Jd = J @ delta
            dr = Jd + Wr @ (D @ D.conj().T).view(float).ravel()
            predicted = -float(Jd @ (r + 0.5 * Jd))  # decrease of 0.5 ||r||^2 in the model
            decrease = -float(dr @ (r + 0.5 * dr))  # and its exact decrease, no cancellation
            if predicted > 0 and decrease > 0:
                mu *= max(LM_MIN_SHRINK, 1.0 - (2.0 * decrease / predicted - 1.0) ** 3)
                return L + D, state(L + D), mu, decrease
            mu *= LM_RAISE
        return None

    X0 = coords_to_hermitian(x, d) if initial is None else initial.entries
    w, V = np.linalg.eigh(X0)
    k = max(1, int(np.sum(w > RANK_TOL * w[-1])))
    L = V[:, d - k :] * np.sqrt(np.clip(w[d - k :], 0.0, None))
    cur = state(L)
    history = []
    mu = None
    failed_widths: set[int] = set()
    sv = np.empty(0)
    steps = extrapolations = 0
    size = math.inf
    while True:
        X, r, f = cur
        history.append(math.sqrt(max(2.0 * f, 0.0)))
        S = (r @ Wr).view(complex).reshape(d, d)
        eig, comp, v = _certificate(S, X, scale)
        converged = eig >= -tol and comp <= tol
        if converged or steps >= cfg.max_iterations:
            break
        steps += 1
        k = L.shape[1]
        if len(sv) != k:  # the width changed: halvings count from here
            sv, halved = _singular_values(L), np.zeros(k, dtype=bool)
        step = damped_step(L, cur, mu)
        rank_gain = 0.0
        if eig < -tol and k < d:
            D = np.outer(v, v.conj())
            slope = float(np.vdot(D, S).real)
            rd = Wr @ D.view(float).ravel()
            t = -slope / float(rd @ rd)
            rank_gain = -t * slope - 0.5 * t * t * float(rd @ rd)
        if rank_gain > (step[3] if step else 0.0):
            L = np.column_stack([L, math.sqrt(t) * v])
            cur, mu = state(L), None
        elif step is None:
            break
        else:
            D = step[0] - L
            L, cur, mu, _ = step
            prev, sv = sv, _singular_values(L)
            now = (HALVING[0] * prev < sv) & (sv < HALVING[1] * prev)
            twice, halved = halved & now, now
            j = max(1, k - int(np.cumprod(twice[::-1]).sum()))  # the trailing columns from j on halved twice
            if j < k:
                cut = _truncate(L, j)
                cut_state = state(cut)
                if cut_state[2] <= cur[2]:
                    L, cur, mu = cut, cut_state, None
                    continue
            size, last = float(np.linalg.norm(D)), size
            if not now.any() and HALVING[0] * last < size < HALVING[1] * last:
                ext_state = state(L + D)
                if ext_state[2] < cur[2]:
                    L, cur, extrapolations = L + D, ext_state, extrapolations + 1
                    sv = _singular_values(L)
            if k > 1 and k not in failed_widths and cur[2] - f_res > SLOW_GAIN * (f - f_res):
                trial = _truncate(L, k - 1)
                trial_state, trial_mu = state(trial), None
                for _ in range(min(TRIAL_STEPS, cfg.max_iterations - steps)):
                    steps += 1
                    out = damped_step(trial, trial_state, trial_mu)
                    if out is None:
                        break
                    trial, trial_state, trial_mu, _ = out
                    if trial_state[2] < cur[2]:
                        break
                if trial_state[2] < cur[2]:
                    L, cur, mu = trial, trial_state, trial_mu
                else:
                    failed_widths.add(k)

    if converged:
        reason = "certified"
    elif steps >= cfg.max_iterations:
        reason = "max_iterations"
    else:
        reason = "stalled"
    power = float(scan.values @ scan.values)
    est, meta = _finalize(mmap, X)
    meta.update(
        stop_reason=reason,
        kkt_min_eig=eig,
        kkt_complementarity=comp,
        refine_steps=steps,
        refine_rank=L.shape[1],
        tail_extrapolations=extrapolations,
        unexplained_fraction=2.0 * f_res / power if power > 0 else None,
    )
    return ReconstructionReport(
        estimate=est,
        objective_history=history,
        iterations_used=steps,
        converged=converged,
        metadata=meta,
    )


def reconstruct_pseudoinverse(
    mmap: MeasurementMap, scan: IntensityScan
) -> ReconstructionReport:
    """Minimum-norm least-squares estimate A^+ p, not PSD-projected.

    Hermitian by construction (the coordinates are real); trace-normalized
    for metric comparison. The residual ||A x - p|| of the raw estimate is
    kept in the metadata.
    """
    model = mmap.least_squares(scan)
    est, meta = _finalize(mmap, coords_to_hermitian(model.x, mmap.basis.dim), project=False)
    residual = math.sqrt(2.0 * model.f_res)  # ||A x - p|| at x = A^+ p, without cancellation
    meta["raw_residual"] = residual
    return ReconstructionReport(
        estimate=est,
        objective_history=[residual],
        iterations_used=0,
        converged=True,
        metadata=meta,
    )


def singular_value_entropy(columns: np.ndarray) -> float:
    """Shannon entropy of normalized singular values of a column stack."""
    s = np.linalg.svd(np.asarray(columns, dtype=float), compute_uv=False)
    total = s.sum()
    if total <= 0:
        return 0.0
    s = s / total
    s = s[s > 0]
    return float(-np.sum(s * np.log(s)))


def multistart_estimates(
    mmap: MeasurementMap,
    scan: IntensityScan,
    cfg: SolverConfig = SolverConfig(),
    branch: str = "positive",
) -> np.ndarray:
    """Coordinates of cfg.multistart estimator runs, one column per run.

    positive branch: each run starts from a full-rank :func:`random_state`, all from one generator.
    pseudoinverse branch: each run adds a random null-space component
    (Gaussian coefficients, scale ||A^+ p|| / 10) to the baseline solution,
    normalized as :func:`reconstruct_pseudoinverse` reports it.
    """
    if cfg.multistart < 2:
        raise ValueError("uniqueness diagnostic needs multistart >= 2")
    if branch not in BRANCHES:
        raise ValueError(f"unknown estimator branch {branch!r}")
    d = mmap.basis.dim
    rng = np.random.default_rng(cfg.seed)
    columns = np.empty((d * d, cfg.multistart))
    if branch == "positive":
        for i in range(cfg.multistart):
            rep = reconstruct_positive(mmap, scan, cfg, random_state(mmap.basis, d, rng))
            columns[:, i] = hermitian_to_coords(rep.estimate.entries)
    else:
        model = mmap.least_squares(scan)
        x0, null_basis = model.x, model.null
        scale = float(np.linalg.norm(x0)) / 10.0
        for i in range(cfg.multistart):
            x = x0 + null_basis.T @ rng.normal(size=null_basis.shape[0]) * scale
            est, _ = _finalize(mmap, coords_to_hermitian(x, d), project=False)
            columns[:, i] = hermitian_to_coords(est.entries)
    return columns


def uniqueness_entropy(
    mmap: MeasurementMap,
    scan: IntensityScan,
    cfg: SolverConfig = SolverConfig(),
    branch: str = "positive",
) -> float:
    """Uniqueness diagnostic: singular-value entropy of the multistart runs."""
    return singular_value_entropy(multistart_estimates(mmap, scan, cfg, branch))


def report_to_json_dict(rep: ReconstructionReport) -> dict:
    """The report's JSON record; its metadata is a copy, so a caller may add to it."""
    return {
        "estimate": state_to_json_dict(rep.estimate),
        "objective_history": list(rep.objective_history),
        "iterations_used": rep.iterations_used,
        "converged": rep.converged,
        "uniqueness_entropy": None,
        "metadata": dict(rep.metadata),
    }
