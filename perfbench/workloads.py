"""The three benchmark workloads and their correctness checks.

Each workload builds its inputs from the workload seed, runs whole rounds of
operations through oamtomo's public API, and checks every output against a
computation made here or a property the method must have. Nothing is
compared with a stored copy of an earlier output. Its ``warm_up`` runs one
operation, untimed and unchecked, on inputs that no round uses.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np

from spans import POSITIVE

RECOVERY_TOL = 1e-6  # criterion 4's exact-recovery tolerance on the squared HS error
NULL_TOL = 1e-9  # ||A (X - rho)|| / (||A||_2 ||X - rho||) when the scans cannot tell X from rho
KKT_FACTOR = 10.0  # recomputed certificate may exceed rel_tolerance by this factor
NOISELESS_RESIDUAL = 1e-6  # ||AX - p|| / ||p|| when the true state fits the data exactly
NOISY_KKT = 1e-8  # recomputed certificate bound on noisy camera data
PSD_TOL = 1e-12


def coords(h: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix: the diagonal, then
    sqrt(2) Re and sqrt(2) Im of each i < j entry, row-major."""
    d = h.shape[0]
    iu, ju = np.triu_indices(d, 1)
    off = h[iu, ju]
    return np.concatenate([h.diagonal().real, np.column_stack([off.real, off.imag]).ravel() * math.sqrt(2.0)])


def hermitian(x: np.ndarray, d: int) -> np.ndarray:
    iu, ju = np.triu_indices(d, 1)
    h = np.diag(x[:d]).astype(complex)
    off = (x[d::2] + 1j * x[d + 1 :: 2]) / math.sqrt(2.0)
    h[iu, ju] = off
    h[ju, iu] = off.conj()
    return h


def sv_entropy(columns: np.ndarray) -> float:
    s = np.linalg.svd(columns, compute_uv=False)
    s = s[s > 0] / s.sum()
    return float(-np.sum(s * np.log(s)))


def kkt(A: np.ndarray, p: np.ndarray, X: np.ndarray) -> tuple[float, float]:
    """First-order optimality of X for min ||A x - p|| over the PSD cone:
    (lambda_min(S), |<S, X>| / Tr X) with S = mat(A^T (A x - p)), both
    relative to ||A^T p||."""
    S = hermitian(A.T @ (A @ coords(X) - p), X.shape[0])
    scale = float(np.linalg.norm(A.T @ p))
    lam = float(np.linalg.eigvalsh(S)[0])
    comp = abs(float(np.vdot(X, S).real)) / float(np.trace(X).real)
    return lam / scale, comp / scale


def estimate_problems(label: str, rep) -> list[str]:
    """The reported estimate is PSD with unit trace."""
    est = rep.estimate.entries
    problems = []
    if np.linalg.eigvalsh(est)[0] < -PSD_TOL:
        problems.append(f"{label}: estimate is not PSD")
    if abs(np.trace(est).real - 1.0) > PSD_TOL:
        problems.append(f"{label}: estimate trace is {np.trace(est).real!r}")
    return problems


def raw_estimate(rep) -> np.ndarray:
    return rep.metadata["raw_trace"] * rep.estimate.entries


def uncertified(calls: dict) -> list[str]:
    return [
        f"reconstruct_positive not certified (stop_reason={rep.metadata['stop_reason']})"
        for name in POSITIVE
        for _, _, rep in calls.get(name, ())
        if not rep.converged
    ]


class ErrorSweep:
    """One operation is one (Z, rank) cell of the criterion-5 sweep at
    l_max 7 (d = 15), 19x19 pixels, run through experiments.run_error_sweep.
    Round k covers all 15 cells with master seed derive_seed(seed, k); each
    cell's trial then follows the criterion-5 path
    derive_seed(master, 7, Z, rank, trial)."""

    name = "error_sweep_d15"
    probes = ("oamtomo.experiments.simulate_scan", "oamtomo.experiments.reconstruct_positive")
    checks = (
        "estimate PSD with unit trace",
        "noiseless residual ||AX - p|| near zero",
        "recomputed KKT within 10 x rel_tolerance",
        "ranks 1, 2, 4 at Z >= 2 recovered to HS error 1e-6, or missed only along the map's null space",
        "sweep row error equals the recomputed one",
    )
    nominal_round_s = 4.0
    WARM_UP_ROUND = 10**6  # master seed path of the warm-up cell; no run reaches it
    ELL_MAX = 7
    Z_VALUES = (1, 2, 3)
    RANKS = (1, 2, 4, 8, 15)
    TRIALS = 1

    def __init__(self, seed: int, oam, work_dir: str):
        self.seed = seed
        self.ex = oam.experiments
        self.cells = [
            self.ex.parse_spec(
                {
                    "kind": "error_sweep",
                    "basis": {"ell_max": self.ELL_MAX},
                    "geometry": {"n_pixels_per_side": 19},
                    "z_values": [z],
                    "ranks": [rank],
                    "trials": self.TRIALS,
                    "state": {"kind": "random"},
                    "noise": {"kind": "none"},
                }
            )
            for z in self.Z_VALUES
            for rank in self.RANKS
        ]

    def warm_up(self) -> None:
        self.ex.run_error_sweep(replace(self.cells[0], seed=self.ex.derive_seed(self.seed, self.WARM_UP_ROUND)))

    def round(self, run, k: int) -> None:
        master = self.ex.derive_seed(self.seed, k)
        for cell in self.cells:
            spec = replace(cell, seed=master)
            run.op(lambda: self.ex.run_error_sweep(spec), lambda rows, calls: self.check(spec, rows, calls))

    def check(self, spec, rows, calls) -> list[str]:
        z, rank = spec.z_values[0], spec.ranks[0]
        label = f"Z={z} rank={rank} master={spec.seed}"
        sims = calls["oamtomo.experiments.simulate_scan"]
        recs = calls["oamtomo.experiments.reconstruct_positive"]
        problems = []
        if len(rows) != 1 or len(recs) != self.TRIALS or len(sims) != self.TRIALS:
            return [f"{label}: expected one row and {self.TRIALS} solve(s)"]
        for (sim_args, _, scan), (rec_args, _, rep) in zip(sims, recs):
            rho, mmap = sim_args[0], sim_args[1]
            cfg = rec_args[2]
            A, p = mmap.matrix, scan.values
            problems += estimate_problems(label, rep)
            X = raw_estimate(rep)
            residual = float(np.linalg.norm(A @ coords(X) - p))
            if residual > NOISELESS_RESIDUAL * float(np.linalg.norm(p)):
                problems.append(f"{label}: noiseless residual {residual:.3e} is not near zero")
            if rep.converged:
                lam, comp = kkt(A, p, X)
                bound = KKT_FACTOR * cfg.rel_tolerance
                if lam < -bound or comp > bound:
                    problems.append(f"{label}: recomputed KKT ({lam:.2e}, {comp:.2e}) exceeds {bound:.0e}")
            diff = rep.estimate.entries - rho.entries
            err = float(np.trace(diff @ diff).real)
            if z >= 2 and rank <= 4 and err > RECOVERY_TOL:
                # Criterion 5 promises recovery of these ranks on average, not
                # for every state: now and then a state has a PSD twin with the
                # same intensities, and then any fit is a right answer.
                miss = coords(X - rho.entries)
                seen = float(np.linalg.norm(A @ miss)) / (float(np.linalg.norm(A, 2)) * float(np.linalg.norm(miss)))
                if seen > NULL_TOL:
                    problems.append(f"{label}: rank {rank} not recovered, HS error {err:.3e}, "
                                    f"and the map tells the estimate from the state ({seen:.1e})")
            if not math.isclose(err, rows[0]["mean_err_positive"], rel_tol=1e-9, abs_tol=1e-15):
                problems.append(f"{label}: sweep row error {rows[0]['mean_err_positive']!r} != {err!r}")
        return problems


class EntropyProbe:
    """One operation is one probe state's uniqueness diagnostic at one Z, with
    both branches: solver.multistart_estimates then singular_value_entropy.
    The probe states are criterion 6's: set-up calls
    experiments.entropy_cell_inputs per Z with l_max 4 (d = 9), 19x19
    pixels, the probe family, multistart 20, 20 states and spec seed 0. The
    workload seed draws each state's multistart starting points along
    criterion 6's path derive_seed(seed, Z, j, 1), so seed 0 reproduces
    criterion 6's inputs exactly. Round k takes state k mod 20 at Z = 1 and 2,
    and a run makes a fixed number of rounds, so it always covers the same
    states (0-15 at 28 s). The warm-up takes the last state at Z = 1.

    The states do not follow the seed: the time of an operation depends
    mostly on its state, and a run covers only some of them: with states
    drawn per seed, runs of about ten states spread op_p50_ms by a quarter
    over ten seeds."""

    name = "entropy_probe_d9"
    probes = ("oamtomo.solver.reconstruct_positive",)
    checks = (
        "Z=2 map sends every H_l to zero",
        "both entropies equal the recomputed ones",
        "Z=2 positive entropy without span{H_l} below 0.05",
        "every rescaled pseudoinverse column reproduces p",
    )
    nominal_round_s = 1.8
    Z_VALUES = (1, 2)
    N_STATES = 20
    STATE_SEED = 0  # criterion 6's master seed

    def __init__(self, seed: int, oam, work_dir: str):
        self.solver = oam.solver
        ex = oam.experiments
        self.spec = ex.parse_spec(
            {
                "kind": "entropy_sweep",
                "basis": {"ell_max": 4},
                "geometry": {"n_pixels_per_side": 19},
                "z_values": list(self.Z_VALUES),
                "n_states": self.N_STATES,
                "state": {"kind": "test"},
                "solver": {"multistart": 20},
                "seed": self.STATE_SEED,
            }
        )
        self.cells = {}
        for z in self.Z_VALUES:
            mmap, inputs = ex.entropy_cell_inputs(self.spec, z)
            self.cells[z] = mmap, [
                (scan, replace(cfg, seed=ex.derive_seed(seed, z, j, 1)))
                for j, (scan, cfg) in enumerate(inputs)
            ]
        self.blind = self._blind_span(self.spec.basis())

    @staticmethod
    def _blind_span(basis) -> np.ndarray:
        """Unit coordinates of H_l = |l><l| - |-l><-l|, l = 1..l_max."""
        cols = []
        for ell in range(1, max(basis.ells) + 1):
            h = np.zeros((basis.dim, basis.dim))
            h[basis.index_of(ell), basis.index_of(ell)] = 1.0
            h[basis.index_of(-ell), basis.index_of(-ell)] = -1.0
            c = coords(h)
            cols.append(c / np.linalg.norm(c))
        return np.column_stack(cols)

    def warm_up(self) -> None:
        mmap, inputs = self.cells[self.Z_VALUES[0]]
        scan, cfg = inputs[-1]
        self.diagnostic(mmap, scan, cfg)

    def round(self, run, k: int) -> None:
        if k == 0:
            run.check(self.check_blind_span)
        for z in self.Z_VALUES:
            mmap, inputs = self.cells[z]
            scan, cfg = inputs[k % self.N_STATES]
            run.op(
                lambda: self.diagnostic(mmap, scan, cfg),
                lambda out, calls: self.check(z, k, mmap, scan, out),
            )

    def diagnostic(self, mmap, scan, cfg):
        pos = self.solver.multistart_estimates(mmap, scan, cfg, "positive")
        s_pos = self.solver.singular_value_entropy(pos)
        pinv = self.solver.multistart_estimates(mmap, scan, cfg, "pseudoinverse")
        s_pinv = self.solver.singular_value_entropy(pinv)
        return pos, s_pos, pinv, s_pinv

    def check_blind_span(self) -> list[str]:
        A = self.cells[2][0].matrix
        norm_a = np.linalg.norm(A, 2)
        seen = np.linalg.norm(A @ self.blind, axis=0)
        return [f"Z=2 map does not send H_{i + 1} to zero" for i in np.flatnonzero(seen > 1e-12 * norm_a)]

    def check(self, z, k, mmap, scan, out) -> list[str]:
        pos, s_pos, pinv, s_pinv = out
        label = f"Z={z} state={k % self.N_STATES}"
        problems = []
        for branch, cols, s in (("positive", pos, s_pos), ("pseudoinverse", pinv, s_pinv)):
            if not math.isclose(s, sv_entropy(cols), rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{label}: {branch} entropy {s!r} != recomputed {sv_entropy(cols)!r}")
        if z == 2:
            projected = sv_entropy(pos - self.blind @ (self.blind.T @ pos))
            if not projected < 0.05:
                problems.append(f"{label}: positive entropy without the blind span is {projected:.3e}")
        A, p = mmap.matrix, scan.values
        fits = A @ pinv
        alpha = (fits.T @ p) / np.einsum("ij,ij->j", fits, fits)
        miss = np.linalg.norm(fits * alpha - p[:, None], axis=0)
        if np.any(miss > 1e-8 * np.linalg.norm(p)):
            problems.append(f"{label}: a rescaled pseudoinverse column misses p by {miss.max():.3e}")
        return problems


class CameraNoisyCli:
    """One operation is `oamtomo simulate` then `oamtomo reconstruct` through
    oamtomo.cli.main, in process: l_max 4, 101x101 camera, planes
    0, 1/3, 1/2, 1, random rank-2 states with Poisson noise at 1e6 photons.
    Every solve on these inputs ends uncertified (the default
    rel_tolerance sits at the certificate's resolution floor on noisy data),
    so every operation is a counted failure. The states are therefore fixed
    and do not depend on the workload seed. The warm-up takes state seed 5."""

    name = "camera_noisy_cli"
    probes = (
        "oamtomo.experiments.simulate_scan",
        "oamtomo.experiments.read_scan_csv",
        "oamtomo.experiments.reconstruct_positive",
    )
    checks = (
        "estimate PSD with unit trace",
        "scan read back equals the values written",
        "scan values are whole photon counts",
        "||AX - p|| <= ||A rho_true - p||",
        "recomputed KKT at most 1e-8",
    )
    nominal_round_s = 5.2
    STATE_SEEDS = (0, 1, 2, 3, 4)  # an odd count keeps the median operation on one state
    WARM_UP_STATE_SEED = 5
    PHOTON_BUDGET = 1e6
    PLANES = (0.0, 1 / 3, 1 / 2, 1.0)

    def __init__(self, seed: int, oam, work_dir: str):
        self.cli = oam.cli
        self.work_dir = work_dir
        self.jobs = [self._job(s) for s in self.STATE_SEEDS]

    def _job(self, s: int) -> tuple[int, str, str, str]:
        """Write the simulate and reconstruct specs of state seed ``s``."""
        out = os.path.join(self.work_dir, f"state{s}")
        os.makedirs(out, exist_ok=True)
        sim = {
            "basis": {"ell_max": 4},
            "geometry": {"n_pixels_per_side": 101, "planes": list(self.PLANES)},
            "state": {"kind": "random", "rank": 2},
            "noise": {"kind": "poisson", "photon_budget": self.PHOTON_BUDGET},
            "seed": s,
            "output": "scan.csv",
        }
        rec = {"basis": {"ell_max": 4}, "scan_file": os.path.join(out, "scan.csv"), "output": "report.json"}
        paths = []
        for kind, spec in (("simulate", sim), ("reconstruct", rec)):
            path = os.path.join(out, f"{kind}.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            paths.append(path)
        return s, out, paths[0], paths[1]

    def warm_up(self) -> None:
        _, out, sim_spec, rec_spec = self._job(self.WARM_UP_STATE_SEED)
        self.simulate_and_reconstruct(out, sim_spec, rec_spec)

    def round(self, run, k: int) -> None:
        for s, out, sim_spec, rec_spec in self.jobs:
            run.op(
                lambda: self.simulate_and_reconstruct(out, sim_spec, rec_spec),
                lambda codes, calls: self.check(s, calls),
                failures=self.exit_failures,
            )

    @staticmethod
    def exit_failures(codes) -> list[str]:
        return [f"oamtomo {cmd} exited {rc}" for cmd, rc in zip(("simulate", "reconstruct"), codes) if rc]

    def simulate_and_reconstruct(self, out, sim_spec, rec_spec) -> tuple[int, int]:
        """Both commands' return codes; their progress lines are discarded."""
        with redirect_stdout(io.StringIO()):
            return (
                self.cli.main(["simulate", "--spec", sim_spec, "--out", out]),
                self.cli.main(["reconstruct", "--spec", rec_spec, "--out", out]),
            )

    def check(self, s, calls) -> list[str]:
        label = f"state seed {s}"
        sims = calls["oamtomo.experiments.simulate_scan"]
        reads = calls["oamtomo.experiments.read_scan_csv"]
        recs = calls["oamtomo.experiments.reconstruct_positive"]
        if not (sims and reads and recs):
            return [f"{label}: simulate or reconstruct did not run"]
        sim_args, _, written = sims[0]
        rho, sim_map = sim_args[:2]
        read = reads[0][2]
        rec_args, _, rep = recs[0]
        mmap, scan = rec_args[:2]
        problems = estimate_problems(label, rep)

        if not np.array_equal(read.values, written.values):
            problems.append(f"{label}: scan read back differs from the values written")

        p_true = np.clip(sim_map.matrix @ coords(rho.entries), 0.0, None)
        counts = written.values * (self.PHOTON_BUDGET / p_true.sum())
        if np.max(np.abs(counts - np.round(counts))) > 1e-6:
            problems.append(f"{label}: scan values are not whole photon counts")

        A, p = mmap.matrix, scan.values
        X = raw_estimate(rep)
        fit = float(np.linalg.norm(A @ coords(X) - p))
        truth = float(np.linalg.norm(A @ coords(rho.entries) - p))
        if not fit <= truth:
            problems.append(f"{label}: estimate residual {fit:.6e} exceeds the true state's {truth:.6e}")
        lam, comp = kkt(A, p, X)
        if lam < -NOISY_KKT or comp > NOISY_KKT:
            problems.append(f"{label}: recomputed KKT ({lam:.2e}, {comp:.2e}) exceeds {NOISY_KKT:.0e}")
        return problems


WORKLOADS = {w.name: w for w in (ErrorSweep, EntropyProbe, CameraNoisyCli)}
