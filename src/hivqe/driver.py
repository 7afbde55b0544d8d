"""End-to-end iteration loop and run-level outputs.

Each iteration runs one sample-and-solve step at the current angles:
prepare and sample the ansatz state, filter to the symmetry sector, and
loose-diagonalize those determinants alone (e_iter). The SPSA probes run the
same step at the two perturbed angles (e_plus, e_minus). The iteration then
unions its determinants into the cumulative subspace and assembles that
union's Hamiltonian once. Rows are carried by appending: the union's first
rows are the rows the last amplitude screen kept, so assembly copies their
block of the last tight solve's matrix and builds only the rows after it,
and the tight solve starts from their amplitudes, 0 on every other row. Over
the cap, a loose solve ranks the rows, and the tight solve (the reported
energy) runs on the kept block of the same matrix, in subspace order, from
the same rows of its starting vector; a tensor reconstruction that adds
determinants appends them to the kept matrix. The loop then tests
convergence on that tight energy alone (e_iter is only traced),
amplitude-screens, classically expands, and lets the optimizer update theta
from the probe pair. The lowest eigenpair (of equal energies, the one on
fewer rows) is returned; a run of zero iterations returns no energy and no
determinant.

A run solves each distinct sampled set once: it keeps every set's loose
energy, which the deterministic solve would reproduce bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Optional, get_type_hints

import numpy as np
import scipy.sparse

from .determinants import (Sector, _check_packed, _moves, _occupations, _string_pairs,
                           hartree_fock_det, slater_condon)
from .eigensolver import CIVector, WalkState, ground_state, principal_block, project
from .integrals import DipoleIntegrals, IntegralSet
from .optimizer import EnergyHistory, converged, make_optimizer, propose, update
from .sampler import brick_wall_ansatz, mean_occupations, prepare_state, sample
from .subspace import (
    Subspace,
    amplitude_screen,
    cap_screen,
    classical_expand,
    filter_symmetry,
    tensor_reconstruct,
    union,
)

__all__ = [
    "RunConfig",
    "IterationRecord",
    "RunResult",
    "RunError",
    "run_hivqe",
    "compute_1rdm",
    "dipole_moment",
    "DEBYE_PER_AU",
]

DEBYE_PER_AU = 2.541746
STALL_WINDOW = 10  # iterations without a lower energy before a run stops as stalled
RDM_BATCH = 4096  # string pairs whose amplitude rows compute_1rdm multiplies at once


class RunError(RuntimeError):
    """Driver-level failure; carries any iteration records produced so far."""

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = list(trace)


@dataclass
class RunConfig:
    shots: int = 1000
    k: int = 1000
    m: int = 100
    threshold: float = 1e-6
    eps: float = 1e-5
    max_iterations: int = 50
    tensor_reconstruct: bool = False
    closed_shell: bool = False
    p_flip: float = 0.0
    recovery_mode: str = "discard"
    seed: int = 0
    ansatz_layers: int = 2
    expansion_repeats: int = 1

    def validate(self, s: IntegralSet) -> None:
        for name, kind in CONFIG_TYPES.items():
            value = getattr(self, name)  # bool is an int, so only bool fields may hold one
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, (int, float) if kind is float else kind)):
                raise RunError(f"config key {name!r} expects {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise RunError(f"config key {name!r} must be finite, got {value!r}")
        try:
            _check_packed(s.n_orb)
        except ValueError as exc:
            raise RunError(str(exc)) from None
        for name, floor in (("shots", 1), ("k", 1), ("m", 0), ("max_iterations", 0),
                            ("threshold", 0), ("seed", 0), ("ansatz_layers", 0),
                            ("expansion_repeats", 1)):
            if getattr(self, name) < floor:
                raise RunError(f"{name} must be at least {floor}")
        if self.eps <= 0:
            raise RunError("eps must be positive")
        if not 0.0 <= self.p_flip <= 1.0:
            raise RunError("p_flip must lie in [0, 1]")
        if self.recovery_mode not in ("discard", "recover"):
            raise RunError(f"unknown recovery mode {self.recovery_mode!r}")
        if self.closed_shell and not self.tensor_reconstruct:
            raise RunError("closed_shell applies only with tensor_reconstruct")
        if self.closed_shell and s.n_alpha != s.n_beta:
            raise RunError("closed-shell reconstruction requires n_alpha == n_beta")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(CONFIG_TYPES)
        if unknown:
            raise RunError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


CONFIG_TYPES = get_type_hints(RunConfig)  # field -> type, for validate and the CLI's --set


@dataclass
class IterationRecord:
    """One trace.csv row; the columns are these fields in this order."""

    iteration: int
    e_cum: float
    e_iter: float
    n_dets_sampled: int  # the batch's distinct raw (alpha, beta) pairs
    n_dets_valid: int  # determinants left after the symmetry filter
    n_dets_cum: int  # rows of the tight solve
    n_dets_post_screen: int  # rows carried on after screen and expansion; n_dets_cum on a stop
    wall_ms_sample: float
    wall_ms_diag: float
    theta_norm: float
    e_plus: float
    e_minus: float
    shots_valid: int
    shots_invalid: int  # outside the sector: dropped, or repaired in recover mode
    n_dets_union: int  # carried rows plus the sampled ones, before the cap


@dataclass
class RunResult:
    energy: Optional[float]
    e_hf: float
    dets: list
    amplitudes: Optional[np.ndarray]
    trace: list
    dipole: Optional[np.ndarray]
    status: str
    sector: Sector
    config: dict

    @property
    def e_corr(self) -> Optional[float]:
        return None if self.energy is None else self.energy - self.e_hf

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def seed(self) -> int:
        return self.config["seed"]

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def n_dets(self) -> int:
        return len(self.dets)

    def result_dict(self) -> dict:
        """The result.json document (wall times live only in the trace)."""
        # plain floats only: numpy scalars repr as np.float64(...) downstream
        return {
            "energy": None if self.energy is None else float(self.energy),
            "e_corr": None if self.e_corr is None else float(self.e_corr),
            "e_hf": float(self.e_hf),
            "n_dets": self.n_dets,
            "converged": self.converged,
            "iterations": self.iterations,
            "dipole": None if self.dipole is None else [float(v) for v in self.dipole],
            "config": self.config,
            "seed": self.seed,
            "sector": {
                "n_orb": self.sector.n_orb,
                "n_alpha": self.sector.n_alpha,
                "n_beta": self.sector.n_beta,
            },
        }


def _stream(master: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([master, *key])


def run_hivqe(
    cfg: RunConfig, s: IntegralSet, dipole_integrals: Optional[DipoleIntegrals] = None
) -> RunResult:
    """Run the full loop; returns the best cumulative eigenpair found, if any.

    Raises RunError, holding the records of the iterations completed, when the
    first iteration filters to an empty subspace (raise shots or enable
    recovery) or when tensor reconstruction blows past the 10*k safety cap.
    """
    cfg.validate(s)
    sector = Sector(s.n_orb, s.n_alpha, s.n_beta)
    hf = hartree_fock_det(s)
    e_hf = float(slater_condon(hf, hf, s) + s.e_core)
    ansatz = brick_wall_ansatz(s.n_orb, cfg.ansatz_layers)
    opt = make_optimizer(np.zeros(ansatz.n_params), _stream(cfg.seed, 3))
    history = EnergyHistory()
    carried, amplitudes = Subspace([], sector), np.zeros(0)  # amplitudes over carried
    walk = WalkState(s)  # the link walk's string state, which every walked project grows
    known = None  # carried's first rows and their matrix, from the second iteration on
    best: Optional[tuple] = None  # (eigenvector, its subspace)
    trace: list[IterationRecord] = []
    best_energy_seen = math.inf
    stall_count = 0
    status = "max_iterations"
    loose = {}  # (alpha bytes, beta bytes) in row order -> loose energy

    def sample_and_solve(theta, iteration, role):
        """(batch, the subspace of its sector-valid determinants, its loose energy).

        Role 0 is the iteration at the current angles, roles 1 and 2 the SPSA
        probes; each draws from its own seed stream. The energy is nan when
        filtering leaves no determinant. The solve is deterministic, so each
        set's energy is kept and a repeated set is not solved again.
        """
        state = prepare_state(ansatz, theta, sector)
        batch = sample(state, cfg.shots, cfg.p_flip, _stream(cfg.seed, iteration, role))
        hint = mean_occupations(state) if cfg.recovery_mode == "recover" else None
        dets = filter_symmetry(batch, sector, cfg.recovery_mode, hint)
        if not dets:
            return batch, dets, math.nan
        key = (dets.alpha.tobytes(), dets.beta.tobytes())
        if key not in loose:
            loose[key] = ground_state(project(dets, s), "loose").energy
        return batch, dets, loose[key]

    for i in range(cfg.max_iterations):
        t0 = time.perf_counter()
        batch, iter_dets, e_iter = sample_and_solve(opt.theta, i, 0)
        wall_sample = (time.perf_counter() - t0) * 1000.0
        shots_valid = int(batch.shots[batch.in_sector(sector)].sum())

        cum = union(carried, iter_dets)
        if len(cum) == 0:
            raise RunError(
                "no sector-valid configurations survived filtering; "
                "raise shots or enable recovery mode",
                trace,
            )
        t1 = time.perf_counter()
        sub, h = cum, project(cum, s, known, walk)
        guess = np.pad(amplitudes, (0, len(cum) - len(amplitudes)))
        if len(cum) > cfg.k:
            rows = np.sort(cap_screen(cum, ground_state(h, "loose").amplitudes, cfg.k))
            (sub, h), guess = principal_block(cum, h, rows), guess[rows]
        if cfg.tensor_reconstruct:
            try:
                tensored = tensor_reconstruct(sub, cfg.closed_shell, 10 * cfg.k)
            except ValueError as exc:
                raise RunError(f"{exc}; lower k or disable it", trace) from None
            if tensored is not sub:
                sub, h = tensored, project(tensored, s, (sub, h), walk)
                guess = np.pad(guess, (0, len(sub) - len(guess)))
        try:
            psi = ground_state(h, "tight", guess)
        except Exception as exc:
            raise RunError(f"iteration {i}: cumulative diagonalization failed: {exc}", trace)
        e_cum = psi.energy
        wall_diag = (time.perf_counter() - t1) * 1000.0

        if best is None or (e_cum, len(sub)) < (best[0].energy, len(best[1])):  # ties: fewer rows
            best = (psi, sub)
        if best_energy_seen - e_cum > 1e-10:
            best_energy_seen = e_cum
            stall_count = 0
        else:
            stall_count += 1

        history.append(e_cum)
        record = IterationRecord(
            iteration=i,
            e_cum=e_cum,
            e_iter=e_iter,
            n_dets_sampled=len(batch),
            n_dets_valid=len(iter_dets),
            shots_valid=shots_valid,
            shots_invalid=batch.total_shots - shots_valid,
            n_dets_union=len(cum),
            n_dets_cum=len(sub),
            n_dets_post_screen=len(sub),
            wall_ms_sample=wall_sample,
            wall_ms_diag=wall_diag,
            theta_norm=float(np.linalg.norm(opt.theta)),
            e_plus=math.nan,
            e_minus=math.nan,
        )
        trace.append(record)  # the steps below fill in its last fields

        if converged(history, cfg.eps):
            status = "converged"
            break
        if stall_count >= STALL_WINDOW:
            status = "stalled"
            break

        rows = amplitude_screen(sub, psi.amplitudes, cfg.threshold)
        known = principal_block(sub, h, rows)
        del h  # a copied block is not held through the next project
        carried, amplitudes = known[0], psi.amplitudes[rows]
        for _ in range(cfg.expansion_repeats):
            expanded = classical_expand(carried, amplitudes, cfg.m, s)
            if expanded is carried:
                break  # every determinant has already served as a reference
            amplitudes = np.pad(amplitudes, (0, len(expanded) - len(carried)))
            carried = expanded
        record.n_dets_post_screen = len(carried)

        if i + 1 < cfg.max_iterations and ansatz.n_params > 0:
            theta_plus, theta_minus = propose(opt)
            e_plus = sample_and_solve(theta_plus, i, 1)[2]
            e_minus = sample_and_solve(theta_minus, i, 2)[2]
            record.e_plus, record.e_minus = e_plus, e_minus
            if math.isfinite(e_plus) and math.isfinite(e_minus):
                update(opt, e_plus, e_minus)

    energy = amplitudes = dipole = None
    dets = []
    if best is not None:  # at least one iteration ran
        psi, sub = best
        energy, amplitudes, dets = psi.energy, psi.amplitudes, list(sub)
        if dipole_integrals is not None:
            dipole = dipole_moment(compute_1rdm(psi, sub), dipole_integrals)
    return RunResult(
        energy=energy, e_hf=e_hf, dets=dets, amplitudes=amplitudes, trace=trace,
        dipole=dipole, status=status, sector=sector, config=asdict(cfg),
    )


def compute_1rdm(c: CIVector, sub: Subspace) -> np.ndarray:
    """Spin-summed one-particle density matrix gamma_pq = <a+_p a_q> (both spins).

    Diagonal terms are occupation-weighted probabilities, summed per distinct
    string of each channel before its occupations weigh them. Off-diagonal terms
    come from the pairs of distinct strings one electron apart in each spin
    channel, contracted with the amplitudes over the other channel's strings
    (Knowles & Handy, CPL 111, 315, 1984): with the amplitudes as a sparse
    alpha-by-beta matrix C, an alpha pair (a, a') adds its fermionic phase
    times the row overlap C[a] . C[a'] at (hole, particle) and (particle,
    hole), and a beta pair the overlap of two columns. The rows of at most
    RDM_BATCH pairs are multiplied at once.
    """
    if len(c.amplitudes) != len(sub):
        raise ValueError("amplitude vector does not match subspace length")
    n = sub.sector.n_orb
    amps, r = c.amplitudes, sub.ranks
    weight = amps**2
    gamma = np.diag(np.bincount(r.ia, weight) @ _occupations(r.alpha, n)
                    + np.bincount(r.ib, weight) @ _occupations(r.beta, n))
    by_alpha = scipy.sparse.csr_matrix((amps, (r.ia, r.ib)), shape=(len(r.alpha), len(r.beta)))
    for strings, rows in ((r.alpha, by_alpha), (r.beta, by_alpha.T.tocsr())):
        lo, hi = _string_pairs(strings, n, 0, 1)
        overlap = np.empty(len(lo))
        for k in range(0, len(lo), RDM_BATCH):
            pick = slice(k, k + RDM_BATCH)
            overlap[pick] = rows[lo[pick]].multiply(rows[hi[pick]]).sum(axis=1).A1
        holes, particles, phase = _moves(strings[lo], strings[hi], 1)
        term = phase * overlap
        np.add.at(gamma, (holes[:, 0], particles[:, 0]), term)
        np.add.at(gamma, (particles[:, 0], holes[:, 0]), term)
    return gamma


def dipole_moment(gamma: np.ndarray, d: DipoleIntegrals) -> np.ndarray:
    """Dipole vector in Debye: (nuclear - electronic) per axis."""
    if gamma.shape != d.x.shape:
        raise ValueError("density and dipole integral shapes differ")
    out = np.empty(3)
    for idx, axis in enumerate("xyz"):
        electronic = float(np.sum(gamma * d.component(axis)))
        out[idx] = (d.nuclear[idx] - electronic) * DEBYE_PER_AU
    return out
