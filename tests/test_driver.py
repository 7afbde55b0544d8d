"""End-to-end iteration loop, density matrices and dipoles."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from hivqe import sampler
from hivqe.determinants import Sector, hartree_fock_det
from hivqe.driver import (
    STALL_WINDOW,
    RunConfig,
    RunError,
    compute_1rdm,
    dipole_moment,
    run_hivqe,
)
import hivqe.eigensolver
from hivqe.eigensolver import CIVector, EigensolverError, _Channel, ground_state, project
from hivqe.integrals import DipoleIntegrals, IntegralSet, parse_dipole_file, parse_fcidump
from hivqe.optimizer import make_optimizer, propose
from hivqe.oracle import fci_ground
from hivqe.sampler import (
    brick_wall_ansatz,
    enumerate_sector,
    mean_occupations,
    prepare_state,
    sample,
)
from hivqe.subspace import (
    RowIndex,
    Subspace,
    amplitude_screen,
    bitstring_is_valid,
    filter_symmetry,
    tensor_reconstruct,
)

from helpers import (
    FIXTURES,
    fock_vector,
    jw_annihilator,
    load_fixture,
    load_reference,
    random_integral_set,
)


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(RunError):
        RunConfig.from_dict({"k": 10, "shotz": 100})


@pytest.mark.parametrize("key,value", [("window", 3), ("convergence_source", "cumulative"),
                                       ("stall_window", 10)])
def test_config_refuses_the_removed_convergence_keys(key, value):
    """The loop converges on the tight energy over a fixed window and stall
    limit; a config that still sets one of the old keys is refused by name."""
    assert key not in dataclasses.asdict(RunConfig())
    with pytest.raises(RunError, match=repr(key)):
        RunConfig.from_dict({"k": 10, key: value})


def test_config_validation_catches_bad_values():
    s = load_fixture("h2_0.74")
    bad = [
        {"shots": 0}, {"k": 0}, {"m": -1}, {"eps": 0.0}, {"p_flip": 1.5},
        {"recovery_mode": "fix"}, {"seed": -1}, {"expansion_repeats": 0},
        {"ansatz_layers": -1}, {"threshold": -1e-6},
    ]
    for kwargs in bad:
        with pytest.raises(RunError):
            run_hivqe(RunConfig(**kwargs), s)
    with pytest.raises(RunError, match="requires n_alpha == n_beta"):
        cfg = RunConfig(closed_shell=True, tensor_reconstruct=True)
        run_hivqe(cfg, random_integral_set(3, 2, 1, seed=0))
    for n_beta in (1, 2):  # closed_shell without a reconstruction, on either sector
        with pytest.raises(RunError, match="closed_shell applies only with tensor_reconstruct"):
            run_hivqe(RunConfig(closed_shell=True), random_integral_set(3, 2, n_beta, seed=0))


def test_config_checks_value_types_by_key():
    s = load_fixture("h2_0.74")
    for kwargs in ({"tensor_reconstruct": "false"}, {"closed_shell": 1}, {"k": 10.5},
                   {"shots": 100.0}, {"k": "1000"}, {"m": True}, {"eps": False},
                   {"p_flip": "0.1"}, {"recovery_mode": None},
                   {"threshold": math.nan}, {"threshold": math.inf},
                   {"eps": math.nan}, {"eps": math.inf}):
        (key,) = kwargs
        with pytest.raises(RunError, match=repr(key)):
            run_hivqe(RunConfig(**kwargs), s)
    # ints are floats' subset; stored as given, so the echo keeps them
    res = run_hivqe(RunConfig(p_flip=0, eps=1, max_iterations=1), s)
    assert res.config["p_flip"] == 0 and type(res.config["p_flip"]) is int


def test_config_refuses_more_than_64_orbitals():
    s = IntegralSet.from_terms(65, 1, 1, 0.0, {(0, 0): -1.0}, {})
    with pytest.raises(RunError, match="^spin strings are packed into 64 bits; n_orb=65 does not fit$"):
        run_hivqe(RunConfig(), s)


def test_config_echo_round_trips_through_result():
    s = load_fixture("h2_0.74")
    cfg = RunConfig(seed=5, k=3, m=2, max_iterations=4)
    res = run_hivqe(cfg, s)
    assert res.config == dataclasses.asdict(cfg)
    assert res.seed == 5


# ---------------------------------------------------------------------------
# The loop itself
# ---------------------------------------------------------------------------

def test_h2_converges_to_fci_quickly():
    s = load_fixture("h2_0.74")
    ref = load_reference()["h2_0.74"]
    res = run_hivqe(RunConfig(seed=0), s)
    assert res.status == "converged"
    assert res.converged
    assert res.iterations <= 5
    assert res.energy == pytest.approx(ref["e_fci"], abs=1e-8)
    assert res.e_hf == pytest.approx(ref["e_hf"], abs=1e-9)
    assert res.e_corr == pytest.approx(ref["e_fci"] - ref["e_hf"], abs=1e-8)
    # the H2 ground state needs exactly HF plus the double
    assert res.n_dets == 2


def test_energy_never_beats_the_oracle():
    for name in ("h2_0.74", "h4_chain"):
        s = load_fixture(name)
        exact = load_reference()[name]["e_fci"]
        for seed in (0, 1):
            res = run_hivqe(RunConfig(seed=seed, k=12), s)
            assert res.energy >= exact - 1e-9


def test_trace_bookkeeping_is_consistent():
    s = load_fixture("h4_chain")
    cfg = RunConfig(seed=3, k=20, m=6)
    res = run_hivqe(cfg, s)
    assert res.iterations == len(res.trace)
    running_best = math.inf
    for row in res.trace:
        assert row.shots_valid + row.shots_invalid == cfg.shots
        assert row.n_dets_valid <= row.n_dets_sampled
        assert row.n_dets_cum <= max(cfg.k, row.n_dets_union)
        assert row.n_dets_post_screen >= 0
        running_best = min(running_best, row.e_cum)
    assert res.energy == pytest.approx(running_best, abs=0)
    # sampling at theta=0 with no noise always yields the HF determinant
    assert res.trace[0].n_dets_sampled == 1
    assert res.trace[0].e_iter == pytest.approx(res.e_hf, abs=1e-6)


def test_degenerate_single_determinant_run_returns_hf():
    # m=0 and k=1 keep the subspace pinned to HF; energy is exactly e_hf
    s = load_fixture("h2_0.74")
    cfg = RunConfig(seed=2, k=1, m=0)
    res = run_hivqe(cfg, s)
    assert res.status == "converged"
    assert res.energy == res.e_hf
    assert res.n_dets == 1
    assert res.e_corr == 0.0


def test_max_iterations_zero_short_circuits():
    s = load_fixture("h2_0.74")
    res = run_hivqe(RunConfig(max_iterations=0), s)
    assert res.status == "max_iterations"
    assert res.iterations == 0
    assert res.energy is None and res.e_corr is None
    assert res.e_hf == pytest.approx(load_reference()["h2_0.74"]["e_hf"])
    doc = res.result_dict()
    assert doc["energy"] is None
    assert doc["converged"] is False


def test_zero_iterations_with_dipole_integrals_report_no_energy():
    s = load_fixture("lih")
    d = parse_dipole_file((FIXTURES / "lih.dipole").read_text(), 6)
    cfg = RunConfig(max_iterations=0)
    res = run_hivqe(cfg, s, d)
    assert res.dets == [] and res.trace == []
    assert res.amplitudes is None and res.dipole is None
    doc = res.result_dict()
    assert doc.pop("e_hf") == pytest.approx(load_reference()["lih"]["e_hf"], abs=1e-9)
    assert doc == {
        "energy": None, "e_corr": None, "n_dets": 0, "converged": False, "iterations": 0,
        "dipole": None, "config": dataclasses.asdict(cfg), "seed": 0,
        "sector": {"n_orb": 6, "n_alpha": 2, "n_beta": 2},
    }


def timeless(trace):
    """The trace's repr with its wall times zeroed."""
    return repr([dataclasses.replace(r, wall_ms_sample=0.0, wall_ms_diag=0.0) for r in trace])


LIH_TENSOR = dict(seed=2, k=40, m=12, shots=200, p_flip=0.02, recovery_mode="recover",
                  tensor_reconstruct=True, max_iterations=5)


@pytest.mark.parametrize("failing", ["tensor_reconstruct", "ground_state"])
def test_run_error_holds_only_completed_iterations(monkeypatch, failing):
    """A RunError raised in iteration 3 carries iterations 0-2, each as a run
    that does not fail records it, and no record of the failing iteration."""
    s = load_fixture("lih")
    full = run_hivqe(RunConfig(**LIH_TENSOR), s)
    calls = []

    def tensor_refused_on_the_fourth_call(sub, closed_shell, cap):
        calls.append(len(sub))
        return tensor_reconstruct(sub, closed_shell, 0 if len(calls) == 4 else cap)

    def fourth_tight_solve_fails(h, mode="tight", guess=None):
        calls.append(mode)
        if calls.count("tight") == 4:
            raise EigensolverError("injected failure")
        return ground_state(h, mode, guess)

    fake = (tensor_refused_on_the_fourth_call if failing == "tensor_reconstruct"
            else fourth_tight_solve_fails)
    monkeypatch.setattr(f"hivqe.driver.{failing}", fake)
    with pytest.raises(RunError, match="safety cap|injected failure") as info:
        run_hivqe(RunConfig(**LIH_TENSOR), s)
    assert [r.iteration for r in info.value.trace] == [0, 1, 2]
    assert timeless(info.value.trace) == timeless(full.trace[:3])


def test_max_iterations_exhaustion_reports_status():
    s = load_fixture("lih")
    res = run_hivqe(RunConfig(seed=0, max_iterations=2, k=40), s)
    assert res.status == "max_iterations"
    assert res.iterations == 2
    assert not res.converged
    assert res.energy is not None  # best-so-far still reported


def test_all_shots_invalid_raises_run_error():
    # (3a,1b): full bit-flip noise turns every alpha string invalid, and
    # discard mode keeps nothing
    s = random_integral_set(4, 3, 1, seed=6)
    cfg = RunConfig(seed=0, p_flip=1.0, recovery_mode="discard")
    with pytest.raises(RunError):
        run_hivqe(cfg, s)


def test_recover_mode_survives_heavy_noise():
    s = random_integral_set(4, 3, 1, seed=6)
    cfg = RunConfig(seed=0, p_flip=1.0, recovery_mode="recover",
                    max_iterations=6)
    res = run_hivqe(cfg, s)  # no RunError: every shot is repaired
    sector = Sector(4, 3, 1)
    assert all(sector.contains(d) for d in res.dets)


def test_noisy_run_still_reaches_fci_on_h2():
    s = load_fixture("h2_0.74")
    ref = load_reference()["h2_0.74"]
    cfg = RunConfig(seed=1, p_flip=0.05, recovery_mode="recover",
                    max_iterations=12)
    res = run_hivqe(cfg, s)
    assert res.energy == pytest.approx(ref["e_fci"], abs=1e-7)


def test_stall_detection_breaks_the_loop(monkeypatch):
    """With the window test switched off, the run stops as stalled exactly
    STALL_WINDOW iterations after its last lower cumulative energy. The
    patch keeps the test off the few noisy, tightly capped runs that stall
    on their own, whose energy cycles among a handful of values."""
    monkeypatch.setattr("hivqe.driver.converged", lambda history, eps: False)
    res = run_hivqe(RunConfig(seed=0, max_iterations=40), load_fixture("h2_0.74"))
    e_cum = [r.e_cum for r in res.trace]
    last_drop = max(i for i, e in enumerate(e_cum) if i == 0 or min(e_cum[:i]) - e > 1e-10)
    assert res.status == "stalled"
    assert res.iterations == last_drop + 1 + STALL_WINDOW < 40


@pytest.mark.parametrize("seed, iterations", [(0, 13), (32, 12)])
def test_a_noisy_tightly_capped_run_stalls_on_its_own(seed, iterations):
    """Heavy readout noise and a cap of 6 keep LiH's cumulative energy
    cycling among a few values, so the unpatched loop stops as stalled
    exactly STALL_WINDOW iterations after its last lower energy. Of seeds
    0-39, 0 and 32 are the ones that stall; the rest converge."""
    cfg = RunConfig(seed=seed, k=6, m=2, p_flip=0.2, shots=200,
                    recovery_mode="recover", max_iterations=40)
    res = run_hivqe(cfg, load_fixture("lih"))
    e_cum = [r.e_cum for r in res.trace]
    last_drop = max(i for i, e in enumerate(e_cum) if i == 0 or min(e_cum[:i]) - e > 1e-10)
    assert res.status == "stalled"
    assert res.iterations == iterations == last_drop + 1 + STALL_WINDOW


def test_capped_iteration_assembles_its_cumulative_subspace_once(monkeypatch):
    """The cap ranks the rows of the union's matrix and the tight solve reuses
    its kept rows, so each iteration calls project once outside the
    sample-and-solve step, whether capped or not."""
    calls = []

    def counting(original):
        def project_counted(dets, s, known=None, walk=None):
            if inspect.currentframe().f_back.f_code.co_name != "sample_and_solve":
                calls.append(len(dets))
            return original(dets, s, known, walk)
        return project_counted

    # both names, so a call through either module is counted
    monkeypatch.setattr("hivqe.driver.project", counting(project))
    monkeypatch.setattr("hivqe.eigensolver.project", counting(project))
    cfg = RunConfig(seed=0, k=10, m=8, max_iterations=4)
    res = run_hivqe(cfg, load_fixture("h4_chain"))
    assert sum(r.n_dets_union > cfg.k for r in res.trace) == 2
    assert calls == [r.n_dets_union for r in res.trace]


@pytest.mark.parametrize("extra", [
    {"p_flip": 0.05, "recovery_mode": "recover"},
    {"tensor_reconstruct": True, "p_flip": 0.02, "recovery_mode": "recover"},
])
def test_extending_known_matrices_changes_no_result(monkeypatch, extra):
    """A run whose project ignores the pair the driver hands it assembles
    every matrix cold; its trace and result are the same to the bit."""
    s = load_fixture("lih")
    cfg = RunConfig(seed=2, k=40, m=12, shots=200, max_iterations=8, **extra)
    extended = []

    def counting(sub, s, known=None, walk=None):
        if known is not None and (known[0].find(sub.alpha, sub.beta) >= 0).any():
            extended.append(len(sub))
        return project(sub, s, known, walk)

    monkeypatch.setattr("hivqe.driver.project", counting)
    warm = run_hivqe(cfg, s)
    monkeypatch.setattr("hivqe.driver.project",
                        lambda sub, s, known=None, walk=None: project(sub, s))
    cold = run_hivqe(cfg, s)
    assert len(extended) >= 4
    assert timeless(warm.trace) == timeless(cold.trace)
    assert repr(warm.result_dict()) == repr(cold.result_dict())
    assert warm.dets == cold.dets
    assert warm.amplitudes.tobytes() == cold.amplitudes.tobytes()


H8 = FIXTURES.parent.parent / "bench" / "inputs" / "h8.fcidump"  # read only


@pytest.mark.parametrize("name,cfg", [
    ("lih", RunConfig(seed=0, k=40, m=10, max_iterations=10)),
    ("h8", RunConfig(seed=0, k=500, m=100, max_iterations=12)),
])
def test_a_walked_loop_carries_one_string_state(monkeypatch, name, cfg):
    """With every project walking the links and the cap below the union, each
    matrix run_hivqe assembles from a known block is bitwise a cold project
    of the same subspace; every such call reads one carried walk state, which
    grows in a spin channel exactly when the subspace brings a string the
    state does not hold."""
    s = load_fixture("lih") if name == "lih" else parse_fcidump(H8.read_text())
    monkeypatch.setattr(hivqe.eigensolver, "PAIRWISE_CUTOFF", 0)
    added = []
    add = _Channel.add

    def counted_add(channel, *args):
        added.append(channel)
        return add(channel, *args)

    monkeypatch.setattr(_Channel, "add", counted_add)
    states, calls = set(), []

    def checked(sub, s, known=None, walk=None):
        if walk is None:  # a sampled set: nothing is carried
            return project(sub, s)
        states.add(id(walk))
        new = [not set(strings.tolist()) <= set(c.strings.tolist())
               for strings, c in ((sub.alpha, walk.alpha), (sub.beta, walk.beta))]
        before = len(added)
        h = project(sub, s, known, walk)
        calls.append((0 if known is None else len(known[0]), new, added[before:] == [c for c, n in
                                                              zip((walk.alpha, walk.beta), new) if n]))
        cold = project(sub, s)
        assert all(np.array_equal(getattr(h, a), getattr(cold, a)) for a in ("indptr", "indices", "data"))
        return h

    monkeypatch.setattr("hivqe.driver.project", checked)
    res = run_hivqe(cfg, s)
    assert len(states) == 1 and len(calls) == res.iterations
    assert all(once for _, _, once in calls)
    assert any(r.n_dets_union > cfg.k for r in res.trace)  # the cap dropped rows
    extensions = [new for n_old, new, _ in calls if n_old]
    assert any(any(new) for new in extensions) and any(not any(new) for new in extensions)


@pytest.mark.parametrize("name, cfg", [
    ("lih", RunConfig(seed=0)),
    ("h8", RunConfig(seed=0, k=1000, m=100, max_iterations=20)),
])
def test_a_loop_on_the_sorted_key_search_runs_as_on_the_tables(monkeypatch, name, cfg):
    """With no position table allowed, as on subspaces too sparse for one, every
    row lookup of the loop (finds, unions, screens, expansions and the link
    walk's partners) searches the sorted pair keys; comparing or walking, the
    run ends with the default run's energy, determinants and trace."""
    s = load_fixture("lih") if name == "lih" else parse_fcidump(H8.read_text())

    def outcome():
        res = run_hivqe(cfg, s)
        return repr(res.energy), res.dets, [repr(r.e_cum) for r in res.trace]

    default = outcome()
    monkeypatch.setattr(RowIndex, "TABLE_FILL", 0)
    assert outcome() == default
    monkeypatch.setattr(hivqe.eigensolver, "PAIRWISE_CUTOFF", 0)
    assert outcome() == default


def test_tensor_reconstruction_cap_guard():
    """At p_flip=0.5 every read-out string is uniform whatever the state, so
    20 shots over 12 orbitals repair to about 37 distinct spin strings (32 at
    fewest over 2,000 seeds). With k equal to the shots the first subspace
    is never capped, and squaring its merged strings passes the 10*k = 200
    cap once 15 of its 40 strings differ."""
    s = random_integral_set(12, 6, 6, seed=12)
    cfg = RunConfig(seed=4, k=20, m=5, shots=20, p_flip=0.5,
                    tensor_reconstruct=True, closed_shell=True,
                    recovery_mode="recover", max_iterations=3)
    with pytest.raises(RunError, match="safety cap"):
        run_hivqe(cfg, s)


def test_tensor_reconstruction_closed_shell_runs():
    s = load_fixture("h2_0.74")
    cfg = RunConfig(seed=0, tensor_reconstruct=True, closed_shell=True)
    res = run_hivqe(cfg, s)
    assert res.status == "converged"
    assert res.energy == pytest.approx(
        load_reference()["h2_0.74"]["e_fci"], abs=1e-8)


def test_determinism_across_identical_runs():
    s = load_fixture("h4_chain")
    cfg = RunConfig(seed=9, k=18, m=8, p_flip=0.01, recovery_mode="recover")
    r1 = run_hivqe(cfg, s)
    r2 = run_hivqe(cfg, s)
    assert r1.energy == r2.energy  # bit-for-bit
    assert r1.dets == r2.dets
    assert np.array_equal(r1.amplitudes, r2.amplitudes)
    assert len(r1.trace) == len(r2.trace)
    for a, b in zip(r1.trace, r2.trace):
        for field in ("e_cum", "e_iter", "n_dets_sampled", "n_dets_valid",
                      "shots_valid", "n_dets_union", "n_dets_cum",
                      "n_dets_post_screen", "theta_norm", "e_plus", "e_minus"):
            va, vb = getattr(a, field), getattr(b, field)
            assert va == vb or (math.isnan(va) and math.isnan(vb))


def test_seed_changes_the_trajectory():
    s = load_fixture("h4_chain")
    r1 = run_hivqe(RunConfig(seed=0, k=10, m=4, p_flip=0.05,
                             recovery_mode="recover"), s)
    r2 = run_hivqe(RunConfig(seed=1, k=10, m=4, p_flip=0.05,
                             recovery_mode="recover"), s)
    t1 = [(r.n_dets_sampled, r.e_cum) for r in r1.trace]
    t2 = [(r.n_dets_sampled, r.e_cum) for r in r2.trace]
    assert t1 != t2



def fresh_sample_and_solve(cfg, s, theta, iteration, role):
    """(batch, loose energy) of one sample-and-solve step rebuilt from public
    calls: the state at theta sampled from the stream of (iteration, role),
    filtered (repaired in recover mode), projected and loosely solved."""
    sector = Sector(s.n_orb, s.n_alpha, s.n_beta)
    state = prepare_state(brick_wall_ansatz(s.n_orb, cfg.ansatz_layers), theta, sector)
    batch = sample(state, cfg.shots, cfg.p_flip,
                   np.random.SeedSequence([cfg.seed, iteration, role]))
    hint = mean_occupations(state) if cfg.recovery_mode == "recover" else None
    dets = filter_symmetry(batch, sector, cfg.recovery_mode, hint)
    return batch, ground_state(project(dets, s), "loose").energy


def test_iteration_and_probes_share_one_sample_and_solve_step():
    """Iteration 0's e_iter, e_plus and e_minus rebuilt from public calls:
    roles 0, 1 and 2 of the iteration's seed stream, each sampled, repaired,
    projected and loosely solved alike. The record counts the role-0 batch's
    out-of-sector shots although recover mode repairs them."""
    s = load_fixture("lih")
    cfg = RunConfig(seed=3, shots=100, k=10, m=4, p_flip=0.2,
                    recovery_mode="recover", max_iterations=2)
    record = run_hivqe(cfg, s).trace[0]
    ansatz = brick_wall_ansatz(s.n_orb, cfg.ansatz_layers)
    opt = make_optimizer(np.zeros(ansatz.n_params), np.random.SeedSequence([cfg.seed, 3]))

    batch, e_iter = fresh_sample_and_solve(cfg, s, opt.theta, 0, 0)
    theta_plus, theta_minus = propose(opt)
    e_plus = fresh_sample_and_solve(cfg, s, theta_plus, 0, 1)[1]
    e_minus = fresh_sample_and_solve(cfg, s, theta_minus, 0, 2)[1]
    assert (record.e_iter, record.e_plus, record.e_minus) == (e_iter, e_plus, e_minus)
    assert len({e_iter, e_plus, e_minus}) == 3  # three distinct draws
    sector = Sector(s.n_orb, s.n_alpha, s.n_beta)
    invalid = sum(c for bs, c in batch.counts.items()
                  if not bitstring_is_valid(bs, sector))
    assert record.shots_invalid == invalid > 0


@pytest.mark.parametrize("cache", [None])
def test_a_repeated_sampled_set_is_solved_once(monkeypatch, cache):
    """Noiseless h4_chain samples 16 sets in 6 iterations, 3 of them distinct.
    sample_and_solve projects each distinct set once, and every e_iter,
    e_plus and e_minus is bit for bit a fresh solve of the set sampled at
    that step."""
    s = load_fixture("h4_chain")
    cfg = RunConfig(seed=0, k=10, m=4, max_iterations=6)
    thetas, sampled, solved = [], [], []

    def recording_prepare_state(ansatz, theta, sector):
        thetas.append(theta.copy())
        return prepare_state(ansatz, theta, sector)

    def recording_filter_symmetry(*args):
        dets = filter_symmetry(*args)
        sampled.append((dets.alpha.tobytes(), dets.beta.tobytes()))
        return dets

    def recording_project(sub, *args):
        if inspect.currentframe().f_back.f_code.co_name == "sample_and_solve":
            solved.append((sub.alpha.tobytes(), sub.beta.tobytes()))
        return project(sub, *args)

    monkeypatch.setattr("hivqe.driver.prepare_state", recording_prepare_state)
    monkeypatch.setattr("hivqe.driver.filter_symmetry", recording_filter_symmetry)
    monkeypatch.setattr("hivqe.driver.project", recording_project)
    trace = run_hivqe(cfg, s).trace

    assert len(trace) == 6 and len(sampled) == len(thetas) == 16
    assert len(set(sampled)) == 3
    assert len(solved) == len(set(solved)) == 3
    assert set(solved) == set(sampled)
    steps = [(r.iteration, role) for r in trace for role in (0, 1, 2)]
    energies = [e for r in trace for e in (r.e_iter, r.e_plus, r.e_minus)]
    for theta, (i, role), energy in zip(thetas, steps, energies):
        assert fresh_sample_and_solve(cfg, s, theta, i, role)[1] == energy


def test_paper_scale_sector_is_sampled_from_string_vectors(monkeypatch):
    """15 orbitals with 5 alpha and 5 beta electrons span 9,018,009
    determinants, the sector of the paper's NH3 run. The sampler must hold
    two 3,003-entry string vectors and never enumerate that sector."""
    def refuse(*args, **kwargs):
        raise AssertionError("the sampler enumerated the joint sector")

    states = []

    def recording_prepare_state(*args):
        states.append(sampler.prepare_state(*args))
        return states[-1]

    monkeypatch.setattr("hivqe.sampler.enumerate_sector", refuse)
    monkeypatch.setattr("hivqe.driver.prepare_state", recording_prepare_state)
    s = random_integral_set(15, 5, 5, seed=15)
    cfg = RunConfig(seed=0, shots=500, k=100, m=20, p_flip=0.01,
                    recovery_mode="recover", max_iterations=2)
    res = run_hivqe(cfg, s)
    assert res.iterations == 2
    assert res.energy <= res.e_hf + 1e-9
    assert all(Sector(15, 5, 5).contains(d) for d in res.dets)
    assert len(states) == 4  # two main iterations and one SPSA probe pair
    for state in states:
        assert (state.alpha.size, state.beta.size) == (3003, 3003)

def test_each_tight_solve_starts_from_the_rows_the_last_screen_kept(monkeypatch):
    """After the first, each tight solve starts from the previous iteration's
    amplitudes on the rows its screen kept and from 0 on every other row,
    through a cap that reorders rows. A row the cap drops and a tensor
    reconstruction adds back is a new row and starts at 0 too."""
    cfg = RunConfig(**dict(LIH_TENSOR, max_iterations=4))
    screens, guesses, capped = [], [], []

    def recording_screen(sub, amplitudes, threshold):
        rows = amplitude_screen(sub, amplitudes, threshold)
        screens.append((sub, amplitudes, rows))
        return rows

    def recording_solve(h, mode="tight", guess=None):
        if mode == "tight":
            guesses.append(guess)
        return ground_state(h, mode, guess)

    def recording_tensor(sub, closed_shell, cap):
        capped.append(len(sub))
        return tensor_reconstruct(sub, closed_shell, cap)

    monkeypatch.setattr("hivqe.driver.amplitude_screen", recording_screen)
    monkeypatch.setattr("hivqe.driver.ground_state", recording_solve)
    monkeypatch.setattr("hivqe.driver.tensor_reconstruct", recording_tensor)
    res = run_hivqe(cfg, load_fixture("lih"))
    assert any(cfg.k < r.n_dets_union and cfg.k < r.n_dets_cum for r in res.trace)
    assert len(screens) == len(guesses) == len(capped) == 4  # every solve's subspace is known
    readded = 0
    for (earlier, amplitudes, rows), (sub, _, _), guess, n in zip(
            screens, screens[1:], guesses[1:], capped[1:]):
        kept = dict(zip(earlier.take(rows), amplitudes[rows]))
        assert any(d not in kept for d in sub)
        assert np.array_equal(guess, [kept.get(d, 0.0) if row < n else 0.0
                                      for row, d in enumerate(sub)])
        readded += sum(d in kept for d in list(sub)[n:])
    assert readded  # this run does drop screened rows at the cap and add them back


# ---------------------------------------------------------------------------
# Density matrices and dipoles
# ---------------------------------------------------------------------------

def rdm_from_fock_space(dets, amps, n_orb):
    """Independent 1-RDM: contract the Fock-space vector with a+_p a_q."""
    vec = fock_vector(dets, amps, n_orb)
    gamma = np.zeros((n_orb, n_orb))
    for p in range(n_orb):
        for q in range(n_orb):
            for off in (0, n_orb):
                gamma[p, q] += vec @ jw_annihilator(2 * n_orb, p + off).T @ (
                    jw_annihilator(2 * n_orb, q + off) @ vec)
    return gamma


@pytest.mark.parametrize("shape,seed", [((2, 1, 1), 0), ((3, 2, 1), 4),
                                        ((3, 1, 2), 8)])
def test_compute_1rdm_matches_fock_space_contraction(shape, seed):
    s = random_integral_set(*shape, seed=seed)
    dets = enumerate_sector(*shape)
    sub = Subspace(dets, Sector(*shape))
    c = ground_state(project(sub, s), "tight")
    gamma = compute_1rdm(c, sub)
    expected = rdm_from_fock_space(dets, c.amplitudes, shape[0])
    assert np.max(np.abs(gamma - expected)) < 1e-12
    assert np.trace(gamma) == pytest.approx(shape[1] + shape[2], abs=1e-12)
    assert np.allclose(gamma, gamma.T, atol=1e-12)


def test_compute_1rdm_on_partial_subspace():
    s = load_fixture("h4_chain")
    dets = list(enumerate_sector(4, 2, 2))[:11]
    sub = Subspace(dets, Sector(4, 2, 2))
    c = ground_state(project(sub, s), "tight")
    gamma = compute_1rdm(c, sub)
    expected = rdm_from_fock_space(dets, c.amplitudes, 4)
    assert np.max(np.abs(gamma - expected)) < 1e-12


def test_compute_1rdm_of_one_determinant_is_its_occupation():
    """No two rows lie one electron apart, so the density is diagonal."""
    s = load_fixture("lih")
    sub = Subspace([hartree_fock_det(s)], Sector(s.n_orb, s.n_alpha, s.n_beta))
    gamma = compute_1rdm(CIVector(np.array([1.0]), 0.0), sub)
    assert np.array_equal(gamma, np.diag([2.0, 2.0, 0.0, 0.0, 0.0, 0.0]))
    assert np.trace(gamma) == 4


def test_compute_1rdm_refuses_a_vector_of_the_wrong_length():
    sub = Subspace(enumerate_sector(2, 1, 1), Sector(2, 1, 1))
    with pytest.raises(ValueError, match="^amplitude vector does not match subspace length$"):
        compute_1rdm(CIVector(np.array([1.0]), 0.0), sub)


def test_h2_dipole_vanishes_by_symmetry():
    s = load_fixture("h2_0.74")
    d = parse_dipole_file((FIXTURES / "h2_0.74.dipole").read_text(), 2)
    res = run_hivqe(RunConfig(seed=0), s, d)
    assert res.dipole is not None
    assert np.max(np.abs(res.dipole)) < 1e-8


def test_lih_dipole_matches_fci_value():
    s = load_fixture("lih")
    ref = load_reference()["lih"]
    d = parse_dipole_file((FIXTURES / "lih.dipole").read_text(), 6)
    res = run_hivqe(RunConfig(seed=0, k=112), s, d)
    assert res.dipole[2] == pytest.approx(ref["fci_dipole_debye"][2], abs=5e-3)
    assert abs(res.dipole[0]) < 1e-6 and abs(res.dipole[1]) < 1e-6


def test_dipole_moment_shape_mismatch_raises():
    gamma = np.eye(3)
    d = DipoleIntegrals(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                        np.zeros(3))
    with pytest.raises(ValueError):
        dipole_moment(gamma, d)

