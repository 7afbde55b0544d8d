"""The package names the benchmark's per-layer tracer patches and reads.

bench/layers.py replaces functions at the module attributes named in its
WRAPPED table, reads a few more names and iterates what ``project``
receives; a rename or a change of argument inside hivqe would otherwise only
surface when ``bench/run.py --trace 1`` fails.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import hivqe
import hivqe.driver
import hivqe.eigensolver
import hivqe.oracle
import hivqe.subspace
from hivqe.determinants import Determinant, Sector
from hivqe.eigensolver import ground_state, project
from hivqe.optimizer import EnergyHistory
from hivqe.sampler import brick_wall_ansatz, prepare_state, sample

from helpers import FIXTURES, load_fixture, load_reference

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers():
    return load_bench_module("layers")


def test_every_loop_workload_sets_only_valid_config_keys():
    """bench/worker.py builds RunConfig(seed=..., **config) for each loop
    workload; a key removed from RunConfig would break the benchmark."""
    loops = [wl for wl in load_bench_module("workloads").WORKLOADS.values()
             if wl["entry"] == "run_hivqe"]
    assert loops
    for wl in loops:
        s = hivqe.parse_fcidump((BENCH / "inputs" / f"{wl['input']}.fcidump").read_text())
        hivqe.RunConfig.from_dict({"seed": 0, **wl["config"]}).validate(s)


def test_every_wrapped_name_resolves():
    for module_name, name, _ in load_layers().WRAPPED:
        module = getattr(hivqe, module_name)
        assert callable(getattr(module, name, None)), f"hivqe.{module_name}.{name}"


def test_names_the_tracer_reads_exist():
    assert isinstance(hivqe.eigensolver.DENSE_CUTOFF, int)
    assert callable(hivqe.subspace.bitstring_is_valid)
    assert EnergyHistory().energies == []
    for name in ("RunConfig", "run_hivqe", "fci_ground", "parse_fcidump"):
        assert hasattr(hivqe, name), name


def test_the_untraced_run_reads_the_history_at_each_convergence_test(monkeypatch):
    """bench/worker.py times time_to_chem_acc_s by wrapping driver.converged."""
    seen = []
    converged = hivqe.driver.converged

    def marked(history, *args, **kwargs):
        seen.append(list(history.energies))
        return converged(history, *args, **kwargs)

    monkeypatch.setattr(hivqe.driver, "converged", marked)
    result = hivqe.run_hivqe(hivqe.RunConfig(seed=0, max_iterations=8), load_fixture("lih"))
    assert result.converged and 1 < result.iterations < 8  # the last call ended the loop
    e_cum = [r.e_cum for r in result.trace]
    assert seen == [e_cum[:i + 1] for i in range(result.iterations)]


def installed_tracer(monkeypatch):
    """bench/layers.py's Tracer, wrapped around the package for one test."""
    layers = load_layers()
    modules = {"driver": hivqe.driver, "eigensolver": hivqe.eigensolver,
               "oracle": hivqe.oracle, "subspace": hivqe.subspace}
    for module_name, name, _ in layers.WRAPPED:
        # re-set through monkeypatch so that teardown removes the wrappers
        monkeypatch.setattr(modules[module_name], name, getattr(modules[module_name], name))
    tracer = layers.Tracer(modules, hivqe.eigensolver.DENSE_CUTOFF)
    tracer.install()
    return tracer


def test_the_tracer_measures_a_loop(monkeypatch):
    matrices, solved = [], []

    def recording_project(*args, **kwargs):
        matrices.append(project(*args, **kwargs))
        return matrices[-1]

    def recording_solve(h, *args, **kwargs):
        solved.append(h.shape[0])
        return ground_state(h, *args, **kwargs)

    monkeypatch.setattr(hivqe.driver, "project", recording_project)  # the tracer wraps this
    for module in (hivqe.driver, hivqe.eigensolver):
        monkeypatch.setattr(module, "ground_state", recording_solve)
    # a cutoff inside this run's range of dimensions, so both solve paths run
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 4)
    tracer = installed_tracer(monkeypatch)
    cfg = hivqe.RunConfig(seed=0, k=10, m=4, max_iterations=2)
    result, run_s = tracer.run(hivqe.run_hivqe, cfg, load_fixture("h4_chain"))
    metrics = tracer.metrics(run_s, 0.0, result.iterations, 1.0)
    assert metrics["eigensolver.project_calls"] == len(matrices) > 0
    # the tracer reads this storage: the lower triangle, nothing above the diagonal
    assert all(scipy.sparse.triu(h, 1).nnz == 0 for h in matrices)
    assert metrics["eigensolver.elements"] > 0
    assert metrics["driver.iterations"] == 2
    # the tracer splits solves by the cutoff that ground_state reads
    dense = sum(n <= hivqe.eigensolver.DENSE_CUTOFF for n in solved)
    assert 0 < dense < len(solved)
    assert metrics["eigensolver.dense_solves"] == dense
    assert metrics["eigensolver.davidson_solves"] == len(solved) - dense
    # bench/worker.py hashes the masks of RunResult.dets as Python ints
    assert isinstance(result.dets, list) and result.dets
    assert all(type(d) is Determinant and type(d.alpha_mask) is int
               and type(d.beta_mask) is int for d in result.dets)


def out_of_sector_shots(batch, sector) -> int:
    """The shots outside sector, by the batch's own popcount mask."""
    return int(batch.total_shots - batch.shots[batch.in_sector(sector)].sum())


@pytest.mark.parametrize("path", [FIXTURES / "lih.fcidump", FIXTURES / "h4_chain.fcidump",
                                  BENCH / "inputs" / "h12.fcidump"], ids=lambda p: p.stem)
def test_the_text_view_counts_the_shots_outside_the_sector_as_the_mask_does(path):
    """The recover-mode tracer counts repaired shots from the batch's text view
    and bitstring_is_valid; on noisy batches that count is the sector mask's."""
    s = hivqe.parse_fcidump(path.read_text())
    sector = Sector(s.n_orb, s.n_alpha, s.n_beta)
    spec = brick_wall_ansatz(s.n_orb, 2)
    state = prepare_state(spec, np.random.default_rng(0).normal(0.0, 0.3, spec.n_params), sector)
    is_valid = hivqe.subspace.bitstring_is_valid
    for seed in range(3):
        batch = sample(state, 2000, 0.05, seed)
        text = sum(c for bits, c in batch.counts.items() if not is_valid(bits, sector))
        assert text == out_of_sector_shots(batch, sector) > 0


def test_the_tracer_counts_the_repaired_shots_of_a_recovering_loop(monkeypatch):
    """subspace.repaired_shot_ratio is the shots outside the sector over the
    shots filtered, summed over every batch the loop filters."""
    filtered = []
    filter_symmetry = hivqe.driver.filter_symmetry

    def recording_filter(batch, sector, *args, **kwargs):
        filtered.append((batch, sector))
        return filter_symmetry(batch, sector, *args, **kwargs)

    monkeypatch.setattr(hivqe.driver, "filter_symmetry", recording_filter)  # the tracer wraps this
    tracer = installed_tracer(monkeypatch)
    cfg = hivqe.RunConfig(seed=0, k=10, m=4, max_iterations=3, p_flip=0.05, recovery_mode="recover")
    result, run_s = tracer.run(hivqe.run_hivqe, cfg, load_fixture("h4_chain"))
    metrics = tracer.metrics(run_s, 0.0, result.iterations, 1.0)
    repaired = sum(out_of_sector_shots(batch, sector) for batch, sector in filtered)
    shots = sum(batch.total_shots for batch, _ in filtered)
    assert 0 < repaired < shots
    assert metrics["subspace.repaired_shot_ratio"] == repaired / shots


def test_the_tracer_measures_an_fci_solve(monkeypatch):
    tracer = installed_tracer(monkeypatch)
    result, run_s = tracer.run(hivqe.fci_ground, load_fixture("h2_0.74"))
    metrics = tracer.metrics(run_s, 0.0, 1, 1.0)
    assert metrics["eigensolver.project_calls"] == 1
    assert metrics["eigensolver.elements"] > 0
    assert result.energy == pytest.approx(load_reference()["h2_0.74"]["e_fci"], abs=1e-9)


def test_fci_ground_enumerates_its_sector_once_through_the_oracle_module(monkeypatch):
    """bench/layers.py times oracle.enumerate_s by wrapping
    hivqe.oracle.enumerate_sector, so fci_ground must call it by that name."""
    calls = []
    enumerate_sector = hivqe.oracle.enumerate_sector

    def counted(*args):
        calls.append(args)
        return enumerate_sector(*args)

    monkeypatch.setattr(hivqe.oracle, "enumerate_sector", counted)
    result = hivqe.fci_ground(load_fixture("h2_0.74"))
    assert calls == [(2, 1, 1)] and result.sector_size == 4
