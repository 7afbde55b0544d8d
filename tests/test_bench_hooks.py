"""The package names the benchmark's per-layer tracer patches and reads.

bench/layers.py replaces functions at the module attributes named in its
WRAPPED table and reads a few more names; a rename inside hivqe would
otherwise only surface when ``bench/run.py --trace 1`` fails.
"""

import importlib.util
from pathlib import Path

import hivqe
import hivqe.driver
import hivqe.eigensolver
import hivqe.oracle
import hivqe.subspace
from hivqe.optimizer import EnergyHistory

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


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
