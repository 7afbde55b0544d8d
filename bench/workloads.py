"""The benchmark's workloads: which input, which entry point, which settings.

All inputs are STO-3G linear hydrogen chains at 1.0 angstrom spacing, frozen
under bench/inputs/ by bench/make_inputs.py. The workload seed is the
benchmark's --seed argument and becomes ``RunConfig.seed``.

h8_loop   H8 (8 orbitals, 4a/4b, sector 4,900), noiseless, ``discard``.
          Hamiltonian assembly takes nearly all of the wall time and most
          elements are evaluated again in later ``project`` calls, while a
          noiseless closed-shell sampler proposes only the Hartree-Fock
          determinant. It reaches chemical accuracy at its 17th iteration;
          the budget of 20 leaves room for a change that needs a little more
          while keeping two repetitions inside one timed run.
h8_fci    The same integrals through ``oracle.fci_ground`` (``hivqe fci``):
          one cold ``project`` over the whole sector and one tight solve,
          the assembly layer with no reuse between calls.
h12_noisy H12 (12 orbitals, 6a/6b, sector 853,776) with readout noise and
          ``recover``. The sampler's joint-sector tables and recover-mode
          filtering dominate; ``project`` is a few percent of the run.

h8_loop and h8_fci do not depend on the seed (noiseless sampling from the
Hartree-Fock state; FCI has no randomness), so a check on a held-out seed
must use h12_noisy.
"""

from __future__ import annotations

CHEM_ACC_HA = 1.6e-3

WORKLOADS = {
    "h8_loop": {
        "input": "h8",
        "entry": "run_hivqe",
        "config": {"k": 1000, "m": 100, "max_iterations": 20},
        # Time to chemical accuracy is measured against the stored FCI energy.
        "accuracy_reference": "fci",
    },
    "h8_fci": {
        "input": "h8",
        "entry": "fci_ground",
        "config": {},
        "accuracy_reference": "fci",
    },
    "h12_noisy": {
        "input": "h12",
        "entry": "run_hivqe",
        "config": {
            "shots": 4000, "k": 200, "m": 20, "max_iterations": 6,
            "p_flip": 0.01, "recovery_mode": "recover",
        },
        # No FCI reference is affordable for H12, so time to chemical
        # accuracy is measured against the run's own final energy: the time
        # until the loop settles within 1.6 mHa of its answer.
        "accuracy_reference": "final",
    },
}
