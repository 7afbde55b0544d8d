"""Write the frozen benchmark inputs under bench/inputs/.

Builds STO-3G linear hydrogen chains at 1.0 angstrom spacing with
``make_integral_set`` from scripts/make_fixtures.py (imported, not copied),
writes them as FCIDUMP files through the package's own writer, and records
in bench/inputs/reference.json for each file its sha256, its Hartree-Fock
energy and, where the sector is small enough for ``fci_ground``, its exact
energy. The benchmark checks the hashes before it times anything, so integral
generation never lands in a measured set-up time.

Run from the repository root (takes about a minute):

    python3 bench/make_inputs.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INPUTS = Path(__file__).resolve().parent / "inputs"
SPACING_ANGSTROM = 1.0
CHAINS = {"h8": 8, "h12": 12}
FCI_CHAINS = ("h8",)


def _load_fixture_module():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> None:
    fixtures = _load_fixture_module()
    from hivqe.integrals import parse_fcidump, write_fcidump
    from hivqe.oracle import fci_ground

    INPUTS.mkdir(exist_ok=True)
    reference = {}
    for name, n_atoms in CHAINS.items():
        atoms = [("H", (0.0, 0.0, i * SPACING_ANGSTROM * fixtures.BOHR_PER_ANGSTROM))
                 for i in range(n_atoms)]
        ints, _dipole, e_hf_scf = fixtures.make_integral_set(atoms, n_atoms)
        text = write_fcidump(ints)
        path = INPUTS / f"{name}.fcidump"
        path.write_text(text)
        data = path.read_bytes()
        reread = parse_fcidump(data.decode())
        e_hf = float(fixtures.hf_energy_from_file(reread))
        if abs(e_hf - e_hf_scf) > 1e-9:
            raise RuntimeError(f"{name}: SCF/determinant HF mismatch {e_hf_scf} vs {e_hf}")
        entry = {
            "file": path.name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "note": f"linear H{n_atoms}, {SPACING_ANGSTROM:.1f} angstrom spacing, STO-3G",
            "n_orb": reread.n_orb,
            "n_alpha": reread.n_alpha,
            "n_beta": reread.n_beta,
            "e_hf": e_hf,
        }
        if name in FCI_CHAINS:
            entry["e_fci"] = float(fci_ground(reread).energy)
        reference[name] = entry
        print(f"{name}: HF {e_hf:.10f}  FCI {entry.get('e_fci', float('nan')):.10f}")
    out = INPUTS / "reference.json"
    out.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
