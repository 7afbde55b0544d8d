"""hivqe benchmark: one workload, timed in fresh processes, outputs checked.

    python3 bench/run.py --workload h8_loop --seed 0 --seconds 30 --trace 0

Run from the repository root. Each repetition runs bench/worker.py in a fresh
process, one at a time, with the BLAS pools pinned to one thread; every
repetition of a run uses the same seed. Repetitions start while the next one
is expected to end within --seconds, and at least two run so that
determinism can be checked. Extra set-up-only processes bring the set-up
samples to at least five.

With --trace 0 the end-to-end metrics are medians over the repetitions. With
--trace 1, repetitions alternate between untraced and traced, and the
per-layer metrics are medians over the traced ones (see bench/layers.py).

The times setup_s, run_s, time_to_chem_acc_s and the per-layer times are
wall times taken at the reference host's speed: each worker times a fixed
pure-Python slice, which does not use hivqe, alongside what it measures, and
scales its wall times by how much slower than nominal that slice ran
(bench/hostspeed.py). This takes out the drift of a shared host's speed,
tens of percent over minutes, which medians over a run cannot. The median
wall time of the call and the median speed factor are printed as well
(run_wall_s, run_speed).

Each repetition passes these checks or counts as failed:
  * the worker exits cleanly within the time limit;
  * E <= E_HF of the frozen input;
  * the running minimum of e_cum over the trace equals the reported energy;
  * E >= E_FCI - 1e-9 where an FCI reference is stored (H8);
  * h8_fci: E matches the stored FCI energy within 1e-9 Ha;
  * loops measured against FCI reach chemical accuracy (1.6 mHa);
  * energy, n_dets and the determinant-list hash equal the first
    repetition's (same seed, same answer).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import CHEM_ACC_HA, WORKLOADS  # noqa: E402

MIN_REPS = 2
MAX_REPS = 50
MIN_SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
FCI_TOLERANCE_HA = 1e-9

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "time_to_chem_acc_s": "s",
    "e_corr_mha": "mHa",
}


class BenchError(RuntimeError):
    pass


def _check_inputs() -> dict:
    """Stored references, after confirming the frozen inputs are intact."""
    if not (ROOT / "src" / "hivqe" / "__init__.py").is_file():
        raise BenchError(f"no hivqe sources under {ROOT / 'src'}; run from a repository checkout")
    reference = json.loads((BENCH / "inputs" / "reference.json").read_text())
    for name, entry in reference.items():
        data = (BENCH / "inputs" / entry["file"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise BenchError(f"input {entry['file']} does not match its stored sha256")
    return reference


def _worker(workload: str, seed: int, traced: bool, setup_only: bool, timeout: float):
    """Run one worker process; returns (report or None, error text)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"worker printed no result: {proc.stdout[-500:]!r}"


def _chem_acc_time(rep: dict, e_ref: float):
    for t, e in rep["marks"]:
        if e <= e_ref + CHEM_ACC_HA:
            return t
    return None


def _check(rep: dict, first: dict, wl: dict, ref: dict) -> list[str]:
    """Correctness failures of one repetition (empty when it passes)."""
    errors = []
    e = rep["energy"]
    if not e <= ref["e_hf"]:
        errors.append(f"E {e} above E_HF {ref['e_hf']}")
    if rep["min_e_cum"] is not None and rep["min_e_cum"] != e:
        errors.append(f"running minimum of e_cum {rep['min_e_cum']} differs from E {e}")
    if "e_fci" in ref:
        if e < ref["e_fci"] - FCI_TOLERANCE_HA:
            errors.append(f"E {e} below E_FCI {ref['e_fci']}")
        if wl["entry"] == "fci_ground" and abs(e - ref["e_fci"]) > FCI_TOLERANCE_HA:
            errors.append(f"FCI energy {e} differs from the stored {ref['e_fci']}")
    if rep["marks"]:
        e_ref = ref["e_fci"] if wl["accuracy_reference"] == "fci" else e
        rep["time_to_chem_acc_s"] = _chem_acc_time(rep, e_ref)
        if rep["time_to_chem_acc_s"] is None:
            errors.append("never came within chemical accuracy of the reference")
    if first is not None:
        for key in ("energy", "n_dets", "dets_sha256"):
            if rep[key] != first[key]:
                errors.append(f"{key} {rep[key]!r} differs from the first repetition's "
                              f"{first[key]!r} under the same seed")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    try:
        ref = _check_inputs()[wl["input"]]
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    reps, failed, setup_samples, longest = [], 0, [], 0.0
    first = None
    while len(reps) < MAX_REPS:
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + longest > args.seconds:
            break
        if elapsed + 5.0 > TIME_LIMIT_S:
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.perf_counter()
        rep, error = _worker(args.workload, args.seed, traced, False, TIME_LIMIT_S - elapsed)
        longest = max(longest, time.perf_counter() - t0)
        errors = [error] if rep is None else _check(rep, first, wl, ref)
        if rep is not None:
            rep["traced"] = traced
            setup_samples.append(rep["setup_s"])
            first = first or rep
        label = "traced" if traced else "untraced"
        print(f"rep {len(reps)} ({label}): "
              + ("ok" if not errors else "FAILED: " + "; ".join(errors))
              + ("" if rep is None else f"  run_s={rep['run_s']:.3f}  E={rep['energy']:.10f}"))
        failed += bool(errors)
        reps.append(rep)
    while len(setup_samples) < MIN_SETUP_SAMPLES and time.perf_counter() - start < TIME_LIMIT_S - 10:
        rep, error = _worker(args.workload, args.seed, False, True, 30.0)
        if rep is None:
            print(f"bench: set-up sample failed: {error}", file=sys.stderr)
            break
        setup_samples.append(rep["setup_s"])

    done = [r for r in reps if r is not None]
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("bench: no repetition produced measurements", file=sys.stderr)
        return 1

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    values = {
        "run_s": median(untraced, "run_s"),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": median(untraced, "peak_rss_mb"),
        "time_to_chem_acc_s": statistics.median(
            r["time_to_chem_acc_s"] or r["run_s"] for r in untraced),
        "e_corr_mha": statistics.median((ref["e_hf"] - r["energy"]) * 1e3 for r in untraced),
    }
    also = {"failed_ratio": (failed / len(reps), "runs/runs")}
    if "e_fci" in ref:
        also["energy_error_mha"] = (
            statistics.median((r["energy"] - ref["e_fci"]) * 1e3 for r in untraced), "mHa")
    also["run_wall_s"] = (median(untraced, "run_wall_s"), "s")
    also["run_speed"] = (median(untraced, "run_speed"), "ratio")
    print(f"{args.workload}  seed {args.seed}  {len(untraced)} untraced, {len(traced)} traced "
          f"repetitions, {len(setup_samples)} set-up samples")
    for name, value in values.items():
        print(f"  {name:<20s} {value:14.6f} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in also.items():
        print(f"  {name:<20s} {value:14.6f} {unit}")

    if args.trace:
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = median(traced, "run_s") / values["run_s"] - 1.0
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in layers.items()}
        for name, v in layers.items():
            print(f"  {name:<36s} {v:16.6f} {_layer_unit(name)}")
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_yield"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
