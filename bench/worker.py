"""One benchmark repetition, in a fresh process.

Prints one JSON line with the repetition's measurements; bench/run.py
starts this script once per repetition and checks what it reports. Every
repetition pays what a ``hivqe run`` pays, including the sampler's sector
tables, which are cached for the life of a process.

Every timing is taken together with the host-speed reference slice of
bench/hostspeed.py: ``*_wall_s`` are wall times, and ``setup_s``, ``run_s``,
the chemical-accuracy marks and the per-layer times are the same times at the
reference host's speed. The slice is also sampled on a timer during the
timed call; in a traced run each of those slices is taken off the span it
lands in.

    python3 bench/worker.py --workload h8_loop --seed 0 [--traced] [--setup-only]
"""

from __future__ import annotations

import os

# Pin the BLAS pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Reference slices timed on each side of set-up and of the timed call.
BRACKET_SLICES = 5


def _dets_sha256(dets) -> str:
    text = "\n".join(f"{d.alpha_mask} {d.beta_mask}" for d in dets)
    return hashlib.sha256(text.encode()).hexdigest()


def _timed(speed: HostSpeed, fn, *args):
    """Call fn with the reference slice sampled on a timer.

    Returns (result, start, wall seconds less the time the slices took)."""
    spent0 = speed.spent_s
    speed.start_timer()
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        end = time.perf_counter()
        spent = speed.spent_s - spent0
        speed.stop_timer()
    return result, start, end - start - spent


def _run_loop(hivqe, s, cfg, tracer, speed):
    """Returns (wall seconds, result fields, marks as [wall seconds, energy])."""
    import hivqe.driver as driver

    if tracer is not None:
        (result, run_s), _, _ = _timed(speed, tracer.run, hivqe.run_hivqe, cfg, s)
        marks = []
    else:
        converged = driver.converged
        stamps = []
        spent0 = speed.spent_s

        def marked(history, *args, **kwargs):
            # Wall time so far, less the reference slices run so far.
            stamps.append((time.perf_counter() - (speed.spent_s - spent0),
                           min(history.energies)))
            return converged(history, *args, **kwargs)

        driver.converged = marked
        result, start, run_s = _timed(speed, hivqe.run_hivqe, cfg, s)
        marks = [[t - start, e] for t, e in stamps]
    return run_s, {
        "energy": result.energy,
        "min_e_cum": min(r.e_cum for r in result.trace),
        "n_dets": result.n_dets,
        "dets_sha256": _dets_sha256(result.dets),
        "iterations": result.iterations,
    }, marks


def _run_fci(hivqe, s, tracer, speed):
    if tracer is not None:
        (res, run_s), _, _ = _timed(speed, tracer.run, hivqe.fci_ground, s)
    else:
        res, _, run_s = _timed(speed, hivqe.fci_ground, s)
    amplitudes = res.vector.amplitudes
    return run_s, {
        "energy": res.energy,
        "min_e_cum": None,
        "n_dets": len(amplitudes),
        "dets_sha256": hashlib.sha256(amplitudes.tobytes()).hexdigest(),
        "iterations": 1,  # one full-sector assembly and solve
    }, [[run_s, res.energy]]  # the energy is known only at the end


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    speed = HostSpeed()
    speed.sample(BRACKET_SLICES)
    t0 = time.perf_counter()
    import hivqe
    if Path(hivqe.__file__).resolve().parent != BENCH.parent / "src" / "hivqe":
        raise SystemExit(f"imported hivqe from {hivqe.__file__}, not from this checkout")
    t_parse = time.perf_counter()
    s = hivqe.parse_fcidump((BENCH / "inputs" / f"{wl['input']}.fcidump").read_text())
    t1 = time.perf_counter()
    speed.sample(BRACKET_SLICES)
    setup_factor = speed.factor()
    out = {"setup_wall_s": t1 - t0, "setup_s": (t1 - t0) * setup_factor,
           "setup_speed": setup_factor, "parse_s": (t1 - t_parse) * setup_factor}
    if args.setup_only:
        print(json.dumps(out))
        return

    tracer = None
    if args.traced:
        import hivqe.driver
        import hivqe.eigensolver
        import hivqe.oracle
        import hivqe.subspace
        from layers import Tracer

        modules = {"driver": hivqe.driver, "eigensolver": hivqe.eigensolver,
                   "oracle": hivqe.oracle, "subspace": hivqe.subspace}
        tracer = Tracer(modules, hivqe.eigensolver.DENSE_CUTOFF)
        tracer.install()
        speed.on_timer_slice = tracer.exclude

    first = len(speed.samples)
    speed.sample(BRACKET_SLICES)
    if wl["entry"] == "run_hivqe":
        cfg = hivqe.RunConfig(seed=args.seed, **wl["config"])
        run_wall_s, result, marks = _run_loop(hivqe, s, cfg, tracer, speed)
    else:
        run_wall_s, result, marks = _run_fci(hivqe, s, tracer, speed)
    speed.sample(BRACKET_SLICES)
    run_factor = speed.factor(first)
    out.update(result)
    out["run_wall_s"] = run_wall_s
    out["run_speed"] = run_factor
    out["speed_samples"] = len(speed.samples) - first
    out["run_s"] = run_wall_s * run_factor
    out["marks"] = [[t * run_factor, e] for t, e in marks]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.metrics(run_wall_s, out["parse_s"], result["iterations"],
                                       run_factor)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
