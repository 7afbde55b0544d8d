"""Per-layer tracing from outside the package.

The tracer replaces public functions of hivqe's modules with timing wrappers
at the names their callers look up: ``hivqe.driver.<name>`` (the driver binds
its names by from-import), ``hivqe.eigensolver.<name>`` (which
``subspace.cap_screen`` reaches through its module attribute) and
``hivqe.oracle.<name>``. Each wrapped call is a span; spans nest on a stack,
and a span's self time is its duration minus the durations of its children.
Whatever the root call (``run_hivqe`` or ``fci_ground``) spends outside every
wrapped span is the driver's own time. Host-speed reference slices
(bench/hostspeed.py) that run inside the traced call are passed to
``exclude`` and subtracted from the span they land in.

Counts come from the objects a call returns, never from per-element hooks:
element counts from each assembled matrix, element reuse from determinant-pair
keys across the ``project`` calls of one run, expansion fill from the change
in subspace length, repaired shots from ``bitstring_is_valid`` over each
filtered batch. That bookkeeping runs outside every span and is reported as
``trace.bookkeeping_s`` so it inflates no layer.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# (module key, function name, span key). A function reached
# through two modules is wrapped at both, under one key.
WRAPPED = (
    ("driver", "prepare_state", "sampler.prepare"),
    ("driver", "sample", "sampler.sample"),
    ("driver", "mean_occupations", "sampler.mean_occ"),
    ("driver", "filter_symmetry", "subspace.filter"),
    ("driver", "union", "subspace.other"),
    ("driver", "cap_screen", "subspace.cap_screen"),
    ("driver", "tensor_reconstruct", "subspace.other"),
    ("driver", "amplitude_screen", "subspace.other"),
    ("driver", "classical_expand", "subspace.expand"),
    ("driver", "project", "eigensolver.project"),
    ("driver", "ground_state", "eigensolver.solve"),
    ("driver", "propose", "optimizer.self"),
    ("driver", "update", "optimizer.self"),
    ("driver", "converged", "optimizer.self"),
    ("eigensolver", "project", "eigensolver.project"),
    ("eigensolver", "ground_state", "eigensolver.solve"),
    ("oracle", "project", "eigensolver.project"),
    ("oracle", "ground_state", "eigensolver.solve"),
    ("oracle", "enumerate_sector", "oracle.enumerate"),
)

# Span keys whose self times make up the traced run, apart from the driver.
SELF_TIME_KEYS = sorted({key for _, _, key in WRAPPED})


def _matrix(h):
    """The sparse matrix behind whatever ``project`` returns."""
    return getattr(h, "matrix", h)


def _state_size(state) -> int:
    """Amplitudes held by a prepared sampler state."""
    return sum(v.size for v in vars(state).values() if isinstance(v, np.ndarray))


class Tracer:
    """Span stack plus per-layer counters for one traced run."""

    def __init__(self, hivqe_modules: dict, dense_cutoff: int):
        self.modules = hivqe_modules
        self.dense_cutoff = dense_cutoff
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.bookkeeping_s = 0.0
        self.excluded_s = 0.0
        self.stack: list[list] = []
        self.driver_self_s = 0.0
        self.prepare_first_s = 0.0
        self.sector_size = 0
        self.probe_window = None  # (start, probe thetas, excluded_s) while SPSA probes run
        self.probe_s = 0.0
        self.seen_pairs: set = set()
        self.elements = 0
        self.reused_elements = 0
        self.project_max_dim = 0
        self.nnz_final = 0
        self.main_shots = 0
        self.new_dets = 0
        self.filtered_shots = 0
        self.repaired_shots = 0
        self.expand_added = 0
        self.expand_budget = 0

    # -- wrapping -------------------------------------------------------
    def install(self) -> None:
        for module_name, name, key in WRAPPED:
            module = self.modules[module_name]
            after = getattr(self, f"_after_{name}", None)
            setattr(module, name, self._wrap(getattr(module, name), key, after))

    def _wrap(self, fn, key, after):
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[key] += duration - frame[1]
                self.count[key] += 1
                stack[-1][1] += duration
            if after is not None:
                excluded_s = self.excluded_s
                after(args, kwargs, result, start, duration)
                # A slice that lands here was already taken off the parent span.
                spent = time.perf_counter() - end - (self.excluded_s - excluded_s)
                self.bookkeeping_s += spent
                stack[-1][1] += spent
            return result

        return wrapper

    def run(self, fn, *args):
        """Call the root function as the driver span.

        Returns (result, wall seconds less the excluded time)."""
        frame = ["driver", 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.stack.pop()
        self._close_probe_window(end)
        self.driver_self_s = end - start - frame[1]
        return result, end - start - self.excluded_s

    def exclude(self, seconds: float) -> None:
        """Take time spent outside the program off the innermost open span."""
        if self.stack:
            self.stack[-1][1] += seconds
            self.excluded_s += seconds

    # -- hooks, called after the span closes ----------------------------
    def _close_probe_window(self, at: float) -> None:
        if self.probe_window is not None:
            opened, _, excluded_s = self.probe_window
            self.probe_s += at - opened - (self.excluded_s - excluded_s)
            self.probe_window = None

    def _after_prepare_state(self, args, kwargs, state, start, duration):
        theta = args[1] if len(args) > 1 else kwargs["theta"]
        if self.probe_window is not None and not any(theta is t for t in self.probe_window[1]):
            self._close_probe_window(start)  # the next iteration's first call
        if self.count["sampler.prepare"] == 1:
            self.prepare_first_s = duration
            self.sector_size = _state_size(state)

    def _after_sample(self, args, kwargs, batch, start, duration):
        self.count["sampler.shots"] += batch.total_shots
        if self.probe_window is None:
            self.main_shots += batch.total_shots

    def _after_filter_symmetry(self, args, kwargs, dets, start, duration):
        batch, sector = args[0], args[1]
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "discard")
        self.filtered_shots += batch.total_shots
        if mode == "recover":
            is_valid = self.modules["subspace"].bitstring_is_valid
            self.repaired_shots += sum(
                c for bits, c in batch.counts.items() if not is_valid(bits, sector))

    def _after_union(self, args, kwargs, out, start, duration):
        self.new_dets += len(out) - len(args[0])

    def _after_classical_expand(self, args, kwargs, out, start, duration):
        m = args[2] if len(args) > 2 else kwargs["m"]
        self.expand_added += len(out) - len(args[0])
        self.expand_budget += m

    def _after_project(self, args, kwargs, h, start, duration):
        if self.stack[-1][0] == "subspace.cap_screen":
            self.count["subspace.cap_screen_diag_calls"] += 1
        dets = args[0]
        n_orb = (args[1] if len(args) > 1 else kwargs["s"]).n_orb
        matrix = _matrix(h)
        dim = matrix.shape[0]
        self.elements += (matrix.nnz + dim) // 2
        self.project_max_dim = max(self.project_max_dim, dim)
        if 4 * n_orb > 63:
            raise ValueError("pair keys need n_orb <= 15")
        ids = np.fromiter(((d.alpha_mask << n_orb) | d.beta_mask for d in dets),
                          dtype=np.int64, count=dim)
        coo = matrix.tocoo()
        upper = coo.row <= coo.col
        a, b = ids[coo.row[upper]], ids[coo.col[upper]]
        keys = ((np.minimum(a, b) << (2 * n_orb)) | np.maximum(a, b)).tolist()
        self.reused_elements += len(self.seen_pairs.intersection(keys))
        self.seen_pairs.update(keys)

    def _after_ground_state(self, args, kwargs, c, start, duration):
        matrix = _matrix(args[0])
        if matrix.shape[0] <= kwargs.get("dense_cutoff", self.dense_cutoff):
            self.count["eigensolver.dense_solves"] += 1
        else:
            self.count["eigensolver.davidson_solves"] += 1
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "tight")
        if mode == "tight":
            self.nnz_final = matrix.nnz

    def _after_propose(self, args, kwargs, pair, start, duration):
        self.count["optimizer.propose_calls"] += 1
        self.probe_window = (start + duration, pair, self.excluded_s)

    def _after_update(self, args, kwargs, state, start, duration):
        self.count["optimizer.update_calls"] += 1
        self._close_probe_window(start)

    # -- results ----------------------------------------------------------
    def metrics(self, run_s: float, parse_s: float, iterations: int, speed: float) -> dict:
        """Per-layer metrics of the traced run (values only).

        run_s is what ``run`` returned; times are reported multiplied by speed,
        the host-speed factor (bench/hostspeed.py), and parse_s is expected
        already scaled."""
        s, n = self.self_s, self.count
        total = sum(s[k] for k in SELF_TIME_KEYS) + self.driver_self_s + self.bookkeeping_s
        if abs(total - run_s) > 1e-6 * max(run_s, 1.0):
            raise RuntimeError(f"layer self times sum to {total} s, traced run took {run_s} s")
        s = defaultdict(float, {k: v * speed for k, v in s.items()})

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "integrals.parse_s": parse_s,
            "sampler.prepare_first_s": self.prepare_first_s * speed,
            "sampler.prepare_s": s["sampler.prepare"],
            "sampler.prepare_calls": n["sampler.prepare"],
            "sampler.mean_occ_s": s["sampler.mean_occ"],
            "sampler.sample_s": s["sampler.sample"],
            "sampler.shots": n["sampler.shots"],
            "sampler.sector_size": self.sector_size,
            "sampler.new_det_yield": ratio(self.new_dets, self.main_shots),
            "subspace.filter_s": s["subspace.filter"],
            "subspace.repaired_shot_ratio": ratio(self.repaired_shots, self.filtered_shots),
            "subspace.cap_screen_s": s["subspace.cap_screen"],
            "subspace.cap_screen_diag_calls": n["subspace.cap_screen_diag_calls"],
            "subspace.expand_s": s["subspace.expand"],
            "subspace.expand_fill_ratio": ratio(self.expand_added, self.expand_budget),
            "subspace.other_s": s["subspace.other"],
            "eigensolver.project_s": s["eigensolver.project"],
            "eigensolver.project_calls": n["eigensolver.project"],
            "eigensolver.elements": self.elements,
            "eigensolver.elements_per_s": ratio(self.elements, s["eigensolver.project"]),
            "eigensolver.project_max_dim": self.project_max_dim,
            "eigensolver.reused_element_ratio": ratio(self.reused_elements, self.elements),
            "eigensolver.solve_s": s["eigensolver.solve"],
            "eigensolver.dense_solves": n["eigensolver.dense_solves"],
            "eigensolver.davidson_solves": n["eigensolver.davidson_solves"],
            "eigensolver.nnz_final": self.nnz_final,
            "optimizer.self_s": s["optimizer.self"],
            "optimizer.probe_s": self.probe_s * speed,
            "optimizer.skipped_updates": n["optimizer.propose_calls"] - n["optimizer.update_calls"],
            "oracle.enumerate_s": s["oracle.enumerate"],
            "driver.self_s": self.driver_self_s * speed,
            "driver.iterations": iterations,
            "trace.bookkeeping_s": self.bookkeeping_s * speed,
        }
