"""Command-line entry point: run, fci, sweep and report subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .determinants import det_to_string
from .driver import CONFIG_TYPES, IterationRecord, RunConfig, run_hivqe
from .integrals import parse_dipole_file, parse_fcidump
from .oracle import ORACLE_SECTOR_LIMIT, fci_ground
from .sampler import sector_size

ERROR_FLOOR = 1e-16  # log-scale display floor for exact-method errors


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hivqe",
        description="Selected CI driven by a simulated symmetry-sector sampler",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = argparse.ArgumentParser(add_help=False)  # run's and sweep's
    options.add_argument("--config", help="flat JSON file with run options")
    options.add_argument("--out", default=".", help="output directory")
    options.add_argument("--seed", type=int, help="master seed override")
    options.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE", help="config override (repeatable)")

    run = sub.add_parser("run", parents=[options], help="run the full iteration loop")
    run.add_argument("--fcidump", required=True, help="FCIDUMP integral file")
    run.add_argument("--dipole", help="dipole-integral sidecar file")

    fci = sub.add_parser("fci", help="exact full-sector diagonalization")
    fci.add_argument("--fcidump", required=True)
    fci.add_argument("--count-only", action="store_true",
                     help="print the sector size without solving")

    sweep = sub.add_parser("sweep", parents=[options],
                           help="run one geometry per manifest line")
    sweep.add_argument("--manifest", required=True,
                       help="text file: label fcidump_path [reference_energy]")

    report = sub.add_parser("report", help="aggregate result.json files")
    report.add_argument("results", nargs="+", help="result.json paths")
    report.add_argument("--ref", type=float, default=None,
                        help="reference energy for the error column")
    report.add_argument("--out", default=".", help="output directory")
    return parser


def _coerce(field_name: str, raw: str):
    kind = CONFIG_TYPES.get(field_name)
    if kind is None:
        raise ValueError(f"unknown config key {field_name!r}")
    if kind is bool:
        words = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
        if raw.lower() not in words:
            raise ValueError(f"{field_name} expects a boolean, got {raw!r}")
        return words[raw.lower()]
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{field_name} expects {kind.__name__}, got {raw!r}") from None


def _load_config(args):
    """Defaults < config file < --seed < --set, in that order."""
    data = {}
    if getattr(args, "config", None):
        data.update(_read_json(args.config, "config file"))
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    for item in getattr(args, "overrides", []):
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        data[key] = _coerce(key, raw)
    return RunConfig.from_dict(data)


def _read(path, what: str) -> str:
    """The text of the file at path; what names it when the file is missing."""
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    return Path(path).read_text()


def _read_json(path, what: str, keys=()) -> dict:
    """The JSON object in the file at path, which must hold keys; errors name the file."""
    try:
        doc = json.loads(_read(path, what))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} {path} has no {key!r}")
    return doc


def _typed(path, doc: dict, key: str, kinds: tuple, default=None):
    """doc[key], default when absent, if its JSON type is one of kinds: a
    float is any finite number, an int is no boolean; errors name the file."""
    value = doc.get(key, default)
    kind = float if type(value) is int and float in kinds else type(value)
    if kind not in kinds or kind is float and not math.isfinite(value):
        names = {dict: "an object", int: "an integer", float: "a finite number", type(None): "null"}
        raise ValueError(f"result file {path} needs {' or '.join(names[k] for k in kinds)} "
                         f"as {key!r}, got {value!r}")
    return value


def _read_integrals(path):
    return parse_fcidump(_read(path, "FCIDUMP file"))


def _fmt(value: float) -> str:
    return "nan" if not math.isfinite(value) else f"{value:.8f}"


def _csv_field(value) -> str:
    """A CSV energy field: repr of the float, empty when there is none."""
    return "" if value is None else repr(value)


def _write_run_outputs(result, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = json.dumps(result.result_dict(), indent=2, sort_keys=True) + "\n"
    (out_dir / "result.json").write_text(doc)

    lines = [",".join(f.name for f in dataclasses.fields(IterationRecord))]
    for r in result.trace:
        values = dataclasses.astuple(r)
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values))
    (out_dir / "trace.csv").write_text("\n".join(lines) + "\n")

    n = result.sector.n_orb  # one "alpha|beta" line per determinant
    (out_dir / "subspace.txt").write_text("".join(det_to_string(d, n) + "\n" for d in result.dets))


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    integrals = _read_integrals(args.fcidump)
    dipole = None
    if args.dipole:
        dipole = parse_dipole_file(_read(args.dipole, "dipole file"), integrals.n_orb)

    result = run_hivqe(cfg, integrals, dipole)
    _write_run_outputs(result, Path(args.out))
    if result.energy is None:
        print(f"status {result.status} after {result.iterations} iterations")
    else:
        print(
            f"status {result.status}  energy {_fmt(result.energy)} Ha  "
            f"e_corr {_fmt(result.e_corr)} Ha  n_dets {result.n_dets}  "
            f"iterations {result.iterations}"
        )
    return 0 if result.converged else 2


def _cmd_fci(args) -> int:
    integrals = _read_integrals(args.fcidump)
    size = sector_size(integrals.n_orb, integrals.n_alpha, integrals.n_beta)
    if args.count_only:
        print(json.dumps({"sector_size": size}))
        return 0
    if size > ORACLE_SECTOR_LIMIT:
        print(f"sector of {size} determinants exceeds the solver limit "
              f"{ORACLE_SECTOR_LIMIT}; use --count-only", file=sys.stderr)
        return 1
    res = fci_ground(integrals)
    print(json.dumps({"sector_size": size, "energy": res.energy}))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    text = _read(args.manifest, "manifest")
    entries = {}  # label -> (integrals, reference energy or None)
    base = Path(args.manifest).parent
    for number, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) not in (2, 3):
            raise ValueError(f"manifest line {number} needs 'label path [e_ref]': {line!r}")
        label, rel = tokens[0], tokens[1]
        if label in entries:
            raise ValueError(f"manifest line {number} repeats the label {label!r}")
        try:
            e_ref = float(tokens[2]) if len(tokens) == 3 else None
        except ValueError:
            e_ref = math.nan
        if e_ref is not None and not math.isfinite(e_ref):
            raise ValueError(f"manifest line {number}: e_ref {tokens[2]!r} is not a finite number")
        path = Path(rel)
        if not path.is_absolute():
            path = base / rel
        entries[label] = (_read_integrals(path), e_ref)
    if not entries:
        print("manifest lists no geometries", file=sys.stderr)
        return 1
    sectors = {label: (s.n_orb, s.n_alpha, s.n_beta) for label, (s, _) in entries.items()}
    if len(set(sectors.values())) > 1:
        raise ValueError(f"geometries span different sectors: {sectors}")

    lines = ["label,E_hf,E_hivqe,E_ref,abs_error"]
    for label, (integrals, e_ref) in entries.items():
        result = run_hivqe(cfg, integrals)
        error = None if e_ref is None or result.energy is None else abs(result.energy - e_ref)
        lines.append(",".join([label] + [
            _csv_field(v) for v in (result.e_hf, result.energy, e_ref, error)]))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "pes.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out_dir / 'pes.csv'} with {len(entries)} points")
    return 0


def _cmd_report(args) -> int:
    rows = []
    for path in args.results:
        p = Path(path)
        doc = _read_json(path, "result file", ("n_dets", "energy"))
        sector, config = (_typed(path, doc, key, (dict,), {}) for key in ("sector", "config"))
        n_orb = _typed(path, sector, "n_orb", (int, type(None)))
        energy = _typed(path, doc, "energy", (float, type(None)))
        rows.append({"label": p.stem if p.stem != "result" else p.parent.name,
                     "n_qubits": None if n_orb is None else 2 * n_orb,
                     "m": _typed(path, config, "m", (int, type(None))),
                     "n_dets": _typed(path, doc, "n_dets", (int,)),
                     "energy": energy,
                     "abs_error": None if args.ref is None or energy is None
                     else abs(energy - args.ref)})
    rows.sort(key=lambda r: (r["n_qubits"] or 0, r["m"] or 0, r["label"]))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["label,n_qubits,m,n_dets,energy,abs_error"] + [
        f"{r['label']},{r['n_qubits']},{r['m']},{r['n_dets']},"
        f"{_csv_field(r['energy'])},{_csv_field(r['abs_error'])}" for r in rows]
    (out_dir / "report.csv").write_text("\n".join(lines) + "\n")

    # gnuplot data: errors floored so exact hits stay plottable on a log axis
    dat = ["# m n_dets energy abs_error"]
    for r in rows:
        if r["energy"] is not None:
            shown = "" if r["abs_error"] is None else repr(max(r["abs_error"], ERROR_FLOOR))
            dat.append(f"{r['m']} {r['n_dets']} {r['energy']!r} {shown}")
    (out_dir / "report.dat").write_text("\n".join(dat) + "\n")
    print(f"wrote {out_dir / 'report.csv'} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "fci": _cmd_fci,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # parse/solver/file failures all exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
