"""Command-line interface: subcommands, outputs on disk, and exit codes.

Every test but one drives main() in process so coverage tooling and
debuggers see straight through the CLI layer. The exception runs
``python -m hivqe.cli`` in subprocesses, because a BLAS thread count is
read when numpy loads.
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hivqe
from hivqe.cli import main
from hivqe.driver import IterationRecord, RunConfig, run_hivqe

from helpers import FIXTURES, det_from_string, load_fixture, load_reference

H2 = str(FIXTURES / "h2_0.74.fcidump")
H8 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "h8.fcidump"  # read only
LIH = str(FIXTURES / "lih.fcidump")

RESULT_KEYS = {
    "energy", "e_corr", "e_hf", "n_dets", "converged", "iterations",
    "dipole", "config", "seed", "sector",
}

TRACE_HEADER = ",".join(f.name for f in dataclasses.fields(IterationRecord))


def run_result(out_dir):
    return json.loads((out_dir / "result.json").read_text())


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_the_three_output_files(tmp_path, capsys):
    rc = main(["run", "--fcidump", H2, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status converged" in out and "Ha" in out

    doc = run_result(tmp_path)
    assert set(doc) == RESULT_KEYS
    assert doc["converged"] is True
    assert doc["sector"] == {"n_orb": 2, "n_alpha": 1, "n_beta": 1}
    assert doc["energy"] == pytest.approx(
        load_reference()["h2_0.74"]["e_fci"], abs=1e-8)
    assert doc["e_corr"] == pytest.approx(doc["energy"] - doc["e_hf"], abs=1e-12)

    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert len(trace) == 1 + doc["iterations"]

    dets = [
        det_from_string(line)
        for line in (tmp_path / "subspace.txt").read_text().splitlines()
        if line.strip()
    ]
    assert len(dets) == doc["n_dets"]


def test_run_writes_the_result_determinants_in_order(tmp_path):
    """subspace.txt holds RunResult.dets, one "alpha|beta" line each."""
    rc = main(["run", "--fcidump", LIH, "--seed", "3", "--set", "k=40",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "subspace.txt").read_text()
    result = run_hivqe(RunConfig(seed=3, k=40), load_fixture("lih"))
    assert text.endswith("\n") and "|" in text.splitlines()[0]
    assert [det_from_string(line) for line in text.splitlines()] == result.dets


def test_run_override_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 1, "k": 3, "max_iterations": 6}))

    main(["run", "--fcidump", H2, "--config", str(cfg_file),
          "--out", str(tmp_path / "a")])
    assert run_result(tmp_path / "a")["seed"] == 1

    main(["run", "--fcidump", H2, "--config", str(cfg_file),
          "--seed", "2", "--out", str(tmp_path / "b")])
    assert run_result(tmp_path / "b")["seed"] == 2

    main(["run", "--fcidump", H2, "--config", str(cfg_file), "--seed", "2",
          "--set", "seed=3", "--set", "p_flip=0.05",
          "--set", "tensor_reconstruct=true", "--set", "recovery_mode=recover",
          "--out", str(tmp_path / "c")])
    doc = run_result(tmp_path / "c")
    assert doc["seed"] == 3
    assert doc["config"]["p_flip"] == 0.05
    assert doc["config"]["tensor_reconstruct"] is True
    assert doc["config"]["k"] == 3  # file value survives under other overrides


# convergence settings the loop fixes; --set refuses them as unknown keys
REMOVED_KEYS = {"window": 3, "convergence_source": "cumulative", "stall_window": 10}


@pytest.mark.parametrize("override", ["shotz=10", "p_flip", "shots=lots", "threshold=nan",
                                      "k=abc", "k=1e3",
                                      *(f"{key}={value}" for key, value in REMOVED_KEYS.items())])
def test_run_rejects_bad_overrides(tmp_path, capsys, override):
    rc = main(["run", "--fcidump", H2, "--set", override,
               "--out", str(tmp_path)])
    assert rc == 1
    key = override.split("=")[0]
    assert re.match(rf"error: .*\b{key}\b", capsys.readouterr().err)  # names the key


@pytest.mark.parametrize("key,value", [
    ("tensor_reconstruct", "false"),  # a truthy string once switched it on
    ("k", 10.5),
    ("shots", 100.0),
    ("k", "1000"),
])
def test_run_refuses_config_values_of_the_wrong_type(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    rc = main(["run", "--fcidump", LIH, "--config", str(cfg_file),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err and "expects" in err
    assert not (tmp_path / "out").exists()  # refused before the run started


@pytest.mark.parametrize("argv, message", [
    (["run", "--fcidump", H2, "--set", "tensor_reconstruct=maybe"],
     "tensor_reconstruct expects a boolean, got 'maybe'"),
    (["run", "--fcidump", H2, "--config", "LIST"], "config file {LIST} must hold a JSON object"),
    (["run", "--fcidump", H2, "--config", "NOT_JSON"],
     "config file {NOT_JSON} is not JSON: Expecting value: line 1 column 1 (char 0)"),
    (["report", "NO_N_DETS"], "result file {NO_N_DETS} has no 'n_dets'"),
    (["report", "LIST"], "result file {LIST} must hold a JSON object"),
    (["report", "SECTOR_LIST"], "result file {SECTOR_LIST} needs an object as 'sector', "
     "got [4, 2, 2]"),
    (["report", "CONFIG_LIST"], "result file {CONFIG_LIST} needs an object as 'config', got []"),
    (["report", "M_TEXT"], "result file {M_TEXT} needs an integer or null as 'm', got 'x'"),
    (["report", "N_ORB_FLOAT"],
     "result file {N_ORB_FLOAT} needs an integer or null as 'n_orb', got 4.0"),
    (["report", "N_DETS_BOOL"], "result file {N_DETS_BOOL} needs an integer as 'n_dets', got True"),
    (["report", "ENERGY_TEXT"],
     "result file {ENERGY_TEXT} needs a finite number or null as 'energy', got 'low'"),
    (["report", "ENERGY_NAN"],
     "result file {ENERGY_NAN} needs a finite number or null as 'energy', got nan"),
    (["sweep", "--manifest", "MANIFEST"],
     f"manifest line 1 needs 'label path [e_ref]': 'a {H2} -1.1 extra'"),
    (["sweep", "--manifest", "E_REF_TEXT"],
     "manifest line 2: e_ref 'abc' is not a finite number"),
    (["sweep", "--manifest", "E_REF_NAN"],
     "manifest line 2: e_ref 'nan' is not a finite number"),
    (["sweep", "--manifest", "E_REF_INF"],
     "manifest line 3: e_ref '-inf' is not a finite number"),
], ids=["boolean", "config_list", "config_not_json", "result_without_n_dets", "result_list",
        "result_sector_list", "result_config_list", "result_m_text", "result_n_orb_float",
        "result_n_dets_bool", "result_energy_text", "result_energy_nan", "manifest_tokens",
        "manifest_e_ref_text", "manifest_e_ref_nan", "manifest_e_ref_inf"])
def test_refusals_name_what_is_wrong(tmp_path, capsys, argv, message):
    results = {
        "SECTOR_LIST": '"sector": [4, 2, 2]', "CONFIG_LIST": '"config": []',
        "M_TEXT": '"config": {"m": "x"}', "N_ORB_FLOAT": '"sector": {"n_orb": 4.0}',
        "N_DETS_BOOL": '"n_dets": true', "ENERGY_TEXT": '"energy": "low"',
        "ENERGY_NAN": '"energy": NaN',
    }
    files = {"LIST": tmp_path / "list.json", "NOT_JSON": tmp_path / "bad.json",
             "NO_N_DETS": tmp_path / "energy.json", "MANIFEST": tmp_path / "curve.txt",
             "E_REF_TEXT": tmp_path / "e_ref.txt", "E_REF_NAN": tmp_path / "e_ref_nan.txt",
             "E_REF_INF": tmp_path / "e_ref_inf.txt"}
    files["LIST"].write_text("[1, 2]")
    files["NOT_JSON"].write_text("k = 10\n")
    files["NO_N_DETS"].write_text('{"energy": -1.0}')
    files["MANIFEST"].write_text(f"a {H2} -1.1 extra\n")
    files["E_REF_TEXT"].write_text(f"# label path e_ref\na {H2} abc\n")
    files["E_REF_NAN"].write_text(f"# label path e_ref\na {H2} nan\n")
    files["E_REF_INF"].write_text(f"a {H2} -1.1\n\nb {H2} -inf\n")
    for name, field in results.items():  # a valid result file with one field replaced
        files[name] = tmp_path / f"{name.lower()}.json"
        files[name].write_text(f'{{"n_dets": 1, "energy": -1.0, {field}}}')
    argv = [str(files.get(a, a)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**files)}\n"
    assert not (tmp_path / "out").exists()


def test_run_accepts_an_int_for_a_float_key_unconverted(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"p_flip": 0, "threshold": 1e-6, "max_iterations": 1}))
    rc = main(["run", "--fcidump", H2, "--config", str(cfg_file), "--out", str(tmp_path)])
    assert rc in (0, 2)
    assert '"p_flip": 0,' in (tmp_path / "result.json").read_text()


@pytest.mark.parametrize("argv, what", [
    (["run", "--fcidump", "MISSING"], "FCIDUMP file"),
    (["run", "--fcidump", H2, "--dipole", "MISSING"], "dipole file"),
    (["run", "--fcidump", H2, "--config", "MISSING"], "config file"),
    (["sweep", "--manifest", "MISSING"], "manifest"),
    (["report", "MISSING"], "result file"),
], ids=["fcidump", "dipole", "config", "manifest", "result"])
def test_missing_input_file_exits_one(tmp_path, capsys, argv, what):
    missing = str(tmp_path / "nope")
    rc = main([missing if a == "MISSING" else a for a in argv] + ["--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {what} not found: {missing}\n"


def test_run_with_dipole_sidecar(tmp_path):
    rc = main(["run", "--fcidump", H2,
               "--dipole", str(FIXTURES / "h2_0.74.dipole"),
               "--out", str(tmp_path)])
    assert rc == 0
    dipole = run_result(tmp_path)["dipole"]
    assert isinstance(dipole, list) and len(dipole) == 3
    assert max(abs(v) for v in dipole) < 1e-6  # homonuclear


def test_run_not_converged_exits_two(tmp_path, capsys):
    rc = main(["run", "--fcidump", LIH, "--set", "max_iterations=1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "status max_iterations" in capsys.readouterr().out
    doc = run_result(tmp_path)
    assert doc["converged"] is False and doc["iterations"] == 1


def test_run_zero_iterations_reports_hf_only(tmp_path, capsys):
    rc = main(["run", "--fcidump", H2, "--set", "max_iterations=0",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "after 0 iterations" in capsys.readouterr().out
    doc = run_result(tmp_path)
    assert doc["energy"] is None and doc["e_corr"] is None
    assert doc["e_hf"] == pytest.approx(
        load_reference()["h2_0.74"]["e_hf"], abs=1e-9)
    assert (tmp_path / "trace.csv").read_text().splitlines() == [TRACE_HEADER]
    assert (tmp_path / "subspace.txt").read_text() == ""


def test_run_results_are_byte_identical_across_repeats(tmp_path):
    argv = ["run", "--fcidump", LIH, "--seed", "7",
            "--set", "p_flip=0.02", "--set", "recovery_mode=recover",
            "--set", "max_iterations=8"]
    main(argv + ["--out", str(tmp_path / "a")])
    main(argv + ["--out", str(tmp_path / "b")])
    bytes_a = (tmp_path / "a" / "result.json").read_bytes()
    assert bytes_a == (tmp_path / "b" / "result.json").read_bytes()

    # trace rows match column-for-column once wall times are masked out
    def masked(p):
        rows = (p / "trace.csv").read_text().splitlines()
        return [
            [v for i, v in enumerate(r.split(",")) if i not in (7, 8)]
            for r in rows
        ]

    assert masked(tmp_path / "a") == masked(tmp_path / "b")


def test_run_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """README's Determinism claim at one and two BLAS threads, on H8 blocks
    large enough (over DENSE_CUTOFF rows) for the Davidson path."""
    src = str(Path(hivqe.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "hivqe.cli", "run", "--fcidump", str(H8),
             "--set", "k=1000", "--set", "m=100", "--set", "max_iterations=20",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode in (0, 2), done.stderr
        assert json.loads((out / "result.json").read_text())["n_dets"] > 200
        outputs.append([(out / name).read_bytes() for name in ("result.json", "subspace.txt")])
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# fci
# ---------------------------------------------------------------------------

def test_fci_solves_small_sector(capsys):
    rc = main(["fci", "--fcidump", H2])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sector_size"] == 4
    assert doc["energy"] == pytest.approx(
        load_reference()["h2_0.74"]["e_fci"], abs=1e-9)


def big_sector_fcidump(tmp_path, n_orb=20, n_elec=14):
    path = tmp_path / "big.fcidump"
    path.write_text(
        f"&FCI NORB={n_orb},NELEC={n_elec},MS2=0,\n"
        "  ORBSYM=" + "1," * n_orb + "\n"
        "  ISYM=1,\n"
        "&END\n"
        "0.0 0 0 0 0\n"
    )
    return str(path)


def test_run_refuses_a_spin_channel_beyond_the_string_tables(tmp_path, capsys):
    rc = main(["run", "--fcidump", big_sector_fcidump(tmp_path, 40, 40),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{math.comb(40, 20)} spin strings in one channel exceed" in err


def test_run_and_fci_refuse_more_than_64_orbitals_with_one_message(tmp_path, capsys):
    fcidump = big_sector_fcidump(tmp_path, 65, 2)
    errors = []
    for argv in (["run", "--fcidump", fcidump, "--out", str(tmp_path / "out")],
                 ["fci", "--fcidump", fcidump]):
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["error: spin strings are packed into 64 bits; n_orb=65 does not fit\n"] * 2


def test_fci_count_only_handles_huge_sectors(tmp_path, capsys):
    rc = main(["fci", "--fcidump", big_sector_fcidump(tmp_path), "--count-only"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"sector_size": 6009350400}


def test_fci_refuses_huge_sector_without_count_only(tmp_path, capsys):
    rc = main(["fci", "--fcidump", big_sector_fcidump(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--count-only" in err and "--limit" not in err


def test_fci_has_no_limit_flag():
    with pytest.raises(SystemExit) as exc:
        main(["fci", "--fcidump", H2, "--limit", "10"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_writes_pes_csv(tmp_path, capsys):
    ref = load_reference()
    manifest = tmp_path / "curve.txt"
    manifest.write_text(
        "# two points along the H2 dissociation curve\n"
        f"r0.74 {FIXTURES / 'h2_0.74.fcidump'} {ref['h2_0.74']['e_fci']!r}\n"
        f"r1.50 {FIXTURES / 'h2_1.50.fcidump'}\n"
    )
    rc = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)])
    assert rc == 0

    lines = (tmp_path / "pes.csv").read_text().splitlines()
    assert lines[0] == "label,E_hf,E_hivqe,E_ref,abs_error"
    first = lines[1].split(",")
    assert first[0] == "r0.74"
    assert abs(float(first[4])) < 1e-8
    assert float(first[1]) == pytest.approx(ref["h2_0.74"]["e_hf"], abs=1e-9)
    second = lines[2].split(",")
    assert second[0] == "r1.50" and second[3] == "" and second[4] == ""
    assert float(second[2]) == pytest.approx(ref["h2_1.50"]["e_fci"], abs=1e-8)
    assert float(second[1]) == pytest.approx(ref["h2_1.50"]["e_hf"], abs=1e-9)


def test_sweep_computes_errors_per_label(tmp_path):
    ref = load_reference()
    labels = ["h2_0.74", "h2_1.50"]
    manifest = tmp_path / "curve.txt"
    manifest.write_text("".join(
        f"{name} {FIXTURES / (name + '.fcidump')} {ref[name]['e_fci']!r}\n" for name in labels))
    rc = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)])
    assert rc == 0
    rows = [line.split(",") for line in (tmp_path / "pes.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == labels
    for label, e_hf, e_hivqe, e_ref, abs_error in rows:
        assert float(e_ref) == ref[label]["e_fci"]
        assert float(abs_error) == abs(float(e_hivqe) - float(e_ref)) < 1e-6
        assert float(e_hf) == pytest.approx(ref[label]["e_hf"], abs=1e-9)


def test_sweep_without_an_energy_leaves_its_fields_empty(tmp_path):
    ref = load_reference()
    manifest = tmp_path / "curve.txt"
    manifest.write_text(
        f"r0.74 {FIXTURES / 'h2_0.74.fcidump'} {ref['h2_0.74']['e_fci']!r}\n"
        f"r1.50 {FIXTURES / 'h2_1.50.fcidump'}\n"
    )
    rc = main(["sweep", "--manifest", str(manifest), "--set", "max_iterations=0",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "pes.csv").read_text().splitlines()
    first, second = lines[1].split(","), lines[2].split(",")
    assert first[0] == "r0.74" and first[2] == "" and first[4] == ""
    assert float(first[3]) == ref["h2_0.74"]["e_fci"]
    assert second[0] == "r1.50" and second[2:] == ["", "", ""]
    assert float(second[1]) == pytest.approx(ref["h2_1.50"]["e_hf"], abs=1e-9)


def test_sweep_resolves_paths_relative_to_manifest(tmp_path):
    # the manifest sits in tests/, so a relative entry must resolve from there
    manifest = FIXTURES.parent / "manifest_for_test.txt"
    manifest.write_text("eq fixtures/h2_0.74.fcidump\n")
    try:
        rc = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)])
        assert rc == 0
        row = (tmp_path / "pes.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "eq" and row[2] != "" and row[3:] == ["", ""]
    finally:
        manifest.unlink()


def test_sweep_refuses_a_repeated_label(tmp_path, capsys):
    """Two geometries under one label would both run the last file listed."""
    manifest = tmp_path / "curve.txt"
    manifest.write_text(
        "# one label, two geometries\n"
        f"a {FIXTURES / 'h2_0.74.fcidump'} -1.137\n"
        f"a {FIXTURES / 'h2_1.50.fcidump'} -0.99\n"
    )
    rc = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)])
    assert rc == 1
    assert "manifest line 3 repeats the label 'a'" in capsys.readouterr().err
    assert not (tmp_path / "pes.csv").exists()


def test_sweep_refuses_mixed_sectors(tmp_path, capsys):
    manifest = tmp_path / "curve.txt"
    manifest.write_text(
        f"h2 {FIXTURES / 'h2_0.74.fcidump'}\n"
        f"h4 {FIXTURES / 'h4_chain.fcidump'}\n"
    )
    rc = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: geometries span different sectors")
    assert "'h2': (2, 1, 1)" in err and "'h4': (4, 2, 2)" in err
    assert not (tmp_path / "pes.csv").exists()


def test_sweep_empty_manifest_exits_one(tmp_path, capsys):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("# nothing here\n\n")
    rc = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)])
    assert rc == 1
    assert "no geometries" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_aggregates_and_sorts_by_m(tmp_path, capsys):
    for m in (8, 2):
        main(["run", "--fcidump", LIH, "--set", f"m={m}",
              "--set", "k=40", "--set", "max_iterations=4",
              "--out", str(tmp_path / f"m{m}")])
    e_ref = load_reference()["lih"]["e_fci"]
    rc = main([
        "report",
        str(tmp_path / "m8" / "result.json"),
        str(tmp_path / "m2" / "result.json"),
        "--ref", repr(e_ref), "--out", str(tmp_path),
    ])
    assert rc == 0

    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "label,n_qubits,m,n_dets,energy,abs_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["m2", "m8"]  # sorted by m, labeled by dir
    assert all(r[1] == "12" for r in rows)
    errors = [float(r[5]) for r in rows]
    assert errors[0] > errors[1]  # larger m explores more couplings

    dat = (tmp_path / "report.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    floored = [float(line.split()[3]) for line in dat[1:]]
    assert all(v >= 1e-16 for v in floored)


def test_report_floors_exact_errors_for_log_plots(tmp_path):
    main(["run", "--fcidump", H2, "--out", str(tmp_path / "exact")])
    doc = run_result(tmp_path / "exact")
    rc = main(["report", str(tmp_path / "exact" / "result.json"),
               "--ref", repr(doc["energy"]), "--out", str(tmp_path)])
    assert rc == 0
    csv_err = (tmp_path / "report.csv").read_text().splitlines()[1].split(",")[5]
    assert float(csv_err) == 0.0  # raw value untouched
    dat_err = (tmp_path / "report.dat").read_text().splitlines()[1].split()[3]
    assert float(dat_err) == 1e-16


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["polish"])
    assert exc.value.code == 2


def test_run_requires_fcidump():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
