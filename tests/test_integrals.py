"""FCIDUMP and dipole-sidecar parsing, writing, and the dense (pq|rs) table."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from hivqe.integrals import (
    DipoleIntegrals,
    FcidumpError,
    IntegralSet,
    parse_dipole_file,
    parse_fcidump,
    write_dipole_file,
    write_fcidump,
)

from helpers import FIXTURES, load_fixture, random_integral_set

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """\
&FCI NORB=2,NELEC=2,MS2=0,
  ORBSYM=1,1,
  ISYM=1,
&END
 0.5000000000000000E+00    1    1    1    1
 0.1250000000000000E+00    2    1    2    1
 0.2500000000000000E+00    2    2    1    1
 0.6250000000000000E+00    2    2    2    2
-1.2000000000000000E+00    1    1    0    0
-0.7000000000000000E+00    2    2    0    0
 0.0500000000000000E+00    2    1    0    0
 0.7100000000000000E+00    0    0    0    0
"""


def eight_images(p, q, r, s):
    return [(p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
            (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)]


def test_eri_is_one_float_over_all_eight_permutations():
    s = random_integral_set(6, 3, 3, seed=4)
    assert s.eri.dtype == np.float64
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q, r, t = (int(i) for i in rng.integers(0, 6, size=4))
        values = [s.eri[e] for e in eight_images(p, q, r, t)]
        assert len(set(values)) == 1


def test_parse_minimal_header_and_records():
    s = parse_fcidump(MINIMAL)
    assert (s.n_orb, s.n_alpha, s.n_beta) == (2, 1, 1)
    assert s.e_core == 0.71
    assert s.one_body[0, 0] == -1.2
    assert s.one_body[1, 0] == s.one_body[0, 1] == 0.05
    assert s.eri[0, 0, 0, 0] == 0.5
    # chemist-notation symmetry: (21|21) fills (12|21), (21|12), ...
    assert s.eri[0, 1, 1, 0] == 0.125
    assert s.eri[1, 1, 0, 0] == s.eri[0, 0, 1, 1] == 0.25


def test_parse_slash_terminator_and_d_exponents():
    text = (
        "&FCI NORB=1,NELEC=2,MS2=0\n"
        " /\n"
        " 1.5D+00 1 1 1 1\n"
        "-0.25D-01 1 1 0 0\n"
    )
    s = parse_fcidump(text)
    assert s.eri[0, 0, 0, 0] == 1.5
    assert s.one_body[0, 0] == -0.025


def test_parse_ignores_orbital_energy_records():
    text = MINIMAL + " 9.9000000000000000E+00    1    0    0    0\n"
    s = parse_fcidump(text)
    assert s.one_body[0, 0] == -1.2  # untouched by the i 0 0 0 record


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("MS2=0,", ""),  # missing header field
        lambda t: t.replace("NELEC=2,MS2=0", "NELEC=2,MS2=1"),  # parity clash
        lambda t: t.replace("&FCI", "&NOTFCI"),  # no namelist
        lambda t: t + " 1.0 1 1 2\n",  # four tokens
        lambda t: t + " 1.0 1 1 3 1\n",  # index beyond NORB
        lambda t: t + " 1.0 1 0 2 1\n",  # mixed zero and nonzero indices
        lambda t: t + " abc 1 1 1 1\n",  # unparseable value
        lambda t: t + " 1.0 0 1 0 0\n",  # one-body record with i = 0
    ],
)
def test_parse_rejects_malformed_input(mutation):
    with pytest.raises(FcidumpError):
        parse_fcidump(mutation(MINIMAL))


def test_roundtrip_is_bit_exact():
    for name in ("h2_0.74", "lih"):
        s = load_fixture(name)
        again = parse_fcidump(write_fcidump(s))
        assert (again.n_orb, again.n_alpha, again.n_beta) == (
            s.n_orb, s.n_alpha, s.n_beta)
        assert again.e_core == s.e_core
        assert np.array_equal(again.one_body, s.one_body)
        assert np.array_equal(again.eri, s.eri)
    # the writers reproduce every committed file byte for byte
    paths = [*FIXTURES.glob("*.fcidump"), *(ROOT / "bench" / "inputs").glob("*.fcidump")]
    assert len(paths) == 8
    for path in paths:
        text = path.read_text()
        assert write_fcidump(parse_fcidump(text)) == text, path.name
    for path in sorted(FIXTURES.glob("*.dipole")):
        text = path.read_text()
        n_orb = load_fixture(path.stem).n_orb
        assert write_dipole_file(parse_dipole_file(text, n_orb)) == text, path.name


def test_roundtrip_random_set():
    s = random_integral_set(4, 2, 2, seed=9, e_core=-3.25)
    again = parse_fcidump(write_fcidump(s))
    assert np.array_equal(again.eri, s.eri)
    assert np.array_equal(again.one_body, s.one_body)


@pytest.mark.parametrize("name", ["h4_chain", "lih"])
def test_eri_holds_each_record_at_its_eight_images_and_zero_elsewhere(name):
    text = (FIXTURES / f"{name}.fcidump").read_text()
    expected = {}
    for line in text.split("&END")[1].splitlines():
        tokens = line.split()
        if tokens and "0" not in tokens[1:]:
            p, q, r, t = (int(i) - 1 for i in tokens[1:])
            for image in eight_images(p, q, r, t):
                expected[image] = float(tokens[0])
    s = parse_fcidump(text)
    assert 0 < len(expected) < s.n_orb ** 4
    for idx in itertools.product(range(s.n_orb), repeat=4):
        assert s.eri[idx] == expected.get(idx, 0.0)
    assert not s.eri.flags.writeable


def test_integral_set_refuses_a_misshapen_eri():
    with pytest.raises(FcidumpError, match="shape"):
        IntegralSet(2, 1, 1, 0.0, np.zeros((2, 2)), np.zeros((2, 2, 2, 3)))


@pytest.mark.parametrize("call, message", [
    (lambda: IntegralSet(2, 3, 1, 0.0, np.zeros((2, 2)), np.zeros((2,) * 4)),
     r"electron counts \(3a,1b\) do not fit in 2 orbitals"),
    (lambda: parse_fcidump(MINIMAL.replace("MS2=0", "MS2=4")), "MS2=4 incompatible with NELEC=2"),
    (lambda: parse_dipole_file("# axes\nw 1 1 0.5\n", 2), "dipole line 2: unknown axis token 'w'"),
    (lambda: parse_dipole_file("x 1 1\n", 2), "dipole line 1: expected 'axis p q value'"),
    (lambda: parse_dipole_file("nuc 0.0 0.0\n", 2), "dipole line 1: expected 'nuc dx dy dz'"),
], ids=["electron_counts", "ms2", "dipole_axis", "dipole_tokens", "dipole_nuclear_tokens"])
def test_refusals_name_what_is_wrong(call, message):
    with pytest.raises(FcidumpError, match=f"^{message}$"):
        call()


def test_integral_and_dipole_sets_compare_and_stay_read_only():
    first, second = load_fixture("h2_0.74"), load_fixture("h2_0.74")
    assert first == first and first != second  # by identity, without raising
    text = (FIXTURES / "h2_0.74.dipole").read_text()
    d1, d2 = parse_dipole_file(text, 2), parse_dipole_file(text, 2)
    assert d1 == d1 and d1 != d2
    for array in (first.one_body, first.eri, d1.x, d1.y, d1.z, d1.nuclear):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_make_fixtures_reproduces_the_committed_files():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    ang = fixtures.BOHR_PER_ANGSTROM
    for name, atoms, nelec in (
            ("h2_0.74", [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 0.74 * ang))], 2),
            ("lih", [("Li", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.5949 * ang))], 4)):
        ints, dipole, _ = fixtures.make_integral_set(atoms, nelec)
        assert write_fcidump(ints) == (FIXTURES / f"{name}.fcidump").read_text(), name
        assert write_dipole_file(dipole) == (FIXTURES / f"{name}.dipole").read_text(), name


def test_dipole_roundtrip_and_comments():
    rng = np.random.default_rng(2)
    mats = []
    for _ in range(3):
        m = rng.normal(size=(3, 3))
        mats.append((m + m.T) / 2)
    d = DipoleIntegrals(x=mats[0], y=mats[1], z=mats[2],
                        nuclear=np.array([0.25, -1.5, 3.0]))
    text = "# generated by a test\n" + write_dipole_file(d)
    again = parse_dipole_file(text, 3)
    for axis in "xyz":
        assert np.allclose(again.component(axis), d.component(axis),
                           rtol=0, atol=1e-15)
    assert np.array_equal(again.nuclear, d.nuclear)


def test_dipole_rejects_out_of_range_orbital():
    text = "z 4 1  1.0E+00\nnuc 0.0 0.0 0.0\n"
    with pytest.raises(ValueError):
        parse_dipole_file(text, 3)


@pytest.mark.parametrize("line", ["x 1 a 0.5", "x 1 1 zz", "nuc 1 2 x"])
def test_dipole_names_the_line_of_a_malformed_number(line):
    with pytest.raises(FcidumpError, match="dipole line 2: "):
        parse_dipole_file(f"# a comment\n{line}\n", 3)
