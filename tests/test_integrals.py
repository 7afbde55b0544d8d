"""FCIDUMP and dipole-sidecar parsing, writing, and key canonicalization."""

import itertools

import numpy as np
import pytest

from hivqe.integrals import (
    DipoleIntegrals,
    FcidumpError,
    canonical_eri_key,
    get_eri,
    parse_dipole_file,
    parse_fcidump,
    write_dipole_file,
    write_fcidump,
)

from helpers import load_fixture, random_integral_set

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


def test_canonical_key_covers_all_eight_permutations():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q, r, s = rng.integers(0, 6, size=4)
        key = canonical_eri_key(p, q, r, s)
        equivalents = [
            (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
            (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
        ]
        assert {canonical_eri_key(*e) for e in equivalents} == {key}


def test_parse_minimal_header_and_records():
    s = parse_fcidump(MINIMAL)
    assert (s.n_orb, s.n_alpha, s.n_beta) == (2, 1, 1)
    assert s.e_core == 0.71
    assert s.one_body[0, 0] == -1.2
    assert s.one_body[1, 0] == s.one_body[0, 1] == 0.05
    assert get_eri(s, 0, 0, 0, 0) == 0.5
    # chemist-notation symmetry: (21|21) fills (12|21), (21|12), ...
    assert get_eri(s, 0, 1, 1, 0) == 0.125
    assert get_eri(s, 1, 1, 0, 0) == get_eri(s, 0, 0, 1, 1) == 0.25


def test_parse_slash_terminator_and_d_exponents():
    text = (
        "&FCI NORB=1,NELEC=2,MS2=0\n"
        " /\n"
        " 1.5D+00 1 1 1 1\n"
        "-0.25D-01 1 1 0 0\n"
    )
    s = parse_fcidump(text)
    assert get_eri(s, 0, 0, 0, 0) == 1.5
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
        assert again.two_body == s.two_body


def test_roundtrip_random_set():
    s = random_integral_set(4, 2, 2, seed=9, e_core=-3.25)
    again = parse_fcidump(write_fcidump(s))
    assert again.two_body == s.two_body
    assert np.array_equal(again.one_body, s.one_body)


def test_dense_eri_matches_get_eri_at_every_index():
    s = random_integral_set(4, 2, 1, seed=12)
    for idx in itertools.product(range(s.n_orb), repeat=4):
        assert s.eri[idx] == get_eri(s, *idx)


def test_get_eri_checks_range():
    s = parse_fcidump(MINIMAL)
    with pytest.raises(IndexError):
        get_eri(s, 0, 0, 0, 2)
    with pytest.raises(IndexError):
        get_eri(s, -1, 0, 0, 0)


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
