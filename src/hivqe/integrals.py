"""FCIDUMP ingestion and symmetric molecular-integral lookup.

One- and two-electron integrals are stored over spatial orbitals as dense
read-only arrays. Two-body values use chemist notation (pq|rs) and live in one
(n_orb,)*4 array with all eight symmetry images of each record filled, so a
query through any equivalent index order returns the identical stored float,
and Hamiltonian assembly reads the same array.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegralSet",
    "DipoleIntegrals",
    "FcidumpError",
    "parse_fcidump",
    "write_fcidump",
    "parse_dipole_file",
    "write_dipole_file",
]


class FcidumpError(ValueError):
    """Raised for malformed FCIDUMP or dipole-sidecar content."""


def _set_eri(eri: np.ndarray, p: int, q: int, r: int, s: int, v: float) -> None:
    """Write v to all eight images of (pq|rs).

    Real-orbital two-electron integrals satisfy
    (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq).
    """
    eri[p, q, r, s] = eri[q, p, r, s] = eri[p, q, s, r] = eri[q, p, s, r] = v
    eri[r, s, p, q] = eri[s, r, p, q] = eri[r, s, q, p] = eri[s, r, q, p] = v


@dataclass(frozen=True, eq=False)
class IntegralSet:
    """Molecular Hamiltonian data for a fixed orbital space.

    Attributes
    ----------
    n_orb : int
        Number of spatial orbitals.
    n_alpha, n_beta : int
        Electron count per spin channel.
    e_core : float
        Scalar energy offset (nuclear repulsion plus any frozen core), Hartree.
    one_body : numpy.ndarray
        Read-only symmetric (n_orb, n_orb) table of h_pq, Hartree.
    eri : numpy.ndarray
        Read-only (n_orb,)*4 table of (pq|rs), Hartree, with every symmetry
        image filled: 8*n_orb**4 bytes, 134 MB at 64 orbitals.

    Sets compare by identity, as their fields are arrays.
    """

    n_orb: int
    n_alpha: int
    n_beta: int
    e_core: float
    one_body: np.ndarray
    eri: np.ndarray

    def __post_init__(self):
        if not (0 <= self.n_alpha <= self.n_orb and 0 <= self.n_beta <= self.n_orb):
            raise FcidumpError(
                f"electron counts ({self.n_alpha}a,{self.n_beta}b) do not fit "
                f"in {self.n_orb} orbitals"
            )
        if self.eri.shape != (self.n_orb,) * 4:
            raise FcidumpError(f"eri has shape {self.eri.shape}, expected ({self.n_orb},)*4")
        self.one_body.flags.writeable = False
        self.eri.flags.writeable = False

    @classmethod
    def from_terms(cls, n_orb, n_alpha, n_beta, e_core, one_body_terms, two_body_terms):
        """Build a set from sparse {(p,q): h} and {(p,q,r,s): v} maps.

        Index tuples may arrive in any symmetry-equivalent order; every
        symmetry image is filled here. Convenient for synthetic fixtures.
        """
        h = np.zeros((n_orb, n_orb))
        for (p, q), v in one_body_terms.items():
            h[p, q] = v
            h[q, p] = v
        eri = np.zeros((n_orb,) * 4)
        for key, v in two_body_terms.items():
            _set_eri(eri, *key, v)
        return cls(n_orb, n_alpha, n_beta, e_core, h, eri)


_HEADER_INT = {
    "NORB": re.compile(r"NORB\s*=\s*(\d+)", re.I),
    "NELEC": re.compile(r"NELEC\s*=\s*(\d+)", re.I),
    "MS2": re.compile(r"MS2\s*=\s*(-?\d+)", re.I),
}


def parse_fcidump(text: str) -> IntegralSet:
    """Parse FCIDUMP text into an :class:`IntegralSet`.

    The namelist header must define NORB, NELEC and MS2 and end with ``&END``
    or ``/``. Body records are ``value i j k l`` with 1-based indices:
    all-zero indices set the core energy, ``k=l=0`` sets h_ij, nonzero indices
    set (ij|kl). Records of the form ``value i 0 0 0`` (orbital energies,
    written by some programs) are accepted and ignored; any other mix of zero
    and nonzero indices is refused. ORBSYM is ignored.
    """
    m = re.search(r"&FCI(.*?)(?:&END|^\s*/|\s/)", text, re.S | re.I | re.M)
    if m is None:
        raise FcidumpError("no &FCI namelist header terminated by &END or /")
    header = m.group(1)
    body = text[m.end():]

    vals = {}
    for name, pat in _HEADER_INT.items():
        got = pat.search(header)
        if got is None:
            raise FcidumpError(f"header is missing {name}")
        vals[name] = int(got.group(1))
    n_orb, nelec, ms2 = vals["NORB"], vals["NELEC"], vals["MS2"]
    if (nelec + ms2) % 2 != 0:
        raise FcidumpError(f"NELEC={nelec} and MS2={ms2} have mismatched parity")
    n_alpha = (nelec + ms2) // 2
    n_beta = (nelec - ms2) // 2
    if n_beta < 0 or n_alpha < 0:
        raise FcidumpError(f"MS2={ms2} incompatible with NELEC={nelec}")

    e_core = 0.0
    one_body = np.zeros((n_orb, n_orb))
    eri = np.zeros((n_orb,) * 4)
    for lineno, line in enumerate(body.splitlines(), 1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise FcidumpError(f"body line {lineno}: expected 'value i j k l', got {line!r}")
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError as exc:
            raise FcidumpError(f"body line {lineno}: {exc}") from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_orb:
                raise FcidumpError(f"body line {lineno}: index {idx} exceeds NORB={n_orb}")
        if i == j == k == l == 0:
            e_core = value
        elif k == 0 and l == 0 and i != 0:
            if j == 0:
                continue  # orbital-energy record
            one_body[i - 1, j - 1] = value
            one_body[j - 1, i - 1] = value
        elif i == 0 or j == 0 or k == 0 or l == 0:
            raise FcidumpError(f"body line {lineno}: mixed zero/nonzero indices")
        else:
            _set_eri(eri, i - 1, j - 1, k - 1, l - 1, value)

    return IntegralSet(n_orb, n_alpha, n_beta, e_core, one_body, eri)


def write_fcidump(s: IntegralSet) -> str:
    """Serialize an :class:`IntegralSet` back to FCIDUMP text.

    Output is deterministic and round-trips exactly: two-body records are
    the nonzero entries with p>=q, r>=s, (p,q)>=(r,s) in ascending index
    order, and 17 significant digits reproduce every float bit-for-bit.
    """
    nelec = s.n_alpha + s.n_beta
    ms2 = s.n_alpha - s.n_beta
    orbsym = ",".join(["1"] * s.n_orb)
    lines = [
        f"&FCI NORB={s.n_orb},NELEC={nelec},MS2={ms2},",
        f"  ORBSYM={orbsym},",
        "  ISYM=1,",
        "&END",
    ]

    def rec(v, i, j, k, l):
        lines.append(f"{v: .16E} {i:4d} {j:4d} {k:4d} {l:4d}")

    a, b = np.tril_indices(s.n_orb)  # orbital pairs a>=b in ascending order
    pairs = s.eri[a[:, None], b[:, None], a, b]
    for i, j in np.argwhere(np.tril(pairs) != 0.0):
        rec(pairs[i, j], a[i] + 1, b[i] + 1, a[j] + 1, b[j] + 1)
    for p in range(s.n_orb):
        for q in range(p + 1):
            if s.one_body[p, q] != 0.0:
                rec(s.one_body[p, q], p + 1, q + 1, 0, 0)
    rec(s.e_core, 0, 0, 0, 0)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class DipoleIntegrals:
    """Dipole operator matrix elements in the same orbital basis.

    x, y, z are symmetric (n_orb, n_orb) tables in atomic units;
    nuclear is the fixed nuclear dipole 3-vector (also a.u.). All four are
    read-only, and sets compare by identity.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    nuclear: np.ndarray

    def __post_init__(self):
        for array in (self.x, self.y, self.z, self.nuclear):
            array.flags.writeable = False

    def component(self, axis: str) -> np.ndarray:
        return {"x": self.x, "y": self.y, "z": self.z}[axis]


def parse_dipole_file(text: str, n_orb: int) -> DipoleIntegrals:
    """Parse the dipole sidecar: lines ``axis p q value`` plus ``nuc dx dy dz``.

    Indices are 1-based; tables are symmetrized; absent entries stay zero.
    Blank lines and ``#`` comments are skipped.
    """
    tables = {a: np.zeros((n_orb, n_orb)) for a in "xyz"}
    nuclear = np.zeros(3)
    for lineno, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        tag = tokens[0].lower()
        if tag != "nuc" and tag not in tables:
            raise FcidumpError(f"dipole line {lineno}: unknown axis token {tokens[0]!r}")
        if len(tokens) != 4:
            form = "nuc dx dy dz" if tag == "nuc" else "axis p q value"
            raise FcidumpError(f"dipole line {lineno}: expected '{form}'")
        try:
            if tag == "nuc":
                nuclear = np.array([float(t) for t in tokens[1:]])
                continue
            p, q, v = int(tokens[1]) - 1, int(tokens[2]) - 1, float(tokens[3])
        except ValueError as exc:
            raise FcidumpError(f"dipole line {lineno}: {exc}") from None
        if not (0 <= p < n_orb and 0 <= q < n_orb):
            raise FcidumpError(f"dipole line {lineno}: index out of range")
        tables[tag][p, q] = v
        tables[tag][q, p] = v
    return DipoleIntegrals(tables["x"], tables["y"], tables["z"], nuclear)


def write_dipole_file(d: DipoleIntegrals) -> str:
    """Serialize :class:`DipoleIntegrals` to the sidecar text format."""
    n_orb = d.x.shape[0]
    lines = []
    for axis in "xyz":
        table = d.component(axis)
        for p in range(n_orb):
            for q in range(p + 1):
                if table[p, q] != 0.0:
                    lines.append(f"{axis} {p + 1} {q + 1} {table[p, q]: .16E}")
    nx, ny, nz = d.nuclear
    lines.append(f"nuc {nx: .16E} {ny: .16E} {nz: .16E}")
    return "\n".join(lines) + "\n"
