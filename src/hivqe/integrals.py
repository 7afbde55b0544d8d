"""FCIDUMP ingestion and symmetric molecular-integral lookup.

One- and two-electron integrals are stored over spatial orbitals. Two-body
values use chemist notation (pq|rs) and are kept in a dict keyed by the
canonical representative of the 8-fold permutation group, so a query through
any equivalent index order returns the identical stored float. A dense
(n_orb,)*4 copy with every symmetry image filled is built on first use for
vectorized Hamiltonian assembly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "IntegralSet",
    "DipoleIntegrals",
    "FcidumpError",
    "canonical_eri_key",
    "parse_fcidump",
    "write_fcidump",
    "get_eri",
    "parse_dipole_file",
    "write_dipole_file",
]


class FcidumpError(ValueError):
    """Raised for malformed FCIDUMP or dipole-sidecar content."""


def canonical_eri_key(p: int, q: int, r: int, s: int) -> tuple[int, int, int, int]:
    """Canonical representative of (pq|rs) under its 8-fold symmetry.

    Real-orbital two-electron integrals satisfy
    (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq); each index pair is sorted
    descending and the larger pair is placed first.
    """
    if p < q:
        p, q = q, p
    if r < s:
        r, s = s, r
    if (p, q) < (r, s):
        p, q, r, s = r, s, p, q
    return p, q, r, s


@dataclass(frozen=True)
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
        Symmetric (n_orb, n_orb) table of h_pq, Hartree.
    two_body : dict
        Canonical-key map of (pq|rs) values, Hartree. Missing keys mean zero.
    """

    n_orb: int
    n_alpha: int
    n_beta: int
    e_core: float
    one_body: np.ndarray
    two_body: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.n_alpha <= self.n_orb and 0 <= self.n_beta <= self.n_orb):
            raise FcidumpError(
                f"electron counts ({self.n_alpha}a,{self.n_beta}b) do not fit "
                f"in {self.n_orb} orbitals"
            )

    @cached_property
    def eri(self) -> np.ndarray:
        """Dense (pq|rs) array over all four indices, built on first use.

        Every symmetry image of a canonical key holds its value, so
        ``eri[p, q, r, s] == get_eri(self, p, q, r, s)`` for all indices.
        """
        n = self.n_orb
        eri = np.zeros((n, n, n, n))
        keys = [k for k in self.two_body if k == canonical_eri_key(*k)]
        if keys:
            p, q, r, s = np.array(keys, dtype=np.intp).T
            vals = np.array([self.two_body[k] for k in keys])
            for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r)):
                eri[a, b, c, d] = vals
                eri[c, d, a, b] = vals
        eri.flags.writeable = False
        return eri

    @classmethod
    def from_terms(cls, n_orb, n_alpha, n_beta, e_core, one_body_terms, two_body_terms):
        """Build a set from sparse {(p,q): h} and {(p,q,r,s): v} maps.

        Index tuples may arrive in any symmetry-equivalent order; they are
        symmetrized / canonicalized here. Convenient for synthetic fixtures.
        """
        h = np.zeros((n_orb, n_orb))
        for (p, q), v in one_body_terms.items():
            h[p, q] = v
            h[q, p] = v
        eri = {}
        for key, v in two_body_terms.items():
            eri[canonical_eri_key(*key)] = v
        return cls(n_orb, n_alpha, n_beta, e_core, h, eri)


def get_eri(s: IntegralSet, p: int, q: int, r: int, s_: int) -> float:
    """Return (pq|rs) in chemist notation; unset entries are 0."""
    for idx in (p, q, r, s_):
        if not 0 <= idx < s.n_orb:
            raise IndexError(f"orbital index {idx} out of range for n_orb={s.n_orb}")
    return s.two_body.get(canonical_eri_key(p, q, r, s_), 0.0)


_HEADER_INT = {
    "NORB": re.compile(r"NORB\s*=\s*(\d+)", re.I),
    "NELEC": re.compile(r"NELEC\s*=\s*(\d+)", re.I),
    "MS2": re.compile(r"MS2\s*=\s*(-?\d+)", re.I),
}


def parse_fcidump(text: str) -> IntegralSet:
    """Parse FCIDUMP text into an :class:`IntegralSet`.

    The namelist header must define NORB, NELEC and MS2 and end with ``&END``
    or ``/``. Body records are ``value i j k l`` with 1-based indices:
    all-zero indices set the core energy, ``k=l=0`` sets h_ij, anything else
    sets (ij|kl). Records of the form ``value i 0 0 0`` (orbital energies,
    written by some programs) are accepted and ignored. ORBSYM is ignored.
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
    two_body: dict = {}
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
        elif k == 0 and l == 0:
            if j == 0:
                continue  # orbital-energy record
            one_body[i - 1, j - 1] = value
            one_body[j - 1, i - 1] = value
        elif i == 0 or j == 0 or k == 0 or l == 0:
            raise FcidumpError(f"body line {lineno}: mixed zero/nonzero indices")
        else:
            two_body[canonical_eri_key(i - 1, j - 1, k - 1, l - 1)] = value

    return IntegralSet(n_orb, n_alpha, n_beta, e_core, one_body, two_body)


def write_fcidump(s: IntegralSet) -> str:
    """Serialize an :class:`IntegralSet` back to FCIDUMP text.

    Output is deterministic (sorted records) and round-trips exactly:
    17 significant digits reproduce every float bit-for-bit.
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

    for (p, q, r, t) in sorted(s.two_body):
        v = s.two_body[(p, q, r, t)]
        if v != 0.0:
            rec(v, p + 1, q + 1, r + 1, t + 1)
    for p in range(s.n_orb):
        for q in range(p + 1):
            if s.one_body[p, q] != 0.0:
                rec(s.one_body[p, q], p + 1, q + 1, 0, 0)
    rec(s.e_core, 0, 0, 0, 0)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DipoleIntegrals:
    """Dipole operator matrix elements in the same orbital basis.

    x, y, z are symmetric (n_orb, n_orb) tables in atomic units;
    nuclear is the fixed nuclear dipole 3-vector (also a.u.).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    nuclear: np.ndarray

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
        if tag == "nuc":
            if len(tokens) != 4:
                raise FcidumpError(f"dipole line {lineno}: expected 'nuc dx dy dz'")
            nuclear = np.array([float(t) for t in tokens[1:]])
        elif tag in tables:
            if len(tokens) != 4:
                raise FcidumpError(f"dipole line {lineno}: expected 'axis p q value'")
            p, q = int(tokens[1]) - 1, int(tokens[2]) - 1
            if not (0 <= p < n_orb and 0 <= q < n_orb):
                raise FcidumpError(f"dipole line {lineno}: index out of range")
            v = float(tokens[3])
            tables[tag][p, q] = v
            tables[tag][q, p] = v
        else:
            raise FcidumpError(f"dipole line {lineno}: unknown axis token {tokens[0]!r}")
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
