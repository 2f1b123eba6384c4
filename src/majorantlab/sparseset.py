"""Materialized sparse sets: floor images of h and fractional-part sets.

Two constructions of the same kind of object:

    floor_image   {floor(h(n)) : n >= x0} intersected with [1, N]
    frac_plus     {n : {phi1(n)} < psi(n)}
    frac_minus    {n : {-phi1(n)} < psi(n)}

With h1 = h2 = h and the window psi(x) = phi(x+1) - phi(x), the minus set
coincides with the floor image on [n_min, N]; both builders are kept as
independent code paths precisely so that identity can be checked.

Membership compares the fractional part of +-phi1(n) against psi(n).
Since the integer part of phi1(n) eats most of the double mantissa at
large n, phi1 is evaluated as a head/tail pair, which
rvfunc.pairs_and_window returns with psi(n) (one solve per index when
h2 equals h1), and the fractional part is taken on the pair.  Margins
closer to zero than a guard band (default 1e-9) are counted as
borderline and reported; the membership bit then follows the sign of
the compensated margin.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compensated import frac_pair
from .errors import CapacityError
from .rvfunc import InverseFn, PsiFn, RegVaryFn, index_chunks, pairs_and_window

DEFAULT_GUARD = 1e-9
DEFAULT_CAP = 1 << 28

KINDS = ("floor_image", "frac_plus", "frac_minus")


@dataclass(frozen=True)
class SetSpec:
    """Recipe for one sparse set."""

    kind: str
    h1: RegVaryFn
    h2: RegVaryFn
    N: int
    psi_mode: str = "difference"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}")
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.psi_mode not in PsiFn.MODES:
            raise ValueError(f"unknown psi mode {self.psi_mode!r}")

    @property
    def c1(self) -> float:
        return self.h1.c

    @property
    def c2(self) -> float:
        return self.h2.c

    @property
    def admissibility_margin(self) -> float:
        """1 - 3(1 - 1/c2) - (1 - 1/c1); positive iff the exponent pair is
        admissible for the quantitative theorems."""
        return 1.0 - 3.0 * (1.0 - 1.0 / self.c2) - (1.0 - 1.0 / self.c1)

    @property
    def admissible(self) -> bool:
        return (1.0 <= self.c1 < 2.0 and 1.0 <= self.c2 < 1.2
                and self.admissibility_margin > 0.0)

    def kv_items(self):
        return [("kind", self.kind), ("psi_mode", self.psi_mode), ("N", str(self.N))]


@dataclass
class SparseSet:
    """A built set; members are sorted distinct int64 in [n_min, N]."""

    spec: SetSpec
    members: np.ndarray
    n_min: int
    borderline_count: int = 0
    phi1: InverseFn | None = None
    psi: PsiFn | None = None

    def __len__(self):
        return len(self.members)

    @property
    def borderline_fraction(self) -> float:
        return self.borderline_count / max(len(self.members), 1)

    def restricted(self, N: int) -> np.ndarray:
        """Members <= N (the set construction is monotone in N)."""
        return self.members[: np.searchsorted(self.members, N, side="right")]

    # --------------------------------------------------------- export

    def _header_lines(self):
        yield "majorantlab set v1"
        yield ", ".join(f"{k}={v}" for k, v in self.spec.kv_items())
        yield "h1: " + self.spec.h1.to_kv()
        yield "h2: " + self.spec.h2.to_kv()
        yield (f"n_min={self.n_min}, count={len(self.members)}, "
               f"borderline_count={self.borderline_count}")

    def save(self, path):
        """Write the set; '.bin' suffix selects the binary layout,
        anything else the one-member-per-line text layout."""
        path = Path(path)
        if path.suffix == ".bin":
            header = "\n".join(self._header_lines()).encode()
            with open(path, "wb") as fh:
                fh.write(b"MLSET1\x00\x00")
                fh.write(struct.pack("<I", len(header)))
                fh.write(header)
                fh.write(struct.pack("<Q", len(self.members)))
                fh.write(np.ascontiguousarray(self.members, dtype="<i8").tobytes())
        else:
            with open(path, "w") as fh:
                for line in self._header_lines():
                    fh.write(f"# {line}\n")
                for m in self.members:
                    fh.write(f"{m}\n")


def load_set(path) -> SparseSet:
    path = Path(path)
    if path.suffix == ".bin":
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != b"MLSET1\x00\x00":
                raise ValueError("not a majorantlab binary set file")
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = fh.read(hlen).decode().splitlines()
            (count,) = struct.unpack("<Q", fh.read(8))
            members = np.frombuffer(fh.read(8 * count), dtype="<i8").astype(np.int64)
    else:
        header = []
        members = []
        with open(path) as fh:
            for line in fh:
                if line.startswith("#"):
                    header.append(line[1:].strip())
                elif line.strip():
                    members.append(int(line))
        members = np.asarray(members, dtype=np.int64)
    kv = {}
    h1 = h2 = None
    for line in header[1:]:
        if line.startswith("h1:"):
            h1 = RegVaryFn.from_kv(line[3:], check=False)
        elif line.startswith("h2:"):
            h2 = RegVaryFn.from_kv(line[3:], check=False)
        else:
            for part in line.split(","):
                k, _, v = part.strip().partition("=")
                kv[k] = v
    spec = SetSpec(kv["kind"], h1, h2, int(kv["N"]), psi_mode=kv["psi_mode"])
    return SparseSet(spec, members, int(kv["n_min"]),
                     borderline_count=int(kv.get("borderline_count", 0)))


# ------------------------------------------------------------ membership


def member_frac(n, phi1: InverseFn, psi, sign: str = "plus"):
    """Fractional-part membership test.

    Returns (member, margin) with margin = psi(n) - {sign * phi1(n)};
    membership is margin > 0.  Works on scalars and arrays.  The caller
    treats |margin| below its guard band as borderline.
    """
    head, tail, psv = pairs_and_window(n, phi1, psi)
    frac = frac_pair(head, tail, sign=1 if sign == "plus" else -1)
    margin = psv - frac
    member = frac < psv
    if np.ndim(n) == 0:
        return bool(member), float(margin)
    return member, margin


def member_floor_characterization(n, phi1: InverseFn, psi):
    """floor(phi1(n)) - floor(phi1(n) - psi(n)) == 1, on the value pair.

    Independent route to the same membership bit as member_frac(.., plus);
    exercised against it exhaustively in the tests.
    """
    head, tail, psv = pairs_and_window(n, phi1, psi)
    base = np.floor(head)
    r = (head - base) + tail
    f_phi = base + np.floor(r)         # floor(phi1(n))
    rs = (head - base) + (tail - psv)
    f_shift = base + np.floor(rs)      # floor(phi1(n) - psi(n))
    out = (f_phi - f_shift) == 1.0
    if np.ndim(n) == 0:
        return bool(out)
    return out


# ------------------------------------------------------------- builders


def build_floor_set(h: RegVaryFn, N: int, cap: int = DEFAULT_CAP,
                    guard: float = DEFAULT_GUARD) -> SparseSet:
    """{floor(h(n)) : n >= x0} in [1, N], sorted and deduplicated.

    h(n) is evaluated in extended precision so the floor is reliable
    whenever h(n) is farther than ~1e-11 from an integer; closer values
    are counted as borderline.
    """
    n_start = math.ceil(h.x0 - 1e-9)
    phi = InverseFn(h)
    if N + 1 < phi.y0:
        n_end = n_start - 1
    else:
        n_end = int(math.floor(phi.invert(float(N + 1))))
        ld = np.longdouble
        # longdouble cannot step n_end by one far past any cap
        if n_end - n_start <= cap:
            while n_end >= n_start and h.value_longdouble(ld(n_end)) >= ld(N + 1):
                n_end -= 1
            while h.value_longdouble(ld(n_end + 1)) < ld(N + 1):
                n_end += 1
    count = n_end - n_start + 1
    if count > cap:
        raise CapacityError(
            f"floor set build needs {count} evaluations, cap is {cap}")
    spec = SetSpec("floor_image", h, h, N)
    borderline = 0
    out = [np.empty(0, dtype=np.int64)]
    for n in index_chunks(n_start, n_end):
        vals = h.value_longdouble(n)
        floors = np.floor(vals)
        fr = np.asarray(vals - floors, dtype=np.float64)
        borderline += int(np.count_nonzero((fr < guard) | (fr > 1 - guard)))
        out.append(np.asarray(floors, dtype=np.int64))
    floors = np.concatenate(out)
    # h increases on its domain and the chunks run in increasing n, so the
    # floors are nondecreasing: equal floors are neighbours, and dropping
    # each repeat of its left neighbour deduplicates them in one pass
    keep = np.ones(len(floors), dtype=bool)
    keep[1:] = floors[1:] != floors[:-1]
    members = floors[keep]
    members = members[(members >= 1) & (members <= N)]
    n_min = int(members[0]) if len(members) else 1
    return SparseSet(spec, members, n_min=n_min, borderline_count=borderline,
                     phi1=phi, psi=None)


def frac_scan(h1: RegVaryFn, h2: RegVaryFn, psi_mode: str = "difference"):
    """phi1, the window psi and n_min, the first index that a frac set of
    (h1, h2) scans: phi1 is defined from h1(x0) on and psi is at most 1/2
    from psi.n_min on, so no such set has a member below n_min."""
    phi1 = InverseFn(h1)
    phi2 = phi1 if h2 == h1 else InverseFn(h2)
    psi = PsiFn(phi2, mode=psi_mode)
    return phi1, psi, max(psi.n_min, math.ceil(phi1.y0 - 1e-9))


def build_frac_set(spec: SetSpec, guard: float = DEFAULT_GUARD,
                   cap: int = DEFAULT_CAP) -> SparseSet:
    """Scan [n_min, N] with member_frac; deterministic, chunked."""
    if spec.kind not in ("frac_plus", "frac_minus"):
        raise ValueError("build_frac_set needs a frac_plus or frac_minus spec")
    sign = 1 if spec.kind == "frac_plus" else -1
    phi1, psi, n_min = frac_scan(spec.h1, spec.h2, spec.psi_mode)
    N = spec.N
    if N - n_min + 1 > cap:
        raise CapacityError(f"frac set scan of {N - n_min + 1} exceeds cap {cap}")
    members = [np.empty(0, dtype=np.int64)]
    borderline = 0
    for n in index_chunks(n_min, N):
        head, tail, psv = pairs_and_window(n, phi1, psi)
        margin = psv - frac_pair(head, tail, sign=sign)
        borderline += int(np.count_nonzero(np.abs(margin) < guard))
        members.append(np.asarray(n[margin > 0], dtype=np.int64))
    return SparseSet(spec, np.concatenate(members), n_min=n_min,
                     borderline_count=borderline, phi1=phi1, psi=psi)


def build_set(spec: SetSpec, **kw) -> SparseSet:
    if spec.kind == "floor_image":
        return build_floor_set(spec.h1, spec.N, **kw)
    return build_frac_set(spec, **kw)
