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
closer to zero than the guard band DEFAULT_GUARD = 1e-9 are counted as
borderline and reported; the membership bit then follows the sign of
the compensated margin.

That extended-precision test (`member_frac`) is the rule at every
index.  When h2 differs from h1 and psi is a difference window, the
scan screens it: certified double-precision enclosures of phi1(n),
phi2(n) and phi2(n + 1) (`rvfunc.InverseFn.enclose`) put the margin in
an interval, which decides the bit of almost every index (`_screen`),
and member_frac takes only the indices whose interval comes near 0,
near the guard band, or whose fractional part comes near 0 or 1.  The
members and the borderline count are those of member_frac everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compensated import frac_pair
from .errors import CapacityError
from .rvfunc import BLOCK, InverseFn, PsiFn, RegVaryFn, index_chunks, pairs_and_window
from .sweeps import SweepResult, per_row, sweep

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

    # --------------------------------------------------------- export

    def _header_lines(self):
        yield "majorantlab set v1"
        yield ", ".join(f"{k}={v}" for k, v in self.spec.kv_items())
        yield "h1: " + self.spec.h1.to_kv()
        yield "h2: " + self.spec.h2.to_kv()
        yield (f"n_min={self.n_min}, count={len(self.members)}, "
               f"borderline_count={self.borderline_count}")

    def save(self, path):
        """Write the set in the text layout: the header as '# ' lines,
        then one member per line."""
        with open(path, "w") as fh:
            for line in self._header_lines():
                fh.write(f"# {line}\n")
            for m in self.members:
                fh.write(f"{m}\n")


def load_set(path) -> SparseSet:
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


def build_floor_set(h: RegVaryFn, N: int) -> SparseSet:
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
        if n_end - n_start <= DEFAULT_CAP:
            while n_end >= n_start and h.value_longdouble(ld(n_end)) >= ld(N + 1):
                n_end -= 1
            while h.value_longdouble(ld(n_end + 1)) < ld(N + 1):
                n_end += 1
    count = n_end - n_start + 1
    if count > DEFAULT_CAP:
        raise CapacityError(
            f"floor set build needs {count} evaluations, cap is {DEFAULT_CAP}")
    spec = SetSpec("floor_image", h, h, N)
    borderline = 0
    out = [np.empty(0, dtype=np.int64)]
    for n in index_chunks(n_start, n_end, BLOCK):
        vals = h.value_longdouble(n)
        floors = np.floor(vals)
        fr = np.asarray(vals - floors, dtype=np.float64)
        borderline += int(np.count_nonzero((fr < DEFAULT_GUARD)
                                           | (fr > 1 - DEFAULT_GUARD)))
        out.append(np.asarray(floors, dtype=np.int64))
    floors = np.concatenate(out)
    # h increases on its domain and the blocks run in increasing n, so the
    # floors are nondecreasing: equal floors are neighbours, and dropping
    # each repeat of its left neighbour deduplicates them in one pass
    keep = np.ones(len(floors), dtype=bool)
    keep[1:] = floors[1:] != floors[:-1]
    members = floors[keep]
    members = members[(members >= 1) & (members <= N)]
    n_min = int(members[0]) if len(members) else 1
    return SparseSet(spec, members, n_min=n_min, borderline_count=borderline,
                     phi1=phi, psi=None)


def frac_scan(h1: RegVaryFn, h2: RegVaryFn, psi_mode: str):
    """phi1, the window psi and n_min, the first index that a frac set of
    (h1, h2) scans: phi1 is defined from h1(x0) on and psi is at most 1/2
    from psi.n_min on, so no such set has a member below n_min."""
    phi1 = InverseFn(h1)
    phi2 = phi1 if h2 == h1 else InverseFn(h2)
    psi = PsiFn(phi2, mode=psi_mode)
    return phi1, psi, max(psi.n_min, math.ceil(phi1.y0 - 1e-9))


def _screen(n, phi1: InverseFn, phi2: InverseFn, sign: str):
    """(member, open) on a run n of consecutive indices: the members
    that double-precision enclosures decide, and the mask of the indices
    they leave open.

    `InverseFn.enclose` gives phi1(n) in [lo1, hi1] and phi2 at n and its
    successor, so psi(n) and {sign phi1(n)} lie in intervals (each
    endpoint difference exact: phi2(n + 1) is within a factor 2 of
    phi2(n), and a frac of a double below 2^52 is exact).  An index is
    decided when the frac interval keeps off 0 and 1 and the margin
    interval psi - frac keeps off [-DEFAULT_GUARD, DEFAULT_GUARD], both by
    the slack: 2^-50 for roundings of the margin here and in
    member_frac, plus 2^-58 of each phi for the error of `pair`, about
    1e-19 y/h'(phi) <= 1e-19 phi (c + theta >= 1).  member_frac then
    finds the same bit, with |margin| > DEFAULT_GUARD, so a decided index
    is never borderline."""
    lo1, hi1 = phi1.enclose(n)
    lo2, hi2 = phi2.enclose(np.append(n, n[-1] + 1.0))
    slack = 2.0 ** -50 + 2.0 ** -58 * (hi1 + hi2[:-1] + hi2[1:])
    if sign == "minus":
        lo1, hi1 = -hi1, -lo1
    base = np.floor(lo1)
    f_lo, f_hi = lo1 - base, hi1 - base
    m_lo = (lo2[1:] - hi2[:-1]) - f_hi
    m_hi = (hi2[1:] - lo2[:-1]) - f_lo
    gap = DEFAULT_GUARD + slack
    decided = ((f_lo > slack) & (f_hi < 1.0 - slack)
               & ((m_lo > gap) | (m_hi < -gap)))
    return decided & (m_lo > gap), ~decided


def build_frac_set(spec: SetSpec) -> SparseSet:
    """Scan [n_min, N] BLOCK indices at a time.

    With h2 == h1 (psi phi1's own window) or psi in derivative mode every
    index goes through member_frac.  With any other h2, `_screen` decides
    almost every index in double precision, and member_frac, in extended
    precision, takes the ones left open, from all blocks at once; the
    members and the borderline count are those of member_frac on every
    index."""
    if spec.kind not in ("frac_plus", "frac_minus"):
        raise ValueError(f"kind {spec.kind} has no window psi; this needs "
                         "kind frac_plus or frac_minus")
    phi1, psi, n_min = frac_scan(spec.h1, spec.h2, spec.psi_mode)
    N = spec.N
    if N - n_min + 1 > DEFAULT_CAP:
        raise CapacityError(
            f"frac set scan of {N - n_min + 1} exceeds cap {DEFAULT_CAP}")
    sign = spec.kind.removeprefix("frac_")
    screened = psi.mode == "difference" and psi.phi2.source != phi1.source
    members, left_open = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    borderline = 0
    for n in index_chunks(n_min, N, BLOCK):
        if screened:
            member, undecided = _screen(n, phi1, psi.phi2, sign)
            left_open.append(n[undecided])
        else:
            member, margin = member_frac(n, phi1, psi, sign)
            borderline += int(np.count_nonzero(np.abs(margin) < DEFAULT_GUARD))
        members.append(np.asarray(n[member], dtype=np.int64))
    members = np.concatenate(members)
    n = np.concatenate(left_open)
    if n.size:
        member, margin = member_frac(n, phi1, psi, sign)
        borderline = int(np.count_nonzero(np.abs(margin) < DEFAULT_GUARD))
        members = np.sort(np.concatenate(
            [members, np.asarray(n[member], dtype=np.int64)]))
    return SparseSet(spec, members, n_min=n_min,
                     borderline_count=borderline, phi1=phi1, psi=psi)


def build_set(spec: SetSpec) -> SparseSet:
    if spec.kind == "floor_image":
        return build_floor_set(spec.h1, spec.N)
    return build_frac_set(spec)


def count_sweep(build_set_fn, N_list, seed: int | None = None,
                workers: int = 1) -> list[SweepResult]:
    """The count rows cardinality_ratio of every N of N_list, in its
    order: |B_N| against phi2(N), the inverse of the built set's h2 (a
    floor image's is h1).  build_set_fn(N) -> SparseSet; one sweeps.sweep
    task per N.  The rows share the log-log slope of |ratio - 1| against N."""
    def task(N):
        built = build_set_fn(N)
        ref = InverseFn(built.spec.h2).invert(float(N))
        return [SweepResult(
            experiment="count", quantity="cardinality_ratio",
            value=float(len(built)), reference=ref, ratio=len(built) / ref,
            seed=seed, borderline_count=built.borderline_count,
            params={"N": N, "kind": built.spec.kind,
                    "h1": built.spec.h1.to_kv(), "h2": built.spec.h2.to_kv(),
                    "psi_mode": built.spec.psi_mode})]

    return sweep([int(N) for N in N_list], task,
                 per_row(lambda r: abs(r.ratio - 1.0)), workers=workers)
