import csv
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from majorantlab import (CapacityError, InverseFn, PsiFn, RegVaryFn,
                         SlowlyVaryingSpec, rvfunc, sparseset)
from majorantlab.cli import main
from majorantlab.sparseset import (
    SetSpec,
    build_floor_set,
    build_frac_set,
    load_set,
    member_floor_characterization,
    member_frac,
)
from majorantlab.verify import check_cardinality


def xlogx():
    return RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))


def x15(x0=1.0):
    return RegVaryFn(1.5, SlowlyVaryingSpec("constant_one"), x0=x0)


def x11logx():
    return RegVaryFn(1.1, SlowlyVaryingSpec("log_power", B=1.0))


class ConstPsi:
    """Synthetic window for membership edge cases."""

    def __init__(self, value, n_min=1):
        self.v = value
        self.n_min = n_min

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=np.float64), self.v)


# ---------------------------------------------------------- floor sets


def test_floor_set_small_pure_power():
    s = build_floor_set(x15(), 12)
    assert s.members.tolist() == [1, 2, 5, 8, 11]


def test_floor_set_identity_degenerate():
    ident = RegVaryFn(1.0, SlowlyVaryingSpec("constant_one"), x0=1.0, check=False)
    s = build_floor_set(ident, 10)
    assert s.members.tolist() == list(range(1, 11))


def test_floor_set_cardinality_matches_inverse():
    h = xlogx()
    s = build_floor_set(h, 10**6)
    phi = InverseFn(h)
    # one member per index n in [ceil(x0), phi(N+1)) since gaps exceed 1
    expected = math.floor(phi.invert(10**6 + 1.0)) - math.ceil(h.x0) + 1
    if h.value(float(math.floor(phi.invert(10**6 + 1.0)))) >= 10**6 + 1:
        expected -= 1
    assert len(s.members) == expected
    assert np.all(np.diff(s.members) > 0)


@pytest.mark.parametrize("h", [
    RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=0.3)),
    RegVaryFn(1.0, SlowlyVaryingSpec("exp_log_power", B=0.3, C=0.5)),
    RegVaryFn(1.0, SlowlyVaryingSpec("iterated_log", m=2)),
    RegVaryFn(1.0, SlowlyVaryingSpec("iterated_log", m=3)),
    RegVaryFn(1.05, SlowlyVaryingSpec("constant_one")),
], ids=["log_power", "exp_log_power", "iterated_log2", "iterated_log3",
        "constant_one"])
def test_floor_set_dedup_matches_unique(h):
    # the builder drops repeats of the left neighbour, which relies on the
    # floors being nondecreasing; a sorting np.unique must agree
    N = 5000
    n = np.arange(math.ceil(h.x0 - 1e-9), 4 * N, dtype=np.float64)
    floors = np.floor(h.value_longdouble(n)).astype(np.int64)
    floors = floors[(floors >= 1) & (floors <= N)]
    expected = np.unique(floors)
    if h.ell.m == 3:
        # h' = ell + x ell' stays below 1 over this range: floors repeat
        assert len(expected) < len(floors)
    assert np.array_equal(build_floor_set(h, N).members, expected)


def test_floor_set_exact_tie_is_borderline():
    # h(1) = 1 and h(4) = 8 exactly, so both land on the floor boundary
    s = build_floor_set(x15(), 12)
    assert s.borderline_count == 2


# ---------------------------------------------------------- membership


def test_integer_phi_is_member_of_both_signs():
    phi = InverseFn(x15())
    psi = PsiFn(phi)
    for sign in ("plus", "minus"):
        member, margin = member_frac(8, phi, psi, sign)
        assert member
        assert margin == pytest.approx(psi.value(8.0), abs=1e-15)


def test_member_frac_pinned_margin_at_n_min():
    # frozen from the compensated evaluation at first computation
    phi = InverseFn(xlogx())
    psi = PsiFn(phi)
    assert psi.n_min == 3
    member, margin = member_frac(3, phi, psi, "plus")
    assert not member
    assert margin == pytest.approx(-0.38745924442963575, abs=1e-12)


def test_floor_characterization_on_integer_phi():
    phi = InverseFn(x15())
    psi = PsiFn(phi)
    assert member_floor_characterization(8, phi, psi)


def test_floor_characterization_agrees_exhaustively():
    phi = InverseFn(xlogx())
    psi = PsiFn(phi)
    n = np.arange(psi.n_min, 10**5 + 1)
    via_frac, _ = member_frac(n, phi, psi, "plus")
    via_floor = member_floor_characterization(n, phi, psi)
    assert np.array_equal(via_frac, via_floor)


def test_synthetic_rejection_by_both_tests():
    # constant window 0.3 and an index whose fractional part sits 0.1 above it
    phi = InverseFn(xlogx())
    psi = ConstPsi(0.3, n_min=3)
    head, tail = phi.pair(np.arange(3.0, 5000.0))
    frac = (head - np.floor(head)) + tail
    idx = np.argmin(np.abs(frac - 0.4))
    n = int(3 + idx)
    assert abs(frac[idx] - 0.4) < 1e-2
    member, _ = member_frac(n, phi, psi, "plus")
    assert not member
    assert not member_floor_characterization(n, phi, psi)


def test_zero_window_admits_nothing():
    phi = InverseFn(xlogx())
    psi = ConstPsi(0.0, n_min=3)
    member, _ = member_frac(np.arange(3, 2000), phi, psi, "plus")
    assert not member.any()


# ------------------------------------------------------------ frac sets


def test_minus_set_equals_floor_image_small():
    h = x15()
    s = build_frac_set(SetSpec("frac_minus", h, h, 12))
    floor = build_floor_set(h, 12)
    assert s.members.tolist() == [m for m in floor.members if m >= s.n_min]


def test_minus_set_equals_floor_image_to_1e4():
    h = x15()
    s = build_frac_set(SetSpec("frac_minus", h, h, 10**4))
    floor = build_floor_set(h, 10**4)
    expected = floor.members[floor.members >= s.n_min]
    assert np.array_equal(s.members, expected)


def test_plus_set_cardinality_tracks_phi2():
    h = x15()
    s = build_frac_set(SetSpec("frac_plus", h, h, 10**4))
    ref = InverseFn(h).invert(1e4)
    assert abs(len(s) / ref - 1) < 0.10


def test_monotone_growth_and_determinism():
    h = xlogx()
    small = build_frac_set(SetSpec("frac_plus", h, h, 10**4))
    big = build_frac_set(SetSpec("frac_plus", h, h, 2 * 10**4))
    assert np.array_equal(small.members, big.members[big.members <= 10**4])
    again = build_frac_set(SetSpec("frac_plus", h, h, 10**4))
    assert np.array_equal(small.members, again.members)


def test_sparsity_decreases():
    h = xlogx()
    d3 = len(build_frac_set(SetSpec("frac_plus", h, h, 10**3))) / 10**3
    d6 = len(build_frac_set(SetSpec("frac_plus", h, h, 10**6))) / 10**6
    assert d6 < d3


@pytest.mark.parametrize("kind", ["frac_plus", "frac_minus"])
def test_window_shared_by_value_equals_separate_solves(kind, monkeypatch):
    h = xlogx()
    N = 3 * 10**4
    same = build_frac_set(SetSpec(kind, h, h, N))
    equal = build_frac_set(SetSpec(kind, h, xlogx(), N))
    assert equal.psi.phi2 is equal.phi1
    # identity-only equality sends h2 down its own solves
    monkeypatch.setattr(RegVaryFn, "__eq__", object.__eq__)
    separate = build_frac_set(SetSpec(kind, h, xlogx(), N))
    assert separate.psi.phi2 is not separate.phi1
    for other in (equal, separate):
        assert np.array_equal(other.members, same.members)
        assert other.borderline_count == same.borderline_count


@pytest.mark.parametrize("kind", ["frac_plus", "frac_minus"])
def test_frac_build_takes_its_members_from_member_frac(kind, monkeypatch):
    # one membership rule: the build keeps what member_frac admits, and
    # counts as borderline the margins member_frac returns inside the guard
    sign = kind.removeprefix("frac_")
    signs = []
    real = sparseset.member_frac

    def recording(n, phi1, psi, sign):
        signs.append(sign)
        return real(n, phi1, psi, sign)

    monkeypatch.setattr(sparseset, "member_frac", recording)
    h = xlogx()
    s = build_frac_set(SetSpec(kind, h, h, 5000))
    assert signs and set(signs) == {sign}
    n = np.arange(s.n_min, 5001)
    member, margin = member_frac(n, s.phi1, s.psi, sign)
    assert np.array_equal(s.members, n[member])
    assert s.borderline_count == np.count_nonzero(
        np.abs(margin) < sparseset.DEFAULT_GUARD)


def test_borderline_fraction_small():
    h = xlogx()
    s = build_frac_set(SetSpec("frac_plus", h, h, 10**5))
    assert s.borderline_fraction <= 1e-6


def _builds():
    h = xlogx()
    sets = [build_frac_set(SetSpec(kind, h, h, 2 * 10**5))
            for kind in ("frac_plus", "frac_minus")]
    sets.append(build_floor_set(h, 2 * 10**5))
    sets.append(build_frac_set(SetSpec("frac_plus", h, x11logx(), 2 * 10**4)))
    return [(s.members, s.borderline_count) for s in sets]


@pytest.mark.parametrize("block", [1 << 6, rvfunc.CHUNK])
def test_builds_do_not_depend_on_the_block(block, monkeypatch):
    before = _builds()
    for mod in (rvfunc, sparseset):
        monkeypatch.setattr(mod, "BLOCK", block)
    for (m, b), (m_blocked, b_blocked) in zip(before, _builds()):
        assert np.array_equal(m, m_blocked) and b == b_blocked


def test_frac_build_memory_is_bounded_by_the_block():
    # the scan's working set is a few BLOCK-long arrays, not one per index
    h = xlogx()
    spec = SetSpec("frac_plus", h, h, 1 << 20)
    tracemalloc.start()
    try:
        build_frac_set(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_screened_build_memory_is_bounded_by_the_block():
    # the screen's enclosures and the open indices are all it adds
    spec = SetSpec("frac_plus", xlogx(), x11logx(), 1 << 20)
    tracemalloc.start()
    try:
        build_frac_set(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("kind,sha1", [
    ("frac_plus", "6f102d172762d681ad68b6e1a814150065c1f627"),
    ("frac_minus", "94052f3f2cf643857146bc84ee8334eaabecc14f"),
], ids=["frac_plus", "frac_minus"])
def test_xlogx_members_at_1e7_are_pinned(kind, sha1):
    h = xlogx()
    s = build_frac_set(SetSpec(kind, h, h, 10**7))
    assert len(s) == 739_952 and s.borderline_count == 0
    assert hashlib.sha1(s.members.tobytes()).hexdigest() == sha1


# ------------------------------------------------------- screened scans


def member_frac_everywhere(spec):
    """The members and borderline count of member_frac on every index of
    the frac scan of spec, BLOCK indices at a time: the unscreened rule."""
    phi1, psi, n_min = sparseset.frac_scan(spec.h1, spec.h2, spec.psi_mode)
    sign = spec.kind.removeprefix("frac_")
    members, borderline = [np.empty(0, dtype=np.int64)], 0
    for n in rvfunc.index_chunks(n_min, spec.N, rvfunc.BLOCK):
        member, margin = member_frac(n, phi1, psi, sign)
        borderline += int(np.count_nonzero(
            np.abs(margin) < sparseset.DEFAULT_GUARD))
        members.append(n[member].astype(np.int64))
    return np.concatenate(members), borderline


def _h(c, kind, **kw):
    return lambda: RegVaryFn(c, SlowlyVaryingSpec(kind, **kw))


SCREENED_PAIRS = [
    ("xlogx-x11logx", xlogx, x11logx, 2 * 10**5),
    ("iterlog2-explog", _h(1.0, "iterated_log", m=2),
     _h(1.05, "exp_log_power", B=0.3, C=0.5), 10**5),
    ("explog-iterlog3", _h(1.0, "exp_log_power", B=0.3, C=0.5),
     _h(1.2, "iterated_log", m=3), 10**5),
    ("iterlog3-xlog2x", _h(1.0, "iterated_log", m=3),
     _h(1.0, "log_power", B=2.0), 5 * 10**4),
]


@pytest.mark.parametrize("kind", ["frac_plus", "frac_minus"])
@pytest.mark.parametrize("h1,h2,N", [p[1:] for p in SCREENED_PAIRS],
                         ids=[p[0] for p in SCREENED_PAIRS])
def test_screened_scan_equals_member_frac_everywhere(h1, h2, N, kind,
                                                     monkeypatch):
    # with h2 != h1 the enclosures decide almost every index, and
    # member_frac takes the rest: the same members and borderline count
    exact = []
    real = sparseset.member_frac

    def recording(n, phi1, psi, sign):
        exact.append(np.size(n))
        return real(n, phi1, psi, sign)

    spec = SetSpec(kind, h1(), h2(), N)
    monkeypatch.setattr(sparseset, "member_frac", recording)
    s = build_frac_set(spec)
    monkeypatch.undo()
    members, borderline = member_frac_everywhere(spec)
    assert np.array_equal(s.members, members)
    assert s.borderline_count == borderline
    assert len(members) > 100
    assert sum(exact) <= 1e-3 * (N - s.n_min + 1)


@pytest.mark.parametrize("kind,count,sha1", [
    ("frac_plus", 33_890, "f81f670333990e45120e4744d74f5469a3d87ebf"),
    ("frac_minus", 33_786, "b074e2a2c6ba7f63d414ad43815f74177e40a178"),
], ids=["frac_plus", "frac_minus"])
def test_xlogx_x11logx_members_at_1e6_are_pinned(kind, count, sha1):
    # the restriction workload's pair, screened; pinned from the
    # unscreened scan
    s = build_frac_set(SetSpec(kind, xlogx(), x11logx(), 10**6))
    assert len(s) == count and s.borderline_count == 0
    assert hashlib.sha1(s.members.tobytes()).hexdigest() == sha1


@pytest.mark.parametrize("edge", ["low", "high"])
@pytest.mark.parametrize("kind", ["frac_plus", "frac_minus"])
def test_screen_holds_with_every_enclosure_at_its_edge(kind, edge,
                                                       monkeypatch):
    # enclosures 2^-24 phi wide with phi 2^-34 phi inside one end are
    # valid but as far off centre as any, and decide fewer indices; the
    # members and borderline count must not move
    def edge_enclose(phi, y):
        head, tail = phi.pair(y)
        v = head + tail
        width, inside = 2.0**-24 * v, 2.0**-34 * v
        if edge == "low":
            return v - inside, v - inside + width
        return v + inside - width, v + inside

    spec = SetSpec(kind, xlogx(), x11logx(), 5 * 10**4)
    members, borderline = member_frac_everywhere(spec)
    monkeypatch.setattr(InverseFn, "enclose", edge_enclose)
    s = build_frac_set(spec)
    assert np.array_equal(s.members, members)
    assert s.borderline_count == borderline


# -------------------------------------------------------------- counting


def count_rows(tmp_path, *argv):
    """The rows of `majorantlab count` with the given flags."""
    assert main(["count", *argv, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "count.csv") as fh:
        return list(csv.DictReader(l for l in fh if not l.startswith("#")))


def test_count_ratio_moderate_n():
    # ratio within 5 % of 1 at 1e6, |ratio - 1| decaying over 1e4..1e6
    ok, measured = check_cardinality()
    assert ok, measured


def test_count_single_n_exponent_is_nan(tmp_path):
    rows = count_rows(tmp_path, "--N-list", "1e4")
    assert math.isnan(float(rows[0]["exponent"]))


def test_count_mixed_families(tmp_path):
    # h1 = x^1.5 (domain start 2), h2 = x log x
    rows = count_rows(tmp_path, "--c1", "1.5", "--ell1", "constant_one",
                      "--N-list", "1e4,1e5,1e6")
    assert rows[-1]["h1"] == "family=constant_one, c=1.5, x0=2"
    assert float(rows[-1]["exponent"]) < 0
    assert abs(float(rows[-1]["ratio"]) - 1) < 0.05


@pytest.mark.parametrize("build", [
    lambda: build_floor_set(xlogx(), 10**4),
    lambda: build_frac_set(SetSpec("frac_plus", xlogx(), xlogx(), 10**4)),
], ids=["floor_image", "frac_plus"])
def test_build_over_the_cap_raises_before_it_scans(build, monkeypatch):
    def no_scan(lo, hi, run):
        raise AssertionError("scan started")

    monkeypatch.setattr(sparseset, "DEFAULT_CAP", 100)
    monkeypatch.setattr(sparseset, "index_chunks", no_scan)
    with pytest.raises(CapacityError, match="cap is 100|cap 100"):
        build()


# ----------------------------------------------------------------- io


@pytest.mark.parametrize("suffix", [".txt", ".bin"])
def test_save_load_round_trip(tmp_path, suffix):
    # one text layout, whatever the suffix
    h = xlogx()
    s = build_frac_set(SetSpec("frac_plus", h, h, 5000))
    p = tmp_path / f"set{suffix}"
    s.save(p)
    assert p.read_text().startswith("# majorantlab set v1\n")
    back = load_set(p)
    assert np.array_equal(back.members, s.members)
    assert back.n_min == s.n_min
    assert back.spec.N == s.spec.N
    assert back.spec.kind == s.spec.kind
    assert back.borderline_count == s.borderline_count
    assert back.spec.h1.to_kv() == h.to_kv()
