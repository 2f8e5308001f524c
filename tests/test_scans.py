"""The one evaluator of Cayley-table lines and its consumers: the dense
table build, the unit scan and the Jacobson scan; and the units and J(R) of
rings by construction, which read no rows."""

import sys
import weakref
from collections import Counter, OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclean import decompositions as dec
from pclean import radicals as rad
from pclean import rings, specs
from pclean.cli import main
from pclean.errors import PcleanError
from pclean.rings import (
    _CHUNK,
    DENSE_TABLE_LIMIT,
    UNIT_SCAN_LIMIT,
    RingTable,
    _DigitKernel,
    _units_by_construction,
    build_ring,
    corner_ring,
    derived_ring,
)
from pclean.verifier import DEFAULT_CATALOG

from oracles import lane_unit_inverses, one_minus_rx_jacobson_mask
from table_kernel import corrupted_zn


def _ring(name):
    if name == "M2(Z8)|e11":  # a subset kernel: the corner ring e11 R e11
        m = build_ring("M2(Z8)")
        return corner_ring(m, m.parse_element("[1,0;0,0]").index)[0]
    return build_ring(name)


# one ring per kernel family; above DENSE_TABLE_LIMIT (1024) a ring has no
# tables, and its lines come from the digit mesh of a digit kernel or from the
# vector op on broadcast indices otherwise, while a ring with tables gathers
# its rows, and a digit kernel's mesh is read on such a ring too
PRODUCER_RINGS = [
    "Z1500",  # Zn
    "Z4099",  # Zn above DENSE_TABLE_LIMIT: the kernel's vmul
    "Z33[i]",  # QuadExt
    "M2(Z6)",  # Matrix
    "T2(Z12)",  # Triangular
    "Tc2(Z36)",  # ConstDiag
    "Z9xZ25xZ9",  # Product, uneven last chunk
    "T2(Z8)xZ9",  # Product above DENSE_TABLE_LIMIT: the digit mesh only
    "T2(Z4)xZ3",  # Product with tables: the gather and the digit mesh
    "(Z64xZ64)/([8,0])",  # Quotient
    "M2(Z8)|e11",  # Subset
]
WHOLE_TABLE_BUDGET = 2048  # orders whose every line is compared at once


@pytest.mark.parametrize("name", PRODUCER_RINGS)
def test_row_blocks_match_kernel_ops(name):
    # blocks of rows (every row, one row, index-array chunks) and columns of
    # both tables from `RingTable._lines` and `_DigitKernel.lines`
    r = _ring(name)
    n = r.order
    assert (r._mul_t is not None) == (n <= DENSE_TABLE_LIMIT)
    idx = np.arange(n, dtype=np.int64)
    rows = max(1, _CHUNK // n)
    sample = np.random.default_rng(5).integers(0, n, size=7)
    sources = [r._lines]
    if isinstance(r.kernel, _DigitKernel):  # the digit mesh, on dense rings too
        sources.append(r.kernel.lines)
    for op in ("mul", "add"):
        vop = r.kernel.vmul if op == "mul" else r.kernel.vadd

        def want(xs, col):
            return vop(idx[None, :], xs[:, None]) if col else vop(xs[:, None], idx[None, :])

        whole = {col: want(idx, col) for col in (False, True)} if n <= WHOLE_TABLE_BUDGET else {}
        for lines in sources:
            # every row, one lane-axis chunk at a time, as the unit scan reads them
            for start in range(0, n, rows):
                xs = idx[start : start + rows]
                assert np.array_equal(lines(op, xs), want(xs, False))
            for col in (False, True):
                assert np.array_equal(lines(op, sample, col), want(sample, col))
                for x in (r.zero, r.one, int(sample[0])):
                    assert np.array_equal(lines(op, x, col), want(np.array([x]), col))
                if col in whole:  # every row at once
                    assert np.array_equal(lines(op, None, col), whole[col])
        if isinstance(r.kernel, _DigitKernel):  # exact in any dtype holding order - 1
            for xs in (None, r.one, sample) if whole else (r.one, sample):
                narrow = r.kernel.lines(op, xs, dtype=np.uint16)
                assert narrow.dtype == np.uint16
                assert np.array_equal(narrow, r.kernel.lines(op, xs))


@pytest.mark.parametrize("name", PRODUCER_RINGS + ["T2(Z9[w])", "T3(Z8)"])
def test_squares_match_vmul(name):
    # the one squaring map: the dense diagonal, the digit mesh of x's digits
    # alone, or the kernel's vmul in chunks, each with vmul(x, x)'s values
    r = _ring(name) if name in PRODUCER_RINGS else build_ring(name, limit=540_000)
    r = r if r._mul_t is not None else RingTable(r.kernel, r.name)  # fresh caches
    idx = np.arange(r.order, dtype=np.int64)
    assert np.array_equal(r.squares, r.vmul(idx, idx))
    if r._mul_t is None:
        assert r.squares.dtype == np.min_scalar_type(r.order - 1)


@pytest.mark.parametrize("name", DEFAULT_CATALOG + ["T2(Z8)xZ9"])
def test_scans_match_lane_by_lane_oracles(name):
    r = build_ring(name)
    inv = lane_unit_inverses(r)
    assert np.array_equal(r.unit_inverses, inv)
    assert np.array_equal(r.unit_mask, inv >= 0)
    j = one_minus_rx_jacobson_mask(r, inv >= 0)
    assert np.array_equal(rad.jacobson_radical(r).mask, j)


@pytest.mark.parametrize(
    "name, maximal_ideal", [("Z9", ["0", "3", "6"]), ("Z3[w]", ["0", "2+w", "1+2w"])]
)
def test_m2_of_a_local_ring_of_order_9(name, maximal_ideal):
    # R local of order 9 with residue field F3: |GL2(R)| = |m|^4 |GL2(F3)| =
    # 81 * 48, and J(M2(R)) = M2(m) has 3^4 elements
    base = build_ring(name)
    r = build_ring(f"M2({name})")
    assert r.order == 6561 and r._mul_t is None
    m = np.zeros(base.order, dtype=bool)
    m[[base.parse_element(x).index for x in maximal_ideal]] = True
    units = r.unit_indices
    assert units.size == 3888
    inv = r.unit_inverses[units]
    assert np.all(r.vmul(units, inv) == r.one) and np.all(r.vmul(inv, units) == r.one)
    entries = r.kernel.digits(np.arange(r.order))
    assert np.array_equal(rad.jacobson_radical(r).mask, m[entries].all(axis=0))


def test_filled_caches_read_the_same_from_two_threads():
    # rings are single-threaded until their caches are filled (README); after
    # that, reads write nothing and agree across threads
    r = build_ring("M2(Z4)")

    def read():
        return (
            r.unit_inverses.tobytes(),
            r.unit_indices.tobytes(),
            rad.jacobson_radical(r).mask.tobytes(),
            rad.prime_radical(r).mask.tobytes(),
            rad.nilpotent_mask(r).tobytes(),
            tuple(fn(r) for fn in dec.RING_VERDICTS.values()),
        )

    want = read()
    keys = set(r.cache)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = [f.result(timeout=60) for f in [pool.submit(read) for _ in range(16)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(g == want for g in got)
    assert set(r.cache) == keys


def _assert_scans_match_oracles(r):
    inv = lane_unit_inverses(r)
    assert np.array_equal(r.unit_inverses, inv)
    assert np.array_equal(rad.jacobson_radical(r).mask, one_minus_rx_jacobson_mask(r, inv >= 0))


ORDER_BUDGET = 2048  # small enough for the lane-by-lane oracles


@st.composite
def by_construction_specs(draw, budget=ORDER_BUDGET, commutative=False):
    """(spec, order) of a ring by construction of order <= budget: Z_n, the
    Z_n[i] and M2(Z2) leaves, T_k and Tc_k over Z_n, products, and M2 over
    commutative bases (only Z_n, Z_n[i] and their products when
    `commutative`)."""
    kinds = ["Zn"]
    if budget >= 4:
        kinds += ["Zn[i]", "product"]
    if not commutative and budget >= 8:
        kinds += ["T", "Tc"]
    if not commutative and budget >= 16:
        kinds += ["M2(Z2)", "M2"]
    kind = draw(st.sampled_from(kinds))
    if kind == "Zn":
        n = draw(st.integers(2, min(budget, 64)))
        return f"Z{n}", n
    if kind == "Zn[i]":
        n = draw(st.integers(2, min(int(budget**0.5), 16)))
        return f"Z{n}[i]", n * n
    if kind == "product":
        a, na = draw(by_construction_specs(budget // 2, commutative))
        b, nb = draw(by_construction_specs(budget // na, commutative))
        return f"{a}x{b}", na * nb
    if kind == "M2(Z2)":
        return "M2(Z2)", 16
    if kind == "M2":
        base, nb = draw(by_construction_specs(int(budget**0.25), commutative=True))
        return f"M2({base})", nb**4
    family = kind
    fits = [(k, n) for k in (2, 3) for n in range(2, 17) if n ** _npos(family, k) <= budget]
    k, n = draw(st.sampled_from(fits))
    return f"{family}{k}(Z{n})", n ** _npos(family, k)


def _npos(family, k):
    return len(set(specs.positions(family, k).values()))


@settings(max_examples=40)
@given(by_construction_specs())
def test_units_and_jacobson_by_construction_match_the_oracles(spec):
    name, order = spec
    r = build_ring(name)
    assert r.order == order <= min(ORDER_BUDGET, UNIT_SCAN_LIMIT) and r.by_construction
    _assert_scans_match_oracles(r)


# rings above ORDER_BUDGET, checked above against the lane-by-lane oracles
# (T2(Z8)xZ9) or against |GL2| and J(M2(R)) = M2(m) (the order-9 bases)
@pytest.mark.parametrize("name", ["M2(Z9)", "M2(Z3[w])", "T2(Z8)xZ9"])
def test_rings_by_construction_take_the_rule(name):
    assert _units_by_construction(build_ring(name)) is not None


@pytest.mark.parametrize("name", ["M2(T2(Z2))", "Z5[i]", "Z8[i]/(2)", "M2(Z8)|e11", "M3(Z2)"])
def test_rings_without_a_rule_keep_the_scan(name):
    r = _ring(name)
    assert _units_by_construction(r) is None
    _assert_scans_match_oracles(r)


@pytest.mark.parametrize("family", ["T", "M"])
@pytest.mark.parametrize("case", [(3, 0, 2, 1), (4, 2, 2, 1)])
def test_rings_over_a_corrupted_table_keep_the_scan(family, case):
    n, row, col, val = case
    base = corrupted_zn(row, col, val, f"Z{n}mul{row}{col}{val}", n)
    r = derived_ring(family, 2, base)
    _assert_scans_match_oracles(r)
    assert not r.by_construction and _units_by_construction(r) is None


@pytest.mark.parametrize("name", ["M2(Z9)", "T2(Z4)", "Z12"])
@pytest.mark.parametrize("wrong", ["a non-unit", "no units"])
def test_a_rule_naming_a_non_unit_raises_a_typed_error(monkeypatch, name, wrong):
    r = build_ring(name)
    mask = _units_by_construction(r).copy()
    if wrong == "a non-unit":
        mask[r.zero] = True
    else:
        mask[:] = False
    monkeypatch.setattr(rings, "_units_by_construction", lambda ring: mask)
    fresh = RingTable(r.kernel, name)
    with pytest.raises(PcleanError, match="no inverse"):
        fresh.unit_inverses


@pytest.mark.parametrize(
    "name, literal", [("M2(Z9)", "[1,3;2,7]"), ("T2(Z4[i])", "[1+i,2;0,3]")]
)
def test_element_analyze_reads_no_rows_of_a_ring_by_construction(
    monkeypatch, capsys, name, literal
):
    # a fresh registry, so the queried ring and its caches are built here
    monkeypatch.setattr(rings, "_LIVE_RINGS", weakref.WeakValueDictionary())
    monkeypatch.setattr(rings, "_RING_CACHE", OrderedDict())
    calls, lines = Counter(), RingTable._lines

    def counted(self, op, xs=None, col=False):
        if not isinstance(xs, (int, np.integer)):  # more than one row
            calls[self.name] += 1
        return lines(self, op, xs, col)

    monkeypatch.setattr(RingTable, "_lines", counted)
    assert main(["element", "analyze", name, literal, "--json"]) == 0
    assert '"unit"' in capsys.readouterr().out
    cache = rings._LIVE_RINGS[name].cache
    assert calls[name] == 0 and {"unit_inverses", "jacobson_ideal"} <= set(cache)
