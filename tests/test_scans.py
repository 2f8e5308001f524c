"""The row-block producer of the Cayley tables and its consumers: the dense
table build, the unit scan and the Jacobson scan."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pclean import decompositions as dec
from pclean import radicals as rad
from pclean.rings import (
    _CHUNK,
    DENSE_TABLE_LIMIT,
    _DigitKernel,
    build_ring,
    corner_ring,
)
from pclean.verifier import DEFAULT_CATALOG

from oracles import lane_unit_inverses, one_minus_rx_jacobson_mask


def _ring(name):
    if name == "M2(Z8)|e11":  # a subset kernel: the corner ring e11 R e11
        m = build_ring("M2(Z8)")
        return corner_ring(m, m.parse_element("[1,0;0,0]").index)[0]
    return build_ring(name)


# one ring per kernel family; above DENSE_TABLE_LIMIT (1024) a ring has no
# tables and several row blocks (mesh blocks of a digit kernel, chunks of the
# vector op otherwise), while a ring with tables yields one slice of them, and
# a digit kernel's mesh blocks are read on such a ring too
PRODUCER_RINGS = [
    "Z1500",  # Zn
    "Z4099",  # Zn above DENSE_TABLE_LIMIT: chunks of the kernel's vmul
    "Z33[i]",  # QuadExt
    "M2(Z6)",  # Matrix, mesh blocks of a partial digit run
    "T2(Z12)",  # Triangular
    "Tc2(Z36)",  # ConstDiag
    "Z9xZ25xZ9",  # Product, uneven last block
    "T2(Z8)xZ9",  # Product above DENSE_TABLE_LIMIT: mesh blocks only
    "T2(Z4)xZ3",  # Product with tables: the slice and the mesh blocks
    "(Z64xZ64)/([8,0])",  # Quotient
    "M2(Z8)|e11",  # Subset
]


@pytest.mark.parametrize("name", PRODUCER_RINGS)
def test_row_blocks_match_kernel_ops(name):
    r = _ring(name)
    n = r.order
    assert (r._mul_t is not None) == (n <= DENSE_TABLE_LIMIT)
    idx = np.arange(n, dtype=np.int64)
    sources = [("mul", r.row_blocks()), ("add", r.row_blocks("add"))]
    if r._mul_t is not None and isinstance(r.kernel, _DigitKernel):
        sources += [("mul", r.kernel.row_blocks("mul")), ("add", r.kernel.row_blocks("add"))]
    for op, blocks in sources:
        vop = r.kernel.vmul if op == "mul" else r.kernel.vadd
        covered = 0
        for start, stop, block in blocks:
            assert start == covered < stop  # ascending, contiguous rows
            assert block.shape == (stop - start, n) and block.size <= max(n, _CHUNK)
            assert np.array_equal(block, vop(idx[start:stop, None], idx[None, :]))
            covered = stop
        assert covered == n


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
