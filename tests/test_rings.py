import numpy as np
import pytest

from pclean.errors import MalformedSpec, MixedRingOperands, OrderLimitExceeded, PcleanError
from pclean.rings import (
    MatrixKernel,
    ProductKernel,
    RingTable,
    ZnKernel,
    _DigitKernel,
    build_ring,
    corner_ring,
    quotient_ring,
)
from pclean.verifier import DEFAULT_CATALOG

from oracles import (
    all_matrices,
    check_axioms,
    divmod_digits,
    idempotents_of,
    inverse_oracle,
    mat_mul,
    quad_mul,
    units_zn,
)
from table_kernel import TableKernel

SMALL_CATALOG = [n for n in DEFAULT_CATALOG]


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_ring_axioms(name):
    check_axioms(build_ring(name), full_limit=300)


def test_axioms_sampled_on_table_sized_ring():
    check_axioms(build_ring("M2(Z8)"), full_limit=64, samples=20000)


@pytest.mark.parametrize(
    "name,order",
    [("Z4xZ2", 8), ("M2(Z4)", 256), ("T2(Z4)", 64), ("T3(Z2)", 64), ("Tc2(Z4)", 16)],
)
def test_order_formulas(name, order):
    assert build_ring(name).order == order


def test_units_z4_against_oracle():
    r = build_ring("Z4")
    assert {int(u) for u in r.unit_indices} == units_zn(4) == {1, 3}


def test_units_z8():
    r = build_ring("Z8")
    assert {int(u) for u in r.unit_indices} == {1, 3, 5, 7}


def test_idempotents_m2z2_against_oracle():
    oracle = idempotents_of(list(all_matrices(2)), lambda a, b: mat_mul(a, b, 2))
    assert len(oracle) == 8
    r = build_ring("M2(Z2)")
    assert r.idempotent_indices.size == 8


def test_idempotents_t2z2_against_oracle():
    # squaring all 8 elements yields 6 idempotents, 2 of them central
    tri = [((a, b), (0, c)) for a in range(2) for b in range(2) for c in range(2)]
    oracle = idempotents_of(tri, lambda a, b: mat_mul(a, b, 2))
    assert len(oracle) == 6
    r = build_ring("T2(Z2)")
    assert r.idempotent_indices.size == 6
    idx = np.arange(r.order)
    central = [
        e
        for e in r.idempotent_indices
        if np.array_equal(r.vmul(np.int64(e), idx), r.vmul(idx, np.int64(e)))
    ]
    assert len(central) == 2


def test_gaussian_mod2_square_of_one_plus_i():
    r = build_ring("Z2[i]")
    assert r.order == 4
    x = r.parse_element("1+i")
    assert (x * x).index == r.zero


def test_commutativity_flags():
    assert build_ring("Z8").commutative
    assert build_ring("Tc2(Z4)").commutative
    assert not build_ring("T2(Z2)").commutative
    assert not build_ring("M2(Z2)").commutative


def test_triangular_noncommutativity_witness():
    r = build_ring("T2(Z2)")
    e11 = r.parse_element("[1,0;0,0]")
    e12 = r.parse_element("[0,1;0,0]")
    assert e11 * e12 != e12 * e11


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_element_print_parse_round_trip(name):
    r = build_ring(name)
    for i in range(r.order):
        assert r.parse_element(r.fmt_index(i)).index == i


def test_parse_rejects_trailing_and_reports_offset():
    r = build_ring("Z8[i]")
    with pytest.raises(MalformedSpec) as exc:
        r.parse_element("1+i junk")
    assert exc.value.offset is not None


@pytest.mark.parametrize(
    "name, text", [("Z4", "\u00b2"), ("Z8[i]", "1+\u00b2i"), ("M2(Z4)", "[1,\u00b2;0,1]")]
)
def test_superscript_digits_are_a_malformed_literal(name, text):
    # str.isdigit() accepts "\u00b2" (superscript two), which int() rejects
    with pytest.raises(MalformedSpec):
        build_ring(name).parse_element(text)


def test_negative_coefficients_parse():
    r = build_ring("Z8[i]")
    assert r.parse_element("-1-i") == r.parse_element("7+7i")


def test_mixed_ring_operands_rejected():
    a = build_ring("Z4").element(1)
    b = build_ring("Z8").element(1)
    with pytest.raises(MixedRingOperands):
        a + b


def test_build_is_deterministic():
    import pclean.rings as rings

    z2 = build_ring("Z2")
    r1 = rings.RingTable(rings.MatrixKernel(2, z2), "M2(Z2)")
    r2 = rings.RingTable(rings.MatrixKernel(2, z2), "M2(Z2)")
    assert np.array_equal(r1._add_t, r2._add_t) and np.array_equal(r1._mul_t, r2._mul_t)


def test_matrix_spec_and_matrix_ring_are_one_object():
    from pclean.matrices import matrix_ring

    assert build_ring("M2(Z4)") is matrix_ring(build_ring("Z4"))


def test_triangular_spec_and_triangular_ring_are_one_object():
    from pclean.matrices import triangular_ring

    assert build_ring("T2(Z4[i])") is triangular_ring(build_ring("Z4[i]"))


def test_elements_of_one_matrix_ring_combine_across_constructors():
    from pclean.matrices import matrix_ring

    a = build_ring("M2(Z2)").element(5)
    b = matrix_ring(build_ring("Z2")).element(3)
    assert (a + b).index == build_ring("M2(Z2)").add(5, 3)


def test_live_ring_survives_cache_eviction():
    import pclean.rings as rings

    m2 = build_ring("M2(Z4)")
    rings._clear_ring_cache()
    assert build_ring("Z4") is m2.kernel.base
    assert build_ring("M2(Z4)") is m2


def test_evicted_derived_ring_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    import pclean.rings as rings

    gc.collect()
    gc.disable()
    try:
        m2 = build_ring("M2(Z3)")
        refs = [weakref.ref(m2), weakref.ref(m2.kernel.base)]
        del m2
        rings._clear_ring_cache()
        assert [ref() for ref in refs] == [None, None]
        assert "M2(Z3)" not in rings._LIVE_RINGS and "Z3" not in rings._LIVE_RINGS
    finally:
        gc.enable()


def test_ring_lru_keeps_the_element_query_rings_without_rebuilding(monkeypatch):
    # the rings warm element and matrix queries cycle through carry 129 MB of
    # tables (M2(Z8) and T2(Z4[i]) 64 MB each); with two other order-4096
    # rings held first, the byte budget must evict those, never this set
    import pclean.rings as rings
    from pclean.matrices import matrix_ring, triangular_ring

    built = []
    build_tables = RingTable._build_tables

    def counting(self):
        built.append(self.name)
        build_tables(self)

    monkeypatch.setattr(RingTable, "_build_tables", counting)
    rings._clear_ring_cache()
    for spec in ("M2(Z4xZ2)", "T2(Z16)"):
        build_ring(spec)

    def one_round():
        for spec in ("M2(Z4)", "T2(Z4[i])", "M2(Z9)"):
            build_ring(spec)
        for base in ("Z8", "Z4[i]"):
            matrix_ring(build_ring(base)), triangular_ring(build_ring(base))

    one_round()
    assert {"M2(Z8)", "T2(Z4[i])"} <= set(built)
    built.clear()
    one_round()
    assert built == []


def test_ring_lru_bounds_held_table_bytes_during_the_suite(monkeypatch):
    import pclean.rings as rings
    from pclean.verifier import run_suite

    hold = rings._hold
    big = set()  # names of the order-4096 rings handed out

    def checked_hold(ring):
        before = list(rings._RING_CACHE.values())
        hold(ring)
        held = list(rings._RING_CACHE.values())
        assert held[-1] is ring
        table_bytes = sum(rings._table_bytes(r) for r in held)
        assert table_bytes == rings._held_bytes <= rings._RING_CACHE_BYTES
        gone = [r for r in before if all(r is not h for h in held)]
        for r in gone:
            if rings._table_bytes(r) == 0:  # only the count cap evicts these
                assert r is before[0] and len(before) == rings._RING_CACHE_MAX
        if ring.order == 4096:
            big.add(ring.name)
        return ring

    monkeypatch.setattr(rings, "_hold", checked_hold)
    rings._clear_ring_cache()
    build_ring("Z8192")  # table-less, so the oldest ring is one without tables
    report = run_suite(["Z8", "Z4xZ2", "T2(Z2)", "Z4[i]"])
    assert report.summary["COUNTEREXAMPLE"] == 0
    # four 64 MB rings overflow the 192 MB budget if none is evicted
    assert len(big) >= 4 and 4 * (64 << 20) > rings._RING_CACHE_BYTES


@pytest.mark.parametrize(
    "name, dtype",
    [("T2(Z9[w])", np.uint8), ("T2(Z8)xZ9", np.uint16), ("T2(Z64)xZ2", np.uint32)],
)
def test_digit_table_matches_divmod_codec(name, dtype):
    # largest radix 81, 512 and 262144: one table dtype each
    r = build_ring(name, limit=540_000)
    k = r.kernel
    rng = np.random.default_rng(5)
    flat = rng.integers(0, r.order, size=1000)
    for a in (flat, flat.reshape(40, 25), np.int64(r.order - 1), np.array(7), r.order // 3):
        got = k.digits(a)
        assert np.shape(got) == (k.npos,) + np.shape(a)
        assert np.array_equal(got, divmod_digits(k.radices, a))
        assert np.array_equal(k.encode(got), a)
    assert k._digit_table.dtype == dtype
    assert k._digit_table.shape == (k.npos, r.order)


@pytest.mark.parametrize(
    "name", ["M2(Z9)", "Tc3(Z9)", "T2(Z9[w])", "Z128[i]", "M2(Z9)xZ2"]
)
def test_scalar_ops_without_tables_are_one_vector_lane(name):
    # scalar ops run the digit formulas through the one-element codec,
    # vector ops through the digit table
    r = build_ring(name, limit=540_000)
    assert r._add_t is None
    a, b = (v.tolist() for v in np.random.default_rng(7).integers(0, r.order, size=(2, 300)))
    assert [r.add(x, y) for x, y in zip(a, b)] == r.vadd(a, b).tolist()
    assert [r.mul(x, y) for x, y in zip(a, b)] == r.vmul(a, b).tolist()
    assert [r.sub(x, y) for x, y in zip(a, b)] == r.vsub(a, b).tolist()
    assert [r.neg(x) for x in a] == r.vneg(a).tolist()
    assert [r.parse_element(r.fmt_index(x)).index for x in a] == a


def test_one_element_codec_builds_no_digit_table():
    # M2(Z9[w]) has order 81^4: a digit table would take 164 MB
    base = build_ring("Z9[w]")
    r = RingTable(MatrixKernel(2, base), "M2(Z9[w])")
    x, y = 12_345_678, 40_000_000
    (a, b, c, d), (e, f, g, h) = divmod_digits([81] * 4, np.array([x, y])).T.tolist()
    want = [
        base.add(base.mul(a, e), base.mul(b, g)), base.add(base.mul(a, f), base.mul(b, h)),
        base.add(base.mul(c, e), base.mul(d, g)), base.add(base.mul(c, f), base.mul(d, h)),
    ]
    assert divmod_digits([81] * 4, np.array([r.mul(x, y)]))[:, 0].tolist() == want
    assert r.add(r.neg(x), x) == r.zero and r.sub(y, y) == r.zero
    assert r.parse_element(r.fmt_index(x)).index == x
    assert r.kernel._digit_table is None
    # a product reaches its table-less M2(Z9) part through the part's own
    # scalar ops, so one lane builds no digit table there either
    m2 = RingTable(MatrixKernel(2, build_ring("Z9")), "M2(Z9)")
    r = RingTable(ProductKernel([m2, build_ring("Z2")]), "M2(Z9)xZ2")
    a, b = np.random.default_rng(3).integers(0, r.order, size=(2, 50)).tolist()
    lanes = [
        [r.add(x, y) for x, y in zip(a, b)],
        [r.mul(x, y) for x, y in zip(a, b)],
        [r.neg(x) for x in a],
    ]
    assert [r.parse_element(r.fmt_index(x)).index for x in a] == a
    assert m2.kernel._digit_table is None
    assert lanes == [r.vadd(a, b).tolist(), r.vmul(a, b).tolist(), r.vneg(a).tolist()]


@pytest.mark.parametrize("name", ["T2(Z8)xZ9", "T2(Z64)xZ2"])
def test_product_ops_act_part_by_part(name):
    # parts with a table (T2(Z8), Z9, Z2) and without one (T2(Z64))
    r = build_ring(name, limit=540_000)
    parts, radices = r.kernel.parts, r.kernel.radices
    weights = [int(np.prod(radices[j + 1 :])) for j in range(len(radices))]
    rng = np.random.default_rng(9)
    a, b = rng.integers(0, r.order, size=(2, 3000))
    da, db = divmod_digits(radices, a), divmod_digits(radices, b)
    for op in ("vadd", "vmul"):
        want = sum(w * getattr(p, op)(x, y) for w, p, x, y in zip(weights, parts, da, db))
        assert np.array_equal(getattr(r, op)(a, b), want)


def test_order_limit_enforced():
    with pytest.raises(OrderLimitExceeded):
        build_ring("M2(M2(Z4))")  # order 4^16
    with pytest.raises(OrderLimitExceeded):
        build_ring("T2(Z9[w])")  # 531441 > default
    build_ring("T2(Z9[w])", limit=540_000)  # explicit limit admits it


def test_quotients_match_known_orders():
    assert build_ring("Z4/(2)").order == 2
    assert build_ring("Z4[i]/(1+i)").order == 2
    q = build_ring("T2(Z2)/([0,1;0,0])")
    assert q.order == 4 and q.commutative
    assert q.idempotent_indices.size == 4  # Boolean, so isomorphic to Z2 x Z2


def test_quotient_projection_is_ring_hom():
    for name, gens in [("Z8", ["4"]), ("Z4[i]", ["1+i"]), ("T2(Z4)", ["[0,1;0,0]"])]:
        r = build_ring(name)
        q, proj = quotient_ring(r, [r.parse_element(g) for g in gens])
        assert q.order > 1 and r.order % q.order == 0
        idx = np.arange(r.order, dtype=np.int64)
        pairs_a = np.repeat(idx, r.order)
        pairs_b = np.tile(idx, r.order)
        assert np.array_equal(proj[r.vadd(pairs_a, pairs_b)], q.vadd(proj[pairs_a], proj[pairs_b]))
        assert np.array_equal(proj[r.vmul(pairs_a, pairs_b)], q.vmul(proj[pairs_a], proj[pairs_b]))
        assert proj[r.one] == q.one and proj[r.zero] == q.zero
        assert sorted(set(proj.tolist())) == list(range(q.order))  # surjective


def test_quotient_by_unit_collapses():
    r = build_ring("Z4")
    with pytest.raises(MalformedSpec):
        quotient_ring(r, [r.element(1)])


def test_corner_ring_of_matrix_idempotent():
    r = build_ring("M2(Z4)")
    e11 = r.parse_element("[1,0;0,0]").index
    corner, members = corner_ring(r, e11)
    assert corner.order == 4  # e11 M2(Z4) e11 is a copy of Z4
    check_axioms(corner)


def test_structured_ring_matches_table_ring():
    # identical observable behavior on either side of the dense-table limit
    import pclean.rings as rings

    r = build_ring("M2(Z4)")
    kernel = rings.MatrixKernel(2, build_ring("Z4"))
    rng = np.random.default_rng(7)
    a = rng.integers(0, r.order, size=2000)
    b = rng.integers(0, r.order, size=2000)
    assert np.array_equal(r.vadd(a, b), kernel.vadd(a, b))
    assert np.array_equal(r.vmul(a, b), kernel.vmul(a, b))
    assert np.array_equal(r.vneg(a), kernel.vneg(a))


def test_embed_int_characteristic_safe():
    r = build_ring("Z8[i]")
    assert r.embed_int(8) == r.zero
    assert r.embed_int(3) == r.parse_element("3").index
    assert r.embed_int(-1) == r.neg(r.one)


def test_size_one_matrix_families_degenerate_to_base():
    for name in ("M1(Z4)", "T1(Z4)", "Tc1(Z4)"):
        r = build_ring(name)
        assert r.order == 4
        check_axioms(r)
        assert r.commutative
        assert {int(u) for u in r.unit_indices} == {
            r.parse_element("[1]").index,
            r.parse_element("[3]").index,
        }


@pytest.mark.parametrize(
    "name",
    [
        "M2(Z8)",
        "T2(Z16)",
        "T3(Z4)",
        "Tc2(Z64)",
        "Tc3(Z8)",
        "Z64xZ64",
        "M2(T2(Z2))",  # non-commutative base
        "M2(Z4/(2))",  # quotient base
        "T2(Z4xZ2)",
        "Z4x(Z2xZ3)",  # nested product
        "T2(Z4[i])",
        "Z9xZ25xZ9",  # mixed radices, uneven last row block
        "T1(M2(Z8))",  # a single digit split into row blocks
    ],
)
def test_dense_tables_match_kernel_ops(name):
    # the tables are filled on a digit mesh; the kernel ops run on coordinates
    r = build_ring(name)
    n = r.order
    idx = np.arange(n, dtype=np.int64)
    if n <= 1024:
        starts = [0]
        rows = n
    else:
        rows = 16
        starts = np.linspace(0, n - rows, 9).astype(np.int64)
    for s in starts:
        block = idx[s : s + rows, None]
        assert np.array_equal(r._add_t[s : s + rows], r.kernel.vadd(block, idx[None, :]))
        assert np.array_equal(r._mul_t[s : s + rows], r.kernel.vmul(block, idx[None, :]))
    assert np.array_equal(r._neg_t, r.kernel.vneg(idx))


@pytest.mark.parametrize(
    "name, n, c0, c1",
    [("Z8[i]", 8, -1, 0), ("Z9[w]", 9, -1, -1), ("Z65[i]", 65, -1, 0)],
)
def test_quadratic_extension_ops_match_integer_arithmetic(name, n, c0, c1):
    # a + bt has index a*n + b; the oracle works on the integer pairs (a, b)
    r = build_ring(name)
    pair, index = (lambda i: divmod(i, n)), (lambda p: p[0] * n + p[1])
    mul = lambda i, j: index(quad_mul(pair(i), pair(j), n, c0, c1))
    add = lambda i, j: index(((pair(i)[0] + pair(j)[0]) % n, (pair(i)[1] + pair(j)[1]) % n))
    x, y = np.random.default_rng(5).integers(0, r.order, size=(2, 3000))
    for ops in (r, r.kernel):  # the tables (when dense) and the digit formulas
        assert ops.vmul(x, y).tolist() == [mul(i, j) for i, j in zip(x.tolist(), y.tolist())]
        assert ops.vadd(x, y).tolist() == [add(i, j) for i, j in zip(x.tolist(), y.tolist())]
        assert ops.vneg(x).tolist() == [index((-a % n, -b % n)) for a, b in map(pair, x.tolist())]
    for i in (r.one, int(x[0])):
        assert r.mul_row(i).tolist() == [mul(i, j) for j in range(r.order)]
        assert r.mul_col(i).tolist() == [mul(j, i) for j in range(r.order)]


@pytest.mark.parametrize(
    "name, k, n", [("M3(Z2)", 3, 2), ("T3(Z3)", 3, 3), ("Tc3(Z4)", 3, 4), ("Tc4(Z2)", 4, 2)]
)
def test_k_by_k_family_products_match_the_matrix_oracle(name, k, n):
    # the oracle multiplies the printed matrices as tuples of plain integers
    r = build_ring(name)
    rows = lambda i: r.fmt_index(i)[1:-1].split(";")
    mat = lambda i: tuple(tuple(int(e) for e in row.split(",")) for row in rows(i))
    assert mat(r.one) == tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    x, y = np.random.default_rng(11).integers(0, r.order, size=(2, 500))
    want = [mat_mul(mat(i), mat(j), n, k) for i, j in zip(x.tolist(), y.tolist())]
    for ops in (r, r.kernel):  # the tables (when dense) and the digit formulas
        assert [mat(p) for p in ops.vmul(x, y).tolist()] == want
    row = r.kernel.mul_line(int(x[0]))  # the digit formulas on the open mesh
    assert [mat(p) for p in row.tolist()] == [
        mat_mul(mat(int(x[0])), mat(j), n, k) for j in range(r.order)
    ]


def test_commutativity_cross_check_raises_on_tampered_table():
    r = RingTable(ZnKernel(4), "Z4")
    r._mul_t = r._mul_t.copy()
    r._mul_t[2, 3] = 0  # 2 * 3 = 2 in Z4; 3 * 2 stays 2
    with pytest.raises(PcleanError, match="disagrees with the table"):
        r.commutative


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_inverse_matches_brute_force(name):
    r = build_ring(name)
    for x in range(r.order):
        assert r.inverse(x) == inverse_oracle(r, x), r.fmt_index(x)
    assert np.array_equal(r.unit_inverses >= 0, r.unit_mask)


def test_inverse_above_the_unit_scan_limit():
    r = build_ring("T2(Z32)")  # order 32768: inverses by scanning, no table
    u = r.parse_element("[3,1;0,5]").index
    v = r.inverse(u)
    assert r.mul(u, v) == r.one == r.mul(v, u)
    assert r.inverse(r.parse_element("[2,1;0,1]").index) is None
    assert "unit_inverses" not in r.cache


@pytest.mark.parametrize("name", ["Z9", "Z4[i]", "T2(Z4)", "M2(Z2)", "M2(Z4)", "Tc2(Z4)", "Z4xZ2"])
def test_unit_generators_generate_the_unit_group(name):
    # the products of the picks, grown one scalar product at a time
    r = build_ring(name)
    gens = r.unit_generators
    group, frontier = {r.one}, [r.one]
    while frontier:
        frontier = [p for p in {r.mul(g, s) for g in frontier for s in gens} if p not in group]
        group.update(frontier)
    assert group == set(r.unit_indices.tolist())
    assert len(gens) <= 8


def _line_ring(name: str) -> RingTable:
    if name == "corner":  # a subset ring: e11 M2(Z4[i]) e11
        m2 = build_ring("M2(Z4[i])")
        return corner_ring(m2, m2.parse_element("[1,0;0,0]").index)[0]
    if name == "tables":  # a ring known only by its tables, non-commutative
        m2 = build_ring("M2(Z2)")
        return RingTable(TableKernel(m2._add_t, m2._mul_t, m2.zero, m2.one), "tables")
    return build_ring(name, limit=1 << 20)


@pytest.mark.parametrize(
    "name, dense",
    [
        ("Z8", True),
        ("Z4[i]", True),
        ("M2(Z4)", True),
        ("M2(Z9)", False),
        ("T2(Z9[w])", False),
        ("Tc3(Z4)", True),
        ("M2(Z9)xZ2", False),  # a product over a factor without tables
        ("Z9[w]xM2(Z4)", False),  # a product without tables over factors with them
        ("Z4/(2)", True),
        ("corner", True),
        ("tables", True),
        ("Z16384", False),
        ("Z65[i]", False),  # Z_n[t] above DENSE_TABLE_LIMIT: the digit mesh
    ],
)
def test_mul_row_and_col_match_vmul(name, dense):
    r = _line_ring(name)
    assert (r._mul_t is not None) == dense
    idx = np.arange(r.order, dtype=np.int64)
    rng = np.random.default_rng(13)
    for x in [r.zero, r.one, *rng.integers(0, r.order, size=6).tolist()]:
        row, col = r.mul_row(x), r.mul_col(x)
        assert row.dtype == col.dtype == np.int64
        assert np.array_equal(row, r.vmul(np.int64(x), idx)), x
        assert np.array_equal(col, r.vmul(idx, np.int64(x))), x
        if isinstance(r.kernel, _DigitKernel):  # the digit mesh, on dense rings too
            assert np.array_equal(r.kernel.mul_line(x), row), x
            assert np.array_equal(r.kernel.mul_line(x, col=True), col), x
