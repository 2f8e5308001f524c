import gc
import time
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pclean import decompositions as dec
from pclean import radicals as rad
from pclean.errors import PcleanError, RadicalNotIdeal
from pclean.rings import ProductKernel, RingTable, additive_closure_mask, build_ring, corner_ring
from pclean.verifier import DEFAULT_CATALOG, IDEAL_ENUM_LIMIT, MASK_BUDGET, _quotient_table, enumerate_ideals

from oracles import (
    all_units_by_powers,
    coset_walk_prime_radical,
    descent_strongly_nilpotent_mask,
    gauss_add,
    ideal_generated,
    ideal_nilpotency,
    memberwise_certified_basis,
    order_powers,
    quad_mul,
    repeated_squaring_nilpotent_mask,
    row_column_central,
    two_sided_ideal,
    walk_nilpotency,
)
from table_kernel import corrupted


def test_ideal_generated_z4():
    r = build_ring("Z4")
    ideal = ideal_generated(r, [2])
    assert sorted(ideal.indices.tolist()) == [0, 2]


def test_ideal_generated_simple_matrix_ring():
    r = build_ring("M2(Z2)")
    e12 = r.parse_element("[0,1;0,0]").index
    ideal = ideal_generated(r, [e12])
    assert ideal.order == 16  # M2(Z2) is simple


def test_ideal_generated_gaussian_against_oracle():
    n = 4
    elements = [(a, b) for a in range(n) for b in range(n)]
    oracle = two_sided_ideal(
        [(1, 1)],
        elements,
        lambda x, y: quad_mul(x, y, n),
        lambda x, y: gauss_add(x, y, n),
        (0, 0),
    )
    assert len(oracle) == 8
    assert all((a - b) % 2 == 0 for a, b in oracle)

    r = build_ring("Z4[i]")
    ideal = ideal_generated(r, [r.parse_element("1+i").index])
    got = {(int(i) // n, int(i) % n) for i in ideal.indices}
    assert got == oracle


def test_nilpotency_indexes():
    z4 = build_ring("Z4")
    assert rad.nilpotency_index(ideal_generated(z4, [2])) == 2

    g4 = build_ring("Z4[i]")
    ideal = ideal_generated(g4, [g4.parse_element("1+i").index])
    assert rad.nilpotency_index(ideal) == 4
    n = 4
    elements = [(a, b) for a in range(n) for b in range(n)]
    oracle_ideal = two_sided_ideal(
        [(1, 1)], elements, lambda x, y: quad_mul(x, y, n),
        lambda x, y: gauss_add(x, y, n), (0, 0),
    )
    assert ideal_nilpotency(
        oracle_ideal, lambda x, y: quad_mul(x, y, n),
        lambda x, y: gauss_add(x, y, n), (0, 0),
    ) == 4

    m2 = build_ring("M2(Z2)")
    whole = ideal_generated(m2, [m2.parse_element("[0,1;0,0]").index])
    assert rad.nilpotency_index(whole) is None


@pytest.mark.parametrize(
    "name, gen", [("Z64", "2"), ("T2(Z8)", "[2,1;0,2]"), ("M2(Z2)", "[0,1;0,0]")]
)
def test_ideal_powers_compute_one_basis(monkeypatch, name, gen):
    r = build_ring(name)
    mask = ideal_generated(r, [r.parse_element(gen).index]).mask
    want = [mask]  # I^(k+1) = I * I^k, each product from two fresh bases
    while True:
        nxt = rad.ideal_product_mask(r, mask, want[-1])
        if np.array_equal(nxt, want[-1]):
            break
        want.append(nxt)
    calls = []
    real = rad.subgroup_basis
    monkeypatch.setattr(rad, "subgroup_basis", lambda *a: calls.append(a) or real(*a))
    got = list(rad.ideal_powers(r, mask))
    assert len(got) == len(want) and all(map(np.array_equal, got, want))
    assert len(calls) == 1


def test_strongly_nilpotent_examples():
    z4 = build_ring("Z4")
    assert rad.is_strongly_nilpotent(z4, 2) == (True, 2)
    m2 = build_ring("M2(Z2)")
    e12 = m2.parse_element("[0,1;0,0]").index
    ok, idx = rad.is_strongly_nilpotent(m2, e12)
    assert not ok and idx is None
    assert rad.element_nilpotency(m2, e12) == 2  # nilpotent yet not strongly
    z6 = build_ring("Z6")
    assert rad.is_strongly_nilpotent(z6, 2) == (False, None)


def test_prime_radical_values():
    z8 = build_ring("Z8")
    assert sorted(rad.prime_radical(z8).indices.tolist()) == [0, 2, 4, 6]
    g4 = build_ring("Z4[i]")
    p = rad.prime_radical(g4)
    assert p.order == 8
    assert p == ideal_generated(g4, [g4.parse_element("1+i").index])
    m2 = build_ring("M2(Z2)")
    assert rad.prime_radical(m2).order == 1


def test_prime_radical_eisenstein():
    e9 = build_ring("Z9[w]")
    p = rad.prime_radical(e9)
    assert p.order == 27
    assert p == ideal_generated(e9, [e9.parse_element("1-w").index])
    # membership rule: a + b*w lies in (1-w) iff a + b = 0 mod 3
    for i in map(int, np.arange(e9.order)):
        a, b = i // 9, i % 9
        assert p.mask[i] == ((a + b) % 3 == 0)


def test_jacobson_values():
    z4 = build_ring("Z4")
    assert sorted(rad.jacobson_radical(z4).indices.tolist()) == [0, 2]
    z6 = build_ring("Z6")
    assert rad.jacobson_radical(z6).order == 1
    t2 = build_ring("T2(Z2)")
    j = rad.jacobson_radical(t2)
    assert {t2.fmt_index(int(i)) for i in j.indices} == {"[0,0;0,0]", "[0,1;0,0]"}


def test_jacobson_oracle_t2z2():
    # x in J iff 1 - rx is invertible for every r; invertible in T2(F2)
    # means both diagonal entries are 1
    from oracles import all_triangular, mat_mul, mat_sub

    tri = list(all_triangular(2))
    ident = ((1, 0), (0, 1))

    def invertible(m):
        return m[0][0] == 1 and m[1][1] == 1

    oracle = {
        x
        for x in tri
        if all(invertible(mat_sub(ident, mat_mul(r, x, 2), 2)) for r in tri)
    }
    assert oracle == {((0, 0), (0, 0)), ((0, 1), (0, 0))}


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_prime_inside_jacobson(name):
    r = build_ring(name)
    p, j = rad.prime_radical(r), rad.jacobson_radical(r)
    assert bool(j.mask[p.indices].all())
    # finite-ring collapse, recorded: J locally nilpotent iff J nilpotent
    assert rad.is_locally_nilpotent(j) == (rad.nilpotency_index(j) is not None)


@pytest.mark.parametrize("name", [n for n in DEFAULT_CATALOG if True])
def test_descent_oracle_agrees(name):
    r = build_ring(name)
    if r.order > 256:
        pytest.skip("descent oracle guarded to small rings")
    assert np.array_equal(descent_strongly_nilpotent_mask(r), rad.prime_radical(r).mask)


def test_lemma_4_1_instances():
    for base in ("Z2", "Z4", "Z8"):
        r = build_ring(base)
        m2 = build_ring(f"M2({base})")
        pm_base = rad.prime_radical(r).mask
        lhs = rad.prime_radical(m2).mask
        digits = m2.kernel.digits(np.arange(m2.order, dtype=np.int64))
        rhs = pm_base[digits].all(axis=0)
        assert np.array_equal(lhs, rhs)


def test_predicates():
    assert rad.is_boolean(build_ring("Z2"))
    assert not rad.is_boolean(build_ring("Z4"))
    assert not rad.is_local(build_ring("Z6"))
    assert rad.is_local(build_ring("Z4[i]"))
    assert rad.is_local(build_ring("Z9[w]"))
    assert not rad.is_abelian(build_ring("T2(Z2)"))
    assert rad.is_abelian(build_ring("Z4xZ2"))


def test_local_by_trivial_idempotents_matches_unit_test():
    # the big-ring criterion must agree with the non-unit-ideal test
    for name in ("Z4", "Z6", "Z9[w]", "T2(Z2)", "M2(Z2)", "Z4xZ2"):
        r = build_ring(name)
        by_units = rad.is_local(r)
        assert by_units == (r.idempotent_indices.size == 2)


def test_locally_nilpotent():
    g4 = build_ring("Z4[i]")
    assert rad.is_locally_nilpotent(rad.prime_radical(g4))
    m2 = build_ring("M2(Z2)")
    whole = ideal_generated(m2, [m2.one])
    assert not rad.is_locally_nilpotent(whole)


def test_big_ring_radicals_match_small_path():
    # the P-based Jacobson path is cross-checked against the definitional scan
    # through a ring small enough for both routes
    r = build_ring("T2(Z4)")
    direct = rad.jacobson_radical(r)
    assert direct == rad.prime_radical(r)


def test_dropped_ring_is_freed_without_the_cycle_collector():
    factors = [build_ring("Z4"), build_ring("Z8")]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        r = RingTable(ProductKernel(factors), "Z4 x Z8")
        p = rad.prime_radical(r)
        assert rad.nilpotency_index(p) == 3
        assert rad.jacobson_radical(r) == rad.jacobson_radical(r)
        assert rad.prime_radical(r).ring is r and rad.nilpotency_index(rad.prime_radical(r)) == 3
        dec.is_strongly_pclean_ring(r)
        ref = weakref.ref(r)
        del r, p
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def _derived_within_budget():
    out = []
    for base in DEFAULT_CATALOG:
        n = build_ring(base).order
        out += [f"{fam}({base})" for fam, k in (("M2", 4), ("T2", 3)) if n**k <= MASK_BUDGET]
    return out


@pytest.mark.parametrize(
    "name",
    DEFAULT_CATALOG + _derived_within_budget() + ["T2(Z32)", "M2(Z4[i])", "Tc3(Z4[i])"],
)
def test_prime_radical_matches_coset_walk(name):
    r = build_ring(name)
    r.cache.pop("prime_ideal", None)  # the walk must not read P(R) back
    want = coset_walk_prime_radical(r)
    assert np.array_equal(rad.prime_radical(r).mask, want)


@pytest.mark.parametrize(
    "name",
    dict.fromkeys(DEFAULT_CATALOG + [f"Z{2**k}" for k in range(1, 15)] + ["T4(Z2)", "Tc3(Z8)"]),
)
def test_nilpotent_mask_matches_element_nilpotency(name):
    # each claimed nilpotent is walked power by power to 0; each claimed
    # non-nilpotent has x^|R| != 0 (walking a unit's whole cycle element by
    # element takes a minute on Z16384)
    r = build_ring(name)
    mask = rad.nilpotent_mask(r)
    assert all(rad.element_nilpotency(r, int(x)) is not None for x in np.flatnonzero(mask))
    assert np.array_equal(order_powers(r) == r.zero, mask)


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_nilpotent_mask_matches_repeated_squaring_and_the_walk(name):
    r = build_ring(name)
    r.cache.pop("nilpotent_mask", None)  # the walk must not read the mask back
    walked = [rad.element_nilpotency(r, x) is not None for x in range(r.order)]
    mask = rad.nilpotent_mask(r)
    assert mask.tolist() == walked
    assert np.array_equal(mask, repeated_squaring_nilpotent_mask(r))


def test_nilpotent_mask_matches_repeated_squaring_on_corrupted_tables():
    # a gather through the squaring map is one pass y = y*y on any table, so
    # the masks agree on tables that are no ring, order 2 (no pass) included
    from corruption_sweep import corruptions

    built = 0
    for spec, op, row, col, val in corruptions():
        try:
            r = corrupted(spec, op, row, col, val, f"{spec}{op}{row}{col}{val}")
        except PcleanError:  # an addition table with no negative for some x
            continue
        built += 1
        want = repeated_squaring_nilpotent_mask(r)
        assert np.array_equal(rad.nilpotent_mask(r), want), r.name
    assert built == 120


def test_prime_radical_of_m2_m2_z2_is_fast():
    # the coset walk needed over 180 s here: every nilpotent of M2(M2(Z2)) is
    # tested, and none is strongly nilpotent
    r = build_ring("M2(M2(Z2))")
    r.cache.pop("prime_ideal", None)
    t0 = time.perf_counter()
    p = rad.prime_radical(r)
    assert time.perf_counter() - t0 <= 10.0
    assert p.indices.tolist() == [r.zero]
    assert rad.nilpotency_index(p) == 1


def test_failed_certificate_raises_instead_of_looping(monkeypatch):
    r = RingTable(build_ring("Z8").kernel, "Z8")
    monkeypatch.setattr(rad, "_certified_basis", lambda r, mask: None)
    with pytest.raises(RadicalNotIdeal, match="are not an ideal"):
        rad.prime_radical(r)


@pytest.mark.parametrize("name", ["T2(Z32)", "T2(Z64)"])
def test_jacobson_above_the_scan_limit_is_p(name):
    # above UNIT_SCAN_LIMIT J(R) is P(R), once every 1 + p has an explicit
    # inverse; the powers oracle must find the same units
    r = RingTable(build_ring(name, limit=540_000).kernel, name)  # fresh caches
    p = rad.prime_radical(r)
    assert rad.jacobson_radical(r) == p
    assert all_units_by_powers(r, r.vadd(r.one, p.indices))


@pytest.mark.parametrize("name, local", [("Z32768", True), ("T2(Z32)", False)])
def test_is_local_above_the_unit_scan_limit_counts_idempotents(name, local):
    # above UNIT_SCAN_LIMIT the non-units are not scanned: a finite ring is
    # local iff 0 and 1 are its only idempotents (T2(Z32) has e11 and e22)
    from pclean.rings import UNIT_SCAN_LIMIT

    r = RingTable(build_ring(name).kernel, name)  # fresh caches
    assert r.order > UNIT_SCAN_LIMIT
    assert rad.is_local(r) is local


@pytest.mark.parametrize(
    "name, m", [("Z2", 1), ("Z4", 2), ("Z8", 3), ("Z16", 4), ("Z32", 5), ("Z64", 6), ("T2(Z64)", 7)]
)
def test_inverse_series_product_form_matches_horner(name, m):
    # (1 + t)(1 + t^2)(1 + t^4)... over ceil(log2 m) factors is the Horner
    # sum_{i<m} t^i on every t with t^m = 0, lane by lane
    r = build_ring(name, limit=540_000)
    p = rad.prime_radical(r)
    assert rad.nilpotency_index(p) == m
    t = r.vneg(p.indices)
    horner = np.full(t.shape, r.one, dtype=np.int64)
    for _ in range(1, m):
        horner = r.vadd(r.one, r.vmul(t, horner))
    assert np.array_equal(rad.inverse_series(r, t, m), horner)


@pytest.mark.parametrize("name", ["Z64", "M2(Z4)", "T2(Z64)"])
def test_certified_prime_radical_computes_one_basis(monkeypatch, name):
    # the certificate's subgroup basis of P, from the one span of P's
    # members, is handed to the powers walk
    r = RingTable(build_ring(name, limit=540_000).kernel, name)  # fresh caches
    calls = []
    real = rad._span
    monkeypatch.setattr(rad, "_span", lambda r, m: calls.append(np.sort(np.ravel(m))) or real(r, m))
    p = rad.prime_radical(r)
    assert sum(np.array_equal(c, p.indices) for c in calls) == 1


def test_jacobson_above_the_scan_limit_reads_p_nilpotency_index(monkeypatch):
    # above UNIT_SCAN_LIMIT J's mask is P's copy and its memo P's index, so
    # the powers of the one ideal are walked once for both reports
    r = RingTable(build_ring("T2(Z64)", limit=540_000).kernel, "T2(Z64)")
    walks = []
    real = rad.ideal_powers
    monkeypatch.setattr(rad, "ideal_powers", lambda *a: walks.append(1) or real(*a))
    p, j = rad.prime_radical(r), rad.jacobson_radical(r)
    assert rad.nilpotency_index(p) == rad.nilpotency_index(j) == 7
    assert len(walks) == 1


def test_jacobson_traps_a_prime_radical_with_a_non_nilpotent_element():
    r = RingTable(build_ring("T2(Z32)").kernel, "T2(Z32)")
    p = rad.prime_radical(r)
    e = r.parse_element("[1,0;0,0]").index  # an idempotent, not nilpotent
    mask = p.mask.copy()
    mask[e] = True
    r.cache["prime_ideal"] = (mask, {"nilpotency": rad.nilpotency_index(p)})
    assert rad.element_nilpotency(r, e) is None
    with pytest.raises(RadicalNotIdeal, match="is not a unit"):
        rad.jacobson_radical(r)


def _nilpotency_cases():
    rng = np.random.default_rng(10)
    cases = [(name, range(build_ring(name).order)) for name in DEFAULT_CATALOG]
    return cases + [(f"Z{n}", rng.integers(0, n, 500).tolist()) for n in (16384, 8192)]


@pytest.mark.parametrize("name, elements", _nilpotency_cases(), ids=[c[0] for c in _nilpotency_cases()])
def test_element_nilpotency_matches_the_unbounded_walk(name, elements):
    r = build_ring(name)
    assert [rad.element_nilpotency(r, x) for x in elements] == [
        walk_nilpotency(r, x) for x in elements
    ]


def test_element_nilpotency_is_bounded_by_log2_order():
    # the unbounded walk took 54 s over every element of Z16384
    r = build_ring("Z16384")
    t0 = time.perf_counter()
    got = [rad.element_nilpotency(r, x) for x in range(r.order)]
    assert time.perf_counter() - t0 <= 10.0
    assert [x for x, k in enumerate(got) if k is not None] == list(range(0, r.order, 2))
    assert max(k for k in got if k is not None) == 14


def _same_certificate(r, mask):
    got, want = rad._certified_basis(r, mask), memberwise_certified_basis(r, mask)
    assert (got is None) == (want is None), (r.name, np.flatnonzero(mask).tolist())
    assert got is None or np.array_equal(got, want), r.name
    return got is not None


def _fresh(r):
    return RingTable(r.kernel, r.name)


def _certificate_rings():
    """The catalog rings, their L2.9 products up to order 4096, and their
    quotients by proper nonzero ideals and corners by idempotents f != 0
    up to order IDEAL_ENUM_LIMIT."""
    cat = [build_ring(n) for n in DEFAULT_CATALOG]
    out = list(cat)
    out += [RingTable(ProductKernel([a, b]), f"{a.name} x {b.name}")
            for i, a in enumerate(cat) for b in cat[i:] if a.order * b.order <= 4096]
    for r in cat:
        if r.order <= IDEAL_ENUM_LIMIT:
            out += [_quotient_table(r, m) for m in enumerate_ideals(r)[1:-1]]
            out += [corner_ring(r, int(f))[0] for f in r.idempotent_indices if f != r.zero]
    return out


def test_ideal_certificate_by_generators_matches_the_member_wise_one(monkeypatch):
    # every set the radicals and the ideal lattice certify, and every
    # candidate of P's and J's filters, on rings by construction
    seen = []
    real = rad._certified_basis
    monkeypatch.setattr(rad, "_certified_basis", lambda r, m: seen.append((r, m.copy())) or real(r, m))
    rings = [_fresh(r) for r in _certificate_rings()]
    assert all(r.by_construction for r in rings)
    for r in rings:
        rad.prime_radical(r)
        rad.jacobson_radical(r)
        if r.order <= IDEAL_ENUM_LIMIT:
            enumerate_ideals(r)
            rows = rad._generator_rows(r)
            seen += [(r, m) for keep in (rad.nilpotent_mask(r), r.unit_mask[r.vsub(r.one, np.arange(r.order))])
                     for m in rad._filter(r, keep, rows)]
    monkeypatch.undo()
    assert {id(r) for r in rings} <= {id(r) for r, _ in seen}
    accepted = [_same_certificate(r, mask) for r, mask in seen]
    assert 0 < sum(accepted) < len(accepted)  # both outcomes are compared


@given(st.sampled_from(["Z8", "Z4[i]", "T2(Z2)", "T2(Z4)", "Tc2(Z4)", "M2(Z2)", "Z4xZ2", "Z9[w]"]),
       st.lists(st.integers(0, 1 << 16), min_size=1, max_size=4), st.booleans())
def test_certificate_and_closure_of_spans_and_subsets_match_member_wise(name, seeds, span):
    # spans of random seeds are additive subgroups, mostly no ideals; random
    # subsets with 0 are mostly not even closed under addition
    r = build_ring(name)
    seeds = np.asarray(seeds, np.int64) % r.order
    if span:
        mask = additive_closure_mask(r, seeds)
    else:
        mask = np.zeros(r.order, dtype=bool)
        mask[np.append(seeds, r.zero)] = True
    _same_certificate(r, mask)
    idx = np.flatnonzero(mask)
    closed = bool(mask[r.vadd(idx[:, None], idx[None, :])].all())
    assert (rad._closed_basis(r, mask) is not None) == closed


@pytest.mark.parametrize("name", DEFAULT_CATALOG + ["T2(Z64)", "T3(Z6)"])
def test_centrality_by_generators_matches_rows_and_columns(name):
    r = build_ring(name, limit=540_000)
    got = [rad.is_central(r, e) for e in r.idempotent_indices]
    assert got == [row_column_central(r, e) for e in r.idempotent_indices]
    assert rad.is_abelian(r) == all(got)
