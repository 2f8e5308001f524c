import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclean import decompositions as dec
from pclean import radicals as rad
from pclean.errors import NotInvertible, NotLiftable, PcleanError, RingTooLarge
from pclean.rings import (
    DENSE_TABLE_LIMIT,
    UNIT_SCAN_LIMIT,
    MatrixKernel,
    ProductKernel,
    RingTable,
    TriangularKernel,
    build_ring,
    corner_ring,
)
from pclean.verifier import DEFAULT_CATALOG, IDEAL_ENUM_LIMIT, _quotient_table, enumerate_ideals

from oracles import (
    clean_oracle,
    gather_sweep,
    pi_regular_oracle,
    row_column_central,
    scatter_sweep,
)
from table_kernel import TableKernel, corrupted, corrupted_zn


def test_pclean_element_z4():
    r = build_ring("Z4")
    cert, count = dec.strongly_pclean_element(r, 3)
    assert cert is not None and count == 1
    assert (cert.idempotent, cert.remainder, cert.witness) == (1, 2, 2)
    assert cert.validate()


def test_pclean_element_boolean_ring():
    r = build_ring("Z2")
    for x in range(2):
        cert, count = dec.strongly_pclean_element(r, x)
        assert cert.idempotent == x and cert.remainder == r.zero and count == 1


def test_pclean_element_absent():
    r = build_ring("Z6")
    cert, count = dec.strongly_pclean_element(r, 2)
    assert cert is None and count == 0


def test_idempotent_lift_worked_instances():
    z8 = build_ring("Z8")
    assert dec.idempotent_lift(z8, 3) == 1
    z4 = build_ring("Z4")
    assert dec.idempotent_lift(z4, 2) == 0


def test_idempotent_lift_fixes_idempotents():
    for name in ("Z4", "T2(Z2)", "M2(Z2)", "Z4[i]"):
        r = build_ring(name)
        for e in map(int, r.idempotent_indices):
            assert dec.idempotent_lift(r, e) == e


@pytest.mark.parametrize("name", ["Z8", "Z9", "M2(Z4)", "T2(Z3[w])", "T2(Z4[i])"])
def test_idempotent_lift_is_the_binomial_sum(name):
    # the reference: f(a) = sum C(2n,i) a^(2n-i) (1-a)^i, term by term
    r = build_ring(name)
    for a in np.random.default_rng(4).integers(0, r.order, 60).tolist():
        n = rad.element_nilpotency(r, r.sub(a, r.mul(a, a)))
        if n is None:
            continue
        want = r.zero
        for i in range(n + 1):
            term = r.mul(r.power(a, 2 * n - i), r.power(r.sub(r.one, a), i))
            want = r.add(want, r.mul(r.embed_int(math.comb(2 * n, i)), term))
        assert dec.idempotent_lift(r, a) == want


def test_idempotent_lift_rejects_non_nilpotent_defect():
    r = build_ring("Z6")
    with pytest.raises(NotLiftable):
        dec.idempotent_lift(r, 2)  # 2 - 4 = -2 is not nilpotent mod 6


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_idempotent_lift_property(name):
    # whenever a - a^2 lies in P(R): f(a) idempotent, commutes, a - f(a) in P
    r = build_ring(name)
    pm = rad.prime_radical(r).mask
    for a in range(r.order):
        if not pm[r.sub(a, r.mul(a, a))]:
            continue
        e = dec.idempotent_lift(r, a)
        assert r.mul(e, e) == e
        assert r.mul(e, a) == r.mul(a, e)
        assert pm[r.sub(a, e)]
        cert, count = dec.strongly_pclean_element(r, a)
        scan_hits = [
            int(i)
            for i in r.idempotent_indices
            if pm[r.sub(a, int(i))] and r.mul(a, int(i)) == r.mul(int(i), a)
        ]
        assert e in scan_hits and count == len(scan_hits)


def test_strongly_clean_element_example():
    r = build_ring("Z4")
    cert, _ = dec.strongly_clean_element(r, 2)
    assert cert is not None and (cert.idempotent, cert.remainder) == (1, 1)
    assert cert.validate()


def test_pi_regular_example():
    m2 = build_ring("M2(Z2)")
    e12 = m2.parse_element("[0,1;0,0]").index
    ok, n, b = dec.strongly_pi_regular_element(m2, e12)
    assert ok and n == 2 and b == m2.zero


def test_pi_regular_everywhere_finite():
    for name in ("Z4", "Z6", "T2(Z2)", "M2(Z2)"):
        r = build_ring(name)
        for a in range(r.order):
            ok, n, b = dec.strongly_pi_regular_element(r, a)
            assert ok
            assert r.power(a, n) == r.mul(r.power(a, n + 1), b)
            assert r.mul(a, b) == r.mul(b, a)


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_certificate_soundness_fuzz(name):
    r = build_ring(name)
    for a in range(r.order):
        for fn in (
            dec.strongly_pclean_element,
            dec.strongly_clean_element,
            dec.strongly_nilclean_element,
            dec.strongly_jclean_element,
        ):
            cert, count = fn(r, a)
            if cert is None:
                assert count == 0
            else:
                assert count >= 1
                assert cert.validate()


_ELEMENT_FNS = {
    dec.STRONGLY_P_CLEAN: dec.strongly_pclean_element,
    dec.STRONGLY_CLEAN: dec.strongly_clean_element,
    dec.STRONGLY_NIL_CLEAN: dec.strongly_nilclean_element,
    dec.STRONGLY_J_CLEAN: dec.strongly_jclean_element,
}


@settings(max_examples=300)
@given(data=st.data())
def test_certificates_validate_exactly_the_decompositions_in_their_set(data):
    # a = e + (a - e) with e a commuting idempotent validates iff a - e lies
    # in the kind's set; the kind's own certificate of a validates, and it
    # exists iff its count is positive and iff the whole-ring sweep covers a
    r = build_ring(data.draw(st.sampled_from(DEFAULT_CATALOG)))
    a = data.draw(st.integers(0, r.order - 1))
    kind = data.draw(st.sampled_from(sorted(_ELEMENT_FNS)))
    e = data.draw(st.sampled_from([e for e in r.idempotent_indices.tolist()
                                   if r.mul(a, e) == r.mul(e, a)]))
    member, witness = dec._KINDS[kind]
    w = r.sub(a, e)
    assert dec.CleanCertificate(kind, r, a, e, w, witness(r, w)).validate() == bool(member(r)[w])
    cert, count = _ELEMENT_FNS[kind](r, a)
    assert cert is None or cert.validate()
    assert (cert is not None) == (count > 0) == bool(dec._sweep(r, kind, commuting=True)[a])


def test_nil_clean_certificate_needs_a_nilpotent_remainder():
    # 1 = 0 + 1 in Z4, and 1 is not nilpotent
    assert not dec.CleanCertificate(dec.STRONGLY_NIL_CLEAN, build_ring("Z4"), 1, 0, 1, None).validate()


def test_ring_verdict_table_matches_published_values():
    z4 = build_ring("Z4")
    assert dec.is_strongly_pclean_ring(z4) == (True, None)
    assert dec.is_uniquely_pclean_ring(z4) == (True, None)

    t2 = build_ring("T2(Z2)")
    assert dec.is_strongly_pclean_ring(t2) == (True, None)
    assert dec.is_uniquely_clean_ring(t2)[0] is False
    assert dec.is_uniquely_pclean_ring(t2)[0] is False

    e9 = build_ring("Z9[w]")
    holds, cex = dec.is_strongly_pclean_ring(e9)
    assert not holds and cex is not None
    assert dec.strongly_pclean_element(e9, cex)[0] is None

    e3 = build_ring("Z3[w]")
    assert dec.is_strongly_pclean_ring(e3)[0] is False

    assert dec.is_strongly_pclean_ring(build_ring("Z2"))[0]  # Boolean ring
    g = build_ring("Z4[i]")
    assert dec.is_strongly_pclean_ring(g)[0] and dec.is_uniquely_pclean_ring(g)[0]


def test_uniqueness_counts_drop_commutation():
    # T2(Z2) has elements with two non-commuting P-decompositions even though
    # the commuting one is unique; uniqueness must see both
    r = build_ring("T2(Z2)")
    e22 = r.parse_element("[0,0;0,1]").index
    assert dec.uniquely_pclean_count(r, e22) == 2
    _, commuting_count = dec.strongly_pclean_element(r, e22)
    assert commuting_count == 1
    assert dec.uniquely_nilclean_count(r, e22) == 2


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_boolean_quotient_characterization(name):
    # scan verdict equals the Boolean-quotient verdict on R/P(R)
    from pclean.rings import _quotient

    r = build_ring(name)
    p = rad.prime_radical(r)
    holds = dec.is_strongly_pclean_ring(r)[0]
    q = _quotient(r, p.mask, f"{name}/P", "P(R) is the whole ring")
    assert holds == rad.is_boolean(q)


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_one_plus_units_characterization(name):
    # strongly P-clean iff every element of 1 + U(R) is strongly nilpotent
    # (periodicity is automatic in a finite ring)
    r = build_ring(name)
    pm = rad.prime_radical(r).mask
    rhs = bool(pm[r.vadd(np.int64(r.one), r.unit_indices)].all())
    assert dec.is_strongly_pclean_ring(r)[0] == rhs


def test_aggregate_counterexample_is_least_index():
    r = build_ring("Z6")
    holds, cex = dec.is_strongly_pclean_ring(r)
    assert not holds
    mask = dec.strongly_pclean_mask(r)
    assert cex == int(np.flatnonzero(~mask)[0])


def test_probe_path_matches_vectorized_on_big_ring():
    r = build_ring("T2(Z9[w])", limit=540_000)
    holds, cex = dec.is_strongly_pclean_ring(r)
    assert not holds
    # 2w avoids both P and 1+P, and sits below every other failure
    assert r.fmt_index(cex) == "[0,0;0,2w]"
    assert dec.strongly_pclean_element(r, cex)[0] is None
    for x in range(cex):
        assert dec.strongly_pclean_element(r, x)[0] is not None


def test_vectorized_mask_matches_scalar_path_on_structured_ring():
    # M2(Z9) has order 6561, beyond the dense-table limit, so this pits the
    # vectorized aggregate against the per-element scan on the structured path
    from pclean.matrices import matrix_ring

    m2 = matrix_ring(build_ring("Z9"))
    assert m2._mul_t is None  # genuinely structured
    mask = dec.strongly_pclean_mask(m2)
    rng = np.random.default_rng(3)
    sample = np.unique(rng.integers(0, m2.order, size=200))
    for i in map(int, sample):
        assert bool(mask[i]) == (dec.strongly_pclean_element(m2, i)[0] is not None)


def test_pi_regular_disagreement_raises():
    # Not a ring: 2*2 = 3, 3*2 = 4, 4*2 = 2, and 3*3 = 2 with 3 not commuting
    # with 2, so 2 lies in 2^2 R but in no 2^(n+1) C(2).
    add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    mul = [[0] * 5 for _ in range(5)]
    for x in range(5):
        mul[1][x] = mul[x][1] = x
    mul[2][2], mul[3][2], mul[4][2], mul[3][3] = 3, 4, 2, 2
    r = RingTable(TableKernel(add, mul, zero=0, one=1), "broken")
    with pytest.raises(PcleanError, match="pi-regular tests disagree"):
        dec.strongly_pi_regular_element(r, 2)


@pytest.mark.parametrize(
    "name, sample",
    [("Z8", None), ("T2(Z2)", None), ("M2(Z2)", None), ("M2(Z4)", None),
     ("M2(Z9)", 30), ("M2(Z4[i])", 30)],
)
def test_pi_regular_matches_power_by_power_oracle(name, sample):
    # one table row per power against two whole-ring products per power
    r = build_ring(name)
    elements = range(r.order)
    if sample is not None:
        elements = np.random.default_rng(5).integers(0, r.order, size=sample).tolist()
    for a in elements:
        assert dec.strongly_pi_regular_element(r, a) == pi_regular_oracle(r, a), a


def test_pi_regular_matches_the_oracle_on_corrupted_tables():
    # a commuting witness is a bare one, so reading whole rows only when no
    # commuting witness appears moves no output and no raise on any table
    from corruption_sweep import corruptions

    def outcome(fn, r, a):
        try:
            return fn(r, a)
        except PcleanError as exc:
            return type(exc)

    cases = raised = 0
    for spec, op, row, col, val in corruptions(["Z2", "Z3", "Z4", "T2(Z2)"]):
        try:
            r = corrupted(spec, op, row, col, val, f"{spec}{op}{row}{col}{val}")
        except PcleanError:  # an addition table with no negative for some x
            continue
        for a in range(r.order):
            want = outcome(pi_regular_oracle, r, a)
            assert outcome(dec.strongly_pi_regular_element, r, a) == want, (r.name, a)
            cases, raised = cases + 1, raised + (want is PcleanError)
    assert raised and cases > 7000


@pytest.mark.parametrize("name", ["T2(Z64)", "T2(Z9[w])", "M2(Z8)"])
def test_batched_probe_matches_the_per_element_probe(name):
    r = build_ring(name, limit=540_000)
    for kind in (dec.STRONGLY_P_CLEAN, dec.STRONGLY_NIL_CLEAN, dec.STRONGLY_J_CLEAN):
        want = next((x for x in range(dec._PROBE) if not dec._hits(r, kind, x, True).size), None)
        assert dec._probe(r, kind) == want, kind
    if name == "T2(Z9[w])":  # refuted at [0,0;0,2w]
        assert r.fmt_index(dec._probe(r, dec.STRONGLY_P_CLEAN)) == "[0,0;0,2w]"


@pytest.mark.parametrize(
    "name, sample", [("M2(Z4)", None), ("T2(Z8)", None), ("M2(Z9)", 300), ("M2(Z4[i])", 300)]
)
def test_pi_regular_mask_matches_the_per_element_test(name, sample):
    r = build_ring(name)
    mask = dec.strongly_pi_regular_mask(r)
    elements = range(r.order)
    if sample is not None:
        elements = np.random.default_rng(17).integers(0, r.order, size=sample).tolist()
    for a in elements:
        assert mask[a] == dec.strongly_pi_regular_element(r, a)[0], r.fmt_index(a)


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_engine_matches_definitions(name):
    # every verdict, count and certificate against the element-by-element
    # definitions; M2(Z2) and M2(Z4) have Nil != P, so sets that differ must
    # not share a memoized sweep
    r = build_ring(name)
    counts, verdicts = clean_oracle(r)
    for key, fn in dec.RING_VERDICTS.items():
        assert fn(r) == verdicts[key], key
    element_fns = {
        "strongly_pclean": dec.strongly_pclean_element,
        "strongly_clean": dec.strongly_clean_element,
        "strongly_nilclean": dec.strongly_nilclean_element,
        "strongly_jclean": dec.strongly_jclean_element,
    }
    count_fns = {
        "uniquely_pclean": dec.uniquely_pclean_count,
        "uniquely_clean": dec.uniquely_clean_count,
        "uniquely_nilclean": dec.uniquely_nilclean_count,
    }
    for a in range(r.order):
        for key, fn in element_fns.items():
            cert, count = fn(r, a)
            assert count == counts[key][a], (key, a)
            assert (cert is None) == (count == 0)
        for key, fn in count_fns.items():
            assert fn(r, a) == counts[key][a], (key, a)
    assert np.array_equal(
        dec.strongly_pclean_mask(r), np.asarray(counts["strongly_pclean"]) > 0
    )


def _refuse_sweep(monkeypatch):
    def refuse(r, member, commuting):
        raise AssertionError(f"sweep of {r.name} computed")

    monkeypatch.setattr(dec, "_sweep", refuse)


def test_probe_refutes_without_the_sweep(monkeypatch):
    # the product is refuted at index 4 by the 64-element probe, so the
    # whole-ring idempotent sweep never runs
    m2 = build_ring("M2(Z4)")
    prod = RingTable(ProductKernel([m2, m2]), "M2(Z4) x M2(Z4)")
    _refuse_sweep(monkeypatch)
    assert dec.is_strongly_pclean_ring(prod) == (False, 4)


def test_probe_is_skipped_when_the_sweep_is_cached(monkeypatch):
    # on T2(Z64) J = P, so strongly J-clean reads the sweep strongly P-clean
    # left in the cache instead of probing the 64 least indices again
    r = RingTable(build_ring("T2(Z64)", limit=540_000).kernel, "T2(Z64)")
    assert dec.is_strongly_pclean_ring(r) == (True, None)
    calls = []
    real = dec._hits
    monkeypatch.setattr(dec, "_hits", lambda *a: calls.append(a) or real(*a))
    assert dec.is_strongly_jclean_ring(r) == (True, None)
    assert calls == []


def test_probe_reads_the_prime_radical(monkeypatch):
    # the probe tests P-membership against the verdict's member set P(R),
    # computed once, not element by element through strong nilpotence
    calls = []
    counted = rad.is_strongly_nilpotent

    def counting(r, a):
        calls.append(a)
        return counted(r, a)

    m2 = build_ring("M2(Z4)")
    prod = RingTable(ProductKernel([m2, m2]), "M2(Z4) x M2(Z4)")
    monkeypatch.setattr(rad, "is_strongly_nilpotent", counting)
    _refuse_sweep(monkeypatch)
    assert dec.is_strongly_pclean_ring(prod) == (False, 4)
    assert "prime_ideal" in prod.cache and calls == []


def test_per_element_answers_read_the_prime_radical_mask(monkeypatch):
    # a fresh T2(Z8), whose P(R) no caller has computed: P-membership is
    # read from P(R)'s mask, computed on first use, and strong nilpotence
    # is asked only for the certificate witness of the remainder
    calls = []
    counted = rad.is_strongly_nilpotent

    def counting(r, a):
        calls.append(a)
        return counted(r, a)

    r = RingTable(TriangularKernel(2, build_ring("Z8")), "T2(Z8)")
    a = r.parse_element("[3,2;0,4]").index
    monkeypatch.setattr(rad, "is_strongly_nilpotent", counting)
    assert dec.uniquely_pclean_count(r, a) == 8
    assert "prime_ideal" in r.cache and calls == []
    cert, count = dec.strongly_pclean_element(r, a)
    assert count == 1 and r.fmt_index(cert.remainder) == "[2,4;0,4]" and cert.witness == 3
    assert calls == [cert.remainder]
    assert cert.validate() and calls == [cert.remainder] * 2


_ORACLE_RINGS = [*DEFAULT_CATALOG, "T2(Z32)", "M2(Z8)", "T2(Z4[i])", "T3(Z4)", "M2(Z9)"]


@pytest.mark.parametrize("name", [*_ORACLE_RINGS, "Z4add110"])
def test_sweep_matches_gather_oracle(name):
    # T2(Z32), M2(Z8), T2(Z4[i]), T3(Z4) and M2(Z9) lie above
    # DENSE_TABLE_LIMIT, so their sweeps run on the coordinate path, and each
    # has several idempotents per coset of P(R), reached by conjugation in
    # the commuting sweep; Z4 with 1 + 1 = 0 is no ring, and its sweep, like
    # that of every ring with tables, is one broadcast.  The unit mask joins
    # the member sets on the rings within UNIT_SCAN_LIMIT, all but T2(Z32);
    # on the non-ring the two differ there at x = 2, as the sweep reads the
    # cosets w + e and the oracle reads x - e
    r = corrupted_zn(1, 1, 0, name, op="add") if name == "Z4add110" else build_ring(name)
    kinds = [dec.STRONGLY_P_CLEAN, dec.STRONGLY_J_CLEAN, dec.STRONGLY_NIL_CLEAN]
    if name in _ORACLE_RINGS and r.order <= UNIT_SCAN_LIMIT:
        kinds.append(dec.STRONGLY_CLEAN)
    for kind in kinds:
        for commuting in (True, False):
            got = dec._sweep(r, kind, commuting)
            want = gather_sweep(r, dec._KINDS[kind][0](r), commuting)
            assert got.dtype == want.dtype and np.array_equal(got, want), commuting


def _rings_with_tables():
    """Fresh copies of the catalog rings, their L2.9 products up to
    DENSE_TABLE_LIMIT, and their quotients by proper nonzero ideals and
    corners by idempotents f != 0 up to order IDEAL_ENUM_LIMIT."""
    cat = [build_ring(n) for n in DEFAULT_CATALOG]
    out = list(cat)
    out += [RingTable(ProductKernel([a, b]), f"{a.name} x {b.name}")
            for i, a in enumerate(cat) for b in cat[i:] if a.order * b.order <= DENSE_TABLE_LIMIT]
    for r in cat:
        if r.order <= IDEAL_ENUM_LIMIT:
            out += [_quotient_table(r, m) for m in enumerate_ideals(r)[1:-1]]
            out += [corner_ring(r, int(f))[0] for f in r.idempotent_indices if f != r.zero]
    return [RingTable(r.kernel, r.name) for r in out]


def test_sweeps_on_rings_with_tables_are_one_broadcast(monkeypatch):
    # every idempotent marks its coset at once: one vadd over (idempotents,
    # members), and no row or column, on every ring with tables the suite
    # builds from the catalog; each sweep is the per-x gather
    rings = _rings_with_tables()
    assert all(r.order <= DENSE_TABLE_LIMIT and r.by_construction for r in rings)
    calls = []
    for name in ("vadd", "mul_row", "mul_col"):
        op = getattr(RingTable, name)

        def recording(self, *args, name=name, op=op):
            if self is ring:
                calls.append(name)
            return op(self, *args)

        monkeypatch.setattr(RingTable, name, recording)
    for ring in rings:
        rad.prime_radical(ring)
        members = {kind: dec._KINDS[kind][0](ring) for kind in dec._KINDS}
        for kind, member in members.items():
            for commuting in (True, False):
                calls.clear()
                got = dec._sweep(ring, kind, commuting)
                assert calls == ["vadd"], (ring.name, kind, commuting)
                want = gather_sweep(ring, member, commuting)
                assert got.dtype == want.dtype and np.array_equal(got, want), ring.name
    assert len(rings) > 100


def test_broadcast_sweep_is_the_per_idempotent_scatter_on_corrupted_tables():
    # on a table that is no ring, w + e can repeat over the members w of one
    # idempotent e; the counting sweep still counts such an x once for e,
    # as the per-idempotent scatter did, where counting every lane would
    # not.  Every single-entry corruption of the Z2-Z4 tables, every kind
    # whose member set the table gives
    from corruption_sweep import corruptions

    swept, trapped = 0, set()
    for spec, op, row, col, val in corruptions():
        try:
            r = corrupted(spec, op, row, col, val)
        except PcleanError:  # an element with no negative
            continue
        for kind in dec._KINDS:
            try:
                member = dec._KINDS[kind][0](r)
            except PcleanError:
                continue
            for commuting in (True, False):
                got, want = dec._sweep(r, kind, commuting), scatter_sweep(r, member, commuting)
                assert got.dtype == want.dtype and np.array_equal(got, want), r.name
                swept += 1
            x = r.vadd(np.flatnonzero(member)[None, :], r.idempotent_indices[:, None])
            if not np.array_equal(np.minimum(np.bincount(x.ravel(), minlength=r.order), 2), got):
                trapped.add(r.name)
    assert swept == 796 and len(trapped) == 8


def test_strongly_clean_verdict_above_the_unit_scan_makes_no_vmul(monkeypatch):
    # the verdict reads its member set first, so on T2(Z64), beyond
    # UNIT_SCAN_LIMIT, the unit mask raises before the probe computes any
    # commuting lane
    r = RingTable(build_ring("T2(Z64)", limit=540_000).kernel, "T2(Z64)")
    calls = []
    vmul = RingTable.vmul
    monkeypatch.setattr(RingTable, "vmul", lambda self, a, b: calls.append(self) or vmul(self, a, b))
    with pytest.raises(RingTooLarge):
        dec.is_strongly_clean_ring(r)
    assert r.order > UNIT_SCAN_LIMIT and calls == []


def test_counting_sweep_scatters_once_per_coset_class(monkeypatch):
    # the 66 idempotents of T2(Z32) fall into 4 cosets of P(R), one per
    # diagonal mod 2, and the counting sweep adds each coset once
    r = RingTable(TriangularKernel(2, build_ring("Z32")), "T2(Z32)")
    p = rad.prime_radical(r).mask
    lanes = []
    vadd = RingTable.vadd

    def recording(self, a, b):
        if self is r:  # not the digit ops of the base ring Z32
            lanes.append(np.broadcast(a, b).size)
        return vadd(self, a, b)

    monkeypatch.setattr(RingTable, "vadd", recording)
    dec._sweep(r, dec.STRONGLY_P_CLEAN, commuting=False)
    assert r.idempotent_indices.size == 66
    assert lanes.count(int(p.sum())) == 4


def test_commuting_sweep_reads_one_row_and_column_per_coset_class(monkeypatch):
    # the 66 idempotents of T2(Z32) fall into 4 cosets of P(R); only the
    # least idempotent of each class is tested by its row and column, and
    # the rest of the class is reached by conjugating its hits; a central
    # least idempotent (0 and 1 here) takes its whole coset with no row
    r = RingTable(TriangularKernel(2, build_ring("Z32")), "T2(Z32)")
    p = rad.prime_radical(r).mask
    want = gather_sweep(r, p, commuting=True)
    calls = []
    for name in ("mul_row", "mul_col"):
        line = getattr(RingTable, name)

        def recording(self, x, name=name, line=line):
            if self is r:
                calls.append(name)
            return line(self, x)

        monkeypatch.setattr(RingTable, name, recording)
    got = dec._sweep(r, dec.STRONGLY_P_CLEAN, commuting=True)
    swept = list(calls)
    assert r.idempotent_indices.size == 66 and np.array_equal(got, want)
    classes, pn = {}, np.flatnonzero(p)
    for e in r.idempotent_indices.tolist():
        classes.setdefault(int(r.vadd(pn, np.int64(e)).min()), []).append(e)
    assert sorted(map(len, classes.values())) == [1, 1, 32, 32]
    heads = [min(es) for es in classes.values()]
    central = [e0 for e0 in heads if row_column_central(r, e0)]
    assert sorted(central) == sorted([r.zero, r.one])
    assert swept.count("mul_row") == swept.count("mul_col") == len(heads) - len(central) == 2
    # the identity the scatter rests on: u e0 u^-1 = e across each class
    for e0, *es in classes.values():
        u, v = dec._conjugators(r, np.int64(e0), np.asarray(es, np.int64))
        assert np.array_equal(r.vmul(r.vmul(u, np.int64(e0)), v), es)


def test_conjugators_with_a_wrong_nilpotency_index_raise(monkeypatch):
    # the inverse series of a conjugator stops at P's nilpotency index; an
    # index too small leaves a wrong inverse, which the two-sided check
    # turns into a typed error rather than a wrong mask
    r = RingTable(TriangularKernel(2, build_ring("Z32")), "T2(Z32)")
    p = rad.prime_radical(r).mask
    monkeypatch.setattr(rad, "nilpotency_index", lambda ideal: 1)
    with pytest.raises(NotInvertible, match="conjugator"):
        dec._sweep(r, dec.STRONGLY_P_CLEAN, commuting=True)
    assert not any(k[0] == "sweep" for k in r.cache if isinstance(k, tuple))


@pytest.mark.parametrize("kernel, base", [(MatrixKernel, "Z8"), (TriangularKernel, "Z16")])
def test_unit_sweeps_scatter_once_per_coset_class_of_p(monkeypatch, kernel, base):
    # U + P = U in a finite ring, so the idempotents of one coset of P(R)
    # share one coset of the units, and a unit sweep scatters once per such
    # class; the counting sweep visits every class, as x = 0 never reaches
    # a count of 2 (only e = 1 has -e a unit).  M2(Z8) and T2(Z16) have
    # order 4096, above DENSE_TABLE_LIMIT, so their sweeps go by classes
    r = RingTable(kernel(2, build_ring(base)), f"{kernel.family}2({base})")
    units, pn = r.unit_mask, np.flatnonzero(rad.prime_radical(r).mask)
    classes = {int(r.vadd(pn, np.int64(e)).min()) for e in r.idempotent_indices}
    assert len(classes) < r.idempotent_indices.size
    want = {commuting: gather_sweep(r, units, commuting) for commuting in (True, False)}
    lanes = []
    vadd = RingTable.vadd

    def recording(self, a, b):
        if self is r:
            lanes.append(np.broadcast(a, b).size)
        return vadd(self, a, b)

    monkeypatch.setattr(RingTable, "vadd", recording)
    scatters = {}
    for commuting in (True, False):
        lanes.clear()
        got = dec._sweep(r, dec.STRONGLY_CLEAN, commuting)
        assert got.dtype == want[commuting].dtype and np.array_equal(got, want[commuting])
        scatters[commuting] = lanes.count(int(units.sum()))
    assert 1 <= scatters[True] <= scatters[False] == len(classes)


def test_certificates_of_one_element_share_one_commuting_filter(monkeypatch):
    # the filter of the idempotents commuting with a takes two vmuls over
    # them; the four certificates of a reuse it, and the next element
    # replaces it rather than adding a slot.  The member sets are filled
    # first, so no other vmul has one lane per idempotent.
    r = RingTable(TriangularKernel(2, build_ring("Z4[i]")), "T2(Z4[i])")
    idem = r.idempotent_indices
    for member in dec._KINDS.values():
        member[0](r)
    lanes = []
    vmul = RingTable.vmul

    def recording(self, a, b):
        if self is r:
            lanes.append(np.broadcast(a, b).size)
        return vmul(self, a, b)

    monkeypatch.setattr(RingTable, "vmul", recording)
    sizes = []
    for a in (5, 6):
        for certificate in _ELEMENT_FNS.values():
            certificate(r, a)
        sizes.append(len(r.cache))
    assert lanes.count(idem.size) == 4 and sizes[0] == sizes[1]


def _sweep_keys(r):
    return {k for k in r.cache if isinstance(k, tuple) and k[0] == "sweep"}


def test_ring_verdicts_sweep_each_kind_once_and_j_and_nil_read_p_where_equal():
    # on T2(Z64) J = Nil = P, so the J and Nil verdicts are P's, and the
    # units lie beyond UNIT_SCAN_LIMIT: P's commuting and counting sweeps
    # are the only ones
    r = RingTable(build_ring("T2(Z64)", limit=540_000).kernel, "T2(Z64)")
    dec.ring_verdicts(r)
    assert _sweep_keys(r) == {("sweep", dec.STRONGLY_P_CLEAN, True),
                              ("sweep", dec.STRONGLY_P_CLEAN, False)}
    # on M2(Z4) Nil != P ([0,1;0,0] is nilpotent, not in M2(2Z4)), so the
    # uniquely nil clean verdict sweeps the nilpotents
    m2 = RingTable(MatrixKernel(2, build_ring("Z4")), "M2(Z4)")
    dec.ring_verdicts(m2)
    assert ("sweep", dec.STRONGLY_NIL_CLEAN, False) in _sweep_keys(m2)
    assert ("sweep", dec.STRONGLY_J_CLEAN, True) not in _sweep_keys(m2)


def _bytes_in(key):
    if isinstance(key, bytes):
        yield key
    elif isinstance(key, tuple):
        for part in key:
            yield from _bytes_in(part)


def test_no_cache_key_holds_a_ring_sized_mask():
    # sweeps are keyed by kind, so after the default suite the only bytes in
    # a cache key are the ideal masks of rings within IDEAL_ENUM_LIMIT
    from pclean.verifier import IDEAL_ENUM_LIMIT, run_suite

    rings = [build_ring(name) for name in DEFAULT_CATALOG]
    rings.append(build_ring("T2(Z64)", limit=540_000))
    dec.ring_verdicts(rings[-1])
    run_suite()
    for r in rings:
        sizes = [len(b) for key in r.cache for b in _bytes_in(key)]
        assert max(sizes, default=0) <= IDEAL_ENUM_LIMIT, r.name


_STRUCTURE_RINGS = [*DEFAULT_CATALOG, "T2(Z64)", "T3(Z8)", "M2(Z16)", "M2(Z4[i])",
                    "T2(Z9[w])", "Z32768", "T3(Z6)"]


@pytest.mark.parametrize("name", _STRUCTURE_RINGS)
def test_strongly_pclean_iff_boolean_modulo_the_radical(name):
    # J(R) is nilpotent in a finite ring, so J = P, and R is strongly P-clean
    # iff R/J is Boolean iff x - x^2 lies in J for every x; every finite ring
    # is strongly pi-regular, hence strongly clean (Nicholson 1999).  Read
    # from the squaring map and J's mask, this checks the P sweep up to
    # order 531441
    r = build_ring(name, limit=540_000)
    x = np.arange(r.order, dtype=np.int64)
    boolean = bool(rad.jacobson_radical(r).mask[r.vsub(x, r.squares.astype(np.int64))].all())
    assert dec.is_strongly_pclean_ring(r)[0] == boolean
    if r.order <= UNIT_SCAN_LIMIT:
        assert dec.is_strongly_clean_ring(r)[0]
