import json

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from pclean import decompositions as dec
from pclean.errors import NotLiftable, OrderLimitExceeded, UnknownTheoremId
from pclean.matrices import (
    discriminant_criteria,
    matrix_from_index,
    matrix_ring,
    triangular_pclean,
    triangular_ring,
)
from pclean.rings import RingTable, build_ring
from pclean.verifier import (
    CHECK_IDS,
    TheoremCheck,
    TheoremReport,
    VerifyEnv,
    load_catalog_file,
    replay_counterexample,
    run_suite,
    verify,
)

from oracles import conjugation_reach_oracle
from table_kernel import corrupted, corrupted_zn


def test_check_ids_cover_the_numbered_claims():
    expected = {
        "T2.1", "T2.4", "C2.5", "L2.6", "L2.7", "T2.8", "L2.9", "P2.10", "T2.10",
        "C2.11", "C2.12", "T2.13", "C2.14", "L3.1", "T3.2", "C3.3", "T3.5", "C3.6",
        "P3.7", "L4.1", "T4.2", "T4.4", "C4.5", "E4.6", "T5.1", "C5.2", "E5.3",
        "T5.4", "P5.6",
    }
    assert set(CHECK_IDS) == expected


def test_unknown_theorem_id():
    with pytest.raises(UnknownTheoremId):
        verify("T9.9", ["Z4"])


def test_t3_5_holds_on_small_locals():
    checks = verify("T3.5", ["Z4", "Z8", "Z4[i]"])
    assert all(c.verdict == "HOLDS" for c in checks)


def test_e4_6_holds_only_on_z4():
    checks = verify("E4.6", ["Z4", "Z8"])
    by_ring = {c.ring: c.verdict for c in checks}
    assert by_ring == {"Z4": "HOLDS", "Z8": "SKIPPED"}


def test_t2_10_holds_with_both_sides_false():
    (check,) = verify("T2.10", ["T2(Z2)"])
    assert check.verdict == "HOLDS"
    from pclean import decompositions as dec
    from pclean import radicals as rad

    t2 = build_ring("T2(Z2)")
    assert not dec.is_uniquely_pclean_ring(t2)[0]
    assert not rad.is_abelian(t2)


def test_hypothesis_not_met_for_nonlocal():
    (check,) = verify("T3.5", ["Z6"])
    assert check.verdict == "HYPOTHESIS_NOT_MET"


def test_empty_catalog():
    report = run_suite([])
    assert report.exit_status == 0
    # only the catalog-independent C2.14 placeholder remains
    assert [c.id for c in report.checks] == ["C2.14"]
    assert report.checks[0].verdict == "SKIPPED"


def test_c2_14_always_skipped_with_reason():
    report = run_suite(["Z4"], only="C2.14")
    (check,) = report.checks
    assert check.verdict == "SKIPPED" and "scope" in check.note


def test_report_shape_and_determinism():
    env = VerifyEnv()
    r1 = run_suite(["Z4", "Z6"], env, only="T2.1").to_dict()
    r2 = run_suite(["Z4", "Z6"], env, only="T2.1").to_dict()
    for doc in (r1, r2):
        for entry in doc["checks"]:
            assert set(entry) >= {"id", "ring", "verdict", "counterexample", "millis"}
    strip = lambda d: [
        {k: v for k, v in e.items() if k != "millis"} for e in d["checks"]
    ]
    assert strip(r1) == strip(r2)
    assert json.dumps(strip(r1))  # JSON serializable


def test_ring_major_suite_equals_theorem_major_verify():
    # run_suite loops ring by ring; the report must be what one verify per
    # theorem over the whole catalog gives, sorted by (id, ring)
    cat = ["Z2", "Z4", "Z6", "T2(Z2)", "Z3[w]", "Z4xZ2"]
    strip = lambda checks: [{k: v for k, v in c.to_dict().items() if k != "millis"} for c in checks]
    want = [c for tid in CHECK_IDS for c in verify(tid, cat)]
    want.sort(key=lambda c: (CHECK_IDS.index(c.id), c.ring))
    assert strip(run_suite(cat).checks) == strip(want)


def test_corrupted_table_surfaces_counterexample():
    bad = corrupted_zn(0, 2, 1, "Z4c_021")  # 0*2 = 1 breaks commutativity
    (check,) = verify("T2.10", [bad])
    assert check.verdict == "COUNTEREXAMPLE"
    vals = check.counterexample["values"]
    assert vals["uniquely_pclean_ring"] != (vals["abelian"] and vals["strongly_pclean_ring"])
    report = TheoremReport(catalog=["Z4c_021"], checks=[check])
    assert report.exit_status == 1
    # the payload re-validates against the same (fixture) ring
    assert replay_counterexample(check, ring=bad)


def test_corrupted_table_breaks_matrix_criteria():
    from pclean.matrices import matrix_ring

    bad = corrupted_zn(2, 2, 2, "Z4c_222")  # 2*2 = 2 desynchronizes the criteria
    (check,) = verify("T4.4", [bad])
    assert check.verdict == "COUNTEREXAMPLE"
    crit = check.counterexample["criteria"]
    assert len(set(crit.values())) > 1
    assert replay_counterexample(check, ring=matrix_ring(bad))


def test_replay_detects_stale_payload():
    bad = corrupted_zn(0, 2, 1, "Z4c_021b")
    (check,) = verify("T2.10", [bad])
    check.counterexample["values"]["abelian"] = True  # tamper
    assert not replay_counterexample(check, ring=bad)


def test_self_test_traps_fire_on_radical_breaking_corruption():
    # corrupting a unit product makes P escape J; the library refuses to
    # produce a radical rather than reporting nonsense
    from pclean import radicals as rad
    from pclean.errors import RadicalNotIdeal

    bad = corrupted_zn(3, 3, 0, "Z4c_330")
    with pytest.raises(RadicalNotIdeal):
        rad.jacobson_radical(bad)


@pytest.mark.parametrize("tid", ["L2.7", "T2.8"])
def test_ideal_power_trap_fires_when_a_power_escapes(tid):
    # with 2*2 = 1 the powers of {0, 2} would alternate {0, 2} -> R -> {0, 2}
    from pclean.errors import RadicalNotIdeal

    bad = corrupted_zn(2, 2, 1, "Z4c_221")
    with pytest.raises(RadicalNotIdeal, match="escapes"):
        verify(tid, [bad])


# one counterexample per payload shape (element, matrix, ideal, ideal pair,
# criteria) and per extra field (idempotent, power_order), from five
# corrupted Z4 tables and one Z8 table; "Z<n>c_<row><col><val>" is Z_n with
# mul[row][col] = val
PINNED_PAYLOADS = [
    ("Z4c_012", "L2.7", '{"kind": "ideal", "ring": "Z4c_012", "ideal_gens": ["2"], "ideal_order": 2, "property": "pclean_iff_quotient_by_nilpotent_pclean", "expected": false, "actual": true}'),
    ("Z4c_012", "T2.8", '{"kind": "ideal", "ring": "Z4c_012", "ideal_gens": ["2"], "ideal_order": 2, "power_order": 1, "property": "pclean_quotient_stable_under_ideal_powers", "expected": true, "actual": false}'),
    ("Z4c_012", "P2.10", '{"kind": "ideal_pair", "ring": "Z4c_012", "ideal_gens": [["2"], ["2"]], "orders": [2, 2], "both_quotients": true, "mod_product": false, "mod_intersection": true}'),
    ("Z4c_012", "C2.12", '{"kind": "element", "ring": "Tc2(Z4c_012)", "element": "[0,1;0,0]", "property": "strongly_pclean", "expected": true, "actual": false}'),
    ("Z4c_012", "L3.1", '{"kind": "element", "ring": "Z4c_012", "element": "3", "idempotent": "1", "property": "annihilators_carry_to_idempotent", "expected": true, "actual": false}'),
    ("Z4c_021", "P3.7", '{"kind": "element", "ring": "T2(Z4c_021)", "element": "[0,0;0,2]", "property": "pclean_iff_diagonal_in_P_or_1P", "expected": true, "actual": false}'),
    ("Z4c_021", "L4.1", '{"kind": "matrix", "ring": "M2(Z4c_021)", "matrix": "[0,0;0,2]", "property": "radical_of_matrix_ring_is_matrix_of_radical", "expected": true, "actual": false}'),
    ("Z4c_221", "T4.2", '{"kind": "matrix", "ring": "M2(Z4c_221)", "matrix": "[0,0;0,3]", "property": "pclean_iff_trivial_or_diag_similar", "expected": true, "actual": false}'),
    ("Z4c_221", "T4.4", '{"kind": "matrix", "ring": "M2(Z4c_221)", "matrix": "[2,1;2,3]", "property": "three_criteria_agree", "criteria": {"idempotent_scan": false, "difference_in_radical": false, "quadratic_roots": true}}'),
    ("Z4c_221", "C4.5", '{"kind": "matrix", "ring": "M2(Z4c_221)", "matrix": "[2,1;2,3]", "property": "pclean_iff_ratio_equation_root_in_P", "expected": true, "actual": false}'),
    ("Z4c_221", "T5.1", '{"kind": "matrix", "ring": "M2(Z4c_221)", "matrix": "[2,2;2,2]", "property": "pclean_implies_discriminant_square_of_1P", "expected": true, "actual": false}'),
    ("Z4c_221", "C5.2", '{"kind": "matrix", "ring": "M2(Z4c_221)", "matrix": "[0,1;1,1]", "property": "pclean_iff_discriminant_square_of_1P", "expected": true, "actual": false}'),
    ("Z4c_221", "T5.4", '{"kind": "matrix", "ring": "M2(Z4c_221)", "matrix": "[0,0;0,3]", "property": "pclean_iff_pi_regular_and_companion_similar", "expected": true, "actual": false}'),
    ("Z4c_110", "T2.4", '{"kind": "element", "ring": "Z4c_110", "element": "3", "property": "idempotent_lift", "expected": "lift", "actual": "PcleanError(\'lift remainder not nilpotent for 3\')"}'),
    ("Z4c_332", "C2.11", '{"kind": "element", "ring": "Z4c_332", "element": "0", "property": "uniquely_clean_count", "expected": 1, "actual": 0}'),
    ("Z8c_220", "E5.3", '{"kind": "matrix", "ring": "M2(Z8c_220)", "matrix": "[3,2;3,2]", "property": "family_pclean_iff_1_plus_4pq_square", "expected": true, "actual": false}'),
    ("Z8c_220", "P5.6", '{"kind": "matrix", "ring": "M2(Z8c_220)", "matrix": "[0,0;6,3]", "property": "pi_regular_iff_unit_or_nilpotent_or_pclean", "expected": false, "actual": true}'),
]


def _payload_ring(bad: RingTable, name: str) -> RingTable:
    from pclean.matrices import matrix_ring, triangular_ring
    from pclean.rings import ConstDiagKernel

    if name.startswith("Tc2("):
        return RingTable(ConstDiagKernel(2, bad), name)
    if name.startswith("T2("):
        return triangular_ring(bad)
    return matrix_ring(bad) if name.startswith("M2(") else bad


@pytest.mark.parametrize(
    "name, tid, payload", PINNED_PAYLOADS, ids=[tid for _, tid, _ in PINNED_PAYLOADS]
)
def test_counterexample_payloads_are_pinned_and_replay(name, tid, payload):
    bad = corrupted_zn(*map(int, name[-3:]), name, n=int(name[1]))
    (check,) = verify(tid, [bad])
    assert check.verdict == "COUNTEREXAMPLE"
    assert json.dumps(check.counterexample) == payload
    # the serialized payload alone is enough to replay it, whatever its kind
    check.counterexample = json.loads(payload)
    ring = _payload_ring(bad, check.counterexample["ring"])
    assert replay_counterexample(check, ring=ring)
    # the recorded side is recomputed, not echoed: with `actual` set to the
    # expected side (no violation at all) the payload does not replay
    if "actual" in check.counterexample:
        check.counterexample["actual"] = check.counterexample["expected"]
        assert not replay_counterexample(check, ring=ring)


@pytest.mark.parametrize(
    "name, tid, payload",
    [p for p in PINNED_PAYLOADS if '"expected"' in p[2]],
    ids=[tid for _, tid, payload in PINNED_PAYLOADS if '"expected"' in payload],
)
def test_a_payload_whose_expected_side_is_changed_does_not_replay(name, tid, payload):
    # both recorded sides are re-derived: with `expected` set to the actual
    # side (a flip, for the boolean ones) the payload does not replay
    bad = corrupted_zn(*map(int, name[-3:]), name, n=int(name[1]))
    cex = json.loads(payload)
    cex["expected"] = cex["actual"]
    check = TheoremCheck(tid, name, "COUNTEREXAMPLE", cex, 0.0)
    assert not replay_counterexample(check, ring=_payload_ring(bad, cex["ring"]))


# payloads recorded where the claim holds: each check HOLDS on its ring, so
# re-deriving both sides finds them equal and none of these replays
HOLDING_PAYLOADS = [
    ("L4.1", "Z4", {"kind": "matrix", "ring": "M2(Z4)", "matrix": "[2,0;0,0]",
                    "property": "radical_of_matrix_ring_is_matrix_of_radical",
                    "expected": False, "actual": True}),
    ("T4.2", "Z4", {"kind": "matrix", "ring": "M2(Z4)", "matrix": "[1,2;2,2]",
                    "property": "pclean_iff_trivial_or_diag_similar",
                    "expected": False, "actual": True}),
    ("L2.7", "Z8", {"kind": "ideal", "ring": "Z8", "ideal_gens": ["2"], "ideal_order": 4,
                    "property": "pclean_iff_quotient_by_nilpotent_pclean",
                    "expected": False, "actual": True}),
]


@pytest.mark.parametrize("tid, base, payload", HOLDING_PAYLOADS, ids=[p[0] for p in HOLDING_PAYLOADS])
def test_a_payload_from_a_ring_where_the_claim_holds_does_not_replay(tid, base, payload):
    assert [c.verdict for c in verify(tid, [base])] == ["HOLDS"]
    assert not replay_counterexample(TheoremCheck(tid, base, "COUNTEREXAMPLE", payload, 0.0))


def test_a_payload_from_a_ring_outside_the_claims_hypothesis_does_not_replay():
    # T4.2 assumes a local ring; on M2(Z6) its two sides differ, but Z6 is not
    # local, so the check gives HYPOTHESIS_NOT_MET and the payload is no
    # counterexample: replay re-applies the check's guards to Z6
    from pclean.verifier import _MASK_SIDES

    m2 = build_ring("M2(Z6)")
    prop = "pclean_iff_trivial_or_diag_similar"
    expected, actual = _MASK_SIDES[prop](m2)
    at = m2.parse_element("[0,0;0,3]").index
    assert (bool(expected[at]), bool(actual[at])) == (False, True)
    assert int((expected != actual).sum()) == 38
    assert [c.verdict for c in verify("T4.2", ["Z6"])] == ["HYPOTHESIS_NOT_MET"]
    payload = {"kind": "matrix", "ring": "M2(Z6)", "matrix": "[0,0;0,3]",
               "property": prop, "expected": False, "actual": True}
    assert not replay_counterexample(TheoremCheck("T4.2", "Z6", "COUNTEREXAMPLE", payload, 0.0))


def test_replay_does_not_reapply_a_skipping_guard(monkeypatch):
    # a guard that skips (a budget, ideal enumeration) says nothing of the
    # claim's hypothesis: a payload recorded where it let the check run
    # replays where it would skip it
    import pclean.verifier as verifier

    name, tid, payload = next(p for p in PINNED_PAYLOADS if p[1] == "L2.7")
    bad = corrupted_zn(*map(int, name[-3:]), name, n=int(name[1]))
    monkeypatch.setattr(verifier, "IDEAL_ENUM_LIMIT", 2)
    assert [c.verdict for c in verify(tid, [bad])] == ["SKIPPED"]
    check = TheoremCheck(tid, name, "COUNTEREXAMPLE", json.loads(payload), 0.0)
    assert replay_counterexample(check, ring=bad)


def test_e4_6_payload_names_the_matrix_ring(monkeypatch):
    # the worked example's matrix lives in M2(Z4): its payload names that
    # ring, so replay parses the matrix and, with no registered sides for
    # E4.6's property, returns False instead of raising MalformedSpec
    from types import SimpleNamespace

    from pclean import matrices

    monkeypatch.setattr(matrices, "classify_pclean_2x2",
                        lambda A: SimpleNamespace(kind="NOT_P_CLEAN", certificate=None, witness=None))
    (check,) = verify("E4.6", ["Z4"])
    assert check.verdict == "COUNTEREXAMPLE"
    assert check.counterexample == {
        "kind": "matrix", "ring": "M2(Z4)", "matrix": "[1,2;2,2]",
        "property": "worked_example_split_with_valid_certificate", "expected": True,
        "actual": "NOT_P_CLEAN",
    }
    assert replay_counterexample(check) is False


def _replays_until_expected_changes(check: TheoremCheck, ring: RingTable) -> None:
    assert replay_counterexample(check, ring=ring)
    check.counterexample["expected"] = check.counterexample["actual"]
    assert not replay_counterexample(check, ring=ring)


def test_c5_2_half_root_payload_replays(monkeypatch):
    # half roots that miss the characteristic equation: the payload keeps
    # its shape and replays through its registered pair of masks
    from pclean import verifier

    monkeypatch.setattr(verifier, "quadratic", lambda r, x, tr, det: np.ones_like(x))
    (check,) = verify("C5.2", ["Z3"])
    assert check.verdict == "COUNTEREXAMPLE"
    cex = check.counterexample
    assert list(cex) == ["kind", "ring", "matrix", "property", "expected", "actual"]
    assert (cex["ring"], cex["property"], cex["expected"], cex["actual"]) == (
        "M2(Z3)", "half_roots_solve_characteristic_equation", True, False,
    )
    _replays_until_expected_changes(check, build_ring("M2(Z3)"))


def test_t3_2_corner_payload_replays(monkeypatch):
    # a corner mask that disagrees with the ring's at 0: the payload replays
    # through T3.2's one pair of sides; a corner that is no idempotent, or
    # an element outside the corner, replays False without raising.  A fresh
    # Z6: corner masks are cached on their ring, so the shared one may
    # already hold them
    real = dec.strongly_pclean_mask

    def flipped(r):
        mask = real(r)
        if "|" in r.name:  # a corner ring
            mask = mask.copy()
            mask[0] = not mask[0]
        return mask

    monkeypatch.setattr(dec, "strongly_pclean_mask", flipped)
    z6 = RingTable(build_ring("Z6").kernel, "Z6")
    (check,) = verify("T3.2", [z6])
    assert check.verdict == "COUNTEREXAMPLE"
    cex = check.counterexample
    assert cex == {"kind": "element", "ring": "Z6", "corner": "1", "element": "0",
                   "property": "pclean_in_ring_iff_in_corner", "expected": True, "actual": False}
    for corner, element in (("2", "0"), ("3", "1")):
        other = TheoremCheck("T3.2", "Z6", "COUNTEREXAMPLE", {**cex, "corner": corner, "element": element}, 0.0)
        assert replay_counterexample(other, ring=z6) is False
    _replays_until_expected_changes(check, z6)


def test_corrupted_tables_give_typed_outcomes_and_payloads_that_replay():
    # every single-entry corruption of the multiplication tables of Z2, Z3
    # and Z4 and of Z4's addition table, through the mask-checked ids and the
    # ideal-lattice ids: each outcome is a verdict or a PcleanError (anything
    # else propagates), and each payload replays on the rings the check read
    # and on a fresh copy of the table (tests/corruption_sweep.py runs every
    # table and id)
    from corruption_sweep import corruptions, run_case

    tids = ["C2.12", "P3.7", "L4.1", "T4.2", "T4.4", "C4.5", "T5.1", "C5.2", "E5.3", "T5.4", "P5.6"]
    tids += ["L2.6", "L2.7", "T2.8", "P2.10"]
    cases = [*corruptions(ops=("mul",)), *corruptions(("Z4",), ops=("add",))]
    assert len(cases) == 118
    replays = [(case, tid, *r) for case in cases for tid in tids for r in run_case(case, tid)[1]]
    assert len(replays) == 288
    assert [r for r in replays if not (r[-2] and r[-1])] == []


@pytest.mark.parametrize(
    "spec, row, col, val", [("Z2[w]", 0, 1, 3), ("Z2[w]", 0, 2, 1), ("T2(Z2)", 4, 2, 4)]
)
def test_p2_10_reads_only_certified_ideals_of_a_table(spec, row, col, val):
    # on these tables the additive span of a principal ideal is no ideal (on
    # the first, {0, 3} holds 3 but not 3*1 = 2); P2.10 once recorded such a
    # span as an ideal_pair payload, which replay then rejected
    from pclean import radicals as rad
    from pclean.verifier import enumerate_ideals

    bad = corrupted(spec, "mul", row, col, val)
    assert all(rad._certify_ideal(bad, m) for m in enumerate_ideals(bad))
    (check,) = verify("P2.10", [bad])
    assert check.verdict == "HOLDS"


@pytest.mark.parametrize("tid", ["T2.4", "L2.6", "L2.7", "T2.8", "P2.10"])
def test_a_collapsed_quotient_of_a_table_is_no_spec_error(tid):
    # Z4 with add[1][0] = 0: a quotient inside the check has 0 = 1, but the
    # input was a table, not a spec
    from pclean.errors import MalformedSpec, PcleanError

    bad = corrupted_zn(1, 0, 0, "Z4add100", op="add")
    with pytest.raises(PcleanError, match=r"Z4add100/I: ring collapses") as exc:
        verify(tid, [bad])
    assert not isinstance(exc.value, MalformedSpec)


def _t5_1_side_from_the_record(m2, idx: int) -> bool:
    rec = discriminant_criteria(matrix_from_index(m2, idx))
    return rec.in_p or rec.one_minus_in_p or (rec.trace_in_one_plus_p and bool(rec.square_witnesses))


# T5.1's scope in the catalog: every matrix where M2 has order <= 4096, a
# sample on the two order-6561 M2 rings
@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z8", "Z2[i]"])
def test_t5_1_side_matches_the_discriminant_record(name):
    from pclean import verifier

    m2 = matrix_ring(build_ring(name))
    side = verifier._MASK_SIDES["pclean_implies_discriminant_square_of_1P"](m2)[1]
    assert side.tolist() == [_t5_1_side_from_the_record(m2, i) for i in range(m2.order)]


@pytest.mark.parametrize("name", ["Z9", "Z3[w]"])
@given(data=st.data())
def test_t5_1_side_matches_the_discriminant_record_sampled(name, data):
    from pclean import verifier

    m2 = matrix_ring(build_ring(name))
    side = verifier._MASK_SIDES["pclean_implies_discriminant_square_of_1P"](m2)[1]
    idx = data.draw(st.integers(0, m2.order - 1))
    assert side[idx] == _t5_1_side_from_the_record(m2, idx)


def test_catalog_file_loading(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text("# comment line\nZ4\n  z8[i]  # inline\n\nT2(Z2)\n")
    assert load_catalog_file(str(path)) == ["Z4", "Z8[i]", "T2(Z2)"]


def test_l2_9_runs_on_pairs():
    checks = verify("L2.9", ["Z2", "Z4"])
    names = {c.ring for c in checks}
    assert names == {"Z2 x Z2", "Z2 x Z4", "Z4 x Z4"}
    assert all(c.verdict == "HOLDS" for c in checks)


def test_l2_9_product_verdicts_match_factors():
    from pclean import decompositions as dec
    from pclean.rings import ProductKernel

    ra, rb = build_ring("Z4"), build_ring("Z6")
    prod = RingTable(ProductKernel([ra, rb]), "Z4 x Z6")
    assert dec.is_strongly_pclean_ring(prod)[0] is False
    assert dec.is_strongly_pclean_ring(ra)[0] and not dec.is_strongly_pclean_ring(rb)[0]


def test_ideal_checks_skip_above_bound():
    checks = verify("L2.7", ["M2(Z4)"])
    assert checks[0].verdict == "SKIPPED"
    assert "64" in checks[0].note


def test_t3_5_notes_skipped_triangular_sizes():
    (check,) = verify("T3.5", ["Z8"])
    assert check.verdict == "HOLDS"
    assert "T3" in (check.note or "")


@pytest.mark.parametrize(
    "tid, ring, verdict, note",
    [
        ("L4.1", "Z4[i]", "SKIPPED", "M2 order 65536 exceeds budget 16384"),
        ("T4.2", "Z9", "SKIPPED", "M2 order 6561 exceeds budget 4096"),
        ("T5.4", "Z9", "SKIPPED", "M2 order 6561 exceeds budget 4096"),
        ("C5.2", "Z4", "HYPOTHESIS_NOT_MET", "2 is not a unit"),
        ("P5.6", "Z9", "HYPOTHESIS_NOT_MET", "needs R/J = Z_2 with J nilpotent"),
        ("P5.6", "T2(Z2)", "HYPOTHESIS_NOT_MET", "ring is not commutative"),
        ("P3.7", "Z9[w]", "SKIPPED", "T2 order 531441 beyond limit 65536"),
        ("C3.6", "Z9[w]", "SKIPPED", "T2 order 531441 exceeds budget 4096"),
        ("L2.7", "M2(Z4)", "SKIPPED", "ideal enumeration limited to order <= 64"),
        ("T3.5", "Z8", "HOLDS", "T3 order 262144 beyond limit"),
        ("C2.12", "Z32", "HOLDS", "Tc3 order 1048576 beyond limit"),
    ],
)
def test_guard_verdicts_and_notes(tid, ring, verdict, note):
    (check,) = verify(tid, [ring])
    assert (check.verdict, check.note) == (verdict, note)


def test_verify_accepts_env_limits():
    env = VerifyEnv(limit=540_000)
    (check,) = verify("T3.5", ["Z9[w]"], env)
    assert check.verdict == "HOLDS"  # includes the order-531441 T2 scan


def test_criterion_mismatch_raised_on_corrupt_base():
    from pclean.errors import CriterionMismatch
    from pclean.matrices import Matrix2, classify_pclean_2x2

    bad = corrupted_zn(2, 2, 2, "Z4c_222b")
    with pytest.raises(CriterionMismatch):
        for idx in range(bad.order**4 // 16):  # scan until the criteria split
            A = Matrix2(bad, idx // 4, idx % 4, 0, 2)
            classify_pclean_2x2(A)


def test_ring_too_large_guard_for_unit_enumeration():
    from pclean.errors import RingTooLarge

    big = build_ring("T2(Z9[w])", limit=540_000)
    with pytest.raises(RingTooLarge):
        big.unit_mask


def test_a_ring_above_the_unit_scan_limit_is_skipped_not_fatal():
    # Z32768 is within the order limit but above UNIT_SCAN_LIMIT: the check
    # that needs its units is SKIPPED with the size guard's message, and the
    # rings before it keep their results
    checks = verify("T2.1", ["Z4", "Z32768"])
    assert [(c.ring, c.verdict, c.note) for c in checks] == [
        ("Z4", "HOLDS", None),
        ("Z32768", "SKIPPED", "unit enumeration needs order <= 16384, Z32768 has 32768"),
    ]


def test_t2_4_lets_non_library_errors_propagate(monkeypatch):
    def broken(r, a):
        raise ZeroDivisionError("bug inside the lift")

    monkeypatch.setattr(dec, "idempotent_lift", broken)
    with pytest.raises(ZeroDivisionError):
        verify("T2.4", ["Z4"])


def test_t2_4_reports_a_failed_lift_as_counterexample(monkeypatch):
    def refuse(r, a):
        raise NotLiftable("no lift")

    monkeypatch.setattr(dec, "idempotent_lift", refuse)
    (check,) = verify("T2.4", ["Z4"])
    assert check.verdict == "COUNTEREXAMPLE"
    assert check.counterexample["property"] == "idempotent_lift"


@pytest.mark.parametrize("name", ["Z8", "Z9", "Z16", "Z4[i]", "Z3[w]"])
def test_squares_of_one_plus_p_match_a_loop_over_one_plus_p(name):
    from pclean import radicals as rad
    from pclean.matrices import squares_of_one_plus_p as _squares_of_one_plus_p

    r = build_ring(name)
    pm = rad.prime_radical(r).mask
    least = {}
    for u in range(r.order):  # ascending, so the first u per square is the least
        if pm[r.sub(u, r.one)]:
            least.setdefault(r.mul(u, u), u)
    is_square, got = _squares_of_one_plus_p(r)
    assert {y: int(got[y]) for y in np.flatnonzero(is_square).tolist()} == least
    assert (got[~is_square] == -1).all()


@pytest.mark.parametrize(
    "name, tids",
    [
        ("M2(Z4)", ("T4.2", "T5.4")),
        ("M2(Z8)", ("T4.2", "T5.4")),
        ("M2(Z2[i])", ("T4.2", "T5.4")),
        ("M2(Z3)", ("T4.2", "T5.4")),
        ("T2(Z4[i])", ("C3.6",)),
        ("T2(Z8)", ("C3.6",)),
        ("T2(Z9)", ("C3.6",)),
    ],
)
def test_conjugation_orbits_match_the_per_unit_loop(monkeypatch, name, tids):
    # the masks the checks conjugate, recorded on their way in, and seeded
    # random ones, against one conjugation pass per unit
    from pclean import verifier

    reach, seen = verifier._conjugation_reach, []

    def recorded(rt, qual):
        seen.append((rt, qual))
        return reach(rt, qual)

    monkeypatch.setattr(verifier, "_conjugation_reach", recorded)
    for tid in tids:
        (check,) = verify(tid, [name[3:-1]])
        assert check.verdict == "HOLDS"
    rt = build_ring(name)
    assert [r for r, _ in seen] == [rt] * len(tids)
    rng = np.random.default_rng(7)
    masks = [q for _, q in seen] + [rng.random(rt.order) < p for p in (0.003, 0.02, 0.1)]
    for qual in masks:
        assert np.array_equal(reach(rt, qual), conjugation_reach_oracle(rt, qual))


def test_pi_regular_mask_returns_on_a_table_that_is_no_ring():
    # lanes that never return to a^M, or whose witness fails, read False
    from pclean.matrices import matrix_ring

    m2 = matrix_ring(corrupted_zn(2, 2, 1, "Z4c_221p"))
    mask = dec.strongly_pi_regular_mask(m2)
    assert mask.shape == (m2.order,) and mask.dtype == bool and not mask.all()


MADE_UP_SIDES = [
    ("T2.1", "Z4xZ2", {"product_strongly_pclean": True, "both_factors_strongly_pclean": False}),
    ("T2.1", "Z4xZ2", {"product_strongly_pclean": False, "both_factors_strongly_pclean": True}),
    ("T2.1", "Z4", {"strongly_pclean_ring": True, "all_corners_strongly_pclean": False}),
    ("T2.1", "Z4", {"strongly_pclean_ring": True, "every_t2_matrix_trivial_or_diagonalizable": False}),
    ("T2.1", "Z4", {"strongly_pclean_ring": True, "boolean_mod_prime": True,
                    "idempotent_within_radical_for_all": True,
                    "double_commutant_idempotent_for_all": False}),
    ("T2.1", "Z4", {"strongly_pclean_ring": True, "no_such_property": False}),
    ("T2.1", "Z4", {"product_strongly_pclean": True, "both_factors_strongly_pclean": True}),
    ("T2.1", "Z4", {}),
    # every side recomputes to its record, but the sides keep the claim's
    # rule (on Z4 every claim holds): first iff the AND of the rest, or, for
    # T2.4 and T3.5, all agree
    ("T2.1", "Z4", {"strongly_pclean_ring": True, "strongly_clean_ring": True}),
    ("T2.1", "Z4", {"strongly_pclean_ring": True}),
    ("T3.5", "Z4", {"strongly_pclean_ring": True, "uniquely_pclean_ring": True}),
    ("T3.5", "Z4", {"strongly_pclean_ring": True}),
    ("C2.5", "Z4", {"strongly_pclean_ring": True, "one_plus_units_strongly_nilpotent": True}),
    ("C2.5", "Z4", {"strongly_pclean_ring": True}),
]


@pytest.mark.parametrize(
    "tid, ring, values", MADE_UP_SIDES,
    ids=[f"{ring}-values{i}" for i, (_, ring, _) in enumerate(MADE_UP_SIDES)],
)
def test_made_up_sides_payloads_do_not_replay(tid, ring, values):
    # every recorded side is recomputed; a name without a definition, a
    # product side on a ring that is no product, or sides that keep the
    # claim's rule never replay
    check = TheoremCheck(tid, ring, "COUNTEREXAMPLE", {"kind": "sides", "values": values}, 0.0)
    assert not replay_counterexample(check, ring=build_ring(ring))


def test_sides_replay_applies_the_claims_rule():
    # on Z6 these values recompute to their records; T2.1's first side equals
    # the AND of the rest, so its claim holds, but T2.4's sides must all agree
    vals = {"strongly_pclean_ring": False, "strongly_clean_ring": True, "boolean_mod_jacobson": False}
    for tid, replays in (("T2.1", False), ("T2.4", True)):
        check = TheoremCheck(tid, "Z6", "COUNTEREXAMPLE", {"kind": "sides", "values": vals}, 0.0)
        assert replay_counterexample(check, ring=build_ring("Z6")) is replays


# SHA-256 of the JSON list of every `sides` counterexample that the ten
# side-recording checks give over the single-entry corruptions of Z4's
# multiplication table, as the checks produced them before the side table
SIDES_DIGEST = "636945d4b11841080b47866ec668ab2ecf6e93230f4a9b9e2e800a00907d9911"


def test_genuine_sides_payloads_are_unchanged_and_replay():
    import hashlib

    from pclean.errors import PcleanError
    from pclean.rings import ProductKernel

    tids = ["T2.1", "T2.4", "C2.5", "T2.10", "T2.13", "C3.3", "T3.5", "C3.6", "L2.9"]
    zn = build_ring("Z4")
    payloads = []
    for row, col, val in np.ndindex(4, 4, 4):
        if zn.mul(row, col) == val:
            continue
        name = f"Z4c_{row}{col}{val}"
        for tid in tids:
            bad = corrupted_zn(row, col, val, name)
            try:
                checks = verify(tid, [bad])
            except PcleanError:
                continue  # the table is no ring, and the library says so
            for c in checks:
                if c.verdict == "COUNTEREXAMPLE" and c.counterexample["kind"] == "sides":
                    ring = RingTable(ProductKernel([bad, bad]), c.ring) if tid == "L2.9" else bad
                    assert replay_counterexample(c, ring=ring), (name, tid)
                    payloads.append([name, tid, c.counterexample])
    assert len(payloads) == 113
    digest = hashlib.sha256(json.dumps(payloads).encode()).hexdigest()
    assert digest == SIDES_DIGEST


def test_replay_of_a_triangular_side_above_the_default_limit_raises():
    # T3(Z8) has order 8**6 = 262,144; replay has no limit of its own to
    # raise, so it refuses before building the ring
    from pclean.verifier import TheoremCheck

    payload = {"kind": "sides", "values": {"strongly_pclean_ring": True,
                                           "triangular_3_strongly_pclean": False}}
    check = TheoremCheck("T3.5", "Z8", "COUNTEREXAMPLE", payload, 0.0)
    with pytest.raises(OrderLimitExceeded, match=r"T3\(Z8\) has order 262144 > limit 65536"):
        replay_counterexample(check, ring=build_ring("Z8"))


def _replay_side_on_z64(tid: str, side: str) -> bool:
    from pclean.verifier import TheoremCheck

    payload = {"kind": "sides", "values": {side: False}}
    return replay_counterexample(TheoremCheck(tid, "Z64", "COUNTEREXAMPLE", payload, 0.0),
                                 ring=build_ring("Z64"))


_T2_Z64_OVER = "T2(Z64) has order 262144 > limit 65536"


@pytest.mark.parametrize(
    "call,want",
    [
        (lambda: matrix_ring(build_ring("Z64")), "M2(Z64) has order 16777216 > limit 65536"),
        (lambda: triangular_ring(build_ring("Z64")), _T2_Z64_OVER),
        (lambda: triangular_pclean(build_ring("Z64"), 1, 0, 0), _T2_Z64_OVER),
        (lambda: _replay_side_on_z64("C3.6", "every_t2_matrix_trivial_or_diagonalizable"),
         _T2_Z64_OVER),
        (lambda: _replay_side_on_z64("T3.5", "triangular_2_strongly_pclean"), _T2_Z64_OVER),
        # the live-ring branch: T2(Z64) exists, built under a larger limit
        (lambda: build_ring("T2(Z64)", limit=1 << 20) and build_ring("T2(Z64)"), _T2_Z64_OVER),
    ],
    ids=["matrix_ring", "triangular_ring", "triangular_pclean", "replay_C3.6", "replay_T3.5",
         "build_ring_live"],
)
def test_a_ring_over_its_limit_raises_one_error(call, want):
    with pytest.raises(OrderLimitExceeded) as exc:
        call()
    assert str(exc.value) == want


def test_l2_9_pair_above_the_limit_is_skipped_with_its_note():
    checks = verify("L2.9", ["Z4", "M2(Z4)"], VerifyEnv(limit=4096))
    by_pair = {c.ring: (c.verdict, c.note) for c in checks}
    assert by_pair == {
        "Z4 x Z4": ("HOLDS", None),
        "Z4 x M2(Z4)": ("HOLDS", None),
        "M2(Z4) x M2(Z4)": ("SKIPPED", "product order 65536 beyond limit"),
    }


def test_c2_12_sweeps_the_catalogs_own_tc_ring(monkeypatch):
    from pclean import verifier

    swept = []
    sides = verifier._MASK_SIDES["strongly_pclean"]

    def recording_sides(r):
        swept.append(r)
        return sides(r)

    monkeypatch.setitem(verifier._MASK_SIDES, "strongly_pclean", recording_sides)
    checks = verify("C2.12", ["Z4", "Tc2(Z4)"])
    assert [c.verdict for c in checks] == ["HOLDS", "HOLDS"]
    tc2 = [r for r in swept if r.name == "Tc2(Z4)"]
    assert tc2 and all(r is build_ring("Tc2(Z4)") for r in tc2)


def test_env_limit_caps_every_ring_the_checks_build(monkeypatch):
    # the limit bounds every materialized ring, also under a check's larger
    # budget: M2(Z4) and M2(Z2[i]) (order 256) stay unbuilt at limit 100
    import gc

    import pclean.rings as rings

    seen = []
    init, hold = RingTable.__init__, rings._hold

    def recording_init(self, kernel, name):
        init(self, kernel, name)
        seen.append((self.order, name))

    def recording_hold(ring):
        seen.append((ring.order, ring.name))
        return hold(ring)

    monkeypatch.setattr(RingTable, "__init__", recording_init)
    monkeypatch.setattr(rings, "_hold", recording_hold)
    rings._RING_CACHE.clear()
    gc.collect()
    env = VerifyEnv(limit=100)
    for theorem_id in CHECK_IDS:
        verify(theorem_id, ["Z2", "Z3", "Z4", "Z2[i]"], env)
    assert seen and [s for s in seen if s[0] > 100] == []
    (check,) = verify("L4.1", ["Z4"], env)
    assert (check.verdict, check.note) == ("SKIPPED", "M2 order 256 beyond limit 100")


@pytest.mark.parametrize("val", [1, 2])
def test_no_surviving_candidate_raises_radical_not_ideal(val):
    # with 0*0 != 0 no nilpotent candidate survives the first filter block
    from pclean import radicals as rad
    from pclean.errors import RadicalNotIdeal

    with pytest.raises(RadicalNotIdeal):
        rad.prime_radical(corrupted_zn(0, 0, val, f"Z4c_00{val}"))
    with pytest.raises(RadicalNotIdeal):
        verify("P5.6", [corrupted_zn(0, 0, val, f"Z4c_00{val}")])


def test_t2_4_notes_the_double_commutant_budget(monkeypatch):
    from pclean import verifier

    assert verify("T2.4", ["Z8"])[0].note is None
    monkeypatch.setattr(verifier, "COMMUTANT_BUDGET", 4)
    (check,) = verify("T2.4", ["Z8"])
    assert (check.verdict, check.note) == ("HOLDS", "double-commutant side limited to order <= 4")


def test_l3_1_skips_above_the_annihilator_scan_bound():
    # the annihilator test reads a whole row and column per (a, e) pair, so
    # L3.1 shares T2.4's bound on per-element scans instead of running for
    # tens of seconds on Z32768
    import time

    t0 = time.perf_counter()
    (check,) = verify("L3.1", ["Z32768"])
    assert time.perf_counter() - t0 < 1.0
    assert (check.verdict, check.note) == ("SKIPPED", "annihilator scan limited to order <= 4096")


def test_c3_3_and_t3_2_build_each_corner_once(monkeypatch):
    # one fact per nonzero idempotent f, cached on the ring: C3.3's side and
    # T3.2's sides read the same corner fRf, built once (M2(Z4) has 25)
    from pclean import verifier

    built = []
    real = verifier.corner_ring
    monkeypatch.setattr(verifier, "corner_ring", lambda r, f: built.append(f) or real(r, f))
    m2 = RingTable(build_ring("M2(Z4)").kernel, "M2(Z4)")  # fresh caches
    assert int((m2.idempotent_indices != m2.zero).sum()) == 25
    assert [c.verdict for c in verify("C3.3", [m2]) + verify("T3.2", [m2])] == ["HOLDS", "HOLDS"]
    assert len(built) == len(set(built)) == 25


def test_a_record_payload_of_another_kind_does_not_replay():
    # a record property's payload replays only as the kind its side table
    # names: L3.1's element record as a matrix, L2.7's ideal as an element
    for tid, kind, key in (("L3.1", "matrix", "element"), ("L2.7", "element", None)):
        name, _, payload = next(p for p in PINNED_PAYLOADS if p[1] == tid)
        bad = corrupted_zn(*map(int, name[-3:]), name, n=int(name[1]))
        cex = json.loads(payload)
        assert replay_counterexample(TheoremCheck(tid, name, "COUNTEREXAMPLE", cex, 0.0), ring=bad)
        cex["kind"] = kind
        if key:
            cex["matrix"] = cex.pop(key)
        assert not replay_counterexample(TheoremCheck(tid, name, "COUNTEREXAMPLE", cex, 0.0), ring=bad)
