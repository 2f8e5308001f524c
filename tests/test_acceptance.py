"""Acceptance gate: one test per criterion, each printing a PASS line with its
runtime.  Tolerances are exact (set equality / boolean equality) except for the
stated wall-clock bounds."""

import hashlib
import json
import time
from pathlib import Path

from pclean import decompositions as dec
from pclean import radicals as rad
from pclean.matrices import (
    Matrix2,
    SPLIT,
    classify_pclean_2x2,
    definitional_mask,
    diff_in_p_mask,
    matrix_ring,
    roots_criterion_mask,
    solve_phi,
)
from pclean.rings import build_ring
from pclean.verifier import DEFAULT_CATALOG, VerifyEnv, run_suite, verify

from oracles import ideal_generated


def _report(num, seconds, detail):
    print(f"PASS criterion {num:2d} ({seconds:7.2f}s)  {detail}")


def test_criterion_01_worked_example_reproduction():
    t0 = time.perf_counter()
    r = build_ring("Z4")
    A = Matrix2.parse(r, "[1,2;2,2]")
    diff = A - A * A
    assert repr(diff) == "[0,0;0,2]"
    res = classify_pclean_2x2(A)
    assert res.kind == SPLIT
    assert res.certificate is not None and res.certificate.validate()
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, dt, "A - A^2 = [0,0;0,2] with a re-validated certificate")


def test_criterion_02_three_criteria_equivalence_z4_z8():
    t0 = time.perf_counter()
    mismatches = 0
    total = 0
    for name in ("Z4", "Z8"):
        m2 = matrix_ring(build_ring(name))
        masks = [definitional_mask(m2), diff_in_p_mask(m2), roots_criterion_mask(m2)]
        total += m2.order
        mismatches += int((masks[0] != masks[1]).sum())
        mismatches += int((masks[0] != masks[2]).sum())
    assert total == 256 + 4096
    assert mismatches == 0
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(2, dt, f"{total} matrices, zero criterion mismatches")


def test_criterion_03_radical_of_m2_z4():
    t0 = time.perf_counter()
    m2 = matrix_ring(build_ring("Z4"))
    lhs = set(map(int, rad.prime_radical(m2).indices))
    rhs = {
        ((a * 4 + b) * 4 + c) * 4 + d
        for a in (0, 2)
        for b in (0, 2)
        for c in (0, 2)
        for d in (0, 2)
    }
    assert lhs == rhs
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(3, dt, "P(M2(Z4)) equals the 16 matrices with entries in {0,2}")


def test_criterion_04_paper_radical_values():
    t0 = time.perf_counter()
    g4 = build_ring("Z4[i]")
    p_g = rad.prime_radical(g4)
    assert p_g == ideal_generated(g4, [g4.parse_element("1+i").index])
    assert p_g.order == 8
    q_g = build_ring("Z4[i]/(1+i)")
    assert q_g.order == 2

    e9 = build_ring("Z9[w]")
    p_e = rad.prime_radical(e9)
    assert p_e == ideal_generated(e9, [e9.parse_element("1-w").index])
    assert p_e.order == 27
    q_e = build_ring("Z9[w]/(1-w)")
    assert q_e.order == 3
    dt = time.perf_counter() - t0
    _report(4, dt, "P(Z4[i]) = (1+i), P(Z9[w]) = (1-w), quotient orders 2 and 3")


def test_criterion_05_ring_verdict_table():
    t0 = time.perf_counter()
    assert dec.is_uniquely_pclean_ring(build_ring("Z4"))[0] is True
    t2z2 = build_ring("T2(Z2)")
    assert dec.is_strongly_pclean_ring(t2z2)[0] is True
    assert dec.is_uniquely_clean_ring(t2z2)[0] is False
    assert dec.is_strongly_pclean_ring(build_ring("Z9[w]"))[0] is False
    t2e9 = build_ring("T2(Z9[w])", limit=540_000)
    assert dec.is_strongly_pclean_ring(t2e9)[0] is False
    for name in DEFAULT_CATALOG:
        r = build_ring(name)
        if rad.is_boolean(r):
            assert dec.is_strongly_pclean_ring(r)[0] is True
    dt = time.perf_counter() - t0
    _report(5, dt, "published ring verdicts reproduced exactly")


def test_criterion_06_theorem_3_5_equivalence():
    t0 = time.perf_counter()
    env = VerifyEnv(limit=540_000)
    rings = ["Z2", "Z4", "Z8", "Z2[i]", "Z4[i]", "Z3[w]", "Z9[w]"]
    checks = verify("T3.5", rings, env)
    assert [c.verdict for c in checks] == ["HOLDS"] * len(rings)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _report(6, dt, "conditions and T2/T3 cleanness agree on all 7 local rings")


def test_criterion_07_discriminant_checks():
    t0 = time.perf_counter()
    (c,) = verify("T5.1", ["Z8"])
    assert c.verdict == "HOLDS"
    dt1 = time.perf_counter() - t0
    assert dt1 < 120.0
    t1 = time.perf_counter()
    (c,) = verify("C5.2", ["Z9"])
    assert c.verdict == "HOLDS"
    dt2 = time.perf_counter() - t1
    assert dt2 < 120.0
    _report(7, dt1 + dt2, "T5.1 necessity over M2(Z8); C5.2 equivalence over M2(Z9)")


def test_criterion_08_idempotent_lift_property():
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    for name in DEFAULT_CATALOG:
        r = build_ring(name)
        pm = rad.prime_radical(r).mask
        for a in range(r.order):
            if not pm[r.sub(a, r.mul(a, a))]:
                continue
            checked += 1
            e = dec.idempotent_lift(r, a)
            if (
                r.mul(e, e) != e
                or r.mul(e, a) != r.mul(a, e)
                or not pm[r.sub(a, e)]
            ):
                failures += 1
    assert failures == 0 and checked > 0
    assert dec.idempotent_lift(build_ring("Z8"), 3) == 1
    dt = time.perf_counter() - t0
    _report(8, dt, f"{checked} liftable elements, zero failures; f(3) = 1 over Z8")


def test_criterion_09_phi_solver_totality():
    t0 = time.perf_counter()
    checked = 0
    for name in ("Z4", "Z8"):
        r = build_ring(name)
        pm = rad.prime_radical(r).mask
        one_plus = [x for x in range(r.order) if pm[r.sub(x, r.one)]]
        nilp = [x for x in range(r.order) if pm[x]]
        for a in one_plus:
            for b in nilp:
                for v in range(r.order):
                    x = solve_phi(r, a, b, v)
                    assert r.sub(r.mul(a, x), r.mul(x, b)) == v
                    checked += 1
    dt = time.perf_counter() - t0
    _report(9, dt, f"{checked} (a, b, v) triples solved exactly over Z4 and Z8")


VERIFY_REF = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "catalog_verify.json"


def test_criterion_10_full_suite():
    t0 = time.perf_counter()
    report = run_suite(DEFAULT_CATALOG)
    assert report.exit_status == 0
    summary = report.summary
    assert summary["COUNTEREXAMPLE"] == 0
    # the report minus the timings is the recorded one, check for check
    doc = report.to_dict()
    for c in doc["checks"]:
        del c["millis"]
    ref = json.loads(VERIFY_REF.read_text())
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ref["sha256"]
    assert doc["summary"] == ref["summary"]
    assert summary["HOLDS"] > 0
    c214 = [c for c in report.checks if c.id == "C2.14"]
    assert len(c214) == 1 and c214[0].verdict == "SKIPPED"
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _report(10, dt, f"suite summary {summary}, exit status 0")
