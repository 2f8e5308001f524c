"""Executable checks for the numbered claims, run over a ring catalog.

Every check computes the two sides of its statement independently from
primitives (scans, closures, quotients); no side is derived from the other.
Counterexample payloads carry element/matrix literals so a violation can be
re-verified without re-running the scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import decompositions as dec
from . import radicals as rad
from . import specs
from .errors import PcleanError, UnknownTheoremId
from .matrices import (
    Matrix2,
    definitional_mask,
    diff_in_p_mask,
    entries_in_p_mask,
    m2_invariants,
    matrix_from_index,
    matrix_ring,
    one_minus_in_p_mask,
    quadratic_roots,
    roots_criterion_mask,
    triangular_ring,
)
from .rings import (
    DEFAULT_ORDER_LIMIT,
    ConstDiagKernel,
    ProductKernel,
    QuotientKernel,
    RingTable,
    build_ring,
    corner_ring,
    ideal_closure_mask,
    subgroup_basis,
)

HOLDS = "HOLDS"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
HYPOTHESIS_NOT_MET = "HYPOTHESIS_NOT_MET"
SKIPPED = "SKIPPED"

DEFAULT_CATALOG = [
    "Z2",
    "Z3",
    "Z4",
    "Z6",
    "Z8",
    "Z9",
    "Z2[i]",
    "Z4[i]",
    "Z3[w]",
    "Z9[w]",
    "T2(Z2)",
    "T2(Z4)",
    "Tc2(Z4)",
    "M2(Z2)",
    "M2(Z4)",
    "Z4xZ2",
]


IDEAL_ENUM_LIMIT = 64  # ring order for ideal-lattice enumeration
MASK_BUDGET = 16384  # matrix-ring order for whole-space mask checks
SIM_BUDGET = 4096  # matrix/triangular order for GL-conjugation scans
COMMUTANT_BUDGET = 4096  # ring order for T2.4's per-element double-commutant scan


@dataclass
class VerifyEnv:
    limit: int = DEFAULT_ORDER_LIMIT  # materialization cap for derived rings


@dataclass
class TheoremCheck:
    id: str
    ring: str
    verdict: str
    counterexample: dict | None
    millis: float
    note: str | None = None

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "ring": self.ring,
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "millis": round(self.millis, 3),
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class TheoremReport:
    catalog: list
    checks: list = field(default_factory=list)

    @property
    def summary(self) -> dict:
        out = {HOLDS: 0, COUNTEREXAMPLE: 0, HYPOTHESIS_NOT_MET: 0, SKIPPED: 0}
        for c in self.checks:
            out[c.verdict] += 1
        return out

    @property
    def exit_status(self) -> int:
        return 1 if self.summary[COUNTEREXAMPLE] else 0

    def to_dict(self) -> dict:
        return {
            "catalog": self.catalog,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }


# ---------------------------------------------------------------------------
# shared helpers


def _sides(**named) -> dict:
    return {"kind": "sides", "values": {k: v for k, v in named.items()}}


def _ideal_gens(r: RingTable, mask: np.ndarray) -> list[str]:
    return [r.fmt_index(int(i)) for i in subgroup_basis(r, np.flatnonzero(mask))]


def _cex(kind: str, ring: RingTable, prop: str, expected, actual, **subject) -> dict:
    """A counterexample payload: what was checked, where, and both sides."""
    return {
        "kind": kind, "ring": ring.name, **subject,
        "property": prop, "expected": expected, "actual": actual,
    }


def _element_cex(r: RingTable, idx: int, prop: str, expected, actual) -> dict:
    return _cex("element", r, prop, expected, actual, element=r.fmt_index(idx))


def _ideal_cex(r: RingTable, mask: np.ndarray, prop: str, expected, actual, **extra) -> dict:
    return _cex(
        "ideal", r, prop, expected, actual,
        ideal_gens=_ideal_gens(r, mask), ideal_order=int(mask.sum()), **extra,
    )


def _quotient_table(r: RingTable, mask: np.ndarray) -> RingTable | None:
    """Quotient by an already-closed ideal; None encodes the zero ring."""
    if mask.all():
        return None
    kernel = QuotientKernel(r, np.flatnonzero(mask))
    return RingTable(kernel, f"{r.name}/I")


def _boolean_mod(r: RingTable, mask: np.ndarray) -> bool:
    """Whether r modulo the closed ideal `mask` is Boolean (the zero ring is)."""
    q = _quotient_table(r, mask)
    return True if q is None else rad.is_boolean(q)


def _quotient_pclean(r: RingTable, mask: np.ndarray) -> bool:
    key = ("qp", mask.tobytes())
    memo = r.cache.setdefault("quotient_pclean_memo", {})
    if key in memo:
        return memo[key]
    q = _quotient_table(r, mask)
    val = True if q is None else dec.is_strongly_pclean_ring(q)[0]
    memo[key] = val
    return val


def enumerate_ideals(r: RingTable) -> list[np.ndarray]:
    """All ideals generated by at most two elements, deduplicated."""
    cached = r.cache.get("ideal_enum")
    if cached is not None:
        return cached
    seen = {}
    zero_mask = ideal_closure_mask(r, np.asarray([], np.int64))
    seen[zero_mask.tobytes()] = zero_mask
    singles = []
    for a in range(r.order):
        m = ideal_closure_mask(r, np.asarray([a], np.int64))
        seen.setdefault(m.tobytes(), m)
        singles.append(m)
    for a in range(r.order):
        for b in range(a + 1, r.order):
            if singles[a][b] or singles[b][a]:
                continue  # pair ideal equals a single-generator closure
            m = ideal_closure_mask(r, np.asarray([a, b], np.int64))
            seen.setdefault(m.tobytes(), m)
    out = sorted(seen.values(), key=lambda m: (int(m.sum()), m.tobytes()))
    r.cache["ideal_enum"] = out
    return out


def _conjugation_reach(rt: RingTable, qual: np.ndarray) -> np.ndarray:
    """Mask of A similar (via units of rt) to some element with qual set."""
    found = qual.copy()
    inv = rt.unit_inverses
    for u in rt.unit_indices:
        conj = rt.mul_col(u)[rt.mul_row(inv[u])]  # (u^-1 * y) * u for every y
        found |= qual[conj]
        if found.all():
            break
    return found


def _one_plus_p_mask(r: RingTable) -> np.ndarray:
    pm = rad.prime_radical(r).mask
    idx = np.arange(r.order, dtype=np.int64)
    return pm[r.vsub(idx, np.int64(r.one))]


def _mask_check(ring: RingTable, kind: str, prop: str, actual, expected):
    """HOLDS when two whole-ring masks agree, else the least index where they
    differ as a `kind` ("element" or "matrix") counterexample."""
    bad = np.flatnonzero(actual != expected)
    if bad.size == 0:
        return HOLDS, None
    b = int(bad[0])
    return COUNTEREXAMPLE, _cex(
        kind, ring, prop, bool(expected[b]), bool(actual[b]), **{kind: ring.fmt_index(b)}
    )


def _first_diff(masks: list[np.ndarray]) -> int | None:
    agree = masks[0]
    acc = np.ones_like(agree)
    for m in masks[1:]:
        acc &= m == agree
    bad = np.flatnonzero(~acc)
    return int(bad[0]) if bad.size else None


# Guards: (ring, env) -> None, or the (verdict, note) that replaces the check.


def _requires(holds, note: str, verdict: str = HYPOTHESIS_NOT_MET):
    """Guard replacing a check by (verdict, note) on rings where holds(r) fails."""
    return lambda r, env: None if holds(r) else (verdict, note)


_local = _requires(rad.is_local, "ring is not local")
_commutative = _requires(lambda r: r.commutative, "ring is not commutative")
_two_is_unit = _requires(lambda r: r.is_unit(r.embed_int(2)), "2 is not a unit")
_residue_z2 = _requires(rad.residue_is_z2, "needs R/J = Z_2 with J nilpotent")
_ideal_enum = _requires(
    lambda r: r.order <= IDEAL_ENUM_LIMIT,
    f"ideal enumeration limited to order <= {IDEAL_ENUM_LIMIT}",
    SKIPPED,
)
_z4_only = _requires(lambda r: r.name == "Z4", "worked example is specific to Z4", SKIPPED)


def _budget(family: str, budget: int | None = None):
    """Guard skipping a check whose ring family_2(r) is larger than `budget`,
    or than env.limit when no budget is given."""

    def guard(r: RingTable, env: VerifyEnv):
        order = specs.derived_order(family, 2, r.order)
        if budget is None and order > env.limit:
            return (SKIPPED, f"{family}2 order {order} beyond limit {env.limit}")
        if budget is not None and order > budget:
            return (SKIPPED, f"{family}2 order {order} exceeds budget {budget}")
        return None

    return guard


# ---------------------------------------------------------------------------
# section 2 checks


def _check_t2_1(r: RingTable, env: VerifyEnv):
    lhs, lhs_cex = dec.is_strongly_pclean_ring(r)
    sc, sc_cex = dec.is_strongly_clean_ring(r)
    j = rad.jacobson_radical(r)
    boolean_mod_j = _boolean_mod(r, j.mask)
    loc_nilp = rad.is_locally_nilpotent(j)
    rhs = sc and boolean_mod_j and loc_nilp
    if lhs == rhs:
        return HOLDS, None
    cex = _sides(
        strongly_pclean_ring=lhs,
        strongly_clean_ring=sc,
        boolean_mod_jacobson=boolean_mod_j,
        jacobson_locally_nilpotent=loc_nilp,
    )
    wit = lhs_cex if lhs_cex is not None else sc_cex
    if wit is not None:
        cex["witness"] = r.fmt_index(wit)
    return COUNTEREXAMPLE, cex


def _check_t2_4(r: RingTable, env: VerifyEnv):
    idx = np.arange(r.order, dtype=np.int64)
    pm = rad.prime_radical(r).mask
    c1 = dec.is_strongly_pclean_ring(r)[0]
    c2 = _boolean_mod(r, pm)
    acc3 = np.zeros(r.order, dtype=bool)
    for e in r.idempotent_indices:
        acc3 |= pm[r.vsub(idx, np.int64(e))]
    c3 = bool(acc3.all())
    conditions = {
        "strongly_pclean_ring": c1,
        "boolean_mod_prime": c2,
        "idempotent_within_radical_for_all": c3,
    }
    if r.order <= COMMUTANT_BUDGET:
        c4 = True
        for x in range(r.order):
            comm = np.flatnonzero(r.mul_row(x) == r.mul_col(x))
            cand = r.idempotent_indices[pm[r.vsub(np.int64(x), r.idempotent_indices)]]
            if not any(np.array_equal(r.vmul(e, comm), r.vmul(comm, e)) for e in cand):
                c4 = False
                break
        conditions["double_commutant_idempotent_for_all"] = c4
    vals = set(conditions.values())
    if len(vals) != 1:
        return COUNTEREXAMPLE, _sides(**conditions)
    # constructive lifting: a - a^2 in P must lift to an idempotent inside P
    for a in range(r.order):
        if pm[r.sub(a, r.mul(a, a))]:
            try:
                e = dec.idempotent_lift(r, a)
            except PcleanError as exc:  # a failed lift is a genuine violation
                return COUNTEREXAMPLE, _element_cex(r, a, "idempotent_lift", "lift", repr(exc))
            if not pm[r.sub(a, e)]:
                return COUNTEREXAMPLE, _element_cex(r, a, "lift_remainder_in_radical", True, False)
    return HOLDS, None


def _check_c2_5(r: RingTable, env: VerifyEnv):
    lhs = dec.is_strongly_pclean_ring(r)[0]
    pm = rad.prime_radical(r).mask
    shifted = r.vadd(np.int64(r.one), r.unit_indices)
    rhs = bool(pm[shifted].all())
    if lhs == rhs:
        return HOLDS, None
    bad = r.unit_indices[~pm[shifted]]
    cex = _sides(strongly_pclean_ring=lhs, one_plus_units_strongly_nilpotent=rhs)
    if bad.size:
        cex["witness"] = r.fmt_index(int(r.add(r.one, int(bad[0]))))
    cex["note"] = "periodicity holds in every finite ring"
    return COUNTEREXAMPLE, cex


def _check_l2_6(r: RingTable, env: VerifyEnv):
    if not dec.is_strongly_pclean_ring(r)[0]:
        return HYPOTHESIS_NOT_MET, None
    for mask in enumerate_ideals(r):
        if not _quotient_pclean(r, mask):
            return COUNTEREXAMPLE, _ideal_cex(r, mask, "quotient_strongly_pclean", True, False)
    return HOLDS, None


def _check_l2_7(r: RingTable, env: VerifyEnv):
    base_verdict = dec.is_strongly_pclean_ring(r)[0]
    for mask in enumerate_ideals(r):
        if rad.nilpotency_index(rad.Ideal(r, mask)) is None:
            continue
        qv = _quotient_pclean(r, mask)
        if qv != base_verdict:
            prop = "pclean_iff_quotient_by_nilpotent_pclean"
            return COUNTEREXAMPLE, _ideal_cex(r, mask, prop, base_verdict, qv)
    return HOLDS, None


def _check_t2_8(r: RingTable, env: VerifyEnv):
    for mask in enumerate_ideals(r):
        v1 = _quotient_pclean(r, mask)
        for cur in list(rad.ideal_powers(r, mask))[1:]:
            if _quotient_pclean(r, cur) != v1:
                prop = "pclean_quotient_stable_under_ideal_powers"
                return COUNTEREXAMPLE, _ideal_cex(
                    r, mask, prop, v1, not v1, power_order=int(cur.sum())
                )
    return HOLDS, None


def _check_p2_10(r: RingTable, env: VerifyEnv):
    ideals = enumerate_ideals(r)
    for i, ma in enumerate(ideals):
        va = _quotient_pclean(r, ma)
        for mb in ideals[i:]:
            v1 = va and _quotient_pclean(r, mb)
            v2 = _quotient_pclean(r, rad.ideal_product_mask(r, ma, mb))
            v3 = _quotient_pclean(r, ma & mb)
            if not (v1 == v2 == v3):
                return COUNTEREXAMPLE, {
                    "kind": "ideal_pair",
                    "ring": r.name,
                    "ideal_gens": [_ideal_gens(r, ma), _ideal_gens(r, mb)],
                    "orders": [int(ma.sum()), int(mb.sum())],
                    "both_quotients": v1,
                    "mod_product": v2,
                    "mod_intersection": v3,
                }
    return HOLDS, None


def _check_t2_10(r: RingTable, env: VerifyEnv):
    lhs, lhs_cex = dec.is_uniquely_pclean_ring(r)
    ab = rad.is_abelian(r)
    sp = dec.is_strongly_pclean_ring(r)[0]
    if lhs == (ab and sp):
        return HOLDS, None
    cex = _sides(uniquely_pclean_ring=lhs, abelian=ab, strongly_pclean_ring=sp)
    if lhs_cex is not None:
        cex["witness"] = r.fmt_index(lhs_cex)
    return COUNTEREXAMPLE, cex


def _check_c2_11(r: RingTable, env: VerifyEnv):
    if not dec.is_uniquely_pclean_ring(r)[0]:
        return HYPOTHESIS_NOT_MET, None
    uc, cex = dec.is_uniquely_clean_ring(r)
    if uc:
        return HOLDS, None
    return COUNTEREXAMPLE, _element_cex(
        r, cex, "uniquely_clean_count", 1, dec.uniquely_clean_count(r, cex)
    )


def _check_c2_12(r: RingTable, env: VerifyEnv):
    if not dec.is_uniquely_pclean_ring(r)[0]:
        return HYPOTHESIS_NOT_MET, None
    note = []
    for k in (2, 3):
        order = specs.derived_order("Tc", k, r.order)
        if order > env.limit:
            note.append(f"Tc{k} order {order} beyond limit")
            continue
        # one-shot, unlike M_k/T_k: memoized on r, every Tc_k(r) of the
        # catalog would stay alive for the rest of the suite (about 130 MB
        # more peak RSS in run_suite())
        t = RingTable(ConstDiagKernel(k, r), f"Tc{k}({r.name})")
        holds, cex = dec.is_strongly_pclean_ring(t)
        if not holds:
            return COUNTEREXAMPLE, _element_cex(t, cex, "strongly_pclean", True, False)
    return HOLDS, ("; ".join(note) or None)


def _check_t2_13(r: RingTable, env: VerifyEnv):
    lhs = dec.is_uniquely_pclean_ring(r)[0]
    sp = dec.is_strongly_pclean_ring(r)[0]
    un = dec.is_uniquely_nilclean_ring(r)[0]
    if lhs == (sp and un):
        return HOLDS, None
    return COUNTEREXAMPLE, _sides(
        uniquely_pclean_ring=lhs, strongly_pclean_ring=sp, uniquely_nilclean_ring=un
    )


# ---------------------------------------------------------------------------
# section 3 checks


def _check_l3_1(r: RingTable, env: VerifyEnv):
    pm = rad.prime_radical(r).mask
    for a in range(r.order):
        aa = np.int64(a)
        cand = r.idempotent_indices
        valid = cand[
            (r.vmul(aa, cand) == r.vmul(cand, aa)) & pm[r.vsub(aa, cand)]
        ]
        if valid.size == 0:
            continue
        left_a = r.mul_col(a) == r.zero
        right_a = r.mul_row(a) == r.zero
        for e in valid:
            if (left_a & (r.mul_col(e) != r.zero)).any() or (
                right_a & (r.mul_row(e) != r.zero)
            ).any():
                return COUNTEREXAMPLE, _cex(
                    "element", r, "annihilators_carry_to_idempotent", True, False,
                    element=r.fmt_index(a), idempotent=r.fmt_index(int(e)),
                )
    return HOLDS, None


def _check_t3_2(r: RingTable, env: VerifyEnv):
    in_r = dec.strongly_pclean_mask(r)
    for f in r.idempotent_indices:
        f = int(f)
        if f == r.zero:
            continue
        corner, members = corner_ring(r, f)
        in_c = dec.strongly_pclean_mask(corner)
        for pos, m in enumerate(members):
            if bool(in_r[m]) != bool(in_c[pos]):
                return COUNTEREXAMPLE, _cex(
                    "element", r, "pclean_in_ring_iff_in_corner", bool(in_r[m]),
                    bool(in_c[pos]), corner=r.fmt_index(f), element=r.fmt_index(int(m)),
                )
    return HOLDS, None


def _check_c3_3(r: RingTable, env: VerifyEnv):
    lhs = dec.is_strongly_pclean_ring(r)[0]
    rhs = True
    witness = None
    for f in r.idempotent_indices:
        f = int(f)
        if f == r.zero:
            continue  # the zero corner is the zero ring, trivially clean
        corner, _ = corner_ring(r, f)
        ok, cex = dec.is_strongly_pclean_ring(corner)
        if not ok:
            rhs = False
            witness = (f, cex, corner)
            break
    if lhs == rhs:
        return HOLDS, None
    cex_payload = _sides(strongly_pclean_ring=lhs, all_corners_strongly_pclean=rhs)
    if witness:
        f, cex, corner = witness
        cex_payload["corner"] = r.fmt_index(f)
        cex_payload["witness"] = corner.fmt_index(cex)
    return COUNTEREXAMPLE, cex_payload


def _check_t3_5(r: RingTable, env: VerifyEnv):
    j = rad.jacobson_radical(r)
    conditions = {
        "strongly_pclean_ring": dec.is_strongly_pclean_ring(r)[0],
        "uniquely_pclean_ring": dec.is_uniquely_pclean_ring(r)[0],
        "residue_z2_and_locally_nilpotent": (
            r.order == 2 * j.order and rad.is_locally_nilpotent(j)
        ),
    }
    notes = []
    for k in (2, 3):
        order = specs.derived_order("T", k, r.order)
        if order > env.limit:
            notes.append(f"T{k} order {order} beyond limit")
            continue
        t = triangular_ring(r, k, limit=env.limit)
        conditions[f"triangular_{k}_strongly_pclean"] = dec.is_strongly_pclean_ring(t)[0]
    if len(set(conditions.values())) == 1:
        return HOLDS, ("; ".join(notes) or None)
    return COUNTEREXAMPLE, _sides(**conditions)


def _check_c3_6(r: RingTable, env: VerifyEnv):
    lhs = dec.is_strongly_pclean_ring(r)[0]
    t2 = triangular_ring(r)
    k = t2.kernel
    digits = k._digits(np.arange(t2.order, dtype=np.int64))
    pm = rad.prime_radical(r).mask
    onep = _one_plus_p_mask(r)
    diag0 = digits[1] == r.zero
    qual = diag0 & (
        (pm[digits[0]] & onep[digits[2]]) | (onep[digits[0]] & pm[digits[2]])
    )
    pt2 = rad.prime_radical(t2).mask
    idx = np.arange(t2.order, dtype=np.int64)
    triv = pt2 | pt2[t2.vsub(np.int64(t2.one), idx)]
    reach = _conjugation_reach(t2, qual)
    rhs = bool((triv | reach).all())
    if lhs == rhs:
        return HOLDS, None
    bad = np.flatnonzero(~(triv | reach))
    cex = _sides(strongly_pclean_ring=lhs, every_t2_matrix_trivial_or_diagonalizable=rhs)
    if bad.size:
        cex["witness"] = t2.fmt_index(int(bad[0]))
    return COUNTEREXAMPLE, cex


def _check_p3_7(r: RingTable, env: VerifyEnv):
    t2 = triangular_ring(r, 2, limit=env.limit)
    lhs = dec.strongly_pclean_mask(t2)
    digits = t2.kernel._digits(np.arange(t2.order, dtype=np.int64))
    pm = rad.prime_radical(r).mask
    onep = _one_plus_p_mask(r)
    ok_diag = (pm[digits[0]] | onep[digits[0]]) & (pm[digits[2]] | onep[digits[2]])
    return _mask_check(t2, "element", "pclean_iff_diagonal_in_P_or_1P", lhs, ok_diag)


# ---------------------------------------------------------------------------
# section 4 checks


def _check_l4_1(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = rad.prime_radical(m2).mask  # filtered from Nil(M2(R)), then certified
    rhs = entries_in_p_mask(m2)  # entries in P(base)
    return _mask_check(m2, "matrix", "radical_of_matrix_ring_is_matrix_of_radical", lhs, rhs)


def _check_t4_2(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = definitional_mask(m2)
    digits = m2_invariants(m2)[0]
    pm = rad.prime_radical(r).mask
    onep = _one_plus_p_mask(r)
    offdiag0 = (digits[1] == r.zero) & (digits[2] == r.zero)
    qual = offdiag0 & (
        (pm[digits[0]] & onep[digits[3]]) | (onep[digits[0]] & pm[digits[3]])
    )
    reach = _conjugation_reach(m2, qual)
    rhs = entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | reach
    return _mask_check(m2, "matrix", "pclean_iff_trivial_or_diag_similar", lhs, rhs)


def _check_t4_4(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    masks = [definitional_mask(m2), diff_in_p_mask(m2), roots_criterion_mask(m2)]
    bad = _first_diff(masks)
    if bad is None:
        return HOLDS, None
    return COUNTEREXAMPLE, {
        "kind": "matrix",
        "ring": m2.name,
        "matrix": m2.fmt_index(bad),
        "property": "three_criteria_agree",
        "criteria": {
            "idempotent_scan": bool(masks[0][bad]),
            "difference_in_radical": bool(masks[1][bad]),
            "quadratic_roots": bool(masks[2][bad]),
        },
    }


def _check_c4_5(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = definitional_mask(m2)
    base_idx = np.arange(r.order, dtype=np.int64)
    pm = rad.prime_radical(r).mask
    onep = _one_plus_p_mask(r)
    # ratio_root[c] <=> x^2 - x + c = 0 has a root in P
    sq_minus = r.vsub(r.vmul(base_idx, base_idx), base_idx)
    hit = r.vadd(sq_minus[:, None], base_idx[None, :]) == r.zero  # (x, c)
    ratio_root = (pm[:, None] & hit).any(axis=0)
    _, tr, det, _ = m2_invariants(m2)
    tr_ok = onep[tr]
    c = r.vmul(det, r.unit_inverses[r.vmul(tr, tr)] % r.order)  # garbage where tr not a unit
    branch = tr_ok & ratio_root[c]
    rhs = entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | branch
    return _mask_check(m2, "matrix", "pclean_iff_ratio_equation_root_in_P", lhs, rhs)


def _check_e4_6(r: RingTable, env: VerifyEnv):
    from .matrices import SPLIT, classify_pclean_2x2

    A = Matrix2.parse(r, "[1,2;2,2]")
    diff = A - A * A
    if repr(diff) != "[0,0;0,2]":
        return COUNTEREXAMPLE, _cex(
            "matrix", r, "A_minus_A_squared", "[0,0;0,2]", repr(diff), matrix=repr(A)
        )
    res = classify_pclean_2x2(A)
    ok = (
        res.kind == SPLIT
        and res.certificate is not None
        and res.certificate.validate()
        and res.witness is not None
        and res.witness.validate(A)
    )
    if ok:
        return HOLDS, None
    prop = "worked_example_split_with_valid_certificate"
    return COUNTEREXAMPLE, _cex("matrix", r, prop, True, res.kind, matrix=repr(A))


# ---------------------------------------------------------------------------
# section 5 checks


def _squares_of_one_plus_p(r: RingTable) -> tuple[np.ndarray, np.ndarray]:
    onep_idx = np.flatnonzero(_one_plus_p_mask(r))
    sq = np.zeros(r.order, dtype=bool)
    least = np.full(r.order, -1, dtype=np.int64)
    for u in onep_idx:
        y = r.mul(int(u), int(u))
        if not sq[y]:
            sq[y] = True
            least[y] = u
    return sq, least


def _check_t5_1(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = definitional_mask(m2)
    onep = _one_plus_p_mask(r)
    sq1p, _ = _squares_of_one_plus_p(r)
    _, tr, _, disc = m2_invariants(m2)
    rhs = entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | (onep[tr] & sq1p[disc])
    # necessity only: rhs must hold wherever lhs does
    return _mask_check(m2, "matrix", "pclean_implies_discriminant_square_of_1P", rhs, rhs | lhs)


def _check_c5_2(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = definitional_mask(m2)
    onep = _one_plus_p_mask(r)
    pm = rad.prime_radical(r).mask
    sq1p, least_u = _squares_of_one_plus_p(r)
    _, tr, det, disc = m2_invariants(m2)
    branch = onep[tr] & sq1p[disc]
    rhs = entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | branch
    verdict = _mask_check(m2, "matrix", "pclean_iff_discriminant_square_of_1P", lhs, rhs)
    if verdict[0] == COUNTEREXAMPLE:
        return verdict
    # the constructed half-roots must solve the characteristic equation
    half = np.int64(r.inverse(r.embed_int(2)))
    sel = np.flatnonzero(branch)
    u = least_u[disc[sel]]
    x1 = r.vmul(half, r.vsub(tr[sel], u))
    x2 = r.vmul(half, r.vadd(tr[sel], u))
    offending = np.zeros(sel.size, dtype=bool)
    for roots, want in ((x1, pm), (x2, onep)):
        val = r.vadd(r.vsub(r.vmul(roots, roots), r.vmul(tr[sel], roots)), det[sel])
        offending |= (val != r.zero) | ~want[roots]
    if offending.any():
        b = int(sel[np.flatnonzero(offending)[0]])
        prop = "half_roots_solve_characteristic_equation"
        return COUNTEREXAMPLE, _cex("matrix", m2, prop, True, False, matrix=m2.fmt_index(b))
    return HOLDS, None


def _check_e5_3(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs_all = definitional_mask(m2)
    pm = rad.prime_radical(r).mask
    sq1p, _ = _squares_of_one_plus_p(r)
    enc = m2.kernel._encode
    for p in map(int, np.flatnonzero(pm)):
        p1 = r.add(p, r.one)
        for q in range(r.order):
            aidx = int(
                enc([np.int64(p1), np.int64(p), np.int64(q), np.int64(p)])
            )
            want = bool(sq1p[r.add(r.one, r.mul(r.embed_int(4), r.mul(p, q)))])
            got = bool(lhs_all[aidx])
            if want != got:
                prop = "family_pclean_iff_1_plus_4pq_square"
                return COUNTEREXAMPLE, _cex(
                    "matrix", m2, prop, want, got, matrix=m2.fmt_index(aidx)
                )
    return HOLDS, None


def _check_t5_4(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = definitional_mask(m2)
    digits = m2_invariants(m2)[0]
    pm = rad.prime_radical(r).mask
    onep = _one_plus_p_mask(r)
    qual = (
        (digits[0] == r.zero)
        & (digits[2] == r.one)
        & pm[digits[1]]
        & onep[digits[3]]
    )
    reach = _conjugation_reach(m2, qual)
    trivial = entries_in_p_mask(m2) | one_minus_in_p_mask(m2)
    need_pi = np.flatnonzero(reach & ~trivial)
    pi_ok = np.zeros(m2.order, dtype=bool)
    for a in map(int, need_pi):
        pi_ok[a] = dec.strongly_pi_regular_element(m2, a)[0]
    rhs = trivial | (reach & pi_ok)
    return _mask_check(m2, "matrix", "pclean_iff_pi_regular_and_companion_similar", lhs, rhs)


def _check_p5_6(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    pcl = definitional_mask(m2)
    nil = rad.nilpotent_mask(m2)
    units = m2.unit_mask
    for a in range(m2.order):
        pi = dec.strongly_pi_regular_element(m2, a)[0]
        rhs = bool(units[a] or nil[a] or pcl[a])
        if pi != rhs:
            prop = "pi_regular_iff_unit_or_nilpotent_or_pclean"
            return COUNTEREXAMPLE, _cex("matrix", m2, prop, rhs, pi, matrix=m2.fmt_index(a))
    return HOLDS, None


# ---------------------------------------------------------------------------
# registry and drivers


@dataclass(frozen=True)
class CheckDef:
    id: str
    summary: str
    run: object  # (ring, env) -> (verdict, cex_or_note)
    applies: tuple = ()  # guards, tried in order; the first hit replaces the check


_CHECKS: list[CheckDef] = [
    CheckDef("T2.1", "strongly P-clean iff strongly clean + Boolean mod J + J locally nilpotent", _check_t2_1),
    CheckDef("T2.4", "four characterizations incl. Boolean mod P and the idempotent lift", _check_t2_4),
    CheckDef("C2.5", "strongly P-clean iff periodic and 1+U(R) strongly nilpotent", _check_c2_5),
    CheckDef("L2.6", "homomorphic images stay strongly P-clean", _check_l2_6, (_ideal_enum,)),
    CheckDef("L2.7", "P-cleanness passes through quotients by nilpotent ideals", _check_l2_7, (_ideal_enum,)),
    CheckDef("T2.8", "R/I vs R/I^n strongly P-clean", _check_t2_8, (_ideal_enum,)),
    CheckDef("L2.9", "finite direct products (restricted form)", None),  # pairs driver
    CheckDef("P2.10", "quotients by I, J vs IJ and their intersection", _check_p2_10, (_ideal_enum,)),
    CheckDef("T2.10", "uniquely P-clean iff abelian + strongly P-clean", _check_t2_10),
    CheckDef("C2.11", "uniquely P-clean implies uniquely clean", _check_c2_11),
    CheckDef("C2.12", "constant-diagonal triangular rings over uniquely P-clean bases", _check_c2_12),
    CheckDef("T2.13", "uniquely P-clean iff strongly P-clean + uniquely nil clean", _check_t2_13),
    CheckDef("C2.14", "Boolean iff uniquely P-clean + primary ideals prime", None),  # skipped
    CheckDef("L3.1", "annihilators of a carry to its idempotent part", _check_l3_1),
    CheckDef("T3.2", "P-cleanness agrees between R and its corners fRf", _check_t3_2),
    CheckDef("C3.3", "ring P-clean iff every corner is", _check_c3_3),
    CheckDef("T3.5", "local ring: P-clean iff uniquely iff residue Z_2 iff T_n P-clean", _check_t3_5, (_local,)),
    CheckDef("C3.6", "T2 elements: trivial classes or unit-diagonalizable", _check_c3_6, (_local, _budget("T", SIM_BUDGET))),
    CheckDef("P3.7", "triangular matrix P-clean iff diagonal in P or 1+P", _check_p3_7, (_local, _budget("T"))),
    CheckDef("L4.1", "P(M_2(R)) = M_2(P(R)) element-wise", _check_l4_1, (_budget("M", MASK_BUDGET),)),
    CheckDef("T4.2", "split P-clean matrices are unit-diagonalizable", _check_t4_2, (_local, _budget("M", SIM_BUDGET))),
    CheckDef("T4.4", "three 2x2 criteria agree on every matrix", _check_t4_4, (_commutative, _local, _budget("M", MASK_BUDGET))),
    CheckDef("C4.5", "ratio-form quadratic criterion", _check_c4_5, (_commutative, _local, _budget("M", MASK_BUDGET))),
    CheckDef("E4.6", "worked example over Z_4", _check_e4_6, (_z4_only,)),
    CheckDef("T5.1", "necessity of the discriminant-square condition", _check_t5_1, (_commutative, _local, _budget("M", MASK_BUDGET))),
    CheckDef("C5.2", "discriminant equivalence when 2 is a unit", _check_c5_2, (_commutative, _local, _two_is_unit, _budget("M", MASK_BUDGET))),
    CheckDef("E5.3", "the [[p+1,p],[q,p]] family", _check_e5_3, (_commutative, _local, _budget("M", MASK_BUDGET))),
    CheckDef("T5.4", "P-clean iff pi-regular and companion-similar", _check_t5_4, (_commutative, _local, _budget("M", SIM_BUDGET))),
    CheckDef("P5.6", "pi-regular trichotomy over residue-Z_2 rings", _check_p5_6, (_commutative, _residue_z2, _budget("M", SIM_BUDGET))),
]

CHECK_IDS = [c.id for c in _CHECKS]
_CHECK_BY_ID = {c.id: c for c in _CHECKS}
_ID_ORDER = {cid: i for i, cid in enumerate(CHECK_IDS)}


def _run_one(cd: CheckDef, ring: RingTable, env: VerifyEnv) -> TheoremCheck:
    start = time.perf_counter()
    for applies in cd.applies:
        guard = applies(ring, env)
        if guard:
            verdict, reason = guard
            millis = (time.perf_counter() - start) * 1000
            return TheoremCheck(cd.id, ring.name, verdict, None, millis, reason)
    verdict, payload = cd.run(ring, env)
    millis = (time.perf_counter() - start) * 1000
    if verdict == COUNTEREXAMPLE:
        return TheoremCheck(cd.id, ring.name, verdict, payload, millis)
    note = payload if isinstance(payload, str) else None
    return TheoremCheck(cd.id, ring.name, verdict, None, millis, note)


def _run_l2_9(rings: list[RingTable], env: VerifyEnv) -> list[TheoremCheck]:
    out = []
    for i, ra in enumerate(rings):
        for rb in rings[i:]:
            start = time.perf_counter()
            name = f"{ra.name} x {rb.name}"
            if ra.order * rb.order > env.limit:
                millis = (time.perf_counter() - start) * 1000
                out.append(
                    TheoremCheck(
                        "L2.9", name, SKIPPED, None, millis,
                        f"product order {ra.order * rb.order} beyond limit",
                    )
                )
                continue
            # one-shot: each pair is checked once, and a product memoized on
            # its factors would keep every catalog pair alive for the suite
            prod = RingTable(ProductKernel([ra, rb]), name)
            lhs = dec.is_strongly_pclean_ring(prod)[0]
            rhs = dec.is_strongly_pclean_ring(ra)[0] and dec.is_strongly_pclean_ring(rb)[0]
            millis = (time.perf_counter() - start) * 1000
            if lhs == rhs:
                out.append(TheoremCheck("L2.9", name, HOLDS, None, millis))
            else:
                out.append(
                    TheoremCheck(
                        "L2.9", name, COUNTEREXAMPLE,
                        _sides(product_strongly_pclean=lhs, both_factors_strongly_pclean=rhs),
                        millis,
                    )
                )
    return out


def verify(theorem_id: str, rings, env: VerifyEnv | None = None) -> list[TheoremCheck]:
    """Run one theorem check over the given rings (RingTables or spec strings)."""
    env = env or VerifyEnv()
    if theorem_id not in _CHECK_BY_ID:
        raise UnknownTheoremId(f"{theorem_id!r}; known ids: {', '.join(CHECK_IDS)}")
    tables = [r if isinstance(r, RingTable) else build_ring(r, env.limit) for r in rings]
    if theorem_id == "C2.14":
        return [
            TheoremCheck(
                "C2.14", "*", SKIPPED, None, 0.0,
                "primary-ideal machinery is out of scope",
            )
        ]
    if theorem_id == "L2.9":
        return _run_l2_9(tables, env)
    cd = _CHECK_BY_ID[theorem_id]
    return [_run_one(cd, r, env) for r in tables]


def run_suite(
    catalog: list[str] | None = None,
    env: VerifyEnv | None = None,
    only: str | None = None,
) -> TheoremReport:
    """Run every registered check (or a single id) over the catalog.

    The full suite runs ring-major: every single-ring check on one catalog
    ring before the next, so the derived rings one ring needs can leave the
    ring LRU before the next ring's are built.  The pairs driver (L2.9) and
    C2.14 follow; the report is sorted by (id, ring) either way.
    """
    env = env or VerifyEnv()
    names = list(catalog) if catalog is not None else list(DEFAULT_CATALOG)
    report = TheoremReport(catalog=names)
    if only:
        report.checks = verify(only, names, env)
    else:
        for name in names:
            ring = build_ring(name, env.limit)
            report.checks += [_run_one(cd, ring, env) for cd in _CHECKS if cd.run]
        for cd in _CHECKS:
            if cd.run is None:  # L2.9's pairs driver and the skipped C2.14
                report.checks.extend(verify(cd.id, names, env))
    report.checks.sort(key=lambda c: (_ID_ORDER[c.id], c.ring))
    return report


def load_catalog_file(path: str) -> list[str]:
    """One ring spec per line; '#' starts a comment."""
    names = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                names.append(specs.canon(specs.parse_ring_spec(line)))
    return names


# ---------------------------------------------------------------------------
# counterexample replay


def replay_counterexample(check: TheoremCheck, ring: RingTable | None = None) -> bool:
    """Re-verify a serialized counterexample from its payload alone.

    Returns True when the recorded violation is reproduced.  `ring` overrides
    the payload's ring lookup (needed for fixture rings with no spec).
    """
    payload = check.counterexample
    if not payload:
        return False
    kind = payload.get("kind")
    if kind == "sides":
        if ring is None:
            return False  # sides name ring-level properties; caller re-runs verify
        vals = payload["values"]
        recomputed = _recompute_properties(ring, vals)
        return recomputed == vals
    if kind in ("element", "matrix"):
        r = ring if ring is not None else build_ring(payload["ring"])
        idx = r.parse_element(payload.get("element") or payload["matrix"]).index
        if "criteria" in payload:  # a three-way criterion disagreement
            got = _recompute_matrix_criteria(r, idx)
            return got == payload["criteria"] and len(set(got.values())) > 1
        prop = payload["property"]
        actual = _recompute_element_property(r, idx, prop)
        if actual is None:
            return False
        return actual == payload.get("actual")
    if kind == "ideal":
        r = ring if ring is not None else build_ring(payload["ring"])
        mask = rad.ideal_generated(
            r, [r.parse_element(g).index for g in payload["ideal_gens"]]
        ).mask
        if int(mask.sum()) != payload["ideal_order"]:
            return False
        if payload["property"] == "pclean_quotient_stable_under_ideal_powers":
            powers = list(rad.ideal_powers(r, mask))
            order = payload["power_order"]
            cur = next((p for p in powers[1:] if p.sum() == order), powers[-1])
            return _quotient_pclean(r, cur) == payload["actual"]
        return _quotient_pclean(r, mask) == payload["actual"]
    if kind == "ideal_pair":
        r = ring if ring is not None else build_ring(payload["ring"])
        masks = [
            rad.ideal_generated(r, [r.parse_element(g).index for g in gens]).mask
            for gens in payload["ideal_gens"]
        ]
        ma, mb = masks
        v1 = _quotient_pclean(r, ma) and _quotient_pclean(r, mb)
        v2 = _quotient_pclean(r, rad.ideal_product_mask(r, ma, mb))
        v3 = _quotient_pclean(r, ma & mb)
        return (v1, v2, v3) == (
            payload["both_quotients"],
            payload["mod_product"],
            payload["mod_intersection"],
        ) and not (v1 == v2 == v3)
    return False


def _recompute_matrix_criteria(m2: RingTable, idx: int) -> dict:
    base = m2.kernel.base
    pm = rad.prime_radical(base).mask
    A = matrix_from_index(m2, idx)

    def in_p(M: Matrix2) -> bool:
        return all(pm[e] for e in M.entries())

    classes = {c for _, c in quadratic_roots(base, A.trace, A.det)}
    return {
        "idempotent_scan": dec.strongly_pclean_element(m2, idx)[0] is not None,
        "difference_in_radical": in_p(A - A * A),
        "quadratic_roots": in_p(A) or in_p(Matrix2.identity(base) - A)
        or {"P", "1+P"} <= classes,
    }


_RING_PROPS = {
    "strongly_pclean_ring": lambda r: dec.is_strongly_pclean_ring(r)[0],
    "uniquely_pclean_ring": lambda r: dec.is_uniquely_pclean_ring(r)[0],
    "strongly_clean_ring": lambda r: dec.is_strongly_clean_ring(r)[0],
    "uniquely_clean_ring": lambda r: dec.is_uniquely_clean_ring(r)[0],
    "uniquely_nilclean_ring": lambda r: dec.is_uniquely_nilclean_ring(r)[0],
    "abelian": rad.is_abelian,
    "boolean_mod_jacobson": lambda r: _boolean_mod(r, rad.jacobson_radical(r).mask),
    "boolean_mod_prime": lambda r: _boolean_mod(r, rad.prime_radical(r).mask),
    "jacobson_locally_nilpotent": lambda r: rad.is_locally_nilpotent(
        rad.jacobson_radical(r)
    ),
    "one_plus_units_strongly_nilpotent": lambda r: bool(
        rad.prime_radical(r).mask[r.vadd(np.int64(r.one), r.unit_indices)].all()
    ),
}


def _recompute_properties(r: RingTable, vals: dict) -> dict:
    out = {}
    for name, old in vals.items():
        fn = _RING_PROPS.get(name)
        out[name] = fn(r) if fn is not None else old
    return out


def _recompute_element_property(r: RingTable, idx: int, prop: str):
    if prop == "strongly_pclean":
        return dec.strongly_pclean_element(r, idx)[0] is not None
    if prop == "strongly_clean":
        return dec.strongly_clean_element(r, idx)[0] is not None
    if prop == "uniquely_clean_count":
        return dec.uniquely_clean_count(r, idx)
    if prop == "uniquely_pclean_count":
        return dec.uniquely_pclean_count(r, idx)
    return None
