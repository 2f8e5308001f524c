"""Executable checks for the numbered claims, run over a ring catalog.

Every check computes the two sides of its statement independently from
primitives (scans, closures, quotients); no side is derived from the other.
Idempotents enter only through the sweep and hits of `decompositions`, 1+P
through `radicals.one_plus_p_mask`, ideals through the exact lattice of
`enumerate_ideals`, similarity by a unit through the orbit maps of
`_conjugation_reach`, strong pi-regularity through the one whole-ring mask.
Every ring-level side has one definition, in `_RING_PROPS`, which the checks
and `replay_counterexample` both read.  One driver, `_run_one`, times every
check on every subject its `CheckDef.subjects` names (each ring, each
unordered pair of rings, or once) and tries its guards.
`replay_counterexample` re-verifies every payload kind (ring-level sides,
element/matrix literals, ideal generators) by recomputing its recorded sides.
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
    discriminant_criteria,
    entries_in_p_mask,
    m2_invariants,
    matrix_from_index,
    matrix_ring,
    one_minus_in_p_mask,
    pclean_criteria,
    roots_criterion_mask,
    triangular_ring,
)
from .rings import (
    DEFAULT_ORDER_LIMIT,
    ConstDiagKernel,
    ProductKernel,
    RingTable,
    _quotient,
    additive_closure_mask,
    build_ring,
    cached,
    corner_ring,
    derived_ring,
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
SIM_BUDGET = 4096  # matrix/triangular order for unit-conjugation orbit maps
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
    return None if mask.all() else _quotient(r, mask, f"{r.name}/I", "zero ring")


def _boolean_mod(r: RingTable, mask: np.ndarray) -> bool:
    """Whether r modulo the closed ideal `mask` is Boolean (the zero ring is)."""
    q = _quotient_table(r, mask)
    return q is None or rad.is_boolean(q)


def _quotient_pclean(r: RingTable, mask: np.ndarray) -> bool:
    def make():
        q = _quotient_table(r, mask)
        return q is None or _strongly_pclean(q)

    return cached(r, ("qp", mask.tobytes()), make)


def enumerate_ideals(r: RingTable) -> list[np.ndarray]:
    """Every two-sided ideal, sorted by (order, mask bytes).

    Every ideal is a finite join of principal ideals, so the lattice is the
    distinct principal ideals closed under joins with them: each newly found
    ideal I is joined with each principal P as the additive span of I | P.
    """

    def make():
        principal = {}
        for a in range(r.order):
            m = ideal_closure_mask(r, np.asarray([a], np.int64))
            principal.setdefault(m.tobytes(), m)
        seen, new = dict(principal), list(principal.values())
        while new:
            found = []
            for ideal in new:
                for p in principal.values():
                    if (p & ~ideal).any():
                        m = additive_closure_mask(r, np.flatnonzero(ideal | p))
                        if m.tobytes() not in seen:
                            seen[m.tobytes()] = m
                            found.append(m)
            new = found
        return sorted(seen.values(), key=lambda m: (int(m.sum()), m.tobytes()))

    return cached(r, "ideal_enum", make)


def _conjugation_reach(rt: RingTable, qual: np.ndarray) -> np.ndarray:
    """Mask of A similar (via units of rt) to some element with qual set: qual's
    orbits, one map per unit generator s (Holt, Eick and O'Brien, 4.1)."""
    maps = [rt.mul_col(s)[rt.mul_row(rt.unit_inverses[s])] for s in rt.unit_generators]
    found, size = qual.copy(), -1
    while size != (size := int(found.sum())) and size < rt.order:
        for m in maps:
            found |= found[m]
    return found


def _in_p_and_1p(r: RingTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per lane: x in P(r) and y in 1+P(r)."""
    return rad.prime_radical(r).mask[x] & rad.one_plus_p_mask(r)[y]


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


# Guards: (subject, env) -> None, or the (verdict, note) that replaces the check.


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


def _within_limit(family: str, r: RingTable, env: VerifyEnv) -> tuple[list[int], str | None]:
    """The k in (2, 3) whose family_k(r) fits env.limit, and a note naming the rest."""
    orders = {k: specs.derived_order(family, k, r.order) for k in (2, 3)}
    over = [f"{family}{k} order {n} beyond limit" for k, n in orders.items() if n > env.limit]
    return [k for k, n in orders.items() if n <= env.limit], "; ".join(over) or None


def _budget(family: str, budget: int | None = None):
    """Guard skipping a check whose ring family_2(r) is larger than `budget`,
    or than env.limit when no budget is given."""

    def guard(r: RingTable, env: VerifyEnv):
        order = specs.derived_order(family, 2, r.order)
        if order > (budget or env.limit):
            why = f"exceeds budget {budget}" if budget else f"beyond limit {env.limit}"
            return (SKIPPED, f"{family}2 order {order} {why}")
        return None

    return guard


# ---------------------------------------------------------------------------
# ring-level sides: the one definition of every property a `sides` payload
# records, read by the checks and by replay


def _double_commutant_idempotent(r: RingTable) -> bool:
    """Every x has an idempotent e with x - e in P that commutes with every
    element commuting with x."""

    def ok(x: int) -> bool:
        comm = np.flatnonzero(r.mul_row(x) == r.mul_col(x))
        cand = dec._hits(r, dec.STRONGLY_P_CLEAN, x, commuting=False)
        return any(np.array_equal(r.vmul(e, comm), r.vmul(comm, e)) for e in cand)

    return all(map(ok, range(r.order)))


def _bad_corner(r: RingTable):
    """(f, fRf, least failing index of fRf) for the first nonzero idempotent f
    whose corner is not strongly P-clean; None when every corner is (the
    zero corner is the zero ring, trivially clean)."""
    for f in r.idempotent_indices.tolist():
        if f != r.zero:
            corner, _ = corner_ring(r, f)
            ok, cex = dec.is_strongly_pclean_ring(corner)
            if not ok:
                return f, corner, cex
    return None


def _t2_trivial_or_diagonalizable(r: RingTable) -> tuple[RingTable, np.ndarray]:
    """T2(r) and, per element, whether it lies in P, in 1+P, or is similar by
    a unit to a diagonal matrix with one entry in P and the other in 1+P."""
    t2 = triangular_ring(r)
    d = t2.kernel.digits(np.arange(t2.order, dtype=np.int64))
    qual = (d[1] == r.zero) & (_in_p_and_1p(r, d[0], d[2]) | _in_p_and_1p(r, d[2], d[0]))
    return t2, rad.prime_radical(t2).mask | rad.one_plus_p_mask(t2) | _conjugation_reach(t2, qual)


def _strongly_pclean(r: RingTable) -> bool:
    return dec.is_strongly_pclean_ring(r)[0]


_RING_PROPS = {
    "strongly_pclean_ring": _strongly_pclean,
    "uniquely_pclean_ring": lambda r: dec.is_uniquely_pclean_ring(r)[0],
    "strongly_clean_ring": lambda r: dec.is_strongly_clean_ring(r)[0],
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
    # some idempotent e with x - e in P, commuting or not: the uniquely
    # P-clean pass counts them for every x
    "idempotent_within_radical_for_all": lambda r: bool(
        (dec._sweep(r, rad.prime_radical(r).mask, commuting=False) > 0).all()
    ),
    "double_commutant_idempotent_for_all": _double_commutant_idempotent,
    "all_corners_strongly_pclean": lambda r: _bad_corner(r) is None,
    "residue_z2_and_locally_nilpotent": lambda r: (
        r.order == 2 * (j := rad.jacobson_radical(r)).order and rad.is_locally_nilpotent(j)
    ),
    # no size cap: T3.5 names T_k(r) only within its limit
    "triangular_2_strongly_pclean": lambda r: _strongly_pclean(derived_ring("T", 2, r)),
    "triangular_3_strongly_pclean": lambda r: _strongly_pclean(derived_ring("T", 3, r)),
    "every_t2_matrix_trivial_or_diagonalizable": lambda r: bool(
        _t2_trivial_or_diagonalizable(r)[1].all()
    ),
    "product_strongly_pclean": _strongly_pclean,
    # None on a ring that is no direct product, so no recorded side matches
    "both_factors_strongly_pclean": lambda r: (
        all(map(_strongly_pclean, r.kernel.parts)) if isinstance(r.kernel, ProductKernel) else None
    ),
}


def _side_verdict(r: RingTable, names, all_agree: bool = False, note: str | None = None):
    """HOLDS (with `note`) when the first named side equals the AND of the
    rest, or with `all_agree` when all sides agree; otherwise the `sides`
    payload of every value, in the order of `names`."""
    vals = {name: _RING_PROPS[name](r) for name in names}
    first, *rest = vals.values()
    holds = len(set(vals.values())) == 1 if all_agree else first == all(rest)
    return (HOLDS, note) if holds else (COUNTEREXAMPLE, {"kind": "sides", "values": vals})


# ---------------------------------------------------------------------------
# section 2 checks


def _check_t2_1(r: RingTable, env: VerifyEnv):
    sides = ("strongly_pclean_ring", "strongly_clean_ring", "boolean_mod_jacobson",
             "jacobson_locally_nilpotent")
    verdict, cex = _side_verdict(r, sides)
    if verdict == COUNTEREXAMPLE:
        lhs_cex, sc_cex = dec.is_strongly_pclean_ring(r)[1], dec.is_strongly_clean_ring(r)[1]
        wit = lhs_cex if lhs_cex is not None else sc_cex
        if wit is not None:
            cex["witness"] = r.fmt_index(wit)
    return verdict, cex


def _check_t2_4(r: RingTable, env: VerifyEnv):
    pm = rad.prime_radical(r).mask
    sides = ["strongly_pclean_ring", "boolean_mod_prime", "idempotent_within_radical_for_all"]
    note = f"double-commutant side limited to order <= {COMMUTANT_BUDGET}"
    if r.order <= COMMUTANT_BUDGET:
        sides.append("double_commutant_idempotent_for_all")
        note = None
    verdict = _side_verdict(r, sides, all_agree=True)
    if verdict[0] == COUNTEREXAMPLE:
        return verdict
    # constructive lifting: a - a^2 in P must lift to an idempotent inside P
    for a in range(r.order):
        if pm[r.sub(a, r.mul(a, a))]:
            try:
                e = dec.idempotent_lift(r, a)
            except PcleanError as exc:  # a failed lift is a genuine violation
                return COUNTEREXAMPLE, _element_cex(r, a, "idempotent_lift", "lift", repr(exc))
            if not pm[r.sub(a, e)]:
                return COUNTEREXAMPLE, _element_cex(r, a, "lift_remainder_in_radical", True, False)
    return HOLDS, note


def _check_c2_5(r: RingTable, env: VerifyEnv):
    verdict, cex = _side_verdict(r, ("strongly_pclean_ring", "one_plus_units_strongly_nilpotent"))
    if verdict == COUNTEREXAMPLE:
        shifted = r.vadd(np.int64(r.one), r.unit_indices)
        bad = shifted[~rad.prime_radical(r).mask[shifted]]
        if bad.size:
            cex["witness"] = r.fmt_index(int(bad[0]))
        cex["note"] = "periodicity holds in every finite ring"
    return verdict, cex


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


def _pair_sides(r: RingTable, ma: np.ndarray, mb: np.ndarray) -> dict:
    """P2.10's three sides for ideals I, J: R/I and R/J strongly P-clean,
    R/IJ strongly P-clean, R/(I & J) strongly P-clean."""
    return {
        "both_quotients": _quotient_pclean(r, ma) and _quotient_pclean(r, mb),
        "mod_product": _quotient_pclean(r, rad.ideal_product_mask(r, ma, mb)),
        "mod_intersection": _quotient_pclean(r, ma & mb),
    }


def _check_p2_10(r: RingTable, env: VerifyEnv):
    ideals = enumerate_ideals(r)
    for i, ma in enumerate(ideals):
        for mb in ideals[i:]:
            sides = _pair_sides(r, ma, mb)
            if len(set(sides.values())) > 1:
                return COUNTEREXAMPLE, {
                    "kind": "ideal_pair",
                    "ring": r.name,
                    "ideal_gens": [_ideal_gens(r, ma), _ideal_gens(r, mb)],
                    "orders": [int(ma.sum()), int(mb.sum())],
                    **sides,
                }
    return HOLDS, None


def _check_t2_10(r: RingTable, env: VerifyEnv):
    verdict, cex = _side_verdict(r, ("uniquely_pclean_ring", "abelian", "strongly_pclean_ring"))
    lhs_cex = dec.is_uniquely_pclean_ring(r)[1]
    if verdict == COUNTEREXAMPLE and lhs_cex is not None:
        cex["witness"] = r.fmt_index(lhs_cex)
    return verdict, cex


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
    sizes, note = _within_limit("Tc", r, env)
    for k in sizes:
        # one-shot, unlike M_k/T_k: memoized on r, every Tc_k(r) of the
        # catalog would stay alive for the rest of the suite (about 130 MB
        # more peak RSS in run_suite())
        t = RingTable(ConstDiagKernel(k, r), f"Tc{k}({r.name})")
        holds, cex = dec.is_strongly_pclean_ring(t)
        if not holds:
            return COUNTEREXAMPLE, _element_cex(t, cex, "strongly_pclean", True, False)
    return HOLDS, note


def _check_t2_13(r: RingTable, env: VerifyEnv):
    sides = ("uniquely_pclean_ring", "strongly_pclean_ring", "uniquely_nilclean_ring")
    return _side_verdict(r, sides)


# ---------------------------------------------------------------------------
# section 3 checks


def _annihilators_carry(r: RingTable, a: int, e: int) -> bool:
    """l.ann(a) <= l.ann(e) and r.ann(a) <= r.ann(e)."""
    left = (r.mul_col(a) == r.zero) & (r.mul_col(e) != r.zero)
    right = (r.mul_row(a) == r.zero) & (r.mul_row(e) != r.zero)
    return not (left.any() or right.any())


def _check_l3_1(r: RingTable, env: VerifyEnv):
    rad.prime_radical(r)  # the commuting idempotents of each a read P(R) back
    for a in range(r.order):
        for e in dec._hits(r, dec.STRONGLY_P_CLEAN, a, commuting=True).tolist():
            if not _annihilators_carry(r, a, e):
                return COUNTEREXAMPLE, _cex(
                    "element", r, "annihilators_carry_to_idempotent", True, False,
                    element=r.fmt_index(a), idempotent=r.fmt_index(e),
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
        differ = np.flatnonzero(in_r[members] != in_c)
        if differ.size:
            pos = int(differ[0])
            m = int(members[pos])
            return COUNTEREXAMPLE, _cex(
                "element", r, "pclean_in_ring_iff_in_corner", bool(in_r[m]),
                bool(in_c[pos]), corner=r.fmt_index(f), element=r.fmt_index(m),
            )
    return HOLDS, None


def _check_c3_3(r: RingTable, env: VerifyEnv):
    verdict, cex = _side_verdict(r, ("strongly_pclean_ring", "all_corners_strongly_pclean"))
    bad = _bad_corner(r) if verdict == COUNTEREXAMPLE else None
    if bad:
        f, corner, w = bad
        cex["corner"] = r.fmt_index(f)
        cex["witness"] = corner.fmt_index(w)
    return verdict, cex


def _check_t3_5(r: RingTable, env: VerifyEnv):
    # J(R) first: on a table that is no ring, its error is the one raised
    rad.jacobson_radical(r)
    sizes, note = _within_limit("T", r, env)
    sides = ["strongly_pclean_ring", "uniquely_pclean_ring", "residue_z2_and_locally_nilpotent"]
    sides += [f"triangular_{k}_strongly_pclean" for k in sizes]
    return _side_verdict(r, sides, all_agree=True, note=note)


def _check_c3_6(r: RingTable, env: VerifyEnv):
    sides = ("strongly_pclean_ring", "every_t2_matrix_trivial_or_diagonalizable")
    verdict, cex = _side_verdict(r, sides)
    if verdict == COUNTEREXAMPLE:  # the orbit mask again, for the least failing matrix
        t2, ok = _t2_trivial_or_diagonalizable(r)
        bad = np.flatnonzero(~ok)
        if bad.size:
            cex["witness"] = t2.fmt_index(int(bad[0]))
    return verdict, cex


def _check_p3_7(r: RingTable, env: VerifyEnv):
    t2 = triangular_ring(r, 2, limit=env.limit)
    lhs = dec.strongly_pclean_mask(t2)
    d = t2.kernel.digits(np.arange(t2.order, dtype=np.int64))
    p_or_1p = rad.prime_radical(r).mask | rad.one_plus_p_mask(r)
    ok_diag = p_or_1p[d[0]] & p_or_1p[d[2]]
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
    d = m2_invariants(m2)[0]
    offdiag0 = (d[1] == r.zero) & (d[2] == r.zero)
    qual = offdiag0 & (_in_p_and_1p(r, d[0], d[3]) | _in_p_and_1p(r, d[3], d[0]))
    rhs = entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | _conjugation_reach(m2, qual)
    return _mask_check(m2, "matrix", "pclean_iff_trivial_or_diag_similar", lhs, rhs)


def _check_t4_4(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    masks = [definitional_mask(m2), diff_in_p_mask(m2), roots_criterion_mask(m2)]
    diff = np.flatnonzero((masks[0] != masks[1]) | (masks[0] != masks[2]))
    if diff.size == 0:
        return HOLDS, None
    bad = int(diff[0])
    names = ("idempotent_scan", "difference_in_radical", "quadratic_roots")
    crit = {name: bool(m[bad]) for name, m in zip(names, masks)}
    return COUNTEREXAMPLE, {"kind": "matrix", "ring": m2.name, "matrix": m2.fmt_index(bad),
                            "property": "three_criteria_agree", "criteria": crit}


def _check_c4_5(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = definitional_mask(m2)
    base_idx = np.arange(r.order, dtype=np.int64)
    pm = rad.prime_radical(r).mask
    # ratio_root[c] <=> x^2 - x + c = 0 has a root in P
    sq_minus = r.vsub(r.vmul(base_idx, base_idx), base_idx)
    hit = r.vadd(sq_minus[:, None], base_idx[None, :]) == r.zero  # (x, c)
    ratio_root = (pm[:, None] & hit).any(axis=0)
    _, tr, det, _ = m2_invariants(m2)
    tr_ok = rad.one_plus_p_mask(r)[tr]
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
    cert, wit = res.certificate, res.witness
    split = res.kind == SPLIT and cert is not None and cert.validate()
    if split and wit is not None and wit.validate(A):
        return HOLDS, None
    prop = "worked_example_split_with_valid_certificate"
    return COUNTEREXAMPLE, _cex("matrix", r, prop, True, res.kind, matrix=repr(A))


# ---------------------------------------------------------------------------
# section 5 checks


def _squares_of_one_plus_p(r: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """Per y: whether y = u^2 for some u in 1+P, and the least such u (else -1)."""
    u = np.flatnonzero(rad.one_plus_p_mask(r))
    y, first = np.unique(r.vmul(u, u), return_index=True)
    least = np.full(r.order, -1, dtype=np.int64)
    least[y] = u[first]
    return least >= 0, least


def _discriminant_branch(r: RingTable, m2: RingTable) -> np.ndarray:
    """Per matrix: tr in 1+P and disc = tr^2 - 4 det the square of some u in 1+P."""
    _, tr, _, disc = m2_invariants(m2)
    return rad.one_plus_p_mask(r)[tr] & _squares_of_one_plus_p(r)[0][disc]


def _check_t5_1(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = definitional_mask(m2)
    rhs = entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | _discriminant_branch(r, m2)
    # necessity only: rhs must hold wherever lhs does
    return _mask_check(m2, "matrix", "pclean_implies_discriminant_square_of_1P", rhs, rhs | lhs)


def _check_c5_2(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = definitional_mask(m2)
    branch = _discriminant_branch(r, m2)
    rhs = entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | branch
    verdict = _mask_check(m2, "matrix", "pclean_iff_discriminant_square_of_1P", lhs, rhs)
    if verdict[0] == COUNTEREXAMPLE:
        return verdict
    # the constructed half-roots must solve the characteristic equation
    _, tr, det, disc = m2_invariants(m2)
    half = np.int64(r.inverse(r.embed_int(2)))
    sel = np.flatnonzero(branch)
    u = _squares_of_one_plus_p(r)[1][disc[sel]]
    x1 = r.vmul(half, r.vsub(tr[sel], u))
    x2 = r.vmul(half, r.vadd(tr[sel], u))
    offending = np.zeros(sel.size, dtype=bool)
    for roots, want in ((x1, rad.prime_radical(r).mask), (x2, rad.one_plus_p_mask(r))):
        val = r.vadd(r.vsub(r.vmul(roots, roots), r.vmul(tr[sel], roots)), det[sel])
        offending |= (val != r.zero) | ~want[roots]
    if offending.any():
        b = int(sel[np.flatnonzero(offending)[0]])
        prop = "half_roots_solve_characteristic_equation"
        return COUNTEREXAMPLE, _cex("matrix", m2, prop, True, False, matrix=m2.fmt_index(b))
    return HOLDS, None


def _check_e5_3(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    # the family [[p+1, p], [q, p]] on the grid of p in P (rows) and q in R
    p = np.flatnonzero(rad.prime_radical(r).mask)[:, None]
    q = np.arange(r.order, dtype=np.int64)[None, :]
    one = np.int64(r.one)
    want = _squares_of_one_plus_p(r)[0][r.vadd(one, r.vmul(r.embed_int(4), r.vmul(p, q)))]
    aidx = m2.kernel.encode(np.broadcast_arrays(r.vadd(p, one), p, q, p))
    got = definitional_mask(m2)[aidx]
    differ = np.flatnonzero(want != got)  # row-major: least p, then least q
    if differ.size:
        i = int(differ[0])
        return COUNTEREXAMPLE, _cex(
            "matrix", m2, "family_pclean_iff_1_plus_4pq_square", bool(want.flat[i]),
            bool(got.flat[i]), matrix=m2.fmt_index(int(aidx.flat[i])),
        )
    return HOLDS, None


def _check_t5_4(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    lhs = definitional_mask(m2)
    d = m2_invariants(m2)[0]
    qual = (d[0] == r.zero) & (d[2] == r.one) & _in_p_and_1p(r, d[1], d[3])
    reach = _conjugation_reach(m2, qual) & dec.strongly_pi_regular_mask(m2)
    rhs = entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | reach
    return _mask_check(m2, "matrix", "pclean_iff_pi_regular_and_companion_similar", lhs, rhs)


def _check_p5_6(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    rhs = m2.unit_mask | rad.nilpotent_mask(m2) | definitional_mask(m2)
    prop = "pi_regular_iff_unit_or_nilpotent_or_pclean"
    return _mask_check(m2, "matrix", prop, dec.strongly_pi_regular_mask(m2), rhs)


# ---------------------------------------------------------------------------
# registry and drivers


def _check_l2_9(pair, env: VerifyEnv):
    ra, rb = pair
    # one-shot: each pair is checked once, and a product memoized on its
    # factors would keep every catalog pair alive for the suite
    prod = RingTable(ProductKernel([ra, rb]), f"{ra.name} x {rb.name}")
    return _side_verdict(prod, ("product_strongly_pclean", "both_factors_strongly_pclean"))


def _product_within_limit(pair, env: VerifyEnv):
    order = pair[0].order * pair[1].order
    return None if order <= env.limit else (SKIPPED, f"product order {order} beyond limit")


# Subjects: the ring tables of a run -> [(report name, subject)].


def _each_ring(tables):
    return [(r.name, r) for r in tables]


def _each_pair(tables):
    return [(f"{a.name} x {b.name}", (a, b)) for i, a in enumerate(tables) for b in tables[i:]]


def _once(tables):
    return [("*", None)]


@dataclass(frozen=True)
class CheckDef:
    id: str
    summary: str
    run: object  # (subject, env) -> (verdict, cex_or_note)
    applies: tuple = ()  # guards, tried in order; the first hit replaces the check
    subjects: object = _each_ring


_CHECKS: list[CheckDef] = [
    CheckDef("T2.1", "strongly P-clean iff strongly clean + Boolean mod J + J locally nilpotent", _check_t2_1),
    CheckDef("T2.4", "four characterizations incl. Boolean mod P and the idempotent lift", _check_t2_4),
    CheckDef("C2.5", "strongly P-clean iff periodic and 1+U(R) strongly nilpotent", _check_c2_5),
    CheckDef("L2.6", "homomorphic images stay strongly P-clean", _check_l2_6, (_ideal_enum,)),
    CheckDef("L2.7", "P-cleanness passes through quotients by nilpotent ideals", _check_l2_7, (_ideal_enum,)),
    CheckDef("T2.8", "R/I vs R/I^n strongly P-clean", _check_t2_8, (_ideal_enum,)),
    CheckDef("L2.9", "finite direct products (restricted form)", _check_l2_9, (_product_within_limit,), _each_pair),
    CheckDef("P2.10", "quotients by I, J vs IJ and their intersection", _check_p2_10, (_ideal_enum,)),
    CheckDef("T2.10", "uniquely P-clean iff abelian + strongly P-clean", _check_t2_10),
    CheckDef("C2.11", "uniquely P-clean implies uniquely clean", _check_c2_11),
    CheckDef("C2.12", "constant-diagonal triangular rings over uniquely P-clean bases", _check_c2_12),
    CheckDef("T2.13", "uniquely P-clean iff strongly P-clean + uniquely nil clean", _check_t2_13),
    CheckDef(
        "C2.14", "Boolean iff uniquely P-clean + primary ideals prime",
        lambda _, env: (SKIPPED, "primary-ideal machinery is out of scope"), (), _once,
    ),
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


def _run_one(cd: CheckDef, name: str, subject, env: VerifyEnv) -> TheoremCheck:
    """The one driver: time check `cd` on `subject`, reported as `name`; the
    first guard that fires replaces the check."""
    start = time.perf_counter()
    hit = next(filter(None, (guard(subject, env) for guard in cd.applies)), None)
    verdict, payload = hit or cd.run(subject, env)
    millis = (time.perf_counter() - start) * 1000
    cex = payload if verdict == COUNTEREXAMPLE else None
    note = payload if isinstance(payload, str) else None
    return TheoremCheck(cd.id, name, verdict, cex, millis, note)


def verify(theorem_id: str, rings, env: VerifyEnv | None = None) -> list[TheoremCheck]:
    """Run one theorem check over the given rings (RingTables or spec strings)."""
    env = env or VerifyEnv()
    if theorem_id not in _CHECK_BY_ID:
        raise UnknownTheoremId(f"{theorem_id!r}; known ids: {', '.join(CHECK_IDS)}")
    tables = [r if isinstance(r, RingTable) else build_ring(r, env.limit) for r in rings]
    cd = _CHECK_BY_ID[theorem_id]
    return [_run_one(cd, name, subject, env) for name, subject in cd.subjects(tables)]


def run_suite(
    catalog: list[str] | None = None,
    env: VerifyEnv | None = None,
    only: str | None = None,
) -> TheoremReport:
    """Run every registered check (or a single id) over the catalog.

    The full suite runs ring-major: every check with one subject per ring on
    one catalog ring before the next, so the derived rings one ring needs can
    leave the ring LRU before the next ring's are built.  The checks over
    pairs (L2.9) or run once (C2.14) follow; the report is sorted by
    (id, ring) either way.
    """
    env = env or VerifyEnv()
    names = list(catalog) if catalog is not None else list(DEFAULT_CATALOG)
    report = TheoremReport(catalog=names)
    if only:
        report.checks = verify(only, names, env)
    else:
        per_ring = [cd for cd in _CHECKS if cd.subjects is _each_ring]
        for name in names:
            ring = build_ring(name, env.limit)
            report.checks += [_run_one(cd, ring.name, ring, env) for cd in per_ring]
        for cd in _CHECKS:
            if cd.subjects is not _each_ring:
                report.checks += verify(cd.id, names, env)
    report.checks.sort(key=lambda c: (CHECK_IDS.index(c.id), c.ring))
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
    the payload's ring lookup (needed for fixture rings with no spec); a
    `sides` payload names no ring, so it replays only on the `ring` given,
    and only when every recorded side is a known property with that value.
    """
    payload = check.counterexample
    kind = payload and payload.get("kind")
    if kind == "sides":
        vals = payload["values"]
        return ring is not None and bool(vals) and all(
            name in _RING_PROPS and _RING_PROPS[name](ring) == v for name, v in vals.items()
        )
    if kind not in ("element", "matrix", "ideal", "ideal_pair"):
        return False
    r = ring if ring is not None else build_ring(payload["ring"])
    ideal = lambda gens: rad.ideal_generated(r, [r.parse_element(g).index for g in gens]).mask
    if kind == "ideal_pair":
        got = _pair_sides(r, *map(ideal, payload["ideal_gens"]))
        return all(payload[k] == v for k, v in got.items()) and len(set(got.values())) > 1
    if kind == "ideal":
        mask = ideal(payload["ideal_gens"])
        if int(mask.sum()) != payload["ideal_order"]:
            return False
        if payload["property"] == "pclean_quotient_stable_under_ideal_powers":
            powers = list(rad.ideal_powers(r, mask))
            order = payload["power_order"]
            mask = next((p for p in powers[1:] if p.sum() == order), powers[-1])
        return _quotient_pclean(r, mask) == payload["actual"]
    idx = r.parse_element(payload.get("element") or payload["matrix"]).index
    if "criteria" in payload:  # a three-way criterion disagreement
        got = pclean_criteria(matrix_from_index(r, idx))
        return got == payload["criteria"] and len(set(got.values())) > 1
    recompute = _ELEMENT_PROPS.get(payload["property"])
    return recompute is not None and recompute(r, idx, payload) == payload.get("actual")


def _pclean_at(r: RingTable, idx: int, payload: dict) -> bool:
    return dec.strongly_pclean_element(r, idx)[0] is not None


def _discriminant_side(r: RingTable, idx: int, payload: dict) -> bool:
    rec = discriminant_criteria(matrix_from_index(r, idx))
    branch = rec.trace_in_one_plus_p and bool(rec.square_witnesses)
    return rec.in_p or rec.one_minus_in_p or branch


def _lift_side(r: RingTable, idx: int, payload: dict) -> str:
    try:
        dec.idempotent_lift(r, idx)
    except PcleanError as exc:
        return repr(exc)
    return "lift"


# per element property of a payload: its `actual` side at that one element
_ELEMENT_PROPS = {
    "idempotent_lift": _lift_side,
    "strongly_pclean": _pclean_at,
    "uniquely_clean_count": lambda r, x, p: dec.uniquely_clean_count(r, x),
    "annihilators_carry_to_idempotent": lambda r, x, p: _annihilators_carry(
        r, x, r.parse_element(p["idempotent"]).index
    ),
    "pclean_iff_diagonal_in_P_or_1P": _pclean_at,
    "radical_of_matrix_ring_is_matrix_of_radical": (
        lambda r, x, p: rad.is_strongly_nilpotent(r, x)[0]
    ),
    "pclean_iff_trivial_or_diag_similar": _pclean_at,
    "pclean_iff_ratio_equation_root_in_P": _pclean_at,
    "pclean_implies_discriminant_square_of_1P": _discriminant_side,
    "pclean_iff_discriminant_square_of_1P": _pclean_at,
    "pclean_iff_pi_regular_and_companion_similar": _pclean_at,
    "family_pclean_iff_1_plus_4pq_square": _pclean_at,
    "pi_regular_iff_unit_or_nilpotent_or_pclean": lambda r, x, p: dec.strongly_pi_regular_element(r, x)[0],
}
