"""Executable checks for the numbered claims, run over a ring catalog.

Every check computes the two sides of its statement independently from
primitives (scans, closures, quotients); no side is derived from the other.
Idempotents enter only through the sweep and hits of `decompositions`, 1+P
through `radicals.one_plus_p_mask`, ideals through the exact lattice of
`enumerate_ideals`, similarity by a unit through the orbit maps of
`_conjugation_reach`, strong pi-regularity through the one whole-ring mask,
a corner fRf through `_corner`, one fact per nonzero idempotent f cached on R.
Every ring-level side has one definition, in `_RING_PROPS`; every element
or matrix property a mask check records has its pair of whole-ring masks
(expected, actual) in `_MASK_SIDES` (T4.4's three criteria in `_CRITERIA`),
whose 2x2 formulas for T4.4, C4.5, T5.1, C5.2, E5.3 and P3.7 (`diff_in_p`,
`roots_criterion`, `trace_ratio`, `squares_of_one_plus_p`, `half_roots`,
`diagonal_in_p_or_1p`) are those of `matrices` that `matrix analyze` reads,
and every property compared one record (an ideal, or elements) at a time its
payload kind and pair of sides in `_RECORD_SIDES`.  The checks and
`replay_counterexample` both read these tables, and 22 of the 29 checks are
rows of three runners: mask properties in turn on the family sizes within
the limit, optionally at an index grid (`_mask_run`); ring-level sides, some
depending on the order and limit, and a witness (`_sides_run`); or record
sides at each record a walk yields (`_record_run`).  C2.11 is one mask check
on R, L2.9 one side verdict on a product and C2.14 a constant SKIPPED.  T2.4
(sides, then its lift's records), P2.10, T4.4 and E4.6 (payload shapes no
runner takes) keep bodies.  One driver, `_run_one`, times every check on
every subject its `CheckDef.subjects` names (each ring, each unordered pair
of rings, or once), tries its guards, and reports a scan refused by a size
guard (RingTooLarge) as SKIPPED.  Replay re-derives every recorded side of
every payload kind but E4.6's (ring-level sides, element/matrix literals,
ideals as the span of their recorded additive basis) and reproduces only a
violation of the claim's rule (`_claim_fails` for ring-level sides), only
where the guards pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import decompositions as dec
from . import radicals as rad
from . import specs
from .errors import PcleanError, RingTooLarge, UnknownTheoremId
from .matrices import (
    Matrix2,
    definitional_mask,
    diagonal_in_p_or_1p,
    diff_in_p_mask,
    entries_in_p_mask,
    half_roots,
    m2_invariants,
    matrix_ring,
    quadratic,
    root_pair_table,
    roots_criterion_mask,
    squares_of_one_plus_p,
    trace_ratio,
    triangular_ring,
    trivial_or_mask,
)
from .rings import (
    DEFAULT_ORDER_LIMIT,
    ProductKernel,
    RingTable,
    _quotient,
    _release_new_holds,
    additive_closure_mask,
    build_ring,
    cached,
    corner_ring,
    derived_ring,
    ideal_closure_mask,
    require_order,
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
COMMUTANT_BUDGET = 4096  # ring order for per-element scans of whole rows (T2.4, L3.1)


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
    On a table that is no ring such a span need not be an ideal, so only the
    spans `_certify_ideal` accepts are kept.
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
        ideals = [m for m in seen.values() if rad._certify_ideal(r, m)]
        return sorted(ideals, key=lambda m: (int(m.sum()), m.tobytes()))

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


def _mask_check(ring: RingTable, kind: str, prop: str, at: np.ndarray | None = None):
    """HOLDS when the two whole-ring masks of `prop` in `_MASK_SIDES`
    (expected, actual) agree at the indices `at` (every index when None),
    else the first index of `at` where they differ as a `kind` ("element"
    or "matrix") counterexample."""
    expected, actual = _MASK_SIDES[prop](ring)
    differ = expected != actual
    bad = np.flatnonzero(differ) if at is None else at[differ[at]]
    if bad.size == 0:
        return HOLDS, None
    b = int(bad[0])
    return COUNTEREXAMPLE, _cex(
        kind, ring, prop, expected[b].item(), actual[b].item(), **{kind: ring.fmt_index(b)}
    )


def _mask_run(family: str, *props: str, ks=(2,), at=None):
    """A check's run: the mask checks of `props` in turn on family_k(r), for
    each k of `ks` whose ring fits env.limit (HOLDS notes the rest), at the
    indices at(family_k(r)) (every index when `at` is None)."""
    kind = "matrix" if family == "M" else "element"

    def run(r: RingTable, env: VerifyEnv):
        sizes, note = _within_limit(family, ks, r, env)
        for ring in (derived_ring(family, k, r) for k in sizes):
            for prop in props:
                verdict = _mask_check(ring, kind, prop, at and at(ring))
                if verdict[0] == COUNTEREXAMPLE:
                    return verdict
        return HOLDS, note

    return run


# Guards: (subject, env) -> None, or the (verdict, note) that replaces the check.


def _requires(holds, note: str | None, verdict: str = HYPOTHESIS_NOT_MET):
    """Guard replacing a check by (verdict, note) on rings where holds(r) fails."""
    return lambda r, env: None if holds(r) else (verdict, note)


_local = _requires(rad.is_local, "ring is not local")
_pclean_ring = _requires(lambda r: dec.is_strongly_pclean_ring(r)[0], None)
_uniquely_pclean_ring = _requires(lambda r: dec.is_uniquely_pclean_ring(r)[0], None)
_commutative = _requires(lambda r: r.commutative, "ring is not commutative")
_two_is_unit = _requires(lambda r: r.is_unit(r.embed_int(2)), "2 is not a unit")
_residue_z2 = _requires(rad.residue_is_z2, "needs R/J = Z_2 with J nilpotent")
_ideal_enum = _requires(
    lambda r: r.order <= IDEAL_ENUM_LIMIT,
    f"ideal enumeration limited to order <= {IDEAL_ENUM_LIMIT}",
    SKIPPED,
)
_annihilator_scan = _requires(
    lambda r: r.order <= COMMUTANT_BUDGET, f"annihilator scan limited to order <= {COMMUTANT_BUDGET}", SKIPPED
)
_z4_only = _requires(lambda r: r.name == "Z4", "worked example is specific to Z4", SKIPPED)


def _within_limit(family: str, ks, r: RingTable, env: VerifyEnv) -> tuple[list[int], str | None]:
    """The k of `ks` whose family_k(r) fits env.limit, and a note naming the rest."""
    orders = {k: specs.derived_order(family, k, r.order) for k in ks}
    over = [f"{family}{k} order {n} beyond limit" for k, n in orders.items() if n > env.limit]
    return [k for k, n in orders.items() if n <= env.limit], "; ".join(over) or None


def _budget(family: str, budget: int | None = None):
    """Guard skipping a check whose ring family_2(r) is larger than env.limit
    or than `budget`, with a note naming the smaller bound."""

    def guard(r: RingTable, env: VerifyEnv):
        order = specs.derived_order(family, 2, r.order)
        if budget is not None and budget < env.limit:
            bound, why = budget, f"exceeds budget {budget}"
        else:
            bound, why = env.limit, f"beyond limit {env.limit}"
        return (SKIPPED, f"{family}2 order {order} {why}") if order > bound else None

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


def _corner(r: RingTable, f: int) -> tuple[np.ndarray, np.ndarray]:
    """The corner fRf of a nonzero idempotent f, built and swept once per r:
    its members, ascending, and its own strongly P-clean mask (C3.3's side
    and witness and T3.2's sides all read this one fact)."""

    def make():
        corner, members = corner_ring(r, f)
        return members, dec.strongly_pclean_mask(corner)

    return cached(r, ("corner", f), make)


def _bad_corner(r: RingTable) -> dict | None:
    """C3.3's witness: the first nonzero idempotent f whose corner fRf is not
    strongly P-clean, and the least member of fRf that is not; None when
    every corner is (the zero corner is the zero ring, trivially clean)."""
    for f in r.idempotent_indices.tolist():
        if f != r.zero:
            members, mask = _corner(r, f)
            if not mask.all():
                return {"corner": r.fmt_index(f), "witness": r.fmt_index(int(members[~mask][0]))}
    return None


def _one_plus_units_outside_p(r: RingTable) -> np.ndarray:
    """The 1+u outside P(r), u running over the units in ascending order."""
    shifted = r.vadd(np.int64(r.one), r.unit_indices)
    return shifted[~rad.prime_radical(r).mask[shifted]]


def _t2_not_trivial_or_diagonalizable(r: RingTable) -> tuple[RingTable, np.ndarray]:
    """T2(r) and its elements, ascending, neither in P nor in 1+P nor similar
    by a unit to a diagonal matrix with one entry in P and the other in 1+P."""
    t2 = triangular_ring(r)
    d = t2.kernel.digits(np.arange(t2.order, dtype=np.int64))
    qual = (d[1] == r.zero) & (_in_p_and_1p(r, d[0], d[2]) | _in_p_and_1p(r, d[2], d[0]))
    ok = rad.prime_radical(t2).mask | rad.one_plus_p_mask(t2) | _conjugation_reach(t2, qual)
    return t2, np.flatnonzero(~ok)


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
    "one_plus_units_strongly_nilpotent": lambda r: _one_plus_units_outside_p(r).size == 0,
    # some idempotent e with x - e in P, commuting or not: the uniquely
    # P-clean pass counts them for every x
    "idempotent_within_radical_for_all": lambda r: bool(
        (dec._sweep(r, dec.STRONGLY_P_CLEAN, commuting=False) > 0).all()
    ),
    "double_commutant_idempotent_for_all": _double_commutant_idempotent,
    "all_corners_strongly_pclean": lambda r: _bad_corner(r) is None,
    "residue_z2_and_locally_nilpotent": lambda r: (
        r.order == 2 * (j := rad.jacobson_radical(r)).order and rad.is_locally_nilpotent(j)
    ),
    # no size cap: T3.5 names T_k(r) only within its limit, and replay
    # checks the order of T_k(r) first
    "triangular_2_strongly_pclean": lambda r: _strongly_pclean(derived_ring("T", 2, r)),
    "triangular_3_strongly_pclean": lambda r: _strongly_pclean(derived_ring("T", 3, r)),
    "every_t2_matrix_trivial_or_diagonalizable": lambda r: _t2_not_trivial_or_diagonalizable(r)[1].size == 0,
    "product_strongly_pclean": _strongly_pclean,
    # None on a ring that is no direct product, so no recorded side matches
    "both_factors_strongly_pclean": lambda r: (
        all(map(_strongly_pclean, r.kernel.parts)) if isinstance(r.kernel, ProductKernel) else None
    ),
}


def _discriminant_branch(m2: RingTable) -> np.ndarray:
    """Per matrix: tr in 1+P and disc = tr^2 - 4 det the square of some u in 1+P."""
    r, (_, tr, _, disc) = m2.kernel.base, m2_invariants(m2)
    return rad.one_plus_p_mask(r)[tr] & squares_of_one_plus_p(r)[0][disc]


def _half_roots_sides(m2: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """C5.2's discriminant branch (2 a unit), and where in it the half roots
    (tr - u)/2 in P and (tr + u)/2 in 1+P, u the least square root in 1+P of
    disc, solve the characteristic equation."""
    r, (_, tr, det, disc) = m2.kernel.base, m2_invariants(m2)
    half, branch = np.int64(r.inverse(r.embed_int(2))), _discriminant_branch(m2)
    sel = np.flatnonzero(branch)
    ok, (x1, x2) = branch.copy(), half_roots(r, half, tr[sel], squares_of_one_plus_p(r)[1][disc[sel]])
    for roots, want in ((x1, rad.prime_radical(r).mask), (x2, rad.one_plus_p_mask(r))):
        ok[sel] &= (quadratic(r, roots, tr[sel], det[sel]) == r.zero) & want[roots]
    return branch, ok


def _diag_similar(m2: RingTable) -> np.ndarray:
    """Per matrix: similar by a unit to diag(x, y), x in P and y in 1+P or back."""
    r, d = m2.kernel.base, m2_invariants(m2)[0]
    diag = (d[1] == r.zero) & (d[2] == r.zero)
    return _conjugation_reach(m2, diag & (_in_p_and_1p(r, d[0], d[3]) | _in_p_and_1p(r, d[3], d[0])))


def _ratio_branch(m2: RingTable) -> np.ndarray:
    """Per matrix: tr in 1+P and x^2 - x + det/tr^2 = 0 has a root in P."""
    r, (_, tr, det, _) = m2.kernel.base, m2_invariants(m2)
    ratio_root = root_pair_table(r)[0][r.one]  # per c: x^2 - x + c = 0 has a root in P
    return rad.one_plus_p_mask(r)[tr] & ratio_root[trace_ratio(r, tr, det)]


def _companion_similar(m2: RingTable) -> np.ndarray:
    """Per matrix: strongly pi-regular and similar by a unit to [0,p;1,u], p in P, u in 1+P."""
    r, d = m2.kernel.base, m2_invariants(m2)[0]
    qual = (d[0] == r.zero) & (d[2] == r.one) & _in_p_and_1p(r, d[1], d[3])
    return _conjugation_reach(m2, qual) & dec.strongly_pi_regular_mask(m2)


def _e5_3_grid(m2: RingTable) -> np.ndarray:
    """E5.3's family [[p+1, p], [q, p]] in M2(r), p in P and q in r, row-major:
    least p, then least q."""
    r = m2.kernel.base
    p = np.flatnonzero(rad.prime_radical(r).mask)[:, None]
    q = np.arange(r.order, dtype=np.int64)[None, :]
    return m2.kernel.encode(np.broadcast_arrays(r.vadd(p, np.int64(r.one)), p, q, p)).ravel()


def _e5_3_sides(m2: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """On the family [[p+1, p], [q, p]] with p in P (False elsewhere): 1+4pq
    the square of some u in 1+P, and strongly P-clean."""
    r, d = m2.kernel.base, m2_invariants(m2)[0]
    one = np.int64(r.one)
    family = rad.prime_radical(r).mask[d[1]] & (d[0] == r.vadd(d[1], one)) & (d[3] == d[1])
    four_pq = r.vmul(r.embed_int(4), r.vmul(d[1], d[2]))
    return family & squares_of_one_plus_p(r)[0][r.vadd(one, four_pq)], family & definitional_mask(m2)


def _pclean_iff_trivial_or(branch):
    """The sides of "A is strongly P-clean iff A is trivial or in `branch`"."""
    return lambda m2: (trivial_or_mask(m2, branch(m2)), definitional_mask(m2))


# element and matrix sides: per property a mask check records, its two
# whole-ring masks (expected, actual), computed in that order, whose entries
# at the recorded element are its sides; the checks and replay read them here
_MASK_SIDES = {
    "strongly_pclean": lambda t: (np.ones(t.order, dtype=bool), dec.strongly_pclean_mask(t)),
    "pclean_iff_diagonal_in_P_or_1P": lambda t: (  # [::2]: the diagonal digits of T2(r)
        diagonal_in_p_or_1p(t.kernel.base, *t.kernel.digits(np.arange(t.order))[::2]),
        dec.strongly_pclean_mask(t),
    ),
    "radical_of_matrix_ring_is_matrix_of_radical": lambda m2: (
        entries_in_p_mask(m2), rad.prime_radical(m2).mask
    ),
    "pclean_iff_trivial_or_diag_similar": _pclean_iff_trivial_or(_diag_similar),
    "pclean_iff_ratio_equation_root_in_P": _pclean_iff_trivial_or(_ratio_branch),
    "pclean_iff_discriminant_square_of_1P": _pclean_iff_trivial_or(_discriminant_branch),
    "pclean_iff_pi_regular_and_companion_similar": _pclean_iff_trivial_or(_companion_similar),
    "family_pclean_iff_1_plus_4pq_square": _e5_3_sides,
    "half_roots_solve_characteristic_equation": _half_roots_sides,
    # necessity only: the side must hold wherever the definitional scan does
    "pclean_implies_discriminant_square_of_1P": lambda m2: (
        (side := trivial_or_mask(m2, _discriminant_branch(m2))) | definitional_mask(m2), side
    ),
    # the counts the ring verdict reads (saturated at 2): the claim predicts 1
    # at every x of a uniquely P-clean ring, and nothing (0) on other rings
    "uniquely_clean_count": lambda r: (
        np.full(r.order, dec.is_uniquely_pclean_ring(r)[0], np.uint8),
        dec._sweep(r, dec.STRONGLY_CLEAN, commuting=False),
    ),
    "pi_regular_iff_unit_or_nilpotent_or_pclean": lambda m2: (
        m2.unit_mask | rad.nilpotent_mask(m2) | definitional_mask(m2),
        dec.strongly_pi_regular_mask(m2),
    ),
}

# T4.4's three criteria (see matrices.classify_pclean_2x2), one whole-ring mask each
_CRITERIA = {
    "idempotent_scan": definitional_mask,
    "difference_in_radical": diff_in_p_mask,
    "quadratic_roots": roots_criterion_mask,
}

def _lift_sides(r: RingTable, rec: dict) -> tuple:
    """T2.4's lift at x where x - x^2 lies in P: ("lift", "lift" or the error
    of the failed lift); elsewhere the claim says nothing: (None, None)."""
    x = rec["element"]
    if not rad.prime_radical(r).mask[r.sub(x, r.mul(x, x))]:
        return None, None
    try:
        dec.idempotent_lift(r, x)
    except PcleanError as exc:  # a failed lift is a genuine violation
        return "lift", repr(exc)
    return "lift", "lift"


def _annihilators_carry(r: RingTable, a: int, e: int) -> bool:
    """l.ann(a) <= l.ann(e) and r.ann(a) <= r.ann(e)."""
    left = (r.mul_col(a) == r.zero) & (r.mul_col(e) != r.zero)
    right = (r.mul_row(a) == r.zero) & (r.mul_row(e) != r.zero)
    return not (left.any() or right.any())


def _corner_element_sides(r: RingTable, rec: dict) -> tuple:
    """T3.2's sides at an element of the corner fRf of a nonzero idempotent
    f: strongly P-clean in r, and in fRf; (None, None) where the recorded
    corner is no such f or does not hold the element."""
    f, x = rec["corner"], rec["element"]
    if f == r.zero or not r.idempotent_mask[f]:
        return None, None
    in_r = dec.strongly_pclean_mask(r)
    members, in_corner = _corner(r, f)
    pos = int(np.searchsorted(members, x))
    return (bool(in_r[x]), bool(in_corner[pos])) if pos < members.size and members[pos] == x else (None, None)


# record sides: per property a check compares one record at a time (an
# ideal mask under "ideal", with T2.8's power order, or element indices), its
# payload kind and its (expected, actual) at the record; None where the claim
# says nothing, so no record matches; the checks and replay read them here
_RECORD_SIDES = {
    "quotient_strongly_pclean": ("ideal", lambda r, rec: (_strongly_pclean(r), _quotient_pclean(r, rec["ideal"]))),
    "pclean_iff_quotient_by_nilpotent_pclean": ("ideal", lambda r, rec: (
        _strongly_pclean(r),
        _quotient_pclean(r, rec["ideal"])
        if rad.nilpotency_index(rad.Ideal(r, rec["ideal"])) is not None else None,
    )),
    # R/I^n for the power I^n, n >= 2, of the recorded order
    "pclean_quotient_stable_under_ideal_powers": ("ideal", lambda r, rec: (
        _quotient_pclean(r, rec["ideal"]),
        next((_quotient_pclean(r, q) for q in list(rad.ideal_powers(r, rec["ideal"]))[1:]
              if q.sum() == rec["power_order"]), None),
    )),
    "idempotent_lift": ("element", _lift_sides),
    "annihilators_carry_to_idempotent": ("element", lambda r, rec: (
        (True, _annihilators_carry(r, a, e))
        if (e := rec["idempotent"]) in dec._hits(r, dec.STRONGLY_P_CLEAN, (a := rec["element"]), True)
        else (None, None)
    )),
    "pclean_in_ring_iff_in_corner": ("element", _corner_element_sides),
}


# the claims stated as "the following are equivalent", whose sides must all
# agree; every other `sides` claim reads "the first side iff the AND of the rest"
_ALL_AGREE = ("T2.4", "T3.5")


def _claim_fails(tid: str, vals: dict) -> bool:
    """Whether ring-level side values break the rule of claim `tid`."""
    first, *rest = vals.values()
    return len(set(vals.values())) > 1 if tid in _ALL_AGREE else first != all(rest)


def _side_verdict(r: RingTable, tid: str, names, note: str | None = None):
    """HOLDS (with `note`) when the named sides keep the rule of claim `tid`,
    else the `sides` payload of every value, in the order of `names`."""
    vals = {name: _RING_PROPS[name](r) for name in names}
    return (COUNTEREXAMPLE, {"kind": "sides", "values": vals}) if _claim_fails(tid, vals) else (HOLDS, note)


def _sides_run(tid: str, names, witness=lambda r: {}, more=lambda r, env: ((), None)):
    """Check `tid`'s run: `_side_verdict` of `names` and of the sides that
    depend on r's order and env.limit, more(r, env) = (names, the note HOLDS
    carries); on a counterexample the fields `witness(r)` gives, merged in
    their order."""

    def run(r: RingTable, env: VerifyEnv):
        extra, note = more(r, env)
        verdict, payload = _side_verdict(r, tid, [*names, *extra], note)
        return verdict, ({**payload, **witness(r)} if verdict == COUNTEREXAMPLE else payload)

    return run


def _record_fields(kind: str, r: RingTable, rec: dict) -> dict:
    """A record as payload fields: element indices as literals, or the ideal
    as its additive basis and order, then T2.8's power order as it is."""
    if kind == "element":
        return {k: r.fmt_index(v) for k, v in rec.items()}
    mask, rest = rec["ideal"], {k: v for k, v in rec.items() if k != "ideal"}
    return {"ideal_gens": _ideal_gens(r, mask), "ideal_order": int(mask.sum()), **rest}


def _record_run(prop: str, records):
    """A check's run: the first record of records(r) where the two sides of
    `prop` in `_RECORD_SIDES` differ, skipping those the claim says nothing
    of (actual None), as a payload of the property's kind."""
    kind, sides = _RECORD_SIDES[prop]

    def run(r: RingTable, env: VerifyEnv):
        for rec in records(r):
            expected, actual = sides(r, rec)
            if actual is not None and actual != expected:
                return COUNTEREXAMPLE, _cex(kind, r, prop, expected, actual, **_record_fields(kind, r, rec))
        return HOLDS, None

    return run


def _commutant_side(r: RingTable, env: VerifyEnv):
    """T2.4's double-commutant side, a scan per element, up to COMMUTANT_BUDGET."""
    if r.order <= COMMUTANT_BUDGET:
        return ["double_commutant_idempotent_for_all"], None
    return [], f"double-commutant side limited to order <= {COMMUTANT_BUDGET}"


def _triangular_sides(r: RingTable, env: VerifyEnv):
    """T3.5's T_k(r) sides, for the k whose T_k(r) fits env.limit."""
    rad.jacobson_radical(r)  # first: on a table that is no ring, its error is the one raised
    sizes, note = _within_limit("T", (2, 3), r, env)
    return [f"triangular_{k}_strongly_pclean" for k in sizes], note


def _first(ring: RingTable, idx) -> dict:
    """A `sides` witness field: the first index of `idx`, none when it is empty."""
    return {"witness": ring.fmt_index(int(idx[0]))} if len(idx) else {}


def _failures(*verdicts):
    """A witness: the least counterexample of the first ring verdict that has one."""
    return lambda r: _first(r, [c for c in (v(r)[1] for v in verdicts) if c is not None])


# ---------------------------------------------------------------------------
# section 2 checks


def _check_t2_4(r: RingTable, env: VerifyEnv):
    sides = ("strongly_pclean_ring", "boolean_mod_prime", "idempotent_within_radical_for_all")
    verdict, note = _sides_run("T2.4", sides, more=_commutant_side)(r, env)
    if verdict == COUNTEREXAMPLE:
        return verdict, note
    # constructive lifting: a - a^2 in P must lift to an idempotent inside P
    lifted = _record_run("idempotent_lift", lambda r: ({"element": a} for a in range(r.order)))(r, env)
    return lifted if lifted[0] == COUNTEREXAMPLE else (HOLDS, note)


def _ideals(r: RingTable):
    """L2.6's and L2.7's records: each ideal, in `enumerate_ideals` order."""
    _strongly_pclean(r)  # first: on a table that is no ring, P(R)'s error is raised
    return ({"ideal": m} for m in enumerate_ideals(r))


def _ideal_power_orders(r: RingTable):
    """T2.8's records: each ideal I with the order of each power I^n, n >= 1."""
    return ({"ideal": m, "power_order": int(q.sum())} for m in enumerate_ideals(r) for q in rad.ideal_powers(r, m))


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


# ---------------------------------------------------------------------------
# section 3 checks


def _commuting_hits(r: RingTable):
    """L3.1's records: each element a, ascending, with each idempotent e,
    ascending, that commutes with a and has a - e in P."""
    hits = (dec._hits(r, dec.STRONGLY_P_CLEAN, a, commuting=True).tolist() for a in range(r.order))
    return ({"element": a, "idempotent": e} for a, es in enumerate(hits) for e in es)


def _corner_members(r: RingTable):
    """T3.2's records: each nonzero idempotent f, ascending, with each member
    of its corner fRf, ascending."""
    dec.strongly_pclean_mask(r)  # first: on a table that is no ring, its error is raised
    nonzero = (f for f in r.idempotent_indices.tolist() if f != r.zero)
    return ({"corner": f, "element": x} for f in nonzero for x in _corner(r, f)[0].tolist())


# ---------------------------------------------------------------------------
# section 4 checks


def _check_t4_4(r: RingTable, env: VerifyEnv):
    m2 = matrix_ring(r)
    masks = [crit(m2) for crit in _CRITERIA.values()]
    diff = np.flatnonzero((masks[0] != masks[1]) | (masks[0] != masks[2]))
    if diff.size == 0:
        return HOLDS, None
    bad = int(diff[0])
    crit = {name: bool(m[bad]) for name, m in zip(_CRITERIA, masks)}
    return COUNTEREXAMPLE, {"kind": "matrix", "ring": m2.name, "matrix": m2.fmt_index(bad),
                            "property": "three_criteria_agree", "criteria": crit}


def _check_e4_6(r: RingTable, env: VerifyEnv):
    from .matrices import SPLIT, classify_pclean_2x2

    A = Matrix2.parse(r, "[1,2;2,2]")
    diff = A - A * A
    if repr(diff) != "[0,0;0,2]":
        return COUNTEREXAMPLE, _cex(
            "matrix", A.m2, "A_minus_A_squared", "[0,0;0,2]", repr(diff), matrix=repr(A)
        )
    res = classify_pclean_2x2(A)
    cert, wit = res.certificate, res.witness
    split = res.kind == SPLIT and cert is not None and cert.validate()
    if split and wit is not None and wit.validate(A):
        return HOLDS, None
    prop = "worked_example_split_with_valid_certificate"
    return COUNTEREXAMPLE, _cex("matrix", A.m2, prop, True, res.kind, matrix=repr(A))


# ---------------------------------------------------------------------------
# registry and drivers


def _product(pair) -> RingTable:
    ra, rb = pair
    # built directly, outside the ring registry: no other check reads a
    # product, so it is dropped when its check returns
    return RingTable(ProductKernel([ra, rb]), f"{ra.name} x {rb.name}")


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
    CheckDef("T2.1", "strongly P-clean iff strongly clean + Boolean mod J + J locally nilpotent", _sides_run(
        "T2.1", ("strongly_pclean_ring", "strongly_clean_ring", "boolean_mod_jacobson", "jacobson_locally_nilpotent"), _failures(dec.is_strongly_pclean_ring, dec.is_strongly_clean_ring))),
    CheckDef("T2.4", "four characterizations incl. Boolean mod P and the idempotent lift", _check_t2_4),
    CheckDef("C2.5", "strongly P-clean iff periodic and 1+U(R) strongly nilpotent", _sides_run(
        "C2.5", ("strongly_pclean_ring", "one_plus_units_strongly_nilpotent"), lambda r: {**_first(r, _one_plus_units_outside_p(r)), "note": "periodicity holds in every finite ring"})),
    CheckDef("L2.6", "homomorphic images stay strongly P-clean", _record_run("quotient_strongly_pclean", _ideals), (_ideal_enum, _pclean_ring)),
    CheckDef("L2.7", "P-cleanness passes through quotients by nilpotent ideals", _record_run("pclean_iff_quotient_by_nilpotent_pclean", _ideals), (_ideal_enum,)),
    CheckDef("T2.8", "R/I vs R/I^n strongly P-clean", _record_run("pclean_quotient_stable_under_ideal_powers", _ideal_power_orders), (_ideal_enum,)),
    CheckDef("L2.9", "finite direct products (restricted form)", lambda pair, env: _side_verdict(
        _product(pair), "L2.9", ("product_strongly_pclean", "both_factors_strongly_pclean")), (_product_within_limit,), _each_pair),
    CheckDef("P2.10", "quotients by I, J vs IJ and their intersection", _check_p2_10, (_ideal_enum,)),
    CheckDef("T2.10", "uniquely P-clean iff abelian + strongly P-clean", _sides_run("T2.10", ("uniquely_pclean_ring", "abelian", "strongly_pclean_ring"), _failures(dec.is_uniquely_pclean_ring))),
    CheckDef("C2.11", "uniquely P-clean implies uniquely clean", lambda r, env: _mask_check(r, "element", "uniquely_clean_count"), (_uniquely_pclean_ring,)),
    CheckDef("C2.12", "constant-diagonal triangular rings over uniquely P-clean bases", _mask_run("Tc", "strongly_pclean", ks=(2, 3)), (_uniquely_pclean_ring,)),
    CheckDef("T2.13", "uniquely P-clean iff strongly P-clean + uniquely nil clean", _sides_run("T2.13", ("uniquely_pclean_ring", "strongly_pclean_ring", "uniquely_nilclean_ring"))),
    CheckDef(
        "C2.14", "Boolean iff uniquely P-clean + primary ideals prime",
        lambda _, env: (SKIPPED, "primary-ideal machinery is out of scope"), (), _once,
    ),
    CheckDef("L3.1", "annihilators of a carry to its idempotent part", _record_run("annihilators_carry_to_idempotent", _commuting_hits), (_annihilator_scan,)),
    CheckDef("T3.2", "P-cleanness agrees between R and its corners fRf", _record_run("pclean_in_ring_iff_in_corner", _corner_members)),
    CheckDef("C3.3", "ring P-clean iff every corner is", _sides_run("C3.3", ("strongly_pclean_ring", "all_corners_strongly_pclean"), lambda r: _bad_corner(r) or {})),
    CheckDef("T3.5", "local ring: P-clean iff uniquely iff residue Z_2 iff T_n P-clean", _sides_run(
        "T3.5", ("strongly_pclean_ring", "uniquely_pclean_ring", "residue_z2_and_locally_nilpotent"), more=_triangular_sides), (_local,)),
    CheckDef("C3.6", "T2 elements: trivial classes or unit-diagonalizable", _sides_run(
        "C3.6", ("strongly_pclean_ring", "every_t2_matrix_trivial_or_diagonalizable"), lambda r: _first(*_t2_not_trivial_or_diagonalizable(r))), (_local, _budget("T", SIM_BUDGET))),
    CheckDef("P3.7", "triangular matrix P-clean iff diagonal in P or 1+P", _mask_run("T", "pclean_iff_diagonal_in_P_or_1P"), (_local, _budget("T"))),
    CheckDef("L4.1", "P(M_2(R)) = M_2(P(R)) element-wise", _mask_run("M", "radical_of_matrix_ring_is_matrix_of_radical"), (_budget("M", MASK_BUDGET),)),
    CheckDef("T4.2", "split P-clean matrices are unit-diagonalizable", _mask_run("M", "pclean_iff_trivial_or_diag_similar"), (_local, _budget("M", SIM_BUDGET))),
    CheckDef("T4.4", "three 2x2 criteria agree on every matrix", _check_t4_4, (_commutative, _local, _budget("M", MASK_BUDGET))),
    CheckDef("C4.5", "ratio-form quadratic criterion", _mask_run("M", "pclean_iff_ratio_equation_root_in_P"), (_commutative, _local, _budget("M", MASK_BUDGET))),
    CheckDef("E4.6", "worked example over Z_4", _check_e4_6, (_z4_only, _budget("M"))),
    CheckDef("T5.1", "necessity of the discriminant-square condition", _mask_run("M", "pclean_implies_discriminant_square_of_1P"), (_commutative, _local, _budget("M", MASK_BUDGET))),
    CheckDef("C5.2", "discriminant equivalence when 2 is a unit", _mask_run("M", "pclean_iff_discriminant_square_of_1P", "half_roots_solve_characteristic_equation"), (_commutative, _local, _two_is_unit, _budget("M", MASK_BUDGET))),
    CheckDef("E5.3", "the [[p+1,p],[q,p]] family", _mask_run("M", "family_pclean_iff_1_plus_4pq_square", at=_e5_3_grid), (_commutative, _local, _budget("M", MASK_BUDGET))),
    CheckDef("T5.4", "P-clean iff pi-regular and companion-similar", _mask_run("M", "pclean_iff_pi_regular_and_companion_similar"), (_commutative, _local, _budget("M", SIM_BUDGET))),
    CheckDef("P5.6", "pi-regular trichotomy over residue-Z_2 rings", _mask_run("M", "pi_regular_iff_unit_or_nilpotent_or_pclean"), (_commutative, _residue_z2, _budget("M", SIM_BUDGET))),
]

CHECK_IDS = [c.id for c in _CHECKS]
_CHECK_BY_ID = {c.id: c for c in _CHECKS}


def _run_one(cd: CheckDef, name: str, subject, env: VerifyEnv) -> TheoremCheck:
    """The one driver: time check `cd` on `subject`, reported as `name`; the
    first guard that fires replaces the check.  A guard or run that needs a
    scan beyond a size guard (RingTooLarge) is SKIPPED with its message."""
    start = time.perf_counter()
    try:
        hit = next(filter(None, (guard(subject, env) for guard in cd.applies)), None)
        verdict, payload = hit or cd.run(subject, env)
    except RingTooLarge as exc:
        verdict, payload = SKIPPED, str(exc)
    millis = (time.perf_counter() - start) * 1000
    cex = payload if verdict == COUNTEREXAMPLE else None
    note = payload if isinstance(payload, str) else None
    return TheoremCheck(cd.id, name, verdict, cex, millis, note)


def _run_checks(cds: list[CheckDef], tables: list[RingTable], env: VerifyEnv) -> list[TheoremCheck]:
    """The one subject loop: the per-ring checks of `cds` ring-major (all of
    them on one ring before the next), then each pair or once check subject
    by subject.  The rings first held in the ring LRU during one subject (its
    T3 or M2 ring, say) leave it when that subject is done."""
    per_ring = [cd for cd in cds if cd.subjects is _each_ring]
    groups = [(per_ring, s) for s in _each_ring(tables)]
    groups += [([cd], s) for cd in cds if cd.subjects is not _each_ring for s in cd.subjects(tables)]
    checks = []
    for group, (name, subject) in groups:
        with _release_new_holds():
            checks += [_run_one(cd, name, subject, env) for cd in group]
    return checks


def verify(theorem_id: str, rings, env: VerifyEnv | None = None) -> list[TheoremCheck]:
    """Run one theorem check over the given rings (RingTables or spec strings),
    built once and held for the whole call (see `_run_checks`)."""
    env = env or VerifyEnv()
    if theorem_id not in _CHECK_BY_ID:
        raise UnknownTheoremId(f"{theorem_id!r}; known ids: {', '.join(CHECK_IDS)}")
    tables = [r if isinstance(r, RingTable) else build_ring(r, env.limit) for r in rings]
    return _run_checks([_CHECK_BY_ID[theorem_id]], tables, env)


def run_suite(
    catalog: list[str] | None = None,
    env: VerifyEnv | None = None,
    only: str | None = None,
) -> TheoremReport:
    """Run every registered check (or a single id) over the catalog.

    The catalog rings are built once and held for the whole run, and the
    checks run through `verify`'s subject loop (`_run_checks`), so the suite
    holds one catalog ring's derived tables at a time; the report is sorted
    by (id, ring).
    """
    env = env or VerifyEnv()
    names = list(catalog) if catalog is not None else list(DEFAULT_CATALOG)
    report = TheoremReport(catalog=names)
    if only:
        report.checks = verify(only, names, env)
    else:
        report.checks = _run_checks(_CHECKS, [build_ring(name, env.limit) for name in names], env)
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


def _hypothesis_not_met(check: TheoremCheck, r: RingTable) -> bool:
    """Whether a guard of `check.id` gives HYPOTHESIS_NOT_MET on the check's
    subject: `r` when the check ran on it, else the ring whose M2, T2 or Tc_k
    ring `r` is.  SKIPPED guards (budgets, ideal enumeration, Z4 only) are
    not re-applied, so a payload recorded under a larger limit replays."""
    cd = _CHECK_BY_ID.get(check.id)
    if cd is None or cd.subjects is not _each_ring:
        return False
    subject = r if r.name == check.ring else getattr(r.kernel, "base", r)
    hits = (guard(subject, VerifyEnv()) for guard in cd.applies)
    return any(hit and hit[0] == HYPOTHESIS_NOT_MET for hit in hits)


def replay_counterexample(check: TheoremCheck, ring: RingTable | None = None) -> bool:
    """Re-verify a serialized counterexample from its payload alone: every
    recorded side is re-derived from its one definition in the side tables,
    and the payload replays True only when each equals its record and the
    sides break the claim (differ, or for ring-level sides break the rule
    of `check.id`), so a payload from a ring where the claim holds does not,
    and only where the claim's hypotheses hold (`_hypothesis_not_met`).
    `ring` overrides the payload's ring lookup (needed for fixture rings
    with no spec); a `sides` payload names no ring, so it replays only on
    the `ring` given.  Raises OrderLimitExceeded when a recorded side names
    a T_k(ring) above DEFAULT_ORDER_LIMIT.
    """
    payload = check.counterexample
    kind = payload and payload.get("kind")
    if kind == "sides":
        vals = payload["values"]
        if ring is None or not vals or _hypothesis_not_met(check, ring):
            return False
        for k in (2, 3):
            if f"triangular_{k}_strongly_pclean" in vals:
                order = specs.derived_order("T", k, ring.order)
                require_order(f"T{k}({ring.name})", order, DEFAULT_ORDER_LIMIT)
        recomputed = all(name in _RING_PROPS and _RING_PROPS[name](ring) == v for name, v in vals.items())
        return recomputed and _claim_fails(check.id, vals)
    if kind not in ("element", "matrix", "ideal", "ideal_pair"):
        return False
    r = ring if ring is not None else build_ring(payload["ring"])
    if _hypothesis_not_met(check, r):
        return False
    if kind in ("ideal", "ideal_pair"):
        # `_ideal_gens` records an additive basis: its span, if an ideal of r
        # (and of the recorded order)
        bases = payload["ideal_gens"] if kind == "ideal_pair" else [payload["ideal_gens"]]
        masks = [additive_closure_mask(r, [r.parse_element(g).index for g in b]) for b in bases]
        if not all(rad._certify_ideal(r, m) for m in masks) or (
                kind == "ideal" and int(masks[0].sum()) != payload["ideal_order"]):
            return False
    if kind == "ideal_pair":
        got = _pair_sides(r, *masks)
        return all(payload[k] == v for k, v in got.items()) and len(set(got.values())) > 1
    prop = payload["property"]
    tag, record_sides = _RECORD_SIDES.get(prop, (None, None))
    if kind == "ideal" or tag is not None:  # a record, of its property's kind
        if tag != kind:
            return False
        rec = {**payload, "ideal": masks[0]} if kind == "ideal" else {
            k: r.parse_element(payload[k]).index for k in ("corner", "element", "idempotent") if k in payload}
        sides = record_sides(r, rec)
    else:
        idx = r.parse_element(payload.get("element") or payload["matrix"]).index
        if "criteria" in payload:  # a three-way criterion disagreement
            got = {name: bool(crit(r)[idx]) for name, crit in _CRITERIA.items()}
            return got == payload["criteria"] and len(set(got.values())) > 1
        if prop not in _MASK_SIDES:
            return False
        sides = tuple(side[idx].item() for side in _MASK_SIDES[prop](r))
    return sides == (payload.get("expected"), payload.get("actual")) and sides[0] != sides[1]
