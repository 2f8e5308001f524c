"""Side independence, recorded: the derived facts the sides of a check share.

The verifier derives the sides of each claim independently.  When two sides
read one cached fact (the ring's P, its units, a sweep), a wrong value of
that fact can move both sides together, and the check then holds although
both sides are wrong.  This module runs each side alone, on fresh rings: a
`RingTable` over the same kernel with an empty cache, with every derived
ring taken from that fresh base.  It records each (ring, key) pair the side
reads through `rings.cached`, in every module that imports it.  It pins, per
check, the pairs that two or more sides read, so a change that makes a side
read a fact another side reads shows here.  Fresh rings make the record
complete (a warm hit on a fact would hide the facts its fill reads) and
independent of test order.

Covered: every ring-level `sides` check, on a ring where its guards pass,
and every `_MASK_SIDES` property, on its family ring.  Record checks
(`_RECORD_SIDES`) stay out: each entry is one function returning both
sides, since both read the record's scope test (is the ideal nilpotent, is
x - x^2 in P, does the corner hold x), and splitting them would compute it
twice.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict

import pytest

from pclean import rings, verifier
from pclean.rings import RingTable, _release_new_holds, build_ring, derived_ring

SP = "strongly_pclean_ring"
UP = "uniquely_pclean_ring"

# facts most sides read: the additive generators (of the ring, and of the
# base of a derived ring), the nilpotent mask and P, found from it and
# certified; the idempotents; the squaring map, which the idempotents, the
# nilpotent mask and the unit inverses read
T2Z2_P = {("T2(Z2)", "additive_generators"), ("Z2", "additive_generators"),
          ("T2(Z2)", "nilpotent_mask"), ("T2(Z2)", "prime_ideal")}
T2Z2_IDEMPOTENTS = {("T2(Z2)", "idempotent_indices"), ("T2(Z2)", "idempotent_mask")}
T2Z2_SQUARES = {("T2(Z2)", "squares")}
Z4_P = {("Z4", "additive_generators"), ("Z4", "nilpotent_mask"), ("Z4", "prime_ideal")}
Z4_IDEMPOTENTS = {("Z4", "idempotent_indices"), ("Z4", "idempotent_mask")}
Z4_SQUARES = {("Z4", "squares")}

# check: (its subject, its sides in the order it reads them, and per group of
# two or more sides the (ring, key) pairs exactly that group reads)
RING_LEVEL = {
    # the two J sides read P: the Jacobson radical's bug trap checks P <= J,
    # and "J locally nilpotent" is J <= P; both read the unit scan, as does
    # the strongly clean sweep, whose member set is the units
    "T2.1": ("T2(Z2)", (SP, "strongly_clean_ring", "boolean_mod_jacobson", "jacobson_locally_nilpotent"), {
        (SP, "strongly_clean_ring", "boolean_mod_jacobson", "jacobson_locally_nilpotent"): T2Z2_P | T2Z2_SQUARES,
        (SP, "strongly_clean_ring"): T2Z2_IDEMPOTENTS,
        ("strongly_clean_ring", "boolean_mod_jacobson", "jacobson_locally_nilpotent"): {
            ("T2(Z2)", "unit_inverses"), ("T2(Z2)", "unit_mask"), ("Z2", "unit_inverses"), ("Z2", "unit_mask")},
        ("boolean_mod_jacobson", "jacobson_locally_nilpotent"): {("T2(Z2)", "jacobson_ideal")},
    }),
    "T2.4": ("T2(Z2)", (SP, "boolean_mod_prime", "idempotent_within_radical_for_all",
                        "double_commutant_idempotent_for_all"), {
        (SP, "boolean_mod_prime", "idempotent_within_radical_for_all", "double_commutant_idempotent_for_all"):
            T2Z2_P | T2Z2_SQUARES,
        (SP, "idempotent_within_radical_for_all", "double_commutant_idempotent_for_all"): T2Z2_IDEMPOTENTS,
    }),
    "C2.5": ("T2(Z2)", (SP, "one_plus_units_strongly_nilpotent"), {
        (SP, "one_plus_units_strongly_nilpotent"): T2Z2_P | T2Z2_SQUARES,
    }),
    # "abelian" reads the idempotents only
    "T2.10": ("T2(Z2)", (UP, "abelian", SP), {
        (UP, SP): T2Z2_P,
        (UP, "abelian", SP): T2Z2_IDEMPOTENTS | T2Z2_SQUARES,
    }),
    # Nil(R) = P(R) here, so the uniquely nil clean verdict is P's uniquely
    # P-clean verdict and reads its sweep and memo (`decompositions._verdict`)
    "T2.13": ("T2(Z2)", (UP, SP, "uniquely_nilclean_ring"), {
        (UP, SP, "uniquely_nilclean_ring"): T2Z2_P | T2Z2_IDEMPOTENTS | T2Z2_SQUARES,
        (UP, "uniquely_nilclean_ring"): {
            ("T2(Z2)", ("sweep", "STRONGLY_P_CLEAN", False)), ("T2(Z2)", ("verdict", "STRONGLY_P_CLEAN", False))},
    }),
    # the corners are found among R's idempotents; each corner's own P and
    # sweep live on the corner ring
    "C3.3": ("T2(Z2)", (SP, "all_corners_strongly_pclean"), {
        (SP, "all_corners_strongly_pclean"): T2Z2_IDEMPOTENTS | T2Z2_SQUARES,
    }),
    # of R's facts, T2(R) and T3(R) read only the additive generators
    "T3.5": ("Z4", (SP, UP, "residue_z2_and_locally_nilpotent", "triangular_2_strongly_pclean",
                    "triangular_3_strongly_pclean"), {
        (SP, UP, "residue_z2_and_locally_nilpotent", "triangular_2_strongly_pclean", "triangular_3_strongly_pclean"):
            {("Z4", "additive_generators")},
        (SP, UP, "residue_z2_and_locally_nilpotent"): Z4_P - {("Z4", "additive_generators")} | Z4_SQUARES,
        (SP, UP): Z4_IDEMPOTENTS,
    }),
    # the T2 side reads R's P for the diagonal entries
    "C3.6": ("Z4", (SP, "every_t2_matrix_trivial_or_diagonalizable"), {
        (SP, "every_t2_matrix_trivial_or_diagonalizable"): Z4_P | Z4_SQUARES,
    }),
    # the product's additive generators are read from its factors'
    "L2.9": ("Z2 x Z4", ("product_strongly_pclean", "both_factors_strongly_pclean"), {
        ("product_strongly_pclean", "both_factors_strongly_pclean"):
            {("Z2", "additive_generators"), ("Z4", "additive_generators")},
    }),
}

# the base's P and squaring map, its 2 and 4 (`embed_int`), and the matrix
# invariants (tr, det, disc)
M2Z3_GATE = {("M2(Z3)", "m2_invariants"), ("Z3", "additive_generators"), ("Z3", "multiples_of_one"),
             ("Z3", "nilpotent_mask"), ("Z3", "prime_ideal"), ("Z3", "squares")}
M2Z4_GATE = {("M2(Z4)", "m2_invariants"), ("Z4", "multiples_of_one")} | Z4_P | Z4_SQUARES

# property: (its family ring, the (ring, key) pairs both of its sides read)
MASK = {
    # C2.12: the expected side is a constant
    "strongly_pclean": ("Tc2(Z4)", set()),
    "pclean_iff_diagonal_in_P_or_1P": ("T2(Z4)", {("Z4", "additive_generators")}),
    # L4.1, C4.5 and the iff form of C5.2 share only the base's additive
    # generators, which every ring derived from it reads
    "radical_of_matrix_ring_is_matrix_of_radical": ("M2(Z4)", {("Z4", "additive_generators")}),
    "pclean_iff_ratio_equation_root_in_P": ("M2(Z4)", {("Z4", "additive_generators")}),
    "pclean_iff_discriminant_square_of_1P": ("M2(Z3)", {("Z3", "additive_generators")}),
    # the orbit map of T4.2 and T5.4 (through the unit inverses) and the
    # sweep both read M2's squaring map
    "pclean_iff_trivial_or_diag_similar": ("M2(Z4)", {("M2(Z4)", "squares"), ("Z4", "additive_generators")}),
    "pclean_iff_pi_regular_and_companion_similar": (
        "M2(Z4)", {("M2(Z4)", "squares"), ("Z4", "additive_generators")}),
    # E5.3's family gate, C5.2's half-roots branch and T5.1's side are read
    # by both sides, so both read the base's P and the invariants; the
    # branch and T5.1's side also read 1+P, and T5.1's the trivial masks
    "family_pclean_iff_1_plus_4pq_square": ("M2(Z4)", M2Z4_GATE),
    "half_roots_solve_characteristic_equation": ("M2(Z3)", M2Z3_GATE | {("Z3", "one_plus_p")}),
    "pclean_implies_discriminant_square_of_1P": ("M2(Z4)", M2Z4_GATE | {
        ("Z4", "one_plus_p"), ("M2(Z4)", "entries_in_p"), ("M2(Z4)", "one_minus_in_p")}),
    # C2.11: the claim's side is R's uniquely P-clean verdict, the actual
    # side the clean sweep, both over R's idempotents
    "uniquely_clean_count": ("Z4", Z4_P | Z4_IDEMPOTENTS | Z4_SQUARES),
    "pi_regular_iff_unit_or_nilpotent_or_pclean": ("M2(Z4)", set()),
}


def _fresh(spec: str) -> RingTable:
    """A ring over the kernel of `spec`'s ring with an empty cache; an M_k,
    T_k, Tc_k or product ring is built over fresh bases."""
    if " x " in spec:
        return verifier._product([_fresh(f) for f in spec.split(" x ")])
    m = re.fullmatch(r"(M|T|Tc)(\d)\((.*)\)", spec)
    if m:
        return derived_ring(m[1], int(m[2]), _fresh(m[3]))
    return RingTable(build_ring(spec).kernel, spec)


@pytest.fixture
def reads(monkeypatch):
    """reads(side, spec): the (ring name, key) pairs side(ring) reads through
    `rings.cached`, run alone on a fresh `spec` ring."""
    original, touched = rings.cached, set()

    def recording(r, key, make):
        touched.add((r.name, key))
        return original(r, key, make)

    patched = [m for name, m in sys.modules.items() if name.startswith("pclean") and vars(m).get("cached") is original]
    assert {m.__name__ for m in patched} >= {"pclean.rings", "pclean.radicals", "pclean.decompositions",
                                            "pclean.matrices", "pclean.verifier"}
    for m in patched:
        monkeypatch.setattr(m, "cached", recording)

    def run(side, spec: str) -> set:
        touched.clear()
        with _release_new_holds():
            side(_fresh(spec))
        return set(touched)

    return run


def _shared(sides: dict[str, set]) -> dict[frozenset, set]:
    """Per group of two or more sides, the pairs exactly that group reads."""
    readers = defaultdict(set)
    for name, pairs in sides.items():
        for pair in pairs:
            readers[pair].add(name)
    groups = defaultdict(set)
    for pair, names in readers.items():
        if len(names) > 1:
            groups[frozenset(names)].add(pair)
    return dict(groups)


@pytest.mark.parametrize("tid", RING_LEVEL)
def test_ring_level_sides_share_only_the_pinned_facts(tid, reads):
    spec, sides, pinned = RING_LEVEL[tid]
    read = []  # the sides the check itself reads, in its order
    with pytest.MonkeyPatch.context() as mp:
        for name, prop in list(verifier._RING_PROPS.items()):
            mp.setitem(verifier._RING_PROPS, name, lambda r, name=name, prop=prop: read.append(name) or prop(r))
        checks = verifier.verify(tid, spec.split(" x "))
    assert {c.verdict for c in checks} == {"HOLDS"}
    assert list(dict.fromkeys(read)) == list(sides)
    got = _shared({name: reads(verifier._RING_PROPS[name], spec) for name in sides})
    assert got == {frozenset(group): pairs for group, pairs in pinned.items()}


def test_every_mask_property_is_a_pair_of_sides():
    assert set(MASK) == set(verifier._MASK_SIDES)
    for expected, actual in verifier._MASK_SIDES.values():
        assert callable(expected) and callable(actual)


@pytest.mark.parametrize("prop", MASK)
def test_mask_sides_share_only_the_pinned_facts(prop, reads):
    spec, pinned = MASK[prop]
    expected, actual = verifier._MASK_SIDES[prop]
    got = _shared({"expected": reads(expected, spec), "actual": reads(actual, spec)})
    assert got == ({frozenset({"expected", "actual"}): pinned} if pinned else {})
