"""The additive-span layer against pure-Python oracles: closures, subgroup
bases, ideal closures and products, ideal powers and quotient cosets."""

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pclean import radicals as rad
from pclean.errors import PcleanError
from pclean.rings import (
    QuotientKernel,
    _span,
    additive_closure_mask,
    build_ring,
    corner_ring,
    ideal_closure_mask,
    subgroup_basis,
)
from pclean.verifier import (
    DEFAULT_CATALOG,
    enumerate_ideals,
    replay_counterexample,
    verify,
)

from oracles import additive_span, appending_span, ideal_nilpotency, ideals_by_subgroups
from table_kernel import corrupted, corrupted_zn


def _corner():
    r = build_ring("M2(Z4)")
    return corner_ring(r, r.parse_element("[1,0;0,0]").index)[0]


# the catalog, the coordinate path and a few corner cases: an elementary
# abelian group, a non-cyclic group with unequal orders, a quotient and a
# subset-kernel (corner) ring
RINGS = {name: (lambda name=name: build_ring(name)) for name in DEFAULT_CATALOG}
RINGS.update(
    {
        "T2(Z32)": lambda: build_ring("T2(Z32)"),
        "Z2xZ2xZ2": lambda: build_ring("Z2xZ2xZ2"),
        "Z8xZ4": lambda: build_ring("Z8xZ4"),
        "Z4[i]/(2)": lambda: build_ring("Z4[i]/(2)"),
        "Z16": lambda: build_ring("Z16"),
        "M2(Z4)|e11": _corner,
    }
)
# T2(Z32) has 32768 elements and slow scalar ops, so it draws at most two
# seeds (a span of at most 1024 elements) and skips the ideal oracles
MAX_SEEDS = {"T2(Z32)": 2}
SMALL = [name for name, make in RINGS.items() if name != "T2(Z32)" and make().order <= 256]


@st.composite
def ring_and_seeds(draw, names=tuple(RINGS), most=4):
    name = draw(st.sampled_from(names))
    r = RINGS[name]()
    size = min(most, MAX_SEEDS.get(name, most))
    return r, draw(st.lists(st.integers(0, r.order - 1), max_size=size))


def _members(mask):
    return set(np.flatnonzero(mask).tolist())


def _ideal_oracle(r, gens):
    """The span of a*x*b over every a, b in r and x in gens."""
    els = range(r.order)
    return additive_span(r, {r.mul(r.mul(a, x), b) for x in gens for a in els for b in els})


@given(ring_and_seeds())
def test_additive_closure_matches_oracle(case):
    r, seeds = case
    assert _members(additive_closure_mask(r, np.asarray(seeds, np.int64))) == additive_span(
        r, seeds
    )


@given(ring_and_seeds())
def test_subgroup_basis_is_the_greedy_ascending_basis(case):
    r, members = case
    basis = subgroup_basis(r, np.asarray(members, np.int64)).tolist()
    assert basis == sorted(set(basis)) and set(basis) <= set(members)
    for i, b in enumerate(basis):
        assert b not in additive_span(r, basis[:i])
    # every member skipped lies in the span of the basis elements below it
    for m in set(members) - set(basis):
        assert m in additive_span(r, [b for b in basis if b < m])
    assert additive_span(r, basis) == additive_span(r, members)


@pytest.mark.parametrize("name", ["T2(Z4[i])", "M2(Z8)"])
def test_spans_without_tables_match_oracle(name):
    # order 4096, above DENSE_TABLE_LIMIT: the spans run on the digit kernel
    r = build_ring(name)
    assert r._add_t is None
    rng = np.random.default_rng(3)
    for seeds in ([], [r.one], *rng.integers(0, r.order, (3, 3)).tolist(), r.additive_generators):
        want = additive_span(r, seeds)
        assert _members(additive_closure_mask(r, np.asarray(seeds, np.int64))) == want
        basis = subgroup_basis(r, np.asarray(seeds, np.int64)).tolist()
        assert basis == sorted(set(basis)) and additive_span(r, basis) == want
        assert all(b not in additive_span(r, basis[:i]) for i, b in enumerate(basis))


@given(ring_and_seeds(names=tuple(SMALL), most=2))
def test_ideal_closure_matches_oracle(case):
    r, gens = case
    assert _members(ideal_closure_mask(r, np.asarray(gens, np.int64))) == _ideal_oracle(r, gens)


@given(st.sampled_from([n for n in SMALL if RINGS[n]().order <= 64]), st.data())
def test_ideal_product_matches_oracle(name, data):
    r = RINGS[name]()
    ideals = enumerate_ideals(r)
    a, b = (data.draw(st.sampled_from(ideals), label=lab) for lab in "ab")
    want = additive_span(
        r, {r.mul(x, y) for x in np.flatnonzero(a).tolist() for y in np.flatnonzero(b).tolist()}
    )
    assert _members(rad.ideal_product_mask(r, *(subgroup_basis(r, np.flatnonzero(m)) for m in (a, b)))) == want


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_radical_nilpotency_indexes_match_oracle(name):
    r = build_ring(name)
    for ideal in (rad.prime_radical(r), rad.jacobson_radical(r)):
        members = set(ideal.indices.tolist())
        assert rad.nilpotency_index(ideal) == ideal_nilpotency(members, r.mul, r.add, r.zero)


# an order-16 quotient whose maximal ideal needs three generators
TC4_QUOTIENT = (
    "Tc4(Z2)/([0,0,1,0;0,0,0,0;0,0,0,0;0,0,0,0],[0,0,0,0;0,0,0,1;0,0,0,0;0,0,0,0])"
)
IDEAL_LATTICE_RINGS = [n for n in DEFAULT_CATALOG if build_ring(n).order <= 16] + [
    TC4_QUOTIENT, "Tc3(Z2)", "Z2xZ2xZ2", "Z8xZ2",
]


@pytest.mark.parametrize("name", IDEAL_LATTICE_RINGS)
def test_enumerate_ideals_is_every_ideal(name):
    r = build_ring(name)
    got = [frozenset(np.flatnonzero(m).tolist()) for m in enumerate_ideals(r)]
    assert len(set(got)) == len(got)
    assert set(got) == ideals_by_subgroups(r)


def test_enumerate_ideals_finds_an_ideal_that_needs_three_generators():
    # ideals generated by at most two elements miss the maximal ideal here
    r = build_ring(TC4_QUOTIENT)
    ideals = enumerate_ideals(r)
    assert len(ideals) == 17
    maximal = ideals[-2]
    assert [int(m.sum()) for m in ideals][-2:] == [8, 16]
    pairs = ((a, b) for a in range(r.order) for b in range(a, r.order))
    assert not any(np.array_equal(ideal_closure_mask(r, pair), maximal) for pair in pairs)


def test_ideal_powers_stop_at_zero_or_where_they_stabilize():
    z8, z6 = build_ring("Z8"), build_ring("Z6")
    two = ideal_closure_mask(z8, [2])
    assert [int(p.sum()) for p in rad.ideal_powers(z8, two)] == [4, 2, 1]
    idem = ideal_closure_mask(z6, [2])  # (2) = (4) is idempotent in Z6
    assert [int(p.sum()) for p in rad.ideal_powers(z6, idem)] == [3]
    assert rad.nilpotency_index(rad.Ideal(z6, idem)) is None


def test_replay_picks_the_ideal_power_named_by_its_order():
    # Z4 with 0 + 1 = 3 is no ring: its ideal {0, 2} has square {0}, and the
    # quotient by the ideal is strongly P-clean while the one by its square
    # (the zero ideal) is not
    bad = corrupted_zn(0, 1, 3, "Z4add013", op="add")
    (check,) = verify("T2.8", [bad])
    assert check.counterexample == {
        "kind": "ideal",
        "ring": "Z4add013",
        "ideal_gens": ["2"],
        "ideal_order": 2,
        "power_order": 1,
        "property": "pclean_quotient_stable_under_ideal_powers",
        "expected": True,
        "actual": False,
    }
    assert replay_counterexample(check, ring=bad)
    # no power I^n, n >= 2, has order 2 or 4, so neither names a side
    for order in (2, 4):
        check.counterexample["power_order"] = order
        assert not replay_counterexample(check, ring=bad)


def test_buffered_span_matches_the_appending_span_on_corrupted_tables():
    # on a table that is no ring a doubling step can add one element twice
    # or nothing new, and a full buffer can still miss elements; the span
    # keeps its members in a buffer of order size plus a spare slot for the
    # shift and raises "addition is not a group" before it writes past the
    # end, as the appending span raised after growing its list.  The spans
    # of 1 and of every element, on every single-entry corruption of the Z2,
    # Z3, Z4 and Z2xZ2 tables: the same mask and new seeds or the same typed
    # error, never an IndexError or ValueError
    from corruption_sweep import corruptions

    spans, errors = 0, 0
    for spec, op, row, col, val in corruptions(("Z2", "Z3", "Z4", "Z2xZ2")):
        try:
            r = corrupted(spec, op, row, col, val)
        except PcleanError:  # an element with no negative
            continue
        for seeds in ([1], np.arange(r.order)):
            outcomes = []
            for span in (_span, appending_span):
                try:
                    mask, new = span(r, seeds)
                    outcomes.append((mask.tolist(), new))
                except PcleanError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], r.name
            spans += 1
            errors += isinstance(outcomes[0][0], type)
    assert spans == 408 and errors == 17


def _brute_force_reps(r, ideal):
    idx = np.arange(r.order, dtype=np.int64)
    return r.vadd(idx[:, None], ideal[None, :]).min(axis=1)


QUOTIENT_CASES = [(n, None) for n in DEFAULT_CATALOG if build_ring(n).order <= 64] + [
    ("T2(Z32)", "[0,1;0,0]"),
    ("M2(Z4)", "[2,0;0,0]"),
    ("Z9[w]", "3"),
]


@pytest.mark.parametrize("name,gen", QUOTIENT_CASES)
def test_quotient_representatives_are_least_coset_members(name, gen):
    r = build_ring(name)
    if gen is None:
        masks = enumerate_ideals(r)  # every ideal of a small catalog ring
    else:
        masks = [ideal_closure_mask(r, [r.parse_element(gen).index])]
    for mask in masks:
        ideal = np.flatnonzero(mask)
        assert np.array_equal(QuotientKernel(r, ideal).rep_of, _brute_force_reps(r, ideal))


def test_quotient_of_a_long_cyclic_ring_is_fast():
    # a representative taken as the minimum over all of x + I costs n * |I|
    # lanes, 1.6 s here; the doubling over a basis of I costs a few ms
    t0 = time.perf_counter()
    q = build_ring("Z16384/(2)")
    assert time.perf_counter() - t0 < 0.5
    assert q.order == 2
    assert np.array_equal(q.kernel.rep_of, np.arange(16384) % 2)
