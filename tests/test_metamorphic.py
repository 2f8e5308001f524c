"""Isomorphic specs must agree on every invariant and every verdict."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclean import decompositions as dec
from pclean import radicals as rad
from pclean.rings import build_ring
from pclean.verifier import run_suite

PAIRS = [
    ("Z6", "Z2xZ3"),
    ("Z4xZ2", "Z2xZ4"),
    ("M1(Z4)", "Z4"),
    ("T1(Z4)", "Z4"),
    ("Tc1(Z4)", "Z4"),
    ("Z4/(2)", "Z2"),
    ("(Z4xZ2)/([0,1])", "Z4"),
    ("Z4[i]/(2)", "Z2[i]"),
    ("T1(M2(Z2))", "M2(Z2)"),
    # Chinese remainder theorem: Z_mn = Z_m x Z_n for coprime m, n
    ("Z10", "Z2xZ5"),
    ("Z12", "Z4xZ3"),
    ("Z15", "Z3xZ5"),
    # splitting: x^2 + 1 (x^2 + x + 1) has two roots mod 5 and 13 (mod 7)
    ("Z5[i]", "Z5xZ5"),
    ("Z13[i]", "Z13xZ13"),
    ("Z7[w]", "Z7xZ7"),
    # ramification: x^2 + 1 = (x + 1)^2 mod 2 and x^2 + x + 1 = (x - 1)^2
    # mod 3, so Z_p[x]/((x - a)^2) is the constant-diagonal Tc2(Z_p)
    ("Z2[i]", "Tc2(Z2)"),
    ("Z3[w]", "Tc2(Z3)"),
    # each family commutes with finite products: F(R x S) = F(R) x F(S)
    ("M2(Z6)", "M2(Z2)xM2(Z3)"),
    ("T2(Z6)", "T2(Z2)xT2(Z3)"),
    ("Tc2(Z6)", "Tc2(Z2)xTc2(Z3)"),
    ("M2(Z2xZ2)", "M2(Z2)xM2(Z2)"),
]


def _invariants(name):
    r = build_ring(name)
    p, j = rad.prime_radical(r), rad.jacobson_radical(r)
    return {
        "order": r.order,
        "units": int(r.unit_indices.size),
        "idempotents": int(r.idempotent_indices.size),
        "nilpotents": int(rad.nilpotent_mask(r).sum()),
        "radicals": (p.order, rad.nilpotency_index(p), j.order, rad.nilpotency_index(j)),
        "verdicts": {k: v["holds"] for k, v in dec.ring_verdicts(r).items()},
    }


def _check_verdicts(name):
    # E4.6 is left out: its guard is keyed to the ring's name, so it runs on
    # Z4 alone and is SKIPPED on every other spec, isomorphic or not
    return {c.id: c.verdict for c in run_suite([name]).checks if c.id != "E4.6"}


@pytest.mark.parametrize("a,b", PAIRS)
def test_isomorphic_specs_agree(a, b):
    assert _invariants(a) == _invariants(b)
    assert _check_verdicts(a) == _check_verdicts(b)


_COPRIME = [(m, n) for m in range(2, 33) for n in range(2, 33)
            if m * n <= 64 and math.gcd(m, n) == 1]


@settings(max_examples=20, deadline=None)
@given(mn=st.sampled_from(_COPRIME))
def test_chinese_remainder_pairs_agree(mn):
    m, n = mn
    assert _invariants(f"Z{m * n}") == _invariants(f"Z{m}xZ{n}")
    assert _check_verdicts(f"Z{m * n}") == _check_verdicts(f"Z{m}xZ{n}")
