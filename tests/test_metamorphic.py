"""Isomorphic specs must agree on every invariant and every verdict."""

import pytest

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
