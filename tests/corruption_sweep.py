"""Run every single-entry corruption of the Cayley tables of small rings
(Z2, Z3 and Z4 unless ring specs are given) through the verifier's checks,
and replay every counterexample they record.

    PYTHONPATH=src python tests/corruption_sweep.py
    PYTHONPATH=src python tests/corruption_sweep.py Z2xZ2 "Z2[w]" "Z2[i]"

A table with one wrong entry is (almost always) no ring.  Each check must
still give a verdict or raise a typed `PcleanError`, and each payload that
is not a `sides` payload (element, matrix, criteria, ideal or ideal pair)
must replay True twice: warm, on the rings the check read (the table's M2,
T2 and Tc2 are held from before the check), and fresh, on a new `RingTable`
over the same tables.  The script exits 1 on an untyped exception, on a
case (one table, one id, its replays) slower than `WALL_BOUND_S`, or on
such a payload that does not replay both ways.  It prints the outcome
counts, the replay counts per payload kind, and one SHA-256 over every
case's full outcome (`outcome_record`), so a change that keeps the counts
but moves a payload or a note shows.  `tests/test_verifier.py` runs
`run_case` over a part of this sweep in tier-1.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time
import traceback
from collections import Counter

import numpy as np

from pclean.errors import PcleanError
from pclean.rings import build_ring, derived_ring
from pclean.verifier import CHECK_IDS, COUNTEREXAMPLE, replay_counterexample, verify

from table_kernel import corrupted

WALL_BOUND_S = 5.0
SPECS = ("Z2", "Z3", "Z4")  # the rings swept when none are given


def corruptions(specs=SPECS, ops=("add", "mul")):
    """(spec, op, row, col, val) for every entry of the op table of each ring
    in `specs` changed to each other value."""
    for spec in specs:
        r = build_ring(spec)
        for op in ops:
            for row, col, val in np.ndindex(r.order, r.order, r.order):
                if getattr(r, op)(row, col) != val:
                    yield spec, op, row, col, val


def payload_ring(base, name: str):
    """The ring a payload names: `base` itself or its M_k, T_k or Tc_k ring."""
    m = re.fullmatch(r"(M|T|Tc)(\d)\((.*)\)", name)
    return derived_ring(m[1], int(m[2]), base) if m else base


def _replays(check, base) -> bool:
    try:
        return replay_counterexample(check, ring=payload_ring(base, check.counterexample["ring"]))
    except PcleanError:
        return False


def outcome_record(check=None, exc=None) -> list:
    """What the outcome digest reads of a case: the check's `to_dict()`
    without `millis` (verdict, payload, note), or the exception's type and
    message."""
    if exc is not None:
        return [type(exc).__name__, str(exc)]
    return sorted((k, v) for k, v in check.to_dict().items() if k != "millis")


def run_case(case, tid: str) -> tuple[str, list[tuple[str, bool, bool]], list]:
    """Run check `tid` on the corrupted table `case`: its outcome (a verdict
    or the name of the exception raised), for every non-`sides`
    counterexample (kind, replays warm, replays fresh), and its
    `outcome_record`."""
    spec, op, row, col, val = case
    name = f"{spec}{op}{row}{col}{val}"
    try:
        bad = corrupted(spec, op, row, col, val, name)
        # held from before the check, so the check reads these very rings
        warm = [derived_ring(fam, 2, bad) for fam in ("M", "T", "Tc")]
        (check,) = verify(tid, [bad])
    except PcleanError as exc:
        return type(exc).__name__, [], outcome_record(exc=exc)
    record = outcome_record(check)
    if check.verdict != COUNTEREXAMPLE or check.counterexample["kind"] == "sides":
        return check.verdict, [], record
    fresh = corrupted(spec, op, row, col, val, name)
    kind = check.counterexample["kind"]
    return check.verdict, [(kind, _replays(check, bad), _replays(check, fresh))], record


def main(specs) -> int:
    outcomes, replayed, failures, digest = Counter(), Counter(), [], hashlib.sha256()
    slowest, start = (0.0, None), time.perf_counter()
    for case in corruptions(specs):
        for tid in CHECK_IDS:
            t0 = time.perf_counter()
            try:
                outcome, replays, record = run_case(case, tid)
            except Exception as exc:  # an untyped error is what this sweep looks for
                outcome, replays, record = "untyped", [], outcome_record(exc=exc)
                failures.append(f"{case} {tid}: untyped exception\n{traceback.format_exc()}")
            wall = time.perf_counter() - t0
            slowest = max(slowest, (wall, (case, tid)), key=lambda s: s[0])
            if wall > WALL_BOUND_S:
                failures.append(f"{case} {tid}: {wall:.2f} s > {WALL_BOUND_S} s")
            outcomes[outcome] += 1
            digest.update(json.dumps([case, tid, record]).encode() + b"\n")
            for kind, warm, fresh in replays:
                replayed[kind, warm, fresh] += 1
                if not (warm and fresh):
                    failures.append(f"{case} {tid}: {kind} payload replays warm={warm} fresh={fresh}")
    print(f"{sum(outcomes.values())} cases in {time.perf_counter() - start:.1f} s, "
          f"slowest {slowest[0]:.3f} s ({slowest[1]})")
    for outcome, count in sorted(outcomes.items()):
        print(f"  {outcome}: {count}")
    print("non-sides payloads (kind, replays warm, replays fresh):")
    for key, count in sorted(replayed.items()):
        print(f"  {key}: {count}")
    print(f"outcome digest: {digest.hexdigest()}")
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or SPECS))
