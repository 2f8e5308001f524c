"""Element-level cleanness tests, certificates, and ring-level aggregates.

Every certificate re-validates from its stored witness; aggregates report the
least-index counterexample.  The uniquely-P-clean count deliberately drops the
commutation requirement: uniqueness is over all idempotents e with a - e in
P(R), which is what separates abelian from non-abelian rings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radicals
from .errors import NotLiftable, PcleanError, RingTooLarge
from .rings import Element, RingTable

STRONGLY_CLEAN = "STRONGLY_CLEAN"
STRONGLY_NIL_CLEAN = "STRONGLY_NIL_CLEAN"
STRONGLY_J_CLEAN = "STRONGLY_J_CLEAN"
STRONGLY_P_CLEAN = "STRONGLY_P_CLEAN"

_PROBE = 64  # ascending per-element probe before vectorized full scans


@dataclass(frozen=True)
class CleanCertificate:
    """Witnessed decomposition a = e + w with e idempotent and ew = we."""

    kind: str
    ring: RingTable
    element: int
    idempotent: int
    remainder: int
    witness: int | None  # P: nilpotency index of ideal(w); NIL: exponent of w;
    #                      CLEAN: index of w^-1; J: None

    def validate(self) -> bool:
        r = self.ring
        a, e, w = self.element, self.idempotent, self.remainder
        if r.mul(e, e) != e or r.add(e, w) != a or r.mul(e, w) != r.mul(w, e):
            return False
        if self.kind == STRONGLY_P_CLEAN:
            ok, idx = radicals.is_strongly_nilpotent(r, w)
            return ok and idx == self.witness
        if self.kind == STRONGLY_NIL_CLEAN:
            return radicals.element_nilpotency(r, w) == self.witness
        if self.kind == STRONGLY_CLEAN:
            u = self.witness
            return u is not None and r.mul(w, u) == r.one and r.mul(u, w) == r.one
        if self.kind == STRONGLY_J_CLEAN:
            return radicals.jacobson_radical(r).contains(w)
        return False

    def as_elements(self):
        r = self.ring
        return Element(r, self.element), Element(r, self.idempotent), Element(r, self.remainder)

    def __repr__(self):
        r = self.ring
        return (
            f"{self.kind}({r.fmt_index(self.element)} = {r.fmt_index(self.idempotent)}"
            f" + {r.fmt_index(self.remainder)})"
        )


def _index_of(r: RingTable, a) -> int:
    return a.index if isinstance(a, Element) else int(a)


def _commuting_idempotents(r: RingTable, a: int) -> np.ndarray:
    idem = r.idempotent_indices
    aa = np.int64(a)
    return idem[r.vmul(aa, idem) == r.vmul(idem, aa)]


def strongly_pclean_element(r: RingTable, a) -> tuple[CleanCertificate | None, int]:
    """First commuting idempotent with strongly nilpotent remainder, plus how
    many idempotents qualify."""
    a = _index_of(r, a)
    cand = _commuting_idempotents(r, a)
    if "prime_ideal" in r.cache or r.order <= 65536:
        pm = radicals.prime_radical(r).mask
        good = cand[pm[r.vsub(np.int64(a), cand)]]
    else:
        good = np.asarray(
            [e for e in cand if radicals.is_strongly_nilpotent(r, r.sub(a, int(e)))[0]],
            np.int64,
        )
    if good.size == 0:
        return None, 0
    e = int(good[0])
    w = r.sub(a, e)
    _, witness = radicals.is_strongly_nilpotent(r, w)
    return CleanCertificate(STRONGLY_P_CLEAN, r, a, e, w, witness), int(good.size)


def _pclean_exists(r: RingTable, a: int) -> bool:
    """Existence-only probe used by aggregates on large structured rings."""
    cand = _commuting_idempotents(r, a)
    if "prime_ideal" in r.cache:
        return bool(radicals.prime_radical(r).mask[r.vsub(np.int64(a), cand)].any())
    return any(
        radicals.is_strongly_nilpotent(r, r.sub(a, int(e)))[0] for e in cand
    )


def strongly_clean_element(r: RingTable, a) -> tuple[CleanCertificate | None, int]:
    a = _index_of(r, a)
    cand = _commuting_idempotents(r, a)
    good = cand[r.unit_mask[r.vsub(np.int64(a), cand)]]
    if good.size == 0:
        return None, 0
    e = int(good[0])
    w = r.sub(a, e)
    return CleanCertificate(STRONGLY_CLEAN, r, a, e, w, r.inverse(w)), int(good.size)


def strongly_nilclean_element(r: RingTable, a) -> tuple[CleanCertificate | None, int]:
    a = _index_of(r, a)
    cand = _commuting_idempotents(r, a)
    good = cand[radicals.nilpotent_mask(r)[r.vsub(np.int64(a), cand)]]
    if good.size == 0:
        return None, 0
    e = int(good[0])
    w = r.sub(a, e)
    return (
        CleanCertificate(STRONGLY_NIL_CLEAN, r, a, e, w, radicals.element_nilpotency(r, w)),
        int(good.size),
    )


def strongly_jclean_element(r: RingTable, a) -> tuple[CleanCertificate | None, int]:
    a = _index_of(r, a)
    cand = _commuting_idempotents(r, a)
    good = cand[radicals.jacobson_radical(r).mask[r.vsub(np.int64(a), cand)]]
    if good.size == 0:
        return None, 0
    e = int(good[0])
    w = r.sub(a, e)
    return CleanCertificate(STRONGLY_J_CLEAN, r, a, e, w, None), int(good.size)


def uniquely_clean_count(r: RingTable, a) -> int:
    """Number of representations a = e + u, e idempotent, u a unit (no
    commutation requirement)."""
    a = _index_of(r, a)
    idem = r.idempotent_indices
    return int(r.unit_mask[r.vsub(np.int64(a), idem)].sum())


def uniquely_nilclean_count(r: RingTable, a) -> int:
    """Number of idempotents e with a - e nilpotent (no commutation: the
    uniqueness notion that makes uniquely nil clean rings abelian)."""
    a = _index_of(r, a)
    idem = r.idempotent_indices
    return int(radicals.nilpotent_mask(r)[r.vsub(np.int64(a), idem)].sum())


def uniquely_pclean_count(r: RingTable, a) -> int:
    """Number of idempotents e with a - e in P(R) (no commutation requirement)."""
    a = _index_of(r, a)
    idem = r.idempotent_indices
    return int(radicals.prime_radical(r).mask[r.vsub(np.int64(a), idem)].sum())


def strongly_pi_regular_element(r: RingTable, a) -> tuple[bool, int | None, int | None]:
    """Least n with a^n = a^(n+1) b for some b commuting with a.

    The bare form a^n in a^(n+1) R is computed alongside, and PcleanError is
    raised if the two verdicts disagree (they agree in finite rings, where
    powers eventually repeat).
    """
    a = _index_of(r, a)
    idx = np.arange(r.order, dtype=np.int64)
    aa = np.int64(a)
    commutant = idx[r.vmul(aa, idx) == r.vmul(idx, aa)]
    found = None
    bare_found = None
    x = a  # a^n
    for n in range(1, r.order + 2):
        nxt = r.mul(x, a)  # a^(n+1)
        prods = r.vmul(np.int64(nxt), commutant)
        hits = commutant[prods == x]
        if hits.size and found is None:
            found = (n, int(hits[0]))
        if bare_found is None and (r.vmul(np.int64(nxt), idx) == x).any():
            bare_found = n
        if found is not None and bare_found is not None:
            break
        x = nxt
    if (found is None) != (bare_found is None):
        raise PcleanError(
            f"{r.name}: commuting and bare strongly pi-regular tests disagree on "
            f"{r.fmt_index(a)}"
        )
    if found is None:
        return False, None, None
    return True, found[0], found[1]


def idempotent_lift(r: RingTable, a) -> int:
    """Lift a to an idempotent via f(a), f(t) = sum C(2n,i) t^(2n-i) (1-t)^i.

    Requires a - a^2 nilpotent with exponent n.  The result commutes with
    everything that commutes with a (it is a polynomial in a) and a - f(a)
    is nilpotent; when a - a^2 lies in P(R), so does a - f(a).
    """
    a = _index_of(r, a)
    d = r.sub(a, r.mul(a, a))
    n = radicals.element_nilpotency(r, d)
    if n is None:
        raise NotLiftable(f"{r.fmt_index(a)} - its square is not nilpotent in {r.name}")
    one_minus = r.sub(r.one, a)
    apow = [r.one]
    for _ in range(2 * n):
        apow.append(r.mul(apow[-1], a))
    bpow = [r.one]
    for _ in range(n):
        bpow.append(r.mul(bpow[-1], one_minus))
    e = r.zero
    for i in range(n + 1):
        coeff = r.embed_int(math.comb(2 * n, i))
        e = r.add(e, r.mul(coeff, r.mul(apow[2 * n - i], bpow[i])))
    if r.mul(e, e) != e or r.mul(e, a) != r.mul(a, e):
        raise PcleanError(f"idempotent lift failed for {r.fmt_index(a)} in {r.name}")
    if radicals.element_nilpotency(r, r.sub(a, e)) is None:
        raise PcleanError(f"lift remainder not nilpotent for {r.fmt_index(a)}")
    pm = radicals.prime_radical(r).mask
    if pm[d] and not pm[r.sub(a, e)]:
        raise PcleanError(f"lift remainder escaped the prime radical for {r.fmt_index(a)}")
    return e


# ---------------------------------------------------------------------------
# ring-level aggregates


def _aggregate(r: RingTable, key: str, member_mask_fn, probe_fn) -> tuple[bool, int | None]:
    cached = r.cache.get(key)
    if cached is not None:
        return cached
    if r.order > 4096:
        # counterexamples in structured rings tend to sit at tiny indices;
        # probing them first avoids the full vectorized sweep
        for x in range(min(_PROBE, r.order)):
            if not probe_fn(x):
                r.cache[key] = (False, x)
                return False, x
    idx = np.arange(r.order, dtype=np.int64)
    acc = np.zeros(r.order, dtype=bool)
    member = member_mask_fn()
    for e in r.idempotent_indices:
        ee = np.int64(e)
        acc |= (r.vmul(idx, ee) == r.vmul(ee, idx)) & member[r.vsub(idx, ee)]
        if acc.all():
            break
    if acc.all():
        result = (True, None)
    else:
        result = (False, int(np.flatnonzero(~acc)[0]))
    r.cache[key] = result
    return result


def is_strongly_pclean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _aggregate(
        r,
        "agg_strongly_pclean",
        lambda: radicals.prime_radical(r).mask,
        lambda x: _pclean_exists(r, x),
    )


def strongly_pclean_mask(r: RingTable) -> np.ndarray:
    """Per-element strongly P-clean verdicts for the whole ring."""
    mask = r.cache.get("pclean_mask")
    if mask is None:
        idx = np.arange(r.order, dtype=np.int64)
        pm = radicals.prime_radical(r).mask
        mask = np.zeros(r.order, dtype=bool)
        for e in r.idempotent_indices:
            ee = np.int64(e)
            mask |= (r.vmul(idx, ee) == r.vmul(ee, idx)) & pm[r.vsub(idx, ee)]
            if mask.all():
                break
        r.cache["pclean_mask"] = mask
    return mask


def is_strongly_clean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _aggregate(
        r,
        "agg_strongly_clean",
        lambda: r.unit_mask,
        lambda x: strongly_clean_element(r, x)[0] is not None,
    )


def is_strongly_jclean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _aggregate(
        r,
        "agg_strongly_jclean",
        lambda: radicals.jacobson_radical(r).mask,
        lambda x: strongly_jclean_element(r, x)[0] is not None,
    )


def _unique_count_aggregate(r: RingTable, key: str, member_mask_fn, commuting: bool):
    cached = r.cache.get(key)
    if cached is not None:
        return cached
    idx = np.arange(r.order, dtype=np.int64)
    counts = np.zeros(r.order, dtype=np.int64)
    member = member_mask_fn()
    for e in r.idempotent_indices:
        ee = np.int64(e)
        hit = member[r.vsub(idx, ee)]
        if commuting:
            hit &= r.vmul(idx, ee) == r.vmul(ee, idx)
        counts += hit
    bad = np.flatnonzero(counts != 1)
    result = (True, None) if bad.size == 0 else (False, int(bad[0]))
    r.cache[key] = result
    return result


def is_uniquely_pclean_ring(r: RingTable) -> tuple[bool, int | None]:
    """Unique e = e^2 with x - e in P(R), uniqueness over all idempotents."""
    return _unique_count_aggregate(
        r, "agg_uniquely_pclean", lambda: radicals.prime_radical(r).mask, commuting=False
    )


def is_uniquely_clean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _unique_count_aggregate(
        r, "agg_uniquely_clean", lambda: r.unit_mask, commuting=False
    )


def is_uniquely_nilclean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _unique_count_aggregate(
        r, "agg_uniquely_nilclean", lambda: radicals.nilpotent_mask(r), commuting=False
    )


RING_VERDICTS = {
    "strongly_pclean": is_strongly_pclean_ring,
    "uniquely_pclean": is_uniquely_pclean_ring,
    "strongly_clean": is_strongly_clean_ring,
    "uniquely_clean": is_uniquely_clean_ring,
    "uniquely_nilclean": is_uniquely_nilclean_ring,
    "strongly_jclean": is_strongly_jclean_ring,
}


def ring_verdicts(r: RingTable) -> dict:
    """All six ring-level cleanness verdicts with counterexamples.

    Verdicts whose member sets cannot be enumerated at this order (unit scans
    on very large rings) are reported as None.
    """
    out = {}
    for name, fn in RING_VERDICTS.items():
        try:
            holds, cex = fn(r)
        except RingTooLarge:
            out[name] = {"holds": None, "counterexample": None, "skipped": "order"}
            continue
        out[name] = {
            "holds": holds,
            "counterexample": None if cex is None else r.fmt_index(cex),
        }
    return out
