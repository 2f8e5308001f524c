"""Element-level cleanness tests, certificates, and ring-level aggregates.

Strongly P-clean, clean, nil clean and J-clean differ only in the set a - e
must lie in (P(R), units, nilpotents, J(R)); the "uniquely" notions count all
idempotents e, commuting with a or not, which separates abelian rings from the
rest.  Every test is a view on `_hits` (one element) or `_sweep` (the one
pass over a ring's idempotents, keyed by kind: one broadcast on a ring with
tables, else a loop by cosets of P(R)); both read
membership from the kind's mask in `_KINDS`, computed on first use and cached
on the ring, and a certificate re-validates through that mask and the kind's
witness map.  Aggregates report the least counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radicals
from .errors import NotInvertible, NotLiftable, PcleanError, RingTooLarge
from .rings import _CHUNK, DENSE_TABLE_LIMIT, RingTable, cached

STRONGLY_CLEAN = "STRONGLY_CLEAN"
STRONGLY_NIL_CLEAN = "STRONGLY_NIL_CLEAN"
STRONGLY_J_CLEAN = "STRONGLY_J_CLEAN"
STRONGLY_P_CLEAN = "STRONGLY_P_CLEAN"

_PROBE = 64  # ascending per-element probe before the full sweep of a ring without tables


@dataclass(frozen=True)
class CleanCertificate:
    """Witnessed decomposition a = e + w with e idempotent and ew = we."""

    kind: str
    ring: RingTable
    element: int
    idempotent: int
    remainder: int
    witness: int | None  # P: nilpotency index of RwR; NIL: of w; CLEAN: w^-1; J: None

    def validate(self) -> bool:
        """Re-check through the definitions that made the certificate: the
        kind's membership test and witness map."""
        r, a, e, w = self.ring, self.element, self.idempotent, self.remainder
        if r.mul(e, e) != e or r.add(e, w) != a or r.mul(e, w) != r.mul(w, e):
            return False
        return bool(
            self.kind in _KINDS
            and _KINDS[self.kind][0](r)[w]
            and _KINDS[self.kind][1](r, w) == self.witness
        )

    def __repr__(self):
        f = self.ring.fmt_index
        return f"{self.kind}({f(self.element)} = {f(self.idempotent)} + {f(self.remainder)})"


# per kind: the mask of the set a - e must lie in, the one membership test
# (computed on first use, then read from the ring's cache), and the
# certificate witness of w = a - e
_KINDS = {
    STRONGLY_P_CLEAN: (
        lambda r: radicals.prime_radical(r).mask,
        lambda r, w: radicals.is_strongly_nilpotent(r, w)[1],
    ),
    STRONGLY_CLEAN: (lambda r: r.unit_mask, lambda r, w: r.inverse(w)),
    STRONGLY_NIL_CLEAN: (lambda r: radicals.nilpotent_mask(r), radicals.element_nilpotency),
    STRONGLY_J_CLEAN: (lambda r: radicals.jacobson_radical(r).mask, lambda r, w: None),
}


def _hits(r: RingTable, kind: str, a: int, commuting: bool) -> np.ndarray:
    """Idempotents e, ascending, with a - e in the set of `kind` (and ea = ae
    when `commuting`)."""
    idem = r.idempotent_indices
    neg = cached(r, "idempotent_negatives", lambda: r.vneg(idem))
    aa = np.int64(a)
    if commuting:
        # one slot, the last a's filter: the four certificates of one element
        # share it, and it does not grow with the number of elements asked
        last, keep = r.cache.get("commuting_idempotents", (None, None))
        if last != a:
            keep = r.vmul(aa, idem) == r.vmul(idem, aa)
            r.cache["commuting_idempotents"] = (a, keep)
        idem, neg = idem[keep], neg[keep]
    return idem[_KINDS[kind][0](r)[r.vadd(aa, neg)]]


def _certificate(r: RingTable, kind: str, a: int) -> tuple[CleanCertificate | None, int]:
    """Certificate from the least qualifying commuting idempotent, and their count."""
    a = int(a)
    good = _hits(r, kind, a, commuting=True)
    if good.size == 0:
        return None, 0
    e = int(good[0])
    w = r.sub(a, e)
    return CleanCertificate(kind, r, a, e, w, _KINDS[kind][1](r, w)), int(good.size)


def strongly_pclean_element(r: RingTable, a: int) -> tuple[CleanCertificate | None, int]:
    """First commuting idempotent e with a - e strongly nilpotent, and their count."""
    return _certificate(r, STRONGLY_P_CLEAN, a)


def strongly_clean_element(r: RingTable, a: int) -> tuple[CleanCertificate | None, int]:
    return _certificate(r, STRONGLY_CLEAN, a)


def strongly_nilclean_element(r: RingTable, a: int) -> tuple[CleanCertificate | None, int]:
    return _certificate(r, STRONGLY_NIL_CLEAN, a)


def strongly_jclean_element(r: RingTable, a: int) -> tuple[CleanCertificate | None, int]:
    return _certificate(r, STRONGLY_J_CLEAN, a)


def uniquely_clean_count(r: RingTable, a: int) -> int:
    """Number of idempotents e with a - e a unit (no commutation requirement)."""
    return int(_hits(r, STRONGLY_CLEAN, int(a), commuting=False).size)


def uniquely_nilclean_count(r: RingTable, a: int) -> int:
    """Number of idempotents e with a - e nilpotent (no commutation requirement)."""
    return int(_hits(r, STRONGLY_NIL_CLEAN, int(a), commuting=False).size)


def uniquely_pclean_count(r: RingTable, a: int) -> int:
    """Number of idempotents e with a - e in P(R) (no commutation requirement)."""
    return int(_hits(r, STRONGLY_P_CLEAN, int(a), commuting=False).size)


def strongly_pi_regular_element(r: RingTable, a: int) -> tuple[bool, int | None, int | None]:
    """Least n with a^n = a^(n+1) b for some b commuting with a, and the least
    such b: the CLI's per-element form and the oracle of the whole-ring mask.

    The bare form a^n in a^(n+1) R is the trap: PcleanError is raised if the
    two verdicts disagree (they agree in finite rings, where powers
    eventually repeat).  Each power a^(n+1) is evaluated on the lanes of the
    commutant of a and a itself: a^(n+1) y for the commutant, then the next
    power.  A commuting witness is a bare one, so the verdicts agree once
    one appears; with none within |R| + 1 powers, the bare test reads the
    whole row of each power.
    """
    a = int(a)
    row = r.mul_row(a)
    lanes = np.append(np.flatnonzero(row == r.mul_col(a)), a)
    powers = [a, int(row[a])]  # a^1, a^2, ...
    for n in range(1, r.order + 2):
        y = r.vmul(np.int64(powers[n]), lanes)
        hits = lanes[:-1][y[:-1] == powers[n - 1]]
        if hits.size:
            return True, n, int(hits[0])
        powers.append(int(y[-1]))
    if any((r.mul_row(powers[n]) == powers[n - 1]).any() for n in range(1, r.order + 2)):
        raise PcleanError(
            f"{r.name}: commuting and bare strongly pi-regular tests disagree on "
            f"{r.fmt_index(a)}"
        )
    return False, None, None


def strongly_pi_regular_mask(r: RingTable) -> np.ndarray:
    """Per a: a^M = a^(M+1) b with b = a^(p-1) commuting with a, M = floor(log2 |R|)
    and p >= 1 least with a^M a^p = a^M.  True for every a of a finite ring, as a^M
    lies on the cycle of a's powers (aR > a^2 R > ... halves at each strict step);
    on a table that is no ring, no p within |R| steps or a failed witness is False."""

    def make():
        c = a = np.arange(r.order, dtype=np.int64)
        for _ in range(r.order.bit_length() - 2):
            c = r.vmul(c, a)  # a^M
        todo, x, y = np.ones(r.order, dtype=bool), c, np.full(r.order, r.one, np.int64)
        wit = y.copy()
        for _ in range(r.order):  # step k: x = a^M a^k, y = a^(k-1)
            x = r.vmul(x, a)
            hit = todo & (x == c)
            wit[hit], todo = y[hit], todo & ~hit
            if not todo.any():
                break
            y = r.vmul(y, a)
        return ~todo & (r.vmul(r.vmul(c, a), wit) == c) & (r.vmul(a, wit) == r.vmul(wit, a))

    return cached(r, "pi_regular_mask", make)


def idempotent_lift(r: RingTable, a: int) -> int:
    """Lift a to an idempotent via f(a), f(t) = sum C(2n,i) t^(2n-i) (1-t)^i.

    Requires a - a^2 nilpotent with exponent n.  The result commutes with
    everything that commutes with a (it is a polynomial in a) and a - f(a)
    is nilpotent; when a - a^2 lies in P(R), so does a - f(a).
    """
    a = int(a)
    d = r.sub(a, r.mul(a, a))
    n = radicals.element_nilpotency(r, d)
    if n is None:
        raise NotLiftable(f"{r.fmt_index(a)} - its square is not nilpotent in {r.name}")
    # every term of f has degree >= n, so f(t) = t^n g(t) with integer
    # coefficients g[k]; g(a) by Horner's rule takes 2n ring ops, not 6n
    g = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(i + 1):
            g[n - i + j] += math.comb(2 * n, i) * math.comb(i, j) * (-1) ** j
    e = r.embed_int(g[n])
    for c in reversed(g[:n]):
        e = r.add(r.mul(e, a), r.embed_int(c))
    e = r.mul(e, r.power(a, n))
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


def _conjugators(r: RingTable, e0: np.int64, es: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per idempotent e of `es`, with e - e0 in P(R): u = e e0 + (1-e)(1-e0)
    and its inverse v, so that e = u e0 v.  u lies in 1 + P and u e0 = e e0 =
    e u; v is the series of 1 - u up to P's nilpotency index, checked on
    both sides."""
    one = np.int64(r.one)
    u = r.vadd(r.vmul(es, e0), r.vmul(r.vsub(one, es), r.vsub(one, e0)))
    m = radicals.nilpotency_index(radicals.prime_radical(r))
    v = radicals.inverse_series(r, r.vsub(one, u), m or 0)
    if not ((r.vmul(u, v) == one).all() and (r.vmul(v, u) == one).all()):
        raise NotInvertible(f"{r.name}: a conjugator in 1 + P(R) is not a unit (bug trap)")
    return u, v


def _sweep(r: RingTable, kind: str, commuting: bool) -> np.ndarray:
    """Per element x: whether some idempotent marks x (bool), or else how many
    do (uint8, saturated at 2), x - e read in the set of `kind`.  Memoized
    per (kind, commuting); T2.4 reads P's counts.

    Each idempotent e marks its coset x = w + e of the members w: counting,
    each distinct x once; commuting, the x with e w = w e.  In a ring that
    is the per-x condition (some e with ex = xe has x - e in the set, or how
    many e have).  On a ring with tables (order <= DENSE_TABLE_LIMIT) every e
    marks at once on one (idempotents, members) array of lanes, at most
    1024^2; counting keeps a mask of the x each e has seen, as w + e can
    repeat on a table that is no ring.

    Without tables the idempotents go in classes, ascending, and a class
    with least member e0 scatters onto its coset x = w + e0.  Counting lets
    each e of the class mark every x of the coset (adding min(|class|, 2) at
    once).  Commuting lets e0 mark the open x it commutes with, tested as
    e0 w = w e0 (every open x of the coset when e0 is central, by
    `radicals.is_central`), and every other e of the class mark the
    conjugates u x u^-1 of e0's hits x, u = e e0 + (1-e)(1-e0) in 1 + P
    (`_conjugators`): u e0 u^-1 = e, and M is closed under conjugation, so
    these are the x of the coset that commute with e.  In a ring by
    construction a class is every e with e - e0 in P(R), computed on first
    use: each member set M here (P, J, the units, the nilpotents) has M + P
    = M in a finite ring, so M + e = M + e0.  On any other table each e is
    its own class, tested by its own row and column.  A pass costs |member|
    lanes per class, a row and a column of R per commuting class whose e0 is
    not central, and (|class| - 1) |hits| lanes for the conjugates.
    """

    def make():
        members = np.flatnonzero(_KINDS[kind][0](r))
        # read on both paths, so a sweep leaves P(R) cached with or without tables
        pm = radicals.prime_radical(r).mask if r.by_construction else None
        rest = r.idempotent_indices
        if r.order <= DENSE_TABLE_LIMIT:
            e, w = rest[:, None], members[None, :]
            x = r.vadd(w, e)
            if commuting:
                cover = np.zeros(r.order, dtype=bool)
                cover[x[r.vmul(e, w) == r.vmul(w, e)]] = True
                return cover
            seen = np.zeros((rest.size, r.order), dtype=bool)
            seen[np.arange(rest.size)[:, None], x] = True
            return np.minimum(seen.sum(axis=0), 2).astype(np.uint8)
        count, need = np.zeros(r.order, dtype=np.uint8), 1 if commuting else 2
        while rest.size and count.min() < need:
            e0 = np.int64(rest[0])
            same = rest == e0 if pm is None else pm[r.vsub(rest, e0)]
            cls, rest, x = rest[same], rest[~same], r.vadd(members, e0)
            if not commuting:
                count[x] = np.minimum(count[x] + min(cls.size, 2), 2)
                continue
            todo = np.flatnonzero(count[x] == 0)
            if not todo.size:
                continue
            if radicals.is_central(r, e0):
                hits = x[todo]
            else:
                t = members[todo]
                hits = x[todo[r.mul_row(e0)[t] == r.mul_col(e0)[t]]]
            count[hits] = 1
            step = max(1, _CHUNK // max(hits.size, 1))
            for s in range(1, cls.size, step):
                u, v = _conjugators(r, e0, cls[s : s + step])
                count[r.vmul(r.vmul(u[:, None], hits[None, :]), v[:, None])] = 1
        return count.astype(bool) if commuting else count

    return cached(r, ("sweep", kind, commuting), make)


def _probe(r: RingTable, kind: str) -> int | None:
    """The least x < _PROBE with no commuting idempotent e and x - e in the
    set of `kind`: `_hits` of every such x at once, one (x, e) lane each."""
    idem = r.idempotent_indices
    neg = cached(r, "idempotent_negatives", lambda: r.vneg(idem))
    x = np.arange(_PROBE, dtype=np.int64)[:, None]
    hit = (r.vmul(x, idem) == r.vmul(idem, x)) & _KINDS[kind][0](r)[r.vadd(x, neg)]
    miss = np.flatnonzero(~hit.any(axis=1))
    return int(miss[0]) if miss.size else None


def _verdict(r: RingTable, kind: str, commuting: bool) -> tuple[bool, int | None]:
    """Strongly (some commuting e) or uniquely (exactly one e) `kind`-clean; a
    J or Nil verdict whose set equals P(R) is P's, as a sweep reads only the set."""

    def make():
        member, bad = _KINDS[kind][0](r), None  # first: the set's own error
        if kind in (STRONGLY_J_CLEAN, STRONGLY_NIL_CLEAN) and np.array_equal(
                member, _KINDS[STRONGLY_P_CLEAN][0](r)):
            return _verdict(r, STRONGLY_P_CLEAN, commuting)
        if commuting and r.order > DENSE_TABLE_LIMIT and ("sweep", kind, commuting) not in r.cache:
            # counterexamples in structured rings tend to sit at tiny indices;
            # probing them against the member set avoids the full sweep.  A
            # cached sweep answers at once: in a ring the probe's first
            # failure is the sweep's least gap
            bad = _probe(r, kind)
        if bad is None:
            cover = _sweep(r, kind, commuting)
            gaps = np.flatnonzero(~cover if commuting else cover != 1)
            bad = int(gaps[0]) if gaps.size else None
        return (bad is None, bad)

    return cached(r, ("verdict", kind, commuting), make)


def strongly_pclean_mask(r: RingTable) -> np.ndarray:
    """Per-element strongly P-clean verdicts for the whole ring."""
    return _sweep(r, STRONGLY_P_CLEAN, commuting=True)


def is_strongly_pclean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _verdict(r, STRONGLY_P_CLEAN, commuting=True)


def is_strongly_clean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _verdict(r, STRONGLY_CLEAN, commuting=True)


def is_strongly_jclean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _verdict(r, STRONGLY_J_CLEAN, commuting=True)


def is_uniquely_pclean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _verdict(r, STRONGLY_P_CLEAN, commuting=False)


def is_uniquely_clean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _verdict(r, STRONGLY_CLEAN, commuting=False)


def is_uniquely_nilclean_ring(r: RingTable) -> tuple[bool, int | None]:
    return _verdict(r, STRONGLY_NIL_CLEAN, commuting=False)


RING_VERDICTS = {
    "strongly_pclean": is_strongly_pclean_ring,
    "uniquely_pclean": is_uniquely_pclean_ring,
    "strongly_clean": is_strongly_clean_ring,
    "uniquely_clean": is_uniquely_clean_ring,
    "uniquely_nilclean": is_uniquely_nilclean_ring,
    "strongly_jclean": is_strongly_jclean_ring,
}


def ring_verdicts(r: RingTable) -> dict:
    """All six ring-level cleanness verdicts with counterexamples; None where the
    member set cannot be enumerated at this order (units of very large rings)."""
    out = {}
    for name, fn in RING_VERDICTS.items():
        try:
            holds, cex = fn(r)
        except RingTooLarge:
            out[name] = {"holds": None, "counterexample": None, "skipped": "order"}
        else:
            cex = None if cex is None else r.fmt_index(cex)
            out[name] = {"holds": holds, "counterexample": cex}
    return out
