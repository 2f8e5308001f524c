"""Ideals, nilpotency, strongly nilpotent elements, and the two radicals.

Strong nilpotence is decided through the nilpotency of the two-sided ideal
generated by the element, whose powers I^(k+1) = I * I^k are spans of
products of generators (`ideal_powers`); the tests compare it with the
descent-sequence definition on small rings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RadicalNotIdeal
from .rings import (
    _CHUNK,
    UNIT_SCAN_LIMIT,
    RingTable,
    _span,
    additive_closure_mask,
    cached,
    ideal_closure_mask,
    subgroup_basis,
)


@dataclass
class Ideal:
    """A two-sided ideal of `ring`, given by its membership mask.

    `_memo` holds derived data (indices, nilpotency index) and no reference to
    the ring, so the ring's cache can keep it without forming a cycle.
    """

    ring: RingTable
    mask: np.ndarray
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def indices(self) -> np.ndarray:
        idx = self._memo.get("indices")
        if idx is None:
            idx = self._memo["indices"] = np.flatnonzero(self.mask)
        return idx

    @property
    def order(self) -> int:
        return int(self.indices.size)

    def contains(self, x: int) -> bool:
        return bool(self.mask[x])

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.ring is self.ring
            and np.array_equal(other.mask, self.mask)
        )

    def __repr__(self):
        return f"Ideal({self.ring.name}, order={self.order})"


def _by_generators(r: RingTable, gens, members):
    """`gens` on a ring by construction, else `members()`: the elements a
    closure or centrality test reads.  In a ring addition is a group and
    multiplication is bilinear (Lam, A First Course in Noncommutative
    Rings), so a set is closed under addition iff its span lies in it, and
    a product law (x s in the set, x s = s x) holds on a span iff it holds
    on its additive generators.  A table that may be no ring is tested on
    every member, so its verdicts do not rest on either fact."""
    return gens if r.by_construction else members()


def _closed_basis(r: RingTable, mask: np.ndarray) -> np.ndarray | None:
    """A subgroup basis of the set `mask` if it is closed under addition, else
    None.  On a ring by construction the set is closed iff the span `_span`
    builds from its members is the set; on any other table iff each member
    plus each basis element lies in it, as every member lies in the basis's
    span."""
    idx = np.flatnonzero(mask)
    span, basis = _span(r, idx)
    basis = np.asarray(basis, np.int64)
    sums = _by_generators(r, np.flatnonzero(span), lambda: r.vadd(idx[:, None], basis[None, :]))
    return basis if mask[sums].all() else None


def _certified_basis(r: RingTable, mask: np.ndarray) -> np.ndarray | None:
    """A subgroup basis of the set `mask` if it is a two-sided ideal (it holds
    0 and is closed under negation, addition and multiplication by the
    additive generators and 1 on either side), else None.  The products
    are read at the basis on a ring by construction, where the set is its
    span, and at every member on any other table: one vmul per side over
    (generators and 1) x those elements."""
    idx = np.flatnonzero(mask)
    if not (mask[r.zero] and mask[r.vneg(idx)].all()) or (basis := _closed_basis(r, mask)) is None:
        return None
    g = np.asarray(sorted({*r.additive_generators, r.one}), np.int64)[:, None]
    b = _by_generators(r, basis, lambda: idx)[None, :]
    return basis if mask[r.vmul(g, b)].all() and mask[r.vmul(b, g)].all() else None


def _certify_ideal(r: RingTable, mask: np.ndarray) -> bool:
    return _certified_basis(r, mask) is not None


def nilpotency_index(I: Ideal) -> int | None:
    """Smallest k with I^k = 0, or None if the powers stabilize above zero."""
    if "nilpotency" not in I._memo:
        I._memo["nilpotency"] = _ideal_nilpotency(ideal_powers(I.ring, I.mask))
    return I._memo["nilpotency"]


def _ideal_nilpotency(powers) -> int | None:
    """The k of the first of the powers I, I^2, ... that is zero, or None."""
    return next((k for k, power in enumerate(powers, 1) if power.sum() == 1), None)


def ideal_powers(r: RingTable, mask: np.ndarray, basis=None):
    """Masks of the powers I, I^2, ... of the ideal I with mask `mask`, each
    I^(k+1) = I * I^k, up to the first power equal to the next one.  Each
    span hands back the products it needed, which generate I^(k+1), so a
    basis of I is the only basis computed, or none when I's certificate
    hands in its own (`basis`).  In a ring I^(k+1) lies in I^k, so a power
    that escapes the one before it raises RadicalNotIdeal (bug trap)."""
    basis = gens = subgroup_basis(r, np.flatnonzero(mask)) if basis is None else basis
    cur = mask
    while True:
        yield cur
        nxt, gens = _span(r, r.vmul(basis[:, None], np.asarray(gens, np.int64)[None, :]))
        if (nxt & ~cur).any():
            raise RadicalNotIdeal(f"{r.name}: an ideal power escapes the one before it")
        if np.array_equal(nxt, cur):
            return
        cur = nxt


def ideal_product_mask(r: RingTable, ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """Mask of the product AB of the ideals A and B with additive bases ga
    and gb: the additive span of the products of the bases."""
    return additive_closure_mask(r, r.vmul(ga[:, None], gb[None, :]))


def element_nilpotency(r: RingTable, a: int) -> int | None:
    """Smallest e >= 1 with a^e = 0, or None if a is not nilpotent.

    The walk stops after a^top, top = floor(log2 |R|): a nilpotent element
    of index m has 2^m <= |R| (see nilpotent_mask).  It is skipped when
    nilpotent_mask is cached and rules a out.
    """
    nil = r.cache.get("nilpotent_mask")
    if nil is not None and not nil[a]:
        return None
    x, e, top = a, 1, r.order.bit_length() - 1
    while e <= top:
        if x == r.zero:
            return e
        x = r.mul(x, a)
        e += 1
    return None


def nilpotent_mask(r: RingTable) -> np.ndarray:
    """Mask of the x with x^(2^p) = 0, p = ceil(log2 ceil(log2 |R|)).

    That is every nilpotent x: if x has index m, the left ideals
    R > Rx > ... > Rx^m = 0 are subgroups, each proper in the one before
    (Rx^i = Rx^(i+1) with i < m gives x^i = s^m x^(i+m) = 0), so |R| >= 2^m
    and m <= 2^p.  The bound is tight: 2 has index k in Z_(2^k).

    x^(2^p) is the ring's one squaring map (`RingTable.squares`, shared
    with the idempotents and the inverses) applied p times, composed by
    square-and-multiply on the map: f = f.take(f) doubles the passes f
    makes, and the set bits of p join the result, which starts at the
    first set bit's f, so order 531441 (p = 5) takes 3 gathers, not 5.
    Composing a map with itself is exact on any table.
    """

    def make():
        p = ((r.order - 1).bit_length() - 1).bit_length()
        f, y = r.squares, None
        while p:
            if p & 1:
                y = f if y is None else f.take(y)
            p >>= 1
            if p:
                f = f.take(f)
        return (np.arange(r.order) if y is None else y) == r.zero

    return cached(r, "nilpotent_mask", make)


def is_strongly_nilpotent(r: RingTable, a: int) -> tuple[bool, int | None]:
    """Whether RaR is nilpotent; the witness is that ideal's nilpotency index."""
    memo = cached(r, "sn_memo", dict)
    hit = memo.get(a)
    if hit is not None:
        return hit
    if a == r.zero:
        res = (True, 1)
    elif element_nilpotency(r, a) is None:
        # a = 1*a*1 lies in RaR, so a non-nilpotent element cannot qualify
        res = (False, None)
    else:
        mask = ideal_closure_mask(r, np.asarray([a], np.int64))
        k = _ideal_nilpotency(ideal_powers(r, mask))
        res = (k is not None, k)
    memo[a] = res
    return res


def prime_radical(r: RingTable) -> Ideal:
    """The set of strongly nilpotent elements, by filter-then-certify.

    P(R) is an ideal of nilpotent elements, so it lies in the candidates C:
    Nil(R), filtered to the x with g*x nilpotent for the rows g of the
    additive generators, then of all elements in doubling blocks.  A C that
    is a nilpotent ideal, tested before each block, lies in P, so C = P.
    With every row used C = J(R), which is nilpotent: failing is a bug trap.
    """
    # the cache keeps the mask and memo, not the Ideal, whose ring is r
    return Ideal(r, *cached(r, "prime_ideal", lambda: _prime_mask(r)))


def _prime_mask(r: RingTable) -> tuple[np.ndarray, dict]:
    for mask in _filter(r, nilpotent_mask(r), _generator_rows(r)):
        basis = _certified_basis(r, mask)
        if basis is not None and (k := _ideal_nilpotency(ideal_powers(r, mask, basis))) is not None:
            return mask, {"nilpotency": k}
    raise RadicalNotIdeal(f"strongly nilpotent elements of {r.name} are not an ideal")


def _generator_rows(r: RingTable) -> list[np.ndarray]:
    """Every element as blocks of rows: the additive generators, 0, then
    the doubling index blocks [1, 2), [2, 4), ..."""
    n = r.order
    blocks = [np.asarray(r.additive_generators, np.int64), np.arange(1)]
    return blocks + [np.arange(1 << k, min(2 << k, n)) for k in range((n - 1).bit_length())]


def _filter(r: RingTable, keep: np.ndarray, blocks: list[np.ndarray]):
    """Yield the masks of the candidates C, the x with keep[x], filtered to
    the x with keep[g*x] for every row g of `blocks`, read in order: C before
    each block when it shrank, and C after the last.  A C that lost even 0
    ends the walk: the table is no ring."""
    cand = np.flatnonzero(keep)
    tested = -1
    for rows in blocks + [None]:
        if cand.size != tested:  # C only shrinks: the same size is the same C
            tested, mask = cand.size, np.zeros(r.order, dtype=bool)
            mask[cand] = True
            yield mask
        if rows is None or cand.size == 0:
            return
        step = max(1, _CHUNK // cand.size)
        for s in range(0, rows.size, step):
            cand = cand[keep[r.vmul(rows[s : s + step, None], cand[None, :])].all(axis=0)]


def jacobson_radical(r: RingTable) -> Ideal:
    """{x : 1 - rx is a unit for every r}, valid in finite rings.

    Up to the unit-scan guard, by filter-then-certify like P(R): the
    candidates C are the x with 1 - x a unit, filtered to the x with 1 - g*x
    a unit for the rows g.  J lies in C throughout.  On a ring by
    construction the rows are the additive generators, 0, then doubling
    blocks, and the walk stops at the first C that is an ideal: every
    1 - rc is then a unit, so C lies in J and C = J.  On any other table
    every row is read, which is the definition, and C is then certified.
    Above the guard the radical is produced from the prime radical: in a
    finite ring J(R) is nilpotent, hence equals P(R); the inclusion
    P(R) <= J(R) is still verified by an explicit inverse of every 1 + p
    (`inverse_series`), and J's memo takes P's nilpotency index, as its
    mask is P's copy.  Below the guard J's index is its own powers walk.
    """
    return Ideal(r, *cached(r, "jacobson_ideal", lambda: _jacobson_mask(r)))


def one_plus_p_mask(r: RingTable) -> np.ndarray:
    """Mask of 1 + P(R): the x with x - 1 in P(R)."""

    def make():
        idx = np.arange(r.order, dtype=np.int64)
        return prime_radical(r).mask[r.vsub(idx, np.int64(r.one))]

    return cached(r, "one_plus_p", make)


def inverse_series(r: RingTable, t: np.ndarray, m: int) -> np.ndarray:
    """Per lane, sum_{i<m} t^i: the two-sided inverse of 1 - t when t^m = 0,
    as the product (1 + t)(1 + t^2)(1 + t^4)... of ceil(log2 m) factors (the
    sum up to t^(2^k - 1), 2^k >= m), each t^(2^i) gathered from the ring's
    squaring map (`RingTable.squares`).  Callers check it on both sides."""
    v = np.full(np.shape(t), r.one, dtype=np.int64)
    for _ in range(max(m - 1, 0).bit_length()):
        v, t = r.vmul(v, r.vadd(r.one, t)), r.squares[t]
    return v


def _jacobson_mask(r: RingTable) -> tuple[np.ndarray, dict]:
    if r.order > UNIT_SCAN_LIMIT:
        # P(R) is a certified ideal, so only P <= J is left to check: 1 + p
        # has the two-sided inverse u = sum_{i<m} (-p)^i, as p^m = 0
        p = prime_radical(r)
        m = nilpotency_index(p)
        one_plus, u = r.vadd(r.one, p.indices), inverse_series(r, r.vneg(p.indices), m or 0)
        inverse = (r.vmul(one_plus, u) == r.one).all() and (r.vmul(u, one_plus) == r.one).all()
        if m is None or not inverse:
            raise RadicalNotIdeal(
                f"{r.name}: some 1 + p with p in P(R) is not a unit (bug trap)"
            )
        return p.mask.copy(), {"nilpotency": m}
    # om[t] says whether 1 - t is a unit
    om = r.unit_mask[r.vsub(np.int64(r.one), np.arange(r.order))]
    if r.by_construction:
        masks = _filter(r, om, _generator_rows(r))
        mask = next((m for m in masks if _certify_ideal(r, m)), None)
    else:  # no generator rows and no early stop on a table that may be no ring
        *_, mask = _filter(r, om, [np.arange(r.order)])
        mask = mask if _certify_ideal(r, mask) else None
    if mask is None:
        raise RadicalNotIdeal(f"Jacobson radical of {r.name} failed ideal closure")
    if not mask[prime_radical(r).indices].all():
        raise RadicalNotIdeal(f"{r.name}: prime radical not inside Jacobson radical")
    return mask, {}


def is_boolean(r: RingTable) -> bool:
    return bool(r.idempotent_mask.all())


def is_local(r: RingTable) -> bool:
    """Finite-ring test: the non-units form a (two-sided) ideal.

    Closure of non-units under multiplication is automatic in a finite ring,
    so only additive closure is checked.  Beyond the unit-scan guard the
    equivalent trivial-idempotent criterion is used (idempotents lift modulo
    the nilpotent radical, so a finite ring is local iff its only idempotents
    are 0 and 1).
    """

    def make():
        if r.order <= UNIT_SCAN_LIMIT:
            return _closed_basis(r, ~r.unit_mask) is not None
        return r.idempotent_indices.size == 2

    return cached(r, "is_local", make)


def is_central(r: RingTable, x) -> np.ndarray:
    """Per x (an index, or each of an array): x y = y x for the additive
    generators y on a ring by construction, by bilinearity for every y; for
    every y on any other table."""
    y = _by_generators(r, np.asarray(r.additive_generators, np.int64), lambda: np.arange(r.order))
    x = np.asarray(x, np.int64)[..., None]
    return (r.vmul(x, y) == r.vmul(y, x)).all(axis=-1)


def is_abelian(r: RingTable) -> bool:
    """Every idempotent is central (`is_central`)."""
    return cached(r, "is_abelian", lambda: bool(is_central(r, r.idempotent_indices).all()))


def residue_is_z2(r: RingTable) -> bool:
    """R/J(R) = Z_2 with J(R) nilpotent: the hypothesis of the pi-regular
    trichotomy for 2x2 matrices."""
    j = jacobson_radical(r)
    return r.order == 2 * j.order and nilpotency_index(j) is not None


def is_locally_nilpotent(I: Ideal) -> bool:
    """Every element of I generates a nilpotent ideal: I lies in P(R), read
    from P(R)'s mask, computed on first use."""
    return bool(prime_radical(I.ring).mask[I.indices].all())
