"""Tiny self-contained reference implementations used as independent oracles.

Most of this works on plain Python ints/tuples and never touches the
package's index machinery, so a test comparing against these functions checks
the library along a genuinely different route.  The ring-level oracles at the
end read only a ring's scalar or vector operations and decide each property
from its definition.
"""

from itertools import product

import numpy as np

from pclean import radicals as rad
from pclean.errors import PcleanError, RadicalNotIdeal, RingTooLarge
from pclean.rings import _CHUNK, additive_closure_mask, ideal_closure_mask, subgroup_basis


def mat_mul(A, B, mod, k=2):
    return tuple(
        tuple(sum(A[i][l] * B[l][j] for l in range(k)) % mod for j in range(k))
        for i in range(k)
    )


def mat_add(A, B, mod, k=2):
    return tuple(tuple((A[i][j] + B[i][j]) % mod for j in range(k)) for i in range(k))


def mat_sub(A, B, mod, k=2):
    return tuple(tuple((A[i][j] - B[i][j]) % mod for j in range(k)) for i in range(k))


def all_matrices(mod, k=2):
    ents = range(mod)
    for flat in product(ents, repeat=k * k):
        yield tuple(tuple(flat[i * k + j] for j in range(k)) for i in range(k))


def all_triangular(mod, k=2):
    for flat in product(range(mod), repeat=k * (k + 1) // 2):
        it = iter(flat)
        rows = []
        for i in range(k):
            rows.append(tuple(0 if j < i else next(it) for j in range(k)))
        yield tuple(rows)


def units_zn(n):
    return {x for x in range(n) if any(x * y % n == 1 for y in range(n))}


def idempotents_of(elements, mul):
    return [a for a in elements if mul(a, a) == a]


def quad_mul(x, y, n, c0=-1, c1=0):
    """(a + bt)(c + dt) in Z_n[t] with t^2 = c0 + c1*t; the defaults give Z_n[i]."""
    a, b = x
    c, d = y
    return ((a * c + c0 * b * d) % n, (a * d + b * c + c1 * b * d) % n)


def gauss_add(x, y, n):
    return ((x[0] + y[0]) % n, (x[1] + y[1]) % n)


def two_sided_ideal(gens, elements, mul, add, zero):
    """Fixpoint closure under +, and left/right multiplication."""
    ideal = {zero} | set(gens)
    changed = True
    while changed:
        changed = False
        for x in list(ideal):
            for r in elements:
                for y in (mul(r, x), mul(x, r)):
                    if y not in ideal:
                        ideal.add(y)
                        changed = True
            for z in list(ideal):
                s = add(x, z)
                if s not in ideal:
                    ideal.add(s)
                    changed = True
    return ideal


def ideal_generated(r, gens) -> rad.Ideal:
    """Smallest two-sided ideal of r containing `gens`, with its closure re-checked."""
    idxs = [int(g) for g in gens]
    mask = ideal_closure_mask(r, np.asarray(idxs, np.int64))
    if not rad._certify_ideal(r, mask):
        raise RadicalNotIdeal(f"closure of {idxs} in {r.name} failed certification")
    return rad.Ideal(r, mask)


def ideal_nilpotency(ideal, mul, add, zero, cap=64):
    """Smallest k with I^k = {0}, by direct power iteration on sets."""

    def addclose(seed):
        out = {zero} | set(seed)
        changed = True
        while changed:
            changed = False
            for x in list(out):
                for y in list(out):
                    s = add(x, y)
                    if s not in out:
                        out.add(s)
                        changed = True
        return out

    cur = set(ideal)
    k = 1
    while k <= cap:
        if cur == {zero}:
            return k
        nxt = addclose({mul(x, y) for x in ideal for y in cur})
        if nxt == cur:
            return None
        cur = nxt
        k += 1
    return None


# ---------------------------------------------------------------------------
# strong nilpotence by the descent-sequence definition


def descent_strongly_nilpotent_mask(r, guard: int = 512) -> np.ndarray:
    """Strong nilpotence decided directly on descent sequences a_{i+1} = a_i t a_i.

    An element is strongly nilpotent iff no sequence of descents can avoid 0
    forever; over a finite ring that happens exactly when no nonzero cycle in
    the descent graph is reachable from it.  Exponential-flavored reference
    path, guarded to small rings.
    """
    n = r.order
    if n > guard:
        raise RingTooLarge(f"descent oracle guarded to order <= {guard}")
    idx = np.arange(n, dtype=np.int64)
    children = [
        np.unique(r.vmul(r.vmul(np.int64(x), idx), np.int64(x))) for x in range(n)
    ]

    # Tarjan SCC (iterative); nonzero SCCs with a cycle are unsafe cores.
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack: list[int] = []
    bad = np.zeros(n, dtype=bool)
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            kids = children[v]
            while pi < len(kids):
                w = int(kids[pi])
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                cyclic = len(comp) > 1 or v in set(int(c) for c in children[v])
                if cyclic:
                    for w in comp:
                        if w != r.zero:
                            bad[w] = True
            if work:
                pv, _ = work[-1]
                low[pv] = min(low[pv], low[v])

    # unsafe = can reach a bad node
    rev: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in children[v]:
            rev[int(w)].append(v)
    unsafe = bad.copy()
    frontier = list(np.flatnonzero(bad))
    while frontier:
        w = frontier.pop()
        for v in rev[w]:
            if not unsafe[v]:
                unsafe[v] = True
                frontier.append(v)
    return ~unsafe


def coset_walk_prime_radical(r) -> np.ndarray:
    """Mask of the strongly nilpotent elements by an element-wise scan in
    index order with two shortcuts.

    Elements are classified one by one; once some ideal RaR is known nilpotent
    its members are all strongly nilpotent, and sums of such ideals stay inside
    the radical, which collapses the scan to one test per coset.  Each test
    goes through `radicals.is_strongly_nilpotent`, the definition, which never
    reads P(R); the walk still refuses a ring that holds one and drops the
    memo of earlier answers first, so it is a reference that computes every
    answer it gives.
    """
    if "prime_ideal" in r.cache:
        raise PcleanError(f"{r.name}: P(R) is cached; the walk would read it back")
    r.cache.pop("sn_memo", None)
    n = r.order
    nil = rad.nilpotent_mask(r)
    classified = np.full(n, -1, dtype=np.int8)
    classified[~nil] = 0
    classified[r.zero] = 1
    known = additive_closure_mask(r, [])
    for x in range(n):
        if classified[x] != -1:
            continue
        if rad.is_strongly_nilpotent(r, x)[0]:
            part = ideal_closure_mask(r, np.asarray([x], np.int64))
            known = additive_closure_mask(r, np.flatnonzero(known | part))
            classified[known] = 1
        else:
            classified[r.vadd(np.int64(x), np.flatnonzero(known))] = 0
    mask = classified == 1
    if not rad._certify_ideal(r, mask):
        raise RadicalNotIdeal(f"strongly nilpotent elements of {r.name} are not an ideal")
    return mask


def order_powers(r) -> np.ndarray:
    """x^|R| for every x, by square-and-multiply over the whole ring.  A
    nilpotent x has x^|R| = 0, since its powers before 0 are distinct."""
    idx = np.arange(r.order, dtype=np.int64)
    out, base, e = np.full(r.order, r.one, dtype=np.int64), idx, r.order
    while e:
        if e & 1:
            out = r.vmul(out, base)
        base, e = r.vmul(base, base), e >> 1
    return out


def repeated_squaring_nilpotent_mask(r) -> np.ndarray:
    """Mask of the x with x^(2^p) = 0, p = ceil(log2 ceil(log2 |R|)), by p
    whole-ring vmul passes y = y*y in blocks of _CHUNK lanes: the loop that
    rad.nilpotent_mask replaced by gathers through the squaring map."""
    passes = ((r.order - 1).bit_length() - 1).bit_length()
    mask = np.zeros(r.order, dtype=bool)
    for s in range(0, r.order, _CHUNK):
        y = np.arange(s, min(s + _CHUNK, r.order), dtype=np.int64)
        for _ in range(passes):
            y = r.vmul(y, y)
        mask[s : s + y.size] = y == r.zero
    return mask


def walk_nilpotency(r, a):
    """Smallest e >= 1 with a^e = 0, or None: the powers of a walked one by
    one until they reach 0 or repeat, with no bound on the exponent."""
    seen = set()
    x, e = a, 1
    while x not in seen:
        if x == r.zero:
            return e
        seen.add(x)
        x = r.mul(x, a)
        e += 1
    return None


def all_units_by_powers(r, xs):
    """True iff every x has some power equal to 1 (units of finite order)."""
    z = xs.copy()
    pending = np.ones(xs.size, dtype=bool)
    for _ in range(r.order + 1):
        pending &= z != r.one
        if not pending.any():
            return True
        z = r.vmul(z, xs)
    return False


# ---------------------------------------------------------------------------
# clean decompositions, element by element from the definitions


def clean_oracle(r):
    """Per-element counts and ring verdicts of the six cleanness notions.

    Reads only the ring's scalar operations (and the descent oracle for the
    strongly nilpotent elements).  Returns (counts, verdicts): counts maps a
    name to a list over the elements, verdicts maps a name to
    (holds, least counterexample or None).
    """
    n = r.order
    els = range(n)
    idem = [e for e in els if r.mul(e, e) == e]
    unit = [any(r.mul(x, y) == r.one == r.mul(y, x) for y in els) for x in els]

    def nilpotent(x):
        y = x
        for _ in range(n):
            if y == r.zero:
                return True
            y = r.mul(y, x)
        return False

    nil = [nilpotent(x) for x in els]
    p = [bool(v) for v in descent_strongly_nilpotent_mask(r)]
    jac = [all(unit[r.sub(r.one, r.mul(y, x))] for y in els) for x in els]
    sets = {"pclean": p, "clean": unit, "nilclean": nil, "jclean": jac}
    counts = {}
    for name, member in sets.items():
        counts[f"strongly_{name}"] = [
            sum(1 for e in idem if r.mul(a, e) == r.mul(e, a) and member[r.sub(a, e)])
            for a in els
        ]
        counts[f"uniquely_{name}"] = [sum(1 for e in idem if member[r.sub(a, e)]) for a in els]
    del counts["uniquely_jclean"]

    def verdict(ok):
        bad = [a for a in els if not ok(a)]
        return (not bad, bad[0] if bad else None)

    verdicts = {
        "strongly_pclean": verdict(lambda a: counts["strongly_pclean"][a] > 0),
        "uniquely_pclean": verdict(lambda a: counts["uniquely_pclean"][a] == 1),
        "strongly_clean": verdict(lambda a: counts["strongly_clean"][a] > 0),
        "uniquely_clean": verdict(lambda a: counts["uniquely_clean"][a] == 1),
        "uniquely_nilclean": verdict(lambda a: counts["uniquely_nilclean"][a] == 1),
        "strongly_jclean": verdict(lambda a: counts["strongly_jclean"][a] > 0),
    }
    return counts, verdicts


def inverse_oracle(r, x):
    """The two-sided inverse of x found by trying every element, or None."""
    for y in range(r.order):
        if r.mul(x, y) == r.one == r.mul(y, x):
            return y
    return None


def lane_unit_inverses(r):
    """The unit scan lane by lane: x*y for a block of rows x against every y
    through r.vmul, then y*x = 1 checked hit by hit with r.mul; the least such
    y is x's inverse.  -1 marks a non-unit."""
    n = r.order
    inv = np.full(n, -1, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    rows = max(1, _CHUNK // n)
    for s in range(0, n, rows):
        block = idx[s : s + rows]
        for xi, y in zip(*np.nonzero(r.vmul(block[:, None], idx[None, :]) == r.one)):
            x = int(block[xi])
            if inv[x] < 0 and r.mul(int(y), x) == r.one:
                inv[x] = y
    return inv


def one_minus_rx_jacobson_mask(r, units):
    """{x : 1 - rx is a unit for every r}, with rx and 1 - rx computed lane by
    lane through r.vmul and r.vsub for a block of columns x at a time."""
    n = r.order
    idx = np.arange(n, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    cols = max(1, _CHUNK // n)
    for s in range(0, n, cols):
        block = idx[s : s + cols]
        t = r.vmul(idx[:, None], block[None, :])
        mask[block] = units[r.vsub(np.int64(r.one), t)].all(axis=0)
    return mask


def pi_regular_oracle(r, a):
    """Strong pi-regularity of a power by power from whole-ring products:
    the commutant of a by two vmul calls, then per power n two more, one for
    the commuting test a^n = a^(n+1) b with b in the commutant and one for the
    bare test a^n in a^(n+1) R.  Returns (ok, n, b) with the least n and the
    least b; raises PcleanError when the two tests disagree."""
    idx = np.arange(r.order, dtype=np.int64)
    aa = np.int64(a)
    commutant = idx[r.vmul(aa, idx) == r.vmul(idx, aa)]
    found = bare_found = None
    x = a  # a^n
    for n in range(1, r.order + 2):
        nxt = r.mul(x, a)  # a^(n+1)
        hits = commutant[r.vmul(np.int64(nxt), commutant) == x]
        if hits.size and found is None:
            found = (n, int(hits[0]))
        if bare_found is None and (r.vmul(np.int64(nxt), idx) == x).any():
            bare_found = n
        if found is not None and bare_found is not None:
            break
        x = nxt
    if (found is None) != (bare_found is None):
        raise PcleanError(f"{r.name}: commuting and bare strongly pi-regular tests disagree")
    return (False, None, None) if found is None else (True, *found)


def conjugation_reach_oracle(rt, qual):
    """Mask of the y with u^-1 y u in qual for some unit u: one conjugation
    pass per unit of rt, read from its rows and columns."""
    found = qual.copy()
    inv = rt.unit_inverses
    for u in rt.unit_indices:
        found |= qual[rt.mul_col(u)[rt.mul_row(inv[u])]]
    return found


def gather_sweep(r, member, commuting):
    """The idempotent sweep gathered over the undecided elements: for each
    idempotent e, the x still below the target count with x - e in `member`
    (and xe = ex when `commuting`) gain one.  Returns a bool mask when
    `commuting`, else uint8 counts saturated at 2.

    This per-x condition is what `_sweep` computes only in a ring: `_sweep`
    scatters onto x = w + e0 and tests e0 w = w e0, so on a table that is no
    ring the two may disagree (they agree on some, such as Z4 with 1 + 1 = 0),
    and this is an oracle only on rings."""
    need = 1 if commuting else 2
    count = np.zeros(r.order, dtype=np.uint8)
    for e in r.idempotent_indices:
        x = np.flatnonzero(count < need)
        ee = np.int64(e)
        x = x[member[r.vsub(x, ee)]]
        if commuting:
            x = x[r.vmul(x, ee) == r.vmul(ee, x)]
        count[x] += 1
    return count.astype(bool) if commuting else count


def scatter_sweep(r, member, commuting):
    """The idempotent sweep as one scatter per idempotent, ascending: e marks
    its coset x = w + e of the members w of `member`, each distinct x once
    when counting (uint8 counts saturated at 2), and the x with e w = w e,
    read from row and column e, when `commuting` (a bool mask).  What
    `decompositions._sweep` computes by one broadcast on a ring with
    tables, on any table, ring or not: on a table that is no ring w + e
    can repeat, and a repeat still counts once."""
    members = np.flatnonzero(member)
    count = np.zeros(r.order, dtype=np.uint8)
    for e in r.idempotent_indices:
        x = r.vadd(members, np.int64(e))
        if commuting:
            count[x[r.mul_row(e)[members] == r.mul_col(e)[members]]] = 1
        else:
            count[x] = np.minimum(count[x] + 1, 2)
    return count.astype(bool) if commuting else count


def memberwise_certified_basis(r, mask):
    """The member-wise ideal certificate: a subgroup basis of the set `mask`
    if it holds 0, is closed under negation, holds each member plus each
    basis element, and holds g*x and x*g for every member x and every g
    among the additive generators and 1; else None.  What
    `radicals._certified_basis` tests on a table that may be no ring, and
    the oracle of its generator-level test on rings by construction."""
    idx = np.flatnonzero(mask)
    if not (mask[r.zero] and mask[r.vneg(idx)].all()):
        return None
    basis = subgroup_basis(r, idx)
    if not mask[r.vadd(idx[:, None], basis[None, :])].all():
        return None
    gens = sorted({*r.additive_generators, r.one})
    closed = all(mask[r.vmul(g, idx)].all() and mask[r.vmul(idx, g)].all() for g in gens)
    return basis if closed else None


def row_column_central(r, x):
    """Whether row x equals column x of the multiplication table: x y = y x
    for every y, the oracle of `radicals.is_central`."""
    return bool(np.array_equal(r.mul_row(x), r.mul_col(x)))


def divmod_digits(radices, a):
    """Big-endian mixed-radix digits of the indices `a` by repeated divmod;
    shape (len(radices),) + np.shape(a)."""
    a = np.asarray(a, np.int64).copy()
    out = np.empty((len(radices),) + a.shape, dtype=np.int64)
    for j in range(len(radices) - 1, -1, -1):
        out[j] = a % radices[j]
        a //= radices[j]
    return out


# ---------------------------------------------------------------------------
# ring axioms and additive spans, from a ring's own operations


def check_axioms(r, full_limit: int = 512, samples: int = 4096, seed: int = 0):
    """Verify ring axioms; exhaustive for order <= full_limit, sampled above.

    Raises PcleanError on the first violated axiom.
    """
    n = r.order
    idx = np.arange(n, dtype=np.int64)
    if r.add(r.zero, r.one) != r.one:
        raise PcleanError(f"{r.name}: 0 + 1 != 1")
    if not np.array_equal(r.vadd(idx, r.zero), idx):
        raise PcleanError(f"{r.name}: 0 is not an additive identity")
    if not np.array_equal(r.vadd(idx, r.vneg(idx)), np.full(n, r.zero)):
        raise PcleanError(f"{r.name}: negation is not an additive inverse")
    if not np.array_equal(r.vmul(idx, r.one), idx) or not np.array_equal(
        r.vmul(np.full(n, r.one), idx), idx
    ):
        raise PcleanError(f"{r.name}: 1 is not a multiplicative identity")
    pair_rows = max(1, _CHUNK // n)
    for s in range(0, n, pair_rows):
        block = idx[s : s + pair_rows]
        if not np.array_equal(
            r.vadd(block[:, None], idx[None, :]),
            r.vadd(idx[None, :], block[:, None]),
        ):
            raise PcleanError(f"{r.name}: addition is not commutative")

    def triple_chunks():
        if n <= full_limit:
            total = n * n * n
            for s in range(0, total, _CHUNK):
                t = np.arange(s, min(s + _CHUNK, total), dtype=np.int64)
                yield t // (n * n), (t // n) % n, t % n
        else:
            rng = np.random.default_rng(seed)
            yield rng.integers(0, n, size=(3, samples), dtype=np.int64)

    for aa, bb, cc in triple_chunks():
        if not np.array_equal(r.vadd(r.vadd(aa, bb), cc), r.vadd(aa, r.vadd(bb, cc))):
            raise PcleanError(f"{r.name}: addition is not associative")
        if not np.array_equal(r.vmul(r.vmul(aa, bb), cc), r.vmul(aa, r.vmul(bb, cc))):
            raise PcleanError(f"{r.name}: multiplication is not associative")
        if not np.array_equal(
            r.vmul(aa, r.vadd(bb, cc)),
            r.vadd(r.vmul(aa, bb), r.vmul(aa, cc)),
        ):
            raise PcleanError(f"{r.name}: left distributivity fails")
        if not np.array_equal(
            r.vmul(r.vadd(aa, bb), cc),
            r.vadd(r.vmul(aa, cc), r.vmul(bb, cc)),
        ):
            raise PcleanError(f"{r.name}: right distributivity fails")


def appending_span(r, seeds):
    """The appending form of `rings._span`: the mask of the additive span of
    `seeds` and the seeds that were new, the members kept as a list grown by
    concatenation, each step one vadd over the members and the shift, whose
    last lane is the next shift.  The oracle of the buffered span, typed
    errors included, on tables that are no ring."""
    mask = np.zeros(r.order, dtype=bool)
    mask[r.zero] = True
    members, new = np.array([r.zero], np.int64), []
    seeds = np.asarray(seeds, np.int64).ravel()
    seeds = seeds[~mask[seeds]]
    while seeds.size:
        step = seeds[0]
        new.append(int(step))
        while not mask[step]:
            shifted = r.vadd(np.append(members, step), step)
            step, shifted = shifted[-1], shifted[:-1]
            shifted = shifted[~mask[shifted]]
            mask[shifted] = True
            members = np.concatenate([members, shifted])
            if members.size > r.order or not shifted.size:
                raise PcleanError(f"{r.name}: addition is not a group")
        seeds = seeds[1:][~mask[seeds[1:]]]
    return mask, new


def additive_span(r, seeds):
    """The additive subgroup generated by `seeds`, as a set of indices: the
    fixpoint of adding a seed to a member, by scalar r.add."""
    seeds = [int(s) for s in seeds]
    span = {r.zero}
    todo = [r.zero]
    while todo:
        x = todo.pop()
        for s in seeds:
            y = r.add(x, s)
            if y not in span:
                span.add(y)
                todo.append(y)
    return span


def ideals_by_subgroups(r):
    """Every two-sided ideal of a small ring, as frozensets of indices.

    Brute force: grow every additive subgroup from {0} one element at a time
    (each span by scalar r.add from the generators that built it), then keep
    the subgroups that absorb multiplication by every element on both sides.
    """
    found = {frozenset([r.zero]): []}
    todo = list(found)
    while todo:
        h = todo.pop()
        for x in range(r.order):
            if x not in h:
                gens = found[h] + [x]
                g = frozenset(additive_span(r, gens))
                if g not in found:
                    found[g] = gens
                    todo.append(g)
    els = range(r.order)
    return {
        h for h in found if all(r.mul(a, x) in h and r.mul(x, a) in h for x in h for a in els)
    }


class M2Oracle:
    """2x2 matrices over a small commutative ring r in pure Python.

    Matrices are 4-tuples (a11, a12, a21, a22) of element indices; every sum
    and product reads r's tables, copied once into nested lists.  P(r) is
    taken as Nil(r): in a commutative ring the prime radical is the
    nilradical.  Idempotents of M2(r) come from squaring every matrix.
    """

    def __init__(self, r):
        n = r.order
        self.n, self.zero, self.one = n, r.zero, r.one
        self.add = [[r.add(a, b) for b in range(n)] for a in range(n)]
        self.mul = [[r.mul(a, b) for b in range(n)] for a in range(n)]
        self.neg = [self.add[a].index(r.zero) for a in range(n)]
        self.nil = {a for a in range(n) if self._nilpotent(a)}
        self.one_plus_nil = {self.add[self.one][p] for p in self.nil}
        self.idempotents = [E for E in product(range(n), repeat=4) if self.mm(E, E) == E]

    def _nilpotent(self, a):
        x = a
        for _ in range(self.n):
            if x == self.zero:
                return True
            x = self.mul[x][a]
        return False

    def mm(self, A, B):
        ad, mu = self.add, self.mul
        a, b, c, d = A
        e, f, g, h = B
        return (
            ad[mu[a][e]][mu[b][g]], ad[mu[a][f]][mu[b][h]],
            ad[mu[c][e]][mu[d][g]], ad[mu[c][f]][mu[d][h]],
        )

    def msub(self, A, B):
        return tuple(self.add[x][self.neg[y]] for x, y in zip(A, B))

    def in_p(self, A):
        return all(x in self.nil for x in A)

    def trace_det(self, A):
        a, b, c, d = A
        return self.add[a][d], self.add[self.mul[a][d]][self.neg[self.mul[b][c]]]

    def roots(self, t, d):
        """x with x^2 - t x + d = 0, ascending, classed P / 1+P / OTHER."""
        ad, mu, neg = self.add, self.mul, self.neg
        out = []
        for x in range(self.n):
            if ad[ad[mu[x][x]][neg[mu[t][x]]]][d] == self.zero:
                cls = "P" if x in self.nil else "1+P" if x in self.one_plus_nil else "OTHER"
                out.append((x, cls))
        return out

    def criteria(self, A):
        """The three strong P-cleanness criteria, each from its definition."""
        ident = (self.one, self.zero, self.zero, self.one)
        scan = any(
            self.mm(E, A) == self.mm(A, E) and self.in_p(self.msub(A, E))
            for E in self.idempotents
        )
        classes = {c for _, c in self.roots(*self.trace_det(A))}
        return {
            "idempotent_scan": scan,
            "difference_in_radical": self.in_p(self.msub(A, self.mm(A, A))),
            "quadratic_roots": self.in_p(A)
            or self.in_p(self.msub(ident, A))
            or {"P", "1+P"} <= classes,
        }

    def square_witnesses(self, A):
        """u in 1+P, ascending, with u^2 = tr^2 - 4 det."""
        t, det = self.trace_det(A)
        ad, mu = self.add, self.mul
        four = ad[ad[self.one][self.one]][ad[self.one][self.one]]
        disc = ad[mu[t][t]][self.neg[mu[four][det]]]
        return [u for u in sorted(self.one_plus_nil) if mu[u][u] == disc]

    def _inverse(self, a):
        """The b with a b = 1, else None."""
        return next((b for b in range(self.n) if self.mul[a][b] == self.one), None)

    def ratio_roots(self, A):
        """x in P, ascending, with x^2 - x + det/tr^2 = 0; [] when tr is no unit."""
        t, det = self.trace_det(A)
        tinv = self._inverse(t)
        if tinv is None:
            return []
        return [x for x, cls in self.roots(self.one, self.mul[det][self.mul[tinv][tinv]]) if cls == "P"]

    def half_roots(self, A):
        """((tr - u)/2, (tr + u)/2) for the least square witness u, when 2 is a
        unit and a witness exists; else None."""
        half = self._inverse(self.add[self.one][self.one])
        witnesses = self.square_witnesses(A)
        if half is None or not witnesses:
            return None
        t, u = self.trace_det(A)[0], witnesses[0]
        return self.mul[half][self.add[t][self.neg[u]]], self.mul[half][self.add[t][u]]
