"""Finite unital rings materialized over a dense element index 0..|R|-1.

Rings of order <= DENSE_TABLE_LIMIT (1024) carry full Cayley tables (uint16,
at most 4 MiB a ring, so the ring LRU needs no byte budget); larger rings
compute on coordinates with identical observable behavior.  A kernel result
outside 0..|R|-1 is rejected when the tables are built.  All bulk operations
are numpy-vectorized over index arrays.

Lines of a ring's Cayley tables, x op y for every y (or y op x), come from
one evaluator, `RingTable._lines`, in three row forms: every row, one row,
or the rows of an index array.  It gathers from the dense table once it
exists; a digit kernel (the k x k families, product, Z_n[i] and Z_n[w])
otherwise runs its digit formulas over the base rings' own tables on an open
mesh of digits (`_DigitKernel.lines`); the other kernels (Z_n, quotient,
subset) run their vmul or vadd on broadcast indices.  Its consumers: the
constructor, which takes every row of a digit kernel in uint16 as the
tables of rings of order <= DENSE_TABLE_LIMIT; `RingTable.mul_row` and
`RingTable.mul_col`, the only way to get one whole row or column; the
coset-class sweep (`decompositions._sweep`), which reads the rows and
columns of several idempotents per call; and the unit scan
(`RingTable.unit_inverses`), which reads index-array chunks of rows only
on rings whose construction gives no unit rule (tables, quotients,
corners, Z_n[t], M_k over a noncommutative base or with k > 2).
The units of Z_n, products, T_k, Tc_k and M2 over a commutative base come
from their rule (`_units_by_construction`) and Lagrange's theorem, and J(R)
is filtered by vmul (`radicals.jacobson_radical`), so neither reads a
chunk of rows.  The squaring map `RingTable.squares` is the dense diagonal,
or the digit formulas on a mesh of x's digits alone through the same
place-weighted sum as the lines (`_DigitKernel._place_sum`).

One kernel, `_MatrixFamilyKernel`, serves M_k, T_k and Tc_k: its identity
and product follow from `specs.positions`, which states once which entries
each family stores.  One kernel, `_RemapKernel`, serves quotient and subset
rings: their ops run in the base ring on member indices.

Every additive span is grown by one doubling step in `_span`: it adds x to
a subgroup H, kept as its member list in one buffer of order size, by adding
the shifted copy H + 2^k x for k = 0, 1, ... until no new element appears,
so a cyclic span of order m costs log2(m) vector ops over the members: a
step is one vadd over the members whose last lane yields the next shift.  Additive and ideal closures,
subgroup bases, ideal products and powers are spans of their seeds, and
quotient rings pick coset representatives (least indices) by the same
doubling over a basis of the ideal.

Every fact derived from a ring (idempotents, units, radicals, sweeps,
verdicts, criterion masks) has one slot in `RingTable.cache`, filled through
the one memo `cached`.

`RingTable` alone reads the dense tables: its vector ops return what the
table stores (uint16), or the kernel's result when it has none, and its
scalar ops are one lane of them.  A digit kernel's one codec
(`_DigitKernel.digits`/`encode`) runs one element on Python ints, so scalar
ops, fmt and single lines build no digit table, and `matrices.Matrix2`, an
element of M2(R), costs microseconds per op even on M2(Z9[w]) (order 43M).
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import specs
from .errors import (
    MalformedSpec,
    OrderLimitExceeded,
    PcleanError,
    PreconditionFailed,
    RingTooLarge,
)
from .specs import _Lit

DENSE_TABLE_LIMIT = 1024
DEFAULT_ORDER_LIMIT = 65536
UNIT_SCAN_LIMIT = 16384
_CHUNK = 1 << 20  # lanes per chunk in whole-ring scans


# ---------------------------------------------------------------------------
# arithmetic kernels


class ZnKernel:
    def __init__(self, n: int):
        self.n = n
        self.order = n
        self.zero = 0
        self.one = 1 % n

    def vadd(self, a, b):
        return (np.asarray(a, np.int64) + np.asarray(b, np.int64)) % self.n

    def vneg(self, a):
        return (-np.asarray(a, np.int64)) % self.n

    def vmul(self, a, b):
        return (np.asarray(a, np.int64) * np.asarray(b, np.int64)) % self.n

    def additive_generators(self):
        return [1 % self.n]

    def fmt(self, i: int) -> str:
        return str(i)

    def parse_literal(self, lit: _Lit) -> int:
        return lit.parse_int() % self.n


def _on_axis(j: int, values: np.ndarray, ndim: int) -> np.ndarray:
    """`values` laid along axis j of an ndim-axis open mesh."""
    return values.reshape((1,) * j + (-1,) + (1,) * (ndim - j - 1))


class _DigitKernel:
    """A ring whose element index is a big-endian mixed-radix digit vector.

    Digit j is an index into the RingTable ``parts[j]``, and the digit
    formulas reach each part only through its ring ops (``p.vadd``,
    ``p.vmul``, ``p.vneg``), so the part alone picks its dense table or its
    kernel.  Addition and negation act digit by digit; each subclass gives
    its product as ``mul_digits``.  vadd, vneg and vmul are
    ``encode(<op>_digits(digits(a), digits(b)))`` for one element and for
    arrays alike, and ``lines`` runs the same digit formulas on an open mesh
    to produce whole rows or columns of the Cayley tables, in three row
    forms: every row, one row, or the rows of an index array.

    ``digits`` and ``encode`` are the one codec and the only code that tells
    one element from many.  One integer goes by divmod and Horner's rule on
    Python ints and builds nothing.  An array gathers from a digit table of
    shape (npos, order), built on first use and kept with the kernel: column
    x holds the digits of x in the smallest unsigned dtype that fits every
    radix (one byte per digit for radices up to 256, so 1.6 MB for
    T2(Z9[w])).  Digits are only used as indices into the parts' ops, and
    ``encode`` accumulates arrays in int64, so a dense part's uint16 table
    entries serve as digits without widening.
    """

    def __init__(self, parts: list["RingTable"]):
        self.parts = parts
        self.npos = len(parts)
        self.radices = [p.order for p in parts]
        self.places = [math.prod(self.radices[j + 1 :]) for j in range(self.npos)]
        self.order = math.prod(self.radices)
        self._digit_table = None
        self.zero = self.encode([p.zero for p in parts])

    def digits(self, a):
        """The digits of index a: Python ints by divmod for one integer, else
        an (npos,) + shape(a) gather from the digit table."""
        if isinstance(a, (int, np.integer)):
            a = int(a)
            return [a // w % rad for w, rad in zip(self.places, self.radices)]
        if self._digit_table is None:
            dtype = np.min_scalar_type(max(self.radices) - 1)
            self._digit_table = np.indices(self.radices, dtype).reshape(self.npos, -1)
        # np.take gathers several times faster than fancy indexing table[:, a]
        return np.take(self._digit_table, a, axis=1)

    def encode(self, digits):
        """The index of a digit vector: a Python int, the digits weighted by
        their place values, when every digit is one integer; else int64 by
        Horner's rule."""
        if all(isinstance(d, (int, np.integer)) for d in digits):
            # int(d), so uint16 digits never overflow
            return sum(int(d) * w for d, w in zip(digits, self.places))
        out = np.array(digits[0], dtype=np.int64)
        for rad, d in zip(self.radices[1:], digits[1:]):
            out *= rad
            out += d
        return out

    def add_digits(self, da, db):
        return [p.vadd(x, y) for p, x, y in zip(self.parts, da, db)]

    def vadd(self, a, b):
        return self.encode(self.add_digits(self.digits(a), self.digits(b)))

    def neg_digits(self, da):
        return [p.vneg(x) for p, x in zip(self.parts, da)]

    def vneg(self, a):
        return self.encode(self.neg_digits(self.digits(a)))

    def vmul(self, a, b):
        return self.encode(self.mul_digits(self.digits(a), self.digits(b)))

    def additive_generators(self):
        zeros = [p.zero for p in self.parts]
        return [
            self.encode(zeros[:j] + [g] + zeros[j + 1 :])
            for j, p in enumerate(self.parts)
            for g in p.additive_generators
        ]

    def lines(self, op: str, xs=None, col: bool = False, dtype=np.int64) -> np.ndarray:
        """x <op> y for every y (y <op> x with `col`), op "add" or "mul", as a
        (rows, order) array of `dtype`, one row per x: every index for
        `xs` None, one for an int, else the indices in the array `xs`.

        One evaluation of the digit formulas on an open mesh: y's digits on
        the last npos axes, and x's digits on npos axes of their own (None),
        as Python ints (an int) or on one lane axis (an array), summed by
        `_place_sum` (for every row, with its y axes merged into one)."""
        npos, rad = self.npos, self.radices
        if xs is None:
            lead = tuple(rad)
            dx = [_on_axis(j, np.arange(r), 2 * npos) for j, r in enumerate(rad)]
        elif isinstance(xs, (int, np.integer)):
            lead, dx = (), self.digits(int(xs))
        else:
            xs = np.asarray(xs, np.int64).ravel()
            lead = xs.shape
            dx = list(self.digits(xs).reshape((npos,) + lead + (1,) * npos))
        dy = [_on_axis(len(lead) + j, np.arange(r), len(lead) + npos) for j, r in enumerate(rad)]
        fn = self.add_digits if op == "add" else self.mul_digits
        # a term spans only the x axes it reads, so merging its y axes costs
        # little, and numpy iterates a few long axes far faster than many
        # short ones; a lane spans every term, so it does not
        merge = npos if xs is None else None
        out = self._place_sum(fn(dy, dx) if col else fn(dx, dy), lead, dtype, merge)
        return out.reshape(-1, self.order)

    def squares(self, dtype) -> np.ndarray:
        """x*x for every x, in `dtype`: the digit formulas on an open mesh of
        x's digits alone (the diagonal digits of T_k span one axis each)."""
        dx = [_on_axis(j, np.arange(r), self.npos) for j, r in enumerate(self.radices)]
        return self._place_sum(self.mul_digits(dx, dx), (), dtype).reshape(-1)

    def _place_sum(self, digits, lead: tuple, dtype, merge=None) -> np.ndarray:
        """The indices of `digits` on an open mesh of shape lead + radices:
        each digit times its place value spans only the axes it reads, and
        terms of one shape are summed first, so only the last add fills the
        whole block; with `merge`, each term's axes past its first `merge`
        are merged into one.  Partial sums stay below order, so any `dtype`
        that holds order - 1 gives the exact indices."""
        rad = tuple(self.radices)
        terms: dict[tuple, np.ndarray] = {}
        for d, w in zip(digits, self.places):
            t = np.asarray(d, dtype) * w
            terms[t.shape] = terms[t.shape] + t if t.shape in terms else t
        shape = lead + rad
        if merge is not None:
            shape = lead + (self.order,)
            terms = {s: np.broadcast_to(t, s[:merge] + rad).reshape(s[:merge] + (-1,))
                     for s, t in terms.items()}
        *head, last = sorted(terms.values(), key=np.size)
        return np.add(sum(head), last, out=np.empty(shape, dtype))


class _PositionalKernel(_DigitKernel):
    """Digit vectors over one base ring: the k x k families and Z_n[t]."""

    def __init__(self, base: "RingTable", npos: int):
        self.base = base
        super().__init__([base] * npos)

    def _dot(self, terms):
        acc = None
        for x, y in terms:
            p = self.base.vmul(x, y)
            acc = p if acc is None else self.base.vadd(acc, p)
        return acc


class _MatrixFamilyKernel(_PositionalKernel):
    """k x k matrices of a family whose stored entries (i, j) map to digits
    by ``pos_index = specs.positions(family, k)``; entries left out are 0,
    and entries sharing a digit are equal.  The identity and the product
    follow from the map alone: digit t of a*b is the sum over l of
    a_il * b_lj, over the stored (i, l) and (l, j), at t's first (i, j)."""

    family: str

    def __init__(self, k: int, base: "RingTable"):
        self.k = k
        pos = self.pos_index = specs.positions(self.family, k)
        super().__init__(base, len(set(pos.values())))
        first = [next(ij for ij, s in pos.items() if s == t) for t in range(self.npos)]
        self._terms = [
            [(pos[i, l], pos[l, j]) for l in range(k) if (i, l) in pos and (l, j) in pos]
            for i, j in first
        ]
        one = [base.zero] * self.npos
        for i in range(k):
            one[pos[i, i]] = base.one
        self.one = self.encode(one)

    def mul_digits(self, da, db):
        return [self._dot([(da[s], db[t]) for s, t in terms]) for terms in self._terms]

    def fmt(self, idx: int) -> str:
        d = self.digits(idx)

        def entry(i, j):
            t = self.pos_index.get((i, j))
            return self.base.fmt_index(self.base.zero if t is None else d[t])

        rows = (",".join(entry(i, j) for j in range(self.k)) for i in range(self.k))
        return "[" + ";".join(rows) + "]"

    def parse_literal(self, lit: _Lit) -> int:
        start = lit.pos
        lit.expect("[")
        entries = {}
        for i, j in itertools.product(range(self.k), repeat=2):
            if i or j:
                lit.expect("," if j else ";")
            entries[i, j] = self.base.kernel.parse_literal(lit)
        lit.expect("]")
        digits = [None] * self.npos
        for (i, j), e in entries.items():
            t = self.pos_index.get((i, j))
            if t is None:
                if e != self.base.zero:
                    msg = "below-diagonal entry must be 0 in a triangular ring"
                    raise MalformedSpec(msg, start)
            elif digits[t] not in (None, e):
                raise MalformedSpec("diagonal entries must all be equal", start)
            else:
                digits[t] = e
        return self.encode(digits)


class MatrixKernel(_MatrixFamilyKernel):
    """k x k matrices, entries row-major, big-endian digit index."""

    family = "M"


class TriangularKernel(_MatrixFamilyKernel):
    """Upper triangular k x k matrices; positions (i,j), i<=j, row-major."""

    family = "T"


class ConstDiagKernel(_MatrixFamilyKernel):
    """Upper triangular k x k with a single shared diagonal entry (digit 0)."""

    family = "Tc"


class QuadExtKernel(_PositionalKernel):
    """Z_n adjoin t with t^2 = c0 + c1*t: digits (a, b) of a + b*t over the
    ring Z_n, so a + b*t has index a*n + b."""

    def __init__(self, base: "RingTable", c0: int, c1: int, symbol: str):
        super().__init__(base, 2)
        self.n = base.order
        self.c0, self.c1 = c0 % self.n, c1 % self.n
        self.symbol = symbol
        self.one = self.encode([base.one, base.zero])

    def mul_digits(self, da, db):
        # (a + bt)(c + dt) = (ac + c0*bd) + (ad + bc + c1*bd)t
        (a, b), (c, d), mul = da, db, self.base.vmul
        x = self._dot([(a, c), (b, mul(d, self.c0))])
        terms = [(a, d), (b, c)] + ([(b, mul(d, self.c1))] if self.c1 else [])
        return [x, self._dot(terms)]

    def fmt(self, i: int) -> str:
        a, b = divmod(i, self.n)
        if b == 0:
            return str(a)
        bi = self.symbol if b == 1 else f"{b}{self.symbol}"
        return bi if a == 0 else f"{a}+{bi}"

    def parse_literal(self, lit: _Lit) -> int:
        a = b = 0
        first = True
        while True:
            ch = lit.peek()
            sign = 1
            if ch and ch in "+-":
                sign = -1 if ch == "-" else 1
                lit.take()
            elif not first:
                break
            ch = lit.peek()
            if ch.isdecimal():
                v = lit.parse_int()
                if lit.peek().lower() == self.symbol:
                    lit.take()
                    b += sign * v
                else:
                    a += sign * v
            elif ch.lower() == self.symbol:
                lit.take()
                b += sign
            else:
                raise MalformedSpec("expected a coefficient term", lit.pos)
            first = False
        return self.encode([a % self.n, b % self.n])


class ProductKernel(_DigitKernel):
    """Direct product; digit t is an index into factor t."""

    def __init__(self, factors: list["RingTable"]):
        super().__init__(factors)
        self.one = self.encode([f.one for f in factors])

    def mul_digits(self, da, db):
        return [f.vmul(x, y) for f, x, y in zip(self.parts, da, db)]

    def fmt(self, idx: int) -> str:
        parts = self.digits(idx)
        return "[" + ",".join(f.fmt_index(p) for f, p in zip(self.parts, parts)) + "]"

    def parse_literal(self, lit: _Lit) -> int:
        lit.expect("[")
        parts = [self.parts[0].kernel.parse_literal(lit)]
        for f in self.parts[1:]:
            lit.expect(",")
            parts.append(f.kernel.parse_literal(lit))
        lit.expect("]")
        return self.encode(parts)


class _RemapKernel:
    """A ring on ``members``, indices of a base ring: element i stands for
    members[i], ops run in the base, and each subclass's ``_back`` maps the
    base results back to its own indices."""

    def __init__(self, base: "RingTable", members: np.ndarray):
        self.base = base
        self.members = members
        self.pos_of = np.full(base.order, -1, dtype=np.int64)
        self.pos_of[members] = np.arange(members.size)
        self.order = int(members.size)

    def vadd(self, a, b):
        return self._back(self.base.vadd(self.members[a], self.members[b]))

    def vneg(self, a):
        return self._back(self.base.vneg(self.members[a]))

    def vmul(self, a, b):
        return self._back(self.base.vmul(self.members[a], self.members[b]))

    def fmt(self, idx: int) -> str:
        return self.base.fmt_index(int(self.members[idx]))


class QuotientKernel(_RemapKernel):
    """Cosets of a two-sided ideal; canonical representative = least index."""

    def __init__(self, base: "RingTable", ideal_indices: np.ndarray):
        n = base.order
        # after basis element g_j, rep_of[x] = min of x + <g_1..g_j>; each pass
        # takes the min over one more power-of-two multiple of g_j
        rep_of = idx = np.arange(n, dtype=np.int64)
        for step in subgroup_basis(base, ideal_indices).tolist():
            while True:
                nxt = np.minimum(rep_of, rep_of[base.vadd(idx, np.int64(step))])
                if np.array_equal(nxt, rep_of):
                    break
                rep_of = nxt
                step = base.add(step, step)
        self.rep_of = rep_of
        super().__init__(base, np.unique(rep_of))
        self.zero = int(self._back(base.zero))
        self.one = int(self._back(base.one))

    def _back(self, a):
        return self.pos_of[self.rep_of[np.asarray(a, np.int64)]]

    def additive_generators(self):
        gens = np.unique(self._back(np.asarray(self.base.additive_generators)))
        return [int(g) for g in gens if g != self.zero] or [self.zero]

    def parse_literal(self, lit: _Lit) -> int:
        return int(self._back(self.base.kernel.parse_literal(lit)))


class SubsetKernel(_RemapKernel):
    """A unital subring on a closed subset of an ambient ring (e.g. a corner eRe)."""

    def __init__(self, base: "RingTable", members: np.ndarray, one_index: int):
        super().__init__(base, np.unique(np.asarray(members, np.int64)))
        self.zero = int(self.pos_of[base.zero])
        self.one = int(self.pos_of[one_index])
        if self.zero < 0 or self.one < 0:
            raise PreconditionFailed("subset kernel must contain 0 and its identity")

    def _back(self, res):
        out = self.pos_of[res]
        if np.any(out < 0):
            raise PreconditionFailed("subset is not closed under ring operations")
        return out

    def additive_generators(self):
        return None  # computed greedily by the RingTable

    def parse_literal(self, lit: _Lit) -> int:
        start = lit.pos
        i = self.base.kernel.parse_literal(lit)
        p = int(self.pos_of[i])
        if p < 0:
            raise MalformedSpec("element lies outside the subring", start)
        return p


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class Element:
    """What `RingTable.parse_element` returns: an index of `ring`, printed as
    its literal.  Equal when the ring is the same object and the index the same."""

    ring: "RingTable"
    index: int

    def __repr__(self):
        return self.ring.fmt_index(self.index)


# ---------------------------------------------------------------------------
# the ring table


def cached(r: "RingTable", key, make):
    """r.cache[key], filled by make() on first use: the one memo of every fact
    derived from a ring (masks, verdicts, sweeps, tables), so no fact is
    computed twice and each has exactly one slot."""
    if key not in r.cache:
        r.cache[key] = make()
    return r.cache[key]


class RingTable:
    def __init__(self, kernel, name: str):
        self.kernel = kernel
        self.name = name
        self.order = kernel.order
        self.zero = kernel.zero
        self.one = kernel.one
        if self.zero == self.one:
            raise PcleanError(f"{name}: ring collapses to the zero ring (0 = 1)")
        self.cache: dict = {}
        # whether the kernel's formulas make the ring axioms hold: Z_n, and
        # the digit and remap kernels over such rings; never given tables.
        # Set once, as a kernel and its parts never change
        if isinstance(kernel, _DigitKernel):
            self.by_construction = all(p.by_construction for p in kernel.parts)
        elif isinstance(kernel, _RemapKernel):
            self.by_construction = kernel.base.by_construction
        else:
            self.by_construction = isinstance(kernel, ZnKernel)
        self._add_t = self._mul_t = self._neg_t = self._add_f = self._mul_f = None
        if self.order <= DENSE_TABLE_LIMIT:
            self._build_tables()

    def __repr__(self):
        return f"RingTable({self.name}, order={self.order})"

    def _build_tables(self):
        n, k = self.order, self.kernel
        add_t, mul_t = (
            k.lines(op, dtype=np.uint16)
            if isinstance(k, _DigitKernel)
            else self._lines(op).astype(np.uint16)
            for op in ("add", "mul")
        )
        neg_t = k.vneg(np.arange(n, dtype=np.int64)).astype(np.uint16)
        # a kernel result outside 0..n-1 (say -1 for "no negative", 65535 in
        # uint16) would surface later as an untyped IndexError
        if max(t.max() for t in (add_t, mul_t, neg_t)) >= n:
            raise PcleanError(f"{self.name}: a ring operation leaves the indices 0..{n - 1}")
        self._add_t, self._mul_t, self._neg_t = add_t, mul_t, neg_t
        # flat views for the vector ops; n as np.intp, so uint8 and uint16
        # index arrays promote to intp in a * n + b instead of wrapping
        self._add_f, self._mul_f, self._n = add_t.ravel(), mul_t.ravel(), np.intp(n)

    def _lines(self, op: str, xs=None, col: bool = False) -> np.ndarray:
        """x <op> y for every y (y <op> x with `col`), op "add" or "mul", as a
        (rows, order) array, one row per x: every index for `xs` None, one for
        an int, else the indices in the array `xs`.  Rows of the dense table
        (uint16) once it exists, else one evaluation of a digit kernel's
        formulas on the digit mesh (`_DigitKernel.lines`), else the kernel's
        vector op on broadcast indices."""
        table = self._mul_t if op == "mul" else self._add_t
        if table is not None:
            table = table.T if col else table
            return table if xs is None else np.atleast_2d(table[xs])
        if isinstance(self.kernel, _DigitKernel):
            return self.kernel.lines(op, xs, col)
        y = np.arange(self.order, dtype=np.int64)[None, :]
        x = y.T if xs is None else np.asarray(xs, np.int64).reshape(-1, 1)
        vop = self.kernel.vmul if op == "mul" else self.kernel.vadd
        return vop(y, x) if col else vop(x, y)

    def mul_row(self, x: int) -> np.ndarray:
        """x*y for every y, as int64: row x of the multiplication table."""
        return self._lines("mul", x)[0].astype(np.int64, copy=False)

    def mul_col(self, x: int) -> np.ndarray:
        """y*x for every y, as int64: column x of the multiplication table."""
        return self._lines("mul", x, col=True)[0].astype(np.int64, copy=False)

    # -- vector ops (index arrays in, index arrays out in the table's uint16
    # or the kernel's dtype).  Operands are integers or integer arrays in
    # 0..order-1: a dense op reads the flat table at a * order + b, where an
    # out-of-range b lands in another row instead of raising.

    def vadd(self, a, b):
        return self.kernel.vadd(a, b) if self._add_f is None else self._add_f[a * self._n + b]

    def vmul(self, a, b):
        return self.kernel.vmul(a, b) if self._mul_f is None else self._mul_f[a * self._n + b]

    def vneg(self, a):
        return self.kernel.vneg(a) if self._neg_t is None else self._neg_t[a]

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    # -- scalar ops

    def add(self, a: int, b: int) -> int:
        return int(self.vadd(a, b))

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(a, b))

    def neg(self, a: int) -> int:
        return int(self.vneg(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def power(self, x: int, k: int) -> int:
        if k < 0:
            raise PreconditionFailed("negative powers need an explicit inverse")
        acc, base = self.one, x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def embed_int(self, m: int) -> int:
        """m * 1, safe in any characteristic: entry m mod char of the cached
        multiples k * 1 (0 <= k < char), listed by doubling: each vadd appends
        ones + len(ones) * 1, until a 0 past index 0 cuts the list."""

        def multiples():
            ones = np.array([self.zero], np.int64)
            while ones.size <= self.order and not (ones[1:] == self.zero).any():
                ones = np.append(ones, self.vadd(ones, self.add(int(ones[-1]), self.one)))
            zero = np.flatnonzero(ones[1:] == self.zero)
            return ones[: zero[0] + 1] if zero.size else ones

        ones = cached(self, "multiples_of_one", multiples)
        return int(ones[m % ones.size])

    # -- cached structure

    @property
    def squares(self) -> np.ndarray:
        """x*x at index x, in the least unsigned dtype holding order - 1: the
        dense table's diagonal, a digit kernel's formulas on the mesh of x's
        digits, or the kernel's vmul(x, x) in chunks; each entry is what
        vmul(x, x) reads, so the map is the same on any table.  The
        idempotents, the nilpotents and the Lagrange and 1 + P inverses read it."""

        def make():
            if self._mul_t is not None:
                return self._mul_t.diagonal()
            dtype = np.min_scalar_type(self.order - 1)
            if isinstance(self.kernel, _DigitKernel):
                return self.kernel.squares(dtype)
            sq = np.empty(self.order, dtype)
            for s in range(0, self.order, _CHUNK):
                x = np.arange(s, min(s + _CHUNK, self.order), dtype=np.int64)
                sq[s : s + x.size] = self.vmul(x, x)
            return sq

        return cached(self, "squares", make)

    @property
    def idempotent_mask(self) -> np.ndarray:
        return cached(self, "idempotent_mask", lambda: self.squares == np.arange(self.order))

    @property
    def idempotent_indices(self) -> np.ndarray:
        return cached(self, "idempotent_indices", lambda: np.flatnonzero(self.idempotent_mask))

    @property
    def unit_mask(self) -> np.ndarray:
        """Units: the x with a two-sided inverse."""
        return cached(self, "unit_mask", lambda: self.unit_inverses >= 0)

    @property
    def unit_inverses(self) -> np.ndarray:
        """x^-1 at index x for every unit x, -1 for non-units.

        Where `_units_by_construction` has a rule, each unit u of U = U(R)
        gets u^(|U|-1) (Lagrange), by square-and-multiply over all units at
        once, each square gathered from `squares`, and u*u^-1 = 1 = u^-1*u
        is checked for every u.  Otherwise by one scan of the multiplication
        rows: the least y with x*y = 1 = y*x."""

        def scan():
            if self.order > UNIT_SCAN_LIMIT:
                raise RingTooLarge(
                    f"unit enumeration needs order <= {UNIT_SCAN_LIMIT}, "
                    f"{self.name} has {self.order}"
                )
            mask = _units_by_construction(self)
            if mask is not None:
                units = np.flatnonzero(mask)
                acc, sq, e = np.full(units.size, self.one, np.int64), units, units.size - 1
                while e > 0:
                    if e & 1:
                        acc = self.vmul(acc, sq)
                    e >>= 1
                    if e:
                        sq = self.squares[sq]
                if not (
                    mask[self.one]
                    and (self.vmul(units, acc) == self.one).all()
                    and (self.vmul(acc, units) == self.one).all()
                ):
                    raise PcleanError(f"{self.name}: a unit by construction has no inverse")
                inv = np.full(self.order, -1, dtype=np.int64)
                inv[units] = acc
                return inv
            xs, ys, rows = [], [], max(1, _CHUNK // self.order)
            for start in range(0, self.order, rows):
                lane = np.arange(start, min(start + rows, self.order))
                xi, y = np.nonzero(self._lines("mul", lane) == self.one)
                xs.append(start + xi)
                ys.append(y)
            x, y = np.concatenate(xs), np.concatenate(ys)
            both = self.vmul(y, x) == self.one
            # hits come in ascending (x, y) order: the first per x has least y
            x, first = np.unique(x[both], return_index=True)
            inv = np.full(self.order, -1, dtype=np.int64)
            inv[x] = y[both][first]
            return inv

        return cached(self, "unit_inverses", scan)

    @property
    def unit_indices(self) -> np.ndarray:
        return cached(self, "unit_indices", lambda: np.flatnonzero(self.unit_mask))

    @property
    def unit_generators(self) -> list[int]:
        """Units generating U(R) greedily: each unit, ascending, that the group
        so far misses; the group is re-closed by right multiplying with every pick."""

        def make():
            group, gens = np.arange(self.order) == self.one, []
            for u in self.unit_indices.tolist():
                if not group[u]:
                    gens.append(u)
                    cols, new = [self.mul_col(s) for s in gens], np.flatnonzero(group)
                    while new.size:
                        new = np.unique(np.concatenate([c[new] for c in cols]))
                        new = new[~group[new]]
                        group[new] = True
            return gens

        return cached(self, "unit_generators", make)

    def is_unit(self, x: int) -> bool:
        return self.inverse(x) is not None

    def inverse(self, x: int) -> int | None:
        if self.order <= UNIT_SCAN_LIMIT:
            y = int(self.unit_inverses[x])
            return None if y < 0 else y
        for y in np.flatnonzero(self.mul_row(x) == self.one).tolist():
            if self.mul(y, x) == self.one:
                return y
        return None

    @property
    def additive_generators(self) -> list[int]:
        def make():
            gens = self.kernel.additive_generators()
            return subgroup_basis(self, np.arange(self.order)).tolist() if gens is None else gens

        return cached(self, "additive_generators", make)

    @property
    def commutative(self) -> bool:
        def test():
            gens = np.asarray(self.additive_generators, np.int64)
            flag = bool(
                np.array_equal(
                    self.vmul(gens[:, None], gens[None, :]),
                    self.vmul(gens[None, :], gens[:, None]),
                )
            )
            # bilinearity makes the generator test exact; cross-check on tables
            if self._mul_t is not None and flag != np.array_equal(self._mul_t, self._mul_t.T):
                raise PcleanError(
                    f"{self.name}: generator commutativity test disagrees with the table"
                )
            return flag

        return cached(self, "commutative", test)

    # -- element interface

    def fmt_index(self, i: int) -> str:
        return self.kernel.fmt(int(i))

    def parse_element(self, text: str) -> Element:
        lit = _Lit(text)
        idx = self.kernel.parse_literal(lit)
        lit.skip_ws()
        if lit.pos != len(lit.text):
            raise MalformedSpec(f"trailing input in element literal {text!r}", lit.pos)
        return Element(self, int(idx))


def _units_by_construction(r: RingTable) -> np.ndarray | None:
    """The unit mask of a ring by construction, from the rule of its family
    (Lam, A First Course in Noncommutative Rings): x in Z_n is a unit iff
    gcd(x, n) = 1; a tuple of a product iff each entry is a unit of its
    factor; a matrix of T_k(B) or Tc_k(B) iff each diagonal entry is a unit
    of B; a matrix of M2(B), B commutative, iff its det is a unit of B.  None
    for every other ring (tables, quotients, corners, Z_n[t], M_k over a
    noncommutative base, M_k with k > 2), whose units the scan finds."""
    k = r.kernel
    if not r.by_construction:
        return None
    if isinstance(k, ZnKernel):
        return np.gcd(np.arange(k.n), k.n) == 1
    m2 = isinstance(k, MatrixKernel) and k.k == 2 and k.base.commutative
    if not (m2 or isinstance(k, (ProductKernel, TriangularKernel, ConstDiagKernel))):
        return None
    d = k.digits(np.arange(r.order))
    if m2:
        (a11, a12), (a21, a22) = [[d[k.pos_index[i, j]] for j in (0, 1)] for i in (0, 1)]
        base = k.base
        return base.unit_mask[base.vsub(base.vmul(a11, a22), base.vmul(a12, a21))]
    if isinstance(k, ProductKernel):  # every entry
        unit_digits = range(k.npos)
    else:  # the diagonal entries of T_k or Tc_k
        unit_digits = {k.pos_index[i, i] for i in range(k.k)}
    return np.logical_and.reduce([k.parts[t].unit_mask[d[t]] for t in unit_digits])


# ---------------------------------------------------------------------------
# additive / ideal closures (shared by quotients and the radical machinery)


def _span(r: RingTable, seeds) -> tuple[np.ndarray, list[int]]:
    """The mask of the additive span of `seeds` and the seeds that were new,
    in order.  Each new seed x joins the span H by doubling: H_k = H + {0..2^k
    - 1}x grows by its shifted copy H_k + 2^k x until 2^k x lies in H_k, which
    makes H_k = H + <x>.  H is kept as its member list in one buffer of order
    size, plus a slot for the shift, so a step is one vadd over the members
    whose last lane yields the next shift 2^(k+1) x, and no step copies the
    list.  Seeds already in the span are dropped in bulk."""
    mask = np.zeros(r.order, dtype=bool)
    mask[r.zero] = True
    members = np.empty(r.order + 1, np.int64)
    members[0], size, new = r.zero, 1, []
    seeds = np.asarray(seeds, np.int64).ravel()
    seeds = seeds[~mask[seeds]]
    while seeds.size:
        step = seeds[0]
        new.append(int(step))
        while not mask[step]:
            members[size] = step
            shifted = r.vadd(members[: size + 1], step)
            step, shifted = shifted[-1], shifted[:-1]
            shifted = shifted[~mask[shifted]]
            # in a group a step adds at least 0 + step and never a member twice
            if size + shifted.size > r.order or not shifted.size:
                raise PcleanError(f"{r.name}: addition is not a group")
            mask[shifted] = True
            members[size : size + shifted.size] = shifted
            size += shifted.size
        seeds = seeds[1:][~mask[seeds[1:]]]
    return mask, new


def additive_closure_mask(r: RingTable, seeds) -> np.ndarray:
    """Boolean mask of the additive subgroup generated by `seeds`."""
    return _span(r, seeds)[0]


def subgroup_basis(r: RingTable, members) -> np.ndarray:
    """The members, in ascending order, that lie outside the span of the
    members before them: a small additive generating set of their span."""
    return np.asarray(_span(r, np.sort(np.asarray(members, np.int64).ravel()))[1], np.int64)


def ideal_closure_mask(r: RingTable, gens) -> np.ndarray:
    """Mask of the two-sided ideal generated by the given element indices:
    the span of g*x*h over x in gens and g, h among 1 and the additive
    generators."""
    G = np.append(np.asarray(r.additive_generators, np.int64), r.one)
    gens = np.asarray(gens, np.int64).ravel()
    return additive_closure_mask(r, r.vmul(r.vmul(G[:, None], gens[None, :]), G[:, None, None]))


# ---------------------------------------------------------------------------
# construction


# the rings build_ring or derived_ring handed out most recently, keyed by id
# (two distinct rings may share a name); this LRU is what keeps them alive.
# The verifier bounds what it holds itself: the rings one subject's checks
# first held leave when that subject is done (_release_new_holds).  For every
# other caller the LRU holds at most _RING_CACHE_MAX rings; a ring carries at
# most 4 MiB of dense tables (order <= DENSE_TABLE_LIMIT = 1024), so the held
# tables never exceed 192 MiB.
_RING_CACHE: OrderedDict[int, RingTable] = OrderedDict()
_RING_CACHE_MAX = 48
# every live ring handed out, so one evicted from the LRU but still
# referenced (say as the base of a derived ring) is not built a second time:
# build_ring's rings by canonical name, derived_ring's by (family, k,
# id(base)), which stays unique while the ring lives because it holds its base
_LIVE_RINGS: weakref.WeakValueDictionary[str | tuple, RingTable] = weakref.WeakValueDictionary()


def _hold(ring: RingTable) -> RingTable:
    """Mark `ring` most recently used in the LRU; past the count cap the
    oldest ring leaves."""
    _RING_CACHE[id(ring)] = ring
    _RING_CACHE.move_to_end(id(ring))
    if len(_RING_CACHE) > _RING_CACHE_MAX:
        _RING_CACHE.popitem(last=False)
    return ring


@contextmanager
def _release_new_holds():
    """Rings first held in the LRU inside the block leave it when the block
    ends, so those no caller references are freed; rings held before the
    block stay held."""
    keep = set(_RING_CACHE)
    try:
        yield
    finally:
        for key in [k for k in _RING_CACHE if k not in keep]:
            del _RING_CACHE[key]


def require_order(name: str, order: int, limit: int) -> None:
    """The one error of a ring over its limit, built or about to be derived:
    OrderLimitExceeded when the ring `name` of `order` elements exceeds `limit`."""
    if order > limit:
        raise OrderLimitExceeded(f"{name} has order {order} > limit {limit}")


def build_ring(spec, limit: int = DEFAULT_ORDER_LIMIT) -> RingTable:
    """Materialize a ring from a spec (or its text form), deterministically.

    A spec names one object while that object is alive.  Raises
    OrderLimitExceeded if the described order exceeds `limit`, and
    MalformedSpec for unparseable descriptors or quotient generators.
    """
    if isinstance(spec, str):
        spec = specs.parse_ring_spec(spec)
    name = specs.canon(spec)
    ring = _LIVE_RINGS.get(name)
    if ring is None:
        order = specs.spec_order(spec)
        if order > limit:
            raise OrderLimitExceeded(f"{name} describes order {order} > limit {limit}")
        ring = _LIVE_RINGS[name] = _make_ring(spec, name, limit)
    else:
        require_order(name, ring.order, limit)
    return _hold(ring)


def _make_ring(spec, name: str, limit: int) -> RingTable:
    if isinstance(spec, specs.FamilySpec):
        return derived_ring(spec.family, spec.k, build_ring(spec.base, limit))
    if isinstance(spec, specs.QuotientSpec):
        base = build_ring(spec.base, limit)
        gens = []
        for lit in spec.gens:
            try:
                gens.append(base.parse_element(lit).index)
            except MalformedSpec as exc:
                raise MalformedSpec(
                    f"quotient generator {lit!r} is not an element of {base.name}: {exc}"
                ) from exc
        mask = ideal_closure_mask(base, gens)
        return _quotient(base, mask, name, f"{name}: quotient collapses to the zero ring")
    if isinstance(spec, specs.ZnSpec):
        kernel = ZnKernel(spec.n)
    elif isinstance(spec, specs.QuadExtSpec):  # i^2 = -1, w^2 = -1 - w
        c1 = -1 if spec.symbol == "w" else 0
        kernel = QuadExtKernel(build_ring(specs.ZnSpec(spec.n), limit), -1, c1, spec.symbol)
    elif isinstance(spec, specs.ProductSpec):
        kernel = ProductKernel([build_ring(f, limit) for f in spec.factors])
    else:
        raise MalformedSpec(f"not a ring spec: {spec!r}")
    return RingTable(kernel, name)


_DERIVED_KERNELS = {k.family: k for k in (MatrixKernel, TriangularKernel, ConstDiagKernel)}


def derived_ring(family: str, k: int, base: RingTable) -> RingTable:
    """The one M_k(base), T_k(base) or Tc_k(base) ring (family "M", "T", "Tc").

    Registered in _LIVE_RINGS, so build_ring, matrix_ring, triangular_ring
    and the verifier share one object while it is alive; the LRU of
    build_ring keeps it alive.  No size cap: callers check the order first.
    """
    key = (family, k, id(base))
    ring = _LIVE_RINGS.get(key)
    if ring is None:
        kernel = _DERIVED_KERNELS[family](k, base)
        ring = _LIVE_RINGS[key] = RingTable(kernel, f"{family}{k}({base.name})")
    return _hold(ring)


def _quotient(r: RingTable, mask: np.ndarray, name: str, collapsed: str) -> RingTable:
    """The one constructor of quotient rings: r modulo the closed two-sided
    ideal `mask`; MalformedSpec(`collapsed`) when that ideal is all of r."""
    if mask.all():
        raise MalformedSpec(collapsed)
    return RingTable(QuotientKernel(r, np.flatnonzero(mask)), name)


def corner_ring(r: RingTable, f: int) -> tuple[RingTable, np.ndarray]:
    """The corner ring fRf for an idempotent f != 0, with its member indices."""
    if r.mul(f, f) != f:
        raise PreconditionFailed(f"{r.fmt_index(f)} is not idempotent in {r.name}")
    if f == r.zero:
        raise PreconditionFailed("the zero corner is the zero ring")
    members = np.unique(r.mul_col(f)[r.mul_row(f)])  # (f*y)*f for every y
    kernel = SubsetKernel(r, members, f)
    table = RingTable(kernel, f"{r.name}|{r.fmt_index(f)}")
    return table, kernel.members
