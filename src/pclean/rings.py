"""Finite unital rings materialized over a dense element index 0..|R|-1.

Rings of order <= DENSE_TABLE_LIMIT carry full Cayley tables (uint16); larger
rings compute on coordinates with identical observable behavior.  All bulk
operations are numpy-vectorized over index arrays.

Whole rows of a ring's Cayley tables come from one producer,
`RingTable.row_blocks`: slices of the dense table once it exists, else blocks
that digit kernels (the k x k families, product, Z_n[i] and Z_n[w]) build by
running their digit formulas over the base rings' own tables on an open mesh
of digits, and that the other kernels (Z_n, quotient, subset) build through
their vadd/vmul.  It has three consumers: the constructor, which encodes the
blocks in place into the uint16 tables of rings of order <=
DENSE_TABLE_LIMIT; the unit scan (`RingTable.unit_inverses`); and the Jacobson
scan (`radicals.jacobson_radical`).  `RingTable.mul_row` and
`RingTable.mul_col` are the single-row and single-column form of the same
producer and the only way to get one whole row or column: a slice of the
dense table, one evaluation of the same digit formulas with one operand's
digits as scalars and the other's on the mesh, or one vmul against every
index.

One kernel, `_MatrixFamilyKernel`, serves M_k, T_k and Tc_k: its identity
and product follow from `specs.positions`, which states once which entries
each family stores.  One kernel, `_RemapKernel`, serves quotient and subset
rings: their ops run in the base ring on member indices.

Every additive span is grown by one doubling step, `_extend`: it adds x to a
subgroup H by adding the shifted copy H + 2^k x for k = 0, 1, ... until no new
element appears, so a cyclic span of order m costs log2(m) vector ops.
Additive and ideal closures, subgroup bases, ideal products and powers fold
this step over their seeds, and quotient rings pick coset representatives
(least indices) by the same doubling over a basis of the ideal.

Every fact derived from a ring (idempotents, units, radicals, sweeps,
verdicts, criterion masks) has one slot in `RingTable.cache`, filled through
the one memo `cached`.

`RingTable` alone reads the dense tables: its vector ops return what the
table stores (uint16), or the kernel's result when it has none, and its
scalar ops are one lane of them.  A digit kernel's one codec
(`_DigitKernel.digits`/`encode`) runs one element on Python ints, so scalar
ops, fmt and mul_line build no digit table, and `matrices.Matrix2`, an
element of M2(R), costs microseconds per op even on M2(Z9[w]) (order 43M).
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import specs
from .errors import (
    MalformedSpec,
    MixedRingOperands,
    OrderLimitExceeded,
    PcleanError,
    PreconditionFailed,
    RingTooLarge,
)
from .specs import _Lit

DENSE_TABLE_LIMIT = 4096
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
    arrays alike, and ``row_blocks`` runs the same digit formulas on an open
    mesh to produce whole rows of the Cayley tables.

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
        self.order = math.prod(self.radices)
        self._digit_table = None
        self.zero = self.encode([p.zero for p in parts])

    def digits(self, a):
        """The digits of index a: Python ints by divmod for one integer, else
        an (npos,) + shape(a) gather from the digit table."""
        if isinstance(a, (int, np.integer)):
            a, out = int(a), []
            for rad in reversed(self.radices):
                a, d = divmod(a, rad)
                out.append(d)
            return out[::-1]
        if self._digit_table is None:
            dtype = np.min_scalar_type(max(self.radices) - 1)
            self._digit_table = np.indices(self.radices, dtype).reshape(self.npos, -1)
        # np.take gathers several times faster than fancy indexing table[:, a]
        return np.take(self._digit_table, a, axis=1)

    def encode(self, digits, out=None):
        """The index of a digit vector by Horner's rule: a Python int when
        every digit is one integer, else int64, written in place into `out`
        when given."""
        if out is not None:
            out[...] = digits[0]
        elif all(isinstance(d, (int, np.integer)) for d in digits):
            digits = [int(d) for d in digits]  # so uint16 digits never overflow
            out = digits[0]
        else:
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

    def mul_line(self, x, col: bool = False) -> np.ndarray:
        """x*y for every y (y*x with `col`) as int64: one evaluation of
        mul_digits with x's digits as scalars and y's on an open mesh, the
        formula and axis layout of row_blocks, encoded into an order-sized
        array."""
        dx = self.digits(int(x))
        dy = [_on_axis(j, np.arange(r), self.npos) for j, r in enumerate(self.radices)]
        digits = self.mul_digits(dy, dx) if col else self.mul_digits(dx, dy)
        return self.encode(digits, out=np.empty(self.radices, np.int64)).reshape(-1)

    def row_blocks(self, op: str, out=None):
        """Row blocks of the "add" or "mul" table from an open mesh of digits.

        Digit j of a varies on axis j and digit j of b on axis npos + j, so the
        digit formulas run on the base rings' tables and each intermediate
        spans only the axes its output digit reads.  Rows go in blocks aligned
        to a's leading digits, at most _CHUNK lanes each, and each block is
        encoded in place: into its slice of `out` when given, else into a new
        array of the smallest unsigned dtype that holds every index.
        """
        rad, npos, n = self.radices, self.npos, self.order
        op = self.add_digits if op == "add" else self.mul_digits
        db = [_on_axis(npos + j, np.arange(r), 2 * npos) for j, r in enumerate(rad)]
        # a block fixes a's digits before p-1, takes `run` consecutive values
        # of digit p-1 and lets digits p.. vary fully
        budget = max(1, _CHUNK // n)
        p, span = npos, 1
        while p > 1 and span * rad[p - 1] <= budget:
            p -= 1
            span *= rad[p]
        run = min(rad[p - 1], budget // span)
        tail = [_on_axis(j, np.arange(rad[j]), 2 * npos) for j in range(p, npos)]
        blocks = (
            list(lead)
            + [_on_axis(p - 1, np.arange(lo, min(lo + run, rad[p - 1])), 2 * npos)]
            + tail
            for lead in itertools.product(*map(range, rad[: p - 1]))
            for lo in range(0, rad[p - 1], run)
        )
        start = 0
        for da in blocks:
            a_shape = np.broadcast(*da, *db).shape[:npos]
            stop = start + math.prod(a_shape)
            shape, dtype = (stop - start, n), np.min_scalar_type(n - 1)
            block = np.empty(shape, dtype) if out is None else out[start:stop]
            # encode with b's axes merged into whole table rows: numpy
            # iterates a few long axes far faster than many short ones
            digits = [
                np.broadcast_to(d, d.shape[:npos] + tuple(rad))
                .astype(block.dtype, order="C")
                .reshape(d.shape[:npos] + (n,))
                for d in op(da, db)
            ]
            self.encode(digits, out=block.reshape(a_shape + (n,)))
            yield start, stop, block
            start = stop


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


@dataclass(frozen=True, eq=False)
class Element:
    ring: "RingTable"
    index: int

    def _check(self, other: "Element"):
        if other.ring is not self.ring:
            raise MixedRingOperands(
                f"cannot combine elements of {self.ring.name} and {other.ring.name}"
            )

    def __add__(self, other):
        self._check(other)
        return Element(self.ring, self.ring.add(self.index, other.index))

    def __sub__(self, other):
        self._check(other)
        return Element(self.ring, self.ring.sub(self.index, other.index))

    def __mul__(self, other):
        self._check(other)
        return Element(self.ring, self.ring.mul(self.index, other.index))

    def __neg__(self):
        return Element(self.ring, self.ring.neg(self.index))

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.ring is self.ring
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.ring), self.index))

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
            raise MalformedSpec(f"{name}: ring collapses to the zero ring (0 = 1)")
        self.cache: dict = {}
        self._add_t = self._mul_t = self._neg_t = None
        if self.order <= DENSE_TABLE_LIMIT:
            self._build_tables()

    def __repr__(self):
        return f"RingTable({self.name}, order={self.order})"

    def _build_tables(self):
        n = self.order
        add_t = np.empty((n, n), dtype=np.uint16)
        mul_t = np.empty((n, n), dtype=np.uint16)
        for op, table in (("add", add_t), ("mul", mul_t)):
            for _ in self.row_blocks(op, out=table):
                pass  # each block is written in place into its rows of table
        self._add_t, self._mul_t = add_t, mul_t
        self._neg_t = self.kernel.vneg(np.arange(n, dtype=np.int64)).astype(np.uint16)

    def row_blocks(self, op: str = "mul", out=None):
        """Yield (start, stop, block) with block[i, y] = (start + i) <op> y for
        op "mul" or "add", in ascending blocks of whole rows, at most _CHUNK
        entries each: slices of the dense table once it exists, else blocks
        built on the digit mesh of a digit kernel or by chunks of the kernel's
        vector op.  With `out`, an (n, n) array, each block is written into
        out[start:stop] and is that view."""
        n = self.order
        table = self._mul_t if op == "mul" else self._add_t
        if table is None and isinstance(self.kernel, _DigitKernel):
            yield from self.kernel.row_blocks(op, out)
            return
        vop = self.kernel.vmul if op == "mul" else self.kernel.vadd
        idx = np.arange(n, dtype=np.int64)
        rows = max(1, _CHUNK // n)
        for s in range(0, n, rows):
            t = min(s + rows, n)
            block = vop(idx[s:t, None], idx[None, :]) if table is None else table[s:t]
            if out is not None:
                out[s:t] = block
                block = out[s:t]
            yield s, t, block

    def mul_row(self, x: int) -> np.ndarray:
        """x*y for every y, as int64: row x of the multiplication table."""
        return self._mul_line(x, col=False)

    def mul_col(self, x: int) -> np.ndarray:
        """y*x for every y, as int64: column x of the multiplication table."""
        return self._mul_line(x, col=True)

    def _mul_line(self, x: int, col: bool) -> np.ndarray:
        # a slice of the dense table, one digit-mesh evaluation, or one vmul
        if self._mul_t is not None:
            return (self._mul_t[:, x] if col else self._mul_t[x]).astype(np.int64)
        if isinstance(self.kernel, _DigitKernel):
            return self.kernel.mul_line(x, col)
        idx, x = np.arange(self.order, dtype=np.int64), np.int64(x)
        return self.kernel.vmul(idx, x) if col else self.kernel.vmul(x, idx)

    # -- vector ops (index arrays in, index arrays out in the table's uint16
    # or the kernel's dtype)

    def vadd(self, a, b):
        return self.kernel.vadd(a, b) if self._add_t is None else self._add_t[a, b]

    def vmul(self, a, b):
        return self.kernel.vmul(a, b) if self._mul_t is None else self._mul_t[a, b]

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
        """m * 1 computed by double-and-add, safe in any characteristic."""
        neg = m < 0
        m = abs(m)
        acc, base = self.zero, self.one
        while m:
            if m & 1:
                acc = self.add(acc, base)
            base = self.add(base, base)
            m >>= 1
        return self.neg(acc) if neg else acc

    # -- cached structure

    @property
    def idempotent_mask(self) -> np.ndarray:
        def scan():
            mask = np.zeros(self.order, dtype=bool)
            for s in range(0, self.order, _CHUNK):
                idx = np.arange(s, min(s + _CHUNK, self.order), dtype=np.int64)
                mask[idx] = self.vmul(idx, idx) == idx
            return mask

        return cached(self, "idempotent_mask", scan)

    @property
    def idempotent_indices(self) -> np.ndarray:
        return cached(self, "idempotent_indices", lambda: np.flatnonzero(self.idempotent_mask))

    @property
    def unit_mask(self) -> np.ndarray:
        """Units: the x with a two-sided inverse."""
        return cached(self, "unit_mask", lambda: self.unit_inverses >= 0)

    @property
    def unit_inverses(self) -> np.ndarray:
        """x^-1 at index x for every unit x, -1 for non-units, by one scan:
        the least y with x*y = 1 = y*x is x's inverse."""

        def scan():
            if self.order > UNIT_SCAN_LIMIT:
                raise RingTooLarge(
                    f"unit enumeration needs order <= {UNIT_SCAN_LIMIT}, "
                    f"{self.name} has {self.order}"
                )
            xs, ys = [], []
            for start, _, block in self.row_blocks():
                xi, y = np.nonzero(block == self.one)
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

    def element(self, i: int) -> Element:
        if not 0 <= i < self.order:
            raise PreconditionFailed(f"index {i} out of range for {self.name}")
        return Element(self, i)

    def fmt_index(self, i: int) -> str:
        return self.kernel.fmt(int(i))

    def parse_element(self, text: str) -> Element:
        lit = _Lit(text)
        idx = self.kernel.parse_literal(lit)
        lit.skip_ws()
        if lit.pos != len(lit.text):
            raise MalformedSpec(f"trailing input in element literal {text!r}", lit.pos)
        return Element(self, int(idx))

    def elements(self):
        return (Element(self, i) for i in range(self.order))


# ---------------------------------------------------------------------------
# additive / ideal closures (shared by quotients and the radical machinery)


def _extend(r: RingTable, mask: np.ndarray, x: int) -> bool:
    """Grow the additive subgroup `mask` in place to mask + <x> by doubling;
    True if x was not already in it."""
    if mask[x]:
        return False
    step = x
    while True:
        shifted = r.vadd(np.flatnonzero(mask), np.int64(step))
        if mask[shifted].all():
            return True
        mask[shifted] = True
        step = r.add(step, step)


def _span(r: RingTable, seeds) -> tuple[np.ndarray, list[int]]:
    """Fold _extend over `seeds` in order: the mask of their span and the
    seeds that were new.  Seeds already in the span are dropped in bulk."""
    mask = np.zeros(r.order, dtype=bool)
    mask[r.zero] = True
    new = []
    seeds = np.asarray(seeds, np.int64).ravel()
    while seeds.size:
        if _extend(r, mask, int(seeds[0])):
            new.append(int(seeds[0]))
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
# It holds at most _RING_CACHE_MAX rings and, among them, dense tables of at
# most _RING_CACHE_BYTES: an order-4096 ring carries 64 MB of tables, and 192
# MB keeps the 129 MB of tables that warm element queries cycle through.
_RING_CACHE: OrderedDict[int, RingTable] = OrderedDict()
_RING_CACHE_MAX = 48
_RING_CACHE_BYTES = 192 << 20
_held_bytes = 0  # dense-table bytes of the rings in _RING_CACHE
# every live ring build_ring has made, so one evicted from the LRU but still
# referenced (say as the base of a derived ring) is not built a second time
_LIVE_RINGS: weakref.WeakValueDictionary[str, RingTable] = weakref.WeakValueDictionary()


def _table_bytes(ring: RingTable) -> int:
    return 0 if ring._add_t is None else ring._add_t.nbytes + ring._mul_t.nbytes


def _hold(ring: RingTable) -> RingTable:
    """Mark `ring` most recently used in the LRU.  Past the count cap the
    oldest ring leaves; past the byte budget the oldest rings that carry
    tables leave, never `ring` itself."""
    global _held_bytes
    if id(ring) not in _RING_CACHE:
        _held_bytes += _table_bytes(ring)
    _RING_CACHE[id(ring)] = ring
    _RING_CACHE.move_to_end(id(ring))
    if len(_RING_CACHE) > _RING_CACHE_MAX:
        _held_bytes -= _table_bytes(_RING_CACHE.popitem(last=False)[1])
    while _held_bytes > _RING_CACHE_BYTES:
        key = next((k for k, r in _RING_CACHE.items() if r is not ring and _table_bytes(r)), None)
        if key is None:
            break
        _held_bytes -= _table_bytes(_RING_CACHE.pop(key))
    return ring


def _clear_ring_cache() -> None:
    """Empty the LRU, so rings no caller references are freed."""
    global _held_bytes
    _RING_CACHE.clear()
    _held_bytes = 0


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
    elif ring.order > limit:
        raise OrderLimitExceeded(f"{name} has order {ring.order} > limit {limit}")
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

    Memoized in base.cache, so build_ring, matrix_ring and triangular_ring
    share one object while it is alive; the LRU of build_ring keeps it alive.
    The memo is a weak reference because the ring holds its base (as
    kernel.base): a strong one would make a cycle that only the cyclic
    garbage collector frees.  No size cap: callers check the order first.
    """
    key = ("derived", family, k)
    ref = base.cache.get(key)
    ring = None if ref is None else ref()
    if ring is None:
        ring = RingTable(_DERIVED_KERNELS[family](k, base), f"{family}{k}({base.name})")
        base.cache[key] = weakref.ref(ring)
    return _hold(ring)


def _quotient(r: RingTable, mask: np.ndarray, name: str, collapsed: str) -> RingTable:
    """The one constructor of quotient rings: r modulo the closed two-sided
    ideal `mask`; MalformedSpec(`collapsed`) when that ideal is all of r."""
    if mask.all():
        raise MalformedSpec(collapsed)
    return RingTable(QuotientKernel(r, np.flatnonzero(mask)), name)


def quotient_ring(r: RingTable, gens) -> tuple[RingTable, np.ndarray]:
    """Quotient of r by the two-sided ideal generated by `gens`.

    Returns the quotient table and the projection array (base index ->
    quotient index).  gens may be Elements of r or raw indices.
    """
    idxs = [g.index if isinstance(g, Element) else int(g) for g in gens]
    lits = ",".join(r.fmt_index(i) for i in idxs) if idxs else "0"
    table = _quotient(
        r, ideal_closure_mask(r, idxs), f"{r.name}/({lits})",
        f"quotient of {r.name} collapses to the zero ring",
    )
    return table, table.kernel.pos_of[table.kernel.rep_of]


def units(r: RingTable) -> list[Element]:
    """Exact unit set by exhaustive scan (both-sided inverses)."""
    return [Element(r, int(i)) for i in r.unit_indices]


def idempotents(r: RingTable) -> list[Element]:
    return [Element(r, int(i)) for i in r.idempotent_indices]


def is_commutative(r: RingTable) -> bool:
    return r.commutative


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
