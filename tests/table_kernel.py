"""Test fixture: a ring kernel backed by explicit Cayley tables."""

import numpy as np

from pclean.errors import MalformedSpec
from pclean.rings import RingTable, build_ring


class TableKernel:
    """A ring given by explicit addition/multiplication tables.

    Implements the kernel interface a RingTable reads (order, zero, one, vadd,
    vneg, vmul, additive_generators, fmt, parse_literal), so tests can wrap
    hand-made or deliberately broken tables in a RingTable.
    """

    def __init__(self, add_table, mul_table, zero: int, one: int, labels=None):
        self.add_table = np.asarray(add_table, np.int64)
        self.mul_table = np.asarray(mul_table, np.int64)
        self.order = self.add_table.shape[0]
        self.zero = zero
        self.one = one
        self.labels = list(labels) if labels else [str(i) for i in range(self.order)]
        neg = np.full(self.order, -1, dtype=np.int64)
        rows, cols = np.nonzero(self.add_table == zero)
        neg[rows] = cols
        self._neg = neg

    def vadd(self, a, b):
        return self.add_table[np.asarray(a, np.int64), np.asarray(b, np.int64)]

    def vneg(self, a):
        return self._neg[np.asarray(a, np.int64)]

    def vmul(self, a, b):
        return self.mul_table[np.asarray(a, np.int64), np.asarray(b, np.int64)]

    def additive_generators(self):
        return None

    def fmt(self, idx: int) -> str:
        return self.labels[idx]

    def parse_literal(self, lit) -> int:
        start = lit.pos
        while lit.pos < len(lit.text) and lit.text[lit.pos] not in ",;])":
            lit.pos += 1
        tok = lit.text[start : lit.pos].strip()
        try:
            return self.labels.index(tok)
        except ValueError:
            raise MalformedSpec(f"unknown element label {tok!r}", start) from None


def corrupted(spec: str, op: str, row: int, col: int, val: int, name: str | None = None) -> RingTable:
    """The Cayley tables of the ring `spec` with op[row][col] = val, where op
    is "mul" or "add", as a TableKernel ring with numeric labels."""
    r = build_ring(spec)
    idx = np.arange(r.order, dtype=np.int64)
    tables = {f: np.array(vop(idx[:, None], idx[None, :]), np.int64)
              for f, vop in (("add", r.vadd), ("mul", r.vmul))}
    tables[op][row, col] = val
    name = name or f"{r.name}{op}{row},{col}:{val}"
    return RingTable(TableKernel(tables["add"], tables["mul"], zero=r.zero, one=r.one), name)


def corrupted_zn(row: int, col: int, val: int, name: str, n: int = 4, op: str = "mul") -> RingTable:
    """Z_n's tables (Z4 unless n is given) with op[row][col] = val, where op
    is "mul" or "add"."""
    return corrupted(f"Z{n}", op, row, col, val, name)
