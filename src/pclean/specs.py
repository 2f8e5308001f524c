"""Ring descriptors and the text grammar that names them.

Grammar (case-insensitive, whitespace ignored)::

    Z4              integers mod 4
    Z8[i]           Z_8 adjoin i, i^2 = -1
    Z9[w]           Z_9 adjoin w, w^2 + w + 1 = 0
    M2(Z4)          2x2 matrices over Z_4
    T2(Z2)          upper triangular 2x2 matrices over Z_2
    Tc3(Z4)         upper triangular 3x3 with constant diagonal
    Z4xZ2           direct product
    Z4/(2)          quotient by the two-sided ideal generated by the listed
                    element literals (literals use the base ring's element syntax)

A quotient suffix binds to the term directly before it; parenthesize to
quotient a product, e.g. ``(Z4xZ2)/([2,0])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .errors import MalformedSpec


@dataclass(frozen=True)
class ZnSpec:
    n: int


@dataclass(frozen=True)
class GaussianSpec:
    n: int


@dataclass(frozen=True)
class EisensteinSpec:
    n: int


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple


@dataclass(frozen=True)
class MatrixSpec:
    k: int
    base: object
    family: ClassVar[str] = "M"


@dataclass(frozen=True)
class TriangularSpec:
    k: int
    base: object
    family: ClassVar[str] = "T"


@dataclass(frozen=True)
class ConstDiagSpec:
    k: int
    base: object
    family: ClassVar[str] = "Tc"


@dataclass(frozen=True)
class QuotientSpec:
    base: object
    gens: tuple  # element literals, parsed in the base ring


RingSpec = (
    ZnSpec
    | GaussianSpec
    | EisensteinSpec
    | ProductSpec
    | MatrixSpec
    | TriangularSpec
    | ConstDiagSpec
    | QuotientSpec
)
_DERIVED = (MatrixSpec, TriangularSpec, ConstDiagSpec)


def derived_order(family: str, k: int, base_order: int) -> int:
    """Order of the k x k family "M" (all matrices), "T" (upper triangular)
    or "Tc" (upper triangular, constant diagonal) over a base of that order:
    one base digit per free position."""
    positions = {"M": k * k, "T": k * (k + 1) // 2, "Tc": 1 + k * (k - 1) // 2}
    return base_order ** positions[family]


def spec_order(spec) -> int:
    """Order of the described ring, computed without materializing it.

    For quotients this is an upper bound (the base order); the true order
    divides it and is only known once the ideal is closed.
    """
    if isinstance(spec, ZnSpec):
        return spec.n
    if isinstance(spec, (GaussianSpec, EisensteinSpec)):
        return spec.n * spec.n
    if isinstance(spec, ProductSpec):
        p = 1
        for f in spec.factors:
            p *= spec_order(f)
        return p
    if isinstance(spec, _DERIVED):
        return derived_order(spec.family, spec.k, spec_order(spec.base))
    if isinstance(spec, QuotientSpec):
        return spec_order(spec.base)
    raise MalformedSpec(f"not a ring spec: {spec!r}")


def canon(spec) -> str:
    """Canonical text form; parse(canon(s)) == s."""
    if isinstance(spec, ZnSpec):
        return f"Z{spec.n}"
    if isinstance(spec, GaussianSpec):
        return f"Z{spec.n}[i]"
    if isinstance(spec, EisensteinSpec):
        return f"Z{spec.n}[w]"
    if isinstance(spec, ProductSpec):
        parts = []
        for f in spec.factors:
            s = canon(f)
            parts.append(f"({s})" if isinstance(f, (ProductSpec, QuotientSpec)) else s)
        return "x".join(parts)
    if isinstance(spec, _DERIVED):
        return f"{spec.family}{spec.k}({canon(spec.base)})"
    if isinstance(spec, QuotientSpec):
        base = canon(spec.base)
        if isinstance(spec.base, (ProductSpec, QuotientSpec)):
            base = f"({base})"
        return f"{base}/({','.join(spec.gens)})"
    raise MalformedSpec(f"not a ring spec: {spec!r}")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        if self.peek().lower() != ch:
            raise MalformedSpec(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise MalformedSpec("expected an integer", self.pos)
        return int(self.text[start : self.pos])


def parse_ring_spec(text: str):
    """Parse a ring descriptor; raises MalformedSpec with the offset in `text`."""
    kept = [i for i, ch in enumerate(text) if not ch.isspace()]
    stripped = "".join(text[i] for i in kept)
    if not stripped:
        raise MalformedSpec("empty ring spec", 0)
    sc = _Scanner(stripped)
    try:
        spec = _parse_product(sc)
        if sc.pos != len(stripped):
            raise MalformedSpec(f"trailing input {stripped[sc.pos:]!r}", sc.pos)
    except MalformedSpec as exc:
        # the scanner saw the text without whitespace: map back to `text`
        at = kept[exc.offset] if exc.offset < len(kept) else len(text)
        raise MalformedSpec(exc.reason, at) from None
    return spec


def _parse_product(sc: _Scanner):
    factors = [_parse_term(sc)]
    while sc.peek().lower() == "x":
        sc.take()
        factors.append(_parse_term(sc))
    if len(factors) == 1:
        return factors[0]
    return ProductSpec(tuple(factors))


def _parse_term(sc: _Scanner):
    spec = _parse_atom(sc)
    while sc.peek() == "/":
        sc.take()
        sc.expect("(")
        gens = _parse_generator_list(sc)
        sc.expect(")")
        spec = QuotientSpec(spec, tuple(gens))
    return spec


def _parse_generator_list(sc: _Scanner) -> list[str]:
    # Element literals may contain brackets/parens and commas inside them;
    # split on top-level commas only.
    gens = []
    depth = 0
    start = sc.pos
    while True:
        ch = sc.peek()
        if not ch:
            raise MalformedSpec("unterminated generator list", sc.pos)
        if ch in "([":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ")":
            if depth == 0:
                break
            depth -= 1
        elif ch == "," and depth == 0:
            gens.append(sc.text[start : sc.pos])
            sc.take()
            start = sc.pos
            continue
        sc.take()
    gens.append(sc.text[start : sc.pos])
    if any(not g for g in gens):
        raise MalformedSpec("empty generator literal", start)
    return gens


def _parse_atom(sc: _Scanner):
    ch = sc.peek().lower()
    if ch == "(":
        sc.take()
        spec = _parse_product(sc)
        sc.expect(")")
        return spec
    if ch == "z":
        sc.take()
        n = sc.integer()
        if n < 2:
            raise MalformedSpec("modulus must be >= 2", sc.pos)
        if sc.peek() == "[":
            sc.take()
            sym = sc.take().lower()
            sc.expect("]")
            if sym == "i":
                return GaussianSpec(n)
            if sym == "w":
                return EisensteinSpec(n)
            raise MalformedSpec(f"unknown adjoined symbol {sym!r}", sc.pos - 2)
        return ZnSpec(n)
    if ch == "t":
        sc.take()
        const_diag = False
        if sc.peek().lower() == "c":
            sc.take()
            const_diag = True
        k = sc.integer()
        if k < 1:
            raise MalformedSpec("matrix size must be >= 1", sc.pos)
        sc.expect("(")
        base = _parse_product(sc)
        sc.expect(")")
        return ConstDiagSpec(k, base) if const_diag else TriangularSpec(k, base)
    if ch == "m":
        sc.take()
        k = sc.integer()
        if k < 1:
            raise MalformedSpec("matrix size must be >= 1", sc.pos)
        sc.expect("(")
        base = _parse_product(sc)
        sc.expect(")")
        return MatrixSpec(k, base)
    raise MalformedSpec(f"unexpected character {sc.peek()!r}", sc.pos)
