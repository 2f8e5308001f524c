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

Five spec types describe every ring: ZnSpec, QuadExtSpec (Z_n[i], Z_n[w]),
ProductSpec, FamilySpec (M, T, Tc; `positions` gives their stored entries)
and QuotientSpec.  `_Lit` is the one cursor over specs and element literals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedSpec


@dataclass(frozen=True)
class ZnSpec:
    n: int


@dataclass(frozen=True)
class QuadExtSpec:
    n: int
    symbol: str  # "i" (i^2 = -1) or "w" (w^2 + w + 1 = 0)


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple


@dataclass(frozen=True)
class FamilySpec:
    family: str  # "M", "T" or "Tc"
    k: int
    base: object


@dataclass(frozen=True)
class QuotientSpec:
    base: object
    gens: tuple  # element literals, parsed in the base ring


RingSpec = ZnSpec | QuadExtSpec | ProductSpec | FamilySpec | QuotientSpec


def positions(family: str, k: int) -> dict[tuple[int, int], int]:
    """The digit of each stored entry (i, j) of a k x k matrix in the family
    "M" (all matrices), "T" (upper triangular) or "Tc" (upper triangular,
    constant diagonal), numbered row-major; entries left out are 0 and the
    diagonal of "Tc" shares digit 0."""
    pos: dict[tuple[int, int], int] = {}
    for i in range(k):
        for j in range(0 if family == "M" else i, k):
            pos[i, j] = 0 if family == "Tc" and 0 < i == j else len(set(pos.values()))
    return pos


def derived_order(family: str, k: int, base_order: int) -> int:
    """Order of the k x k `family` ring over a base of that order: one base
    digit per stored position."""
    return base_order ** len(set(positions(family, k).values()))


def spec_order(spec) -> int:
    """Order of the described ring, computed without materializing it.

    For quotients this is an upper bound (the base order); the true order
    divides it and is only known once the ideal is closed.
    """
    if isinstance(spec, ZnSpec):
        return spec.n
    if isinstance(spec, QuadExtSpec):
        return spec.n * spec.n
    if isinstance(spec, ProductSpec):
        p = 1
        for f in spec.factors:
            p *= spec_order(f)
        return p
    if isinstance(spec, FamilySpec):
        return derived_order(spec.family, spec.k, spec_order(spec.base))
    if isinstance(spec, QuotientSpec):
        return spec_order(spec.base)
    raise MalformedSpec(f"not a ring spec: {spec!r}")


def canon(spec) -> str:
    """Canonical text form; parse(canon(s)) == s."""
    if isinstance(spec, ZnSpec):
        return f"Z{spec.n}"
    if isinstance(spec, QuadExtSpec):
        return f"Z{spec.n}[{spec.symbol}]"
    if isinstance(spec, ProductSpec):
        parts = []
        for f in spec.factors:
            s = canon(f)
            parts.append(f"({s})" if isinstance(f, (ProductSpec, QuotientSpec)) else s)
        return "x".join(parts)
    if isinstance(spec, FamilySpec):
        return f"{spec.family}{spec.k}({canon(spec.base)})"
    if isinstance(spec, QuotientSpec):
        base = canon(spec.base)
        if isinstance(spec.base, (ProductSpec, QuotientSpec)):
            base = f"({base})"
        return f"{base}/({','.join(spec.gens)})"
    raise MalformedSpec(f"not a ring spec: {spec!r}")


class _Lit:
    """Cursor over a ring spec or an element literal that skips whitespace;
    offsets refer to the text it was given."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        if self.peek() != ch:
            raise MalformedSpec(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        tok = self.text[start : self.pos]
        if not tok or tok in "+-":
            raise MalformedSpec("expected an integer", start)
        return int(tok)


def parse_ring_spec(text: str):
    """Parse a ring descriptor; raises MalformedSpec with the offset in `text`."""
    kept = [i for i, ch in enumerate(text) if not ch.isspace()]
    stripped = "".join(text[i] for i in kept)
    if not stripped:
        raise MalformedSpec("empty ring spec", 0)
    sc = _Lit(stripped)
    try:
        spec = _parse_product(sc)
        if sc.pos != len(stripped):
            raise MalformedSpec(f"trailing input {stripped[sc.pos:]!r}", sc.pos)
    except MalformedSpec as exc:
        # the cursor saw the text without whitespace: map back to `text`
        at = kept[exc.offset] if exc.offset < len(kept) else len(text)
        raise MalformedSpec(exc.reason, at) from None
    return spec


def _size(sc: _Lit) -> int:
    # moduli and matrix sizes are unsigned; signs belong to element literals
    if not sc.peek().isdecimal():
        raise MalformedSpec("expected an integer", sc.pos)
    return sc.parse_int()


def _parse_product(sc: _Lit):
    factors = [_parse_term(sc)]
    while sc.peek().lower() == "x":
        sc.take()
        factors.append(_parse_term(sc))
    if len(factors) == 1:
        return factors[0]
    return ProductSpec(tuple(factors))


def _parse_term(sc: _Lit):
    spec = _parse_atom(sc)
    while sc.peek() == "/":
        sc.take()
        sc.expect("(")
        gens = _parse_generator_list(sc)
        sc.expect(")")
        spec = QuotientSpec(spec, tuple(gens))
    return spec


def _parse_generator_list(sc: _Lit) -> list[str]:
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


def _parse_atom(sc: _Lit):
    ch = sc.peek().lower()
    if ch == "(":
        sc.take()
        spec = _parse_product(sc)
        sc.expect(")")
        return spec
    if ch == "z":
        sc.take()
        n = _size(sc)
        if n < 2:
            raise MalformedSpec("modulus must be >= 2", sc.pos)
        if sc.peek() == "[":
            sc.take()
            sym = sc.take().lower()
            sc.expect("]")
            if sym not in ("i", "w"):
                raise MalformedSpec(f"unknown adjoined symbol {sym!r}", sc.pos - 2)
            return QuadExtSpec(n, sym)
        return ZnSpec(n)
    if ch and ch in "tm":  # "" is in every string
        sc.take()
        family = ch.upper()
        if family == "T" and sc.peek().lower() == "c":
            sc.take()
            family = "Tc"
        k = _size(sc)
        if k < 1:
            raise MalformedSpec("matrix size must be >= 1", sc.pos)
        sc.expect("(")
        base = _parse_product(sc)
        sc.expect(")")
        return FamilySpec(family, k, base)
    if not ch:
        raise MalformedSpec("unexpected end of spec", sc.pos)
    raise MalformedSpec(f"unexpected character {sc.peek()!r}", sc.pos)
