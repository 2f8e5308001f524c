"""Decision procedures for 2x2 matrices over commutative local rings.

A `Matrix2` is an element of M2(R) (`rings.derived_ring("M", 2, R)`): its +,
- and * are that ring's add, sub and mul (tables or the one-element codec).
Covers the quadratic-root criterion, the A - A^2 radical-membership test,
the definitional idempotent scan (the three come from `pclean_criteria`,
which the classifier cross-checks and replay re-evaluates), explicit
diagonal and companion similarity witnesses, the Sylvester-style phi-map
solver for triangular matrices, and the discriminant records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radicals
from .decompositions import (
    STRONGLY_P_CLEAN,
    CleanCertificate,
    _index_of,
    strongly_pclean_element,
    strongly_pi_regular_element,
)
from .errors import (
    CriterionMismatch,
    HypothesisViolated,
    MixedRingOperands,
    NotCommutative,
    NotInvertible,
    NotLocal,
    PcleanError,
    PreconditionFailed,
    TrivialIdempotent,
)
from .rings import DEFAULT_ORDER_LIMIT, RingTable, cached, derived_ring
from .specs import derived_order

IN_P = "IN_P"
ONE_MINUS_IN_P = "ONE_MINUS_IN_P"
SPLIT = "SPLIT"
NOT_PCLEAN = "NOT_PCLEAN"

CLASS_P = "P"
CLASS_ONE_PLUS_P = "1+P"
CLASS_OTHER = "OTHER"


class Matrix2:
    """A 2x2 matrix over a commutative base ring `ring`: its element `index` of
    M2(ring), whose ring operations are its +, - and *.  The object holds m2,
    the index and the entries a11..a22, so no attribute access decodes."""

    __slots__ = ("ring", "m2", "index", "a11", "a12", "a21", "a22")

    def __init__(self, r: RingTable, a11: int, a12: int, a21: int, a22: int):
        entries, m2 = (a11, a12, a21, a22), derived_ring("M", 2, r)
        if min(entries) < 0 or max(entries) >= r.order:  # else the index would alias
            raise PreconditionFailed(f"matrix entries {entries} are not indices of {r.name}")
        self._view(m2, m2.kernel.encode(entries))

    def _view(self, m2: RingTable, index: int) -> "Matrix2":
        self.ring, self.m2, self.index = m2.kernel.base, m2, int(index)
        self.a11, self.a12, self.a21, self.a22 = m2.kernel.digits(self.index)
        return self

    @classmethod
    def parse(cls, r: RingTable, text: str) -> "Matrix2":
        m2 = derived_ring("M", 2, r)
        return matrix_from_index(m2, m2.parse_element(text).index)

    @classmethod
    def identity(cls, r: RingTable) -> "Matrix2":
        return cls(r, r.one, r.zero, r.zero, r.one)

    @classmethod
    def zero(cls, r: RingTable) -> "Matrix2":
        return cls(r, r.zero, r.zero, r.zero, r.zero)

    @classmethod
    def diag(cls, r: RingTable, x: int, y: int) -> "Matrix2":
        return cls(r, x, r.zero, r.zero, y)

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def _combine(self, op, other: "Matrix2") -> "Matrix2":
        if other.m2 is not self.m2:
            raise MixedRingOperands(f"cannot combine {self.m2.name} and {other.m2.name}")
        return matrix_from_index(self.m2, op(self.index, other.index))

    def __add__(self, other: "Matrix2") -> "Matrix2":
        return self._combine(self.m2.add, other)

    def __sub__(self, other: "Matrix2") -> "Matrix2":
        return self._combine(self.m2.sub, other)

    def __mul__(self, other: "Matrix2") -> "Matrix2":
        return self._combine(self.m2.mul, other)

    def __neg__(self) -> "Matrix2":
        return matrix_from_index(self.m2, self.m2.neg(self.index))

    @property
    def trace(self) -> int:
        return self.ring.add(self.a11, self.a22)

    @property
    def det(self) -> int:
        r = self.ring
        return r.sub(r.mul(self.a11, self.a22), r.mul(self.a12, self.a21))

    def inverse(self) -> "Matrix2":
        r = self.ring
        dinv = r.inverse(self.det)
        if dinv is None:
            raise NotInvertible(f"matrix {self} has non-unit determinant")
        adj = Matrix2(r, self.a22, r.neg(self.a12), r.neg(self.a21), self.a11)
        return Matrix2.diag(r, dinv, dinv) * adj

    def is_upper_triangular(self) -> bool:
        return self.a21 == self.ring.zero

    def __eq__(self, other):
        return isinstance(other, Matrix2) and other.m2 is self.m2 and other.index == self.index

    def __hash__(self):
        return hash((id(self.m2), self.index))

    def __repr__(self):
        return self.m2.fmt_index(self.index)


@dataclass(frozen=True)
class SimilarityWitness:
    """H with H A H^-1 equal to the tagged target form, bit-exact."""

    conjugator: Matrix2
    inverse: Matrix2
    form: str  # "DIAGONAL" | "COMPANION"
    lam: int
    mu: int

    def target(self) -> Matrix2:
        r = self.conjugator.ring
        if self.form == "DIAGONAL":
            return Matrix2.diag(r, self.lam, self.mu)
        return Matrix2(r, r.zero, self.lam, r.one, self.mu)

    def validate(self, A: Matrix2) -> bool:
        ident = Matrix2.identity(A.ring)
        if self.conjugator * self.inverse != ident:
            return False
        if self.inverse * self.conjugator != ident:
            return False
        return self.conjugator * A * self.inverse == self.target()


# ---------------------------------------------------------------------------
# M2(r) / T2(r) as rings, with cached criteria masks


def matrix_ring(r: RingTable, limit: int = DEFAULT_ORDER_LIMIT * 1024) -> RingTable:
    """M2(r), the same object as build_ring("M2(<r>)") gives."""
    if derived_order("M", 2, r.order) > limit:
        raise PreconditionFailed(f"M2({r.name}) exceeds the materialization limit {limit}")
    return derived_ring("M", 2, r)


def triangular_ring(r: RingTable, k: int = 2, limit: int = DEFAULT_ORDER_LIMIT) -> RingTable:
    """T_k(r), the same object as build_ring("T<k>(<r>)") gives."""
    if derived_order("T", k, r.order) > limit:
        raise PreconditionFailed(f"T{k}({r.name}) exceeds the materialization limit {limit}")
    return derived_ring("T", k, r)


def matrix_to_index(m2: RingTable, A: Matrix2) -> int:
    return m2.kernel.encode(A.entries())


def matrix_from_index(m2: RingTable, idx: int) -> Matrix2:
    return Matrix2.__new__(Matrix2)._view(m2, idx)


def _require_commutative(r: RingTable):
    if not r.commutative:
        raise NotCommutative(f"{r.name} is not commutative")


def _require_local(r: RingTable):
    if not radicals.is_local(r):
        raise NotLocal(f"{r.name} is not local")


def m2_invariants(m2: RingTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(entries, trace, det, disc) of every matrix of M2(r), as base indices.

    entries has shape (4, |M2(r)|) in row-major order; disc = tr^2 - 4 det.
    """

    def make():
        base = m2.kernel.base
        d = m2.kernel.digits(np.arange(m2.order, dtype=np.int64))
        tr = base.vadd(d[0], d[3])
        det = base.vsub(base.vmul(d[0], d[3]), base.vmul(d[1], d[2]))
        four = np.int64(base.embed_int(4))
        disc = base.vsub(base.vmul(tr, tr), base.vmul(four, det))
        return (d, tr, det, disc)

    return cached(m2, "m2_invariants", make)


def entries_in_p_mask(m2: RingTable) -> np.ndarray:
    """Mask over M2(r) of matrices with every entry in P(r)."""

    def make():
        pm = radicals.prime_radical(m2.kernel.base).mask
        return pm[m2_invariants(m2)[0]].all(axis=0)

    return cached(m2, "entries_in_p", make)


def one_minus_in_p_mask(m2: RingTable) -> np.ndarray:
    """Mask over M2(r) of matrices A with I - A in M2(P(r))."""

    def make():
        idx = np.arange(m2.order, dtype=np.int64)
        return entries_in_p_mask(m2)[m2.vsub(np.int64(m2.one), idx)]

    return cached(m2, "one_minus_in_p", make)


def diff_in_p_mask(m2: RingTable) -> np.ndarray:
    """Criterion A - A^2 in M2(P(r)), vectorized over the whole matrix ring."""

    def make():
        idx = np.arange(m2.order, dtype=np.int64)
        return entries_in_p_mask(m2)[m2.vsub(idx, m2.vmul(idx, idx))]

    return cached(m2, "diff_in_p", make)


def root_pair_table(r: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """For every (t, d): does x^2 - t x + d = 0 have a root in P / in 1+P."""

    def make():
        n = r.order
        idx = np.arange(n, dtype=np.int64)
        xx = r.vmul(idx, idx)
        # zero[x, t, d] <=> x^2 - t*x + d = 0
        quad = r.vsub(xx[:, None], r.vmul(idx[None, :], idx[:, None]))  # (x, t)
        zero = r.vadd(quad[:, :, None], idx[None, None, :]) == r.zero  # (x, t, d)
        has_p = np.tensordot(radicals.prime_radical(r).mask.astype(np.int64), zero, axes=1) > 0
        has_1p = np.tensordot(radicals.one_plus_p_mask(r).astype(np.int64), zero, axes=1) > 0
        return (has_p, has_1p)

    return cached(r, "root_pair_table", make)


def roots_criterion_mask(m2: RingTable) -> np.ndarray:
    """Trichotomy (3): in M2(P), or I - A in M2(P), or a root in P and in 1+P."""

    def make():
        has_p, has_1p = root_pair_table(m2.kernel.base)
        _, tr, det, _ = m2_invariants(m2)
        return entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | (has_p[tr, det] & has_1p[tr, det])

    return cached(m2, "roots_criterion", make)


def definitional_mask(m2: RingTable) -> np.ndarray:
    """Idempotent-scan verdicts over the whole matrix ring."""
    from .decompositions import strongly_pclean_mask

    return strongly_pclean_mask(m2)


# ---------------------------------------------------------------------------
# single-matrix operations


def quadratic_roots(r: RingTable, t, d) -> list[tuple[int, str]]:
    """All x with x^2 - t x + d = 0, classified against P(r)."""
    _require_commutative(r)
    return _roots(r, _index_of(r, t), _index_of(r, d))


def _roots(r: RingTable, t: int, d: int) -> list[tuple[int, str]]:
    idx = np.arange(r.order, dtype=np.int64)
    val = r.vadd(r.vsub(r.vmul(idx, idx), r.mul_row(t)), np.int64(d))
    pm, onep = radicals.prime_radical(r).mask, radicals.one_plus_p_mask(r)
    return [
        (int(x), CLASS_P if pm[x] else CLASS_ONE_PLUS_P if onep[x] else CLASS_OTHER)
        for x in np.flatnonzero(val == r.zero)
    ]


def _in_p(M: Matrix2) -> bool:
    """Every entry of M lies in P(r)."""
    pm = radicals.prime_radical(M.ring).mask
    return bool(all(pm[e] for e in M.entries()))


@dataclass
class Classification:
    kind: str  # IN_P | ONE_MINUS_IN_P | SPLIT | NOT_PCLEAN
    criteria: dict
    certificate: CleanCertificate | None  # lives in M2(r)
    witness: SimilarityWitness | None
    roots: list


def pclean_criteria(A: Matrix2) -> dict:
    """The three criteria for A: (i) the idempotent scan in M2(r), (ii) A - A^2
    in M2(P(r)), (iii) A or I - A in M2(P(r)), or roots of the characteristic
    polynomial in P and in 1+P.  Raises nothing: no hypothesis or agreement
    is tested, so replay can evaluate it where the criteria disagree."""
    return _criteria(A)[0]


def _criteria(A: Matrix2) -> tuple[dict, CleanCertificate | None, list]:
    """pclean_criteria(A), the scan's certificate, and the roots."""
    r = A.ring
    m2 = matrix_ring(r)
    if m2.order <= DEFAULT_ORDER_LIMIT:
        # P(M2(r)) once per base ring serves the scan of every later matrix
        radicals.prime_radical(m2)
    cert = strongly_pclean_element(m2, A.index)[0]
    roots = _roots(r, A.trace, A.det)
    trivial = _in_p(A) or _in_p(Matrix2.identity(r) - A)
    criteria = {
        "idempotent_scan": cert is not None,
        "difference_in_radical": _in_p(A - A * A),
        "quadratic_roots": trivial or {CLASS_P, CLASS_ONE_PLUS_P} <= {c for _, c in roots},
    }
    return criteria, cert, roots


def classify_pclean_2x2(A: Matrix2) -> Classification:
    """Evaluate the three criteria of `pclean_criteria` for A and cross-check:
    disagreement raises CriterionMismatch."""
    r = A.ring
    _require_commutative(r)
    _require_local(r)
    criteria, cert, roots = _criteria(A)
    if len(set(criteria.values())) > 1:
        raise CriterionMismatch(f"criteria disagree for {A} over {r.name}: {criteria}")
    witness = None
    if cert is None:
        kind = NOT_PCLEAN
    elif _in_p(A):
        kind = IN_P
    elif _in_p(Matrix2.identity(r) - A):
        kind = ONE_MINUS_IN_P
    else:
        kind = SPLIT
        witness = diagonalize_split(A, cert)
    return Classification(kind, criteria, cert, witness, roots)


def diagonalize_split(A: Matrix2, cert: CleanCertificate) -> SimilarityWitness:
    """Conjugate a split strongly P-clean matrix to diag(1 + v11, v22).

    Over a commutative local ring the image of a nontrivial idempotent E is
    free of rank 1, and so is that of I - E.  A column of E and one of I - E,
    each with a unit entry, form an invertible G, and G^-1 A G is diagonal
    with entries in 1+P and P; PcleanError if it is not (bug trap).
    """
    r = A.ring
    _require_commutative(r)
    _require_local(r)
    m2 = matrix_ring(r)
    E = matrix_from_index(m2, cert.idempotent)
    ident = Matrix2.identity(r)
    if E == Matrix2.zero(r) or E == ident:
        raise TrivialIdempotent(f"idempotent {E} cannot be split-diagonalized")

    pm, onep = radicals.prime_radical(r).mask, radicals.one_plus_p_mask(r)
    units = r.unit_mask

    def unit_column(M: Matrix2):
        for col in ((M.a11, M.a21), (M.a12, M.a22)):
            if units[col[0]] or units[col[1]]:
                return col
        return None

    u = unit_column(E)
    dcol = unit_column(ident - E)
    if u is not None and dcol is not None:
        G = Matrix2(r, u[0], dcol[0], u[1], dcol[1])
        if r.is_unit(G.det):
            H = G.inverse()
            C = H * A * G
            if C.a12 == r.zero and C.a21 == r.zero and onep[C.a11] and pm[C.a22]:
                w = SimilarityWitness(H, G, "DIAGONAL", C.a11, C.a22)
                if w.validate(A):
                    return w
    raise PcleanError(f"no diagonalizing conjugator found for {A} over {r.name}")


def companion_form(r: RingTable, alpha, beta) -> SimilarityWitness:
    """The explicit transvection product taking diag(alpha, beta) to its
    companion matrix [[0, -alpha*beta], [1, alpha+beta]].

    The product is evaluated verbatim in its non-commutative order so the
    displayed identity itself is regression-tested; pre: alpha - beta a unit.
    """
    _require_commutative(r)
    alpha, beta = _index_of(r, alpha), _index_of(r, beta)
    dinv = r.inverse(r.sub(alpha, beta))
    if dinv is None:
        raise NotInvertible(f"alpha - beta is not a unit in {r.name}")
    delta = r.sub(alpha, beta)

    def b12(x):
        return Matrix2(r, r.one, x, r.zero, r.one)

    def b21(x):
        return Matrix2(r, r.one, r.zero, x, r.one)

    c = r.mul(alpha, dinv)
    H = Matrix2.diag(r, delta, r.one) * b12(r.neg(c)) * b21(r.one)
    Hinv = b21(r.neg(r.one)) * b12(c) * Matrix2.diag(r, dinv, r.one)
    D = Matrix2.diag(r, alpha, beta)
    C = H * D * Hinv

    # non-commutative forms from the displayed product, then simplified
    lam_nc = r.neg(r.mul(r.mul(r.mul(delta, alpha), dinv), beta))
    mu_nc = r.add(r.mul(r.mul(delta, alpha), dinv), beta)
    lam = r.neg(r.mul(alpha, beta))
    mu = r.add(alpha, beta)
    if (lam, mu) != (lam_nc, mu_nc):
        raise PcleanError("commutative simplification of the companion parameters failed")
    expected = Matrix2(r, r.zero, lam, r.one, mu)
    if C != expected or H * Hinv != Matrix2.identity(r):
        raise PcleanError(f"transvection product identity failed over {r.name}")
    return SimilarityWitness(H, Hinv, "COMPANION", lam, mu)


def solve_phi(r: RingTable, a, b, v) -> int:
    """x = sum a^-(k+1) v b^k solving a x - x b = v (a a unit, b nilpotent)."""
    a, b, v = _index_of(r, a), _index_of(r, b), _index_of(r, v)
    ainv = r.inverse(a)
    if ainv is None:
        raise PreconditionFailed(f"{r.fmt_index(a)} is not a unit in {r.name}")
    m = radicals.element_nilpotency(r, b)
    if m is None:
        raise PreconditionFailed(f"{r.fmt_index(b)} is not nilpotent in {r.name}")
    x = r.zero
    left = ainv
    right = r.one  # b^k
    for _ in range(m):
        x = r.add(x, r.mul(r.mul(left, v), right))
        left = r.mul(left, ainv)
        right = r.mul(right, b)
    if r.sub(r.mul(a, x), r.mul(x, b)) != v:
        raise PcleanError("phi-map solution failed its defining identity")
    return x


def triangular_pclean(
    r: RingTable, a, b, v, limit: int = DEFAULT_ORDER_LIMIT
) -> CleanCertificate | None:
    """Strong P-cleanness of [[a, v], [0, b]] in T2(r) by the diagonal rule.

    Returns a full certificate in the T2(r) ring (idempotent built through the
    phi-map in the mixed cases), or None when a or b avoids P and 1+P.
    """
    _require_local(r)
    a, b, v = _index_of(r, a), _index_of(r, b), _index_of(r, v)
    pm, onep = radicals.prime_radical(r).mask, radicals.one_plus_p_mask(r)
    if not ((pm[a] or onep[a]) and (pm[b] or onep[b])):
        return None
    if pm[a] and pm[b]:
        e11, e12, e22 = r.zero, r.zero, r.zero
    elif onep[a] and onep[b]:
        e11, e12, e22 = r.one, r.zero, r.one
    elif onep[a] and pm[b]:
        x = solve_phi(r, a, b, v)
        e11, e12, e22 = r.one, x, r.zero
    else:
        y = solve_phi(r, b, a, v)
        e11, e12, e22 = r.zero, y, r.one
    t2 = triangular_ring(r, 2, limit)
    aidx, eidx = t2.kernel.encode([a, v, b]), t2.kernel.encode([e11, e12, e22])
    widx = t2.sub(aidx, eidx)
    ok, witness = radicals.is_strongly_nilpotent(t2, widx)
    if not ok:
        raise PcleanError("triangular certificate remainder escaped P(T2)")
    cert = CleanCertificate(STRONGLY_P_CLEAN, t2, aidx, eidx, widx, witness)
    if not cert.validate():
        raise PcleanError("triangular certificate failed validation")
    return cert


@dataclass
class DiscriminantRecord:
    trace: int
    det: int
    in_p: bool
    one_minus_in_p: bool
    trace_in_one_plus_p: bool
    disc: int  # tr^2 - 4 det
    square_witnesses: list  # u in 1+P with u^2 = disc
    ratio_roots_in_p: list  # roots in P of x^2 - x + det/tr^2 = 0 (tr a unit)
    half: int | None  # 2^-1 when 2 is a unit
    half_roots: tuple | None  # (1/2(tr - u), 1/2(tr + u)) for the least witness


def discriminant_criteria(A: Matrix2) -> DiscriminantRecord:
    """Evaluate the published trace/determinant conditions with witnesses."""
    r = A.ring
    _require_commutative(r)
    _require_local(r)
    pm, onep = radicals.prime_radical(r).mask, radicals.one_plus_p_mask(r)
    tr, det = A.trace, A.det
    four = r.embed_int(4)
    disc = r.sub(r.mul(tr, tr), r.mul(four, det))
    idx = np.arange(r.order, dtype=np.int64)
    squares = r.vmul(idx, idx)
    sq_witnesses = [int(u) for u in np.flatnonzero(onep & (squares == disc))]

    ratio_roots = []
    trinv = r.inverse(tr)
    if trinv is not None:
        c = r.mul(det, r.mul(trinv, trinv))
        val = r.vadd(r.vsub(squares, idx), np.int64(c))  # x^2 - x + det/tr^2
        ratio_roots = [int(x) for x in np.flatnonzero((val == r.zero) & pm)]

    half = r.inverse(r.embed_int(2))
    half_roots = None
    if half is not None and sq_witnesses:
        u = sq_witnesses[0]
        half_roots = (r.mul(half, r.sub(tr, u)), r.mul(half, r.add(tr, u)))

    return DiscriminantRecord(
        trace=tr,
        det=det,
        in_p=_in_p(A),
        one_minus_in_p=_in_p(Matrix2.identity(r) - A),
        trace_in_one_plus_p=bool(onep[tr]),
        disc=disc,
        square_witnesses=sq_witnesses,
        ratio_roots_in_p=ratio_roots,
        half=half,
        half_roots=half_roots,
    )


UNIT = "UNIT"
NILPOTENT = "NILPOTENT"
PCLEAN = "PCLEAN"
NOT_PI_REGULAR = "NOT_PI_REGULAR"


def pi_regular_trichotomy(A: Matrix2) -> str:
    """Classify A as UNIT / NILPOTENT / PCLEAN under R/J = Z_2, J nilpotent.

    The verdict is asserted against the strong pi-regularity of A computed in
    M2(r) from its definition.
    """
    r = A.ring
    _require_commutative(r)
    if not radicals.residue_is_z2(r):
        raise HypothesisViolated(
            f"{r.name} needs R/J(R) = Z_2 with J(R) nilpotent for the trichotomy"
        )
    m2 = matrix_ring(r)
    if r.is_unit(A.det):
        kind = UNIT
    elif radicals.element_nilpotency(m2, A.index) is not None:
        kind = NILPOTENT
    else:
        kind = PCLEAN if classify_pclean_2x2(A).kind != NOT_PCLEAN else NOT_PI_REGULAR
    pi_reg, _, _ = strongly_pi_regular_element(m2, A.index)
    if pi_reg != (kind != NOT_PI_REGULAR):
        raise CriterionMismatch(
            f"pi-regular trichotomy disagrees with the definitional scan for {A}"
        )
    return kind
