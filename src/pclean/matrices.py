"""Decision procedures for 2x2 matrices over commutative local rings.

A `Matrix2` is an element of M2(R) (`rings.derived_ring("M", 2, R)`): its +,
- and * are that ring's add, sub and mul (tables or the one-element codec).
Each criterion is one formula of a matrix index or an index array alike
(`entries_in_p`, `one_minus_in_p`, `diff_in_p`, `roots_criterion`); its
whole-ring mask is its value at every index, cached on M2(R), and a matrix
query evaluates it at its own index.  The base-ring formulas that the
criteria, the discriminant records and the verifier's M2 and T2 sides share
live here once as well.  Also: the definitional idempotent scan (the third
criterion the classifier cross-checks), the diagonal similarity witness of a
split matrix and the Sylvester-style phi-map solver for triangular matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radicals
from .decompositions import (
    STRONGLY_P_CLEAN,
    CleanCertificate,
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
from .rings import DEFAULT_ORDER_LIMIT, RingTable, cached, derived_ring, require_order
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
        return int(invariants(self.ring, *self.entries())[0])

    @property
    def det(self) -> int:
        return int(invariants(self.ring, *self.entries())[1])

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


def matrix_ring(r: RingTable, limit: int = DEFAULT_ORDER_LIMIT) -> RingTable:
    """M2(r), the same object as build_ring("M2(<r>)") gives."""
    require_order(f"M2({r.name})", derived_order("M", 2, r.order), limit)
    return derived_ring("M", 2, r)


def triangular_ring(r: RingTable, k: int = 2, limit: int = DEFAULT_ORDER_LIMIT) -> RingTable:
    """T_k(r), the same object as build_ring("T<k>(<r>)") gives."""
    require_order(f"T{k}({r.name})", derived_order("T", k, r.order), limit)
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


def invariants(r: RingTable, a11, a12, a21, a22):
    """(tr, det, disc = tr^2 - 4 det) of [[a11, a12], [a21, a22]] over r, for
    indices or index arrays alike: the one formula of each."""
    tr = r.vadd(a11, a22)
    det = r.vsub(r.vmul(a11, a22), r.vmul(a12, a21))
    return tr, det, r.vsub(r.vmul(tr, tr), r.vmul(r.embed_int(4), det))


def quadratic(r: RingTable, x, t, d):
    """x^2 - t x + d over r, for indices or index arrays alike."""
    return r.vadd(r.vsub(r.vmul(x, x), r.vmul(t, x)), d)


def m2_invariants(m2: RingTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(entries, trace, det, disc) of every matrix of M2(r), as base indices.

    entries has shape (4, |M2(r)|) in row-major order; disc = tr^2 - 4 det.
    """

    def make():
        d = m2.kernel.digits(np.arange(m2.order, dtype=np.int64))
        return (d, *invariants(m2.kernel.base, *d))

    return cached(m2, "m2_invariants", make)


def quadratic_zeros(r: RingTable) -> np.ndarray:
    """zero[x, t, d]: x^2 - t x + d = 0 in r, for every x, t and d."""

    def make():
        idx = np.arange(r.order, dtype=np.int64)
        return quadratic(r, idx[:, None, None], idx[None, :, None], idx[None, None, :]) == r.zero

    return cached(r, "quadratic_zeros", make)


def root_pair_table(r: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """For every (t, d): does x^2 - t x + d = 0 have a root in P / in 1+P."""

    def make():
        zero = quadratic_zeros(r)
        has_p = np.tensordot(radicals.prime_radical(r).mask.astype(np.int64), zero, axes=1) > 0
        has_1p = np.tensordot(radicals.one_plus_p_mask(r).astype(np.int64), zero, axes=1) > 0
        return (has_p, has_1p)

    return cached(r, "root_pair_table", make)


def squares_of_one_plus_p(r: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """Per y: whether y = u^2 for some u in 1+P, and the least such u (else -1)."""
    u = np.flatnonzero(radicals.one_plus_p_mask(r))
    y, first = np.unique(r.squares[u], return_index=True)
    least = np.full(r.order, -1, dtype=np.int64)
    least[y] = u[first]
    return least >= 0, least


def trace_ratio(r: RingTable, tr, det):
    """det / tr^2 over r (arbitrary where tr is no unit), for indices or index arrays alike."""
    return r.vmul(det, r.unit_inverses[r.vmul(tr, tr)] % r.order)


def half_roots(r: RingTable, half, tr, u):
    """((tr - u) / 2, (tr + u) / 2) over r, half = 2^-1, for indices or index
    arrays alike: with u^2 = disc, the roots of x^2 - tr x + det."""
    return r.vmul(half, r.vsub(tr, u)), r.vmul(half, r.vadd(tr, u))


def diagonal_in_p_or_1p(r: RingTable, a, b):
    """T2(r)'s diagonal rule: a and b each in P(r) or in 1+P(r), for indices or index arrays alike."""
    p_or_1p = radicals.prime_radical(r).mask | radicals.one_plus_p_mask(r)
    return p_or_1p[a] & p_or_1p[b]


def entries_in_p(m2: RingTable, x):
    """Every entry of x in P(r): x in M2(P(r))."""
    return radicals.prime_radical(m2.kernel.base).mask[m2.kernel.digits(x)].all(axis=0)


def one_minus_in_p(m2: RingTable, x):
    """I - x in M2(P(r))."""
    return entries_in_p(m2, m2.vsub(m2.one, x))


def diff_in_p(m2: RingTable, x):
    """x - x^2 in M2(P(r))."""
    return entries_in_p(m2, m2.vsub(x, m2.vmul(x, x)))


def roots_criterion(m2: RingTable, x):
    """Trichotomy (3): x in M2(P), or I - x in M2(P), or x^2 - tr x + det has
    a root in P and a root in 1+P."""
    has_p, has_1p = root_pair_table(m2.kernel.base)
    tr, det, _ = invariants(m2.kernel.base, *m2.kernel.digits(x))
    return entries_in_p(m2, x) | one_minus_in_p(m2, x) | (has_p[tr, det] & has_1p[tr, det])


def _whole_ring(criterion):
    """The whole-ring mask of `criterion`: its value at every index of M2(r),
    cached on M2(r) under the criterion's name."""

    def mask(m2: RingTable) -> np.ndarray:
        return cached(m2, criterion.__name__, lambda: criterion(m2, np.arange(m2.order, dtype=np.int64)))

    mask.__name__ = mask.__qualname__ = f"{criterion.__name__}_mask"
    return mask


entries_in_p_mask = _whole_ring(entries_in_p)
one_minus_in_p_mask = _whole_ring(one_minus_in_p)
diff_in_p_mask = _whole_ring(diff_in_p)
roots_criterion_mask = _whole_ring(roots_criterion)


def trivial_or_mask(m2: RingTable, branch: np.ndarray) -> np.ndarray:
    """Mask over M2(r): A in M2(P(r)), or I - A in M2(P(r)), or `branch`."""
    return entries_in_p_mask(m2) | one_minus_in_p_mask(m2) | branch


def definitional_mask(m2: RingTable) -> np.ndarray:
    """Idempotent-scan verdicts over the whole matrix ring."""
    from .decompositions import strongly_pclean_mask

    return strongly_pclean_mask(m2)


# ---------------------------------------------------------------------------
# single-matrix operations


def _roots(r: RingTable, t: int, d: int) -> list[tuple[int, str]]:
    pm, onep = radicals.prime_radical(r).mask, radicals.one_plus_p_mask(r)
    return [
        (x, CLASS_P if pm[x] else CLASS_ONE_PLUS_P if onep[x] else CLASS_OTHER)
        for x in np.flatnonzero(quadratic_zeros(r)[:, t, d]).tolist()
    ]


@dataclass
class Classification:
    kind: str  # IN_P | ONE_MINUS_IN_P | SPLIT | NOT_PCLEAN
    criteria: dict
    certificate: CleanCertificate | None  # lives in M2(r)
    witness: SimilarityWitness | None
    roots: list


def classify_pclean_2x2(A: Matrix2) -> Classification:
    """Evaluate the three criteria for A and cross-check: (i) the idempotent
    scan in M2(r), (ii) `diff_in_p`, (iii) `roots_criterion`; disagreement
    raises CriterionMismatch."""
    r, m2, x = A.ring, A.m2, A.index
    _require_commutative(r)
    _require_local(r)
    cert = strongly_pclean_element(m2, x)[0]
    criteria = {
        "idempotent_scan": cert is not None,
        "difference_in_radical": bool(diff_in_p(m2, x)),
        "quadratic_roots": bool(roots_criterion(m2, x)),
    }
    if len(set(criteria.values())) > 1:
        raise CriterionMismatch(f"criteria disagree for {A} over {r.name}: {criteria}")
    witness = None
    if cert is None:
        kind = NOT_PCLEAN
    elif entries_in_p(m2, x):
        kind = IN_P
    elif one_minus_in_p(m2, x):
        kind = ONE_MINUS_IN_P
    else:
        kind = SPLIT
        witness = diagonalize_split(A, cert)
    return Classification(kind, criteria, cert, witness, _roots(r, A.trace, A.det))


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
    E = matrix_from_index(A.m2, cert.idempotent)
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


def solve_phi(r: RingTable, a: int, b: int, v: int) -> int:
    """x = sum a^-(k+1) v b^k solving a x - x b = v (a a unit, b nilpotent)."""
    a, b, v = int(a), int(b), int(v)
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
    r: RingTable, a: int, b: int, v: int, limit: int = DEFAULT_ORDER_LIMIT
) -> CleanCertificate | None:
    """Strong P-cleanness of [[a, v], [0, b]] in T2(r) by the diagonal rule.

    Returns a full certificate in the T2(r) ring (idempotent built through the
    phi-map in the mixed cases), or None when a or b avoids P and 1+P.
    """
    _require_local(r)
    a, b, v = int(a), int(b), int(v)
    if not diagonal_in_p_or_1p(r, a, b):
        return None
    pm, onep = radicals.prime_radical(r).mask, radicals.one_plus_p_mask(r)
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
    tr, det, disc = map(int, invariants(r, *A.entries()))
    sq_witnesses = np.flatnonzero(onep & (r.squares == disc)).tolist()
    ratio_roots = []
    if r.is_unit(tr):  # roots in P of x^2 - x + det/tr^2
        ratio_roots = np.flatnonzero(quadratic_zeros(r)[:, r.one, trace_ratio(r, tr, det)] & pm).tolist()
    half = r.inverse(r.embed_int(2))
    roots = None
    if half is not None and sq_witnesses:
        roots = tuple(map(int, half_roots(r, half, tr, sq_witnesses[0])))
    return DiscriminantRecord(
        trace=tr,
        det=det,
        in_p=bool(entries_in_p(A.m2, A.index)),
        one_minus_in_p=bool(one_minus_in_p(A.m2, A.index)),
        trace_in_one_plus_p=bool(onep[tr]),
        disc=disc,
        square_witnesses=sq_witnesses,
        ratio_roots_in_p=ratio_roots,
        half=half,
        half_roots=roots,
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
    m2 = A.m2
    if r.is_unit(A.det):
        kind = UNIT
    elif radicals.element_nilpotency(m2, A.index) is not None:
        kind = NILPOTENT
    else:
        kind = PCLEAN if strongly_pclean_element(m2, A.index)[0] is not None else NOT_PI_REGULAR
    pi_reg, _, _ = strongly_pi_regular_element(m2, A.index)
    if pi_reg != (kind != NOT_PI_REGULAR):
        raise CriterionMismatch(
            f"pi-regular trichotomy disagrees with the definitional scan for {A}"
        )
    return kind
