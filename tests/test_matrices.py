import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pclean import matrices
from pclean import radicals as rad
from pclean.decompositions import strongly_pclean_element
from pclean.errors import (
    NotCommutative,
    NotInvertible,
    NotLocal,
    OrderLimitExceeded,
    PcleanError,
    PreconditionFailed,
    TrivialIdempotent,
)
from pclean.matrices import (
    IN_P,
    NOT_PCLEAN,
    ONE_MINUS_IN_P,
    SPLIT,
    Matrix2,
    SimilarityWitness,
    classify_pclean_2x2,
    diagonalize_split,
    diff_in_p_mask,
    definitional_mask,
    discriminant_criteria,
    entries_in_p_mask,
    m2_invariants,
    matrix_from_index,
    matrix_ring,
    matrix_to_index,
    one_minus_in_p_mask,
    pi_regular_trichotomy,
    roots_criterion_mask,
    solve_phi,
    triangular_pclean,
    triangular_ring,
)
from pclean.rings import build_ring, derived_ring

from oracles import M2Oracle


def test_quadratic_roots_examples():
    assert quadratic_roots(build_ring("Z8"), 3, 4) == [(4, "P"), (7, "1+P")]
    assert quadratic_roots(build_ring("Z4"), 1, 0) == [(0, "P"), (1, "1+P")]
    assert quadratic_roots(build_ring("Z2"), 0, 1) == [(1, "1+P")]


def test_quadratic_roots_requires_commutative():
    r = build_ring("T2(Z2)")
    with pytest.raises(NotCommutative):
        quadratic_roots(r, r.zero, r.zero)


def test_classify_requires_local():
    r = build_ring("Z6")
    with pytest.raises(NotLocal):
        classify_pclean_2x2(Matrix2.identity(r))


def test_classify_worked_example():
    r = build_ring("Z4")
    A = Matrix2.parse(r, "[1,2;2,2]")
    res = classify_pclean_2x2(A)
    assert res.kind == SPLIT
    assert all(res.criteria.values())
    assert repr(A - A * A) == "[0,0;0,2]"
    assert res.certificate.validate()
    assert res.witness.validate(A)
    # the paper's own decomposition also re-validates
    E = Matrix2.parse(r, "[1,2;2,0]")
    W = Matrix2.parse(r, "[0,0;0,2]")
    assert E * E == E and A == E + W and E * W == W * E


def test_classify_split_over_z8():
    r = build_ring("Z8")
    res = classify_pclean_2x2(Matrix2.parse(r, "[1,2;3,2]"))
    assert res.kind == SPLIT
    assert {c for _, c in res.roots} == {"P", "1+P"}


def test_classify_not_pclean():
    r = build_ring("Z4")
    res = classify_pclean_2x2(Matrix2.parse(r, "[0,1;1,0]"))
    assert res.kind == NOT_PCLEAN and res.certificate is None


def test_classify_trivial_classes():
    r = build_ring("Z4")
    assert classify_pclean_2x2(Matrix2.parse(r, "[2,0;2,2]")).kind == IN_P
    assert classify_pclean_2x2(Matrix2.parse(r, "[3,0;2,1]")).kind == ONE_MINUS_IN_P


def test_criteria_agree_everywhere_over_z4():
    m2 = build_ring("M2(Z4)")
    masks = [definitional_mask(m2), diff_in_p_mask(m2), roots_criterion_mask(m2)]
    assert np.array_equal(masks[0], masks[1])
    assert np.array_equal(masks[0], masks[2])


def test_split_witnesses_bit_exact_over_z4():
    r = build_ring("Z4")
    m2 = matrix_ring(r)
    pm = rad.prime_radical(r).mask
    split_count = 0
    for idx in range(m2.order):
        A = matrix_from_index(m2, idx)
        res = classify_pclean_2x2(A)
        if res.kind != SPLIT:
            continue
        split_count += 1
        w = res.witness
        assert w.validate(A)
        D = w.conjugator * A * w.inverse
        assert D.a12 == r.zero and D.a21 == r.zero
        assert pm[r.sub(D.a11, r.one)] and pm[D.a22]
    assert split_count > 0


def test_diagonalize_identity_is_trivial():
    r = build_ring("Z4")
    A = Matrix2.diag(r, r.one, r.zero)
    cert, _ = strongly_pclean_element(matrix_ring(r), matrix_to_index(matrix_ring(r), A))
    w = diagonalize_split(A, cert)
    assert w.validate(A) and (w.lam, w.mu) == (r.one, r.zero)
    assert w.conjugator == Matrix2.identity(r)


def test_diagonalize_rejects_trivial_idempotent():
    r = build_ring("Z4")
    m2 = matrix_ring(r)
    A = Matrix2.parse(r, "[2,0;0,2]")  # in M2(P), certificate uses E = 0
    cert, _ = strongly_pclean_element(m2, matrix_to_index(m2, A))
    with pytest.raises(TrivialIdempotent):
        diagonalize_split(A, cert)


def test_paper_conjugation_identity():
    # [[1,0],[1,1]] * [[0,0],[1,1]] * [[1,0],[-1,1]] = [[0,0],[0,1]]
    r = build_ring("Z4")
    L = Matrix2.parse(r, "[1,0;1,1]")
    E = Matrix2.parse(r, "[0,0;1,1]")
    Rm = Matrix2.parse(r, "[1,0;3,1]")
    assert L * E * Rm == Matrix2.parse(r, "[0,0;0,1]")
    # and the split machinery diagonalizes that idempotent exactly
    res = classify_pclean_2x2(E)
    assert res.kind == SPLIT
    assert res.witness.validate(E)
    assert {res.witness.lam, res.witness.mu} == {r.zero, r.one}


def quadratic_roots(r, t: int, d: int) -> list[tuple[int, str]]:
    """All x with x^2 - t x + d = 0 in the commutative ring r, classified against P(r)."""
    matrices._require_commutative(r)
    return matrices._roots(r, int(t), int(d))


def companion_form(r, alpha: int, beta: int) -> SimilarityWitness:
    """The explicit transvection product taking diag(alpha, beta) to its
    companion matrix [[0, -alpha*beta], [1, alpha+beta]].

    The product is evaluated verbatim in its non-commutative order so the
    displayed identity itself is regression-tested; pre: alpha - beta a unit.
    """
    if not r.commutative:
        raise NotCommutative(f"{r.name} is not commutative")
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


def test_companion_form_examples():
    z4 = build_ring("Z4")
    w = companion_form(z4, 1, 0)
    assert repr(w.target()) == "[0,0;1,1]"
    z8 = build_ring("Z8")
    w8 = companion_form(z8, 1, 2)
    assert repr(w8.target()) == "[0,6;1,3]"
    D = Matrix2.diag(z8, 1, 2)
    assert w8.validate(D)
    assert w8.target().trace == D.trace and w8.target().det == D.det


def test_companion_round_trip_classifies_split():
    z8 = build_ring("Z8")
    w = companion_form(z8, 3, 2)  # alpha in 1+P, beta in P
    res = classify_pclean_2x2(w.target())
    assert res.kind == SPLIT
    assert {x for x, c in res.roots if c == "P"} == {2}
    assert {x for x, c in res.roots if c == "1+P"} == {3}


def test_companion_requires_unit_difference():
    z4 = build_ring("Z4")
    with pytest.raises(NotInvertible):
        companion_form(z4, 3, 1)  # 3 - 1 = 2 is not a unit


def test_solve_phi_examples():
    z4 = build_ring("Z4")
    assert solve_phi(z4, 3, 2, 1) == 1
    z8 = build_ring("Z8")
    assert solve_phi(z8, 3, 2, 5) == 5
    r = build_ring("Z9")
    assert solve_phi(r, 1, 0, 7) == 7  # a = 1, b = 0 gives x = v


def test_solve_phi_preconditions():
    z4 = build_ring("Z4")
    with pytest.raises(PreconditionFailed):
        solve_phi(z4, 2, 2, 1)  # a not a unit
    with pytest.raises(PreconditionFailed):
        solve_phi(z4, 3, 1, 1)  # b not nilpotent


def test_solve_phi_totality_small():
    for name in ("Z4", "Z9[w]"):
        r = build_ring(name)
        pm = rad.prime_radical(r).mask
        one_plus = [x for x in range(r.order) if pm[r.sub(x, r.one)]]
        nil = [x for x in range(r.order) if pm[x]]
        for a in one_plus:
            for b in nil:
                for v in range(0, r.order, max(1, r.order // 9)):
                    x = solve_phi(r, a, b, v)
                    assert r.sub(r.mul(a, x), r.mul(x, b)) == v


def test_triangular_pclean_certificates():
    z4 = build_ring("Z4")
    cert = triangular_pclean(z4, 3, 2, 1)
    t2 = cert.ring
    assert t2.fmt_index(cert.idempotent) == "[1,1;0,0]"
    assert t2.fmt_index(cert.remainder) == "[2,0;0,2]"
    assert cert.validate()

    z9 = build_ring("Z9")
    cert9 = triangular_pclean(z9, 1, 1, 5)
    assert cert9.ring.fmt_index(cert9.idempotent) == "[1,0;0,1]"

    # symmetric mixed case uses the lower-right idempotent
    certm = triangular_pclean(z4, 2, 3, 1)
    assert certm.ring.fmt_index(certm.idempotent).startswith("[0,")
    assert certm.validate()


def test_triangular_pclean_eisenstein():
    e9 = build_ring("Z9[w]")
    a = e9.parse_element("1-w").index  # in P
    one = e9.one
    cert = triangular_pclean(e9, a, one, e9.parse_element("5+2w").index, limit=540_000)
    assert cert is not None and cert.validate()
    w_el = e9.parse_element("w").index  # w avoids P and 1+P is false: w in 1+P
    assert triangular_pclean(e9, e9.parse_element("2w").index, one, 0, limit=540_000) is None
    cert_w = triangular_pclean(e9, w_el, a, 3, limit=540_000)
    assert cert_w is not None and cert_w.validate()


def test_triangular_pclean_keeps_the_t2_order_cap():
    # the CLI reports this error as the triangular-rule note
    with pytest.raises(OrderLimitExceeded, match=r"^T2\(Z64\) has order 262144 > limit 65536$"):
        triangular_pclean(build_ring("Z64"), 1, 0, 0)


def test_triangular_matches_t2_scan_over_z4():
    from pclean.decompositions import strongly_pclean_mask

    r = build_ring("Z4")
    t2 = triangular_ring(r, 2)
    mask = strongly_pclean_mask(t2)
    pm = rad.prime_radical(r).mask
    onep = pm[r.vsub(np.arange(r.order, dtype=np.int64), np.int64(r.one))]
    for idx in range(t2.order):
        d = t2.kernel.digits(np.int64(idx))
        a, v, b = int(d[0]), int(d[1]), int(d[2])
        cert = triangular_pclean(r, a, b, v)
        assert (cert is not None) == bool(mask[idx])
        assert (cert is not None) == bool(
            (pm[a] or onep[a]) and (pm[b] or onep[b])
        )


def test_discriminant_worked_example():
    r = build_ring("Z4")
    rec = discriminant_criteria(Matrix2.parse(r, "[1,2;2,2]"))
    assert rec.trace == 3 and rec.det == 2
    assert rec.disc == 1 and rec.trace_in_one_plus_p
    assert rec.square_witnesses == [1, 3]
    assert rec.ratio_roots_in_p == [2]
    assert rec.half is None  # 2 is not a unit mod 4


def test_discriminant_half_roots_z9():
    r = build_ring("Z9")
    A = Matrix2.parse(r, "[1,3;3,3]")
    res = classify_pclean_2x2(A)
    rec = discriminant_criteria(A)
    if res.kind == SPLIT:
        x1, x2 = rec.half_roots
        pm = rad.prime_radical(r).mask
        assert pm[x1] and pm[r.sub(x2, r.one)]
        for x in (x1, x2):
            assert r.add(r.sub(r.mul(x, x), r.mul(rec.trace, x)), rec.det) == r.zero


def test_example_5_3_family_over_z4_and_z8():
    for name in ("Z4", "Z8"):
        r = build_ring(name)
        pm = rad.prime_radical(r).mask
        onep = pm[r.vsub(np.arange(r.order, dtype=np.int64), np.int64(r.one))]
        squares_1p = {r.mul(u, u) for u in map(int, np.flatnonzero(onep))}
        for p in map(int, np.flatnonzero(pm)):
            for q in range(r.order):
                A = Matrix2(r, r.add(p, r.one), p, q, p)
                lhs = classify_pclean_2x2(A).kind != NOT_PCLEAN
                rhs = r.add(r.one, r.mul(r.embed_int(4), r.mul(p, q))) in squares_1p
                assert lhs == rhs


def test_integral_domain_bases_force_idempotents():
    # over a field P = 0, so strongly P-clean 2x2 matrices are idempotent
    for name in ("Z2", "Z3"):
        r = build_ring(name)
        m2 = matrix_ring(r)
        mask = definitional_mask(m2)
        idx = np.arange(m2.order, dtype=np.int64)
        assert np.array_equal(np.flatnonzero(mask), np.flatnonzero(m2.vmul(idx, idx) == idx))


def test_pi_regular_trichotomy_examples():
    r = build_ring("Z4")
    assert pi_regular_trichotomy(Matrix2.identity(r)) == "UNIT"
    assert pi_regular_trichotomy(Matrix2.parse(r, "[0,2;0,0]")) == "NILPOTENT"
    assert pi_regular_trichotomy(Matrix2.parse(r, "[1,2;2,2]")) == "PCLEAN"


def test_pi_regular_trichotomy_reads_the_scan_without_classifying(monkeypatch):
    import pclean.matrices as matrices

    def no_classify(A):
        raise AssertionError("pi_regular_trichotomy reran the 2x2 classification")

    monkeypatch.setattr(matrices, "classify_pclean_2x2", no_classify)
    assert pi_regular_trichotomy(Matrix2.parse(build_ring("Z4"), "[1,2;2,2]")) == "PCLEAN"


def test_pi_regular_trichotomy_hypotheses():
    # the trichotomy and the P5.6 guard test one hypothesis
    from pclean.errors import HypothesisViolated

    for name in ("Z9", "Z3", "Z6", "Z2", "Z8"):
        r = build_ring(name)
        assert rad.residue_is_z2(r) == (name in ("Z2", "Z8"))
        if rad.residue_is_z2(r):
            assert pi_regular_trichotomy(Matrix2.identity(r)) == "UNIT"
            continue
        with pytest.raises(HypothesisViolated, match=r"needs R/J\(R\) = Z_2 with J\(R\) nil"):
            pi_regular_trichotomy(Matrix2.identity(r))


def test_det_multiplicative_trace_additive_sampled():
    rng = np.random.default_rng(11)
    for name in ("Z4", "Z9", "Z8[i]"):
        r = build_ring(name)
        for _ in range(200):
            a = Matrix2(r, *(int(x) for x in rng.integers(0, r.order, 4)))
            b = Matrix2(r, *(int(x) for x in rng.integers(0, r.order, 4)))
            assert (a * b).det == r.mul(a.det, b.det)
            assert (a + b).trace == r.add(a.trace, b.trace)


@pytest.mark.parametrize("name", ["Z4", "Z8", "Z8[i]"])
def test_matrix2_is_its_element_of_m2(name):
    # M2(Z4) and M2(Z8) have tables, M2(Z8[i]) (order 64^4, above the
    # default limit of matrix_ring) runs on the codec
    r = build_ring(name)
    m2 = derived_ring("M", 2, r)
    add, mul = r.add, r.mul
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = (Matrix2(r, *rng.integers(0, r.order, 4).tolist()) for _ in range(2))
        (p, q, s, t), (e, f, g, h) = a.entries(), b.entries()
        i, j = matrix_to_index(m2, a), matrix_to_index(m2, b)
        assert (a * b).entries() == (
            add(mul(p, e), mul(q, g)), add(mul(p, f), mul(q, h)),
            add(mul(s, e), mul(t, g)), add(mul(s, f), mul(t, h)),
        )
        assert (a + b).entries() == tuple(map(add, a.entries(), b.entries()))
        assert matrix_to_index(m2, a * b) == m2.mul(i, j)
        assert matrix_to_index(m2, a + b) == m2.add(i, j)
        assert matrix_to_index(m2, a - b) == m2.sub(i, j)
        assert matrix_to_index(m2, -a) == m2.neg(i)
        assert repr(a) == m2.fmt_index(i) == "[{},{};{},{}]".format(*map(r.fmt_index, (p, q, s, t)))
        assert matrix_from_index(m2, i) == a == Matrix2.parse(r, repr(a))
        assert hash(matrix_from_index(m2, i)) == hash(a)
        if r.is_unit(a.det):
            assert a.inverse() * a == Matrix2.identity(r) == a * a.inverse()


def test_matrix2_over_two_rings_do_not_combine():
    from pclean.errors import MixedRingOperands

    with pytest.raises(MixedRingOperands):
        Matrix2.identity(build_ring("Z4")) + Matrix2.identity(build_ring("Z8"))


@pytest.mark.parametrize("entries", [(0, 4, 0, 0), (0, 0, 0, -1)])
def test_matrix2_entries_must_be_base_indices(entries):
    # (0, 4, 0, 0) over Z4 would encode as the index of [1,0;0,0]
    with pytest.raises(PreconditionFailed):
        Matrix2(build_ring("Z4"), *entries)


# ---------------------------------------------------------------------------
# the per-matrix functions against pure-Python 2x2 arithmetic on base tables

M2_BASES = ["Z4", "Z8", "Z9", "Z2[i]", "Z3[w]", "Z4[i]"]


@functools.cache
def _m2_oracle(name):
    return M2Oracle(build_ring(name))


def _entries(name):
    return st.tuples(*[st.integers(0, build_ring(name).order - 1)] * 4)


@pytest.mark.parametrize("name", M2_BASES)
@given(data=st.data())
def test_2x2_criteria_match_pure_python_oracle(name, data):
    r, entries = build_ring(name), data.draw(_entries(name))
    A = Matrix2(r, *entries)
    want = _m2_oracle(name).criteria(entries)
    assert classify_pclean_2x2(A).criteria == want


@pytest.mark.parametrize("name", M2_BASES)
@given(data=st.data())
def test_roots_and_square_witnesses_match_pure_python_oracle(name, data):
    r, entries = build_ring(name), data.draw(_entries(name))
    oracle = _m2_oracle(name)
    A = Matrix2(r, *entries)
    assert (A.trace, A.det) == oracle.trace_det(entries)
    assert quadratic_roots(r, A.trace, A.det) == oracle.roots(A.trace, A.det)
    assert discriminant_criteria(A).square_witnesses == oracle.square_witnesses(entries)


@pytest.mark.parametrize("name", M2_BASES)
@given(data=st.data())
def test_ratio_and_half_roots_match_pure_python_oracle(name, data):
    r, entries = build_ring(name), data.draw(_entries(name))
    oracle = _m2_oracle(name)
    rec = discriminant_criteria(Matrix2(r, *entries))
    assert rec.ratio_roots_in_p == oracle.ratio_roots(entries)
    assert rec.half_roots == oracle.half_roots(entries)


@pytest.mark.parametrize("name", ["Z4", "Z2[i]", "Z8"])
def test_criterion_masks_match_pure_python_oracle_on_every_matrix(name):
    # a matrix query and the whole-ring masks evaluate one formula per
    # criterion, so the pure-Python oracle is the independent side here
    m2, oracle = matrix_ring(build_ring(name)), _m2_oracle(name)
    matrices_ = [tuple(A) for A in m2_invariants(m2)[0].T.tolist()]
    ident = (oracle.one, oracle.zero, oracle.zero, oracle.one)
    want = [oracle.criteria(A) for A in matrices_]
    assert diff_in_p_mask(m2).tolist() == [w["difference_in_radical"] for w in want]
    assert roots_criterion_mask(m2).tolist() == [w["quadratic_roots"] for w in want]
    assert entries_in_p_mask(m2).tolist() == [oracle.in_p(A) for A in matrices_]
    assert one_minus_in_p_mask(m2).tolist() == [oracle.in_p(oracle.msub(ident, A)) for A in matrices_]
