"""Command-line front end.

Usage:
    pclean ring analyze Z4 [--json]
    pclean element analyze Z8[i] "1+i"
    pclean matrix analyze Z4 "[1,2;2,2]"
    pclean verify [--theorem T4.4] [--catalog FILE]
    pclean catalog list

Exit codes: 0 success / all checks hold, 1 a verification counterexample,
2 usage, parse or catalog-read error.  --limit (or PCLEAN_LIMIT) caps the
order of any materialized ring.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import decompositions as dec
from . import radicals as rad
from . import specs
from .errors import (
    HypothesisViolated,
    MalformedSpec,
    NotCommutative,
    NotLocal,
    OrderLimitExceeded,
    PcleanError,
    PreconditionFailed,
    RingTooLarge,
    UnknownTheoremId,
)
from .matrices import (
    Matrix2,
    classify_pclean_2x2,
    discriminant_criteria,
    matrix_ring,
    pi_regular_trichotomy,
    triangular_pclean,
)
from .rings import DEFAULT_ORDER_LIMIT, RingTable, build_ring
from .verifier import (
    DEFAULT_CATALOG,
    TheoremReport,
    VerifyEnv,
    load_catalog_file,
    run_suite,
)

_LIST_CAP = 64  # element lists beyond this size are elided from reports


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; the --limit default is
    None, resolved from PCLEAN_LIMIT on every main() call."""
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps leaf occurrences from clobbering values given up front
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit one JSON document",
    )
    common.add_argument(
        "--limit", type=int, default=argparse.SUPPRESS,
        help="largest ring order that may be materialized",
    )

    parser = argparse.ArgumentParser(
        prog="pclean",
        description="Finite-ring analyzer for strongly P-clean structure",
        parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "ring specs:   Z4, Z8[i], Z9[w], M2(Z4), T2(Z2), Tc3(Z4), Z4xZ2, Z4/(2)\n"
            "element syntax per family:\n"
            "  Zn          integer residue, e.g. 3 or -1\n"
            "  Zn[i]       a+bi with i^2 = -1, e.g. 1+i, 3i, 2-i\n"
            "  Zn[w]       a+bw with w^2+w+1 = 0, e.g. 1-w\n"
            "  products    [x,y] with factor syntax inside, e.g. [2,1]\n"
            "  matrices    [a,b;c,d] row-major; triangular forms require\n"
            "              zeros below the diagonal, e.g. [1,1;0,2]\n"
            "  quotients   any representative in the base ring's syntax\n"
            "parse errors cite the byte offset of the offending character"
        ),
    )
    parser.set_defaults(json=False, limit=None)
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring-level analysis", parents=[common])
    ring_sub = ring.add_subparsers(dest="action", required=True)
    ring_an = ring_sub.add_parser(
        "analyze", help="radicals, flags, cleanness verdicts", parents=[common]
    )
    ring_an.add_argument("spec", help="ring spec, e.g. Z4, Z8[i], M2(Z4), T2(Z2), Z4/(2)")

    elem = sub.add_parser("element", help="element-level analysis", parents=[common])
    elem_sub = elem.add_subparsers(dest="action", required=True)
    elem_an = elem_sub.add_parser("analyze", help="cleanness of one element", parents=[common])
    elem_an.add_argument("spec")
    elem_an.add_argument("element", help="element literal in the ring's syntax")

    mat = sub.add_parser("matrix", help="2x2 matrix criteria over a base ring", parents=[common])
    mat_sub = mat.add_subparsers(dest="action", required=True)
    mat_an = mat_sub.add_parser(
        "analyze", help="classification, witnesses, discriminants", parents=[common]
    )
    mat_an.add_argument("spec", help="base ring (commutative local)")
    mat_an.add_argument("matrix", help="matrix literal [a,b;c,d]")

    ver = sub.add_parser("verify", help="run the theorem suite over a catalog", parents=[common])
    ver.add_argument("--theorem", help="run a single theorem id (e.g. T4.4)")
    ver.add_argument("--catalog", help="file with one ring spec per line")

    cat = sub.add_parser("catalog", help="catalog helpers", parents=[common])
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", help="print the default catalog", parents=[common])

    return parser


def _fmt_value(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        return ", ".join(_fmt_value(x) for x in v) if v else "(none)"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}={_fmt_value(x)}" for k, x in v.items()) + "}"
    return str(v)


def _print_table(pairs, out):
    width = max((len(k) for k, _ in pairs), default=0)
    for k, v in pairs:
        print(f"{k:<{width}}  {_fmt_value(v)}", file=out)


def _elements_or_count(r: RingTable, indices) -> list | None:
    if len(indices) > _LIST_CAP:
        return None
    return [r.fmt_index(int(i)) for i in indices]


def _ideal_report(r: RingTable, ideal) -> dict:
    return {
        "order": ideal.order,
        "nilpotency_index": rad.nilpotency_index(ideal),
        "elements": _elements_or_count(r, ideal.indices),
    }


def _cert_report(cert) -> dict | None:
    if cert is None:
        return None
    r = cert.ring
    return {
        "kind": cert.kind,
        "idempotent": r.fmt_index(cert.idempotent),
        "remainder": r.fmt_index(cert.remainder),
        "witness": cert.witness,
        "valid": cert.validate(),
    }


def _ring_analyze(args) -> tuple[dict, int]:
    r = build_ring(args.spec, limit=args.limit)
    p = rad.prime_radical(r)
    j = rad.jacobson_radical(r)
    try:
        units = {
            "count": int(r.unit_mask.sum()),
            "elements": _elements_or_count(r, r.unit_indices),
        }
    except RingTooLarge:
        units = {"count": None, "elements": None, "note": "order too large to enumerate"}
    report = {
        "command": "ring analyze",
        "ring": r.name,
        "order": r.order,
        "commutative": r.commutative,
        "boolean": rad.is_boolean(r),
        "local": rad.is_local(r),
        "abelian": rad.is_abelian(r),
        "units": units,
        "idempotents": {
            "count": int(r.idempotent_indices.size),
            "elements": _elements_or_count(r, r.idempotent_indices),
        },
        "prime_radical": _ideal_report(r, p),
        "jacobson_radical": _ideal_report(r, j),
        "jacobson_locally_nilpotent": rad.is_locally_nilpotent(j),
        "cleanness": dec.ring_verdicts(r),
    }
    return report, 0


def _element_analyze(args) -> tuple[dict, int]:
    r = build_ring(args.spec, limit=args.limit)
    i = r.parse_element(args.element).index
    p = rad.prime_radical(r)  # computed on first use; the element scans read its mask
    nilp = rad.element_nilpotency(r, i)
    sn = p.contains(i)  # P(R) is the strongly nilpotent elements
    sn_idx = rad.is_strongly_nilpotent(r, i)[1] if sn else None
    pcert, pcount = dec.strongly_pclean_element(r, i)
    try:  # both need the unit mask, which is not enumerated at every order
        ccert, ccount = dec.strongly_clean_element(r, i)
        clean = {"holds": ccert is not None, "count": ccount,
                 "certificate": _cert_report(ccert)}
        clean_count = dec.uniquely_clean_count(r, i)
    except RingTooLarge:
        clean = clean_count = {"skipped": "order"}
    ncert, ncount = dec.strongly_nilclean_element(r, i)
    jcert, jcount = dec.strongly_jclean_element(r, i)
    pi_ok, pi_n, pi_b = dec.strongly_pi_regular_element(r, i)
    try:
        lift = {"applicable": True, "idempotent": r.fmt_index(dec.idempotent_lift(r, i))}
    except PcleanError:
        lift = {"applicable": False, "idempotent": None}
    report = {
        "command": "element analyze",
        "ring": r.name,
        "element": r.fmt_index(i),
        "idempotent": bool(r.idempotent_mask[i]),
        "unit": r.is_unit(i),
        "nilpotent": {"is": nilp is not None, "exponent": nilp},
        "strongly_nilpotent": {"is": sn, "ideal_nilpotency_index": sn_idx},
        "in_prime_radical": sn,
        "in_jacobson_radical": rad.jacobson_radical(r).contains(i),
        "strongly_pclean": {"holds": pcert is not None, "count": pcount,
                            "certificate": _cert_report(pcert)},
        "strongly_clean": clean,
        "strongly_nilclean": {"holds": ncert is not None, "count": ncount,
                              "certificate": _cert_report(ncert)},
        "strongly_jclean": {"holds": jcert is not None, "count": jcount,
                            "certificate": _cert_report(jcert)},
        "strongly_pi_regular": {
            "holds": pi_ok,
            "exponent": pi_n,
            "witness": None if pi_b is None else r.fmt_index(pi_b),
        },
        "unique_counts": {
            "pclean_idempotents": dec.uniquely_pclean_count(r, i),
            "clean_idempotents": clean_count,
            "nilclean_idempotents": dec.uniquely_nilclean_count(r, i),
        },
        "idempotent_lift": lift,
    }
    return report, 0


def _matrix_analyze(args) -> tuple[dict, int]:
    r = build_ring(args.spec, limit=args.limit)
    matrix_ring(r, args.limit)  # --limit caps M2(r) too, before any scan
    A = Matrix2.parse(r, args.matrix)
    res = classify_pclean_2x2(A)
    report = {
        "command": "matrix analyze",
        "ring": r.name,
        "matrix": repr(A),
        "trace": r.fmt_index(A.trace),
        "det": r.fmt_index(A.det),
        "classification": res.kind,
        "criteria": res.criteria,
        "certificate": _cert_report(res.certificate),
        "quadratic_roots": [[r.fmt_index(x), cls] for x, cls in res.roots],
    }
    if res.witness is not None:
        w = res.witness
        report["similarity"] = {
            "form": w.form,
            "conjugator": repr(w.conjugator),
            "inverse": repr(w.inverse),
            "lambda": r.fmt_index(w.lam),
            "mu": r.fmt_index(w.mu),
            "target": repr(w.target()),
            "valid": w.validate(A),
        }
    else:
        report["similarity"] = None
    rec = discriminant_criteria(A)
    report["discriminant"] = {
        "trace_in_one_plus_p": rec.trace_in_one_plus_p,
        "disc": r.fmt_index(rec.disc),
        "square_witnesses_in_one_plus_p": [r.fmt_index(u) for u in rec.square_witnesses],
        "ratio_roots_in_p": [r.fmt_index(x) for x in rec.ratio_roots_in_p],
        "half_roots": None
        if rec.half_roots is None
        else [r.fmt_index(rec.half_roots[0]), r.fmt_index(rec.half_roots[1])],
    }
    try:
        report["pi_regular_trichotomy"] = pi_regular_trichotomy(A)
    except HypothesisViolated as exc:
        report["pi_regular_trichotomy"] = None
        report["pi_regular_note"] = str(exc)
    if A.is_upper_triangular():
        try:
            cert = triangular_pclean(r, A.a11, A.a22, A.a12, limit=args.limit)
            report["triangular_rule"] = {
                "strongly_pclean": cert is not None,
                "certificate": _cert_report(cert),
            }
        except OrderLimitExceeded as exc:
            report["triangular_rule"] = {"note": str(exc)}
    return report, 0


def _verify(args) -> tuple[dict, int]:
    catalog = load_catalog_file(args.catalog) if args.catalog else list(DEFAULT_CATALOG)
    env = VerifyEnv(limit=args.limit)
    report: TheoremReport = run_suite(catalog, env, only=args.theorem)
    doc = report.to_dict()
    doc["command"] = "verify"
    return doc, report.exit_status


def _catalog_list(args) -> tuple[dict, int]:
    rings = []
    for name in DEFAULT_CATALOG:
        spec = specs.parse_ring_spec(name)
        rings.append({"spec": specs.canon(spec), "order": specs.spec_order(spec)})
    return {"command": "catalog list", "rings": rings}, 0


def _render_human(doc: dict, out):
    cmd = doc.get("command")
    if cmd == "verify":
        print(f"catalog: {', '.join(doc['catalog'])}", file=out)
        width = max(len(c["ring"]) for c in doc["checks"]) if doc["checks"] else 4
        for c in doc["checks"]:
            line = f"{c['id']:<6} {c['ring']:<{width}} {c['verdict']:<18} {c['millis']:9.1f}ms"
            if c.get("note"):
                line += f"  ({c['note']})"
            if c.get("counterexample"):
                line += f"  counterexample: {json.dumps(c['counterexample'])}"
            print(line, file=out)
        print("summary: " + _fmt_value(doc["summary"]), file=out)
        return
    if cmd == "catalog list":
        for entry in doc["rings"]:
            print(f"{entry['spec']:<12} order {entry['order']}", file=out)
        return
    pairs = [(k, v) for k, v in doc.items() if k != "command"]
    _print_table(pairs, out)


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.limit is None:
        try:
            args.limit = int(os.environ.get("PCLEAN_LIMIT", DEFAULT_ORDER_LIMIT))
        except ValueError:
            limit = os.environ["PCLEAN_LIMIT"]
            print(f"error: PCLEAN_LIMIT={limit!r} is not an integer", file=sys.stderr)
            return 2
    handlers = {
        "ring": _ring_analyze,
        "element": _element_analyze,
        "matrix": _matrix_analyze,
        "verify": _verify,
        "catalog": _catalog_list,
    }
    try:
        doc, status = handlers[args.command](args)
    except (
        MalformedSpec, OrderLimitExceeded, UnknownTheoremId, OSError, UnicodeDecodeError,
        NotCommutative, NotLocal, HypothesisViolated, PreconditionFailed, RingTooLarge,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        _render_human(doc, sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
