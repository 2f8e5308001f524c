"""One workload process of the pclean benchmark.

``run.py`` starts this script once per measurement, in a fresh interpreter
with ``src`` on ``PYTHONPATH`` and one BLAS/OpenMP thread, so no ring or
per-ring cache carries over between runs.  Modes:

* ``setup``  set up and report ``setup_s`` only;
* ``run``    set up, run the timed work untraced, check outputs;
* ``trace``  the same with the tracer installed, plus per-layer metrics;
* ``record`` run the work once and write the reference outputs under
  ``perfbench/refs`` (done once per program change that alters outputs).

The last line on stdout is one JSON object with the measurements.
"""

from __future__ import annotations

import time

_PROC_START = time.time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
OUT = HERE / "out"
SRC = HERE.parent / "src"

LARGE_LIMIT = "540000"
LARGE_SPECS = ["T2(Z9[w])", "T2(Z64)"]
RECORDED_SEED = 0
RECORDED_QUERIES = 2000
ROUNDS_PER_PASS = 40  # one pass = 40 rounds x 5 query types = 200 queries
MIN_PASSES = 8  # >= 1600 queries: the p99 has ten samples beyond it, and the
#                  ~20 s window averages out the host's second-scale speed swings
TRACE_PASSES = 2  # traced runs do a fixed amount of work, so counts repeat


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Exit code and stdout of one CLI call; (None, error) if it raised."""
    from pclean import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # a query that raises fails; the run goes on
        return None, repr(exc)
    return rc, buf.getvalue()


def p50(xs):
    return statistics.median(xs)


def p99(xs):
    """Nearest-rank p99, or None when fewer than ten samples lie beyond it."""
    rank = math.ceil(0.99 * len(xs))
    if len(xs) - rank < 10:
        return None
    return sorted(xs)[rank - 1]


# ---------------------------------------------------------------------------
# catalog_verify: run_suite() over DEFAULT_CATALOG with the default VerifyEnv


class CatalogVerify:
    setup_samples = 5
    seed_used = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from pclean import rings, verifier

        for spec in verifier.DEFAULT_CATALOG:
            rings.build_ring(spec)

    def run(self, seconds: float, traced: bool) -> dict:
        from pclean import verifier

        t0 = time.perf_counter()
        report = verifier.run_suite()
        run_s = time.perf_counter() - t0
        self.report = report
        # the verifier user's request is the whole suite; its 569 checks are
        # the operations that pass or fail, and their times are per-layer data
        return {"run_s": run_s, "passes": 1, "latencies_ms": [run_s * 1000], "timed_s": run_s}

    def document(self) -> dict:
        doc = self.report.to_dict()
        for c in doc["checks"]:
            del c["millis"]
        return doc

    def check(self) -> tuple[int, int, list[str]]:
        doc = self.document()
        ref = json.loads((REFS / "catalog_verify.json").read_text())
        problems = []
        if digest(canonical(doc)) != ref["sha256"]:
            problems.append("verify report digest differs from the reference")
        if doc["summary"] != ref["summary"]:
            problems.append(f"summary {doc['summary']} != reference {ref['summary']}")
        got, want = doc["checks"], ref["doc"]["checks"]
        failed = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
        return len(want), failed, problems

    def record(self):
        self.run(0, traced=False)
        doc = self.document()
        ref = {"sha256": digest(canonical(doc)), "summary": doc["summary"], "doc": doc}
        (REFS / "catalog_verify.json").write_text(json.dumps(ref, indent=1) + "\n")

    def layer_extras(self) -> dict:
        per_id: dict[str, float] = {}
        skipped = 0
        for c in self.report.checks:
            per_id[c.id] = per_id.get(c.id, 0.0) + c.millis / 1000
            skipped += c.verdict == "SKIPPED"
        return {"check_s": per_id, "skipped": skipped}


# ---------------------------------------------------------------------------
# large_ring_analyze: `ring analyze` on two rings above DENSE_TABLE_LIMIT


class LargeRingAnalyze:
    setup_samples = 5
    seed_used = False

    def __init__(self, seed: int):
        self.seed = seed
        self.outputs: dict[str, tuple[int, str]] = {}

    def setup(self):
        from pclean import cli, rings  # noqa: F401  (import is part of set-up)

        for spec in LARGE_SPECS:
            rings.build_ring(spec, limit=int(LARGE_LIMIT))

    def run(self, seconds: float, traced: bool) -> dict:
        lat = []
        t0 = time.perf_counter()
        for spec in LARGE_SPECS:
            t = time.perf_counter()
            self.outputs[spec] = run_cli(["ring", "analyze", spec, "--limit", LARGE_LIMIT, "--json"])
            lat.append((time.perf_counter() - t) * 1000)
        run_s = time.perf_counter() - t0
        return {"run_s": run_s, "passes": 1, "latencies_ms": lat, "timed_s": run_s}

    def check(self) -> tuple[int, int, list[str]]:
        ref = json.loads((REFS / "large_ring_analyze.json").read_text())
        failed, problems = 0, []
        for spec in LARGE_SPECS:
            rc, text = self.outputs[spec]
            if rc != 0:
                why = f"exit {rc}: {text[:200]}"
            elif json.loads(text) != ref[spec]:
                why = "output differs from the reference"
            else:
                continue
            failed += 1
            problems.append(f"ring analyze {spec}: {why}")
        return len(LARGE_SPECS), failed, problems

    def record(self):
        self.run(0, traced=False)
        ref = {spec: json.loads(text) for spec, (rc, text) in self.outputs.items()}
        (REFS / "large_ring_analyze.json").write_text(json.dumps(ref, indent=1) + "\n")

    def layer_extras(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# element_queries: seeded point queries through the CLI, warm caches


def _zn(rng, n):
    return str(rng.randrange(n))


def _z4i(rng):
    return f"{rng.randrange(4)}+{rng.randrange(4)}i"


def _mat(entry):
    return lambda rng: "[{},{};{},{}]".format(*(entry(rng) for _ in range(4)))


def _tri(entry):
    return lambda rng: "[{},{};0,{}]".format(*(entry(rng) for _ in range(3)))


# (command, ring spec, literal generator); one of each per round
QUERY_TYPES = [
    ("element", "M2(Z4)", _mat(lambda rng: _zn(rng, 4))),
    ("element", "T2(Z4[i])", _tri(_z4i)),
    ("element", "M2(Z9)", _mat(lambda rng: _zn(rng, 9))),
    ("matrix", "Z8", _mat(lambda rng: _zn(rng, 8))),
    ("matrix", "Z4[i]", _mat(_z4i)),
]

# Fixed, seed-independent warm-up: fills every per-ring cache the timed
# queries use, including T2(base) for upper-triangular matrix queries.
WARMUP = [
    ["element", "analyze", "M2(Z4)", "[1,2;3,1]"],
    ["element", "analyze", "T2(Z4[i])", "[1+i,2;0,3i]"],
    ["element", "analyze", "M2(Z9)", "[1,3;0,2]"],
    ["matrix", "analyze", "Z8", "[1,2;3,4]"],
    ["matrix", "analyze", "Z8", "[3,2;0,4]"],
    ["matrix", "analyze", "Z4[i]", "[1,i;2,1+i]"],
    ["matrix", "analyze", "Z4[i]", "[1+i,1;0,2]"],
]


def query_stream(seed: int):
    """Endless seeded queries in rounds holding one query of each type."""
    rng = random.Random(seed)
    while True:
        order = list(range(len(QUERY_TYPES)))
        rng.shuffle(order)
        for t in order:
            cmd, spec, gen = QUERY_TYPES[t]
            yield [cmd, "analyze", spec, gen(rng)]


class ElementQueries:
    setup_samples = 1  # one set-up is ~24 s of whole-ring scans on M2(Z9)
    seed_used = True

    def __init__(self, seed: int):
        self.seed = seed
        self.warm: list[tuple[list[str], int, str]] = []
        self.done: list[tuple[list[str], int, str]] = []

    def setup(self):
        from pclean import cli  # noqa: F401  (import is part of set-up)

        stream = query_stream(self.seed)
        per_pass = ROUNDS_PER_PASS * len(QUERY_TYPES)
        # generated before timing; the program only ever sees these literals
        self.passes = [[next(stream) for _ in range(per_pass)] for _ in range(64)]
        for argv in WARMUP:
            self.warm.append((argv, *run_cli(argv + ["--json"])))

    def run(self, seconds: float, traced: bool) -> dict:
        lat, pass_s = [], []
        t_begin = time.perf_counter()
        for queries in self.passes:
            t_pass = time.perf_counter()
            for argv in queries:
                t = time.perf_counter()
                rc, text = run_cli(argv + ["--json"])
                lat.append((time.perf_counter() - t) * 1000)
                self.done.append((argv, rc, text))
            now = time.perf_counter()
            pass_s.append(now - t_pass)
            if traced:
                if len(pass_s) == TRACE_PASSES:
                    break
            elif len(pass_s) >= MIN_PASSES and now - t_begin >= seconds:
                break
        timed_s = time.perf_counter() - t_begin
        return {"run_s": p50(pass_s), "passes": len(pass_s), "latencies_ms": lat,
                "timed_s": timed_s}

    def check(self) -> tuple[int, int, list[str]]:
        refs = []
        if self.seed == RECORDED_SEED:
            ref = json.loads((REFS / "element_queries.json").read_text())
            refs = ref["warmup"] + ref["queries"]
        failed, problems = 0, []
        for n, (argv, rc, text) in enumerate(self.warm + self.done):
            if rc != 0:
                why = f"exit {rc}: {text[:200]}"
            elif n < len(refs) and digest(text)[:16] != refs[n]:
                why = "output differs from the recorded reference"
            else:
                try:
                    why = validate_output(argv, json.loads(text))
                except Exception as exc:  # a malformed output fails the query, not the run
                    why = f"re-validation raised {exc!r}"
            if why:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"{' '.join(argv)}: {why}")
        return len(self.warm) + len(self.done), failed, problems

    def record(self):
        stream = query_stream(self.seed)
        queries = [next(stream) for _ in range(RECORDED_QUERIES)]
        digests = []
        for argv in queries:
            rc, text = run_cli(argv + ["--json"])
            if rc != 0:
                raise SystemExit(f"query failed while recording: {argv}")
            digests.append(digest(text)[:16])
        ref = {
            "seed": self.seed,
            "note": "sha256[:16] of each query's --json output, warm-up first",
            "warmup": [digest(text)[:16] for _, _, text in self.warm],
            "queries": digests,
        }
        (REFS / "element_queries.json").write_text(json.dumps(ref, indent=0) + "\n")

    def layer_extras(self) -> dict:
        return {}


def _check_certificate(r, a: int, cert: dict) -> str | None:
    """Re-parse a certificate's literals and re-validate a = e + w."""
    from pclean.decompositions import CleanCertificate

    if cert.get("valid") is not True:
        return "certificate reported invalid"
    e = r.parse_element(cert["idempotent"]).index
    w = r.parse_element(cert["remainder"]).index
    if r.mul(e, e) != e:
        return f"{cert['idempotent']} is not idempotent"
    if r.add(e, w) != a or r.mul(e, w) != r.mul(w, e):
        return "certificate parts do not commute or do not sum to the element"
    if not CleanCertificate(cert["kind"], r, a, e, w, cert["witness"]).validate():
        return f"{cert['kind']} certificate does not re-validate"
    return None


def validate_output(argv: list[str], doc: dict) -> str | None:
    """Checks any seed's query output: every certificate literal re-parses
    and re-validates, and every similarity witness conjugates exactly."""
    from pclean.matrices import Matrix2, matrix_ring, matrix_to_index, triangular_ring
    from pclean.rings import build_ring

    cmd, _, spec, literal = argv
    r = build_ring(spec)
    if cmd == "element":
        a = r.parse_element(literal).index
        for key in ("strongly_pclean", "strongly_clean", "strongly_nilclean", "strongly_jclean"):
            entry = doc[key]
            if entry["holds"] != (entry["certificate"] is not None):
                return f"{key}: verdict and certificate disagree"
            if entry["certificate"]:
                why = _check_certificate(r, a, entry["certificate"])
                if why:
                    return f"{key}: {why}"
        return None
    A = Matrix2.parse(r, literal)
    m2 = matrix_ring(r)
    if doc["certificate"]:
        why = _check_certificate(m2, matrix_to_index(m2, A), doc["certificate"])
        if why:
            return why
    sim = doc["similarity"]
    if sim:
        P, Q = Matrix2.parse(r, sim["conjugator"]), Matrix2.parse(r, sim["inverse"])
        ident = Matrix2.identity(r)
        if not (sim["valid"] is True and P * Q == ident and Q * P == ident
                and P * A * Q == Matrix2.parse(r, sim["target"])):
            return "similarity witness does not conjugate A to its target"
    tri = doc.get("triangular_rule") or {}
    if tri.get("certificate"):
        t2 = triangular_ring(r)
        why = _check_certificate(t2, t2.parse_element(literal).index, tri["certificate"])
        if why:
            return f"triangular rule: {why}"
    return None


WORKLOADS = {
    "catalog_verify": CatalogVerify,
    "large_ring_analyze": LargeRingAnalyze,
    "element_queries": ElementQueries,
}


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace", "record"])
    ap.add_argument("--t0", type=float, default=_PROC_START,
                    help="wall-clock time the parent started this process")
    args = ap.parse_args()

    import numpy as np
    import pclean
    import pclean.cli  # noqa: F401

    if Path(pclean.__file__).resolve().parent != (SRC / "pclean").resolve():
        raise SystemExit(f"pclean was imported from {pclean.__file__}, not from {SRC}")
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
    wl = WORKLOADS[args.workload](args.seed)
    try:
        wl.setup()
        setup_s = time.time() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.mode == "record":
            REFS.mkdir(exist_ok=True)
            wl.record()
            print(json.dumps({"recorded": args.workload}))
            return 0
        timing = wl.run(args.seconds, traced=tracer is not None)
    finally:
        if tracer is not None:
            tracer.restore()
    attempted, failed, problems = wl.check()
    result = {
        "setup_s": setup_s,
        **{k: v for k, v in timing.items() if k != "latencies_ms"},
        "ops": len(timing["latencies_ms"]),
        "query_p50_ms": p50(timing["latencies_ms"]),
        "query_p99_ms": p99(timing["latencies_ms"]),
        "p99_beyond": len(timing["latencies_ms"]) - math.ceil(0.99 * len(timing["latencies_ms"])),
        "queries_per_s": len(timing["latencies_ms"]) / timing["timed_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        from pclean.verifier import CHECK_IDS

        layers = tracer.layer_metrics()
        extras = wl.layer_extras()
        check_s = dict.fromkeys(CHECK_IDS, 0.0) | extras.get("check_s", {})
        layers.update({f"verifier.check_s.{cid}": s for cid, s in check_s.items()})
        layers["verifier.skipped"] = extras.get("skipped", 0)
        result["layers"] = layers
        result["self_sum_s"] = sum(st.self_s for st in tracer.stats.values())
        result["top_level_s"] = tracer.top_level_s
        OUT.mkdir(exist_ok=True)
        spans = {"workload": args.workload, "seed": args.seed, "spans": tracer.span_records()}
        (OUT / f"spans_{args.workload}_seed{args.seed}.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
