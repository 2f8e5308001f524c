"""Checks of the benchmark's tracer.

    python3 -m pytest -q perfbench/test_tracer.py

Covers: every wrapped function is rebound under all its aliases and put
back afterwards; self times add up to the traced time; tracing changes no
output; count metrics repeat exactly across two traced processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import pclean.cli  # noqa: E402,F401
from tracer import Tracer, _pclean_modules  # noqa: E402

# Small job touching every traced module, dense and coordinate rings alike.
JOB = r"""
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import pclean.cli
from pclean import cli, verifier
from tracer import Tracer
tracer = Tracer().install() if sys.argv[3] == "1" else None
outputs = []
for argv in [
    ["ring", "analyze", "Z8"],
    ["ring", "analyze", "T2(Z32)"],
    ["element", "analyze", "T2(Z4)", "[1,2;0,3]"],
    ["element", "analyze", "M2(Z2)", "[1,1;0,1]"],
    ["matrix", "analyze", "Z4", "[1,2;0,3]"],
    ["matrix", "analyze", "Z4", "[1,2;3,1]"],
]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--json"])
    outputs.append([rc, json.loads(buf.getvalue())])
doc = verifier.run_suite(["Z2", "Z4", "T2(Z2)"]).to_dict()
for c in doc["checks"]:
    del c["millis"]
outputs.append(doc)
if tracer is not None:
    tracer.restore()
    layers = tracer.layer_metrics()
else:
    layers = {}
print(json.dumps({"outputs": outputs, "layers": layers}))
"""


def count_metric(name: str) -> bool:
    """Whether a per-layer metric counts work (and so must repeat exactly)."""
    return name.endswith((".calls", ".lanes", ".misses", ".computed", "_lanes", "_bytes")) \
        or ".tables_built." in name


def _job(traced: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", JOB, str(SRC), str(HERE), "1" if traced else "0"],
        env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def jobs():
    return {"plain": _job(False), "traced": _job(True), "traced_again": _job(True)}


def _bindings():
    """Every value a pclean module (or a dict in one) holds, by identity."""
    out = {}
    for mod in _pclean_modules():
        for name, val in vars(mod).items():
            out[(mod.__name__, name)] = val
            if isinstance(val, dict) and name != "__builtins__":
                for k, v in val.items():
                    out[(mod.__name__, name, k)] = v
    for name, val in vars(pclean.rings.RingTable).items():
        out[("RingTable", name)] = val
    return out


def test_install_rebinds_every_alias_and_restore_puts_originals_back():
    before = _bindings()
    tracer = Tracer().install()
    try:
        originals = [orig for _, _, orig in tracer._patches]
        stale = [k for k, v in _bindings().items() if any(v is o for o in originals)]
        assert stale == []
        from pclean import cli, decompositions, radicals, rings, verifier

        for alias in (verifier.build_ring, cli.build_ring, radicals.ideal_closure_mask,
                      decompositions.RING_VERDICTS["strongly_pclean"]):
            assert hasattr(alias, "__wrapped__")
        assert rings.build_ring is verifier.build_ring is cli.build_ring
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_self_times_add_up_to_the_traced_time():
    tracer = Tracer().install()
    try:
        from pclean import cli

        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                cli.main(["ring", "analyze", "T2(Z4)", "--json"])
                cli.main(["matrix", "analyze", "Z4", "[1,2;0,3]", "--json"])
            finally:
                sys.stdout = stdout
    finally:
        tracer.restore()
    total_self = sum(st.self_s for st in tracer.stats.values())
    assert tracer.top_level_s > 0
    assert total_self == pytest.approx(tracer.top_level_s, rel=1e-9, abs=1e-9)
    # a span covers its children: children end within their parent
    by_id = {s[4]: s for s in tracer.spans}
    for name, _ring, start, end, _sid, parent in tracer.spans:
        if parent in by_id:
            assert by_id[parent][2] <= start <= end <= by_id[parent][3]
    # cli.main is outermost: its inclusive time is its self time plus all nested self time
    main = tracer.stats["cli.main"]
    assert main.incl == pytest.approx(tracer.top_level_s, rel=1e-9)


def test_tracing_changes_no_output(jobs):
    assert jobs["traced"]["outputs"] == jobs["plain"]["outputs"]


def test_count_metrics_repeat_exactly(jobs):
    a, b = jobs["traced"]["layers"], jobs["traced_again"]["layers"]
    counts = [n for n in a if count_metric(n)]
    assert "rings.tables_built.Product" in counts
    assert "radicals.is_strongly_nilpotent.calls" in counts
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    # the job reaches both table kinds and the verdict sweeps
    for n in ("rings.vmul.dense.lanes", "rings.vmul.coord.lanes", "decompositions.verdict_lanes",
              "radicals.is_strongly_nilpotent.calls", "rings.build_ring.misses"):
        assert a[n] > 0, n
