"""Benchmark-owned tracing of pclean's public functions.

The tracer wraps functions and methods of the pclean modules from outside
(no edit of ``src/``), records their time and work in memory, and restores
every original on ``restore()``.  Two kinds of wrappers exist:

* coarse calls (ring builds, radicals, verdicts, matrix masks, ``cli.main``)
  get a span each: name, ring, start, end, span id and parent span id;
* hot primitives (``RingTable.vadd``/``vmul``/``vneg``, the scalar ops and
  the ``unit_mask``/``idempotent_mask`` properties) only bump aggregated
  counters: calls, lanes, inclusive and self seconds.

Self time of a call is its duration minus the time covered by the wrapped
calls nested inside it, so self times of all keys add up to the time spent
inside top-level wrapped calls.  Inclusive time of a key counts only its
outermost calls, so recursion through the same key is not counted twice.
"""

from __future__ import annotations

import sys
import weakref
from time import perf_counter

import numpy as np

FAMILIES = ["Zn", "QuadExt", "Matrix", "Triangular", "ConstDiag", "Product", "Quotient", "Subset"]
VERDICTS = [
    "is_strongly_pclean_ring",
    "is_uniquely_pclean_ring",
    "is_strongly_clean_ring",
    "is_uniquely_clean_ring",
    "is_uniquely_nilclean_ring",
    "is_strongly_jclean_ring",
]
ELEMENT_FNS = [
    "strongly_pclean_element",
    "strongly_clean_element",
    "strongly_nilclean_element",
    "strongly_jclean_element",
    "uniquely_pclean_count",
    "uniquely_clean_count",
    "uniquely_nilclean_count",
    "strongly_pi_regular_element",
    "idempotent_lift",
]
MASK_FNS = [
    "entries_in_p_mask",
    "one_minus_in_p_mask",
    "diff_in_p_mask",
    "roots_criterion_mask",
    "definitional_mask",
    "root_pair_table",
]
SCALAR_OPS = ["add", "mul", "neg", "sub", "power", "embed_int"]
VECTOR_OPS = ["vadd", "vmul", "vneg"]


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "lanes", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.lanes = 0
        self.depth = 0


def _label(x):
    """Ring (or spec) a call works on, for span records."""
    if isinstance(x, str):
        return x
    ring = getattr(x, "ring", x)
    return getattr(ring, "name", None)


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.next_span_id = 0
        self.stack: list[list[float]] = []  # per active call: [time of nested wrapped calls]
        self.span_stack: list[int] = []
        self.verdict_depth = 0
        self.top_level_s = 0.0
        self._patches: list[tuple] = []
        self._seen_rings = weakref.WeakSet()

    # -- bookkeeping

    def stat(self, key: str) -> _Stat:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = _Stat()
        return st

    def bump(self, key: str, value: float = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _enter(self):
        frame = [0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, st: _Stat, dur: float):
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += dur
        else:
            self.top_level_s += dur
        st.calls += 1
        st.self_s += dur - frame[0]
        if st.depth == 0:
            st.incl += dur

    # -- wrapper factories

    def _coarse(self, key, fn, before=None, after=None, verdict=False):
        tracer = self
        st = self.stat(key)

        def wrapper(*args, **kwargs):
            state = before(*args) if before else None
            frame = tracer._enter()
            parent = tracer.span_stack[-1] if tracer.span_stack else -1
            span_id = tracer.next_span_id
            tracer.next_span_id += 1
            tracer.span_stack.append(span_id)
            st.depth += 1
            if verdict:
                tracer.verdict_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if verdict:
                    tracer.verdict_depth -= 1
                st.depth -= 1
                tracer.span_stack.pop()
                tracer._leave(frame, st, t1 - t0)
                ring = _label(args[0]) if args else None
                tracer.spans.append((key, ring, t0, t1, span_id, parent))
            if after:
                after(args, result, state, t1 - t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _vector(self, op, fn, dense_limit):
        tracer = self
        dense = self.stat(f"rings.{op}.dense")
        coord = self.stat(f"rings.{op}.coord")

        def wrapper(ring, *args):
            lanes = np.broadcast(*args).size if len(args) > 1 else np.size(args[0])
            st = dense if ring.order <= dense_limit else coord
            frame = tracer._enter()
            t0 = perf_counter()
            try:
                return fn(ring, *args)
            finally:
                tracer._leave(frame, st, perf_counter() - t0)
                st.lanes += lanes
                if tracer.verdict_depth:
                    tracer.counts["decompositions.verdict_lanes"] += lanes

        wrapper.__wrapped__ = fn
        return wrapper

    def _quiet(self, key, fn):
        """Aggregated timing without a span, for cheap and frequent calls."""
        tracer = self
        st = self.stat(key)

        def wrapper(*args):
            frame = tracer._enter()
            st.depth += 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                st.depth -= 1
                tracer._leave(frame, st, perf_counter() - t0)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching

    def _set(self, owner, name, value):
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def _rebind(self, fn, wrapper):
        """Replace `fn` wherever a pclean module holds it, including the
        aliases made by ``from .x import f`` and dicts of functions."""
        found = 0
        for mod in _pclean_modules():
            for name, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, name, wrapper)
                    found += 1
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is fn:
                            self._set(val, k, wrapper)
                            found += 1
        if not found:
            raise RuntimeError(f"{fn.__qualname__} is not bound in any pclean module")

    def install(self):
        """Wrap the traced functions; the caller must call restore()."""
        from pclean import cli, decompositions, matrices, radicals, rings, specs

        self.counts.update(
            {"decompositions.verdict_lanes": 0, "rings.dense_bytes": 0,
             "rings.build_ring.misses": 0, "radicals.prime_radical.computed": 0}
        )
        for fam in FAMILIES:
            self.counts[f"rings.tables_built.{fam}"] = 0
            self.counts[f"rings.dense_build_s.{fam}"] = 0.0
        limit = rings.DENSE_TABLE_LIMIT
        try:
            self._install(cli, decompositions, matrices, radicals, rings, specs, limit)
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self, cli, decompositions, matrices, radicals, rings, specs, limit):
        seen = self._seen_rings

        def built(args, ring, _state, _dur):
            if ring not in seen:
                seen.add(ring)
                self.bump("rings.build_ring.misses")

        def constructed(args, _result, _state, dur):
            table = args[0]
            if table.order <= limit:
                fam = type(table.kernel).__name__.removesuffix("Kernel")
                self.bump(f"rings.tables_built.{fam}")
                self.bump(f"rings.dense_build_s.{fam}", dur)
                self.bump("rings.dense_bytes", 4 * table.order**2 + 2 * table.order)

        def prime_before(r, *_):
            if "prime_ideal" not in r.cache:
                self.bump("radicals.prime_radical.computed")

        module_fns = [
            (specs, "parse_ring_spec", "specs.parse_ring_spec", {}),
            (rings, "build_ring", "rings.build_ring", {"after": built}),
            (rings, "additive_closure_mask", "rings.additive_closure_mask", {}),
            (rings, "ideal_closure_mask", "rings.ideal_closure_mask", {}),
            (rings, "subgroup_basis", "rings.subgroup_basis", {}),
            (radicals, "prime_radical", "radicals.prime_radical", {"before": prime_before}),
            (radicals, "jacobson_radical", "radicals.jacobson_radical", {}),
            (radicals, "nilpotent_mask", "radicals.nilpotent_mask", {}),
            (radicals, "is_strongly_nilpotent", "radicals.is_strongly_nilpotent", {}),
            (matrices, "classify_pclean_2x2", "matrices.classify_pclean_2x2", {}),
            (matrices, "discriminant_criteria", "matrices.discriminant_criteria", {}),
            (matrices, "pi_regular_trichotomy", "matrices.pi_regular_trichotomy", {}),
            (cli, "main", "cli.main", {}),
        ]
        module_fns += [
            (decompositions, f, f"decompositions.{f.removeprefix('is_').removesuffix('_ring')}",
             {"verdict": True})
            for f in VERDICTS
        ]
        module_fns += [(decompositions, f, "decompositions.element", {}) for f in ELEMENT_FNS]
        module_fns += [(matrices, f, "matrices.masks", {}) for f in MASK_FNS]
        for mod, name, key, opts in module_fns:
            fn = getattr(mod, name)
            self._rebind(fn, self._coarse(key, fn, **opts))

        T = rings.RingTable
        self._set(T, "__init__", self._coarse("rings.RingTable", T.__init__, after=constructed))
        for op in VECTOR_OPS:
            self._set(T, op, self._vector(op, T.__dict__[op], limit))
        for op in SCALAR_OPS:
            self._set(T, op, self._quiet("rings.scalar", T.__dict__[op]))
        for prop in ("unit_mask", "idempotent_mask"):
            fget = T.__dict__[prop].fget
            self._set(T, prop, property(self._quiet(f"rings.{prop}", fget)))

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the counters (units in BENCHMARK.json)."""
        st = self.stat
        out: dict[str, float] = {}
        out["specs.parse_ring_spec.calls"] = st("specs.parse_ring_spec").calls
        out["specs.parse_ring_spec.s"] = st("specs.parse_ring_spec").incl
        for fam in FAMILIES:
            out[f"rings.tables_built.{fam}"] = self.counts[f"rings.tables_built.{fam}"]
        for fam in FAMILIES:
            out[f"rings.dense_build_s.{fam}"] = self.counts[f"rings.dense_build_s.{fam}"]
        out["rings.dense_bytes"] = self.counts["rings.dense_bytes"]
        for op in VECTOR_OPS:
            d, c = st(f"rings.{op}.dense"), st(f"rings.{op}.coord")
            out[f"rings.{op}.dense.lanes"] = d.lanes
            out[f"rings.{op}.dense.ns_per_lane"] = d.incl / d.lanes * 1e9 if d.lanes else 0.0
            out[f"rings.{op}.coord.lanes"] = c.lanes
            out[f"rings.{op}.coord.self_ns_per_lane"] = (
                c.self_s / c.lanes * 1e9 if c.lanes else 0.0
            )
        out["rings.scalar.calls"] = st("rings.scalar").calls
        out["rings.scalar.s"] = st("rings.scalar").self_s
        for f in ("additive_closure_mask", "ideal_closure_mask", "subgroup_basis"):
            out[f"rings.{f}.calls"] = st(f"rings.{f}").calls
            out[f"rings.{f}.s"] = st(f"rings.{f}").incl
        out["rings.unit_mask.s"] = st("rings.unit_mask").incl
        out["rings.idempotent_mask.s"] = st("rings.idempotent_mask").incl
        out["rings.build_ring.calls"] = st("rings.build_ring").calls
        out["rings.build_ring.misses"] = self.counts["rings.build_ring.misses"]
        out["radicals.prime_radical.s"] = st("radicals.prime_radical").incl
        out["radicals.prime_radical.computed"] = self.counts["radicals.prime_radical.computed"]
        out["radicals.is_strongly_nilpotent.calls"] = st("radicals.is_strongly_nilpotent").calls
        out["radicals.jacobson_radical.s"] = st("radicals.jacobson_radical").incl
        out["radicals.nilpotent_mask.s"] = st("radicals.nilpotent_mask").incl
        for f in VERDICTS:
            key = f"decompositions.{f.removeprefix('is_').removesuffix('_ring')}"
            out[f"{key}.s"] = st(key).incl
        out["decompositions.verdict_lanes"] = self.counts["decompositions.verdict_lanes"]
        out["decompositions.element.s"] = st("decompositions.element").incl
        out["matrices.masks.s"] = st("matrices.masks").incl
        for f in ("classify_pclean_2x2", "discriminant_criteria", "pi_regular_trichotomy"):
            out[f"matrices.{f}.s"] = st(f"matrices.{f}").incl
        out["cli.main.self_s"] = st("cli.main").self_s
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "ring": r, "start": a, "end": b, "id": i, "parent": p}
            for n, r, a, b, i, p in self.spans
        ]


def _pclean_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "pclean" or name.startswith("pclean."))
    ]

