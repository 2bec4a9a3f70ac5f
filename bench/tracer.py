"""Per-layer spans and counters, recorded from outside gmspace.

The tracer wraps public functions of each gmspace module in place: the
module attribute, every other gmspace module's imported name for the same
function, and methods on their class.  Each call records a span (name,
start, end, parent span, op id) in flat arrays; spans stay in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children, so the self times of one op add
up to its `cli.dispatch` span.  Functions that are too hot for a span only
count calls.  `uninstall` restores every patched attribute.

LAYERS is also the record of which end-to-end metric each layer should
move, on which workload ("<workload>:<metric>"), and where a change to the
layer is predicted to leave the numbers alone.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

LAYERS = {
    "cli": {
        "spans": ["dispatch"],
        "moves": ["algebra:op_p50_ms", "algebra:ops_per_s"],
        "unchanged": ["zigzag:ops_per_s"],
        "note": "parse, JSON load, digest and emit; under 1% of zigzag"},
    "zigzag": {
        "spans": ["distance_matrix", "zigzag_distance", "oriented_embeddable",
                  "fence_distance"],
        "moves": ["zigzag:ops_per_s", "zigzag:op_p90_ms", "zigzag:op_p50_ms"],
        "unchanged": ["search:ops_per_s", "search:op_p90_ms"]},
    "automata": {
        "spans": ["determinize", "intersect", "complement", "minimal_antichain",
                  "enumerate_finite"],
        "builds": ["Automaton.__post_init__"],
        "counters": ["determinize.states", "intersect.states",
                     "minimal_antichain.antichain_max",
                     "minimal_antichain.antichain_total"],
        "moves": ["zigzag:ops_per_s", "zigzag:op_p90_ms", "zigzag:op_p50_ms",
                  "algebra:op_p50_ms"],
        "unchanged": ["search:ops_per_s", "search:op_p90_ms"],
        "note": "zero calls on search"},
    "segments": {
        "spans": ["FinalSegment.of", "FinalSegment.oplus", "FinalSegment.meet",
                  "FinalSegment.join", "FinalSegment.involute", "residual",
                  "in_macneille"],
        "moves": ["algebra:op_p50_ms", "algebra:ops_per_s"],
        "unchanged": ["search:ops_per_s"]},
    "words": {
        "spans": ["minimize_words", "minimal_common_superwords"],
        "counts": ["subword_leq"],
        "moves": ["algebra:op_p50_ms", "algebra:ops_per_s"],
        "unchanged": ["search:ops_per_s"]},
    "factorization": {
        "spans": ["factorize"],
        "counters": ["decompose_once.hits", "decompose_once.misses",
                     "decompose_once.currsize", "is_irreducible.hits",
                     "is_irreducible.misses", "is_irreducible.currsize"],
        "moves": ["algebra:op_p50_ms", "algebra:op_p90_ms", "algebra:ops_per_s"],
        "unchanged": ["zigzag:ops_per_s", "search:ops_per_s"]},
    "semirigid": {
        "spans": ["is_semirigid", "is_monogenic", "has_center_of_symmetry",
                  "plane_system"],
        "moves": ["search:op_p90_ms", "search:ops_per_s"],
        "unchanged": ["zigzag:ops_per_s", "algebra:ops_per_s"]},
    "partitions": {
        "spans": ["sublattice_closure", "orthogonal_family_search", "crt_solve",
                  "kaarli_extend"],
        "builds": ["Partition.__post_init__"],
        "counters": ["sublattice_closure.size"],
        "moves": ["search:op_p50_ms", "search:ops_per_s"],
        "unchanged": ["zigzag:ops_per_s", "algebra:ops_per_s"],
        "note": "eqv orthogonal 6 (0.8 s) sits above p90 on search"},
    "zcong": {
        "spans": ["zn_affine_check"],
        "counters": ["zn_affine_check.points"],
        "moves": ["search:op_p50_ms", "search:ops_per_s"],
        "unchanged": ["zigzag:ops_per_s", "algebra:ops_per_s"]},
    "spaces": {
        "spans": ["FiniteGms.check_axioms", "FiniteGms.is_hyperconvex",
                  "FiniteGms.fpp_check"],
        "builds": ["MonoidTable.__init__"],
        "counts": ["MonoidTable.leq"],
        "moves": ["search:op_p50_ms", "search:ops_per_s"],
        "unchanged": ["zigzag:ops_per_s", "algebra:ops_per_s"]},
}

TRACE_METRICS = [("trace.ops_per_s", "1/s", "higher"),
                 ("trace.untraced_ops_per_s", "1/s", "higher"),
                 ("trace.overhead_pct", "%", "lower")]


def _class_name(module: str, target: str) -> str:
    """`automata.Automaton` for the build target `Automaton.__post_init__`;
    its span is `automata.Automaton.build`."""
    return f"{module}.{target.split('.')[0]}"


def _has_layer_total(layer: dict) -> bool:
    """A layer with one span and no builds would repeat that span's self_ms."""
    return len(layer["spans"]) + len(layer.get("builds", [])) > 1


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, layer in LAYERS.items():
        for span in layer["spans"]:
            base = f"{module}.{span}"
            out += [(f"{base}.calls", "count", "lower"),
                    (f"{base}.ms", "ms", "lower"),
                    (f"{base}.self_ms", "ms", "lower")]
        for target in layer.get("builds", []):
            base = _class_name(module, target)
            out += [(f"{base}.builds", "count", "lower"),
                    (f"{base}.build_ms", "ms", "lower")]
        for target in layer.get("counts", []):
            out.append((f"{module}.{target}.calls", "count", "lower"))
        for counter in layer.get("counters", []):
            better = "higher" if counter.endswith(".hits") else "lower"
            out.append((f"{module}.{counter}", "count", better))
        if _has_layer_total(layer):
            out.append((f"layer.{module}.self_ms", "ms", "lower"))
    return out + TRACE_METRICS


def _add_states(name):
    return lambda t, args, res: t.add(name, res.num_states)


def _antichain(t, args, res):
    t.counters["automata.minimal_antichain.antichain_max"] = max(
        t.counters["automata.minimal_antichain.antichain_max"], len(res))
    t.add("automata.minimal_antichain.antichain_total", len(res))


def _grid_points(t, args, res):
    count = 1
    for lo, hi in args[0].window:
        count *= hi - lo + 1
    t.add("zcong.zn_affine_check.points", count)


RESULT_HOOKS = {
    "automata.determinize": _add_states("automata.determinize.states"),
    "automata.intersect": _add_states("automata.intersect.states"),
    "automata.minimal_antichain": _antichain,
    "partitions.sublattice_closure":
        lambda t, args, res: t.add("partitions.sublattice_closure.size", len(res)),
    "zcong.zn_affine_check": _grid_points,
}

CACHED = ["decompose_once", "is_irreducible"]


class Tracer:
    def __init__(self, modules: dict):
        """`modules` maps short names ("zigzag", ...) to imported modules."""
        self.modules = modules
        self.names: list[str] = []
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack: list[int] = []    # indices of the open spans
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._patches: list[tuple] = []

    def add(self, name: str, value) -> None:
        self.counters[name] += value

    # --- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = RESULT_HOOKS.get(name)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.sp_name)
            self.sp_name.append(nid)
            self.sp_parent.append(stack[-1] if stack else -1)
            self.sp_op.append(self.op)
            self.sp_start.append(0.0)
            self.sp_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.sp_start[idx] = start
                self.sp_end[idx] = end
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _plan(self, module: str, target: str, make) -> list[tuple]:
        """(owner, attribute, original, wrapper) for one target."""
        mod = self.modules[module]
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                return [(cls, attr, raw, classmethod(make(raw.__func__)))]
            return [(cls, attr, raw, make(raw))]
        orig = getattr(mod, target)
        new = make(orig)
        return [(other, attr, orig, new) for other in self.modules.values()
                for attr, value in vars(other).items() if value is orig]

    def install(self) -> None:
        """Swap every wrapper in; the wrappers are built on the first call."""
        if not self._patches:
            for module, layer in LAYERS.items():
                for span in layer["spans"]:
                    self._patches += self._plan(module, span, functools.partial(
                        self._span, f"{module}.{span}"))
                for target in layer.get("builds", []):
                    self._patches += self._plan(module, target, functools.partial(
                        self._span, f"{_class_name(module, target)}.build"))
                for target in layer.get("counts", []):
                    self._patches += self._plan(module, target, functools.partial(
                        self._count, f"{module}.{target}.calls"))
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def after_op(self) -> None:
        fac = self.modules["factorization"]
        for name in CACHED:
            info = getattr(fac, name).cache_info()
            self.add(f"factorization.{name}.hits", info.hits)
            self.add(f"factorization.{name}.misses", info.misses)
            self.add(f"factorization.{name}.currsize", info.currsize)

    # --- results ----------------------------------------------------------------

    def span_self(self) -> list[float]:
        """Self time of every recorded span, in seconds."""
        dur = [e - s for s, e in zip(self.sp_start, self.sp_end)]
        own = list(dur)
        for i, parent in enumerate(self.sp_parent):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def module_self_by_op(self) -> dict[int, dict[str, float]]:
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for nid, op, own in zip(self.sp_name, self.sp_op, self.span_self()):
            out[op][self.names[nid].split(".")[0]] += own
        return out

    def metrics(self) -> dict[str, float]:
        calls = defaultdict(int)
        total = defaultdict(float)
        own_by_name = defaultdict(float)
        for nid, s, e, own in zip(self.sp_name, self.sp_start, self.sp_end,
                                  self.span_self()):
            name = self.names[nid]
            calls[name] += 1
            total[name] += e - s
            own_by_name[name] += own
        out: dict[str, float] = {}
        for module, layer in LAYERS.items():
            layer_own = 0.0
            for span in layer["spans"]:
                name = f"{module}.{span}"
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.ms"] = total[name] * 1e3
                out[f"{name}.self_ms"] = own_by_name[name] * 1e3
                layer_own += own_by_name[name]
            for target in layer.get("builds", []):
                base = _class_name(module, target)
                name = f"{base}.build"
                out[f"{base}.builds"] = calls[name]
                out[f"{base}.build_ms"] = total[name] * 1e3
                layer_own += own_by_name[name]
            for target in layer.get("counts", []):
                out[f"{module}.{target}.calls"] = self.counters[
                    f"{module}.{target}.calls"]
            for counter in layer.get("counters", []):
                out[f"{module}.{counter}"] = self.counters[f"{module}.{counter}"]
            if _has_layer_total(layer):
                out[f"layer.{module}.self_ms"] = layer_own * 1e3
        return out

    def dump(self, path) -> None:
        """Write every span as a tab-separated row, times in ms from the
        first span's start."""
        t0 = self.sp_start[0] if self.sp_start else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_ms\tend_ms\n")
            for i, (nid, parent, op, s, e) in enumerate(zip(
                    self.sp_name, self.sp_parent, self.sp_op,
                    self.sp_start, self.sp_end)):
                fh.write(f"{i}\t{parent}\t{op}\t{self.names[nid]}\t"
                         f"{(s - t0) * 1e3:.4f}\t{(e - t0) * 1e3:.4f}\n")


def gmspace_modules() -> dict:
    """Every imported gmspace module, keyed by its short name."""
    return {name.split(".")[-1]: mod for name, mod in sys.modules.items()
            if name == "gmspace" or name.startswith("gmspace.")}
