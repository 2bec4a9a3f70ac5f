"""gmspace benchmark: seeded CLI workloads, end to end and per layer.

    python3 bench/run.py --workload zigzag --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check
    python3 bench/run.py --write-pins

Run from the repository root.  One process, one thread, one client in a
closed loop: each operation is `gmspace.cli.dispatch(["--json", ...])`
called in-process from a cold state (the factorization caches are cleared
first), the next one starting when it returns.  The loop cycles through a
seeded pool of operations until `--seconds` have passed; every report is
then checked against an answer known without the code under test, and at
the default seed against the pinned sha256 of its bytes.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs the same loop
and then replays each of the first operations of the pool twice, untraced
and with every layer wrapped (see tracer.py), and reports the per-layer
metrics.  The
last line of stdout is the JSON result; the lines before it are a readable
summary.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = Path(__file__).resolve().parent / "pins.json"
SETUP_REPEATS = 7
SELF_CHECK_SECONDS = 1.0


class Modules:
    """The freshly imported gmspace modules, by short name."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "gmspace" or m.startswith("gmspace.")]:
            del sys.modules[name]
        importlib.import_module("gmspace")
        importlib.import_module("gmspace.cli")
        self.all = tr.gmspace_modules()
        for short, mod in self.all.items():
            setattr(self, short, mod)


def _write_inputs(ops, directory: Path) -> dict[str, tuple[str, ...]]:
    """Write every input file once and return each op's resolved argv."""
    directory.mkdir(parents=True)
    argvs = {}
    for op in ops:
        if op.key in argvs:
            continue
        paths = {}
        for name, payload in op.files.items():
            path = directory / f"{op.key}-{name}.json"
            path.write_text(json.dumps(payload))
            paths[f"@{name}"] = str(path)
        argvs[op.key] = ("--json",) + tuple(paths.get(a, a) for a in op.argv)
    return argvs


def setup(workload: wl.Workload, seed: int, tiny: bool, workdir: Path):
    """Import gmspace, generate the pool and write its input files,
    SETUP_REPEATS times; returns the last set-up and the median time."""
    times = []
    for rep in range(SETUP_REPEATS):
        target = workdir / f"inputs{rep}"
        start = time.perf_counter()
        gm = Modules()
        ops = workload.generate(seed, tiny)
        argvs = _write_inputs(ops, target)
        times.append(time.perf_counter() - start)
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    if not Path(gm.gmspace.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported gmspace from {gm.gmspace.__file__}")
    return gm, ops, argvs, statistics.median(times)


class Runner:
    """Runs ops and keeps, per distinct op, the first report for checking."""

    def __init__(self, gm: Modules, ops, argvs):
        self.gm, self.ops, self.argvs = gm, ops, argvs
        self.records: list[tuple[int, float, object, str]] = []  # op, s, code, sha
        self.first: dict[str, tuple] = {}    # op key -> (code, stdout, error, sha)

    def run(self, i: int, on_done=None) -> float:
        op = self.ops[i]
        fac = self.gm.factorization
        fac.decompose_once.cache_clear()
        fac.is_irreducible.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.gm.cli.dispatch(list(self.argvs[op.key]))
            except Exception:
                code, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
        if on_done is not None:
            on_done()
        text = out.getvalue()
        sha = hashlib.sha256(text.encode()).hexdigest()
        self.records.append((i, elapsed, code, sha))
        if op.key not in self.first:
            self.first[op.key] = (code, text, error or err.getvalue(), sha)
        return elapsed

    def loop(self, seconds: float) -> tuple[int, float]:
        """Closed loop over the pool for `seconds`; returns (ops, wall s)."""
        begin = len(self.records)
        start = time.perf_counter()
        i = 0
        while True:
            self.run(i % len(self.ops))
            i += 1
            if time.perf_counter() - start >= seconds:
                break
        return len(self.records) - begin, time.perf_counter() - start

    def check(self, pins: dict, require_pins: bool) -> dict[str, str]:
        """Failure message per failing op key."""
        failures = {}
        ops = {op.key: op for op in self.ops}
        for key, (code, text, error, sha) in self.first.items():
            op = ops[key]
            problem = None
            if code is None:
                problem = f"exception escaped dispatch:\n{error}"
            else:
                try:
                    report = json.loads(text)
                    if set(report) != {"command", "input_digest", "result"}:
                        problem = f"report keys {sorted(report)}"
                    else:
                        problem = op.check(report["result"], code, self.gm)
                except Exception:
                    problem = f"check raised:\n{traceback.format_exc()}" \
                              f"stdout: {text[:300]!r} stderr: {error[:300]!r}"
            if problem is None and key in pins and pins[key] != sha:
                problem = "report bytes differ from the pinned sha256"
            if problem is None and require_pins and key not in pins:
                problem = "no pinned sha256 for this op at the default seed"
            if problem:
                failures[key] = f"{op.kind} {' '.join(op.argv)}: {problem}"
        for i, _, code, sha in self.records:
            key = self.ops[i].key
            first_code, *_, first_sha = self.first[key]
            if key not in failures and (code, sha) != (first_code, first_sha):
                failures[key] = f"{' '.join(self.ops[i].argv)}: repeat differs"
        return failures

    def failed(self, failures) -> int:
        return sum(1 for i, *_ in self.records if self.ops[i].key in failures)


def percentile_summary(lat: list[float]) -> tuple[float, float, int]:
    """p50, p90 (ms) and the number of samples above p90."""
    p50 = statistics.median(lat) * 1e3
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3
    return p50, p90, sum(1 for x in lat if x * 1e3 > p90)


def block_throughput(lat: list[float], block: int) -> tuple[float, int]:
    """Median over consecutive blocks of one pattern (the same mix of kinds)
    of ops per second of dispatch time; a stall of the machine then moves
    one block, not the figure.  Falls back to the whole loop when it ran
    less than one block."""
    blocks = [lat[i:i + block] for i in range(0, len(lat) - block + 1, block)]
    if not blocks:
        return len(lat) / sum(lat), 0
    return statistics.median(block / sum(b) for b in blocks), len(blocks)


def end_to_end(runner: Runner, n_ops: int, setup_s: float, block: int) -> dict:
    lat = [r[1] for r in runner.records[:n_ops]]
    p50, p90, above = percentile_summary(lat)
    ops_per_s, blocks = block_throughput(lat, block)
    return {"ops_per_s": ops_per_s, "op_p50_ms": p50, "op_p90_ms": p90,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "_above_p90": above, "_blocks": blocks}


def traced_replay(runner: Runner, count: int):
    """Replay each of the first `count` ops untraced and then traced, back
    to back so that both see the same machine; returns the tracer, per-op
    traced wall times and the per-layer metrics."""
    tracer = tr.Tracer(runner.gm.all)
    plain, walls = 0.0, []
    for i in range(count):
        plain += runner.run(i)
        tracer.op = i
        tracer.install()
        try:
            walls.append(runner.run(i, on_done=tracer.after_op))
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    traced = sum(walls)
    metrics["trace.ops_per_s"] = count / traced
    metrics["trace.untraced_ops_per_s"] = count / plain
    metrics["trace.overhead_pct"] = (traced - plain) / plain * 100
    return tracer, walls, metrics


def print_kinds(runner: Runner, records):
    by_kind: dict[str, list[float]] = {}
    for i, elapsed, *_ in records:
        by_kind.setdefault(runner.ops[i].kind, []).append(elapsed * 1e3)
    for kind, lat in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"    {kind:<20} n={len(lat):<5} p50={statistics.median(lat):9.2f} ms"
              f"  max={max(lat):9.2f} ms")


def print_layers(tracer, walls):
    by_op = tracer.module_self_by_op()
    order = sorted(range(len(walls)), key=walls.__getitem__)
    slowest = order[-max(1, len(order) // 10):]
    for label, ops in (("all traced ops", order), ("slowest decile", slowest)):
        total = sum(walls[i] for i in ops)
        share: dict[str, float] = {}
        for i in ops:
            for module, own in by_op[i].items():
                share[module] = share.get(module, 0.0) + own
        parts = ", ".join(f"{m} {v / total:.0%}" for m, v in
                          sorted(share.items(), key=lambda kv: -kv[1]) if v / total >= 0.005)
        print(f"  self time, {label} ({len(ops)} ops, {total:.2f} s): {parts}")


def load_pins() -> dict:
    if not PINS.exists():
        return {}
    data = json.loads(PINS.read_text())
    return {k: v for name in wl.WORKLOADS for k, v in data.get(name, {}).items()}


@dataclass
class Outcome:
    attempted: int
    failed: int
    e2e: dict
    layers: dict = field(default_factory=dict)
    tracer: Optional[tr.Tracer] = None
    walls: list = field(default_factory=list)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> Outcome:
    workload = wl.WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        gm, ops, argvs, setup_s = setup(workload, seed, tiny, workdir)
        runner = Runner(gm, ops, argvs)
        n_ops, wall = runner.loop(seconds)
        e2e = end_to_end(runner, n_ops, setup_s, len(workload.pattern()))
        outcome = Outcome(0, 0, e2e)
        if trace:
            outcome.tracer, outcome.walls, outcome.layers = traced_replay(
                runner, min(workload.trace_ops, len(ops)))
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            outcome.tracer.dump(trace_dir / f"{name}-seed{seed}.tsv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    require = seed == wl.DEFAULT_SEED and not tiny and PINS.exists()
    failures = runner.check(load_pins(), require)
    outcome.attempted = attempted = len(runner.records)
    outcome.failed = failed = runner.failed(failures)
    print(f"workload {name}, seed {seed}: {n_ops} ops in {wall:.2f} s "
          f"({len(runner.first)} distinct of a pool of {len(ops)})")
    print(f"  ops_per_s   {e2e['ops_per_s']:10.3f} 1/s  "
          f"(median of {e2e['_blocks']} blocks of {len(workload.pattern())} ops)")
    print(f"  op_p50_ms   {e2e['op_p50_ms']:10.3f} ms   (n={n_ops})")
    print(f"  op_p90_ms   {e2e['op_p90_ms']:10.3f} ms   "
          f"(n={n_ops}, {e2e['_above_p90']} above p90)")
    print(f"  setup_s     {e2e['setup_s']:10.4f} s    "
          f"(median of {SETUP_REPEATS} set-ups)")
    print(f"  error_rate  {failed / attempted:10.4f}      ({failed}/{attempted})")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:10.1f} MB")
    print_kinds(runner, runner.records[:n_ops])
    if trace:
        print(f"  traced replay of {len(outcome.walls)} ops: overhead "
              f"{outcome.layers['trace.overhead_pct']:.1f}%")
        print_layers(outcome.tracer, outcome.walls)
    for message in list(failures.values())[:10]:
        print(f"  FAILED {message}")
    return outcome


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(outcome: Outcome, trace: bool) -> str:
    wanted = declared()["per_layer" if trace else "end_to_end"]
    values = outcome.layers if trace else outcome.e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return json.dumps({"correct": outcome.failed == 0,
                       "attempted": outcome.attempted,
                       "failed": outcome.failed, "metrics": metrics})


def self_check() -> int:
    """Every workload at a tiny size, traced: no failures, every declared
    metric produced, and each op's self times adding up to its wall time."""
    spec = declared()
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    specs = tr.metric_specs()
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != specs:
        problems.append("BENCHMARK.json per_layer differs from tracer.metric_specs()")
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    for module, layer in tr.LAYERS.items():
        for target in layer["moves"] + layer["unchanged"]:
            workload, metric = target.split(":")
            if workload not in wl.WORKLOADS or metric not in e2e_names:
                problems.append(f"LAYERS[{module!r}] names unknown {target}")
    for name in wl.WORKLOADS:
        outcome = run_workload(name, wl.DEFAULT_SEED, SELF_CHECK_SECONDS,
                               trace=True, tiny=True)
        if outcome.failed:
            problems.append(f"{name}: error_rate {outcome.failed}/"
                            f"{outcome.attempted}")
        missing = [m for m in e2e_names if m not in outcome.e2e]
        missing += [m for m, *_ in specs if m not in outcome.layers]
        if missing:
            problems.append(f"{name}: metrics not produced: {missing}")
        by_op = outcome.tracer.module_self_by_op()
        for i, wall in enumerate(outcome.walls):
            own = sum(by_op[i].values())
            if abs(own - wall) > 0.02 * wall + 5e-5:
                problems.append(f"{name}: op {i} self times sum to "
                                f"{own * 1e3:.3f} ms, traced wall "
                                f"{wall * 1e3:.3f} ms")
                break
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check passed" if not problems else "self-check failed")
    return 1 if problems else 0


def write_pins() -> int:
    """Run every op of each default-seed pool once, check it, and pin the
    sha256 of its report."""
    pins = {"seed": wl.DEFAULT_SEED}
    for name, workload in wl.WORKLOADS.items():
        workdir = WORK / f"pins-{name}-{os.getpid()}"
        try:
            gm, ops, argvs, _ = setup(workload, wl.DEFAULT_SEED, False, workdir)
            runner = Runner(gm, ops, argvs)
            seen = set()
            for i, op in enumerate(ops):
                if op.key not in seen:
                    seen.add(op.key)
                    runner.run(i)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failures = runner.check({}, False)
        if failures:
            for message in failures.values():
                print(f"FAILED {message}")
            return 1
        pins[name] = {key: first[-1] for key, first in sorted(runner.first.items())}
        print(f"{name}: pinned {len(pins[name])} reports")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "gmspace" / "__init__.py").is_file():
        print(f"error: no gmspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(result_line(outcome, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
