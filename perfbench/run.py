#!/usr/bin/env python3
"""convcheck benchmark: end-to-end and per-layer metrics of four workloads.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Run from the repository root; the program is taken from ``src/``.

Load model: a closed loop with one client.  Each iteration is one fresh
interpreter (perfbench/worker.py), started only after the previous one
has exited, because every CLI user pays convcheck's module caches cold.
Iterations repeat, on the same seeded inputs, while another one still
fits in ``--seconds``; at least one always runs.

Workloads (see BENCHMARK.json for why each one is there):
  catalog      convcheck verify --all --format json (the seed is unused)
  t4_deep      T4.1-T4.3 on the indeterminate ring, n = 0..32, fresh Context
  roots_subst  root-ring corrected/sole records at 4 seeded (y, t) points,
               plus the 12 parity companions
  sequences    compute bernoulli|euler|genocchi 600 and the three Appell
               polynomials of degree 100 at a seeded x and at x + 1

--trace 0 prints the end-to-end metrics:
  wall_s       process start to exit, median over iterations
  setup_s      process start to the end of import convcheck +
               register_catalog(), median over the iterations and the
               set-up-only probes run before each of them
  check_s      the workload's checks alone, median over iterations
  peak_rss_mb  peak resident memory of an iteration (VmHWM), median
The three times are given at a fixed reference host speed.  On a
shared host the same process can run twice as fast or slow from one
second to the next, and the share of slow time moves by tens of percent
between minutes, so raw times of identical code do not repeat.  Each
untraced process therefore runs the speed gauge of worker.py, and a
time T over an interval becomes
    (T - gauge time in it) * REF_GAUGE_S / mean gauge kernel time,
the time the program would have taken had the host run the gauge kernel
in REF_GAUGE_S throughout.  The mean is over the middle 80% of the
kernel times: for wall_s and check_s, those of the process's checks;
for setup_s, those of every set-up in the run, as one set-up has too
few of its own.  The gauge tracks the host only in part (a slow spell
slows the program somewhat more than the kernel), so the scaled times
still move with the host, but by a fraction of what raw times do.  The
raw times are printed beside them.
--trace 1 alternates untraced and traced iterations and prints the
per-layer metrics of the traced ones (tracer.py, raw times, no gauge),
with trace.overhead_ratio = median traced wall time / median untraced
wall time less its gauge time.

Wrong results and crashes are counted, against the golden results in
checks.py, in ``failed`` out of ``attempted``; fail_ratio is their
quotient.  The last line of stdout is the JSON result; the line before
it holds the environment record and the raw samples, also written to
.perfbench_out/run-<workload>-trace<0|1>.json.  --smoke runs every
workload at its smallest size, traced and untraced, and checks that
exactly the metrics named in BENCHMARK.json are reported, with their units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracer import baseline_shape  # noqa: E402

WORKLOADS = ("catalog", "t4_deep", "roots_subst", "sequences")
SETUP_PROBES = 5  # set-up-only processes before each untraced iteration
HARD_LIMIT_S = 165.0  # kill whatever still runs, so the run ends within 180 s
REF_GAUGE_S = 0.0008  # reference duration of worker.gauge_kernel

# (full size, smoke size) of each workload's parameters
SIZES = {
    "catalog": ({"max_n": None}, {"max_n": 2}),
    "t4_deep": ({"n_max": 32}, {"n_max": 4}),
    "roots_subst": ({"points": 4, "n_cap": None}, {"points": 1, "n_cap": 2}),
    "sequences": ({"number_index": 600, "poly_degree": 100},
                  {"number_index": 8, "poly_degree": 6}),
}

_NONZERO = [k for k in range(-9, 10) if k]


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def seeded_points(rng: random.Random, count: int):
    """(y, t) points with small non-zero rationals, rejecting those where
    a discriminant y^2 + 4t or 9y^2 - t vanishes (convcheck rightly
    refuses to build a root ring there)."""
    points, rejected = [], 0
    while len(points) < count:
        y = Fraction(rng.choice(_NONZERO), rng.randint(1, 9))
        t = Fraction(rng.choice(_NONZERO), rng.randint(1, 9))
        if y * y + 4 * t == 0 or 9 * y * y - t == 0:
            rejected += 1
            continue
        points.append((y, t))
    return points, rejected


def make_inputs(workload: str, seed: int, smoke: bool) -> Dict:
    """The generated inputs of one run; the same seed gives the same inputs."""
    size = SIZES[workload][1 if smoke else 0]
    rng = random.Random(seed)
    inp: Dict = {"workload": workload, **size}
    if workload == "catalog":
        argv = ["verify", "--all", "--format", "json"]
        if size["max_n"] is not None:
            argv[2:2] = ["--max-n", str(size["max_n"])]
        inp.update(kind="cli", calls=[argv])
    elif workload == "t4_deep":
        inp.update(kind="t4", records=checks.GOLDEN["t4_deep"]["records"])
    elif workload == "roots_subst":
        points, rejected = seeded_points(rng, size["points"])
        cap = size["n_cap"]
        golden = checks.GOLDEN["roots_subst"]

        def capped(rows):
            return [[k, lo, hi if cap is None else min(hi, cap)] for k, lo, hi in rows]

        inp.update(kind="roots", points=[[str(y), str(t)] for y, t in points],
                   points_rejected=rejected, records=capped(golden["records"]),
                   companions=capped(golden["companions"]))
    else:
        x = Fraction(rng.choice(_NONZERO), rng.randint(1, 9))
        inp.update(kind="cli", x=str(x),
                   calls=checks.sequence_calls(size["number_index"], size["poly_degree"], x))
    return inp


class Iteration:
    """One fresh-interpreter run of the worker and what it reported."""

    def __init__(self, workdir: Path, input_path: Path, deadline: float,
                 spans_path: Optional[Path] = None):
        result_path = workdir / "result.json"
        if result_path.exists():
            result_path.unlink()
        # -E: the caller's PYTHON* variables (PYTHONDONTWRITEBYTECODE among
        # them) do not change what is measured; set-up reads the bytecode
        # cache under src/ that the warm-up probe writes, as an installed
        # convcheck would
        cmd = [sys.executable, "-E", str(BENCH / "worker.py"), str(input_path), str(result_path)]
        if spans_path is not None:
            cmd.append(str(spans_path))
        with open(workdir / "stderr.txt", "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, max(0.001, deadline - t0))
            try:
                proc.wait()
                t1 = clock()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw_wall_s = t1 - t0
        self.result: Optional[Dict] = None
        self.error = ""
        if proc.returncode == 0 and result_path.exists():
            self.result = json.loads(result_path.read_text())
            t_ready, t_done = self.result["t_ready"], self.result["t_done"]
            self.raw_setup_s = t_ready - t0
            self.raw_check_s = t_done - t_ready
            gauge = self.result["gauge"] or []
            # wall time less the gauge's own: what trace.overhead_ratio compares
            self.busy_s = self.raw_wall_s - sum(d for _, d in gauge)
            # the checks are sampled at a lower rate than set-up, so their
            # samples alone scale wall_s, of which they are nearly all
            checking = [d for t, d in gauge if t >= t_ready]
            self.wall_s = at_reference_speed(gauge, t0, t1, checking)
            self.check_s = at_reference_speed(gauge, t_ready, t_done, checking)
            # a set-up has too few samples of its own for a steady gauge;
            # run() scales it by the set-up samples of the whole run
            self.setup_gauge = [d for t, d in gauge if t < t_ready]
            self.setup_busy_s = self.raw_setup_s - sum(self.setup_gauge)
            self.gauge_ms = 1e3 * trimmed_mean([d for _, d in gauge]) if gauge else None
            self.peak_rss_mb = self.result["peak_rss_kb"] / 1024.0
        else:
            tail = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            self.error = f"worker exit {proc.returncode}: " + " | ".join(tail)


def at_reference_speed(gauge: List, start: float, end: float, scale: List[float]) -> float:
    """The interval [start, end] of a gauged process, less the gauge's
    own time in it, scaled to the reference speed by the gauge kernel
    durations ``scale`` (by all of the process's if that is empty)."""
    spent = sum(d for t, d in gauge if start <= t < end)
    scale = scale or [d for _, d in gauge]
    if not scale:  # traced, or too short for a single sample
        return end - start
    return (end - start - spent) * REF_GAUGE_S / trimmed_mean(scale)


def trimmed_mean(values: List[float]) -> float:
    """Mean of the middle 80%: a kernel run that a page fault or a long
    preemption stretched tenfold must not rescale the whole process."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.mean(values[cut:len(values) - cut])


def git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over src/convcheck/**/*.py, to tell code versions apart
    where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "convcheck").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(inp: Dict, seed: int, backend: Optional[str]) -> Dict:
    sizes = {k: v for k, v in inp.items()
             if k not in ("workload", "kind", "calls", "records", "companions")}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "backend": backend,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": inp["workload"],
        "seed": seed,
        "sizes": sizes,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Dict:
    """One benchmark run; returns the result object and the run record."""
    started = clock()
    hard_deadline = started + HARD_LIMIT_S
    workdir = OUT / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inp = make_inputs(workload, seed, smoke)
        input_path = workdir / "input.json"
        input_path.write_text(json.dumps(inp))
        probe_path = workdir / "probe.json"
        probe_path.write_text(json.dumps({"kind": "setup"}))
        warm_path = workdir / "warmup.json"
        warm_path.write_text(json.dumps({"kind": "warmup"}))

        warm = Iteration(workdir, warm_path, hard_deadline)
        if warm.result is None:
            raise SystemExit(f"perfbench: cannot set up convcheck ({warm.error})")
        backend = warm.result["backend"]

        probes: List[Iteration] = []
        plain: List[Iteration] = []
        traced: List[Iteration] = []
        attempted = failed = 0
        problems: List[str] = []
        spans_path = OUT / f"spans-{workload}.bin" if trace else None
        longest = 0.0
        while True:
            group_start = clock()
            if not trace:
                for _ in range(SETUP_PROBES):
                    probe = Iteration(workdir, probe_path, hard_deadline)
                    if probe.result is None:
                        raise SystemExit(f"perfbench: set-up probe failed ({probe.error})")
                    probes.append(probe)
            group = [Iteration(workdir, input_path, hard_deadline)]
            if trace:
                group.append(Iteration(workdir, input_path, hard_deadline, spans_path))
            for it in group:
                if it.result is None:
                    n = checks.expected_attempts(inp)
                    attempted += n
                    failed += n
                    problems.append(it.error)
                    continue
                a, f, p = checks.check(inp, it.result["outputs"])
                attempted += a
                failed += f
                problems += p
                (traced if "layers" in it.result else plain).append(it)
            longest = max(longest, clock() - group_start)
            if any(it.result is None for it in group) or clock() + longest > started + seconds:
                break

        record: Dict = {"environment": environment(inp, seed, backend)}
        if trace:
            layers = {}
            if traced:
                for name in traced[0].result["layers"]:
                    layers[name] = statistics.median(it.result["layers"][name] for it in traced)
                layers["trace.overhead_ratio"] = (
                    statistics.median(it.busy_s for it in traced)
                    / statistics.median(it.busy_s for it in plain)) if plain else 0.0
            layers["fail_ratio"] = failed / attempted if attempted else 0.0
            metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
            record["samples"] = {"traced_busy_s": [it.busy_s for it in traced],
                                 "untraced_busy_s": [it.busy_s for it in plain]}
            if workload == "catalog" and traced and not smoke:
                record["baseline_shape"] = baseline_shape(layers)
        else:
            setup_gauge = [d for it in probes + plain for d in it.setup_gauge]
            setup_scale = REF_GAUGE_S / trimmed_mean(setup_gauge) if setup_gauge else 1.0
            samples = {
                "wall_s": [it.wall_s for it in plain],
                "setup_s": [it.setup_busy_s * setup_scale for it in probes + plain],
                "check_s": [it.check_s for it in plain],
                "peak_rss_mb": [it.peak_rss_mb for it in plain],
            }
            metrics = {name: {"value": statistics.median(values), "unit": unit_of(name)}
                       for name, values in samples.items() if values}
            record["samples"] = dict(
                samples,
                raw_wall_s=[it.raw_wall_s for it in plain],
                raw_setup_s=[it.raw_setup_s for it in probes + plain],
                raw_check_s=[it.raw_check_s for it in plain],
                gauge_ms=[it.gauge_ms for it in probes + plain])
        record["problems"] = problems[:50]
        result = {"correct": failed == 0 and attempted > 0 and not problems,
                  "attempted": attempted, "failed": failed, "metrics": metrics}
        record["result"] = result
        (OUT / f"run-{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("ratio") or metric.endswith("exponent"):
        return "ratio"
    return "count"


def smoke() -> int:
    """Every workload at its smallest size, untraced and traced: the
    results must be correct and carry exactly the metrics named in
    BENCHMARK.json, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run(workload, seed=1, seconds=0, trace=trace, smoke=True)
            result = record["result"]
            missing = [m["name"] for m in spec[key] if m["name"] not in result["metrics"]]
            extra = sorted(set(result["metrics"]) - {m["name"] for m in spec[key]})
            wrong = [f"{m['name']} unit {result['metrics'][m['name']]['unit']}"
                     for m in spec[key] if m["name"] in result["metrics"]
                     and result["metrics"][m["name"]]["unit"] != m["unit"]]
            good = result["correct"] and not missing and not extra and not wrong
            ok &= good
            print(f"smoke {workload} trace={int(trace)}: {'ok' if good else 'FAILED'}"
                  + (f" missing={missing}" if missing else "") + (f" extra={extra}" if extra else "")
                  + (f" units={wrong}" if wrong else "")
                  + (f" problems={record['problems'][:3]}" if not result["correct"] else ""))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up paths
    if not (ROOT / "src" / "convcheck" / "__init__.py").is_file():
        print(f"perfbench: no convcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"][:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if "baseline_shape" in record:
        print(f"perfbench: baseline shape {record['baseline_shape']}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("environment", "samples")}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
