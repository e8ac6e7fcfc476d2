"""One benchmark iteration in a fresh interpreter.

usage: python3 perfbench/worker.py INPUT_JSON RESULT_JSON [SPANS_FILE]

The input file holds the generated inputs of one workload (see
``make_inputs`` in run.py), ``{"kind": "setup"}`` for a set-up probe, or
``{"kind": "warmup"}``, a set-up probe that also imports every module.
The worker sets up (``import convcheck`` and ``register_catalog()``),
runs the workload, and writes the program's outputs with two
CLOCK_MONOTONIC readings: ``t_ready`` after set-up and ``t_done`` after
the checks.  The parent compares them with its own reading taken just
before it started this process.  With SPANS_FILE, every layer is traced
(tracer.py), the spans are written there, and per-layer metrics are
added to the result.

Without SPANS_FILE, a speed gauge runs alongside the program: every
``GAUGE_INTERVAL_S`` of wall time (``SETUP_GAUGE_INTERVAL_S`` during the
short set-up) a SIGALRM handler runs ``gauge_kernel``,
a fixed piece of pure-Python Fraction, integer and dict work that calls
no convcheck code, and records when it ran and how long it took.  The
kernel's duration tracks how fast the host is running this process at
that moment (on a shared host that swings by up to a factor of two
within seconds); run.py uses it to scale the timings to a fixed
reference speed.

Program outputs are returned unjudged; checks.py judges them.
"""

import gc
import os
import signal
import sys
import time
from fractions import Fraction

GAUGE_INTERVAL_S = 0.025
SETUP_GAUGE_INTERVAL_S = 0.01


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_GAUGE_P = {(i, j): Fraction(7 ** (12 + i) + j, 3 ** (9 + j) + 1) for i in range(4) for j in range(3)}
_GAUGE_Q = {(i, j): Fraction(5 ** (10 + j) - i, 2 ** (20 + i) + 3) for i in range(3) for j in range(3)}
_GAUGE_X = 7 ** 2000
_GAUGE_Y = 11 ** 1900


def gauge_kernel() -> int:
    """Fixed work whose duration measures the host's speed: the kinds of
    work convcheck does, in code of its own.  The product of two small
    sparse polynomials with Fraction coefficients of 10 to 20 digits,
    two products of integers of about 1,800 digits, and a fresh dict of
    200 Fractions (about 0.8 ms on an idle core of a 2-vCPU x86-64 VM)."""
    out = {}
    for (pa, qa), ca in _GAUGE_P.items():
        for (pb, qb), cb in _GAUGE_Q.items():
            e = (pa + pb, qa + qb)
            c = out.get(e)
            out[e] = ca * cb if c is None else c + ca * cb
    fresh = {(i, i & 7): Fraction(i + 1, (i & 15) + 1) for i in range(200)}
    return (len(out) + len(fresh) + (_GAUGE_X + 1) * _GAUGE_Y % 1009
            + (_GAUGE_X + 2) * _GAUGE_Y % 1013)


class SpeedGauge:
    """Runs ``gauge_kernel`` from a wall-clock timer; ``samples`` holds
    (start, duration) pairs on CLOCK_MONOTONIC."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        # a collection started by the kernel's allocations would be the
        # program's garbage timed as the gauge's
        collecting = gc.isenabled()
        gc.disable()
        t0 = clock()
        gauge_kernel()
        self.samples.append((t0, clock() - t0))
        if collecting:
            gc.enable()

    def start(self, interval):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_kb() -> int:
    """Peak resident set of this program image.  VmHWM starts afresh at
    exec, unlike ru_maxrss, which keeps the high-water mark of the
    process that forked this one."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_cli(inp):
    import contextlib
    import io

    from convcheck import cli

    out = []
    for argv in inp["calls"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out.append([rc, buf.getvalue()])
    return out


def _summary(verdicts):
    return {"count": len(verdicts), "failed": [v.n for v in verdicts if not v.passed]}


def _run_t4(inp):
    from convcheck.identities.catalog import get_record
    from convcheck.identities.core import Context, run_record

    ctx = Context("indeterminate")
    return {key: _summary(run_record(get_record(key), (0, inp["n_max"]), ctx))
            for key in inp["records"]}


def _guarded(fn, *args):
    # one failing record must not hide the verdicts of the others
    try:
        return _summary(fn(*args))
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        return {"count": 0, "failed": [], "error": f"{type(exc).__name__}: {exc}"}


def _run_roots(inp):
    from fractions import Fraction

    from convcheck.identities.catalog import get_record
    from convcheck.identities.core import parity_restriction_equivalence, run_record_substituted

    records = [(get_record(key), lo, hi) for key, lo, hi in inp["records"]]
    points = []
    for y, t in inp["points"]:
        bindings = {"y": Fraction(y), "t": Fraction(t)}
        points.append({rec.key: _guarded(run_record_substituted, rec, bindings, (lo, hi))
                       for rec, lo, hi in records})
    companions = {key: _guarded(parity_restriction_equivalence, get_record(key), (lo, hi))
                  for key, lo, hi in inp["companions"]}
    return {"points": points, "companions": companions}


def _warm_up(inp):
    # imports every module once, so that their bytecode is cached before
    # anything is measured
    import convcheck.cli  # noqa: F401


_KINDS = {"cli": _run_cli, "t4": _run_t4, "roots": _run_roots, "warmup": _warm_up}


def main() -> int:
    input_path, result_path = sys.argv[1], sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    tracer = gauge = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        gauge = SpeedGauge()
        gauge.start(SETUP_GAUGE_INTERVAL_S)

    import convcheck
    from convcheck.identities.catalog import register_catalog

    register_catalog()
    t_ready = clock()
    if gauge is not None:
        gauge.start(GAUGE_INTERVAL_S)

    if not os.path.abspath(convcheck.__file__).startswith(src + os.sep):
        print(f"convcheck imported from {convcheck.__file__}, not from {src}", file=sys.stderr)
        return 4

    import json

    with open(input_path, encoding="utf-8") as fh:
        inp = json.load(fh)
    outputs = None
    if inp["kind"] != "setup":
        outputs = _KINDS[inp["kind"]](inp)
    t_done = clock()
    if gauge is not None:
        gauge.stop()

    result = {"t_ready": t_ready, "t_done": t_done, "peak_rss_kb": peak_rss_kb(),
              "backend": convcheck.BACKEND, "outputs": outputs,
              "gauge": gauge.samples if gauge is not None else None}
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics()
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
