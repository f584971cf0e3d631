#!/usr/bin/env python3
"""Benchmark of the zmc package: end-to-end metrics per workload, per-layer
metrics from a traced run, and a comparison of two result sets.

Run from the root of a checkout:

    python3 bench/run.py --workload mesh|graph|scan --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --compare RESULTS_A RESULTS_B

One workload run prints, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Each run also writes
its full result, with the machine record, to .bench_out/ (and its spans,
when traced).  `--all` runs every workload untraced and traced, each in a
fresh interpreter, and prints a table.  `--compare` prints, for two
directories of results, each metric's median and quartiles over seeds and
the ratio of the medians.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("mesh", "graph", "scan")
SETUP_REPEATS = 15
END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("verified_ratio", "ratio"),
              ("max_err_digits", "digits"), ("peak_rss_mb", "MB"))


def pin_threads(env):
    """One BLAS/OpenMP thread, and no zmc thread pool."""
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("ZMC_THREADS", None)


def load_zmc():
    """Import zmc afresh from the checkout's src/ (module code runs again)."""
    for name in [k for k in sys.modules if k == "zmc" or k.startswith("zmc.")]:
        del sys.modules[name]
    import importlib
    z = SimpleNamespace(**{m: importlib.import_module(f"zmc.{m}") for m in (
        "cli", "analysis", "gallery", "surface", "domain", "weierstrass", "angular",
        "polycheb", "errors")})
    if not Path(z.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"zmc was imported from {z.cli.__file__}, not from {ROOT / 'src'}")
    return z


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "ZMC_THREADS": os.environ.get("ZMC_THREADS"),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Speed:
    """The machine's current speed, from a fixed calibration kernel timed
    between operations.  A shared machine runs faster or slower by 20-40%
    in phases lasting seconds to minutes; a timing scaled by
    `CAL_REF_S / kernel time` reads as it would at the reference speed.
    The kernel mixes what zmc spends its time on: vector math on complex
    arrays, float formatting and interpreter loops.  It calls no zmc code,
    so a change to zmc cannot move it."""

    CAL_REF_S = 1.8e-3  # the kernel's median time on a 2-core x86-64 VM, Python 3.11, numpy 2.4

    def __init__(self):
        import numpy as np
        self._np = np
        self._z = np.linspace(0.1, 2.0, 4096) + 0.5j
        self.samples = []
        self.refresh()

    def _kernel(self):
        np = self._np
        w = self._z
        for _ in range(4):
            w = np.log(w + 2.0) * np.exp(-0.1 * w) / (w - 3.0)
        text = ",".join(repr(float(v)) for v in w.real[:1000])
        acc = 0.0
        for i in range(5000):
            acc += math.sqrt(i)
        return len(text) + acc

    def measure(self):
        """Median time of three kernel runs."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def refresh(self):
        """Take the kernel time a following timing is scaled from."""
        self.last = self.measure()

    def factor(self):
        """Scale for a timing that ended just now: the reference time over
        the mean of the kernel's time before and after it."""
        before, self.last = self.last, self.measure()
        return 2 * self.CAL_REF_S / (before + self.last)


class Record(NamedTuple):
    k: int  # operation index
    op_id: int  # span id in a traced run
    dt: float  # wall seconds
    norm_dt: float  # seconds at the reference speed
    out: Any
    fp: str  # fingerprint of the output, taken after the clock stops


def measure_setup(wl, speed):
    """Median over repeats of importing zmc and building the workload's
    surfaces, evaluators and inverters, at the reference speed; and the raw
    times.  numpy and scipy are imported once beforehand: they are
    dependencies, not zmc's set-up."""
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    times, scaled = [], []
    speed.refresh()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup(load_zmc())
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * speed.factor())
    return statistics.median(scaled), times


def timed_phase(ops, seconds, tracer, speed, records):
    """Cycle through the operations until `seconds` have passed, finishing
    at least one full pass, and append a Record per run."""
    deadline = time.perf_counter() + seconds
    i = 0
    speed.refresh()
    while i < len(ops) or time.perf_counter() < deadline:
        k = i % len(ops)
        op_id = len(records)
        with tracer.operation(op_id):
            start = time.perf_counter()
            try:
                out = ops[k].run()
            except Exception as exc:  # an operation that raises fails all its items
                out = exc
            dt = time.perf_counter() - start
        norm_dt = dt * speed.factor()
        if isinstance(out, Exception):
            fp = f"raised {type(out).__name__}"
        else:
            fp = ops[k].fingerprint(out)
        records.append(Record(k, op_id, dt, norm_dt, out, fp))
        gc.collect()  # each operation starts from a collected heap
        i += 1


def items_per_s(ops, records, failed_share, field="norm_dt"):
    """Verified items per second of one pass, from each operation's median
    time (at the reference speed, or raw with field="dt")."""
    times = {}
    for r in records:
        times.setdefault(r.k, []).append(getattr(r, field))
    verified = sum(op.items * (1.0 - failed_share[k]) for k, op in enumerate(ops))
    return verified / sum(statistics.median(times[k]) for k in range(len(ops)))


def verify(ops, records, Check):
    """Check the last output of each operation; every other run of it must
    have produced the same output, or all its items fail.  Returns the
    checks and, per operation, the items of one pass that failed and that
    failed without a known defect's signature.  Counting one pass keeps
    both independent of how many passes fit in the run."""
    last = {r.k: (r.out, r.fp) for r in records}
    checks, failed, unexpected = {}, [], []
    for k, op in enumerate(ops):
        out, fp = last[k]
        if isinstance(out, Exception):
            checks[k] = Check(op.items)
        else:
            try:
                checks[k] = op.check(out)
            except Exception:  # an output the checks cannot read fails all its items
                traceback.print_exc()
                checks[k] = Check(op.items)
        if any(r.fp != fp for r in records if r.k == k):
            failed.append(op.items)
            unexpected.append(op.items)
        else:
            failed.append(checks[k].failed)
            unexpected.append(checks[k].failed - checks[k].known)
    return checks, failed, unexpected


def run_workload(name, seed, seconds, trace, out_dir):
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](seed, str(workdir))
        speed = Speed()
        setup_s, setup_times = measure_setup(wl, speed)
        ops = wl.ops()
        tracer = tracing.Tracer()
        tracer.count_warnings()
        untraced, traced = [], []
        if trace:
            tracer.install()
            timed_phase(ops, seconds / 2, tracer, speed, untraced)
            tracer.enabled = True
            timed_phase(ops, seconds / 2, tracer, speed, traced)
            tracer.enabled = False
        else:
            timed_phase(ops, seconds, tracer, speed, untraced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records = untraced + traced

        verify_start = time.perf_counter()
        checks, op_failed, op_unexpected = verify(ops, records, workloads.Check)
        verify_s = time.perf_counter() - verify_start
        # items and failures of one pass over the operations
        attempted, failed = sum(op.items for op in ops), sum(op_failed)
        share = [f / op.items for f, op in zip(op_failed, ops)]
        # known defects are counted as failures but leave the run correct
        correct = not any(op_unexpected)

        end_to_end = {
            "setup_s": setup_s,
            "items_per_s": items_per_s(ops, untraced, share),
            "verified_ratio": 1.0 - failed / attempted,
            # errors on seeded inputs vary from seed to seed; the fixed gallery
            # inputs keep this metric comparable between runs
            "max_err": max(c.max_err for k, c in checks.items() if not ops[k].seeded),
            "peak_rss_mb": peak_rss_mb,
            # as measured, without the correction for the machine's speed
            "raw_setup_s": statistics.median(setup_times),
            "raw_items_per_s": items_per_s(ops, untraced, share, "dt"),
            "kernel_s": statistics.median(speed.samples),
        }
        # as a gate, max_err is compared in decimal digits: its last digits
        # are rounding noise that any change to an evaluation route moves
        end_to_end["max_err_digits"] = -math.log10(max(end_to_end["max_err"], 1e-17))
        op_rows = []
        for k, op in enumerate(ops):
            durations = [r.dt for r in records if r.k == k]
            op_rows.append({"name": op.name, "items": op.items, "runs": len(durations),
                            "median_s": statistics.median(durations), "min_s": min(durations),
                            "median_ref_s": statistics.median(
                                r.norm_dt for r in records if r.k == k),
                            "failed": op_failed[k],
                            "unexpected": op_unexpected[k], "max_err": checks[k].max_err})
        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "correct": correct, "attempted": attempted, "failed": failed,
                  "end_to_end": end_to_end, "setup_times": setup_times, "verify_s": verify_s,
                  "ops": op_rows,
                  "env": environment()}
        if trace:
            op_names = {r.op_id: ops[r.k].name for r in traced}
            layers = tracer.per_pass(op_names)
            layers["trace.items_per_s"] = items_per_s(ops, traced, share)
            layers["trace.overhead_ratio"] = layers["trace.items_per_s"] / end_to_end["items_per_s"]
            metrics = {m: {"value": float(layers.get(m, 0.0)), "unit": u}
                       for m, u in tracing.per_layer_names()}
            spans = out_dir / f"{name}-seed{seed}-spans.json"
            tracer.dump(str(spans), op_names)
            result["spans"] = str(spans)
        else:
            metrics = {m: {"value": float(end_to_end[m]), "unit": u} for m, u in END_TO_END}
        result["metrics"] = metrics
        (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for row in op_rows:
        print(f"  {row['name']:<34} runs {row['runs']:>3}  median {row['median_s']:8.4f} s  "
              f"items {row['items']:>6}  failed {row['failed']:>6}  unexpected {row['unexpected']:>6}")
    print("env: " + json.dumps(result["env"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# every workload, and comparisons
# ---------------------------------------------------------------------------

def run_all(seed, seconds, out_dir):
    env = dict(os.environ)
    pin_threads(env)
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--out", str(out_dir)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} (trace {trace}) exited with {proc.returncode}")
                return 1
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<8} {'metric':<16} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        res = results[name, 0]
        rows = [(m, v["value"], v["unit"]) for m, v in res["metrics"].items()]
        full = json.loads((out_dir / f"{name}-seed{seed}-trace0.json").read_text())
        rows.insert(3, ("fail_ratio", res["failed"] / res["attempted"], "ratio"))
        rows.insert(4, ("max_err", full["end_to_end"]["max_err"], "rel"))
        for m, v, u in rows:
            print(f"{name:<8} {m:<16} {v:14.6g}  {u}")
        print(f"{name:<8} {'correct':<16} {str(res['correct']):>14}")
        layers = results[name, 1]["metrics"]
        print(f"{name:<8} {'traced items/s':<16} {layers['trace.items_per_s']['value']:14.6g}  "
              f"1/s (x{layers['trace.overhead_ratio']['value']:.3f} of the traced run's own "
              f"untraced half)")
    print(f"per-layer metrics and spans: {out_dir}/")
    return 0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(dir_a, dir_b):
    def load(d):
        sets = {}
        for path in sorted(Path(d).glob("*-trace*.json")):
            res = json.loads(path.read_text())
            sets.setdefault((res["workload"], res["trace"]), []).append(res)
        return sets

    a, b = load(dir_a), load(dir_b)
    print(f"{'workload':<8} {'metric':<34} {'A median':>11} {'A q1..q3':>24} "
          f"{'B median':>11} {'B q1..q3':>24} {'B/A':>7}")
    for key in sorted(set(a) & set(b)):
        for metric in a[key][0]["metrics"]:
            va = [r["metrics"][metric]["value"] for r in a[key] if metric in r["metrics"]]
            vb = [r["metrics"][metric]["value"] for r in b[key] if metric in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{key[0]:<8} {metric:<34} {qa[1]:11.4g} {qa[0]:11.4g}..{qa[2]:<11.4g} "
                  f"{qb[1]:11.4g} {qb[0]:11.4g}..{qb[2]:<11.4g} {ratio:7.3f}"
                  f"  (n={len(va)}/{len(vb)})")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(ROOT / ".bench_out"),
                   help="directory for result files (inside the checkout)")
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    args = p.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "zmc" / "__init__.py").is_file():
        print(f"error: no zmc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    pin_threads(os.environ)  # before numpy is first imported
    if args.all:
        return run_all(args.seed, args.seconds, out_dir)
    if not args.workload:
        p.error("give --workload, --all or --compare")
    return run_workload(args.workload, args.seed, args.seconds, args.trace, out_dir)


if __name__ == "__main__":
    sys.exit(main())
