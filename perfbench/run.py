"""splitkit benchmark: seeded CLI workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a splitkit checkout.  For the workload and seed it
writes one config file, then calls the workload's CLI subcommand on it as a
child process, one child at a time, until S seconds have passed.  Every
call's deliverables are checked (see ``workloads.py``) and must be
byte-identical to the first call's.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
calls of the run: ``wall_s`` (spawn to exit), ``setup_s`` (spawn until
``splitkit.cli`` is imported, the config validated and its map built; also
taken from extra set-up-only calls) and ``peak_rss_mb`` (the child's peak
resident memory from ``wait4``).  With ``--trace 1`` the run alternates plain
and traced calls and the result holds the per-layer metrics of
``tracing.py``, medians over the traced calls.

Times are reported at the reference speed of the host: each call's measured
time is multiplied by PROBE_REF_S / (time of a fixed probe run on the same
CPU just before and after the call).  See ``probe``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed / attempted``
is the share of calls that exited non-zero or failed the output check.
Configs, deliverables, traces and a record with the machine facts and every
call's measured times go to ``perfbench/_work/``.  ``--workload all`` runs
every workload in turn and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, canonical_json_bytes, deliverable_digest

WORK = Path("perfbench/_work")
SETUP_ONLY_CALLS = 5  # set-up-only children per run, besides the full calls
RUN_LIMIT_S = 170.0  # a run must end within 180 s; no child outlives this
THREAD_VARS = ("SPLITKIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {m: u for m, u, _ in tracing.PER_LAYER}
TIME_UNITS = {"s", "ms", "us"}

# The probe's time on the host the baseline was recorded on, in its fast
# phases; it only sets the scale in which adjusted times are read.
PROBE_REF_S = 0.0155
_PROBE_MATRIX = np.array([[2.0, 1.0, 0.5], [0.3, 3.0, 1.0], [0.2, 0.1, 1.5]])


def probe():
    """Seconds taken by a fixed piece of work like splitkit's inner loops.

    On a shared host the speed of a CPU changes by up to a factor of two
    over seconds to minutes, and a call's time follows the speed of the CPU
    it ran on.  The probe (3x3 solves and QR steps plus interpreter
    arithmetic, about 20 ms) is run on that same CPU around each call, and
    the call's times are scaled by PROBE_REF_S / probe time.
    """
    t0 = time.perf_counter()
    B = np.eye(3)[:, :2]
    for _ in range(600):
        B = np.linalg.solve(_PROBE_MATRIX, B)
        B, _ = np.linalg.qr(B)
        x = 0.0
        for j in range(20):
            x += j * 0.5
    return time.perf_counter() - t0


@dataclass
class Call:
    """One child process: measured times, speed scale, memory and exit code."""

    wall_s: float
    setup_s: float | None
    scale: float  # PROBE_REF_S / probe time around the call
    peak_rss_mb: float
    code: int
    out: Path


def machine_facts():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "children_at_once": 1,
    }


def child_env():
    env = dict(os.environ)
    # the serial default is measured; the child imports splitkit from src/ only
    env.pop("SPLITKIT_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def spawn(run_dir, tag, command, cfg_path, deadline, trace_path=None, setup_only=False, run_id=""):
    """Run one child to its end and measure it."""
    out = run_dir / tag
    out.mkdir(parents=True)
    mark = out / "setup.mark"
    argv = [sys.executable, "perfbench/child.py", "--mark", str(mark), "--run-id", run_id]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--", command, "--config", str(cfg_path), "--out", str(out / "out")]
    before = probe()
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=child_env())
        killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            t1 = time.monotonic()
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    scale = PROBE_REF_S / ((before + probe()) / 2)
    try:
        setup_s = float(mark.read_text(encoding="utf-8")) - t0
    except (OSError, ValueError):
        setup_s = None
    return Call(t1 - t0, setup_s, scale, usage.ru_maxrss / 1024.0, proc.returncode, out / "out")


class Run:
    """The calls of one benchmark run and the verdict on their outputs."""

    def __init__(self, workload, seed, root, trace):
        self.workload = workload
        self.cfg = workload.config(root, seed)
        raw = canonical_json_bytes(self.cfg)
        self.config_hash = hashlib.sha256(raw).hexdigest()
        self.run_id = f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
        self.dir = WORK / "runs" / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_bytes(raw)
        self.start = time.monotonic()
        self.deadline = self.start + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None

    def call(self, tag, **kw):
        return spawn(self.dir, tag, self.workload.command, self.cfg_path, self.deadline, run_id=self.run_id, **kw)

    def judge(self, call):
        """Count the call and check its deliverables."""
        self.attempted += 1
        if call.code != 0:
            problems = [f"exit code {call.code}"]
        else:
            problems = self.workload.check(call.out, self.cfg, self.config_hash)
            if not problems:
                digest = deliverable_digest(call.out, self.workload.deliverables())
                if self.digest is None:
                    self.digest = digest
                elif digest != self.digest:
                    problems = ["deliverables differ from the run's first call"]
        if problems:
            self.failed += 1
            self.problems.append({"call": call.out.parent.name, "problems": problems})
        return not problems

    def setup_calls(self):
        # the first child of a fresh checkout also compiles bytecode: not timed
        self.call("warmup", setup_only=True)
        return [self.call(f"setup{i}", setup_only=True) for i in range(SETUP_ONLY_CALLS)]


def median(values):
    return statistics.median(values) if values else 0.0


def adjusted_wall(calls):
    return median([c.wall_s * c.scale for c in calls])


def measure(run, seconds):
    setups = run.setup_calls()
    calls = []
    while not calls or time.monotonic() - run.start < seconds:
        call = run.call(f"call{len(calls)}")
        run.judge(call)
        calls.append(call)
    return {
        "wall_s": adjusted_wall(calls),
        "setup_s": median([c.setup_s * c.scale for c in setups + calls if c.setup_s is not None]),
        "peak_rss_mb": median([c.peak_rss_mb for c in calls]),
    }, setups + calls


def measure_traced(run, seconds):
    plain, traced, per_call = [], [], []
    while not traced or time.monotonic() - run.start < seconds:
        i = len(traced)
        plain.append(run.call(f"plain{i}"))
        run.judge(plain[-1])
        trace_path = WORK / f"trace-{run.workload.name}.json"
        call = run.call(f"traced{i}", trace_path=trace_path)
        traced.append(call)
        if run.judge(call):
            with open(trace_path, encoding="utf-8") as fh:
                layer = tracing.layer_metrics(json.load(fh))
            per_call.append({m: v * call.scale if PER_LAYER[m] in TIME_UNITS else v for m, v in layer.items()})
    metrics = {name: median([m[name] for m in per_call]) for name in per_call[0]} if per_call else {}
    metrics["trace.overhead_ratio"] = adjusted_wall(traced) / adjusted_wall(plain)
    return metrics, plain + traced


def run_workload(name, seed, seconds, trace, root):
    run = Run(WORKLOADS[name], seed, root, trace)
    facts = machine_facts()
    load_before = os.getloadavg()
    values, calls = measure_traced(run, seconds) if trace else measure(run, seconds)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config_hash": run.config_hash,
        "probe_ref_s": PROBE_REF_S,
        "machine": {**facts, "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "calls": [
            {"call": c.out.parent.name, "measured_wall_s": c.wall_s, "measured_setup_s": c.setup_s,
             "scale": c.scale, "peak_rss_mb": c.peak_rss_mb, "code": c.code}
            for c in calls
        ],
        "problems": run.problems,
        "metrics": values,
    }
    (WORK / f"result-{name}-trace{trace}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": values.get(m, 0.0), "unit": u} for m, u in units.items()},
    }
    return result, record


def checkout_root():
    root = Path.cwd()
    needed = [root / "src" / "splitkit" / "cli.py", root / "configs" / "linear.json", root / "configs" / "perturbed.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: run from the root of a splitkit checkout; missing {missing}")
    return root


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # end like an interrupt, so a running child is killed and reaped first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = checkout_root()
    WORK.mkdir(parents=True, exist_ok=True)
    # children inherit this: each call and its probes run on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload != "all":
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace, root)
        walls = [c["measured_wall_s"] for c in record["calls"] if not c["call"].startswith("setup")]
        print(f"# {args.workload} seed={args.seed} config_hash={record['config_hash']} "
              f"measured_wall_s_median={median(walls):.4f} "
              f"machine={json.dumps(record['machine'], sort_keys=True)}")
        for p in record["problems"]:
            print(f"# failed call: {json.dumps(p)}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {}
    print(f"{'workload':<20}{'wall_s (s)':>12}{'setup_s (s)':>13}{'peak_rss_mb (MB)':>18}{'fail_share':>12}")
    for name in WORKLOADS:
        result, _ = run_workload(name, args.seed, args.seconds, args.trace, root)
        m = result["metrics"]
        fail_share = result["failed"] / result["attempted"]
        if args.trace:
            print(f"{name}: {json.dumps({k: v['value'] for k, v in m.items()})}")
        else:
            print(f"{name:<20}{m['wall_s']['value']:>12.4f}{m['setup_s']['value']:>13.4f}"
                  f"{m['peak_rss_mb']['value']:>18.1f}{fail_share:>12.3f}")
        results[name] = {**result, "fail_share": fail_share}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
