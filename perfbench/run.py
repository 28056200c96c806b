"""specbound benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; specbound is imported from the ``src`` directory
beside this one.  ``--workload all`` runs the three workloads one after the
other in child processes.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics instead, and the spans are
written to ``.perfbench/trace-<workload>-<seed>.json``.  A line before it
holds the environment.  Human-readable metrics go to stderr.  The exit
status is 0 when every correctness gate passed, 1 when one failed (the
result line still prints) or the run raised, and 2 when there is no
specbound source tree.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from envinfo import environment
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


class Run:
    """State one workload run shares with its workload object."""

    REFERENCE_CALL = -1

    def __init__(self, name, seed, workdir, tracer):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.tracing = False  # true while the traced timed phase runs
        self.nproc = nproc()
        self.child_env = child_env()
        self.sb = None

    def log(self, message):
        print(f"[{self.name}] {message}", file=sys.stderr)


@dataclass
class Phase:
    """One timed phase: per-call wall seconds, and totals."""

    seconds: list
    cpu: float = 0.0
    attempted: int = 0
    completed: int = 0

    @property
    def ops_per_s(self):
        return self.completed / sum(self.seconds)

    @property
    def cpu_s_per_op(self):
        return self.cpu / max(self.completed, 1)


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def cpu_seconds():
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(name, seed):
    """Median wall time of import + build + warm-up in fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, timeout=170)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_phase(run, wl, seconds, first_call):
    """Call the workload until ``seconds`` have passed.

    The phase ends after the call in flight, at the end of a round of
    ``wl.CALLS_PER_ROUND`` calls, so that mc_band_16k runs its two cells
    equally often.
    """
    per_round = getattr(wl, "CALLS_PER_ROUND", 1)
    phase = Phase([])
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    i = first_call
    while True:
        if run.tracer is not None:
            run.tracer.call_id = i + 1
        t0 = time.perf_counter()
        attempted, raised = wl.call(run, i)
        phase.seconds.append(time.perf_counter() - t0)
        phase.attempted += attempted
        phase.completed += attempted - raised
        i += 1
        if time.perf_counter() - start >= seconds and (i - first_call) % per_round == 0:
            phase.cpu = cpu_seconds() - cpu0
            return phase


def run_workload(name, seed, seconds, trace, workdir):
    """Returns (result dict, extra dict for the environment line)."""
    spec = load_spec()
    wl = WORKLOADS[name]()
    setup_s = None if trace else measure_setup(name, seed)

    sys.path.insert(0, str(SRC))
    import specbound

    if Path(specbound.__file__).resolve().parent != SRC / "specbound":
        raise RuntimeError(f"imported specbound from {specbound.__file__}, not from {SRC}")
    tracer = Tracer() if trace else None
    run = Run(name, seed, workdir, tracer)
    run.sb = specbound
    if tracer is not None:
        with tracer.installed():
            wl.build(specbound, seed)
    else:
        wl.build(specbound, seed)
    wl.prepare(run)

    if trace:
        # the first half runs untraced, so the overhead is measured in-run
        base = timed_phase(run, wl, seconds / 2, 0)
        run.tracing = True
        with tracer.installed():
            traced = timed_phase(run, wl, seconds / 2, len(base.seconds))
        run.tracing = False
        phases = [base, traced]
    else:
        phases = [timed_phase(run, wl, seconds, 0)]
        peak = peak_rss_mb()

    failed_checks, messages = wl.check(run)
    for message in messages:
        run.log(f"check failed: {message}")
    attempted = sum(p.attempted for p in phases)
    failed = attempted - sum(p.completed for p in phases) + failed_checks

    if trace:
        values = layer_metrics(tracer.spans, traced.completed)
        values["trace.ops_per_s"] = traced.ops_per_s
        values["trace.overhead_ratio"] = traced.ops_per_s / base.ops_per_s
        wanted = spec["per_layer"]
    else:
        main = phases[0]
        values = {
            "setup_s": setup_s,
            "ops_per_s": main.ops_per_s,
            "cpu_s_per_op": main.cpu_s_per_op,
            "peak_rss_mb": peak,
        }
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    extra = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "call_seconds": [p.seconds for p in phases],
        "working_set_mb": wl.working_set(),
        "environment": environment(ROOT, run.nproc),
    }
    if trace:
        extra["unwrapped_targets"] = tracer.missing
        trace_path = ROOT / ".perfbench" / f"trace-{name}-{seed}.json"
        tracer.dump(trace_path, extra)
        extra["trace_file"] = str(trace_path.relative_to(ROOT))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, extra


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def print_table(metrics):
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)


def run_all(args):
    """Every workload in its own child process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"[{name}] exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description="specbound benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="default: the workload's acceptance seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specbound" / "__init__.py").is_file():
        print(f"perfbench: no specbound sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, extra = run_workload(args.workload, seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"[{args.workload}] seed {seed}, {result['attempted']} ops, {result['failed']} failed", file=sys.stderr)
    print_table(result["metrics"])
    print(json.dumps(extra))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
