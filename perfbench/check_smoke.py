"""Smoke test of the benchmark harness.

    python3 perfbench/check_smoke.py

Runs ``run.py --workload all --seconds 1`` untraced and traced: every
workload at its smallest size, acceptance seeds.  Checks that both exit 0,
that the result line has exactly the keys the benchmark contract names and
passes every correctness gate, and that every workload emits every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json with
its unit.  End-to-end values must be positive.  Takes about two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            problems.append(f"--trace {trace}: exit {proc.returncode}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"--trace {trace}: result keys {sorted(result)}")
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
            problems.append(f"--trace {trace}: correct={result['correct']} failed={result['failed']}")
        want = {f"{w}.{m['name']}": m["unit"] for w in workloads for m in spec[kind]}
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"--trace {trace}: missing {sorted(set(want) - set(got))}, "
                            f"unexpected {sorted(set(got) - set(want))}, or a unit differs")
        for name, m in result["metrics"].items():
            value = m.get("value")
            if not isinstance(value, (int, float)) or (kind == "end_to_end" and not value > 0):
                problems.append(f"--trace {trace}: {name} = {value!r}")
        print(f"--trace {trace}: {len(got)} metrics from {len(workloads)} workloads, "
              f"{result['attempted']} ops", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
