"""The three benchmark workloads.

Each workload has the same life cycle:

- ``build(sb, seed)`` makes every pattern or manifest the workload uses and
  finishes its warm-up.  It is what ``setup_s`` times, in a fresh
  interpreter, together with ``import specbound``.
- ``prepare(run)`` makes the references the correctness checks need.  It is
  not timed.
- ``call(run, i)`` is one call into specbound in the timed phase.  It
  returns (ops attempted, ops that raised or exited non-zero).
- ``check(run)`` verifies the stored outputs after the timed phase and
  returns the number of further failed ops, with a message for each gate
  that failed.

``run`` is a run.Run; ``sb`` is the imported specbound package.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

TOL = 1e-4
MB = 1e6


class MCBand16k:
    """Criterion-7 cells at n = 2^14, alternating log_sq and const:3."""

    name = "mc_band_16k"
    default_seed = 0x714A  # criterion 7 seeds its two cells 0x714A and 0x714B
    N = 2**14
    RULES = ("log_sq", "const:3")  # call i runs cell RULES[i % 2]
    CALLS_PER_ROUND = 2
    BATCH = 4  # trials per phase_scan call
    WINDOWS = {"log_sq": (1.85, 2.15), "const:3": (2.4, math.inf)}

    def build(self, sb, seed):
        from specbound.experiments import resolve_k_rule

        self.patterns = {}
        for rule in self.RULES:
            k, _ = resolve_k_rule(rule, self.N)
            self.patterns[rule] = sb.band_cyclic(self.N, (k - 1) // 2)
        sb.phase_scan("band", [256], "const:3", sb.GAUSSIAN, 2, seed, tol=TOL)
        self.rows = []  # (rule, seed, phase_scan row)

    def prepare(self, run):
        pass

    def call(self, run, i):
        """Call i runs cell i % 2; call i seeds it with seed + i % 2 + 0x10000 (i // 2)."""
        sb = run.sb
        rule = self.RULES[i % 2]
        seed = run.seed + i % 2 + 0x10000 * (i // 2)
        try:
            grid = sb.phase_scan("band", [self.N], rule, sb.GAUSSIAN, self.BATCH, seed, tol=TOL, threads=1)
        except Exception as exc:  # counted, and the run goes on
            run.log(f"{rule} seed {seed}: {type(exc).__name__}: {exc}")
            return self.BATCH, self.BATCH
        self.rows.append((rule, seed, grid.rows[0]))
        return self.BATCH, 0

    def check(self, run):
        import numpy as np
        from scipy.sparse.linalg import eigsh

        sb = run.sb
        failed, messages = 0, []
        for rule in self.RULES:
            rows = [row for r, _, row in self.rows if r == rule]
            if not rows:
                continue
            C = self.patterns[rule]
            degree = int(np.diff(C.data.indptr).max())
            lo, hi = self.WINDOWS[rule]
            # equal batch sizes: the mean of batch means is the cell mean
            ratio = sum(row["ratio_mean"] for row in rows) / len(rows)
            if not lo <= ratio <= hi or any(row["k"] != degree for row in rows):
                failed += self.BATCH * len(rows)
                messages.append(f"{rule}: ratio_mean {ratio:.4f} outside [{lo}, {hi}] or k != {degree}")
            # trial 0 of the cell's first call, solved again and against ARPACK
            seed = next(s for r, s, _ in self.rows if r == rule)
            X = sb.sample_matrix(C, sb.GAUSSIAN, sb.SeedSpec(seed, 0))
            value = sb.spectral_norm(X, tol=TOL).value
            v0 = np.random.default_rng(seed % 2**64).standard_normal(self.N)
            ref = float(abs(eigsh(X, k=1, which="LM", tol=1e-10, v0=v0, return_eigenvectors=False)[0]))
            if abs(value - ref) > TOL * ref:
                failed += 1
                messages.append(f"{rule}: spectral_norm {value!r} vs eigsh {ref!r}")
        return failed, messages

    def working_set(self):
        n, k = self.N, 93
        return {
            "lanczos_basis_mb": n * 300 * 8 / MB,
            "sample_csr_mb": (n * k * 12 + (n + 1) * 4) / MB,
        }


class CliPhaseThreads:
    """`specbound phase` as a child process at --threads <nproc>."""

    name = "cli_phase_threads"
    default_seed = 12  # criterion 12
    N_GRID = "512,1024"
    TRIALS = 10

    def argv(self, seed, threads, output):
        return [
            "phase", "--pattern", "band", "--n", self.N_GRID, "--k-rule", "const:3",
            "--trials", str(self.TRIALS), "--seed", str(seed),
            "--threads", str(threads), "--output", output,
        ]

    def build(self, sb, seed):
        from specbound import cli

        manifest = cli.RunManifest(
            command="phase", pattern="band", n_grid=[int(x) for x in self.N_GRID.split(",")],
            k_rule="const:3", trials=self.TRIALS, seed=seed, output="phase.csv",
        )
        if not cli.validate(manifest)["valid"]:
            raise RuntimeError(f"invalid manifest {manifest}")
        manifest.content_hash()
        for n in manifest.n_grid:
            sb.band_cyclic(n, 1)

    def _invoke(self, run, threads, output, spans_out=None):
        if spans_out is None:
            cmd = [sys.executable, "-m", "specbound.cli"]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_out)]
        env = dict(run.child_env, SPECBOUND_OUTPUT_DIR=str(run.workdir))
        proc = subprocess.run(
            cmd + self.argv(run.seed, threads, output),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
        )
        if proc.returncode != 0:
            run.log(f"specbound phase --threads {threads} exited {proc.returncode}: {proc.stderr.strip()}")
        if spans_out is not None and run.tracer is not None and spans_out.exists():
            with open(spans_out) as fh:
                run.tracer.extend(json.load(fh)["spans"], run.tracer.call_id)
        return proc.returncode

    def prepare(self, run):
        """--threads 1 reference CSV (criterion 12); traced runs trace it too."""
        spans_out = run.workdir / "reference.spans.json" if run.tracer else None
        if run.tracer:
            run.tracer.call_id = run.REFERENCE_CALL
        if self._invoke(run, 1, "reference.csv", spans_out) != 0:
            raise RuntimeError("the --threads 1 reference run failed")
        self.reference = (run.workdir / "reference.csv").read_bytes()
        self.outputs = []

    def call(self, run, i):
        output = f"op{i}.csv"
        spans_out = run.workdir / f"op{i}.spans.json" if run.tracing else None
        code = self._invoke(run, run.nproc, output, spans_out)
        self.outputs.append((output, code))
        return 1, int(code != 0)

    def check(self, run):
        failed, messages = 0, []
        for output, code in self.outputs:
            path = run.workdir / output
            if code == 0 and (not path.exists() or path.read_bytes() != self.reference):
                failed += 1
                messages.append(f"{output}: CSV differs from the --threads 1 reference")
        return failed, messages

    def working_set(self):
        return {"dense_copy_mb": 1024 * 1024 * 8 / MB}


class MCDenseReport:
    """bounds_vs_empirical_report on wigner(512): dense storage, LAPACK."""

    name = "mc_dense_report"
    default_seed = 0x512  # criterion 5
    N = 512
    TRIALS = 10  # MC trials per report call
    WINDOW = (1.90, 2.06)

    def build(self, sb, seed):
        self.C = sb.wigner(self.N)
        sb.structural_params(self.C)
        sb.bounds_vs_empirical_report(sb.wigner(16), sb.GAUSSIAN, 0.25, 2, seed, tol=TOL)
        self.reports = []

    def prepare(self, run):
        pass

    def call(self, run, i):
        sb = run.sb
        seed = run.seed + i
        try:
            rep = sb.bounds_vs_empirical_report(self.C, sb.GAUSSIAN, 0.25, self.TRIALS, seed, tol=TOL, threads=1)
        except Exception as exc:  # counted, and the run goes on
            run.log(f"seed {seed}: {type(exc).__name__}: {exc}")
            return self.TRIALS, self.TRIALS
        self.reports.append((seed, rep))
        return self.TRIALS, 0

    def check(self, run):
        failed, messages = 0, []
        lo, hi = self.WINDOW
        for seed, rep in self.reports:
            ratio = rep["mc_norm_mean"] / math.sqrt(self.N)
            if not (rep["ok"] and lo <= ratio <= hi):
                failed += self.TRIALS
                messages.append(f"seed {seed}: ok={rep['ok']} ratio {ratio:.4f} {rep['failures']}")
        return failed, messages

    def working_set(self):
        return {"dense_sample_mb": self.N * self.N * 8 / MB, "eigvalsh_copies_mb": 3 * self.N * self.N * 8 / MB}


WORKLOADS = {cls.name: cls for cls in (MCBand16k, CliPhaseThreads, MCDenseReport)}


def nproc():
    return len(os.sched_getaffinity(0))
