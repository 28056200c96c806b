"""Command-line front end.

Every run is a pure function of its manifest (flags merged over an optional
JSON manifest file), including the master seed, so re-running a recipe
reproduces its output files byte for byte at any thread count.

Exit codes: 0 success; 1 parameter/validation error; 2 a mathematical
guarantee or verification failed; 3 an iterative solver did not converge.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from . import bounds as bounds_mod
from . import coeffs as coeffs_mod
from . import experiments as exp_mod
from . import moments as moments_mod
from .errors import DataError, GuaranteeError, NonConvergenceError, ParameterError, SizeError
from .sampling import SeedSpec, distribution_from_code, sample_matrix
from .specnorm import spectral_norm

OUTPUT_DIR_ENV = "SPECBOUND_OUTPUT_DIR"

_NUMBER = (int, float)
# manifest key -> accepted JSON type; [t] is a list of t
_MANIFEST_TYPES = {
    "command": str,
    "pattern": str,
    "matrix_file": str,
    "matrix_format": str,
    "matrix_kind": str,
    "distribution": str,
    "epsilon": _NUMBER,
    "alpha": _NUMBER,
    "beta": _NUMBER,
    "p": _NUMBER,
    "trials": int,
    "seed": int,
    "tol": _NUMBER,
    "output": str,
    "threads": int,
    "n_grid": [int],
    "k_rule": str,
    "t_grid": [_NUMBER],
    "moments_action": str,
    "band_variant": str,
}


def _json(obj, **kwargs):
    """JSON text of obj; a NaN or infinite float raises, since JSON has neither."""
    return json.dumps(obj, allow_nan=False, **kwargs)


def _is_finite(value):
    return all(math.isfinite(v) for v in (value if isinstance(value, list) else [value]) if isinstance(v, float))


def _has_type(value, kind):
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_type(v, kind[0]) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class RunManifest:
    """Validated description of one CLI run."""

    command: str
    pattern: Optional[str] = None
    matrix_file: Optional[str] = None
    matrix_format: str = "dense"
    matrix_kind: str = "symmetric"
    distribution: str = "gaussian"
    epsilon: float = 0.25
    alpha: Optional[float] = None
    beta: Optional[float] = None
    p: Optional[float] = None  # moment half-length (integer) or l_p exponent
    trials: int = 200
    seed: int = 0
    tol: float = 1e-4
    output: Optional[str] = None
    threads: int = 1
    n_grid: Optional[list] = None
    k_rule: Optional[str] = None
    t_grid: list = field(default_factory=lambda: [0.0, 1.0, 2.0, 3.0, 4.0])
    moments_action: str = "census"
    band_variant: str = "cyclic"

    @staticmethod
    def from_dict(data):
        unknown = set(data) - set(_MANIFEST_TYPES)
        if unknown:
            raise ParameterError(f"unknown manifest keys: {sorted(unknown)}")
        if "command" not in data:
            raise ParameterError("manifest needs a command")
        optional = {f.name for f in fields(RunManifest) if f.default is None}
        for key, value in data.items():
            if value is None and key in optional:
                continue
            if not _has_type(value, _MANIFEST_TYPES[key]):
                raise ParameterError(f"manifest key {key!r} has the wrong type: {value!r}")
            if not _is_finite(value):
                # the manifest is echoed as JSON, which has no NaN or Infinity
                raise ParameterError(f"manifest key {key!r} must be finite: {value!r}")
        return RunManifest(**data)

    def content_hash(self):
        """git-style blob sha1 of the canonical manifest JSON."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha1(b"blob %d\x00" % len(blob) + blob).hexdigest()


def parse_pattern(spec):
    """Pattern syntax "name:params", e.g. band:4096,16 or wigner:1024."""
    name, _, rest = spec.partition(":")
    return coeffs_mod.build_pattern(name, [p for p in rest.split(",") if p])


def _load_matrix(m):
    if m.pattern:
        return parse_pattern(m.pattern)
    if m.matrix_file:
        if m.matrix_format == "sparse":
            return coeffs_mod.load_sparse_csv(m.matrix_file, kind=m.matrix_kind)
        return coeffs_mod.load_dense_csv(m.matrix_file, kind=m.matrix_kind)
    raise ParameterError("need either a pattern or a matrix file")


def _out_path(m, default_name):
    base = m.output or default_name
    root = os.environ.get(OUTPUT_DIR_ENV, ".")
    return base if os.path.isabs(base) else os.path.join(root, base)


def _write_manifest_echo(m, path):
    echo = {"manifest": asdict(m), "content_hash": m.content_hash()}
    with open(path, "w") as fh:
        fh.write(_json(echo, indent=2, sort_keys=True) + "\n")


def validate(m):
    """Precondition report for the manifest's target operation; never raises."""
    violations = []
    if m.command not in COMMANDS:
        violations.append(f"unknown command {m.command!r}")
    if not 0 < m.epsilon <= 0.5:
        violations.append("epsilon must be in (0, 1/2]")
    if m.alpha is not None and m.alpha < 3:
        violations.append("alpha must be >= 3 for the bounded-entry bound")
    if m.beta is not None and m.beta <= 0:
        violations.append("beta must be > 0")
    if m.p is not None and m.p < 1:
        violations.append("p (moment order) must be >= 1")
    if m.tol <= 0:
        violations.append("tol must be > 0")
    if m.trials < 1:
        violations.append("trials must be >= 1")
    if m.threads < 0:
        violations.append("threads must be >= 0 (0 = auto)")
    if m.command in ("phase", "seginer") and not m.n_grid:
        violations.append(f"{m.command} needs n_grid")
    if m.command == "phase" and not m.k_rule:
        violations.append("phase needs k_rule")
    if m.command == "tails" and m.trials < 1000:
        violations.append("tails needs trials >= 1000")
    if m.command == "moments":
        if m.p is None:
            violations.append("moments needs p")
        elif m.p != int(m.p):
            violations.append("moments needs an integer p")
        elif m.p > moments_mod.MAX_HALF_LENGTH:
            violations.append(f"p exceeds the enumeration guard {moments_mod.MAX_HALF_LENGTH}")
        if m.moments_action == "verify":
            if m.pattern is None and m.matrix_file is None:
                violations.append("moments verify needs a pattern")
            else:
                try:
                    C = _load_matrix(m)
                except (ParameterError, DataError, OSError) as exc:
                    violations.append(f"cannot load pattern: {exc}")
                else:
                    if m.p is not None and C.rows ** (2 * m.p) > moments_mod.BRUTE_FORCE_GUARD:
                        violations.append(
                            f"n^(2p) = {C.rows}^{2 * m.p} exceeds the guard "
                            f"{moments_mod.BRUTE_FORCE_GUARD}"
                        )
                    if coeffs_mod.structural_params(C).sigma_star > 1 + 1e-12:
                        violations.append("moments verify requires sigma_star <= 1")
    if m.command in ("bounds", "sample", "norm", "tails", "density", "report"):
        if m.pattern is None and m.matrix_file is None:
            violations.append(f"{m.command} needs a pattern or matrix file")
    return {"command": m.command, "valid": not violations, "violations": violations}


def _threads(m):
    return exp_mod.available_cores() if m.threads == 0 else m.threads


def _cmd_bounds(m):
    C = _load_matrix(m)
    dist = distribution_from_code(m.distribution)
    reports = []
    if C.kind == "symmetric":
        reports.append(bounds_mod.bound_main(C, m.epsilon))
        reports.append(bounds_mod.bound_reference(C, "nck"))
        reports.append(bounds_mod.bound_reference(C, "gordon"))
        reports.append(bounds_mod.bound_subgaussian(C, m.epsilon))
        if C.rows >= 2 and coeffs_mod.structural_params(C).sigma > 0:
            reports.append(bounds_mod.bound_seginer(C))
        if dist.family == "rademacher":
            reports.append(bounds_mod.bound_rademacher(C, m.epsilon))
        if m.beta is not None:
            reports.append(bounds_mod.bound_heavy(C, m.beta))
    reports.append(bounds_mod.bound_rect(C, m.epsilon))
    if coeffs_mod.structural_params(C).sigma_star > 0:
        reports.append(bounds_mod.bound_dimfree(C, float(m.p) if m.p else 1.0))
    payload = [r.to_json() for r in reports]
    print(_json(payload, indent=2))
    if m.output:
        path = _out_path(m, "bounds.json")
        with open(path, "w") as fh:
            fh.write(_json(payload, indent=2, sort_keys=True) + "\n")
        _write_manifest_echo(m, path + ".manifest.json")
    return 0


def _cmd_sample(m):
    C = _load_matrix(m)
    dist = distribution_from_code(m.distribution)
    X = sample_matrix(C, dist, SeedSpec(m.seed, 0))
    path = _out_path(m, "sample.csv")
    coeffs_mod.write_matrix_csv(X, path, symmetric=C.kind == "symmetric")
    _write_manifest_echo(m, path + ".manifest.json")
    print(_json({"written": path, "rows": C.rows, "cols": C.cols}))
    return 0


def _cmd_norm(m):
    C = _load_matrix(m)
    X = sample_matrix(C, distribution_from_code(m.distribution), SeedSpec(m.seed, 0))
    res = spectral_norm(X, tol=m.tol)
    print(
        _json(
            {
                "value": res.value,
                "method": res.method,
                "iterations": res.iterations,
                "rel_error_bound": res.rel_error_bound,
            }
        )
    )
    return 0


def _cmd_moments(m):
    p = int(m.p)
    if m.moments_action == "census":
        shapes = moments_mod.enumerate_shapes(p)
        bip = moments_mod.enumerate_bipartite_shapes(p)
        payload = {
            "p": p,
            "census_size": len(shapes),
            "bipartite_census_size": len(bip),
            "max_distinct_vertices": max(s.m for s in shapes),
        }
        print(_json(payload, indent=2))
        return 0
    C = _load_matrix(m)
    lhs, rhs, holds = moments_mod.verify_comparison(C, p)
    exact = not isinstance(lhs, float)
    payload = {
        "p": p,
        "n": C.rows,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "holds": bool(holds),
        "exact": exact,
    }
    if exact:
        payload["lhs_exact"] = str(lhs)
        payload["rhs_exact"] = str(rhs)
    print(_json(payload, indent=2))
    if not holds:
        raise GuaranteeError("trace-moment comparison failed")
    return 0


def _cmd_phase(m):
    dist = distribution_from_code(m.distribution)
    pattern = "band"
    if m.pattern in ("band", "regular_random"):
        pattern = m.pattern
    elif m.pattern:
        raise ParameterError("phase patterns are band or regular_random")
    grid = exp_mod.phase_scan(
        pattern,
        [int(x) for x in m.n_grid],
        m.k_rule,
        dist,
        m.trials,
        m.seed,
        tol=m.tol,
        threads=_threads(m),
        band_variant=m.band_variant,
    )
    path = _out_path(m, "phase.csv")
    grid.write_csv(path)
    _write_manifest_echo(m, path + ".manifest.json")
    print(_json({"written": path, "cells": len(grid.rows)}))
    return 0


def _cmd_tails(m):
    C = _load_matrix(m)
    dist = distribution_from_code(m.distribution)
    rows = exp_mod.tail_empirics(
        C, dist, m.epsilon, m.trials, [float(t) for t in m.t_grid], m.seed,
        tol=m.tol, threads=_threads(m),
    )
    path = _out_path(m, "tails.csv")
    exp_mod.write_rows_csv(rows, path)
    _write_manifest_echo(m, path + ".manifest.json")
    print(_json({"written": path, "points": len(rows)}))
    return 0


def _cmd_density(m):
    C = _load_matrix(m)
    dist = distribution_from_code(m.distribution)
    ks = exp_mod.spectral_density_check(C, dist, m.seed)
    print(_json({"ks_distance": ks}))
    return 0


def _cmd_seginer(m):
    dist = distribution_from_code(m.distribution)
    rows = exp_mod.seginer_block_experiment(
        [int(x) for x in m.n_grid], dist, m.trials, m.seed, threads=_threads(m)
    )
    path = _out_path(m, "seginer.csv")
    exp_mod.write_rows_csv(rows, path)
    _write_manifest_echo(m, path + ".manifest.json")
    print(_json({"written": path, "cells": len(rows)}))
    return 0


def _cmd_report(m):
    C = _load_matrix(m)
    dist = distribution_from_code(m.distribution)
    rep = exp_mod.bounds_vs_empirical_report(
        C, dist, m.epsilon, m.trials, m.seed, tol=m.tol, threads=_threads(m)
    )
    text = _json(rep, indent=2, sort_keys=True)
    print(text)
    if m.output:
        path = _out_path(m, "report.json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        _write_manifest_echo(m, path + ".manifest.json")
    if not rep["ok"]:
        raise GuaranteeError("; ".join(rep["failures"]))
    return 0


# name -> (handler, help), in subcommand order; execute runs validate itself
COMMANDS = {
    "bounds": (_cmd_bounds, "closed-form expected-norm bounds: (1+eps){2 sigma + c(eps) sigma* sqrt(log n)}, "
               "reference curves sigma sqrt(log n) and sigma* sqrt(n), dimension-free and "
               "Rademacher/split variants"),
    "sample": (_cmd_sample, "draw one X_ij = xi_ij b_ij realization and write it as CSV"),
    "norm": (_cmd_norm, "spectral norm of one realization (dense eigensolver or ARPACK Lanczos)"),
    "moments": (_cmd_moments, "exact even-cycle census and the trace-moment comparison "
                "E Tr[X^2p] <= n/(ceil(sigma^2)+p) E Tr[Y^2p]"),
    "phase": (_cmd_phase, "sparse-pattern scan of ||X||/sqrt(k): tends to 2 when k/log n grows, "
              "diverges when k/log n vanishes"),
    "tails": (_cmd_tails, "empirical survival of ||X|| against exp(-t^2/4 sigma*^2) and the "
              "variance-based n exp(-t^2/c sigma*^2) tail curves"),
    "density": (_cmd_density, "Kolmogorov-Smirnov distance of the spectrum of X/sqrt(k) to the "
                "semicircle law (equal row degrees required)"),
    "seginer": (_cmd_seginer, "block-diagonal scaling study: E||X||/sqrt(log n) stays bounded for "
                "k = ceil(sqrt(log n)) blocks of Rademacher entries; blocks are solved exactly, "
                "so --tol is not used"),
    "report": (_cmd_report, "explicit lower bound vs MC norm vs upper bounds, plus the unasserted "
               "structural value sigma + E max|b g| and max-column-norm ratio diagnostics"),
    "validate": (None, "check a manifest's preconditions without executing it"),
}


def execute(m):
    """Run a validated manifest; returns the process exit status."""
    if m.command == "validate":
        print(_json(validate(m), indent=2))
        return 0
    report = validate(m)
    if not report["valid"]:
        raise ParameterError("; ".join(report["violations"]))
    return COMMANDS[m.command][0](m)


def _add_common(sub):
    sub.add_argument("--manifest", help="JSON manifest; flags override its keys")
    sub.add_argument("--pattern", help="pattern spec name:params, e.g. band:4096,16")
    sub.add_argument("--matrix-file", dest="matrix_file", help="CSV matrix file")
    sub.add_argument("--matrix-format", dest="matrix_format", choices=["dense", "sparse"])
    sub.add_argument("--matrix-kind", dest="matrix_kind", choices=["symmetric", "rectangular"])
    sub.add_argument("--distribution", help="gaussian | rademacher | uniform | heavy:<beta>")
    sub.add_argument("--epsilon", type=float, help="accuracy parameter in (0, 1/2]")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--p", type=float)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--output", help=f"output path (relative to ${OUTPUT_DIR_ENV})")
    sub.add_argument("--threads", type=int, help="worker threads; 0 = auto")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specbound",
        description=(
            "Evaluate sharp nonasymptotic spectral-norm bounds for random "
            "matrices with independent entries, verify the exact trace-moment "
            "comparison behind them, and reproduce the sparse phase transition."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    for cmd, (_, text) in COMMANDS.items():
        s = sub.add_parser(cmd, help=text, description=text)
        _add_common(s)
        if cmd == "moments":
            s.add_argument("moments_action", nargs="?", choices=["census", "verify"])
        if cmd in ("phase", "seginer"):
            s.add_argument("--n", dest="n_grid", help="comma-separated n grid")
        if cmd == "phase":
            s.add_argument("--k-rule", dest="k_rule", help="const:<k> | c_log:<c> | log_sq | sqrt")
            s.add_argument("--band-variant", dest="band_variant", choices=["cyclic", "truncated"])
        if cmd == "tails":
            s.add_argument("--t-grid", dest="t_grid", help="comma-separated t values")
    return parser


def _merge_manifest(args):
    data = {}
    if args.manifest:
        with open(args.manifest) as fh:
            data.update(json.load(fh))
    cli = {k: v for k, v in vars(args).items() if k != "manifest" and v is not None}
    try:
        if "n_grid" in cli:
            cli["n_grid"] = [int(x) for x in cli["n_grid"].split(",")]
        if "t_grid" in cli:
            cli["t_grid"] = [float(x) for x in cli["t_grid"].split(",")]
    except ValueError as exc:
        raise ParameterError(f"malformed grid flag: {exc}") from None
    data.update(cli)
    return RunManifest.from_dict(data)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 1
    try:
        manifest = _merge_manifest(args)
        return execute(manifest)
    except (ParameterError, DataError, SizeError, OSError, json.JSONDecodeError) as exc:
        _err(exc)
        return 1
    except GuaranteeError as exc:
        _err(exc)
        return 2
    except NonConvergenceError as exc:
        _err(exc)
        return 3


def _err(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    best = getattr(exc, "best", None)
    if best is not None:
        value = getattr(best, "value", None)
        payload["best_estimate"] = value if value is not None else getattr(best, "mean", None)
    print(_json(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main() or 0)
