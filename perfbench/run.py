#!/usr/bin/env python3
"""Benchmark of fixedgp's table runs.

    python3 perfbench/run.py --workload ou_d1 --seed 12345 --seconds 40 --trace 0

Run from the repository root. Each workload runs one table protocol through
the public table functions (``run_table1/2/3`` with an ``ExperimentConfig``)
again and again for ``--seconds`` seconds, ``REPS_PER_SIZE`` replications per
size per call, in one process with one BLAS thread. Call k uses ``master_seed`` = the seed for k = 0
and a value drawn from the seed after that, so one seed always gives the same
inputs. Every call's CSVs are checked; the last line of standard output is a
JSON object with the metrics that ``BENCHMARK.json`` declares.

``--trace 0`` reports the end-to-end metrics and installs no wrapper.
``--trace 1`` alternates untraced and traced calls on the same seeds and
reports per-layer calls and self time from spans recorded around the names
the package resolves at call time (see ``spans.py``), plus the tracing
overhead. Spans and a run report are written under ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
DEFAULT_SEED = 12345


@dataclasses.dataclass(frozen=True)
class Workload:
    table: str                  # run_table1 / run_table2 / run_table3
    config: dict                # ExperimentConfig fields besides PROTOCOL
    summary_columns: tuple      # <table>.csv columns the protocol defines
    nan_columns: tuple          # <table>_replications.csv columns that must be NaN

    @property
    def sizes(self) -> tuple:
        return self.config["m_values"] if self.config["d"] == 2 else self.config["n_values"]

    @property
    def expected_n(self) -> list:
        return [s * s if self.config["d"] == 2 else s for s in self.sizes]


# The paper's default protocol (5000 draws after 1000 burn-in, gamma(1.1, 0.1)
# priors, truth sigma2 = 1, alpha = 0.5, nu = 1/2), pinned so that a change
# of ExperimentConfig's defaults cannot silently change the work measured.
# Serial, with several replications of each size per call, as the paper's
# 100 are run, so that work shared across a size's replications (batching
# them, stacking their matrices) is part of what is measured; the benchmark
# reports medians over the calls of a run.
REPS_PER_SIZE = 4
PROTOCOL = dict(
    sigma2_0=1.0, alpha_0=0.5, nu=0.5,
    theta_shape=1.1, theta_rate=0.1, alpha_shape=1.1, alpha_rate=0.1,
    n_samples=5000, n_burnin=1000, n_replications=REPS_PER_SIZE, n_workers=1,
)

_W_COLUMNS = ("e_theta", "e_theta_limit", "e_alpha", "e_alpha_limit",
              "w2_theta", "w2_alpha_profile")
_TILTED = ("e_alpha_tilted", "w2_alpha_tilted")
_TILTED_REP = ("tilted_mean_alpha", "w2_alpha_tilted")
_RATIO_REP = ("mean_max_r1", "mean_max_r2")

# Why each workload exists is stated in BENCHMARK.json; which layer metric
# should move which end-to-end metric on which workload is in expectations.json.
WORKLOADS = {
    "ou_d1": Workload(
        "table1", dict(d=1, n_values=(100, 400), likelihood="ou"),
        _W_COLUMNS + _TILTED, _RATIO_REP),
    "dense_d2": Workload(
        "table2", dict(d=2, m_values=(10,), likelihood="dense"),
        _W_COLUMNS, _TILTED_REP + _RATIO_REP),
    "ratios_d1": Workload(
        "table3", dict(d=1, n_values=(50, 200), likelihood="ou", n_test_points=1000),
        ("max_r1", "max_r2"), ()),
}


def pin_blas_threads() -> None:
    for var in BLAS_ENV:
        os.environ[var] = "1"


def setup(workload: Workload, output_dir: str):
    """Import the package and its numerical stack and build the workload's
    config: the work done once before the first table call. Returns
    (seconds, fixedgp.experiments, base config)."""
    t0 = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    import fixedgp
    from fixedgp import experiments

    if not os.path.abspath(fixedgp.__file__).startswith(src + os.sep):
        raise ImportError(f"fixedgp was imported from {fixedgp.__file__}, not from {src}")
    base = experiments.ExperimentConfig(
        **PROTOCOL, **workload.config, master_seed=DEFAULT_SEED, output_dir=output_dir,
    )
    return time.perf_counter() - t0, experiments, base


def setup_probe_seconds(workload_name: str) -> float:
    """Set-up time measured in a fresh interpreter, so that imports are
    really paid; the probe is this script with ``--setup-probe``."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload_name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def master_seeds(seed: int):
    """The seed itself, then a deterministic stream of seeds drawn from it."""
    import numpy as np

    yield seed
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# output checks

def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_tables(workload: Workload, out_dir: str) -> list[str]:
    """Problems with one call's outputs; empty when they are correct."""
    import math

    problems = []
    reps_per_size = PROTOCOL["n_replications"]
    table = _read_csv(os.path.join(out_dir, f"{workload.table}.csv"))
    if sorted(int(r["n"]) for r in table) != sorted(workload.expected_n):
        problems.append(f"{workload.table}.csv sizes {[r['n'] for r in table]} != {workload.expected_n}")
    for row in table:
        if int(row["replications"]) != reps_per_size:
            problems.append(f"n={row['n']}: {row['replications']} replications, want {reps_per_size}")
        for col in workload.summary_columns:
            for key in (col, col + "_sd"):
                if key not in row or not math.isfinite(float(row[key])):
                    problems.append(f"n={row['n']}: {key}={row.get(key)!r} is not finite")
    reps = _read_csv(os.path.join(out_dir, f"{workload.table}_replications.csv"))
    if len(reps) != reps_per_size * len(workload.expected_n):
        problems.append(f"{len(reps)} replication rows, want {reps_per_size * len(workload.expected_n)}")
    for row in reps:
        for key, value in row.items():
            v = float(value)
            if key in workload.nan_columns and not math.isnan(v):
                problems.append(f"replication n={row['n']}: {key}={value} should be NaN")
            elif key not in workload.nan_columns and not math.isfinite(v):
                problems.append(f"replication n={row['n']}: {key}={value} is not finite")
    return problems


def check_ou_against_dense(experiments, base, seed: int) -> list[str]:
    """The O(n) OU log-likelihood against the dense Cholesky one, to 1e-9
    relative, on one dataset of each size drawn from the seed."""
    import numpy as np
    from fixedgp import gp
    from fixedgp.kernels import MaternSpec

    problems = []
    for n in base.n_values:
        design_ss, path_ss = np.random.SeedSequence([seed, n]).spawn(2)
        design = experiments.gen_perturbed_grid(1, n, design_ss)
        data = experiments.sample_gp_path(design, base.truth, path_ss)
        for sigma2, alpha in ((base.sigma2_0, base.alpha_0), (2.0, 3.0)):
            fast = gp.ou_loglik_fast(data, sigma2, alpha)
            dense = gp.log_likelihood(data, MaternSpec(sigma2=sigma2, alpha=alpha, nu=0.5))
            if not abs(fast - dense) <= 1e-9 * max(abs(fast), abs(dense)):
                problems.append(f"n={n} sigma2={sigma2} alpha={alpha}: ou {float(fast)!r} vs dense {float(dense)!r}")
    return problems


# ---------------------------------------------------------------------------
# one table call

@dataclasses.dataclass
class Call:
    master_seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    replications: int       # completed
    retries: int
    lost: int               # replications lost to the failure budget
    problems: list
    hashes: dict

    @property
    def failed(self) -> int:
        return self.retries + self.lost + (self.replications if self.problems else 0)


def run_call(experiments, workload: Workload, cfg, trace_block=None) -> Call:
    """One timed table call, with ``trace_block`` (a context manager that
    installs the span wrappers) around it when traced."""
    traced = trace_block is not None
    runner = getattr(experiments, "run_" + workload.table)
    planned = PROTOCOL["n_replications"] * len(workload.sizes)
    for stale in glob.glob(os.path.join(cfg.output_dir, "*")):
        os.remove(stale)
    lost = 0
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        with trace_block or contextlib.nullcontext():
            runner(cfg)
    except experiments.FailureBudgetExceededError:
        lost = planned
    w1, c1 = time.perf_counter(), time.process_time()
    if lost:
        return Call(cfg.master_seed, traced, w1 - w0, c1 - c0, 0, 0, lost, [], {})
    problems = check_tables(workload, cfg.output_dir)
    with open(os.path.join(cfg.output_dir, f"{workload.table}_manifest.json")) as fh:
        retries = int(json.load(fh)["total_retries"])
    hashes = {
        name: sha256(os.path.join(cfg.output_dir, name))
        for name in (f"{workload.table}.csv", f"{workload.table}_replications.csv")
    }
    return Call(cfg.master_seed, traced, w1 - w0, c1 - c0, planned, retries, 0, problems, hashes)


# ---------------------------------------------------------------------------
# per-layer tracing

def trace_targets():
    from spans import Target

    npd = "fixedgp.gp:NotPositiveDefiniteError"
    return [
        Target("kernels.matern_correlation", "fixedgp.gp", "matern_correlation"),
        Target("kernels.matern_correlation", "fixedgp.experiments", "matern_correlation"),
        Target("gp.ou_loglik_fast", "fixedgp.gp", "ou_loglik_fast"),
        Target("gp.ou_profile_stats", "fixedgp.posterior", "ou_profile_stats"),
        Target("gp.ou_profile_stats", "fixedgp.experiments", "ou_profile_stats"),
        Target("gp.profile_stats", "fixedgp.posterior", "profile_stats"),
        Target("gp.profile_stats", "fixedgp.experiments", "profile_stats"),
        Target("gp.factorize", "fixedgp.gp", "factorize", failure=npd),
        Target("gp.factorize", "fixedgp.experiments", "factorize", failure=npd),
        Target("gp.distance_matrix", "fixedgp.gp", "Design.distance_matrix"),
        Target("posterior.rwm_chain", "fixedgp.experiments", "rwm_chain"),
        Target("posterior.joint_limit_sampler", "fixedgp.experiments", "joint_limit_sampler"),
        Target("posterior.log_joint_posterior", "fixedgp.experiments", "log_joint_posterior"),
        Target("posterior.prior_logpdf", "fixedgp.posterior", "GammaPrior.logpdf"),
        Target("diagnostics.w2_distance", "fixedgp.experiments", "w2_distance"),
        Target("experiments.design", "fixedgp.experiments", "gen_perturbed_grid"),
        Target("experiments.path", "fixedgp.experiments", "sample_gp_path"),
        Target("experiments.testpoints", "fixedgp.experiments", "gen_lhs_testpoints"),
        Target("experiments.replication", "fixedgp.experiments", "_run_replication",
               replication=True),
    ]


class SamplerHealth:
    """Acceptance and joint-chain ESS read from the ChainSamples the samplers
    return, collected on the first traced call only (master_seed = seed), so
    the values are exact for a fixed seed."""

    def __init__(self):
        self.collecting = True
        self.accept = {"joint": [], "profile": [], "tilted": []}
        self.joint_chains = []

    def on_rwm(self, chain):
        if self.collecting:
            self.accept["joint"].append(chain.acceptance_rate)
            self.joint_chains.append((chain.theta, chain.alpha))

    def on_limit(self, chain):
        if self.collecting:
            kind = "tilted" if "tilted" in chain.target_label else "profile"
            self.accept[kind].append(chain.acceptance_rate)

    def metrics(self) -> dict:
        """Zero where no chain was seen, as when a wrap target was skipped."""
        from ess import geyer_ess

        out = {f"posterior.accept_{k}": statistics.fmean(v) if v else 0.0
               for k, v in self.accept.items()}
        for i, name in enumerate(("theta", "alpha")):
            ess = [geyer_ess(chain[i]) for chain in self.joint_chains]
            out[f"posterior.ess_{name}_joint"] = statistics.median(ess) if ess else 0.0
        return out


def layer_metrics(own: dict, tracer, traced_calls, untraced_calls, health) -> dict:
    """Per-layer calls and self seconds per traced replication, from the
    ``Tracer.self_times()`` result ``own``, plus counts and overhead."""
    reps = sum(c.replications for c in traced_calls) or 1
    out = {}
    for t in trace_targets():
        calls, self_s, _ = own.get(t.layer, (0, 0.0, ()))
        out[t.layer + ".calls"] = calls / reps
        out[t.layer + ".self_s"] = self_s / reps
    out["experiments.table.self_s"] = own["experiments.table"][1] / reps
    out["gp.factorize.failed"] = tracer.failures.get("gp.factorize", 0)
    durations = own.get("experiments.replication", (0, 0.0, []))[2]
    out["experiments.replication.p50_s"] = statistics.median(durations) if len(durations) else 0.0
    out["experiments.retries"] = sum(c.retries for c in traced_calls + untraced_calls)
    out.update(health.metrics())
    # matched pairs of calls on the same master seed
    by_seed = {c.master_seed: c for c in untraced_calls}
    ratios = [by_seed[c.master_seed].wall_s / c.wall_s for c in traced_calls if c.master_seed in by_seed]
    out["trace.overhead_frac"] = 1.0 - statistics.median(ratios)
    return out


# ---------------------------------------------------------------------------
# environment

def environment(args, base) -> dict:
    import numpy
    import scipy

    def git_revision():
        try:
            top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                                 capture_output=True, text=True, timeout=10, check=False)
        except OSError:
            return None
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
            return None
        return lines[1]

    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fixedgp", "*.py"))):
        src.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "replications_per_size": base.n_replications,
        "sizes": list(WORKLOADS[args.workload].sizes),
        "n_samples": base.n_samples,
        "n_burnin": base.n_burnin,
    }


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, f"run-{args.workload}-{os.getpid()}")
    try:
        setup_s, experiments, base = setup(workload, run_dir)
    except ImportError as err:
        print(f"error: cannot import fixedgp from {ROOT}/src: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    sys.path.insert(0, HERE)
    import spans

    declared = declared_metrics()
    env = environment(args, base)
    print("env " + json.dumps(env, sort_keys=True))
    probes = 0 if args.trace else SETUP_PROBES
    setup_samples = [setup_s] + [setup_probe_seconds(args.workload) for _ in range(probes)]

    problems = []
    if base.d == 1:
        problems += check_ou_against_dense(experiments, base, args.seed)
    with open(os.path.join(HERE, "expectations.json")) as fh:
        reference = json.load(fh)["reference_hashes"][args.workload]

    tracer = spans.Tracer()
    health = SamplerHealth()
    skipped = spans.find_missing(trace_targets()) if args.trace else []

    @contextlib.contextmanager
    def trace_block():
        on_result = {"posterior.rwm_chain": health.on_rwm,
                     "posterior.joint_limit_sampler": health.on_limit}
        with spans.installed(tracer, trace_targets(), on_result), tracer.span("experiments.table"):
            yield

    calls: list[Call] = []
    os.makedirs(run_dir, exist_ok=True)
    seeds = master_seeds(args.seed)
    deadline = time.perf_counter() + args.seconds
    unit_seconds = []
    try:
        while True:
            t0 = time.perf_counter()
            cfg = dataclasses.replace(base, master_seed=next(seeds))
            if args.trace:
                order = (False, True) if len(unit_seconds) % 2 == 0 else (True, False)
                for traced in order:
                    calls.append(run_call(experiments, workload, cfg,
                                          trace_block() if traced else None))
                    health.collecting = health.collecting and not traced
            else:
                calls.append(run_call(experiments, workload, cfg))
            unit_seconds.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(unit_seconds) > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for c in calls:
        problems += [f"master_seed {c.master_seed}: {p}" for p in c.problems]
    first = [c for c in calls if c.master_seed == args.seed and c.hashes]
    if args.trace and len(first) == 2 and first[0].hashes != first[1].hashes:
        problems.append("traced and untraced calls wrote different tables for the same seed")
    for name, digest in (first[0].hashes.items() if first else ()):
        if args.seed == reference["seed"]:
            status = "matches" if reference["files"].get(name) == digest else "DIFFERS from"
            print(f"sha256 {name} {digest} ({status} the reference for seed {args.seed})")
        else:
            print(f"sha256 {name} {digest} (no reference for seed {args.seed})")

    timed = [c for c in calls if not c.traced and c.replications]
    if not timed:
        print("error: no table call completed", file=sys.stderr)
        return 1
    attempted = sum(c.replications + c.retries + c.lost for c in calls)
    failed = sum(c.failed for c in calls)
    rates = [c.replications / c.wall_s for c in timed]
    values = {
        "reps_per_s": statistics.median(rates),
        "cpu_s_per_rep": statistics.median(c.cpu_s / c.replications for c in timed),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
    }
    print(f"workload {args.workload}: {len(calls)} table calls ({len(timed)} untraced), "
          f"{sum(c.replications for c in calls)} replications, {attempted} attempts, {failed} failed")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    if len(rates) >= 4:
        q1, _, q3 = statistics.quantiles(rates, n=4)
        print(f"reps_per_s over {len(rates)} calls: q1 {q1:.4f}, q3 {q3:.4f}")

    report = {"env": env, "calls": [dataclasses.asdict(c) for c in calls], "problems": problems}
    if args.trace:
        traced = [c for c in calls if c.traced]
        untraced = [c for c in calls if not c.traced]
        own = tracer.self_times()
        values.update(layer_metrics(own, tracer, traced, untraced, health))
        traced_wall = sum(c.wall_s for c in traced)
        untraced_wall = sum(c.wall_s for c in untraced)
        print(f"trace: {len(tracer.start)} spans; self times sum to "
              f"{sum(v[1] for v in own.values()):.3f} s of {traced_wall:.3f} s traced table wall; "
              f"the untraced calls on the same seeds took {untraced_wall:.3f} s "
              f"(overhead {1.0 - untraced_wall / traced_wall:.4f} in total)")
        print("trace: skipped wrap targets: " + (", ".join(skipped) if skipped else "none"))
        report["skipped_targets"] = skipped
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.npz"))

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in declared[group]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    metric_units = {m["name"]: m["unit"] for g in declared.values() for m in g}
    metric_units["failed_frac"] = f"frac ({failed} of {attempted} attempts)"
    for name, v in values.items():
        print(f"metric {name} = {v:.6g} {metric_units[name]}")
    for p in problems:
        print(f"check failed: {p}")
    report["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
