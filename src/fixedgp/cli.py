"""Command-line harness.

Subcommands: simulate, table1, table2, table3, contour, kl-check,
lambda-check.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .experiments import (
    ExperimentConfig,
    FailureBudgetExceededError,
    emit_contour_grid,
    gen_perturbed_grid,
    kl_check_sweep,
    lambda_check_sweep,
    run_table1,
    run_table2,
    run_table3,
    sample_gp_path,
)
from .gp import DegenerateDataError, NotPositiveDefiniteError, load_dataset, save_dataset


class ConfigError(Exception):
    pass


def _int_list(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


# one parser per ExperimentConfig field, chosen by the type of its default
_PARSERS = {int: int, float: float, tuple: _int_list, str: str}
_FIELD_PARSERS = {f.name: _PARSERS[type(f.default)]
                  for f in dataclasses.fields(ExperimentConfig)}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` config text; '#' starts a comment."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: cannot parse {key} = {val!r}") from None
    return values


def build_config(args) -> ExperimentConfig:
    """The config file's values, overridden by every parsed flag whose
    ``dest`` is a config field and that was given."""
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    values.update({k: v for k, v in vars(args).items() if k in _FIELD_PARSERS and v is not None})
    try:
        return ExperimentConfig(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err))


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _grid(text):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        ok = 0 < lo <= hi < math.inf and count >= 1
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi:count' with 0 < lo <= hi, "
                                         f"count >= 1, got {text!r}")
    return np.linspace(lo, hi, count)


def _positive(parse):
    """argparse type: ``parse``, then require one finite positive value or a
    non-empty list of them."""
    def check(text):
        value = parse(text)
        values = value if isinstance(value, tuple) else (value,)
        if not values or not all(0 < v < math.inf for v in values):
            raise argparse.ArgumentTypeError(f"expected positive values, got {text!r}")
        return value
    check.__name__ = parse.__name__
    return check


def _seed(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative seed, got {text!r}")
    return int(text)


def _add_common(p):
    """The table flags: each sets the ExperimentConfig field named by its dest."""
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, help="master seed")
    p.add_argument("--reps", dest="n_replications", metavar="REPS", type=int,
                   help="number of replications")
    p.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    p.add_argument("--workers", dest="n_workers", metavar="WORKERS", type=int,
                   help="parallel replication workers")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--fast-ou", dest="likelihood", action="store_const", const="ou",
                   help="O(n) OU likelihood (d=1, nu=1/2)")
    g.add_argument("--dense", dest="likelihood", action="store_const", const="dense",
                   help="dense Cholesky likelihood")
    p.add_argument("--n-values", type=_int_list, help="comma-separated d=1 sizes")
    p.add_argument("--m-values", type=_int_list, help="comma-separated d=2 grid sides")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixedgp",
        description="Fixed-domain Bayesian Matern GP experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a design and one GP path")
    p.add_argument("--d", type=int, default=None, choices=(1, 2))
    p.add_argument("--n", type=_positive(int), default=100,
                   help="points for d=1, grid side for d=2")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--zero-noise", action="store_true")
    p.add_argument("--config", help="flat key = value config file")

    p = sub.add_parser("table1", help="d=1 posterior means and W2 distances")
    _add_common(p)

    p = sub.add_parser("table2", help="d=2 posterior means and W2 distances")
    _add_common(p)

    p = sub.add_parser("table3", help="posterior means of max MSE ratios")
    _add_common(p)
    p.add_argument("--d", type=int, choices=(1, 2), help="dimension (default 1)")

    p = sub.add_parser("contour", help="posterior density surfaces on a grid")
    p.add_argument("--data", help="dataset CSV (default: simulate one)")
    p.add_argument("--n", type=_positive(int), default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--theta-grid", type=_grid, default=_grid("0.1:1.5:60"),
                   help="lo:hi:count (default 0.1:1.5:60)")
    p.add_argument("--alpha-grid", type=_grid, default=_grid("0.05:8:60"),
                   help="lo:hi:count (default 0.05:8:60)")
    p.add_argument("--config", help="flat key = value config file")

    p = sub.add_parser("kl-check", help="symmetrized KL vs its closed-form limit")
    p.add_argument("--n-values", type=_positive(_int_list), default=(100, 200, 400, 800))
    p.add_argument("--alphas", type=_positive(_float_list), default=(0.25, 1.0, 2.0))
    p.add_argument("--alpha0", type=_positive(float), default=0.5)
    p.add_argument("--out", default="out")

    p = sub.add_parser("lambda-check", help="generalized spectra vs power bounds")
    p.add_argument("--count", type=_positive(int), default=50)
    p.add_argument("--n", type=_positive(int), default=30)
    p.add_argument("--d", type=int, default=1, choices=(1, 2))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="out")

    return parser


def _simulate(cfg, d, args, zero_noise=False):
    """The dataset of ``simulate`` and ``contour``: a perturbed grid of
    ``args.n`` per axis and one path from ``args.seed``.  A truth correlation
    that does not factorize is a numerical failure (exit 3)."""
    design = gen_perturbed_grid(d, args.n, np.random.SeedSequence([args.seed, 1]),
                                zero_noise=zero_noise)
    try:
        return sample_gp_path(design, cfg.truth, np.random.SeedSequence([args.seed, 2]))
    except NotPositiveDefiniteError as err:
        raise FailureBudgetExceededError(
            f"the truth correlation at n={design.n}, nu={cfg.nu} does not factorize: {err}"
        ) from None


def _cmd_simulate(args) -> int:
    cfg = build_config(args)
    d = cfg.d
    data = _simulate(cfg, d, args, args.zero_noise)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "dataset.csv")
    save_dataset(data, path)
    meta = {
        "d": d, "n": data.n, "seed": args.seed,
        "truth": dataclasses.asdict(cfg.truth), "zero_noise": args.zero_noise,
    }
    with open(os.path.join(args.out, "dataset_manifest.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    print(f"wrote {path} (n={data.n}, d={d})")
    return 0


def _print_rows(rows, cols=None):
    for row in rows:
        keys = cols or row.keys()
        print("  ".join(f"{k}={row[k]:.4g}" if isinstance(row[k], float) else f"{k}={row[k]}"
                        for k in keys))


def _cmd_table(args, runner) -> int:
    cfg = build_config(args)
    _, rows = runner(cfg)
    _print_rows(rows)
    print(f"outputs in {cfg.output_dir}")
    return 0


def _cmd_contour(args) -> int:
    cfg = build_config(args)
    try:
        data = load_dataset(args.data) if args.data else _simulate(cfg, 1, args)
        # checks the dataset (d = 1, a positive profile) before it writes
        emit_contour_grid(data, cfg, args.theta_grid, args.alpha_grid, out_dir=args.out)
    except (OSError, ValueError, DegenerateDataError) as err:
        raise ConfigError(f"contour: {err}") from None
    print(f"wrote contour_grid.csv and contour_ridge.csv in {args.out}")
    return 0


def _cmd_kl_check(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "kl_check.csv")
    rows = kl_check_sweep(args.n_values, args.alphas, args.alpha0, out_path=path)
    _print_rows(rows)
    print(f"wrote {path}")
    return 0


def _cmd_lambda_check(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "lambda_check.csv")
    rows = lambda_check_sweep(args.count, np.random.SeedSequence([args.seed, 3]),
                              n=args.n, d=args.d, out_path=path)
    bad = [r for r in rows if not r["ok"]]
    print(f"{len(rows) - len(bad)}/{len(rows)} instances within bounds; wrote {path}")
    return 0 if not bad else 3


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "table1":
            return _cmd_table(args, run_table1)
        if args.command == "table2":
            return _cmd_table(args, run_table2)
        if args.command == "table3":
            return _cmd_table(args, run_table3)
        if args.command == "contour":
            return _cmd_contour(args)
        if args.command == "kl-check":
            return _cmd_kl_check(args)
        if args.command == "lambda-check":
            return _cmd_lambda_check(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except FailureBudgetExceededError as err:
        print(f"numerical failure budget exceeded: {err}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
