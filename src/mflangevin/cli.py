"""Command-line interface for training runs and the study harness.

Subcommands: train, grad-check, chaos-study, euler-study,
contraction-study, gibbs-check, generalization-study.  Every command
starts from a configuration: the JSON file given by --config, or else its
built-in desk-scale one (``config.default_config``).  Every command also
accepts --seed (overrides the trainer seed), --out (output directory),
and --threads (parallelism over a study's independent runs, its reference
runs among them; at least 1; outputs are byte-identical at any thread
count).
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from .clouds import cloud_to_csv
from .config import (GRAD_CHECK_SEEDS, GRAD_CHECK_TOL, STUDY_RUNNERS,
                     build_setup, default_config, load_config, parse_config,
                     study_arguments)
from .exceptions import ConfigError
from .langevin import train
from .objective import discrete_gradient, finite_diff_gradient

# Study subcommand -> study kind, whose runner is in STUDY_RUNNERS.
STUDY_COMMANDS = {"chaos-study": "chaos", "euler-study": "euler",
                  "contraction-study": "contraction", "gibbs-check": "gibbs",
                  "generalization-study": "generalization"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflangevin",
        description="Mean-field Langevin training and its verification studies")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ["train", "grad-check", *STUDY_COMMANDS]:
        sub = subs.add_parser(name)
        sub.add_argument("--config", default=None,
                         help="JSON configuration file")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the trainer seed")
        sub.add_argument("--out", default="out", help="output directory")
        sub.add_argument("--threads", type=int, default=1,
                         help="worker threads for a study's independent "
                              "runs, its reference runs among them")
    return parser


def _setup(args, name: str):
    """The parsed ``--config`` file, or without one the built-in
    configuration ``name``, and its :class:`StudySetup` under ``--seed``."""
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = parse_config(default_config(name))
    return config, build_setup(config, seed_override=args.seed)


def _run_train(args) -> int:
    _, setup = _setup(args, "train")
    cfg = setup.trainer
    if cfg.record_every == 0:
        from dataclasses import replace
        cfg = replace(cfg, record_every=max(1, cfg.n_iters // 50))
    dataset = setup.make_dataset(setup.n_samples)
    init = setup.make_cloud(setup.n_particles)
    cloud, history = train(setup.model, dataset, setup.grid, cfg, init)
    os.makedirs(args.out, exist_ok=True)
    history.to_csv(os.path.join(args.out, "history.csv"))
    cloud_to_csv(cloud, os.path.join(args.out, "final_cloud.csv"))
    summary = {"command": "train", "config": setup.echo(),
               "final_J": history.J[-1] if history.J else None,
               "dataset_hash": dataset.content_hash()}
    with open(os.path.join(args.out, "train_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"train: {cfg.n_iters} iterations, outputs in {args.out}")
    if history.J:
        print(f"final J = {history.J[-1]:.6g}")
    return 0


def _run_grad_check(args) -> int:
    """Exact-gradient verification on seeded random instances."""
    _, setup = _setup(args, "grad-check")
    n_seeds, tol = GRAD_CHECK_SEEDS, GRAD_CHECK_TOL
    worst = 0.0
    for seed in range(n_seeds):
        dataset = setup.make_dataset(setup.n_samples, seed_shift=seed)
        cloud = setup.make_cloud(setup.n_particles, seed_shift=seed)
        dg = discrete_gradient(setup.model, cloud, dataset, setup.grid)
        fd = finite_diff_gradient(setup.model, cloud, dataset, setup.grid)
        worst = max(worst, float(np.max(np.abs(dg - fd) / (1.0 + np.abs(fd)))))
    passed = worst <= tol
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "grad_check_summary.json"), "w") as fh:
        json.dump({"max_rel_deviation": worst, "tolerance": tol,
                   "n_seeds": n_seeds, "passed": passed}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] grad-check: max relative deviation {worst:.3e} "
          f"(tolerance {tol}) over {n_seeds} seeds")
    return 0 if passed else 1


def _run_study(args, study_kind: str) -> int:
    config, setup = _setup(args, study_kind)
    kwargs = study_arguments(config, study_kind, setup)
    # The Gibbs check is one training run: it has no independent runs to
    # spread over threads.
    if study_kind != "gibbs":
        kwargs["threads"] = args.threads
    report = STUDY_RUNNERS[study_kind](setup, **kwargs)
    report.write(args.out)
    for line in report.summary_lines():
        print(line)
    print(f"report written to {args.out} "
          f"({report.wall_clock:.1f}s)")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    if args.command == "train":
        return _run_train(args)
    if args.command == "grad-check":
        return _run_grad_check(args)
    return _run_study(args, STUDY_COMMANDS[args.command])


if __name__ == "__main__":
    raise SystemExit(main())
