"""The benchmark's workloads: inputs made from a seed, one job, its checks.

A workload's *set-up* is everything before the first Langevin update
(imports, config parsing, dataset generation, ``cloud_init``); its *job*
runs from there through the written outputs and is what ``run_s`` times;
its *check* verifies the outputs of the last job and is not timed.  Every
seed of a workload is its base seed below plus the benchmark's ``--seed``.

Library calls go through module attributes (``langevin.train``, not a
name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import replace

import numpy as np

from mflangevin import cli, config, langevin, objective, odes, studies

import checks

SERIES_ITERS = 60
EULER_GAMMAS = [4e-3, 2e-3, 1e-3, 5e-4]
EULER_REF_DIVISOR = 8


class Workload:
    name = ""
    updates = 0  # Langevin updates one job performs, over all its training runs

    def __init__(self, seed: int, rundir: str):
        self.seed = seed
        self.outdir = os.path.join(rundir, "job")

    def setup(self) -> None:
        """Program set-up that precedes the job's first Langevin update."""

    def job(self) -> None:
        raise NotImplementedError

    def check(self) -> list:
        raise NotImplementedError


class EulerSweep(Workload):
    """``run_euler_study`` at its default config, one thread."""

    name = "euler_sweep"
    updates = (sum(round(1.0 / g) for g in EULER_GAMMAS)
               + round(EULER_REF_DIVISOR / min(EULER_GAMMAS)))

    def __init__(self, seed, rundir):
        super().__init__(seed, rundir)
        self.raw = {
            "model": {"kind": "one_layer_residual", "d": 1, "p_hidden": 1,
                      "dim_data": 1},
            "grid": {"horizon": 0.25, "n_steps": 4},
            "trainer": {"sigma": 1.0, "kappa": 2.0, "gamma": 4e-3,
                        "n_iters": 100, "seed": 6 + seed},
            "dataset": {"kind": "regression", "target": "scaled",
                        "n_samples": 8, "seed": 13 + seed},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0,
                     "seed": 4 + seed, "n_particles": 32},
        }

    def setup(self):
        self.stp = config.build_setup(config.parse_config(self.raw))

    def job(self):
        report = studies.run_euler_study(
            self.stp, EULER_GAMMAS, s_final=1.0, ref_divisor=EULER_REF_DIVISOR,
            slope_bounds=(1.6, 2.4), threads=1)
        report.write(self.outdir)

    def check(self):
        points, fails = checks.read_points_csv(
            os.path.join(self.outdir, "euler_points.csv"))
        if fails:
            return fails
        if sorted(points[:, 0]) != sorted(EULER_GAMMAS):
            return [f"euler_points.csv has step sizes {list(points[:, 0])}, "
                    f"expected {EULER_GAMMAS}"]
        fails, slope = checks.euler_rate_mismatch(points[:, 0], points[:, 1])
        with open(os.path.join(self.outdir, "euler_summary.json")) as fh:
            reported = json.load(fh)["fits"][0]["slope"]
        if not abs(reported - slope) <= 1e-9:
            fails.append(f"summary slope {reported} differs from the fit "
                         f"of euler_points.csv, {slope}")
        return fails


class SeriesRecord(Workload):
    """``mflangevin train`` through ``cli.main``, recording every update."""

    name = "series_record"
    updates = SERIES_ITERS

    def __init__(self, seed, rundir):
        super().__init__(seed, rundir)
        self.raw = {
            "model": {"kind": "timeseries_interp", "d": 2, "p_hidden": 2,
                      "dim_data": 4},
            "grid": {"horizon": 1.0, "n_steps": 8},
            "trainer": {"sigma": 0.5, "kappa": 1.0, "gamma": 0.01,
                        "n_iters": SERIES_ITERS, "seed": 17 + seed,
                        "record_every": 1},
            "dataset": {"kind": "timeseries", "n_samples": 32,
                        "seed": 29 + seed},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0,
                     "seed": 3 + seed, "n_particles": 128},
        }
        self.config_path = os.path.join(rundir, "series_config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.raw, fh, indent=2)

    def job(self):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["train", "--config", self.config_path,
                           "--out", self.outdir])
        if rc != 0:
            raise RuntimeError(f"mflangevin train exited with {rc}")

    def check(self):
        tr = self.raw["trainer"]
        last, fails = checks.read_history(
            os.path.join(self.outdir, "history.csv"), tr["n_iters"], tr["gamma"])
        if fails:
            return fails
        s = config.build_setup(config.parse_config(self.raw))
        dt = s.grid.dt
        shape = (s.n_particles, s.grid.n_nodes, s.model.dim_param)
        theta, fails = checks.read_cloud_csv(
            os.path.join(self.outdir, "final_cloud.csv"), shape)
        if fails:
            return fails
        dataset = s.make_dataset(s.n_samples)
        init = s.make_cloud(s.n_particles)
        # The noise is keyed by iteration, so training without recording
        # must end on the very cloud the command wrote.
        trained, _ = langevin.train(s.model, dataset, s.grid,
                                    replace(s.trainer, record_every=0), init)
        if not np.array_equal(theta, trained.particles):
            fails.append("final_cloud.csv differs from the cloud train "
                         "returns in-process")
        fails += checks.close("second_moment", last["second_moment"],
                              checks.second_moment(theta, dt))
        fails += checks.entropy_term_mismatch(last, theta, tr["sigma"],
                                              tr["kappa"], dt)
        cloud = init.with_particles(theta)
        drift = odes.mean_field_drift(s.model, cloud, dataset, s.grid)
        fails += checks.close("grad_norm", last["grad_norm"],
                              checks.drift_norm(drift, dt))

        def cost(th):
            return objective.objective_J(s.model, cloud.with_particles(th),
                                         dataset, s.grid)

        fails += checks.close("J", last["J"], cost(theta))
        grad = (dt / s.n_particles) * drift
        fails += checks.gradient_mismatch(
            cost, theta, checks.pick_coords(grad, self.seed), grad)
        return fails


WORKLOADS = {w.name: w for w in (EulerSweep, SeriesRecord)}
