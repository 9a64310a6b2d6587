"""Strict JSON run configurations for the command-line interface.

A configuration has sections ``model``, ``grid``, ``trainer`` and
optionally ``dataset``, ``init``, ``study``.  Parsing is strict: unknown
sections or keys raise :class:`ConfigError` rather than being ignored, so
a typo cannot silently change an experiment.
"""

from __future__ import annotations

import copy
import json

from .exceptions import ConfigError
from .grids import TimeGrid
from .langevin import TrainerConfig
from .models import (BUILTIN_KINDS, gaussian_prior, make_builtin_model,
                     make_linear_drift_model, make_zero_cost_model)
from .studies import StudySetup

__all__ = ["load_config", "parse_config", "build_setup",
           "default_study_config", "default_train_config", "STUDY_KINDS"]

STUDY_KINDS = ("chaos", "euler", "contraction", "gibbs", "generalization")

_SECTION_KEYS = {
    "model": {"kind", "d", "p_hidden", "dim_data"},
    "grid": {"horizon", "n_steps"},
    "trainer": {"sigma", "kappa", "gamma", "n_iters", "seed",
                "record_every", "snapshot_every", "noise_dt"},
    "dataset": {"kind", "target", "n_samples", "seed"},
    "init": {"kind", "mean", "std", "value", "seed", "n_particles"},
    "study": None,  # validated per study kind
}

_STUDY_KEYS = {
    "chaos": {"n2_list", "n1_list", "n_ref", "n1_ref", "n_reps",
              "tail_fraction", "snapshot_every", "slope_lo", "slope_hi"},
    "euler": {"gamma_list", "s_final", "ref_divisor", "slope_lo", "slope_hi"},
    "contraction": {"n_pairs", "rate_factor", "probe_scale", "shift"},
    "gibbs": {"tv_threshold", "n_bins", "burn_in_fraction",
              "snapshot_every", "sigma_sweep"},
    "generalization": {"n1_list", "holdout_n", "n_seeds", "ref_particles",
                       "ref_samples", "slope_lo", "slope_hi"},
}

_MODEL_KINDS = BUILTIN_KINDS + ("linear_drift", "zero_cost")

# Integer-valued keys and their least allowed value, per section.
_INT_KEYS = {
    "model": {"d": 1, "p_hidden": 1, "dim_data": 0},
    "grid": {"n_steps": 1},
    "trainer": {"n_iters": 0, "seed": None, "record_every": 0,
                "snapshot_every": 0},
    "dataset": {"n_samples": 1, "seed": None},
    "init": {"seed": None, "n_particles": 1},
}

# Length of one data slice per state dimension, for each dataset kind:
# regression data is the target vector, timeseries data stacks the
# observation and truth channels.
_DATA_WIDTH = {"regression": 1, "timeseries": 2}


def load_config(path) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    return parse_config(raw)


def parse_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(raw) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section in ("model", "grid", "trainer"):
        if section not in raw:
            raise ConfigError(f"missing required section {section!r}")
    for section, keys in _SECTION_KEYS.items():
        if section in raw and keys is not None:
            bad = set(raw[section]) - keys
            if bad:
                raise ConfigError(
                    f"unknown keys in section {section!r}: {sorted(bad)}")
    for section, keys in _INT_KEYS.items():
        for key, least in keys.items():
            if key in raw.get(section, {}):
                _check_int(f"{section}.{key}", raw[section][key], least)
    return copy.deepcopy(raw)


def _check_int(name: str, value, least) -> None:
    """Reject booleans, non-numbers and non-integral numbers, and values
    below ``least`` (None: no lower bound)."""
    integral = (isinstance(value, int)
                or (isinstance(value, float) and value.is_integer()))
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value!r}")


def validate_study_section(config: dict, study_kind: str) -> dict:
    study = config.get("study", {})
    allowed = _STUDY_KEYS[study_kind]
    bad = set(study) - allowed
    if bad:
        raise ConfigError(f"unknown keys in study section for "
                          f"{study_kind!r}: {sorted(bad)}")
    return study


def _build_model(section: dict):
    kind = section.get("kind", "one_layer_residual")
    d = int(section.get("d", 1))
    if kind in BUILTIN_KINDS:
        return make_builtin_model(kind, d,
                                  p_hidden=int(section.get("p_hidden", 1)),
                                  dim_data=int(section.get("dim_data", 0)))
    if kind == "linear_drift":
        return make_linear_drift_model(d)
    if kind == "zero_cost":
        return make_zero_cost_model(d)
    raise ConfigError(f"unknown model kind {kind!r}; "
                      f"expected one of {_MODEL_KINDS}")


def build_setup(config: dict, seed_override: int | None = None) -> StudySetup:
    """Materialise a :class:`StudySetup` from a parsed configuration."""
    model = _build_model(config["model"])
    gsec = config["grid"]
    grid = TimeGrid(horizon=float(gsec["horizon"]),
                    n_steps=int(gsec["n_steps"]))
    tsec = config["trainer"]
    seed = int(tsec.get("seed", 0)) if seed_override is None else seed_override
    noise_dt = tsec.get("noise_dt")
    trainer = TrainerConfig(
        sigma=float(tsec.get("sigma", 0.0)),
        prior=gaussian_prior(float(tsec.get("kappa", 1.0)), model.dim_param),
        gamma=float(tsec.get("gamma", 1e-2)),
        n_iters=int(tsec.get("n_iters", 100)),
        seed=seed,
        record_every=int(tsec.get("record_every", 0)),
        snapshot_every=int(tsec.get("snapshot_every", 0)),
        noise_dt=None if noise_dt is None else float(noise_dt),
    )
    dsec = config.get("dataset", {})
    dataset_kind = dsec.get("kind", "regression")
    if dataset_kind not in _DATA_WIDTH:
        raise ConfigError(f"unknown dataset kind {dataset_kind!r}; "
                          f"expected one of {tuple(_DATA_WIDTH)}")
    width = _DATA_WIDTH[dataset_kind] * model.dim_state
    if model.dim_data and model.dim_data != width:
        raise ConfigError(
            f"model {model.kind!r} reads data slices of length "
            f"{model.dim_data}, but {dataset_kind!r} data has length {width} "
            f"at d = {model.dim_state}")
    isec = config.get("init", {})
    if isec.get("kind", "gaussian") == "constant":
        init = ("constant", float(isec.get("value", 0.0)))
    else:
        init = ("gaussian", float(isec.get("mean", 0.0)),
                float(isec.get("std", 1.0)))
    return StudySetup(
        model=model, grid=grid, trainer=trainer,
        n_particles=int(isec.get("n_particles", 64)),
        n_samples=int(dsec.get("n_samples", 8)),
        dataset_kind=dataset_kind,
        dataset_target=dsec.get("target", "scaled"),
        dataset_seed=int(dsec.get("seed", 101)),
        init=init,
        init_seed=int(isec.get("seed", 7)),
    )


def default_train_config() -> dict:
    """A modest regression training run used when no config is given."""
    return {
        "model": {"kind": "one_layer_residual", "d": 1, "p_hidden": 1,
                  "dim_data": 1},
        "grid": {"horizon": 0.25, "n_steps": 4},
        "trainer": {"sigma": 1.0, "kappa": 1.0, "gamma": 5e-3,
                    "n_iters": 400, "seed": 0, "record_every": 20},
        "dataset": {"kind": "regression", "target": "tanh_shift",
                    "n_samples": 32, "seed": 1},
        "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 2,
                 "n_particles": 128},
    }


def default_study_config(study_kind: str) -> dict:
    """Built-in desk-scale configuration for each study.

    These are the settings the acceptance suite runs; they are chosen so
    each theoretical property dominates the measured observable at the
    stated thresholds.
    """
    if study_kind == "chaos":
        return {
            "model": {"kind": "one_layer_residual", "d": 1, "p_hidden": 1,
                      "dim_data": 1},
            "grid": {"horizon": 0.25, "n_steps": 4},
            "trainer": {"sigma": 1.4, "kappa": 0.5, "gamma": 0.01,
                        "n_iters": 120, "seed": 21},
            "dataset": {"kind": "regression", "target": "tanh_shift",
                        "seed": 33},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 9},
            "study": {"n2_list": [16, 32, 64, 128], "n1_list": [8, 32, 128],
                      "n_ref": 2048, "n1_ref": 512, "n_reps": 3,
                      "tail_fraction": 0.25, "snapshot_every": 5,
                      "slope_lo": 0.7, "slope_hi": 1.3},
        }
    if study_kind == "euler":
        return {
            "model": {"kind": "one_layer_residual", "d": 1, "p_hidden": 1,
                      "dim_data": 1},
            "grid": {"horizon": 0.25, "n_steps": 4},
            "trainer": {"sigma": 1.0, "kappa": 2.0, "gamma": 4e-3,
                        "n_iters": 100, "seed": 6},
            "dataset": {"kind": "regression", "target": "scaled",
                        "n_samples": 8, "seed": 13},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 4,
                     "n_particles": 32},
            "study": {"gamma_list": [4e-3, 2e-3, 1e-3, 5e-4], "s_final": 1.0,
                      "ref_divisor": 8, "slope_lo": 1.6, "slope_hi": 2.4},
        }
    if study_kind == "contraction":
        return {
            "model": {"kind": "linear_drift", "d": 1},
            "grid": {"horizon": 0.5, "n_steps": 4},
            "trainer": {"sigma": 2.0, "kappa": 4.0, "gamma": 5e-3,
                        "n_iters": 140, "seed": 11},
            "dataset": {"kind": "regression", "target": "scaled",
                        "n_samples": 4, "seed": 42},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 5,
                     "n_particles": 32},
            "study": {"n_pairs": 20, "rate_factor": 3.0, "probe_scale": 0.5,
                      "shift": 2.0},
        }
    if study_kind == "gibbs":
        return {
            "model": {"kind": "linear_drift", "d": 1},
            "grid": {"horizon": 0.5, "n_steps": 4},
            "trainer": {"sigma": 1.5, "kappa": 2.0, "gamma": 0.02,
                        "n_iters": 500, "seed": 3},
            "dataset": {"kind": "regression", "target": "scaled",
                        "n_samples": 4, "seed": 9},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 2,
                     "n_particles": 4096},
            "study": {"tv_threshold": 0.1, "n_bins": 64,
                      "burn_in_fraction": 0.5, "sigma_sweep": []},
        }
    if study_kind == "generalization":
        return {
            "model": {"kind": "one_layer_residual", "d": 1, "p_hidden": 1,
                      "dim_data": 1},
            "grid": {"horizon": 0.25, "n_steps": 4},
            "trainer": {"sigma": 1.4, "kappa": 1.0, "gamma": 5e-3,
                        "n_iters": 1200, "seed": 5},
            "dataset": {"kind": "regression", "target": "scaled", "seed": 0},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 3,
                     "n_particles": 256},
            "study": {"n1_list": [8, 16, 32, 64], "holdout_n": 4096,
                      "n_seeds": 6, "ref_particles": 512, "ref_samples": 512,
                      "slope_lo": 0.6, "slope_hi": 1.4},
        }
    raise ConfigError(f"unknown study kind {study_kind!r}")
