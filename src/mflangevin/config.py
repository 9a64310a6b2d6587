"""Strict JSON run configurations for the command-line interface.

A configuration has sections ``model``, ``grid``, ``trainer`` and
optionally ``dataset``, ``init``, ``study``.  Parsing is strict: unknown
sections or keys raise :class:`ConfigError` rather than being ignored, so
a typo cannot silently change an experiment.
"""

from __future__ import annotations

import copy
import json
import math
import typing

from .clouds import cloud_init
from .datasets import generate_dataset
from .exceptions import ConfigError
from .grids import TimeGrid
from .langevin import TrainerConfig
from .models import (BUILTIN_KINDS, gaussian_prior, make_builtin_model,
                     make_linear_drift_model, make_zero_cost_model)
from .studies import StudySetup, check_study_values

__all__ = ["load_config", "parse_config", "build_setup", "study_arguments",
           "default_study_config", "default_train_config", "STUDY_TABLE",
           "grad_check_instance", "GRAD_CHECK_SEEDS", "GRAD_CHECK_TOL"]

# The keys of each study kind's ``study`` section, with their types and
# defaults: the one home of every study default.  Each key sets the runner
# keyword of the same name, except ``slope_lo`` and ``slope_hi``, which
# together set ``slope_bounds``.  Integers are at least 1; a list type
# takes a JSON list of such values.
STUDY_TABLE = {
    "chaos": {"n2_list": (list[int], (16, 32, 64, 128)),
              "n1_list": (list[int], (8, 32, 128)),
              "n_ref": (int, 2048), "n1_ref": (int, 512), "n_reps": (int, 3),
              "tail_fraction": (float, 0.25), "snapshot_every": (int, 5),
              "slope_lo": (float, 0.7), "slope_hi": (float, 1.3)},
    "euler": {"gamma_list": (list[float], (4e-3, 2e-3, 1e-3, 5e-4)),
              "s_final": (float, 1.0), "ref_divisor": (int, 8),
              "slope_lo": (float, 1.6), "slope_hi": (float, 2.4)},
    "contraction": {"n_pairs": (int, 20), "shift": (float, 2.0),
                    "rate_factor": (float, 3.0), "probe_scale": (float, 0.5)},
    # snapshot_every None: the runner snapshots every n_iters // 40 updates.
    "gibbs": {"tv_threshold": (float, 0.1), "n_bins": (int, 64),
              "burn_in_fraction": (float, 0.5), "snapshot_every": (int, None),
              "sigma_sweep": (list[float], ())},
    "generalization": {"n1_list": (list[int], (8, 16, 32, 64)),
                       "holdout_n": (int, 4096), "n_seeds": (int, 6),
                       "ref_particles": (int, 512), "ref_samples": (int, 512),
                       "slope_lo": (float, 0.6), "slope_hi": (float, 1.4)},
}

# A key shared by several study kinds has the same type in each.
_STUDY_TYPES = {key: kind for keys in STUDY_TABLE.values()
                for key, (kind, _) in keys.items()}

_SECTION_KEYS = {
    "model": {"kind", "d", "p_hidden", "dim_data"},
    "grid": {"horizon", "n_steps"},
    "trainer": {"sigma", "kappa", "gamma", "n_iters", "seed",
                "record_every", "snapshot_every", "noise_dt"},
    "dataset": {"kind", "target", "n_samples", "seed"},
    "init": {"kind", "mean", "std", "value", "seed", "n_particles"},
    "study": set(_STUDY_TYPES),  # checked per study kind by study_arguments
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

# Float-valued keys and the values each admits, per section: positive,
# nonnegative or (None) any finite number.  ``noise_dt`` may also be null.
_FLOAT_KEYS = {
    "grid": {"horizon": "positive"},
    "trainer": {"sigma": "nonnegative", "kappa": "positive",
                "gamma": "positive", "noise_dt": "positive"},
    "init": {"mean": None, "std": "nonnegative", "value": None},
}

# The sign a study value, or every entry of a study list, must have.
_STUDY_SIGNS = {"s_final": "positive", "gamma_list": "positive"}

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
        if section in raw:
            if not isinstance(raw[section], dict):
                raise ConfigError(f"section {section!r} must be a JSON object")
            bad = set(raw[section]) - keys
            if bad:
                raise ConfigError(
                    f"unknown keys in section {section!r}: {sorted(bad)}")
    for section, keys in _INT_KEYS.items():
        for key, least in keys.items():
            if key in raw.get(section, {}):
                _check_int(f"{section}.{key}", raw[section][key], least)
    for section, keys in _FLOAT_KEYS.items():
        for key, sign in keys.items():
            if key not in raw.get(section, {}):
                continue
            value = raw[section][key]
            # A null noise_dt leaves the Brownian resolution at gamma.
            if not (key == "noise_dt" and value is None):
                _check_float(f"{section}.{key}", value, sign)
    for key, value in raw.get("study", {}).items():
        _study_value(f"study.{key}", value, _STUDY_TYPES[key],
                     _STUDY_SIGNS.get(key))
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


def _check_float(name: str, value, sign) -> None:
    """Reject booleans, non-numbers and non-finite numbers, and values of
    the wrong ``sign`` ("positive", "nonnegative" or None: any)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if (sign == "positive" and value <= 0) or (sign == "nonnegative"
                                               and value < 0):
        raise ConfigError(f"{name} must be {sign}, got {value!r}")


def _study_value(name: str, value, kind, sign=None):
    """``value`` checked against a study table type and converted to it."""
    if kind is int:
        _check_int(name, value, 1)
        return int(value)
    if kind is float:
        _check_float(name, value, sign)
        return float(value)
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    (item,) = typing.get_args(kind)
    return tuple(_study_value(f"{name}[{i}]", v, item, sign)
                 for i, v in enumerate(value))



def study_arguments(config: dict, study_kind: str) -> dict:
    """Runner keywords: the ``study`` section over :data:`STUDY_TABLE`,
    with ConfigError for values that do not fit together."""
    table = STUDY_TABLE[study_kind]
    section = config.get("study", {})
    bad = set(section) - set(table)
    if bad:
        raise ConfigError(f"unknown keys in study section for "
                          f"{study_kind!r}: {sorted(bad)}")
    args = {key: default for key, (_, default) in table.items()}
    args.update((key, _study_value(f"study.{key}", value, table[key][0],
                                   _STUDY_SIGNS.get(key)))
                for key, value in section.items())
    try:
        check_study_values(study_kind, args)
    except ValueError as exc:
        raise ConfigError(f"study: {exc}") from None
    if "slope_lo" in args:
        args["slope_bounds"] = (args.pop("slope_lo"), args.pop("slope_hi"))
    return args


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
    try:
        trainer = TrainerConfig(
            sigma=float(tsec.get("sigma", 0.0)),
            prior=gaussian_prior(float(tsec.get("kappa", 1.0)),
                                 model.dim_param),
            gamma=float(tsec.get("gamma", 1e-2)),
            n_iters=int(tsec.get("n_iters", 100)),
            seed=seed,
            record_every=int(tsec.get("record_every", 0)),
            snapshot_every=int(tsec.get("snapshot_every", 0)),
            noise_dt=None if noise_dt is None else float(noise_dt),
        )
    except ValueError as exc:  # gamma not a multiple of noise_dt
        raise ConfigError(f"trainer: {exc}") from None
    # Keys a section leaves out take the StudySetup field defaults.
    dsec = config.get("dataset", {})
    dataset_kind = dsec.get("kind", StudySetup.dataset_kind)
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
    init_kind, mean, std = StudySetup.init
    if isec.get("kind", init_kind) == "constant":
        init = ("constant", float(isec.get("value", 0.0)))
    else:
        init = ("gaussian", float(isec.get("mean", mean)),
                float(isec.get("std", std)))
    return StudySetup(
        model=model, grid=grid, trainer=trainer,
        n_particles=int(isec.get("n_particles", StudySetup.n_particles)),
        n_samples=int(dsec.get("n_samples", StudySetup.n_samples)),
        dataset_kind=dataset_kind,
        dataset_target=dsec.get("target", StudySetup.dataset_target),
        dataset_seed=int(dsec.get("seed", StudySetup.dataset_seed)),
        init=init,
        init_seed=int(isec.get("seed", StudySetup.init_seed)),
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


# Criterion 1, the default of ``mflangevin grad-check``: the exact gradient
# against central differences on this many seeded instances, to this
# largest relative deviation |exact - fd| / (1 + |fd|).
GRAD_CHECK_SEEDS = 20
GRAD_CHECK_TOL = 1e-6


def grad_check_instance(seed: int) -> tuple:
    """Model, cloud, dataset and grid of criterion 1's instance at ``seed``."""
    grid = TimeGrid(1.0, 4)
    model = make_builtin_model("neural_ode_tanh", d=2, p_hidden=1, dim_data=2)
    dataset = generate_dataset("regression", 2, 2, 100 + seed, grid,
                               target="scaled")
    cloud = cloud_init(3, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                       seed=seed)
    return model, cloud, dataset, grid


# Built-in desk-scale configuration of each study: the settings the
# acceptance suite runs, chosen so each theoretical property dominates the
# measured observable at the stated thresholds.  Study keys take their
# defaults from STUDY_TABLE.
_STUDY_CONFIGS = {
    "chaos": {
        "model": {"kind": "one_layer_residual", "d": 1, "p_hidden": 1,
                  "dim_data": 1},
        "grid": {"horizon": 0.25, "n_steps": 4},
        "trainer": {"sigma": 1.4, "kappa": 0.5, "gamma": 0.01,
                    "n_iters": 120, "seed": 21},
        "dataset": {"kind": "regression", "target": "tanh_shift", "seed": 33},
        "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 9},
    },
    "euler": {
        "model": {"kind": "one_layer_residual", "d": 1, "p_hidden": 1,
                  "dim_data": 1},
        "grid": {"horizon": 0.25, "n_steps": 4},
        "trainer": {"sigma": 1.0, "kappa": 2.0, "gamma": 4e-3,
                    "n_iters": 100, "seed": 6},
        "dataset": {"kind": "regression", "target": "scaled",
                    "n_samples": 8, "seed": 13},
        "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 4,
                 "n_particles": 32},
    },
    "contraction": {
        "model": {"kind": "linear_drift", "d": 1},
        "grid": {"horizon": 0.5, "n_steps": 4},
        "trainer": {"sigma": 2.0, "kappa": 4.0, "gamma": 5e-3,
                    "n_iters": 140, "seed": 11},
        "dataset": {"kind": "regression", "target": "scaled",
                    "n_samples": 4, "seed": 42},
        "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 5,
                 "n_particles": 32},
    },
    "gibbs": {
        "model": {"kind": "linear_drift", "d": 1},
        "grid": {"horizon": 0.5, "n_steps": 4},
        "trainer": {"sigma": 1.5, "kappa": 2.0, "gamma": 0.02,
                    "n_iters": 500, "seed": 3},
        "dataset": {"kind": "regression", "target": "scaled",
                    "n_samples": 4, "seed": 9},
        "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 2,
                 "n_particles": 4096},
    },
    "generalization": {
        "model": {"kind": "one_layer_residual", "d": 1, "p_hidden": 1,
                  "dim_data": 1},
        "grid": {"horizon": 0.25, "n_steps": 4},
        "trainer": {"sigma": 1.4, "kappa": 1.0, "gamma": 5e-3,
                    "n_iters": 1200, "seed": 5},
        "dataset": {"kind": "regression", "target": "scaled", "seed": 0},
        "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 3,
                 "n_particles": 256},
    },
}


def default_study_config(study_kind: str) -> dict:
    """A fresh copy of the built-in configuration of one study kind."""
    if study_kind not in _STUDY_CONFIGS:
        raise ConfigError(f"unknown study kind {study_kind!r}")
    return copy.deepcopy(_STUDY_CONFIGS[study_kind])
