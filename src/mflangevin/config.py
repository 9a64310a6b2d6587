"""Strict JSON run configurations for the command-line interface.

Every command starts from a configuration: its ``--config`` file, or
without one its built-in configuration, :func:`default_config`.  A
configuration has sections ``model``, ``grid``, ``trainer`` and
optionally ``dataset``, ``init``, ``study``.  One table, :data:`SCHEMA`,
gives every key of the first five sections its type, its range or allowed
values, and its default or that it is required; :data:`STUDY_TABLE` gives
every study key its type and range, and the study's runner its default.
Parsing is strict: unknown sections or keys, and values of the wrong type,
range or set, raise :class:`ConfigError` rather than being ignored, so a
typo cannot silently change an experiment.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
import types
import typing

from .datasets import TARGETS
from .exceptions import ConfigError
from .grids import TimeGrid
from .langevin import TrainerConfig
from .models import (BUILTIN_KINDS, gaussian_prior, make_builtin_model,
                     make_linear_drift_model, make_zero_cost_model)
from .studies import (StudySetup, check_study, run_chaos_study,
                      run_contraction_study, run_euler_study,
                      run_generalization_study, run_gibbs_check)

__all__ = ["load_config", "parse_config", "build_setup", "study_arguments",
           "default_config", "SCHEMA", "STUDY_TABLE", "STUDY_RUNNERS",
           "GRAD_CHECK_SEEDS", "GRAD_CHECK_TOL"]

# A range: what a value must be, and the test it must pass.
_POSITIVE = ("positive", lambda v: v > 0)
_NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_FRACTION = ("in [0, 1]", lambda v: 0 <= v <= 1)

# The default of a key every configuration must set.
_REQUIRED = object()

# Length of one data slice per state dimension, for each dataset kind:
# regression data is the target vector, timeseries data stacks the
# observation and truth channels.
_DATA_WIDTH = {"regression": 1, "timeseries": 2}

# Section -> key -> (type, range or allowed values, default).  A range of
# None admits any value of the type; a ``float | None`` key may also be null.
# The trainer defaults are TrainerConfig's, except record_every (0: the
# ``train`` command picks a cadence) and the sigma and kappa it lacks, and
# the dataset and init defaults are StudySetup's.
SCHEMA = {
    "model": {
        "kind": (str, BUILTIN_KINDS + ("linear_drift", "zero_cost"),
                 "one_layer_residual"),
        "d": (int, _AT_LEAST_1, 1),
        "p_hidden": (int, _AT_LEAST_1, 1),
        "dim_data": (int, _NONNEGATIVE, 0)},
    "grid": {
        "horizon": (float, _POSITIVE, _REQUIRED),
        "n_steps": (int, _AT_LEAST_1, _REQUIRED)},
    "trainer": {
        "sigma": (float, _NONNEGATIVE, 0.0),
        "kappa": (float, _POSITIVE, 1.0),
        "gamma": (float, _POSITIVE, TrainerConfig.gamma),
        "n_iters": (int, _NONNEGATIVE, TrainerConfig.n_iters),
        "seed": (int, None, TrainerConfig.seed),
        "record_every": (int, _NONNEGATIVE, 0),
        "noise_dt": (float | None, _POSITIVE, TrainerConfig.noise_dt)},
    "dataset": {
        "kind": (str, tuple(_DATA_WIDTH), StudySetup.dataset_kind),
        "target": (str, tuple(TARGETS), StudySetup.dataset_target),
        "n_samples": (int, _AT_LEAST_1, StudySetup.n_samples),
        "seed": (int, None, StudySetup.dataset_seed)},
    "init": {
        "kind": (str, ("gaussian", "constant"), StudySetup.init[0]),
        "mean": (float, None, StudySetup.init[1]),
        "std": (float, _NONNEGATIVE, StudySetup.init[2]),
        "value": (float, None, 0.0),
        "seed": (int, None, StudySetup.init_seed),
        "n_particles": (int, _AT_LEAST_1, StudySetup.n_particles)},
}

# Study kind -> its runner, whose keyword defaults are the study defaults.
STUDY_RUNNERS = {"chaos": run_chaos_study, "euler": run_euler_study,
                 "contraction": run_contraction_study,
                 "gibbs": run_gibbs_check,
                 "generalization": run_generalization_study}

# Study kind -> key of its ``study`` section -> (type, range).  Each key
# sets the runner keyword of the same name, except ``slope_lo`` and
# ``slope_hi``, which together set ``slope_bounds``.  A list type takes a
# JSON list whose every entry has the range.  A key shared by several
# study kinds has the same type and range in each.
STUDY_TABLE = {
    "chaos": {"n2_list": (list[int], _AT_LEAST_1),
              "n1_list": (list[int], _AT_LEAST_1),
              "n_ref": (int, _AT_LEAST_1), "n1_ref": (int, _AT_LEAST_1),
              "n_reps": (int, _AT_LEAST_1),
              "tail_fraction": (float, _FRACTION),
              "snapshot_every": (int, _AT_LEAST_1),
              "slope_lo": (float, None), "slope_hi": (float, None)},
    "euler": {"gamma_list": (list[float], _POSITIVE),
              "s_final": (float, _POSITIVE),
              "ref_divisor": (int, _AT_LEAST_1),
              "slope_lo": (float, None), "slope_hi": (float, None)},
    "contraction": {"n_pairs": (int, _AT_LEAST_1), "shift": (float, None),
                    "rate_factor": (float, None),
                    "probe_scale": (float, None)},
    "gibbs": {"tv_threshold": (float, None), "n_bins": (int, _AT_LEAST_1),
              "burn_in_fraction": (float, _FRACTION),
              "snapshot_every": (int, _AT_LEAST_1),
              "sigma_sweep": (list[float], _POSITIVE)},
    "generalization": {"n1_list": (list[int], _AT_LEAST_1),
                       "holdout_n": (int, _AT_LEAST_1),
                       "n_seeds": (int, _AT_LEAST_1),
                       "ref_particles": (int, _AT_LEAST_1),
                       "ref_samples": (int, _AT_LEAST_1),
                       "slope_lo": (float, None), "slope_hi": (float, None)},
}


def load_config(path) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    return parse_config(raw)


def parse_config(raw: dict) -> dict:
    """``raw`` checked against :data:`SCHEMA` and, for its ``study``
    section, against every study kind's keys in :data:`STUDY_TABLE`: each
    value converted to its key's type, and each key of the first five
    sections that ``raw`` leaves out filled in with its default."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(raw) - set(SCHEMA) - {"study"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section in ("model", "grid", "trainer"):
        if section not in raw:
            raise ConfigError(f"missing required section {section!r}")
    study_keys = {key: spec for table in STUDY_TABLE.values()
                  for key, spec in table.items()}
    for section, given in raw.items():
        if not isinstance(given, dict):
            raise ConfigError(f"section {section!r} must be a JSON object")
        bad = set(given) - set(SCHEMA.get(section, study_keys))
        if bad:
            raise ConfigError(
                f"unknown keys in section {section!r}: {sorted(bad)}")
    config = {}
    for section, keys in SCHEMA.items():
        given = raw.get(section, {})
        config[section] = {}
        for key, (kind, allowed, default) in keys.items():
            if key in given:
                default = _checked(f"{section}.{key}", given[key], kind,
                                   allowed)
            elif default is _REQUIRED:
                raise ConfigError(f"{section}.{key} is required")
            config[section][key] = default
    config["study"] = {key: _checked(f"study.{key}", value, *study_keys[key])
                       for key, value in raw.get("study", {}).items()}
    return config


def _checked(name: str, value, kind, allowed):
    """``value`` checked against a key's type and its range or allowed
    values, and converted to the type: integers reject booleans and
    fractions, floats reject booleans and non-finite numbers."""
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of numbers, "
                              f"got {value!r}")
        (item,) = typing.get_args(kind)
        return tuple(_checked(f"{name}[{i}]", v, item, allowed)
                     for i, v in enumerate(value))
    if isinstance(kind, types.UnionType):  # float | None
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if kind is str:
        if value not in allowed:
            raise ConfigError(f"{name} must be one of {allowed}, "
                              f"got {value!r}")
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and not (number and (isinstance(value, int)
                                        or value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if kind is float and not (number and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if allowed is not None and not allowed[1](value):
        raise ConfigError(f"{name} must be {allowed[0]}, got {value!r}")
    return kind(value)


def study_arguments(config: dict, study_kind: str,
                    setup: StudySetup) -> dict:
    """Runner keywords of a parsed configuration, whose runs ``setup``
    describes (see :func:`build_setup`): its ``study`` section over the
    runner's defaults, with ConfigError for values that do not fit together
    or do not suit the setup."""
    table = STUDY_TABLE[study_kind]
    section = config.get("study", {})
    bad = set(section) - set(table)
    if bad:
        raise ConfigError(f"unknown keys in study section for "
                          f"{study_kind!r}: {sorted(bad)}")
    params = inspect.signature(STUDY_RUNNERS[study_kind]).parameters
    defaults = {key: param.default for key, param in params.items()}
    if "slope_bounds" in defaults:
        defaults["slope_lo"], defaults["slope_hi"] = defaults["slope_bounds"]
    args = {key: section.get(key, defaults[key]) for key in table}
    try:
        check_study(study_kind, setup, args)
    except ValueError as exc:
        raise ConfigError(f"{study_kind} study: {exc}") from None
    if "slope_lo" in args:
        args["slope_bounds"] = (args.pop("slope_lo"), args.pop("slope_hi"))
    return args


def build_setup(config: dict, seed_override: int | None = None) -> StudySetup:
    """Materialise a :class:`StudySetup` from a parsed configuration."""
    msec, tsec = config["model"], config["trainer"]
    dsec, isec = config["dataset"], config["init"]
    try:
        if msec["kind"] in BUILTIN_KINDS:
            model = make_builtin_model(msec["kind"], msec["d"],
                                       p_hidden=msec["p_hidden"],
                                       dim_data=msec["dim_data"])
        elif msec["kind"] == "linear_drift":
            model = make_linear_drift_model(msec["d"])
        else:
            model = make_zero_cost_model(msec["d"])
    except ValueError as exc:  # dim_data that does not fit the model
        raise ConfigError(f"model: {exc}") from None
    grid = TimeGrid(**config["grid"])
    try:
        trainer = TrainerConfig(
            sigma=tsec["sigma"],
            prior=gaussian_prior(tsec["kappa"], model.dim_param),
            gamma=tsec["gamma"], n_iters=tsec["n_iters"],
            seed=tsec["seed"] if seed_override is None else seed_override,
            record_every=tsec["record_every"], noise_dt=tsec["noise_dt"])
    except ValueError as exc:  # gamma not a multiple of noise_dt
        raise ConfigError(f"trainer: {exc}") from None
    width = _DATA_WIDTH[dsec["kind"]] * model.dim_state
    if model.dim_data and model.dim_data != width:
        raise ConfigError(
            f"model {model.kind!r} reads data slices of length "
            f"{model.dim_data}, but {dsec['kind']!r} data has length {width} "
            f"at d = {model.dim_state}")
    if isec["kind"] == "constant":
        init = ("constant", isec["value"])
    else:
        init = ("gaussian", isec["mean"], isec["std"])
    return StudySetup(
        model=model, grid=grid, trainer=trainer,
        n_particles=isec["n_particles"], n_samples=dsec["n_samples"],
        dataset_kind=dsec["kind"], dataset_target=dsec["target"],
        dataset_seed=dsec["seed"], init=init, init_seed=isec["seed"])


# Criterion 1, ``mflangevin grad-check``: the exact gradient against central
# differences on this many instances of a configuration, the i-th with its
# seeds shifted by i, to this largest relative deviation
# |exact - fd| / (1 + |fd|).
GRAD_CHECK_SEEDS = 20
GRAD_CHECK_TOL = 1e-6

# Built-in desk-scale configuration of each command, ``grad-check`` and the
# study kinds by name: what it runs without ``--config``.  The study
# entries are the settings the acceptance suite runs, chosen so each
# theoretical property dominates the measured observable at the stated
# thresholds; study keys take their defaults from the runners' signatures.
_DEFAULT_CONFIGS = {
    "train": {
        "model": {"kind": "one_layer_residual", "d": 1, "p_hidden": 1,
                  "dim_data": 1},
        "grid": {"horizon": 0.25, "n_steps": 4},
        "trainer": {"sigma": 1.0, "kappa": 1.0, "gamma": 5e-3,
                    "n_iters": 400, "seed": 0, "record_every": 20},
        "dataset": {"kind": "regression", "target": "tanh_shift",
                    "n_samples": 32, "seed": 1},
        "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 2,
                 "n_particles": 128},
    },
    "grad-check": {
        "model": {"kind": "neural_ode_tanh", "d": 2, "p_hidden": 1,
                  "dim_data": 2},
        "grid": {"horizon": 1.0, "n_steps": 4},
        "trainer": {},
        "dataset": {"kind": "regression", "target": "scaled",
                    "n_samples": 2, "seed": 100},
        "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "seed": 0,
                 "n_particles": 3},
    },
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


def default_config(name: str) -> dict:
    """A fresh copy of the built-in configuration of ``train``,
    ``grad-check`` or one study kind."""
    if name not in _DEFAULT_CONFIGS:
        raise ConfigError(f"no built-in configuration named {name!r}")
    return copy.deepcopy(_DEFAULT_CONFIGS[name])
