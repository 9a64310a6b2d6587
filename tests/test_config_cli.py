"""Strict config parsing and the command-line surface."""

import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from mflangevin import cli, studies
from mflangevin.cli import main
from mflangevin.clouds import cloud_init
from mflangevin.config import (GRAD_CHECK_SEEDS, STUDY_RUNNERS, STUDY_TABLE,
                               build_setup, default_config, load_config,
                               parse_config, study_arguments)
from mflangevin.datasets import generate_dataset
from mflangevin.exceptions import ConfigError
from mflangevin.grids import TimeGrid
from mflangevin.models import make_builtin_model
from mflangevin.objective import discrete_gradient
from mflangevin.studies import StudySetup, run_chaos_study

ROOT = Path(__file__).resolve().parents[1]

# The runner keywords a config cannot set.
NOT_CONFIG_KEYWORDS = {"setup", "threads"}


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if any training run starts."""
    def forbidden(*args, **kwargs):
        raise AssertionError("training started")

    for module, name in ((cli, "train"), (studies, "train")):
        monkeypatch.setattr(module, name, forbidden)


class TestConfigParsing:
    def test_defaults_parse_cleanly(self):
        for kind in STUDY_TABLE:
            config = parse_config(default_config(kind))
            setup = build_setup(config)
            study_arguments(config, kind, setup)
            assert setup.grid.n_steps >= 1
        parse_config(default_config("train"))

    def test_unknown_default_config_rejected(self):
        with pytest.raises(ConfigError, match="grad_check"):
            default_config("grad_check")

    def test_grad_check_default_builds_criterion_1_instances(self):
        # Criterion 1's instance i as it was written out in code before the
        # built-in grad-check configuration: dataset seed 100 + i, init
        # seed i.  The configuration must rebuild each byte for byte.
        setup = build_setup(parse_config(default_config("grad-check")))
        grid = TimeGrid(1.0, 4)
        model = make_builtin_model("neural_ode_tanh", d=2, p_hidden=1,
                                   dim_data=2)
        assert setup.grid == grid
        assert (setup.model.kind, setup.model.dim_state, setup.model.dim_param,
                setup.model.dim_data) == (model.kind, 2, 3, 2)
        for i in range(GRAD_CHECK_SEEDS):
            dataset = generate_dataset("regression", 2, 2, 100 + i, grid,
                                       target="scaled")
            cloud = cloud_init(3, grid, 3, ("gaussian", 0.0, 1.0), seed=i)
            got_data = setup.make_dataset(setup.n_samples, seed_shift=i)
            got_cloud = setup.make_cloud(setup.n_particles, seed_shift=i)
            assert got_data.xi.tobytes() == dataset.xi.tobytes()
            assert got_data.zeta.tobytes() == dataset.zeta.tobytes()
            assert got_cloud.particles.tobytes() == cloud.particles.tobytes()
            want = discrete_gradient(model, cloud, dataset, grid)
            got = discrete_gradient(setup.model, got_cloud, got_data,
                                    setup.grid)
            assert got.tobytes() == want.tobytes()

    def test_left_out_sections_take_the_setup_defaults(self):
        setup = build_setup(parse_config({
            "model": {"kind": "linear_drift", "d": 1},
            "grid": {"horizon": 1.0, "n_steps": 2},
            "trainer": {"sigma": 0.0}}))
        for field in dataclasses.fields(StudySetup):
            if field.default is not dataclasses.MISSING:
                assert getattr(setup, field.name) == field.default, field.name

    def test_unknown_section_rejected(self):
        config = default_config("train")
        config["optimizer"] = {"lr": 0.1}
        with pytest.raises(ConfigError):
            parse_config(config)

    def test_unknown_key_rejected(self):
        config = default_config("train")
        config["trainer"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError):
            parse_config(config)

    def test_unknown_study_key_rejected(self):
        config = default_config("euler")
        config["study"] = {"bogus": 1}
        with pytest.raises(ConfigError):
            parse_config(config)
        # A key of another study kind passes parsing but not this study.
        config["study"] = {"n_pairs": 3}
        parsed = parse_config(config)
        with pytest.raises(ConfigError, match="n_pairs"):
            study_arguments(parsed, "euler", build_setup(parsed))

    @pytest.mark.parametrize("section,value", [("model", []),
                                               ("study", ["n_reps"])])
    def test_sections_must_be_objects(self, section, value):
        config = default_config("train")
        config[section] = value
        with pytest.raises(ConfigError, match=section):
            parse_config(config)

    def test_missing_required_section_rejected(self):
        config = default_config("train")
        del config["grid"]
        with pytest.raises(ConfigError):
            parse_config(config)

    def test_unknown_model_kind_rejected(self):
        config = default_config("train")
        config["model"]["kind"] = "perceptron"
        with pytest.raises(ConfigError):
            build_setup(parse_config(config))

    def test_seed_override(self):
        config = parse_config(default_config("train"))
        setup = build_setup(config, seed_override=777)
        assert setup.trainer.seed == 777

    @pytest.mark.parametrize("section,key,value", [
        ("model", "d", 1.9),
        ("grid", "n_steps", True),
        ("trainer", "n_iters", 10.7),
        ("init", "n_particles", "64"),
        ("dataset", "n_samples", 0),
        ("study", "n_reps", 2.7),
        ("study", "n_reps", True),
        ("study", "n_ref", "2048"),
        ("study", "n_pairs", 0),
        ("study", "n2_list", "abc"),
        ("study", "n1_list", [8, 16.5]),
        ("study", "tail_fraction", True),
        ("study", "s_final", "1.0"),
        ("study", "gamma_list", [1e-3, "2e-3"]),
    ])
    def test_integer_keys_are_strict(self, section, key, value):
        config = default_config("train")
        config.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(config)

    @pytest.mark.parametrize("section,key,value", [
        ("study", "gamma_list", [0.004, 0.0]),
        ("study", "s_final", -1),
        ("study", "s_final", 0),
        ("study", "tail_fraction", float("nan")),
        ("trainer", "gamma", -4e-3),
        ("trainer", "gamma", True),
        ("trainer", "noise_dt", "x"),
        ("trainer", "noise_dt", 0.0),
        ("trainer", "sigma", -1.0),
        ("trainer", "sigma", float("inf")),
        ("trainer", "kappa", 0),
        ("grid", "horizon", -0.25),
        ("grid", "horizon", "1"),
        ("init", "std", -1.0),
        ("init", "mean", float("nan")),
    ])
    def test_float_keys_are_strict(self, section, key, value):
        config = default_config("euler")
        config.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(config)

    @pytest.mark.parametrize("kind,study,message", [
        ("euler", {"gamma_list": [0.003, 0.001]}, "divide the final time"),
        ("euler", {"gamma_list": [0.004, 0.003], "ref_divisor": 2},
         "multiples of the reference step"),
        ("euler", {"gamma_list": [0.004]}, "two step sizes"),
        ("chaos", {"n2_list": [16, 4096]}, "dominate"),
        ("chaos", {"n1_list": [8, 1024]}, "dominate"),
        ("chaos", {"n1_list": []}, "nonempty"),
        ("generalization", {"holdout_n": 32}, "holdout must dominate"),
    ])
    def test_study_values_must_fit_together(self, kind, study, message,
                                            tmp_path):
        # Each relation the runner needs fails at the boundary, from the
        # command line too, with ConfigError rather than a raw ValueError.
        config = default_config(kind)
        config["study"] = study
        with pytest.raises(ConfigError, match=message):
            parsed = parse_config(config)
            study_arguments(parsed, kind, build_setup(parsed))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        command = {"euler": "euler-study", "chaos": "chaos-study",
                   "generalization": "generalization-study"}[kind]
        with pytest.raises(ConfigError, match=message):
            main([command, "--config", str(path), "--out", str(tmp_path)])

    def test_step_off_the_noise_grid_rejected(self):
        config = default_config("train")
        config["trainer"]["noise_dt"] = 0.003
        with pytest.raises(ConfigError, match="multiple of noise_dt"):
            build_setup(parse_config(config))
        config["trainer"]["noise_dt"] = None
        assert build_setup(parse_config(config)).trainer.noise_dt is None

    def test_integral_floats_are_accepted(self):
        config = default_config("train")
        config["trainer"]["n_iters"] = 40.0
        setup = build_setup(parse_config(config))
        assert setup.trainer.n_iters == 40

    def test_study_section_overrides_the_table(self):
        config = default_config("chaos")
        config["study"] = {"n_reps": 2.0, "n2_list": [8, 16], "slope_hi": 2}
        parsed = parse_config(config)
        args = study_arguments(parsed, "chaos", build_setup(parsed))
        assert args["n_reps"] == 2 and isinstance(args["n_reps"], int)
        assert args["n2_list"] == (8, 16)
        assert args["slope_bounds"] == (0.7, 2.0)
        n1_ref = inspect.signature(run_chaos_study).parameters["n1_ref"]
        assert args["n1_ref"] == n1_ref.default

    @pytest.mark.parametrize("kind", list(STUDY_TABLE))
    def test_study_table_and_runner_keywords_cover_each_other(self, kind):
        # Every table key sets a runner keyword that has a default, and
        # every runner keyword but the few no config sets has a table key.
        params = inspect.signature(STUDY_RUNNERS[kind]).parameters
        keys = {"slope_bounds" if key in ("slope_lo", "slope_hi") else key
                for key in STUDY_TABLE[kind]}
        assert keys == set(params) - NOT_CONFIG_KEYWORDS
        for key in keys:
            assert params[key].default is not inspect.Parameter.empty, key

    def test_shared_study_keys_have_one_type_and_range(self):
        specs = {}
        for table in STUDY_TABLE.values():
            for key, spec in table.items():
                assert specs.setdefault(key, spec) == spec, key

    # Each input once got past the config layer; now each fails with a
    # ConfigError that names its key before any training starts.
    @pytest.mark.parametrize("kind,section,key,value,name", [
        ("train", "grid", "horizon", None, "grid.horizon"),
        ("train", "model", "dim_data", 3, "dim_data"),
        ("train", "init", "kind", "uniform", "init.kind"),
        ("train", "dataset", "target", "nope", "dataset.target"),
        ("gibbs", "study", "burn_in_fraction", 1.5, "study.burn_in_fraction"),
        ("gibbs", "study", "sigma_sweep", [0.0], "study.sigma_sweep"),
        ("gibbs", "study", "sigma_sweep", [-1.0], "study.sigma_sweep"),
        ("gibbs", "trainer", "sigma", 0.0, "trainer.sigma"),
        ("gibbs", "model", "d", 2, "dim_param == 1"),
        ("chaos", "study", "tail_fraction", -1, "study.tail_fraction"),
        ("train", "trainer", "snapshot_every", 5, "snapshot_every"),
        ("chaos", "trainer", "snapshot_every", 0, "snapshot_every"),
    ])
    def test_bad_input_fails_before_training(self, kind, section, key, value,
                                             name, tmp_path, no_training):
        # value None removes the key.
        if kind == "train":
            config = default_config("train")
        else:
            config = default_config(kind)
        config.setdefault(section, {})[key] = value
        if value is None:
            del config[section][key]
        with pytest.raises(ConfigError, match=name):
            parsed = parse_config(config)
            setup = build_setup(parsed)
            if kind != "train":
                study_arguments(parsed, kind, setup)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        command = {"train": "train", "gibbs": "gibbs-check",
                   "chaos": "chaos-study"}[kind]
        with pytest.raises(ConfigError, match=name):
            main([command, "--config", str(path), "--out", str(tmp_path)])

    @pytest.mark.parametrize("model,dataset", [
        ({"kind": "timeseries_interp", "d": 1, "dim_data": 2},
         {"kind": "regression"}),
        ({"kind": "one_layer_residual", "d": 2}, {"kind": "timeseries"}),
        ({"kind": "linear_drift", "d": 1}, {"kind": "timeseries"}),
    ])
    def test_model_and_dataset_that_do_not_fit_are_rejected(self, model,
                                                             dataset):
        config = default_config("train")
        config["model"] = model
        config["dataset"] = dataset
        with pytest.raises(ConfigError, match="data slices"):
            build_setup(parse_config(config))

    def test_unknown_dataset_kind_rejected(self):
        config = default_config("train")
        config["dataset"]["kind"] = "images"
        with pytest.raises(ConfigError):
            build_setup(parse_config(config))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(default_config("train")))
        config = load_config(path)
        assert config["model"]["kind"] == "one_layer_residual"


class TestConfigsOutsideTests:
    """The configs that the benchmark and the README run parse and build."""

    def test_benchmark_workload_configs(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import workloads
        for workload in workloads.WORKLOADS.values():
            build_setup(parse_config(workload(1, str(tmp_path)).raw))

    def test_readme_example_config(self):
        text = (ROOT / "README.md").read_text()
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        config = parse_config(json.loads(block))
        study_arguments(config, "chaos", build_setup(config))


def _mini_contraction_config(tmp_path):
    config = default_config("contraction")
    config["trainer"]["n_iters"] = 50
    config["init"]["n_particles"] = 8
    config["study"] = {"n_pairs": 3}
    path = tmp_path / "contraction.json"
    path.write_text(json.dumps(config))
    return path


class TestCli:
    def test_train_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--out", str(out)])
        assert code == 0
        assert (out / "history.csv").exists()
        assert (out / "final_cloud.csv").exists()
        assert (out / "train_summary.json").exists()

    def test_train_with_few_particles_records_undefined_entropy(self,
                                                                 tmp_path):
        # The entropy term is reporting only: a cloud too small for its
        # estimator records Jsigma = inf instead of aborting training.
        config = {
            "model": {"kind": "linear_drift", "d": 1},
            "grid": {"horizon": 0.5, "n_steps": 2},
            "trainer": {"sigma": 1.0, "kappa": 1.0, "gamma": 0.01,
                        "n_iters": 6, "seed": 1, "record_every": 2},
            "dataset": {"kind": "regression", "n_samples": 3, "seed": 2},
            "init": {"kind": "gaussian", "n_particles": 4, "seed": 3},
        }
        path = tmp_path / "small.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "history.csv").read_text().splitlines()
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            it, s, j, jsigma, grad_norm, second_moment = row.split(",")
            assert jsigma == "inf"
            assert np.isfinite(float(j))

    def test_grad_check_passes(self, tmp_path, capsys):
        code = main(["grad-check", "--out", str(tmp_path)])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out
        summary = json.loads((tmp_path / "grad_check_summary.json").read_text())
        assert summary["passed"]

    def test_contraction_study_via_config(self, tmp_path, capsys):
        cfg = _mini_contraction_config(tmp_path)
        out = tmp_path / "rep"
        code = main(["contraction-study", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        assert (out / "contraction_summary.json").exists()
        assert "[PASS]" in capsys.readouterr().out

    def test_reruns_are_byte_identical_across_thread_counts(self, tmp_path):
        cfg = _mini_contraction_config(tmp_path)
        outs = []
        for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            out = tmp_path / tag
            assert main(["contraction-study", "--config", str(cfg),
                         "--out", str(out), "--threads", threads]) == 0
            outs.append(out)
        for name in ("contraction_rates.csv", "contraction_distance_pair0.csv",
                     "contraction_log_distance_pair0.dat"):
            blobs = [(o / name).read_bytes() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("threads", ["0", "-4"])
    @pytest.mark.parametrize("command", ["contraction-study", "train"])
    def test_threads_below_one_rejected(self, command, threads, tmp_path,
                                        no_training):
        with pytest.raises(ConfigError, match="--threads"):
            main([command, "--out", str(tmp_path), "--threads", threads])

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg = _mini_contraction_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["contraction-study", "--config", str(cfg), "--out", str(out1),
              "--seed", "1"])
        main(["contraction-study", "--config", str(cfg), "--out", str(out2),
              "--seed", "2"])
        a = (out1 / "contraction_rates.csv").read_bytes()
        b = (out2 / "contraction_rates.csv").read_bytes()
        assert a != b

    def test_cloud_roundtrip_through_cli_outputs(self, tmp_path):
        from mflangevin.clouds import cloud_from_csv
        from mflangevin.grids import TimeGrid
        out = tmp_path / "run"
        main(["train", "--out", str(out)])
        grid = TimeGrid(0.25, 4)
        cloud = cloud_from_csv(out / "final_cloud.csv", grid)
        assert cloud.n_particles == 128
        assert np.all(np.isfinite(cloud.particles))
