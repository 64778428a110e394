"""Runner and CLI tests: config validation, CSV contract, determinism."""

import io
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import get_type_hints

import pytest

from llg_lab import attack, cli, experiments, nn
from llg_lab.defenses import DefenseSpec
from llg_lab.experiments import (
    ATTACKS,
    CSV_HEADER,
    ExperimentConfig,
    emit_csv,
    format_summary,
    load_config,
    read_csv,
    run_experiment,
    task_count,
)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from harness import WORKLOADS, workload_config  # noqa: E402


def small_config(**overrides):
    base = dict(
        experiment="asr_vs_batchsize",
        attacks=("llg", "random"),
        batch_sizes=(8,),
        trials=2,
        master_seed=3,
        samples_per_class=40,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


SWEEP_ARMS = (DefenseSpec("noise", sigma=0.1), DefenseSpec("compress", theta=0.8),
              DefenseSpec())


def defense_sweep(defenses):
    return small_config(experiment="defense_sweep", attacks=ATTACKS, batch_sizes=(2, 8),
                        trials=2, defenses=defenses)


def held_out_counts(monkeypatch, config):
    """Network.forward calls whose batch is the run's held-out set, and
    gradient_row_sums calls, over one run of config."""
    counts: Counter = Counter()
    made = []
    generate = experiments.synth_generate
    monkeypatch.setattr(experiments, "synth_generate",
                        lambda spec: made.append(generate(spec)) or made[-1])
    forward = nn.Network.forward

    def counted_forward(net, batch):
        counts["held_out"] += batch is made[-1][1].xs
        return forward(net, batch)

    monkeypatch.setattr(nn.Network, "forward", counted_forward)
    row_sums = attack.gradient_row_sums
    monkeypatch.setattr(attack, "gradient_row_sums",
                        lambda *args: counts.update(["row_sums"]) or row_sums(*args))
    run_experiment(config)
    return counts


class TestConfigValidation:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig(experiment="asr_vs_epochs")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"experiment": "asr_vs_batchsize", "epochs": 3})

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError, match="unknown attacks"):
            small_config(attacks=("llg", "dlg"))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError, match="powers of two"):
            small_config(batch_sizes=(3,))

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            small_config(trials=0)

    def test_cnn_needs_square_input(self):
        with pytest.raises(ValueError, match="square input_dim"):
            small_config(model="cnn", input_dim=60)

    def test_defense_and_defenses_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig.from_dict({
                "experiment": "defense_sweep",
                "defense": {"kind": "noise", "sigma": 0.1},
                "defenses": [{"kind": "none"}],
            })

    def test_single_defense_dict_is_accepted(self):
        config = ExperimentConfig.from_dict({
            "experiment": "defense_sweep",
            "defense": {"kind": "noise", "sigma": 0.5},
            "trials": 1,
        })
        assert config.defenses == (DefenseSpec("noise", sigma=0.5),)

    def test_samples_per_class_below_two_rejected(self):
        # the held-out split takes one sample per class, leaving none to train on
        for samples in (0, 1):
            with pytest.raises(ValueError, match="samples_per_class must be >= 2"):
                small_config(samples_per_class=samples)
        assert small_config(samples_per_class=2).samples_per_class == 2

    @pytest.mark.parametrize("field, value, reason", [
        ("n_classes", 1, "n_classes must be >= 2"),
        ("input_dim", 0, "input_dim must be >= 1"),
        ("cluster_spread", -0.1, "cluster_spread must be >= 0"),
        ("samples_per_class", 1, "held-out sample"),
    ])
    def test_data_values_out_of_range_rejected_when_built(self, field, value, reason):
        # the run's SyntheticSpec checks them before any data is generated
        with pytest.raises(ValueError, match=reason):
            ExperimentConfig.from_dict({"experiment": "asr_vs_batchsize", field: value})
        with pytest.raises(ValueError, match=reason):
            ExperimentConfig("asr_vs_batchsize", **{field: value})
        with pytest.raises(ValueError, match=reason):
            replace(small_config(), **{field: value})

    def test_data_spec_is_the_runs_dataset(self, monkeypatch):
        config = small_config(n_classes=4, input_dim=9, cluster_spread=0.5)
        spec = config.data_spec()
        assert (spec.n_classes, spec.input_dim, spec.samples_per_class,
                spec.cluster_spread) == (4, 9, 40, 0.5)
        assert spec.seed == experiments.seed_of(3, experiments._STREAM_DATA)
        specs = []
        generate = experiments.synth_generate
        monkeypatch.setattr(experiments, "synth_generate",
                            lambda spec: specs.append(spec) or generate(spec))
        run_experiment(config)
        assert specs == [spec]

    def test_bad_activation_and_balance_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            small_config(activation="tanh")
        with pytest.raises(ValueError, match="balance must be 'balanced' or 'unbalanced'"):
            small_config(balance="skewed")

    def test_convergence_needs_single_batch_size(self):
        with pytest.raises(ValueError, match="exactly one batch size"):
            ExperimentConfig(experiment="convergence_sweep", batch_sizes=(4, 8))

    def test_workers_loads_only_as_one(self, tmp_path, capsys):
        # trials run one after another; "workers": 1 is the only value that
        # still loads, and the CLI has no --workers flag
        assert small_config(workers=1) == small_config()
        for workers in (0, 2, True, 1.0):
            with pytest.raises(ValueError, match="workers"):
                small_config(workers=workers)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"experiment": "asr_vs_batchsize", "workers": 2}))
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "workers" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(config), "--workers", "2"])
        assert exc.value.code == 2

    def test_direct_construction_checks_declared_types(self):
        with pytest.raises(ValueError, match="'trials' must be int"):
            ExperimentConfig("asr_vs_batchsize", trials="3")
        with pytest.raises(ValueError, match="'eta' must be float"):
            replace(small_config(), eta="0.1")
        with pytest.raises(ValueError, match="'defenses' must be tuple"):
            ExperimentConfig("defense_sweep", defenses=({"kind": "none"},))
        assert replace(small_config(), trials=5, eta=1).trials == 5
        # an int too large for a float is still an int, not a non-finite number
        assert replace(small_config(), master_seed=10**400).master_seed == 10**400

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, value):
        # NaN fails no `<` range check, and Python's json reads NaN and
        # Infinity, so the type check itself asks every float to be finite
        floats = [name for name, hint in get_type_hints(ExperimentConfig).items()
                  if hint is float]
        assert floats == ["cluster_spread", "eta"]
        for name in floats:
            match = f"'{name}' must be float, got {value!r} \\(numbers must be finite\\)"
            with pytest.raises(ValueError, match=match):
                small_config(**{name: value})
            with pytest.raises(ValueError, match=match):
                ExperimentConfig("asr_vs_batchsize", **{name: value})

    def test_tuple_fields_given_as_lists_hash_and_compare_as_loaded(self):
        lists = dict(attacks=["llg"], batch_sizes=[4], defenses=[DefenseSpec()])
        loaded = ExperimentConfig.from_dict(
            {**lists, "experiment": "defense_sweep", "defenses": [{"kind": "none"}]})
        direct = ExperimentConfig("defense_sweep", **lists)
        replaced = replace(ExperimentConfig("defense_sweep"), **lists)
        for config in (loaded, direct, replaced):
            assert config == loaded
            assert hash(config) == hash(loaded)
            assert all(type(getattr(config, name)) is tuple for name in lists)
        assert replace(loaded, batch_sizes=[8]) == replace(loaded, batch_sizes=(8,))

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config"):
            load_config(tmp_path / "absent.json")


class TestRunExperiment:
    def test_single_cell_yields_one_row_per_attack(self):
        rows = run_experiment(small_config(attacks=("llg_plus",), trials=1))
        assert len(rows) == 1
        row = rows[0]
        assert row.experiment == "asr_vs_batchsize"
        assert 0.0 <= row.asr <= 1.0
        assert 0.0 <= row.hellinger <= 1.0
        assert row.batch_size == 8
        assert row.defense == "none"

    def test_row_count_matches_grid(self):
        rows = run_experiment(small_config(trials=3, attacks=("llg", "random")))
        assert len(rows) == 6
        assert {r.trial for r in rows} == {0, 1, 2}
        assert {r.attack for r in rows} == {"llg", "random"}

    def test_deterministic_given_master_seed(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a == b

    def test_different_seeds_differ(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(master_seed=4))
        assert a != b

    def test_fedavg_batch_sizes_scale_the_sample_count(self):
        rows = run_experiment(small_config(
            algorithm="fedavg", gamma=3, attacks=("llg",), trials=1
        ))
        assert rows[0].algorithm == "fedavg(3)"

    def test_calibration_rows_carry_correlation(self):
        rows = run_experiment(small_config(
            experiment="calibration_plot", trials=2, batch_sizes=(8, 32)
        ))
        assert len(rows) == 4
        assert all(r.attack == "llg_plus" for r in rows)
        assert all(r.asr is None or 0.0 <= r.asr <= 1.0 for r in rows)
        assert all(r.hellinger is None for r in rows)

    def test_convergence_rows_are_per_round(self):
        rows = run_experiment(ExperimentConfig.from_dict(dict(
            experiment="convergence_sweep",
            attacks=("llg", "random"),
            batch_sizes=(8,),
            trials=1, rounds=5, n_clients=4, clients_per_round=2,
            samples_per_client=40, samples_per_class=40, master_seed=1,
        )))
        assert len(rows) == 10
        assert {r.trial for r in rows} == {1, 2, 3, 4, 5}
        assert all(0.0 <= r.model_accuracy <= 1.0 for r in rows)

    def test_defense_sweep_pairs_cells_across_defenses(self):
        defenses = (DefenseSpec(), DefenseSpec("noise", sigma=0.1),
                    DefenseSpec("compress", theta=0.8))
        rows = run_experiment(small_config(
            experiment="defense_sweep",
            attacks=("llg_plus", "random"), batch_sizes=(4, 8), trials=2,
            defenses=defenses,
        ))
        assert len(rows) == 3 * 2 * 2 * 2
        assert {r.defense for r in rows} == {d.label() for d in defenses}
        # every arm of a (batch size, trial) cell sees the same victim model:
        # the same accuracy and, the row's labels aside, the same random row
        cells: dict = {}
        for r in rows:
            cells.setdefault((r.batch_size, r.trial), []).append(r)
        assert len(cells) == 4
        for arms in cells.values():
            assert len({r.defense for r in arms}) == len(defenses)
            assert len({r.model_accuracy for r in arms}) == 1
            randoms = {replace(r, defense="", seed=0) for r in arms if r.attack == "random"}
            assert len(randoms) == 1

    def test_defense_arms_share_one_pass_per_cell(self, monkeypatch):
        # per (batch size, trial): one victim update, one accuracy and one
        # guess per model-side attack, however many defense arms there are
        shared = ("_victim_update", "test_accuracy", "estimate_params_whitebox",
                  "estimate_params_auxiliary", "random_guess", "apply_defense")
        calls: Counter = Counter()
        for name in shared:
            def counted(*args, _name=name, _original=getattr(experiments, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        config = defense_sweep(SWEEP_ARMS)
        callbacks = []
        rows = run_experiment(config, progress=lambda: callbacks.append(None))
        # defense-major, as a sweep over separate runs would be
        assert [r.defense for r in rows] == [
            spec.label() for spec in SWEEP_ARMS for _ in range(2 * 2 * len(ATTACKS))]
        assert len(callbacks) == task_count(config) == 3 * 2 * 2
        assert calls == {**{name: 2 * 2 for name in shared}, "apply_defense": 2 * 2 * 2}

    @pytest.mark.parametrize("defense, draws", [
        (DefenseSpec("compress", theta=0.8), False),
        (DefenseSpec("noise", sigma=0.1), True),
        (DefenseSpec("clip_noise", beta=1.0, sigma=0.1), True),
    ])
    def test_defense_stream_built_only_for_defenses_that_draw(self, monkeypatch, defense,
                                                              draws):
        # only a defense stream's seed parts end in _STREAM_DEFENSE here: the
        # convergence run stops before a client stream's round reaches it
        built = []
        rng_for = experiments.rng_for
        monkeypatch.setattr(experiments, "rng_for",
                            lambda *parts: built.append(parts) or rng_for(*parts))

        def streams(config):
            built.clear()
            run_experiment(config)
            return sum(parts[-1] == experiments._STREAM_DEFENSE for parts in built)

        assert streams(defense_sweep((defense,))) == (2 * 2 if draws else 0)
        rounds = small_config(experiment="convergence_sweep", attacks=("llg",), rounds=3,
                              n_clients=4, clients_per_round=2, samples_per_client=40,
                              defenses=(defense,))
        assert experiments._STREAM_DEFENSE > rounds.rounds
        assert streams(rounds) == (3 * 2 if draws else 0)

    def test_one_held_out_forward_per_defense_sweep_cell(self, monkeypatch):
        # the accuracy and the llg_plus row sums read one forward pass
        counts = held_out_counts(monkeypatch, defense_sweep(SWEEP_ARMS))
        assert counts["held_out"] == 2 * 2

    def test_one_held_out_forward_per_cell_without_llg_plus(self, monkeypatch):
        config = small_config(attacks=("llg", "llg_star", "random"), batch_sizes=(2, 8))
        assert held_out_counts(monkeypatch, config)["held_out"] == 2 * 2

    def test_one_held_out_forward_per_convergence_round(self, monkeypatch):
        config = ExperimentConfig.from_dict(dict(
            experiment="convergence_sweep", attacks=ATTACKS, batch_sizes=(8,),
            rounds=3, n_clients=4, clients_per_round=2, samples_per_client=40,
            samples_per_class=40, master_seed=1,
        ))
        assert held_out_counts(monkeypatch, config)["held_out"] == 3

    def test_rounds_without_llg_plus_compute_no_row_sums(self, monkeypatch):
        # the fedavg_rounds workload's shape, at 3 rounds
        raw = dict(workload_config("fedavg_rounds", 1), rounds=3)
        counts = held_out_counts(monkeypatch, ExperimentConfig.from_dict(raw))
        assert counts["held_out"] == 3
        assert counts["row_sums"] == 0

    def test_defense_arms_stay_isolated(self):
        # an arm's rows are those of a run with that defense alone; noise is
        # left out because its stream is keyed by the defense's index
        swept = run_experiment(defense_sweep(SWEEP_ARMS))
        for spec in SWEEP_ARMS[1:]:
            arm = [replace(r, seed=0) for r in swept if r.defense == spec.label()]
            alone = [replace(r, seed=0) for r in run_experiment(defense_sweep((spec,)))]
            assert arm == alone


class TestCsvContract:
    def test_header_and_empty_results(self):
        buffer = io.StringIO()
        emit_csv([], buffer)
        assert buffer.getvalue() == ",".join(CSV_HEADER) + "\n"

    def test_round_trip_preserves_rows(self):
        rows = run_experiment(small_config(attacks=("llg", "random"), trials=2))
        buffer = io.StringIO()
        emit_csv(rows, buffer)
        buffer.seek(0)
        assert read_csv(buffer) == rows

    def test_file_output_is_byte_identical_across_runs(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            rows = run_experiment(small_config())
            path = tmp_path / name
            emit_csv(rows, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(run_experiment(small_config(trials=1)), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").endswith("\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_csv(io.StringIO("a,b,c\n"))

    def test_summary_mentions_each_attack(self):
        rows = run_experiment(small_config(attacks=("llg", "random"), trials=2))
        summary = format_summary(rows)
        assert "llg" in summary and "random" in summary


def write_config(tmp_path, **overrides):
    raw = dict(
        experiment="asr_vs_batchsize",
        attacks=["llg", "random"],
        batch_sizes=[8],
        trials=2,
        master_seed=3,
        samples_per_class=40,
    )
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestCli:
    def test_list_experiments(self, capsys):
        assert cli.main(["--list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("asr_vs_batchsize", "convergence_sweep",
                     "defense_sweep", "calibration_plot"):
            assert name in out

    def test_run_writes_csv_to_out_dir(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "results"
        assert cli.main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
        csv_path = out_dir / "asr_vs_batchsize.csv"
        assert csv_path.exists()
        assert len(read_csv(csv_path)) == 4
        captured = capsys.readouterr()
        assert "mean" in captured.out  # summary table on stdout

    def test_run_streams_csv_to_stdout_without_out(self, tmp_path, capsys):
        config = write_config(tmp_path, trials=1, attacks=["llg"])
        assert cli.main(["run", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(",".join(CSV_HEADER))
        assert "progress" in captured.err

    def test_run_is_deterministic_end_to_end(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert cli.main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
            outs.append((out_dir / "asr_vs_batchsize.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        cli.main(["run", "--config", str(config), "--out", str(d1), "--seed", "9"])
        cli.main(["run", "--config", str(config), "--out", str(d2), "--seed", "10"])
        assert (d1 / "asr_vs_batchsize.csv").read_bytes() != \
            (d2 / "asr_vs_batchsize.csv").read_bytes()

    def test_trials_override(self, tmp_path):
        config = write_config(tmp_path)
        out_dir = tmp_path / "results"
        cli.main(["run", "--config", str(config), "--out", str(out_dir), "--trials", "1"])
        assert len(read_csv(out_dir / "asr_vs_batchsize.csv")) == 2

    @pytest.mark.parametrize("overrides, field", [
        pytest.param({"experiment": "nope"}, "experiment", id="unknown-experiment"),
        pytest.param({"trials": "3"}, "trials", id="trials-str"),
        pytest.param({"trials": 1.5}, "trials", id="trials-float"),
        pytest.param({"gamma": 2.5}, "gamma", id="gamma-float"),
        pytest.param({"eta": "x"}, "eta", id="eta-str"),
        pytest.param({"n_classes": "10"}, "n_classes", id="n_classes-str"),
        pytest.param({"batch_sizes": 2}, "batch_sizes", id="batch_sizes-int"),
        pytest.param({"batch_sizes": [True]}, "batch_sizes", id="batch_sizes-bool"),
        pytest.param({"defense": {"kind": "noise", "sigma": "0.1"}}, "sigma", id="sigma-str"),
        pytest.param({"defense": {"kind": "compress", "theta": "0.8"}}, "theta",
                     id="theta-str"),
        pytest.param({"hidden": 0}, "hidden", id="hidden-zero"),
        pytest.param({"samples_per_class": 1}, "samples_per_class",
                     id="samples_per_class-one"),
        pytest.param({"input_dim": 0}, "input_dim", id="input_dim-zero"),
        pytest.param({"cluster_spread": -0.1}, "cluster_spread",
                     id="cluster_spread-negative"),
        pytest.param({"eta": math.nan}, "eta", id="eta-nan"),
        pytest.param({"eta": math.inf}, "eta", id="eta-inf"),
        pytest.param({"cluster_spread": math.nan}, "cluster_spread", id="cluster_spread-nan"),
        pytest.param({"defense": {"kind": "noise", "sigma": -math.inf}}, "sigma",
                     id="sigma-minus-inf"),
    ])
    def test_invalid_config_returns_error_code(self, tmp_path, capsys, overrides, field):
        config = write_config(tmp_path, **overrides)
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "error" in err and field in err
        assert "progress" not in err  # rejected before the run starts

    def test_missing_config_returns_error_code(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "none.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bare_invocation_prints_usage(self, capsys):
        assert cli.main([]) == 2
        assert "usage" in capsys.readouterr().err


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                             ids=lambda path: path.name)
    def test_config_loads_and_runs_one_trial(self, path):
        config = replace(load_config(path), trials=1)
        if config.experiment == "convergence_sweep":
            config = replace(config, rounds=2)
        rows = run_experiment(config)
        per_task = 1 if config.experiment == "calibration_plot" else len(config.attacks)
        assert len(rows) == task_count(config) * per_task
        buffer = io.StringIO()
        emit_csv(rows, buffer)
        buffer.seek(0)
        assert read_csv(buffer) == rows

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_bench_workload_loads(self, name):
        # the workloads keep "workers": 1 and the single "defense" form
        raw = workload_config(name, 1)
        config = ExperimentConfig.from_dict(raw)
        assert config.master_seed == 1
        assert len(config.defenses) == len(raw.get("defenses", [None]))
