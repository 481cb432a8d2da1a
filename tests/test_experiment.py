"""End-to-end run orchestration and CLI tests (synthetic data only)."""

import csv
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from semifl import checkpoint, cli, clustering, config, experiment, federation, nn
from semifl.config import ExperimentConfig, parse_config, render_config, validate_config
from semifl.errors import ConfigError, DataError
from conftest import write_mnist_dir

TINY = dict(arch="mlp", dataset="synthetic:10x12", partition="noniid",
            clients=10, per_client=12, rounds=3, local_epochs=1, local_batch=6,
            learning_rate=0.05, cl_batch=20, eval_every=2, checkpoint_every=2,
            master_seed=1)


def tiny_cfg(**kw):
    merged = {**TINY, **kw}
    return ExperimentConfig(**merged)


def read_metrics(out_dir):
    with open(out_dir / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(*args, **env_vars):
    """The finished ``python -m semifl.cli args`` process, run with ``env_vars`` set."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, **env_vars,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "semifl.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def write_cfg(tmp_path, name="run.cfg", **kw):
    merged = {**TINY, **kw}
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in merged.items()))
    return path


class TestRunExperiment:
    def test_semifl_artifacts(self, tmp_path):
        out = tmp_path / "run"
        records = experiment.run_experiment(tiny_cfg(pattern="c3"), out)
        assert len(records) == 3
        for name in ("config.resolved", "metrics.csv", "ledger.csv",
                     "model_final.sfl1", "checkpoint_r0002.sfl1"):
            assert (out / name).exists(), name
        rows = read_metrics(out)
        assert [r["round"] for r in rows] == ["2", "3"]  # eval_every=2 plus final
        assert list(rows[0]) == list(experiment.METRICS_COLUMNS)
        assert all(r["mode"] == "semifl" and r["pattern"] == "c3" for r in rows)
        # 10 single-label clients form one c3 cluster -> 1 uplink model per round
        assert all(r["uplink_models"] == "1" for r in rows)
        final = checkpoint.load_checkpoint(out / "model_final.sfl1")
        assert final.arch == "mlp"

    def test_env_json_records_versions_and_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        experiment.run_experiment(tiny_cfg(rounds=1), out)
        env = json.loads((out / "env.json").read_text())
        assert env["numpy"] == np.__version__
        assert env["python"].count(".") == 2
        assert {"blas", "blas_version"} <= set(env)
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert set(env["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS"}
        assert {"blas_core", "OPENBLAS_CORETYPE"} <= set(env)

    def test_env_json_records_the_blas_kernel(self, tmp_path):
        # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so only a new process
        # shows the override
        experiment.run_experiment(tiny_cfg(rounds=1), tmp_path / "here")
        if json.loads((tmp_path / "here" / "env.json").read_text())["blas_core"] is None:
            pytest.skip("numpy's BLAS has no scipy-openblas core name")
        cfg = write_cfg(tmp_path, rounds=1)
        proc = run_cli("train", "--config", cfg, "--out", tmp_path / "child",
                       OPENBLAS_CORETYPE="Haswell")
        assert proc.returncode == 0, proc.stderr
        child = json.loads((tmp_path / "child" / "env.json").read_text())
        assert (child["blas_core"], child["OPENBLAS_CORETYPE"]) == ("Haswell", "Haswell")

    def test_ledger_rows_every_round(self, tmp_path):
        out = tmp_path / "run"
        experiment.run_experiment(tiny_cfg(mode="fl"), out)
        with open(out / "ledger.csv", newline="") as fh:
            entries = list(csv.DictReader(fh))
        assert [e["round"] for e in entries] == ["1", "2", "3"]
        assert all(e["uplink_models"] == "10" for e in entries)  # C=1.0, K=10
        assert all(e["downlink_models"] == "10" for e in entries)

    def test_ledger_keeps_the_rounds_before_an_interrupted_one(self, tmp_path, monkeypatch):
        real = federation.run_round

        def run_round(model, plan, t):
            if t == 3:
                raise RuntimeError("interrupted")
            return real(model, plan, t)

        monkeypatch.setattr(federation, "run_round", run_round)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="interrupted"):
            experiment.run_experiment(tiny_cfg(mode="fl", rounds=4), out)
        with open(out / "ledger.csv", newline="") as fh:
            assert [e["round"] for e in csv.DictReader(fh)] == ["1", "2"]

    def test_cl_mode_has_no_uplink(self, tmp_path):
        out = tmp_path / "run"
        experiment.run_experiment(tiny_cfg(mode="cl"), out)
        rows = read_metrics(out)
        assert all(r["uplink_models"] == "0" and r["uplink_bytes"] == "0" for r in rows)
        assert all(r["pattern"] == "-" for r in rows)

    def test_config_echo_reparses(self, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_cfg(pattern="c1")
        experiment.run_experiment(cfg, out)
        assert parse_config(out / "config.resolved") == cfg

    def test_deterministic_outputs(self, tmp_path):
        cfg = tiny_cfg(pattern="c3")
        a, b = tmp_path / "a", tmp_path / "b"
        experiment.run_experiment(cfg, a)
        experiment.run_experiment(cfg, b)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "elapsed_ms"}
                              for r in rows]
        assert strip(read_metrics(a)) == strip(read_metrics(b))
        assert (a / "model_final.sfl1").read_bytes() == (b / "model_final.sfl1").read_bytes()

    def test_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        experiment.run_experiment(tiny_cfg(pattern="c3", master_seed=1), a)
        experiment.run_experiment(tiny_cfg(pattern="c3", master_seed=2), b)
        assert (a / "model_final.sfl1").read_bytes() != (b / "model_final.sfl1").read_bytes()

    def test_explicit_assignment_and_order_shuffle(self, tmp_path):
        # dogfood: build the c3 clusters, save, rerun via an explicit file
        cfg = tiny_cfg(pattern="c3")
        train, _ = experiment.load_datasets(cfg)
        clients = experiment.build_clients(cfg, train)
        built = experiment.build_assignment(cfg, clients)
        path = tmp_path / "clusters.txt"
        clustering.save_assignment(built, path)

        explicit = tiny_cfg(pattern="explicit", assignment_file=str(path))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        experiment.run_experiment(explicit, out_a)
        experiment.run_experiment(tiny_cfg(pattern="c3"), out_b)
        assert (out_a / "model_final.sfl1").read_bytes() == \
            (out_b / "model_final.sfl1").read_bytes()

        shuffled = tiny_cfg(pattern="c3", cluster_order="shuffled:3")
        out_c = tmp_path / "c"
        experiment.run_experiment(shuffled, out_c)
        assert (out_c / "model_final.sfl1").read_bytes() != \
            (out_b / "model_final.sfl1").read_bytes()

    def test_bad_assignment_rejected(self, tmp_path):
        path = tmp_path / "clusters.txt"
        path.write_text("0 1 2\n")  # leaves clients uncovered
        cfg = tiny_cfg(pattern="explicit", assignment_file=str(path))
        with pytest.raises(DataError, match="not in any cluster"):
            experiment.run_experiment(cfg, tmp_path / "out")

    def test_mnist_without_data_dir_is_data_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEMIFL_DATA_DIR", raising=False)
        cfg = tiny_cfg(dataset="mnist")
        with pytest.raises(DataError, match="SEMIFL_DATA_DIR"):
            experiment.run_experiment(cfg, tmp_path / "out")

    def test_all_modes_learn_synthetic(self, tmp_path):
        # easy blobs: every mode must clear 0.9 with an adequate budget,
        # and sequential clusters beat FedAvg at a matched 6-round budget
        accs = {}
        for name, cfg in [
            ("semifl", tiny_cfg(pattern="c3", rounds=6, eval_every=6)),
            ("fl6", tiny_cfg(mode="fl", rounds=6, eval_every=6)),
            ("fl20", tiny_cfg(mode="fl", rounds=20, eval_every=20)),
            ("cl", tiny_cfg(mode="cl", rounds=6, eval_every=6)),
        ]:
            out = tmp_path / name
            records = experiment.run_experiment(cfg, out)
            accs[name] = [r.test_accuracy for r in records
                          if r.test_accuracy == r.test_accuracy][-1]
        assert accs["semifl"] > 0.9
        assert accs["cl"] > 0.9
        assert accs["fl20"] > 0.9
        assert accs["semifl"] > accs["fl6"] + 0.1  # more consecutive steps per round


class TestDataLifetime:
    """A run holds each dataset only while something still reads it."""

    @pytest.mark.parametrize("mode", ["semifl", "fl", "cl"])
    def test_only_the_data_training_reads_is_alive_at_round_1(self, tmp_path, monkeypatch, mode):
        # semifl and fl chains train on the shards; cl trains on its pooled copy
        load_datasets, build_clients = experiment.load_datasets, experiment.build_clients
        run_round = federation.run_round
        refs, started = {}, []

        def watched_load(cfg):
            train, test = load_datasets(cfg)
            refs["train"] = weakref.ref(train.images)
            return train, test

        def watched_clients(cfg, train):
            clients = build_clients(cfg, train)
            refs["shards"] = [weakref.ref(c.images) for c in clients]
            return clients

        def checked_round(model, plan, t):
            if t == 1:
                assert refs["train"]() is None
                assert [r() is not None for r in refs["shards"]] == \
                    [mode != "cl"] * len(refs["shards"])
                started.append(t)
            return run_round(model, plan, t)

        monkeypatch.setattr(experiment, "load_datasets", watched_load)
        monkeypatch.setattr(experiment, "build_clients", watched_clients)
        monkeypatch.setattr(federation, "run_round", checked_round)
        experiment.run_experiment(tiny_cfg(mode=mode, rounds=1), tmp_path / "run")
        assert started == [1]

    def test_partition_keeps_only_the_clients(self, tmp_path, monkeypatch):
        # `semifl partition` reads neither set once the shards are copied out
        load_datasets, build_assignment = experiment.load_datasets, experiment.build_assignment
        refs, dead = [], []

        def watched_load(cfg):
            sets = load_datasets(cfg)
            refs.extend(weakref.ref(s.images) for s in sets)
            return sets

        def checked_assignment(cfg, clients):
            dead.append([r() is None for r in refs])
            return build_assignment(cfg, clients)

        monkeypatch.setattr(experiment, "load_datasets", watched_load)
        monkeypatch.setattr(experiment, "build_assignment", checked_assignment)
        cfg = write_cfg(tmp_path, pattern="c3")
        assert cli.main(["partition", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
        assert dead == [[True, True]]  # train and test, at the one semifl assignment


class TestSummarize:
    def test_summary_fields(self, tmp_path):
        out = tmp_path / "run"
        experiment.run_experiment(tiny_cfg(pattern="c3", rounds=4, eval_every=2), out)
        s = experiment.summarize_run(out)
        assert s["mode"] == "semifl"
        assert s["rounds"] == 4
        assert 0.0 <= s["final_accuracy"] <= 1.0
        assert s["best_accuracy"] >= s["final_accuracy"] - 1e-9
        assert s["total_uplink_models"] == 4  # one cluster head x 4 rounds

    def test_missing_metrics(self, tmp_path):
        with pytest.raises(DataError, match="metrics.csv"):
            experiment.summarize_run(tmp_path)

    @pytest.mark.parametrize("make", [
        lambda path: path.write_bytes(b"round,mode,pattern,test_accuracy\n1,fl,\xff,0.5\n"),
        lambda path: path.write_text("round,mode,pattern,test_accuracy\n1,fl,-,"
                                     + "5" * 200_000 + "\n"),  # over csv's field limit
        lambda path: path.mkdir(),
    ], ids=["not-utf8", "field-too-long", "directory"])
    def test_unreadable_metrics_is_data_error(self, tmp_path, make):
        make(tmp_path / "metrics.csv")
        with pytest.raises(DataError, match=f"cannot read {tmp_path / 'metrics.csv'}: "):
            experiment.summarize_run(tmp_path)

    def test_metrics_without_rows(self, tmp_path):
        (tmp_path / "metrics.csv").write_text(",".join(experiment.METRICS_COLUMNS) + "\n")
        with pytest.raises(DataError, match="metrics.csv: no evaluation rows"):
            experiment.summarize_run(tmp_path)


class TestCompare:
    def test_compare_checkpoints(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        experiment.run_experiment(tiny_cfg(pattern="c3"), a)
        experiment.run_experiment(tiny_cfg(mode="cl"), b)
        div = experiment.compare_checkpoints(a / "model_final.sfl1",
                                             b / "model_final.sfl1")
        assert list(div) == ["fc1", "fc2"]
        assert all(red > 0 for _, red in div.values())
        same = experiment.compare_checkpoints(a / "model_final.sfl1",
                                              a / "model_final.sfl1")
        assert all(red == 0 for _, red in same.values())


class TestCli:
    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 1
        assert "COMMAND" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert cli.main(["fly"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_required_option(self, capsys):
        assert cli.main(["train", "--config", "x.cfg"]) == 1  # no --out
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "no.cfg"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rounds = -5\n")
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert "rounds" in capsys.readouterr().err

    def test_out_of_range_synthetic_spec_is_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dataset="synthetic:11x5")
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert "config error: " + str(cfg) + ":2: dataset 'synthetic:11x5'" \
            in capsys.readouterr().err

    def test_missing_mnist_is_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SEMIFL_DATA_DIR", raising=False)
        cfg = write_cfg(tmp_path, dataset="mnist")
        rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("arch", ["mlp", "cnn"])
    def test_wrong_size_idx_images_are_exit_2_before_metrics(self, tmp_path, capsys, arch):
        root = write_mnist_dir(tmp_path / "mnist", side=32, n_train=20, n_test=10)
        cfg = write_cfg(tmp_path, mode="fl", arch=arch, dataset="mnist", partition="iid",
                        clients=10, per_client=2, local_batch=2, data_dir=root)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"data error: {root / 'train-images-idx3-ubyte.gz'}: images are 32x32, "
                f"the models need 28x28") in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_empty_test_split_is_exit_2_before_training(self, tmp_path, capsys):
        root = write_mnist_dir(tmp_path / "mnist", n_test=0)
        cfg = write_cfg(tmp_path, mode="fl", dataset="mnist", partition="iid", clients=10,
                        per_client=10, rounds=2, eval_every=2, data_dir=root)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"data error: {root / 't10k-images.idx3-ubyte'}: no images"
                in capsys.readouterr().err)
        assert not (out / "metrics.csv").exists()
        assert not (out / "ledger.csv").exists()

    @pytest.mark.parametrize("via", ["data_dir", "env"])
    def test_train_on_an_mnist_directory(self, tmp_path, monkeypatch, via):
        root = write_mnist_dir(tmp_path / "mnist")
        monkeypatch.delenv("SEMIFL_DATA_DIR", raising=False)
        where = {"data_dir": root}
        if via == "env":
            monkeypatch.setenv("SEMIFL_DATA_DIR", str(root))
            where = {}
        cfg = write_cfg(tmp_path, dataset="mnist", pattern="c3", clients=10, per_client=10,
                        rounds=1, **where)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_metrics(out)) == 1

    def test_train_success(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, pattern="c3")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert "final accuracy" in capsys.readouterr().out
        assert (out / "metrics.csv").exists()

    def test_seed_override_changes_result(self, tmp_path):
        cfg = write_cfg(tmp_path, pattern="c3")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["train", "--config", str(cfg), "--out", str(b),
                         "--seed", "77"]) == 0
        assert (a / "model_final.sfl1").read_bytes() != \
            (b / "model_final.sfl1").read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "master_seed must be >= 0, got -1"),
    ])
    def test_bad_override_names_the_flag(self, tmp_path, capsys, flag, value, message):
        cfg = write_cfg(tmp_path, pattern="c3")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                         flag, value]) == 1
        assert capsys.readouterr().err == f"config error: {flag}: {message}\n"
        assert not out.exists()

    def test_train_validates_config_once_per_entry(self, tmp_path, monkeypatch):
        # parse_config checks the file plus flags, run_experiment the library entry
        calls = []

        def counting(cfg, *args, **kw):
            calls.append(cfg)
            return validate_config(cfg, *args, **kw)
        for module in (config, cli, experiment):
            monkeypatch.setattr(module, "validate_config", counting, raising=False)
        cfg = write_cfg(tmp_path, pattern="c3")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--seed", "4"]) == 0
        assert len(calls) == 2
        assert calls[0].master_seed == 4

    @pytest.mark.parametrize("bad_file, code, message", [
        ("config", 1, "config error: cannot read config {path}: 'utf-8' codec can't decode"),
        ("assignment_file", 2,
         "data error: cannot read assignment file {path}: 'utf-8' codec can't decode"),
    ], ids=["config", "assignment"])
    def test_non_utf8_file_exit_status_in_a_child_process(self, tmp_path, bad_file, code,
                                                          message):
        # the exit status a shell sees, read from a real process
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1 \xff\n")
        cfg = bad if bad_file == "config" else write_cfg(tmp_path, pattern="explicit",
                                                         assignment_file=bad)
        proc = run_cli("train", "--config", cfg, "--out", tmp_path / "out")
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(message.format(path=bad))

    def test_partition_writes_clients_and_clusters(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, pattern="c1")
        out = tmp_path / "parts"
        assert cli.main(["partition", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "clients.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert rows[3] == {"client_id": "3", "examples": "12", "labels": "3"}
        loaded = clustering.load_assignment(out / "clusters.txt")
        assert len(loaded) == 10  # c1 with one client per label

    def test_partition_fl_mode_skips_clusters(self, tmp_path):
        cfg = write_cfg(tmp_path, mode="fl")
        out = tmp_path / "parts"
        assert cli.main(["partition", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "clients.csv").exists()
        assert not (out / "clusters.txt").exists()

    def test_compare_stdout_and_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, pattern="c3")
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(cfg), "--out", str(a)])
        cli.main(["train", "--config", str(cfg), "--out", str(b), "--seed", "5"])
        capsys.readouterr()
        rc = cli.main(["compare", "--subject", str(a / "model_final.sfl1"),
                       "--reference", str(b / "model_final.sfl1")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "layer,acs,red" in out
        report_path = tmp_path / "div.csv"
        rc = cli.main(["compare", "--subject", str(a / "model_final.sfl1"),
                       "--reference", str(b / "model_final.sfl1"),
                       "--out", str(report_path)])
        assert rc == 0
        assert report_path.read_text().startswith("# subject=")

    def test_compare_text_pinned(self, tmp_path, capsys, monkeypatch):
        # the exact CSV, .10g values, of seed-4 against seed-5 initial CNNs
        monkeypatch.chdir(tmp_path)
        checkpoint.save_checkpoint(nn.init_cnn(4), "a.sfl1")
        checkpoint.save_checkpoint(nn.init_cnn(5), "b.sfl1")
        want = ("# subject=a.sfl1 reference=b.sfl1\n"
                "layer,acs,red\n"
                "conv1,-0.05496356349,1.436448506\n"
                "conv2,-0.01356170427,1.428414649\n"
                "fc3,-0.004046334192,1.414011794\n"
                "fc4,-0.003616513782,1.413752376\n")
        assert cli.main(["compare", "--subject", "a.sfl1", "--reference", "b.sfl1"]) == 0
        assert capsys.readouterr().out == want
        assert cli.main(["compare", "--subject", "a.sfl1", "--reference", "b.sfl1",
                         "--out", "div.csv"]) == 0
        assert (tmp_path / "div.csv").read_bytes() == want.encode()

    def test_compare_corrupt_checkpoint_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sfl1"
        bad.write_bytes(b"XXXX not a checkpoint")
        rc = cli.main(["compare", "--subject", str(bad), "--reference", str(bad)])
        assert rc == 2

    def test_compare_other_architecture_is_exit_2(self, tmp_path, capsys):
        mlp, cnn = tmp_path / "mlp.sfl1", tmp_path / "cnn.sfl1"
        checkpoint.save_checkpoint(nn.init_mlp(0), mlp)
        checkpoint.save_checkpoint(nn.init_cnn(0), cnn)
        assert cli.main(["compare", "--subject", str(mlp), "--reference", str(cnn)]) == 2
        assert capsys.readouterr().err == (f"data error: cannot compare {mlp} with {cnn}: "
                                           f"model mismatch: mlp/2 layers vs cnn/4\n")

    def test_compare_zero_norm_reference_is_exit_2(self, tmp_path, capsys):
        subject, reference = tmp_path / "subject.sfl1", tmp_path / "zero.sfl1"
        zero = nn.init_mlp(1)
        zero.layers[0].weights[:] = 0.0
        checkpoint.save_checkpoint(nn.init_mlp(0), subject)
        checkpoint.save_checkpoint(zero, reference)
        assert cli.main(["compare", "--subject", str(subject),
                         "--reference", str(reference)]) == 2
        assert capsys.readouterr().err == (
            f"data error: cannot compare {subject} with {reference}: "
            f"reference weights have zero norm\n")

    @pytest.mark.parametrize("name, header, missing", [
        ("metrics.csv", "round,foo", "mode, pattern, test_accuracy"),
        ("ledger.csv", "round,uplink_models", "uplink_bytes"),
    ], ids=["metrics", "ledger"])
    def test_report_missing_column_is_exit_2(self, tmp_path, capsys, name, header, missing):
        cfg = write_cfg(tmp_path, pattern="c3")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        (out / name).write_text(f"{header}\n1,2\n")
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"data error: {out / name}: missing column(s) {missing}\n"

    @pytest.mark.parametrize("name, text, message", [
        ("metrics.csv", "1,fl,-,abc", "test_accuracy is not a number: 'abc'"),
        ("metrics.csv", "1,fl", "no pattern value"),
        ("ledger.csv", "round,uplink_models,uplink_bytes\n1,10,abc",
         "uplink_bytes is not an integer: 'abc'"),
    ], ids=["metrics-not-a-number", "metrics-short-row", "ledger-not-an-integer"])
    def test_report_malformed_row_is_exit_2(self, tmp_path, capsys, name, text, message):
        metrics = "round,mode,pattern,test_accuracy\n1,fl,-,0.5\n"
        (tmp_path / "metrics.csv").write_text(metrics + (text if name == "metrics.csv" else ""))
        if name == "ledger.csv":
            (tmp_path / name).write_text(f"{text}\n")
        assert cli.main(["report", str(tmp_path)]) == 2
        line = 3 if name == "metrics.csv" else 2
        assert capsys.readouterr().err == f"data error: {tmp_path / name}: line {line}: {message}\n"

    def test_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, pattern="c3")
        out = tmp_path / "out"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        line = capsys.readouterr().out
        assert "mode=semifl" in line and "final_acc=" in line

    def test_divergence_is_exit_3_without_nan_rows(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("mode = fl\narch = mlp\ndataset = synthetic:10x20\nclients = 10\n"
                       "per_client = 20\nrounds = 3\neval_every = 1\nlocal_epochs = 1\n"
                       "learning_rate = 1e30\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["train", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert "round 2, chain 0, client 0: training loss is nan" in capsys.readouterr().err
        rows = read_metrics(out)
        assert [r["round"] for r in rows] == ["1"]
        assert all(r["train_loss"] != "nan" for r in rows)

    def test_non_finite_parameters_are_exit_3_without_row_or_model(self, tmp_path, capsys):
        # one step at lr 1e39 overflows every weight while the step's loss is still finite
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("mode = fl\narch = mlp\ndataset = synthetic:10x20\nclients = 10\n"
                       "per_client = 20\nrounds = 1\nlocal_batch = 20\nlocal_epochs = 1\n"
                       "learning_rate = 1e39\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["train", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert "round 1: layer fc1 has non-finite parameters" in capsys.readouterr().err
        assert read_metrics(out) == []
        assert not (out / "model_final.sfl1").exists()

    def test_unwritable_out_is_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, pattern="c3")
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = cli.main(["train", "--config", str(cfg),
                       "--out", str(blocker / "sub")])
        assert rc == 3
        assert "error" in capsys.readouterr().err
