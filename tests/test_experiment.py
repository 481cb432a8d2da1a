"""End-to-end run orchestration and CLI tests (synthetic data only)."""

import csv
import json
import warnings
import weakref
from importlib.metadata import EntryPoint

import numpy as np
import pytest

from semifl import checkpoint, cli, clustering, config, experiment, federation, nn
from semifl.config import ExperimentConfig, parse_config, render_config, validate_config
from semifl.errors import ConfigError, DataError
from conftest import ROOT, run_python, write_mnist_dir

TINY = dict(arch="mlp", dataset="synthetic:10x12", partition="noniid",
            clients=10, per_client=12, rounds=3, local_epochs=1, local_batch=6,
            learning_rate=0.05, cl_batch=20, eval_every=2, checkpoint_every=2,
            master_seed=1)


def tiny_cfg(**kw):
    return ExperimentConfig(**{**TINY, **kw})


HEADER = ",".join(experiment.METRICS_COLUMNS)


def read_metrics(out_dir):
    with open(out_dir / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def write_cfg(tmp_path, name="run.cfg", **kw):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**TINY, **kw}.items()))
    return path


class TestRunExperiment:
    def test_semifl_artifacts(self, tmp_path):
        out = tmp_path / "run"
        records = experiment.run_experiment(tiny_cfg(pattern="c3"), out)
        assert len(records) == 3
        for name in ("config.resolved", "metrics.csv", "model_final.sfl1",
                     "checkpoint_r0002.sfl1"):
            assert (out / name).exists(), name
        rows = read_metrics(out)
        assert [r["round"] for r in rows] == ["1", "2", "3"]
        # evaluated at eval_every=2 and at the final round
        assert [r["test_accuracy"] != "" for r in rows] == [False, True, True]
        assert list(rows[0]) == list(experiment.METRICS_COLUMNS)
        assert all(r["mode"] == "semifl" and r["pattern"] == "c3" for r in rows)
        # 10 single-label clients form one c3 cluster -> 1 uplink model per round
        assert all(r["uplink_models"] == "1" for r in rows)
        final = checkpoint.load_checkpoint(out / "model_final.sfl1")
        assert final.arch == "mlp"

    @pytest.mark.parametrize("name", ["metrics.csv", "model_final.sfl1", "checkpoint_r0006.sfl1"])
    def test_used_out_dir_refused_before_writing(self, tmp_path, name):
        (tmp_path / name).write_text("an earlier run's\n")
        with pytest.raises(ConfigError) as exc:
            experiment.run_experiment(tiny_cfg(), tmp_path)
        assert str(exc.value) == f"output directory {tmp_path} already holds a run: {name}"
        assert [p.name for p in tmp_path.iterdir()] == [name]

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
        proc = run_python("-m", "semifl.cli", "train", "--config", cfg, "--out",
                          tmp_path / "child", env_vars={"OPENBLAS_CORETYPE": "Haswell"})
        assert proc.returncode == 0, proc.stderr
        child = json.loads((tmp_path / "child" / "env.json").read_text())
        assert (child["blas_core"], child["OPENBLAS_CORETYPE"]) == ("Haswell", "Haswell")

    def test_metrics_row_every_round(self, tmp_path):
        out = tmp_path / "run"
        experiment.run_experiment(tiny_cfg(mode="fl"), out)
        rows = read_metrics(out)
        assert [r["round"] for r in rows] == ["1", "2", "3"]
        assert [r["test_accuracy"] == "" for r in rows] == [True, False, False]
        assert all(r["uplink_models"] == "10" for r in rows)  # C=1.0, K=10
        assert all(float(r["train_loss"]) > 0 for r in rows)

    def test_metrics_keeps_the_rounds_before_an_interrupted_one(self, tmp_path, monkeypatch):
        real = federation.run_round
        out = tmp_path / "run"
        on_disk = []

        def run_round(model, plan, t):
            if t == 4:
                on_disk.extend(r["round"] for r in read_metrics(out))  # flushed, not closed
                raise RuntimeError("interrupted")
            return real(model, plan, t)

        monkeypatch.setattr(federation, "run_round", run_round)
        with pytest.raises(RuntimeError, match="interrupted"):
            experiment.run_experiment(tiny_cfg(mode="fl", rounds=6, eval_every=2), out)
        rows = read_metrics(out)
        assert [r["round"] for r in rows] == on_disk == ["1", "2", "3"]
        assert [r["test_accuracy"] == "" for r in rows] == [True, False, True]
        size = (out / "checkpoint_r0002.sfl1").stat().st_size
        s = experiment.summarize_run(out)
        # the report counts the same three rounds as the uplink totals
        assert (s["rounds"], s["total_uplink_models"], s["total_uplink_bytes"]) == \
            (3, 30, 30 * size)
        assert s["final_accuracy"] == float(rows[1]["test_accuracy"])

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
        # dogfood: `semifl partition` writes the c3 clusters, a rerun reads them
        cfg = write_cfg(tmp_path, pattern="c3")
        assert cli.main(["partition", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
        path = tmp_path / "p" / "clusters.txt"

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
        # semifl and fl plans hold the shards; cl's holds only its pooled copy.
        # The training set is dead before the test set is read
        load_split, build_clients = experiment.load_split, experiment.build_clients
        run_round = federation.run_round
        refs, started, train_dead_at_test = {}, [], []

        def watched_load(cfg, split):
            ds = load_split(cfg, split)
            if split == "train":
                refs["train"] = weakref.ref(ds.images)
            else:
                train_dead_at_test.append(refs["train"]() is None)
            return ds

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

        monkeypatch.setattr(experiment, "load_split", watched_load)
        monkeypatch.setattr(experiment, "build_clients", watched_clients)
        monkeypatch.setattr(federation, "run_round", checked_round)
        experiment.run_experiment(tiny_cfg(mode=mode, rounds=1), tmp_path / "run")
        assert started == [1]
        assert train_dead_at_test == [True]

    def test_partition_keeps_only_the_clients(self, tmp_path, monkeypatch):
        # `semifl partition` reads no test set, and drops the training set
        # once the shards are copied out
        load_split, build_assignment = experiment.load_split, experiment.build_assignment
        refs, read, dead = [], [], []

        def watched_load(cfg, split):
            ds = load_split(cfg, split)
            read.append(split)
            refs.append(weakref.ref(ds.images))
            return ds

        def checked_assignment(cfg, clients):
            dead.append([r() is None for r in refs])
            return build_assignment(cfg, clients)

        monkeypatch.setattr(experiment, "load_split", watched_load)
        monkeypatch.setattr(experiment, "build_assignment", checked_assignment)
        cfg = write_cfg(tmp_path, pattern="c3")
        assert cli.main(["partition", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
        assert read == ["train"]
        assert dead == [[True]]  # the training set, at the one semifl assignment


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
        assert s["total_uplink_bytes"] == 4 * (out / "model_final.sfl1").stat().st_size

    def test_missing_metrics(self, tmp_path):
        with pytest.raises(DataError, match="metrics.csv"):
            experiment.summarize_run(tmp_path)

    @pytest.mark.parametrize("make", [
        lambda path: path.write_bytes(HEADER.encode() + b"\n1,fl,\xff,0.5,2.3,10,870,5\n"),
        lambda path: path.write_text(f"{HEADER}\n1,fl,-,"
                                     + "5" * 200_000 + "\n"),  # over csv's field limit
        lambda path: path.mkdir(),
    ], ids=["not-utf8", "field-too-long", "directory"])
    def test_unreadable_metrics_is_data_error(self, tmp_path, make):
        make(tmp_path / "metrics.csv")
        with pytest.raises(DataError, match=f"cannot read {tmp_path / 'metrics.csv'}: "):
            experiment.summarize_run(tmp_path)

    def test_metrics_without_rows(self, tmp_path):
        for rows in ("", "1,fl,-,,2.3,10,870,5\n"):  # no row; no evaluated row
            (tmp_path / "metrics.csv").write_text(f"{HEADER}\n{rows}")
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

    def test_train_into_a_used_out_dir_is_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, rounds=2)  # no run output: the first run starts beside it
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: output directory {tmp_path} already holds a run: metrics.csv, "
            "model_final.sfl1, checkpoint_r0002.sfl1\n")

    @pytest.mark.parametrize("command", ["train", "partition"])
    def test_out_naming_a_file_is_exit_1(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, pattern="c3")
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert cli.main([command, "--config", str(cfg), "--out", str(afile)]) == 1
        assert capsys.readouterr().err == \
            f"config error: output directory {afile} exists and is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]
        assert afile.read_text() == "kept\n"

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
        proc = run_python("-m", "semifl.cli", "train", "--config", cfg, "--out", tmp_path / "out")
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

    def test_partition_refuses_a_bad_assignment_before_writing(self, tmp_path, capsys):
        clusters = tmp_path / "clusters.txt"
        clusters.write_text("0 1 2\n")  # leaves clients 3-9 uncovered
        cfg = write_cfg(tmp_path, pattern="explicit", assignment_file=clusters)
        out = tmp_path / "parts"
        assert cli.main(["partition", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {clusters}: ")
        assert "not in any cluster" in captured.err
        assert not out.exists()

    def test_partition_needs_only_the_training_pair(self, tmp_path):
        root = write_mnist_dir(tmp_path / "mnist")
        for name in ("t10k-images.idx3-ubyte", "t10k-labels.idx1-ubyte.gz"):
            (root / name).unlink()
        cfg = write_cfg(tmp_path, dataset="mnist", pattern="c3", clients=10, per_client=10,
                        data_dir=root)
        out = tmp_path / "parts"
        assert cli.main(["partition", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(clustering.load_assignment(out / "clusters.txt")) == 1  # one c3 cluster

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

    def test_compare_out_naming_a_directory_is_exit_1(self, tmp_path, capsys, monkeypatch):
        a, b, outdir = tmp_path / "a.sfl1", tmp_path / "b.sfl1", tmp_path / "outdir"
        checkpoint.save_checkpoint(nn.init_mlp(0), a)
        checkpoint.save_checkpoint(nn.init_mlp(1), b)
        outdir.mkdir()
        args = ["compare", "--subject", str(a), "--reference", str(b), "--out"]
        read = []
        monkeypatch.setattr(experiment, "load_checkpoint", read.append)
        assert cli.main(args + [str(outdir)]) == 1
        assert read == []  # refused before either checkpoint is read
        assert capsys.readouterr().err == \
            f"config error: --out {outdir} is a directory; compare writes one CSV file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.sfl1", "b.sfl1", "outdir"]
        assert not any(outdir.iterdir())
        # a file under a missing directory stays a runtime error
        monkeypatch.undo()
        assert cli.main(args + [str(tmp_path / "missing" / "div.csv")]) == 3
        assert "No such file or directory" in capsys.readouterr().err

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

    @pytest.mark.parametrize("header, missing", [
        ("round,foo", "mode, pattern, test_accuracy, uplink_models, uplink_bytes"),
        (HEADER.replace(",uplink_bytes", ""), "uplink_bytes"),
    ], ids=["metrics", "uplink_bytes"])
    def test_report_missing_column_is_exit_2(self, tmp_path, capsys, header, missing):
        cfg = write_cfg(tmp_path, pattern="c3")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "metrics.csv").write_text(f"{header}\n1,2\n")
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"data error: {out / 'metrics.csv'}: missing column(s) {missing}\n"

    @pytest.mark.parametrize("row, message", [
        ("2,fl,-,abc,2.3,10,870,5", "test_accuracy is not a number: 'abc'"),
        ("2,fl", "no pattern value"),
        ("2,fl,-,,2.3,10,abc,5", "uplink_bytes is not an integer: 'abc'"),
        ("2,fl,-,,2.3,10,,5", "uplink_bytes is not an integer: ''"),
    ], ids=["metrics-not-a-number", "metrics-short-row", "uplink-bytes-not-an-integer",
            "uplink-bytes-empty"])
    def test_report_malformed_row_is_exit_2(self, tmp_path, capsys, row, message):
        # only test_accuracy may be empty
        (tmp_path / "metrics.csv").write_text(f"{HEADER}\n1,fl,-,0.5,2.3,10,870,5\n{row}\n")
        assert cli.main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"data error: {tmp_path / 'metrics.csv'}: line 3: {message}\n"

    def test_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, pattern="c3")
        out = tmp_path / "out"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        line = capsys.readouterr().out
        assert "mode=semifl" in line and "final_acc=" in line
        assert " rounds=3 " in line and " uplink_models=3 " in line  # one c3 head a round

    def test_console_scripts_resolve(self):
        # each [project.scripts] target loads as an installed command would load it
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        scripts = pytest.importorskip("tomllib").loads(text)["project"]["scripts"]
        assert list(scripts) == ["semifl"]  # the command the README and CI run
        for name, target in scripts.items():
            assert callable(EntryPoint(name, target, "console_scripts").load()), name

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
