"""Config-file parsing, validation, and echo tests."""

import dataclasses

import pytest

from semifl import config, experiment
from semifl.errors import ConfigError
from conftest import write_mnist_dir


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_empty_file_is_reference_defaults(self, tmp_path):
        cfg = config.parse_config(write(tmp_path, ""))
        assert cfg.mode == "semifl"
        assert cfg.arch == "cnn"
        assert cfg.pattern == "c3"
        assert cfg.rounds == 200
        assert cfg.local_epochs == 5
        assert cfg.local_batch == 20
        assert cfg.learning_rate == 0.01
        assert cfg.clients == 100
        assert cfg.per_client == 600
        assert cfg.cl_batch == 200
        assert cfg.eval_every == 5
        assert cfg.client_fraction == 1.0


class TestParsing:
    def test_comments_whitespace_and_values(self, tmp_path):
        text = """
        # a full-line comment
        mode = fl          # trailing comment
        client_fraction = 0.1

        rounds=30
        dataset = synthetic:10x12
        """
        cfg = config.parse_config(write(tmp_path, text))
        assert cfg.mode == "fl"
        assert cfg.client_fraction == 0.1
        assert cfg.rounds == 30
        assert cfg.dataset_kind() == ("synthetic", (10, 12))

    def test_utf8_bom_is_ignored(self, tmp_path):
        # editors on Windows may start a UTF-8 file with a byte-order mark
        text = "mode = fl\nrounds = 30\n"
        plain = config.parse_config(write(tmp_path, text))
        assert config.parse_config(write(tmp_path, "\ufeff" + text, "bom.cfg")) == plain
        assert plain.mode == "fl"

    def test_unknown_key_names_line(self, tmp_path):
        path = write(tmp_path, "mode = fl\nspeed = 9\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown key 'speed'"):
            config.parse_config(path)

    def test_bad_value_names_key_and_line(self, tmp_path):
        path = write(tmp_path, "rounds = soon\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1.*'rounds'.*integer"):
            config.parse_config(path)

    def test_negative_rounds_names_key_and_line(self, tmp_path):
        path = write(tmp_path, "mode = cl\nrounds = -5\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: rounds must be >= 1"):
            config.parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "rounds = 5\nrounds = 6\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: duplicate key"):
            config.parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = write(tmp_path, "just words\n")
        with pytest.raises(ConfigError, match="key = value"):
            config.parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            config.parse_config("/nonexistent/run.cfg")


class TestValidation:
    @pytest.mark.parametrize("line,fragment", [
        ("mode = p2p", "mode must be one of"),
        ("pattern = c7", "pattern must be one of"),
        ("client_fraction = 0", "client_fraction"),
        ("client_fraction = 1.2", "client_fraction"),
        ("learning_rate = -0.5", "learning_rate"),
        ("learning_rate = nan", "learning_rate"),
        ("learning_rate = inf", "learning_rate"),
        ("learning_rate = fast", "'learning_rate' needs a number, got 'fast'"),
        ("partition_seed = 3", "unknown key 'partition_seed'"),
        ("rounds = 0", "rounds"),
        ("local_epochs = 0", "local_epochs"),
        ("local_batch = 0", "local_batch"),
        ("cl_batch = 0", "cl_batch"),
        ("partition = fancy", "partition must be one of"),
        ("clients = 0", "clients"),
        ("per_client = 0", "per_client"),
        ("master_seed = -1", "master_seed"),
        ("eval_every = 0", "eval_every"),
        ("dataset = synthetic:tenx5", "dataset"),
        ("dataset = synthetic:0x5", "dataset"),
        ("dataset = synthetic:11x5", "dataset"),
        ("dataset = synthetic:10x0", "dataset"),
        ("cluster_order = sometimes", "cluster_order"),
        ("pattern = explicit", "assignment_file"),
    ])
    def test_rejections(self, tmp_path, line, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config.parse_config(write(tmp_path, line + "\n"))

    def test_error_names_line_under_a_path_holding_colon_space(self, tmp_path):
        folder = tmp_path / "cfg: dir"
        folder.mkdir()
        path = write(folder, "rounds = 0\n")
        with pytest.raises(ConfigError) as info:
            config.parse_config(path)
        assert str(info.value) == f"{path}:1: rounds must be >= 1, got 0"

    @pytest.mark.parametrize("value", ["/tmp/a#b", "/tmp/a\nb", " /tmp/a"])
    def test_unreadable_string_rejected(self, value):
        # render_config writes it out, parse_config would read back something else
        with pytest.raises(ConfigError, match="data_dir"):
            config.validate_config(config.ExperimentConfig(data_dir=value))

    def test_order_spec(self, tmp_path):
        cfg = config.parse_config(write(tmp_path, "cluster_order = shuffled:42\n"))
        assert cfg.order_spec() == ("shuffled", 42)
        cfg2 = config.parse_config(write(tmp_path, ""))
        assert cfg2.order_spec() == ("fixed", 0)


class TestRender:
    def test_roundtrip_defaults(self, tmp_path):
        cfg = config.ExperimentConfig()
        back = config.parse_config(write(tmp_path, config.render_config(cfg)))
        assert back == cfg

    def test_roundtrip_modified(self, tmp_path):
        # every key differs from its default
        cfg = config.ExperimentConfig(
            mode="cl", arch="mlp", dataset="synthetic:3x7", data_dir="/data/mnist v2",
            partition="iid", clients=7, per_client=3,
            pattern="explicit", assignment_file="clusters.txt",
            cluster_order="shuffled:8", rounds=9, local_epochs=2, local_batch=4,
            learning_rate=1e-07, client_fraction=0.1, cl_batch=33, eval_every=3,
            checkpoint_every=4, master_seed=2**40)
        defaults = config.ExperimentConfig()
        assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
                   for f in dataclasses.fields(cfg))
        back = config.parse_config(write(tmp_path, config.render_config(cfg)))
        assert back == cfg


class TestDataDir:
    def test_env_fallback(self, tmp_path, monkeypatch):
        # $SEMIFL_DATA_DIR is read only when data_dir is empty
        monkeypatch.setenv("SEMIFL_DATA_DIR", str(tmp_path / "bogus"))
        root = write_mnist_dir(tmp_path / "mnist")
        cfg = config.ExperimentConfig(data_dir=str(root))
        assert [len(experiment.load_mnist(cfg, split)) for split in ("train", "test")] \
            == [100, 20]
