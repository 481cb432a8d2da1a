"""Checkpoint container tests: round-trip, size arithmetic, corruption."""

import numpy as np
import pytest

from semifl import checkpoint, data, nn
from semifl.errors import DataError
from conftest import models_equal


class TestRoundTrip:
    @pytest.mark.parametrize("arch", ["mlp", "cnn"])
    def test_bit_exact(self, tmp_path, arch):
        model = nn.init_model(arch, 5)
        path = tmp_path / f"{arch}.sfl1"
        checkpoint.save_checkpoint(model, path)
        loaded = checkpoint.load_checkpoint(path)
        assert loaded.arch == arch
        assert models_equal(loaded, model)
        assert loaded.dtype == np.float32
        assert checkpoint.checkpoint_bytes(loaded) == path.read_bytes()

    def test_trained_model_roundtrip(self, tmp_path):
        ds = data.generate_synthetic(3, 10, seed=0)
        model, _ = nn.train_local_with_loss(nn.init_model("mlp", 1), ds.images,
                                            np.arange(len(ds)), ds.labels, 2, 10, 0.05,
                                            np.random.default_rng(2))
        path = tmp_path / "m.sfl1"
        checkpoint.save_checkpoint(model, path)
        assert models_equal(checkpoint.load_checkpoint(path), model)

    def test_loaded_model_is_usable(self, tmp_path):
        model = nn.init_model("cnn", 9)
        path = tmp_path / "c.sfl1"
        checkpoint.save_checkpoint(model, path)
        loaded = checkpoint.load_checkpoint(path)
        x = np.random.default_rng(3).random((2, 1, 28, 28)).astype(np.float32)
        assert np.array_equal(nn.forward(loaded, x), nn.forward(model, x))

    def test_no_temp_file_left(self, tmp_path):
        path = tmp_path / "m.sfl1"
        checkpoint.save_checkpoint(nn.init_model("mlp", 0), path)
        assert [p.name for p in tmp_path.iterdir()] == ["m.sfl1"]


class TestSizeArithmetic:
    # magic(4) + tag(1+3), the float32 payload whose size the table fixes, the
    # 8-byte digest; no layer name or shape is stored
    def test_mlp_size_from_manifest(self):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        assert len(blob) == 8 + 4 * 50890 + 8

    def test_cnn_size_from_manifest(self):
        blob = checkpoint.checkpoint_bytes(nn.init_model("cnn", 0))
        assert len(blob) == 8 + 4 * 21840 + 8

    def test_magic_prefix(self):
        assert checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))[:8] == b"SFL2\x03mlp"


class TestCorruption:
    def _write(self, tmp_path, blob, name="m.sfl1"):
        path = tmp_path / name
        path.write_bytes(blob)
        return path

    def test_bad_magic(self, tmp_path):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        path = self._write(tmp_path, b"XXXX" + blob[4:])
        with pytest.raises(DataError, match="bad magic b'XXXX'"):
            checkpoint.load_checkpoint(path)

    def test_format_1_refused(self, tmp_path):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        path = self._write(tmp_path, b"SFL1" + blob[4:])
        with pytest.raises(DataError, match=r"bad magic b'SFL1', not b'SFL2'"):
            checkpoint.load_checkpoint(path)

    def test_payload_flip_fails_checksum(self, tmp_path):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        # the mlp payload runs from byte 8 (after the header) to 8 bytes before
        # the end: its first byte, one inside, and its last
        for at in (8, 100, len(blob) - 9):
            flipped = bytearray(blob)
            flipped[at] ^= 0xFF
            path = self._write(tmp_path, bytes(flipped))
            with pytest.raises(DataError, match="checksum mismatch"):
                checkpoint.load_checkpoint(path)

    def test_digest_flip_fails_checksum(self, tmp_path):
        blob = bytearray(checkpoint.checkpoint_bytes(nn.init_model("mlp", 0)))
        blob[-1] ^= 0x01
        path = self._write(tmp_path, bytes(blob))
        with pytest.raises(DataError, match="checksum mismatch"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("arch", ["mlp", "cnn"])
    def test_header_and_digest_overwrites_refused(self, tmp_path, arch):
        # the digest covers the 8 header bytes too, so no byte outside the
        # payload can change unnoticed
        blob = checkpoint.checkpoint_bytes(nn.init_model(arch, 0))
        for at in [*range(8), *range(len(blob) - 8, len(blob))]:
            for value in (0x00, 0x41, 0xFF):
                if blob[at] == value:
                    continue
                bad = bytearray(blob)
                bad[at] = value
                path = self._write(tmp_path, bytes(bad))
                with pytest.raises(DataError):
                    checkpoint.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        # mlp layout: b"SFL2" in bytes 0-3, the tag b"\x03mlp" in bytes 4-7,
        # the payload from byte 8, the 8-byte digest.  Cut inside each, right
        # after the header, half way through the file, and by one byte
        for keep, match in ((2, "bad magic"), (4, "unknown architecture tag ''"),
                            (6, "unknown architecture tag 'm'")):
            path = self._write(tmp_path, blob[:keep])
            with pytest.raises(DataError, match=match):
                checkpoint.load_checkpoint(path)
        for keep in (8, 8 + 4, len(blob) // 2, len(blob) - 3, len(blob) - 1):
            path = self._write(tmp_path, blob[:keep])
            with pytest.raises(DataError, match=rf"{keep} bytes, but the mlp table implies "
                                                rf"{len(blob)} \(truncated"):
                checkpoint.load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        path = self._write(tmp_path, blob + b"junk")
        with pytest.raises(DataError, match=rf"{len(blob) + 4} bytes, but the mlp table "
                                            rf"implies {len(blob)} \(truncated, or trailing bytes\)"):
            checkpoint.load_checkpoint(path)

    def test_unknown_arch_tag(self, tmp_path):
        blob = bytearray(checkpoint.checkpoint_bytes(nn.init_model("mlp", 0)))
        blob[5:8] = b"gru"  # overwrite the arch tag characters
        path = self._write(tmp_path, bytes(blob))
        with pytest.raises(DataError, match="architecture tag 'gru'"):
            checkpoint.load_checkpoint(path)

    def test_other_architectures_tag_refused(self, tmp_path):
        # a known tag over another architecture's payload: the length the
        # table implies no longer holds
        blob = bytearray(checkpoint.checkpoint_bytes(nn.init_model("mlp", 0)))
        blob[5:8] = b"cnn"
        path = self._write(tmp_path, bytes(blob))
        with pytest.raises(DataError, match=f"{len(blob)} bytes, but the cnn table implies "
                                            f"{8 + 4 * 21840 + 8}"):
            checkpoint.load_checkpoint(path)

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            checkpoint.load_checkpoint("/nonexistent/m.sfl1")
