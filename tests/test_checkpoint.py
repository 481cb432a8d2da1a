"""Checkpoint container tests: round-trip, size arithmetic, corruption."""

import struct

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
        model, _ = nn.train_local_with_loss(nn.init_model("mlp", 1), ds.images, ds.labels,
                                            2, 10, 0.05, np.random.default_rng(2))
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
    def test_mlp_size_from_manifest(self):
        # magic(4) + tag(1+3) + count(4) + 2 fc entries: (1+3 name) + (1+8 wshape)
        # + (1+4 bshape) = 18 each -> 48-byte header; float32 payload; 8-byte digest
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        assert len(blob) == 48 + 4 * 50890 + 8

    def test_cnn_size_from_manifest(self):
        names = [("conv1", 4), ("conv2", 4), ("fc3", 2), ("fc4", 2)]
        header = 4 + (1 + 3) + 4 + sum(
            (1 + len(nm)) + (1 + 4 * wrank) + (1 + 4 * 1) for nm, wrank in names)
        blob = checkpoint.checkpoint_bytes(nn.init_model("cnn", 0))
        assert len(blob) == header + 4 * 21840 + 8
        assert header == 104

    def test_magic_prefix(self):
        assert checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))[:4] == b"SFL1"


class TestCorruption:
    def _write(self, tmp_path, blob, name="m.sfl1"):
        path = tmp_path / name
        path.write_bytes(blob)
        return path

    def test_bad_magic(self, tmp_path):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        path = self._write(tmp_path, b"XXXX" + blob[4:])
        with pytest.raises(DataError, match="bad magic"):
            checkpoint.load_checkpoint(path)

    def test_payload_flip_fails_checksum(self, tmp_path):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        # the mlp payload runs from byte 48 (after the header) to 8 bytes before
        # the end: its first byte, one inside, and its last
        for at in (48, 100, len(blob) - 9):
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

    def test_truncation(self, tmp_path):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        # mlp layout: b"SFL1", then the tag b"\x03mlp" in bytes 4-7; fc1's weight
        # shape (rank 2, two u32 dims) in bytes 16-24; the payload from byte 48;
        # the 8-byte digest.  Cut inside each, and half way through the file
        for keep in (6, 20, 48 + 4, len(blob) // 2, len(blob) - 3):
            path = self._write(tmp_path, blob[:keep])
            with pytest.raises(DataError, match="truncated"):
                checkpoint.load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        path = self._write(tmp_path, blob + b"junk")
        with pytest.raises(DataError, match="trailing bytes"):
            checkpoint.load_checkpoint(path)

    def test_unknown_arch_tag(self, tmp_path):
        blob = bytearray(checkpoint.checkpoint_bytes(nn.init_model("mlp", 0)))
        blob[5:8] = b"gru"  # overwrite the arch tag characters
        path = self._write(tmp_path, bytes(blob))
        with pytest.raises(DataError, match="architecture tag"):
            checkpoint.load_checkpoint(path)

    def test_shape_whose_size_wraps_is_truncation(self, tmp_path):
        # 65536**4 == 2**64, which a fixed-width product wraps to 0 bytes
        blob = (b"SFL1\x03mlp" + struct.pack("<I", 1) + b"\x03fc1"
                + struct.pack("<B4I", 4, *[65536] * 4) + struct.pack("<BI", 1, 1) + bytes(12))
        path = self._write(tmp_path, blob)
        with pytest.raises(DataError, match="truncated checkpoint"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("count", [0, 65])
    def test_implausible_layer_count(self, tmp_path, count):
        blob = bytearray(checkpoint.checkpoint_bytes(nn.init_model("mlp", 0)))
        blob[8:12] = count.to_bytes(4, "little")  # after b"SFL1", 3, b"mlp"
        path = self._write(tmp_path, bytes(blob))
        with pytest.raises(DataError, match=f"implausible layer count {count}"):
            checkpoint.load_checkpoint(path)

    def test_corrupt_layer_name(self, tmp_path):
        # the digest covers only the payload; the names "fc1" and "fc2" sit in
        # bytes 13-15 and 31-33 of an mlp file, and each overwrite must be refused
        blob = checkpoint.checkpoint_bytes(nn.init_model("mlp", 0))
        assert blob[13:16] == b"fc1" and blob[31:34] == b"fc2"
        for at in (13, 14, 15, 31, 32, 33):
            for value in (0x00, 0x41, 0xFF):
                bad = bytearray(blob)
                bad[at] = value
                path = self._write(tmp_path, bytes(bad))
                with pytest.raises(DataError, match=r"layer names \(.*\) are not mlp's "
                                                    r"\('fc1', 'fc2'\)"):
                    checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("arch, layer, shape", [("mlp", "fc1", (64, 784)),
                                                     ("cnn", "fc3", (50, 320))])
    def test_swapped_weight_dims_refused(self, tmp_path, arch, layer, shape):
        # the digest covers only the payload, and swapping two dims keeps its
        # size; fc1's weight dims are bytes 17-24 of an mlp file, after its
        # name field and the rank byte
        blob = bytearray(checkpoint.checkpoint_bytes(nn.init_model(arch, 0)))
        at = blob.index(b"\x03" + layer.encode()) + 5
        assert arch != "mlp" or at == 17
        assert struct.unpack_from("<2I", blob, at) == shape
        struct.pack_into("<2I", blob, at, *shape[::-1])
        path = self._write(tmp_path, bytes(blob))
        out, inp = shape
        with pytest.raises(DataError, match=rf"layer {layer} has shapes \({inp}, {out}\) and "
                                            rf"\({out},\), not {arch}'s \({out}, {inp}\) and "
                                            rf"\({out},\)$"):
            checkpoint.load_checkpoint(path)

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            checkpoint.load_checkpoint("/nonexistent/m.sfl1")
