"""Binary model checkpoints.

Layout (all integers little-endian):

* magic ``b"SFL1"``
* u8 architecture-tag length, then the tag (utf-8)
* u32 layer count
* per layer: u8 name length + name, u8 weight rank + u32 dims,
  u8 bias rank + u32 dims
* payload: each layer's weights then bias as float32 little-endian, C order
* trailer: 8-byte blake2b digest of the payload

Loading verifies structure and checksum and reproduces the saved parameters
bit for bit.  Writes go through a temp file + rename so a crash cannot leave
a half-written checkpoint in place.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct

import numpy as np

from .errors import DataError
from .nn import ARCHITECTURES, LayerParams, ModelParams

MAGIC = b"SFL1"
_DIGEST_SIZE = 8


def _encode_shape(shape) -> bytes:
    return struct.pack("<B", len(shape)) + b"".join(struct.pack("<I", d) for d in shape)


def checkpoint_bytes(model: ModelParams) -> bytes:
    """Serialise a model to the checkpoint wire format."""
    header = bytearray()
    header += MAGIC
    tag = model.arch.encode("utf-8")
    header += struct.pack("<B", len(tag)) + tag
    header += struct.pack("<I", len(model.layers))
    payload = bytearray()
    for lp in model.layers:
        name = lp.name.encode("utf-8")
        header += struct.pack("<B", len(name)) + name
        header += _encode_shape(lp.weights.shape)
        header += _encode_shape(lp.bias.shape)
        payload += np.ascontiguousarray(lp.weights, dtype="<f4").tobytes()
        payload += np.ascontiguousarray(lp.bias, dtype="<f4").tobytes()
    digest = hashlib.blake2b(bytes(payload), digest_size=_DIGEST_SIZE).digest()
    return bytes(header) + bytes(payload) + digest


def save_checkpoint(model: ModelParams, path) -> None:
    """Atomically write a checkpoint file."""
    path = os.fspath(path)
    blob = checkpoint_bytes(model)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


class _Cursor:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.path = path
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DataError(f"{self.path}: truncated checkpoint "
                            f"(wanted {n} bytes at offset {self.pos})")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.read(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]


def load_checkpoint(path) -> ModelParams:
    """Read and verify a checkpoint written by :func:`save_checkpoint`."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc

    cur = _Cursor(data, path)
    if cur.read(4) != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    arch = cur.read(cur.u8()).decode("utf-8", errors="replace")
    if arch not in ARCHITECTURES:
        raise DataError(f"{path}: unknown architecture tag {arch!r}")
    n_layers = cur.u32()
    if not 1 <= n_layers <= 64:
        raise DataError(f"{path}: implausible layer count {n_layers}")

    manifest = []
    for _ in range(n_layers):
        name = cur.read(cur.u8()).decode("utf-8", errors="replace")
        w_shape = tuple(cur.u32() for _ in range(cur.u8()))
        b_shape = tuple(cur.u32() for _ in range(cur.u8()))
        manifest.append((name, w_shape, b_shape))

    layers = []
    payload_start = cur.pos
    for name, w_shape, b_shape in manifest:
        # math.prod, as numpy's fixed-width product wraps on a corrupt shape
        w = np.frombuffer(cur.read(4 * math.prod(w_shape)), dtype="<f4").reshape(w_shape)
        b = np.frombuffer(cur.read(4 * math.prod(b_shape)), dtype="<f4").reshape(b_shape)
        layers.append(LayerParams(name, np.asarray(w, dtype=np.float32),
                                  np.asarray(b, dtype=np.float32)))
    payload = data[payload_start:cur.pos]
    stored = cur.read(_DIGEST_SIZE)
    if cur.pos != len(data):
        raise DataError(f"{path}: {len(data) - cur.pos} trailing bytes after checksum")
    digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
    if stored != digest:
        raise DataError(f"{path}: payload checksum mismatch "
                        f"(stored {stored.hex()}, computed {digest.hex()})")
    return ModelParams(arch, tuple(layers))
