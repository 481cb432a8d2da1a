"""Binary model checkpoints.

Layout (all integers little-endian):

* magic ``b"SFL1"``
* the architecture tag as a text field: u8 length, then utf-8 bytes
* u32 layer count
* per layer: its name as a text field, then the weight and the bias shape,
  each a dims field: u8 rank, then one u32 per dimension
* payload: ``model.flat``, each layer's weights then bias in layer order,
  as float32 little-endian
* trailer: 8-byte blake2b digest of the payload

The writer and the reader share one helper per field kind.  Loading walks
the header through one bounds-checked reader, verifies the trailing length
and the checksum, then the layer names and every weight and bias shape
against the architecture's table, ``nn.ARCHITECTURES``, before it decodes the
payload as the returned model's ``flat``, reproducing the saved parameters
bit for bit.  Writes go through a temp file + rename so a crash
cannot leave a half-written checkpoint in place.
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


def _text(value: str | None = None, take=None):
    """A text field: its bytes for ``value``, or the string read through ``take``."""
    if take is not None:
        return take(take(1)[0]).decode("utf-8", errors="replace")
    raw = value.encode("utf-8")
    return struct.pack("<B", len(raw)) + raw


def _dims(shape: tuple | None = None, take=None):
    """A dims field: its bytes for ``shape``, or the shape read through ``take``."""
    if take is not None:
        rank = take(1)[0]
        return struct.unpack(f"<{rank}I", take(4 * rank))
    return struct.pack(f"<B{len(shape)}I", len(shape), *shape)


def checkpoint_bytes(model: ModelParams) -> bytes:
    """Serialise a model to the checkpoint wire format."""
    header = [MAGIC, _text(model.arch), struct.pack("<I", len(model.layers))]
    for lp in model.layers:
        header += [_text(lp.name), _dims(lp.weights.shape), _dims(lp.bias.shape)]
    payload = model.flat.astype("<f4", copy=False).tobytes()
    digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
    return b"".join(header) + payload + digest


def save_checkpoint(model: ModelParams, path) -> None:
    """Atomically write a checkpoint file."""
    path = os.fspath(path)
    blob = checkpoint_bytes(model)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path) -> ModelParams:
    """Read and verify a checkpoint written by :func:`save_checkpoint`."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise DataError(f"{path}: truncated checkpoint (wanted {n} bytes at offset {pos})")
        pos += n
        return data[pos - n:pos]

    if take(4) != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    arch = _text(take=take)
    if arch not in ARCHITECTURES:
        raise DataError(f"{path}: unknown architecture tag {arch!r}")
    n_layers = struct.unpack("<I", take(4))[0]
    if not 1 <= n_layers <= 64:
        raise DataError(f"{path}: implausible layer count {n_layers}")
    manifest = [(_text(take=take), _dims(take=take), _dims(take=take))
                for _ in range(n_layers)]
    # math.prod, as numpy's fixed-width product wraps on a corrupt shape
    sizes = [math.prod(shape) for _, w, b in manifest for shape in (w, b)]
    payload = take(4 * sum(sizes))
    stored = take(_DIGEST_SIZE)
    if pos != len(data):
        raise DataError(f"{path}: {len(data) - pos} trailing bytes after checksum")
    digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
    if stored != digest:
        raise DataError(f"{path}: payload checksum mismatch "
                        f"(stored {stored.hex()}, computed {digest.hex()})")
    table = ARCHITECTURES[arch]
    names = tuple(name for name, _, _ in manifest)
    if names != tuple(table):
        raise DataError(f"{path}: layer names {names} are not {arch}'s {tuple(table)}")
    for name, w_shape, b_shape in manifest:
        if (w_shape, b_shape) != (table[name], table[name][:1]):
            raise DataError(f"{path}: layer {name} has shapes {w_shape} and {b_shape}, "
                            f"not {arch}'s {table[name]} and {table[name][:1]}")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float32, copy=False)
    arrays = iter(np.split(values, np.cumsum(sizes)[:-1]))
    return ModelParams(arch, tuple(
        LayerParams(name, next(arrays).reshape(w_shape), next(arrays).reshape(b_shape))
        for name, w_shape, b_shape in manifest), values)
