"""Binary model checkpoints, format 2.

Layout:

* magic ``b"SFL2"``
* the architecture tag: u8 length, then utf-8 bytes
* payload: ``model.flat``, each layer's weights then bias in layer order,
  as float32 little-endian
* trailer: 8-byte blake2b digest of every byte before it

A file stores no layer name or shape: the tag names a table of
``nn.ARCHITECTURES``, which fixes the payload's size and layout.  The digest
covers the header as well as the payload, so one check covers every byte: a
header field needs no check of its own beyond what finding the digest takes
(the magic, a known tag, the length the table implies), and a corrupt byte
that passes those is a checksum mismatch.  Loading copies the payload into
``nn.blank_model(arch)``, reproducing the saved parameters bit for bit.

A format-1 file (``b"SFL1"``, with a manifest of names and shapes) is
refused by its magic; every run can be regenerated from its
``config.resolved``.  Writes go through a temp file + rename so a crash
cannot leave a half-written checkpoint in place.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import DataError
from .nn import ARCHITECTURES, ModelParams, blank_model

MAGIC = b"SFL2"
_DIGEST_SIZE = 8


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()


def checkpoint_bytes(model: ModelParams) -> bytes:
    """Serialise a model to the checkpoint wire format."""
    tag = model.arch.encode("utf-8")
    body = MAGIC + bytes([len(tag)]) + tag + model.flat.astype("<f4", copy=False).tobytes()
    return body + _digest(body)


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
    if data[:4] != MAGIC:
        raise DataError(f"{path}: bad magic {data[:4]!r}, not {MAGIC!r}: "
                        f"not a format-2 checkpoint")
    start = 5 + int.from_bytes(data[4:5], "little")  # the payload's first byte
    arch = data[5:start].decode("utf-8", errors="replace")
    if arch not in ARCHITECTURES:
        raise DataError(f"{path}: unknown architecture tag {arch!r}")
    model = blank_model(arch)
    size = start + model.flat.nbytes + _DIGEST_SIZE
    if len(data) != size:
        raise DataError(f"{path}: {len(data)} bytes, but the {arch} table implies {size} "
                        f"(truncated, or trailing bytes)")
    stored, digest = data[-_DIGEST_SIZE:], _digest(data[:-_DIGEST_SIZE])
    if stored != digest:
        raise DataError(f"{path}: checksum mismatch "
                        f"(stored {stored.hex()}, computed {digest.hex()})")
    model.flat[:] = np.frombuffer(data, dtype="<f4", count=model.flat.size, offset=start)
    return model
