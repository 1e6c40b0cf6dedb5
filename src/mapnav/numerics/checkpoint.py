"""Binary checkpoint format.

Layout (little-endian):
  magic "CM2CKPT1"
  uint32 config_len, then config JSON (utf-8; empty allowed)
  uint32 parameter count
  per parameter: uint16 name_len, name utf-8, uint8 rank, uint32 dims...,
                 raw float64 values (row-major)
"""
from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from ..errors import UsageError
from .tensor import Tensor

MAGIC = b"CM2CKPT1"


def save_checkpoint(path, params: dict, config: dict | None = None):
    """Write atomically: into a temporary file beside ``path``, synced, then
    ``os.replace``. A write that fails removes the temporary file and leaves
    a checkpoint already at ``path`` as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            cfg = json.dumps(config or {}, sort_keys=True).encode("utf-8")
            f.write(struct.pack("<I", len(cfg)))
            f.write(cfg)
            f.write(struct.pack("<I", len(params)))
            for name, p in params.items():
                arr = p.data if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64)
                nb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack("<B", arr.ndim))
                for d in arr.shape:
                    f.write(struct.pack("<I", d))
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            f.flush()
            os.fsync(f.fileno())  # the bytes reach the disk before the rename does
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        if f.read(8) != MAGIC:
            raise UsageError(f"{path}: not a checkpoint file (bad magic)")
        try:  # a short read, bad utf-8 or bad JSON raises here
            (cfg_len,) = struct.unpack("<I", f.read(4))
            config = json.loads(f.read(cfg_len).decode("utf-8")) if cfg_len else {}
            (count,) = struct.unpack("<I", f.read(4))
            params = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<H", f.read(2))
                name = f.read(name_len).decode("utf-8")
                (rank,) = struct.unpack("<B", f.read(1))
                dims = struct.unpack("<" + "I" * rank, f.read(4 * rank))
                n = int(np.prod(dims)) if rank else 1
                data = np.frombuffer(f.read(8 * n), dtype="<f8").reshape(dims)
                params[name] = np.array(data)
        except (struct.error, ValueError) as e:
            raise UsageError(f"{path}: truncated or corrupt checkpoint ({e})") from e
        if f.read(1) or not isinstance(config, dict):
            raise UsageError(f"{path}: corrupt checkpoint (trailing bytes or non-object config)")
        return params, config
