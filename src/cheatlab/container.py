"""Binary tensor container used by checkpoints, datasets, and pair files.

Layout, all integers little-endian:

    magic   4 bytes  b"LCLB"
    version u32      currently 1
    count   u32      number of tensor records
    records          per record: name_len u32, name utf-8, rank u32,
                     dims rank * u32, payload float64 little-endian
    meta_len u64     length of the JSON metadata trailer
    meta             canonical JSON (sorted keys, compact separators)
    checksum 32 bytes sha256 over every preceding byte

FormatError: bad magic, unknown version, truncation, a name over 4096 bytes
or a rank over 8 (which the writer refuses before it opens the file, as it
does a dim of 2**32), a duplicate name, trailing bytes, a trailer that is
not a JSON object. IntegrityError: a checksum or digest disagreement; a name
or trailer that fails to decode is IntegrityError when the checksum
disagrees, else FormatError. Identical content writes identical bytes.

A checkpoint's trailer carries a "trainable" map, {name: true} for every
tensor. Every parameter trains, so the map says nothing; it is kept so
that checkpoint files keep their bytes, and a map holding any other value
or over any other names is rejected with FormatError rather than read as a
frozen tensor.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import FormatError, IntegrityError
from .autodiff import ParamSet

MAGIC = b"LCLB"
VERSION = 1
_MAX_RANK = 8
_MAX_NAME = 4096
_CHUNK = 1 << 19  # bytes of float64 payload cast at a time by the writer


def params_digest(params: ParamSet) -> str:
    """SHA-256 hex digest of a ParamSet's canonical serialization.

    The byte stream is, per tensor in the set's order: name length (u32),
    utf-8 name, rank (u32), dims (u32 each), then the float64 payload in
    row-major little-endian order.
    """
    h = hashlib.sha256()
    for name, t in params.items():
        for part in _record_parts(name, t.data):
            h.update(part)
    return h.hexdigest()


def _record_parts(name: str, arr) -> Iterator[bytes | np.ndarray]:
    """A record's header, then its payload in row chunks of about _CHUNK
    bytes: views of the array when it is C-ordered float64 already, so that
    writing and hashing read it in place, else float64 casts made one at a
    time (a dataset's int8 classes)."""
    arr = np.asarray(arr)
    raw = name.encode("utf-8")
    yield struct.pack(f"<I{len(raw)}sI{arr.ndim}I", len(raw), raw, arr.ndim,
                      *arr.shape)
    rows = np.atleast_1d(arr)
    step = max(1, _CHUNK // (8 * max(1, math.prod(rows.shape[1:]))))
    for at in range(0, len(rows), step):
        yield np.asarray(rows[at : at + step], dtype="<f8", order="C")


def _canonical_json(meta: Mapping) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()


def write_container(
    path, records: Mapping[str, np.ndarray], metadata: Mapping
) -> None:
    """Write named float64 arrays plus a JSON trailer; see module layout.
    Each part goes to the file and to a running sha256 as it is made, so
    only a record of another dtype (a dataset's int8 classes) is copied,
    one row chunk at a time."""
    for name, arr in records.items():
        if np.ndim(arr) > _MAX_RANK:
            raise FormatError(f"record {name!r} rank {np.ndim(arr)} > {_MAX_RANK}")
        if len(name.encode("utf-8")) > _MAX_NAME:
            raise FormatError(f"record name {name[:40]!r}.. over {_MAX_NAME} bytes")
        if max(np.shape(arr), default=0) >> 32:
            raise FormatError(f"record {name!r} dims {np.shape(arr)} out of u32")
    h = hashlib.sha256()
    with open(path, "wb") as f:
        def put(parts) -> None:
            for part in parts:
                f.write(part)
                h.update(part)
                del part  # a cast chunk goes before the next one is made

        put((MAGIC, struct.pack("<II", VERSION, len(records))))
        for name, arr in records.items():
            put(_record_parts(name, arr))
        meta = _canonical_json(metadata)
        put((struct.pack("<Q", len(meta)), meta))
        f.write(h.digest())


def read_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container; returns (records, metadata) after verification.

    The mirror of write_container: one pass over the file in order, each
    part fed to a running sha256 as it is read, and each record read once,
    straight into its own array once its size is known to fit the file.
    """
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size - 32
        if end < 0:
            raise FormatError(f"file too short ({end + 32} bytes)")
        h, at = hashlib.sha256(), 0

        def take(n: int, dims: tuple[int, ...] | None = None):
            """The next n bytes, or with dims a float64 array of them. A file
            cut short under the reader ends in a short digest, which fails."""
            nonlocal at
            if at + n > end:
                raise FormatError(f"file ended unexpectedly at byte {at} "
                                  f"(wanted {n} more of {end})")
            out = bytearray(n) if dims is None else np.empty(dims, "<f8")
            f.readinto(out)
            h.update(out)
            at += n
            return out

        try:
            records, meta = _parse(take)
        except ValueError as err:  # UnicodeDecodeError, JSONDecodeError
            while at < end:
                take(min(end - at, 1 << 20))
            if h.digest() != f.read(32):
                raise IntegrityError(f"checksum mismatch: {err}") from err
            raise FormatError(f"undecodable content: {err}") from err
        if at != end:
            raise FormatError(f"{end - at} trailing bytes after trailer")
        if h.digest() != f.read(32):
            raise IntegrityError("checksum mismatch; file content was altered")
    return records, meta


def _parse(take: Callable) -> tuple[dict[str, np.ndarray], dict]:
    if take(4) != MAGIC:
        raise FormatError(f"bad magic; expected {MAGIC!r}")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise FormatError(f"unsupported version {version}, expected {VERSION}")
    records: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        if name_len > _MAX_NAME:
            raise FormatError(f"record name length {name_len} out of bounds")
        name = str(take(name_len), "utf-8")
        (rank,) = struct.unpack("<I", take(4))
        if rank > _MAX_RANK:
            raise FormatError(f"record {name!r} rank {rank} out of bounds")
        if name in records:
            raise FormatError(f"duplicate record name {name!r}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        records[name] = take(8 * math.prod(dims), dims)
    (meta_len,) = struct.unpack("<Q", take(8))
    meta = json.loads(str(take(meta_len), "utf-8"))
    if not isinstance(meta, dict):
        raise FormatError("metadata trailer is not a JSON object")
    return records, meta


# ---------------------------------------------------------------------------
# checkpoints: a ParamSet plus metadata in one container


@dataclass
class Checkpoint:
    stage: str
    params: ParamSet
    metadata: dict


def save_checkpoint(path, stage: str, params: ParamSet, metadata: Mapping,
                    extra_meta: Mapping | None = None) -> str:
    """Persist a ParamSet; returns the embedded parameter digest.

    extra_meta entries are merged over metadata before the stage, digest
    and the all-true trainable map are added.
    """
    digest = params_digest(params)
    meta = {**metadata, **(extra_meta or {}), "stage": stage,
            "params_digest": digest,
            "trainable": dict.fromkeys(params.names(), True)}
    write_container(path, {name: t.data for name, t in params.items()}, meta)
    return digest


def meta_int(value) -> int:
    """A positive JSON integer."""
    if type(value) is not int or value < 1:
        raise ValueError(f"expected a positive integer, got {value!r}")
    return value


def meta_ints(value) -> tuple[int, ...]:
    """A JSON list of positive integers, as a tuple."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of positive integers, got {value!r}")
    return tuple(meta_int(v) for v in value)


def meta_floats(value) -> np.ndarray:
    """A JSON list of finite numbers, as a float64 array."""
    if not isinstance(value, list) or not all(
        type(v) in (int, float) and math.isfinite(v) for v in value
    ):
        raise ValueError(f"expected a list of finite numbers, got {value!r}")
    return np.array(value, dtype=np.float64)


def load_checkpoint(path, stage: str | None = None,
                    keys: Mapping[str, Callable] | None = None) -> Checkpoint:
    """Load and re-verify a checkpoint written by save_checkpoint.

    With `stage` given, a checkpoint of any other stage raises FormatError.
    `keys` maps each metadata key the caller needs to a converter such as
    meta_int; the returned metadata holds the converted values. A missing
    key, or a value its converter rejects, raises FormatError naming it.
    """
    records, meta = read_container(path)
    for key in ("stage", "params_digest", "trainable"):
        if key not in meta:
            raise FormatError(f"checkpoint metadata missing {key!r}")
    flags = meta["trainable"]
    if (not isinstance(flags, dict) or flags.keys() != records.keys()
            or any(v is not True for v in flags.values())):
        raise FormatError("checkpoint metadata 'trainable' must map every "
                          "tensor name, and only those, to true: no "
                          "parameter is frozen")
    if stage is not None and meta["stage"] != stage:
        raise FormatError(f"expected a {stage} checkpoint, got {meta['stage']!r}")
    for key, convert in (keys or {}).items():
        if key not in meta:
            raise FormatError(f"{meta['stage']} checkpoint metadata missing {key!r}")
        try:
            meta[key] = convert(meta[key])
        except ValueError as err:
            raise FormatError(
                f"{meta['stage']} checkpoint metadata {key!r}: {err}"
            ) from None
    params = ParamSet(records)
    digest = params_digest(params)
    if digest != meta["params_digest"]:
        raise IntegrityError(
            "parameter digest mismatch: metadata says "
            f"{meta['params_digest'][:12]}.., payload hashes to {digest[:12]}.."
        )
    return Checkpoint(stage=meta["stage"], params=params, metadata=meta)


def check_layout(ckpt: Checkpoint, layout) -> None:
    """FormatError unless the checkpoint's tensors are the (name, shape)
    pairs of layout, in order: the layout its metadata describes."""
    got = [(name, t.data.shape) for name, t in ckpt.params.items()]
    for i, (have, need) in enumerate(itertools.zip_longest(got, layout)):
        if have != need:
            raise FormatError(
                f"{ckpt.stage} checkpoint tensors do not match its metadata: "
                f"tensor {i} is {have}, the metadata needs {need}")


def file_digest(path) -> str:
    """SHA-256 hex digest of a file on disk, for stage summary chaining."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
