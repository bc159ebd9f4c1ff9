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

Structural violations (bad magic, unknown version, truncation, trailing
garbage, a trailer that is not a JSON object) raise FormatError; checksum
or digest disagreements raise IntegrityError. A record name or trailer
that fails to decode raises IntegrityError when the checksum disagrees,
else FormatError. Writing is deterministic: identical content yields
identical bytes.

A checkpoint's trailer carries a "trainable" map, {name: true} for every
tensor. Every parameter trains, so the map says nothing; it is kept so
that checkpoint files keep their bytes, and a map holding any other value
is rejected with FormatError rather than read as a frozen tensor.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import FormatError, IntegrityError
from .autodiff import ParamSet

MAGIC = b"LCLB"
VERSION = 1
_MAX_RANK = 8
_MAX_NAME = 4096


def params_digest(params: ParamSet) -> str:
    """SHA-256 hex digest of a ParamSet's canonical serialization.

    The byte stream is, per tensor in insertion order: name length (u32),
    utf-8 name, rank (u32), dims (u32 each), then the float64 payload in
    row-major little-endian order.
    """
    h = hashlib.sha256()
    for name, t in params.items():
        for part in _record_parts(name, t.data):
            h.update(part)
    return h.hexdigest()


def _record_parts(name: str, arr) -> tuple[bytes, np.ndarray]:
    """A record's header, then its payload: the array itself when it is
    C-ordered float64 already, so that writing and hashing read it in place."""
    arr = np.asarray(arr, dtype="<f8", order="C")
    raw = name.encode("utf-8")
    return struct.pack(f"<I{len(raw)}sI{arr.ndim}I", len(raw), raw, arr.ndim,
                       *arr.shape), arr


def _canonical_json(meta: Mapping) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()


def write_container(
    path, records: Mapping[str, np.ndarray], metadata: Mapping
) -> None:
    """Write named float64 arrays plus a JSON trailer; see module layout.
    Each part goes to the file and to a running sha256 as it is made, so
    only a record of another dtype (a dataset's int8 classes) is copied."""
    for name, arr in records.items():
        if np.ndim(arr) > _MAX_RANK:
            raise FormatError(f"record {name!r} rank {np.ndim(arr)} > {_MAX_RANK}")
    h = hashlib.sha256()
    with open(path, "wb") as f:
        def put(*parts) -> None:
            for part in parts:
                f.write(part)
                h.update(part)

        put(MAGIC, struct.pack("<II", VERSION, len(records)))
        for name, arr in records.items():
            put(*_record_parts(name, arr))
        meta = _canonical_json(metadata)
        put(struct.pack("<Q", len(meta)), meta)
        f.write(h.digest())


class _Reader:
    def __init__(self, blob: memoryview):
        self.blob = blob
        self.at = 0

    def take(self, n: int) -> memoryview:
        if self.at + n > len(self.blob):
            raise FormatError(
                f"file ended unexpectedly at byte {self.at} "
                f"(wanted {n} more of {len(self.blob)})"
            )
        out = self.blob[self.at : self.at + n]
        self.at += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def read_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container; returns (records, metadata) after verification.

    The file is read once and parsed through a memoryview of it, so each
    record is copied once, into its own array.
    """
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    if len(blob) < 32:
        raise FormatError(f"file too short ({len(blob)} bytes)")
    payload, stored = blob[:-32], blob[-32:]
    intact = hashlib.sha256(payload).digest() == stored
    try:
        records, meta = _parse(payload)
    except ValueError as err:  # UnicodeDecodeError, JSONDecodeError
        if not intact:
            raise IntegrityError(f"checksum mismatch: {err}") from err
        raise FormatError(f"undecodable content: {err}") from err
    if not intact:
        raise IntegrityError("checksum mismatch; file content was altered")
    return records, meta


def _parse(payload: memoryview) -> tuple[dict[str, np.ndarray], dict]:
    r = _Reader(payload)
    if r.take(4) != MAGIC:
        raise FormatError(f"bad magic; expected {MAGIC!r}")
    version = r.u32()
    if version != VERSION:
        raise FormatError(f"unsupported version {version}, expected {VERSION}")
    count = r.u32()
    records: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = r.u32()
        if name_len > _MAX_NAME:
            raise FormatError(f"record name length {name_len} out of bounds")
        name = str(r.take(name_len), "utf-8")
        rank = r.u32()
        if rank > _MAX_RANK:
            raise FormatError(f"record {name!r} rank {rank} out of bounds")
        dims = tuple(r.u32() for _ in range(rank))
        n = 1
        for d in dims:
            n *= d
        data = np.frombuffer(r.take(8 * n), dtype="<f8").reshape(dims)
        if name in records:
            raise FormatError(f"duplicate record name {name!r}")
        records[name] = data.astype(np.float64)
    meta_len = r.u64()
    meta = json.loads(str(r.take(meta_len), "utf-8"))
    if not isinstance(meta, dict):
        raise FormatError("metadata trailer is not a JSON object")
    if r.at != len(payload):
        raise FormatError(f"{len(payload) - r.at} trailing bytes after trailer")
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
    meta = dict(metadata)
    meta.update(extra_meta or {})
    meta["stage"] = stage
    meta["params_digest"] = digest
    meta["trainable"] = {name: True for name in params.names()}
    records = {name: t.data for name, t in params.items()}
    write_container(path, records, meta)
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
    if not isinstance(flags, dict) or any(v is not True for v in flags.values()):
        raise FormatError("checkpoint metadata 'trainable' must map every "
                          "name to true: no parameter is frozen")
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
    params = ParamSet()
    for name, arr in records.items():
        params.add(name, arr)
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
