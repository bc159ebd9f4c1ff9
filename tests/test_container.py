"""Container and checkpoint round-trip, corruption, and digest tests."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from cheatlab import cheat as ch
from cheatlab import container as ct
from cheatlab import evaluation as ev
from cheatlab import policy as po
from cheatlab import vae as vb
from cheatlab.autodiff import ParamSet
from cheatlab.errors import FormatError, IntegrityError


def sample_params(seed=0):
    rng = np.random.default_rng(seed)
    return ParamSet({"enc/w0": rng.normal(0, 1, (4, 6)),
                     "enc/b0": rng.normal(0, 1, 4),
                     "scalarish": np.asarray(rng.normal())})


def test_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "a.ckpt"
    p = sample_params()
    ct.save_checkpoint(path, "vae", p, {"k": 8})
    loaded = ct.load_checkpoint(path)
    assert loaded.stage == "vae"
    assert loaded.metadata["k"] == 8
    assert loaded.params.names() == p.names()
    for name, t in p.items():
        got = loaded.params[name]
        assert got.data.shape == t.data.shape
        assert np.array_equal(got.data, t.data)  # bit-exact float64


@pytest.mark.parametrize("flags", [
    {"enc/w0": True, "enc/b0": False, "scalarish": True},
    {"enc/w0": 1},
    {"scalarish": None},
    ["enc/w0", "enc/b0", "scalarish"],
    # The map must name every tensor and no other.
    {},
    {"enc/w0": True, "enc/b0": True, "scalarish": True, "ghost": True},
    {"enc/w0": True, "scalarish": True},
])
def test_a_checkpoint_that_freezes_a_tensor_is_format_error(tmp_path, flags):
    path = tmp_path / "x.ckpt"
    ct.save_checkpoint(path, "vae", sample_params(), {"k": 8})
    records, meta = ct.read_container(path)
    assert meta["trainable"] == dict.fromkeys(sample_params().names(), True)
    # Re-written with a valid checksum and digest: only the map is wrong.
    ct.write_container(path, records, {**meta, "trainable": flags})
    with pytest.raises(FormatError, match="'trainable'"):
        ct.load_checkpoint(path)


def test_loading_a_checkpoint_copies_its_parameters_once(tmp_path):
    # 256 tensors of 64 x 64 (8 MiB): the records as read, plus one flat
    # buffer, and nothing per tensor that grows with the set.
    path = tmp_path / "many.ckpt"
    rng = np.random.default_rng(3)
    ct.save_checkpoint(path, "vae", ParamSet(
        {f"t{i}": rng.normal(size=(64, 64)) for i in range(256)}), {})
    tracemalloc.start()
    try:
        ckpt = ct.load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = ckpt.params.flat.nbytes
    assert size == 256 * 64 * 64 * 8
    assert peak < 2.5 * size, f"peak {peak / size:.2f}x the parameters"


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    ct.save_checkpoint(a, "vae", sample_params(), {"k": 8, "note": "x"})
    ct.save_checkpoint(b, "vae", sample_params(), {"note": "x", "k": 8})
    assert a.read_bytes() == b.read_bytes()


def test_a_record_of_another_dtype_or_order_writes_its_float64_bytes(tmp_path):
    # Such a record is cast in row chunks; the bytes must be those of its
    # float64 C-ordered copy, chunk edges and empty shapes included.
    rng = np.random.default_rng(4)
    records = {
        "classes": rng.integers(0, 3, (3001, 64)).astype(np.int8),
        "fortran": np.asfortranarray(rng.normal(size=(700, 3))),
        "strided": rng.normal(size=(40, 6))[::3, ::2],
        "no_rows": np.zeros((0, 8), np.int8),
        "no_cols": np.zeros((5, 0), np.int8),
        "scalar": np.int64(7),
    }
    cast = {k: np.array(v, dtype=np.float64) for k, v in records.items()}
    ct.write_container(tmp_path / "a", records, {})
    ct.write_container(tmp_path / "b", cast, {})
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    got, _ = ct.read_container(tmp_path / "a")
    assert all(np.array_equal(got[k], cast[k]) for k in records)


def test_digest_is_64_hex_and_order_sensitive():
    p = sample_params()
    d = ct.params_digest(p)
    assert len(d) == 64 and set(d) <= set("0123456789abcdef")
    assert ct.params_digest(sample_params()) == d
    q = ParamSet({name: t.data for name, t in reversed(list(p.items()))})
    assert ct.params_digest(q) != d


def test_digest_changes_on_any_entry(tmp_path):
    p = sample_params()
    d = ct.params_digest(p)
    p["enc/b0"].data[2] += 1e-12
    assert ct.params_digest(p) != d


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    ct.save_checkpoint(path, "s", sample_params(), {})
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        ct.load_checkpoint(path)


def test_truncation_mid_record(tmp_path):
    path = tmp_path / "x.ckpt"
    ct.save_checkpoint(path, "s", sample_params(), {})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        ct.load_checkpoint(path)


def test_payload_tamper_is_integrity_error(tmp_path):
    path = tmp_path / "x.ckpt"
    ct.save_checkpoint(path, "s", sample_params(), {})
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF  # inside the first record payload
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError):
        ct.load_checkpoint(path)


def test_metadata_tamper_is_integrity_error(tmp_path):
    # Flipping a digest character in the JSON trailer must not load cleanly.
    path = tmp_path / "x.ckpt"
    digest = ct.save_checkpoint(path, "s", sample_params(), {"frozen": "ab12"})
    blob = path.read_bytes()
    idx = blob.find(b'"frozen":"ab12"')
    assert idx > 0
    tampered = blob[:idx] + b'"frozen":"cd34"' + blob[idx + 15 :]
    path.write_bytes(tampered)
    with pytest.raises(IntegrityError):
        ct.load_checkpoint(path)
    assert len(digest) == 64


def test_version_bump_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    ct.save_checkpoint(path, "s", sample_params(), {})
    blob = bytearray(path.read_bytes())
    blob[4] = 9  # version field
    # Re-seal the checksum so the failure is structural, not integrity.
    import hashlib

    payload = bytes(blob[:-32])
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(FormatError) as err:
        ct.load_checkpoint(path)
    assert "version" in str(err.value)


def test_trailing_garbage_rejected(tmp_path):
    import hashlib

    path = tmp_path / "x.ckpt"
    ct.save_checkpoint(path, "s", sample_params(), {})
    blob = path.read_bytes()
    payload = blob[:-32] + b"junk"
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(FormatError):
        ct.load_checkpoint(path)


def test_raw_container_roundtrip(tmp_path):
    path = tmp_path / "d.bin"
    rng = np.random.default_rng(3)
    records = {
        "ep00000/depth": rng.random((7, 16)),
        "ep00000/actions": rng.random((7, 4)),
        "empty": np.zeros((0, 4)),
    }
    ct.write_container(path, records, {"n": 7})
    got, meta = ct.read_container(path)
    assert meta == {"n": 7}
    assert list(got) == list(records)
    for k in records:
        assert np.array_equal(got[k], records[k])
        assert got[k].shape == records[k].shape


@pytest.mark.parametrize("trailer", [[1, 2], "meta", 7, None])
def test_a_trailer_that_is_not_an_object_is_format_error(tmp_path, trailer):
    # The checksum is valid; only the trailer's JSON type is wrong.
    path = tmp_path / "d.bin"
    ct.write_container(path, {"x": np.zeros(3)}, trailer)
    with pytest.raises(FormatError, match="not a JSON object"):
        ct.read_container(path)


def test_every_single_bit_flip_raises_a_documented_error(tmp_path):
    # Flip the top bit of each byte in turn. Record names and the JSON
    # trailer must not leak UnicodeDecodeError or JSONDecodeError.
    path = tmp_path / "v.ckpt"
    vb.save_vae(vb.vae_init(2, (3,), 0, width=2), path, {"seed": 7})
    blob = path.read_bytes()
    kinds = set()
    for at in range(len(blob)):
        flipped = bytearray(blob)
        flipped[at] ^= 0x80
        path.write_bytes(bytes(flipped))
        with pytest.raises((FormatError, IntegrityError)) as err:
            vb.load_vae(path)
        kinds.add(type(err.value))
    assert kinds == {FormatError, IntegrityError}


def _reseal(blob: bytes) -> bytes:
    """blob with its checksum recomputed over everything before it."""
    return blob[:-32] + hashlib.sha256(blob[:-32]).digest()


@pytest.mark.parametrize("old, new", [
    (b"ab\x01", b"\xff\xfe\x01"),  # the record name: rank 1 follows it
    (b'"zz"', b'"\xff\xff"'),  # a string in the JSON trailer
    (b'"zz"}', b'"zz"]'),  # the trailer's JSON syntax
])
def test_undecodable_content_is_format_error_only_when_sealed(tmp_path, old,
                                                              new):
    path = tmp_path / "d.bin"
    ct.write_container(path, {"ab": np.arange(3.0)}, {"k": "zz"})
    blob = path.read_bytes()
    assert blob.count(old) == 1
    broken = blob.replace(old, new)
    path.write_bytes(_reseal(broken))
    with pytest.raises(FormatError, match="undecodable"):
        ct.read_container(path)
    path.write_bytes(broken)
    with pytest.raises(IntegrityError, match="checksum mismatch"):
        ct.read_container(path)


def test_a_header_claiming_more_than_the_file_holds_allocates_nothing(
        tmp_path):
    # Dims of (2**32 - 1)**2 claim 2**67 bytes; the reader must measure
    # them against the bytes left before it makes an array of them.
    path = tmp_path / "d.bin"
    ct.write_container(path, {"x": np.zeros((2, 2))}, {})
    blob = bytearray(path.read_bytes())
    head = struct.pack("<III", 2, 2, 2)  # rank 2, dims (2, 2)
    at = blob.index(head)
    blob[at : at + 12] = struct.pack("<III", 2, 2**32 - 1, 2**32 - 1)
    path.write_bytes(_reseal(bytes(blob)))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="ended unexpectedly"):
            ct.read_container(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name, arr, why", [
    ("n" * 5000, np.zeros(3), "over 4096 bytes"),
    ("wide", np.zeros((2**32, 0)), "out of u32"),
], ids=["long-name", "wide-dim"])
def test_write_refuses_what_read_refuses_and_leaves_the_target(tmp_path,
                                                               name, arr, why):
    path = tmp_path / "d.bin"
    ct.write_container(path, {"x": np.zeros(3)}, {"k": 1})
    before = path.read_bytes()
    with pytest.raises(FormatError, match=why):
        ct.write_container(path, {"x": np.zeros(3), name: arr}, {"k": 1})
    assert path.read_bytes() == before


def _controller():
    template = po.controller_template(k=2, h_dim=3, mlp_hidden=(4, 3))
    genome = np.random.default_rng(0).normal(size=po.genome_size(template))
    return po.controller_from_genome(genome, template)


# stage -> (model factory, save, load, metadata keys the loader needs)
STAGES = {
    "vae": (lambda: vb.vae_init(2, (3,), 0, width=4), vb.save_vae,
            vb.load_vae, ("k", "hidden", "width")),
    "cheat": (lambda: ch.cheat_init(2, (3,), 0, width=4), ch.save_cheat,
              ch.load_cheat, ("k", "hidden", "width")),
    "baseline": (lambda: ev.baseline_init((3,), 0, width=4), ev.save_baseline,
                 ev.load_baseline, ("hidden", "width")),
    "controller": (_controller, po.save_controller, po.load_controller,
                   ("k", "h_dim", "mlp_hidden", "out_scale")),
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_stage_checkpoint_roundtrip_and_metadata_checks(stage, tmp_path):
    make, save, load, keys = STAGES[stage]
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save(make(), first)
    save(load(first), second)
    assert first.read_bytes() == second.read_bytes()

    ckpt = ct.load_checkpoint(first)
    meta = {k: v for k, v in ckpt.metadata.items()
            if k not in ("stage", "params_digest", "trainable")}
    assert set(meta) == set(keys)
    wrong = tmp_path / "wrong.ckpt"
    ct.save_checkpoint(wrong, "controller" if stage == "vae" else "vae",
                       ckpt.params, meta)
    with pytest.raises(FormatError, match=f"expected a {stage} checkpoint"):
        load(wrong)
    for key in keys:
        lacking = tmp_path / f"no_{key}.ckpt"
        partial = {k: v for k, v in meta.items() if k != key}
        ct.save_checkpoint(lacking, stage, ckpt.params, partial)
        with pytest.raises(FormatError, match=key):
            load(lacking)
        # A well-checksummed file with a wrong-typed value: FormatError, not
        # a ValueError from int() or a silently split string from tuple().
        mistyped = tmp_path / f"bad_{key}.ckpt"
        ct.save_checkpoint(mistyped, stage, ckpt.params, {**meta, key: "two"})
        with pytest.raises(FormatError, match=f"'{key}'"):
            load(mistyped)


def _other_layout(key, value):
    """A metadata value that describes another tensor layout than value."""
    if key == "out_scale":
        return value[:3]
    return [v + 1 for v in value] if isinstance(value, list) else value + 1


@pytest.mark.parametrize("stage", list(STAGES))
def test_a_checkpoint_whose_tensors_disagree_with_its_metadata_is_refused(
        stage, tmp_path):
    make, save, load, keys = STAGES[stage]
    good = tmp_path / "good.ckpt"
    save(make(), good)
    ckpt = ct.load_checkpoint(good)
    meta = {key: ckpt.metadata[key] for key in keys}
    bad = tmp_path / "bad.ckpt"
    for key in keys:
        ct.save_checkpoint(bad, stage, ckpt.params,
                           {**meta, key: _other_layout(key, meta[key])})
        with pytest.raises(FormatError, match=f"{stage} checkpoint"):
            load(bad)
    # A width far past memory is checked by arithmetic, never allocated.
    wide = "mlp_hidden" if stage == "controller" else "hidden"
    ct.save_checkpoint(bad, stage, ckpt.params,
                       {**meta, wide: [10**12] * len(meta[wide])})
    with pytest.raises(FormatError, match="1000000000000"):
        load(bad)
    # The right tensors in another order are another layout too.
    names = ckpt.params.names()
    swapped = ParamSet({name: ckpt.params[name].data
                        for name in [names[1], names[0], *names[2:]]})
    ct.save_checkpoint(bad, stage, swapped, meta)
    with pytest.raises(FormatError, match="tensor 0 is"):
        load(bad)
    if stage == "controller":  # _pack reads a head of three layers
        ct.save_checkpoint(bad, stage, ckpt.params,
                           {**meta, "mlp_hidden": [*meta["mlp_hidden"], 2]})
        with pytest.raises(FormatError, match="2 mlp_hidden widths"):
            load(bad)

