"""The npz wire codec: replies ``np.load`` reads back, request bodies
decoded as ``np.load`` decodes them, and everything else refused."""

from __future__ import annotations

import asyncio
import io
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.serve.artifact import _probe_arrays
from repro.serve.engine import InferenceEngine
from repro.serve.loadgen import build_observation_pool
from repro.serve.wire import (MAX_BYTES, NpzError, NpzTooLarge, decode_npz,
                              encode_npz)


def _np_load(body: bytes) -> dict:
    with np.load(io.BytesIO(body), allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def _assert_same(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for key, value in want.items():
        value = np.asarray(value)
        assert got[key].dtype == value.dtype, key
        assert got[key].shape == value.shape, key
        assert got[key].tobytes() == value.tobytes(), key


def _savez(arrays: dict, compressed: bool = False) -> bytes:
    buf = io.BytesIO()
    (np.savez_compressed if compressed else np.savez)(buf, **arrays)
    return buf.getvalue()


def _zip(members: dict[str, bytes],
         compression: int = zipfile.ZIP_STORED) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return buf.getvalue()


def _npy(array, version=None) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(array), version=version,
                              allow_pickle=True)
    return buf.getvalue()


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def engine_replies(frozen_policy):
    """Every reply shape the engine produces: UGV/UAV, greedy/sampled."""
    engine = InferenceEngine(frozen_policy, max_batch=8, timeout_ms=5000)
    obs, grids, aux = _probe_arrays(frozen_policy.schema)
    ugv = (obs.stop_features[0], obs.ugv_positions[0], obs.ugv_stops[0],
           obs.action_mask[0])
    rng = np.random.default_rng(0)

    async def replies():
        futures = [engine.submit(kind, payload, rng=rng, greedy=greedy)
                   for kind, payload in (("ugv", ugv), ("uav", (grids, aux)))
                   for greedy in (True, False)]
        engine.stop()
        return [future.result().fields() for future in futures]

    return asyncio.run(replies())


def test_every_engine_reply_round_trips_through_np_load(engine_replies):
    assert {fields["kind"] for fields in engine_replies} == {"ugv", "uav"}
    for fields in engine_replies:
        body = encode_npz(fields)
        with zipfile.ZipFile(io.BytesIO(body)) as archive:
            assert archive.testzip() is None
        decoded = _np_load(body)
        _assert_same(decoded, fields)
        assert decoded["kind"].dtype == np.dtype("<U3")
        assert decoded["batch_size"].shape == ()


def test_encoder_aligns_data_like_numpy():
    """Each member's data starts on a 64-byte boundary of its .npy, and
    the member is byte-for-byte what numpy writes minus its growth pad."""
    arrays = {"a": np.arange(5.0), "b": np.ones((2, 3), dtype=bool),
              "c": np.asarray("uav"), "d": np.asarray(7)}
    with zipfile.ZipFile(io.BytesIO(encode_npz(arrays))) as archive:
        for key, value in arrays.items():
            member = archive.read(f"{key}.npy")
            assert (len(member) - value.nbytes) % 64 == 0
            assert member.endswith(value.tobytes())
            assert np.load(io.BytesIO(member)).tobytes() == value.tobytes()


def test_encoder_writes_non_contiguous_arrays_in_c_order():
    value = np.arange(12.0).reshape(3, 4)[:, ::2].T
    _assert_same(_np_load(encode_npz({"v": value})),
                 {"v": np.ascontiguousarray(value)})


def test_encoder_refuses_object_arrays():
    with pytest.raises(ValueError, match="object"):
        encode_npz({"v": np.array([{"a": 1}], dtype=object)})


# ----------------------------------------------------------------------
# Decoder: equal to np.load on what numpy writes
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def pool_bodies():
    pool = build_observation_pool("kaist", "smoke", 4, 2, seed=0)
    bodies = []
    for entry in pool:
        bodies.append({k: entry[k] for k in ("stop_features", "ugv_positions",
                                             "ugv_stops", "action_mask")})
        if "grids" in entry:
            bodies.append({"grids": entry["grids"], "aux": entry["aux"]})
    return bodies


@pytest.mark.parametrize("compressed", [False, True],
                         ids=["savez", "savez_compressed"])
def test_decode_equals_np_load_on_observation_pool(pool_bodies, compressed):
    for arrays in pool_bodies:
        body = _savez(arrays, compressed)
        _assert_same(decode_npz(body), _np_load(body))


_LAYOUTS = {
    "fortran": np.asfortranarray(np.arange(24.0).reshape(2, 3, 4)),
    "big_endian": np.arange(6, dtype=">f8").reshape(2, 3),
    "big_endian_int": np.arange(5, dtype=">i4"),
    "zero_d": np.asarray(3.5),
    "zero_size": np.zeros((0, 3)),
    "zero_size_fortran": np.asfortranarray(np.zeros((2, 0, 3))),
    "bool": np.array([[True, False], [False, True]]),
    "uint8": np.arange(7, dtype=np.uint8),
    "int16": np.arange(-3, 3, dtype=np.int16),
    "float16": np.linspace(0, 1, 5, dtype=np.float16),
    "float32": np.linspace(0, 1, 5, dtype=np.float32),
}


@pytest.mark.parametrize("name", sorted(_LAYOUTS))
@pytest.mark.parametrize("compressed", [False, True],
                         ids=["savez", "savez_compressed"])
def test_decode_equals_np_load_on_layouts(name, compressed):
    body = _savez({name: _LAYOUTS[name], "other": np.arange(3)}, compressed)
    got, want = decode_npz(body), _np_load(body)
    _assert_same(got, want)
    np.testing.assert_array_equal(got[name], _LAYOUTS[name])


def test_decode_accepts_the_bounds_of_the_header():
    """32 dims and 19-digit dims still decode as np.load decodes them."""
    body = _with_dims(["1"] * 32)
    _assert_same(decode_npz(body), _np_load(body))
    body = _with_dims(["0", "9" * 19], version=2)
    with pytest.raises(NpzError):  # numpy cannot hold a dim over 2**63
        decode_npz(body)


def test_decode_accepts_npy_version_2():
    value = np.arange(6.0).reshape(2, 3)
    body = _zip({"v.npy": _npy(value, version=(2, 0))})
    _assert_same(decode_npz(body), {"v": value})


# ----------------------------------------------------------------------
# Decoder: refusals
# ----------------------------------------------------------------------

def _corrupt_crc(body: bytes) -> bytes:
    """Flip a bit of the first member's CRC in its local header and in
    the central directory, so the CRC no longer matches the data."""
    out = bytearray(body)
    for field in (14, body.index(b"PK\x01\x02") + 16):  # local header at 0
        out[field] ^= 0x01
    return bytes(out)


def _with_header_shape(shape_text: bytes) -> bytes:
    npy = _npy(np.arange(4.0))
    return _zip({"v.npy": npy.replace(b"(4,)", shape_text)})


def _with_dims(dims: list[str], version: int = 1) -> bytes:
    """A member whose header declares ``dims`` over 8 data bytes."""
    shape = f"({dims[0]},)" if len(dims) == 1 else f"({', '.join(dims)})"
    text = (f"{{'descr': '<f8', 'fortran_order': False, "
            f"'shape': {shape}, }}\n").encode("latin-1")
    size = struct.pack("<H" if version == 1 else "<I", len(text))
    return _zip({"v.npy": b"\x93NUMPY" + bytes([version, 0]) + size + text
                 + bytes(8)})


_REFUSED = {
    "object": lambda: _zip({"v.npy": _npy(np.array([{"a": 1}],
                                                   dtype=object))}),
    "pickled_list": lambda: _zip({"v.npy": _npy(np.array([[1], [1, 2]],
                                                         dtype=object))}),
    "string": lambda: _savez({"v": np.array(["ab", "c"])}),
    "bytes": lambda: _savez({"v": np.array([b"ab"])}),
    "complex": lambda: _savez({"v": np.arange(3) * 1j}),
    "structured": lambda: _savez({"v": np.zeros(2, dtype=[("a", "<f8")])}),
    "datetime": lambda: _savez({"v": np.array(["2020-01-01"],
                                              dtype="datetime64[D]")}),
    "crc_mismatch": lambda: _corrupt_crc(_savez({"v": np.arange(4.0)})),
    "crc_mismatch_compressed": lambda: _corrupt_crc(
        _savez({"v": np.arange(4.0)}, compressed=True)),
    "unknown_dtype_size": lambda: _zip({"v.npy": _npy(np.arange(4.0))
                                        .replace(b"'<f8'", b"'<f3'")}),
    "data_short": lambda: _with_header_shape(b"(5,)"),
    "data_long": lambda: _with_header_shape(b"(3,)"),
    "shape_not_a_tuple": lambda: _with_header_shape(b"(4) "),
    "npy_v3": lambda: _zip({"v.npy": _npy(np.arange(4.0), version=(3, 0))}),
    "not_npy_member": lambda: _zip({"v.npy": _npy(np.arange(2.0)),
                                    "notes.txt": b"hello"}),
    "bare_npy": lambda: _npy(np.arange(4.0)),
    "npy_magic_only": lambda: _zip({"v.npy": b"\x93NUMPY\x01\x00"}),
    "empty_member": lambda: _zip({"v.npy": b""}),
    "bzip2_member": lambda: _zip({"v.npy": _npy(np.arange(4.0))},
                                 zipfile.ZIP_BZIP2),
    "empty_body": lambda: b"",
    "garbage": lambda: b"PK\x03\x04 not a zip at all",
}


@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_decode_refuses(name):
    with pytest.raises(NpzError) as info:
        decode_npz(_REFUSED[name]())
    assert info.value.status == 400


@pytest.mark.parametrize("dims, version, reason", [
    (["1" * 4301], 1, "not a plain numeric"),  # int() refuses 4301 digits
    (["1" * 20], 1, "not a plain numeric"),
    (["1"] * 33, 1, "not a plain numeric"),  # np.load accepts these
    (["1"] * 33, 2, "not a plain numeric"),
    (["9" * 4301] * 100, 2, "header of 430354 bytes, over 10000"),
], ids=["4301_digits", "20_digits", "33_dims", "33_dims_v2",
        "430KB_header_v2"])
def test_header_bounds_refuse_before_any_dim_is_parsed(dims, version,
                                                       reason):
    """Dims are bounded in the header text, so no int() or product over
    them runs: neither int()'s digit limit (a 500) nor a quadratic
    product of thousands of huge dims (a stalled event loop)."""
    with pytest.raises(NpzError, match=reason) as info:
        decode_npz(_with_dims(dims, version))
    assert info.value.status == 400


def test_decode_refuses_duplicate_member_names():
    buf = io.BytesIO()
    with pytest.warns(UserWarning, match="Duplicate name"):
        with zipfile.ZipFile(buf, "w") as archive:
            archive.writestr("v.npy", _npy(np.arange(2.0)))
            archive.writestr("v.npy", _npy(np.arange(3.0)))
    with pytest.raises(NpzError, match="duplicate"):
        decode_npz(buf.getvalue())


def _peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversized_decoded_total_is_413_before_any_member_is_read():
    """A savez_compressed body of zeros just over the cap is ~34 KB on
    the wire: refused from the central directory, allocating nothing
    near its decoded size."""
    body = _savez({"grids": np.zeros(MAX_BYTES // 8 + 1)}, compressed=True)
    assert len(body) < 1 << 20

    def refused():
        with pytest.raises(NpzTooLarge) as info:
            decode_npz(body)
        assert info.value.status == 413

    assert _peak_bytes(refused) < 1 << 20


def test_decoded_total_counts_every_member():
    half = MAX_BYTES // 2 // 8
    body = _savez({"a": np.zeros(half), "b": np.zeros(half)},
                  compressed=True)
    with pytest.raises(NpzTooLarge):
        decode_npz(body)
    body = _savez({"a": np.zeros(half - 64), "b": np.zeros(half - 64)},
                  compressed=True)
    assert set(decode_npz(body)) == {"a", "b"}


def test_member_inflates_no_further_than_it_declares():
    """A deflated member whose central-directory size understates its
    data (a 16 MB member declared as 256 bytes) is inflated only up to
    the declared size, whose CRC then fails."""
    npy = _npy(np.zeros(2_000_000))
    body = bytearray(_zip({"v.npy": npy}, zipfile.ZIP_DEFLATED))
    central = bytes(body).rindex(b"PK\x01\x02")
    struct.pack_into("<I", body, central + 24, 256)  # uncompressed size
    body = bytes(body)
    assert zipfile.ZipFile(io.BytesIO(body)).infolist()[0].file_size == 256

    def refused():
        with pytest.raises(NpzError, match="CRC"):
            decode_npz(body)

    assert _peak_bytes(refused) < 1 << 20


# ----------------------------------------------------------------------
# Member count, bounded before zipfile parses the directory
# ----------------------------------------------------------------------

_EOCD = struct.Struct("<IHHHHIIH")


def _as_zip64(body: bytes, declared: int | None = None) -> bytes:
    """``body`` with a zip64 end record and locator before its end
    record, whose entry counts then read 0xFFFF (defer to zip64)."""
    end = len(body) - _EOCD.size
    sig, disk, cd_disk, _, count, size, offset, comment = \
        _EOCD.unpack_from(body, end)
    count = count if declared is None else declared
    record = struct.pack("<IQHHIIQQQQ", 0x06064B50, 44, 45, 45, 0, 0,
                         count, count, size, offset)
    locator = struct.pack("<IIQI", 0x07064B50, 0, end, 1)
    return (body[:end] + record + locator
            + _EOCD.pack(sig, disk, cd_disk, 0xFFFF, 0xFFFF, size, offset,
                         comment))


def _with_declared_count(body: bytes, count: int) -> bytes:
    """``body`` whose end record declares ``count`` entries, whatever
    its central directory holds."""
    out = bytearray(body)
    struct.pack_into("<HH", out, len(out) - _EOCD.size + 8, count, count)
    return bytes(out)


@pytest.fixture
def zipfile_opens(monkeypatch):
    """Counts ``zipfile.ZipFile`` constructions from here on."""
    opened = []
    real = zipfile.ZipFile

    def counting(*args, **kwargs):
        opened.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(zipfile, "ZipFile", counting)
    return opened


_TWO = {"grids": np.zeros((1, 3, 4, 4)), "aux": np.zeros((1, 5))}


@pytest.mark.parametrize("make", [
    lambda: _zip({f"m{i}.npy": b"" for i in range(2000)}),
    lambda: _with_declared_count(
        _zip({f"m{i}.npy": b"" for i in range(2000)}), 2),
    lambda: _savez({**_TWO, "extra": np.zeros(1)}),
    lambda: _with_declared_count(_savez(_TWO), 3),
    lambda: _as_zip64(_savez(_TWO), declared=3),
    lambda: _as_zip64(_zip({f"m{i}.npy": b"" for i in range(50)}),
                      declared=2),
], ids=["many-members", "many-members-declared-two", "one-extra",
        "declares-three", "zip64-declares-three", "zip64-many-members"])
def test_more_members_than_allowed_is_400_before_zipfile_opens(
        make, zipfile_opens):
    body = make()
    zipfile_opens.clear()
    with pytest.raises(NpzError) as info:
        decode_npz(body, max_members=2)
    assert info.value.status == 400
    assert "members" in str(info.value)
    assert not zipfile_opens


@pytest.mark.parametrize("zip64", [False, True], ids=["zip32", "zip64"])
def test_member_bound_admits_a_body_at_the_bound(zip64, zipfile_opens):
    body = _savez(_TWO)
    if zip64:
        body = _as_zip64(body)
        _assert_same(_np_load(body), _TWO)
    _assert_same(decode_npz(body, max_members=2), _TWO)
    # With an archive comment the end record is found by search.
    buf = io.BytesIO(body)
    with zipfile.ZipFile(buf, "a") as archive:
        archive.comment = b"PK comment " * 100
    _assert_same(decode_npz(buf.getvalue(), max_members=2), _TWO)
