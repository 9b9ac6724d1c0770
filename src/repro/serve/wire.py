"""Strict ``.npz`` codec for ``repro serve``'s binary request encoding.

``decode_npz`` reads an untrusted request body into arrays;
``encode_npz`` writes a reply that ``np.load`` reads back.  They replace
``np.load``/``np.savez`` on the request path, where those two cost about
as much CPU as the forwards they wrap: ``np.load`` parses every ``.npy``
header with ``ast.literal_eval``, ``np.savez`` goes through
``zipfile``'s writer.

The decoder keeps the stdlib :mod:`zipfile` reader for the container
(central directory, zip64, deflate, CRC) and accepts only what a numpy
writer produces for plain numeric arrays:

* when the caller bounds it, at most ``max_members`` members, counted
  from the end record and the central directory's entry headers before
  :class:`zipfile.ZipFile` builds a ``ZipInfo`` for every entry;
* members are STORED or DEFLATED, unencrypted, uniquely named
  ``<key>.npy``, and declare at most :data:`MAX_BYTES` decoded bytes in
  total (checked on the central directory, before any member is read;
  each read is bounded by its member's declared size);
* each member is ``.npy`` format version 1.0 or 2.0 whose header is
  at most 10000 bytes (numpy's ``max_header_size``) and exactly
  ``{'descr': ..., 'fortran_order': ..., 'shape': (...), }`` with a
  little-, big- or no-endian ``descr`` of kind b/i/u/f, a shape of at
  most 32 dims of at most 19 digits each, and whose data length is
  shape × itemsize.

It returns read-only ``np.frombuffer`` views over the member bytes.
Anything else, whatever exception the bytes provoke on the way, raises
:class:`NpzError` (:class:`NpzTooLarge` for the size cap), which the
service answers with its ``status``.

The encoder builds a STORED zip by hand with :mod:`struct` and
:func:`zlib.crc32`; each member is a version 1.0 ``.npy`` whose header
is padded so the data starts on a 64-byte boundary, as numpy pads it.
"""

from __future__ import annotations

import io
import math
import re
import struct
import zipfile
import zlib

import numpy as np

__all__ = ["MAX_BYTES", "NpzError", "NpzTooLarge", "decode_npz",
           "encode_npz"]

MAX_BYTES = 32 * 1024 * 1024
"""Cap on a request body and on the total decoded size of its members."""


class NpzError(ValueError):
    """The body is not an npz of plain numeric arrays (HTTP 400)."""

    status = 400


class NpzTooLarge(NpzError):
    """The members declare more than :data:`MAX_BYTES` decoded (HTTP 413)."""

    status = 413


_MAGIC = b"\x93NUMPY"
_MAX_HEADER = 10000  # numpy's own default max_header_size
# Dims are bounded before any int() sees them: at most 32 of them, each
# under 10**19, so neither int() nor math.prod can be made to crawl.
_DIM = r"(?:0|[1-9][0-9]{0,18})"
_HEADER = re.compile(
    r"\{'descr': '([<>|][biuf][0-9]{1,2})', "
    r"'fortran_order': (False|True), "
    rf"'shape': \((|{_DIM},|{_DIM}(?:, {_DIM}){{1,31}})\), \}} *\n")


def _parse_npy(key: str, raw: bytes) -> np.ndarray:
    """One ``.npy`` member's bytes as a read-only array view."""
    if raw[:6] != _MAGIC or len(raw) < 10:
        raise NpzError(f"member {key!r} is not a .npy file")
    version = (raw[6], raw[7])
    if version == (1, 0):
        head = 10
    elif version == (2, 0):
        head = 12
    else:
        raise NpzError(f"member {key!r}: unsupported .npy version "
                       f"{version[0]}.{version[1]}")
    length = int.from_bytes(raw[8:head], "little")
    if length > _MAX_HEADER:
        raise NpzError(f"member {key!r}: .npy header of {length} bytes, "
                       f"over {_MAX_HEADER}")
    start = head + length
    match = (_HEADER.fullmatch(raw[head:start].decode("latin-1"))
             if start <= len(raw) else None)
    if match is None:
        raise NpzError(f"member {key!r}: not a plain numeric .npy header")
    descr, fortran, dims = match.groups()
    dtype = np.dtype(descr)
    shape = tuple(int(d) for d in dims.split(",") if d)
    count = math.prod(shape)
    if count * dtype.itemsize != len(raw) - start:
        raise NpzError(f"member {key!r}: {len(raw) - start} data bytes for "
                       f"shape {shape} of {dtype}")
    flat = np.frombuffer(raw, dtype, count, start)
    if fortran == "True":
        return flat.reshape(shape[::-1]).transpose()
    return flat.reshape(shape)


def decode_npz(body: bytes,
               max_members: int | None = None) -> dict[str, np.ndarray]:
    """Decode an untrusted npz body into ``{key: array}``.

    Raises :class:`NpzError` (or :class:`NpzTooLarge`) on anything but
    an npz of plain numeric arrays, or on more than ``max_members``
    members when that is given.
    """
    try:
        if max_members is not None:
            _check_member_count(body, max_members)
        return _decode(body)
    except NpzError:
        raise
    except Exception as exc:  # noqa: BLE001 — untrusted bytes: where
        # they break decides the error (BadZipFile, zlib.error, EOFError,
        # a dtype numpy has no type for such as '<f3', ...).
        raise NpzError(f"{type(exc).__name__}: {exc}") from None


# Zip records (APPNOTE 4.3.12, 4.3.14, 4.3.15, 4.3.16).
_CENTRAL_SIG = b"PK\x01\x02"
_END_SIG, _END64_SIG, _LOCATOR_SIG = b"PK\x05\x06", b"PK\x06\x06", b"PK\x06\x07"
_END64 = struct.Struct("<IQHHIIQQQQ")
_LOCATOR_SIZE = 20
_CENTRAL_SIZE = 46


def _check_member_count(body: bytes, limit: int) -> None:
    """Refuse a body with more than ``limit`` members, in O(limit) work.

    :class:`zipfile.ZipFile` builds a ``ZipInfo`` for every entry of the
    central directory before anything can be checked, so 100k empty
    members cost ~1 s.  This finds the end record (and the zip64 one
    before it) as :mod:`zipfile` does, refuses a declared entry count
    over ``limit``, then walks at most ``limit + 1`` entry headers, since
    :mod:`zipfile` reads the directory by its byte size and ignores the
    declared count.  A body it cannot follow is left for the reader to
    refuse.
    """
    end = len(body) - _END.size
    if end < 0:
        return
    if body[end:end + 4] != _END_SIG or body[-2:] != b"\0\0":
        end = body.rfind(_END_SIG, max(end - 0xFFFF - 1, 0))
        if end < 0 or end + _END.size > len(body):
            return
    _, _, _, on_disk, declared, size, _, _ = _END.unpack_from(body, end)
    directory_end = end
    locator = end - _LOCATOR_SIZE
    record = locator - _END64.size
    if (record >= 0 and body[locator:locator + 4] == _LOCATOR_SIG
            and body[record:record + 4] == _END64_SIG):
        on_disk, declared, size = _END64.unpack_from(body, record)[6:9]
        directory_end = record
    if max(on_disk, declared) > limit:
        raise NpzError(f"body declares {max(on_disk, declared)} members, "
                       f"over {limit}")
    at = directory_end - size
    if at < 0:
        return
    for _ in range(limit + 1):
        if (at + _CENTRAL_SIZE > directory_end
                or body[at:at + 4] != _CENTRAL_SIG):
            return
        names, extra, comment = struct.unpack_from("<HHH", body, at + 28)
        at += _CENTRAL_SIZE + names + extra + comment
    raise NpzError(f"central directory holds more than {limit} members")


def _decode(body: bytes) -> dict[str, np.ndarray]:
    with zipfile.ZipFile(io.BytesIO(body)) as archive:
        members = archive.infolist()
        names = [info.filename for info in members]
        if len(set(names)) != len(names):
            raise NpzError("duplicate member names")
        total = 0
        for info in members:
            if not info.filename.endswith(".npy"):
                raise NpzError(f"member {info.filename!r} is not a .npy")
            if info.compress_type not in (zipfile.ZIP_STORED,
                                          zipfile.ZIP_DEFLATED):
                raise NpzError(f"member {info.filename!r}: unsupported "
                               f"compression {info.compress_type}")
            if info.flag_bits & 0x1:
                raise NpzError(f"member {info.filename!r} is encrypted")
            total += info.file_size
        if total > MAX_BYTES:
            raise NpzTooLarge(f"members declare {total} decoded bytes, "
                              f"over {MAX_BYTES}")
        arrays = {}
        for info in members:
            # A bounded read: a member inflates no further than it
            # declares, and reading all of it checks its CRC.
            with archive.open(info) as member:
                raw = member.read(info.file_size)
            if len(raw) != info.file_size:
                raise NpzError(f"member {info.filename!r} is truncated")
            key = info.filename[:-4]
            arrays[key] = _parse_npy(key, raw)
    return arrays


def _npy_header(dtype: np.dtype, shape: tuple) -> bytes:
    text = (f"{{'descr': {dtype.str!r}, 'fortran_order': False, "
            f"'shape': {shape!r}, }}")
    pad = -(len(_MAGIC) + 4 + len(text) + 1) % 64
    return (_MAGIC + b"\x01\x00"
            + struct.pack("<H", len(text) + pad + 1)
            + (text + " " * pad + "\n").encode("latin-1"))


# Zip records (APPNOTE 4.3.7, 4.3.12, 4.3.16).
_LOCAL = struct.Struct("<IHHHHHIIIHH")
_CENTRAL = struct.Struct("<IHHHHHHIIIHHHHHII")
_END = struct.Struct("<IHHHHIIH")
_DOS_DATE = (1 << 5) | 1  # 1980-01-01, the earliest DOS date


def encode_npz(arrays: dict[str, np.ndarray]) -> bytes:
    """``arrays`` as a STORED npz that ``np.load`` reads back."""
    parts: list[bytes] = []
    central: list[bytes] = []
    offset = 0
    for key, value in arrays.items():
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise ValueError(f"{key}: object arrays have no .npy form here")
        header = _npy_header(array.dtype, array.shape)
        data = array.tobytes()
        crc = zlib.crc32(data, zlib.crc32(header))
        size = len(header) + len(data)
        name = f"{key}.npy".encode("ascii")
        parts += [_LOCAL.pack(0x04034B50, 20, 0, zipfile.ZIP_STORED, 0,
                              _DOS_DATE, crc, size, size, len(name), 0),
                  name, header, data]
        central += [_CENTRAL.pack(0x02014B50, 20, 20, 0, zipfile.ZIP_STORED,
                                  0, _DOS_DATE, crc, size, size, len(name),
                                  0, 0, 0, 0, 0, offset), name]
        offset += _LOCAL.size + len(name) + size
    directory = b"".join(central)
    count = len(arrays)
    parts += [directory, _END.pack(0x06054B50, 0, 0, count, count,
                                   len(directory), offset, 0)]
    return b"".join(parts)
