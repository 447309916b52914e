"""The binary container behind every file format of the package.

A container starts with a 4-byte magic and a little-endian u32 format
version.  Each format then lays out its own sequence of fixed-size struct
fields, u16-length-prefixed UTF-8 strings and raw little-endian arrays.
Model checkpoints (VTNM) and optimizer state (VTNO) share one layout after
the version: a u32-length-prefixed JSON header, a u32 block count, then per
block a u16-prefixed name, a u8 rank, rank u32 dimensions and the float64
values in C order.

`Reader` checks every length against the bytes that remain and raises
`FormatError` for anything a well-formed file cannot contain; `writing`
writes through a temporary file that replaces the target only once it is
complete, so no reader ever sees a partly written file.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import typing
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, NoReturn

import numpy as np

from .errors import ConfigError, FormatError


def fail(path, message: str) -> NoReturn:
    raise FormatError(f"{path}: {message}")


def parse_json(path, data: bytes) -> dict:
    """A UTF-8 JSON object whose numbers are all finite."""

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            fail(path, f"non-finite number {text} in JSON")
        return value

    def constant(text: str) -> NoReturn:
        fail(path, f"non-finite number {text} in JSON")

    try:
        obj = json.loads(data.decode("utf-8"), parse_float=finite, parse_constant=constant)
    except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
        fail(path, f"bad JSON: {exc}")
    if not isinstance(obj, dict):
        fail(path, f"JSON top level is {type(obj).__name__}, not an object")
    return obj


def _mismatch(found, kinds: tuple[type, ...]) -> str | None:
    """Why found is not of exactly one of kinds (so a JSON true is not
    accepted where an int is expected), or None if it is."""
    if type(found) in kinds:
        return None
    return f"is {type(found).__name__}, expected {' or '.join(k.__name__ for k in kinds)}"


def value(path, mapping: dict, key: str, *kinds: type):
    """mapping[key], which must be present and of exactly one of kinds."""
    if key not in mapping:
        fail(path, f"missing key {key!r}")
    why = _mismatch(mapping[key], kinds)
    if why:
        fail(path, f"{key!r} {why}")
    return mapping[key]


@functools.cache
def _field_kinds(cls) -> dict[str, tuple[type, ...]]:
    """The types each field of dataclass cls takes: those of its annotation,
    plus int for a float field."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        types = typing.get_args(hint) or (hint,)
        kinds[name] = types + ((int,) if float in types else ())
    return kinds


def check_fields(obj, where: str, **ranges: str) -> None:
    """Raise ConfigError unless every field of dataclass obj holds a value of
    its annotated type, by value's rule (an int also passes for a float, and
    None for an optional field), every float is finite, and every field
    named in ranges lies in its interval, written like "[0, 1)" or
    "(0, inf)"."""
    for name, kinds in _field_kinds(type(obj)).items():
        found = getattr(obj, name)
        why = _mismatch(found, kinds)
        if why is None and type(found) is float and not math.isfinite(found):
            why = "is not finite"
        if why is None and found is not None and name in ranges:
            interval = ranges[name]
            lo, hi = (float(end) for end in interval[1:-1].split(","))
            above = lo < found if interval[0] == "(" else lo <= found
            below = found < hi if interval[-1] == ")" else found <= hi
            if not (above and below):
                why = f"is outside {interval}"
        if why:
            raise ConfigError(f"{where}: {name}={found!r} {why}")


class Reader:
    """Bounds-checked cursor over the bytes of one container file."""

    def __init__(self, path, magic: bytes, version: int):
        self.path = path
        self.raw = Path(path).read_bytes()
        if self.raw[:len(magic)] != magic:
            fail(path, f"bad magic {self.raw[:len(magic)]!r}")
        self.off = len(magic)
        (found,) = self.fields("<I")
        if found != version:
            fail(path, f"unsupported version {found}")

    def _advance(self, n: int) -> int:
        """Claim the next n bytes and return their offset."""
        start = self.off
        if n > len(self.raw) - start:
            fail(self.path, f"truncated: {n} bytes needed at offset {start}, "
                            f"{len(self.raw) - start} left")
        self.off = start + n
        return start

    def fields(self, fmt: str) -> tuple:
        values = struct.unpack_from(fmt, self.raw, self._advance(struct.calcsize(fmt)))
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            fail(self.path, f"non-finite field in {values}")
        return values

    def string(self) -> str:
        (n,) = self.fields("<H")
        start = self._advance(n)
        try:
            return self.raw[start:self.off].decode("utf-8")
        except UnicodeDecodeError as exc:
            fail(self.path, f"bad UTF-8 string at offset {start}: {exc.reason}")

    def array(self, dtype: str, shape: tuple[int, ...], finite: bool = True) -> np.ndarray:
        """A float64 copy of the next raw array of the given dtype and shape."""
        dt = np.dtype(dtype)
        count = math.prod(shape)
        start = self._advance(count * dt.itemsize)
        values = np.frombuffer(self.raw, dtype=dt, count=count, offset=start)
        if finite and not np.isfinite(values).all():
            fail(self.path, f"non-finite value in the array at offset {start}")
        try:
            return values.astype(np.float64).reshape(shape)
        except ValueError:  # too many dimensions, or a size-0 shape too large
            fail(self.path, f"unsupported array shape {shape} at offset {start}")

    def header(self) -> dict:
        (n,) = self.fields("<I")
        start = self._advance(n)
        return parse_json(self.path, self.raw[start:self.off])

    def end(self) -> None:
        if self.off != len(self.raw):
            fail(self.path, f"{len(self.raw) - self.off} bytes after the end of the content")


class Writer:
    """Appends container fields to an open binary file."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh

    def fields(self, fmt: str, *values) -> None:
        self._fh.write(struct.pack(fmt, *values))

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        self.fields("<H", len(data))
        self._fh.write(data)

    def array(self, arr: np.ndarray, dtype: str) -> None:
        self._fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())

    def header(self, header: dict) -> None:
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        self.fields("<I", len(blob))
        self._fh.write(blob)


@contextmanager
def replacing(path) -> Iterator[BinaryIO]:
    """A binary file that atomically replaces path.

    What is written goes to a temporary file in the same directory, which
    replaces path only after the with-block completes; if anything raises,
    path keeps its previous content and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def writing(path, magic: bytes, version: int) -> Iterator[Writer]:
    """Write a container to path atomically (see ``replacing``)."""
    with replacing(path) as fh:
        writer = Writer(fh)
        fh.write(magic)
        writer.fields("<I", version)
        yield writer


def write_json_blocks(writer: Writer, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """JSON header, then every array as a named float64 block."""
    writer.header(header)
    writer.fields("<I", len(arrays))
    for name, arr in arrays.items():
        writer.string(name)
        writer.fields("<B", arr.ndim)
        writer.fields(f"<{arr.ndim}I", *arr.shape)
        writer.array(arr, "<f8")


def read_json_blocks(reader: Reader) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON header and named float64 blocks that end the file.

    Block values may be non-finite: a checkpoint written when training
    diverges keeps the weights that produced the non-finite loss.
    """
    header = reader.header()
    (count,) = reader.fields("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = reader.string()
        if name in arrays:
            fail(reader.path, f"duplicate block {name!r}")
        (rank,) = reader.fields("<B")
        arrays[name] = reader.array("<f8", reader.fields(f"<{rank}I"), finite=False)
    reader.end()
    return header, arrays
