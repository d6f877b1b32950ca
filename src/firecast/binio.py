"""The one reader of the little-endian WFRS, WFDS and WFCK containers.

Each opens with a 4-byte magic and a u8 version; every read after that is
length-checked, and bytes after the payload are rejected, so a cut, padded
or foreign file raises a FormatError instead of misreading.
"""

from __future__ import annotations

import datetime
import math

import numpy as np

EPOCH = datetime.date(1970, 1, 1)  # dates are stored as i64 days since EPOCH
_EPOCH_ORDINAL = EPOCH.toordinal()


class FormatError(ValueError):
    """A file is not a well-formed instance of its container format."""


class MagicError(FormatError):
    """File does not start with the expected magic."""


class VersionError(FormatError):
    """Unsupported format version byte."""


class TruncatedError(FormatError):
    """File ends before its declared payload does, or runs on past it."""


class Reader:
    """Cursor over the bytes of `path`; opening checks magic and version."""

    def __init__(self, path, magic: bytes, version: int):
        self.path = path
        with open(path, "rb") as f:
            self._data = f.read()
        self._pos = 0
        found = self.take(len(magic))
        if found != magic:
            raise MagicError(f"{path}: bad magic {found!r}, expected {magic!r}")
        found = self.take(1)[0]
        if found != version:
            raise VersionError(f"{path}: unsupported version {found}")

    def _advance(self, n: int) -> int:
        """Claim the next n bytes and return their offset."""
        start = self._pos
        if start + n > len(self._data):
            raise TruncatedError(f"{self.path}: {n} bytes needed at offset {start}, "
                                 f"file ends at {len(self._data)}")
        self._pos = start + n
        return start

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self._data[start:start + n]

    def text(self, n: int) -> str:
        """The next n bytes decoded as UTF-8."""
        start = self._advance(n)
        try:
            return self._data[start:start + n].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: {n} bytes at offset {start} "
                              "are not UTF-8 text") from None

    def unpack(self, fmt):
        """Unpack a struct.Struct at the cursor."""
        return fmt.unpack_from(self._data, self._advance(fmt.size))

    def array(self, dtype, shape) -> np.ndarray:
        """Read-only view of the next prod(shape) items of dtype."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = self._advance(count * dtype.itemsize)
        return np.frombuffer(self._data, dtype, count, start).reshape(shape)

    def date(self, days: int) -> datetime.date:
        try:
            return datetime.date.fromordinal(_EPOCH_ORDINAL + days)
        except (OverflowError, ValueError):
            raise FormatError(f"{self.path}: day {days} is out of range") from None

    def done(self) -> None:
        extra = len(self._data) - self._pos
        if extra:
            raise TruncatedError(f"{self.path}: {extra} trailing bytes after the payload")
