"""On-disk trace cache, one text file per curve.

Format (LF line endings, decimal integers):

    NAGAOLAB-CACHE v1
    <degree> <coefficient-hash>
    p,a
    p,a
    ...

records strictly ascending in p, each the bytes _RECORD % (p, a).  A
TraceCache's state is its records, a dict ascending in p as the file is, so
the cached maximum is its last key.  Records above it are appended (the
append that creates the file writes the header first); a record below it is
merged in by rewriting the file.  Every record ends in a newline, so an
unterminated last line is an append cut short by a crash: it is dropped, and
the file is truncated after the last newline.  A file that holds only the start of its
header is a header write cut short: it is removed and counts as absent.  A
file whose header or fingerprint does not match the requesting curve, or
whose records are out of order, malformed (a line other than _RECORD of the
two integers it reads as) or outside the Weil bound a^2 <= w p
(w = ``f.weil_constant``) is quarantined (renamed with a .corrupt suffix)
and a CacheCorruptError is raised.
"""

from __future__ import annotations

import os
from contextlib import suppress
from typing import TYPE_CHECKING, NoReturn

from .polynomials import IntPolynomial

if TYPE_CHECKING:
    from pathlib import Path

HEADER = "NAGAOLAB-CACHE v1"
_RECORD = b"%d,%d\n"  # one record: what append writes, and the only line _load reads


class CacheCorruptError(Exception):
    def __init__(self, path: Path, reason: str):
        super().__init__(f"corrupt cache file {path}: {reason}")
        self.path = path


def fingerprint(f: IntPolynomial) -> str:
    """Degree plus a decimal coefficient hash, stable across runs."""
    import hashlib

    payload = ",".join(str(c) for c in f.coeffs).encode()
    digest = int.from_bytes(hashlib.sha256(payload).digest()[:16], "big")
    return f"{f.degree} {digest}"


def cache_path(cache_dir: str | os.PathLike, f: IntPolynomial) -> Path:
    from pathlib import Path  # here, not at start-up: a run without a cache never loads it

    deg, digest = fingerprint(f).split()
    return Path(cache_dir) / f"trace_{deg}_{digest}.txt"


class TraceCache:
    """Cached a_p values for one curve.  Single-writer: only the process that
    runs the sweep calls append(), never a forked worker."""

    def __init__(self, cache_dir: str | os.PathLike, f: IntPolynomial):
        self.path = cache_path(cache_dir, f)
        self.poly = f
        self.records: dict[int, int] = {}  # ascending in p, as the file is
        if self.path.exists():
            self._load()

    def quarantine(self, reason: str) -> NoReturn:
        """Rename the file with a .corrupt suffix and raise CacheCorruptError."""
        with suppress(OSError):
            self.path.rename(self.path.with_suffix(self.path.suffix + ".corrupt"))
        raise CacheCorruptError(self.path, reason)

    def _load(self) -> None:
        import io

        data = self.path.read_bytes()
        header = _header(self.poly)
        if header.startswith(data) and data != header:  # a header write cut short
            self.path.unlink(missing_ok=True)
            return
        end = data.rfind(b"\n") + 1  # past the last complete line
        lines = io.BytesIO(data[:end])  # split at LF only, not at CR, VT or FF
        head, fp = header.splitlines(keepends=True)
        if lines.readline() != head:
            self.quarantine("bad header")
        if lines.readline() != fp:
            self.quarantine("fingerprint mismatch")
        last = 0
        weil = self.poly.weil_constant
        for line in lines:
            try:
                p_s, a_s = line.split(b",")
                p, a = int(p_s), int(a_s)
                if line != _RECORD % (p, a):  # int() also reads signs, spaces, "_" and leading zeros
                    raise ValueError
            except ValueError:
                self.quarantine(f"malformed record {_text(line)!r}")
            if p <= last:
                self.quarantine("records not strictly ascending in p")
            if a * a > weil * p:
                self.quarantine(f"record {_text(line)!r} outside the Weil bound")
            last = p
            self.records[p] = a
        if end < len(data):
            os.truncate(self.path, end)

    def get(self, p: int) -> int | None:
        return self.records.get(p)

    def append(self, new_records: list[tuple[int, int]]) -> None:
        """Add the records whose p is not cached yet.

        With none, the file is not touched: every cached p was loaded from
        it or appended to it.  When every new p lies above the cached
        maximum, the records go on in a single buffered append, after the
        header if that append creates the file.  A new p below it (a prime
        the earlier runs did not sweep) is a hole: the records are sorted
        again and written to a temporary file in the same directory, which
        then replaces the cache file, so the file stays strictly ascending
        and a crash leaves either the old or the new file.
        """
        fresh = sorted((p, a) for p, a in new_records if p not in self.records)
        if not fresh:
            return
        top = next(reversed(self.records), 0)
        self.records.update(fresh)
        if fresh[0][0] > top:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as fh:
                if fh.tell() == 0:
                    fh.write(_header(self.poly))
                fh.write(_lines(fresh))
        else:
            self.records = dict(sorted(self.records.items()))
            self._rewrite()

    def _rewrite(self) -> None:
        import shutil
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_header(self.poly))
                fh.write(_lines(self.records.items()))
            shutil.copymode(self.path, tmp)
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise


def _header(f: IntPolynomial) -> bytes:
    return f"{HEADER}\n{fingerprint(f)}\n".encode()


def _text(line: bytes) -> str:  # a record line, quoted without its newline
    return line[:-1].decode(errors="replace")


def _lines(records) -> bytes:
    return b"".join(_RECORD % r for r in records)
