"""On-disk trace cache, one text file per curve.

Format (LF line endings, decimal integers):

    NAGAOLAB-CACHE v1
    <degree> <coefficient-hash>
    p,a
    p,a
    ...

records strictly ascending in p.  Records above the cached maximum are
appended; a record below it is merged in by rewriting the file.  Every record
ends in a newline, so an unterminated last line is an append cut short by a
crash: it is dropped, and the file is truncated after the last newline.  A
file whose header or fingerprint does not match the requesting curve, or
whose records are out of order or malformed (a byte that is not UTF-8
included), is quarantined (renamed with a .corrupt suffix) and a
CacheCorruptError is raised.
"""

from __future__ import annotations

import os
from pathlib import Path

from .polynomials import IntPolynomial

HEADER = "NAGAOLAB-CACHE v1"


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
    deg, digest = fingerprint(f).split()
    return Path(cache_dir) / f"trace_{deg}_{digest}.txt"


def _quarantine(path: Path) -> None:
    target = path.with_suffix(path.suffix + ".corrupt")
    try:
        path.rename(target)
    except OSError:
        pass


class TraceCache:
    """Cached a_p values for one curve.  Single-writer: only the process that
    runs the sweep calls append(), never a forked worker."""

    def __init__(self, cache_dir: str | os.PathLike, f: IntPolynomial):
        self.path = cache_path(cache_dir, f)
        self.poly = f
        self.records: dict[int, int] = {}
        self._max_p = 0
        if self.path.exists():
            self._load()

    def _fail(self, reason: str):
        _quarantine(self.path)
        raise CacheCorruptError(self.path, reason)

    def _load(self) -> None:
        data = self.path.read_bytes()
        end = data.rfind(b"\n") + 1  # past the last complete line
        lines = data[:end].decode(errors="replace").splitlines()
        if not lines or lines[0] != HEADER:
            self._fail("bad header")
        if len(lines) < 2 or lines[1] != fingerprint(self.poly):
            self._fail("fingerprint mismatch")
        last = 0
        for line in lines[2:]:
            try:
                p_s, a_s = line.split(",")
                p, a = int(p_s), int(a_s)
            except ValueError:
                self._fail(f"malformed record {line!r}")
            if p <= last:
                self._fail("records not strictly ascending in p")
            last = p
            self.records[p] = a
        self._max_p = last
        if end < len(data):
            os.truncate(self.path, end)

    def get(self, p: int) -> int | None:
        return self.records.get(p)

    def append(self, new_records: list[tuple[int, int]]) -> None:
        """Add the records whose p is not cached yet.

        When every new p lies above the cached maximum, the records go on in
        a single buffered append.  A new p below it (a prime the earlier
        runs did not sweep) is a hole: the sorted merge of old and new
        records is written to a temporary file in the same directory, which
        then replaces the cache file, so the file stays strictly ascending
        and a crash leaves either the old or the new file.
        """
        fresh = sorted((p, a) for p, a in new_records if p not in self.records)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self.path.write_text(_header(self.poly))
        if not fresh:
            return
        self.records.update(fresh)
        if fresh[0][0] > self._max_p:
            with open(self.path, "a", newline="\n") as fh:
                fh.write(_lines(fresh))
        else:
            self._rewrite()
        self._max_p = max(self._max_p, fresh[-1][0])

    def _rewrite(self) -> None:
        import shutil
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(_header(self.poly))
                fh.write(_lines(sorted(self.records.items())))
            shutil.copymode(self.path, tmp)
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise


def _header(f: IntPolynomial) -> str:
    return HEADER + "\n" + fingerprint(f) + "\n"


def _lines(records) -> str:
    return "".join(f"{p},{a}\n" for p, a in records)
