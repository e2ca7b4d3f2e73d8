"""Exception hierarchy shared across the toolkit, the UTF-8 check every
text reader reports through, the check that an input path names a file,
the replace-on-success write every table, checkpoint and feature writer
goes through, and the check that a path could be written before any work
is done for it."""

import errno
import os
from contextlib import contextmanager, suppress
from itertools import takewhile
from pathlib import Path


class Avq360Error(Exception):
    """Base class for all toolkit errors."""


class ValidationError(Avq360Error):
    """A precondition or configuration constraint was violated."""


class DataError(Avq360Error):
    """Input data could not be parsed or failed an integrity check."""


class NumericError(Avq360Error):
    """A computation produced NaN/Inf or an otherwise unusable result."""


def read_text_utf8(path) -> str:
    """The whole file as text, line endings as they are; bytes that are
    not UTF-8 raise ``not_utf8``'s DataError."""
    with open(path, encoding="utf-8", newline="") as f:
        try:
            return f.read()
        except UnicodeDecodeError:
            raise not_utf8(path) from None


def not_utf8(path) -> DataError:
    """The DataError "<path>: line N: not valid UTF-8 text at byte B" for
    the first byte of the file that is not UTF-8, which a text read found;
    lines end at \\n, \\r\\n or \\r, as a text read splits them."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        at = e.start
        line = (1 + data.count(b"\n", 0, at) + data.count(b"\r", 0, at)
                - data.count(b"\r\n", 0, at))
        return DataError(f"{path}: line {line}: not valid UTF-8 text at byte {at}")
    return DataError(f"{path}: not valid UTF-8 text")  # rewritten since its read failed


def require_file(path, what: str, error=ValidationError) -> Path:
    """``path`` as a Path when it names a regular file; otherwise raise
    ``error`` "<what> is a directory: <path>" or "<what> not found: <path>"."""
    path = Path(path)
    if path.is_dir():
        raise error(f"{what} is a directory: {path}")
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    return path


@contextmanager
def replaced_when_written(path, mode="wb", **open_kwargs):
    """Create the parent directories of ``path``, open ``<path>.tmp`` for
    writing and yield the file; rename it over ``path`` once the block
    completes (a caller may close the file and leave that to the ExitStack
    it entered this on). An exception before then removes the temporary
    file and the directories made for it that are left empty, and leaves
    an earlier file at ``path`` as it was. An OSError of its mkdir, open,
    write, close or rename is ValidationError "cannot write <path>"."""
    tmp, made, f = Path(f"{path}.tmp"), [], _Output(path)
    try:
        made = f.do(list, takewhile(lambda d: not d.exists(), tmp.absolute().parents))
        f.do(tmp.parent.mkdir, parents=True, exist_ok=True)
        f.file = f.do(open, tmp, mode, **open_kwargs)
        try:
            yield f
            f.close()
            f.do(tmp.replace, path)
        except BaseException:
            with suppress(OSError):  # the exception propagating says more
                f.file.close()
            tmp.unlink(missing_ok=True)
            raise
    except BaseException:
        for d in made:
            with suppress(OSError):  # not empty: another output was written there
                d.rmdir()
        raise


class _Output:
    """The file ``replaced_when_written`` yields: an OSError is "cannot write"."""

    def __init__(self, path):
        self.path, self.file = path, None

    def do(self, call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except OSError as e:
            raise _unwritable(self.path, e) from e

    def write(self, data):
        return self.do(self.file.write, data)

    def close(self) -> None:
        self.do(self.file.close)


def require_writable_location(path) -> None:
    """Raise the ValidationError "cannot write <path>: <reason>" that
    ``replaced_when_written`` would raise when the nearest existing
    ancestor of ``path`` is not a directory, or ``path`` is one, so a
    command can fail before its work, not at its first write. Creates
    nothing."""
    path = Path(path)
    if path.is_dir():
        raise _unwritable(path, IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR)))
    ancestor = next(p for p in path.absolute().parents if p.exists())
    if not ancestor.is_dir():
        raise _unwritable(path, NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR)))


def _unwritable(path, e: OSError) -> ValidationError:
    return ValidationError(f"cannot write {path}: {e.strerror or e}")
