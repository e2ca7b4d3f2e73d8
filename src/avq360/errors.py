"""Exception hierarchy shared across the toolkit, the UTF-8 check every
text reader reports through, the check that an input path names a file,
the replace-on-success write every output goes through, and the check
that a path could be written before any work is done for it."""

import errno
import io
import os
from contextlib import ExitStack, contextmanager, suppress
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
def replaced_when_written(path, mode="wb", staged: ExitStack | None = None, **open_kwargs):
    """Create the parent directories of ``path``, open ``<path>.tmp`` and
    yield it as a standard buffered file, a text one for mode "w" (with
    ``open_kwargs`` such as ``newline`` and ``encoding``); rename it over
    ``path`` once the block completes. Given an ExitStack ``staged``, this
    is entered on that stack instead: the file is closed when the block
    completes and renamed only when the stack closes, so no output staged
    on one stack replaces its path before every one of them is written.
    An exception before the rename removes the temporary file and the
    directories made for it that are left empty, and leaves an earlier
    file at ``path`` as it was. An OSError of the mkdir, open or rename,
    or of a write or the close under the buffer, is ValidationError
    "cannot write <path>"; one of other code in the block propagates."""
    if staged is not None:
        f = staged.enter_context(replaced_when_written(path, mode, **open_kwargs))
        yield f
        f.close()
        return
    tmp, made = Path(f"{path}.tmp"), []
    try:
        with _cannot_write(path):
            made = list(takewhile(lambda d: not d.exists(), tmp.absolute().parents))
            tmp.parent.mkdir(parents=True, exist_ok=True)
            f = io.BufferedWriter(_RawOutput(path, open(tmp, "wb", buffering=0)))
        try:
            if mode == "w":
                f = io.TextIOWrapper(f, **open_kwargs)
            yield f
            f.close()
            with _cannot_write(path):
                tmp.replace(path)
        except BaseException:
            with suppress(ValidationError):  # the exception propagating says more
                f.close()
            tmp.unlink(missing_ok=True)
            raise
    except BaseException:
        for d in made:
            with suppress(OSError):  # not empty: another output was written there
                d.rmdir()
        raise


class _RawOutput(io.RawIOBase):
    """The unbuffered file under the buffer ``replaced_when_written``
    yields: an OSError of a write or of the close is "cannot write"."""

    def __init__(self, path, file):
        self.path, self.file = path, file

    def writable(self) -> bool:
        return True

    def write(self, data):
        with _cannot_write(self.path):
            return self.file.write(data)

    def close(self) -> None:
        super().close()
        with _cannot_write(self.path):
            self.file.close()


@contextmanager
def _cannot_write(path):
    try:
        yield
    except OSError as e:
        raise _unwritable(path, e) from e


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
