"""The one way input files are opened and the one way run state is written.

Annotations, features, predictions, member manifests, landmarks and
compound definitions all walk their records through :func:`open_rows` and
keep only their own header and field checks; the feature reader's plain-file
path reads the same text through :func:`open_text`, and config, spec and
relatedness files their lines through :func:`read_lines`. The file
encoding, blank-row skipping and line numbering are decided here once.

Every file the program writes goes through :func:`atomic_write`, so a
write that fails leaves the file as it was: a training run's checkpoint,
``config.txt`` and ``training_log.csv``, generated annotation and feature
files, metric reports, prediction files, and the outputs of the
``zero-shot``, ``align`` and ``spectrogram`` commands. Files that belong
together, as ``gen-data``'s feature and annotation files do, are written
as a pair through :func:`atomic_replace`: neither is moved into place
until both are complete.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from typing import IO, Iterator, List, Optional, Tuple, Type

from .errors import AffectKitError, ConfigError

Rows = Iterator[Tuple[int, List[str]]]


def open_text(path) -> IO[str]:
    """Open ``path`` for reading as UTF-8 text with its line endings kept."""
    return open(path, "r", encoding="utf-8", newline="")


def _split_lines(text: str) -> List[str]:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _decode(path, data: bytes, error: Type[AffectKitError]) -> str:
    """``data`` as UTF-8 text; a byte that is not UTF-8 raises ``error`` at
    the ``path:line`` it is on, lines ending as :func:`read_lines` ends them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_split_lines(data[: exc.start].decode("utf-8")))
        raise error(f"{path}:{line}: not UTF-8 text: {exc}") from exc


def read_lines(path, error: Type[AffectKitError] = ConfigError) -> List[str]:
    """The lines of the UTF-8 text file ``path``, without their endings;
    "\n", "\r\n" and "\r" each end a line. A byte that is not UTF-8 raises
    ``error`` at the ``path:line`` it is on."""
    with open(path, "rb") as fh:
        return _split_lines(_decode(path, fh.read(), error))


@contextmanager
def open_rows(path) -> Iterator[Tuple[Optional[List[str]], Rows]]:
    """Open ``path`` as UTF-8 CSV and yield ``(header, rows)``.

    ``header`` is the first record, None for an empty file. ``rows`` yields
    ``(line, row)`` for every later non-blank record; ``line`` is the file
    line the record ends on, so a quoted field that holds a newline does not
    shift the lines named after it. A byte that is not UTF-8 raises
    ConfigError at the ``path:line`` it is on, and a record the csv module
    cannot parse at the line it ends on.
    """
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            yield header, ((reader.line_num, row) for row in reader if row)
        except UnicodeDecodeError as exc:
            # the decoder's offset is within its chunk: find the line in the file
            with open(path, "rb") as raw:
                _decode(path, raw.read(), ConfigError)
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc


@contextmanager
def atomic_replace(*paths) -> Iterator[List[str]]:
    """Yield a temporary name beside each of ``paths`` for the block to
    write. Once the block ends, so that every temporary file is complete,
    each is moved onto its path with ``os.replace``. If the block raises,
    the temporary files are removed and every path keeps its old bytes, or
    stays absent."""
    tmps = [f"{os.fspath(path)}.{os.getpid()}.tmp" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


@contextmanager
def atomic_write(path, mode: str, **kwargs) -> Iterator[IO]:
    """Yield a file opened with ``open(..., mode, **kwargs)`` on a temporary
    name beside ``path``, and move it onto ``path`` once the block ends
    (see :func:`atomic_replace`)."""
    with atomic_replace(path) as (tmp,):
        with open(tmp, mode, **kwargs) as fh:
            yield fh
