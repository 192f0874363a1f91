"""The one way input files are opened and the one way run state is written.

Annotations, features, predictions, member manifests, landmarks and
compound definitions all walk their records through :func:`open_rows` and
keep only their own header and field checks; the feature reader's plain-file
path reads the same text through :func:`open_text`. The file encoding,
blank-row skipping and line numbering are decided here once.

Checkpoints, ``config.txt`` and ``training_log.csv`` are written through
:func:`atomic_write`, so a write that fails leaves the file as it was.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from typing import IO, Iterator, List, Optional, Tuple

from .errors import ConfigError

Rows = Iterator[Tuple[int, List[str]]]


def open_text(path) -> IO[str]:
    """Open ``path`` for reading as UTF-8 text with its line endings kept."""
    return open(path, "r", encoding="utf-8", newline="")


@contextmanager
def open_rows(path) -> Iterator[Tuple[Optional[List[str]], Rows]]:
    """Open ``path`` as UTF-8 CSV and yield ``(header, rows)``.

    ``header`` is the first record, None for an empty file. ``rows`` yields
    ``(line, row)`` for every later non-blank record; ``line`` is the file
    line the record ends on, so a quoted field that holds a newline does not
    shift the lines named after it. Bytes that are not UTF-8 and records the
    csv module cannot parse raise ConfigError naming the path.
    """
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            yield header, ((reader.line_num, row) for row in reader if row)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc


@contextmanager
def atomic_write(path, mode: str, **kwargs) -> Iterator[IO]:
    """Yield a file opened with ``open(..., mode, **kwargs)`` on a temporary
    name beside ``path``, and move it onto ``path`` with ``os.replace`` once
    the block ends. If the block raises, the temporary file is removed and
    ``path`` keeps its old bytes, or stays absent."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
