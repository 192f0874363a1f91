"""The one CSV row reader behind every input file.

Annotations, features, predictions, member manifests, landmarks and
compound definitions all walk their records through :func:`open_rows` and
keep only their own header and field checks. The file encoding, blank-row
skipping and line numbering are decided here once.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from .errors import ConfigError

Rows = Iterator[Tuple[int, List[str]]]


@contextmanager
def open_rows(path) -> Iterator[Tuple[Optional[List[str]], Rows]]:
    """Open ``path`` as UTF-8 CSV and yield ``(header, rows)``.

    ``header`` is the first record, None for an empty file. ``rows`` yields
    ``(line, row)`` for every later non-blank record; ``line`` is the file
    line the record ends on, so a quoted field that holds a newline does not
    shift the lines named after it. Bytes that are not UTF-8 and records the
    csv module cannot parse raise ConfigError naming the path.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            yield header, ((reader.line_num, row) for row in reader if row)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
