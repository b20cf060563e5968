"""The one CSV dialect of every table the package writes and reads.

RFC 4180 quoting with "\n" line ends: a cell is quoted only when it holds
a comma, a double quote or a line break, so any Unicode in user ids,
tags or emoticons comes back from csv.reader as the cell it was.
"""

from __future__ import annotations

import csv
from types import SimpleNamespace
from typing import Iterable, Sequence

from ._textio import utf8_lines
from .errors import InputFormatError


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # csv.writer quotes only the line-break characters of its own line
        # terminator, so it is given "\r\n" (a lone "\r" gets quoted too)
        # and each row it hands over is written ending in "\n" instead
        lf_file = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lf_file, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header's cells and the (line number, cells) of each non-blank row."""
    reader = csv.reader(line for _, line in utf8_lines(path, newline=""))
    try:
        header = next(reader, [])
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as err:  # e.g. a cell beyond csv.field_size_limit()
        raise InputFormatError(f"{path}:{reader.line_num}: {err}") from None
    return header, rows
