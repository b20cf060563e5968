"""The one CSV dialect of every table the package writes and reads.

RFC 4180 quoting with "\n" line ends: a cell is quoted only when it holds
a comma, a double quote or a line break, so any Unicode in user ids,
tags or emoticons comes back from csv.reader as the cell it was. quote
is the whole write dialect for rows of two or more cells; the csv
module's writer also quotes a lone empty cell, and no table has one
column.
"""

from __future__ import annotations

import csv
import re
from typing import Callable, Iterable, Sequence, TypeVar

from ._textio import utf8_lines
from .errors import InputFormatError

T = TypeVar("T")

_NEEDS_QUOTES = re.compile('[,"\r\n]')


def write_csv(path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write the quoted header, then lines, each a row's quoted cells joined by commas, ending in "\n"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(quote, header)) + "\n")
        fh.writelines(lines)


def quote(cell: str) -> str:
    """cell as a CSV writer writes it in a row of two or more cells."""
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def read_csv(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header's cells and the (line number, cells) of each non-blank row."""
    reader = csv.reader(line for _, line in utf8_lines(path, newline=""))
    try:
        header = next(reader, [])
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as err:  # e.g. a cell beyond csv.field_size_limit()
        raise InputFormatError(f"{path}:{reader.line_num}: {err}") from None
    return header, rows


def read_keyed_rows(path, header: list[str], rows, parse: Callable[[list[str]], T], error) -> dict[str, T]:
    """parse(cells) of each of read_csv's rows, keyed on its user_id cell, in file order.

    A row whose cell count differs from the header's, whose user_id is
    empty or an earlier line holds, or that parse refuses with ValueError
    raises the exception class error, naming path:line.
    """
    parsed: dict[str, T] = {}
    first_line: dict[str, int] = {}
    for line_no, cells in rows:
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells, header has {len(header)}")
            if not cells[0]:
                raise ValueError("empty user_id")
            if cells[0] in first_line:
                raise ValueError(f"user_id {cells[0]!r} repeats line {first_line[cells[0]]}")
            parsed[cells[0]] = parse(cells)
        except ValueError as err:
            raise error(f"{path}:{line_no}: {err}") from None
        first_line[cells[0]] = line_no
    return parsed
