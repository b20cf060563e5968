"""How every text input is read: UTF-8, a line at a time.

Files are opened with errors="surrogateescape", so a byte sequence that
is not UTF-8 becomes lone surrogates (U+DC80..U+DCFF) in the line that
holds it instead of aborting the whole read. check_utf8 then fails for
that line alone, and each reader reports it as it reports any other bad
line. Lines split as in text mode: at "\\n", "\\r\\n" and "\\r".
"""

from __future__ import annotations

from typing import Iterator

from .errors import InputFormatError


def open_text(path, newline: str | None = None):
    return open(path, encoding="utf-8", errors="surrogateescape", newline=newline)


def check_utf8(line: str) -> None:
    """Raise ValueError if line was decoded from bytes that are not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as err:
        byte = ord(line[err.start]) - 0xDC00  # surrogateescape maps byte b to U+DC00 + b
        raise ValueError(f"invalid UTF-8 byte 0x{byte:02x} at character {err.start + 1}") from None


def utf8_lines(path, newline: str | None = None) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line; one that is not UTF-8 raises InputFormatError naming path:line."""
    with open_text(path, newline=newline) as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                check_utf8(line)
            except ValueError as err:
                raise InputFormatError(f"{path}:{line_no}: {err}") from None
            yield line_no, line
