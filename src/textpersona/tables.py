"""Table-shaped artifacts and their CSV and JSON writers.

Every artifact is a CSV plus an equivalent JSON document, written
compactly (no indentation or spaces; only report's manifest.json is
indented). Numeric cells are written with 6 decimal places, undefined
values as an empty CSV cell / JSON null, and all row orders are fixed,
so a bundle built twice from the same inputs is byte-identical. Every
CSV, and model.write_scores_csv's too, goes through _csvio.write_csv:
the header cells and every row cell that may need quoting pass
_csvio.quote.

features.csv and features.json format each distinct frequency once per
file, not once per cell (FeatureTable). That is exact because a
frequency is a finite float k * 100 / n >= 0, never -0.0, so equal
cells are the same float. Every other table is formatted cell by cell
(scores.* by ScoreTable, with no per-cell type dispatch): a score can
be -0.0, which compares equal to 0.0 but is written apart.

The per-stage CLI writes its tables with these builders, so no CLI
step but report imports report and the bundle pipeline.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from ._csvio import quote, write_csv
from .corpus import UserProfile
from .errors import PipelineError
from .lexicon import FeatureMatrix
from .model import TRAITS, BigFive
from .stats import CorrelationResult, EmoticonContrast, EmoticonRow, Grouping, MeanRow, TagContrast

SCHEMA_VERSION = 1


def fmt(value) -> str:
    """One CSV cell: floats at 6 decimals, None empty, bools lowercase."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


class Table(NamedTuple):
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def write_csv(self, path) -> None:
        write_csv(path, self.columns, (",".join([quote(fmt(v)) for v in row]) + "\n" for row in self.rows))

    def write_json(self, path) -> None:
        encode = _ROW_ENCODER.encode
        rows = (encode([round(v, 6) if isinstance(v, float) else v for v in row]) for row in self.rows)
        self._write_json_rows(path, rows)

    def _write_json_rows(self, path, rows: Iterable[str]) -> None:
        """Write {columns, name, rows, schema_version} as compact JSON, floats rounded to 6 places.

        The bytes are those of json.dumps(doc, ensure_ascii=False,
        sort_keys=True, separators=(",", ":")) plus a newline, but the rows
        arrive one encoded row at a time, so the document is never built in
        memory. A table has at least one column.
        """
        head = _ROW_ENCODER.encode({"columns": list(self.columns), "name": self.name})  # keys in sorted order
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(head[:-1] + ',"rows":[')
            sep = ""
            for row in rows:
                fh.write(sep + row)
                sep = ","
            fh.write(f'],"schema_version":{SCHEMA_VERSION}}}\n')


class _Memo(dict):
    """value -> make(value), made once per distinct value; a hit costs one dict lookup."""

    def __init__(self, make: Callable):
        self.make = make

    def __missing__(self, value):
        made = self[value] = self.make(value)
        return made


class FeatureTable(Table):
    """features_table's Table: its writers format each distinct frequency once per file (module docstring)."""

    __slots__ = ()

    def write_csv(self, path) -> None:
        cell = _Memo("{:.6f}".format).__getitem__
        lines = (",".join([quote(row[0]), str(row[1]), *map(cell, row[2:])]) + "\n" for row in self.rows)
        write_csv(path, self.columns, lines)

    def write_json(self, path) -> None:
        encode = _ROW_ENCODER.encode
        cell = _Memo(lambda v: repr(round(v, 6))).__getitem__  # the encoder's spelling of a finite float
        rows = ("[" + ",".join([encode(row[0]), str(row[1]), *map(cell, row[2:])]) + "]" for row in self.rows)
        self._write_json_rows(path, rows)


class ScoreTable(Table):
    """scores_table's Table: (user_id, *finite floats) rows; its writers format every float on its own."""

    __slots__ = ()

    def write_csv(self, path) -> None:
        line = ",".join(["%s", *["%.6f"] * (len(self.columns) - 1)]) + "\n"  # "%.6f" % v == f"{v:.6f}"
        write_csv(path, self.columns, (line % (quote(row[0]), *row[1:]) for row in self.rows))

    def write_json(self, path) -> None:
        encode, six = _ROW_ENCODER.encode, repeat(6)  # repr(round(v, 6)): the encoder's spelling of Table's cell
        rows = ("[" + encode(row[0]) + "," + ",".join(map(repr, map(round, row[1:], six))) + "]" for row in self.rows)
        self._write_json_rows(path, rows)


def demographic_summary(profiles: Sequence[UserProfile]) -> Table:
    """Population summary rows: (item, percentage, detail)."""
    if not profiles:
        raise PipelineError("cannot summarize an empty profile list")
    n = len(profiles)
    rows: list[tuple] = []

    ages = [p.age for p in profiles if p.age is not None]
    if ages:
        mean = sum(ages) / len(ages)
        sd = (sum((a - mean) ** 2 for a in ages) / len(ages)) ** 0.5
        detail = f"{min(ages)}-{max(ages)} years (mean={mean:.1f} sd={sd:.1f} known={len(ages)})"
    else:
        detail = "no known ages"
    rows.append(("age", None, detail))

    known_gender = [p for p in profiles if p.gender != "unknown"]
    if known_gender:
        female = sum(1 for p in known_gender if p.gender == "female")
        share = 100.0 * female / len(known_gender)
        rows.append(("gender_female", share, f"n={female}"))
        rows.append(("gender_male", 100.0 - share, f"n={len(known_gender) - female}"))
    rows.append(("gender_unknown", None, f"n={n - len(known_gender)}"))

    n_verified = sum(1 for p in profiles if p.verified)
    rows.append(("verified", 100.0 * n_verified / n, f"n={n_verified}"))
    rows.append(("unverified", 100.0 * (n - n_verified) / n, f"n={n - n_verified}"))

    taggers = [len(p.tags) for p in profiles if p.tags]
    if taggers:
        mean = sum(taggers) / len(taggers)
        sd = (sum((t - mean) ** 2 for t in taggers) / len(taggers)) ** 0.5
        detail = f"mean={mean:.1f} labels sd={sd:.1f}"
    else:
        detail = ""
    rows.append(("tags_shared", 100.0 * len(taggers) / n, detail))
    rows.append(("tags_unknown", 100.0 * (n - len(taggers)) / n, f"n={n - len(taggers)}"))

    with_loc = sum(1 for p in profiles if p.location)
    rows.append(("location_shared", 100.0 * with_loc / n, f"n={with_loc}"))
    rows.append(("location_unknown", 100.0 * (n - with_loc) / n, f"n={n - with_loc}"))

    with_school = sum(1 for p in profiles if p.schools)
    rows.append(("university_shared", 100.0 * with_school / n, f"n={with_school}"))
    rows.append(("university_unknown", 100.0 * (n - with_school) / n, f"n={n - with_school}"))

    return Table("demographics", ("item", "percentage", "detail"), tuple(rows))


def score_summary_table(summary: Mapping[str, tuple[float, float]]) -> Table:
    rows = tuple((trait, summary[trait][0], summary[trait][1]) for trait in TRAITS)
    return Table("score_summary", ("trait", "mean", "sd"), rows)


def scores_table(scores: Sequence[tuple[str, BigFive]]) -> ScoreTable:
    rows = tuple((uid, *score) for uid, score in scores)
    return ScoreTable("scores", ("user_id", *TRAITS), rows)


def features_table(features: FeatureMatrix, category_names: Sequence[str]) -> FeatureTable:
    """One row per user: (user_id, token_count, *frequencies); category_names must be the matrix's."""
    if tuple(category_names) != features.names:
        raise PipelineError(f"features have categories {list(features.names)}, not {list(category_names)}")
    rows = tuple((u, n, *row) for u, n, row in zip(features.user_ids, features.token_counts, features.rows))
    return FeatureTable("features", ("user_id", "token_count", *features.names), rows)


def correlations_table(results: Sequence[CorrelationResult]) -> Table:
    return Table("correlations", (*CorrelationResult._fields, "strong"), tuple((*res, res.strong) for res in results))


def tag_contrast_table(contrasts: Sequence[TagContrast]) -> Table:
    rows: list[tuple] = []
    for contrast in contrasts:
        for group, ranked in (("high", contrast.high), ("low", contrast.low)):
            for rank, (tag, weight) in enumerate(ranked, start=1):
                rows.append((contrast.trait, group, rank, tag, weight))
    return Table("tag_contrast", ("trait", "group", "rank", "tag", "weight"), tuple(rows))


def group_means_table(groupings: Sequence[Grouping]) -> Table:
    rows = tuple(
        (g.name, row.label, row.count, *row.means, row.low_support, g.excluded_count)
        for g in groupings
        for row in g.rows
    )
    return Table("group_means", ("grouping", "label", "count", *TRAITS, "low_support", "excluded_count"), rows)


def trends_table(trends: Sequence[Grouping]) -> Table:
    rows = tuple(
        (g.name, row.label, row.count, *row.means, g.excluded_count)
        for g in trends
        for row in g.rows
    )
    return Table("trends", ("binning", "bin", "count", *TRAITS, "excluded_count"), rows)


def provinces_table(rows: Sequence[MeanRow]) -> Table:
    out = tuple((row.label, row.count, *row.means) for row in rows)
    return Table("province_means", ("province", "count", *TRAITS), out)


def emoticons_table(contrasts: Sequence[EmoticonContrast]) -> Table:
    rows = tuple((contrast.trait, *row) for contrast in contrasts for row in contrast.rows)
    return Table("emoticon_contrast", ("trait", *EmoticonRow._fields), rows)
