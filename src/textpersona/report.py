"""Assembly of pipeline outputs into table-shaped artifacts.

Every artifact is a CSV plus an equivalent JSON document, written
compactly (no indentation or spaces; only manifest.json is indented).
Numeric cells are written with 6 decimal places, undefined values as an
empty CSV cell / JSON null, and all row orders are fixed, so a bundle
built twice from the same inputs is byte-identical. Every CSV, and
model.write_scores_csv's too, goes through _csvio.write_csv: the header
cells and every row cell that may need quoting pass _csvio.quote.

features.csv and features.json format each distinct frequency once per
file, not once per cell (FeatureTable). That is exact because a
frequency is a finite float k * 100 / n >= 0, never -0.0, so equal
cells are the same float. Every other table is formatted cell by cell
(scores.* by ScoreTable, with no per-cell type dispatch): a score can
be -0.0, which compares equal to 0.0 but is written apart.
"""

from __future__ import annotations

import gc
import hashlib
import json
from collections import Counter
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import cleaner as cleaner_mod
from . import corpus as corpus_mod
from . import lexicon as lexicon_mod
from . import model as model_mod
from . import segmenter as segmenter_mod
from . import stats as stats_mod
from ._csvio import quote, write_csv
from ._pool import fork_workers, parallel_map
from .config import RunConfig
from .errors import BundleError, PipelineError
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


def demographic_summary(profiles: Sequence[corpus_mod.UserProfile]) -> Table:
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


def features_table(features: lexicon_mod.FeatureMatrix, category_names: Sequence[str]) -> FeatureTable:
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


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


# raw characters of accepted posts each forked worker needs before the
# text pass pays for its fork. Measured on a 2-CPU machine: long posts
# paid from about 30k per worker, but short emoticon-dense posts, whose
# characters the cleaner's regex strips cheaply, barely paid at 240k.
MIN_CHARS_PER_WORKER = 300_000

# cells of the per-user tables (features plus scores) per worker before
# running the share that reads the feature matrix (build_bundle) in a
# forked child, while the parent runs the other share, pays for the
# fork; there are two workers, so it forks from 20k cells. Measured on a
# 2-CPU machine once the child also ran the correlations: median ms of
# 12 alternating in-process runs per user-heavy corpus, forked minus in
# process, -2.6 at 3.7k cells, -5.4 at 7.5k, -9.1 at 11k, -7.1 at 22k,
# -3.5 at 37k, -36.4 at 75k and -36.6 at 112k. The break-even fell
# below 3.7k, but below 20k the gain is a few ms, within the noise of a
# shared machine, so the gate was kept (the fixture corpus stays serial).
MIN_TABLE_CELLS_PER_WORKER = 10_000


def text_features(
    texts_by_user: Mapping[str, Sequence[str]],
    clean: Callable[[str], cleaner_mod.CleanResult],
    word_list: segmenter_mod.WordList,
    matcher: lexicon_mod.CompiledMatcher,
) -> tuple[lexicon_mod.FeatureMatrix, dict[str, Counter[str]]]:
    """Features and emoticon usage of each user, in one pass over their raw posts.

    Each post is cleaned, its emoticons counted, and its segment()
    counted by lexicon.featurize_user as it is made. The users are
    mapped in id order, with one worker per MIN_CHARS_PER_WORKER raw
    characters of the corpus (_pool.fork_workers), so the result does
    not depend on the worker count. Users without a kept emoticon are
    absent from usage.
    """
    user_ids = tuple(sorted(texts_by_user))
    count = partial(lexicon_mod.featurize_user, matcher, {})  # one lookup memo, copied into each worker

    def one_user(uid: str) -> tuple[int, tuple[float, ...], Counter[str]]:
        usage: Counter[str] = Counter()

        def tokens():
            for text in texts_by_user[uid]:
                res = clean(text)
                if not res.dropped:
                    if res.emoticons:
                        usage.update(res.emoticons)
                    yield segmenter_mod.segment(res.clean_text, word_list)

        return (*count(tokens()), usage)

    chars = sum(len(text) for texts in texts_by_user.values() for text in texts)
    counted = parallel_map(one_user, user_ids, threads=fork_workers(chars, MIN_CHARS_PER_WORKER))
    features = lexicon_mod.FeatureMatrix(
        matcher.category_names, user_ids, tuple(n for n, _, _ in counted), tuple(row for _, row, _ in counted)
    )
    return features, {uid: usage for uid, (_, _, usage) in zip(user_ids, counted) if usage}


# a bundle needs these; the spam keyword and system template paths may be unset
REQUIRED_KEYS = ("profiles_path", "posts_path", "lexicon_path", "word_list_path", "model_path", "reference_date")


class ReportBundle(NamedTuple):
    out_dir: Path
    artifacts: tuple[tuple[str, str, str, int], ...]  # (name, csv, json, rows)
    manifest_path: Path


def build_bundle(config: RunConfig, out_dir) -> ReportBundle:
    """Run the full pipeline and write every artifact plus manifest.json.

    Stages: load -> validate -> clean -> segment -> featurize -> predict
    -> analyses; loading the spam and template rules counts as clean,
    loading the word list as segment. Any stage failure aborts with the
    stage name. Clean, segment and featurize are one pass per user (see
    text_features), so no post's cleaned text or token list is kept; on
    corpora with enough raw characters the users are mapped over forked
    workers.

    After predict the work splits into two shares of about equal time:
    one reads the feature matrix (features.*, then correlation_matrix and
    correlations.*), the other writes scores.* and runs and writes the
    analyses of profiles and scores. On corpora whose per-user tables
    hold enough cells (MIN_TABLE_CELLS_PER_WORKER) a forked child runs
    the first while the parent runs the second, and a child's error, a
    BundleError included, is re-raised here; otherwise the second runs,
    then the first. Either way a failure in one share may leave the
    other's tables written, as a write failure midway leaves a partial
    bundle.

    The cyclic garbage collector is paused for the run, forked workers
    included, and the caller's setting is restored after it, also when a
    stage fails. The loaded corpus is many small records that hold no
    cycle, which each collection would rescan, while a run leaves the
    same few dozen cyclic objects whatever the corpus size.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_bundle(config, out_dir)
    finally:
        if enabled:
            gc.enable()


def _build_bundle(config: RunConfig, out_dir) -> ReportBundle:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    missing = [key for key in REQUIRED_KEYS if getattr(config, key) is None]
    if missing:
        raise BundleError("config", PipelineError(f"missing config values: {', '.join(missing)}"))

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            raise BundleError(name, err) from err

    profiles, posts, _ = stage("load", corpus_mod.load_corpus, config.profiles_path, config.posts_path)
    profiles, posts, validity = stage(
        "validate",
        corpus_mod.validate_users,
        profiles,
        posts,
        min_followers=config.min_followers,
        ad_url_patterns=config.ad_url_patterns,
        reference_date=config.reference_date,
        age_range=config.age_range,
    )
    if not profiles:
        raise BundleError("validate", PipelineError("no users left after validation"))

    spam, templates = stage("clean", cleaner_mod.load_rules, config.spam_keywords_path, config.system_templates_path)
    word_list = stage("segment", segmenter_mod.load_word_list, config.word_list_path)
    lexicon = stage("featurize", lexicon_mod.parse_lexicon, config.lexicon_path)
    matcher = lexicon_mod.compile_lexicon(lexicon)
    texts_by_user: dict[str, list[str]] = {p.user_id: [] for p in profiles}
    for post in posts:
        texts_by_user[post.user_id].append(post.text)
    del posts  # each text-layer input is freed once read
    clean = partial(cleaner_mod.clean, spam_keywords=spam, system_templates=templates)
    features, emoticon_usage = stage("featurize", text_features, texts_by_user, clean, word_list, matcher)
    del texts_by_user

    mapping = stage("predict", model_mod.load_model, config.model_path)
    scores, _skipped = stage("predict", model_mod.predict, mapping, features)

    profile_by_id = {p.user_id: p for p in profiles}
    joined = [(profile_by_id[uid], score) for uid, score in scores]
    score_list = [score for _, score in joined]

    def analyses():
        ids = [uid for uid, _ in scores]
        splits = [  # one score column per trait, empty when no user was scored
            stats_mod.polarity_split(list(zip(ids, col)), config.quantile, trait=trait)
            for trait, *col in zip(TRAITS, *score_list)
        ]
        tag_contrasts = [stats_mod.tag_contrast(split, profiles, config.top_k_tags) for split in splits]
        emo_contrasts = stats_mod.emoticon_contrasts(
            splits, emoticon_usage, config.emoticon_min_count, config.alpha
        )
        return [
            score_summary_table(model_mod.summarize_scores(score_list)),
            demographic_summary(profiles),
            tag_contrast_table(tag_contrasts),
            group_means_table([stats_mod.group_means(joined, key) for key in stats_mod.GROUPING_KEYS]),
            trends_table([stats_mod.binned_trend(joined, binning) for binning in stats_mod.BINNINGS]),
            provinces_table(stats_mod.province_aggregate(joined)),
            emoticons_table(emo_contrasts),
        ]

    def write(table: Table) -> tuple[str, str, str, int]:
        csv_name, json_name = f"{table.name}.csv", f"{table.name}.json"
        table.write_csv(out_dir / csv_name)
        table.write_json(out_dir / json_name)
        return table.name, csv_name, json_name, len(table.rows)

    tasks = [  # share 0 runs here; share 1, what reads the feature matrix, in a child when the gate opens
        lambda: [write(scores_table(scores)), *map(write, stage("analyses", analyses))],
        lambda: [
            write(features_table(features, lexicon.category_names)),
            write(correlations_table(stage("analyses", stats_mod.correlation_matrix, features, scores, config.alpha))),
        ],
    ]
    cells = len(features.user_ids) * (len(features.names) + 2) + len(scores) * (len(TRAITS) + 1)
    threads = fork_workers(cells, MIN_TABLE_CELLS_PER_WORKER)  # parallel_map caps it at the two tasks
    here, child = parallel_map(lambda task: task(), tasks, threads=threads)
    # the manifest lists features, scores, score_summary, demographics, correlations, then the rest
    artifacts = [child[0], *here[:3], child[1], *here[3:]]

    input_hashes = {
        key.removesuffix("_path"): _sha256(path)
        for key in RunConfig.PATH_KEYS
        if (path := getattr(config, key))
    }

    manifest = {
        "artifacts": [
            {
                "name": name,
                "path": csv_name,
                "json_path": json_name,
                "rows": rows,
                "schema_version": SCHEMA_VERSION,
            }
            for name, csv_name, json_name, rows in artifacts
        ],
        "config": config.to_jsonable(),
        "input_hashes": input_hashes,
        "validity": {
            "total_users": validity.total_users,
            "accepted": validity.accepted,
            "rejected": [[uid, reason.value] for uid, reason in validity.rejected],
        },
    }
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")

    return ReportBundle(
        out_dir=out_dir,
        artifacts=tuple(artifacts),
        manifest_path=manifest_path,
    )
