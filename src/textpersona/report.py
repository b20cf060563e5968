"""Assembly of pipeline outputs into table-shaped artifacts.

Every artifact is a CSV plus an equivalent JSON document. Numeric cells
are written with 6 decimal places, undefined values as an empty CSV
cell / JSON null, and all row orders are fixed, so a bundle built twice
from the same inputs is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import cleaner as cleaner_mod
from . import corpus as corpus_mod
from . import lexicon as lexicon_mod
from . import model as model_mod
from . import segmenter as segmenter_mod
from . import stats as stats_mod
from ._csvio import write_csv
from .config import RunConfig
from .errors import BundleError, PipelineError
from .model import TRAITS, BigFive
from .stats import CorrelationResult, EmoticonContrast, Grouping, MeanRow, TagContrast

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


# the C encoder does not indent, so a row's line breaks are its item separator
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",\n      ", ": "))


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def write_csv(self, path) -> None:
        rows = ([f"{v:.6f}" if isinstance(v, float) else fmt(v) for v in row] for row in self.rows)
        write_csv(path, self.columns, rows)

    def write_json(self, path) -> None:
        """Write {columns, name, rows, schema_version} with floats rounded to 6 places.

        The bytes are those of json.dump(doc, indent=2, sort_keys=True,
        ensure_ascii=False) plus a newline, but the rows are streamed one
        at a time through the C encoder, so the document is never built
        in memory. A table has at least one column.
        """
        head = json.dumps({"columns": list(self.columns), "name": self.name}, ensure_ascii=False, indent=2)
        encode = _ROW_ENCODER.encode
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(head[:-2] + ',\n  "rows": [')
            sep = "\n    "
            for row in self.rows:
                cells = [round(v, 6) if isinstance(v, float) else v for v in row]
                fh.write(f"{sep}[\n      {encode(cells)[1:-1]}\n    ]")
                sep = ",\n    "
            fh.write(("\n  ]" if self.rows else "]") + f',\n  "schema_version": {SCHEMA_VERSION}\n}}\n')


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


def scores_table(scores: Sequence[tuple[str, BigFive]]) -> Table:
    rows = tuple((uid, *score.as_tuple()) for uid, score in scores)
    return Table("scores", ("user_id", *TRAITS), rows)


def features_table(features: Sequence, category_names: Sequence[str]) -> Table:
    rows = tuple(
        (fv.user_id, fv.token_count, *(fv.freqs[name] for name in category_names))
        for fv in features
    )
    return Table("features", ("user_id", "token_count", *category_names), rows)


def correlations_table(results: Sequence[CorrelationResult]) -> Table:
    rows = tuple(
        (res.feature_name, res.trait, res.r, res.p, res.n, res.significant, res.strong)
        for res in results
    )
    return Table(
        "correlations",
        ("feature", "trait", "r", "p", "n", "significant", "strong"),
        rows,
    )


def tag_contrast_table(contrasts: Sequence[TagContrast]) -> Table:
    rows: list[tuple] = []
    for contrast in contrasts:
        for group, ranked in (("high", contrast.high), ("low", contrast.low)):
            for rank, (tag, weight) in enumerate(ranked, start=1):
                rows.append((contrast.trait, group, rank, tag, weight))
    return Table("tag_contrast", ("trait", "group", "rank", "tag", "weight"), tuple(rows))


def group_means_table(groupings: Sequence[Grouping]) -> Table:
    rows = tuple(
        (g.name, row.label, row.count, *(row.means[t] for t in TRAITS), row.low_support, g.excluded_count)
        for g in groupings
        for row in g.rows
    )
    return Table("group_means", ("grouping", "label", "count", *TRAITS, "low_support", "excluded_count"), rows)


def trends_table(trends: Sequence[Grouping]) -> Table:
    rows = tuple(
        (g.name, row.label, row.count, *(row.means[t] for t in TRAITS), g.excluded_count)
        for g in trends
        for row in g.rows
    )
    return Table("trends", ("binning", "bin", "count", *TRAITS, "excluded_count"), rows)


def provinces_table(rows: Sequence[MeanRow]) -> Table:
    out = tuple((row.label, row.count, *(row.means[t] for t in TRAITS)) for row in rows)
    return Table("province_means", ("province", "count", *TRAITS), out)


def emoticons_table(contrasts: Sequence[EmoticonContrast]) -> Table:
    rows: list[tuple] = []
    for contrast in contrasts:
        for row in contrast.rows:
            rows.append(
                (
                    contrast.trait,
                    row.emoticon,
                    row.high_count,
                    row.low_count,
                    row.high_proportion,
                    row.low_proportion,
                    row.p,
                    row.significant,
                )
            )
    return Table(
        "emoticon_contrast",
        (
            "trait",
            "emoticon",
            "high_count",
            "low_count",
            "high_proportion",
            "low_proportion",
            "p",
            "significant",
        ),
        tuple(rows),
    )


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


# a bundle needs these; the spam keyword and system template paths may be unset
REQUIRED_KEYS = ("profiles_path", "posts_path", "lexicon_path", "word_list_path", "model_path", "reference_date")


@dataclass(frozen=True)
class ReportBundle:
    out_dir: Path
    artifacts: tuple[tuple[str, str, str, int], ...]  # (name, csv, json, rows)
    manifest_path: Path


def build_bundle(config: RunConfig, out_dir) -> ReportBundle:
    """Run the full pipeline and write every artifact plus manifest.json.

    Stages: load -> validate -> clean -> segment -> featurize ->
    predict -> analyses. Any stage failure aborts with the stage name.
    Segment and featurize are one pass: featurize counts a lazy segment()
    of each post, so no post's token list is kept.
    """
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

    spam, templates = cleaner_mod.load_rules(config.spam_keywords_path, config.system_templates_path)
    cleaned, _ = stage("clean", cleaner_mod.clean_corpus, posts, spam, system_templates=templates)
    del posts  # each text-layer input is freed once read

    word_list = stage("segment", segmenter_mod.load_word_list, config.word_list_path)
    texts_by_user: dict[str, list[str]] = {p.user_id: [] for p in profiles}
    for uid, res in cleaned:
        if uid in texts_by_user:
            texts_by_user[uid].append(res.clean_text)
    emoticon_usage = stats_mod.emoticon_usage(cleaned)
    del cleaned

    lexicon = stage("featurize", lexicon_mod.parse_lexicon, config.lexicon_path)
    matcher = lexicon_mod.compile_lexicon(lexicon)
    tokens_by_user = {uid: (segmenter_mod.segment(t, word_list) for t in ts) for uid, ts in texts_by_user.items()}
    features = stage("featurize", lexicon_mod.featurize, tokens_by_user, matcher)
    del texts_by_user, tokens_by_user

    mapping = stage("predict", model_mod.load_model, config.model_path)
    scores, _skipped = stage("predict", model_mod.predict, mapping, features)

    profile_by_id = {p.user_id: p for p in profiles}
    joined = [(profile_by_id[uid], score) for uid, score in scores]
    score_list = [score for _, score in joined]

    def analyses():
        ids = [uid for uid, _ in scores]
        splits = [  # one score column per trait, empty when no user was scored
            stats_mod.polarity_split(list(zip(ids, col)), config.quantile, trait=trait)
            for trait, *col in zip(TRAITS, *(score.as_tuple() for score in score_list))
        ]
        tag_contrasts = [stats_mod.tag_contrast(split, profiles, config.top_k_tags) for split in splits]
        emo_contrasts = stats_mod.emoticon_contrasts(
            splits, emoticon_usage, config.emoticon_min_count, config.alpha
        )
        return [
            features_table(features, lexicon.category_names),
            scores_table(scores),
            score_summary_table(model_mod.summarize_scores(score_list)),
            demographic_summary(profiles),
            correlations_table(stats_mod.correlation_matrix(features, scores, config.alpha)),
            tag_contrast_table(tag_contrasts),
            group_means_table([stats_mod.group_means(joined, key) for key in stats_mod.GROUPING_KEYS]),
            trends_table([stats_mod.binned_trend(joined, binning) for binning in stats_mod.BINNINGS]),
            provinces_table(stats_mod.province_aggregate(joined)),
            emoticons_table(emo_contrasts),
        ]

    tables = stage("analyses", analyses)

    artifacts = []
    for table in tables:
        csv_name = f"{table.name}.csv"
        json_name = f"{table.name}.json"
        table.write_csv(out_dir / csv_name)
        table.write_json(out_dir / json_name)
        artifacts.append((table.name, csv_name, json_name, len(table.rows)))

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
