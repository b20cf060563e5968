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
from .stats import (
    CorrelationResult,
    EmoticonContrast,
    GroupMeans,
    ProvinceRow,
    TagContrast,
    TrendResult,
)

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


def _jsonable(value):
    if isinstance(value, float):
        return round(value, 6)
    return value


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def write_csv(self, path) -> None:
        write_csv(path, self.columns, ([fmt(v) for v in row] for row in self.rows))

    def write_json(self, path) -> None:
        doc = {
            "name": self.name,
            "schema_version": SCHEMA_VERSION,
            "columns": list(self.columns),
            "rows": [[_jsonable(v) for v in row] for row in self.rows],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, ensure_ascii=False, indent=2, sort_keys=True)
            fh.write("\n")


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


def group_means_table(groupings: Sequence[GroupMeans]) -> Table:
    rows: list[tuple] = []
    for grouping in groupings:
        for row in grouping.rows:
            rows.append(
                (
                    grouping.grouping_name,
                    row.label,
                    row.count,
                    *(row.means[t] for t in TRAITS),
                    row.low_support,
                    grouping.excluded_count,
                )
            )
    return Table(
        "group_means",
        ("grouping", "label", "count", *TRAITS, "low_support", "excluded_count"),
        tuple(rows),
    )


def trends_table(trends: Sequence[TrendResult]) -> Table:
    rows: list[tuple] = []
    for trend in trends:
        for row in trend.rows:
            rows.append(
                (trend.binning, row.bin_label, row.count, *(row.means[t] for t in TRAITS), trend.excluded_count)
            )
    return Table(
        "trends",
        ("binning", "bin", "count", *TRAITS, "excluded_count"),
        tuple(rows),
    )


def provinces_table(rows: Sequence[ProvinceRow]) -> Table:
    out = tuple(
        (row.province, row.count, *(row.means[t] for t in TRAITS)) for row in rows
    )
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


@dataclass(frozen=True)
class ReportBundle:
    out_dir: Path
    artifacts: tuple[tuple[str, str, str, int], ...]  # (name, csv, json, rows)
    manifest_path: Path


def build_bundle(config: RunConfig, out_dir) -> ReportBundle:
    """Run the full pipeline and write every artifact plus manifest.json.

    Stages: load -> validate -> clean -> segment -> featurize ->
    predict -> analyses. Any stage failure aborts with the stage name.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    required = {
        "profiles_path": config.profiles_path,
        "posts_path": config.posts_path,
        "lexicon_path": config.lexicon_path,
        "word_list_path": config.word_list_path,
        "model_path": config.model_path,
        "reference_date": config.reference_date,
    }
    missing = [key for key, value in required.items() if value is None]
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

    word_list = stage("segment", segmenter_mod.load_word_list, config.word_list_path)
    texts = [(uid, res.clean_text) for uid, res in cleaned]
    tokenized = stage("segment", segmenter_mod.segment_corpus, texts, word_list)
    tokens_by_user: dict[str, list[list[str]]] = {p.user_id: [] for p in profiles}
    for uid, tokens in tokenized:
        if uid in tokens_by_user:
            tokens_by_user[uid].append(tokens)
    emoticon_usage = stats_mod.emoticon_usage(cleaned)

    lexicon = stage("featurize", lexicon_mod.parse_lexicon, config.lexicon_path)
    matcher = lexicon_mod.compile_lexicon(lexicon)
    features = stage("featurize", lexicon_mod.featurize, tokens_by_user, matcher)

    mapping = stage("predict", model_mod.load_model, config.model_path)
    scores, _skipped = stage("predict", model_mod.predict, mapping, features)

    profile_by_id = {p.user_id: p for p in profiles}
    joined = [(profile_by_id[uid], score) for uid, score in scores]
    score_list = [score for _, score in joined]

    def analyses():
        tag_contrasts = []
        emo_contrasts = []
        for trait in TRAITS:
            split = stats_mod.polarity_split(
                [(uid, score.get(trait)) for uid, score in scores],
                config.quantile,
                trait=trait,
            )
            tag_contrasts.append(stats_mod.tag_contrast(split, profiles, config.top_k_tags))
            emo_contrasts.append(
                stats_mod.emoticon_contrast(
                    split, emoticon_usage, config.emoticon_min_count, config.alpha
                )
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
        "profiles": _sha256(config.profiles_path),
        "posts": _sha256(config.posts_path),
        "lexicon": _sha256(config.lexicon_path),
        "word_list": _sha256(config.word_list_path),
        "model": _sha256(config.model_path),
    }
    if config.spam_keywords_path:
        input_hashes["spam_keywords"] = _sha256(config.spam_keywords_path)
    if config.system_templates_path:
        input_hashes["system_templates"] = _sha256(config.system_templates_path)

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
