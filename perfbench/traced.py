"""Spans around the calls into each textpersona module, and the traced bundle.

``compose_bundle`` rebuilds the report bundle by calling the package's
public functions in ``report.build_bundle``'s stage order, with a span
around each call. Its bytes must equal ``build_bundle``'s; the
self-tests and every traced run check that. Nothing under ``src/`` is
instrumented: the spans live here, in memory, and are written out when
the run ends.

Run as ``python -m perfbench.traced --config C --out-dir D --labels L
--spans S`` to write the bundle (span ``bundle``), then, in span
``extras``, fit a model on the labels, rerun the pooled stages with two
workers, count and time ``CompiledMatcher.lookup``; spans and counters
go to S as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from textpersona import cleaner, corpus, lexicon, model, report, segmenter, stats
from textpersona.config import RunConfig, load_keyword_file
from textpersona.model import TRAITS

clock = time.perf_counter


class Tracer:
    """Spans as dicts: id, name, parent id, start, end (clock seconds)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = self.add(name, clock(), None)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = clock()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, start: float, end: float | None, parent: int | None = None) -> dict:
        """Record a span timed elsewhere; the parent defaults to the open span."""
        if parent is None and self._open:
            parent = self._open[-1]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "start": start, "end": end}
        self.spans.append(rec)
        return rec

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Attach spans recorded by another process under one of ours."""
        offset = len(self.spans)
        for rec in spans:
            own = rec["parent"] is None
            self.spans.append(dict(rec, id=rec["id"] + offset, parent=parent if own else rec["parent"] + offset))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
    out = {}
    for rec in spans:
        covered = 0.0
        reach = rec["start"]
        for start, end in sorted(children.get(rec["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[rec["id"]] = rec["end"] - rec["start"] - covered
    return out


def compose_bundle(config: RunConfig, out_dir, tracer: Tracer) -> dict:
    """Write the same bundle as ``report.build_bundle``; return the stage results."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t = tracer.call

    profiles, posts, loaded = t("corpus.load_corpus", corpus.load_corpus, config.profiles_path, config.posts_path)
    profiles, posts, validity = t(
        "corpus.validate_users",
        corpus.validate_users,
        profiles,
        posts,
        min_followers=config.min_followers,
        ad_url_patterns=config.ad_url_patterns,
        reference_date=config.reference_date,
        age_range=config.age_range,
    )
    spam = (
        t("config.load_keyword_file", load_keyword_file, config.spam_keywords_path)
        if config.spam_keywords_path
        else cleaner.DEFAULT_SPAM_KEYWORDS
    )
    templates = (
        t("config.load_keyword_file", load_keyword_file, config.system_templates_path)
        if config.system_templates_path
        else cleaner.DEFAULT_SYSTEM_TEMPLATES
    )
    cleaned, dropped = t("cleaner.clean_corpus", cleaner.clean_corpus, posts, spam, system_templates=templates)

    word_list = t("segmenter.load_word_list", segmenter.load_word_list, config.word_list_path)
    texts = [(uid, res.clean_text) for uid, res in cleaned]
    tokenized = t("segmenter.segment_corpus", segmenter.segment_corpus, texts, word_list)
    with tracer.span("bundle.group_by_user"):
        tokens_by_user: dict[str, list[list[str]]] = {p.user_id: [] for p in profiles}
        for uid, tokens in tokenized:
            if uid in tokens_by_user:
                tokens_by_user[uid].append(tokens)
        emoticon_usage: dict[str, dict[str, int]] = {p.user_id: {} for p in profiles}
        for uid, res in cleaned:
            if uid in emoticon_usage and res.emoticons:
                bucket = emoticon_usage[uid]
                for emoticon, count in Counter(res.emoticons).items():
                    bucket[emoticon] = bucket.get(emoticon, 0) + count

    lex = t("lexicon.parse_lexicon", lexicon.parse_lexicon, config.lexicon_path)
    matcher = t("lexicon.compile_lexicon", lexicon.compile_lexicon, lex)
    features = t("lexicon.featurize", lexicon.featurize, tokens_by_user, matcher)

    mapping = t("model.load_model", model.load_model, config.model_path)
    scores, skipped = t("model.predict", model.predict, mapping, features)
    profile_by_id = {p.user_id: p for p in profiles}
    joined = [(profile_by_id[uid], score) for uid, score in scores]

    tag_contrasts = []
    emo_contrasts = []
    for trait in TRAITS:
        split = t(
            "stats.polarity_split",
            stats.polarity_split,
            [(uid, score.get(trait)) for uid, score in scores],
            config.quantile,
            trait=trait,
        )
        tag_contrasts.append(t("stats.tag_contrast", stats.tag_contrast, split, profiles, config.top_k_tags))
        emo_contrasts.append(
            t(
                "stats.emoticon_contrast",
                stats.emoticon_contrast,
                split,
                emoticon_usage,
                config.emoticon_min_count,
                config.alpha,
            )
        )
    tables = [
        t("report.features_table", report.features_table, features, lex.category_names),
        t("report.scores_table", report.scores_table, scores),
    ]
    summary = t("model.summarize_scores", model.summarize_scores, [score for _, score in joined])
    tables.append(t("report.score_summary_table", report.score_summary_table, summary))
    tables.append(t("report.demographic_summary", report.demographic_summary, profiles))
    correlations = t("stats.correlation_matrix", stats.correlation_matrix, features, scores, config.alpha)
    tables.append(t("report.correlations_table", report.correlations_table, correlations))
    tables.append(t("report.tag_contrast_table", report.tag_contrast_table, tag_contrasts))
    groups = [t("stats.group_means", stats.group_means, joined, key) for key in stats.GROUPING_KEYS]
    tables.append(t("report.group_means_table", report.group_means_table, groups))
    trends = [t("stats.binned_trend", stats.binned_trend, joined, binning) for binning in stats.BINNINGS]
    tables.append(t("report.trends_table", report.trends_table, trends))
    provinces = t("stats.province_aggregate", stats.province_aggregate, joined)
    tables.append(t("report.provinces_table", report.provinces_table, provinces))
    tables.append(t("report.emoticons_table", report.emoticons_table, emo_contrasts))

    artifacts = []
    for table in tables:
        csv_name = f"{table.name}.csv"
        json_name = f"{table.name}.json"
        t("report.Table.write_csv", table.write_csv, out_dir / csv_name)
        t("report.Table.write_json", table.write_json, out_dir / json_name)
        artifacts.append((table.name, csv_name, json_name, len(table.rows)))

    with tracer.span("report.manifest"):
        inputs = {
            "profiles": config.profiles_path,
            "posts": config.posts_path,
            "lexicon": config.lexicon_path,
            "word_list": config.word_list_path,
            "model": config.model_path,
            "spam_keywords": config.spam_keywords_path,
            "system_templates": config.system_templates_path,
        }
        manifest = {
            "artifacts": [
                {
                    "name": name,
                    "path": csv_name,
                    "json_path": json_name,
                    "rows": rows,
                    "schema_version": report.SCHEMA_VERSION,
                }
                for name, csv_name, json_name, rows in artifacts
            ],
            "config": config.to_jsonable(),
            "input_hashes": {key: report._sha256(path) for key, path in inputs.items() if path},
            "validity": {
                "total_users": validity.total_users,
                "accepted": validity.accepted,
                "rejected": [[uid, reason.value] for uid, reason in validity.rejected],
            },
        }
        with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, ensure_ascii=False, indent=2, sort_keys=True)
            fh.write("\n")

    return {
        "loaded": loaded,
        "validity": validity,
        "posts": posts,
        "spam": spam,
        "templates": templates,
        "cleaned": cleaned,
        "dropped": dropped,
        "word_list": word_list,
        "texts": texts,
        "tokenized": tokenized,
        "tokens_by_user": tokens_by_user,
        "matcher": matcher,
        "features": features,
        "skipped": skipped,
        "correlations": correlations,
        "emo_contrasts": emo_contrasts,
    }


def counters(state: dict) -> dict[str, float]:
    """Counts and ratios from the stage results; none of this is timed."""
    tokens = [tok for _, toks in state["tokenized"] for tok in toks]
    matches = {tok: bool(state["matcher"].lookup(tok)) for tok in set(tokens)}
    n_posts = len(state["posts"])
    return {
        "corpus.posts_in": state["loaded"].posts,
        "corpus.users_rejected": len(state["validity"].rejected),
        "corpus.malformed_lines": state["loaded"].malformed_lines,
        "cleaner.posts_dropped": state["dropped"],
        "cleaner.kept_ratio": len(state["cleaned"]) / n_posts if n_posts else 0.0,
        "segmenter.chars_in": sum(len(text) for _, text in state["texts"]),
        "segmenter.tokens_out": len(tokens),
        "segmenter.dict_token_ratio": sum(len(tok) > 1 for tok in tokens) / len(tokens) if tokens else 0.0,
        "lexicon.match_ratio": sum(matches[tok] for tok in tokens) / len(tokens) if tokens else 0.0,
        "model.users_skipped": len(state["skipped"]),
        "stats.pairs_undefined": sum(res.r is None for res in state["correlations"]),
        "stats.emoticon_warnings": sum(c.warning is not None for c in state["emo_contrasts"]),
    }


LOOKUP_CALLS = 300_000
LOOKUP_BATCHES = 5


def lookup_ns(state: dict) -> float:
    """Median cost of one ``CompiledMatcher.lookup`` over the run's distinct tokens."""
    distinct = sorted({tok for _, toks in state["tokenized"] for tok in toks})
    lookup = state["matcher"].lookup
    passes = max(1, LOOKUP_CALLS // (LOOKUP_BATCHES * len(distinct)))
    per_call = []
    for _ in range(LOOKUP_BATCHES):
        start = time.perf_counter_ns()
        for _ in range(passes):
            for tok in distinct:
                lookup(tok)
        per_call.append((time.perf_counter_ns() - start) / (passes * len(distinct)))
    return statistics.median(per_call)


def pooled_reruns(state: dict, tracer: Tracer) -> list[str]:
    """Rerun the three pooled stages with two workers; return the stages whose output changed."""
    t = tracer.call
    cleaned = t(
        "pool.t2.clean_corpus",
        cleaner.clean_corpus,
        state["posts"],
        state["spam"],
        system_templates=state["templates"],
        threads=2,
    )
    tokenized = t("pool.t2.segment_corpus", segmenter.segment_corpus, state["texts"], state["word_list"], threads=2)
    features = t("pool.t2.featurize", lexicon.featurize, state["tokens_by_user"], state["matcher"], threads=2)
    differ = []
    if cleaned != (state["cleaned"], state["dropped"]):
        differ.append("clean")
    if tokenized != state["tokenized"]:
        differ.append("segment")
    if features != state["features"]:
        differ.append("featurize")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--labels", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    config = RunConfig.from_file(args.config)
    with tracer.span("bundle"):
        state = compose_bundle(config, args.out_dir, tracer)
    with tracer.span("extras"):
        labels = model.read_scores_csv(args.labels)
        tracer.call("model.fit", model.fit, state["features"], labels, config.ridge_lambda)
        pool_differs = pooled_reruns(state, tracer)
        counts = {**counters(state), "lexicon.lookup_ns": lookup_ns(state)}
    doc = {"spans": tracer.spans, "counts": counts, "pool_differs": pool_differs}
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
