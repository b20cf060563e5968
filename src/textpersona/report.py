"""The whole pipeline as one artifact bundle: build_bundle.

build_bundle runs every stage over a run config's inputs and writes
each table (tables) as a CSV plus a JSON document, then manifest.json,
indented, with the artifacts' row counts, the config and the sha256 of
every input file.
"""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import ExitStack, contextmanager
from functools import partial
from itertools import chain, compress
from pathlib import Path
from typing import Callable, Container, Iterator, Mapping, NamedTuple, Sequence

from . import cleaner as cleaner_mod
from . import corpus as corpus_mod
from . import lexicon as lexicon_mod
from . import model as model_mod
from . import segmenter as segmenter_mod
from . import stats as stats_mod
from ._pool import forked_shares, parallel_map
from .config import RunConfig
from .errors import BundleError, PipelineError
from .model import TRAITS, BigFive
from .tables import (
    SCHEMA_VERSION,
    Table,
    correlations_table,
    demographic_summary,
    emoticons_table,
    features_table,
    group_means_table,
    provinces_table,
    score_summary_table,
    scores_table,
    tag_contrast_table,
    trends_table,
)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


@contextmanager
def user_pass(
    texts_by_user: Mapping[str, Sequence[str]],
    clean: Callable[[str], cleaner_mod.CleanResult],
    word_list: segmenter_mod.WordList,
    matcher: lexicon_mod.CompiledMatcher,
    model: model_mod.MappingModel,
) -> Iterator[Callable[[Container[str]], tuple]]:
    """Fork one pass over each user's raw posts; yield scored(keep), which
    finishes it and returns the features, emoticon usage and scores of the
    users in keep.

    Each post is cleaned and its segment() counted by
    lexicon.featurize_user as it is made, and a user's emoticons are
    counted into a plain dict, in order of first use. With two or more
    users and two usable CPUs the second half of the sorted user ids
    runs in a forked child (_pool.forked_shares), forked on entry, so
    the caller can work (build_bundle reads and validates the profiles)
    while it runs; scored runs the first half here. Each
    half builds its FeatureMatrix and runs model.predict on it, and
    sends back tuples and plain dicts. The halves are joined in id
    order, so the result does not depend on the fork. Every user is
    scored; a half whose predict fails sends None for its scores, and
    scored then returns None for the scores, which the caller predicts
    again over the users in keep alone. A featurize failure fails the
    pass for any user. Users without a kept emoticon are absent from
    usage. The child is reaped on exit, whether scored ran, returned or
    raised.
    """
    user_ids = tuple(sorted(texts_by_user))
    names = matcher.category_names
    count = partial(lexicon_mod.featurize_user, matcher, {})  # one lookup memo, copied into the child
    segment = segmenter_mod.segment  # read per call, so a patched segment() is the one run
    # one str object per distinct emoticon, shared by every user's usage dict:
    # on user_heavy seed 1 this keeps report's peak RSS 3.5 MB lower in
    # process and 4.1 MB lower forked, and a forked share's pickled usage
    # 60% smaller (283k -> 115k bytes)
    emoticon_key = {}.setdefault

    def one_user(uid: str) -> tuple[int, tuple[float, ...], dict[str, int]]:
        usage: dict[str, int] = {}

        def tokens():
            for text in texts_by_user[uid]:
                clean_text, found, dropped = clean(text)
                if not dropped:
                    for emoticon in found:
                        emoticon = emoticon_key(emoticon, emoticon)
                        usage[emoticon] = usage.get(emoticon, 0) + 1
                    yield segment(clean_text, word_list)

        n, row = count(tokens())
        return n, row, usage

    def one_share(ids: list[str]):
        ids = tuple(ids)
        counted = [one_user(uid) for uid in ids]
        counts, rows = tuple(n for n, _, _ in counted), tuple(row for _, row, _ in counted)
        usage = {uid: used for uid, (_, _, used) in zip(ids, counted) if used}
        try:
            scores = model_mod.predict(model, lexicon_mod.FeatureMatrix(names, ids, counts, rows))[0]
        except Exception:  # a left-out user's scores may fail; build_bundle predicts the kept users again
            return counts, rows, usage, None
        # plain tuples pickle without BigFive's Python-level reduce and check
        return counts, rows, usage, [(uid, tuple(score)) for uid, score in scores]

    with forked_shares(one_share, user_ids) as gather:

        def scored(keep: Container[str]):
            counts, rows, usage, scores = zip(*gather())
            kept = [uid in keep for uid in user_ids]
            features = lexicon_mod.FeatureMatrix(
                names,
                tuple(compress(user_ids, kept)),
                tuple(compress(chain.from_iterable(counts), kept)),
                tuple(compress(chain.from_iterable(rows), kept)),
            )
            usage = {uid: used for share in usage for uid, used in share.items() if uid in keep}
            if None in scores:
                return features, usage, None
            # predict checked every score, so they are rewrapped without BigFive.__new__'s check
            scores = [(uid, tuple.__new__(BigFive, score)) for share in scores for uid, score in share if uid in keep]
            return features, usage, scores

        yield scored


# a bundle needs these; the spam keyword and system template paths may be unset
REQUIRED_KEYS = ("profiles_path", "posts_path", "lexicon_path", "word_list_path", "model_path", "reference_date")


class ReportBundle(NamedTuple):
    out_dir: Path
    artifacts: tuple[tuple[str, str, str, int], ...]  # (name, csv, json, rows)
    manifest_path: Path


def build_bundle(config: RunConfig, out_dir) -> ReportBundle:
    """Run the full pipeline and write every artifact plus manifest.json.

    Stages, in the order they run: load (the posts file) -> clean (the
    spam and template rules) -> segment (the word list) -> featurize (the
    lexicon) -> predict (the model) -> the per-user pass -> load (the
    profiles file) and validate, while the pass runs -> analyses. Any
    stage failure aborts with the stage name; a bad input fails at its
    own stage, with its own exit code and message. A bad profiles file
    is reported only after the posts file, rules, word list, lexicon and
    model have loaded, so with several bad inputs one of those may be
    reported first.

    Clean, segment, featurize and predict are one pass per user
    (user_pass) over every user with a post, so no post's cleaned text
    or token list is kept. On two usable CPUs the second half of its
    users runs in a forked child, forked before the profiles are read,
    at any corpus size (_pool.forked_shares); the parent reads and
    validates the profiles (corpus.accept_users) meanwhile, then runs
    the first half and keeps only the accepted users' rows, scores and
    emoticon usage. A featurize failure keeps its stage across the pipe.
    The scores of a rejected user or of a user with no profile may
    overflow. If a half's predict fails, predict runs again here over
    the accepted users' matrix alone, so model.predict is the one place
    a predict error comes from: the first accepted user in id order
    whose scores overflow fails the run at predict. The child is
    reaped, also when the profiles or validation fail while it runs.

    After predict the work splits into two halves of about equal time:
    one reads the feature matrix (features.*, then correlation_matrix and
    correlations.*), the other writes scores.* and runs and writes the
    analyses of profiles and scores. On two usable CPUs a forked child
    runs the first while the parent runs the second, and a child's
    error, a BundleError included, is re-raised here; otherwise the
    second runs, then the first. Either way a failure in one half may
    leave the other's tables written, as a write failure midway leaves
    a partial bundle.

    The cyclic garbage collector is paused for the run, forked children
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

    posts, _ = stage("load", corpus_mod.load_posts, config.posts_path)
    spam, templates = stage("clean", cleaner_mod.load_rules, config.spam_keywords_path, config.system_templates_path)
    word_list = stage("segment", segmenter_mod.load_word_list, config.word_list_path)
    lexicon = stage("featurize", lexicon_mod.parse_lexicon, config.lexicon_path)
    matcher = lexicon_mod.compile_lexicon(lexicon)
    mapping = stage("predict", model_mod.load_model, config.model_path)
    texts_by_user: dict[str, list[str]] = {}
    for post in posts:
        texts_by_user.setdefault(post.user_id, []).append(post.text)
    del posts  # each text-layer input is freed once read
    clean = partial(cleaner_mod.clean, spam_keywords=spam, system_templates=templates)
    with ExitStack() as forks:  # the per-user pass runs while the parent reads and validates the profiles
        scored = stage("featurize", forks.enter_context, user_pass(texts_by_user, clean, word_list, matcher, mapping))
        profiles, _ = stage("load", corpus_mod.load_profiles, config.profiles_path)
        profiles, validity = stage(
            "validate",
            corpus_mod.accept_users,
            profiles,
            texts_by_user,
            min_followers=config.min_followers,
            ad_url_patterns=config.ad_url_patterns,
            reference_date=config.reference_date,
            age_range=config.age_range,
        )
        if not profiles:
            raise BundleError("validate", PipelineError("no users left after validation"))
        features, emoticon_usage, scores = stage("featurize", scored, {p.user_id for p in profiles})
    del texts_by_user
    if scores is None:  # a half's predict failed; a left-out user's overflow fails nothing here
        scores, _ = stage("predict", model_mod.predict, mapping, features)

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

    tasks = [  # the first runs here; the second, what reads the feature matrix, in a child on two CPUs
        lambda: [write(scores_table(scores)), *map(write, stage("analyses", analyses))],
        lambda: [
            write(features_table(features, lexicon.category_names)),
            write(correlations_table(stage("analyses", stats_mod.correlation_matrix, features, scores, config.alpha))),
        ],
    ]
    here, child = parallel_map(lambda task: task(), tasks, threads=2)
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
