#!/usr/bin/env python3
"""Regenerate the bundled fixture data and the frozen golden files.

Deterministic: rerunning produces byte-identical output on any machine.
The model is fit from the files this tool writes, labels.csv and
features_golden.csv read back with read_scores_csv and
read_features_csv, so it sees exactly what `textpersona fit` sees when
the per-stage CLI chain is run on the fixture corpus. Run from the
repository root after changing the fixture lexicon or the generator:

    python tools/make_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from textpersona import RunConfig, cleaner, corpus, lexicon, model, report, segmenter, synth  # noqa: E402

DATA = ROOT / "src" / "textpersona" / "data"
FIXTURE = DATA / "fixture_corpus"
TESTDATA = ROOT / "tests" / "data"

N_USERS = 120
N_LABELED = 40


def write_word_list(lex) -> Path:
    words = {e.pattern for e in lex.entries}
    words.update(synth._FILLER_WORDS)
    words.update({"天气", "很好", "路上", "不用", "没有", "可以", "觉得"})
    words = {w for w in words if len(w) >= 1}
    path = DATA / "wordlist.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# segmentation word list derived from the fixture dictionary\n")
        for word in sorted(words):
            fh.write(word + "\n")
    return path


def profile_record(p: corpus.UserProfile) -> dict:
    rec = {
        "user_id": p.user_id,
        "verified": p.verified,
        "follower_count": p.follower_count,
        "tags": list(p.tags),
        "schools": list(p.schools),
    }
    if p.gender == "male":
        rec["gender"] = "m"
    elif p.gender == "female":
        rec["gender"] = "f"
    if p.location is not None:
        rec["location"] = p.location
    if p.introduction is not None:
        rec["introduction"] = p.introduction
    if p.birth_date is not None:
        rec["birth_date"] = p.birth_date.isoformat()
    return rec


def write_corpus(out_dir: Path, lex) -> tuple[synth.SynthCorpus, list[corpus.Post]]:
    """Draw the fixture corpus and write its profiles.jsonl and posts.jsonl into out_dir."""
    corpus_data = synth.generate_scored_corpus(N_USERS, seed=7)
    word_pool = sorted({e.pattern for e in lex.entries if not e.wildcard})[:200]
    posts = synth.generate_posts(
        [p.user_id for p in corpus_data.profiles],
        seed=8,
        word_pool=tuple(word_pool) + synth._FILLER_WORDS,
        emoticon_usage=corpus_data.emoticon_usage,
    )
    with open(out_dir / "profiles.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for p in corpus_data.profiles:
            fh.write(json.dumps(profile_record(p), ensure_ascii=False, sort_keys=True) + "\n")
    with open(out_dir / "posts.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for post in posts:
            fh.write(
                json.dumps(
                    {"user_id": post.user_id, "text": post.text, "is_repost": post.is_repost},
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )
    return corpus_data, posts


def write_bundle_golden(path: Path, **settings) -> None:
    """Write the sha256 of every file `textpersona report` writes on the fixture run config, with settings set."""
    config = RunConfig.from_file(FIXTURE / "run_config.json")
    for key, value in settings.items():
        setattr(config, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        bundle = report.build_bundle(config, tmp)
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in bundle.out_dir.iterdir()}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> None:
    defaults = RunConfig()
    FIXTURE.mkdir(parents=True, exist_ok=True)
    TESTDATA.mkdir(parents=True, exist_ok=True)

    lex = lexicon.parse_lexicon(DATA / "sc_liwc_fixture.dic")
    word_list_path = write_word_list(lex)
    corpus_data, posts = write_corpus(FIXTURE, lex)
    ids = [p.user_id for p in corpus_data.profiles]

    labeled = ids[:N_LABELED]
    report.scores_table([(uid, corpus_data.scores[uid]) for uid in labeled]).write_csv(FIXTURE / "labels.csv")

    # pipeline: clean -> segment -> featurize over the fixture posts
    cleaned, _ = cleaner.clean_corpus(posts, cleaner.DEFAULT_SPAM_KEYWORDS)
    words = segmenter.load_word_list(word_list_path)
    tokenized = segmenter.segment_corpus([(u, r.clean_text) for u, r in cleaned], words)
    tokens_by_user: dict[str, list[list[str]]] = {uid: [] for uid in ids}
    for uid, tokens in tokenized:
        tokens_by_user[uid].append(tokens)
    matcher = lexicon.compile_lexicon(lex)
    report.features_table(lexicon.featurize(tokens_by_user, matcher), lex.category_names).write_csv(
        TESTDATA / "features_golden.csv"
    )

    # fit on the written files, as `textpersona fit` does
    features = lexicon.read_features_csv(TESTDATA / "features_golden.csv")
    labels = model.read_scores_csv(FIXTURE / "labels.csv")
    mapping = model.fit(features, labels, ridge_lambda=defaults.ridge_lambda)
    model.save_model(mapping, FIXTURE / "model.json")

    run_config = {
        "reference_date": synth.REFERENCE_DATE.isoformat(),
        "profiles_path": "profiles.jsonl",
        "posts_path": "posts.jsonl",
        "lexicon_path": "../sc_liwc_fixture.dic",
        "word_list_path": "../wordlist.txt",
        "spam_keywords_path": "../spam_keywords.txt",
        "system_templates_path": "../system_templates.txt",
        "model_path": "model.json",
    }
    with open(FIXTURE / "run_config.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(run_config, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # frozen goldens for the test suite
    scores, _ = model.predict(mapping, features)
    report.scores_table(scores).write_csv(TESTDATA / "scores_golden.csv")

    validated, _, validity = corpus.validate_users(
        list(corpus_data.profiles),
        posts,
        min_followers=defaults.min_followers,
        ad_url_patterns=defaults.ad_url_patterns,
        reference_date=synth.REFERENCE_DATE,
    )
    report.demographic_summary(validated).write_csv(TESTDATA / "demographics_golden.csv")
    write_bundle_golden(TESTDATA / "bundle_golden.json")
    # the default emoticon_min_count leaves the fixture's emoticon table empty; 50 gives it 50 rows
    write_bundle_golden(TESTDATA / "bundle_golden_emoticons.json", emoticon_min_count=50)

    emoticon_totals = Counter()
    for counts in corpus_data.emoticon_usage.values():
        emoticon_totals.update(counts)
    print(f"fixture corpus: {len(corpus_data.profiles)} profiles, {len(posts)} posts")
    print(f"validated: {validity.accepted}/{validity.total_users} accepted")
    print(f"labels: {len(labels)}; model K={len(mapping.category_names)}")
    print(f"emoticon occurrences: {sum(emoticon_totals.values())}")


if __name__ == "__main__":
    main()
