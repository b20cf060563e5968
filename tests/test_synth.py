"""Sanity checks on the planted-effect corpus generator."""

import importlib.util
from pathlib import Path

import numpy as np

from textpersona.config import builtin_data_path
from textpersona.lexicon import parse_lexicon
from textpersona.stats import polarity_split
from textpersona.synth import (
    PLANTED_EMOTICON,
    PLANTED_TAG,
    VERIFIED_C_OFFSET,
    generate_posts,
    generate_scored_corpus,
    stratified_normal,
)


def test_stratified_normal_moments():
    rng = np.random.default_rng(0)
    draws = stratified_normal(rng, 4000, sd=10.0)
    assert abs(draws.mean()) < 0.05  # far tighter than iid sd/sqrt(n) ~ 0.16
    assert abs(draws.std() - 10.0) < 0.3


def test_corpus_shapes_and_determinism():
    a = generate_scored_corpus(300, seed=5)
    b = generate_scored_corpus(300, seed=5)
    assert a.profiles == b.profiles
    assert a.scores == b.scores
    assert a.emoticon_usage == b.emoticon_usage
    assert len(a.profiles) == 300
    assert all(len(p.tags) <= 10 for p in a.profiles)


def test_planted_tag_concentrates_in_high_n():
    corpus = generate_scored_corpus(800, seed=1)
    pairs = [(uid, corpus.scores[uid].n) for uid in corpus.scores]
    split = polarity_split(pairs, 0.25, trait="N")
    by_id = {p.user_id: p for p in corpus.profiles}
    high_rate = sum(PLANTED_TAG in by_id[u].tags for u in split.high_ids) / len(split.high_ids)
    low_rate = sum(PLANTED_TAG in by_id[u].tags for u in split.low_ids) / len(split.low_ids)
    assert high_rate > 0.6 and low_rate < 0.2


def test_planted_verified_offset_direction():
    corpus = generate_scored_corpus(800, seed=2)
    by_flag = {True: [], False: []}
    for p in corpus.profiles:
        by_flag[p.verified].append(corpus.scores[p.user_id].c)
    diff = np.mean(by_flag[True]) - np.mean(by_flag[False])
    assert abs(diff - VERIFIED_C_OFFSET) < 1.0


def test_planted_emoticon_rate():
    corpus = generate_scored_corpus(800, seed=3)
    pairs = [(uid, corpus.scores[uid].o) for uid in corpus.scores]
    split = polarity_split(pairs, 0.25, trait="O")
    high = sum(corpus.emoticon_usage[u].get(PLANTED_EMOTICON, 0) for u in split.high_ids)
    low = sum(corpus.emoticon_usage[u].get(PLANTED_EMOTICON, 0) for u in split.low_ids)
    assert high > 2 * low


def test_generate_posts_spends_emoticons():
    corpus = generate_scored_corpus(50, seed=4)
    ids = [p.user_id for p in corpus.profiles]
    posts = generate_posts(ids, seed=5, emoticon_usage=corpus.emoticon_usage)
    text = "".join(p.text for p in posts)
    for uid in ids[:10]:
        for emoticon, count in corpus.emoticon_usage[uid].items():
            user_text = "".join(p.text for p in posts if p.user_id == uid)
            assert user_text.count(emoticon) == count
    assert any("http://" in p.text for p in posts)
    assert any("@" in p.text for p in posts)
    assert text  # non-empty corpus


def test_fixture_corpus_is_synth_output(tmp_path):
    """The committed fixture corpus is exactly what synth draws for it today."""
    tool_path = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.write_corpus(tmp_path, parse_lexicon(builtin_data_path("sc_liwc_fixture.dic")))
    for name in ("profiles.jsonl", "posts.jsonl"):
        assert (tmp_path / name).read_bytes() == builtin_data_path("fixture_corpus", name).read_bytes()
