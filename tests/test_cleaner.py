"""Cleaning rules: curated golden corpus plus generated properties."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textpersona import cleaner
from textpersona.cleaner import (
    DEFAULT_MARKER_WORDS,
    DEFAULT_SPAM_KEYWORDS,
    DEFAULT_SYSTEM_TEMPLATES,
    CleanResult,
    clean,
    clean_corpus,
)
from textpersona.corpus import Post

GOLDEN = Path(__file__).parent / "data" / "clean_golden.jsonl"


def load_golden():
    cases = []
    with open(GOLDEN, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                cases.append(json.loads(line))
    return cases


def test_golden_corpus_has_60_cases():
    assert len(load_golden()) == 60


@pytest.mark.parametrize("case", load_golden(), ids=lambda c: c["raw"][:24])
def test_golden_corpus(case):
    result = clean(case["raw"], DEFAULT_SPAM_KEYWORDS)
    assert result.clean_text == case["clean_text"]
    assert list(result.emoticons) == case["emoticons"]
    assert result.dropped == case["dropped"]


@pytest.mark.parametrize("case", load_golden(), ids=lambda c: c["raw"][:24])
def test_golden_corpus_idempotent(case):
    once = clean(case["raw"], DEFAULT_SPAM_KEYWORDS)
    twice = clean(once.clean_text, DEFAULT_SPAM_KEYWORDS)
    assert twice.clean_text == once.clean_text
    assert twice.emoticons == ()
    assert not twice.dropped


def test_mention_and_url_and_hashtag_spec_example():
    result = clean("@张三 http://t.cn/xyz 今天不错 #旅行#", DEFAULT_SPAM_KEYWORDS)
    assert result == CleanResult("今天不错", (), False)


def test_bracket_emoticons_extracted_in_order():
    result = clean("今天不错[心][doge]", DEFAULT_SPAM_KEYWORDS)
    assert result.clean_text == "今天不错"
    assert result.emoticons == ("[心]", "[doge]")


def test_spam_keyword_drops_post():
    result = clean("关注我的淘宝店 全场促销", ["淘宝"])
    assert result.dropped and result.clean_text == "" and result.emoticons == ()


def test_dropped_implies_empty():
    for case in load_golden():
        result = clean(case["raw"], DEFAULT_SPAM_KEYWORDS)
        if result.dropped:
            assert result.clean_text == ""
            assert result.emoticons == ()


_CJK = st.text(alphabet="今天不错心情好坏开末呢的测试话", min_size=0, max_size=12)
_NOISE = st.sampled_from(
    [
        "",
        " http://t.cn/abc ",
        "@某人 ",
        "#话题#",
        "[心]",
        "😊",
        "转发微博",
        "我在这里:",
        "https://x.y/z",
        "[doge]",
    ]
)


@st.composite
def messy_posts(draw):
    parts = draw(st.lists(st.one_of(_CJK, _NOISE), min_size=1, max_size=8))
    return "".join(parts)


@given(messy_posts())
@settings(max_examples=300, deadline=None)
def test_idempotence_generated(text):
    once = clean(text, DEFAULT_SPAM_KEYWORDS)
    twice = clean(once.clean_text, DEFAULT_SPAM_KEYWORDS)
    assert twice.clean_text == once.clean_text
    assert twice.emoticons == ()


@given(messy_posts())
@settings(max_examples=300, deadline=None)
def test_no_pattern_survives(text):
    result = clean(text, DEFAULT_SPAM_KEYWORDS)
    s = result.clean_text
    assert "http://" not in s and "https://" not in s
    assert not re.search(r"@\w", s)
    assert not re.search(r"#[^#\n]*#", s)
    assert "[心]" not in s and "[doge]" not in s


@given(messy_posts())
@settings(max_examples=200, deadline=None)
def test_determinism(text):
    assert clean(text, DEFAULT_SPAM_KEYWORDS) == clean(text, DEFAULT_SPAM_KEYWORDS)


# the emoticon pattern as it was before it was led by one character class
_FORMER_EMOTICON_RE = re.compile(
    r"\[[^\[\]\s]{1,20}\]"
    "|[☀-➿⭐⭕\U0001f300-\U0001f5ff\U0001f600-\U0001f64f\U0001f680-\U0001f6ff\U0001f900-\U0001f9ff"
    "\U0001fa70-\U0001faff]\ufe0f?"
)


def former_clean(text, spam_keywords, system_templates):
    """The earlier pipeline: a substring test per spam keyword and per
    template, every removal run unconditionally, then emoticons by findall
    and sub, then a \\s+ regex and strip()."""
    lowered = text.lower()
    if any(keyword.lower() in lowered for keyword in spam_keywords):
        return CleanResult("", (), True)
    if any(template in text for template in system_templates):
        return CleanResult("", (), True)
    s = text
    for marker in DEFAULT_MARKER_WORDS:
        s = s.replace(marker, " ")
    for pattern in (cleaner._GEO_RE, cleaner._URL_RE, cleaner._MENTION_RE, cleaner._HASHTAG_RE):
        s = pattern.sub(" ", s)
    emoticons = tuple(_FORMER_EMOTICON_RE.findall(s))
    s = _FORMER_EMOTICON_RE.sub(" ", s)
    return CleanResult(re.sub(r"\s+", " ", s).strip(), emoticons, False)


_PIECES = st.sampled_from(
    ["今天", "不错", "[心]", "[doge]", "😊", "☀️", "[未闭合", "a.b", "axb", "TAOBAO", "淘宝", "Taobao店",
     " ", "\t", "\n", "\u3000", "\u00a0", "\u2028", "\x1c", "\x1d", "\x1e", "\x1f", "@某人", "http://t.cn/x",
     "[", "]", "\ufe0f", "(", "\\", "#", "#话题#", "://", "我在这里：", "转发微博", "回复",
     # the ends of the astral emoji ranges, and code points between them that are no emoji
     "\U0001f300", "\U0001f64f", "\U0001f650", "\U0001f67f", "\U0001f680", "\U0001f700", "\U0001f8ff",
     "\U0001f900", "\U0001fa00", "\U0001fa70", "\U0001faff", "\U0001f2ff", "\U0001fb00"]
)
_KEYWORD_LISTS = st.sampled_from([(), DEFAULT_SPAM_KEYWORDS, ("TaoBao", "代购"), ("a.b",), ("淘宝", "")])
# regex metacharacters, a template that is a prefix of another, and none at all
_TEMPLATE_LISTS = st.sampled_from(
    [DEFAULT_SYSTEM_TEMPLATES, (), ("a.b",), ("(",), ("\\",), ("今天不错", "今天"), ("不错", "不错[心]")]
)


@given(st.lists(_PIECES, max_size=12).map("".join), _KEYWORD_LISTS, _TEMPLATE_LISTS)
@example("[心][doge]今天😊\u3000\x1f[心]", (), DEFAULT_SYSTEM_TEMPLATES)
@example("\u00a0\u2028[doge]\x1c\x1d\x1e", DEFAULT_SPAM_KEYWORDS, DEFAULT_SYSTEM_TEMPLATES)
@example("买TAOBAO好物", DEFAULT_SPAM_KEYWORDS, DEFAULT_SYSTEM_TEMPLATES)
@example("axb 今天", ("a.b",), DEFAULT_SYSTEM_TEMPLATES)
@example("axb 今天", (), ("a.b",))
@example("a(b\\c", (), ("(",))
@example("今天好", (), ("今天不错", "今天"))
@example("[[心]", (), DEFAULT_SYSTEM_TEMPLATES)
@example("不错[", (), DEFAULT_SYSTEM_TEMPLATES)
@example("[😊]", (), DEFAULT_SYSTEM_TEMPLATES)
@example("☀️晴", (), DEFAULT_SYSTEM_TEMPLATES)
@example("\ufe0f今天", (), DEFAULT_SYSTEM_TEMPLATES)
@example("[" + "字" * 21 + "]", (), DEFAULT_SYSTEM_TEMPLATES)
@example("[" + "字" * 20 + "]", (), DEFAULT_SYSTEM_TEMPLATES)
@example("\U0001f650\ufe0f\U0001f64f\ufe0f\U0001fa00[\U0001f700]", (), DEFAULT_SYSTEM_TEMPLATES)
@settings(max_examples=300, deadline=None)
def test_clean_equals_former_pipeline(text, spam_keywords, system_templates):
    expected = former_clean(text, spam_keywords, system_templates)
    assert clean(text, spam_keywords, system_templates=system_templates) == expected


@given(
    st.lists(
        st.tuples(st.sampled_from(["今天不错", "心情一般", "测试文本"]),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=2)),
        min_size=0,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_emoticon_conservation(specs):
    """Well-formed brackets + emoji in = emoticons out, one per occurrence."""
    for body, n_brackets, n_emoji in specs:
        text = body + "[心]" * n_brackets + "😊" * n_emoji
        result = clean(text, DEFAULT_SPAM_KEYWORDS)
        assert len(result.emoticons) == n_brackets + n_emoji


def test_clean_corpus_counts_and_order():
    posts = [
        Post("u1", "今天不错"),
        Post("u2", "去淘宝买东西"),
        Post("u1", "还行[心]"),
    ]
    results, dropped = clean_corpus(posts, DEFAULT_SPAM_KEYWORDS)
    assert dropped == 1
    assert [uid for uid, _ in results] == ["u1", "u1"]
    assert results[1][1].emoticons == ("[心]",)


def test_clean_corpus_empty():
    results, dropped = clean_corpus([], DEFAULT_SPAM_KEYWORDS)
    assert results == [] and dropped == 0


def test_clean_corpus_planted_urls_all_removed():
    """Generator plants a known URL count; zero survive cleaning."""
    posts = []
    planted = 0
    for i in range(1000):
        text = f"正文{i}"
        if i % 3 == 0:
            text += f" http://t.cn/x{i}"
            planted += 1
        posts.append(Post(f"u{i % 7}", text))
    assert planted > 0
    results, dropped = clean_corpus(posts, DEFAULT_SPAM_KEYWORDS)
    assert dropped == 0
    assert sum("http" in res.clean_text for _, res in results) == 0


def test_parallel_matches_serial():
    posts = [Post(f"u{i}", f"@某人 正文{i} http://t.cn/{i} [心]") for i in range(600)]
    serial, d1 = clean_corpus(posts, DEFAULT_SPAM_KEYWORDS, threads=1)
    parallel, d2 = clean_corpus(posts, DEFAULT_SPAM_KEYWORDS, threads=4)
    assert serial == parallel and d1 == d2
