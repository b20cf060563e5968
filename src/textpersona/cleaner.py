"""Microblog text cleaning and emoticon extraction.

Rule order, applied once per post:

1. Spam check on the raw text (case-insensitive substring against the
   spam keyword list). A hit drops the whole post.
2. System-message check on the raw text (substring against the template
   list, e.g. the deleted-post notice). A hit drops the whole post.
3. In-place removals: reply/repost marker words, geo-location markup,
   URLs (scheme through the next whitespace), @mentions, paired #...#
   hashtags including content. Each runs only where its literal occurs
   (the marker word, "我在这里", "://", "@", "#"), which every match
   contains, so skipping it changes nothing.
4. Emoticon extraction: bracketed emote names like "[心]" and Unicode
   emoji codepoints are collected in order of appearance and removed,
   by one pattern led by one character class ("[", the BMP emoji and
   one range over the astral emoji blocks), so the scan skips ahead to
   where an emoticon can start.
5. Whitespace runs collapse to a single space; ends are trimmed.

Marker words are removed before URL/mention/hashtag patterns so that a
removal can never splice together a new URL that would survive the pass;
this keeps clean() idempotent on its own output.

An unpaired "#" is left alone (only #...# pairs are hashtags), and a "["
with no "]" within 20 characters is literal text, not an emoticon.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import Iterable, NamedTuple, Sequence

from .config import load_keyword_file
from .corpus import Post
from ._pool import parallel_map

DEFAULT_SPAM_KEYWORDS = ("淘宝", "taobao", "代购", "优惠券", "加微信")

DEFAULT_SYSTEM_TEMPLATES = (
    "抱歉，此微博已被删除",
    "抱歉，该微博已被作者删除",
    "此微博不适宜对外公开",
    "微博官方认证通知",
)

DEFAULT_MARKER_WORDS = ("转发微博", "回复")

_URL_RE = re.compile(r"https?://\S+")
# \w is Unicode-aware, so CJK user names are covered
_MENTION_RE = re.compile(r"@[\w·\-]+")
_HASHTAG_RE = re.compile(r"#[^#\n]*#")
_GEO_RE = re.compile(r"我在这里[:：]?")

_BMP_EMOJI = "☀-➿⭐⭕"  # misc symbols, dingbats
_ASTRAL_EMOJI = (
    "\U0001f300-\U0001f5ff"
    "\U0001f600-\U0001f64f"
    "\U0001f680-\U0001f6ff"
    "\U0001f900-\U0001f9ff"
    "\U0001fa70-\U0001faff"
)
# The leading class spans the astral emoji blocks with one range, which
# the scan tests at every character faster than five; the emoji branch's
# lookbehind keeps only the listed ranges. Each lookbehind reads the
# character the class took. One capturing group: split() returns text
# and emoticons alternately.
_EMOTICON_RE = re.compile(
    r"([\[" + _BMP_EMOJI + "\U0001f300-\U0001faff]"
    r"(?:(?<=\[)[^\[\]\s]{1,20}\]"  # after "[": a bracketed emote name
    r"|(?<=[" + _BMP_EMOJI + _ASTRAL_EMOJI + r"])\ufe0f?))"  # after an emoji: an optional U+FE0F
)


class CleanResult(NamedTuple):
    """Outcome of cleaning one post.

    dropped=True means the post was system-generated or spam; in that
    case clean_text is empty and no emoticons are reported.
    """

    clean_text: str
    emoticons: tuple[str, ...]
    dropped: bool


_DROPPED = CleanResult("", (), True)


def load_rules(spam_path, templates_path) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Spam keywords and system templates; a None path keeps the default list."""
    spam = load_keyword_file(spam_path) if spam_path else DEFAULT_SPAM_KEYWORDS
    templates = load_keyword_file(templates_path) if templates_path else DEFAULT_SYSTEM_TEMPLATES
    return spam, templates


@lru_cache(maxsize=8)
def _spam_pattern(keywords: tuple[str, ...]) -> re.Pattern | None:
    """One alternation of the lowercased keywords; None when there are none."""
    return re.compile("|".join(re.escape(keyword.lower()) for keyword in keywords)) if keywords else None


def clean(
    text: str,
    spam_keywords: Sequence[str],
    *,
    system_templates: Sequence[str] = DEFAULT_SYSTEM_TEMPLATES,
) -> CleanResult:
    """Apply the cleaning rules to one raw post."""
    spam = _spam_pattern(tuple(spam_keywords))
    if spam is not None and spam.search(text.lower()):
        return _DROPPED
    for template in system_templates:
        if template in text:
            return _DROPPED

    s = text
    for marker in DEFAULT_MARKER_WORDS:
        if marker in s:
            s = s.replace(marker, " ")
    if "我在这里" in s:
        s = _GEO_RE.sub(" ", s)
    if "://" in s:
        s = _URL_RE.sub(" ", s)
    if "@" in s:
        s = _MENTION_RE.sub(" ", s)
    if "#" in s:
        s = _HASHTAG_RE.sub(" ", s)

    parts = _EMOTICON_RE.split(s)
    # str.split() splits on exactly the characters regex \s matches
    return CleanResult(" ".join(" ".join(parts[::2]).split()), tuple(parts[1::2]), False)


def clean_corpus(
    posts: Iterable[Post],
    spam_keywords: Sequence[str],
    *,
    system_templates: Sequence[str] = DEFAULT_SYSTEM_TEMPLATES,
    threads: int = 1,
) -> tuple[list[tuple[str, CleanResult]], int]:
    """Clean every post, preserving order; dropped posts are counted out.

    Returns (kept results keyed by user_id, drop count). Posts that clean
    to an empty string but were not spam/system posts are kept: their
    emoticons still matter to the emoticon analyses.
    """
    posts = list(posts)
    fn = partial(
        clean,
        spam_keywords=tuple(spam_keywords),
        system_templates=tuple(system_templates),
    )
    results = parallel_map(fn, [p.text for p in posts], threads=threads)
    kept: list[tuple[str, CleanResult]] = []
    drop_count = 0
    for post, result in zip(posts, results):
        if result.dropped:
            drop_count += 1
        else:
            kept.append((post.user_id, result))
    return kept, drop_count
