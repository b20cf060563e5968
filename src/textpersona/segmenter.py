"""Dictionary segmentation by forward maximum matching.

At each position the longest word-list entry matching the upcoming text
wins; with no match, one character becomes a token. Two extra rules keep
mixed text sane: ASCII alphanumeric runs are emitted whole (so "4G" or
"iPhone" never splinter), and whitespace/punctuation (Unicode categories
P and S) separate tokens without being emitted.

Concatenating the tokens therefore reproduces the input minus separators,
and the greedy choice makes the output a deterministic function of
(text, word list).
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from ._pool import parallel_map
from .config import load_keyword_file

_ASCII_ALNUM = frozenset(
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)

# per-character separator decisions are memoized: microblog text reuses
# a small alphabet, and unicodedata.category is not free
_sep_cache: dict[str, bool] = {}


def _is_separator(ch: str) -> bool:
    cached = _sep_cache.get(ch)
    if cached is None:
        cached = ch.isspace() or unicodedata.category(ch)[0] in ("P", "S")
        _sep_cache[ch] = cached
    return cached


@dataclass(frozen=True)
class WordList:
    """Immutable segmentation dictionary."""

    words: frozenset[str]
    max_len: int

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "WordList":
        wordset = frozenset(words)
        for word in wordset:
            if not word:
                raise ValueError("empty word in word list")
            if any(_is_separator(ch) for ch in word):
                raise ValueError(f"word {word!r} contains whitespace or punctuation")
        max_len = max((len(w) for w in wordset), default=0)
        return cls(words=wordset, max_len=max_len)


def load_word_list(path) -> WordList:
    """One word per line, UTF-8; '#' at line start comments the line out."""
    return WordList.from_words(load_keyword_file(path))


def segment(text: str, word_list: WordList) -> list[str]:
    """Tokenize cleaned text by forward maximum matching."""
    tokens: list[str] = []
    words = word_list.words
    max_len = word_list.max_len
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if _is_separator(ch):
            i += 1
            continue
        if ch in _ASCII_ALNUM:
            j = i + 1
            while j < n and text[j] in _ASCII_ALNUM:
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        matched = False
        for length in range(min(max_len, n - i), 1, -1):
            candidate = text[i : i + length]
            if candidate in words:
                tokens.append(candidate)
                i += length
                matched = True
                break
        if not matched:
            tokens.append(ch)
            i += 1
    return tokens


def segment_corpus(
    cleaned: Sequence[tuple[str, str]],
    word_list: WordList,
    *,
    threads: int = 1,
) -> list[tuple[str, list[str]]]:
    """Segment (user_id, clean_text) pairs, preserving order."""
    texts = [text for _, text in cleaned]
    token_lists = parallel_map(partial(segment, word_list=word_list), texts, threads=threads)
    return [(user_id, tokens) for (user_id, _), tokens in zip(cleaned, token_lists)]
