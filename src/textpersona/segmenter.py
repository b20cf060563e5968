"""Dictionary segmentation by forward maximum matching.

At each position the longest word-list entry matching the upcoming text
wins; with no match, one character becomes a token. Two extra rules keep
mixed text sane: ASCII alphanumeric runs are emitted whole (so "4G" or
"iPhone" never splinter), and whitespace/punctuation (Unicode categories
P and S) separate tokens without being emitted.

Concatenating the tokens therefore reproduces the input minus separators,
and the greedy choice makes the output a deterministic function of
(text, word list). report.build_bundle runs segment and featurize as one
pass: featurize counts a lazy segment() of each post, keeping no tokens.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Iterable, Mapping, Sequence

from ._pool import parallel_map
from .config import load_keyword_file
from .errors import InputFormatError

_ASCII_ALNUM = frozenset(
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)

# memoized per character: microblog text reuses a small alphabet, and
# unicodedata.category is not free
@cache
def _is_separator(ch: str) -> bool:
    return ch.isspace() or unicodedata.category(ch)[0] in ("P", "S")


@dataclass(frozen=True)
class WordList:
    """Immutable segmentation dictionary.

    lengths maps the first two characters of each word of length at
    least 2 to the lengths of the words starting with them, longest
    first, so segment() tries only the lengths that can match at a
    position. Words led by an ASCII letter or digit are left out, as the
    ASCII-run rule always wins there; a one-character word changes
    nothing, because an unmatched character is a token anyway.
    """

    words: frozenset[str]
    # derived from words, and a dict: kept out of == and hash()
    lengths: Mapping[str, tuple[int, ...]] = field(compare=False)

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "WordList":
        wordset = frozenset(words)
        by_prefix: dict[str, set[int]] = {}
        for word in wordset:
            if not word:
                raise ValueError("empty word in word list")
            if any(_is_separator(ch) for ch in word):
                raise ValueError(f"word {word!r} contains whitespace or punctuation")
            if len(word) > 1 and word[0] not in _ASCII_ALNUM:
                by_prefix.setdefault(word[:2], set()).add(len(word))
        return cls(wordset, {key: tuple(sorted(sizes, reverse=True)) for key, sizes in by_prefix.items()})


def load_word_list(path) -> WordList:
    """One word per line, UTF-8; '#' at line start comments the line out.

    An entry that WordList rejects raises InputFormatError naming the path.
    """
    try:
        return WordList.from_words(load_keyword_file(path))
    except ValueError as err:
        raise InputFormatError(f"{path}: {err}") from None


def segment(text: str, word_list: WordList) -> list[str]:
    """Tokenize cleaned text by forward maximum matching."""
    tokens: list[str] = []
    words = word_list.words
    lengths_of = word_list.lengths
    n = len(text)
    i = 0
    while i < n:
        # a candidate cut short at the end is still exact: a word equal to
        # it has its length in the tuple too, and longer candidates failed
        for length in lengths_of.get(text[i : i + 2], ()):
            piece = text[i : i + length]
            if piece in words:
                tokens.append(piece)
                i += length
                break
        else:
            ch = text[i]
            if ch in _ASCII_ALNUM:
                j = i + 1
                while j < n and text[j] in _ASCII_ALNUM:
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                if not _is_separator(ch):
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
