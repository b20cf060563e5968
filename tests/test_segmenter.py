"""Forward-maximum-matching behavior and its invariants."""

import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textpersona.segmenter import WordList, load_word_list, segment, segment_corpus


def wl(*words):
    return WordList.from_words(words)


def test_basic_dictionary_match():
    assert segment("今天不错", wl("今天", "不错")) == ["今天", "不错"]


def test_empty_word_list_falls_back_to_characters():
    assert segment("今天不错", WordList.from_words([])) == ["今", "天", "不", "错"]


def test_ascii_run_kept_whole():
    # derived against a by-hand forward-maximum-matching trace
    assert segment("abc今天", wl("今天")) == ["abc", "今天"]


def test_longest_match_wins():
    assert segment("今天天气", wl("今天", "今天天气")) == ["今天天气"]
    assert segment("今天天气", wl("今天", "天气")) == ["今天", "天气"]


def test_separators_not_emitted():
    assert segment("今天，不错！", wl("今天", "不错")) == ["今天", "不错"]
    assert segment("今天 不错", wl("今天", "不错")) == ["今天", "不错"]


def test_word_cannot_span_separator():
    assert segment("今 天", wl("今天")) == ["今", "天"]


def test_ascii_digits_and_letters_one_token():
    assert segment("a1b2今天", wl("今天")) == ["a1b2", "今天"]


def test_non_ascii_letters_fall_back_per_character():
    assert segment("ab今天", wl("今天")) == ["ab", "今天"]
    # Cyrillic is neither ASCII nor in the word list: single characters
    assert segment("да今天", wl("今天")) == ["д", "а", "今天"]


def test_mixed_punctuation_classes():
    # '+' is category Sm, '￥' Sc, '、' Po: all separators
    assert segment("今天+不错、好￥", wl("今天", "不错")) == ["今天", "不错", "好"]


def test_rejects_bad_words():
    with pytest.raises(ValueError):
        WordList.from_words([""])
    with pytest.raises(ValueError):
        WordList.from_words(["有 空格"])
    with pytest.raises(ValueError):
        WordList.from_words(["带，逗号"])


def test_load_word_list(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# comment\n今天\n不错\n\n天气\n今天天气\nQQ空间\n", encoding="utf-8")
    word_list = load_word_list(path)
    assert word_list.words == frozenset({"今天", "不错", "天气", "今天天气", "QQ空间"})
    # keyed on two characters, longest first; an ASCII-led word never matches
    assert word_list.lengths == {"今天": (4, 2), "不错": (2,), "天气": (2,)}


_CJK_CHARS = "今天不错心情好坏开末的测试话语天气"


@st.composite
def texts_and_wordlists(draw):
    text = draw(st.text(alphabet=_CJK_CHARS + " ，。", min_size=0, max_size=30))
    n_words = draw(st.integers(min_value=0, max_value=10))
    words = set()
    for _ in range(n_words):
        length = draw(st.integers(min_value=1, max_value=4))
        start = draw(st.integers(min_value=0, max_value=len(_CJK_CHARS) - 1))
        word = "".join(
            _CJK_CHARS[(start + k) % len(_CJK_CHARS)] for k in range(length)
        )
        words.add(word)
    return text, WordList.from_words(words)


@given(texts_and_wordlists())
@settings(max_examples=300, deadline=None)
def test_lossless_modulo_separators(case):
    text, word_list = case
    tokens = segment(text, word_list)
    kept = "".join(
        ch
        for ch in text
        if not (ch.isspace() or unicodedata.category(ch)[0] in ("P", "S"))
    )
    assert "".join(tokens) == kept


@given(texts_and_wordlists())
@settings(max_examples=200, deadline=None)
def test_deterministic(case):
    text, word_list = case
    assert segment(text, word_list) == segment(text, word_list)


@given(texts_and_wordlists(), st.integers(min_value=2, max_value=4))
@settings(max_examples=200, deadline=None)
def test_adding_word_never_shortens_first_covered_token(case, length):
    """FMM greediness: a new dictionary word can only lengthen the token
    at any position it covers."""
    text, word_list = case
    cjk_only = "".join(ch for ch in text if ch in _CJK_CHARS)
    if len(cjk_only) < length:
        return
    new_word = cjk_only[:length]
    before = segment(cjk_only, word_list)
    grown = WordList.from_words(set(word_list.words) | {new_word})
    after = segment(cjk_only, grown)
    assert len(after[0]) >= len(before[0])


def descending_length_fmm(text, words):
    """Reference segmenter: at each position it tries every length from the
    longest word's down to 2, with segment()'s ASCII-run and separator rules."""
    max_len = max(map(len, words), default=0)
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace() or unicodedata.category(ch)[0] in ("P", "S"):
            i += 1
            continue
        if ch.isascii() and ch.isalnum():
            j = i + 1
            while j < len(text) and text[j].isascii() and text[j].isalnum():
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        for length in range(min(max_len, len(text) - i), 1, -1):
            if text[i : i + length] in words:
                break
        else:
            length = 1
        tokens.append(text[i : i + length])
        i += length
    return tokens


_SMALL_CJK = "今天不错心情好"


@st.composite
def word_lists_and_texts(draw):
    """Word lists with prefixes of other words, single characters, words
    longer than the text and ASCII letters or digits inside words and at
    their start (like "QQ空间" or "卡拉OK"); texts mixing CJK, ASCII runs,
    separators and words, some ending partway into a word."""
    word_chars = st.sampled_from(_SMALL_CJK * 3 + "QK9")
    words = set(draw(st.lists(st.text(alphabet=word_chars, min_size=1, max_size=12), max_size=12)))
    for word in list(words):
        if len(word) > 1 and draw(st.booleans()):
            words.add(word[: draw(st.integers(1, len(word) - 1))])
    pieces = st.one_of(
        st.sampled_from(_SMALL_CJK),
        st.text(alphabet="aZ09", min_size=1, max_size=3),
        st.sampled_from([" ", "，", "!", "+", "\n"]),
        *([st.sampled_from(sorted(words))] if words else []),
    )
    text = "".join(draw(st.lists(pieces, max_size=20)))
    long_words = sorted(word for word in words if len(word) > 2)
    if long_words and draw(st.booleans()):
        word = draw(st.sampled_from(long_words))
        text += word[: draw(st.integers(2, len(word) - 1))]
    return WordList.from_words(words), text


@given(word_lists_and_texts())
# a two-character word that is also the prefix of a longer one, at the end of the text
@example((wl("今天", "今天不错"), "不错今天"))
# the pair leads only a longer word and is not a word itself: one character each
@example((wl("今天不错"), "今天好"))
# an ASCII-led two-character word: the ASCII-run rule wins
@example((wl("QQ", "Q空"), "QQQ空间 QQ"))
@settings(max_examples=500, deadline=None)
def test_segment_equals_descending_length_reference(case):
    word_list, text = case
    assert segment(text, word_list) == descending_length_fmm(text, word_list.words)


def test_segment_corpus_order_and_parallel():
    word_list = wl("今天", "不错", "天气")
    cleaned = [(f"u{i % 5}", "今天天气不错" * (1 + i % 3)) for i in range(400)]
    serial = segment_corpus(cleaned, word_list, threads=1)
    parallel = segment_corpus(cleaned, word_list, threads=3)
    assert serial == parallel
    assert [uid for uid, _ in serial] == [uid for uid, _ in cleaned]


def test_reference_fmm_cross_check():
    """Independent minimal FMM (no ASCII/separator special cases) agrees
    on pure-CJK input."""

    def reference_fmm(text, words):
        max_len = max(map(len, words))
        out = []
        i = 0
        while i < len(text):
            for size in range(min(max_len, len(text) - i), 0, -1):
                piece = text[i : i + size]
                if piece in words or size == 1:
                    out.append(piece)
                    i += size
                    break
        return out

    word_list = wl("今天", "天气", "不错", "今天天气")
    for text in ("今天天气不错", "天天气", "错不错今天气"):
        assert segment(text, word_list) == reference_fmm(text, word_list.words)
