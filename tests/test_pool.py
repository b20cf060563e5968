"""Stage functions keep no shared state between concurrent calls."""

import sys
import threading

from textpersona.lexicon import Lexicon, LexiconEntry, compile_lexicon, featurize
from textpersona.segmenter import WordList, segment_corpus

ROUNDS = 10
N = 500


def _run_pair(fn, args_a, args_b):
    """Call fn(*args_a) and fn(*args_b) from two threads started together."""
    results = [None, None]
    barrier = threading.Barrier(2, timeout=30)

    def run(slot, args):
        barrier.wait()
        results[slot] = fn(*args)

    threads = [threading.Thread(target=run, args=(i, a)) for i, a in enumerate((args_a, args_b))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return results


def _matcher(category_name, *words):
    entries = tuple(LexiconEntry(word, False, frozenset({1})) for word in words)
    return compile_lexicon(Lexicon(categories=((1, category_name),), entries=entries))


def test_concurrent_calls_see_only_their_own_state():
    tokens_by_user = {f"u{i:04d}": [["甲", "乙"]] for i in range(N)}
    # the two calls' frequencies differ, so a call that used the other's matcher shows
    matchers = _matcher("A", "甲"), _matcher("B", "甲", "乙")
    cleaned = [(f"u{i:04d}", "甲乙丙") for i in range(N)]
    word_lists = WordList.from_words(["甲乙"]), WordList.from_words(["乙丙"])
    expected_tokens = ["甲乙", "丙"], ["甲", "乙丙"]

    failures = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(ROUNDS):
            features = _run_pair(
                featurize, (tokens_by_user, matchers[0]), (tokens_by_user, matchers[1])
            )
            for matrix, name, share in zip(features, "AB", (50.0, 100.0)):
                if matrix.names != (name,) or any(row != (share,) for row in matrix.rows):
                    failures.append(f"round {round_no}: featurize with category {name}")
            tokenized = _run_pair(
                segment_corpus, (cleaned, word_lists[0]), (cleaned, word_lists[1])
            )
            for pairs, tokens in zip(tokenized, expected_tokens):
                if any(got != tokens for _, got in pairs):
                    failures.append(f"round {round_no}: segment_corpus expecting {tokens}")
    finally:
        sys.setswitchinterval(old_interval)
    assert failures == []
