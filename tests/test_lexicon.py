"""Dictionary parsing, matcher equivalence, and featurization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textpersona.errors import LexiconParseError
from textpersona.lexicon import (
    FeatureVector,
    Lexicon,
    LexiconEntry,
    brute_force_lookup,
    compile_lexicon,
    featurize,
    parse_lexicon,
    read_features_csv,
)
from textpersona.config import builtin_data_path
from textpersona.report import features_table


def write_dic(tmp_path, body):
    path = tmp_path / "test.dic"
    path.write_text(body, encoding="utf-8")
    return path


def test_parse_minimal(tmp_path):
    path = write_dic(tmp_path, "%\n1\tPosEmo\n2\tNegEmo\n%\n开心\t1\n")
    lex = parse_lexicon(path)
    assert lex.category_names == ("PosEmo", "NegEmo")
    assert lex.entries == (LexiconEntry("开心", False, frozenset({1})),)


def test_parse_wildcard(tmp_path):
    path = write_dic(tmp_path, "%\n2\tNegEmo\n%\n担忧*\t2\n")
    lex = parse_lexicon(path)
    entry = lex.entries[0]
    assert entry.pattern == "担忧" and entry.wildcard


def test_undeclared_category_is_fatal(tmp_path):
    path = write_dic(tmp_path, "%\n1\tPosEmo\n%\n高兴\t1\t3\n")
    with pytest.raises(LexiconParseError, match="line 4.*undeclared.*3"):
        parse_lexicon(path)


def test_duplicate_category_id_is_fatal(tmp_path):
    path = write_dic(tmp_path, "%\n1\tPosEmo\n1\tNegEmo\n%\n")
    with pytest.raises(LexiconParseError, match="duplicate category id"):
        parse_lexicon(path)


def test_duplicate_entry_is_fatal(tmp_path):
    path = write_dic(tmp_path, "%\n1\tA\n%\n开心\t1\n开心\t1\n")
    with pytest.raises(LexiconParseError, match="duplicate entry"):
        parse_lexicon(path)


def test_interior_star_is_fatal(tmp_path):
    path = write_dic(tmp_path, "%\n1\tA\n%\n开*心\t1\n")
    with pytest.raises(LexiconParseError, match="trailing wildcard"):
        parse_lexicon(path)


def test_missing_header_is_fatal(tmp_path):
    path = write_dic(tmp_path, "开心\t1\n")
    with pytest.raises(LexiconParseError):
        parse_lexicon(path)


def test_comments_and_blanks_ignored(tmp_path):
    path = write_dic(tmp_path, "# hi\n%\n1\tA\n%\n\n# more\n开心\t1\n")
    assert len(parse_lexicon(path).entries) == 1


def test_fixture_lexicon_parses():
    lex = parse_lexicon(builtin_data_path("sc_liwc_fixture.dic"))
    assert len(lex.categories) == 30
    assert len(lex.entries) > 450
    names = lex.category_names
    for expected in ("I", "We", "They", "Verb", "Quant", "SpecArt", "Social",
                     "Affect", "PosEmo", "NegEmo", "Anx", "Ingest", "Achieve",
                     "Love", "Hear"):
        assert expected in names


def lex_of(*entries, n_categories=5):
    cats = tuple((i + 1, f"C{i + 1}") for i in range(n_categories))
    return Lexicon(categories=cats, entries=tuple(entries))


def test_lookup_exact():
    lex = lex_of(LexiconEntry("开心", False, frozenset({1})))
    matcher = compile_lexicon(lex)
    assert matcher.lookup("开心") == {1}
    assert matcher.lookup("开心果") == frozenset()


def test_lookup_wildcard_prefix():
    lex = lex_of(LexiconEntry("担忧", True, frozenset({2})))
    matcher = compile_lexicon(lex)
    assert matcher.lookup("担忧着") == {2}
    assert matcher.lookup("担忧") == {2}  # prefix includes the pattern itself
    assert matcher.lookup("担") == frozenset()


def test_exact_and_wildcard_union():
    lex = lex_of(
        LexiconEntry("担忧", False, frozenset({1})),
        LexiconEntry("担", True, frozenset({2})),
        LexiconEntry("担忧", True, frozenset({3})),
    )
    matcher = compile_lexicon(lex)
    assert matcher.lookup("担忧") == {1, 2, 3}
    assert matcher.lookup("担忧的") == {2, 3}
    assert matcher.lookup("担保") == {2}


_ALPHABET = "担忧开心高兴难过abc"


@st.composite
def random_lexicons(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    entries = {}
    for _ in range(n):
        pattern = draw(st.text(alphabet=_ALPHABET, min_size=1, max_size=4))
        wildcard = draw(st.booleans())
        ids = frozenset(draw(st.sets(st.integers(1, 5), min_size=1, max_size=3)))
        key = (pattern, wildcard)
        entries[key] = LexiconEntry(pattern, wildcard, ids)
    return lex_of(*entries.values())


@given(random_lexicons(), st.lists(st.text(alphabet=_ALPHABET, min_size=0, max_size=6), max_size=30))
@settings(max_examples=300, deadline=None)
def test_matcher_equals_brute_force(lexicon, tokens):
    matcher = compile_lexicon(lexicon)
    for token in tokens:
        assert matcher.lookup(token) == brute_force_lookup(lexicon, token)


def test_featurize_percentages():
    lex = lex_of(
        LexiconEntry("好", False, frozenset({1})),
        LexiconEntry("坏", False, frozenset({2})),
    )
    matcher = compile_lexicon(lex)
    tokens = {"u1": [["好", "好", "坏", "其", "他", "字", "符", "号", "的", "词"]]}
    (fv,) = featurize(tokens, matcher)
    assert fv.token_count == 10
    assert fv.freqs["C1"] == 20.0
    assert fv.freqs["C2"] == 10.0
    assert fv.freqs["C3"] == 0.0


def test_featurize_multi_category_token():
    lex = lex_of(LexiconEntry("爱", False, frozenset({1, 2})))
    matcher = compile_lexicon(lex)
    (fv,) = featurize({"u": [["爱", "别"]]}, matcher)
    assert fv.freqs["C1"] == 50.0 and fv.freqs["C2"] == 50.0


def test_featurize_degenerate_user():
    matcher = compile_lexicon(lex_of())
    (fv,) = featurize({"u": [[]]}, matcher)
    assert fv.degenerate and fv.token_count == 0
    assert all(v == 0.0 for v in fv.freqs.values())


def test_featurize_planted_counts_recovered():
    """Generator knows ground truth per category; exact recovery."""
    lex = lex_of(
        LexiconEntry("甲", False, frozenset({1})),
        LexiconEntry("乙", False, frozenset({2})),
        LexiconEntry("丙", True, frozenset({3})),
    )
    matcher = compile_lexicon(lex)
    planted = {"甲": 7, "乙": 13, "丙x": 5}
    tokens = []
    for token, count in planted.items():
        tokens.extend([token] * count)
    tokens.extend(["无"] * 25)
    (fv,) = featurize({"u": [tokens]}, matcher)
    total = 7 + 13 + 5 + 25
    assert fv.token_count == total
    assert fv.freqs["C1"] == pytest.approx(100.0 * 7 / total)
    assert fv.freqs["C2"] == pytest.approx(100.0 * 13 / total)
    assert fv.freqs["C3"] == pytest.approx(100.0 * 5 / total)


def test_featurize_order_invariant_and_scale():
    lex = lex_of(LexiconEntry("好", False, frozenset({1})))
    matcher = compile_lexicon(lex)
    posts = [["好", "坏"], ["平", "好"]]
    (fv1,) = featurize({"u": posts}, matcher)
    (fv2,) = featurize({"u": posts[::-1]}, matcher)
    assert fv1.freqs == fv2.freqs and fv1.token_count == fv2.token_count
    (fv3,) = featurize({"u": posts * 2}, matcher)
    assert fv3.freqs == fv1.freqs
    assert fv3.token_count == 2 * fv1.token_count


def test_featurize_sorted_by_user_id():
    matcher = compile_lexicon(lex_of())
    out = featurize({"b": [["x"]], "a": [["y"]], "c": [[]]}, matcher)
    assert [fv.user_id for fv in out] == ["a", "b", "c"]


def test_featurize_parallel_matches_serial():
    """Two workers give the serial vectors, above the 64-user serial cut-off."""
    lex = lex_of(
        LexiconEntry("好", False, frozenset({1})),
        LexiconEntry("坏", True, frozenset({2, 3})),
    )
    matcher = compile_lexicon(lex)
    tokens_by_user = {
        f"u{i:03d}": [["好", "坏事", "平"][: 1 + i % 3] * (1 + i % 4), ["坏"] * (i % 5)] for i in range(200)
    }
    serial = featurize(tokens_by_user, matcher, threads=1)
    assert featurize(tokens_by_user, matcher, threads=2) == serial
    assert len({fv.freqs["C2"] for fv in serial}) > 5


def test_features_csv_round_trip(tmp_path):
    fvs = [
        FeatureVector("u1", {"A": 12.5, "B": 0.0}, 8),
        FeatureVector("u2", {"A": 0.0, "B": 33.333333}, 3),
    ]
    path = tmp_path / "features.csv"
    features_table(fvs, ["A", "B"]).write_csv(path)
    back, names = read_features_csv(path)
    assert names == ["A", "B"]
    assert back[0].user_id == "u1" and back[0].token_count == 8
    assert back[0].freqs["A"] == 12.5
    assert back[1].freqs["B"] == pytest.approx(33.333333)


@given(
    random_lexicons(),
    st.dictionaries(
        st.text(alphabet="uvw0123", min_size=1, max_size=4),
        st.lists(st.lists(st.text(alphabet=_ALPHABET, min_size=1, max_size=3), max_size=40), max_size=4),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=100, deadline=None)
def test_featurize_csv_round_trip_is_exact(tmp_path_factory, lexicon, tokens_by_user):
    features = featurize(tokens_by_user, compile_lexicon(lexicon))
    path = tmp_path_factory.getbasetemp() / "round_trip_features.csv"
    features_table(features, lexicon.category_names).write_csv(path)
    back, names = read_features_csv(path)
    assert names == list(lexicon.category_names)
    assert [(fv.user_id, fv.token_count, dict(fv.freqs)) for fv in back] == [
        (fv.user_id, fv.token_count, dict(fv.freqs)) for fv in features
    ]


@pytest.mark.parametrize("total", [1, 3, 7, 999, 123_457, 9_999_991, 10**7])
def test_features_csv_rebuilds_exact_frequencies_at_large_token_counts(tmp_path, total):
    # the floats featurize() computes: count * (100 / total)
    counts = sorted({0, 1, total // 3, total // 2 + 1, total - 1, total})
    names = [f"C{i}" for i in range(len(counts))]
    scale = 100.0 / total
    fv = FeatureVector("u", {name: k * scale for name, k in zip(names, counts)}, total)
    path = tmp_path / "features.csv"
    features_table([fv], names).write_csv(path)
    (back,), _ = read_features_csv(path)
    assert back.freqs == fv.freqs and back.token_count == total

