"""Dictionary parsing, matcher equivalence, and featurization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textpersona.errors import InputFormatError, PipelineError
from textpersona.lexicon import (
    FeatureMatrix,
    Lexicon,
    LexiconEntry,
    brute_force_lookup,
    compile_lexicon,
    featurize,
    parse_lexicon,
    read_features_csv,
)
from textpersona.config import builtin_data_path
from textpersona.tables import features_table


def one_user(features):
    """The token count and name -> frequency dict of a one-user matrix."""
    (count,), (row,) = features.token_counts, features.rows
    return count, dict(zip(features.names, row))


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
    with pytest.raises(InputFormatError, match=r"\.dic:4: entry references undeclared category id 3$"):
        parse_lexicon(path)


def test_duplicate_category_id_is_fatal(tmp_path):
    path = write_dic(tmp_path, "%\n1\tPosEmo\n1\tNegEmo\n%\n")
    with pytest.raises(InputFormatError, match="duplicate category id"):
        parse_lexicon(path)


def test_duplicate_entry_is_fatal(tmp_path):
    path = write_dic(tmp_path, "%\n1\tA\n%\n开心\t1\n开心\t1\n")
    with pytest.raises(InputFormatError, match="duplicate entry"):
        parse_lexicon(path)


def test_interior_star_is_fatal(tmp_path):
    path = write_dic(tmp_path, "%\n1\tA\n%\n开*心\t1\n")
    with pytest.raises(InputFormatError, match="trailing wildcard"):
        parse_lexicon(path)


def test_missing_header_is_fatal(tmp_path):
    path = write_dic(tmp_path, "开心\t1\n")
    with pytest.raises(InputFormatError, match=r"\.dic:1: entry found before the '%'-delimited header$"):
        parse_lexicon(path)


def test_unclosed_header_error_names_path_without_line(tmp_path):
    path = write_dic(tmp_path, "%\n1\tA\n")
    with pytest.raises(InputFormatError) as info:
        parse_lexicon(path)
    assert str(info.value) == f"{path}: missing '%'-delimited category header"


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
    count, freqs = one_user(featurize(tokens, matcher))
    assert count == 10
    assert freqs["C1"] == 20.0
    assert freqs["C2"] == 10.0
    assert freqs["C3"] == 0.0


def test_featurize_multi_category_token():
    lex = lex_of(LexiconEntry("爱", False, frozenset({1, 2})))
    matcher = compile_lexicon(lex)
    _, freqs = one_user(featurize({"u": [["爱", "别"]]}, matcher))
    assert freqs["C1"] == 50.0 and freqs["C2"] == 50.0


def test_featurize_degenerate_user():
    matcher = compile_lexicon(lex_of())
    count, freqs = one_user(featurize({"u": [[]]}, matcher))
    assert count == 0
    assert all(v == 0.0 for v in freqs.values())


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
    count, freqs = one_user(featurize({"u": [tokens]}, matcher))
    total = 7 + 13 + 5 + 25
    assert count == total
    assert freqs["C1"] == pytest.approx(100.0 * 7 / total)
    assert freqs["C2"] == pytest.approx(100.0 * 13 / total)
    assert freqs["C3"] == pytest.approx(100.0 * 5 / total)


def test_featurize_order_invariant_and_scale():
    lex = lex_of(LexiconEntry("好", False, frozenset({1})))
    matcher = compile_lexicon(lex)
    posts = [["好", "坏"], ["平", "好"]]
    count1, freqs1 = one_user(featurize({"u": posts}, matcher))
    count2, freqs2 = one_user(featurize({"u": posts[::-1]}, matcher))
    assert freqs1 == freqs2 and count1 == count2
    count3, freqs3 = one_user(featurize({"u": posts * 2}, matcher))
    assert freqs3 == freqs1
    assert count3 == 2 * count1


def test_featurize_sorted_by_user_id():
    matcher = compile_lexicon(lex_of())
    out = featurize({"b": [["x"]], "a": [["y"]], "c": [[]]}, matcher)
    assert out.user_ids == ("a", "b", "c")


def test_featurize_parallel_matches_serial():
    """Two forked workers give the serial matrix, and so do one-shot
    generators in place of the lists."""
    lex = lex_of(
        LexiconEntry("好", False, frozenset({1})),
        LexiconEntry("坏", True, frozenset({2, 3})),
    )
    matcher = compile_lexicon(lex)
    tokens_by_user = {
        f"u{i:03d}": [["好", "坏事", "平"][: 1 + i % 3] * (1 + i % 4), ["坏"] * (i % 5)] if i % 7 else []
        for i in range(200)
    }
    serial = featurize(tokens_by_user, matcher, threads=1)
    assert featurize(tokens_by_user, matcher, threads=2) == serial
    one_shot = {uid: (tuple(tokens) for tokens in posts) for uid, posts in tokens_by_user.items()}
    assert featurize(one_shot, matcher) == serial
    assert len({row[serial.names.index("C2")] for row in serial.rows}) > 5
    assert serial.token_counts.count(0) == 29


@given(
    random_lexicons(),
    st.dictionaries(
        st.text(alphabet="uvw0123", min_size=1, max_size=4),
        st.lists(st.lists(st.text(alphabet="担忧开a", min_size=1, max_size=2), max_size=20), max_size=4),
        max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_featurize_one_shot_equals_per_token_count(lexicon, tokens_by_user):
    """Tokens repeat within and across posts, and some users have none:
    generators give the vectors of lists, and both equal a count that
    looks every token up in turn."""
    matcher = compile_lexicon(lexicon)
    expected = brute_force_features(lexicon, tokens_by_user)
    one_shot = {uid: (tuple(post) for post in posts) for uid, posts in tokens_by_user.items()}
    assert featurize(tokens_by_user, matcher) == expected
    assert featurize(one_shot, matcher) == expected


def brute_force_features(lexicon, tokens_by_user) -> FeatureMatrix:
    """Every token looked up by brute force in turn, each category counted in declaration order."""
    counts, rows = [], []
    for uid, posts in sorted(tokens_by_user.items()):
        tokens = [token for post in posts for token in post]
        hits = [brute_force_lookup(lexicon, token) for token in tokens]
        scale = 100.0 / len(tokens) if tokens else 0.0
        counts.append(len(tokens))
        rows.append(tuple(sum(cid in cats for cats in hits) * scale for cid, _ in lexicon.categories))
    return FeatureMatrix(lexicon.category_names, tuple(sorted(tokens_by_user)), tuple(counts), tuple(rows))


def test_featurize_places_categories_in_declaration_order_not_by_id(tmp_path):
    """A row is filled at each category's declared position: id 125 is column 0, id 1 column 1."""
    path = write_dic(tmp_path, "%\n125\tHigh\n1\tOne\n31\tMid\n%\n好\t125\n坏*\t1\t31\n坏事\t31\n平\t1\n")
    lexicon = parse_lexicon(path)
    tokens_by_user = {"u1": [["好", "坏事", "平"], ["坏", "好"]], "u2": [["平", "平", "无"]], "u3": [], "u4": [["无"]]}
    features = featurize(tokens_by_user, compile_lexicon(lexicon))
    assert features == brute_force_features(lexicon, tokens_by_user)
    assert features.names == ("High", "One", "Mid")
    assert features.rows[0] == (40.0, 60.0, 40.0)


@pytest.mark.parametrize(
    "user_ids, token_counts, rows, message",
    [
        (("u1", "u2"), (8,), ((12.5,), (0.0,)), "2 user ids, 1 token counts and 2 rows"),
        (("u1",), (8, 3), ((12.5,),), "1 user ids, 2 token counts and 1 rows"),
        (("u1", "u2"), (8, 3), ((12.5,),), "2 user ids, 2 token counts and 1 rows"),
        (("u1", "u2", "u1"), (8, 3, 8), ((12.5,), (0.0,), (12.5,)), "user_id 'u1' appears twice"),
    ],
)
def test_feature_matrix_refuses_ragged_columns_and_repeated_ids(user_ids, token_counts, rows, message):
    """predict would score a repeated user twice and correlation_matrix count it twice."""
    with pytest.raises(PipelineError, match=message):
        FeatureMatrix(("A",), user_ids, token_counts, rows)


def test_features_csv_round_trip(tmp_path):
    features = FeatureMatrix(("A", "B"), ("u1", "u2"), (8, 3), ((12.5, 0.0), (0.0, 33.333333)))
    path = tmp_path / "features.csv"
    features_table(features, ["A", "B"]).write_csv(path)
    back = read_features_csv(path)
    assert back.names == ("A", "B")
    assert back.user_ids[0] == "u1" and back.token_counts[0] == 8
    assert back.rows[0][0] == 12.5
    assert back.rows[1][1] == pytest.approx(33.333333)


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
    back = read_features_csv(path)
    assert back.names == lexicon.category_names
    assert back == features


@pytest.mark.parametrize("total", [1, 3, 7, 999, 123_457, 9_999_991, 10**7])
def test_features_csv_rebuilds_exact_frequencies_at_large_token_counts(tmp_path, total):
    # the floats featurize() computes: count * (100 / total)
    counts = sorted({0, 1, total // 3, total // 2 + 1, total - 1, total})
    names = tuple(f"C{i}" for i in range(len(counts)))
    scale = 100.0 / total
    features = FeatureMatrix(names, ("u",), (total,), (tuple(k * scale for k in counts),))
    path = tmp_path / "features.csv"
    features_table(features, names).write_csv(path)
    assert read_features_csv(path) == features

