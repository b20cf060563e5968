"""Ingestion, validation, and age computation."""

import contextlib
import datetime as dt
import json
from functools import partial
from pathlib import Path

import pytest

from textpersona import cli
from textpersona.config import RunConfig, builtin_data_path, load_keyword_file
from textpersona.corpus import (
    Post,
    RejectReason,
    UserProfile,
    ValidityReport,
    _parse_post,
    compute_age,
    load_corpus,
    load_posts,
    load_profiles,
    parse_json_line,
    validate_users,
    with_credible_age,
)
from textpersona.errors import InputFormatError, PipelineError
from textpersona.lexicon import parse_lexicon, read_features_csv
from textpersona.model import read_scores_csv
from textpersona.segmenter import load_word_list

REF = dt.date(2018, 6, 1)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write((rec if isinstance(rec, str) else json.dumps(rec, ensure_ascii=False)) + "\n")


def profile_rec(uid, **kw):
    rec = {"user_id": uid, "verified": False, "follower_count": 100}
    rec.update(kw)
    return rec


def post_rec(uid, text="今天不错", **kw):
    rec = {"user_id": uid, "text": text, "is_repost": False}
    rec.update(kw)
    return rec


def test_load_three_valid_profiles(tmp_path):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, [profile_rec(f"u{i}") for i in range(3)])
    write_jsonl(spath, [post_rec("u0")])
    profiles, posts, summary = load_corpus(ppath, spath)
    assert len(profiles) == 3 and len(posts) == 1
    assert summary.users == 3 and summary.malformed_lines == 0


def test_malformed_line_skipped_and_counted(tmp_path):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    records = [profile_rec(f"u{i}") for i in range(10)]
    records.insert(4, "{not json")
    write_jsonl(ppath, records)
    write_jsonl(spath, [post_rec("u0")])
    profiles, _, summary = load_corpus(ppath, spath)
    assert len(profiles) == 10
    assert summary.malformed_lines == 1


def test_orphan_post_retained_and_counted(tmp_path):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, [profile_rec("u1")])
    write_jsonl(spath, [post_rec("u1"), post_rec("ghost")])
    _, posts, summary = load_corpus(ppath, spath)
    assert len(posts) == 2
    assert summary.orphan_posts == 1


def test_mostly_malformed_is_fatal(tmp_path):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, ["not json"] * 6 + [json.dumps(profile_rec("u1"))] * 4)
    write_jsonl(spath, [post_rec("u1")])
    with pytest.raises(InputFormatError, match=r"p\.jsonl: 9 of 10 lines malformed; wrong file format\?$"):
        load_corpus(ppath, spath)


def test_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "absent.jsonl", tmp_path / "also_absent.jsonl")


def test_empty_post_text_is_malformed(tmp_path):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, [profile_rec("u1")])
    write_jsonl(spath, [post_rec("u1", text=""), post_rec("u1")])
    _, posts, summary = load_corpus(ppath, spath)
    assert len(posts) == 1 and summary.malformed_lines == 1


def test_too_many_tags_is_malformed(tmp_path):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, [profile_rec("u1", tags=[f"t{i}" for i in range(11)]), profile_rec("u2")])
    write_jsonl(spath, [post_rec("u2")])
    profiles, _, summary = load_corpus(ppath, spath)
    assert [p.user_id for p in profiles] == ["u2"]
    assert summary.malformed_lines == 1


def test_infinite_follower_count_is_malformed(tmp_path):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, [profile_rec("u1", follower_count=float("inf")), profile_rec("u2")])
    write_jsonl(spath, [post_rec("u2")])
    profiles, _, summary = load_corpus(ppath, spath)
    assert [p.user_id for p in profiles] == ["u2"]
    assert summary.malformed_lines == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("location", 5),
        ("location", ["北京"]),
        ("introduction", 5),
        ("introduction", {"text": "hi"}),
        ("tags", "music"),
        ("tags", ["music", 1]),
        ("schools", "PKU"),
        ("schools", [None]),
        ("verified", "false"),
        ("verified", 0),
        ("verified", None),
        ("follower_count", 3.9),
        ("follower_count", True),
        ("follower_count", "100"),
        ("follower_count", None),
    ],
    ids=repr,
)
def test_mistyped_profile_field_is_malformed(tmp_path, field, value):
    ppath = tmp_path / "p.jsonl"
    write_jsonl(ppath, [profile_rec("u1", **{field: value}), profile_rec("u2"), profile_rec("u3")])
    profiles, malformed = load_profiles(ppath)
    assert [p.user_id for p in profiles] == ["u2", "u3"]
    assert malformed == 1


@pytest.mark.parametrize("value", ["false", 0, 1, None], ids=repr)
def test_mistyped_is_repost_is_malformed(tmp_path, value):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, [profile_rec("u1")])
    write_jsonl(spath, [post_rec("u1", is_repost=value), post_rec("u1"), post_rec("u1")])
    _, posts, summary = load_corpus(ppath, spath)
    assert len(posts) == 2 and summary.malformed_lines == 1


@pytest.mark.parametrize("extra", [{"created_at": 5}, {"created_at": "2018-06-01"}, {"reposts": [1]}], ids=repr)
def test_a_post_key_the_pipeline_does_not_read_is_ignored(tmp_path, extra):
    spath = tmp_path / "s.jsonl"
    write_jsonl(spath, [{**post_rec("u1"), **extra}])
    posts, malformed = load_posts(spath)
    assert posts == [Post("u1", post_rec("u1")["text"])] and malformed == 0


def test_well_typed_optional_fields_load(tmp_path):
    ppath = tmp_path / "p.jsonl"
    write_jsonl(ppath, [
        profile_rec("u1", location=None, introduction=None, tags=[], schools=[]),
        profile_rec("u2", location="北京", introduction="", tags=["music"], schools=["PKU"], verified=True),
        {"user_id": "u3"},
    ])
    profiles, malformed = load_profiles(ppath)
    assert malformed == 0
    assert [(p.location, p.introduction, p.tags, p.schools, p.verified) for p in profiles] == [
        (None, None, (), (), False),
        ("北京", None, ("music",), ("PKU",), True),
        (None, None, (), (), False),
    ]


def test_repeated_profile_user_id_first_line_wins(tmp_path):
    """A later line with the same user_id is malformed, whatever it holds."""
    ppath = tmp_path / "p.jsonl"
    write_jsonl(ppath, [profile_rec("u0"), profile_rec("u1"), profile_rec("u0", follower_count=5), profile_rec("u2")])
    profiles, malformed = load_profiles(ppath)
    assert [(p.user_id, p.follower_count) for p in profiles] == [("u0", 100), ("u1", 100), ("u2", 100)]
    assert malformed == 1


def test_deeply_nested_line_is_malformed(tmp_path):
    """json.loads raises RecursionError on it; the loaders skip it like any bad line."""
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, [profile_rec("u0"), "[" * 100_000 + json.dumps(profile_rec("u1"))])
    write_jsonl(spath, [post_rec("u0"), '{"user_id": "u0", "text": ' + "[" * 100_000, post_rec("u0")])
    profiles, posts, summary = load_corpus(ppath, spath)
    assert [p.user_id for p in profiles] == ["u0"] and len(posts) == 2
    assert summary.malformed_lines == 2


def json_loads_refuses(line: str) -> bool:
    """Whether the loader refused the stripped line when it parsed through json.loads."""
    try:
        json.dumps(json.loads(line), ensure_ascii=False).encode("utf-8")  # a lone surrogate cannot be encoded
    except (ValueError, RecursionError):
        return True
    return False


def post_refuses(line: str) -> bool:
    try:
        _parse_post(json.loads(line))
    except (KeyError, ValueError, TypeError, RecursionError):
        return True
    return False


POST = json.dumps(post_rec("u0"), ensure_ascii=False)
LINE_SHAPES = {
    "valid": POST,
    "spaced": '{ "user_id" : "u0" ,\t"text" : "好" }',
    "trailing data": POST + ' {"x": 1}',
    "trailing garbage": POST + "x",
    "two values": POST + POST,
    "cut": POST[:-1],
    "bom": "\ufeff" + POST,
    "empty array": "[]",
    "empty object": "{}",
    "bare number": "5",
    "bare string": '"u0"',
    "NaN": "NaN",
    "deep nesting": "[" * 100_000 + "]" * 100_000,
    "escaped lone surrogate": '{"user_id": "u0", "text": "\\ud800"}',
    "escaped pair": '{"user_id": "u0", "text": "\\ud83d\\ude00"}',
    "lone quote": '"',
    "comma": ",",
}


@pytest.mark.parametrize("line", LINE_SHAPES.values(), ids=LINE_SHAPES.keys())
def test_post_line_is_malformed_exactly_when_json_loads_refuses_it(tmp_path, line):
    refused = json_loads_refuses(line)
    with pytest.raises(ValueError) if refused else contextlib.nullcontext():
        parse_json_line(line)
    path = tmp_path / "s.jsonl"
    write_jsonl(path, [post_rec("u0"), line, post_rec("u0")])
    posts, malformed = load_posts(path)
    assert malformed == int(refused or post_refuses(line))
    assert len(posts) == 3 - malformed


# a stray byte, a cut two-byte sequence, an encoded surrogate
NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xb3\xbf"]


@pytest.mark.parametrize("bad", NOT_UTF8, ids=["stray", "cut", "surrogate"])
@pytest.mark.parametrize("in_string", [True, False], ids=["in_string", "outside"])
def test_invalid_utf8_line_is_malformed(tmp_path, bad, in_string):
    """Only the line holding the bytes is skipped; the lines around it load."""
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, [profile_rec("u1"), profile_rec("u2")])
    lines = [json.dumps(post_rec(uid)).encode() for uid in ("u1", "u2", "u1")]
    lines[1] = lines[1].replace(b'"u2"', b'"u2' + bad + b'"') if in_string else bad + lines[1]
    spath.write_bytes(b"\r\n".join(lines) + b"\n")
    _, posts, summary = load_corpus(ppath, spath)
    assert [p.user_id for p in posts] == ["u1", "u1"]
    assert summary.malformed_lines == 1


LONE = "\udcff"


@pytest.mark.parametrize(
    "profile, post",
    [
        (profile_rec(LONE), post_rec("u0")),
        (profile_rec("u1", tags=["读书", LONE]), post_rec("u0")),
        (profile_rec("u1", location="\ud800"), post_rec("u0")),
        (profile_rec("u1", **{LONE: 1}), post_rec("u0")),  # in a key
        (profile_rec("u1"), post_rec(LONE)),
        (profile_rec("u1"), post_rec("u0", text="好" + "\ud83d")),  # high half only
        (profile_rec("u1"), post_rec("u0", text="\ude00\ud83d")),  # halves reversed
    ],
    ids=["user_id", "tag", "location", "key", "post user_id", "high half", "reversed pair"],
)
def test_lone_surrogate_record_is_malformed(tmp_path, profile, post):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    # json.dumps writes each surrogate as a \u escape, as a producer's file would
    write_jsonl(ppath, [json.dumps(profile_rec("u0")), json.dumps(profile)])
    write_jsonl(spath, [json.dumps(post_rec("u0")), json.dumps(post)])
    profiles, posts, summary = load_corpus(ppath, spath)
    assert summary.malformed_lines == 1
    assert len(profiles) + len(posts) == 3


@pytest.mark.parametrize("escaped", ['"\\ud83d\\ude00"', '"\\uD83D\\uDE00"'])
def test_escaped_surrogate_pair_loads(tmp_path, escaped):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(ppath, [profile_rec("u0")])
    write_jsonl(spath, ['{"user_id": "u0", "text": ' + escaped + "}"])
    _, posts, summary = load_corpus(ppath, spath)
    assert summary.malformed_lines == 0
    assert posts[0].text == "😀"


def test_gender_codes(tmp_path):
    ppath, spath = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    write_jsonl(
        ppath,
        [profile_rec("u1", gender="m"), profile_rec("u2", gender="f"), profile_rec("u3")],
    )
    write_jsonl(spath, [post_rec("u1")])
    profiles, _, _ = load_corpus(ppath, spath)
    assert [p.gender for p in profiles] == ["male", "female", "unknown"]


def test_compute_age_exact_anniversary():
    assert compute_age(dt.date(1992, 6, 1), dt.date(2018, 6, 1)) == 26


def test_compute_age_floor_convention():
    assert compute_age(dt.date(1992, 6, 2), dt.date(2018, 6, 1)) == 25


def test_compute_age_default_birthday_case():
    assert compute_age(dt.date(1970, 1, 1), dt.date(2018, 1, 1)) == 48


def test_compute_age_rejects_future_birth():
    with pytest.raises(ValueError):
        compute_age(dt.date(2020, 1, 1), dt.date(2018, 1, 1))


def test_with_credible_age_rejects_inverted_range():
    profile = UserProfile("u", birth_date=dt.date(2000, 1, 1))
    assert with_credible_age(profile, REF, (18, 18)).age == 18
    for dated in (profile, UserProfile("u")):  # refused with or without a birth date
        with pytest.raises(PipelineError, match="age range 47-10 is empty"):
            with_credible_age(dated, REF, (47, 10))


def make_corpus():
    profiles = [
        UserProfile("ad", follower_count=5),
        UserProfile("poor_but_clean", follower_count=5),
        UserProfile("rich_ad", follower_count=500),
        UserProfile("default_birthday", follower_count=50, birth_date=dt.date(1970, 1, 1)),
        UserProfile("young", follower_count=50, birth_date=dt.date(2000, 1, 1)),
        UserProfile("silent", follower_count=50),
    ]
    posts = [
        Post("ad", "来我的店 http://shop.taobao.com/1"),
        Post("poor_but_clean", "今天不错"),
        Post("rich_ad", "看看 http://shop.taobao.com/2"),
        Post("default_birthday", "你好"),
        Post("young", "测试"),
    ]
    return profiles, posts


def test_validate_exclusions_and_demotion():
    profiles, posts = make_corpus()
    accepted, kept_posts, report = validate_users(
        profiles, posts, min_followers=10, ad_url_patterns=["taobao"], reference_date=dt.date(2018, 1, 1)
    )
    by_id = {p.user_id: p for p in accepted}
    # conjunction: few followers AND ad URL
    assert "ad" not in by_id
    # few followers alone is not enough
    assert "poor_but_clean" in by_id
    # ad URL alone is not enough
    assert "rich_ad" in by_id
    # zero posts excluded
    assert "silent" not in by_id
    # default 1970-01-01 birthday computes to 48: demoted, user kept
    assert by_id["default_birthday"].age is None
    assert by_id["young"].age == 18
    reasons = dict(report.rejected)
    assert reasons["ad"] == RejectReason.AD_ACCOUNT
    assert reasons["silent"] == RejectReason.NO_POSTS
    assert report.total_users == 6 and report.accepted == 4
    assert all(p.user_id in by_id for p in kept_posts)


def test_validate_refuses_an_empty_ad_url_pattern():
    """"" is in every post, so it would reject every low-follower user who posts."""
    with pytest.raises(PipelineError, match="an ad URL pattern must not be empty"):
        validate_users(
            [UserProfile("u1", follower_count=3)], [Post("u1", "hello world")], ad_url_patterns=["taobao", ""],
            reference_date=REF,
        )
    with pytest.raises(PipelineError, match="config key 'ad_url_patterns': an ad URL pattern must not be empty"):
        RunConfig.from_dict({"ad_url_patterns": [""]})
    accepted, _, _ = validate_users(
        [UserProfile("u1", follower_count=3)], [Post("u1", "hello world")], ad_url_patterns=[], reference_date=REF
    )
    assert [p.user_id for p in accepted] == ["u1"]


def test_validate_idempotent():
    profiles, posts = make_corpus()
    kwargs = dict(min_followers=10, ad_url_patterns=["taobao"], reference_date=dt.date(2018, 1, 1))
    a1, p1, _ = validate_users(profiles, posts, **kwargs)
    a2, p2, report2 = validate_users(a1, p1, **kwargs)
    assert a2 == a1 and p2 == p1
    assert report2.rejected == ()


def test_validate_deterministic_order():
    profiles, posts = make_corpus()
    kwargs = dict(min_followers=10, ad_url_patterns=["taobao"], reference_date=dt.date(2018, 1, 1))
    a1, _, _ = validate_users(profiles, posts, **kwargs)
    a2, _, _ = validate_users(profiles, posts, **kwargs)
    assert [p.user_id for p in a1] == [p.user_id for p in a2]


def test_validity_report_accounting_identity_enforced():
    with pytest.raises(ValueError):
        ValidityReport(total_users=3, accepted=1, rejected=(("u", RejectReason.NO_POSTS),))


def test_profile_invariants():
    with pytest.raises(ValueError):
        UserProfile("u", follower_count=-1)
    with pytest.raises(ValueError):
        UserProfile("u", gender="other")
    with pytest.raises(ValueError):
        UserProfile("u", tags=tuple(str(i) for i in range(11)))


DATA, TESTDATA = builtin_data_path(), Path(__file__).parent / "data"
LINE_READERS = {  # every reader of a text input goes through _textio.open_text
    "posts": (DATA / "fixture_corpus" / "posts.jsonl", load_posts),
    "profiles": (DATA / "fixture_corpus" / "profiles.jsonl", load_profiles),
    "word_list": (DATA / "wordlist.txt", load_word_list),
    "spam_keywords": (DATA / "spam_keywords.txt", load_keyword_file),
    "system_templates": (DATA / "system_templates.txt", load_keyword_file),
    "lexicon": (DATA / "sc_liwc_fixture.dic", parse_lexicon),
    "features_csv": (TESTDATA / "features_golden.csv", read_features_csv),
    "labels_csv": (DATA / "fixture_corpus" / "labels.csv", read_scores_csv),
    "interchange": (TESTDATA / "clean_golden.jsonl", partial(cli._read_jsonl, str_keys=("raw",), list_key="emoticons")),
}


@pytest.mark.parametrize("name", LINE_READERS)
def test_a_file_that_starts_with_a_utf8_bom_reads_as_the_file_without_it(name, tmp_path):
    """A BOM once stayed in the first line: a malformed first record, a word
    or keyword that never matched, or a CSV header refused."""
    path, read = LINE_READERS[name]
    copy = tmp_path / path.name
    copy.write_bytes("\ufeff".encode("utf-8") + path.read_bytes())
    assert read(copy) == read(path)
