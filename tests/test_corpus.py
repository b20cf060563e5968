"""Ingestion, validation, and age computation."""

import datetime as dt
import json

import pytest

from textpersona.corpus import (
    Post,
    RejectReason,
    UserProfile,
    ValidityReport,
    compute_age,
    load_corpus,
    validate_users,
)
from textpersona.errors import CorpusFormatError

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
    with pytest.raises(CorpusFormatError):
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


def test_load_summary_json():
    from textpersona.corpus import LoadSummary

    summary = LoadSummary(users=2, posts=5, malformed_lines=1, orphan_posts=0)
    assert json.loads(summary.to_json()) == {
        "users": 2, "posts": 5, "malformed_lines": 1, "orphan_posts": 0,
    }


def test_profile_invariants():
    with pytest.raises(ValueError):
        UserProfile("u", follower_count=-1)
    with pytest.raises(ValueError):
        UserProfile("u", gender="other")
    with pytest.raises(ValueError):
        UserProfile("u", tags=tuple(str(i) for i in range(11)))
