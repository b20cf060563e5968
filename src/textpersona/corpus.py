"""Profile/post ingestion and validity filtering.

Input files are line-delimited JSON (one record per line). Malformed
lines are skipped and counted, never fatal on their own; more than half
of a file being malformed is treated as the wrong file and aborts.
"""

from __future__ import annotations

import datetime as dt
import enum
import json
import re
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._textio import check_utf8, open_text
from .config import RunConfig
from .errors import InputFormatError, PipelineError

GENDERS = ("male", "female", "unknown")
_GENDER_CODES = {"m": "male", "f": "female"}

MAX_TAGS = 10

# only a \ud800-\udfff escape can put a surrogate into a decoded JSON string
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class _UserProfile(NamedTuple):
    user_id: str
    age: int | None = None
    gender: str = "unknown"
    verified: bool = False
    follower_count: int = 0
    tags: tuple[str, ...] = ()
    location: str | None = None
    schools: tuple[str, ...] = ()
    introduction: str | None = None
    birth_date: dt.date | None = None


# NamedTuple allows no __new__ of its own, so a thin subclass checks the fields
class UserProfile(_UserProfile):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = _UserProfile.__new__(cls, *args, **kwargs)
        if self.gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        if self.follower_count < 0:
            raise ValueError("follower_count must be non-negative")
        if len(self.tags) > MAX_TAGS:
            raise ValueError(f"at most {MAX_TAGS} tags allowed")
        return self


class Post(NamedTuple):
    user_id: str
    text: str
    is_repost: bool = False


class RejectReason(enum.Enum):
    AD_ACCOUNT = "ad_account"
    NO_POSTS = "no_posts"


class _ValidityReport(NamedTuple):
    total_users: int
    accepted: int
    rejected: tuple[tuple[str, RejectReason], ...]


class ValidityReport(_ValidityReport):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, total_users, accepted, rejected):
        self = _ValidityReport.__new__(cls, total_users, accepted, rejected)
        distinct = len({user_id for user_id, _ in self.rejected})
        if self.accepted + distinct != self.total_users:
            raise ValueError(
                "accounting identity violated: "
                f"{self.accepted} accepted + {distinct} rejected != {self.total_users} total"
            )
        return self


class LoadSummary(NamedTuple):
    users: int
    posts: int
    malformed_lines: int
    orphan_posts: int


def _parse_profile(record: dict) -> UserProfile:
    user_id = record["user_id"]
    if not isinstance(user_id, str) or not user_id:
        raise ValueError("user_id must be a non-empty string")
    gender_code = record.get("gender")
    if gender_code is None:
        gender = "unknown"
    else:
        gender = _GENDER_CODES[gender_code]
    birth_date = record.get("birth_date")
    verified = record.get("verified", False)
    follower_count = record.get("follower_count", 0)
    tags = record.get("tags", [])
    location = record.get("location")
    schools = record.get("schools", [])
    introduction = record.get("introduction")
    # plain type() tests: they run once per corpus line
    if type(verified) is not bool:
        raise ValueError("verified must be a JSON bool")
    if type(follower_count) is not int:
        raise ValueError("follower_count must be a JSON integer")
    if type(tags) is not list or not all(type(t) is str for t in tags):
        raise ValueError("tags must be a list of strings")
    if type(schools) is not list or not all(type(s) is str for s in schools):
        raise ValueError("schools must be a list of strings")
    if not (location is None or type(location) is str) or not (introduction is None or type(introduction) is str):
        raise ValueError("location and introduction must be strings or null")
    return UserProfile(  # by position: binding keywords costs as much again per corpus line
        user_id,
        None,
        gender,
        verified,
        follower_count,
        tuple(tags),
        location or None,
        tuple(schools),
        introduction or None,
        dt.date.fromisoformat(birth_date) if birth_date else None,
    )


def _parse_post(record: dict) -> Post:
    user_id = record["user_id"]
    text = record["text"]
    if not isinstance(user_id, str) or not user_id:
        raise ValueError("user_id must be a non-empty string")
    if not isinstance(text, str) or not text:
        raise ValueError("post text must be non-empty")
    is_repost = record.get("is_repost", False)
    if type(is_repost) is not bool:
        raise ValueError("is_repost must be a JSON bool")
    return Post(user_id=user_id, text=text, is_repost=is_repost)


# json.loads without its per-call wrapper: the stripped line starts at its value
_scan_once = json.JSONDecoder().scan_once


def parse_json_line(line: str):
    """One JSONL record from a stripped line read by _textio.open_text.

    A line that was not UTF-8, is not one JSON value and nothing after
    it, nests too deeply for the decoder, or holds a string with a lone
    surrogate raises ValueError. An escaped surrogate pair decodes to one
    character and is fine. A lone one cannot be encoded as UTF-8, so no
    artifact could carry it.
    """
    check_utf8(line)
    try:
        record, end = _scan_once(line, 0)
        if _SURROGATE_ESCAPE.search(line):
            json.dumps(record, ensure_ascii=False).encode("utf-8")
    except StopIteration:
        raise ValueError("not a JSON value") from None
    except UnicodeEncodeError:
        raise ValueError("a string holds a lone surrogate, which UTF-8 cannot encode") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if end != len(line):
        raise ValueError(f"data after the JSON value at character {end + 1}")
    return record


def _load_jsonl(path, parse):
    records = []
    malformed = 0
    total = 0
    with open_text(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            total += 1
            try:
                records.append(parse(parse_json_line(line)))
            except (KeyError, ValueError, TypeError, OverflowError):
                malformed += 1
    if total and malformed * 2 > total:
        raise InputFormatError(
            f"{path}: {malformed} of {total} lines malformed; wrong file format?"
        )
    return records, malformed


def load_profiles(path) -> tuple[list[UserProfile], int]:
    """Profiles from one jsonl file; returns (records, malformed count). A user_id's later lines are malformed."""
    seen: set[str] = set()

    def parse(record: dict) -> UserProfile:
        profile = _parse_profile(record)
        if profile.user_id in seen:
            raise ValueError(f"user_id {profile.user_id!r} repeats an earlier line")
        seen.add(profile.user_id)
        return profile

    return _load_jsonl(path, parse)


def load_posts(path) -> tuple[list[Post], int]:
    """Posts from one jsonl file; returns (records, malformed count)."""
    return _load_jsonl(path, _parse_post)


def load_corpus(profile_path, posts_path) -> tuple[list[UserProfile], list[Post], LoadSummary]:
    """Read both files; every well-formed line yields one record.

    Posts referencing a user_id with no profile are kept but counted as
    orphans in the summary.
    """
    profiles, bad_profiles = load_profiles(profile_path)
    posts, bad_posts = load_posts(posts_path)
    known = {p.user_id for p in profiles}
    orphans = sum(1 for p in posts if p.user_id not in known)
    summary = LoadSummary(
        users=len(profiles),
        posts=len(posts),
        malformed_lines=bad_profiles + bad_posts,
        orphan_posts=orphans,
    )
    return profiles, posts, summary


def compute_age(birth_date: dt.date, reference_date: dt.date) -> int:
    """Whole years elapsed between the two dates, floor convention."""
    if birth_date > reference_date:
        raise ValueError(f"birth_date {birth_date} is after reference_date {reference_date}")
    age = reference_date.year - birth_date.year
    if (reference_date.month, reference_date.day) < (birth_date.month, birth_date.day):
        age -= 1
    return age


def with_credible_age(
    profile: UserProfile, reference_date: dt.date, age_range: tuple[int, int]
) -> UserProfile:
    """The profile with its age from birth_date: None if unknown, future or outside age_range."""
    RunConfig.check("age_range", age_range)
    return _aged(profile, reference_date, *age_range)


def _aged(profile: UserProfile, reference_date: dt.date, low: int, high: int) -> UserProfile:
    """with_credible_age without its range check, on an unchecked copy: age is
    no field UserProfile.__new__ checks, and the other fields passed it already."""
    age = None
    if profile.birth_date is not None and profile.birth_date <= reference_date:
        age = compute_age(profile.birth_date, reference_date)
        if not low <= age <= high:
            age = None
    return tuple.__new__(UserProfile, (profile.user_id, age, *profile[2:]))


def validate_users(
    profiles: Sequence[UserProfile],
    posts: Iterable[Post],
    *,
    min_followers: int = RunConfig.min_followers,
    ad_url_patterns: Sequence[str] = RunConfig.ad_url_patterns,
    reference_date: dt.date,
    age_range: tuple[int, int] = RunConfig.age_range,
) -> tuple[list[UserProfile], list[Post], ValidityReport]:
    """Apply the inclusion criteria (accept_users) and return the filtered corpus.

    Idempotent: running the output through again rejects nobody.
    """
    posts = list(posts)
    texts_by_user: dict[str, list[str]] = {}
    for post in posts:
        texts_by_user.setdefault(post.user_id, []).append(post.text)
    accepted, report = accept_users(
        profiles,
        texts_by_user,
        min_followers=min_followers,
        ad_url_patterns=ad_url_patterns,
        reference_date=reference_date,
        age_range=age_range,
    )
    accepted_ids = {profile.user_id for profile in accepted}
    return accepted, [p for p in posts if p.user_id in accepted_ids], report


def accept_users(
    profiles: Sequence[UserProfile],
    texts_by_user: Mapping[str, Sequence[str]],
    *,
    min_followers: int = RunConfig.min_followers,
    ad_url_patterns: Sequence[str] = RunConfig.ad_url_patterns,
    reference_date: dt.date,
    age_range: tuple[int, int] = RunConfig.age_range,
) -> tuple[list[UserProfile], ValidityReport]:
    """The profiles that meet the inclusion criteria, in order, aged; and the report.

    texts_by_user holds each user's post texts. Exclusions: a user is an
    ad account only when BOTH conditions hold (follower_count below
    min_followers AND at least one post contains an ad URL pattern);
    users with zero posts are excluded. An age outside age_range demotes
    the age to unknown but keeps the user: every other analysis can
    still use them.
    """
    RunConfig.check("min_followers", min_followers)
    RunConfig.check("ad_url_patterns", ad_url_patterns)  # "" is in every post
    RunConfig.check("age_range", age_range)
    patterns = [p.lower() for p in ad_url_patterns]

    accepted: list[UserProfile] = []
    rejected: list[tuple[str, RejectReason]] = []
    for profile in profiles:
        texts = texts_by_user.get(profile.user_id)
        if not texts:
            rejected.append((profile.user_id, RejectReason.NO_POSTS))
        elif profile.follower_count < min_followers and _has_ad_url(texts, patterns):
            rejected.append((profile.user_id, RejectReason.AD_ACCOUNT))
        else:
            accepted.append(_aged(profile, reference_date, *age_range))
    report = ValidityReport(
        total_users=len(profiles),
        accepted=len(accepted),
        rejected=tuple(rejected),
    )
    return accepted, report


def _has_ad_url(texts: Sequence[str], patterns: list[str]) -> bool:
    for text in texts:
        lowered = text.lower()
        if any(pat in lowered for pat in patterns):
            return True
    return False
