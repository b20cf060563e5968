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
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ._textio import check_utf8, open_text
from .config import RunConfig
from .errors import CorpusFormatError

GENDERS = ("male", "female", "unknown")
_GENDER_CODES = {"m": "male", "f": "female"}

MAX_TAGS = 10

# only a \ud800-\udfff escape can put a surrogate into a decoded JSON string
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


@dataclass(frozen=True)
class UserProfile:
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

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        if self.follower_count < 0:
            raise ValueError("follower_count must be non-negative")
        if len(self.tags) > MAX_TAGS:
            raise ValueError(f"at most {MAX_TAGS} tags allowed")


@dataclass(frozen=True)
class Post:
    user_id: str
    text: str
    is_repost: bool = False
    created_at: str | None = None


class RejectReason(enum.Enum):
    AD_ACCOUNT = "ad_account"
    NO_POSTS = "no_posts"


@dataclass(frozen=True)
class ValidityReport:
    total_users: int
    accepted: int
    rejected: tuple[tuple[str, RejectReason], ...]

    def __post_init__(self):
        distinct = len({user_id for user_id, _ in self.rejected})
        if self.accepted + distinct != self.total_users:
            raise ValueError(
                "accounting identity violated: "
                f"{self.accepted} accepted + {distinct} rejected != {self.total_users} total"
            )


@dataclass(frozen=True)
class LoadSummary:
    users: int
    posts: int
    malformed_lines: int
    orphan_posts: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "users": self.users,
                "posts": self.posts,
                "malformed_lines": self.malformed_lines,
                "orphan_posts": self.orphan_posts,
            },
            sort_keys=True,
        )


def _parse_date(value: str) -> dt.date:
    return dt.date.fromisoformat(value)


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
    tags = record.get("tags", [])
    schools = record.get("schools", [])
    if not all(isinstance(t, str) for t in tags):
        raise ValueError("tags must be strings")
    if not all(isinstance(s, str) for s in schools):
        raise ValueError("schools must be strings")
    return UserProfile(
        user_id=user_id,
        gender=gender,
        verified=bool(record.get("verified", False)),
        follower_count=int(record.get("follower_count", 0)),
        tags=tuple(tags),
        location=record.get("location") or None,
        schools=tuple(schools),
        introduction=record.get("introduction") or None,
        birth_date=_parse_date(birth_date) if birth_date else None,
    )


def _parse_post(record: dict) -> Post:
    user_id = record["user_id"]
    text = record["text"]
    if not isinstance(user_id, str) or not user_id:
        raise ValueError("user_id must be a non-empty string")
    if not isinstance(text, str) or not text:
        raise ValueError("post text must be non-empty")
    created_at = record.get("created_at")
    if created_at is not None and not isinstance(created_at, str):
        raise ValueError("created_at must be a string")
    return Post(
        user_id=user_id,
        text=text,
        is_repost=bool(record.get("is_repost", False)),
        created_at=created_at,
    )


def parse_json_line(line: str):
    """One JSONL record from a line read by _textio.open_text.

    A line that was not UTF-8, or a string holding a lone surrogate,
    raises ValueError. An escaped surrogate pair decodes to one character
    and is fine. A lone one cannot be encoded as UTF-8, so no artifact
    could carry it.
    """
    check_utf8(line)
    record = json.loads(line)
    if _SURROGATE_ESCAPE.search(line):
        try:
            json.dumps(record, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a string holds a lone surrogate, which UTF-8 cannot encode") from None
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
        raise CorpusFormatError(
            f"{path}: {malformed} of {total} lines malformed; wrong file format?"
        )
    return records, malformed


def load_profiles(path) -> tuple[list[UserProfile], int]:
    """Profiles from one jsonl file; returns (records, malformed count)."""
    return _load_jsonl(path, _parse_profile)


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
    age = None
    if profile.birth_date is not None and profile.birth_date <= reference_date:
        age = compute_age(profile.birth_date, reference_date)
        if not age_range[0] <= age <= age_range[1]:
            age = None
    return replace(profile, age=age)


def validate_users(
    profiles: Sequence[UserProfile],
    posts: Iterable[Post],
    *,
    min_followers: int = RunConfig.min_followers,
    ad_url_patterns: Sequence[str] = RunConfig.ad_url_patterns,
    reference_date: dt.date,
    age_range: tuple[int, int] = RunConfig.age_range,
) -> tuple[list[UserProfile], list[Post], ValidityReport]:
    """Apply the inclusion criteria and return the filtered corpus.

    Exclusions: a user is an ad account only when BOTH conditions hold
    (follower_count below min_followers AND at least one post contains
    an ad URL pattern); users with zero posts are excluded. An age
    outside age_range demotes the age to unknown but keeps the user:
    every other analysis can still use them.

    Idempotent: running the output through again rejects nobody.
    """
    if min_followers < 0:
        raise ValueError("min_followers must be >= 0")
    posts = list(posts)
    posts_by_user: dict[str, list[Post]] = {}
    for post in posts:
        posts_by_user.setdefault(post.user_id, []).append(post)
    patterns = [p.lower() for p in ad_url_patterns]

    accepted: list[UserProfile] = []
    accepted_ids: set[str] = set()
    rejected: list[tuple[str, RejectReason]] = []
    for profile in profiles:
        own_posts = posts_by_user.get(profile.user_id, [])
        if not own_posts:
            rejected.append((profile.user_id, RejectReason.NO_POSTS))
            continue
        if profile.follower_count < min_followers and _has_ad_url(own_posts, patterns):
            rejected.append((profile.user_id, RejectReason.AD_ACCOUNT))
            continue
        accepted.append(with_credible_age(profile, reference_date, age_range))
        accepted_ids.add(profile.user_id)

    kept_posts = [p for p in posts if p.user_id in accepted_ids]
    report = ValidityReport(
        total_users=len(profiles),
        accepted=len(accepted),
        rejected=tuple(rejected),
    )
    return accepted, kept_posts, report


def _has_ad_url(posts: list[Post], patterns: list[str]) -> bool:
    for post in posts:
        lowered = post.text.lower()
        if any(pat in lowered for pat in patterns):
            return True
    return False
