"""Synthetic corpora with planted, recoverable effects.

Used by the test suite and the bundled fixture data. A scored corpus
plants four associations on top of otherwise neutral profiles:

  * the tag "Sleep" is given to most top-quartile Neuroticism users and
    to few others;
  * verified accounts get a fixed Conscientiousness offset;
  * Conscientiousness rises linearly with the number of shared schools;
  * one emoticon ("[月亮]") is used several times more often by
    top-quartile Openness users.

Trait noise is drawn with stratified (inverse-CDF grid) sampling inside
each planted cell, and verified flags are balanced exactly within each
school-count stratum. Both choices are plain variance-reduction: every
marginal stays what it claims to be, but group means and slopes
estimated from a generated corpus sit far inside their sampling
tolerances, so recovery checks against the planted values are stable
run to run. Effect sizes and noise rates are module constants, and
recovery checks read the planted values from them.

The text layer composes raw posts (dictionary words, URLs, mentions,
hashtags, emoticons, occasional spam) so the cleaning and segmentation
stages have something realistic to chew on.

Only this module imports numpy, which comes with the `test` extra;
nothing that `import textpersona` loads imports it.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .corpus import Post, UserProfile
from .model import BigFive
from .stats import PROVINCES

_NORMAL = NormalDist()

TAG_POOL = (
    "Music", "Traveling", "Movies", "Foodie", "Sports", "Reading",
    "Photography", "Gaming", "Fashion", "Tech", "Pets", "Art",
    "Fitness", "Anime", "Finance", "Cooking", "Hiking", "Sleep",
)

EMOTICON_POOL = (
    "[心]", "[笑cry]", "[doge]", "[爱你]", "[哈哈]", "[拜拜]",
    "[月亮]", "[太阳]", "[蜡烛]", "😊",
)

PLANTED_EMOTICON = "[月亮]"
PLANTED_TAG = "Sleep"

# planted effects of generate_scored_corpus
VERIFIED_C_OFFSET = 5.0
SCHOOL_C_SLOPE = 1.2
SLEEP_HIGH_RATE = 0.8  # share of top-quartile Neuroticism users tagged Sleep
SLEEP_BASE_RATE = 0.05
PLANTED_EMOTICON_FACTOR = 3.0  # top-quartile Openness rate over everyone else's
TRAIT_SD = 10.0
REFERENCE_DATE = dt.date(2018, 6, 1)  # birth dates are drawn back from it

# per-post noise rates of generate_posts
URL_RATE = 0.15
MENTION_RATE = 0.15
HASHTAG_RATE = 0.1
SPAM_RATE = 0.02


def stratified_normal(rng: np.random.Generator, n: int, sd: float) -> np.ndarray:
    """n draws whose empirical distribution hugs N(0, sd^2).

    Inverse CDF of a jittered, shuffled uniform grid: marginally each
    draw is exactly normal, but the sample mean is far tighter than
    sd/sqrt(n).
    """
    grid = (rng.permutation(n) + rng.uniform(size=n)) / n
    return sd * np.array([_NORMAL.inv_cdf(u) for u in grid])


@dataclass(frozen=True)
class SynthCorpus:
    profiles: tuple[UserProfile, ...]
    scores: dict[str, BigFive]
    emoticon_usage: dict[str, dict[str, int]]


def generate_scored_corpus(n_users: int, seed: int) -> SynthCorpus:
    """Profiles, true scores, and emoticon usage for n_users accounts."""
    rng = np.random.default_rng(seed)
    ids = [f"u{i:05d}" for i in range(n_users)]

    school_counts = rng.permutation(np.arange(n_users) % 7)
    verified = np.zeros(n_users, dtype=bool)
    for s in range(7):
        idx = np.flatnonzero(school_counts == s)
        picked = rng.permutation(idx)[: int(round(0.25 * len(idx)))]
        verified[picked] = True

    base = 50.0
    o_scores = base + stratified_normal(rng, n_users, TRAIT_SD)
    e_scores = base + stratified_normal(rng, n_users, TRAIT_SD)
    a_scores = base + stratified_normal(rng, n_users, TRAIT_SD)
    n_scores = base + stratified_normal(rng, n_users, TRAIT_SD)

    c_scores = np.empty(n_users)
    for s in range(7):
        for flag in (False, True):
            idx = np.flatnonzero((school_counts == s) & (verified == flag))
            if len(idx) == 0:
                continue
            noise = stratified_normal(rng, len(idx), TRAIT_SD)
            c_scores[idx] = base + SCHOOL_C_SLOPE * s + (VERIFIED_C_OFFSET if flag else 0.0) + noise

    # tags: planted Sleep association on Neuroticism, everything else neutral
    n_rank = np.argsort(np.argsort(-n_scores))  # 0 = highest N
    top_n = n_rank < n_users // 4
    profiles = []
    scores: dict[str, BigFive] = {}
    usage: dict[str, dict[str, int]] = {}
    o_rank = np.argsort(np.argsort(-o_scores))
    top_o = o_rank < n_users // 4

    genders = rng.choice(["f", "m"], size=n_users, p=[0.543, 0.457])
    ages = rng.integers(14, 44, size=n_users)
    locations = rng.choice(len(PROVINCES) + 1, size=n_users)
    intro_lengths = rng.integers(1, 71, size=n_users)
    has_intro = rng.uniform(size=n_users) < 0.85

    for i, uid in enumerate(ids):
        tags = []
        sleep_rate = SLEEP_HIGH_RATE if top_n[i] else SLEEP_BASE_RATE
        if rng.uniform() < sleep_rate:
            tags.append(PLANTED_TAG)
        for tag in TAG_POOL:
            if tag == PLANTED_TAG:
                continue
            if rng.uniform() < 0.18 and len(tags) < 10:
                tags.append(tag)

        birth = REFERENCE_DATE - dt.timedelta(days=int(ages[i]) * 365 + int(rng.integers(0, 300)))
        loc_idx = int(locations[i])
        intro = ("热爱生活" * 18)[: int(intro_lengths[i])] if has_intro[i] else None
        profiles.append(
            UserProfile(
                user_id=uid,
                gender={"f": "female", "m": "male"}[str(genders[i])],
                verified=bool(verified[i]),
                follower_count=int(rng.integers(0, 5000)),
                tags=tuple(tags),
                location=PROVINCES[loc_idx] if loc_idx < len(PROVINCES) else None,
                schools=tuple(f"学校{j}" for j in range(int(school_counts[i]))),
                introduction=intro,
                birth_date=birth,
            )
        )

        scores[uid] = BigFive(
            o=float(o_scores[i]),
            c=float(c_scores[i]),
            e=float(e_scores[i]),
            a=float(a_scores[i]),
            n=float(n_scores[i]),
        )

        counts: dict[str, int] = {}
        for emoticon in EMOTICON_POOL:
            lam = 2.0
            if emoticon == PLANTED_EMOTICON:
                lam = 1.0 * (PLANTED_EMOTICON_FACTOR if top_o[i] else 1.0)
            count = int(rng.poisson(lam))
            if count:
                counts[emoticon] = count
        usage[uid] = counts

    return SynthCorpus(profiles=tuple(profiles), scores=scores, emoticon_usage=usage)


_FILLER_WORDS = (
    "今天", "天气", "很好", "心情", "不错", "上班", "路上", "晚饭",
    "朋友", "一起", "看了", "电影", "真的", "喜欢", "周末", "计划",
)


def generate_posts(
    user_ids: Sequence[str],
    seed: int,
    *,
    posts_per_user: tuple[int, int] = (3, 8),
    word_pool: Sequence[str] = _FILLER_WORDS,
    emoticon_usage: Mapping[str, Mapping[str, int]] | None = None,
    words_per_post: tuple[int, int] = (4, 12),
) -> list[Post]:
    """Raw posts with realistic noise for the cleaning stage.

    Emoticon usage, when given, is spent across the user's regular
    posts, so cleaning the output recovers exactly the planted counts;
    spam posts (which the cleaner drops whole) are generated separately
    and never carry planted emoticons.
    """
    rng = np.random.default_rng(seed)
    posts: list[Post] = []
    pool = list(word_pool)
    for uid in user_ids:
        n_posts = int(rng.integers(posts_per_user[0], posts_per_user[1] + 1))
        pending: list[str] = []
        if emoticon_usage is not None:
            for emoticon, count in sorted(emoticon_usage.get(uid, {}).items()):
                pending.extend([emoticon] * count)
            rng.shuffle(pending)
        for j in range(n_posts):
            n_words = int(rng.integers(words_per_post[0], words_per_post[1] + 1))
            words = [pool[int(rng.integers(0, len(pool)))] for _ in range(n_words)]
            text = "".join(words)
            if pending:
                take = len(pending) if j == n_posts - 1 else int(rng.integers(0, 3))
                for _ in range(min(take, len(pending))):
                    text += pending.pop()
            if rng.uniform() < HASHTAG_RATE:
                text += f"#{pool[int(rng.integers(0, len(pool)))]}#"
            if rng.uniform() < MENTION_RATE:
                text = f"@用户{int(rng.integers(1, 999))} " + text
            if rng.uniform() < URL_RATE:
                text += " http://t.cn/" + "".join(
                    chr(97 + int(v)) for v in rng.integers(0, 26, size=6)
                )
            posts.append(Post(user_id=uid, text=text, is_repost=bool(rng.uniform() < 0.2)))
        if rng.uniform() < SPAM_RATE * n_posts:
            posts.append(Post(user_id=uid, text="关注我的淘宝店铺有惊喜", is_repost=False))
    return posts
