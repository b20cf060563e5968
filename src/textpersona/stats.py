"""Statistical analyses over scored users.

Families implemented here: Pearson correlations with a Student-t
significance test, quartile polarity splits with tag contrasts,
categorical and boolean group means, binned trends, province
aggregation, and emoticon proportion contrasts (two-proportion z-test).

Everything is a pure function over immutable inputs with deterministic
ordering: ties break on ascending user_id, output rows carry a fixed
sort, and sums use math.fsum, which is correctly rounded, so results
do not depend on summation order.
"""

from __future__ import annotations

from collections import Counter
from math import frexp, fsum, inf, ldexp, sqrt
from operator import mul
from sys import float_info
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import RunConfig
from .corpus import UserProfile
from .errors import PipelineError
from .lexicon import FeatureMatrix
from .model import TRAITS, BigFive
from .special import normal_two_sided_p, student_t_two_sided_p

LOW_SUPPORT_GROUP_SIZE = 5

# |r| at or above this is labeled a strong correlation in reports
STRONG_R = 0.2

# province-level divisions used to normalize free-text locations
PROVINCES = (
    "北京", "天津", "河北", "山西", "内蒙古",
    "辽宁", "吉林", "黑龙江",
    "上海", "江苏", "浙江", "安徽", "福建", "江西", "山东",
    "河南", "湖北", "湖南", "广东", "广西", "海南",
    "重庆", "四川", "贵州", "云南", "西藏",
    "陕西", "甘肃", "青海", "宁夏", "新疆",
    "台湾", "香港", "澳门",
)

# joined (profile, score) row used by the grouping analyses
ScoredUser = tuple[UserProfile, BigFive]


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, int]:
    """Pearson r with a two-tailed p from the Student-t transform.

    p comes from t = r sqrt((n-2)/(1-r^2)) under t with n-2 degrees of
    freedom. r is clamped to [-1, 1] against rounding; |r| = 1 yields
    p = 0. Constant input is a domain error: r is undefined there; so is
    input whose deviations from the mean overflow, and input that holds
    a NaN or an infinity.
    """
    n = len(x)
    if len(y) != n:
        raise PipelineError(f"length mismatch: {n} vs {len(y)}")
    if n < 3:
        raise PipelineError(f"need at least 3 points, got {n}")
    return (*_centred_r_p(_centred(x), _centred(y)), n)


def _centred(values: Sequence[float]) -> tuple[list[float], float]:
    """A column's deviations from its fsum mean, and the fsum of their squares.

    A sum of finite values beyond the float range, or one of +inf and
    -inf, raises PipelineError. A sum of squares beyond the float range
    is inf, so _centred_r_p takes its rescaled path.
    """
    xs = [float(v) for v in values]
    try:
        mean = fsum(xs) / len(xs)
    except OverflowError:
        raise PipelineError("correlation undefined for values whose sum overflows the float range") from None
    except ValueError:  # -inf + inf
        raise PipelineError("correlation undefined for a value that is not finite") from None
    dev = [v - mean for v in xs]
    try:
        return dev, fsum(map(mul, dev, dev))
    except OverflowError:  # finite squares whose sum is not
        return dev, inf


_MIN_NORMAL, _MAX = float_info.min, float_info.max


def _rescaled(dev: list[float]) -> tuple[list[float], float]:
    """dev times the power of two that puts its largest magnitude in [0.5, 1), and its sum of squares.

    The scaling is exact except for a deviation pushed below the normal
    range, whose square lies far below the sum's rounding anyway.
    """
    top = max(map(abs, dev))
    if top == 0.0:
        raise PipelineError("correlation undefined for a constant vector")
    if top == inf:  # a deviation overflowed
        raise PipelineError("correlation undefined for deviations beyond the float range")
    shift = -frexp(top)[1]
    scaled = [ldexp(v, shift) for v in dev]
    return scaled, fsum(map(mul, scaled, scaled))


def _centred_r_p(x: tuple[list[float], float], y: tuple[list[float], float]) -> tuple[float, float]:
    """Pearson r and p of two centred columns of the same length n >= 3.

    When sxx, syy or their product is not a normal float (it underflowed
    or overflowed), r comes from each column's deviations rescaled by a
    power of two (_rescaled); every other r keeps the bits of the direct
    formula. A NaN or an infinity among the values makes sxx or syy NaN,
    which the clamp below would turn into r = -1.
    """
    (dx, sxx), (dy, syy) = x, y
    den = sxx * syy
    if not (_MIN_NORMAL <= sxx <= _MAX and _MIN_NORMAL <= syy <= _MAX and _MIN_NORMAL <= den <= _MAX):
        if sxx != sxx or syy != syy:
            raise PipelineError("correlation undefined for a value that is not finite")
        (dx, sxx), (dy, syy) = _rescaled(dx), _rescaled(dy)
        den = sxx * syy
    r = fsum(map(mul, dx, dy)) / sqrt(den)
    r = min(1.0, max(-1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * sqrt((len(dx) - 2) / (1.0 - r * r))
    return r, student_t_two_sided_p(t, len(dx) - 2)


class CorrelationResult(NamedTuple):
    feature: str
    trait: str
    r: float | None  # None when either variable is constant
    p: float | None
    n: int
    significant: bool

    @property
    def strong(self) -> bool:
        return self.r is not None and abs(self.r) >= STRONG_R


def correlation_matrix(
    features: FeatureMatrix,
    scores: Sequence[tuple[str, BigFive]],
    alpha: float = RunConfig.alpha,
) -> list[CorrelationResult]:
    """One result per (category, trait) pair over users present in both.

    Pairs where either side is constant across users are emitted with
    r and p undefined instead of being dropped. Each column is centred
    once, exactly as pearson centres it, so every r and p equals
    pearson's on the same joined, user-id-sorted columns. A column that
    pearson cannot centre (its sum overflows the float range) raises
    PipelineError naming the feature or trait.
    """
    RunConfig.check("alpha", alpha)
    score_by_id = dict(scores)
    joined = sorted((uid, row) for uid, row in zip(features.user_ids, features.rows) if uid in score_by_id)
    if len(joined) < 3:
        raise PipelineError(f"need at least 3 joined users, got {len(joined)}")
    n = len(joined)

    def centred(column: str, values: Sequence[float]) -> tuple[list[float], float]:
        try:
            return _centred(values)
        except PipelineError as err:
            raise PipelineError(f"{column}: {err}") from None

    trait_cols = [
        centred(f"trait {trait}", col) for trait, col in zip(TRAITS, zip(*(score_by_id[uid] for uid, _ in joined)))
    ]
    results = []
    for name, values in zip(features.names, zip(*(row for _, row in joined))):
        col = centred(f"feature {name!r}", values)
        for trait, trait_col in zip(TRAITS, trait_cols):
            try:
                r, p = _centred_r_p(col, trait_col)
            except PipelineError:
                results.append(CorrelationResult(name, trait, None, None, n, False))
                continue
            results.append(CorrelationResult(name, trait, r, p, n, p < alpha))
    return results


class PolaritySplit(NamedTuple):
    trait: str
    high_ids: tuple[str, ...]  # sorted by user_id
    low_ids: tuple[str, ...]


def polarity_split(
    scores: Sequence[tuple[str, float]],
    quantile: float = RunConfig.quantile,
    trait: str = "",
) -> PolaritySplit:
    """Top and bottom floor(n * quantile) users on one dimension.

    Users are ordered by (score, user_id); the low group is the first k
    of that order and the high group the last k, so boundary ties
    resolve deterministically and the groups can never overlap.
    """
    RunConfig.check("quantile", quantile)
    n = len(scores)
    if n < 4:
        raise PipelineError(f"need at least 4 users, got {n}")
    k = int(n * quantile)
    if k < 1:
        raise PipelineError(f"n * quantile = {n * quantile} selects no users")
    ordered = sorted([(score, uid) for uid, score in scores])
    low = tuple(sorted(uid for _, uid in ordered[:k]))
    high = tuple(sorted(uid for _, uid in ordered[-k:]))
    return PolaritySplit(trait=trait, high_ids=high, low_ids=low)


class TagContrast(NamedTuple):
    trait: str
    high: tuple[tuple[str, float], ...]  # (tag, share of group carrying it)
    low: tuple[tuple[str, float], ...]


def tag_contrast(
    split: PolaritySplit,
    profiles: Sequence[UserProfile],
    top_k: int = RunConfig.top_k_tags,
) -> TagContrast:
    """Tag weights per polarity group, ranked for word-cloud rendering."""
    RunConfig.check("top_k_tags", top_k)
    by_id = {p.user_id: p for p in profiles}
    missing = [uid for uid in (*split.high_ids, *split.low_ids) if uid not in by_id]
    if missing:
        raise PipelineError(f"split user {missing[0]!r} has no profile")

    def ranked(ids: tuple[str, ...]) -> tuple[tuple[str, float], ...]:
        counts = Counter(tag for uid in ids for tag in set(by_id[uid].tags))  # a user counts once per tag
        size = len(ids)
        rows = sorted(
            ((tag, count / size) for tag, count in counts.items()),
            key=lambda row: (-row[1], row[0]),
        )
        return tuple(rows[:top_k])

    return TagContrast(trait=split.trait, high=ranked(split.high_ids), low=ranked(split.low_ids))


class MeanRow(NamedTuple):
    """Per-trait means of one group, bin or province."""

    label: str
    count: int
    means: BigFive

    @property
    def low_support(self) -> bool:
        return self.count < LOW_SUPPORT_GROUP_SIZE


class Grouping(NamedTuple):
    """The rows of one grouping or binning, and how many users it left out."""

    name: str
    rows: tuple[MeanRow, ...]
    excluded_count: int


def _trait_means(scores: list[BigFive]) -> BigFive:
    n = len(scores)
    return BigFive(*(fsum(col) / n for col in zip(*scores)))


def _bucket(users: Iterable[ScoredUser], key) -> tuple[dict, int]:
    """Scores bucketed on key(profile), and the count of users whose key is None."""
    buckets: dict = {}
    excluded = 0
    for profile, score in users:
        k = key(profile)
        if k is None:
            excluded += 1
        else:
            buckets.setdefault(k, []).append(score)
    return buckets, excluded


def _mean_rows(buckets: Mapping, keys: Iterable, label=str) -> tuple[MeanRow, ...]:
    """One row per key that has a bucket, in the order of keys."""
    return tuple(MeanRow(label(k), len(buckets[k]), _trait_means(buckets[k])) for k in keys if k in buckets)


# grouping key -> (ordered labels, profile -> label or None when the
# attribute is missing for that user)
_GROUPERS = {
    "gender": (("male", "female"), lambda p: p.gender if p.gender != "unknown" else None),
    "verified": (("verified", "unverified"), lambda p: "verified" if p.verified else "unverified"),
    "education_shared": (("shared", "unknown"), lambda p: "shared" if p.schools else "unknown"),
    "introduction_shared": (("shared", "unknown"), lambda p: "shared" if p.introduction else "unknown"),
    "location_shared": (("shared", "unknown"), lambda p: "shared" if p.location else "unknown"),
}

GROUPING_KEYS = tuple(_GROUPERS)


def group_means(users: Sequence[ScoredUser], key: str) -> Grouping:
    """Per-group per-trait means for one of the supported groupings."""
    if key not in _GROUPERS:
        raise PipelineError(f"unknown grouping {key!r}; supported: {', '.join(GROUPING_KEYS)}")
    labels, grouper = _GROUPERS[key]
    buckets, excluded = _bucket(users, grouper)
    if not buckets:
        raise PipelineError(f"grouping {key!r} is defined for no user")
    return Grouping(key, _mean_rows(buckets, labels), excluded)


DEFAULT_INTRO_BINS = ((1, 10), (11, 20), (21, 30), (31, 40), (41, 50), (51, 60), (61, 70))


def _intro_bin(profile: UserProfile) -> tuple[int, int] | None:
    """The DEFAULT_INTRO_BINS range holding the introduction's length, if any."""
    if profile.introduction:
        length = len(profile.introduction)
        for lo, hi in DEFAULT_INTRO_BINS:
            if lo <= length <= hi:
                return lo, hi
    return None


# binning -> (profile -> ordered bin or None when excluded, bin -> label)
_BINNERS = {
    "age_year": (lambda p: p.age, str),
    "school_count": (lambda p: len(p.schools), str),
    "introduction_length": (_intro_bin, lambda b: f"{b[0]}-{b[1]}"),
}

BINNINGS = tuple(_BINNERS)


def binned_trend(users: Sequence[ScoredUser], binning: str) -> Grouping:
    """Mean scores per bin, ascending bin order, empty bins omitted.

    age_year bins on each integer age, school_count on the number of
    schools shared, introduction_length on the inclusive character
    ranges of DEFAULT_INTRO_BINS (users without an introduction, or with
    one longer than the last range, are excluded and counted).
    """
    if binning not in _BINNERS:
        raise PipelineError(f"unknown binning {binning!r}; supported: {', '.join(BINNINGS)}")
    binner, label = _BINNERS[binning]
    buckets, excluded = _bucket(users, binner)
    return Grouping(binning, _mean_rows(buckets, sorted(buckets), label), excluded)


def normalize_province(location: str | None) -> str:
    """Map a free-text location to a province by prefix, else 'unknown'."""
    if location:
        stripped = location.strip()
        for province in PROVINCES:
            if stripped.startswith(province):
                return province
    return "unknown"


def province_aggregate(users: Sequence[ScoredUser]) -> list[MeanRow]:
    """Choropleth-ready per-province mean scores; 'unknown' always last."""
    province = {loc: normalize_province(loc) for loc in {p.location for p, _ in users}}  # once per location
    buckets, _ = _bucket(users, lambda p: province[p.location])
    rows = list(_mean_rows(buckets, (*PROVINCES, "unknown")))
    if "unknown" not in buckets:
        rows.append(MeanRow("unknown", 0, BigFive(0.0, 0.0, 0.0, 0.0, 0.0)))
    return rows


class EmoticonRow(NamedTuple):
    emoticon: str
    high_count: int
    low_count: int
    high_proportion: float
    low_proportion: float
    p: float
    significant: bool


class EmoticonContrast(NamedTuple):
    trait: str
    rows: tuple[EmoticonRow, ...]
    warning: str | None = None


def two_proportion_z_p(x1: int, n1: int, x2: int, n2: int) -> float:
    """Two-tailed pooled z-test p-value for proportions x1/n1 vs x2/n2."""
    if n1 <= 0 or n2 <= 0:
        raise PipelineError("group totals must be positive")
    pooled = (x1 + x2) / (n1 + n2)
    if pooled in (0.0, 1.0):
        return 1.0
    z = (x1 / n1 - x2 / n2) / sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    return normal_two_sided_p(z)


def emoticon_contrast(
    split: PolaritySplit,
    emoticon_usage: Mapping[str, Mapping[str, int]],
    min_count: int = RunConfig.emoticon_min_count,
    alpha: float = RunConfig.alpha,
) -> EmoticonContrast:
    """The contrast of one split; see emoticon_contrasts."""
    return emoticon_contrasts([split], emoticon_usage, min_count, alpha)[0]


def emoticon_contrasts(
    splits: Sequence[PolaritySplit],
    emoticon_usage: Mapping[str, Mapping[str, int]],
    min_count: int = RunConfig.emoticon_min_count,
    alpha: float = RunConfig.alpha,
) -> list[EmoticonContrast]:
    """Usage-share contrast between the polarity groups of each split.

    Only emoticons whose corpus-wide count exceeds min_count qualify;
    those totals are counted once for all splits. Proportions are
    normalized by each group's total emoticon occurrences. Rows are
    sorted by |high - low| share descending and all retained; the
    significant flag records the z-test outcome. A split with a group
    that uses no emoticon gets no rows and a warning.
    """
    RunConfig.check("emoticon_min_count", min_count)
    RunConfig.check("alpha", alpha)

    totals: dict[str, int] = {}
    for usage in emoticon_usage.values():
        for emoticon, count in usage.items():
            totals[emoticon] = totals.get(emoticon, 0) + count
    qualifying = sorted(e for e, c in totals.items() if c > min_count)
    zero = (0,) * (len(qualifying) + 1)  # per user: usage.get(e, 0) of each qualifying e, then their total
    user_counts = {uid: (*map(u.get, qualifying, zero), sum(u.values())) for uid, u in emoticon_usage.items()}

    def group_counts(ids: Iterable[str]) -> list[int]:
        return list(map(sum, zip(zero, *(user_counts.get(uid, zero) for uid in ids))))

    contrasts = []
    for split in splits:
        *high_counts, high_total = group_counts(split.high_ids)
        *low_counts, low_total = group_counts(split.low_ids)
        if high_total == 0 or low_total == 0:
            side = "high" if high_total == 0 else "low"
            warning = f"{side} group has zero emoticon usage; contrast is empty"
            contrasts.append(EmoticonContrast(trait=split.trait, rows=(), warning=warning))
            continue

        rows = []
        for emoticon, x_high, x_low in zip(qualifying, high_counts, low_counts):
            if x_high + x_low == 0:
                p_value = 1.0
            else:
                p_value = two_proportion_z_p(x_high, high_total, x_low, low_total)
            rows.append(
                EmoticonRow(emoticon, x_high, x_low, x_high / high_total, x_low / low_total, p_value, p_value < alpha)
            )
        rows.sort(key=lambda row: (-abs(row.high_proportion - row.low_proportion), row.emoticon))
        contrasts.append(EmoticonContrast(trait=split.trait, rows=tuple(rows)))
    return contrasts
