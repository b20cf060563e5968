"""Statistics: oracle anchors, brute-force cross-checks, invariants."""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textpersona.corpus import UserProfile
from textpersona.errors import StatsError
from textpersona.model import BigFive
from textpersona.stats import (
    BINNINGS,
    GROUPING_KEYS,
    PROVINCES,
    TRAITS,
    EmoticonContrast,
    EmoticonRow,
    PolaritySplit,
    binned_trend,
    correlation_matrix,
    emoticon_contrast,
    emoticon_contrasts,
    group_means,
    normalize_province,
    pearson,
    polarity_split,
    province_aggregate,
    tag_contrast,
    two_proportion_z_p,
)
from textpersona.lexicon import FeatureMatrix

mpmath.mp.dps = 40


def matrix(names, rows):
    """A FeatureMatrix of (user_id, frequencies in names order) pairs, 10 tokens each."""
    rows = list(rows)
    return FeatureMatrix(
        tuple(names), tuple(uid for uid, _ in rows), (10,) * len(rows), tuple(tuple(v) for _, v in rows)
    )


def oracle_pearson(x, y):
    """Arbitrary-precision r and p, fully independent of the package path."""
    n = len(x)
    xs = [mpmath.mpf(v) for v in x]
    ys = [mpmath.mpf(v) for v in y]
    xm = mpmath.fsum(xs) / n
    ym = mpmath.fsum(ys) / n
    sxy = mpmath.fsum((a - xm) * (b - ym) for a, b in zip(xs, ys))
    sxx = mpmath.fsum((a - xm) ** 2 for a in xs)
    syy = mpmath.fsum((b - ym) ** 2 for b in ys)
    r = sxy / mpmath.sqrt(sxx * syy)
    nu = n - 2
    if abs(r) >= 1:
        return float(r), 0.0
    xarg = nu / (nu + r * r * nu / (1 - r * r))
    p = mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, xarg, regularized=True)
    return float(r), float(p)


def test_perfect_linearity():
    r, p, n = pearson([1, 2, 3], [2, 4, 6])
    assert r == 1.0 and p == 0.0 and n == 3


def test_hand_computed_anchor():
    # cov=4, var_x=var_y=5 -> r = 4/5 exactly
    r, p, _ = pearson([1, 2, 3, 4], [1, 3, 2, 4])
    assert r == 0.8
    assert abs(p - 0.2) < 1e-12  # hand-checkable: I_x identity gives exactly 0.2


def test_p_anchor_r195_n102():
    """p for r=0.195, n=102, frozen from the quadrature/betainc oracle."""
    nu = 100
    t = 0.195 * math.sqrt(nu / (1 - 0.195**2))
    from textpersona.special import student_t_two_sided_p

    p = student_t_two_sided_p(t, nu)
    assert abs(p - 0.0495267404175) < 1e-10
    assert abs(p - 0.0496) < 5e-4


def test_constant_vector_domain_error():
    with pytest.raises(StatsError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(StatsError):
        pearson([1, 2, 3], [5, 5, 5])


def test_length_mismatch_and_short_input():
    with pytest.raises(StatsError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(StatsError):
        pearson([1, 2], [1, 2])


def test_pearson_vs_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(3, 200))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        r, p, _ = pearson(x, y)
        r_ref, p_ref = oracle_pearson(x, y)
        assert abs(r - r_ref) < 1e-12
        assert abs(p - p_ref) < 1e-12


def test_pearson_affine_equivariance_exact():
    rng = np.random.default_rng(12)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    r, _, _ = pearson(x, y)
    for a, c in ((2.0, 3.0), (-1.0, 0.0), (0.5, -10.0)):
        r2, _, _ = pearson(a * x + c, y)
        assert abs(r2 - math.copysign(1.0, a) * r) < 1e-12


def test_pearson_symmetry():
    rng = np.random.default_rng(13)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    rxy, pxy, _ = pearson(x, y)
    ryx, pyx, _ = pearson(y, x)
    assert rxy == ryx and pxy == pyx


@given(st.integers(min_value=5, max_value=200))
@settings(max_examples=50, deadline=None)
def test_p_monotone_in_abs_r(n):
    from textpersona.special import student_t_two_sided_p

    prev = 1.1
    for r in np.linspace(0.01, 0.99, 25):
        t = r * math.sqrt((n - 2) / (1 - r * r))
        p = student_t_two_sided_p(t, n - 2)
        assert p < prev
        prev = p


# ---------------------------------------------------------------- matrix


def b5(o=50.0, c=50.0, e=50.0, a=50.0, n=50.0):
    return BigFive(o, c, e, a, n)


def test_correlation_matrix_identical_feature_and_trait():
    rng = np.random.default_rng(1)
    rows, scores = [], []
    for i in range(20):
        v = float(rng.uniform(0, 10))
        rows.append((f"u{i:02d}", (v, 1.0)))
        scores.append((f"u{i:02d}", b5(o=v)))
    results = correlation_matrix(matrix(("X", "Const"), rows), scores)
    by_pair = {(r.feature, r.trait): r for r in results}
    assert by_pair[("X", "O")].r == 1.0
    assert by_pair[("X", "O")].significant
    # constant feature reported as undefined, not dropped
    assert by_pair[("Const", "O")].r is None
    assert by_pair[("Const", "O")].p is None
    assert not by_pair[("Const", "O")].significant
    assert len(results) == 2 * 5


def test_correlation_matrix_planted_rho():
    rng = np.random.default_rng(2)
    n = 500
    x = rng.normal(size=n)
    noise = rng.normal(size=n)
    rho = 0.5
    y = rho * x + math.sqrt(1 - rho * rho) * noise
    features = matrix(("F",), ((f"u{i:03d}", (float(x[i]),)) for i in range(n)))
    scores = [(f"u{i:03d}", b5(e=float(y[i]))) for i in range(n)]
    results = correlation_matrix(features, scores)
    r = next(res.r for res in results if res.feature == "F" and res.trait == "E")
    assert abs(r - rho) < 0.1


CELLS = st.floats(-100, 100, allow_nan=False) | st.integers(-2, 2).map(float)


def pairwise_pearson(x, y):
    """Pearson's float operations written out for one pair: the exact reference."""
    from textpersona.special import student_t_two_sided_p

    n = len(x)
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    sxx, syy = math.fsum(a * a for a in dx), math.fsum(b * b for b in dy)
    if sxx == 0.0 or syy == 0.0:
        return None, None
    r = min(1.0, max(-1.0, math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)))
    if abs(r) == 1.0:
        return r, 0.0
    return r, student_t_two_sided_p(r * math.sqrt((n - 2) / (1.0 - r * r)), n - 2)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_correlation_matrix_equals_pearson_exactly(data):
    """Each pair's r and p are pearson's on the joined, user-id-sorted columns."""
    both = data.draw(st.lists(st.sampled_from([f"u{i:02d}" for i in range(15)]), min_size=3, max_size=15, unique=True))
    feature_only = data.draw(st.lists(st.sampled_from(["f1", "f2"]), unique=True))
    score_only = data.draw(st.lists(st.sampled_from(["s1", "s2"]), unique=True))
    constant_trait = data.draw(st.sampled_from(TRAITS))
    features = matrix(
        ("F", "G", "Const"),
        ((uid, (data.draw(CELLS), data.draw(CELLS), 2.5)) for uid in data.draw(st.permutations(both + feature_only))),
    )
    scores = [
        (uid, BigFive(*(50.0 if t == constant_trait else data.draw(CELLS) for t in TRAITS)))
        for uid in data.draw(st.permutations(both + score_only))
    ]
    results = correlation_matrix(features, scores)

    joined = sorted(both)
    freqs = {uid: dict(zip(features.names, row)) for uid, row in zip(features.user_ids, features.rows)}
    score_by_id = dict(scores)
    expected = []
    for name in ("F", "G", "Const"):
        x = [freqs[uid][name] for uid in joined]
        for trait in TRAITS:
            y = [score_by_id[uid].get(trait) for uid in joined]
            try:
                r, p, _ = pearson(x, y)
            except StatsError:
                r = p = None
            assert (r, p) == pairwise_pearson(x, y)
            expected.append((name, trait, r, p, len(joined), p is not None and p < 0.05))
    got = [(res.feature, res.trait, res.r, res.p, res.n, res.significant) for res in results]
    assert got == expected
    assert all(res.r is None for res in results if res.feature == "Const" or res.trait == constant_trait)


def test_correlation_matrix_requires_three_joined():
    features = matrix(("F",), [("a", (1.0,)), ("b", (2.0,))])
    with pytest.raises(StatsError):
        correlation_matrix(features, [("a", b5()), ("b", b5())])


# ---------------------------------------------------------------- split


def test_polarity_split_sizes():
    scores = [(f"u{i}", float(i)) for i in range(8)]
    split = polarity_split(scores, 0.25)
    assert len(split.high_ids) == 2 and len(split.low_ids) == 2
    assert set(split.high_ids) == {"u6", "u7"}
    assert set(split.low_ids) == {"u0", "u1"}


def test_polarity_split_all_ties_break_on_user_id():
    scores = [(f"u{i}", 5.0) for i in range(8)]
    split = polarity_split(scores, 0.25)
    assert split.low_ids == ("u0", "u1")
    assert split.high_ids == ("u6", "u7")
    assert not set(split.high_ids) & set(split.low_ids)


def test_polarity_split_paper_scale_arithmetic():
    scores = [(f"u{i:05d}", float(i % 97)) for i in range(6467)]
    split = polarity_split(scores, 0.25)
    assert len(split.high_ids) == 1616 and len(split.low_ids) == 1616


def keyed_sort_split(scores, quantile):
    """The split as ordered by a (score, user_id) sort key."""
    k = int(len(scores) * quantile)
    ordered = sorted(scores, key=lambda pair: (pair[1], pair[0]))
    return tuple(sorted(uid for uid, _ in ordered[:k])), tuple(sorted(uid for uid, _ in ordered[-k:]))


@given(
    st.lists(
        st.tuples(st.text(max_size=3), st.sampled_from([-0.0, 0.0, 1.0, -1.0]) | st.floats(-3, 3)),
        min_size=4,
        max_size=40,
        unique_by=lambda pair: pair[0],
    ),
    st.sampled_from([0.25, 0.3, 0.5]),
)
@settings(max_examples=300, deadline=None)
def test_polarity_split_equals_the_keyed_sort(scores, quantile):
    """Tied scores, +0.0 and -0.0 included, split as a (score, user_id) key orders them."""
    split = polarity_split(scores, quantile)
    assert (split.low_ids, split.high_ids) == keyed_sort_split(scores, quantile)


def test_polarity_split_boundary_invariants():
    rng = np.random.default_rng(3)
    values = [float(v) for v in rng.integers(0, 5, size=40)]
    scores = [(f"u{i:02d}", values[i]) for i in range(40)]
    split = polarity_split(scores, 0.25)
    by_id = dict(scores)
    high = [by_id[u] for u in split.high_ids]
    low = [by_id[u] for u in split.low_ids]
    rest_high = [by_id[u] for u in by_id if u not in split.high_ids]
    rest_low = [by_id[u] for u in by_id if u not in split.low_ids]
    assert min(high) >= max(rest_high)
    assert max(low) <= min(rest_low)


def test_polarity_split_domain_errors():
    with pytest.raises(StatsError):
        polarity_split([("a", 1.0)] * 3, 0.25)
    with pytest.raises(StatsError):
        polarity_split([(f"u{i}", float(i)) for i in range(5)], 0.1)  # floor(0.5) = 0
    with pytest.raises(StatsError):
        polarity_split([(f"u{i}", float(i)) for i in range(8)], 0.7)


# ---------------------------------------------------------------- tags


def prof(uid, **kw):
    return UserProfile(uid, **kw)


def test_tag_contrast_unanimous_tag_ranks_first():
    profiles = [prof(f"u{i}", tags=("Music",) if i >= 4 else ()) for i in range(8)]
    split = polarity_split([(f"u{i}", float(i)) for i in range(8)], 0.5)
    contrast = tag_contrast(split, profiles, top_k=5)
    assert contrast.high[0] == ("Music", 1.0)
    assert contrast.low == ()  # tag carried by nobody in the low group


def test_tag_contrast_missing_profile_fatal():
    split = polarity_split([(f"u{i}", float(i)) for i in range(4)], 0.25)
    with pytest.raises(StatsError, match="u3"):
        tag_contrast(split, [prof("u0")], top_k=3)


def test_tag_contrast_rejects_negative_top_k():
    split = polarity_split([(f"u{i}", float(i)) for i in range(8)], 0.25)
    profiles = [prof(f"u{i}", tags=("Music",)) for i in range(8)]
    assert tag_contrast(split, profiles, top_k=0).high == ()
    with pytest.raises(StatsError, match="top_k"):
        tag_contrast(split, profiles, top_k=-1)


def test_tag_contrast_planted_association():
    rng = np.random.default_rng(4)
    n = 400
    scores = []
    profiles = []
    for i in range(n):
        uid = f"u{i:03d}"
        score = float(rng.normal(50, 10))
        scores.append((uid, score))
    ranked = sorted(scores, key=lambda t: -t[1])
    high_ids = {uid for uid, _ in ranked[: n // 4]}
    for uid, _ in scores:
        tags = []
        if uid in high_ids:
            if rng.uniform() < 0.8:
                tags.append("Sleep")
        elif rng.uniform() < 0.05:
            tags.append("Sleep")
        if rng.uniform() < 0.4:
            tags.append("Music")
        profiles.append(prof(uid, tags=tuple(tags)))
    split = polarity_split(scores, 0.25, trait="N")
    contrast = tag_contrast(split, profiles, top_k=10)
    assert contrast.high[0][0] == "Sleep"


# ---------------------------------------------------------------- groups


def test_group_means_single_user_groups():
    users = [
        (prof("u1", gender="male"), b5(o=40)),
        (prof("u2", gender="female"), b5(o=60)),
    ]
    result = group_means(users, "gender")
    rows = {row.label: row for row in result.rows}
    assert rows["male"].means.get("O") == 40.0
    assert rows["female"].means.get("O") == 60.0
    assert rows["male"].low_support and rows["female"].low_support
    assert result.excluded_count == 0


def test_group_means_excludes_unknown_gender():
    users = [
        (prof("u1", gender="male"), b5()),
        (prof("u2"), b5()),
    ]
    result = group_means(users, "gender")
    assert result.excluded_count == 1
    assert sum(row.count for row in result.rows) == 1


def test_group_means_unknown_key_lists_supported():
    with pytest.raises(StatsError, match="gender"):
        group_means([(prof("u1"), b5())], "zodiac")


def test_group_means_weighted_total_identity():
    rng = np.random.default_rng(5)
    users = []
    for i in range(50):
        users.append(
            (
                prof(f"u{i:02d}", verified=bool(rng.integers(0, 2))),
                b5(*(float(v) for v in rng.normal(50, 10, size=5))),
            )
        )
    result = group_means(users, "verified")
    for t_idx, trait in enumerate(TRAITS):
        weighted = sum(row.count * row.means.get(trait) for row in result.rows)
        total = sum(row.count for row in result.rows)
        overall = sum(u[1][t_idx] for u in users) / len(users)
        assert abs(weighted / total - overall) < 1e-9


def test_group_means_planted_offset():
    rng = np.random.default_rng(6)
    users = []
    for i in range(600):
        verified = i % 4 == 0
        c = float(rng.normal(50, 10)) + (5.0 if verified else 0.0)
        users.append((prof(f"u{i:03d}", verified=verified), b5(c=c)))
    result = group_means(users, "verified")
    rows = {row.label: row for row in result.rows}
    diff = rows["verified"].means.get("C") - rows["unverified"].means.get("C")
    assert abs(diff - 5.0) < 2.0  # ~2 standard errors at these sizes


def test_all_grouping_keys_work():
    users = [
        (
            prof(
                "u1",
                gender="female",
                verified=True,
                schools=("a",),
                introduction="hi",
                location="北京",
            ),
            b5(),
        ),
        (prof("u2", gender="male"), b5()),
    ]
    for key in GROUPING_KEYS:
        result = group_means(users, key)
        assert sum(row.count for row in result.rows) + result.excluded_count == 2


# ---------------------------------------------------------------- trends


def test_binned_trend_age_rows():
    users = [
        (prof("u1", age=20), b5(o=40)),
        (prof("u2", age=30), b5(o=60)),
        (prof("u3"), b5(o=99)),
    ]
    trend = binned_trend(users, "age_year")
    assert [row.label for row in trend.rows] == ["20", "30"]
    assert trend.excluded_count == 1


def test_binned_trend_school_count_monotone_planted():
    rng = np.random.default_rng(7)
    users = []
    for i in range(1400):
        s = i % 7
        c = 40.0 + 2.0 * s + float(rng.normal(0, 3))
        users.append((prof(f"u{i:04d}", schools=tuple(f"s{j}" for j in range(s))), b5(c=c)))
    trend = binned_trend(users, "school_count")
    means = [row.means.get("C") for row in trend.rows]
    assert [row.label for row in trend.rows] == [str(s) for s in range(7)]
    assert all(a < b for a, b in zip(means, means[1:]))


def test_binned_trend_introduction_length():
    users = [
        (prof("u1", introduction="一二三"), b5(o=10)),
        (prof("u2", introduction="四" * 15), b5(o=20)),
        (prof("u3"), b5(o=99)),  # absent: excluded here
    ]
    trend = binned_trend(users, "introduction_length")
    assert [row.label for row in trend.rows] == ["1-10", "11-20"]
    assert trend.excluded_count == 1
    # same user 3 still counts in introduction_shared group means
    gm = group_means(users, "introduction_shared")
    assert {row.label: row.count for row in gm.rows} == {"shared": 2, "unknown": 1}


def test_binned_trend_bad_binning():
    with pytest.raises(StatsError):
        binned_trend([(prof("u1"), b5())], "shoe_size")


# ---------------------------------------------------------------- provinces


def test_normalize_province_prefix():
    assert normalize_province("广东 深圳") == "广东"
    assert normalize_province("北京") == "北京"
    assert normalize_province("火星") == "unknown"
    assert normalize_province(None) == "unknown"


def test_province_aggregate_single_province():
    users = [(prof(f"u{i}", location="广东 深圳"), b5(n=60)) for i in range(3)]
    rows = province_aggregate(users)
    assert rows[0].label == "广东" and rows[0].count == 3
    assert rows[-1].label == "unknown" and rows[-1].count == 0
    assert len(rows) == 2


def test_province_aggregate_planted_offsets():
    rng = np.random.default_rng(8)
    users = []
    for i in range(900):
        province = PROVINCES[i % len(PROVINCES)]
        n_score = float(rng.normal(50, 5))
        if province in ("广东", "浙江"):
            n_score += 8.0
        users.append((prof(f"u{i:03d}", location=province), b5(n=n_score)))
    rows = province_aggregate(users)
    named = [row for row in rows if row.label != "unknown"]
    top2 = sorted(named, key=lambda row: -row.means.get("N"))[:2]
    assert {row.label for row in top2} == {"广东", "浙江"}


# ---------------------------------------------------------------- emoticons


def usage_map(rows):
    return {uid: dict(counts) for uid, counts in rows.items()}


def test_emoticon_contrast_one_sided_usage():
    scores = [(f"u{i}", float(i)) for i in range(8)]
    split = polarity_split(scores, 0.25, trait="O")
    usage = {uid: {} for uid, _ in scores}
    for uid in split.high_ids:
        usage[uid] = {"[月亮]": 10, "[心]": 5}
    for uid in split.low_ids:
        usage[uid] = {"[心]": 15}
    contrast = emoticon_contrast(split, usage, min_count=0)
    rows = {row.emoticon: row for row in contrast.rows}
    assert rows["[月亮]"].low_proportion == 0.0
    assert rows["[月亮]"].high_count == 20


def test_emoticon_contrast_identical_distributions():
    scores = [(f"u{i}", float(i)) for i in range(8)]
    split = polarity_split(scores, 0.25, trait="O")
    usage = {uid: {"[心]": 4, "[doge]": 6} for uid, _ in scores}
    contrast = emoticon_contrast(split, usage, min_count=0)
    for row in contrast.rows:
        assert row.high_proportion == row.low_proportion
        assert not row.significant


def test_emoticon_contrast_min_count_filter():
    scores = [(f"u{i}", float(i)) for i in range(8)]
    split = polarity_split(scores, 0.25, trait="O")
    usage = {uid: {"rare": 1, "common": 100} for uid, _ in scores}
    contrast = emoticon_contrast(split, usage, min_count=500)
    assert [row.emoticon for row in contrast.rows] == ["common"]


def test_emoticon_contrast_empty_group_warns():
    scores = [(f"u{i}", float(i)) for i in range(8)]
    split = polarity_split(scores, 0.25, trait="O")
    usage = {uid: ({"[心]": 3} if uid in split.low_ids else {}) for uid, _ in scores}
    contrast = emoticon_contrast(split, usage, min_count=0)
    assert contrast.rows == ()
    assert "high" in contrast.warning


def test_emoticon_contrast_planted_rate():
    rng = np.random.default_rng(9)
    n = 1600
    scores = [(f"u{i:04d}", float(rng.normal(50, 10))) for i in range(n)]
    split = polarity_split(scores, 0.25, trait="O")
    high = set(split.high_ids)
    usage = {}
    for uid, _ in scores:
        lam = 3.0 if uid in high else 1.0
        usage[uid] = {
            "[月亮]": int(rng.poisson(lam)),
            "[心]": int(rng.poisson(2.0)),
            "[doge]": int(rng.poisson(2.0)),
        }
    contrast = emoticon_contrast(split, usage, min_count=500)
    assert contrast.rows[0].emoticon == "[月亮]"
    assert contrast.rows[0].p < 0.05 and contrast.rows[0].significant


EMOTICONS = ("[心]", "[月亮]", "[doge]", "[哈哈]")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_emoticon_contrasts_equal_one_split_at_a_time(data):
    """Totals counted once give each split the rows of its own contrast."""
    uids = [f"u{i}" for i in range(10)]
    usage = data.draw(
        st.dictionaries(st.sampled_from(uids), st.dictionaries(st.sampled_from(EMOTICONS), st.integers(0, 20)))
    )
    min_count = data.draw(st.integers(0, 60))
    splits = [
        polarity_split([(uid, float(data.draw(st.integers(0, 3)))) for uid in uids], 0.3, trait=trait)
        for trait in TRAITS
    ]
    # a split whose low group uses no emoticon at all
    silent = polarity_split([(uid, float(i)) for i, uid in enumerate(uids)], 0.3, trait="O")
    usage = {**usage, **{uid: {} for uid in silent.low_ids}, **{uid: {"[心]": 1} for uid in silent.high_ids}}
    splits.append(silent)

    got = emoticon_contrasts(splits, usage, min_count, 0.05)
    assert got == [emoticon_contrast(split, usage, min_count, 0.05) for split in splits]
    assert got[-1].rows == () and "low" in got[-1].warning
    totals = Counter()
    for counts in usage.values():
        totals.update(counts)
    for split, contrast in zip(splits, got):
        if contrast.warning is None:
            assert sorted(row.emoticon for row in contrast.rows) == sorted(e for e, c in totals.items() if c > min_count)
        for row in contrast.rows:
            assert row.high_count == sum(usage.get(uid, {}).get(row.emoticon, 0) for uid in split.high_ids)
            assert row.low_count == sum(usage.get(uid, {}).get(row.emoticon, 0) for uid in split.low_ids)


def emoticon_contrast_oracle(split, usage, min_count, alpha):
    """Brute force: one Counter summed per group, every emoticon looked up in it."""
    totals, high, low = Counter(), Counter(), Counter()
    for counts in usage.values():
        totals.update(counts)
    for ids, group in ((split.high_ids, high), (split.low_ids, low)):
        for uid in ids:
            group.update(usage.get(uid, {}))
    n_high, n_low = sum(high.values()), sum(low.values())
    if n_high == 0 or n_low == 0:
        side = "high" if n_high == 0 else "low"
        return EmoticonContrast(split.trait, (), f"{side} group has zero emoticon usage; contrast is empty")
    rows = []
    for emoticon in (e for e in totals if totals[e] > min_count):
        x_high, x_low = high[emoticon], low[emoticon]
        p = 1.0 if x_high == x_low == 0 else two_proportion_z_p(x_high, n_high, x_low, n_low)
        rows.append(EmoticonRow(emoticon, x_high, x_low, x_high / n_high, x_low / n_low, p, p < alpha))
    rows.sort(key=lambda row: (-abs(row.high_proportion - row.low_proportion), row.emoticon))
    return EmoticonContrast(split.trait, tuple(rows))


EMOTICON_USERS = tuple(f"u{i}" for i in range(12))
# some users are absent from the usage map, some have an empty Counter or zero counts
emoticon_usages = st.dictionaries(
    st.sampled_from(EMOTICON_USERS),
    st.dictionaries(st.sampled_from(EMOTICONS), st.integers(0, 20)).map(Counter),
)
user_groups = st.lists(st.sampled_from(EMOTICON_USERS), unique=True, max_size=6).map(lambda ids: tuple(sorted(ids)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_emoticon_contrasts_equal_a_brute_force_oracle(data):
    usage = data.draw(emoticon_usages)
    splits = data.draw(
        st.lists(st.builds(PolaritySplit, st.sampled_from(TRAITS), user_groups, user_groups), max_size=5)
    )
    totals = sorted(set(Counter(e for counts in usage.values() for e in counts.elements()).values()))
    min_count = data.draw(st.integers(0, 60) | st.sampled_from(totals or [0]))  # or a total exactly at min_count
    got = emoticon_contrasts(splits, usage, min_count, 0.05)
    assert got == [emoticon_contrast_oracle(split, usage, min_count, 0.05) for split in splits]


def test_emoticon_contrast_oracle_meets_its_edge_cases():
    """The cases the oracle test draws, each met once by hand."""
    usage = {
        "u0": Counter({"[心]": 3, "[哈哈]": 2}),
        "u1": Counter(),
        "u2": Counter({"[月亮]": 4}),
        "u3": Counter({"[心]": 1}),
    }
    splits = [
        PolaritySplit("O", ("u0",), ("u3", "u9")),  # u9 has no usage; [月亮] is used by neither group
        PolaritySplit("C", ("u1", "u9"), ("u0",)),  # the high group uses no emoticon
    ]
    got = emoticon_contrasts(splits, usage, min_count=2, alpha=0.05)
    assert got == [emoticon_contrast_oracle(split, usage, 2, 0.05) for split in splits]
    rows = {row.emoticon: row for row in got[0].rows}
    assert set(rows) == {"[心]", "[月亮]"}  # [哈哈]'s total of 2 equals min_count, so it does not qualify
    assert (rows["[月亮]"].high_count, rows["[月亮]"].low_count, rows["[月亮]"].p) == (0, 0, 1.0)
    assert (rows["[心]"].high_count, rows["[心]"].low_count) == (3, 1)
    assert got[1].rows == () and got[1].warning == "high group has zero emoticon usage; contrast is empty"


def test_emoticon_contrasts_rejects_negative_min_count():
    with pytest.raises(StatsError):
        emoticon_contrasts([], {}, min_count=-1)


def test_two_proportion_z_against_scipy():
    from scipy import stats as sp_stats

    cases = [(30, 100, 10, 80), (5, 50, 5, 50), (0, 40, 3, 60), (25, 60, 24, 61)]
    for x1, n1, x2, n2 in cases:
        p = two_proportion_z_p(x1, n1, x2, n2)
        pooled = (x1 + x2) / (n1 + n2)
        if pooled in (0, 1):
            continue
        z = (x1 / n1 - x2 / n2) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
        ref = 2 * float(sp_stats.norm.sf(abs(z)))
        assert abs(p - ref) < 1e-12


# ------------------------------------------------- brute-force oracle


def test_small_corpus_matches_naive_oracle():
    """Every statistic vs a naive reimplementation on <= 50 users."""
    rng = np.random.default_rng(10)
    users = []
    scores_by_id = {}
    for i in range(50):
        uid = f"u{i:02d}"
        score = b5(*(float(v) for v in rng.normal(50, 10, size=5)))
        where = rng.uniform()
        if where < 0.25:
            location = None
        elif where < 0.35:
            location = "火星"
        else:  # a province, sometimes after spaces or before a city
            location = " " * int(rng.integers(0, 3)) + str(PROVINCES[int(rng.integers(0, 5))])
            location += " 某市" if rng.uniform() < 0.5 else ""
        # the first users carry the edge lengths: empty, 1, the last bin's end, past it
        intro_length = (0, 1, 70, 71, 85)[i] if i < 5 else int(rng.integers(0, 90))
        profile = prof(
            uid,
            gender=["male", "female", "unknown"][int(rng.integers(0, 3))],
            verified=bool(rng.integers(0, 2)),
            age=int(rng.integers(10, 48)) if rng.uniform() < 0.8 else None,
            tags=tuple(t for t in ("A", "B", "C") if rng.uniform() < 0.5),
            location=location,
            schools=tuple(f"s{k}" for k in range(int(rng.integers(0, 4)))),
            introduction="x" * intro_length if i < 5 or rng.uniform() < 0.8 else None,
        )
        users.append((profile, score))
        scores_by_id[uid] = score
    intro_lengths = {len(p.introduction) for p, _ in users if p.introduction is not None}
    assert 0 in intro_lengths and max(intro_lengths) > 70
    assert any(p.age is None for p, _ in users)
    assert any(p.location and p.location.startswith(" ") for p, _ in users)

    def naive_rows(users, key, keys, label=str):
        """(label, count, means) for each key in order with members, and the excluded count."""
        rows = []
        for k in keys:
            members = [s for p, s in users if key(p) == k]
            if members:
                means = {t: sum(m.get(t) for m in members) / len(members) for t in TRAITS}
                rows.append((label(k), len(members), means))
        return rows, sum(key(p) is None for p, _ in users)

    def assert_rows_equal(rows, expected):
        assert [(row.label, row.count) for row in rows] == [(lab, n) for lab, n, _ in expected]
        for row, (_, _, means) in zip(rows, expected):
            assert row.low_support == (row.count < 5)
            for trait in TRAITS:
                assert abs(row.means.get(trait) - means[trait]) < 1e-10

    # group means vs naive, every grouping
    groupers = {
        "gender": (("male", "female"), lambda p: None if p.gender == "unknown" else p.gender),
        "verified": (("verified", "unverified"), lambda p: "verified" if p.verified else "unverified"),
        "education_shared": (("shared", "unknown"), lambda p: "shared" if len(p.schools) > 0 else "unknown"),
        "introduction_shared": (("shared", "unknown"), lambda p: "shared" if p.introduction else "unknown"),
        "location_shared": (("shared", "unknown"), lambda p: "unknown" if p.location is None else "shared"),
    }
    assert set(groupers) == set(GROUPING_KEYS)
    for key in GROUPING_KEYS:
        labels, getter = groupers[key]
        expected, excluded = naive_rows(users, getter, labels)
        result = group_means(users, key)
        assert result.name == key and result.excluded_count == excluded
        assert_rows_equal(result.rows, expected)

    # trends vs naive, every binning; introductions bin by tens up to 70
    def intro_bin(p):
        length = len(p.introduction or "")
        return (length - 1) // 10 if 1 <= length <= 70 else None

    binners = {
        "age_year": (lambda p: p.age, range(100), str),
        "school_count": (lambda p: len(p.schools), range(10), str),
        "introduction_length": (intro_bin, range(7), lambda b: f"{10 * b + 1}-{10 * b + 10}"),
    }
    assert set(binners) == set(BINNINGS)
    for binning in BINNINGS:
        getter, bins, label = binners[binning]
        expected, excluded = naive_rows(users, getter, bins, label)
        trend = binned_trend(users, binning)
        assert trend.name == binning and trend.excluded_count == excluded
        assert_rows_equal(trend.rows, expected)

    # province aggregation vs naive; 'unknown' is last, with zero means when empty
    def province(p):
        stripped = (p.location or "").strip()
        return next((q for q in PROVINCES if stripped.startswith(q)), "unknown")

    expected, _ = naive_rows(users, province, (*PROVINCES, "unknown"))
    assert expected[-1][0] == "unknown"
    assert_rows_equal(province_aggregate(users), expected)
    located = [(p, s) for p, s in users if province(p) != "unknown"]
    expected, _ = naive_rows(located, province, PROVINCES)
    rows = province_aggregate(located)
    assert_rows_equal(rows[:-1], expected)
    assert rows[-1] == ("unknown", 0, BigFive(0.0, 0.0, 0.0, 0.0, 0.0))
    assert all(type(row.means) is BigFive for row in rows)

    # polarity split vs naive sort
    pairs = [(uid, scores_by_id[uid].n) for uid in scores_by_id]
    split = polarity_split(pairs, 0.25)
    naive_order = sorted(pairs, key=lambda t: (t[1], t[0]))
    k = len(pairs) // 4
    assert set(split.low_ids) == {u for u, _ in naive_order[:k]}
    assert set(split.high_ids) == {u for u, _ in naive_order[-k:]}

    # province aggregation vs naive
    rows = province_aggregate(users)
    for row in rows:
        members = [s for p, s in users if normalize_province(p.location) == row.label]
        assert row.count == len(members)
        if members:
            naive = sum(m.n for m in members) / len(members)
            assert abs(row.means.get("N") - naive) < 1e-10

    # correlation matrix vs direct pearson on each pair
    features = matrix(
        ("F1", "F2"),
        ((uid, (scores_by_id[uid].o * 0.5 + float(rng.normal()), float(rng.normal()))) for uid in scores_by_id),
    )
    results = correlation_matrix(features, list(scores_by_id.items()))
    ordered_ids = sorted(scores_by_id)
    for res in results:
        if res.r is None:
            continue
        j = features.names.index(res.feature)
        col = [features.rows[features.user_ids.index(uid)][j] for uid in ordered_ids]
        tcol = [scores_by_id[uid].get(res.trait) for uid in ordered_ids]
        r_ref, p_ref = oracle_pearson(col, tcol)
        assert abs(res.r - r_ref) < 1e-10
        assert abs(res.p - p_ref) < 1e-10
