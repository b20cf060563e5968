"""The pipeline's records: immutable NamedTuples whose invariants raise as they always did."""

import datetime as dt
import math
import re
from pathlib import Path

import pytest

from textpersona import cleaner, corpus, lexicon, model, report, segmenter, stats
from textpersona.config import RunConfig
from textpersona.corpus import RejectReason, UserProfile, ValidityReport
from textpersona.errors import PipelineError
from textpersona.lexicon import FeatureMatrix
from textpersona.model import BigFive

AD, NO_POSTS = RejectReason.AD_ACCOUNT, RejectReason.NO_POSTS


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BigFive(1.0, 2.0, math.nan, 4.0, 5.0), ValueError, "trait E must be finite, got nan"),
        (lambda: BigFive(1.0, 2.0, 3.0, 4.0, -math.inf), ValueError, "trait N must be finite, got -inf"),
        (lambda: BigFive(1.0, 2.0, 3.0, 4.0, 5.0)._replace(o=math.inf), ValueError, "trait O must be finite"),
        (lambda: UserProfile("u1", gender="x"), ValueError, "gender must be one of"),
        (lambda: UserProfile("u1", follower_count=-1), ValueError, "follower_count must be non-negative"),
        (lambda: UserProfile("u1", tags=("t",) * 11), ValueError, "at most 10 tags allowed"),
        (lambda: UserProfile("u1")._replace(gender="x"), ValueError, "gender must be one of"),
        (lambda: ValidityReport(3, 2, ()), ValueError, "2 accepted + 0 rejected != 3 total"),
        # a user rejected for two reasons counts once
        (lambda: ValidityReport(3, 1, (("u2", AD), ("u2", NO_POSTS))), ValueError, "1 accepted + 1 rejected != 3"),
        (lambda: FeatureMatrix(("A",), ("u1", "u2"), (1,), ((1.0,), (2.0,))), PipelineError,
         "feature matrix has 2 user ids, 1 token counts and 2 rows"),
        (lambda: FeatureMatrix(("A",), ("u1",), (1,), ()), PipelineError, "1 user ids, 1 token counts and 0 rows"),
        (lambda: FeatureMatrix(("A",), ("u1", "u1"), (1, 1), ((1.0,), (1.0,))), PipelineError,
         "user_id 'u1' appears twice in the feature matrix"),
    ],
    ids=[
        "bigfive-nan", "bigfive-inf", "bigfive-replace", "profile-gender", "profile-followers", "profile-tags",
        "profile-replace", "validity-identity", "validity-distinct", "matrix-short-counts", "matrix-short-rows",
        "matrix-repeated-id",
    ],
)
def test_invariants_raise_their_old_errors(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_valid_records_build():
    assert ValidityReport(2, 1, (("u2", AD), ("u2", NO_POSTS))).accepted == 1
    assert UserProfile("u1", tags=("t",) * 10).tags == ("t",) * 10
    assert FeatureMatrix(("A",), ("u1", "u2"), (1, 0), ((100.0,), (0.0,))).user_ids == ("u1", "u2")


RECORDS = [
    cleaner.CleanResult("", (), True),
    corpus.UserProfile("u1"),
    corpus.Post("u1", "text"),
    corpus.ValidityReport(0, 0, ()),
    corpus.LoadSummary(0, 0, 0, 0),
    lexicon.LexiconEntry("开心", False, frozenset({1})),
    lexicon.Lexicon(((1, "PosEmo"),), ()),
    lexicon.FeatureMatrix(("PosEmo",), (), (), ()),
    model.BigFive(1.0, 2.0, 3.0, 4.0, 5.0),
    model.MappingModel((), (), (0.0,) * 5, 1.0, 0),
    report.Table("t", ("a",), ()),
    report.FeatureTable("features", ("user_id", "token_count"), ()),
    report.ScoreTable("scores", ("user_id", "O"), ()),
    report.ReportBundle(Path("out"), (), Path("out/manifest.json")),
    segmenter.WordList.from_words(["今天"]),
    stats.CorrelationResult("PosEmo", "O", None, None, 3, False),
    stats.PolaritySplit("O", (), ()),
    stats.TagContrast("O", (), ()),
    stats.MeanRow("male", 0, {}),
    stats.Grouping("gender", (), 0),
    stats.EmoticonRow("[心]", 1, 0, 1.0, 0.0, 0.5, False),
    stats.EmoticonContrast("O", ()),
]


def test_every_record_class_is_covered():
    """RECORDS holds one instance of each public NamedTuple class of the package."""
    modules = (cleaner, corpus, lexicon, model, report, segmenter, stats)
    found = {
        obj
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }
    assert found == {type(record) for record in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_every_record_refuses_assignment(record):
    """AttributeError is also the base class of dataclasses.FrozenInstanceError."""
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_replace_keeps_the_record_class():
    profile = UserProfile("u1", gender="female", birth_date=None)
    older = profile._replace(age=30)
    assert type(older) is UserProfile
    assert older.age == 30 and older.gender == "female" and profile.age is None


def test_bigfive_is_its_own_tuple():
    """A BigFive is the tuple of its scores in TRAITS order, the order of every table's trait columns."""
    score = BigFive(1.0, 2.0, 3.0, 4.0, 5.0)
    assert isinstance(score, tuple) and score == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert BigFive._fields == tuple(trait.lower() for trait in model.TRAITS)
    assert [score.get(trait) for trait in model.TRAITS] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_word_list_compares_and_hashes_on_words_alone():
    same = segmenter.WordList(frozenset({"今天"}), {})
    built = segmenter.WordList.from_words(["今天"])
    assert built.lengths != same.lengths
    assert built == same and not built != same and hash(built) == hash(same)
    assert built != segmenter.WordList.from_words(["明天"])


def test_run_config_defaults_are_class_attributes():
    assert RunConfig.quantile == 0.25
    config = RunConfig()
    config.quantile = 0.5
    assert RunConfig.quantile == 0.25 and RunConfig().quantile == 0.25
    assert RunConfig().to_jsonable() == {
        "reference_date": None,
        "min_followers": 10,
        "age_range": [10, 47],
        "quantile": 0.25,
        "alpha": 0.05,
        "emoticon_min_count": 500,
        "ridge_lambda": 1.0,
        "top_k_tags": 20,
        "ad_url_patterns": ["taobao"],
        "profiles_path": None,
        "posts_path": None,
        "lexicon_path": None,
        "word_list_path": None,
        "spam_keywords_path": None,
        "system_templates_path": None,
        "model_path": None,
    }
    assert list(RunConfig().to_jsonable()) == list(RunConfig.KEYS)
    assert RunConfig.PATH_KEYS == (
        "profiles_path", "posts_path", "lexicon_path", "word_list_path",
        "spam_keywords_path", "system_templates_path", "model_path",
    )


NO_USERS = FeatureMatrix((), (), (), ())
REF = dt.date(2018, 6, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: stats.correlation_matrix(NO_USERS, [], alpha=1.0), "alpha must be in (0, 1), got 1.0"),
        (lambda: stats.polarity_split([], quantile=0.75), "quantile must be in (0, 0.5], got 0.75"),
        (lambda: stats.tag_contrast(stats.PolaritySplit("O", (), ()), [], top_k=-1), "top_k must be >= 0"),
        (lambda: stats.emoticon_contrasts([], {}, min_count=-1), "min_count must be >= 0"),
        (lambda: stats.emoticon_contrasts([], {}, alpha=0.0), "alpha must be in (0, 1), got 0.0"),
        (lambda: corpus.validate_users([], [], min_followers=-1, reference_date=REF), "min_followers must be >= 0"),
        (lambda: corpus.validate_users([], [], ad_url_patterns=("a", ""), reference_date=REF),
         "an ad URL pattern must not be empty"),
        (lambda: corpus.with_credible_age(UserProfile("u1"), REF, (47, 10)),
         "age range 47-10 is empty: its lowest age is above its highest"),
        (lambda: model.fit(NO_USERS, [], ridge_lambda=math.inf), "ridge lambda must be a finite number >= 0, got inf"),
    ],
    ids=["correlation-alpha", "quantile", "top-k", "min-count", "emoticon-alpha", "min-followers", "ad-url",
         "age-range", "ridge-lambda"],
)
def test_library_range_checks_raise_their_run_config_message(call, message):
    """corpus, stats and model.fit refuse a value outside RunConfig.RANGES with its message, as a PipelineError."""
    with pytest.raises(PipelineError) as err:
        call()
    assert type(err.value) is PipelineError and str(err.value) == message

