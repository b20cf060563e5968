"""Artifact tables and bundle determinism."""

import csv
import datetime as dt
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textpersona.config import RunConfig, builtin_data_path
from textpersona.corpus import UserProfile, load_corpus, validate_users
from textpersona.errors import BundleError
from textpersona.report import (
    Table,
    build_bundle,
    demographic_summary,
    fmt,
)

TESTDATA = Path(__file__).parent / "data"
FIXTURE = builtin_data_path("fixture_corpus")


def fixture_config() -> RunConfig:
    return RunConfig.from_file(FIXTURE / "run_config.json")


def test_fmt_cells():
    assert fmt(None) == ""
    assert fmt(True) == "true" and fmt(False) == "false"
    assert fmt(1.5) == "1.500000"
    assert fmt(3) == "3"
    assert fmt("x") == "x"


def test_table_csv_and_json(tmp_path):
    table = Table("t", ("a", "b"), ((1, 2.5), (None, False)))
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    table.write_csv(csv_path)
    table.write_json(json_path)
    assert csv_path.read_text(encoding="utf-8") == "a,b\n1,2.500000\n,false\n"
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert doc["columns"] == ["a", "b"]
    assert doc["rows"] == [[1, 2.5], [None, False]]
    assert doc["schema_version"] == 1



@given(
    st.tuples(st.text(), st.text()),
    st.lists(st.tuples(st.text(), st.text() | st.none() | st.floats(allow_nan=False)), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_table_csv_round_trips_any_unicode(tmp_path_factory, columns, rows):
    """Commas, quotes and line breaks in ids or tags come back as the same cells."""
    path = tmp_path_factory.getbasetemp() / "round_trip_table.csv"
    Table("t", columns, tuple(rows)).write_csv(path)
    with open(path, encoding="utf-8", newline="") as fh:
        back = list(csv.reader(fh))
    assert back == [list(columns), *([fmt(v) for v in row] for row in rows)]


def json_dump_oracle(table: Table, path) -> None:
    """The whole-document writer that Table.write_json streams row by row."""
    doc = {
        "name": table.name,
        "schema_version": 1,
        "columns": list(table.columns),
        "rows": [[round(v, 6) if isinstance(v, float) else v for v in row] for row in table.rows],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


ANY_TEXT = st.text(st.characters(codec="utf-8")) | st.sampled_from(['"', "\\", "\u2028", "\x00\x1f\x7f", "a\nb"])
JSON_CELLS = (
    ANY_TEXT
    | st.none()
    | st.booleans()
    | st.integers(min_value=-(10**20), max_value=10**20)
    | st.floats(allow_nan=False)
    | st.floats(min_value=-5e-7, max_value=5e-7)
    | st.sampled_from([-0.0, math.inf, -math.inf])
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_table_json_equals_json_dump(tmp_path_factory, data):
    width = data.draw(st.integers(1, 4))
    columns = tuple(data.draw(st.lists(ANY_TEXT, min_size=width, max_size=width)))
    rows = data.draw(st.lists(st.tuples(*[JSON_CELLS] * width), max_size=4))
    table = Table(data.draw(ANY_TEXT), columns, tuple(rows))
    base = tmp_path_factory.getbasetemp()
    table.write_json(base / "streamed.json")
    json_dump_oracle(table, base / "oracle.json")
    assert (base / "streamed.json").read_bytes() == (base / "oracle.json").read_bytes()


def test_bundle_json_is_canonical_json_dump(tmp_path):
    build_bundle(fixture_config(), tmp_path / "out")
    paths = sorted((tmp_path / "out").glob("*.json"))
    assert len(paths) == 11
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), ensure_ascii=False, indent=2, sort_keys=True) + "\n", path.name


def test_demographic_summary_two_users():
    profiles = [
        UserProfile("u1", gender="female", location="北京"),
        UserProfile("u2", gender="male", location="上海"),
    ]
    table = demographic_summary(profiles)
    rows = {row[0]: row for row in table.rows}
    assert rows["gender_female"][1] == 50.0
    assert rows["gender_male"][1] == 50.0
    assert rows["location_shared"][1] == 100.0
    assert rows["location_unknown"][1] == 0.0
    # binary items sum to 100
    assert rows["verified"][1] + rows["unverified"][1] == 100.0
    assert rows["tags_shared"][1] + rows["tags_unknown"][1] == 100.0


def test_demographic_summary_empty_fatal():
    with pytest.raises(Exception):
        demographic_summary([])


def test_demographic_summary_golden():
    profiles, posts, _ = load_corpus(FIXTURE / "profiles.jsonl", FIXTURE / "posts.jsonl")
    validated, _, _ = validate_users(
        profiles, posts, min_followers=10, ad_url_patterns=("taobao",),
        reference_date=dt.date(2018, 6, 1),
    )
    table = demographic_summary(validated)
    lines = [",".join(fmt(v) for v in row) for row in table.rows]
    golden = (TESTDATA / "demographics_golden.csv").read_text(encoding="utf-8")
    assert "\n".join([",".join(table.columns)] + lines) + "\n" == golden


def test_build_bundle_fixture_lists_10_artifacts(tmp_path):
    bundle = build_bundle(fixture_config(), tmp_path / "out")
    assert len(bundle.artifacts) == 10
    manifest = json.loads(bundle.manifest_path.read_text(encoding="utf-8"))
    assert len(manifest["artifacts"]) == 10
    names = {a["name"] for a in manifest["artifacts"]}
    assert names == {
        "features", "scores", "score_summary", "demographics", "correlations",
        "tag_contrast", "group_means", "trends", "province_means", "emoticon_contrast",
    }
    assert "input_hashes" in manifest and "config" in manifest
    for artifact in manifest["artifacts"]:
        assert (tmp_path / "out" / artifact["path"]).exists()
        assert (tmp_path / "out" / artifact["json_path"]).exists()
        rows = (tmp_path / "out" / artifact["path"]).read_text(encoding="utf-8").strip().splitlines()
        assert len(rows) - 1 == artifact["rows"]


def test_build_bundle_manifest_completeness(tmp_path):
    no_keyword_files = fixture_config()
    no_keyword_files.spam_keywords_path = no_keyword_files.system_templates_path = None
    for out, cfg in (("full", fixture_config()), ("no_keyword_files", no_keyword_files)):
        bundle = build_bundle(cfg, tmp_path / out)
        manifest = json.loads(bundle.manifest_path.read_text(encoding="utf-8"))
        listed = {"manifest.json"}
        for artifact in manifest["artifacts"]:
            listed.add(artifact["path"])
            listed.add(artifact["json_path"])
        on_disk = {p.name for p in (tmp_path / out).iterdir()}
        assert on_disk == listed
        # every set input path is hashed under its key less "_path"; an unset one is left out
        inputs = ["profiles", "posts", "lexicon", "word_list", "model"]
        if cfg.spam_keywords_path:
            inputs += ["spam_keywords", "system_templates"]
        assert manifest["input_hashes"] == {
            name: hashlib.sha256(Path(getattr(cfg, f"{name}_path")).read_bytes()).hexdigest()
            for name in inputs
        }


def _bundle_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_build_bundle_deterministic(tmp_path):
    build_bundle(fixture_config(), tmp_path / "a")
    build_bundle(fixture_config(), tmp_path / "b")
    assert _bundle_bytes(tmp_path / "a") == _bundle_bytes(tmp_path / "b")


def test_build_bundle_zero_users_fails_at_validate(tmp_path):
    profiles = tmp_path / "profiles.jsonl"
    posts = tmp_path / "posts.jsonl"
    profiles.write_text('{"user_id": "u1", "verified": false, "follower_count": 1}\n')
    posts.write_text("", encoding="utf-8")
    cfg = fixture_config()
    cfg.profiles_path = str(profiles)
    cfg.posts_path = str(posts)
    with pytest.raises(BundleError) as err:
        build_bundle(cfg, tmp_path / "out")
    assert err.value.stage == "validate"


def test_build_bundle_missing_config(tmp_path):
    cfg = RunConfig()
    with pytest.raises(BundleError) as err:
        build_bundle(cfg, tmp_path / "out")
    assert err.value.stage == "config"
    assert str(err.value) == (
        "stage 'config' failed: missing config values: "
        "profiles_path, posts_path, lexicon_path, word_list_path, model_path, reference_date"
    )


def test_bundle_features_match_frozen_golden(tmp_path):
    """The bundle's feature table equals the frozen pipeline golden."""
    build_bundle(fixture_config(), tmp_path / "out")
    produced = (tmp_path / "out" / "features.csv").read_bytes()
    golden = (TESTDATA / "features_golden.csv").read_bytes()
    assert produced == golden


def test_bundle_scores_match_frozen_golden(tmp_path):
    build_bundle(fixture_config(), tmp_path / "out")
    produced = (tmp_path / "out" / "scores.csv").read_bytes()
    golden = (TESTDATA / "scores_golden.csv").read_bytes()
    assert produced == golden
