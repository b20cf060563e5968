"""Artifact tables and bundle determinism."""

import csv
import datetime as dt
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textpersona import model, report, segmenter
from textpersona.config import RunConfig, builtin_data_path
from textpersona.corpus import UserProfile, load_corpus, validate_users
from textpersona.errors import BundleError, InputFormatError
from textpersona.lexicon import FeatureMatrix, parse_lexicon
from textpersona.model import BigFive
from textpersona.report import (
    Table,
    build_bundle,
    demographic_summary,
    features_table,
    fmt,
)

TESTDATA = Path(__file__).parent / "data"
REPO = Path(__file__).resolve().parent.parent
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



CSV_TEXT = st.text(st.characters(codec="utf-8")) | st.sampled_from(
    ["", ",", '"', "x\r", "\r\n", "a\nb", 'a"b,c', "用户,甲"]
)
CSV_CELLS = (
    CSV_TEXT
    | st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from([-0.0, 0.0, 1e15, -1e15])
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_table_csv_round_trips_any_unicode(tmp_path_factory, data):
    """Commas, quotes and line breaks in ids or tags come back as the same cells, in csv.writer's bytes."""
    width = data.draw(st.integers(2, 4))
    columns = tuple(data.draw(st.lists(CSV_TEXT, min_size=width, max_size=width)))
    rows = tuple(data.draw(st.lists(st.tuples(*[CSV_CELLS] * width), max_size=4)))
    table = Table("t", columns, rows)
    path = tmp_path_factory.getbasetemp() / "round_trip_table.csv"
    table.write_csv(path)
    assert path.read_bytes() == csv_writer_oracle(table)
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
        json.dump(doc, fh, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
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
        layout = {"indent": 2} if path.name == "manifest.json" else {"separators": (",", ":")}
        assert text == json.dumps(json.loads(text), ensure_ascii=False, sort_keys=True, **layout) + "\n", path.name


def csv_writer_oracle(table: Table) -> bytes:
    """The per-cell CSV: csv.writer on each row of fmt cells, each row's "\\r\\n" made "\\n".

    csv.writer quotes only the line-break characters of its own line
    terminator, so it is given "\\r\\n", and a lone "\\r" gets quoted too.
    """
    lines = []
    for row in (table.columns, *table.rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow([fmt(v) for v in row])
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


ID_TEXT = ANY_TEXT | st.sampled_from([",", "x\r", "\r\n", 'a"b,c', ""])


@st.composite
def feature_matrices(draw):
    """Frequencies k * 100 / n as featurize makes them, two in three zero, zero-token rows
    included, under user ids and names of any text."""
    names = tuple(draw(st.lists(ID_TEXT, max_size=6)))
    user_ids = draw(st.lists(ID_TEXT, unique=True, max_size=8))
    counts, rows = [], []
    for _ in user_ids:
        n = draw(st.sampled_from([0, 1, 3, 7]) | st.integers(0, 10**7))
        scale = 100.0 / n if n else 0.0
        counts.append(n)
        rows.append(tuple(draw(st.just(0) | st.just(0) | st.integers(0, n)) * scale for _ in names))
    return FeatureMatrix(names, tuple(user_ids), tuple(counts), tuple(rows))


@given(feature_matrices())
@settings(max_examples=300, deadline=None)
def test_features_writers_equal_the_per_cell_writers(tmp_path_factory, features):
    """features.csv and .json format each distinct value once, with the per-cell bytes."""
    table = features_table(features, features.names)
    base = tmp_path_factory.getbasetemp()
    table.write_csv(base / "memo.csv")
    table.write_json(base / "memo.json")
    json_dump_oracle(table, base / "oracle.json")
    assert (base / "memo.csv").read_bytes() == csv_writer_oracle(table)
    assert (base / "memo.json").read_bytes() == (base / "oracle.json").read_bytes()


# finite scores: any float, values not at 6 decimals (as predict makes them), and zeros of either sign
SCORES = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(min_value=-100.0, max_value=100.0)
    | st.floats(min_value=-5e-7, max_value=5e-7)
    | st.sampled_from([-0.0, 0.0, -1e-7, 0.1234565])
)


@given(st.lists(st.tuples(ID_TEXT | st.sampled_from(["用户,甲", '说"你好"', "é\n", "x\r"]), *[SCORES] * 5), max_size=6))
@example([("用户,甲", -0.0, 0.0, 1.0, -1e-7, 2.5), ('说"你好"', 0.0, -0.0, -0.0, 0.0, 0.0)])
@settings(max_examples=300, deadline=None)
def test_scores_writers_equal_the_generic_table_writers(tmp_path_factory, rows):
    """scores.csv and .json, and model's scores CSV, format each score on its own, with the generic writers' bytes.

    -0.0 keeps its sign.
    """
    scores = [(uid, BigFive(*values)) for uid, *values in rows]
    table = report.scores_table(scores)
    generic = Table(table.name, table.columns, table.rows)
    base = tmp_path_factory.getbasetemp()
    for suffix in ("csv", "json"):
        getattr(table, f"write_{suffix}")(base / f"scores.{suffix}")
        getattr(generic, f"write_{suffix}")(base / f"generic.{suffix}")
        assert (base / f"scores.{suffix}").read_bytes() == (base / f"generic.{suffix}").read_bytes()
    model.write_scores_csv(scores, base / "model_scores.csv")
    assert (base / "model_scores.csv").read_bytes() == csv_writer_oracle(table) == (base / "scores.csv").read_bytes()


def test_scores_writers_keep_the_sign_of_zero(tmp_path):
    table = report.scores_table([("u,1", BigFive(-0.0, 0.0, -1e-7, 1e-7, 2.5))])
    table.write_csv(tmp_path / "s.csv")
    table.write_json(tmp_path / "s.json")
    assert (tmp_path / "s.csv").read_text(encoding="utf-8").splitlines()[1] == (
        '"u,1",-0.000000,0.000000,-0.000000,0.000000,2.500000'
    )
    assert '["u,1",-0.0,0.0,-0.0,0.0,2.5]' in (tmp_path / "s.json").read_text(encoding="utf-8")


def _cyclic_garbage_of_a_run(config: RunConfig, out_dir: Path) -> int:
    gc.collect()
    build_bundle(config, out_dir)
    assert gc.isenabled()
    return gc.collect()


def test_collector_pause_leaves_garbage_that_does_not_grow_with_the_corpus(tmp_path):
    """The cycles a paused run leaves are the same on the fixture and on a synth corpus ten times its size."""
    tool_path = REPO / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.N_USERS *= 10
    tool.write_corpus(tmp_path, parse_lexicon(builtin_data_path("sc_liwc_fixture.dic")))
    large = fixture_config()
    large.profiles_path, large.posts_path = str(tmp_path / "profiles.jsonl"), str(tmp_path / "posts.jsonl")
    small = _cyclic_garbage_of_a_run(fixture_config(), tmp_path / "fixture")
    assert 0 < small < 100
    assert _cyclic_garbage_of_a_run(large, tmp_path / "large") == small
    assert len((tmp_path / "large" / "features.csv").read_text(encoding="utf-8").splitlines()) > 1000


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "fails"])
def test_build_bundle_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled, fails):
    seen = []

    def province_aggregate(joined):
        seen.append(gc.isenabled())
        if fails:
            raise ValueError("no provinces")
        return real(joined)

    real = report.stats_mod.province_aggregate
    monkeypatch.setattr(report.stats_mod, "province_aggregate", province_aggregate)
    (gc.enable if enabled else gc.disable)()
    try:
        if fails:
            with pytest.raises(BundleError, match="no provinces"):
                build_bundle(fixture_config(), tmp_path / "out")
        else:
            build_bundle(fixture_config(), tmp_path / "out")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False]


# the CSV cell types of every bundle column; every other column holds 6-decimal floats
STRING_COLUMNS = {"user_id", "item", "detail", "feature", "trait", "group", "tag", "grouping", "label",
                  "binning", "bin", "province", "emoticon"}
INT_COLUMNS = {"token_count", "n", "rank", "count", "excluded_count", "high_count", "low_count"}
BOOL_COLUMNS = {"significant", "strong", "low_support"}


def csv_value(column: str, cell: str):
    """A bundle CSV cell read back as the value its JSON copy holds."""
    if column in STRING_COLUMNS:
        return cell
    if cell == "":
        return None
    if column in BOOL_COLUMNS:
        return {"true": True, "false": False}[cell]
    if column in INT_COLUMNS:
        return int(cell)
    assert re.fullmatch(r"-?\d+\.\d{6}", cell), (column, cell)
    return float(cell)


def test_bundle_json_holds_the_csv_values(tmp_path):
    """Whatever the JSON layout, each table's JSON copy holds its CSV's header and cells."""
    config = fixture_config()
    config.emoticon_min_count = 50  # the default 500 leaves the emoticon table empty
    bundle = build_bundle(config, tmp_path / "out")
    assert len(bundle.artifacts) == 10
    for name, csv_name, json_name, n_rows in bundle.artifacts:
        with open(tmp_path / "out" / csv_name, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        doc = json.loads((tmp_path / "out" / json_name).read_text(encoding="utf-8"))
        assert doc["name"] == name and doc["columns"] == header and doc["schema_version"] == 1
        assert doc["rows"] == [[csv_value(col, cell) for col, cell in zip(header, row)] for row in rows], name
        assert 0 < len(rows) == n_rows, name


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


def test_repeated_profile_user_id_counts_once(tmp_path):
    """The first line with a user_id wins, for a scored user and for one validation rejects."""
    lines = (FIXTURE / "profiles.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    flipped = json.dumps({**first, "verified": not first.get("verified", False)}, ensure_ascii=False)
    silent = json.dumps({"user_id": "silent", "follower_count": 5})  # has no posts
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("\n".join([*lines, flipped, silent, silent]) + "\n", encoding="utf-8")
    cfg = fixture_config()
    cfg.profiles_path = str(profiles)
    build_bundle(fixture_config(), tmp_path / "fixture")
    build_bundle(cfg, tmp_path / "repeated")
    expected, got = _bundle_bytes(tmp_path / "fixture"), _bundle_bytes(tmp_path / "repeated")
    manifest = json.loads(got.pop("manifest.json"))
    del expected["manifest.json"]
    assert got == expected  # demographics counts the 120 users with their first line
    assert manifest["validity"] == {"accepted": 120, "rejected": [["silent", "no_posts"]], "total_users": 121}


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


def test_bad_model_file_fails_before_the_text_pass(tmp_path, monkeypatch):
    def segment(text, word_list):
        raise AssertionError("the text pass ran before the model was loaded")

    monkeypatch.setattr(segmenter, "segment", segment)
    bad = tmp_path / "model.json"
    bad.write_text('{"W": 1}', encoding="utf-8")
    cfg = fixture_config()
    cfg.model_path = str(bad)
    with pytest.raises(BundleError) as err:
        build_bundle(cfg, tmp_path / "out")
    assert err.value.stage == "predict" and type(err.value.cause) is InputFormatError
    assert str(err.value) == f"stage 'predict' failed: {bad}: unsupported model format_version None"


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


def test_bundle_matches_its_golden_digests(tmp_path):
    """Every file report writes on the fixture has the sha256 that tools/make_fixtures.py recorded."""
    bundle = build_bundle(fixture_config(), tmp_path / "out")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bundle.out_dir.iterdir()}
    assert len(got) == 21
    assert got == json.loads((TESTDATA / "bundle_golden.json").read_text(encoding="utf-8"))


def test_bundle_with_emoticon_rows_matches_its_golden_digests(tmp_path):
    """At emoticon_min_count 50 the fixture's emoticon table has rows, so its counts are pinned byte for byte."""
    config = fixture_config()
    config.emoticon_min_count = 50
    bundle = build_bundle(config, tmp_path / "out")
    assert dict((name, rows) for name, _, _, rows in bundle.artifacts)["emoticon_contrast"] == 50
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bundle.out_dir.iterdir()}
    assert got == json.loads((TESTDATA / "bundle_golden_emoticons.json").read_text(encoding="utf-8"))


def _files(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file() and "__pycache__" not in p.parts}


def test_make_fixtures_reproduces_the_committed_files(tmp_path):
    """The tool, run on a copy of src/, tools/ and tests/data/, rewrites each of its files with the same bytes."""
    for part in ("src", "tools", "tests/data"):
        shutil.copytree(REPO / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    copied = _files(tmp_path)
    for path in copied.values():
        os.utime(path, ns=(0, 0))  # so a file the tool writes is one whose mtime is no longer 0
    done = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "make_fixtures.py")],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    after = _files(tmp_path)
    assert after.keys() == copied.keys()
    written = sorted(name for name, path in after.items() if path.stat().st_mtime_ns != 0)
    assert written == [
        "src/textpersona/data/fixture_corpus/labels.csv",
        "src/textpersona/data/fixture_corpus/model.json",
        "src/textpersona/data/fixture_corpus/posts.jsonl",
        "src/textpersona/data/fixture_corpus/profiles.jsonl",
        "src/textpersona/data/fixture_corpus/run_config.json",
        "src/textpersona/data/wordlist.txt",
        "tests/data/bundle_golden.json",
        "tests/data/bundle_golden_emoticons.json",
        "tests/data/demographics_golden.csv",
        "tests/data/features_golden.csv",
        "tests/data/scores_golden.csv",
    ]
    for name in written:
        assert after[name].read_bytes() == (REPO / name).read_bytes(), name
