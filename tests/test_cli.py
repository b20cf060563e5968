"""CLI subcommands as file transformations, with exit-code contracts."""

import gc
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import textpersona
from textpersona import cli
from textpersona.cli import EXIT_FORMAT, EXIT_PIPELINE, EXIT_USAGE, main
from textpersona.config import RunConfig, builtin_data_path, load_keyword_file
from textpersona.corpus import load_profiles
from textpersona.errors import InputFormatError
from textpersona.model import TRAITS, read_scores_csv
from textpersona.report import build_bundle
from textpersona.stats import polarity_split, tag_contrast
from textpersona.tables import tag_contrast_table

TESTDATA = Path(__file__).parent / "data"
FIXTURE = builtin_data_path("fixture_corpus")
LEXICON = builtin_data_path("sc_liwc_fixture.dic")
WORDLIST = builtin_data_path("wordlist.txt")


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """clean -> segment -> featurize -> predict over the fixture corpus."""
    tmp = tmp_path_factory.mktemp("cli")
    cleaned = tmp / "cleaned.jsonl"
    tokens = tmp / "tokens.jsonl"
    features = tmp / "features.csv"
    scores = tmp / "scores.csv"
    assert run("clean", "--posts", FIXTURE / "posts.jsonl", "--out", cleaned) == 0
    assert run("segment", "--cleaned", cleaned, "--words", WORDLIST, "--out", tokens) == 0
    assert run("featurize", "--lexicon", LEXICON, "--tokens", tokens, "--out", features) == 0
    assert run("predict", "--model", FIXTURE / "model.json", "--features", features, "--out", scores) == 0
    return tmp


def test_featurize_matches_golden(staged):
    produced = (staged / "features.csv").read_bytes()
    assert produced == (TESTDATA / "features_golden.csv").read_bytes()


def test_predict_matches_golden(staged):
    produced = (staged / "scores.csv").read_bytes()
    assert produced == (TESTDATA / "scores_golden.csv").read_bytes()


def test_fit_then_predict_round_trip(staged, tmp_path):
    model_path = tmp_path / "model.json"
    assert (
        run(
            "fit",
            "--features", staged / "features.csv",
            "--labels", FIXTURE / "labels.csv",
            "--out", model_path,
            "--ridge-lambda", "1.0",
        )
        == 0
    )
    assert model_path.read_bytes() == (FIXTURE / "model.json").read_bytes()


@pytest.mark.parametrize("ridge_lambda", ["nan", "inf"])
def test_fit_refuses_a_ridge_lambda_that_is_not_finite_exit_3(staged, tmp_path, capsys, ridge_lambda):
    code = run("fit", "--features", staged / "features.csv", "--labels", FIXTURE / "labels.csv",
               "--out", tmp_path / "model.json", "--ridge-lambda", ridge_lambda)
    assert code == EXIT_PIPELINE
    assert f"ridge lambda must be a finite number >= 0, got {ridge_lambda}" in one_error_line(capsys, EXIT_PIPELINE)
    assert not (tmp_path / "model.json").exists()


NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from textpersona.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_script(script: str, *argv) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports this checkout's package."""
    src = str(Path(textpersona.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)], env=env, capture_output=True, text=True
    )


def run_without_numpy(*argv) -> subprocess.CompletedProcess:
    return run_script(NO_NUMPY, *argv)


def test_pipeline_runs_without_numpy(tmp_path):
    """Only synth uses numpy: report and fit give the golden bytes without it."""
    done = run_without_numpy("report", "--config", FIXTURE / "run_config.json", "--out-dir", tmp_path / "bundle")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "bundle" / "scores.csv").read_bytes() == (TESTDATA / "scores_golden.csv").read_bytes()
    done = run_without_numpy(
        "fit",
        "--features", TESTDATA / "features_golden.csv",
        "--labels", FIXTURE / "labels.csv",
        "--out", tmp_path / "model.json",
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "model.json").read_bytes() == (FIXTURE / "model.json").read_bytes()


POOL_MODULES = """
import os
import sys
cpus = int(sys.argv.pop(1))
if cpus == 1:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
else:  # faked, so the run forks whatever CPUs the machine has
    os.sched_getaffinity = lambda pid: set(range(cpus))
from textpersona.cli import main
code = main(sys.argv[1:])
print(sorted({"multiprocessing", "concurrent.futures.process", "pickle"} & set(sys.modules)))
sys.exit(code)
"""


@pytest.mark.parametrize("cpus, loaded", [(1, "[]"), (2, "['pickle']")], ids=["serial", "forked"])
def test_report_loads_no_process_pool_machinery(tmp_path, cpus, loaded):
    """A run on one CPU imports neither multiprocessing, a process pool nor the
    fork map's pickle; a forked run imports pickle alone."""
    argv = ["report", "--config", FIXTURE / "run_config.json", "--out-dir", tmp_path / "b"]
    done = run_script(POOL_MODULES, cpus, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == loaded


STARTUP_MODULES = """
import json
import os
import sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # one CPU, so report forks nothing and loads no pickle
if sys.argv[1] == "import":
    import textpersona
    code = 0
elif sys.argv[1] == "setup":  # perfbench/setup_probe.py's import line and loads
    from textpersona import RunConfig, compile_lexicon, load_model, load_word_list, parse_lexicon
    config = RunConfig.from_file(sys.argv[2])
    compile_lexicon(parse_lexicon(config.lexicon_path))
    load_word_list(config.word_list_path)
    load_model(config.model_path)
    code = 0
else:
    from textpersona.cli import main
    code = main(sys.argv[1:])
watched = {"dataclasses", "inspect", "hashlib", "pickle"}
print(json.dumps(sorted(name for name in sys.modules if name in watched or name.partition(".")[0] == "textpersona")))
sys.exit(code)
"""

LOADER_MODULES = ["config", "errors", "_textio", "_csvio", "_pool", "lexicon", "model", "segmenter"]
CLI_MODULES = [*LOADER_MODULES, "cli", "corpus", "cleaner", "special", "stats", "tables"]


@pytest.mark.parametrize(
    "invocation, modules, watched",
    [
        ("import", LOADER_MODULES, []),
        ("setup", LOADER_MODULES, []),
        ("clean", CLI_MODULES, []),
        ("report", [*CLI_MODULES, "report"], ["hashlib"]),
    ],
    ids=["import", "setup", "clean", "report"],
)
def test_textpersona_loads_neither_dataclasses_nor_inspect(tmp_path, invocation, modules, watched):
    """Every process pays for what the package imports, and dataclasses brings inspect, ast and dis.

    The root and the loaders that perfbench's set-up probe runs load none
    of the bundle pipeline; a CLI step loads all but report (and its
    hashlib), which only the report subcommand imports.
    """
    argv = {
        "import": ["import"],
        "setup": ["setup", FIXTURE / "run_config.json"],
        "clean": ["clean", "--posts", FIXTURE / "posts.jsonl", "--out", tmp_path / "cleaned.jsonl"],
        "report": ["report", "--config", FIXTURE / "run_config.json", "--out-dir", tmp_path / "b"],
    }[invocation]
    done = run_script(STARTUP_MODULES, *argv)
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout)) == {"textpersona", *(f"textpersona.{m}" for m in modules), *watched}


def test_root_resolves_build_bundle_on_first_access():
    assert textpersona.build_bundle is build_bundle
    from textpersona import build_bundle as imported

    assert imported is build_bundle
    with pytest.raises(AttributeError, match="module 'textpersona' has no attribute 'nope'"):
        textpersona.nope
    with pytest.raises(ImportError):
        from textpersona import nope  # noqa: F401


@pytest.mark.parametrize(
    "row, reason",
    [
        ("u1,4,25.000000", "cells"),  # short row: the header has two categories
        ("u1,4,25.000000,50.000000,0.000000", "cells"),  # long row
        ("u1,-4,25.000000,50.000000", "token_count"),
        ("u1,4.0,25.000000,50.000000", "token_count"),
        ("u1,,25.000000,50.000000", "token_count"),
        ("u1,10000001,0.000000,0.000000", "too large"),  # lattice finer than 6 decimals
        ("u1,0,0.000000,12.500000", "B"),  # nonzero cell in a zero-token row
        ("u1,3,33.333333,33.333400", "B"),  # off the k*100/3 lattice
        ("u1,4,25.000000,-25.000000", "B"),  # negative hit count
        ("u1,4,25.000000,125.000000", "B"),  # more hits than tokens
        ("u1,4,25.000000,nan", "B"),
        ("u1,4,25.000000,1e308", "B"),  # overflows the hit count unless refused first
        ("u1,4,25.000000,abc", "abc"),
        ("u0,4,25.000000,50.000000", "'u0' repeats line 2"),  # a user scored twice
        (",4,25.000000,50.000000", "empty user_id"),
    ],
)
def test_predict_rejects_unrebuildable_features_exit_2(tmp_path, capsys, row, reason):
    features = tmp_path / "features.csv"
    features.write_text(f"user_id,token_count,A,B\nu0,2,50.000000,0.000000\n{row}\n", encoding="utf-8")
    model = tmp_path / "model.json"
    model.write_text(
        '{"format_version": 1, "category_names": ["A", "B"], "W": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]],'
        ' "b": [0, 0, 0, 0, 0], "lambda": 1, "n_train": 2}\n',
        encoding="utf-8",
    )
    code = run("predict", "--model", model, "--features", features, "--out", tmp_path / "s.csv")
    assert code == EXIT_FORMAT
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == EXIT_FORMAT
    assert f"{features}:3:" in err["error"] and reason in err["error"]


def one_error_line(capsys, code) -> str:
    """The error message of the single JSON line on stderr, checked for code."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    doc = json.loads(line)
    assert doc["exit_code"] == code
    return doc["error"]


TINY_FEATURES = "user_id,token_count,A,B\nu0,2,50.000000,0.000000\n"


@pytest.mark.parametrize(
    "row, reason",
    [
        ("u1,50,50", "3 cells"),
        ("u1,50,50,50,50,50,50", "7 cells"),
        ("u1,abc,50,50,50,50", "abc"),
        ("u1,50,50,nan,50,50", "finite"),
        ("u0,40,40,40,40,40", "'u0' repeats line 2"),  # a user trained on twice
        (",40,40,40,40,40", "empty user_id"),
    ],
)
def test_fit_rejects_malformed_labels_exit_2(tmp_path, capsys, row, reason):
    features = tmp_path / "features.csv"
    features.write_text(TINY_FEATURES, encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text(f"user_id,O,C,E,A,N\nu0,50,50,50,50,50\n{row}\n", encoding="utf-8")
    code = run("fit", "--features", features, "--labels", labels, "--out", tmp_path / "m.json")
    assert code == EXIT_FORMAT
    error = one_error_line(capsys, EXIT_FORMAT)
    assert f"{labels}:3:" in error and reason in error


GOOD_MODEL = {
    "format_version": 1,
    "category_names": ["A", "B"],
    "W": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]],
    "b": [0, 0, 0, 0, 0],
    "lambda": 1,
    "n_train": 2,
}


def model_with(**changes) -> str:
    return json.dumps({**GOOD_MODEL, **changes})


def model_without(key) -> str:
    return json.dumps({k: v for k, v in GOOD_MODEL.items() if k != key})


@pytest.mark.parametrize(
    "text, reason",
    [
        (json.dumps(GOOD_MODEL)[:40], "not a model file"),  # truncated JSON
        ("\udcff", "not a model file"),  # not UTF-8
        ("[]", "JSON object"),
        (model_without("W"), "lacks W"),
        (model_without("n_train"), "lacks n_train"),
        (model_with(category_names="AB"), "category_names"),
        (model_with(W=[[1, 0, 0, 0, 0]]), "W must be 2 x 5"),
        (model_with(W=[[1, 0, 0, 0, 0], [0, 1, 0, 0]]), "W must be 2 x 5"),
        (model_with(W=[[1, 0, 0, 0, 0], [0, "1", 0, 0, 0]]), "W must be 2 x 5"),
        (model_with(W=[[1, 0, 0, 0, 0], [0, 10**400, 0, 0, 0]]), "W must be 2 x 5"),
        (model_with(b=[0, 0, 0, 0]), "b 5 finite"),
        (model_with(b=[0, 0, 0, 0, float("nan")]), "b 5 finite"),
        (model_with(b=[0, 0, 0, 0, True]), "b 5 finite"),
        (model_with(**{"lambda": "1"}), "lambda"),
        (model_with(**{"lambda": -1}), "lambda"),
        (model_with(n_train=2.0), "n_train"),
    ],
)
def test_predict_rejects_malformed_model_exit_2(tmp_path, capsys, text, reason):
    model = tmp_path / "model.json"
    model.write_bytes(text.encode("utf-8", "surrogateescape"))
    features = tmp_path / "features.csv"
    features.write_text(TINY_FEATURES, encoding="utf-8")
    code = run("predict", "--model", model, "--features", features, "--out", tmp_path / "s.csv")
    assert code == EXIT_FORMAT
    error = one_error_line(capsys, EXIT_FORMAT)
    assert f"{model}:" in error and reason in error




GOOD_CLEANED = {"user_id": "u0", "clean_text": "x", "emoticons": []}
GOOD_TOKENS = {"user_id": "u0", "tokens": ["x"]}


@pytest.mark.parametrize(
    "command, line",
    [
        ("segment", "{not json"),
        ("segment", "[]"),
        ("segment", json.dumps({**GOOD_CLEANED, "clean_text": 5})),
        ("segment", json.dumps({**GOOD_CLEANED, "user_id": None})),
        ("segment", json.dumps({"user_id": "u1", "clean_text": "x"})),
        ("emoticons", json.dumps({**GOOD_CLEANED, "emoticons": "[心]"})),
        ("emoticons", json.dumps({**GOOD_CLEANED, "emoticons": [1]})),
        ("featurize", json.dumps({**GOOD_TOKENS, "tokens": [1, 2]})),
        ("featurize", json.dumps({**GOOD_TOKENS, "tokens": "ab"})),
        ("featurize", json.dumps({"tokens": ["x"]})),
    ],
)
def test_interchange_readers_reject_mistyped_records_exit_2(tmp_path, capsys, command, line):
    good = GOOD_TOKENS if command == "featurize" else GOOD_CLEANED
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(good) + "\n" + line + "\n", encoding="utf-8")
    scores = tmp_path / "scores.csv"
    scores.write_text("user_id,O,C,E,A,N\nu0,50,50,50,50,50\n", encoding="utf-8")
    argv = {
        "segment": ["--cleaned", records, "--words", WORDLIST, "--out", tmp_path / "t.jsonl"],
        "emoticons": ["--cleaned", records, "--scores", scores, "--trait", "O",
                      "--out-csv", tmp_path / "e.csv"],
        "featurize": ["--lexicon", LEXICON, "--tokens", records, "--out", tmp_path / "f.csv"],
    }[command]
    assert run(command, *argv) == EXIT_FORMAT
    assert f"{records}:2:" in one_error_line(capsys, EXIT_FORMAT)


@pytest.mark.parametrize(
    "command, record",
    [
        ("segment", {**GOOD_CLEANED, "clean_text": "好\udcff"}),
        ("segment", {**GOOD_CLEANED, "user_id": "\udcff"}),
        ("emoticons", {**GOOD_CLEANED, "emoticons": ["\ud83d"]}),
        ("featurize", {**GOOD_TOKENS, "tokens": ["\ude00"]}),
    ],
    ids=["clean_text", "user_id", "emoticon", "token"],
)
def test_interchange_readers_reject_lone_surrogates_exit_2(tmp_path, capsys, command, record):
    line = json.dumps(record)  # the surrogate is written as a \u escape
    test_interchange_readers_reject_mistyped_records_exit_2(tmp_path, capsys, command, line)


def test_interchange_reader_accepts_escaped_surrogate_pair(tmp_path):
    cleaned = tmp_path / "cleaned.jsonl"
    # U+20000, a CJK ideograph outside the BMP, is escaped as a surrogate pair
    record = {**GOOD_CLEANED, "clean_text": "好\U00020000"}
    cleaned.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert "\\ud840\\udc00" in cleaned.read_text(encoding="utf-8")
    tokens = tmp_path / "tokens.jsonl"
    assert run("segment", "--cleaned", cleaned, "--words", WORDLIST, "--out", tokens) == 0
    assert json.loads(tokens.read_text(encoding="utf-8"))["tokens"] == ["好", "\U00020000"]


def with_lone_surrogates(tmp_path) -> tuple[Path, Path]:
    """The fixture's profiles and posts with lone surrogates in four records' strings."""
    profiles, posts = (
        [json.loads(line) for line in (FIXTURE / name).read_text(encoding="utf-8").splitlines()]
        for name in ("profiles.jsonl", "posts.jsonl")
    )
    profiles[0]["user_id"] = "\udcff"
    profiles[1]["tags"][0] = "\ud800"
    posts[0]["user_id"] = "\udcff"
    posts[-1]["text"] += "\ude00"
    paths = tmp_path / "profiles.jsonl", tmp_path / "posts.jsonl"
    for path, records in zip(paths, (profiles, posts)):
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    return paths


@pytest.mark.parametrize("command", ["clean", "contrast", "report"])
def test_lone_surrogate_in_corpus_is_a_skipped_line(staged, tmp_path, capsys, command):
    profiles, posts = with_lone_surrogates(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(
        fixture_config(profiles_path=str(profiles), posts_path=str(posts)), encoding="utf-8"
    )
    argv = {
        "clean": ["--posts", posts, "--out", tmp_path / "cleaned.jsonl"],
        "contrast": ["--scores", staged / "scores.csv", "--profiles", profiles, "--trait", "N",
                     "--out-csv", tmp_path / "tags.csv"],
        "report": ["--config", config, "--out-dir", tmp_path / "bundle"],
    }[command]
    assert run(command, *argv) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err and "exit_code" not in err


def fixture_config(**changes) -> str:
    """The fixture run config, paths made absolute, with changes applied."""
    doc = json.loads((FIXTURE / "run_config.json").read_text(encoding="utf-8"))
    doc = {key: str(FIXTURE / value) if key.endswith("_path") else value for key, value in doc.items()}
    return json.dumps({**doc, **changes})


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xb3\xbf"], ids=["stray", "cut", "surrogate"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("clean", "--spam-keywords"),  # config.load_keyword_file
        ("segment", "--words"),
        ("segment", "--cleaned"),  # cli._read_jsonl
        ("featurize", "--tokens"),
        ("featurize", "--lexicon"),  # lexicon.parse_lexicon
        ("predict", "--features"),  # _csvio.read_csv
        ("fit", "--labels"),
    ],
)
def test_invalid_utf8_input_exit_2_names_path_line(staged, tmp_path, capsys, command, flag, bad):
    argv = {
        "clean": ["--posts", FIXTURE / "posts.jsonl", "--out", tmp_path / "c.jsonl",
                  "--spam-keywords", builtin_data_path("spam_keywords.txt")],
        "segment": ["--cleaned", staged / "cleaned.jsonl", "--words", WORDLIST, "--out", tmp_path / "t.jsonl"],
        "featurize": ["--lexicon", LEXICON, "--tokens", staged / "tokens.jsonl", "--out", tmp_path / "f.csv"],
        "predict": ["--model", FIXTURE / "model.json", "--features", staged / "features.csv",
                    "--out", tmp_path / "s.csv"],
        "fit": ["--features", staged / "features.csv", "--labels", FIXTURE / "labels.csv",
                "--out", tmp_path / "m.json"],
    }[command]
    at = argv.index(flag) + 1
    lines = Path(argv[at]).read_bytes().split(b"\n")
    lines[1] = bad + lines[1]
    damaged = tmp_path / f"damaged{Path(argv[at]).suffix}"
    damaged.write_bytes(b"\n".join(lines))
    argv[at] = damaged
    assert run(command, *argv) == EXIT_FORMAT
    error = one_error_line(capsys, EXIT_FORMAT)
    assert f"{damaged}:2: invalid UTF-8" in error


def test_text_readers_split_lines_at_cr_crlf_and_lf(tmp_path):
    """Lines end as in text mode, so a bad byte is reported at the line it counts."""
    words = tmp_path / "words.txt"
    words.write_bytes("今天\r不错\r\n天气\n".encode())
    assert load_keyword_file(words) == ("今天", "不错", "天气")
    words.write_bytes("今天\r不错\r\n天气\n".encode() + b"\xff\n")
    with pytest.raises(InputFormatError) as err:
        load_keyword_file(words)
    assert str(err.value).startswith(f"{words}:4: invalid UTF-8 byte 0xff")


@pytest.mark.parametrize(
    "key, data, stage, detail",
    [
        ("lexicon_path", (LEXICON.read_text(encoding="utf-8") + "foo bar\n").encode(), "featurize", ""),
        ("model_path", b'{"W": 1}', "predict", ""),
        ("word_list_path", "今天\n不,错\n".encode(), "segment", ""),
        ("spam_keywords_path", b"\xff\n", "clean", ":1: invalid UTF-8"),
        ("system_templates_path", b"\xff\n", "clean", ":1: invalid UTF-8"),
    ],
    ids=["lexicon", "model", "word_list", "spam_keywords", "system_templates"],
)
def test_report_input_format_fault_exit_2_names_stage_and_path(tmp_path, capsys, key, data, stage, detail):
    bad = tmp_path / "bad_input"
    bad.write_bytes(data)
    config = tmp_path / "config.json"
    config.write_text(fixture_config(**{key: str(bad)}), encoding="utf-8")
    assert run("report", "--config", config, "--out-dir", tmp_path / "bundle") == EXIT_FORMAT
    error = one_error_line(capsys, EXIT_FORMAT)
    assert f"stage '{stage}' failed: {bad}{detail}" in error


def test_segment_rejects_punctuated_word_exit_2(staged, tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("今天\n不,错\n", encoding="utf-8")
    code = run("segment", "--cleaned", staged / "cleaned.jsonl", "--words", words, "--out", tmp_path / "t")
    assert code == EXIT_FORMAT
    assert f"{words}: word '不,错'" in one_error_line(capsys, EXIT_FORMAT)


# deeper than the JSON decoder recurses; json.dumps cannot write it, so it is built as text
DEEP_JSON = '{"alpha": ' + "[" * 100_000


@pytest.mark.parametrize("command", ["report", "predict"])
def test_deeply_nested_config_or_model_exit_2(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON, encoding="utf-8")
    features = tmp_path / "features.csv"
    features.write_text(TINY_FEATURES, encoding="utf-8")
    argv = {
        "report": ["--config", deep, "--out-dir", tmp_path / "bundle"],
        "predict": ["--model", deep, "--features", features, "--out", tmp_path / "s.csv"],
    }[command]
    assert run(command, *argv) == EXIT_FORMAT
    error = one_error_line(capsys, EXIT_FORMAT)
    assert f"{deep}:" in error and "recursion" in error


@pytest.mark.parametrize(
    "doc, reason",
    [
        ("[]", "one JSON object"),
        ('{"alpha": 0.1\udcff}', "invalid config"),  # not UTF-8
        ({"age_range": 5}, "'age_range': must be a list of two integers"),
        ({"age_range": [10]}, "'age_range'"),
        ({"age_range": ["10", "47"]}, "'age_range'"),
        ({"reference_date": 5}, "'reference_date': must be an ISO date"),
        ({"reference_date": "June 2018"}, "'reference_date'"),
        ({"alpha": "x"}, "'alpha': must be a number"),
        ({"quantile": True}, "'quantile'"),
        ({"min_followers": "10"}, "'min_followers': must be an integer"),
        ({"top_k_tags": 20.0}, "'top_k_tags'"),
        ({"ad_url_patterns": "taobao"}, "'ad_url_patterns': must be a list of strings"),
        ({"ad_url_patterns": [1]}, "'ad_url_patterns'"),
        ({"model_path": 5}, "'model_path': must be a path"),
    ],
    ids=str,
)
def test_report_rejects_mistyped_config_exit_2(tmp_path, capsys, doc, reason):
    """doc is the config file's text, or the changes to make to the fixture config."""
    text = doc if isinstance(doc, str) else fixture_config(**doc)
    config = tmp_path / "config.json"
    config.write_bytes(text.encode("utf-8", "surrogateescape"))
    code = run("report", "--config", config, "--out-dir", tmp_path / "bundle")
    assert code == EXIT_FORMAT
    assert reason in one_error_line(capsys, EXIT_FORMAT)


def test_report_leaves_out_a_profile_with_a_mistyped_field(tmp_path):
    """A location of 5 is a malformed profile line, not an analyses failure."""
    lines = (FIXTURE / "profiles.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert first["user_id"] == "u00000"
    lines[0] = json.dumps({**first, "location": 5}, ensure_ascii=False)
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(fixture_config(profiles_path=str(profiles)), encoding="utf-8")
    assert run("report", "--config", config, "--out-dir", tmp_path / "bundle") == 0
    scored = [uid for uid, _ in read_scores_csv(tmp_path / "bundle" / "scores.csv")]
    assert "u00000" not in scored and scored
    validity = json.loads((tmp_path / "bundle" / "manifest.json").read_text(encoding="utf-8"))["validity"]
    assert validity["total_users"] == len(lines) - 1


ALPHAS_OUTSIDE = [0, 1, 7, float("nan")]


@pytest.mark.parametrize(
    "command, changes, reason",
    [
        ("demographics", ["--min-age", "47", "--max-age", "10"], "age range 47-10 is empty"),
        ("report", {"age_range": [47, 10]}, "age range 47-10 is empty"),
        ("contrast", ["--top-k", "-1"], "top_k must be >= 0"),
        ("report", {"top_k_tags": -1}, "top_k must be >= 0"),
        *(("correlate", ["--alpha", str(alpha)], "alpha must be in (0, 1)") for alpha in ALPHAS_OUTSIDE),
        *(("emoticons", ["--alpha", str(alpha)], "alpha must be in (0, 1)") for alpha in ALPHAS_OUTSIDE),
        *(("report", {"alpha": alpha}, "alpha must be in (0, 1)") for alpha in ALPHAS_OUTSIDE),
    ],
    ids=str,
)
def test_inverted_age_range_and_negative_top_k_exit_3(staged, tmp_path, capsys, command, changes, reason):
    """Both front ends refuse an age range with no ages in it, a negative row count and an alpha outside (0, 1).

    changes are the flags added to a stage command, or the changes made to the fixture config.
    """
    config = tmp_path / "config.json"
    config.write_text(fixture_config(**(changes if command == "report" else {})), encoding="utf-8")
    argv = {
        "demographics": ["--profiles", FIXTURE / "profiles.jsonl", "--reference-date", "2018-06-01",
                         "--out-csv", tmp_path / "demo.csv"],
        "contrast": ["--scores", staged / "scores.csv", "--profiles", FIXTURE / "profiles.jsonl",
                     "--trait", "O", "--out-csv", tmp_path / "tags.csv"],
        "correlate": ["--features", staged / "features.csv", "--scores", staged / "scores.csv",
                      "--out-csv", tmp_path / "corr.csv"],
        "emoticons": ["--cleaned", staged / "cleaned.jsonl", "--scores", staged / "scores.csv",
                      "--trait", "O", "--out-csv", tmp_path / "emo.csv"],
        "report": ["--config", config, "--out-dir", tmp_path / "bundle"],
    }[command]
    assert run(command, *argv, *([] if command == "report" else changes)) == EXIT_PIPELINE
    assert reason in one_error_line(capsys, EXIT_PIPELINE)


@pytest.mark.parametrize(
    "changes, reason",
    [
        ({"alpha": 7}, "config key 'alpha': alpha must be in (0, 1), got 7"),
        ({"quantile": 0.9}, "config key 'quantile': quantile must be in (0, 0.5], got 0.9"),
        ({"quantile": 0}, "quantile must be in (0, 0.5]"),
        ({"top_k_tags": -1}, "config key 'top_k_tags': top_k must be >= 0"),
        ({"emoticon_min_count": -3}, "config key 'emoticon_min_count': min_count must be >= 0"),
        ({"min_followers": -1}, "config key 'min_followers': min_followers must be >= 0"),
        ({"ad_url_patterns": ["taobao", ""]}, "config key 'ad_url_patterns': an ad URL pattern must not be empty"),
        ({"age_range": [47, 10]}, "config key 'age_range': age range 47-10 is empty"),
        ({"ridge_lambda": float("nan")}, "config key 'ridge_lambda': ridge lambda must be a finite number >= 0, got nan"),
        ({"ridge_lambda": float("inf")}, "config key 'ridge_lambda': ridge lambda must be a finite number >= 0, got inf"),
        ({"ridge_lambda": -1}, "config key 'ridge_lambda': ridge lambda must be a finite number >= 0, got -1"),
    ],
    ids=str,
)
def test_report_refuses_a_config_out_of_range_before_loading_exit_3(tmp_path, capsys, changes, reason):
    """No input is read and no bundle directory is made: the corpus paths do not even exist."""
    config = tmp_path / "config.json"
    missing = str(tmp_path / "missing.jsonl")
    config.write_text(fixture_config(profiles_path=missing, posts_path=missing, **changes), encoding="utf-8")
    assert run("report", "--config", config, "--out-dir", tmp_path / "bundle") == EXIT_PIPELINE
    assert reason in one_error_line(capsys, EXIT_PIPELINE)
    assert not (tmp_path / "bundle").exists()


def test_correlate(staged, tmp_path):
    out_csv = tmp_path / "corr.csv"
    out_json = tmp_path / "corr.json"
    assert (
        run(
            "correlate",
            "--features", staged / "features.csv",
            "--scores", staged / "scores.csv",
            "--out-csv", out_csv,
            "--out-json", out_json,
        )
        == 0
    )
    header = out_csv.read_text(encoding="utf-8").splitlines()[0]
    assert header == "feature,trait,r,p,n,significant,strong"
    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert doc["name"] == "correlations"
    assert len(doc["rows"]) == 30 * 5


def test_contrast(staged, tmp_path):
    out_csv = tmp_path / "tags.csv"
    assert (
        run(
            "contrast",
            "--scores", staged / "scores.csv",
            "--profiles", FIXTURE / "profiles.jsonl",
            "--trait", "N",
            "--out-csv", out_csv,
        )
        == 0
    )
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "trait,group,rank,tag,weight"
    assert len(lines) > 1


@pytest.mark.parametrize("trait", ["C", "E", "A", "N"])
def test_contrast_leaves_out_scored_user_with_skipped_profile(staged, tmp_path, caplog, trait):
    """A profile line skipped as malformed drops its scored user from the groups."""
    lines = (FIXTURE / "profiles.jsonl").read_bytes().splitlines(keepends=True)
    (bad,) = [i for i, line in enumerate(lines) if b'"user_id": "u00003"' in line]
    lines[bad] = lines[bad].replace(b"u00003", b"u00003\xff")
    profiles_path = tmp_path / "profiles.jsonl"
    profiles_path.write_bytes(b"".join(lines))
    scores = read_scores_csv(staged / "scores.csv")
    full_split = polarity_split([(uid, s.get(trait)) for uid, s in scores], trait=trait)
    assert "u00003" in full_split.high_ids + full_split.low_ids  # the case that used to fail

    out_csv = tmp_path / "tags.csv"
    with caplog.at_level(logging.WARNING, logger="textpersona"):
        code = run("contrast", "--scores", staged / "scores.csv", "--profiles", profiles_path,
                   "--trait", trait, "--out-csv", out_csv)
    assert code == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["contrast: 1 scored users have no loaded profile; left out"]

    profiles, _ = load_profiles(profiles_path)
    rest = [(uid, s.get(trait)) for uid, s in scores if uid != "u00003"]
    expected = tmp_path / "expected.csv"
    tag_contrast_table([tag_contrast(polarity_split(rest, trait=trait), profiles)]).write_csv(expected)
    assert out_csv.read_bytes() == expected.read_bytes()


def test_demographics(tmp_path):
    out_csv = tmp_path / "demo.csv"
    assert (
        run(
            "demographics",
            "--profiles", FIXTURE / "profiles.jsonl",
            "--reference-date", "2018-06-01",
            "--out-csv", out_csv,
        )
        == 0
    )
    assert out_csv.read_bytes() == (TESTDATA / "demographics_golden.csv").read_bytes()


def test_emoticons(staged, tmp_path):
    out_csv = tmp_path / "emo.csv"
    assert (
        run(
            "emoticons",
            "--cleaned", staged / "cleaned.jsonl",
            "--scores", staged / "scores.csv",
            "--trait", "O",
            "--min-count", "50",
            "--out-csv", out_csv,
        )
        == 0
    )
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("trait,emoticon,high_count,low_count")


def test_report_deterministic_across_runs(tmp_path):
    for name in ("a", "b"):
        assert run("report", "--config", FIXTURE / "run_config.json", "--out-dir", tmp_path / name) == 0
    def snap(d):
        return {p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
    assert snap("a") == snap("b")


def test_report_bundle_does_not_depend_on_config_path_spelling(tmp_path, monkeypatch):
    """The manifest records each input path as the config file wrote it."""
    spellings = [(FIXTURE.parent, "fixture_corpus/run_config.json"), (FIXTURE, "run_config.json"),
                 (tmp_path, (FIXTURE / "run_config.json").resolve())]
    for i, (cwd, config) in enumerate(spellings):
        monkeypatch.chdir(cwd)
        assert run("report", "--config", config, "--out-dir", tmp_path / f"b{i}") == 0
    snaps = [{p.name: p.read_bytes() for p in sorted((tmp_path / f"b{i}").iterdir())} for i in range(3)]
    assert snaps[0] == snaps[1] == snaps[2]
    manifest = json.loads(snaps[0]["manifest.json"])
    assert manifest["config"]["lexicon_path"] == "../sc_liwc_fixture.dic"


def test_staged_chain_equals_report_bundle(tmp_path):
    """The per-stage chain writes the bundle's bytes, from the same config.

    This holds on the fixture only because its validation rejects
    nobody: the chain has no validate step, so on a corpus with rejected
    users (user_heavy seed 1 rejects 75) its tables would differ.
    """
    cfg = RunConfig.from_file(FIXTURE / "run_config.json")
    cfg.emoticon_min_count = 50  # the default 500 leaves the emoticon table empty
    bundle = tmp_path / "bundle"
    build_bundle(cfg, bundle)
    assert len((bundle / "emoticon_contrast.csv").read_text(encoding="utf-8").splitlines()) > 1

    chain = tmp_path / "chain"
    chain.mkdir()

    def tables(stem):
        return ["--out-csv", chain / f"{stem}.csv", "--out-json", chain / f"{stem}.json"]

    steps = [
        ["clean", "--posts", cfg.posts_path, "--out", chain / "cleaned.jsonl",
         "--spam-keywords", cfg.spam_keywords_path, "--templates", cfg.system_templates_path],
        ["segment", "--cleaned", chain / "cleaned.jsonl", "--words", cfg.word_list_path,
         "--out", chain / "tokens.jsonl"],
        ["featurize", "--lexicon", cfg.lexicon_path, "--tokens", chain / "tokens.jsonl",
         "--out", chain / "features.csv"],
        ["predict", "--model", cfg.model_path, "--features", chain / "features.csv",
         "--out", chain / "scores.csv"],
        ["correlate", "--features", chain / "features.csv", "--scores", chain / "scores.csv",
         *tables("correlations")],
        ["demographics", "--profiles", cfg.profiles_path,
         "--reference-date", cfg.reference_date.isoformat(), *tables("demographics")],
    ]
    for trait in TRAITS:
        steps.append(["contrast", "--scores", chain / "scores.csv", "--profiles", cfg.profiles_path,
                      "--trait", trait, *tables(f"tag_contrast_{trait}")])
        steps.append(["emoticons", "--cleaned", chain / "cleaned.jsonl", "--scores", chain / "scores.csv",
                      "--trait", trait, "--min-count", "50", *tables(f"emoticon_contrast_{trait}")])
    for step in steps:
        assert run(*step) == 0, step[0]

    for name in ("features.csv", "scores.csv", "correlations.csv", "correlations.json",
                 "demographics.csv", "demographics.json"):
        assert (chain / name).read_bytes() == (bundle / name).read_bytes(), name
    for stem in ("tag_contrast", "emoticon_contrast"):
        per_trait = [(chain / f"{stem}_{trait}.csv").read_text(encoding="utf-8") for trait in TRAITS]
        header = per_trait[0].splitlines(keepends=True)[0]
        joined = header + "".join(text.removeprefix(header) for text in per_trait)
        assert joined == (bundle / f"{stem}.csv").read_text(encoding="utf-8"), stem


def test_usage_error_exit_1(capsys):
    assert run("clean", "--posts", "x.jsonl") == EXIT_USAGE  # --out missing
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == EXIT_USAGE


def test_unknown_command_exit_1():
    assert run("frobnicate") == EXIT_USAGE


def test_only_the_entry_points_freeze_the_heap(monkeypatch):
    """The console script and `python -m textpersona` run cli.run, which returns
    main's code and then freezes the heap, so the interpreter's exit collects
    nothing; main itself leaves every object collectable."""
    pyproject = (Path(textpersona.__file__).parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    assert '[project.scripts]\ntextpersona = "textpersona.cli:run"\n' in pyproject
    assert "from .cli import run" in Path(textpersona.__file__).with_name("__main__.py").read_text(encoding="utf-8")
    frozen = gc.get_freeze_count()
    assert run("frobnicate") == EXIT_USAGE
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(cli, "main", lambda: 7)
    try:
        assert cli.run() == 7
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()


def test_format_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.dic"
    bad.write_text("no header here\t1\n", encoding="utf-8")
    tokens = tmp_path / "tokens.jsonl"
    tokens.write_text('{"user_id": "u", "tokens": ["x"]}\n', encoding="utf-8")
    code = run("featurize", "--lexicon", bad, "--tokens", tokens, "--out", tmp_path / "f.csv")
    assert code == EXIT_FORMAT
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == EXIT_FORMAT


def test_pipeline_error_exit_3_names_user(staged, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text(
        "user_id,O,C,E,A,N\nghost_user,50,50,50,50,50\nother_ghost,40,40,40,40,40\n",
        encoding="utf-8",
    )
    code = run(
        "fit",
        "--features", staged / "features.csv",
        "--labels", labels,
        "--out", tmp_path / "m.json",
    )
    assert code == EXIT_PIPELINE
    err = json.loads(capsys.readouterr().err.strip())
    assert "ghost" in err["error"]


def _with_cells(path: Path, rows: int, value: str, out: Path) -> Path:
    """path's CSV with every score cell of its first rows data rows set to value."""
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = [line.split(",", 1)[0] + f",{value}" * 5 + "\n" for line in lines[:rows]]
    out.write_text(header + "".join(cut + lines[rows:]), encoding="utf-8")
    return out


def _model_with_w(value: float, out: Path) -> Path:
    doc = json.loads((FIXTURE / "model.json").read_text(encoding="utf-8"))
    doc["W"] = [[value] * len(row) for row in doc["W"]]
    out.write_text(json.dumps(doc), encoding="utf-8")
    return out


@pytest.mark.parametrize(
    "command, culprit",
    [
        ("correlate", "trait O: correlation undefined for values whose sum overflows the float range"),
        ("fit", "the weights of trait O overflow the float range"),
        ("predict", "the scores of user 'u00000' overflow the float range"),
    ],
)
def test_finite_values_whose_sums_overflow_exit_3(staged, tmp_path, capsys, command, culprit):
    """Finite numbers near the float maximum overflow a sum; that is a domain error
    naming the column or user, not a crash."""
    features = staged / "features.csv"
    if command == "correlate":
        scores = _with_cells(TESTDATA / "scores_golden.csv", 2, "1.7e308", tmp_path / "scores.csv")
        argv = ["--features", features, "--scores", scores,
                "--out-csv", tmp_path / "c.csv", "--out-json", tmp_path / "c.json"]
    elif command == "fit":
        labels = _with_cells(FIXTURE / "labels.csv", 1, "1.7e308", tmp_path / "labels.csv")
        argv = ["--features", features, "--labels", labels, "--out", tmp_path / "m.json"]
    else:
        model = _model_with_w(1e308, tmp_path / "model.json")
        argv = ["--model", model, "--features", features, "--out", tmp_path / "s.csv"]
    assert run(command, *argv) == EXIT_PIPELINE
    assert one_error_line(capsys, EXIT_PIPELINE) == culprit


def test_report_whose_scores_overflow_in_forked_shares_exit_3(tmp_path, capsys, monkeypatch):
    """With the per-user pass split into two halves, both halves' predict
    overflows; predict over the accepted matrix reports the first id."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config = tmp_path / "config.json"
    config.write_text(fixture_config(model_path=str(_model_with_w(1e308, tmp_path / "model.json"))), encoding="utf-8")
    assert run("report", "--config", config, "--out-dir", tmp_path / "bundle") == EXIT_PIPELINE
    error = one_error_line(capsys, EXIT_PIPELINE)
    assert error == "stage 'predict' failed: the scores of user 'u00000' overflow the float range"
    with pytest.raises(ChildProcessError):  # no worker is left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_missing_file_exit_3(tmp_path):
    code = run("clean", "--posts", tmp_path / "absent.jsonl", "--out", tmp_path / "o.jsonl")
    assert code == EXIT_PIPELINE


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        run("correlate", "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--alpha" in out and "default: 0.05" in out
