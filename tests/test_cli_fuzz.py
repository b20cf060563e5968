"""The CLI error contract under mutated input files.

Every chain subcommand runs in-process on the fixture's files with one of
its inputs mutated. Whatever the damage, the command exits 0, 2 or 3, a
nonzero exit prints exactly one JSON error line on stderr, and no
exception escapes main().
"""

import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textpersona.cli import main
from textpersona.config import builtin_data_path

FIXTURE = builtin_data_path("fixture_corpus")
DATA = builtin_data_path()

# subcommand -> (argv with {input} placeholders, inputs that may be mutated)
COMMANDS = {
    "clean": (["--posts", "{posts}", "--out", "{out}/cleaned.jsonl"], ["posts"]),
    "segment": (["--cleaned", "{cleaned}", "--words", "{words}", "--out", "{out}/tokens.jsonl"],
                ["cleaned", "words"]),
    "featurize": (["--lexicon", "{lexicon}", "--tokens", "{tokens}", "--out", "{out}/features.csv"],
                  ["tokens", "lexicon"]),
    "fit": (["--features", "{features}", "--labels", "{labels}", "--out", "{out}/model.json"],
            ["features", "labels"]),
    "predict": (["--model", "{model}", "--features", "{features}", "--out", "{out}/scores.csv"],
                ["model", "features"]),
    "correlate": (["--features", "{features}", "--scores", "{scores}", "--out-csv", "{out}/c.csv",
                   "--out-json", "{out}/c.json"], ["features", "scores"]),
    "contrast": (["--scores", "{scores}", "--profiles", "{profiles}", "--trait", "N",
                  "--out-csv", "{out}/t.csv", "--out-json", "{out}/t.json"],
                 ["scores", "profiles"]),
    "demographics": (["--profiles", "{profiles}", "--reference-date", "2018-06-01",
                      "--out-csv", "{out}/d.csv", "--out-json", "{out}/d.json"], ["profiles"]),
    "emoticons": (["--cleaned", "{cleaned}", "--scores", "{scores}", "--trait", "O",
                   "--min-count", "5", "--out-csv", "{out}/e.csv", "--out-json", "{out}/e.json"],
                  ["cleaned", "scores"]),
}

JSON_VALUES = [None, True, 0, -1, 1.5, 10**400, "", "x", [], ["x"], [1], {}, {"a": 1}]
CSV_VALUES = [b"", b"x", b"-1", b"1.5", b"1e400", b"true", b'"', b"a,b"]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
CSV_NON_FINITE = [b"nan", b"inf", b"-inf", b"NaN", b"Infinity"]
# finite, but two of them overflow a sum
EXTREME = [1.7e308, -1.7e308]
CSV_EXTREME = [b"1.7e308", b"-1.7e308"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Pristine input files: the fixture's, plus the staged chain's outputs."""
    tmp = tmp_path_factory.mktemp("fuzz")
    files = {
        "posts": FIXTURE / "posts.jsonl",
        "profiles": FIXTURE / "profiles.jsonl",
        "labels": FIXTURE / "labels.csv",
        "model": FIXTURE / "model.json",
        "words": DATA / "wordlist.txt",
        "lexicon": DATA / "sc_liwc_fixture.dic",
        "cleaned": tmp / "cleaned.jsonl",
        "tokens": tmp / "tokens.jsonl",
        "features": tmp / "features.csv",
        "scores": tmp / "scores.csv",
    }
    for command in ("clean", "segment", "featurize", "predict"):
        argv, _ = COMMANDS[command]
        assert main([command, *(arg.format(out=tmp, **files) for arg in argv)]) == 0
    return files


def _pick_line(draw, data: bytes) -> tuple[list[bytes], int]:
    lines = data.split(b"\n")
    return lines, draw(st.integers(0, len(lines) - 1))


def _set_value(draw, data: bytes, json_values, csv_values) -> bytes:
    """Replace one JSON value (a top-level one or a list item) or one CSV cell."""
    try:
        whole = json.loads(data)
    except (ValueError, RecursionError):  # deep_nesting may have run first
        whole = None
    if isinstance(whole, dict) and whole:  # a JSON document such as model.json
        return json.dumps(_set_in_record(draw, whole, json_values), indent=2).encode()
    lines, i = _pick_line(draw, data)
    try:
        record = json.loads(lines[i])
    except (ValueError, RecursionError):
        record = None
    if isinstance(record, dict) and record:
        lines[i] = json.dumps(_set_in_record(draw, record, json_values)).encode()
    else:
        cells = lines[i].split(b",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(csv_values))
        lines[i] = b",".join(cells)
    return b"\n".join(lines)


def _set_in_record(draw, record: dict, values) -> dict:
    key = draw(st.sampled_from(sorted(record)))
    value = draw(st.sampled_from(values))
    target = record[key]
    if isinstance(target, list) and target and draw(st.booleans()):
        if isinstance(target[0], list) and draw(st.booleans()):  # a row of W
            target = target[draw(st.integers(0, len(target) - 1))]
        target[draw(st.integers(0, len(target) - 1))] = value
    else:
        record[key] = value
    return record


def truncate(draw, data):
    return data[: draw(st.integers(0, len(data)))]


def drop_line(draw, data):
    lines, i = _pick_line(draw, data)
    del lines[i]
    return b"\n".join(lines)


def swap_type(draw, data):
    return _set_value(draw, data, JSON_VALUES, CSV_VALUES)


def non_finite(draw, data):
    return _set_value(draw, data, NON_FINITE, CSV_NON_FINITE)


def finite_extreme(draw, data):
    return _set_value(draw, data, EXTREME, CSV_EXTREME)


def reverse_header(draw, data):
    lines = data.split(b"\n")
    lines[0] = b",".join(reversed(lines[0].split(b",")))
    return b"\n".join(lines)


def add_cell(draw, data):
    lines, i = _pick_line(draw, data)
    lines[i] += b"," + draw(st.sampled_from(CSV_VALUES))
    return b"\n".join(lines)


def empty(draw, data):
    return b""


def invalid_utf8(draw, data):
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xb3\xbf"])) + data[at:]


def deep_nesting(draw, data):
    """Open 100 000 arrays before one line: deeper than the JSON decoder recurses, and
    built as text, since json.dumps cannot write it."""
    lines, i = _pick_line(draw, data)
    lines[i] = b"[" * 100_000 + lines[i]
    return b"\n".join(lines)


MUTATIONS = [
    truncate, drop_line, swap_type, non_finite, finite_extreme, reverse_header, add_cell, empty, invalid_utf8,
    deep_nesting,
]


@st.composite
def mutations(draw, data: bytes) -> bytes:
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        data = mutate(draw, data)
    return data


def run_with(inputs, command, name, content: bytes) -> int:
    """Run command with input name replaced by content; check the error line."""
    argv, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as out:
        damaged = Path(out) / Path(inputs[name]).name
        damaged.write_bytes(content)
        files = {**inputs, name: damaged}
        err = io.StringIO()
        with redirect_stderr(err):
            code = main([command, *(arg.format(out=out, **files) for arg in argv)])
    assert "Traceback" not in err.getvalue()
    if code:
        (line,) = [ln for ln in err.getvalue().splitlines() if ln.startswith("{")]
        assert json.loads(line)["exit_code"] == code
    return code


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_input_keeps_the_error_contract(inputs, command, data):
    name = data.draw(st.sampled_from(COMMANDS[command][1]))
    content = data.draw(mutations(Path(inputs[name]).read_bytes()))
    assert run_with(inputs, command, name, content) in (0, 2, 3)


def _is_utf8(line: bytes) -> bool:
    try:
        line.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_invalid_utf8_is_a_format_error_or_a_skipped_line(inputs, command, data):
    """Bytes that are not UTF-8 exit 2, except in a corpus file, whose
    loaders skip the line that holds them as if it were not there."""
    name = data.draw(st.sampled_from(COMMANDS[command][1]))
    content = invalid_utf8(data.draw, Path(inputs[name]).read_bytes())
    code = run_with(inputs, command, name, content)
    if name in ("posts", "profiles"):
        kept = b"\n".join(line for line in content.split(b"\n") if _is_utf8(line))
        assert code == run_with(inputs, command, name, kept)
    else:
        assert code == 2


JSON_INPUTS = ("posts", "profiles", "cleaned", "tokens", "model")


@pytest.mark.parametrize("command", sorted(c for c, (_, names) in COMMANDS.items() if set(names) & set(JSON_INPUTS)))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_deep_nesting_is_a_format_error_or_a_skipped_line(inputs, command, data):
    """A JSON file or line nested too deeply exits 2, except in a corpus file,
    whose loaders skip the line as if it were not there."""
    name = data.draw(st.sampled_from([n for n in COMMANDS[command][1] if n in JSON_INPUTS]))
    content = deep_nesting(data.draw, Path(inputs[name]).read_bytes())
    code = run_with(inputs, command, name, content)
    if name in ("posts", "profiles"):
        kept = b"\n".join(line for line in content.split(b"\n") if not line.startswith(b"[["))
        assert code == run_with(inputs, command, name, kept)
    else:
        assert code == 2
