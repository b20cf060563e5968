"""The benchmark's set-up probe, traced extras and per-stage CLI chain, run on the fixture corpus.

The untraced benchmark runs `report` and its set-up probe; the rest are
the package calls that `perfbench --trace 1` adds, so a change that
breaks one fails here.
"""

import json
from pathlib import Path

from perfbench import checks, programs, traced
from textpersona.cli import main
from textpersona.config import RunConfig, builtin_data_path

FIXTURE = builtin_data_path("fixture_corpus")
REPO = Path(programs.__file__).resolve().parents[1]


def test_setup_probe_loads_the_fixture_inputs(tmp_path, monkeypatch):
    """The probe imports its names from the package root, so a root that drops one fails here."""
    monkeypatch.chdir(tmp_path)
    programs.CACHE_DIR.mkdir()  # the probe's stderr is spooled there, relative to the working directory
    run = programs.setup_probe(FIXTURE / "run_config.json", programs.program_env(REPO))
    assert run.returncode == 0, run.stderr
    assert checks.error_lines(run.stderr) == []


def test_traced_run_with_extras(tmp_path):
    spans = tmp_path / "spans.json"
    argv = ["--config", FIXTURE / "run_config.json", "--out-dir", tmp_path / "bundle",
            "--labels", FIXTURE / "labels.csv", "--spans", spans]
    assert traced.main([str(a) for a in argv]) == 0
    doc = json.loads(spans.read_text(encoding="utf-8"))
    assert doc["pool_differs"] == []
    assert doc["counts"]["lexicon.lookup_ns"] > 0


def test_cli_chain_outputs_pass_the_benchmark_checks(tmp_path):
    config = RunConfig.from_file(FIXTURE / "run_config.json")
    for command, args in programs.chain_steps(config, FIXTURE / "labels.csv", tmp_path):
        assert main([command, *map(str, args)]) == 0, command
    assert checks.check_outputs(tmp_path, config, "staged", seed=0, sample=None) == []
