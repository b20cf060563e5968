"""The benchmark's traced extras and its per-stage CLI chain, run on the fixture corpus.

The untraced benchmark only runs `report`; these are the package calls
that `perfbench --trace 1` adds, so a change that breaks one fails here.
"""

import json

from perfbench import checks, programs, traced
from textpersona.cli import main
from textpersona.config import RunConfig, builtin_data_path

FIXTURE = builtin_data_path("fixture_corpus")


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
