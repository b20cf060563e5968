"""Self-tests of the benchmark harness: corpus determinism, failure accounting, traced composition."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from textpersona import build_bundle
from textpersona.config import RunConfig, builtin_data_path

from perfbench import __main__ as cli
from perfbench import bench, calibrate, checks, programs, traced, workloads

FIXTURE_CONFIG = builtin_data_path("fixture_corpus", "run_config.json")
SMALL = workloads.Shape(40, (2, 4), (5, 12), labeled=10, long_words=30, long_words_in_posts=5)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_corpus_generation_is_byte_identical_for_a_seed(tmp_path):
    runs = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        out = tmp_path / name
        out.mkdir()
        workloads.generate("text_heavy", seed, SMALL, out, data_dir=builtin_data_path())
        runs.append(_files(out))
    assert runs[0] == runs[1]
    assert set(runs[0]) == {"labels.csv", "posts.jsonl", "profiles.jsonl", "run_config.json", "wordlist.txt"}
    assert runs[0]["posts.jsonl"] != runs[2]["posts.jsonl"]


@pytest.fixture(scope="module")
def fixture_bundle(tmp_path_factory):
    config = RunConfig.from_file(FIXTURE_CONFIG)
    out = tmp_path_factory.mktemp("bundle")
    build_bundle(config, out)
    return config, out


def test_traced_composition_equals_build_bundle(fixture_bundle, tmp_path):
    config, reference = fixture_bundle
    tracer = traced.Tracer()
    traced.compose_bundle(config, tmp_path, tracer)
    assert _files(tmp_path) == _files(reference)
    assert all(span["end"] >= span["start"] for span in tracer.spans)
    assert {bench.metric_for(span["name"]) for span in tracer.spans} >= {
        "corpus.load_s", "cleaner.clean_s", "segmenter.segment_s", "lexicon.featurize_s",
        "stats.correlation_s", "report.tables_s", "report.write_json_s", "report.manifest_s",
    }


def test_fixture_bundle_passes_the_output_checks(fixture_bundle):
    config, out = fixture_bundle
    assert checks.check_outputs(out, config, "report", seed=0, sample=None) == []


def _corrupt_cell(path: Path, row: int, col: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = f"{float(cells[col]) + 0.001:.6f}"
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("artifact, col", [("features.csv", 5), ("scores.csv", 3)])
def test_one_corrupted_cell_fails_the_run(fixture_bundle, tmp_path, artifact, col):
    config, reference = fixture_bundle
    for name, data in _files(reference).items():
        (tmp_path / name).write_bytes(data)
    _corrupt_cell(tmp_path / artifact, row=7, col=col)
    proc = programs.ProcessRun("report", start=0.0, end=1.0, cpu_s=1.0, maxrss_kib=1, returncode=0, stderr="")
    run = bench.ProgramRun(proc, checks.check_outputs(tmp_path, config, "report", seed=0, sample=None))
    assert run.failed
    assert any(problem.startswith(artifact) for problem in run.problems)


def test_error_lines_fail_a_process():
    assert checks.process_problems("clean", 0, "INFO clean: 3 posts in\n") == []
    assert checks.process_problems("clean", 0, '{"error": "bad", "exit_code": 2}\n')
    assert checks.process_problems("clean", 3, "")


class _StubBench(bench.Bench):
    """A Bench without a corpus whose report runs always pass."""

    def __init__(self):
        self.workload, self.seed, self.reference = "user_heavy", 0, None
        self.corpus = SimpleNamespace(config_path=Path("run_config.json"))
        self.env = {}
        self.probes = 0

    def untraced(self, speed=None):
        self.reference = {}
        proc = programs.ProcessRun("report", start=0.0, end=2.0, cpu_s=2.0, maxrss_kib=1024, returncode=0, stderr="")
        return bench.ProgramRun(proc, output_bytes=bench.MIB, scale=speed.scale())


def test_a_failed_setup_probe_makes_the_result_incorrect(monkeypatch, capsys):
    def probe(config_path, env):
        stub.probes += 1
        if stub.probes % 2:
            return programs.ProcessRun("setup", 0.0, 0.2, 0.2, 1, 0, "")
        return programs.ProcessRun("setup", 0.0, 0.01, 0.01, 1, 1, "Traceback (most recent call last):\n")

    stub = _StubBench()
    monkeypatch.setattr(programs, "setup_probe", probe)
    monkeypatch.setattr(calibrate, "unit_time", lambda unit: 2 * unit.reference_s)  # a machine at half speed
    bench._measure(stub, SimpleNamespace(trace=0, seconds=0, record_digests=False))
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert result["metrics"]["setup_s"]["value"] == 0.1  # the failed probes' times are left out
    assert result["metrics"]["wall_s"]["value"] == 1.0


def test_benchmark_json_names_what_the_harness_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS) == list(cli.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
