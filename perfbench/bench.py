"""Benchmark orchestration: runs, metrics and the result line.

Closed loop, one client: one program run at a time, ``threads=1``.
``--trace 0`` repeats untraced runs for ``--seconds`` and reports the
end-to-end medians, with times scaled to a reference machine speed
(see ``calibrate``). ``--trace 1`` makes a few untraced reference runs,
then repeats traced runs for ``--seconds`` and reports the per-layer
medians. Every run counts as one operation.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from textpersona import RunConfig

from . import calibrate, checks, programs, traced, workloads
from .programs import ProcessRun, clock

HERE = Path(__file__).resolve().parent
RECORDED_DIGESTS = HERE / "digests.json"
RUNS_DIR = workloads.CACHE_DIR / "runs"
MIB = 1024 * 1024
SETUP_REPEATS = 15
REFERENCE_RUNS = 3

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "output_mib": "MiB",
}

CLI_SUBCOMMANDS = ("clean", "segment", "featurize", "fit", "predict", "correlate", "demographics", "contrast", "emoticons")

PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.validate_s": "s",
    "corpus.posts_in": "count",
    "corpus.users_rejected": "count",
    "corpus.malformed_lines": "count",
    "cleaner.clean_s": "s",
    "cleaner.posts_dropped": "count",
    "cleaner.kept_ratio": "ratio",
    "segmenter.segment_s": "s",
    "segmenter.chars_in": "count",
    "segmenter.tokens_out": "count",
    "segmenter.dict_token_ratio": "ratio",
    "lexicon.setup_s": "s",
    "lexicon.featurize_s": "s",
    "lexicon.match_ratio": "ratio",
    "lexicon.lookup_ns": "ns",
    "model.load_s": "s",
    "model.predict_s": "s",
    "model.fit_s": "s",
    "model.users_skipped": "count",
    "stats.correlation_s": "s",
    "stats.emoticon_contrast_s": "s",
    "stats.polarity_s": "s",
    "stats.tag_contrast_s": "s",
    "stats.groups_s": "s",
    "stats.pairs_undefined": "count",
    "stats.emoticon_warnings": "count",
    "report.tables_s": "s",
    "report.write_csv_s": "s",
    "report.write_json_s": "s",
    "report.manifest_s": "s",
    **{f"cli.{name}_s": "s" for name in CLI_SUBCOMMANDS},
    "cli.startup_s": "s",
    "cli.interchange_mib": "MiB",
    "pool.t2.clean_s": "s",
    "pool.t2.segment_s": "s",
    "pool.t2.featurize_s": "s",
    "trace.overhead_s": "s",
}

# span name -> per-layer metric it adds to; see metric_for for the rest
SPAN_METRICS = {
    "corpus.load_corpus": "corpus.load_s",
    "corpus.validate_users": "corpus.validate_s",
    "cleaner.clean_corpus": "cleaner.clean_s",
    "segmenter.load_word_list": "segmenter.segment_s",
    "segmenter.segment_corpus": "segmenter.segment_s",
    "lexicon.parse_lexicon": "lexicon.setup_s",
    "lexicon.compile_lexicon": "lexicon.setup_s",
    "lexicon.featurize": "lexicon.featurize_s",
    "model.load_model": "model.load_s",
    "model.predict": "model.predict_s",
    "model.summarize_scores": "model.predict_s",
    "model.fit": "model.fit_s",
    "stats.correlation_matrix": "stats.correlation_s",
    "stats.emoticon_contrast": "stats.emoticon_contrast_s",
    "stats.polarity_split": "stats.polarity_s",
    "stats.tag_contrast": "stats.tag_contrast_s",
    "stats.group_means": "stats.groups_s",
    "stats.binned_trend": "stats.groups_s",
    "stats.province_aggregate": "stats.groups_s",
    "report.Table.write_csv": "report.write_csv_s",
    "report.Table.write_json": "report.write_json_s",
    "report.manifest": "report.manifest_s",
    "pool.t2.clean_corpus": "pool.t2.clean_s",
    "pool.t2.segment_corpus": "pool.t2.segment_s",
    "pool.t2.featurize": "pool.t2.featurize_s",
}


def metric_for(span_name: str) -> str | None:
    if span_name in SPAN_METRICS:
        return SPAN_METRICS[span_name]
    if span_name.startswith("report.") and (span_name.endswith("_table") or span_name == "report.demographic_summary"):
        return "report.tables_s"
    if span_name.startswith("cli."):
        return f"{span_name}_s"  # cli.<subcommand> and cli.startup
    return None


@dataclass
class ProgramRun:
    """One run of the workload's program, ``textpersona report``."""

    proc: ProcessRun
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0
    scale: float = 1.0  # calibrate.Speed.scale for this run; 1.0 when not calibrated

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Bench:
    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.corpus = workloads.corpus_for(workload, seed)
        self.config = RunConfig.from_file(self.corpus.config_path)
        self.env = programs.program_env(root)
        self.runs_dir = RUNS_DIR / f"{workload}-s{seed}"
        shutil.rmtree(self.runs_dir, ignore_errors=True)
        self.runs_dir.mkdir(parents=True)
        self.reference: dict[str, str] | None = None

    def close(self) -> None:
        shutil.rmtree(self.runs_dir, ignore_errors=True)

    def untraced(self, speed: calibrate.Speed | None = None) -> ProgramRun:
        """One untraced run, checked against the invocation's first run."""
        out = self.runs_dir / "untraced"
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-m", "textpersona", "report",
                "--config", str(self.corpus.config_path), "--out-dir", str(out)]
        proc = programs.run_process("report", argv, self.env)
        run = ProgramRun(proc, checks.process_problems(proc.name, proc.returncode, proc.stderr))
        if speed is not None:
            run.scale = speed.scale()
        if not run.problems:
            digests = checks.digests(out)
            run.output_bytes = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            if self.reference is None:
                run.problems += checks.check_outputs(out, self.config, "report", self.seed)
                if not run.problems:
                    self.reference = digests
            else:
                run.problems += [f"{name}: digest differs from the first run" for name in checks.differing(digests, self.reference)]
        shutil.rmtree(out, ignore_errors=True)
        return run

    def setup_times(self) -> tuple[list[float], list[float], list[float], list[str]]:
        """Measured and scaled wall times of the passing set-up probes, the unit times, and the failures."""
        programs.setup_probe(self.corpus.config_path, self.env)  # warm the file cache and bytecode
        measured, scaled, problems = [], [], []
        speed = calibrate.Speed(calibrate.STARTUP)
        for _ in range(SETUP_REPEATS):
            probe = programs.setup_probe(self.corpus.config_path, self.env)
            scale = speed.scale()
            failures = checks.process_problems("setup", probe.returncode, probe.stderr)
            if failures:  # a probe that stopped early did not do the set-up
                problems += failures
            else:
                measured.append(probe.wall_s)
                scaled.append(probe.wall_s * scale)
        return measured, scaled, speed.times, problems

    def traced(self, reference_wall_s: float) -> tuple[dict[str, float], traced.Tracer, list[str]]:
        """One traced run: the bundle composition, then the per-stage CLI chain.

        The traced bundle must give the same bytes as the untraced runs;
        the chain's outputs get the output checks.
        """
        tracer = traced.Tracer()
        bundle_out = self.runs_dir / "traced_bundle"
        chain_out = self.runs_dir / "traced_chain"
        ready_dir = self.runs_dir / "ready"
        spans_file = self.runs_dir / "spans.json"
        for path in (bundle_out, chain_out, ready_dir):
            shutil.rmtree(path, ignore_errors=True)
        ready_dir.mkdir()

        argv = [sys.executable, "-m", "perfbench.traced", "--config", str(self.corpus.config_path),
                "--out-dir", str(bundle_out), "--labels", str(self.corpus.labels_path), "--spans", str(spans_file)]
        proc = programs.run_process("traced", argv, self.env)
        problems = checks.process_problems("traced", proc.returncode, proc.stderr)
        if problems:
            return {}, tracer, problems
        doc = json.loads(spans_file.read_text())
        root = tracer.add("traced.bundle_process", proc.start, proc.end)
        tracer.adopt(doc["spans"], root["id"])
        problems += [f"threads=2 changed the {stage} output" for stage in doc["pool_differs"]]
        extras = next(s for s in tracer.spans if s["name"] == "extras")

        chain = programs.run_chain(self.config, self.corpus.labels_path, chain_out, self.env, ready_dir)
        chain_root = tracer.add("traced.chain", chain[0][0].start, chain[-1][0].end)
        for run, ready in chain:
            problems += checks.process_problems(f"traced {run.name}", run.returncode, run.stderr)
            span = tracer.add(f"cli.{run.name}", run.start, run.end, parent=chain_root["id"])
            tracer.add("cli.startup", run.start, ready, parent=span["id"])
        if problems:
            return {}, tracer, problems

        problems += [f"traced bundle differs: {name}" for name in checks.differing(checks.digests(bundle_out), self.reference)]
        problems += checks.check_outputs(chain_out, self.config, "staged", self.seed)
        # the untraced report process does what this one does minus the extras
        overhead = proc.wall_s - (extras["end"] - extras["start"]) - reference_wall_s

        metrics: dict[str, float] = defaultdict(float)
        for span in tracer.spans:
            name = metric_for(span["name"])
            if name is not None:
                metrics[name] += span["end"] - span["start"]
        metrics.update(doc["counts"])
        metrics["cli.interchange_mib"] = sum((chain_out / f).stat().st_size for f in programs.INTERCHANGE_FILES) / MIB
        metrics["trace.overhead_s"] = overhead
        return dict(metrics), tracer, problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _print_series(name: str, unit: str, values: list[float]) -> None:
    if values:
        print(f"  {name:<28} median {_median(values):12.6g} {unit:<6} min {min(values):.6g} max {max(values):.6g} n={len(values)}")


PHASES = ("bundle", "extras", "traced.chain")


def print_spans(tracer: traced.Tracer) -> None:
    """Total and self time per span name, with self time as a share of its phase."""
    selfs = traced.self_times(tracer.spans)
    by_id = {s["id"]: s for s in tracer.spans}

    def phase(span):
        while span["name"] not in PHASES and span["parent"] is not None:
            span = by_id[span["parent"]]
        return span["name"]

    rows: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in tracer.spans:
        row = rows[(phase(span), span["name"])]
        row[0] += 1
        row[1] += span["end"] - span["start"]
        row[2] += selfs[span["id"]]
    for top in PHASES:
        total = rows[(top, top)][1]
        if not total:
            continue
        print(f"trace phase {top}: {total:.3f} s")
        print(f"  {'span':<32} {'calls':>5} {'total_s':>9} {'self_s':>9} {'self%':>6}")
        phase_rows = sorted(((k[1], v) for k, v in rows.items() if k[0] == top), key=lambda kv: -kv[1][2])
        for name, (calls, tot, own) in phase_rows:
            print(f"  {name:<32} {calls:>5} {tot:9.4f} {own:9.4f} {100 * own / total:6.1f}")


def recorded_digest_report(workload: str, seed: int, got: dict[str, str] | None) -> None:
    recorded = json.loads(RECORDED_DIGESTS.read_text()) if RECORDED_DIGESTS.exists() else {}
    want = recorded.get(workload, {}).get(str(seed))
    if got is None:
        print("digests: no passing run to compare")
    elif want is None:
        print(f"digests: none recorded for {workload} seed {seed}")
    else:
        differ = checks.differing(got, want)
        print(f"digests: {len(got) - len(differ)}/{len(got)} artifacts match the recorded digests"
              + (f"; differ: {', '.join(differ)}" if differ else ""))


def record_digests(workload: str, seed: int, got: dict[str, str]) -> None:
    recorded = json.loads(RECORDED_DIGESTS.read_text()) if RECORDED_DIGESTS.exists() else {}
    recorded.setdefault(workload, {})[str(seed)] = got
    RECORDED_DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def run(args, root: Path) -> int:
    started = clock()
    bench = Bench(args.workload, args.seed, root)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} corpus={bench.corpus.dir} "
          f"(ready in {clock() - started:.1f} s, not timed)")
    try:
        return _measure(bench, args)
    finally:
        bench.close()


def _end_to_end(bench: Bench, seconds: float, outcomes: list[list[str]], problems: list[str]) -> dict[str, float]:
    setup_measured, setup, startup_units, setup_problems = bench.setup_times()
    problems += setup_problems
    runs: list[ProgramRun] = []
    speed = calibrate.Speed(calibrate.PYTHON)
    deadline = clock() + seconds
    while not runs or clock() < deadline:
        runs.append(bench.untraced(speed))
        outcomes.append(runs[-1].problems)
    ok = [r for r in runs if not r.failed]
    series = {
        "wall_s": [r.proc.wall_s * r.scale for r in ok],
        "cpu_s": [r.proc.cpu_s * r.scale for r in ok],
        "peak_rss_mib": [r.proc.maxrss_kib / 1024 for r in ok],
        "setup_s": setup,
        "output_mib": [r.output_bytes / MIB for r in ok],
    }
    print("  reference seconds for wall_s, cpu_s and setup_s (see perfbench/calibrate.py); measured medians below")
    for name, unit in END_TO_END.items():
        _print_series(name, unit, series[name])
    _print_series("measured wall_s", "s", [r.proc.wall_s for r in ok])
    _print_series("measured cpu_s", "s", [r.proc.cpu_s for r in ok])
    _print_series("measured setup_s", "s", setup_measured)
    _print_series("calibration python", "s", speed.times)
    _print_series("calibration startup", "s", startup_units)
    return {name: _median(values) for name, values in series.items()}


def _per_layer(bench: Bench, seconds: float, outcomes: list[list[str]]) -> dict[str, float]:
    refs = [bench.untraced() for _ in range(REFERENCE_RUNS)]
    outcomes += [r.problems for r in refs]
    if bench.reference is None:
        outcomes.append(["no passing untraced run to compare the traced run with"])
        return {name: float("nan") for name in PER_LAYER}
    reference_wall = _median([r.proc.wall_s for r in refs if not r.failed])
    print(f"  untraced reference wall_s median {reference_wall:.4f} s over {len(refs)} runs")
    samples: dict[str, list[float]] = defaultdict(list)
    deadline = clock() + seconds
    while True:
        values, tracer, problems = bench.traced(reference_wall)
        outcomes.append(problems)
        for name, value in values.items():
            samples[name].append(value)
        if problems or clock() >= deadline:
            break
    print_spans(tracer)
    for name, unit in PER_LAYER.items():
        _print_series(name, unit, samples[name])
    metrics = {name: _median(samples[name]) for name in PER_LAYER}
    print(f"  tracing overhead: {metrics['trace.overhead_s']:+.4f} s (traced minus median untraced wall_s)")
    return metrics


def _measure(bench: Bench, args) -> int:
    outcomes: list[list[str]] = []  # one problem list per operation
    problems: list[str] = []  # outside any operation: the set-up probes
    if args.trace == 0:
        metrics, units = _end_to_end(bench, args.seconds, outcomes, problems), END_TO_END
        if args.record_digests and bench.reference is not None:
            record_digests(bench.workload, bench.seed, bench.reference)
    else:
        metrics, units = _per_layer(bench, args.seconds, outcomes), PER_LAYER

    for i, op_problems in enumerate(outcomes):
        for problem in op_problems[:5]:
            print(f"  operation {i} FAILED: {problem}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    failed = sum(bool(op_problems) for op_problems in outcomes)
    print(f"attempted {len(outcomes)} operations, failed {failed}")
    recorded_digest_report(bench.workload, bench.seed, bench.reference)

    measured = all(value == value for value in metrics.values())  # no NaN
    result = {
        "correct": failed == 0 and not problems and measured,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name] if metrics[name] == metrics[name] else None, "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0
