"""The processes the benchmark times.

A workload's run is one ``textpersona report`` process; the traced run
adds the per-stage CLI chain, one process per subcommand, one after
another. Each process is reaped with ``os.wait4``, whose resource usage
covers the process and every child it waited for (the worker pool
included).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from textpersona import TRAITS, RunConfig

from .workloads import CACHE_DIR

HERE = Path(__file__).resolve().parent
PROCESS_TIMEOUT_S = 120

# time.perf_counter is CLOCK_MONOTONIC on Linux, so a child's readings
# can be compared with the parent's
clock = time.perf_counter

INTERCHANGE_FILES = ("cleaned.jsonl", "tokens.jsonl", "features.csv", "scores.csv")


@dataclass(frozen=True)
class ProcessRun:
    name: str
    start: float
    end: float
    cpu_s: float
    maxrss_kib: int
    returncode: int
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def program_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: the caller's, with the checkout's ``src`` first.

    Nothing else is set, so the program pays what it pays for a user,
    the start-up of numpy's BLAS thread pool included.
    """
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_process(name: str, argv: list[str], env: dict[str, str]) -> ProcessRun:
    """Run one process to completion; a process past the timeout is killed."""
    with tempfile.TemporaryFile(dir=CACHE_DIR) as err:  # stay inside the checkout
        start = clock()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return ProcessRun(name, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, stderr)


def chain_steps(config: RunConfig, labels_path: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The per-stage CLI chain as (subcommand, arguments), in run order."""
    outputs = {name: str(out / name) for name in INTERCHANGE_FILES}

    def tables(stem: str) -> list[str]:
        return ["--out-csv", str(out / f"{stem}.csv"), "--out-json", str(out / f"{stem}.json")]

    steps = [
        ("clean", ["--posts", config.posts_path, "--out", outputs["cleaned.jsonl"],
                   "--spam-keywords", config.spam_keywords_path, "--templates", config.system_templates_path]),
        ("segment", ["--cleaned", outputs["cleaned.jsonl"], "--words", config.word_list_path,
                     "--out", outputs["tokens.jsonl"]]),
        ("featurize", ["--lexicon", config.lexicon_path, "--tokens", outputs["tokens.jsonl"],
                       "--out", outputs["features.csv"]]),
        ("fit", ["--features", outputs["features.csv"], "--labels", str(labels_path),
                 "--out", str(out / "fitted_model.json")]),
        ("predict", ["--model", config.model_path, "--features", outputs["features.csv"],
                     "--out", outputs["scores.csv"]]),
        ("correlate", ["--features", outputs["features.csv"], "--scores", outputs["scores.csv"],
                       *tables("correlations")]),
        ("demographics", ["--profiles", config.profiles_path,
                          "--reference-date", config.reference_date.isoformat(), *tables("demographics")]),
    ]
    for trait in TRAITS:
        steps.append(("contrast", ["--scores", outputs["scores.csv"], "--profiles", config.profiles_path,
                                   "--trait", trait, *tables(f"tag_contrast_{trait}")]))
    for trait in TRAITS:
        steps.append(("emoticons", ["--cleaned", outputs["cleaned.jsonl"], "--scores", outputs["scores.csv"],
                                    "--trait", trait, *tables(f"emoticon_contrast_{trait}")]))
    return steps


def run_chain(config: RunConfig, labels_path: Path, out: Path, env: dict[str, str],
              ready_dir: Path) -> list[tuple[ProcessRun, float]]:
    """Run the chain through the start-up shim, stopping at the first failing step.

    Returns each step's run with the clock reading at which its
    interpreter had imported the CLI (its start, if it never got there).
    """
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for i, (name, args) in enumerate(chain_steps(config, labels_path, out)):
        ready_file = ready_dir / f"ready{i}"
        run = run_process(name, [sys.executable, str(HERE / "cli_shim.py"), str(ready_file), name, *args], env)
        runs.append((run, float(ready_file.read_text()) if ready_file.exists() else run.start))
        if run.returncode != 0:
            break
    return runs


def setup_probe(config_path: Path, env: dict[str, str]) -> ProcessRun:
    """One fresh interpreter that imports the package and loads the run's inputs."""
    return run_process("setup", [sys.executable, str(HERE / "setup_probe.py"), str(config_path)], env)
