"""Output checks and failure accounting for benchmark runs.

A run fails when a process exits non-zero, prints an error line, or
its outputs fail a check:

(a) artifact digests equal those of the first run of the invocation;
(b) for a seeded sample of users, features recomputed from the raw
    posts with ``cleaner.clean``, ``segmenter.segment`` and
    ``lexicon.brute_force_lookup`` equal the ``features.csv`` cells;
(c) scores equal ``x.W + b`` summed with ``math.fsum``, x being the
    recomputed full-precision features;
(d) a sample of correlation rows matches ``statistics.correlation``
    over the CSV values.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import statistics
from collections import Counter
from pathlib import Path

from textpersona import cleaner, lexicon, segmenter
from textpersona.config import RunConfig, load_keyword_file
from textpersona.model import TRAITS

# the bundle predicts from full-precision features; the staged chain
# from features.csv, whose 6 decimals move a score by up to ~1e-5
SCORE_TOL = {"report": 1e-6, "staged": 1e-5}
CORRELATION_TOL = 1e-6
SAMPLE_USERS = 20
SAMPLE_CORRELATIONS = 10


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, keyed by relative path."""
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def differing(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Artifacts whose digest differs, or that only one side has."""
    return sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))


def error_lines(stderr: str) -> list[str]:
    """Lines of a process's stderr that report an error."""
    out = []
    for line in stderr.splitlines():
        if line.startswith(("Traceback", "ERROR", "CRITICAL")):
            out.append(line)
        elif line.startswith("{"):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(doc, dict) and "error" in doc:
                out.append(line)
    return out


def process_problems(name: str, returncode: int, stderr: str) -> list[str]:
    problems = [f"{name}: exit code {returncode}"] if returncode != 0 else []
    return problems + [f"{name}: {line}" for line in error_lines(stderr)]


def _read_table(path: Path) -> tuple[list[str], dict[str, list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, {row[0]: row[1:] for row in reader if row}


def _posts_by_user(path: str) -> dict[str, list[str]]:
    by_user: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # the loader skips malformed lines too
            by_user.setdefault(rec["user_id"], []).append(rec["text"])
    return by_user


def check_outputs(out_dir: Path, config: RunConfig, kind: str, seed: int, sample: int | None = SAMPLE_USERS) -> list[str]:
    """Checks (b), (c) and (d) on one run's outputs; returns the problems found.

    ``kind`` is "report" or "staged"; ``sample=None`` checks every user.
    """
    try:
        return _check_outputs(out_dir, config, kind, seed, sample)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as err:
        return [f"outputs unreadable: {err!r}"]


def _check_outputs(out_dir: Path, config: RunConfig, kind: str, seed: int, sample: int | None) -> list[str]:
    problems: list[str] = []
    rng = random.Random(seed)
    feat_header, features = _read_table(out_dir / "features.csv")
    _, scores = _read_table(out_dir / "scores.csv")
    names = feat_header[2:]

    lex = lexicon.parse_lexicon(config.lexicon_path)
    category = dict(lex.categories)
    word_list = segmenter.load_word_list(config.word_list_path)
    spam = load_keyword_file(config.spam_keywords_path)
    templates = load_keyword_file(config.system_templates_path)
    with open(config.model_path, encoding="utf-8") as fh:
        mapping = json.load(fh)
    posts = _posts_by_user(config.posts_path)
    lookups: dict[str, frozenset[int]] = {}

    users = sorted(features)
    if sample is not None and sample < len(users):
        users = sorted(rng.sample(users, sample))
    for uid in users:
        tokens = []
        for text in posts.get(uid, ()):
            res = cleaner.clean(text, spam, system_templates=templates)
            if not res.dropped:
                tokens.extend(segmenter.segment(res.clean_text, word_list))
        counts: Counter[str] = Counter()
        for tok in tokens:
            if tok not in lookups:
                lookups[tok] = lexicon.brute_force_lookup(lex, tok)
            counts.update(category[cid] for cid in lookups[tok])
        scale = 100.0 / len(tokens) if tokens else 0.0
        freqs = {name: counts[name] * scale for name in names}
        row = features[uid]
        expected = [str(len(tokens))] + [f"{freqs[name]:.6f}" for name in names]
        if row != expected:
            diffs = [f"{col} {a!r} != {b!r}" for col, a, b in zip(feat_header[1:], row, expected) if a != b]
            problems.append(f"features.csv {uid}: {(diffs or ['row length'])[0]} recomputed")
        if not tokens:
            if uid in scores:
                problems.append(f"scores.csv scores degenerate user {uid}")
            continue
        if uid not in scores:
            problems.append(f"scores.csv lacks user {uid}")
            continue
        x = [freqs[name] for name in mapping["category_names"]]
        for t, trait in enumerate(TRAITS):
            want = math.fsum([*(xk * row_w[t] for xk, row_w in zip(x, mapping["W"])), mapping["b"][t]])
            got = float(scores[uid][t])
            if abs(got - want) > SCORE_TOL[kind]:
                problems.append(f"scores.csv {uid} {trait}: {got} != x.W+b {want:.9f}")

    with open(out_dir / "correlations.csv", encoding="utf-8", newline="") as fh:
        # columns: feature, trait, r, p, n, significant, strong
        correlations = [(row[0], row[1], row[2], row[4]) for row in list(csv.reader(fh))[1:] if row]
    joined = sorted(features.keys() & scores.keys())
    for feature, trait, r, n in rng.sample(correlations, min(SAMPLE_CORRELATIONS, len(correlations))):
        x = [float(features[uid][1 + names.index(feature)]) for uid in joined]
        y = [float(scores[uid][TRAITS.index(trait)]) for uid in joined]
        try:
            want = statistics.correlation(x, y)
        except statistics.StatisticsError:
            want = None
        got = float(r) if r else None
        if int(n) != len(joined) or (got is None) != (want is None) or (
            got is not None and abs(got - want) > CORRELATION_TOL
        ):
            problems.append(f"correlations.csv {feature}/{trait}: r={r!r} n={n} != {want} n={len(joined)}")
    return problems

