"""Stage-per-subcommand command line interface.

Each subcommand is a pure file transformation: declared inputs in,
declared outputs out, exit 0 on success. Exit codes: 1 a usage error
and nothing else, 2 an input format error, 3 a pipeline/domain error,
arithmetic that overflows the float range included. Failures print one
machine-parsable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import datetime as dt
import gc
import json
import logging
import sys
from collections import Counter

from . import __version__
from . import cleaner as cleaner_mod
from . import corpus as corpus_mod
from . import lexicon as lexicon_mod
from . import model as model_mod
from . import report as report_mod
from . import segmenter as segmenter_mod
from . import stats as stats_mod
from ._textio import utf8_lines
from .config import RunConfig
from .errors import BundleError, InputFormatError, TextPersonaError
from .model import TRAITS

log = logging.getLogger("textpersona")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_PIPELINE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _date(value: str) -> dt.date:
    try:
        return dt.date.fromisoformat(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO date: {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="textpersona",
        description="Microblog text portrait pipeline, one stage per subcommand.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_text):
        return sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )

    p = add("clean", "strip noise from raw posts and extract emoticons")
    p.add_argument("--posts", required=True, help="posts.jsonl input")
    p.add_argument("--out", required=True, help="cleaned.jsonl output")
    p.add_argument("--spam-keywords", default=None, help="spam keyword file (one per line)")
    p.add_argument("--templates", default=None, help="system template file (one per line)")
    p.set_defaults(func=cmd_clean)

    p = add("segment", "tokenize cleaned text by forward maximum matching")
    p.add_argument("--cleaned", required=True, help="cleaned.jsonl input")
    p.add_argument("--words", required=True, help="word list file")
    p.add_argument("--out", required=True, help="tokens.jsonl output")
    p.set_defaults(func=cmd_segment)

    p = add("featurize", "compute per-user category frequency vectors")
    p.add_argument("--lexicon", required=True, help="category dictionary (.dic)")
    p.add_argument("--tokens", required=True, help="tokens.jsonl input")
    p.add_argument("--out", required=True, help="features.csv output")
    p.set_defaults(func=cmd_featurize)

    p = add("fit", "fit the frequency-to-score mapping matrix")
    p.add_argument("--features", required=True, help="features.csv input")
    p.add_argument("--labels", required=True, help="labels.csv input (user_id,O,C,E,A,N)")
    p.add_argument("--out", required=True, help="model.json output")
    p.add_argument("--ridge-lambda", type=float, default=RunConfig.ridge_lambda, help="ridge strength")
    p.set_defaults(func=cmd_fit)

    p = add("predict", "score users with a fitted model")
    p.add_argument("--model", required=True, help="model.json input")
    p.add_argument("--features", required=True, help="features.csv input")
    p.add_argument("--out", required=True, help="scores.csv output")
    p.set_defaults(func=cmd_predict)

    p = add("correlate", "category-by-trait correlation matrix with p-values")
    p.add_argument("--features", required=True, help="features.csv input")
    p.add_argument("--scores", required=True, help="scores.csv input")
    p.add_argument("--out-csv", required=True, help="correlations.csv output")
    p.add_argument("--out-json", default=None, help="optional JSON output")
    p.add_argument("--alpha", type=float, default=RunConfig.alpha, help="significance level")
    p.set_defaults(func=cmd_correlate)

    p = add("contrast", "tag weights for top/bottom quantile groups of one trait")
    p.add_argument("--scores", required=True, help="scores.csv input")
    p.add_argument("--profiles", required=True, help="profiles.jsonl input")
    p.add_argument("--trait", required=True, choices=TRAITS, help="trait dimension")
    p.add_argument("--out-csv", required=True, help="tag contrast CSV output")
    p.add_argument("--out-json", default=None, help="optional JSON output")
    p.add_argument("--quantile", type=float, default=RunConfig.quantile, help="polarity group share")
    p.add_argument("--top-k", type=int, default=RunConfig.top_k_tags, help="rows per group")
    p.set_defaults(func=cmd_contrast)

    p = add("demographics", "population summary table from profiles")
    p.add_argument("--profiles", required=True, help="profiles.jsonl input")
    p.add_argument(
        "--reference-date",
        type=_date,
        required=True,
        help="date ages are computed against (ISO)",
    )
    p.add_argument("--out-csv", required=True, help="demographics.csv output")
    p.add_argument("--out-json", default=None, help="optional JSON output")
    p.add_argument("--min-age", type=int, default=RunConfig.age_range[0], help="lowest credible age")
    p.add_argument("--max-age", type=int, default=RunConfig.age_range[1], help="highest credible age")
    p.set_defaults(func=cmd_demographics)

    p = add("emoticons", "emoticon usage contrast between polarity groups")
    p.add_argument("--cleaned", required=True, help="cleaned.jsonl input")
    p.add_argument("--scores", required=True, help="scores.csv input")
    p.add_argument("--trait", required=True, choices=TRAITS, help="trait dimension")
    p.add_argument("--out-csv", required=True, help="emoticon contrast CSV output")
    p.add_argument("--out-json", default=None, help="optional JSON output")
    p.add_argument("--min-count", type=int, default=RunConfig.emoticon_min_count, help="corpus-wide usage floor")
    p.add_argument("--alpha", type=float, default=RunConfig.alpha, help="significance level")
    p.add_argument("--quantile", type=float, default=RunConfig.quantile, help="polarity group share")
    p.set_defaults(func=cmd_emoticons)

    p = add("report", "run the whole pipeline and write an artifact bundle")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out-dir", required=True, help="bundle output directory")
    p.set_defaults(func=cmd_report)

    return parser


def _read_jsonl(path, str_keys: tuple[str, ...], list_key: str) -> list[dict]:
    """The records of a CLI interchange file.

    A line that is not a JSON object with strings under str_keys and a
    list of strings under list_key raises InputFormatError naming path:line.
    """
    shape = f"a JSON object with strings {', '.join(str_keys)} and a list of strings {list_key}"
    records = []
    for line_no, line in utf8_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            rec = corpus_mod.parse_json_line(line)
        except ValueError as err:
            raise InputFormatError(f"{path}:{line_no}: {err}") from None
        if not (
            isinstance(rec, dict)
            and all(isinstance(rec.get(key), str) for key in str_keys)
            and isinstance(rec.get(list_key), list)
            and all(isinstance(item, str) for item in rec[list_key])
        ):
            raise InputFormatError(f"{path}:{line_no}: a record must be {shape}")
        records.append(rec)
    return records


def _write_jsonl(path, records) -> None:
    """Write a CLI interchange file: one JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def cmd_clean(args) -> int:
    posts, malformed = corpus_mod.load_posts(args.posts)
    spam, templates = cleaner_mod.load_rules(args.spam_keywords, args.templates)
    cleaned, dropped = cleaner_mod.clean_corpus(posts, spam, system_templates=templates)
    _write_jsonl(
        args.out,
        (
            {"user_id": user_id, "clean_text": res.clean_text, "emoticons": list(res.emoticons)}
            for user_id, res in cleaned
        ),
    )
    log.info(
        "clean: %d posts in, %d kept, %d dropped, %d malformed lines",
        len(posts), len(cleaned), dropped, malformed,
    )
    return EXIT_OK


def cmd_segment(args) -> int:
    cleaned = _read_jsonl(args.cleaned, ("user_id", "clean_text"), "emoticons")
    word_list = segmenter_mod.load_word_list(args.words)
    tokenized = segmenter_mod.segment_corpus([(rec["user_id"], rec["clean_text"]) for rec in cleaned], word_list)
    _write_jsonl(args.out, ({"user_id": user_id, "tokens": tokens} for user_id, tokens in tokenized))
    log.info("segment: %d posts tokenized", len(tokenized))
    return EXIT_OK


def _read_tokens(path) -> dict[str, list[list[str]]]:
    by_user: dict[str, list[list[str]]] = {}
    for rec in _read_jsonl(path, ("user_id",), "tokens"):
        by_user.setdefault(rec["user_id"], []).append(rec["tokens"])
    return by_user


def cmd_featurize(args) -> int:
    lexicon = lexicon_mod.parse_lexicon(args.lexicon)
    matcher = lexicon_mod.compile_lexicon(lexicon)
    tokens_by_user = _read_tokens(args.tokens)
    features = lexicon_mod.featurize(tokens_by_user, matcher)
    report_mod.features_table(features, lexicon.category_names).write_csv(args.out)
    log.info("featurize: %d users, %d categories", len(features.user_ids), len(features.names))
    return EXIT_OK


def cmd_fit(args) -> int:
    features = lexicon_mod.read_features_csv(args.features)
    labels = model_mod.read_scores_csv(args.labels)
    mapping = model_mod.fit(features, labels, args.ridge_lambda)
    model_mod.save_model(mapping, args.out)
    log.info("fit: n=%d, K=%d, lambda=%g", mapping.n_train, len(features.names), mapping.ridge_lambda)
    return EXIT_OK


def cmd_predict(args) -> int:
    mapping = model_mod.load_model(args.model)
    features = lexicon_mod.read_features_csv(args.features)
    scores, skipped = model_mod.predict(mapping, features)
    report_mod.scores_table(scores).write_csv(args.out)
    log.info("predict: %d scored, %d degenerate skipped", len(scores), len(skipped))
    return EXIT_OK


def _write_table(table: report_mod.Table, args) -> None:
    """Write an analysis table to --out-csv and, if given, --out-json."""
    table.write_csv(args.out_csv)
    if args.out_json:
        table.write_json(args.out_json)


def cmd_correlate(args) -> int:
    features = lexicon_mod.read_features_csv(args.features)
    scores = model_mod.read_scores_csv(args.scores)
    results = stats_mod.correlation_matrix(features, scores, args.alpha)
    _write_table(report_mod.correlations_table(results), args)
    log.info("correlate: %d pairs", len(results))
    return EXIT_OK


def cmd_contrast(args) -> int:
    scores = model_mod.read_scores_csv(args.scores)
    profiles, _ = corpus_mod.load_profiles(args.profiles)
    # a scored user whose profile line was skipped as malformed is left out
    loaded = {p.user_id for p in profiles}
    unprofiled = sum(uid not in loaded for uid, _ in scores)
    if unprofiled:
        log.warning("contrast: %d scored users have no loaded profile; left out", unprofiled)
        scores = [(uid, score) for uid, score in scores if uid in loaded]
    split = stats_mod.polarity_split(
        [(uid, score.get(args.trait)) for uid, score in scores],
        args.quantile,
        trait=args.trait,
    )
    contrast = stats_mod.tag_contrast(split, profiles, args.top_k)
    _write_table(report_mod.tag_contrast_table([contrast]), args)
    log.info("contrast: trait %s, groups of %d", args.trait, len(split.high_ids))
    return EXIT_OK


def cmd_demographics(args) -> int:
    profiles, _ = corpus_mod.load_profiles(args.profiles)
    aged = [corpus_mod.with_credible_age(p, args.reference_date, (args.min_age, args.max_age)) for p in profiles]
    _write_table(report_mod.demographic_summary(aged), args)
    log.info("demographics: %d profiles", len(profiles))
    return EXIT_OK


def cmd_emoticons(args) -> int:
    usage: dict[str, Counter[str]] = {}
    for rec in _read_jsonl(args.cleaned, ("user_id", "clean_text"), "emoticons"):
        if rec["emoticons"]:
            usage.setdefault(rec["user_id"], Counter()).update(rec["emoticons"])
    scores = model_mod.read_scores_csv(args.scores)
    split = stats_mod.polarity_split(
        [(uid, score.get(args.trait)) for uid, score in scores],
        args.quantile,
        trait=args.trait,
    )
    (contrast,) = stats_mod.emoticon_contrasts([split], usage, args.min_count, args.alpha)
    if contrast.warning:
        log.warning("emoticons: %s", contrast.warning)
    _write_table(report_mod.emoticons_table([contrast]), args)
    log.info("emoticons: trait %s, %d qualifying", args.trait, len(contrast.rows))
    return EXIT_OK


def cmd_report(args) -> int:
    config = RunConfig.from_file(args.config)
    bundle = report_mod.build_bundle(config, args.out_dir)
    log.info("report: %d artifacts in %s", len(bundle.artifacts), bundle.out_dir)
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(json.dumps({"error": str(err), "exit_code": EXIT_USAGE}), file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (TextPersonaError, OSError, ValueError, ArithmeticError) as err:
        # a report stage that failed on unreadable input is a format error too
        cause = err.cause if isinstance(err, BundleError) else err
        code = EXIT_FORMAT if isinstance(cause, InputFormatError) else EXIT_PIPELINE
        print(json.dumps({"error": str(err), "exit_code": code}, ensure_ascii=False), file=sys.stderr)
        return code


def run() -> int:
    """main for a process entry point: once main returns, gc.freeze() moves
    every object out of the collector's reach, so the interpreter's exit
    runs no collection over them. main itself leaves them collectable
    for in-process callers."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
