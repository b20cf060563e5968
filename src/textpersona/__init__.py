"""Microblog text portrait pipeline.

Clean raw microblog posts, segment them against a word list, count
category-dictionary hits into per-user frequency vectors, map those to
Big Five trait scores with a fitted linear model, and run the full set
of correlation / group / trend / emoticon analyses over the result.

Each stage lives in its own module (corpus, cleaner, segmenter,
lexicon, model, stats, tables, report), and callers import its names
from there. The root keeps only the names perfbench and tools import
from it. RunConfig, TRAITS and the loaders that perfbench's set-up
probe times in a fresh interpreter (parse_lexicon, compile_lexicon,
load_word_list, load_model) are imported with the package, and they
load nothing of the bundle pipeline. build_bundle resolves on first
access, which imports report and every stage it runs. Every CLI step
imports this root, and only its report subcommand imports report.
"""

from .config import RunConfig
from .lexicon import compile_lexicon, parse_lexicon
from .model import TRAITS, load_model
from .segmenter import load_word_list

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "build_bundle":
        from .report import build_bundle

        return build_bundle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
