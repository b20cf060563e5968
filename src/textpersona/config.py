"""Run configuration with pipeline defaults, plus small config loaders."""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

from ._textio import utf8_lines
from .errors import InputFormatError, PipelineError


def builtin_data_path(*parts: str) -> Path:
    """Path to a data file bundled with the package."""
    return Path(__file__).with_name("data").joinpath(*parts)


def load_keyword_file(path) -> tuple[str, ...]:
    """One entry per line, UTF-8; '#' at line start marks a comment."""
    entries = []
    for _, line in utf8_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entries.append(line)
    return tuple(entries)


class RunConfig:
    """Everything a report run needs; library and CLI defaults read these class attributes.

    An instance starts at the defaults; from_dict, or assigning to a key, sets its own values.
    """

    reference_date: dt.date | None = None
    min_followers: int = 10
    age_range: tuple[int, int] = (10, 47)
    quantile: float = 0.25
    alpha: float = 0.05
    emoticon_min_count: int = 500
    ridge_lambda: float = 1.0
    top_k_tags: int = 20
    ad_url_patterns: tuple[str, ...] = ("taobao",)
    profiles_path: str | None = None
    posts_path: str | None = None
    lexicon_path: str | None = None
    word_list_path: str | None = None
    spam_keywords_path: str | None = None
    system_templates_path: str | None = None
    model_path: str | None = None

    KEYS = tuple(__annotations__)  # the config keys: the annotated attributes above

    PATH_KEYS = tuple(key for key in KEYS if key.endswith("_path"))

    # key -> (test, message) of the values corpus, stats and model.fit accept: they check
    # their arguments with check, and from_dict checks a config before a run loads anything
    RANGES = {
        "alpha": (lambda v: 0.0 < v < 1.0, "alpha must be in (0, 1), got {}"),
        "quantile": (lambda v: 0.0 < v <= 0.5, "quantile must be in (0, 0.5], got {}"),
        "top_k_tags": (lambda v: v >= 0, "top_k must be >= 0"),
        "emoticon_min_count": (lambda v: v >= 0, "min_count must be >= 0"),
        "min_followers": (lambda v: v >= 0, "min_followers must be >= 0"),
        "ad_url_patterns": (all, "an ad URL pattern must not be empty"),
        "age_range": (lambda v: v[0] <= v[1], "age range {0[0]}-{0[1]} is empty: its lowest age is above its highest"),
        "ridge_lambda": (lambda v: 0.0 <= v < float("inf"), "ridge lambda must be a finite number >= 0, got {}"),
    }

    # key -> (joined path, path as the config file wrote it), set by from_dict;
    # not annotated, so it is neither a config key nor a knob
    _written_paths = {}

    @classmethod
    def check(cls, key: str, value) -> None:
        """Raise PipelineError(message) when value fails the test of key's RANGES entry."""
        ok, message = cls.RANGES[key]
        if not ok(value):
            raise PipelineError(message.format(value))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as err:  # invalid JSON or UTF-8, or nested too deeply
                raise InputFormatError(f"{path}: invalid config JSON: {err}") from err
        return cls.from_dict(doc, base_dir=Path(path).parent)

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "RunConfig":
        """Config from a JSON object.

        An unknown key or a mistyped value raises InputFormatError, a value
        outside its RANGES entry PipelineError.
        """
        if not isinstance(doc, dict):
            raise InputFormatError("a run config is one JSON object")
        cfg = cls()
        cfg._written_paths = {}
        for key, value in doc.items():
            if key not in cls.KEYS:
                raise InputFormatError(f"unknown config key {key!r}")
            try:
                value = cls._parse_value(key, value)
            except ValueError as err:
                raise InputFormatError(f"config key {key!r}: {err}") from None
            if key in cls.PATH_KEYS and value is not None and base_dir is not None:
                # relative paths in a config file resolve against the file
                p = Path(value)
                joined = str(p if p.is_absolute() else base_dir / p)
                cfg._written_paths[key] = (joined, value)
                value = joined
            setattr(cfg, key, value)
        for key, (ok, message) in cls.RANGES.items():
            if not ok(getattr(cfg, key)):
                raise PipelineError(f"config key {key!r}: {message.format(getattr(cfg, key))}")
        return cfg

    @classmethod
    def _parse_value(cls, key: str, value):
        """value as the config holds it, or ValueError saying what JSON value it must be."""

        def require(ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(f"must be {what}, got {json.dumps(value, ensure_ascii=False)}")

        if key in cls.PATH_KEYS:
            require(value is None or isinstance(value, str), "a path string or null")
        elif key == "reference_date":
            require(value is None or isinstance(value, str), "an ISO date string or null")
            return None if value is None else dt.date.fromisoformat(value)
        elif key == "age_range":
            require(isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value),
                    "a list of two integers")
            return tuple(value)
        elif key == "ad_url_patterns":
            require(isinstance(value, list) and all(isinstance(v, str) for v in value),
                    "a list of strings")
            return tuple(value)
        elif isinstance(getattr(cls, key), int):  # min_followers, emoticon_min_count, top_k_tags
            require(type(value) is int, "an integer")
        else:
            require(type(value) in (int, float), "a number")
        return value

    def to_jsonable(self) -> dict:
        """The keys' values as JSON values, each path from a config file as the file wrote it.

        So a manifest does not depend on how the config file's own path was
        spelled. A path set again since is recorded as set.
        """
        doc = {}
        for key in self.KEYS:
            value = getattr(self, key)
            if isinstance(value, dt.date):
                value = value.isoformat()
            elif isinstance(value, tuple):
                value = list(value)
            doc[key] = value
        for key, (joined, written) in self._written_paths.items():
            if doc[key] == joined:
                doc[key] = written
        return doc
