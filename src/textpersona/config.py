"""Run configuration with pipeline defaults, plus small config loaders."""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from ._textio import utf8_lines
from .errors import InputFormatError


def builtin_data_path(*parts: str) -> Path:
    """Path to a data file bundled with the package."""
    return Path(str(resources.files("textpersona").joinpath("data", *parts)))


def load_keyword_file(path) -> tuple[str, ...]:
    """One entry per line, UTF-8; '#' at line start marks a comment."""
    entries = []
    for _, line in utf8_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entries.append(line)
    return tuple(entries)


@dataclass
class RunConfig:
    """Everything a report run needs; library and CLI defaults read these fields."""

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

    PATH_KEYS = (
        "profiles_path",
        "posts_path",
        "lexicon_path",
        "word_list_path",
        "spam_keywords_path",
        "system_templates_path",
        "model_path",
    )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as err:  # invalid JSON or UTF-8
                raise InputFormatError(f"{path}: invalid config JSON: {err}") from err
        return cls.from_dict(doc, base_dir=Path(path).parent)

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "RunConfig":
        """Config from a JSON object; an unknown key or a mistyped value raises InputFormatError."""
        if not isinstance(doc, dict):
            raise InputFormatError("a run config is one JSON object")
        known = {f.name for f in fields(cls)}
        cfg = cls()
        for key, value in doc.items():
            if key not in known:
                raise InputFormatError(f"unknown config key {key!r}")
            try:
                value = cls._parse_value(key, value)
            except ValueError as err:
                raise InputFormatError(f"config key {key!r}: {err}") from None
            if key in cls.PATH_KEYS and value is not None and base_dir is not None:
                # relative paths in a config file resolve against the file
                p = Path(value)
                value = str(p if p.is_absolute() else base_dir / p)
            setattr(cfg, key, value)
        return cfg

    @classmethod
    def _parse_value(cls, key: str, value):
        """value as the field holds it, or ValueError saying what JSON value it must be."""

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
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dt.date):
                value = value.isoformat()
            elif isinstance(value, tuple):
                value = list(value)
            doc[f.name] = value
        return doc
