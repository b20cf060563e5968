"""Category dictionary parsing, compilation, and frequency features.

The dictionary file follows the classic word-count lexicon shape:

    %
    1<TAB>PosEmo
    2<TAB>NegEmo
    %
    开心<TAB>1
    担忧*<TAB>2

A header block delimited by "%" lines declares (id, name) pairs; body
lines map a pattern to one or more category ids. A trailing "*" marks a
prefix wildcard: the entry fires on every token that starts with the
pattern. Exact entries fire on whole-token equality only. When several
entries match one token their category sets are unioned; every entry
fires independently, there is no longest-match suppression.

compile_lexicon() turns the entry list into a CompiledMatcher: exact
patterns go into a hash map, wildcard patterns into a character trie
whose nodes carry the category sets of the patterns ending there. A
lookup walks the token once, so cost is O(len(token)) regardless of
dictionary size. The contract (and the central test) is that lookup()
agrees with a brute-force scan over every entry, for every token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

from ._csvio import read_csv
from ._pool import parallel_map
from ._textio import utf8_lines
from .errors import LexiconParseError

# reserved trie key holding the categories of patterns that end at a node;
# real edges are single characters, so the empty string can never collide
_CATS = ""

_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class LexiconEntry:
    pattern: str
    wildcard: bool
    category_ids: frozenset[int]


@dataclass(frozen=True)
class Lexicon:
    categories: tuple[tuple[int, str], ...]
    entries: tuple[LexiconEntry, ...]

    @property
    def category_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.categories)


def parse_lexicon(path) -> Lexicon:
    """Parse and validate a dictionary file; errors carry the path and line number."""
    categories: list[tuple[int, str]] = []
    seen_ids: set[int] = set()
    seen_names: set[str] = set()
    entries: list[LexiconEntry] = []
    seen_patterns: set[tuple[str, bool]] = set()
    in_header = False
    header_done = False
    fail = partial(LexiconParseError, path=path)

    for line_no, raw in utf8_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "%":
            if not in_header and not header_done:
                in_header = True
            elif in_header:
                in_header = False
                header_done = True
            else:
                raise fail("unexpected '%' after header", line_no)
            continue
        fields = line.split()
        if in_header:
            if len(fields) != 2:
                raise fail(
                    f"header line needs 'id name', got {line!r}", line_no
                )
            try:
                cid = int(fields[0])
            except ValueError:
                raise fail(
                    f"category id {fields[0]!r} is not an integer", line_no
                ) from None
            name = fields[1]
            if cid in seen_ids:
                raise fail(f"duplicate category id {cid}", line_no)
            if name in seen_names:
                raise fail(f"duplicate category name {name!r}", line_no)
            seen_ids.add(cid)
            seen_names.add(name)
            categories.append((cid, name))
        else:
            if not header_done:
                raise fail(
                    "entry found before the '%'-delimited header", line_no
                )
            if len(fields) < 2:
                raise fail(
                    f"entry needs 'pattern id [id ...]', got {line!r}", line_no
                )
            pattern = fields[0]
            wildcard = pattern.endswith("*")
            if wildcard:
                pattern = pattern[:-1]
            if "*" in pattern:
                raise fail(
                    "'*' is only allowed as a trailing wildcard", line_no
                )
            if not pattern:
                raise fail("empty pattern", line_no)
            if (pattern, wildcard) in seen_patterns:
                raise fail(
                    f"duplicate entry {pattern + ('*' if wildcard else '')!r}", line_no
                )
            ids = []
            for token in fields[1:]:
                try:
                    cid = int(token)
                except ValueError:
                    raise fail(
                        f"category id {token!r} is not an integer", line_no
                    ) from None
                if cid not in seen_ids:
                    raise fail(
                        f"entry references undeclared category id {cid}", line_no
                    )
                ids.append(cid)
            seen_patterns.add((pattern, wildcard))
            entries.append(
                LexiconEntry(pattern=pattern, wildcard=wildcard, category_ids=frozenset(ids))
            )

    if not header_done:
        raise fail("missing '%'-delimited category header")
    return Lexicon(categories=tuple(categories), entries=tuple(entries))


class CompiledMatcher:
    """Immutable token-to-categories matcher built from a Lexicon.

    Exact entries live in a dict. Wildcard entries live in a character
    trie; walking a token through the trie visits exactly the wildcard
    patterns that are prefixes of the token, and each visited terminal
    contributes its category set. The union of both routes reproduces
    the brute-force all-entries scan.
    """

    __slots__ = ("categories", "category_names", "_exact", "_trie")

    def __init__(self, lexicon: Lexicon):
        self.categories = lexicon.categories
        self.category_names = lexicon.category_names
        exact: dict[str, frozenset[int]] = {}
        trie: dict = {}
        for entry in lexicon.entries:
            if entry.wildcard:
                node = trie
                for ch in entry.pattern:
                    node = node.setdefault(ch, {})
                node[_CATS] = node.get(_CATS, _EMPTY) | entry.category_ids
            else:
                exact[entry.pattern] = exact.get(entry.pattern, _EMPTY) | entry.category_ids
        self._exact = exact
        self._trie = trie

    def lookup(self, token: str) -> frozenset[int]:
        """Category ids of every entry matching the token (possibly empty)."""
        acc = self._exact.get(token, _EMPTY)
        node = self._trie
        for ch in token:
            node = node.get(ch)
            if node is None:
                return acc
            cats = node.get(_CATS)
            if cats is not None:
                acc = acc | cats
        return acc


def compile_lexicon(lexicon: Lexicon) -> CompiledMatcher:
    return CompiledMatcher(lexicon)


def brute_force_lookup(lexicon: Lexicon, token: str) -> frozenset[int]:
    """Reference scan over every entry; the oracle lookup() must equal."""
    acc: set[int] = set()
    for entry in lexicon.entries:
        if entry.wildcard:
            if token.startswith(entry.pattern):
                acc |= entry.category_ids
        elif token == entry.pattern:
            acc |= entry.category_ids
    return frozenset(acc)


@dataclass(frozen=True)
class FeatureVector:
    """Per-user category frequencies in percent of total tokens."""

    user_id: str
    freqs: Mapping[str, float]
    token_count: int

    @property
    def degenerate(self) -> bool:
        return self.token_count == 0


def featurize(
    tokens_by_user: Mapping[str, Sequence[Sequence[str]]],
    matcher: CompiledMatcher,
    *,
    threads: int = 1,
) -> list[FeatureVector]:
    """Pool each user's post tokens and compute category percentages.

    freqs[c] = 100 * (tokens matching category c) / (total tokens); a
    token in several categories counts once in each. Users with zero
    tokens come back with all-zero freqs and degenerate=True. Output is
    sorted by user_id.
    """
    items = sorted(tokens_by_user.items())
    # the lookup memo is this call's own dict; each worker gets its own copy
    return parallel_map(partial(_featurize_one, matcher, {}), items, threads=threads, chunksize=32)


def _featurize_one(
    matcher: CompiledMatcher,
    cache: dict[str, frozenset[int]],
    item: tuple[str, Sequence[Sequence[str]]],
) -> FeatureVector:
    user_id, token_lists = item
    counts: dict[int, int] = {}
    total = 0
    for tokens in token_lists:
        total += len(tokens)
        for token in tokens:
            cats = cache.get(token)
            if cats is None:
                cats = matcher.lookup(token)
                cache[token] = cats
            for cid in cats:
                counts[cid] = counts.get(cid, 0) + 1
    if total == 0:
        freqs = {name: 0.0 for _, name in matcher.categories}
    else:
        scale = 100.0 / total
        freqs = {name: counts.get(cid, 0) * scale for cid, name in matcher.categories}
    return FeatureVector(user_id=user_id, freqs=freqs, token_count=total)


# a 6-decimal cell lies within half a unit in the last place of the true
# frequency, plus the error of parsing the decimal back into a float
_CELL_TOL = 0.5e-6 + 1e-12
# the lattice k * 100 / token_count must stay well coarser than the
# cells' 6 decimals for the hit count k to be recoverable
_MAX_TOKEN_COUNT = 10**7


def read_features_csv(path) -> tuple[list[FeatureVector], list[str]]:
    """Read report.features_table's CSV back into exact FeatureVectors.

    Each cell is snapped to the hit count k = round(cell * token_count /
    100) and rebuilt as k * (100 / token_count), the float featurize()
    computed. A row that cannot be rebuilt raises LexiconParseError
    naming path:line: a cell count that differs from the header's, a
    token_count that is not a non-negative integer, a nonzero cell in a
    zero-token row, or a cell farther from the lattice than 6-decimal
    rounding allows.
    """
    header, rows = read_csv(path)
    if header[:2] != ["user_id", "token_count"]:
        raise LexiconParseError(f"{path}: not a feature CSV (header {header[:2]})")
    names = header[2:]
    features = []
    for line_no, parts in rows:
        try:
            features.append(_parse_feature_row(parts, names))
        except ValueError as err:
            raise LexiconParseError(f"{path}:{line_no}: {err}") from None
    return features, names


def _parse_feature_row(parts: list[str], names: list[str]) -> FeatureVector:
    if len(parts) != len(names) + 2:
        raise ValueError(f"{len(parts)} cells, header has {len(names) + 2}")
    user_id, raw_total, cells = parts[0], parts[1], parts[2:]
    if not raw_total.isdecimal():
        raise ValueError(f"token_count {raw_total!r} is not a non-negative integer")
    total = int(raw_total)
    if total > _MAX_TOKEN_COUNT:
        raise ValueError(f"token_count {total} is too large to rebuild frequencies from 6 decimals")
    scale = 100.0 / total if total else 0.0
    freqs = {}
    for name, cell in zip(names, cells):
        value = float(cell)
        count = round(value * total / 100) if math.isfinite(value) else -1
        freq = count * scale
        on_lattice = 0 <= count <= total and abs(value - freq) <= _CELL_TOL
        if not on_lattice or (total == 0 and value != 0):
            raise ValueError(f"{name} = {cell!r} is not a frequency of {total} tokens")
        freqs[name] = freq
    return FeatureVector(user_id=user_id, freqs=freqs, token_count=total)
