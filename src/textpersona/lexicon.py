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

from collections import Counter
from functools import partial
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._csvio import read_csv, read_keyed_rows
from ._pool import parallel_map
from ._textio import utf8_lines
from .errors import InputFormatError, PipelineError

# reserved trie key holding the categories of patterns that end at a node;
# real edges are single characters, so the empty string can never collide
_CATS = ""

_EMPTY: frozenset[int] = frozenset()


class LexiconEntry(NamedTuple):
    pattern: str
    wildcard: bool
    category_ids: frozenset[int]


class Lexicon(NamedTuple):
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

    def fail(problem: str, line_no: int | None = None) -> InputFormatError:
        return InputFormatError(f"{path}:{line_no}: {problem}" if line_no else f"{path}: {problem}")

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

    __slots__ = ("category_names", "positions", "_exact", "_trie")

    def __init__(self, lexicon: Lexicon):
        self.category_names = lexicon.category_names
        self.positions = {cid: i for i, (cid, _) in enumerate(lexicon.categories)}  # category id -> row position
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


class _FeatureMatrix(NamedTuple):
    names: tuple[str, ...]
    user_ids: tuple[str, ...]
    token_counts: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...]


class FeatureMatrix(_FeatureMatrix):
    """Category frequencies in percent of total tokens, one row per user.

    rows[i] holds the frequencies of user_ids[i] in names order, from
    token_counts[i] tokens. A user with no tokens is degenerate: its
    count is 0 and its row all zeros. The names come with the matrix,
    so a matrix with no rows still has its layout. A matrix whose three
    columns differ in length, or that repeats a user id, raises
    PipelineError.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, names, user_ids, token_counts, rows):
        self = _FeatureMatrix.__new__(cls, names, user_ids, token_counts, rows)
        n = len(self.user_ids)
        if len(self.token_counts) != n or len(self.rows) != n:
            raise PipelineError(
                f"feature matrix has {n} user ids, {len(self.token_counts)} token counts and {len(self.rows)} rows"
            )
        if len(set(self.user_ids)) != n:
            repeated = Counter(self.user_ids).most_common(1)[0][0]
            raise PipelineError(f"user_id {repeated!r} appears twice in the feature matrix")
        return self


def featurize(
    tokens_by_user: Mapping[str, Iterable[Sequence[str]]],
    matcher: CompiledMatcher,
    *,
    threads: int = 1,
) -> FeatureMatrix:
    """Pool each user's post tokens and compute category percentages.

    A user's frequency of category c is 100 * (tokens matching c) /
    (total tokens); a token in several categories counts once in each.
    A user with zero tokens gets count 0 and an all-zero row. Rows come
    in user_id order, columns in the matcher's category order. Each
    user's value may be any iterable of token sequences, such as a lazy
    segment() of each post; it is consumed once.
    """
    user_ids = tuple(sorted(tokens_by_user))
    count_user = partial(featurize_user, matcher, {})  # this call's memo; a forked child gets a copy
    counted = parallel_map(count_user, [tokens_by_user[uid] for uid in user_ids], threads=threads)
    return FeatureMatrix(
        matcher.category_names, user_ids, tuple(total for total, _ in counted), tuple(row for _, row in counted)
    )


def featurize_user(
    matcher: CompiledMatcher,
    cache: dict[str, tuple[int, ...]],
    token_lists: Iterable[Sequence[str]],
) -> tuple[int, tuple[float, ...]]:
    """One user's (token count, frequency row); cache memoizes each token's row positions across users.

    The row starts as 0.0 everywhere and only the categories hit are
    scaled: k * scale is the float a cell-by-cell row holds, and there
    0 * scale is 0.0 too.
    """
    counts: dict[int, int] = {}
    total = 0
    for token, k in Counter(chain.from_iterable(token_lists)).items():
        total += k
        hits = cache.get(token)
        if hits is None:
            hits = cache[token] = tuple(map(matcher.positions.__getitem__, matcher.lookup(token)))
        for i in hits:
            counts[i] = counts.get(i, 0) + k
    row = [0.0] * len(matcher.category_names)
    if total:
        scale = 100.0 / total
        for i, k in counts.items():
            row[i] = k * scale
    return total, tuple(row)


# a 6-decimal cell lies within half a unit in the last place of the true
# frequency, plus the error of parsing the decimal back into a float
_CELL_TOL = 0.5e-6 + 1e-12
# the lattice k * 100 / token_count must stay well coarser than the
# cells' 6 decimals for the hit count k to be recoverable
_MAX_TOKEN_COUNT = 10**7


def read_features_csv(path) -> FeatureMatrix:
    """Read tables.features_table's CSV back into the exact FeatureMatrix.

    Rows keep the file's order. Each cell is snapped to the hit count
    k = round(cell * token_count / 100) and rebuilt as k * (100 /
    token_count), the float featurize() computed. A row that cannot be
    rebuilt raises InputFormatError naming path:line: a cell count that
    differs from the header's, a user_id seen on an earlier line, a
    token_count that is not a non-negative integer, a nonzero cell in a
    zero-token row, or a cell farther from the lattice than 6-decimal
    rounding allows.
    """
    header, rows = read_csv(path)
    if header[:2] != ["user_id", "token_count"]:
        raise InputFormatError(f"{path}: not a feature CSV (header {header[:2]})")
    names = tuple(header[2:])
    parsed = read_keyed_rows(path, header, rows, partial(_parse_feature_row, names=names))
    counted = parsed.values()
    return FeatureMatrix(names, tuple(parsed), tuple(n for n, _ in counted), tuple(row for _, row in counted))


def _parse_feature_row(parts: list[str], names: tuple[str, ...]) -> tuple[int, tuple[float, ...]]:
    raw_total, cells = parts[1], parts[2:]
    if not raw_total.isdecimal():
        raise ValueError(f"token_count {raw_total!r} is not a non-negative integer")
    total = int(raw_total)
    if total > _MAX_TOKEN_COUNT:
        raise ValueError(f"token_count {total} is too large to rebuild frequencies from 6 decimals")
    scale = 100.0 / total if total else 0.0
    row = []
    for name, cell in zip(names, cells):
        value = float(cell)
        # a cell outside [0, 100] (NaN and infinities too) is refused before rounding can overflow
        count = round(value * total / 100) if 0 <= value <= 100 else -1
        freq = count * scale
        on_lattice = 0 <= count <= total and abs(value - freq) <= _CELL_TOL
        if not on_lattice or (total == 0 and value != 0):
            raise ValueError(f"{name} = {cell!r} is not a frequency of {total} tokens")
        row.append(freq)
    return total, tuple(row)
