"""Linear mapping from category frequencies to Big Five scores.

The estimator is multi-output least squares with a ridge penalty on the
weight matrix and an unpenalized intercept:

    minimize  sum_i ||y_i - (x_i W + b)||^2  +  lambda ||W||_F^2

Centering the design and the labels removes b from the problem; W then
solves the K x K regularized normal equations

    (Xc' Xc + lambda I) W = Xc' Yc,      b = y_mean - x_mean W.

Every sum in the fit (the means, the K x K Gram matrix, Xc' Yc and the
dot products of the factorization) is a math.fsum, which is correctly
rounded, and the system is solved by a pure-Python Cholesky
factorization with forward and back substitution. Each step is thus
either correctly rounded or a single IEEE operation, so W and b are
bit-identical on every machine. predict sums x W + b the same way, so
the scores are machine-independent too.

A pivot of the factorization that is not positive, or is negligible
next to its diagonal entry, means the centered design is (numerically)
rank-deficient and the fit is refused. lambda = 0 therefore works only
when the centered design has full column rank; K category frequencies
from a handful of labeled users usually do not, which is why the
default in the pipeline is lambda = 1.
"""

from __future__ import annotations

import json
import math
from itertools import compress
from math import fsum, sqrt
from operator import getitem, mul
from typing import NamedTuple, Sequence

from ._csvio import read_csv, read_keyed_rows
from .config import RunConfig
from .errors import InputFormatError, PipelineError
from .lexicon import FeatureMatrix

TRAITS = ("O", "C", "E", "A", "N")

MODEL_FORMAT_VERSION = 1


class _BigFive(NamedTuple):
    o: float
    c: float
    e: float
    a: float
    n: float

    def get(self, trait: str) -> float:
        return self[TRAITS.index(trait)]


class BigFive(_BigFive):
    """One user's five trait scores (nominal 0-100 scale, not clamped)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, o, c, e, a, n):
        self = _BigFive.__new__(cls, o, c, e, a, n)
        for trait, value in zip(TRAITS, self):
            if not math.isfinite(value):
                raise ValueError(f"trait {trait} must be finite, got {value}")
        return self


class MappingModel(NamedTuple):
    category_names: tuple[str, ...]
    W: tuple[tuple[float, ...], ...]  # K x 5, rows follow category_names
    b: tuple[float, ...]  # 5-vector intercept
    ridge_lambda: float
    n_train: int


def fit(
    features: FeatureMatrix,
    labels: Sequence[tuple[str, BigFive]],
    ridge_lambda: float = RunConfig.ridge_lambda,
) -> MappingModel:
    """Fit the mapping matrix on labeled users over the matrix's categories.

    Every labeled user must appear once and have a non-degenerate row;
    users are joined on user_id and processed in sorted id order, so the
    fit is reproducible regardless of input ordering. Labels so large
    that a trait's weights overflow the float range raise PipelineError
    naming the trait.
    """
    RunConfig.check("ridge_lambda", ridge_lambda)
    if len({uid for uid, _ in labels}) < 2:
        raise PipelineError("need at least 2 distinct labeled users")
    by_id = dict(zip(features.user_ids, zip(features.token_counts, features.rows)))

    rows = []
    targets = []
    previous = None
    for user_id, score in sorted(labels, key=lambda pair: pair[0]):
        if user_id == previous:
            raise PipelineError(f"labeled user {user_id!r} appears more than once")
        previous = user_id
        count, row = by_id.get(user_id, (None, None))
        if count is None:
            raise PipelineError(f"labeled user {user_id!r} has no feature vector")
        if count == 0:
            raise PipelineError(f"labeled user {user_id!r} has a degenerate (zero-token) feature vector")
        rows.append(row)
        targets.append(score)

    x_centered = [_centered(col) for col in zip(*rows)]
    x_mean, x_cols = [mean for mean, _ in x_centered], [col for _, col in x_centered]
    # lower triangle only: the factorization never reads the upper one
    gram = [[fsum(map(mul, ci, cj)) for cj in x_cols[: i + 1]] for i, ci in enumerate(x_cols)]
    for j, row in enumerate(gram):
        row[j] += ridge_lambda
    chol = _cholesky(gram, features.names, ridge_lambda)
    W_cols, b = [], []
    for trait, y in zip(TRAITS, zip(*targets)):
        try:
            y_mean, yc = _centered(y)
            w = _cholesky_solve(chol, [fsum(map(mul, xc, yc)) for xc in x_cols])
            b_t = y_mean - fsum(map(mul, x_mean, w))
            finite = all(map(math.isfinite, (*w, b_t)))
        except (OverflowError, ValueError):  # fsum of finite terms past the float range, or of inf and -inf
            finite = False
        if not finite:
            raise PipelineError(f"the weights of trait {trait} overflow the float range")
        W_cols.append(w)
        b.append(b_t)
    return MappingModel(
        category_names=features.names,
        W=tuple(zip(*W_cols)),
        b=tuple(b),
        ridge_lambda=float(ridge_lambda),
        n_train=len(rows),
    )


# a pivot below this share of its diagonal entry means the column is,
# to working precision, a combination of the columns before it
_PIVOT_RTOL = 1e-12


def _centered(col: Sequence[float]) -> tuple[float, list[float]]:
    """A column's mean (fsum) and the column minus it."""
    mean = fsum(col) / len(col)
    return mean, [float(v) - mean for v in col]


def _cholesky(
    gram: list[list[float]], names: Sequence[str], ridge_lambda: float
) -> list[list[float]]:
    """Lower-triangular L with L L' = gram, or PipelineError on a bad pivot.

    Only the lower triangle of gram is read.
    """
    k = len(gram)
    L = [[0.0] * k for _ in range(k)]
    for j in range(k):
        row_j = L[j][:j]
        pivot = gram[j][j] - fsum(v * v for v in row_j)
        if not pivot > _PIVOT_RTOL * gram[j][j]:
            if ridge_lambda == 0.0:
                raise PipelineError(
                    f"centered design is rank-deficient with lambda=0 (at {names[j]!r}); "
                    "use a positive ridge lambda"
                )
            raise PipelineError(
                f"normal equations are singular at {names[j]!r} with lambda={ridge_lambda:g}; "
                "use a larger ridge lambda"
            )
        d = sqrt(pivot)
        L[j][j] = d
        for i in range(j + 1, k):
            L[i][j] = (gram[i][j] - fsum(map(mul, L[i][:j], row_j))) / d
    return L


def _cholesky_solve(L: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve L L' w = rhs by forward then back substitution."""
    k = len(L)
    z = [0.0] * k
    for i in range(k):
        z[i] = (rhs[i] - fsum(map(mul, L[i][:i], z[:i]))) / L[i][i]
    w = [0.0] * k
    for i in reversed(range(k)):
        w[i] = (z[i] - fsum(L[m][i] * w[m] for m in range(i + 1, k))) / L[i][i]
    return w


def predict(
    model: MappingModel,
    features: FeatureMatrix,
) -> tuple[list[tuple[str, BigFive]], list[str]]:
    """Score users; returns (scores, skipped degenerate user ids).

    The matrix's category names must be the model's, in its order; they
    are checked once. Scores are rounded to the 6 decimals scores.csv
    publishes, so every analysis of them gives the same result from the
    file as in process. Only a row's nonzero cells are summed: a zero
    cell adds an exact zero, which cannot move fsum's correctly rounded
    sum (nor its sign: fsum keeps no zero term), and load_model and
    featurize keep weights and cells finite. A cell's five weighted
    terms are made once per distinct (category, value) pair, and each
    trait sums them in category order, then its intercept, as a dense
    x W + b would. Weights so large that a user's scores overflow the
    float range raise PipelineError naming the user.
    """
    _check_names(model.category_names, features.names)
    scores: list[tuple[str, BigFive]] = []
    skipped: list[str] = []
    terms = [_WeightedTerms(w_row) for w_row in model.W]  # one memo per category
    b = model.b
    for user_id, count, x in zip(features.user_ids, features.token_counts, features.rows):
        if count == 0:
            skipped.append(user_id)
            continue
        cells = map(getitem, compress(terms, x), compress(x, x))
        try:
            y = tuple([round(fsum(col), 6) for col in zip(*cells, b)])
            finite = all(map(math.isfinite, y))
        except (OverflowError, ValueError):  # an fsum past the float range, or of inf and -inf
            finite = False
        if not finite:
            raise PipelineError(f"the scores of user {user_id!r} overflow the float range")
        scores.append((user_id, tuple.__new__(BigFive, y)))  # checked here, so not again by BigFive.__new__
    return scores, skipped


class _WeightedTerms(dict):
    """One category's cell value -> its five terms value * w_row[t], made once per distinct value."""

    def __init__(self, w_row: tuple[float, ...]):
        self.w_row = w_row

    def __missing__(self, value: float) -> tuple[float, ...]:
        made = self[value] = tuple([value * w for w in self.w_row])
        return made


def _check_names(expected: tuple[str, ...], got: tuple[str, ...]) -> None:
    if expected == got:
        return
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            raise PipelineError(
                f"category name mismatch at position {i}: model has {e!r}, features have {g!r}"
            )
    raise PipelineError(
        f"category count mismatch: model has {len(expected)}, features have {len(got)}"
    )


def summarize_scores(scores: Sequence[BigFive]) -> dict[str, tuple[float, float]]:
    """Per-trait (mean, population standard deviation)."""
    if not scores:
        raise PipelineError("cannot summarize an empty score list")
    n = len(scores)
    out: dict[str, tuple[float, float]] = {}
    for trait, values in zip(TRAITS, zip(*scores)):
        mean = fsum(values) / n
        out[trait] = (mean, sqrt(fsum((v - mean) ** 2 for v in values) / n))
    return out


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def save_model(model: MappingModel, path) -> None:
    """Versioned JSON, floats at 17 significant digits (exact round-trip)."""
    lines = ["{"]
    lines.append(f'  "format_version": {MODEL_FORMAT_VERSION},')
    names = json.dumps(list(model.category_names), ensure_ascii=False)
    lines.append(f'  "category_names": {names},')
    w_rows = ",\n".join(
        "    [" + ", ".join(_fmt17(v) for v in row) + "]" for row in model.W
    )
    lines.append('  "W": [\n' + w_rows + "\n  ],")
    lines.append('  "b": [' + ", ".join(_fmt17(v) for v in model.b) + "],")
    lines.append(f'  "lambda": {_fmt17(model.ridge_lambda)},')
    lines.append(f'  "n_train": {model.n_train}')
    lines.append("}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MappingModel:
    """Read save_model output; a malformed file raises InputFormatError naming path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as err:  # invalid JSON or UTF-8, or nested too deeply
        raise InputFormatError(f"{path}: not a model file: {err}") from None

    def bad(problem: str) -> InputFormatError:
        return InputFormatError(f"{path}: {problem}")

    if not isinstance(doc, dict):
        raise bad("a model file holds one JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise bad(f"unsupported model format_version {doc.get('format_version')!r}")
    missing = [key for key in ("category_names", "W", "b", "lambda", "n_train") if key not in doc]
    if missing:
        raise bad(f"model lacks {', '.join(missing)}")
    names, W, b = doc["category_names"], doc["W"], doc["b"]
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise bad("category_names must be a list of strings")
    if not (_finite_rows(W, len(names), len(TRAITS)) and _finite_rows([b], 1, len(TRAITS))):
        raise bad(f"W must be {len(names)} x {len(TRAITS)} and b {len(TRAITS)} finite numbers")
    if not (_finite(doc["lambda"]) and doc["lambda"] >= 0):
        raise bad("lambda must be a finite number >= 0")
    if not (type(doc["n_train"]) is int and doc["n_train"] >= 0):
        raise bad("n_train must be a non-negative integer")
    return MappingModel(
        category_names=tuple(names),
        W=tuple(tuple(float(v) for v in row) for row in W),
        b=tuple(float(v) for v in b),
        ridge_lambda=float(doc["lambda"]),
        n_train=doc["n_train"],
    )


def _finite(value) -> bool:
    """A JSON number within float range, not NaN or infinite (bools are not numbers)."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _finite_rows(rows, n_rows: int, n_cols: int) -> bool:
    """rows is an n_rows x n_cols list of lists of finite numbers."""
    return (
        isinstance(rows, list)
        and len(rows) == n_rows
        and all(isinstance(row, list) and len(row) == n_cols and all(map(_finite, row)) for row in rows)
    )


def write_scores_csv(scores: Sequence[tuple[str, BigFive]], path) -> None:
    """CSV 'user_id,O,C,E,A,N' with 6-decimal scores: report's scores.csv."""
    from .tables import scores_table  # tables imports this module

    scores_table(scores).write_csv(path)


def read_scores_csv(path) -> list[tuple[str, BigFive]]:
    """Read a score (or labels) CSV; a malformed row or repeated user_id raises InputFormatError naming path:line."""
    header, rows = read_csv(path)
    if header != ["user_id", *TRAITS]:
        raise InputFormatError(f"{path}: not a score CSV (header {','.join(header)!r})")
    # float refuses a non-numeric score, BigFive a non-finite one
    parsed = read_keyed_rows(path, header, rows, lambda cells: BigFive(*map(float, cells[1:])))
    return list(parsed.items())
