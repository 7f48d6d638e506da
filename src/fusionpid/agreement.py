"""Krippendorff's alpha and confidence summaries for annotation quality."""

from dataclasses import dataclass

import numpy as np

from .dataset import Codes, _runs

METRICS = ("nominal", "ordinal", "interval")


class AgreementError(ValueError):
    pass


class CategoryError(ValueError):
    """Category values the metric cannot order or measure, such as 1 and "x"."""


@dataclass
class Ratings:
    """Ratings as code arrays: rating k gives unit unit[k] the category categories[code[k]].

    units counts the units, including those with fewer than 2 ratings.
    """

    units: int
    unit: np.ndarray
    code: np.ndarray
    categories: list
    metric: str = "nominal"

    def __post_init__(self):
        if self.metric not in METRICS:
            raise AgreementError(f"metric must be one of {METRICS}")
        if self.units < 2:
            raise AgreementError("need at least 2 items")
        if not (np.bincount(self.unit, minlength=self.units) >= 2).any():
            raise AgreementError("no item has 2 or more ratings")


@dataclass
class RatingsMatrix:
    """item x annotator grid of values; None marks a missing rating."""

    items: list
    annotators: list
    values: list  # values[i][a], aligned with items/annotators
    metric: str = "nominal"

    def __post_init__(self):
        if len(self.values) != len(self.items):
            raise AgreementError("values rows must match items")
        self.ratings()  # raises AgreementError for unusable ratings

    def ratings(self):
        """The grid's ratings as code arrays; equal values are one category."""
        cells = [(u, v) for u, row in enumerate(self.values) for v in row if v is not None]
        index = {}
        code = [index.setdefault(v, len(index)) for _, v in cells]
        unit = np.array([u for u, _ in cells], np.intp)
        return Ratings(len(self.items), unit, np.array(code, np.intp), list(index), self.metric)


@dataclass
class AlphaResult:
    alpha: float  # None when expected disagreement is zero (undefined)
    n_units: int
    n_pairable: int

    def to_json(self):
        return {
            "alpha": self.alpha if self.alpha is not None else "undefined",
            "n_units": self.n_units,
            "n_pairable": self.n_pairable,
        }


def _distances(cats, totals, metric):
    """Pairwise squared distances delta^2 between category values."""
    k = len(cats)
    if metric == "interval":
        try:
            x = [float(c) for c in cats]
        except (TypeError, ValueError):
            raise CategoryError(f"the interval metric needs numeric labels, got {cats}") from None
    d = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if metric == "nominal":
                d[i, j] = 1.0
            elif metric == "interval":
                d[i, j] = (x[i] - x[j]) ** 2
            else:  # ordinal: cumulative-frequency rank distance
                lo, hi = min(i, j), max(i, j)
                span = totals[lo : hi + 1].sum()
                d[i, j] = (span - (totals[i] + totals[j]) / 2.0) ** 2
    return d


def krippendorff_alpha(m):
    """alpha = 1 - D_o / D_e over the coincidence matrix, for `Ratings` or a `RatingsMatrix`.

    Units with fewer than 2 ratings are excluded. The coincidence matrix is
    counted per unit (Krippendorff, "Computing Krippendorff's
    alpha-reliability", 2011): with N[u, c] the count of category c in unit
    u and w_u = 1 / (m_u - 1) for its m_u ratings,
    o = N^T diag(w) N - diag(sum_u w_u N[u]), summed over the pairs of
    nonzero counts within each unit, so memory grows with those pairs and
    not with units x categories. Categories are sorted by value;
    values that cannot be sorted together raise CategoryError. Returns
    AlphaResult with alpha None when every pairable value is identical
    (D_e = 0, undefined).
    """
    r = m.ratings() if isinstance(m, RatingsMatrix) else m
    per_unit = np.bincount(r.unit, minlength=r.units)
    pairable = per_unit >= 2
    n_pairable = int(pairable.sum())
    if not n_pairable:
        raise AgreementError("no unit has 2 or more ratings")
    kept = pairable[r.unit]
    present = np.unique(r.code[kept])
    values = [r.categories[c] for c in present.tolist()]
    try:
        rank = sorted(range(len(values)), key=values.__getitem__)
    except TypeError:
        kinds = sorted({type(v).__name__ for v in values})
        raise CategoryError(f"labels of types {kinds} cannot be ordered together") from None
    cats = [values[i] for i in rank]
    k = len(cats)
    category = np.empty(len(r.categories), np.intp)
    category[present[rank]] = np.arange(k)
    unit = (np.cumsum(pairable) - 1)[r.unit[kept]]
    # the nonzero entries of N, as (unit, category) cells sorted by unit
    cells, count = np.unique(unit * k + category[r.code[kept]], return_counts=True)
    cell_unit, cell_category = np.divmod(cells, k)
    # every ordered pair (a, b) of one unit's cells, a cell with itself included
    nnz = np.bincount(cell_unit, minlength=n_pairable)
    pair_unit, pos = _runs(nnz**2)
    first = (np.cumsum(nnz) - nnz)[pair_unit]
    a, b = first + pos // nnz[pair_unit], first + pos % nnz[pair_unit]
    w = (1.0 / (per_unit[pairable] - 1))[pair_unit]
    weight = w * (count[a] * (count[b] - (a == b)))
    o = np.bincount(cell_category[a] * k + cell_category[b], weight, minlength=k * k).reshape(k, k)
    totals = o.sum(axis=1)
    n = totals.sum()
    d = _distances(cats, totals, r.metric)
    d_e = float((np.outer(totals, totals) * d).sum()) / (n * (n - 1))
    if d_e == 0.0:
        return AlphaResult(alpha=None, n_units=r.units, n_pairable=n_pairable)
    d_o = float((o * d).sum()) / n
    return AlphaResult(alpha=1.0 - d_o / d_e, n_units=r.units, n_pairable=n_pairable)


def mean_confidence(values):
    """Arithmetic mean of confidence ratings (integers in [0, 5])."""
    values = np.asarray(values)
    if not len(values):
        raise AgreementError("empty confidence selection")
    out = int(values.sum()) / len(values)
    if not 0 <= out <= 5:
        raise AgreementError(f"mean confidence {out} outside [0, 5]")
    return out


def matrix_from_records(rows, value, metric="nominal"):
    """Ratings of annotation rows, each rating its item with one category.

    Columnar: `rows` holds each row's item code and `value` is a `Codes`
    column of the rows' categories. Records: `rows` is a sequence of
    records and `value(record)` gives a record's category; they are turned
    into codes and take the same path.

    Units are the items rated here; equal category values (1 and 1.0, or
    two labels with one index in a label space) are one category.
    """
    if callable(value):
        rows = list(rows)
        value = Codes([value(r) for r in rows], np.arange(len(rows)))
        rows = np.unique([r.item_id for r in rows], return_inverse=True)[1]
    rated = np.bincount(rows) > 0
    index = {}
    same = np.array([index.setdefault(v, len(index)) for v in value.levels], np.intp)
    return Ratings(int(rated.sum()), (np.cumsum(rated) - 1)[rows], same[value.codes], list(index), metric)
