"""Krippendorff's alpha and confidence summaries for annotation quality."""

from dataclasses import dataclass

import numpy as np

from .dataset import Codes, _levels  # _levels: for the records form, read by perfbench/test_perfbench.py
from .label_space import number

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
        unit, code = np.asarray(self.unit), np.asarray(self.code)
        if unit.ndim != 1 or code.shape != unit.shape or unit.dtype.kind not in "iu" or code.dtype.kind not in "iu":
            raise AgreementError("unit and code must be 1-D integer arrays of equal length")
        # reductions, not (N,)-sized masks
        if len(unit) and (unit.min() < 0 or unit.max() >= self.units):
            raise AgreementError(f"unit index out of range for {self.units} units")
        if len(code) and (code.min() < 0 or code.max() >= len(self.categories)):
            raise AgreementError(f"category code out of range for {len(self.categories)} categories")
        # in range, so intp holds them (np.bincount refuses uint64); no copy of intp arrays
        self.unit, self.code = unit.astype(np.intp, copy=False), code.astype(np.intp, copy=False)
        if not (np.bincount(self.unit, minlength=self.units) >= 2).any():
            raise AgreementError("no item has 2 or more ratings")


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


def _categories(values):
    """Each value's category, one value per category and, if all are finite numbers, their numbers.

    Values that all read as numbers (`label_space.number`: not bools, nor
    text with "_" or non-ASCII digits) sort and merge by number, so 5, 5.0,
    "5" and " 5" are one category; other values by value, bools apart from numbers (True == 1).
    """
    numeric = np.array([number(v) for v in values], float)  # NaN for a value that is no number
    if np.isfinite(numeric).all():
        rank = np.argsort(numeric, kind="stable")
        ordered = numeric[rank]
        first = np.r_[True, ordered[1:] != ordered[:-1]]
        x = ordered[first]
    else:
        keys = [(v, isinstance(v, (bool, np.bool_))) for v in values]
        try:
            rank = np.array(sorted(range(len(values)), key=keys.__getitem__))
        except TypeError:
            kinds = sorted({type(v).__name__ for v in values})
            raise CategoryError(f"labels of types {kinds} cannot be ordered together") from None
        ordered = [keys[i] for i in rank]
        first = np.array([True] + [a != b for a, b in zip(ordered, ordered[1:])])
        x = None
    distinct = [values[i] for i in rank[first]]
    return (np.cumsum(first) - 1)[np.argsort(rank)], distinct, x


def krippendorff_alpha(r):
    """alpha = 1 - D_o / D_e of `Ratings` r, from per-unit sums.

    Units with fewer than 2 ratings are excluded; unit u's m_u ratings pair
    with weight 1 / (m_u - 1) (Krippendorff, "Computing Krippendorff's
    alpha-reliability", 2011). Of u's ordered pairs, m_u^2 - sum_c N[u, c]^2
    differ (nominal; N[u, c] counts category c in u), and their squared
    differences sum to 2 (m_u sum x^2 - (sum x)^2) (interval, ordinal); D_e
    takes the same sums over all pairable ratings. Memory grows with the
    ratings, not with pairs or categories.

    Only this function decides what a category is. The values present sort
    and merge by number when all read as numbers (`label_space.number`; "-3"
    before "-1"; 5, 5.0 and "5" one category), else by value (equal values,
    such as labels with one index in a label space, one category); values
    that cannot be sorted together raise CategoryError. x is the numbers
    (interval) or the mid-ranks x_c = sum_{g<=c} t_g - t_c / 2 of the
    category totals t (ordinal), whose differences give Krippendorff's
    ordinal distance. Alpha is unchanged by affine maps of x, so x is scaled
    into [-1, 1] and any finite label works. Alpha is None when every
    pairable value is identical (D_e = 0, undefined).
    """
    per_unit = np.bincount(r.unit, minlength=r.units)
    pairable = per_unit >= 2
    n_pairable = int(pairable.sum())
    kept = np.flatnonzero(pairable[r.unit])  # index gathers cost less than boolean masks
    code = r.code[kept]
    present = np.flatnonzero(np.bincount(code, minlength=len(r.categories)))  # sorted, without np.unique's hashing
    merged, cats, x = _categories([r.categories[c] for c in present.tolist()])
    if r.metric == "interval" and x is None:
        raise CategoryError(f"the interval metric needs numeric labels, got {cats}")
    k = len(cats)
    category = np.empty(len(r.categories), np.intp)
    category[present] = merged
    unit = (np.cumsum(pairable) - 1)[r.unit[kept]]
    # the nonzero entries of N, as (unit, category) cells sorted by unit, then by category
    cells, count = np.unique(unit * k + category[code], return_counts=True)
    cell_unit, cell_category = np.divmod(cells, k)
    m, n = per_unit[pairable], len(code)
    totals = np.bincount(cell_category, count, k)
    if r.metric == "nominal":
        within = m**2 - np.bincount(cell_unit, count**2, n_pairable)
        among = n**2 - float(totals @ totals)
    else:
        if r.metric == "ordinal":
            x = np.cumsum(totals) - totals / 2.0  # mid-ranks
        x = x / (np.abs(x).max() or 1.0)  # alpha is unchanged by affine maps of x; in [-1, 1] no square overflows
        lowest = cell_category[np.r_[True, cell_unit[1:] != cell_unit[:-1]]]  # of each unit
        y = x[cell_category] - x[lowest][cell_unit]  # exactly 0 throughout a unit whose ratings agree
        within = m * np.bincount(cell_unit, count * y * y, n_pairable)
        within -= np.bincount(cell_unit, count * y, n_pairable) ** 2
        y = x - float(totals @ x) / n  # less the mean, so that the two terms do not cancel
        among = n * float(totals @ (y * y)) - float(totals @ y) ** 2
    d_o, d_e = float(within @ (1.0 / (m - 1))) / n, among / (n * (n - 1))
    return AlphaResult(None if d_e == 0.0 else 1.0 - d_o / d_e, r.units, n_pairable)


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

    Units are the items rated here; `krippendorff_alpha` decides which
    category values are equal.
    """
    if callable(value):  # the records form; its one reader is perfbench/test_perfbench.py
        rows = list(rows)
        value = Codes(*_levels([value(r) for r in rows]))
        rows = np.unique([r.item_id for r in rows], return_inverse=True)[1]
    rated = np.bincount(rows) > 0
    return Ratings(int(rated.sum()), (np.cumsum(rated) - 1)[rows], value.codes, value.levels, metric)
