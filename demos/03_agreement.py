"""Krippendorff's alpha on annotation matrices.

Shows perfect agreement, a hand-checkable partial-agreement case, the
undefined all-constant case, and how the metric choice changes the score on
ordinal confidence-style ratings.
"""

import numpy as np

from fusionpid.agreement import Ratings, krippendorff_alpha


def grid(rows, metric="nominal"):
    """Ratings of an item x annotator grid: each row is one item's ratings, one category per rating."""
    unit = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    return Ratings(len(rows), unit, np.arange(len(unit)), [v for r in rows for v in r], metric)


perfect = grid([["yes", "yes"], ["no", "no"], ["yes", "yes"], ["no", "no"]])
print(f"unanimous ratings           alpha = {krippendorff_alpha(perfect).alpha}")

partial = grid([["a", "a"], ["a", "a"], ["b", "b"], ["b", "a"]])
print(f"one disagreement in four    alpha = {krippendorff_alpha(partial).alpha:.4f}")

constant = grid([["x", "x"], ["x", "x"]])
print(f"all-constant data           alpha = {krippendorff_alpha(constant).to_json()['alpha']}")

print()
print("metric sensitivity on 0-5 ratings that differ by one step:")
rows = [[3, 4], [4, 4], [2, 3], [5, 5]]
for metric in ("nominal", "ordinal", "interval"):
    print(f"  {metric:<9} alpha = {krippendorff_alpha(grid(rows, metric)).alpha:.4f}")
