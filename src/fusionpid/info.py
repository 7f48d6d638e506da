"""Joint distributions, weighted triple datasets and their empirical joints,
and every information term of a joint from one table of its entropies, in bits."""

from dataclasses import dataclass

import numpy as np

from .label_space import MAX_LABELS

MASS_TOL = 1e-9


class DistributionError(ValueError):
    pass


class Joint3:
    """Joint distribution p(y1, y2, y) on a shared support of size n. Cells down to -MASS_TOL are admitted
    as rounding: they are set to zero and the rest rescaled to total 1. Any other mass is kept as given."""

    def __init__(self, mass):
        self.mass = np.asarray(mass, dtype=float)
        if self.mass.ndim != 3 or len(set(self.mass.shape)) != 1:
            raise DistributionError("Joint3 mass must be a cube")
        if not np.all(np.isfinite(self.mass)):
            raise DistributionError("non-finite probability mass")
        if np.any(self.mass < -MASS_TOL):
            raise DistributionError("negative probability mass")
        total = float(self.mass.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise DistributionError(f"total mass {total} != 1")
        if self.mass.min() < 0:
            self.mass = np.maximum(self.mass, 0.0)
            self.mass /= self.mass.sum()

    @property
    def size(self):
        return self.mass.shape[0]

    def to_json(self):
        return {"size": self.size, "mass": [float(v) for v in self.mass.ravel()]}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "size" not in obj or "mass" not in obj:
            raise DistributionError("a joint must be a JSON object with 'size' and 'mass'")
        n = obj["size"]
        # a JSON integer (not a bool) that a label space could have produced
        if type(n) is not int or not 1 <= n <= MAX_LABELS:
            raise DistributionError(f"size must be an integer in [1, {MAX_LABELS}], got {n!r}")
        if not isinstance(obj["mass"], list):
            raise DistributionError("mass must be an array of numbers")
        # JSON numbers only, not bools, as for `size`: asarray would read true as 1.0 and "0.125" as 0.125
        bad = [v for v in obj["mass"] if type(v) not in (int, float)]
        if bad:
            raise DistributionError(f"mass entries must be numbers, got {bad[0]!r}")
        mass = np.asarray(obj["mass"], dtype=float)
        if mass.size != n**3:
            raise DistributionError(f"mass array has {mass.size} entries, expected {n**3}")
        return cls(mass.reshape(n, n, n))


@dataclass
class TripleDataset:
    """Weighted samples (y1, y2, y) over a shared label space.

    samples: (N, 3) label indices, stored as a C-contiguous uint8 array (a
    space holds at most MAX_LABELS = 32 labels, so an index fits one byte and
    a row three; counting the joint reads a third of the bytes int64 rows
    would take); weights: (N,) positive numbers, kept as given when integers
    (a sampled dataset's draw counts) and cast to float otherwise.
    """

    space: object
    samples: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = self.space.size
        if n > MAX_LABELS:  # an index must fit the uint8 cast below
            raise DistributionError(f"label space has {n} labels, more than the {MAX_LABELS} supported")
        self.samples = np.asarray(self.samples)
        weights = np.asarray(self.weights)  # integer counts stay exact above 2^53
        self.weights = weights if weights.dtype.kind in "iu" else np.asarray(self.weights, dtype=float)
        shape_ok = self.samples.shape[1:] == (3,) and self.weights.shape == self.samples.shape[:1]
        if not shape_ok or self.samples.dtype.kind not in "iu":
            raise DistributionError("samples must be an (N, 3) integer array and weights an (N,) array")
        if len(self.weights):
            # reductions, not (N,)-sized masks; the minimum of weights with a NaN is NaN, which fails `> 0`
            if not self.weights.min() > 0:
                raise DistributionError(f"nonpositive weight {self.weights[np.argmin(self.weights > 0)]}")
            if self.samples.min() < 0 or self.samples.max() >= n:
                raise DistributionError(f"index out of range for space of size {n}")
        self.samples = np.ascontiguousarray(self.samples, np.uint8)


def empirical_joint(data, smoothing=0.0):
    """Weighted empirical joint over (y1, y2, y), optionally add-lambda smoothed.

    The uint8 rows are coded y1 n^2 + y2 n + y in one uint16 array (n <= 32
    keeps a code below 2^15, two bytes a row) and their weights added with
    `np.add.at`, which sums each cell in row order, as one weighted
    `np.bincount` would, so the joint is the same to the bit; bincount would
    first cast the codes to intp, eight bytes a row.
    """
    if not (np.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(f"smoothing must be finite and nonnegative, got {smoothing}")
    samples = data.samples
    if not len(samples):
        raise DistributionError("empty dataset")
    n = data.space.size
    codes = samples[:, 0].astype(np.uint16)
    codes *= n
    codes += samples[:, 1]
    codes *= n
    codes += samples[:, 2]
    counts = np.zeros(n**3)
    np.add.at(counts, codes, data.weights)
    counts = counts.reshape(n, n, n) + smoothing
    with np.errstate(over="ignore"):  # an infinite total is rejected just below
        total = counts.sum()
    if not np.isfinite(total):
        raise DistributionError(f"smoothed total mass {total} is not finite")
    return Joint3(counts / total)


def information(dist):
    """Information terms of a Joint3, in bits, from its 7 entropies computed in one pass.

    Returns I(Y1;Y), I(Y2;Y), I(Y1;Y|Y2), I(Y2;Y|Y1), I(Y1;Y2;Y) and I(Y1,Y2;Y).
    """
    m = dist.mass
    n = len(m)
    parts = np.concatenate(
        [m.ravel(), m.sum(axis=2).ravel(), m.sum(axis=1).ravel(), m.sum(axis=0).ravel()]
        + [m.sum(axis=(1, 2)), m.sum(axis=(0, 2)), m.sum(axis=(0, 1))]
    )
    xlogx = parts * np.log2(parts, out=np.zeros(len(parts)), where=parts > 0)
    offsets = np.cumsum([0, n**3, n * n, n * n, n * n, n, n])
    h, h12, h1y, h2y, h1, h2, hy = (-np.add.reduceat(xlogx, offsets)).tolist()
    return {
        "i1": h1 + hy - h1y,
        "i2": h2 + hy - h2y,
        "c1": h12 + h2y - h - h2,
        "c2": h12 + h1y - h - h1,
        "ii": (h1 + h2 - h12) - (h1y + h2y - h - hy),
        "total": h12 + hy - h,
    }


def conditional_entropy_output(dist):
    """H(Y | Y1, Y2) = H(Y1, Y2, Y) - H(Y1, Y2) of a Joint3 or its mass cube, in bits."""
    m = dist.mass if isinstance(dist, Joint3) else np.asarray(dist, dtype=float)
    pair, cube = ((x * np.log2(x, out=np.zeros_like(x), where=x > 0)).sum() for x in (m.sum(axis=2), m))
    return float(pair - cube)
