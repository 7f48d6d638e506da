"""Joint distributions, the empirical joint of a triple dataset, and every
information term of a joint from one table of its entropies, in bits."""

import numpy as np

from .label_space import MAX_LABELS

MASS_TOL = 1e-9


class DistributionError(ValueError):
    pass


class Joint3:
    """Joint distribution p(y1, y2, y) on a shared support of size n."""

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

    @property
    def size(self):
        return self.mass.shape[0]

    def to_json(self):
        return {"size": self.size, "mass": [float(v) for v in self.mass.ravel()]}

    @classmethod
    def from_json(cls, obj):
        n = obj["size"]
        # a JSON integer (not a bool) that a label space could have produced
        if type(n) is not int or not 1 <= n <= MAX_LABELS:
            raise DistributionError(f"size must be an integer in [1, {MAX_LABELS}], got {n!r}")
        # JSON numbers only, not bools, as for `size`: asarray would read true as 1.0 and "0.125" as 0.125
        bad = [v for v in obj["mass"] if type(v) not in (int, float)]
        if bad:
            raise DistributionError(f"mass entries must be numbers, got {bad[0]!r}")
        mass = np.asarray(obj["mass"], dtype=float)
        if mass.size != n**3:
            raise DistributionError(f"mass array has {mass.size} entries, expected {n**3}")
        return cls(mass.reshape(n, n, n))


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
