"""Discrete information measures over two- and three-variable joints, in bits."""

import numpy as np

MASS_TOL = 1e-9

AXES = {"y1": 0, "y2": 1, "y": 2}


class DistributionError(ValueError):
    pass


def _check_mass(mass):
    if not np.all(np.isfinite(mass)):
        raise DistributionError("non-finite probability mass")
    if np.any(mass < -MASS_TOL):
        raise DistributionError("negative probability mass")
    total = float(mass.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise DistributionError(f"total mass {total} != 1")


class Joint2:
    """Joint distribution over two finite variables."""

    def __init__(self, mass):
        self.mass = np.asarray(mass, dtype=float)
        if self.mass.ndim != 2:
            raise DistributionError("Joint2 mass must be 2-dimensional")
        _check_mass(self.mass)


class Joint3:
    """Joint distribution p(y1, y2, y) on a shared support of size n."""

    def __init__(self, mass):
        self.mass = np.asarray(mass, dtype=float)
        if self.mass.ndim != 3 or len(set(self.mass.shape)) != 1:
            raise DistributionError("Joint3 mass must be a cube")
        _check_mass(self.mass)

    @property
    def size(self):
        return self.mass.shape[0]

    def to_json(self):
        return {"size": self.size, "mass": [float(v) for v in self.mass.ravel()]}

    @classmethod
    def from_json(cls, obj):
        n = int(obj["size"])
        mass = np.asarray(obj["mass"], dtype=float)
        if mass.size != n**3:
            raise DistributionError(f"mass array has {mass.size} entries, expected {n**3}")
        return cls(mass.reshape(n, n, n))


def _as_mass(dist):
    if isinstance(dist, (Joint2, Joint3)):
        return dist.mass
    return np.asarray(dist, dtype=float)


def _xlog2x(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    pos = p > 0
    out[pos] = p[pos] * np.log2(p[pos])
    return out


def entropy(dist):
    """Shannon entropy -sum p log2 p, with 0 log 0 = 0."""
    return float(-_xlog2x(_as_mass(dist)).sum())


def mutual_information(dist):
    """I(X1; X2) of a Joint2, in bits."""
    m = _as_mass(dist)
    p1 = m.sum(axis=1)
    p2 = m.sum(axis=0)
    return entropy(p1) + entropy(p2) - entropy(m)


def empirical_joint(data, smoothing=0.0):
    """Weighted empirical joint over (y1, y2, y), optionally add-lambda smoothed."""
    if not (np.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(f"smoothing must be finite and nonnegative, got {smoothing}")
    if not len(data.samples):
        raise DistributionError("empty dataset")
    n = data.space.size
    cells = np.ravel_multi_index(data.samples.T, (n, n, n))
    counts = np.bincount(cells, data.weights, n**3).reshape(n, n, n) + smoothing
    with np.errstate(over="ignore"):  # an infinite total is rejected just below
        total = counts.sum()
    if not np.isfinite(total):
        raise DistributionError(f"smoothed total mass {total} is not finite")
    return Joint3(counts / total)


def marginal_pair(dist, which):
    """Marginalize a Joint3 down to one of its variable pairs."""
    m = _as_mass(dist)
    axis = {"Y1Y": 1, "Y2Y": 0, "Y1Y2": 2}.get(which)
    if axis is None:
        raise ValueError(f"which must be Y1Y, Y2Y or Y1Y2, got {which!r}")
    return Joint2(m.sum(axis=axis))


def conditional_mi(dist, given="y"):
    """I(A; B | C) for a Joint3, where C is the `given` axis and (A, B) the rest.

    Cells with p(c) = 0 contribute 0.
    """
    m = _as_mass(dist)
    c = AXES[given] if isinstance(given, str) else int(given)
    a, b = [ax for ax in (0, 1, 2) if ax != c]
    # I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)
    return (
        entropy(m.sum(axis=b))
        + entropy(m.sum(axis=a))
        - entropy(m)
        - entropy(m.sum(axis=(a, b)))
    )


def interaction_information(dist):
    """I(Y1; Y2; Y) = I(Y1; Y2) - I(Y1; Y2 | Y); may be negative."""
    return mutual_information(marginal_pair(dist, "Y1Y2")) - conditional_mi(
        dist, given="y"
    )


def joint_mi(dist):
    """I(Y1, Y2; Y): MI between the flattened input pair and the output."""
    m = _as_mass(dist)
    n = m.shape[2]
    return mutual_information(m.reshape(-1, n))


def conditional_entropy_output(dist):
    """H(Y | Y1, Y2) of a Joint3, in bits."""
    m = _as_mass(dist)
    return entropy(m) - entropy(m.sum(axis=2))
