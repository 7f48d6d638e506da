"""Canonical ground-truth joints (logic gates) and a seeded sampler."""

from dataclasses import dataclass

import numpy as np

from .dataset import TripleDataset
from .info import Joint3
from .label_space import build_label_space

GATES = ("XOR", "AND", "OR", "COPY", "UNIQUE1", "UNIQUE2")

# dominant PID component of each deterministic gate, for recovery checks
DOMINANT = {"XOR": "s", "AND": "s", "OR": "s", "COPY": "r", "UNIQUE1": "u1", "UNIQUE2": "u2"}


@dataclass(frozen=True)
class GateSpec:
    gate: str
    noise: float = 0.0  # probability of flipping the output label

    def __post_init__(self):
        if self.gate not in GATES:
            raise ValueError(f"unknown gate {self.gate!r}")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError("flip probability must lie in [0, 0.5)")


def canonical_joint(spec):
    """Exact joint p(y1, y2, y) for a binary gate, inputs uniform (COPY: shared bit)."""
    mass = np.zeros((2, 2, 2))
    if spec.gate == "COPY":
        mass[[0, 1], [0, 1], [0, 1]] = 0.5
    else:
        out = {
            "XOR": lambda a, b: a ^ b,
            "AND": lambda a, b: a & b,
            "OR": lambda a, b: a | b,
            "UNIQUE1": lambda a, b: a,
            "UNIQUE2": lambda a, b: b,
        }[spec.gate]
        a, b = np.indices((2, 2))
        mass[a, b, out(a, b)] = 0.25
    if spec.noise > 0:
        mass = (1.0 - spec.noise) * mass + spec.noise * mass[:, :, ::-1]
    return Joint3(mass)


def gate_space(n=2):
    return build_label_space({"kind": "nominal", "values": [str(i) for i in range(n)]})


def sample(p, count, seed):
    """`count` i.i.d. draws from p as one multinomial: a TripleDataset of the
    drawn cells, in C order, each weighted by its number of draws.

    Cells at or below 0 (a Joint3 admits -MASS_TOL) are never drawn and the
    rest are renormalised; a cell drawn 0 times is left out, so the weights
    are the positive int64 counts, summing exactly to `count`.
    """
    if not 1 <= count <= np.iinfo(np.int64).max:  # numpy's multinomial takes an int64 count
        raise ValueError(f"count must lie in [1, 2^63 - 1], got {count}")
    space = gate_space(p.size)  # refuses n > MAX_LABELS before the uint8 cast
    mass = p.mass.ravel()
    support = np.flatnonzero(mass > 0)
    pvals = mass[support]
    counts = np.random.default_rng(seed).multinomial(count, pvals / pvals.sum())
    drawn = counts > 0
    cells = np.stack(np.unravel_index(support[drawn], p.mass.shape), axis=1)
    return TripleDataset(space, cells.astype(np.uint8), counts[drawn])
