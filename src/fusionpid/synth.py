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
    """Draw `count` i.i.d. triples from p by inverse-CDF over flattened cells."""
    if count < 1:
        raise ValueError("count must be positive")
    n = p.size
    cdf = np.cumsum(p.mass.ravel())
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    flat = np.searchsorted(cdf, rng.random(count), side="right")
    samples = np.stack(np.unravel_index(flat, (n, n, n)), axis=1)
    return TripleDataset(gate_space(n), samples, np.ones(count))
