"""Seeded inputs for the benchmark, built with plain numpy.

No fusionpid code runs here, so a change to the program cannot change what
`solve-joints` or the convert workloads feed it. `gates-sampled` is the one
workload whose inputs come from the program (`fusionpid.synth`), because
sampling is the layer it measures; its checks use `gate_joint` below.
"""

import hashlib
import json

import numpy as np

# Joints whose solve time swings by 10x or more between nearby inputs at the
# parent commit (n >= 4, sparse supports) come from this fixed corpus seed, so
# every run solves the same slow and failing cases; dense n = 2, 3 come from
# --seed. Changing it changes the benchmark.
CORPUS_SEED = 20230607

# (class, kind, n, count, from the fixed corpus)
SOLVE_CLASSES = (
    ("dense.n2", "dense", 2, 30, False),
    ("dense.n3", "dense", 3, 30, False),
    ("dense.n4", "dense", 4, 20, True),
    ("dense.n5", "dense", 5, 4, True),
    ("sparse.n3", "sparse", 3, 14, True),
    ("sparse.n4", "sparse", 4, 4, True),
)
SPARSE_SUPPORT = 0.4

GATES = ("XOR", "AND", "OR", "COPY", "UNIQUE1", "UNIQUE2")
GATE_NOISE = 0.05

PARTIAL_LABELS = ("neg", "neu", "pos")
PARTIAL_ANNOTATORS = 3
# probability that an annotator reports the item's true class, per condition
PARTIAL_ACCURACY = {"m1": 0.6, "m2": 0.45, "both": 0.85}

CF_RANGE = (-3, 3)
CF_ANNOTATORS = 2


def digest(*parts):
    """sha256 over byte strings and arrays, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else part)
    return h.hexdigest()[:16]


def gate_joint(gate, noise=0.0):
    """p(y1, y2, y) of a binary gate with uniform inputs and output flip noise."""
    out = {
        "XOR": lambda a, b: a ^ b,
        "AND": lambda a, b: a & b,
        "OR": lambda a, b: a | b,
        "COPY": lambda a, b: a,
        "UNIQUE1": lambda a, b: a,
        "UNIQUE2": lambda a, b: b,
    }[gate]
    mass = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            if gate == "COPY" and a != b:
                continue
            mass[a, b, out(a, b)] = 1.0
    mass /= mass.sum()
    return (1.0 - noise) * mass + noise * mass[:, :, ::-1]


def solve_joints(seed, scale=1.0):
    """The joint list of `solve-joints`: (class, mass, gate or None)."""
    corpus = np.random.default_rng(CORPUS_SEED)
    seeded = np.random.default_rng(seed)
    out = [("gate.n2", gate_joint(g), g) for g in GATES]
    for cls, kind, n, count, fixed in SOLVE_CLASSES:
        rng = corpus if fixed else seeded
        for _ in range(max(1, round(count * scale))):
            mass = rng.exponential(size=(n, n, n))
            if kind == "sparse":
                mass *= rng.random((n, n, n)) < SPARSE_SUPPORT
                if not mass.any():
                    mass[0, 0, 0] = 1.0
            out.append((cls, mass / mass.sum(), None))
    order = seeded.permutation(len(out))
    return [out[i] for i in order]


def _noisy(rng, truth, accuracy, size, count):
    """Labels equal to truth with probability `accuracy`, else uniform."""
    keep = rng.random(truth.shape + (count,)) < accuracy
    other = rng.integers(0, size, truth.shape + (count,))
    return np.where(keep, truth[..., None], other)


def partial_csv(seed, items):
    """Partial-label CSV text plus the integer labels it encodes.

    Every item has PARTIAL_ANNOTATORS annotators ("a0", "a1", ...), each
    labelling it in all three conditions. Returns (text, labels) with
    labels[c] an (items, annotators) array of class indices for condition c.
    """
    rng = np.random.default_rng(seed)
    k = len(PARTIAL_LABELS)
    truth = rng.choice(k, size=items, p=[0.3, 0.4, 0.3])
    labels = {c: _noisy(rng, truth, acc, k, PARTIAL_ANNOTATORS) for c, acc in PARTIAL_ACCURACY.items()}
    confidence = rng.integers(0, 6, (len(labels), items, PARTIAL_ANNOTATORS)).tolist()
    names = PARTIAL_LABELS
    rows = [
        f"i{i:07d},a{a},{cond},{names[lab[i][a]]},{conf[i][a]}"
        for (cond, lab), conf in zip(((c, labels[c].tolist()) for c in labels), confidence)
        for i in range(items)
        for a in range(PARTIAL_ANNOTATORS)
    ]
    order = rng.permutation(len(rows))
    body = "\n".join(rows[j] for j in order)
    text = "item_id,annotator_id,condition,label,confidence\n" + body + "\n"
    return text, labels


def counterfactual_json(seed, items):
    """Counterfactual JSON text on the 7-point scale, plus its label arrays.

    Returns (text, labels) with labels[(order, field)] an (items, annotators)
    array of scale indices (value - CF_RANGE[0]).
    """
    rng = np.random.default_rng(seed)
    lo, hi = CF_RANGE
    size = hi - lo + 1
    truth = np.clip(np.rint(rng.normal(0.0, 1.5, items)), lo, hi) - lo
    spread = {"first-m1": 1.0, "first-m2": 1.3}

    def view(sd):
        noise = rng.normal(0.0, sd, (items, CF_ANNOTATORS))
        return np.clip(np.rint(truth[:, None] + noise), 0, size - 1).astype(int)

    labels = {}
    for order, sd in spread.items():
        labels[(order, "label_first")] = view(sd)
        labels[(order, "label_both")] = view(0.6)
    conf = rng.integers(0, 6, (items, CF_ANNOTATORS, 4)).tolist()
    rows = []
    for oi, order in enumerate(spread):
        first = labels[(order, "label_first")].tolist()
        both = labels[(order, "label_both")].tolist()
        for i in range(items):
            for a in range(CF_ANNOTATORS):
                rows.append(
                    {
                        "item_id": f"i{i:07d}",
                        "annotator_id": f"a{a}",
                        "order": order,
                        "label_first": first[i][a] + lo,
                        "label_both": both[i][a] + lo,
                        "confidence_first": conf[i][a][2 * oi],
                        "confidence_both": conf[i][a][2 * oi + 1],
                    }
                )
    order = rng.permutation(len(rows))
    return json.dumps([rows[j] for j in order]), labels
