"""Reference values and per-operation checks.

Every expected value is recomputed here with numpy from the benchmark's own
inputs. Nothing calls fusionpid, so a wrong answer cannot pass by agreeing
with the code that produced it. A check returns a list of problems; an empty
list means the operation passed.
"""

import jsonschema
import numpy as np

IDENTITY_TOL = 1e-4  # the program's own consistency tolerance
GATE_TOL = 1e-3  # canonical gate components against their analytic values
EXACT_TOL = 1e-9  # quantities computed from p alone: total MI, alpha

TRACEBACK = "Traceback (most recent call last)"


def _entropy(mass):
    p = mass[mass > 0]
    return float(-(p * np.log2(p)).sum())


def _mi(m2):
    return _entropy(m2.sum(axis=1)) + _entropy(m2.sum(axis=0)) - _entropy(m2)


def identities(p):
    """The sums of PID components that p alone fixes, keyed by expression."""
    n = p.shape[0]
    i1 = _mi(p.sum(axis=1))
    i2 = _mi(p.sum(axis=0))
    total = _mi(p.reshape(-1, n))
    return {
        "total": total,
        "r+u1": i1,
        "r+u2": i2,
        "u1+s": total - i2,
        "u2+s": total - i1,
        "r-s": i1 + i2 - total,
    }


def gate_components(gate, p):
    """Analytic R/U1/U2/S of a (possibly noisy) gate joint p.

    XOR, AND, OR and COPY have identical channels p(y1|y) = p(y2|y), so
    neither input has unique information and R = I(Y1;Y). In UNIQUE1 y2 is
    independent of (y1, y), so R = U2 = S = 0 and U1 = I(Y1;Y); UNIQUE2 is
    the mirror image.
    """
    ref = identities(p)
    if gate == "UNIQUE1":
        return {"r": 0.0, "u1": ref["r+u1"], "u2": 0.0, "s": 0.0}
    if gate == "UNIQUE2":
        return {"r": 0.0, "u1": 0.0, "u2": ref["r+u2"], "s": 0.0}
    return {"r": ref["r+u1"], "u1": 0.0, "u2": 0.0, "s": ref["total"] - ref["r+u1"]}


def component_problems(pid, p=None, gate=None, gate_joint=None, gate_tol=GATE_TOL):
    """Problems with R/U1/U2/S/total in `pid` (a mapping).

    p: the joint the components were computed from; checks the identities.
    gate, gate_joint: checks each component against the analytic value and
    that the gate's largest analytic component is still the largest.
    """
    problems = []
    got = {
        "total": pid["total"],
        "r+u1": pid["r"] + pid["u1"],
        "r+u2": pid["r"] + pid["u2"],
        "u1+s": pid["u1"] + pid["s"],
        "u2+s": pid["u2"] + pid["s"],
        "r-s": pid["r"] - pid["s"],
    }
    if p is not None:
        for key, want in identities(p).items():
            tol = EXACT_TOL if key == "total" else IDENTITY_TOL
            if abs(got[key] - want) > tol:
                problems.append(f"{key} = {got[key]:.6g}, expected {want:.6g}")
    if gate is not None:
        want = gate_components(gate, gate_joint)
        for key, value in want.items():
            if abs(pid[key] - value) > gate_tol:
                problems.append(f"{gate} {key} = {pid[key]:.6g}, analytic {value:.6g}")
        dominant = max(want, key=want.get)
        if max(want, key=lambda k: pid[k]) != dominant:
            problems.append(f"{gate} dominant component {dominant} not preserved")
    return problems


def sampled_gate_tol(count):
    """Tolerance on components estimated from `count` sampled triples: about
    five standard errors of a plug-in information estimate on binary labels."""
    return 5.0 / count**0.5


def alpha(values, size, metric):
    """Krippendorff's alpha of an (units, raters) array of category indices.

    Every unit has every rating. Builds the coincidence matrix in one product
    (Krippendorff 2011); returns None when expected disagreement is zero.
    """
    raters = values.shape[1]
    counts = (values[:, :, None] == np.arange(size)).sum(axis=1).astype(float)
    o = (counts.T @ counts - np.diag(counts.sum(axis=0))) / (raters - 1)
    present = o.sum(axis=1) > 0
    o = o[np.ix_(present, present)]
    tot = o.sum(axis=1)
    n = tot.sum()
    k = len(tot)
    if metric == "nominal":
        d = 1.0 - np.eye(k)
    elif metric == "ordinal":
        cum = np.concatenate([[0.0], np.cumsum(tot)])
        lo = np.minimum.outer(np.arange(k), np.arange(k))
        hi = np.maximum.outer(np.arange(k), np.arange(k))
        d = (cum[hi + 1] - cum[lo] - (tot[:, None] + tot[None, :]) / 2.0) ** 2
        np.fill_diagonal(d, 0.0)
    else:
        raise ValueError(f"unsupported metric {metric!r}")
    d_e = float((np.outer(tot, tot) * d).sum()) / (n * (n - 1))
    if d_e == 0.0:
        return None
    return 1.0 - (float((o * d).sum()) / n) / d_e


def partial_expected(labels, size):
    """Joint under rotation pairing and nominal alpha per condition.

    Set r pairs annotator r's m1 label with annotator r+1's m2 label and
    annotator r+2's both label (cyclically), each triple weight 1.
    """
    m1, m2, both = labels["m1"], labels["m2"], labels["both"]
    raters = m1.shape[1]
    counts = np.zeros(size**3)
    for r in range(raters):
        flat = (m1[:, r] * size + m2[:, (r + 1) % raters]) * size + both[:, (r + 2) % raters]
        counts += np.bincount(flat, minlength=size**3)
    alphas = {c: alpha(labels[c], size, "nominal") for c in ("m1", "m2", "both")}
    return {"joint": (counts / counts.sum()).reshape(size, size, size), "alpha": alphas}


def counterfactual_expected(labels, size):
    """Joint under counterfactual cross-pairing and ordinal alpha per measure.

    Each (first-m1 annotator a, first-m2 annotator b) pair gives y1 = a's
    first label, y2 = b's first label and y = the mean of both revised labels,
    where a half rounds away from the scale midpoint; weight 1 / pairs.
    """
    f1, b1 = labels[("first-m1", "label_first")], labels[("first-m1", "label_both")]
    f2, b2 = labels[("first-m2", "label_first")], labels[("first-m2", "label_both")]
    raters = f1.shape[1]
    mid = (size - 1) / 2.0
    counts = np.zeros(size**3)
    for a in range(raters):
        for b in range(raters):
            twice = b1[:, a] + b2[:, b]
            y = np.where(twice % 2 == 0, twice // 2, np.where(twice / 2.0 >= mid, (twice + 1) // 2, twice // 2))
            flat = (f1[:, a] * size + f2[:, b]) * size + y
            counts += np.bincount(flat, minlength=size**3)
    measures = {"y1": f1, "y1+2": b1, "y2": f2, "y2+1": b2}
    alphas = {name: alpha(v, size, "ordinal") for name, v in measures.items()}
    return {"joint": (counts / counts.sum()).reshape(size, size, size), "alpha": alphas}


def report_problems(returncode, stderr, report, schema, expected):
    """Problems with one `fusionpid convert` run.

    A run fails on a non-zero exit, a raw traceback, a missing report or one
    that fails the report schema, or values that disagree with `expected`.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if TRACEBACK in stderr:
        problems.append("raw traceback on stderr")
    if report is None:
        return problems + ["no report written"]
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return problems + [f"report fails schema: {exc.message}"]
    problems += component_problems(report["pid"], p=expected["joint"])
    for name, want in expected["alpha"].items():
        got = report["agreement"].get(name, {}).get("alpha")
        if want is None:
            if got != "undefined":
                problems.append(f"alpha {name} = {got}, expected undefined")
        elif not isinstance(got, (int, float)) or abs(got - want) > EXACT_TOL:
            problems.append(f"alpha {name} = {got}, expected {want:.12g}")
    return problems
