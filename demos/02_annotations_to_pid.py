"""From raw partial annotations to a PID estimate.

Simulates a partial-label study of the AND gate: separate annotators label
each item from modality 1 alone, modality 2 alone, and both together.  The
records are paired into (y1, y2, y) triples by annotator rotation, turned into
an empirical joint, and decomposed.
"""

import io

import numpy as np

from fusionpid.dataset import parse_partial, triples_from_partial
from fusionpid.info import empirical_joint
from fusionpid.label_space import build_label_space
from fusionpid.pid import convert
from fusionpid.synth import GateSpec, canonical_joint, sample

space = build_label_space({"kind": "nominal", "values": ["0", "1"]})
data = sample(canonical_joint(GateSpec("AND")), 5000, seed=11)

rows = ["item_id,annotator_id,condition,label,confidence"]
draws = np.repeat(data.samples, data.weights.astype(int), axis=0)  # one row per draw
for i, (y1, y2, y) in enumerate(draws):
    rows.append(f"item{i:05d},ann1,m1,{y1},4")
    rows.append(f"item{i:05d},ann2,m2,{y2},4")
    rows.append(f"item{i:05d},ann3,both,{y},5")

records = parse_partial(io.StringIO("\n".join(rows)), fmt="csv")
print(f"parsed {len(records)} partial annotation records")

triples = triples_from_partial(records, space, pairing="rotation")
print(f"paired into {len(triples.samples)} (y1, y2, y) triples")

p = empirical_joint(triples)
print("empirical joint mass:")
print(p.mass.round(4))

res = convert(triples)
print()
print(f"R  = {res.r:.4f} bits   (analytic 0.3113)")
print(f"U1 = {res.u1:.4f} bits")
print(f"U2 = {res.u2:.4f} bits")
print(f"S  = {res.s:.4f} bits   (analytic 0.5)")
print(f"consistency identities passed: {res.consistency['passed']}")
