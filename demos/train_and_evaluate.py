"""Train the three-branch model on a small synthetic world and score it.

A scene prediction multiplies four terms: human confidence, object confidence,
the interaction classifier on verb ++ object features, and the spatial
classifier on the two-channel box pattern. Detection quality is IoU-matched
mAP over Full / Rare / NonRare category groups.
"""
from dataclasses import replace

import numpy as np

from hoicompose import TrainConfig, gen_dataset, gen_world, train
from hoicompose.evaluation import map_report
from hoicompose.pipeline import predict_dataset

# keep it quick: a reduced world, still long-tailed
tax, world = gen_world(n_verbs=8, n_objects=10, c_pairs=30, feat_dim=12, seed=0)
train_set, test_set, external = gen_dataset(world, tax, None, 800, 250, 120, seed=0)
print(f"{tax.n_categories} categories, {len(train_set)} train / {len(test_set)} test instances")

# gen_dataset leaves the taxonomy's target counts alone; the realized ones,
# which decide the Rare/NonRare groups, are a column sum of the train labels
realized = train_set.hoi_label.sum(axis=0)
counts = np.sort(realized)[::-1]
print("realized train counts, head to tail:", counts[:6], "...", counts[-6:])

cfg = TrainConfig(iterations=900, hidden=48, spatial_resolution=8, trace_every=150, seed=0)
result = train(train_set, external, tax, cfg)
print("\nloss trace:")
for row in result.trace:
    print(f"  step {row['step']:4d}  L_sp {row['L_sp']:.4f}  L_hoi {row['L_hoi']:.4f}"
          f"  L_ATL {row['L_ATL']:.4f}  total {row['L_total']:.4f}")

# evaluate with perfect detector confidences (s_h = s_o = 1)
preds = predict_dataset(result.model, test_set, tax)
report = map_report(preds, test_set, replace(tax, train_counts=realized))
print("\ndetection mAP:")
for name in ("full", "rare", "nonrare"):
    g = report.groups[name]
    print(f"  {name:>8}: {g['map']:.4f} over {g['n_categories']} categories")

best = max(report.per_category_ap, key=lambda c: (report.per_category_ap[c], c))
v, o = tax.hoi_pairs[best]
print(f"\nbest category: {tax.verb_names[v]} {tax.object_names[o]}"
      f" (AP {report.per_category_ap[best]:.3f})")
