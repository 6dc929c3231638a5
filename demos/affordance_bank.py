"""Recognize what can be done with an object the model never trained on.

The bank stores up to M verb features per verb from the training set. To probe
a new object, pair its feature with every banked entry, run the shared
interaction classifier, and count hits: score_i = F_i / S_i. Verbs scoring
above 1/2 are the object's predicted affordances.
"""
import numpy as np

from hoicompose import TrainConfig, gen_dataset, gen_world, train
from hoicompose.affordance import build_bank, recognize, recognize_objects
from hoicompose.evaluation import affordance_map, affordance_prf1, make_split
from hoicompose.seeding import substream

seed = 1
tax, world = gen_world(seed=seed)
split = make_split(tax, "novel-object", rng=substream(seed, "split"))
train_set, _, external = gen_dataset(world, tax, split, 1200, 100, 200, seed=seed)

cfg = TrainConfig(iterations=1200, seed=seed)
model = train(train_set, external, tax, cfg).model
bank = build_bank(train_set, tax, m=100, seed=seed)
print(f"bank: {bank.total_entries} stored features across {len(bank.entries)} verbs")

novel = external[np.isin(external.object_label, sorted(split.unseen_object_ids))]
labels = novel.object_label.tolist()
print(f"probing {len(novel)} instances of the held-out objects:"
      f" {sorted({tax.object_names[o] for o in labels})}")

# one object in detail
r = recognize(novel.object_feat[0], bank, model, tax)
print(f"\n{tax.object_names[labels[0]]} (never seen in training):")
print(f"{'verb':>8} {'hits':>6} {'stored':>7} {'score':>6}  kept")
for v in np.flatnonzero(r.probed):
    mark = "yes" if r.kept[0, v] else ""
    print(f"{tax.verb_names[v]:>8} {r.hits[0, v]:>6} {r.stored[v]:>7} {r.scores[0, v]:>6.2f}  {mark}")
truth = tax.affordance_matrix()[novel.object_label]
print("ground truth:", sorted(tax.verb_names[v] for v in np.flatnonzero(truth[0])))

# aggregate quality over all novel instances
feats = novel.object_feat
scores = recognize_objects(feats, bank, model, tax)
prf1 = affordance_prf1(scores.kept, truth)
print(f"\nmicro precision {prf1.micro_precision:.3f}"
      f"  recall {prf1.micro_recall:.3f}  F1 {prf1.micro_f1:.3f}")
print(f"affordance mAP {affordance_map(scores.scores, truth):.3f}")

# a much smaller bank barely moves the ranking
small = build_bank(train_set, tax, m=20, seed=seed)
s_small = recognize_objects(feats, small, model, tax).scores
print(f"affordance mAP with M=20: {affordance_map(s_small, truth):.3f}")
