"""Compare transfer-on vs transfer-off on a novel-object zero-shot split.

Hold out every category touching 20% of the objects, train twice on the same
data (with and without the composite branch), and read the Unseen group mAP.
The composite branch pairs training verb features with external object
features through the shared interaction classifier, which is the only way the
model ever sees a held-out object during training.
"""
from hoicompose import TrainConfig, gen_dataset, gen_world, train
from hoicompose.evaluation import make_split, map_report
from hoicompose.pipeline import baseline_config, predict_dataset
from hoicompose.seeding import substream

seed = 0
tax, world = gen_world(seed=seed)
split = make_split(tax, "novel-object", rng=substream(seed, "split"))
held_out = sorted(tax.object_names[o] for o in split.unseen_object_ids)
print(f"novel objects: {', '.join(held_out)}")
print(f"unseen categories: {len(split.unseen_hoi_ids)} of {tax.n_categories}")

train_set, test_set, external = gen_dataset(world, tax, split, 1500, 400, 400, seed=seed)

cfg = TrainConfig(iterations=1500, seed=seed)
print("\ntraining with the composite branch ...")
atl = train(train_set, external, tax, cfg)
print(f"  composite examples consumed: {atl.counters['composite_examples']}")
print("training the ablation (no composite branch) ...")
base = train(train_set, [], tax, baseline_config(cfg))

print(f"\n{'group':>8} {'transfer-on':>12} {'transfer-off':>13}")
reports = {}
for name, result in (("on", atl), ("off", base)):
    preds = predict_dataset(result.model, test_set, tax)
    reports[name] = map_report(preds, test_set, tax, split)
for group in ("unseen", "seen", "full"):
    on = reports["on"].groups[group]["map"]
    off = reports["off"].groups[group]["map"]
    print(f"{group:>8} {on:>12.4f} {off:>13.4f}")

on_unseen = reports["on"].groups["unseen"]["map"]
off_unseen = reports["off"].groups["unseen"]["map"]
print(f"\nunseen-category gain: x{on_unseen / off_unseen:.1f}")
