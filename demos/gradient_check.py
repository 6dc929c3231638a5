"""Check the hand-rolled MLP gradients against central finite differences.

The classifier is sigmoid(W2 relu(W1 x + b1) + b2) trained with mean-reduced
binary cross-entropy. Both the per-network check and a full composite training
step should sit many orders of magnitude under their tolerances; the script
exits 1 when either worst error is over its tolerance.
"""
import sys

import numpy as np

from hoicompose import gen_dataset, gen_world, grad_check, init_params, one_hot
from hoicompose.pipeline import (
    StepBatch,
    TrainConfig,
    build_matrices,
    compose_batch,
    init_model,
    step_grad_check,
)
from hoicompose.taxonomy import decouple_verb

rng = np.random.default_rng(0)

print("unit check, 20 random layer shapes:")
unit_worst = 0.0
for i in range(20):
    d_in, hidden, k_out = (int(n) for n in rng.integers(1, 33, size=3))
    params = init_params(d_in, k_out, hidden, seed=int(rng.integers(2**31)))
    x = rng.normal(size=d_in)
    t = (rng.random(k_out) < 0.5).astype(float)
    report = grad_check(params, x, t)
    unit_worst = max(unit_worst, report.max_rel_error)
    if i < 5:
        print(f"  d_in={d_in:2d} hidden={hidden:2d} k_out={k_out:2d}"
              f"  max rel error {report.max_rel_error:.3e}")
print(f"worst of 20: {unit_worst:.3e}  (tolerance 1e-4)")

# per-tensor view for one network
params = init_params(6, 4, hidden=8, seed=1)
report = grad_check(params, rng.normal(size=6), np.array([1.0, 0.0, 1.0, 0.0]))
print("\nper-tensor errors:")
for name, err in report.per_param.items():
    print(f"  {name}: {err:.3e}")

# the same agreement must hold through a full training step: both classifiers,
# the composite branch, and the loss weighting all at once
tax, world = gen_world(n_verbs=3, n_objects=2, c_pairs=6, feat_dim=4, seed=0)
train_set, _, external = gen_dataset(world, tax, None, 6, 2, 4, seed=0)
cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=0)
model = init_model(tax, world.feat_dim, cfg)

x_sp, x_hoi, y, _ = build_matrices(train_set[:4], tax, cfg.spatial_resolution)
object_labels = np.stack([one_hot(tax.n_objects, o) for o in external.object_label[:2]])
composites = compose_batch(decouple_verb(train_set.hoi_label[:4], tax), object_labels, tax, 2,
                           np.random.default_rng(0))
batch = StepBatch(
    sp_x=x_sp, sp_y=y, hoi_x=x_hoi, hoi_y=y,
    atl_x=composites.inputs(train_set.verb_feat[:4], external.object_feat[:2]),
    atl_y=composites.labels.astype(float),
)

errors = step_grad_check(model, batch, cfg)
print("\nend-to-end composite step:")
for name, err in sorted(errors.items()):
    print(f"  {name}: {err:.3e}")
e2e_worst = max(errors.values())
print(f"worst: {e2e_worst:.3e}  (tolerance 1e-3)")
if unit_worst > 1e-4 or e2e_worst > 1e-3:
    print("gradient check FAILED", file=sys.stderr)
    sys.exit(1)
