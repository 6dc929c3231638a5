"""Compositional HOI learning on synthetic desk-scale worlds.

Compose verb features with object features to mint labeled interaction samples,
train a shared multi-label classifier on real and composed batches, and measure
zero-shot detection and object-affordance recognition against exact synthetic
ground truth.
"""
from .affordance import AffordanceBank, AffordanceScores, build_bank, recognize, recognize_objects
from .evaluation import (EvalReport, PRF1, SplitSpec, affordance_map, affordance_prf1,
                         average_precision, iou, make_split, map_report, match_detections)
from .nn import GradReport, MLPParams, bce_loss, grad_check, init_params, mlp_backward, mlp_forward, sgd_step
from .pipeline import (HOIModel, TrainConfig, TrainingDiverged, TrainResult, baseline_config,
                       compose_batch, load_checkpoint, make_spatial_pattern, predict_dataset,
                       save_checkpoint, total_loss, train)
from .seeding import per_instance_rng, stream_seed, substream
from .synth import (HOIInstance, ObjectInstance, WorldSpec, gen_dataset, gen_world,
                    load_instances, sample_hoi_instance, sample_object_instance, save_instances)
from .taxonomy import (Taxonomy, build_cooccurrence, compose_label, decouple_object,
                       decouple_verb, is_valid_pair, one_hot)
from .experiments import TrendReport, TrendSettings, reproduce_trends

__version__ = "0.1.0"

