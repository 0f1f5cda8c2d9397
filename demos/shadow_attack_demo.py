"""Reconstruction attack on a small MLP with a learned reconstructor network.

The informed adversary holds the fixed training set and the exact training
recipe (including seeds). It trains shadow models, one per candidate point,
and fits a reconstructor that maps released parameters back to the unknown
input. Success is judged against the nearest-neighbor oracle: the best
possible guess that ignores the released model.

Runs in well under a minute at this scale.
"""

import time

import numpy as np

from reconlab import metrics, nn, shadow
from reconlab.data import SplitSpec, split, synth_classification

t0 = time.time()
pool = synth_classification(d=32, num_classes=10, n=1200, cluster_std=0.15, seed=3)
fixed, shadow_pool, targets = split(pool, SplitSpec(200, 500, 20, split_seed=5))
arch = nn.MlpArchitecture((32, 8, 10), activation="elu")
config = nn.TrainConfig(epochs=25)

print(f"training {len(shadow_pool)} shadow models ...")
models = shadow.gen_shadow_models(fixed, shadow_pool, arch, config)

featurizer = shadow.Featurizer("whitebox")
shadow_set = shadow.build_shadow_set(models, shadow_pool, featurizer)
reconstructor = shadow.train_reconn(shadow_set, shadow.RecoNNConfig(epochs=80, seed=7))

released = shadow.train_many(fixed, targets, arch, [config] * len(targets))
mses = shadow.attack_errors(reconstructor, released, targets.X)
oracle = metrics.oracle_report(targets.X, np.vstack([fixed.X, shadow_pool.X]))

print(f"mean attack MSE      {np.mean(mses):.4f}")
print(f"nearest-neighbor MSE {oracle.mean_nn_distance:.4f}")
print(f"attack beats oracle: {np.mean(mses) < oracle.mean_nn_distance}")
print(f"done in {time.time() - t0:.0f}s")
