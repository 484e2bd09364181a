"""Bit-identity digest of the demo training loop.

For each seed, builds the bundled demo config, runs 5 full-batch training
steps on its synthetic dataset and hashes, in order, each step's loss,
input gradient and parameter gradients (in `Model.params()` key order),
then the eval output of the trained model. It prints one sha256 per seed.
A change meant to keep float64 results bit-identical must print the same
lines before and after it:

    PYTHONPATH=src python tests/digest.py [seed ...]    # default seeds 0-3

Not collected by pytest (the file name does not start with `test_`).
"""

import hashlib
import sys
from importlib.resources import files

import numpy as np

from fastblocks.config import load_model_config
from fastblocks.model import build_model, softmax_cross_entropy, synthetic_dataset

STEPS = 5
LR = 0.05


def digest(seed: int) -> str:
    graph = load_model_config(files("fastblocks") / "configs" / "demo-fasternet-nam.cfg")
    model = build_model(graph, seed=seed)
    x, labels = synthetic_dataset(graph.input_shape, n_samples=256, seed=seed)
    h = hashlib.sha256()
    for _ in range(STEPS):
        logits = model.forward(x, training=True)[:, :, 0, 0]
        loss, dlogits = softmax_cross_entropy(logits, labels)
        h.update(np.float64(loss).tobytes())
        h.update(np.ascontiguousarray(model.backward(dlogits[:, :, None, None])).tobytes())
        for key, grad in model.param_grads().items():
            h.update(key.encode())
            h.update(np.ascontiguousarray(grad).tobytes())
        model.apply_gradients(LR)
    h.update(np.ascontiguousarray(model.forward(x, training=False)).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    for seed in [int(s) for s in sys.argv[1:]] or range(4):
        print(seed, digest(seed))
