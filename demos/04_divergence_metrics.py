"""Measuring how far a federated model drifts from a centralized one.

Trains a centralized reference and three increasingly data-starved variants
on synthetic blobs, then compares each against the reference with the two
layer-wise divergence measures: averaged cosine similarity over weight
fibers (1.0 = identical direction) and relative Euclidean distance
(0.0 = identical).  Also shows the checkpoint format the comparison
normally reads from disk.

Run:  python3 demos/04_divergence_metrics.py
"""

import os
import tempfile

import numpy as np

from semifl import checkpoint, cli, data, metrics, nn


def train(examples, seed, epochs):
    """An mlp trained on a shard: rows of its source set."""
    model, _ = nn.train_local_with_loss(nn.init_model("mlp", 0), examples.source.images,
                                        examples.rows, examples.labels, epochs=epochs,
                                        batch_size=20, learning_rate=0.05,
                                        rng=np.random.default_rng(seed))
    return model


def main():
    full = data.generate_synthetic(classes=10, per_class=80, seed=0)
    everything = full.shard(np.arange(len(full)))
    reference = train(everything, seed=1, epochs=8)

    variants = {
        "all 10 classes": everything,
        "5 classes": full.shard(np.flatnonzero(full.labels < 5)),
        "1 class": full.shard(np.flatnonzero(full.labels == 3)),
    }
    print(f"{'subject':>16}  {'fc1 acs':>8}  {'fc1 red':>8}")
    for name, subset in variants.items():
        model = train(subset, seed=2, epochs=8)
        acs, red = metrics.layer_divergence(model, reference)["fc1"]
        print(f"{name:>16}  {acs:>8.3f}  {red:>8.3f}")

    # the same comparison straight from checkpoint files
    with tempfile.TemporaryDirectory() as tmp:
        ref_path = os.path.join(tmp, "reference.sfl1")
        sub_path = os.path.join(tmp, "subject.sfl1")
        checkpoint.save_checkpoint(reference, ref_path)
        checkpoint.save_checkpoint(train(variants["1 class"], seed=2, epochs=8), sub_path)
        argv = ["compare", "--subject", sub_path, "--reference", ref_path]
        print("\n$ semifl " + " ".join(argv))
        cli.main(argv)
        print(f"\ncheckpoint size on disk: {os.path.getsize(ref_path)} bytes")


if __name__ == "__main__":
    main()
