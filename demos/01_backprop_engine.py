"""Tour of the plain-numpy network engine.

Builds the two supported architectures, verifies the analytic gradients
against a finite-difference oracle, then trains a small MLP on synthetic
digit-like blobs to show that the engine actually learns something.

Run:  python3 demos/01_backprop_engine.py
"""

import numpy as np

from semifl import data, metrics, nn


def main():
    for arch in ("mlp", "cnn"):
        model = nn.init_model(arch, seed=0)
        count = sum(l.weights.size + l.bias.size for l in model.layers)
        print(f"{arch}: {count} parameters, "
              f"layers {[l.name for l in model.layers]}")

    # gradient check on shrunken models (cheap, still covers every layer kind);
    # the engine reads every shape from the weights, so any consistent shapes run
    rng = np.random.default_rng(7)

    def layer(name, shape):
        return nn.LayerParams(name, rng.uniform(-0.5, 0.5, shape).astype(np.float32),
                              np.zeros(shape[0], dtype=np.float32))

    tiny_mlp = nn.pack("mlp", [layer("fc1", (5, 12)), layer("fc2", (10, 5))])
    err = nn.grad_check(tiny_mlp, rng.random((4, 12)).astype(np.float32),
                        rng.integers(0, 10, 4))
    print(f"mlp grad check: max relative error {err:.2e}")

    # 16x16 images: conv 12x12, pool 6x6, conv 2x2, pool 1x1, so fc3 reads 3 maps
    tiny_cnn = nn.pack("cnn", [layer("conv1", (2, 1, 5, 5)), layer("conv2", (3, 2, 5, 5)),
                               layer("fc3", (4, 3)), layer("fc4", (10, 4))])
    err = nn.grad_check(tiny_cnn, rng.random((2, 1, 16, 16)).astype(np.float32),
                        rng.integers(0, 10, 2), step=1e-4)
    print(f"cnn grad check: max relative error {err:.2e}")

    # learn a 10-class synthetic problem
    train = data.generate_synthetic(classes=10, per_class=60, seed=3)
    test = data.generate_synthetic(classes=10, per_class=20, seed=4)
    model = nn.init_model("mlp", 5)
    before = metrics.evaluate_accuracy(model, test.images, test.labels)
    model, loss = nn.train_local_with_loss(model, train.images, np.arange(len(train)),
                                           train.labels, epochs=8, batch_size=20,
                                           learning_rate=0.05, rng=np.random.default_rng(6))
    after = metrics.evaluate_accuracy(model, test.images, test.labels)
    print(f"synthetic blobs: accuracy {before:.2f} -> {after:.2f} "
          f"(mean step loss {loss:.3f})")


if __name__ == "__main__":
    main()
