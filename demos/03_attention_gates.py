"""The normalization-based attention gates: how batch-norm scale factors
become channel weights, and what the gates do to a feature map."""

import numpy as np

from fastblocks.attention import nam_weights
from fastblocks.layers import NAMChannel, NAMSpatial
from fastblocks.tensor_ops import BNParams


def main() -> None:
    rng = np.random.default_rng(0)

    # Each channel's weight is its |gamma| share of the total, so the
    # weights sum to one and rescaling all gammas changes nothing.
    gamma = np.array([0.1, 0.4, -0.4, 1.1])
    weights = nam_weights(gamma)
    print(f"gamma {gamma} -> weights {np.round(weights, 3)} (sum {weights.sum():.1f})")
    print(f"scale invariance: nam_weights(10*gamma) == nam_weights(gamma): "
          f"{np.array_equal(nam_weights(10 * gamma), weights)}")

    # Channel gate: out = x * sigmoid(weight_c * bn_c(x)). A channel with a
    # large BN scale gets a steep, selective gate; one with a near-zero
    # scale gets a gate pinned at sigmoid(0) = 0.5, a flat half-pass.
    x = rng.standard_normal((4, 4, 8, 8))
    channel_gate = NAMChannel(4)
    channel_gate.bn = BNParams(
        gamma=np.array([2.0, 1.0, 1.0, 0.05]),
        beta=np.zeros(4),
        running_mean=np.zeros(4),
        running_var=np.ones(4),
    )
    out = channel_gate.forward(x, training=True)
    gate = out / x
    print("\nchannel gate range per channel (gamma 2.0, 1.0, 1.0, 0.05):")
    for c in range(4):
        print(f"  channel {c}: gate in [{gate[:, c].min():.3f}, {gate[:, c].max():.3f}]")
    print(f"gate never amplifies: max |out|/|in| = {np.abs(gate).max():.3f} <= 1")

    # Spatial gate: the same construction over the h*w positions of the map.
    x = rng.standard_normal((2, 3, 6, 6))
    spatial_gate = NAMSpatial(6, 6)
    spatial_gate.bn = BNParams(
        gamma=rng.uniform(0.5, 1.5, 36),
        beta=np.zeros(36),
        running_mean=np.zeros(36),
        running_var=np.ones(36),
    )
    out = spatial_gate.forward(x, training=True)
    print(f"\nspatial gate: {x.shape} -> {out.shape}, "
          f"bounded: {bool(np.all(np.abs(out) <= np.abs(x)))}")


if __name__ == "__main__":
    main()
