"""Walk through the building blocks: conv2d, pconv, pwconv, and the
FasterNet block, with the shape rules and the pconv cost argument."""

import numpy as np

from fastblocks.blocks import FasterNetBlockSpec, PConvSpec, PWConvSpec, init_params, pconv, pwconv
from fastblocks.errors import ValidationError
from fastblocks.layers import FasterNetBlock
from fastblocks.tensor_ops import ConvSpec, conv2d


def main() -> None:
    rng = np.random.default_rng(0)

    # --- conv2d: output size is (h + 2p - k) / s + 1, and it must divide exactly
    x = rng.standard_normal((1, 3, 32, 32))
    spec = ConvSpec(c_in=3, c_out=16, k=3, stride=1, padding=1)
    kernel, bias = init_params(spec, rng)
    y = conv2d(x, kernel, bias, spec)
    print(f"conv2d: {x.shape} -> {y.shape}   (k=3, s=1, p=1 preserves the map)")

    down = ConvSpec(c_in=16, c_out=16, k=2, stride=2, padding=0)
    z = conv2d(y, *init_params(down, rng), down)
    print(f"conv2d: {y.shape} -> {z.shape}   (k=2, s=2: (32-2)/2+1 = 16)")

    # Sizes that do not divide exactly are rejected instead of floored, so
    # config mistakes surface at build time rather than as silent cropping.
    bad = ConvSpec(16, 16, 3, 2, 1)
    try:
        conv2d(y, *init_params(bad, rng), bad)
    except ValidationError as exc:
        print(f"conv2d: k=3, s=2, p=1 on 32x32 rejected: {exc}")

    # --- pconv: convolve the first c_p channels, pass the rest through untouched
    x = rng.standard_normal((1, 8, 16, 16))
    pspec = PConvSpec(c=8, c_p=2, k=3)
    out = pconv(x, init_params(pspec, rng), pspec)
    untouched = np.array_equal(out[:, 2:], x[:, 2:])
    print(f"pconv : {x.shape} -> {out.shape}   channels 2..7 bit-identical: {untouched}")

    # The convolved slab costs c_p^2 k^2 h w MACs vs c^2 k^2 h w for a full
    # conv, so the reduction factor is exactly (c_p/c)^2.
    print(f"pconv : partial ratio {pspec.partial_ratio:.2f}"
          f" -> {pspec.partial_ratio ** 2:.4f} of the FLOPs of a full 3x3 conv")

    # --- pwconv: a 1x1 conv, i.e. a per-pixel linear map across channels
    wspec = PWConvSpec(c_in=8, c_out=4)
    weights, bias = init_params(wspec, rng)
    z = pwconv(x, weights, bias)
    print(f"pwconv: {x.shape} -> {z.shape}   (channel mixing only, h x w untouched)")

    # --- the FasterNet block: x + pwconv(relu(bn(pwconv(pconv(x)))))
    block = FasterNetBlock(FasterNetBlockSpec(c=8, c_p=2, k=3, e=2), rng=rng)
    out = block.forward(x)
    print(f"block : {x.shape} -> {out.shape}   (residual keeps the shape)")

    # Zero the final projection and the block reduces to the identity,
    # which is why stacks of these train stably from the start.
    block.pw2.weight[:] = 0.0
    block.pw2.bias[:] = 0.0
    print(f"block : zeroed last projection -> identity: {np.array_equal(block.forward(x), x)}")


if __name__ == "__main__":
    main()
