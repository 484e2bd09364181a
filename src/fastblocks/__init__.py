"""fastblocks: efficient CNN building blocks with verified gradients.

From-scratch numpy implementations of partial/pointwise convolution,
FasterNet-style blocks and normalization-based attention, with exact backward
passes, a finite-difference gradient checker, a static parameter/FLOP
analyzer with a measured multiply-accumulate cross-check, detection metrics
(IoU, greedy matching, 101-point AP, mAP), a small model-config dialect, and
a demo training loop.
"""

from .attention import nam_weights
from .blocks import (
    FasterNetBlockSpec,
    PConvSpec,
    PWConvSpec,
    init_params,
    pconv,
    pconv_grad,
    pwconv,
    pwconv_grad,
)
from .complexity import (
    ComplexityReport,
    DiffReport,
    LayerCost,
    analyze_graph,
    compare_reports,
    conv_flops,
    pconv_cost,
)
from .config import (
    GraphSpec,
    LayerNode,
    load_model_config,
    parse_model_config,
    propagate_shapes,
    serialize_model_config,
)
from .errors import DegenerateInputError, ParseError, TrainingDiverged, ValidationError
from .gradcheck import GradCheckFailure, GradReport, gradcheck, standard_suite
from .metrics import (
    Annotations,
    BBox,
    Detection,
    EvalResult,
    GroundTruth,
    average_precision,
    evaluate,
    iou,
    load_detections,
    load_ground_truths,
    match_detections,
    pr_curve,
)
from .model import (
    Model,
    TrainRecord,
    build_model,
    run_demo_train,
    softmax_cross_entropy,
    synthetic_dataset,
)
from .tensor_ops import (
    BNParams,
    ConvSpec,
    MacCounter,
    Tensor4,
    batchnorm,
    batchnorm_grad,
    conv2d,
    conv2d_grad,
    count_macs,
    relu,
    relu_grad,
    residual_add,
    sigmoid,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
