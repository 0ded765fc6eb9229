"""Image restoration with composable low-rank experts.

A frozen convolutional encoder-decoder carries the shared clean-image
prior; one low-rank adapter set per degradation type specializes it; a
degradation-aware router scores incoming images against a bank of
degradation embeddings and reallocates weights over the Top-K most similar
experts, so single and mixed corruptions are handled by composing the
right adapters.
"""

from .degradations import (
    DatasetConfig,
    DatasetManifest,
    DegradationSpec,
    apply_degradation,
    gen_clean_image,
    load_manifest,
    make_dataset,
    read_ppm,
    write_ppm,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    LorexError,
    NumericError,
    ShapeError,
)
from .lora import AdaptedLayer, LoraAdapter, adapted_forward, merge_weights
from .metrics import MetricReport, psnr, ssim
from .numerics import GradTape, Tensor, conv2d, finite_difference_check, matmul
from .restorer import (
    RestorerModel,
    TrainConfig,
    build_model,
    forward,
    pretrain_base,
    restore,
    restore_auto,
)
from .router import (
    RouterOutput,
    RouterState,
    build_router,
    encode_degradation,
    predict_with_crop_correction,
    similarity,
    topk_reallocate,
    train_router,
)

__version__ = "0.1.0"
