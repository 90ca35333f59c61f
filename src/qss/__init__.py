"""Quantisation scale-spaces.

Hierarchical grey-level merging with guaranteed entropy decrease,
combined with spatial sparsification and homogeneous diffusion inpainting
for rate-distortion optimised image compression.
"""

from types import ModuleType as _ModuleType

from .image import (
    DomainError,
    Image,
    LevelPartition,
    Mask,
    entropy,
    level_partition,
    mse,
    total_contrast,
)
from .pgm import PgmError, load_pgm, read_pgm, save_pgm, write_pgm
from .inpainting import InpaintingError, InpaintSolver, inpaint, round_to_grey
from .sparsification import SparsificationPath, probabilistic_sparsify
from .quantisation import (
    MergeStep,
    PathError,
    QuantisationPath,
    apply_path,
    apply_steps,
    sparsification_quant_path,
    uniform_path,
    ward_path,
)
from .scale_space import generate, verify_scale_space, verify_semigroup
from .compression import (
    CostModel,
    InfeasibleBudgetError,
    RateDistortionPoint,
    coding_cost,
    rd_curve,
    rd_optimize,
)

# the names imported above; the submodules that importing binds stay out
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
