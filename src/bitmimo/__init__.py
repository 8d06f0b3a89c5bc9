"""Bit-limited MIMO radar receiver simulation.

End-to-end pipeline: frequency-domain signal model on a delay-angle grid,
task-based hybrid analog/digital acquisition design under ADC resolution
constraints, dithered uniform quantization, sparse target recovery, and a
deterministic Monte Carlo benchmarking harness with a CLI.
"""

__version__ = "0.1.0"

from .adc import levels_from_budget, quantize_complex_vector, quantize_real
from .combiner import (AcquisitionDesign, design_multitone, equalizing_unitary,
                       load_design, save_design, waterfill)
from .dictionary import (SteeringDictionary, apply_fbar, apply_fbar_adjoint,
                         build_dictionary)
from .harness import (METHODS, ExperimentResult, ExperimentSpec, PointResult,
                      TrialMetrics, run_bilimo_trial, run_noquan_dr_trial,
                      run_noquan_lmmse_trial, run_sweep,
                      run_task_ignorant_trial, write_csv)
from .model import (RadarConfig, TargetScene, load_config, sample_scene,
                    scene_to_sparse_vector)
from .recovery import RecoverySpec, estimate_support, fista, hit_rate, relative_mse
from .statistics import (SignalStatistics, build_compression_matrix,
                         build_covariances, lmmse_transform)
