"""Training of Boolean/ternary readout masks on a simulated optical
reservoir, with the full benchmark and stability protocols."""

from .baselines import RidgeModel, lambda_sweep, ridge_eval, ridge_fit, ridge_predict
from .errors import (ConfigError, DataError, FormatError, InvalidPlaneError,
                     NumericalError, ShapeError, UsageError)
from .harness import (BatchReadout, ExperimentConfig, HeaderTask, MnistTask,
                      StabilityReport, consistency, derive_seed,
                      epochs_to_convergence, make_task_batches, run_alpha_scan,
                      run_comparison, run_header_task, run_stability)
from .optimizer import (EpochRecord, Metrics, TrainConfig, TrainResult, evaluate,
                        history_to_csv, midpoint_threshold, n_mirrors, nmse,
                        propose, result_to_json, train)
from .readout import (BooleanPlane, DetectorModel, TernaryMask, compose, decompose,
                      detect_batch, mask_from_json, mask_to_grid, mask_to_json,
                      random_mask, readout_batch)
from .substrate import (Substrate, SubstrateConfig, advance_drift, build_substrate,
                        circle_mask, forward_batch, states_matrix)
from .tasks import (DigitDataset, HeaderSpec, LabeledBatch, binarize, load_batch,
                    load_mnist, make_glyph_dataset, make_header_batch,
                    make_onevsall_batch, render_header, save_batch,
                    write_idx_images, write_idx_labels)

__version__ = "0.1.0"
