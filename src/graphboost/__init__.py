"""Gradient-boosted multi-scale graph models for transductive node
classification, with online weak-learning diagnostics and every matching
optimization, complexity, and generalization bound."""

from .aggregate import (AlignmentConfig, Polynomial, fit_kta, fixed,
                        injection, kta)
from .boost import (AggregatorSpec, AllRoundsRejected, BoostConfig,
                    EnsembleModel, FineTuneConfig, StageRecord, WlcParams,
                    fine_tune, load_model, model_from_json, model_to_json,
                    predict, replay_scores, run_functional_gb, run_samme,
                    save_model, stage_inputs, stage_representations,
                    wlc_fit)
from .data import (DataError, NodeDataset, Split, export_dataset,
                   load_planetoid, one_hot, partition_constants,
                   random_partition, row_normalize, synthesize_two_block)
from .graph import (GraphError, PropagationMatrix, SparseGraph,
                    base_operator, eigendecompose, operator_norm,
                    read_edge_list)
from .losses import (class_ids, errors, margin_loss, sigmoid, sigmoid_ce,
                     softmax, softmax_ce, surrogate, surrogate_grad)
from .mlp import (MlpParams, TrainConfig, TrainingDiverged, backward,
                  fit_classifier, fit_to_gradient, forward, init_mlp,
                  max_column_l1, project_l1_columns)
from .theory import (ComplexityConstants, NumericalError, SpectralTrajectory,
                     build_theory_report, generalization_bound,
                     mc_transductive_rademacher, optimization_bound,
                     rademacher_bound, smoothing_report,
                     wlc_complexity_lower_bound)

__version__ = "0.1.0"
