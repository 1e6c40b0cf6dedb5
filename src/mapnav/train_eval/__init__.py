from .dataset import (TrainingRecord, build_dataset, build_episode_records,
                      generate_split, generate_splits, load_records, save_records)
from .training import assemble_batch, batch_loss, train
from .metrics import (NavMetrics, aggregate_nav, compute_map_metrics,
                      compute_pcw, episode_metrics, PCW_RADIUS)
from .evaluate import (evaluate_episode, evaluate_map_quality,
                       evaluate_navigation, make_predictor, write_metrics_csv)
from .ablations import (METRIC_COLUMNS, TAU_SWEEP, VARIANTS,
                        evaluate_checkpoint, format_table, run_suite,
                        summarize, train_variants, variant_config,
                        write_report)
