"""Recurrent networks with Schur-form connectivity.

The recurrent matrix is V = P (Lambda + T) P^T: the spectrum lives in the
2x2 rotation blocks of Lambda, the non-normal part in the strictly-lower
T, and P is kept orthogonal on its manifold during training.  The package
also ships the analysis side: Fisher memory curves, transient ensembles,
exact polynomial-growth verification, and connectivity diagnostics.
"""

from .schur import (
    SchurParams,
    assemble_theta,
    assemble_v,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .rnn import RnnModel, SequenceBatch, bptt, forward, init_model, modrelu
from .optim import DivergenceError, TrainConfig, train_loop
from .memory import (
    FmcConfig,
    build_theta_family,
    delay_line_fmc_closed_form,
    delay_line_theta,
    ensemble_from_theta,
    fisher_memory_curve,
    fmc_from_theta,
    prop1_bound_check,
    transient_ensemble,
)
from .propcheck import iterate_growth_probe, prop2_matrix, verify_prop2
from .tasks import (
    CharLmSpec,
    CopyTaskSpec,
    char_lm_stream,
    copy_baseline_loss,
    copy_batch,
    copy_stream,
)
from .analysis import connectivity_report

__version__ = "0.1.0"
