"""Federated-learning label-leakage laboratory.

A small, seed-deterministic stack for studying how much a client's shared
gradients reveal about its training labels: a from-scratch neural-network
engine, FedSGD/FedAvg simulation, the LLG family of label-extraction
attacks, gradient-obfuscation defenses, and measurement utilities.
"""

from .attack import (
    AttackParams,
    NoNegativeGradients,
    estimate_impact_shared,
    estimate_params_auxiliary,
    estimate_params_whitebox,
    llg_extract,
    random_guess,
    uniform_params,
)
from .data import (
    ClientDataset,
    CountMismatchError,
    IdxFormatError,
    SyntheticSpec,
    TruncatedFileError,
    WrongMagicError,
    load_idx,
    partition_clients,
    synth_generate,
)
from .defenses import (
    DefenseSpec,
    add_gaussian_noise,
    apply_defense,
    compress,
    dp_clip_and_noise,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    emit_csv,
    format_summary,
    load_config,
    read_csv,
    run_experiment,
)
from .fl import (
    BatchSpec,
    RoundUpdate,
    local_train_fedavg,
    local_train_fedsgd,
    make_batch,
    select_clients,
    server_aggregate,
)
from .labels import LabelMultiset
from .metrics import attack_success_rate, hellinger, pearson, test_accuracy
from .nn import (
    Gradients,
    LastLayerGradient,
    Network,
    cross_entropy_loss,
    mlp,
    output_gradient,
    small_cnn,
    softmax,
)

__version__ = "0.1.0"
