"""Fluid antenna port-domain channel reconstruction lab.

Simulates clustered-scattering channels observed through port-switched
pilots, trains a from-scratch MLP to reconstruct the full port-domain
channel, and benchmarks it against classical estimators in NMSE-vs-SNR
sweeps.
"""

from .channel_model import (
    ArrayGeometry,
    ScatteringConfig,
    channel_from_rays,
    draw_angles,
    draw_channel,
    steering_vector,
)
from .config import ExperimentConfig, Seeds, desk_profile, paper_profile
from .dataset_pipeline import (
    Dataset,
    Normalizer,
    apply_normalizer,
    fit_normalizer,
    generate_dataset,
    invert_normalizer,
    load_dataset,
    pack_complex,
    save_dataset,
    split,
    unpack_complex,
)
from .baseline_estimators import (
    AngularDictionary,
    build_dictionary,
    ls_observed_estimate,
    omp_estimate,
)
from .mlp_estimator import (
    AdamState,
    Hyperparams,
    MlpParams,
    Normalizers,
    TrainReport,
    adam_step,
    backward,
    count_forward_multiplies,
    count_training_cost,
    ensemble_nmse,
    forward,
    init_params,
    load_model,
    mse_loss,
    nmse_db,
    predict,
    save_model,
    train,
)
from .pilot_system import (
    PilotObservation,
    SwitchSchedule,
    build_switch_matrix,
    noise_variance_for_snr,
    observe,
    random_schedule,
    sequential_schedule,
)

__version__ = "0.1.0"
