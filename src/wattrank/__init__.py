"""wattrank: static PTX instruction profiling plus a learned estimator that
ranks GPGPU devices by predicted power and performance before any code runs
on hardware."""

from .dataset_builder import (
    LabeledSample,
    TrainingDataset,
    assemble,
    feature_importance,
    feature_names,
    ingest_run,
    make_sample,
)
from .device_catalog import DeviceSpec, default_catalog, device_to_features, load_catalog
from .errors import WattrankError
from .estimator import (
    MlpModel,
    Prediction,
    TrainConfig,
    fit_linear_baseline,
    forward,
    gradient_check,
    init_model,
    load_model,
    predict,
    save_model,
    train,
)
from .instruction_profiler import (
    InstructionClass,
    InstructionProfile,
    classify_opcode,
    profile,
    profile_to_features,
)
from .ptx_parser import (
    MalformedInstruction,
    PtxDocument,
    parse_ptx,
    parse_ptx_file,
)
from .ranking import RankingEntry, RankingResult, rank_devices, rank_predictions, report
from .telemetry_ingest import (
    PowerTrace,
    RunMeta,
    RunRecord,
    build_run_record,
    mean_power,
    parse_power_csv,
)

__version__ = "0.1.0"
