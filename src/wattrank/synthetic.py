"""Synthetic workloads and runs with a planted linear ground truth.

Fabricates PTX text per workload (instruction mixes interpolate between a
compute-heavy and a memory-heavy archetype), pairs every workload with each
cataloged device, and emits nvidia-smi-style power CSVs plus run metadata
whose labels realize ``target = planted linear(features) + noise``.  Because
the generated artifacts go through the real parser/profiler/ingest path,
the planted coefficients give experiments and tests an exactly known ground
truth to recover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset_builder import LabeledSample, feature_names, feature_vector, ingest_run
from .device_catalog import DeviceSpec, default_catalog
from .errors import WattrankError
from .instruction_profiler import CLASS_ORDER, InstructionClass, InstructionProfile, profile
from .ptx_parser import parse_ptx
from .telemetry_ingest import RunMeta, parse_power_csv_text

_C = InstructionClass

# One representative statement per opcode we fabricate; cycled per class.
_CLASS_STATEMENTS: dict[InstructionClass, tuple[str, ...]] = {
    _C.DATA_MOVEMENT_AND_CONVERSION: (
        "ld.global.f32 %f1, [%rd1];",
        "st.global.f32 [%rd2], %f2;",
        "mov.u32 %r1, %r2;",
        "cvt.u16.u32 %rs1, %r4;",
        "cvta.to.global.u64 %rd3, %rd2;",
    ),
    _C.ARITHMETIC_AND_FLOATING_POINT: (
        "add.f32 %f3, %f1, %f2;",
        "mul.wide.u32 %rd5, %r8, 954437177;",
        "fma.rn.f32 %f4, %f1, %f2, %f3;",
        "sub.s32 %r5, %r6, %r7;",
    ),
    _C.LOGIC_AND_SHIFT: (
        "shl.b32 %r3, %r1, 8;",
        "and.b32 %r12, %r11, 31;",
        "or.b32 %r4, %r3, %r2;",
        "shr.u32 %r10, %r9, 22;",
    ),
    _C.COMPARISON_AND_SELECTION: (
        "setp.lt.s32 %p1, %r4, 10;",
        "selp.b32 %r9, %r1, %r2, %p1;",
    ),
    _C.CONTROL_FLOW: (
        "bra $L__BB0_1;",
        "ret;",
    ),
    _C.ATOMIC_AND_SYNC: (
        "bar.sync 0;",
        "atom.global.add.u32 %r6, [%rd4], 1;",
    ),
    _C.TEXTURE_AND_SURFACE: (
        "tex.2d.v4.f32.f32 {%f1, %f2, %f3, %f4}, [tex0, {%f5, %f6}];",
    ),
    _C.OTHER: ("trap;",),
}

# Class shares of the two workload archetypes (compute- vs memory-heavy).
_ARCHETYPE_COMPUTE = np.array([0.30, 0.45, 0.15, 0.04, 0.04, 0.02, 0.0, 0.0])
_ARCHETYPE_MEMORY = np.array([0.55, 0.10, 0.25, 0.04, 0.04, 0.02, 0.0, 0.0])

#: The planted power truth's dominant feature, weighted 1.
POWER_DOMINANT = "arithmetic_and_floating_point"
#: The planted performance truth's dominant feature, weighted 1.
PERF_DOMINANT = "sm_count"
_SECONDARY_WEIGHT = 0.05  # per-feature weight of the non-dominant features
_POWER_BASE_W, _POWER_SPREAD_W = 150.0, 25.0
_PERF_BASE_IPS, _PERF_SPREAD_IPS = 7.0e8, 1.5e8
_SAMPLES_PER_TRACE = 30
_REPETITIONS = 1000


@dataclass(frozen=True)
class SyntheticConfig:
    n_workloads: int = 20
    seed: int = 7
    noise_frac: float = 0.01  # label noise sigma as a fraction of target range

    def __post_init__(self):
        if self.n_workloads < 1:
            raise WattrankError(f"n_workloads must be at least 1, got {self.n_workloads}")
        if self.seed < 0:
            raise WattrankError(f"seed must be a non-negative integer, got {self.seed}")
        if not (math.isfinite(self.noise_frac) and self.noise_frac >= 0):
            raise WattrankError(f"noise_frac must be finite and >= 0, got {self.noise_frac}")


@dataclass(frozen=True)
class SyntheticRun:
    power_csv_text: str
    meta: RunMeta  # names the workload and the device


@dataclass(frozen=True)
class SyntheticExperiment:
    kernels: dict[str, str]  # workload id -> PTX text
    runs: list[SyntheticRun]  # one per (workload, device) pair
    devices: list[DeviceSpec]


def make_workload_ptx(counts: dict[InstructionClass, int], name: str, rng) -> str:
    """PTX module text whose instruction profile equals ``counts`` exactly."""
    body: list[str] = []
    for cls in CLASS_ORDER:
        statements = _CLASS_STATEMENTS[cls]
        body.extend(statements[i % len(statements)] for i in range(counts.get(cls, 0)))
    order = rng.permutation(len(body))
    lines = [
        "// synthetic workload",
        ".version 7.1",
        ".target sm_70",
        ".address_size 64",
        "",
        f".visible .entry {name}(",
        f"    .param .u64 {name}_param_0",
        ")",
        "{",
    ]
    lines.extend(f"    {body[i]}" for i in order)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _power_csv(mean_w: float, rng) -> str:
    """nvidia-smi style CSV whose sample mean is exactly ``mean_w``."""
    jitter = rng.normal(scale=0.5, size=_SAMPLES_PER_TRACE)
    jitter -= jitter.mean()
    rows = ["timestamp, power.draw [W]"]
    for k, watts in enumerate(mean_w + jitter):
        rows.append(f"2021/03/01 10:{k // 60:02d}:{k % 60:02d}.000, {watts:.4f} W")
    return "\n".join(rows) + "\n"


def _planted_targets(features: np.ndarray, dominant: str):
    """Unit-variance planted score: dominant feature weight 1, others small."""
    stds = features.std(axis=0)
    weights = np.where(stds > 0, _SECONDARY_WEIGHT, 0.0)
    weights[feature_names().index(dominant)] = 1.0
    safe = np.where(stds > 0, stds, 1.0)
    z = (features - features.mean(axis=0)) / safe @ weights
    return z / z.std()


def generate(config: SyntheticConfig = SyntheticConfig()) -> SyntheticExperiment:
    rng = np.random.default_rng(config.seed)
    devices = default_catalog()

    kernels: dict[str, str] = {}
    profiles: list[InstructionProfile] = []
    for w in range(config.n_workloads):
        t = rng.uniform()
        mix = t * _ARCHETYPE_COMPUTE + (1.0 - t) * _ARCHETYPE_MEMORY
        total = int(np.exp(rng.uniform(np.log(1500), np.log(12000))))
        counts = {cls: int(round(total * share)) for cls, share in zip(CLASS_ORDER, mix)}
        name = f"cnn_{w:03d}"
        kernels[name] = make_workload_ptx(counts, name, rng)
        profiles.append(InstructionProfile(name, counts))  # the kernel's profile, exactly

    pairs = [(prof, device) for prof in profiles for device in devices]
    features = np.stack([feature_vector(prof, device) for prof, device in pairs])

    def noisy(truth):
        return truth + rng.normal(scale=config.noise_frac * np.ptp(truth), size=truth.size)

    z_power = _planted_targets(features, POWER_DOMINANT)
    z_perf = _planted_targets(features, PERF_DOMINANT)
    power_label = noisy(_POWER_BASE_W + _POWER_SPREAD_W * z_power)
    perf_label = noisy(_PERF_BASE_IPS + _PERF_SPREAD_IPS * z_perf)

    runs = [
        SyntheticRun(
            power_csv_text=_power_csv(float(power_w), rng),
            meta=RunMeta(prof.workload_id, device.name,
                         float(prof.total * _REPETITIONS / perf_ips), _REPETITIONS),
        )
        for (prof, device), power_w, perf_ips in zip(pairs, power_label, perf_label)
    ]
    return SyntheticExperiment(kernels=kernels, runs=runs, devices=devices)


def ingest_experiment(experiment: SyntheticExperiment) -> list[LabeledSample]:
    """Run every synthetic artifact through the real ingestion path, ``ingest_run``."""
    profiles = {name: profile(parse_ptx(ptx_text), name)  # once, not once per device
                for name, ptx_text in experiment.kernels.items()}
    return [ingest_run(profiles[run.meta.workload_id], experiment.devices, run.meta,
                       parse_power_csv_text(run.power_csv_text))
            for run in experiment.runs]
