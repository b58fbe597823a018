"""Seeded benchmark inputs: nvcc-like PTX kernels, nvidia-smi power logs and
run metadata, each with the answer the program must give planted in it.

Nothing here imports wattrank.  Every expected value (class counts, mean
watts, instructions per second, 0 W rows dropped) is computed from what the
generator wrote, so the checks in ``workloads.py`` do not come from the code
under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The eight instruction classes, in the order of the dataset feature contract.
CLASSES = (
    "data_movement_and_conversion",
    "arithmetic_and_floating_point",
    "logic_and_shift",
    "comparison_and_selection",
    "control_flow",
    "atomic_and_sync",
    "texture_and_surface",
    "other",
)
DM, AR, LS, CS, CF, AS = range(6)

DEVICE_FEATURES = (
    "sm_count",
    "fp32_cores",
    "l2_cache_kib",
    "core_clock_mhz",
    "memory_clock_mhz",
    "memory_bandwidth_gbps",
)

# Statement templates per class, as nvcc 11 prints them.  {a}..{d} are
# register numbers, {p} a predicate, {o} a byte offset.  Control flow is not
# drawn from a pool: it comes from the block structure (guarded branches,
# ret) and from the vprintf call.
_TEMPLATES = {
    DM: (
        "ld.global.f32 \t%f{a}, [%rd{b}];",
        "ld.global.nc.f32 \t%f{a}, [%rd{b}+{o}];",
        "st.global.f32 \t[%rd{b}+{o}], %f{a};",
        "ld.shared.f32 \t%f{a}, [%r{c}+{o}];",
        "st.shared.f32 \t[%r{c}], %f{a};",
        "mov.u32 \t%r{a}, %tid.x;",
        "mov.f32 \t%f{a}, 0f00000000;",
        "cvt.rn.f32.s32 \t%f{a}, %r{b};",
        "cvta.to.global.u64 \t%rd{a}, %rd{b};",
        "ld.global.v4.f32 \t{{%f{a}, %f{b}, %f{c}, %f{d}}}, [%rd{b}+{o}];",
    ),
    AR: (
        "add.s32 \t%r{a}, %r{b}, %r{c};",
        "add.f32 \t%f{a}, %f{b}, %f{c};",
        "fma.rn.f32 \t%f{a}, %f{b}, %f{c}, %f{d};",
        "mul.wide.s32 \t%rd{a}, %r{b}, 4;",
        "add.s64 \t%rd{a}, %rd{b}, %rd{c};",
        "mad.lo.s32 \t%r{a}, %r{b}, %r{c}, %r{d};",
        "max.f32 \t%f{a}, %f{b}, 0f00000000;",
        "mul.rn.f32 \t%f{a}, %f{b}, %f{c};",
        "sub.f32 \t%f{a}, %f{b}, %f{c};",
    ),
    LS: (
        "shl.b32 \t%r{a}, %r{b}, 2;",
        "shr.u32 \t%r{a}, %r{b}, 5;",
        "and.b32 \t%r{a}, %r{b}, 31;",
        "or.b32 \t%r{a}, %r{b}, %r{c};",
        "xor.b32 \t%r{a}, %r{b}, -2147483648;",
        "shl.b64 \t%rd{a}, %rd{b}, 2;",
    ),
    CS: (
        "setp.lt.s32 \t%p{p}, %r{a}, %r{b};",
        "setp.gt.f32 \t%p{p}, %f{a}, 0f00000000;",
        "selp.f32 \t%f{a}, %f{b}, %f{c}, %p{p};",
        "selp.b32 \t%r{a}, %r{b}, 0, %p{p};",
    ),
    AS: (
        "bar.sync \t0;",
        "atom.global.add.f32 \t%f{a}, [%rd{b}], %f{c};",
        "red.global.add.f32 \t[%rd{b}], %f{a};",
        "membar.gl;",
    ),
}
_POOLED = (DM, AR, LS, CS, AS)
_POOL_SIZE = 96

# Class shares of the pooled classes for a compute- and a memory-heavy CNN
# layer; each kernel mixes the two.  Like the paper's CNN kernels they use
# no texture or other instructions.
_COMPUTE = np.array([0.31, 0.47, 0.15, 0.05, 0.02])
_MEMORY = np.array([0.56, 0.11, 0.26, 0.05, 0.02])

_HEADER = """\
//
// Generated by NVIDIA NVVM Compiler
//
// Compiler Build ID: CL-30033411
// Cuda compilation tools, release 11.4, V11.4.48
// Based on NVVM 7.0.1
//

.version 7.4
.target sm_70
.address_size 64

\t// .globl\t{name}
"""

_VPRINTF_DECL = """\
.extern .func  (.param .b32 func_retval0) vprintf
(
\t.param .b64 vprintf_param_0,
\t.param .b64 vprintf_param_1
)
;
.global .align 1 .b8 $str[14] = {108, 97, 121, 101, 114, 32, 37, 100, 58, 32, 37, 102, 10, 0};
"""

# The multi-line call nvcc emits for printf, with the class of every
# instruction statement in it (one control-flow statement: the call).
_VPRINTF_CALL = (
    ("\tmov.u64 \t%rd90, $str;", DM),
    ("\tcvta.global.u64 \t%rd91, %rd90;", DM),
    ("\tadd.u64 \t%rd92, %SP, 0;", AR),
    ("\tadd.u64 \t%rd93, %SPL, 0;", AR),
    ("\tst.local.u32 \t[%rd93], %r1;", DM),
    ("\t{ // callseq 0, 0", None),
    ("\t.reg .b32 temp_param_reg;", None),
    ("\t.param .b64 param0;", None),
    ("\tst.param.b64 \t[param0+0], %rd91;", DM),
    ("\t.param .b64 param1;", None),
    ("\tst.param.b64 \t[param1+0], %rd92;", DM),
    ("\t.param .b32 retval0;", None),
    ("\tcall.uni (retval0), ", CF),
    ("\tvprintf, ", None),
    ("\t(", None),
    ("\tparam0, ", None),
    ("\tparam1", None),
    ("\t);", None),
    ("\tld.param.b32 \t%r94, [retval0+0];", DM),
    ("\t} // callseq 0", None),
)


@dataclass(frozen=True)
class Kernel:
    """One PTX file on disk and the class counts planted in it."""

    name: str
    path: Path
    counts: dict[str, int]
    lines: int
    has_call: bool

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class Run:
    """One measured run: a kernel on a device, with its log and metadata."""

    kernel: Kernel
    device: str
    power_path: Path
    meta_path: Path
    rows: int  # data rows in the log, 0 W glitch rows included
    zero_rows: int
    power_w: float  # math.fsum mean of the nonzero watts written
    perf_ips: float  # planted total x repetitions / wall clock


def golden_sequence(seed: int):
    """Stratified uniforms in [0, 1): any prefix is spread evenly, so size
    distributions, and their medians, barely move from seed to seed."""
    u = np.random.default_rng([seed, 99]).uniform()
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    i = 0
    while True:
        yield (u + i * golden) % 1.0
        i += 1


def log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _pools(rng) -> dict[int, list[str]]:
    pools = {}
    for cls in _POOLED:
        templates = _TEMPLATES[cls]
        regs = rng.integers(1, 90, size=(_POOL_SIZE, 4))
        preds = rng.integers(1, 9, size=_POOL_SIZE)
        offsets = 4 * rng.integers(0, 256, size=_POOL_SIZE)
        guards = rng.random(_POOL_SIZE)
        pool = []
        for k in range(_POOL_SIZE):
            a, b, c, d = regs[k]
            text = templates[k % len(templates)].format(
                a=a, b=b, c=c, d=d, p=preds[k], o=offsets[k]
            )
            if guards[k] < 0.04 and cls != AS:
                text = f"@{'!' if guards[k] < 0.02 else ''}%p{preds[k]} {text}"
            pool.append("\t" + text)
        pools[cls] = pool
    return pools


def write_kernel(path: Path, name: str, n_instructions: int, has_call: bool, rng) -> Kernel:
    """Write an nvcc-like kernel of about ``n_instructions`` statements.

    Comments, labels, ``@%p`` guards, a ``.reg`` block and a multi-line
    ``.entry`` header are always present; ``has_call`` adds the printf
    declaration, its string and the multi-line ``call.uni``.
    """
    pools = _pools(rng)
    t = rng.uniform()
    shares = t * _COMPUTE + (1.0 - t) * _MEMORY
    counts = [0] * len(CLASSES)

    block_sizes = []
    remaining = n_instructions
    while remaining > 0:
        size = min(int(rng.integers(12, 48)), remaining)
        block_sizes.append(size)
        remaining -= size
    n_blocks = len(block_sizes)
    # Each block but the last ends in a branch, so it draws one less.
    drawn = n_instructions - (n_blocks - 1)
    # Exact shares, shuffled, as in the paper's synthetic experiment: class
    # counts follow the mix, and only the statement order is random.
    per_class = np.floor(drawn * shares).astype(int)
    per_class[np.argmax(shares)] += drawn - per_class.sum()
    classes = rng.permutation(np.repeat(np.arange(len(_POOLED)), per_class))
    picks = rng.integers(0, _POOL_SIZE, size=classes.size)
    pooled = [_POOLED[c] for c in classes.tolist()]
    body = [pools[c][j] for c, j in zip(pooled, picks.tolist())]
    for c, n in zip(_POOLED, per_class.tolist()):
        counts[c] += n

    out = [_HEADER.format(name=name)]
    if has_call:
        out.append(_VPRINTF_DECL)
    out.append(
        f".visible .entry {name}(\n"
        f"\t.param .u64 {name}_param_0,\n"
        f"\t.param .u64 {name}_param_1,\n"
        f"\t.param .u64 {name}_param_2,\n"
        f"\t.param .u32 {name}_param_3\n"
        ")\n{\n"
    )
    if has_call:
        out.append("\t.local .align 8 .b8 \t__local_depot0[8];\n\t.reg .b64 \t%SP;\n\t.reg .b64 \t%SPL;\n")
    out.append(
        "\t.reg .pred \t%p<10>;\n\t.reg .f32 \t%f<91>;\n"
        "\t.reg .b32 \t%r<95>;\n\t.reg .b64 \t%rd<94>;\n\n\n"
    )
    prologue = [
        (f"\tld.param.u64 \t%rd1, [{name}_param_0];", DM),
        (f"\tld.param.u64 \t%rd2, [{name}_param_1];", DM),
        (f"\tld.param.u32 \t%r1, [{name}_param_3];", DM),
        ("\tmov.u32 \t%r2, %ctaid.x;", DM),
        ("\tmov.u32 \t%r3, %ntid.x;", DM),
        ("\tmad.lo.s32 \t%r4, %r2, %r3, %r2;", AR),
        ("\tsetp.ge.s32 \t%p1, %r4, %r1;", CS),
        (f"\t@%p1 bra \t$L__BB0_{n_blocks + 1};", CF),
    ]
    if has_call:
        prologue[:0] = [
            ("\tmov.u64 \t%SPL, __local_depot0;", DM),
            ("\tcvta.local.u64 \t%SP, %SPL;", DM),
        ]
    lines = []
    for text, cls in prologue:
        lines.append(text)
        counts[cls] += 1

    call_block = int(rng.integers(0, n_blocks)) if has_call else -1
    start = 0
    for k, size in enumerate(block_sizes):
        lines.append(f"$L__BB0_{k + 1}:")
        if k % 3 == 0:
            lines.append(f"\t// %bb.{k + 1}")
        take = size - 1 if k < n_blocks - 1 else size
        lines.extend(body[start : start + take])
        start += take
        if k == call_block:
            for text, cls in _VPRINTF_CALL:
                lines.append(text)
                if cls is not None:
                    counts[cls] += 1
        if k < n_blocks - 1:
            if k % 4:
                lines.append(f"\t@%p{1 + k % 9} bra \t$L__BB0_{k + 2};")
            else:
                lines.append(f"\tbra.uni \t$L__BB0_{k + 2};")
            counts[CF] += 1
            lines.append("")
    lines.append(f"$L__BB0_{n_blocks + 1}:")
    lines.append("\tret;")
    counts[CF] += 1
    lines.append("")
    out.append("\n".join(lines))
    out.append("\n}\n")
    text = "".join(out)
    path.write_text(text, encoding="utf-8")
    return Kernel(
        name=name,
        path=path,
        counts=dict(zip(CLASSES, counts)),
        lines=text.count("\n"),
        has_call=has_call,
    )


def load_devices(catalog_path: Path) -> list[tuple[str, np.ndarray]]:
    """(name, feature vector) of each device in a catalog JSON file."""
    records = json.loads(catalog_path.read_text(encoding="utf-8"))
    return [
        (r["name"], np.array([float(r[f]) for f in DEVICE_FEATURES])) for r in records
    ]


def planted_labels(features: np.ndarray, rng, noise_frac: float = 0.01):
    """Power (W) and performance (instructions/s) per row: a planted linear
    function of the standardized features plus 1% noise, as in the paper's
    synthetic recovery experiment."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    z = np.divide(features - mean, std, out=np.zeros_like(features), where=std > 0)
    out = []
    sm_count = len(CLASSES) + DEVICE_FEATURES.index("sm_count")
    for dominant, base, spread in ((AR, 150.0, 25.0), (sm_count, 7.0e8, 1.5e8)):
        weights = np.where(std > 0, 0.05, 0.0)
        weights[dominant] = 1.0
        score = z @ weights
        score /= score.std() if score.std() > 0 else 1.0
        label = base + spread * score
        label += rng.normal(scale=noise_frac * np.ptp(label), size=label.size)
        out.append(label)
    return out


def _timestamps(n: int, rng) -> list[str]:
    start = 8 * 3600 + int(rng.integers(0, 4 * 3600))
    day = f"2021/03/{int(rng.integers(1, 29)):02d}"
    return [
        f"{day} {s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}.{int(ms):03d}"
        for s, ms in zip(range(start, start + n), rng.integers(0, 1000, size=n))
    ]


def write_run(
    workdir: Path,
    kernel: Kernel,
    device: str,
    power_w: float,
    perf_ips: float,
    n_rows: int,
    rng,
    repetitions: int = 1000,
) -> Run:
    """Write the nvidia-smi log and metadata of one run.

    About 1.5% of the rows (at least one) are 0 W sensor glitches.  The
    planted power label is the exact mean of the nonzero values written.
    """
    n_zero = max(1, int(rng.integers(0, n_rows // 32 + 1)))
    jitter = rng.normal(scale=3.0, size=n_rows - n_zero)
    jitter -= jitter.mean()
    watts = [f"{w:.2f}" for w in power_w + jitter]
    values = [float(w) for w in watts]
    rows = list(watts)
    for position in sorted(rng.choice(n_rows, size=n_zero, replace=False).tolist()):
        rows.insert(position, "0.00")
    stamps = _timestamps(n_rows, rng)
    util = rng.integers(85, 101, size=n_rows).tolist()
    lines = ["timestamp, name, power.draw [W], utilization.gpu [%]"]
    lines.extend(
        f"{ts}, NVIDIA {device}, {w} W, {u} %" for ts, w, u in zip(stamps, rows, util)
    )
    stem = f"{kernel.name}__{device}"
    power_path = workdir / f"{stem}.power.csv"
    power_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    wall_clock_s = kernel.total * repetitions / perf_ips
    meta_path = workdir / f"{stem}.meta.json"
    meta_path.write_text(
        json.dumps(
            {
                "workload_id": kernel.name,
                "device_name": device,
                "wall_clock_s": wall_clock_s,
                "repetitions": repetitions,
            }
        ),
        encoding="utf-8",
    )
    return Run(
        kernel=kernel,
        device=device,
        power_path=power_path,
        meta_path=meta_path,
        rows=n_rows,
        zero_rows=n_zero,
        power_w=math.fsum(values) / len(values),
        perf_ips=kernel.total * repetitions / wall_clock_s,
    )


def write_runs(
    workdir: Path,
    kernels: list[Kernel],
    devices: list[tuple[str, np.ndarray]],
    rows_range: tuple[int, int],
    sizes,
    rng,
) -> list[Run]:
    """Every kernel on every device, kernel by kernel, with planted labels.

    ``sizes`` yields the stratified uniforms that pick each log's length.
    """
    pairs = [(k, name, feats) for k in kernels for name, feats in devices]
    features = np.stack(
        [np.concatenate([[k.counts[c] for c in CLASSES], feats]) for k, _, feats in pairs]
    )
    power, perf = planted_labels(features, rng)
    return [
        write_run(
            workdir, k, name, float(p), float(q),
            log_uniform(next(sizes), *rows_range), rng,
        )
        for (k, name, _), p, q in zip(pairs, power, perf)
    ]
