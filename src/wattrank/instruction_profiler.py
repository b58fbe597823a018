"""Opcode classification and per-workload instruction histograms.

Each PTX opcode root maps to exactly one of eight instruction classes,
grouped by the hardware units the instruction loads.  The class histogram
of one workload is its static instruction profile: the input feature block
for the power/performance estimator.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import WattrankError
from .json_types import json_dumps, json_loads, json_value
from .ptx_parser import PtxDocument


class InvalidProfile(WattrankError):
    pass


class InstructionClass(enum.Enum):
    DATA_MOVEMENT_AND_CONVERSION = "data_movement_and_conversion"
    ARITHMETIC_AND_FLOATING_POINT = "arithmetic_and_floating_point"
    LOGIC_AND_SHIFT = "logic_and_shift"
    COMPARISON_AND_SELECTION = "comparison_and_selection"
    CONTROL_FLOW = "control_flow"
    ATOMIC_AND_SYNC = "atomic_and_sync"
    TEXTURE_AND_SURFACE = "texture_and_surface"
    OTHER = "other"


#: Fixed feature ordering; part of the on-disk dataset contract.
CLASS_ORDER: tuple[InstructionClass, ...] = tuple(InstructionClass)

_C = InstructionClass
_OPCODE_CLASS: dict[str, InstructionClass] = {}
for _root in ("ld", "st", "mov", "cvt", "cvta", "ldu", "prefetch", "isspacep"):
    _OPCODE_CLASS[_root] = _C.DATA_MOVEMENT_AND_CONVERSION
for _root in (
    "add", "sub", "mul", "mad", "fma", "div", "rem", "abs", "neg",
    "min", "max", "sqrt", "rsqrt", "sin", "cos", "lg2", "ex2",
    "mad24", "mul24", "sad", "popc", "clz", "bfind",
):
    _OPCODE_CLASS[_root] = _C.ARITHMETIC_AND_FLOATING_POINT
for _root in ("and", "or", "xor", "not", "cnot", "shl", "shr", "bfe", "bfi", "prmt"):
    _OPCODE_CLASS[_root] = _C.LOGIC_AND_SHIFT
for _root in ("setp", "set", "selp", "slct"):
    _OPCODE_CLASS[_root] = _C.COMPARISON_AND_SELECTION
for _root in ("bra", "call", "ret", "exit"):
    _OPCODE_CLASS[_root] = _C.CONTROL_FLOW
# bar/membar load the synchronization hardware, so they rank with the
# atomics rather than with plain control flow.
for _root in ("atom", "red", "vote", "bar", "membar"):
    _OPCODE_CLASS[_root] = _C.ATOMIC_AND_SYNC
for _root in ("tex", "tld4", "txq", "suld", "sust", "sured", "suq"):
    _OPCODE_CLASS[_root] = _C.TEXTURE_AND_SURFACE
del _root


@dataclass(frozen=True)
class InstructionProfile:
    """Per-class instruction counts for one PTX workload."""

    workload_id: str
    counts: dict[InstructionClass, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def classify_opcode(opcode_root: str) -> InstructionClass:
    """Map an opcode root to its class; unknown opcodes fall back to OTHER."""
    return _OPCODE_CLASS.get(opcode_root, InstructionClass.OTHER)


def profile(doc: PtxDocument, workload_id: str) -> InstructionProfile:
    """Count instructions per class. Classes with zero hits are kept at 0."""
    counts = {cls: 0 for cls in CLASS_ORDER}
    for root, n in Counter(doc.instructions).items():
        counts[classify_opcode(root)] += n
    return InstructionProfile(workload_id=workload_id, counts=counts)


def profile_to_features(p: InstructionProfile) -> np.ndarray:
    """Raw class counts as a float vector in :data:`CLASS_ORDER`."""
    return np.array([p.counts.get(cls, 0) for cls in CLASS_ORDER], dtype=float)


def profile_to_json(p: InstructionProfile) -> str:
    doc = {
        "workload_id": p.workload_id,
        "counts": {cls.value: p.counts.get(cls, 0) for cls in CLASS_ORDER},
        "total": p.total,
    }
    return json_dumps(doc, indent=2)


def profile_from_json(text: str) -> InstructionProfile:
    """Inverse of :func:`profile_to_json`; validates the count invariant."""
    by_value = {cls.value: cls for cls in InstructionClass}
    counts = {cls: 0 for cls in CLASS_ORDER}
    try:
        doc = json_value(json_loads(text), dict)  # decode errors are ValueErrors
        workload_id = json_value(doc["workload_id"], str)
        total = json_value(doc["total"], int)
        for key, value in json_value(doc["counts"], dict).items():
            if key not in by_value:
                raise InvalidProfile(f"unknown instruction class {key!r}")
            if json_value(value, int) < 0:
                raise InvalidProfile(f"bad count for {key!r}: {value!r}")
            counts[by_value[key]] = value
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidProfile(f"bad profile JSON: {exc}") from exc
    if sum(counts.values()) != total:
        raise InvalidProfile(
            f"counts sum to {sum(counts.values())}, header says {total}"
        )
    return InstructionProfile(workload_id=workload_id, counts=counts)
