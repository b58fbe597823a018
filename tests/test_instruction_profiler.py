import pytest
from hypothesis import given
from hypothesis import strategies as st

from wattrank.instruction_profiler import (
    CLASS_ORDER,
    InstructionClass,
    InvalidProfile,
    classify_opcode,
    profile,
    profile_from_json,
    profile_to_features,
    profile_to_json,
)
from wattrank.ptx_parser import OPERANDLESS_ROOTS, parse_ptx

_C = InstructionClass


@pytest.mark.parametrize(
    "root,expected",
    [
        ("ld", _C.DATA_MOVEMENT_AND_CONVERSION),
        ("cvta", _C.DATA_MOVEMENT_AND_CONVERSION),
        ("mov", _C.DATA_MOVEMENT_AND_CONVERSION),
        ("prefetch", _C.DATA_MOVEMENT_AND_CONVERSION),
        ("mul", _C.ARITHMETIC_AND_FLOATING_POINT),
        ("fma", _C.ARITHMETIC_AND_FLOATING_POINT),
        ("rsqrt", _C.ARITHMETIC_AND_FLOATING_POINT),
        ("popc", _C.ARITHMETIC_AND_FLOATING_POINT),
        ("shr", _C.LOGIC_AND_SHIFT),
        ("and", _C.LOGIC_AND_SHIFT),
        ("prmt", _C.LOGIC_AND_SHIFT),
        ("setp", _C.COMPARISON_AND_SELECTION),
        ("slct", _C.COMPARISON_AND_SELECTION),
        ("bra", _C.CONTROL_FLOW),
        ("call", _C.CONTROL_FLOW),
        ("exit", _C.CONTROL_FLOW),
        ("bar", _C.ATOMIC_AND_SYNC),
        ("membar", _C.ATOMIC_AND_SYNC),
        ("atom", _C.ATOMIC_AND_SYNC),
        ("vote", _C.ATOMIC_AND_SYNC),
        ("tex", _C.TEXTURE_AND_SURFACE),
        ("sust", _C.TEXTURE_AND_SURFACE),
        ("zzz_unknown", _C.OTHER),
    ],
)
def test_classify_table(root, expected):
    assert classify_opcode(root) is expected


def test_classify_uses_opcode_root_only():
    (root,) = parse_ptx("cvta.to.global.u64 %rd3, %rd2;").instructions
    assert root == "cvta"
    assert classify_opcode(root) is _C.DATA_MOVEMENT_AND_CONVERSION


def test_corpus_profile_counts(corpus_doc):
    prof = profile(corpus_doc, "copy_kernel")
    assert prof.total == 20
    assert prof.counts[_C.DATA_MOVEMENT_AND_CONVERSION] == 8
    assert prof.counts[_C.ARITHMETIC_AND_FLOATING_POINT] == 3
    assert prof.counts[_C.LOGIC_AND_SHIFT] == 9
    for cls in CLASS_ORDER[3:]:
        assert prof.counts[cls] == 0


def test_empty_document_profile():
    prof = profile(parse_ptx(""), "empty")
    assert prof.total == 0
    assert all(prof.counts[cls] == 0 for cls in CLASS_ORDER)


def test_single_comparison_instruction():
    prof = profile(parse_ptx("setp.lt.s32 %p1, %r1, %r2;"), "one")
    assert prof.counts[_C.COMPARISON_AND_SELECTION] == 1
    assert prof.total == 1


def test_feature_vector_raw_order(corpus_doc):
    prof = profile(corpus_doc, "copy_kernel")
    assert profile_to_features(prof).tolist() == [8, 3, 9, 0, 0, 0, 0, 0]


_KNOWN_ROOTS = [
    "ld", "st", "mov", "cvt", "add", "mul", "and", "or", "shl", "setp",
    "selp", "bra", "ret", "bar", "atom", "tex", "frobnicate",
]


@given(st.lists(st.sampled_from(_KNOWN_ROOTS), max_size=80))
def test_partition_property(roots):
    doc = parse_ptx("\n".join(
        f"{root};" if root in OPERANDLESS_ROOTS else f"{root}.u32 %r1, %r2;"
        for root in roots
    ))
    prof = profile(doc, "generated")
    assert sum(prof.counts.values()) == prof.total == len(roots)
    assert profile_to_features(prof).sum() == prof.total


def test_identical_documents_identical_profiles(corpus_doc):
    assert profile(corpus_doc, "a") == profile(corpus_doc, "a")


def test_profile_json_round_trip(corpus_doc):
    prof = profile(corpus_doc, "copy_kernel")
    again = profile_from_json(profile_to_json(prof))
    assert again == prof


@pytest.mark.parametrize(
    "mutation",
    [
        lambda d: d.replace('"total": 20', '"total": 19'),
        lambda d: d.replace("data_movement_and_conversion", "made_up_class"),
        lambda d: d[: len(d) // 2],
        lambda d: d.replace('"workload_id": "copy_kernel",', ""),
        lambda d: d.replace('"workload_id": "copy_kernel",', '"workload_id": 7,'),
    ],
)
def test_profile_json_rejects_bad_documents(corpus_doc, mutation):
    text = profile_to_json(profile(corpus_doc, "copy_kernel"))
    with pytest.raises(InvalidProfile):
        profile_from_json(mutation(text))
