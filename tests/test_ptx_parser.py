from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattrank.ptx_parser import (
    TYPE_SUFFIXES,
    MalformedInstruction,
    canonical_form,
    parse_ptx,
)

FULL_MODULE = """\
//
// Generated by NVIDIA NVVM Compiler
//
.version 7.1
.target sm_70
.address_size 64

\t// .globl\tcopy_5

.visible .entry copy_5(
\t.param .u64 copy_5_param_0,
\t.param .u64 copy_5_param_1
)
{
\t.reg .pred \t%p<2>;
\t.reg .b32 \t%r<13>;

$L__BB0_1:
\tld.param.u64 \t%rd1, [copy_5_param_0];
\tsetp.lt.s32 \t%p1, %r4, 10;
\t@%p1 bra \t$L__BB0_1;
\t/* block
\t   comment */
\tret;
}
"""


def test_single_load_instruction():
    doc = parse_ptx("ld.param.u64 %rd1, [copy_5_param_0];")
    assert len(doc.instructions) == 1
    inst = doc.instructions[0]
    assert inst.opcode_root == "ld"
    assert inst.modifiers == ("param",)
    assert inst.type_suffix == "u64"
    assert inst.operand_count == 2
    assert not inst.predicated
    assert inst.source_line == 1


def test_empty_input():
    doc = parse_ptx("")
    assert doc.instructions == ()
    assert doc.kernel_names == ()
    assert doc.skipped_directive_count == 0


def test_shift_instruction_has_no_modifiers():
    inst = parse_ptx("shl.b32 %r3, %r1, 8;").instructions[0]
    assert inst.opcode_root == "shl"
    assert inst.modifiers == ()
    assert inst.type_suffix == "b32"
    assert inst.operand_count == 3


def test_multi_type_token_keeps_last_as_suffix():
    inst = parse_ptx("cvt.u16.u32 %rs1, %r4;").instructions[0]
    assert inst.opcode_root == "cvt"
    assert inst.modifiers == ("u16",)
    assert inst.type_suffix == "u32"


def test_typeless_opcode():
    inst = parse_ptx("ret;").instructions[0]
    assert inst.opcode_root == "ret"
    assert inst.type_suffix is None
    assert inst.operand_count == 0


def test_corpus_parses_to_twenty_instructions(corpus_doc):
    assert len(corpus_doc.instructions) == 20
    assert corpus_doc.skipped_directive_count == 0
    lines = [inst.source_line for inst in corpus_doc.instructions]
    assert lines == sorted(lines)
    assert len(set(lines)) == len(lines)  # strictly increasing


def test_full_module_skips_directives_labels_braces():
    doc = parse_ptx(FULL_MODULE)
    assert [i.opcode_root for i in doc.instructions] == ["ld", "setp", "bra", "ret"]
    assert doc.kernel_names == ("copy_5",)
    # .version/.target/.address_size, 4-line entry header, 2 braces,
    # 2 .reg lines, 1 label
    assert doc.skipped_directive_count == 12
    assert doc.instructions[2].predicated
    assert doc.instructions[2].guard == "@%p1"


def test_block_comment_preserves_line_numbers():
    text = "mov.u32 %r1, %r2; /* a\nmulti line\ncomment */\nadd.u32 %r3, %r1, 1;"
    doc = parse_ptx(text)
    assert [i.source_line for i in doc.instructions] == [1, 4]


def test_vector_and_call_operands_split_at_top_level_only():
    inst = parse_ptx("mov.b64 {%r1, %r2}, %rd1;").instructions[0]
    assert inst.operands == ("{%r1, %r2}", "%rd1")
    inst = parse_ptx("call.uni (retval0), vprintf, (param0, param1);").instructions[0]
    assert inst.operand_count == 3


def test_canonical_form_examples():
    inst = parse_ptx("mov.u32 %r1, %ctaid.x;").instructions[0]
    assert canonical_form(inst) == "mov.u32 %r1, %ctaid.x;"
    assert canonical_form(parse_ptx("ret;").instructions[0]) == "ret;"


def test_canonical_form_with_explicit_operands():
    inst = parse_ptx("mov.u32 %r9, %r8;").instructions[0]
    assert canonical_form(inst, ["%r1", "%ctaid.x"]) == "mov.u32 %r1, %ctaid.x;"


def test_corpus_round_trip(corpus_doc, corpus_path):
    text = corpus_path.read_text()
    reparsed = parse_ptx("\n".join(canonical_form(i) for i in corpus_doc.instructions))
    assert len(reparsed.instructions) == len(corpus_doc.instructions)
    for original, again in zip(corpus_doc.instructions, reparsed.instructions):
        assert replace(again, source_line=original.source_line) == original
    # and the canonical text of the corpus is the corpus itself
    assert [canonical_form(i) for i in corpus_doc.instructions] == [
        line.strip() for line in text.splitlines() if line.strip()
    ]


@pytest.mark.parametrize(
    "bad",
    [
        ";",
        "@%p1 ;",
        "ld.u32 %r1, [%rd1;",
        "ld.u32 %r1, %rd1];",
        "add.u32 %r1,, %r2;",
        "add.u32 %r1, %r2,;",
    ],
)
def test_malformed_statements_abort_with_line(bad):
    with pytest.raises(MalformedInstruction) as excinfo:
        parse_ptx("mov.u32 %r1, %r2;\n" + bad)
    assert excinfo.value.line == 2


def test_unknown_opcodes_parse_fine():
    inst = parse_ptx("zzz_unknown.weird.u32 %r1;").instructions[0]
    assert inst.opcode_root == "zzz_unknown"
    assert inst.modifiers == ("weird",)
    assert inst.type_suffix == "u32"


_ROOTS = ["ld", "st", "mov", "mul", "setp", "bra", "ret", "zzz", "foo2", "cvt"]
_MODS = ["wide", "global", "rn", "to", "lo", "sat", "param", "sync", "v2", "uni"]
_OPERANDS = [
    "%r1",
    "%rd2",
    "[%rd3]",
    "[addr+4]",
    "-7281",
    "0f3F800000",
    "{%r1, %r2}",
    "%ctaid.x",
    "$L__BB0_7",
]

instruction_strategy = st.builds(
    lambda root, mods, suffix, ops, guard: (root, mods, suffix, ops, guard),
    st.sampled_from(_ROOTS),
    st.lists(st.sampled_from(_MODS), max_size=3),
    st.one_of(st.none(), st.sampled_from(sorted(TYPE_SUFFIXES))),
    st.lists(st.sampled_from(_OPERANDS), max_size=4),
    st.one_of(st.none(), st.sampled_from(["@%p1", "@!%p2"])),
)


@given(instruction_strategy)
def test_round_trip_property(parts):
    root, mods, suffix, ops, guard = parts
    token = ".".join([root, *mods] + ([suffix] if suffix else []))
    text = f"{guard + ' ' if guard else ''}{token} {', '.join(ops)};".replace(" ;", ";")
    inst = parse_ptx(text).instructions[0]
    assert inst.opcode_root == root
    assert inst.modifiers == tuple(mods)
    assert inst.type_suffix == suffix
    assert inst.operands == tuple(ops)
    assert inst.predicated == (guard is not None)
    again = parse_ptx(canonical_form(inst)).instructions[0]
    assert replace(again, source_line=inst.source_line) == inst


_LINE_KINDS = st.sampled_from(["instruction", "directive", "label", "brace", "blank", "comment"])


@given(st.lists(_LINE_KINDS, max_size=60))
@settings(max_examples=200)
def test_count_conservation_and_order(kinds):
    render = {
        "instruction": "add.u32 %r1, %r2, %r3;",
        "directive": ".reg .b32 %r<4>;",
        "label": "$L__BB0_1:",
        "brace": "{",
        "blank": "   ",
        "comment": "// nothing here",
    }
    doc = parse_ptx("\n".join(render[k] for k in kinds))
    n_inst = kinds.count("instruction")
    n_skip = kinds.count("directive") + kinds.count("label") + kinds.count("brace")
    n_blank = kinds.count("blank") + kinds.count("comment")
    assert len(doc.instructions) == n_inst
    assert doc.skipped_directive_count == n_skip
    assert n_inst + n_skip + n_blank == len(kinds)
    lines = [i.source_line for i in doc.instructions]
    assert lines == sorted(lines) and len(set(lines)) == len(lines)
