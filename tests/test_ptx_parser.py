import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattrank.instruction_profiler import profile
from wattrank.ptx_parser import (
    _STATEMENT_RE,
    OPERANDLESS_ROOTS,
    TYPE_SUFFIXES,
    MalformedInstruction,
    _parse_instruction,
    canonical_form,
    parse_ptx,
    parse_ptx_file,
)

VPRINTF_KERNEL = Path(__file__).parent / "data" / "vprintf_kernel.ptx"

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
    # .version/.target/.address_size, the entry header, 2 braces,
    # 2 .reg lines, 1 label: the 4-line .entry header is one statement
    assert doc.skipped_directive_count == 9
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


def test_line_breaks_next_to_commas_are_whitespace():
    inst = parse_ptx("add.f32 %f3\n, %f1,\n %f2;").instructions[0]
    assert inst.operands == ("%f3", "%f1", "%f2")


def test_indirect_call_prototype_is_not_an_instruction():
    doc = parse_ptx(
        "{ // callseq 1, 0\n"
        "\t.param .b64 param0;\n"
        "\t.param .b32 retval0;\n"
        "\tprototype_0 : .callprototype (.param .b32 _) _ (.param .b64 _);\n"
        "\tcall \n\t(retval0), \n\t%rd1, \n\t(\n\tparam0\n\t)\n\t, prototype_0;\n"
        "\t} // callseq 1\n"
    )
    counts = {cls.value: n for cls, n in profile(doc, "w").counts.items() if n}
    assert counts == {"control_flow": 1}
    assert doc.instructions[0].operand_count == 4


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
        "mov.u32 %r1, %r2\nadd.u32 %r3, %r1, 1;",  # missing ';' swallows the add
        "st.u32 [%rd1], %r1\n@%p1 bra $L__BB0_1;",
        "ret\nexit;",  # missing ';' after an operand-less opcode
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
    lambda root, mods, suffix, ops, guard: (
        root, mods, suffix, [] if root in OPERANDLESS_ROOTS else ops, guard
    ),
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


def test_unterminated_trailing_fragment_is_counted_apart():
    doc = parse_ptx(".reg .b32 %r<4>;\nmov.u32 %r1, %r2;\nadd.u32 %r3,\n%r1, 1")
    assert [i.opcode_root for i in doc.instructions] == ["mov"]
    assert doc.skipped_directive_count == 1
    assert doc.fragment_count == 1


def test_trailing_whitespace_is_scanned_once():
    start = time.perf_counter()
    doc = parse_ptx("ret;" + " \n" * 500)
    assert time.perf_counter() - start < 1.0  # took 2.5 s when rescanned per position
    assert doc.opcode_roots == ("ret",)
    assert doc.fragment_count == 0


def test_line_counting_is_linear():
    """Lines are counted on from the last decoded statement, never from the
    start of the text, both at parse time (every ``ret`` is decoded there)
    and when ``instructions`` re-scans the text.  On a 2-core x86 machine
    the two phases take ~0.13 s and ~0.26 s; counting from the start of the
    text took 4.6 s and 7.3 s."""
    call = "call.uni (retval0),\n\tvprintf,\n\t(\n\tparam0,\n\tparam1\n\t);"
    statements = [call if i % 4 == 0 else "ret;" for i in range(30_000)]
    starts = [1]
    for stmt in statements:
        starts.append(starts[-1] + stmt.count("\n") + 4)
    text = "\n\n\n\n".join(statements)
    start = time.perf_counter()
    doc = parse_ptx(text)
    assert time.perf_counter() - start < 1.5
    start = time.perf_counter()
    lines = [i.source_line for i in doc.instructions]
    assert time.perf_counter() - start < 1.5
    assert lines == starts[:-1]
    assert doc.opcode_roots.count("call") == 7_500
    with pytest.raises(MalformedInstruction) as excinfo:
        parse_ptx(text + "\n\n\n\nret %r1;")
    assert excinfo.value.line == starts[-1]


def test_nvcc_vprintf_kernel_golden_counts():
    doc = parse_ptx_file(VPRINTF_KERNEL)
    counts = {cls.value: n for cls, n in profile(doc, "print_scaled").counts.items()}
    assert counts == {
        "data_movement_and_conversion": 17,
        "arithmetic_and_floating_point": 6,
        "logic_and_shift": 0,
        "comparison_and_selection": 1,
        "control_flow": 3,  # bra, the multi-line call.uni, ret
        "atomic_and_sync": 0,
        "texture_and_surface": 0,
        "other": 0,
    }
    assert doc.kernel_names == ("print_scaled",)
    assert doc.fragment_count == 0
    calls = [i for i in doc.instructions if i.opcode_root == "call"]
    assert len(calls) == 1
    assert calls[0].modifiers == ("uni",)
    assert calls[0].operand_count == 3
    call_lines = [
        n for n, line in enumerate(VPRINTF_KERNEL.read_text().splitlines(), 1)
        if "call.uni" in line
    ]
    assert [calls[0].source_line] == call_lines


# Whitespace that must separate two tokens, and whitespace that may.
_SEP = st.sampled_from([" ", "\t", "\n", " \n\t", "\n\n  "])
_GAP = st.one_of(st.just(""), _SEP)
# Call operands, and a nested operand that only the full decoder handles.
_MORE_OPERANDS = ["(retval0)", "vprintf", "(param0, param1)", "[tex0, {%f5, %f6}]"]


@st.composite
def _reflowed_statement(draw):
    """One instruction as ``(one-line text, the same text re-flowed)``."""
    root, mods, suffix, ops, guard = draw(instruction_strategy)
    if root not in OPERANDLESS_ROOTS:
        ops = ops + draw(st.lists(st.sampled_from(_MORE_OPERANDS), max_size=2))
    token = ".".join([root, *mods] + ([suffix] if suffix else []))
    flat = f"{guard + ' ' if guard else ''}{token}"
    flowed = f"{guard + draw(_SEP) if guard else ''}{token}"
    if ops:
        flat += " " + ", ".join(ops)
        flowed += draw(_SEP) + ops[0]
        for op in ops[1:]:
            flowed += f"{draw(_GAP)},{draw(_GAP)}{op}"
    return flat + ";", flowed + draw(_GAP) + ";"


_OTHER_STATEMENTS = ["{", "}", "$L__BB0_3:", ".reg .b32 %r<4>;", ".param .b64 param0;"]


@given(
    st.lists(
        st.one_of(
            _reflowed_statement(),
            st.sampled_from(_OTHER_STATEMENTS).map(lambda s: (s, s)),
        ),
        max_size=12,
    ),
    st.lists(_SEP, min_size=12, max_size=12),
)
@settings(max_examples=100)
def test_newline_law(statements, separators):
    """Newlines are whitespace: re-flowing the whitespace between tokens and
    operands changes no instruction except its source line."""
    flat = parse_ptx("\n".join(one_line for one_line, _ in statements))
    flowed = parse_ptx(
        "".join(sep + text for (_, text), sep in zip(statements, separators))
    )
    assert profile(flowed, "w") == profile(flat, "w")
    assert flowed.opcode_roots == flat.opcode_roots
    assert [replace(i, source_line=0) for i in flowed.instructions] == [
        replace(i, source_line=0) for i in flat.instructions
    ]
    assert flowed.skipped_directive_count == flat.skipped_directive_count


# Token soup: PTX-like pieces in any order, to reach the statement regex's
# edges (brackets, guards, stray separators, directives, comments).
_SOUP = st.lists(
    st.sampled_from([
        "ld", "mov.u32", ".global", "call.uni", "@%p1", "@!", "%r1", "$L1:", "x",
        ".reg .b32 %r<2>", "= {1, 2}", ".version 7.4", ".loc 1 2 3", ".entry k(",
        ",", ";", "[", "]", "{", "}", "(", ")", "+4", ":", "@",
        " ", " ", "\t", "\n", "\n", "// c\n", "/* c\n */",
    ]),
    max_size=40,
).map("".join) | st.text(" \t\n\x0b\x1c\xa0;,.@!%$:=[]{}()ab_19", max_size=40)


@given(_SOUP)
@settings(max_examples=300)
def test_opcode_roots_are_the_decoded_roots(text):
    try:
        doc = parse_ptx(text)
    except MalformedInstruction:
        return
    assert doc.opcode_roots == tuple(i.opcode_root for i in doc.instructions)
    # each statement's first line, counted from the start of the text
    assert [i.source_line for i in doc.instructions] == [
        doc.text.count("\n", 0, m.start("stmt")) + 1
        for m in _STATEMENT_RE.finditer(doc.text)
        if m.group("stmt") is not None
    ]


# Operand text built from brackets and separators, after an opcode.
_OPERAND_SOUP = st.lists(
    st.sampled_from(["%r1", "x", ",", " ", "\n", "[", "]", "{", "}", "(", ")"]),
    max_size=12,
).map(lambda parts: "mov.u32 " + "".join(parts) + ";")


@given(_SOUP | _OPERAND_SOUP)
@settings(max_examples=300)
def test_strict_statements_decode(text):
    """Whatever the statement regex's common-shape branch accepts, the full
    decoder accepts too, with the same opcode root."""
    for m in _STATEMENT_RE.finditer(text):
        if m.group("root") is not None:
            assert _parse_instruction(m.group("stmt"), 1).opcode_root == m.group("root")
