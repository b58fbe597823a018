import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattrank.instruction_profiler import profile
from wattrank.ptx_parser import (
    _OPCODE_RE,
    _STATEMENT_RE,
    OPERANDLESS_ROOTS,
    MalformedInstruction,
    _parse_instruction,
    _strip_comments,
    parse_ptx,
    parse_ptx_file,
)

DATA = Path(__file__).parent / "data"
VPRINTF_KERNEL = DATA / "vprintf_kernel.ptx"

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
    assert doc.instructions == ("ld",)
    assert _parse_instruction("ld.param.u64 %rd1, [copy_5_param_0]", 1) == "ld"


def test_empty_input():
    doc = parse_ptx("")
    assert doc.instructions == ()
    assert doc.skipped_directive_count == 0
    assert doc.fragment_count == 0


def test_typeless_opcode():
    assert parse_ptx("ret;").instructions == ("ret",)
    assert _parse_instruction("ret", 1) == "ret"


def test_corpus_parses_to_twenty_instructions(corpus_doc, corpus_path):
    assert len(corpus_doc.instructions) == 20
    assert corpus_doc.skipped_directive_count == 0
    # one statement per line, in source order
    assert list(corpus_doc.instructions) == [
        line.split(".")[0] for line in corpus_path.read_text().splitlines()
    ]


def test_full_module_skips_directives_labels_braces():
    doc = parse_ptx(FULL_MODULE)
    assert doc.instructions == ("ld", "setp", "bra", "ret")
    # .version/.target/.address_size, the entry header, 2 braces,
    # 2 .reg lines, 1 label: the 4-line .entry header is one statement
    assert doc.skipped_directive_count == 9
    assert _parse_instruction("@%p1 bra \t$L__BB0_1", 1) == "bra"


def test_block_comment_preserves_line_numbers():
    text = "mov.u32 %r1, %r2; /* a\nmulti line\ncomment */\nadd.u32 %r3, %r1, 1;"
    assert parse_ptx(text).instructions == ("mov", "add")
    with pytest.raises(MalformedInstruction) as excinfo:
        parse_ptx(text.replace("add.u32", "ret"))
    assert excinfo.value.line == 4


def test_vector_and_call_operands_split_at_top_level_only():
    assert parse_ptx("mov.b64 {%r1, %r2}, %rd1;").instructions == ("mov",)
    # a line break inside brackets is whitespace, one at top level is not
    assert _parse_instruction("mov.b64 {%r1,\n%r2 }, [%rd1\n+4]", 1) == "mov"
    assert _parse_instruction("call.uni (retval0), vprintf, (param0\n, param1)", 1) == "call"
    with pytest.raises(MalformedInstruction):
        _parse_instruction("mov.b64 %r1\n%r2, %rd1", 1)


def test_line_breaks_next_to_commas_are_whitespace():
    assert parse_ptx("add.f32 %f3\n, %f1,\n %f2;").instructions == ("add",)
    assert _parse_instruction("add.f32 %f3\n, %f1,\n %f2", 1) == "add"


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
    assert doc.instructions == ("call",)


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
        "%r1, %r2;",  # no opcode: a stray operand list
        "[%rd1];",
        "= 5;",
        "1abc %r1;",  # a root starts with a letter or '_'
        "foo-bar %r1;",
        "add..u32 %r1, %r2;",  # an empty modifier
        "*/ mov.u32 %r1, %r2;",  # a stray comment close
        "/* unterminated add.u32 %r1, %r2, %r3;",
    ],
)
def test_malformed_statements_abort_with_line(bad):
    with pytest.raises(MalformedInstruction) as excinfo:
        parse_ptx("mov.u32 %r1, %r2;\n" + bad)
    assert excinfo.value.line == 2


def test_body_directive_without_semicolon_ends_at_its_line():
    text = ".reg .b32 %r<5>\nadd.u32 %r1, %r2, %r3;\nmov.u32 %r1, %r2;"
    assert parse_ptx(text).instructions == ("add", "mov")
    for directive in ("local .align 8 .b8 depot[8]", "shared .b32 smem[4]",
                      "param .b64 param0", 'pragma "nounroll"'):
        doc = parse_ptx(f".{directive}\nadd.u32 %r1, %r2, %r3;")
        assert doc.instructions == ("add",)
        assert doc.skipped_directive_count == 1


@pytest.mark.parametrize("directive", ['.file 1 "/tmp/a;b.cu"', '.pragma "a;b";'])
def test_quoted_semicolon_does_not_end_a_line_directive(directive):
    doc = parse_ptx(directive + "\nmov.u32 %r1, %r2;")
    assert doc.instructions == ("mov",)
    assert doc.skipped_directive_count == 1
    assert doc.fragment_count == 0


def test_comment_marks_inside_a_quoted_path_open_no_comment():
    text = ('.file 1 "/src/*/k.cu"\n{\nmov.u32 %r1, %r2;\nadd.s32 %r1, %r1, 1;\n'
            "/* note */\nret;\n}")
    assert parse_ptx(text).instructions == ("mov", "add", "ret")


@pytest.mark.parametrize("directive", ['.file 1 "/src//k.cu"', '.file 2 "/src/*/k.cu"',
                                       '.pragma "a//b";', '.pragma "a/*b";'])
def test_comment_marks_inside_strings_are_kept(directive):
    text = f"{directive} // note\n/* a\nblock */ mov.u32 %r1, %r2; // end"
    assert _strip_comments(text) == f"{directive}  \n\n mov.u32 %r1, %r2;  "
    doc = parse_ptx(text)
    assert doc.instructions == ("mov",) and doc.skipped_directive_count == 1


def test_a_string_ends_at_its_line_end():
    assert _strip_comments('.file 1 "a/*b\n*/ mov.u32 %r1, %r2;') == (
        '.file 1 "a/*b\n*/ mov.u32 %r1, %r2;')
    assert _strip_comments('.pragma "a\n// c\nx') == '.pragma "a\n \nx'


def test_unclosed_block_comments_strip_in_linear_time():
    """Once one ``/*`` finds no ``*/``, no later one looks for it.  On a 2-core
    x86 machine (Python 3.11) 100k unclosed ``/*`` strip in ~0.05 s; searching
    the rest of the text at each took 0.23 s for 8k, growing with the square."""
    text = "mov.u32 %r1, %r2;\n" + "/* x\n" * 100_000
    start = time.perf_counter()
    assert _strip_comments(text) == text
    assert time.perf_counter() - start < 1.5
    # a string that runs to its line end stops no later comment from closing
    assert _strip_comments('.file 1 "a\n/* c */ mov;/* x\n/* y */') == '.file 1 "a\n  mov;\n'


# What comment stripping was before it knew strings: on text with no '"'
# the two must agree.
_COMMENT_ORACLE = re.compile(r"//[^\n]*+|/\*.*?\*/", re.DOTALL)
# The same with strings, as one (slow) regex: a string matches whole and stays.
_STRING_ORACLE = re.compile(r'"[^"\n]*+"?+|//[^\n]*+|/\*.*?\*/', re.DOTALL)


def _comment_soup(pieces):
    return st.lists(st.sampled_from(pieces), max_size=30).map("".join) | st.text(
        "".join(pieces), max_size=40)


@given(_comment_soup(["/", "*", "//", "/*", "*/", "\n", " ", "a", ";"]))
@settings(max_examples=500)
def test_comment_stripping_without_strings_matches_the_oracle(text):
    want = _COMMENT_ORACLE.sub(lambda m: "\n" * m.group().count("\n") or " ", text)
    assert _strip_comments(text) == want


@given(_comment_soup(['"', "/", "*", "//", "/*", "*/", "\n", " ", "a", ";"]))
@settings(max_examples=500)
def test_comment_stripping_with_strings_matches_the_oracle(text):
    want = _STRING_ORACLE.sub(
        lambda m: m.group() if m.group()[0] == '"' else "\n" * m.group().count("\n") or " ",
        text)
    assert _strip_comments(text) == want


def test_double_colon_modifiers_and_spaced_guards_take_the_strict_branch():
    for stmt, root in [
        ("cp.async.ca.shared.global.L2::128B [%r1], [%rd1], 16;", "cp"),
        ("@ !%p1 bra $L__BB0_1;", "bra"),
    ]:
        assert _STATEMENT_RE.match(stmt).group("root") == root
        assert parse_ptx(stmt).instructions == (root,)


def test_unknown_opcodes_parse_fine():
    assert parse_ptx("zzz_unknown.weird.u32 %r1;").instructions == ("zzz_unknown",)


_ROOTS = ["ld", "st", "mov", "mul", "setp", "bra", "ret", "zzz", "foo2", "cvt"]
_MODS = ["wide", "global", "rn", "to", "lo", "sat", "param", "sync", "v2", "uni",
         "L2::128B", "shared::cta"]
_TYPES = ["u8", "s16", "b32", "u64", "f16", "f32", "f64", "pred"]
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
    st.one_of(st.none(), st.sampled_from(_TYPES)),
    st.lists(st.sampled_from(_OPERANDS), max_size=4),
    st.one_of(st.none(), st.sampled_from(["@%p1", "@!%p2", "@ !%p3"])),
)


@given(instruction_strategy)
def test_round_trip_property(parts):
    """A statement built from a root, modifiers, a type, operands and a guard
    parses back to that root, through the regex and through the validator."""
    root, mods, suffix, ops, guard = parts
    token = ".".join([root, *mods] + ([suffix] if suffix else []))
    stmt = f"{guard + ' ' if guard else ''}{token} {', '.join(ops)}".rstrip()
    assert parse_ptx(stmt + ";").instructions == (root,)
    assert _parse_instruction(stmt, 1) == root


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
    assert doc.instructions == ("add",) * n_inst
    assert doc.skipped_directive_count == n_skip
    assert n_inst + n_skip + n_blank == len(kinds)


def test_unterminated_trailing_fragment_is_counted_apart():
    doc = parse_ptx(".reg .b32 %r<4>;\nmov.u32 %r1, %r2;\nadd.u32 %r3,\n%r1, 1")
    assert doc.instructions == ("mov",)
    assert doc.skipped_directive_count == 1
    assert doc.fragment_count == 1


def test_trailing_whitespace_is_scanned_once():
    start = time.perf_counter()
    doc = parse_ptx("ret;" + " \n" * 500)
    assert time.perf_counter() - start < 1.0  # took 2.5 s when rescanned per position
    assert doc.instructions == ("ret",)
    assert doc.fragment_count == 0


def test_line_counting_is_linear():
    """Lines are counted on from the last checked statement (every ``ret`` is
    checked), never from the start of the text.  On a 2-core x86 machine
    (Python 3.11) the parse takes ~0.045 s; counting from the start of the
    text took 4.6 s."""
    call = "call.uni (retval0),\n\tvprintf,\n\t(\n\tparam0,\n\tparam1\n\t);"
    statements = [call if i % 4 == 0 else "ret;" for i in range(30_000)]
    starts = [1]
    for stmt in statements:
        starts.append(starts[-1] + stmt.count("\n") + 4)
    text = "\n\n\n\n".join(statements)
    start = time.perf_counter()
    doc = parse_ptx(text)
    assert time.perf_counter() - start < 1.5
    assert doc.instructions.count("call") == 7_500
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
    assert doc.fragment_count == 0
    assert doc.instructions.count("call") == 1
    text = VPRINTF_KERNEL.read_text()
    call_lines = [n for n, line in enumerate(text.splitlines(), 1) if "call.uni" in line]
    assert len(call_lines) == 1
    # the multi-line call is one statement that starts on its first line
    with pytest.raises(MalformedInstruction) as excinfo:
        parse_ptx(text.replace("call.uni", "call.uni )"))
    assert excinfo.value.line == call_lines[0]


# Whitespace that must separate two tokens, and whitespace that may.
_SEP = st.sampled_from([" ", "\t", "\n", " \n\t", "\n\n  "])
_GAP = st.one_of(st.just(""), _SEP)
# Call operands, and a nested operand that only the validator handles.
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


_STATEMENTS = st.lists(
    st.one_of(
        _reflowed_statement(),
        st.sampled_from(_OTHER_STATEMENTS).map(lambda s: (s, s)),
    ),
    max_size=12,
)
_SEPARATORS = st.lists(_SEP, min_size=12, max_size=12)


@given(_STATEMENTS, _SEPARATORS)
@settings(max_examples=100)
def test_newline_law(statements, separators):
    """Newlines are whitespace: re-flowing the whitespace between tokens and
    operands changes no instruction, and each re-flowed statement still
    passes the validator."""
    flat = parse_ptx("\n".join(one_line for one_line, _ in statements))
    flowed = parse_ptx(
        "".join(sep + text for (_, text), sep in zip(statements, separators))
    )
    assert profile(flowed, "w") == profile(flat, "w")
    assert flowed.instructions == flat.instructions
    assert flowed.skipped_directive_count == flat.skipped_directive_count
    roots = [_parse_instruction(text[:-1], 1) for (_, text) in statements
             if text not in _OTHER_STATEMENTS]
    assert tuple(roots) == flat.instructions


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


# Whole modules of re-flowed statements, with many multi-line ones.
_FLOWED_MODULE = st.builds(
    lambda statements, separators: "".join(
        sep + text for (_, text), sep in zip(statements, separators)
    ),
    _STATEMENTS,
    _SEPARATORS,
)


@given(_SOUP | _FLOWED_MODULE)
@settings(max_examples=300)
def test_instructions_are_the_decoded_roots(text):
    """The roots a document keeps are the roots the validator gives for every
    instruction statement, and a statement that fails the validator raises
    at its own first line, counted from the start of the text.  A checked
    ``ret;`` before every earlier statement makes the parser count lines on
    from each of them."""
    try:
        doc = parse_ptx(text)
    except MalformedInstruction:
        return
    stripped = _strip_comments(text).rstrip()
    statements = [m for m in _STATEMENT_RE.finditer(stripped) if m.group("stmt") is not None]
    assert doc.instructions == tuple(_parse_instruction(m.group("stmt"), 1) for m in statements)
    starts = [m.start("stmt") for m in statements]
    for k, start in enumerate(starts):
        cuts = [0, *starts[:k], start]
        checked = "ret;".join(stripped[a:b] for a, b in zip(cuts, cuts[1:]))
        with pytest.raises(MalformedInstruction) as excinfo:
            parse_ptx(checked + "ret %r1;" + stripped[start:])
        assert excinfo.value.line == stripped.count("\n", 0, start) + 1


# Operand text built from brackets and separators, after an opcode.
_OPERAND_SOUP = st.lists(
    st.sampled_from(["%r1", "x", ",", " ", "\n", "[", "]", "{", "}", "(", ")"]),
    max_size=12,
).map(lambda parts: "mov.u32 " + "".join(parts) + ";")


@given(_SOUP | _OPERAND_SOUP)
@settings(max_examples=300)
def test_strict_statements_decode(text):
    """Whatever the statement regex's common-shape branch accepts, the
    validator accepts too, with the same opcode root."""
    for m in _STATEMENT_RE.finditer(text):
        if m.group("root") is not None:
            assert _parse_instruction(m.group("stmt"), 1) == m.group("root")


def _backtracking(regex):
    """``regex`` with each possessive quantifier (``*+``, ``++``, ``?+``) made
    greedy, so the engine may backtrack into it."""
    pattern = re.sub(r"([*+?])\+", r"\1", regex.pattern)
    assert pattern != regex.pattern
    return re.compile(pattern, regex.flags)


_BACKTRACKING = [(regex, _backtracking(regex)) for regex in (_STATEMENT_RE, _OPCODE_RE)]


def _assert_possessive_changes_no_match(text):
    stripped = _strip_comments(text)
    for possessive, backtracking in _BACKTRACKING:
        for scanned in (text, stripped):
            got = [(m.span(), m.groupdict()) for m in possessive.finditer(scanned)]
            want = [(m.span(), m.groupdict()) for m in backtracking.finditer(scanned)]
            assert got == want


@given(_SOUP | _OPERAND_SOUP | _FLOWED_MODULE)
@settings(max_examples=300)
def test_possessive_quantifiers_change_no_match(text):
    """The scan's regexes match as their backtracking forms do: same spans,
    same groups.  So no piece ever needs to give a character back."""
    _assert_possessive_changes_no_match(text)


@pytest.mark.parametrize("name", ["copy_kernel.ptx", "vprintf_kernel.ptx"])
def test_possessive_quantifiers_change_no_match_on_the_fixtures(name):
    _assert_possessive_changes_no_match((DATA / name).read_text())
