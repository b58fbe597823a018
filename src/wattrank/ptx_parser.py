"""Statement-oriented parser for NVIDIA PTX assembly text.

Implements the textual PTX 7.x subset needed for static opcode analysis.
Comments (``//`` and ``/* */``) are stripped, then one regex pass splits
the text into statements.  As in the PTX ISA, newlines are whitespace, so
nvcc's multi-line ``.extern .func`` declarations and ``call`` statements
are single statements.  Braces, labels and directives are counted and
skipped (``.version``, ``.target``, ``.address_size``, ``.file``, ``.loc``,
``.reg``, ``.local``, ``.shared``, ``.param`` and ``.pragma`` end at the
line, and a ``;`` inside their quoted strings does not end them; others
end at ``;`` or before a body ``{``).  Trailing text with no
``;`` is counted as an unterminated fragment.  Every other statement is
an instruction: an optional guard and an opcode (``@!%p1 cp.async.L2::128B``),
followed by whitespace or ``;``.  A document keeps only its opcode root,
which is all that profiling reads.  The statements whose shape the regex
cannot vouch for, and those whose opcode takes no operands, are checked
in full, and lines are counted up to just those, so a malformed one
raises with its line.  There is no semantic checking: unknown opcodes
parse fine and are classified downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import WattrankError


class MalformedInstruction(WattrankError):
    """A ``;``-terminated statement that cannot be parsed as an instruction."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


# Opcodes that take no operands; one with an operand has lost its ``;``
# (``ret⏎exit;``).
OPERANDLESS_ROOTS = frozenset({"ret", "exit", "trap", "brkpt"})

# An instruction's optional guard and opcode; modifiers may hold ``::``.
_OPCODE = (
    r"(?:@\s*+!?+\s*+%?+[A-Za-z_$][A-Za-z0-9_$]*+\s++)?+"
    r"(?P<root>[A-Za-z_][A-Za-z0-9_]*+)(?:\.[A-Za-z0-9_:]++)*+"
)
# An operand of the common shape: a flat token or one unnested bracket group.
_ATOM = r"(?:[^\s,;()\[\]{}]++|\[[^;()\[\]{}]*+\]|\{[^;()\[\]{}]*+\}|\([^;()\[\]{}]*+\))"
# One statement per match, after optional whitespace.  Groups: ``stmt`` is an
# instruction's text before its ``;`` and ``root`` its opcode root when the
# statement has the common shape (``_OPCODE``, comma-separated atoms), which
# _parse_instruction is certain to accept unless the root is in
# OPERANDLESS_ROOTS and has operands; ``fragment`` is trailing text with no
# ``;``.  Braces, labels and directives match no group.  A line-terminated
# directive reads a quoted string whole, so ``.file 1 "a;b.cu"`` is one
# statement.
#
# Every quantifier is possessive (``*+``, ``++``, ``?+``, Python 3.11+): it
# keeps what it took, so the engine stores no state to backtrack into.  No
# match changes, because a backtrack could never lead to one: each piece
# stops where the next has to start.  A flat operand cannot hold the ``,``,
# whitespace or ``;`` that follows it, a root or a modifier cannot hold the
# ``.`` that follows it, ``[^;]*`` cannot hold its ``;``, and nothing after
# the other alternatives can fail.
_STATEMENT_RE = re.compile(
    rf"""\s*+(?:
        [{{}}]
      | [A-Za-z_$%][A-Za-z0-9_$]*+\s*+:
      | \.(?:version|target|address_size|file|loc|reg|local|shared|param|pragma)\b
        (?:"[^"\n]*+"|[^;\n])*+;?+
      | \.[^;{{}}=]*+(?:=[^;]*+)?+;?+
      | (?P<stmt>
            {_OPCODE}
            (?:\s++{_ATOM}(?:\s*+,\s*+{_ATOM})*+)?+\s*+(?=;)
          | [^;]*+
        );
      | (?P<fragment>\S[\s\S]*+)
    )""",
    re.VERBOSE,
)
_OPCODE_RE = re.compile(rf"{_OPCODE}(?!\S)")


@dataclass(frozen=True)
class PtxDocument:
    """One PTX file's instruction statements, as opcode roots in source
    order, and how many other statements it skipped."""

    instructions: tuple[str, ...]
    skipped_directive_count: int  # directives, labels and braces
    fragment_count: int  # unterminated trailing text


def _has_operands(text: str, line: int) -> bool:
    """Whether operand text holds an operand; raises :class:`MalformedInstruction`
    at ``line`` on unbalanced (), [] or {}, an empty operand, or a line break
    between two tokens of one top-level operand, the sign of a missing ``;``
    (``mov.u32 %r1, %r2⏎add.u32 ...``).  One next to a comma or inside
    brackets is whitespace."""
    depth = 0
    comma = empty = token = newline = broken = False
    for ch in text:
        if ch.isspace():
            newline = newline or (ch == "\n" and depth == 0 and token)
        elif ch == "," and depth == 0:
            comma, empty, token, newline = True, empty or not token, False, False
        else:
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
                if depth < 0:
                    raise MalformedInstruction(line, f"unbalanced {ch!r} in operands")
            token, broken = True, broken or newline
    if depth != 0:
        raise MalformedInstruction(line, "unbalanced brackets in operands")
    if not (comma or token):
        return False
    if empty or not token:
        raise MalformedInstruction(line, "empty operand")
    if broken:
        raise MalformedInstruction(line, "line break inside an operand (missing ';'?)")
    return True


def _parse_instruction(stmt: str, line: int) -> str:
    """Check one instruction statement (its text before ``;``), which must
    start with ``_OPCODE`` and whitespace or its end, and return its opcode
    root; raise :class:`MalformedInstruction` at ``line`` if it is malformed."""
    m = _OPCODE_RE.match(stmt)
    if m is None:
        raise MalformedInstruction(line, f"no opcode at the start of {stmt[:40]!r}")
    root = m.group("root")
    if _has_operands(stmt[m.end() :], line) and root in OPERANDLESS_ROOTS:
        raise MalformedInstruction(line, f"{root!r} takes no operands (missing ';'?)")
    return root


def _strip_comments(text: str) -> str:
    """``text`` with each ``//`` and closed ``/* */`` comment outside a string
    (``"`` to its closing quote or line end, as in ``.file 1 "/src/*/k.cu"``)
    replaced by its newlines, or by a space when it has none."""
    parts = []
    kept = pos = 0  # text[:kept] is in parts, and text[:pos] is scanned
    slash = -1  # the first "/" at or after pos, while slash >= pos
    eot = len(text) + 1  # "i % eot" turns find's -1 into len(text)
    end = 0  # -1 once a "/*" finds no "*/": then no later one can, so none looks
    while slash >= pos or (slash := text.find("/", pos)) >= 0:
        quote = text.find('"', pos, slash)
        if quote >= 0:  # skip the string
            eol = text.find("\n", quote) % eot
            close = text.find('"', quote + 1, eol)
            pos = (close if close >= 0 else eol) + 1
        elif text.startswith("//", slash):
            parts += (text[kept:slash], " ")
            kept = pos = text.find("\n", slash) % eot
        elif (end >= 0 and text.startswith("/*", slash)
              and (end := text.find("*/", slash + 2)) >= 0):
            parts += (text[kept:slash], "\n" * text.count("\n", slash, end) or " ")
            kept = pos = end + 2
        else:  # no comment opens here, or an unclosed "/*"
            pos = slash + 1
    return "".join(parts) + text[kept:]


def parse_ptx(text: str) -> PtxDocument:
    """Parse PTX source text, which need not be a complete valid module.

    Raises :class:`MalformedInstruction` on an instruction statement that
    is not an optional guard and an opcode followed by whitespace or ``;``
    (``add..u32``, ``add.f32%f1``, a stray operand or ``/*``), whose
    operands hold unbalanced brackets, an empty operand or a line break, or
    that gives operands to an opcode of :data:`OPERANDLESS_ROOTS`; parsing
    aborts at that point.
    """
    # Comments keep their newlines, so line numbers stay right; trailing
    # whitespace goes, as the regex would rescan it from every position.
    text = _strip_comments(text).rstrip()
    roots: list[str] = []
    skipped = fragments = 0
    line, counted_to = 1, 0
    for m in _STATEMENT_RE.finditer(text):
        kind = m.lastgroup  # "stmt" (it closes after "root"), "fragment" or None
        if kind == "stmt":
            root = m["root"]
            if root is None or root in OPERANDLESS_ROOTS:
                # Not the common shape, or no operands allowed: check it now,
                # so a malformed one raises.  Only these need their text and
                # line, and counting on from the last one keeps the pass linear.
                start = m.start("stmt")
                line += text.count("\n", counted_to, start)
                counted_to = start
                root = _parse_instruction(m["stmt"], line)
            roots.append(root)
        elif kind is None:
            skipped += 1
        else:
            fragments += 1

    return PtxDocument(
        instructions=tuple(roots),
        skipped_directive_count=skipped,
        fragment_count=fragments,
    )


def parse_ptx_file(path) -> PtxDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_ptx(fh.read())
