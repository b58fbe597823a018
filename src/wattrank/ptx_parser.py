"""Statement-oriented parser for NVIDIA PTX assembly text.

Implements the textual PTX 7.x subset needed for static opcode analysis.
Comments (``//`` and ``/* */``) are stripped, then one regex pass splits
the text into statements.  As in the PTX ISA, newlines are whitespace, so
nvcc's multi-line ``.extern .func`` declarations and ``call`` statements
are single statements.  Braces, labels and directives are counted and
skipped (``.version``, ``.target``, ``.address_size``, ``.file`` and
``.loc`` end at the line, other directives at ``;`` or before a body
``{``); ``.entry`` directives also contribute kernel names.  Trailing text
with no ``;`` is counted as an unterminated fragment.  Every other
statement is an instruction: parsing keeps its opcode root, text and line,
and :attr:`PtxDocument.instructions` decodes it on first use into root,
modifiers, data-type suffix and operands.  There is no semantic checking
(register typing, ABI): unknown opcodes parse fine and are classified
downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import WattrankError


class MalformedInstruction(WattrankError):
    """A ``;``-terminated statement that cannot be parsed as an instruction."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


# Trailing dot-separated token that counts as the data-type suffix.  Anything
# else (rounding modes, .wide, .global, vector widths, bf16/tf32, ...) stays
# a modifier.
TYPE_SUFFIXES = frozenset(
    f"{kind}{width}" for kind in "usb" for width in (8, 16, 32, 64)
) | {"f16", "f32", "f64", "pred"}
# Opcodes that take no operands; one with an operand has lost its ``;``
# (``ret⏎exit;``).
OPERANDLESS_ROOTS = frozenset({"ret", "exit", "trap", "brkpt"})

_GUARD_RE = re.compile(r"@\s*!?\s*%?[A-Za-z_$][A-Za-z0-9_$]*")
_ENTRY_RE = re.compile(r"\.entry\s+([A-Za-z_$%][A-Za-z0-9_$]*)")
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)

# An operand of the common shape: a flat token or one unnested bracket group.
_ATOM = r"(?:[^\s,;()\[\]{}]+|\[[^;()\[\]{}]*\]|\{[^;()\[\]{}]*\}|\([^;()\[\]{}]*\))"
# One statement per match, after optional whitespace.  Groups: ``stmt`` is an
# instruction's text before its ``;`` and ``root`` its opcode root when the
# statement has the common shape (guard, ``root.mods``, comma-separated
# atoms), which _parse_instruction is certain to accept unless the root is
# in OPERANDLESS_ROOTS and has operands; ``directive`` is a
# directive that may name an ``.entry``; ``fragment`` is trailing text with
# no ``;``.  Braces, labels and line-terminated directives match no group.
_STATEMENT_RE = re.compile(
    rf"""\s*(?:
        [{{}}]
      | [A-Za-z_$%][A-Za-z0-9_$]*\s*:
      | \.(?:version|target|address_size|file|loc)\b[^;\n]*;?
      | (?P<directive>\.[^;{{}}=]*(?:=[^;]*)?);?
      | (?P<stmt>
            (?:@!?%?[A-Za-z_$][A-Za-z0-9_$]*\s+)?
            (?P<root>[A-Za-z_][A-Za-z0-9_]*)(?:\.[A-Za-z0-9_]+)*
            (?:\s+{_ATOM}(?:\s*,\s*{_ATOM})*)?\s*(?=;)
          | [^;]*
        );
      | (?P<fragment>\S[\s\S]*)
    )""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class PtxInstruction:
    """One parsed machine instruction."""

    opcode_root: str
    modifiers: tuple[str, ...]
    type_suffix: str | None
    operands: tuple[str, ...]
    source_line: int
    guard: str | None = None

    @property
    def predicated(self) -> bool:
        return self.guard is not None

    @property
    def operand_count(self) -> int:
        return len(self.operands)


@dataclass(frozen=True)
class PtxDocument:
    """One PTX file's instructions in source order: their opcode roots, and
    each one's text (without the ``;``) with the line it starts on."""

    opcode_roots: tuple[str, ...]
    statements: tuple[tuple[str, int], ...]
    kernel_names: tuple[str, ...]
    skipped_directive_count: int  # directives, labels and braces
    fragment_count: int  # unterminated trailing text

    @cached_property
    def instructions(self) -> tuple[PtxInstruction, ...]:
        """Every instruction statement, decoded on first access."""
        return tuple(_parse_instruction(stmt, line) for stmt, line in self.statements)


def _split_operands(text: str, line: int) -> tuple[str, ...]:
    """Split operand text on top-level commas, respecting (), [] and {}.

    A line break between two tokens of one top-level operand means a missing
    ``;`` (``mov.u32 %r1, %r2⏎add.u32 ...``), so it raises; one next to a
    comma or inside brackets is whitespace.
    """
    operands: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise MalformedInstruction(line, f"unbalanced {ch!r} in operands")
        if ch == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise MalformedInstruction(line, "unbalanced brackets in operands")
    operands.append("".join(current).strip())
    if operands == [""]:
        return ()
    if any(not op for op in operands):
        raise MalformedInstruction(line, "empty operand")
    if "\n" in text and any(map(_breaks_at_top_level, operands)):
        raise MalformedInstruction(line, "line break inside an operand (missing ';'?)")
    return tuple(operands)


def _breaks_at_top_level(operand: str) -> bool:
    depth = 0
    for ch in operand:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "\n" and depth == 0:
            return True
    return False


def _parse_instruction(stmt: str, line: int) -> PtxInstruction:
    s = stmt.strip()
    guard = None
    if s.startswith("@"):
        m = _GUARD_RE.match(s)
        if m is None:
            raise MalformedInstruction(line, f"unparsable guard {s.split()[0]!r}")
        guard = m.group(0)
        s = s[m.end() :].lstrip()
    if not s:
        raise MalformedInstruction(line, "empty opcode")
    opcode_token, *rest = s.split(None, 1)
    pieces = [p for p in opcode_token.split(".") if p]
    if not pieces:
        raise MalformedInstruction(line, "empty opcode")
    root, *tail = pieces
    suffix = tail.pop() if tail and tail[-1] in TYPE_SUFFIXES else None
    operands = _split_operands(rest[0] if rest else "", line)
    if operands and root in OPERANDLESS_ROOTS:
        raise MalformedInstruction(line, f"{root!r} takes no operands (missing ';'?)")
    return PtxInstruction(
        opcode_root=root,
        modifiers=tuple(tail),
        type_suffix=suffix,
        operands=operands,
        source_line=line,
        guard=guard,
    )


def parse_ptx(text: str) -> PtxDocument:
    """Parse PTX source text, which need not be a complete valid module.

    Raises :class:`MalformedInstruction` on an instruction statement with
    an empty opcode, unbalanced brackets or operands on an opcode of
    :data:`OPERANDLESS_ROOTS`; parsing aborts at that point.
    """
    # Block comments keep their newlines, so line numbers stay right; trailing
    # whitespace goes, as the regex would rescan it from every position.
    text = _COMMENT_RE.sub(lambda m: "\n" * m.group().count("\n") or " ", text).rstrip()
    roots: list[str] = []
    statements: list[tuple[str, int]] = []
    kernel_names: list[str] = []
    skipped = fragments = 0
    line, pos = 1, 0
    for m in _STATEMENT_RE.finditer(text):
        directive, stmt, root, fragment = m.groups()
        if stmt is not None:
            start = m.start("stmt")
            line += text.count("\n", pos, start)
            pos = start
            if root is None or root in OPERANDLESS_ROOTS:
                # Not the common shape, or no operands allowed: decode now, so
                # a malformed one raises.
                root = _parse_instruction(stmt, line).opcode_root
            roots.append(root)
            statements.append((stmt, line))
        elif fragment is not None:
            fragments += 1
        else:
            skipped += 1
            if directive is not None:
                kernel_names.extend(_ENTRY_RE.findall(directive))

    return PtxDocument(
        opcode_roots=tuple(roots),
        statements=tuple(statements),
        kernel_names=tuple(kernel_names),
        skipped_directive_count=skipped,
        fragment_count=fragments,
    )


def parse_ptx_file(path) -> PtxDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_ptx(fh.read())


def canonical_form(
    inst: PtxInstruction, operands: Sequence[str] | None = None
) -> str:
    """Render ``root.mods.type ops;`` text that re-parses to ``inst``.

    ``operands`` defaults to the operand tokens captured at parse time.
    """
    ops: Iterable[str] = inst.operands if operands is None else operands
    token = ".".join(
        (inst.opcode_root, *inst.modifiers)
        + ((inst.type_suffix,) if inst.type_suffix else ())
    )
    head = f"{inst.guard} " if inst.predicated else ""
    body = ", ".join(ops)
    return f"{head}{token} {body};" if body else f"{head}{token};"
