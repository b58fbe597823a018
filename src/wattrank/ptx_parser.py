"""Line-oriented parser for NVIDIA PTX assembly text.

Implements the textual PTX 7.x subset needed for static opcode analysis:
each instruction statement is split into an opcode root, its dot-separated
modifiers, an optional trailing data-type suffix, and comma-separated
operands.  Directives (leading ``.``), labels, and braces are recognized,
counted, and skipped; ``.entry`` directives additionally contribute kernel
names.  Comments (``//`` and ``/* */``) are stripped before statement
splitting.  There is no semantic checking (register typing, ABI): unknown
or future opcodes parse fine and are classified downstream.

Statements are processed per physical line.  Multi-line directive headers
(e.g. an ``.entry`` parameter list) count one skipped statement per line,
and line fragments that never reach a ``;`` terminator are skipped rather
than rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

_LABEL_RE = re.compile(r"[A-Za-z_$%][A-Za-z0-9_$]*:")
_GUARD_RE = re.compile(r"@\s*!?\s*%?[A-Za-z_$][A-Za-z0-9_$]*")
_ENTRY_RE = re.compile(r"\.entry\s+([A-Za-z_$%][A-Za-z0-9_$]*)")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)

_OPEN = "([{"
_CLOSE = ")]}"


@dataclass(frozen=True)
class PtxInstruction:
    """One parsed machine instruction."""

    opcode_root: str
    modifiers: tuple[str, ...]
    type_suffix: str | None
    operands: tuple[str, ...]
    predicated: bool
    source_line: int
    guard: str | None = None

    @property
    def operand_count(self) -> int:
        return len(self.operands)


@dataclass(frozen=True)
class PtxDocument:
    """All instructions of one PTX file, in source order."""

    instructions: tuple[PtxInstruction, ...]
    kernel_names: tuple[str, ...]
    skipped_directive_count: int


def _strip_comments(text: str) -> list[str]:
    """Blank out comments while preserving the physical line structure."""

    def _blank(match: re.Match) -> str:
        return "".join(c if c == "\n" else " " for c in match.group())

    text = _BLOCK_COMMENT_RE.sub(_blank, text)
    return [line.split("//", 1)[0] for line in text.split("\n")]


def _take_directive(rest: str) -> tuple[str, str]:
    """Split off one directive statement; stops at ``;`` or a brace."""
    i = 0
    while i < len(rest) and rest[i] not in ";{}":
        i += 1
    if i < len(rest) and rest[i] == ";":
        return rest[:i], rest[i + 1 :].lstrip()
    return rest[:i], rest[i:].lstrip()


def _split_operands(text: str, line: int) -> tuple[str, ...]:
    """Split operand text on top-level commas, respecting (), [] and {}."""
    operands: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
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
    return tuple(operands)


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

    parts = s.split(None, 1)
    opcode_token = parts[0]
    operand_text = parts[1] if len(parts) > 1 else ""

    pieces = [p for p in opcode_token.split(".") if p]
    if not pieces:
        raise MalformedInstruction(line, "empty opcode")
    root = pieces[0]
    tail = pieces[1:]
    if tail and tail[-1] in TYPE_SUFFIXES:
        suffix: str | None = tail[-1]
        modifiers = tuple(tail[:-1])
    else:
        suffix = None
        modifiers = tuple(tail)

    return PtxInstruction(
        opcode_root=root,
        modifiers=modifiers,
        type_suffix=suffix,
        operands=_split_operands(operand_text, line),
        predicated=guard is not None,
        source_line=line,
        guard=guard,
    )


def parse_ptx(text: str) -> PtxDocument:
    """Parse PTX source text into a :class:`PtxDocument`.

    Every ``;``-terminated statement whose first token is not a directive,
    label, or brace becomes a :class:`PtxInstruction`.  The input need not
    be a complete valid PTX module.

    Raises :class:`MalformedInstruction` on an instruction statement with
    an empty opcode or unbalanced brackets; parsing aborts at that point.
    """
    instructions: list[PtxInstruction] = []
    kernel_names: list[str] = []
    skipped = 0

    for lineno, raw_line in enumerate(_strip_comments(text), start=1):
        rest = raw_line.strip()
        while rest:
            if rest[0] in "{}":
                skipped += 1
                rest = rest[1:].lstrip()
                continue
            if label := _LABEL_RE.match(rest):
                skipped += 1
                rest = rest[label.end() :].lstrip()
                continue
            if rest[0] == ".":
                directive, rest = _take_directive(rest)
                skipped += 1
                kernel_names.extend(_ENTRY_RE.findall(directive))
                continue
            semi = rest.find(";")
            if semi < 0:
                # Fragment without a terminator (e.g. the ')' closing a
                # multi-line parameter list): not an instruction.
                skipped += 1
                break
            instructions.append(_parse_instruction(rest[:semi], lineno))
            rest = rest[semi + 1 :].lstrip()

    return PtxDocument(
        instructions=tuple(instructions),
        kernel_names=tuple(kernel_names),
        skipped_directive_count=skipped,
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
    head = f"{inst.guard or '@%p'} " if inst.predicated else ""
    body = ", ".join(ops)
    return f"{head}{token} {body};" if body else f"{head}{token};"
