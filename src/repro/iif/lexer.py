"""Tokenizer for the Irvine Intermediate Form (IIF).

The lexer recognizes the operator set of Appendix A (boolean operators,
sequential / interface operators written with a ``~`` prefix, aggregate
assignment operators) and the ``#``-prefixed expansion directives
(``#if``, ``#else``, ``#for``, ``#c_line`` and sub-function calls such as
``#ADDER``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..wire import Record
from .ast import IifSyntaxError


class Token(Record, frozen=True):
    """A single lexical token."""

    kind: str
    value: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, line={self.line})"


#: Token kinds produced by the lexer.
KIND_IDENT = "IDENT"
KIND_NUMBER = "NUMBER"
KIND_OP = "OP"
KIND_DIRECTIVE = "DIRECTIVE"  # '#if', '#else', '#for', '#c_line'
KIND_SUBCALL = "SUBCALL"      # '#NAME' where NAME is a sub-function
KIND_EOF = "EOF"

#: Directives understood by the expander.  ``#cline`` is accepted as an
#: alias of ``#c_line`` because the paper uses both spellings.
DIRECTIVES = {"#if", "#else", "#for", "#c_line", "#cline"}

#: Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = [
    "(+)=",
    "(.)=",
    "(+)",
    "(.)",
    "**",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "*=",
    "~a",
    "~b",
    "~s",
    "~d",
    "~t",
    "~w",
    "~f",
    "~r",
    "~h",
    "~l",
]

_SINGLE_OPS = set("+-*/%!=<>@()[]{},;:")


def tokenize(source: str) -> List[Token]:
    """Tokenize IIF source text into a list of tokens (ending with EOF)."""
    tokens: List[Token] = []
    line = 1
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]
        # -- whitespace ------------------------------------------------------
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        # -- comments ----------------------------------------------------------
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise IifSyntaxError("unterminated comment", line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        # -- directives and sub-function calls --------------------------------
        if ch == "#":
            j = i + 1
            while j < length and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            lowered = word.lower()
            if lowered in DIRECTIVES:
                canonical = "#c_line" if lowered in ("#cline", "#c_line") else lowered
                tokens.append(Token(KIND_DIRECTIVE, canonical, line))
            elif len(word) > 1:
                tokens.append(Token(KIND_SUBCALL, word[1:], line))
            else:
                raise IifSyntaxError("stray '#'", line)
            i = j
            continue
        # -- numbers -----------------------------------------------------------
        if ch.isdigit():
            j = i
            while j < length and source[j].isdigit():
                j += 1
            tokens.append(Token(KIND_NUMBER, source[i:j], line))
            i = j
            continue
        # -- identifiers -------------------------------------------------------
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token(KIND_IDENT, source[i:j], line))
            i = j
            continue
        # -- multi-character operators ----------------------------------------
        matched = False
        for op in _MULTI_OPS:
            if source.startswith(op, i):
                # ``~`` operators are only operators when followed by their
                # letter; a bare ``~x`` identifier would have been caught by
                # the identifier rule above, so no ambiguity remains.
                tokens.append(Token(KIND_OP, op, line))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        # -- single-character operators -----------------------------------------
        if ch in _SINGLE_OPS:
            tokens.append(Token(KIND_OP, ch, line))
            i += 1
            continue
        raise IifSyntaxError(f"unexpected character {ch!r}", line)
    tokens.append(Token(KIND_EOF, "", line))
    return tokens


class TokenStream:
    """A cursor over a token list with one-token lookahead helpers."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != KIND_EOF:
            self._pos += 1
        return token

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.current
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if not self.check(kind, value):
            expected = value if value is not None else kind
            raise IifSyntaxError(
                f"expected {expected!r}, found {self.current.value!r}",
                self.current.line,
            )
        return self.advance()

    def at_end(self) -> bool:
        return self.current.kind == KIND_EOF
