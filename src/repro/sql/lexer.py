"""SQL tokenizer."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SqlSyntaxError


class TokType(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    PUNCT = "punct"
    PARAM = "param"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "AS", "GROUP", "ORDER",
        "BY", "ASC", "DESC", "LIMIT", "INSERT", "INTO", "VALUES", "UPDATE",
        "SET", "DELETE", "NULL",
    }
)

_OPS = ("<>", "<=", ">=", "=", "<", ">")
_PUNCT = "(),.*"


@dataclass(frozen=True)
class Token:
    type: TokType
    text: str
    pos: int

    @property
    def upper(self) -> str:
        return self.text.upper()


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`SqlSyntaxError` on bad characters."""
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "?":
            tokens.append(Token(TokType.PARAM, "?", i))
            i += 1
            continue
        if ch == "'":
            j = i + 1
            buf: list[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError("unterminated string literal", i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":  # escaped quote
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(sql[j])
                j += 1
            tokens.append(Token(TokType.STRING, "".join(buf), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and sql[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
                if sql[j] == ".":
                    # ``1.`` followed by an identifier is a qualified name, not
                    # a float — only consume the dot when a digit follows.
                    if j + 1 >= n or not sql[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(TokType.NUMBER, sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            text = sql[i:j]
            ttype = TokType.KEYWORD if text.upper() in KEYWORDS else TokType.IDENT
            tokens.append(Token(ttype, text, i))
            i = j
            continue
        matched_op = next((op for op in _OPS if sql.startswith(op, i)), None)
        if matched_op:
            tokens.append(Token(TokType.OP, matched_op, i))
            i += len(matched_op)
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokType.PUNCT, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokType.EOF, "", n))
    return tokens
