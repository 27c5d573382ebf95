"""The reference expression grammar for the differential test of
procforge.bpmn's parser: a recursive-descent parser with one method per
precedence level, written out as plainly as the grammar reads.

    expr    := or
    or      := and ('||' and)*
    and     := cmp ('&&' cmp)*
    cmp     := add (('==' | '!=' | '<' | '<=' | '>' | '>=') add)?
    add     := mul (('+' | '-') mul)*
    mul     := unary (('*' | '/') unary)*
    unary   := ('!' | '-') unary | primary
    primary := '(' expr ')' | literal | identifier

Every operator and every pair of parentheses adds one level of depth; an
expression deeper than MAX_EXPR_DEPTH is a ConditionParseError. It builds
the same trees and raises the same errors, with the same message, offset
and expected tuple, as procforge.bpmn.parse_condition and parse_script.
"""

import re

from procforge.bpmn import MAX_EXPR_DEPTH, ConditionParseError
from procforge.ir import ADDRESS_RE, IDENTIFIER_RE, Assign, BinOp, Lit, UnaryOp, Var

_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<address>{ADDRESS_RE.pattern}(?![0-9a-fA-F]))
  | (?P<hexint>0x[0-9a-fA-F]+)
  | (?P<int>\d+)
  | (?P<ident>{IDENTIFIER_RE.pattern})
  | (?P<string>"[^"\n]*")
  | (?P<op>:=|==|!=|<=|>=|&&|\|\||[-+*/<>!()=;])
""", re.VERBOSE)


def tokenize(text, newline_ends_statement=False):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ConditionParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        elif newline_ends_statement and "\n" in m.group():
            tokens.append(("op", ";", text.index("\n", pos)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.open = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind == "op" and value == op:
            return self.next()
        raise ConditionParseError(f"unexpected token {value or 'end of input'!r}",
                                  offset, (op,))

    @staticmethod
    def _bounded(depth, offset):
        if depth > MAX_EXPR_DEPTH:
            raise ConditionParseError(
                f"expression nested deeper than {MAX_EXPR_DEPTH} levels", offset)
        return depth

    def _nested(self, parse, offset):
        self.open = self._bounded(self.open + 1, offset)
        e, depth = parse()
        self.open -= 1
        return e, self._bounded(depth + 1, offset)

    def parse_expr(self):
        return self._or()

    def _binary(self, sub, ops):
        left, depth = sub()
        while True:
            kind, value, offset = self.peek()
            if kind != "op" or value not in ops:
                return left, depth
            self.next()
            right, rdepth = sub()
            left, depth = BinOp(value, left, right), self._bounded(1 + max(depth, rdepth), offset)

    def _or(self):
        return self._binary(self._and, ("||",))

    def _and(self):
        return self._binary(self._cmp, ("&&",))

    def _cmp(self):
        left, depth = self._add()
        kind, value, offset = self.peek()
        if kind == "op" and value in ("==", "!=", "<", "<=", ">", ">="):
            self.next()
            right, rdepth = self._add()
            return BinOp(value, left, right), self._bounded(1 + max(depth, rdepth), offset)
        return left, depth

    def _add(self):
        return self._binary(self._mul, ("+", "-"))

    def _mul(self):
        return self._binary(self._unary, ("*", "/"))

    def _unary(self):
        kind, value, offset = self.peek()
        if kind == "op" and value in ("!", "-"):
            self.next()
            operand, depth = self._nested(self._unary, offset)
            return UnaryOp(value, operand), depth
        return self._primary()

    def _primary(self):
        kind, value, offset = self.next()
        if kind == "op" and value == "(":
            e, depth = self._nested(self.parse_expr, offset)
            self.expect_op(")")
            return e, depth
        return self._leaf(kind, value, offset), 0

    def _leaf(self, kind, value, offset):
        if kind in ("int", "hexint"):
            try:
                return Lit(int(value, 16 if kind == "hexint" else 10), "int_const")
            except ValueError:
                raise ConditionParseError("integer literal has too many digits",
                                          offset) from None
        if kind == "address":
            return Lit(value, "address")
        if kind == "string":
            return Lit(value[1:-1], "string")
        if kind == "ident":
            if value == "true":
                return Lit(True, "bool")
            if value == "false":
                return Lit(False, "bool")
            return Var(value)
        raise ConditionParseError(
            f"unexpected token {value or 'end of input'!r}", offset,
            ("literal", "identifier", "("))


def parse_condition(text):
    p = Parser(tokenize(text))
    e, _ = p.parse_expr()
    kind, value, offset = p.peek()
    if kind != "eof":
        raise ConditionParseError(f"trailing input {value!r}", offset, ("end of input",))
    return e


def parse_script(text):
    p = Parser(tokenize(text, newline_ends_statement=True))
    statements = []
    while p.peek()[0] != "eof":
        kind, value, offset = p.next()
        if (kind, value) == ("op", ";"):
            continue
        if kind != "ident":
            raise ConditionParseError("expected assignment target", offset, ("identifier",))
        target = value
        kind, op, offset = p.next()
        if kind != "op" or op not in ("=", ":="):
            raise ConditionParseError(f"expected assignment operator, got {op!r}",
                                      offset, ("=", ":="))
        e, _ = p.parse_expr()
        kind, value, offset = p.peek()
        if kind != "eof" and (kind, value) != ("op", ";"):
            raise ConditionParseError(f"trailing input {value!r}", offset, (";", "end of input"))
        statements.append(Assign(target, e))
    return tuple(statements)
