"""A reader of the Solidity that codegen emits: a tokenizer, and the names
each scope of a unit declares and reads.

It reads contracts, state variables, struct members, events, modifiers,
constructors, function headers with their named returns, the locals of
each body and the identifiers each body reads. A body is read as a
sequence of statements, each either a local declaration or tokens whose
names are reads; expressions are not parsed. Anything else, such as an
enum or inheritance, raises ReadError.

Scopes are keyed by their path in the unit: () for the unit, (contract,)
for a contract and (contract, member) for a struct, event, modifier,
constructor or function. A function's locals, in whatever block, share its
scope with its parameters and returns. declares lists a scope's names in
order, so a name declared twice is listed twice.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Set, Tuple

TOKEN_RE = re.compile(r"""
    (?P<space>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<number>0x[0-9a-fA-F]+|[0-9]+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>=>|==|!=|<=|>=|&&|\|\||\+\+|--|\+=|-=|[-+*/%<>=!~&|^?:;,.(){}\[\]])
""", re.VERBOSE | re.DOTALL)

# the words a body uses that are neither declared nor read
KEYWORDS = frozenset("""
    contract struct event modifier constructor function returns return emit if else while
    new public private internal external view pure payable memory calldata storage indexed
    constant true false
""".split())
# the names a body reads that the language declares
BUILTINS = frozenset("msg this require revert keccak256 abi address bool string uint int".split())
ELEMENTARY_RE = re.compile(r"u?int[0-9]*|bytes[0-9]*|address|bool|string")
LOCATIONS = ("memory", "calldata", "storage", "indexed")
HEADER_WORDS = ("public", "private", "internal", "external", "view", "pure", "payable")


class ReadError(Exception):
    pass


class Token(NamedTuple):
    kind: str  # string, number, name or op
    text: str
    pos: int


def tokenize(text: str) -> List[Token]:
    tokens, pos = [], 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if m is None:
            raise ReadError(f"unexpected {text[pos]!r} at {pos}")
        if m.lastgroup != "space":
            tokens.append(Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class Scope(NamedTuple):
    """What one scope declares and reads. hides is False for a struct or an
    event, whose names hide nothing."""

    path: Tuple[str, ...]
    declares: List[str]
    reads: Set[str]
    hides: bool


class _Reader:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.scopes: Dict[Tuple[str, ...], Scope] = {}

    # --- tokens

    def peek(self, k: int = 0) -> str:
        j = self.i + k
        return self.tokens[j].text if j < len(self.tokens) else ""

    def take(self, text: str = None) -> str:
        if self.i >= len(self.tokens):
            raise ReadError(f"unexpected end, expected {text!r}")
        tok = self.tokens[self.i]
        if text is not None and tok.text != text:
            raise ReadError(f"expected {text!r}, got {tok.text!r} at {tok.pos}")
        self.i += 1
        return tok.text

    def name(self) -> str:
        tok = self.tokens[self.i] if self.i < len(self.tokens) else None
        if tok is None or tok.kind != "name" or tok.text in KEYWORDS:
            raise ReadError(f"expected a name at {tok.pos if tok else 'end'}")
        self.i += 1
        return tok.text

    # --- scopes

    def scope(self, path, hides=True) -> Scope:
        if path not in self.scopes:
            self.scopes[path] = Scope(path, [], set(), hides)
        return self.scopes[path]

    def declare(self, path, name):
        self.scope(path).declares.append(name)

    def read(self, path, name):
        if name not in KEYWORDS:
            self.scope(path).reads.add(name)

    # --- the unit

    def unit(self) -> List[Scope]:
        self.scope(())
        while self.i < len(self.tokens):
            if self.peek() == "pragma":
                while self.take() != ";":
                    pass
            else:
                self.contract()
        return list(self.scopes.values())

    def contract(self):
        self.take("contract")
        c = self.name()
        self.declare((), c)
        self.scope((c,))
        self.take("{")
        while self.peek() != "}":
            self.member(c)
        self.take("}")

    def member(self, c: str):
        kind = self.peek()
        if kind in ("struct", "event"):
            self.take()
            name = self.name()
            self.declare((c,), name)
            self.scope((c, name), hides=False)
            if kind == "struct":
                self.take("{")
                while self.peek() != "}":
                    self.type_((c,))
                    self.declare((c, name), self.name())
                    self.take(";")
                self.take("}")
            else:
                self.params((c, name))
                self.take(";")
        elif kind in ("modifier", "constructor", "function"):
            self.take()
            name = "constructor" if kind == "constructor" else self.name()
            if kind != "constructor":
                self.declare((c,), name)
            path = (c, name)
            self.scope(path)
            self.params(path)
            while self.peek() not in ("{", ";", "returns"):
                if self.peek() not in HEADER_WORDS:
                    self.read(path, self.name())  # a modifier
                    if self.peek() == "(":
                        self.tokens_until(path, ")")
                else:
                    self.take()
            if self.peek() == "returns":
                self.take()
                self.params(path)
            if self.peek() == ";":
                self.take()
            else:
                self.block(path)
        else:  # a state variable
            self.type_((c,))
            while self.peek() in HEADER_WORDS + ("constant",):
                self.take()
            self.declare((c,), self.name())
            if self.peek() == "=":
                self.take()
                self.tokens_until((c,), ";")
            else:
                self.take(";")

    def type_(self, path):
        if self.peek() == "mapping":
            self.take()
            self.take("(")
            self.type_(path)
            self.take("=>")
            self.type_(path)
            self.take(")")
        else:
            name = self.name()
            if not ELEMENTARY_RE.fullmatch(name):
                self.read(path, name)
            while self.peek() == "[":
                self.take("[")
                self.take("]")

    def params(self, path):
        self.take("(")
        while self.peek() != ")":
            self.type_(path)
            while self.peek() in LOCATIONS:
                self.take()
            if self.peek() not in (",", ")"):
                self.declare(path, self.name())
            if self.peek() == ",":
                self.take()
        self.take(")")

    # --- bodies

    def block(self, path):
        self.take("{")
        while self.peek() != "}":
            self.statement(path)
        self.take("}")

    def statement(self, path):
        word = self.peek()
        if word == "{":
            self.block(path)
        elif word in ("if", "while"):
            self.take()
            self.take("(")
            self.tokens_until(path, ")")
            self.statement(path)
            if word == "if" and self.peek() == "else":
                self.take()
                self.statement(path)
        elif word == "_" and self.peek(1) == ";":  # a modifier's placeholder
            self.take()
            self.take()
        elif self.is_declaration():
            self.type_(path)
            while self.peek() in LOCATIONS:
                self.take()
            self.declare(path, self.name())
            if self.peek() == "=":
                self.take()
                self.tokens_until(path, ";")
            else:
                self.take(";")
        else:
            self.tokens_until(path, ";")

    def is_declaration(self) -> bool:
        first, second = self.tokens[self.i], self.tokens[self.i + 1]
        return (first.kind == "name" and first.text not in KEYWORDS
                and (second.kind == "name" and second.text not in KEYWORDS
                     or second.text in LOCATIONS or first.text == "mapping"))

    def tokens_until(self, path, end: str):
        """Take the tokens up to and including end at depth 0, reading each
        name that no dot precedes."""
        depth = 0
        while True:
            tok = self.tokens[self.i]
            if depth == 0 and tok.text == end:
                self.i += 1
                return
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth -= 1
            elif tok.kind == "name" and self.tokens[self.i - 1].text != ".":
                self.read(path, tok.text)
            self.i += 1


def read_unit(text: str) -> List[Scope]:
    """The scopes of one emitted unit, each after the scopes enclosing it."""
    return _Reader(text).unit()


def enclosing(path: Tuple[str, ...]):
    """The paths of the scopes enclosing path, innermost first."""
    return [path[:i] for i in range(len(path) - 1, -1, -1)]


def clashes(scopes: List[Scope]) -> List[str]:
    """Each name a scope declares twice, and each declaration of a struct-
    and event-free scope that hides a name an enclosing scope declares."""
    by_path = {s.path: s for s in scopes}
    found = []
    for s in scopes:
        seen = set()
        for name in s.declares:
            if name in seen:
                found.append(f"{'.'.join(s.path)}: '{name}' declared twice")
            seen.add(name)
            hidden = [p for p in enclosing(s.path) if name in by_path[p].declares] if s.hides else []
            if hidden:
                found.append(f"{'.'.join(s.path)}: '{name}' hides {'.'.join(hidden[0]) or 'unit'}"
                             f"'s '{name}'")
    return found


def unresolved(scopes: List[Scope]) -> List[str]:
    """Each name a scope reads that neither it, nor a scope enclosing it,
    nor the language declares."""
    by_path = {s.path: s for s in scopes}
    return [f"{'.'.join(s.path)}: '{name}'" for s in scopes for name in sorted(s.reads)
            if name not in BUILTINS and not ELEMENTARY_RE.fullmatch(name)
            and not any(name in by_path[p].declares for p in [s.path, *enclosing(s.path)])]
