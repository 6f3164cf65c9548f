"""Parser for the legacy ``.trs`` input format.

A file is a sequence of parenthesised blocks.  ``(VAR x y ...)`` declares
variable names, ``(RULES l -> r ...)`` lists the rules, ``(COMMENT ...)`` is
skipped.  Any other block (STRATEGY, THEORY, ...) is rejected.

One regular expression cuts the text into tokens: ``(``, ``)``, ``,``,
``->`` and identifiers, which run up to white space (space, tab, CR, LF),
punctuation or an arrow.  A token is its text and its offset; a line and
column are worked out from the offset only when an error is raised.  Terms
are read with an explicit stack of open applications, so nesting depth is
bounded by memory, not by the recursion limit, and :func:`parse_trs` raises
nothing but :class:`ParseError` on any string.
"""

from __future__ import annotations

import re

from .terms import App, Rule, Symbol, Term, Trs, Var

# a '-' starts an identifier character unless it starts an arrow
_TOKEN = re.compile(r"->|[(),]|(?:[^ \t\r\n(),-]|-(?!>))+")
_PUNCTUATION = frozenset(["(", ")", ",", "->", ""])  # "" is the end of input


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnsupportedBlockError(ParseError):
    """A block the tool deliberately does not handle."""


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.toks.append(("", len(text)))
        self.pos = 0
        self.vars: set[str] = set()
        self.arities: dict[str, int] = {}

    def error(self, message: str, offset: int, cls: type = ParseError) -> ParseError:
        line = self.text.count("\n", 0, offset) + 1
        return cls(message, line, offset - self.text.rfind("\n", 0, offset))

    def next(self) -> tuple[str, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str | None, what: str) -> tuple[str, int]:
        """The next token, which must be ``text``, or an identifier when
        ``text`` is None."""
        tok, offset = self.next()
        if not (tok == text if text else tok not in _PUNCTUATION):
            found = repr(tok) if tok else "end of input"
            raise self.error(f"expected {what}, found {found}", offset)
        return tok, offset

    def parse(self) -> Trs:
        rules: list[Rule] = []
        while self.toks[self.pos][0]:
            self.expect("(", "'('")
            name, offset = self.expect(None, "a block name")
            if name == "VAR":
                while self.toks[self.pos][0] not in _PUNCTUATION:
                    self.vars.add(self.next()[0])
                self.expect(")", "')'")
            elif name == "RULES":
                while self.toks[self.pos][0] != ")":
                    start = self.toks[self.pos][1]
                    lhs = self.term()
                    self.expect("->", "'->'")
                    rhs = self.term()
                    try:
                        rules.append(Rule(lhs, rhs))
                    except ValueError as exc:
                        raise self.error(str(exc), start) from None
                self.pos += 1
            elif name == "COMMENT":
                depth = 1
                while depth:
                    tok, offset = self.next()
                    if not tok:
                        raise self.error("unterminated block", offset)
                    depth += (tok == "(") - (tok == ")")
            else:
                raise self.error(f"unsupported block {name!r}", offset, UnsupportedBlockError)
        return Trs.of(rules)

    def term(self) -> Term:
        open_apps: list[tuple[str, int, list[Term]]] = []  # name, offset, arguments so far
        while True:
            name, offset = self.expect(None, "a term")
            if self.toks[self.pos][0] == "(":
                if name in self.vars:
                    raise self.error(f"variable {name!r} used with arguments", offset)
                self.pos += 1
                open_apps.append((name, offset, []))
                continue
            t = Var(name) if name in self.vars else App(self.symbol(name, offset, 0), ())
            # close every application that this argument completes
            while open_apps:
                name, offset, args = open_apps[-1]
                args.append(t)
                if self.toks[self.pos][0] == ",":
                    self.pos += 1
                    break
                self.expect(")", "')' or ','")
                open_apps.pop()
                t = App(self.symbol(name, offset, len(args)), tuple(args))
            else:
                return t

    def symbol(self, name: str, offset: int, arity: int) -> Symbol:
        prev = self.arities.setdefault(name, arity)
        if prev != arity:
            raise self.error(
                f"symbol {name!r} used with {arity} arguments but earlier with {prev}", offset)
        return Symbol(name, arity)


def parse_trs(text: str) -> Trs:
    """Parse rewrite-system source text into a :class:`Trs`; raise
    :class:`ParseError` on any text that is not a rewrite system."""
    return _Parser(text).parse()
