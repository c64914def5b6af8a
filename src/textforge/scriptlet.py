"""The scriptlet language embedded in processed files.

A scriptlet is a small imperative program that builds the snippet's output in
the accumulator variable ``$O``::

    $Version = 'Test';
    echo "version: ", $Version, "\\n";
    $O = $Version == 'Test' ? 'testing' : 'shipping';

Statements: assignment, ``echo`` (appends to ``$O`` with no separator),
``if (...) { ... } else { ... }``, ``for $x in <list> { ... }``, and bare
expression statements; every statement ends with ``;`` except the block
forms. Expressions: ``?:``, one comparison (``== != < >``), ``.``
concatenation, calls, and literals. ``==``/``!=`` compare stringified values;
``<``/``>`` compare numerically when both sides are integers, otherwise
lexicographically. Truthiness: ``""``, ``0``, false and the empty list are
false. Strings come single-quoted (escapes ``\\'`` ``\\\\`` only),
double-quoted (escapes ``\\n \\t \\\\ \\" \\$``) or triple-double-quoted
(verbatim, multi-line; one newline directly after the opening quotes is
dropped). ``#`` comments run to end of line. Reading an undefined variable
is an error.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass
from datetime import datetime

from .core import (
    BeginEnd,
    EngineState,
    EvalError,
    OutDelims,
    ParseError,
    Pattern,
    Value,
    line_col,
)
from .styles import STYLES

KEYWORDS = frozenset({"echo", "if", "else", "for", "in"})

_TWO_CHAR_OPS = ("==", "!=")
_ONE_CHAR_OPS = "=<>?:.,;(){}"
_DQ_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "$": "$"}


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # ident | var | int | str | op | eof
    value: str
    line: int
    col: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(source: str) -> list[Token]:
    """Lex scriptlet source; raises ParseError on malformed input."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    line, line_start, seen = 1, 0, 0  # line number and start at offset seen

    def tok(kind: str, value: str, at: int) -> None:
        # Tokens come in source order, so count newlines from the last one.
        nonlocal line, line_start, seen
        newline = source.rfind("\n", seen, at)
        if newline >= 0:
            line += source.count("\n", seen, newline + 1)
            line_start = newline + 1
        seen = at
        tokens.append(Token(kind, value, line, at - line_start + 1))

    def fail(message: str, at: int) -> ParseError:
        ln, col = line_col(source, at)
        return ParseError(message, line=ln, col=col)

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if source.startswith('"""', i):
            end = source.find('"""', i + 3)
            if end < 0:
                raise fail("unterminated triple-quoted string", i)
            body = source[i + 3:end]
            if body.startswith("\n"):
                body = body[1:]
            tok("str", body, i)
            i = end + 3
            continue
        if ch == '"':
            start = i
            i += 1
            parts: list[str] = []
            while True:
                if i >= n:
                    raise fail("unterminated string", start)
                c = source[i]
                if c == '"':
                    i += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise fail("unterminated string", start)
                    esc = source[i + 1]
                    if esc not in _DQ_ESCAPES:
                        raise fail(f"unknown escape '\\{esc}' in string", i)
                    parts.append(_DQ_ESCAPES[esc])
                    i += 2
                    continue
                parts.append(c)
                i += 1
            tok("str", "".join(parts), start)
            continue
        if ch == "'":
            start = i
            i += 1
            parts = []
            while True:
                if i >= n:
                    raise fail("unterminated string", start)
                c = source[i]
                if c == "'":
                    i += 1
                    break
                if c == "\\" and i + 1 < n and source[i + 1] in ("'", "\\"):
                    parts.append(source[i + 1])
                    i += 2
                    continue
                parts.append(c)
                i += 1
            tok("str", "".join(parts), start)
            continue
        if ch == "$":
            if i + 1 >= n or not _is_ident_start(source[i + 1]):
                raise fail("'$' must be followed by a variable name", i)
            j = i + 1
            while j < n and _is_ident_char(source[j]):
                j += 1
            tok("var", source[i + 1:j], i)
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tok("int", source[i:j], i)
            i = j
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(source[j]):
                j += 1
            tok("ident", source[i:j], i)
            i = j
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tok("op", two, i)
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tok("op", ch, i)
            i += 1
            continue
        raise fail(f"unexpected character {ch!r}", i)

    tok("eof", "", n)
    return tokens


# --- AST ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Str:
    value: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class Call:
    name: str
    args: tuple
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class Concat:
    parts: tuple


@dataclass(frozen=True, slots=True)
class Compare:
    op: str
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Ternary:
    cond: object
    then: object
    other: object


@dataclass(frozen=True, slots=True)
class Assign:
    name: str
    expr: object
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class EchoStmt:
    args: tuple


@dataclass(frozen=True, slots=True)
class If:
    cond: object
    then: tuple
    other: tuple | None


@dataclass(frozen=True, slots=True)
class For:
    var: str
    items: object
    body: tuple
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class ExprStmt:
    expr: object


@dataclass(frozen=True, slots=True)
class Program:
    stmts: tuple


# Parentheses, call arguments, ?: branches and blocks, nested in any mix.
# The parser and evaluator recurse once per level, so this keeps both far
# from Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        t = tok or self.peek()
        return ParseError(message, line=t.line, col=t.col)

    def expect_op(self, op: str) -> Token:
        t = self.peek()
        if t.kind != "op" or t.value != op:
            got = t.value or t.kind
            raise self.fail(f"expected '{op}', got {got!r}", t)
        return self.advance()

    def at_op(self, op: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.value == op

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.value == word

    def nest(self) -> None:
        """Enter one nesting level; the caller leaves it by decrementing
        `depth` on success (a ParseError ends the whole parse)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")

    # statements

    def program(self) -> Program:
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.statement())
        return Program(tuple(stmts))

    def statement(self):
        t = self.peek()
        if t.kind == "var" and self.peek(1).kind == "op" and self.peek(1).value == "=":
            self.advance()
            self.advance()
            expr = self.expression()
            self.expect_op(";")
            return Assign(t.value, expr, t.line, t.col)
        if self.at_keyword("echo"):
            self.advance()
            args = [self.expression()]
            while self.at_op(","):
                self.advance()
                args.append(self.expression())
            self.expect_op(";")
            return EchoStmt(tuple(args))
        if self.at_keyword("if"):
            self.advance()
            self.expect_op("(")
            cond = self.expression()
            self.expect_op(")")
            then = self.block()
            other = None
            if self.at_keyword("else"):
                self.advance()
                other = self.block()
            return If(cond, then, other)
        if self.at_keyword("for"):
            self.advance()
            var = self.peek()
            if var.kind != "var":
                raise self.fail("expected a loop variable after 'for'", var)
            self.advance()
            if not self.at_keyword("in"):
                raise self.fail("expected 'in' in for statement")
            self.advance()
            items = self.expression()
            body = self.block()
            return For(var.value, items, body, var.line, var.col)
        expr = self.expression()
        self.expect_op(";")
        return ExprStmt(expr)

    def block(self) -> tuple:
        self.nest()
        self.expect_op("{")
        stmts = []
        while not self.at_op("}"):
            if self.peek().kind == "eof":
                raise self.fail("unterminated block: missing '}'")
            stmts.append(self.statement())
        self.advance()
        self.depth -= 1
        return tuple(stmts)

    # expressions

    def expression(self):
        self.nest()
        expr = self.ternary()
        self.depth -= 1
        return expr

    def ternary(self):
        cond = self.comparison()
        if self.at_op("?"):
            self.advance()
            then = self.expression()
            self.expect_op(":")
            other = self.expression()
            return Ternary(cond, then, other)
        return cond

    def comparison(self):
        left = self.concat()
        t = self.peek()
        if t.kind == "op" and t.value in ("==", "!=", "<", ">"):
            self.advance()
            right = self.concat()
            return Compare(t.value, left, right)
        return left

    def concat(self):
        parts = [self.primary()]
        while self.at_op("."):
            self.advance()
            parts.append(self.primary())
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def primary(self):
        t = self.peek()
        if t.kind == "str":
            self.advance()
            return Str(t.value, t.line, t.col)
        if t.kind == "int":
            self.advance()
            return IntLit(int(t.value), t.line, t.col)
        if t.kind == "var":
            self.advance()
            return Var(t.value, t.line, t.col)
        if t.kind == "ident":
            if t.value in KEYWORDS:
                raise self.fail(f"unexpected keyword '{t.value}'", t)
            self.advance()
            self.expect_op("(")
            args = []
            if not self.at_op(")"):
                args.append(self.expression())
                while self.at_op(","):
                    self.advance()
                    args.append(self.expression())
            self.expect_op(")")
            return Call(t.value, tuple(args), t.line, t.col)
        if self.at_op("("):
            self.advance()
            expr = self.expression()
            self.expect_op(")")
            return expr
        got = t.value or t.kind
        raise self.fail(f"expected an expression, got {got!r}", t)


def parse_scriptlet(source: str) -> Program:
    """Parse a whole scriptlet program."""
    return _Parser(tokenize(source)).program()


# --- evaluation --------------------------------------------------------

def stringify(value: Value) -> str:
    """Render a value the way echo and concatenation see it."""
    if isinstance(value, bool):
        return "1" if value else ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return " ".join(stringify(item) for item in value)


def truthy(value: Value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value != ""
    if isinstance(value, int):
        return value != 0
    return len(value) > 0


def _compare(op: str, left: Value, right: Value) -> bool:
    if op in ("==", "!="):
        eq = stringify(left) == stringify(right)
        return eq if op == "==" else not eq
    if type(left) is int and type(right) is int:
        return left < right if op == "<" else left > right
    a, b = stringify(left), stringify(right)
    return a < b if op == "<" else a > b


class _Evaluator:
    def __init__(self, state: EngineState):
        self.state = state

    def err(self, node, message: str) -> EvalError:
        return EvalError(message, line=getattr(node, "line", 0),
                         col=getattr(node, "col", 0))

    def run(self, program: Program) -> str:
        for stmt in program.stmts:
            self.stmt(stmt)
        return self.state.out_buffer

    def stmt(self, node) -> None:
        match node:
            case Assign(name=name, expr=expr):
                value = self.expr(expr)
                if name == "O":
                    self.state.out_buffer = stringify(value)
                else:
                    self.state.scope[name] = value
            case EchoStmt(args=args):
                for arg in args:
                    self.state.out_buffer += stringify(self.expr(arg))
            case If(cond=cond, then=then, other=other):
                if truthy(self.expr(cond)):
                    for s in then:
                        self.stmt(s)
                elif other is not None:
                    for s in other:
                        self.stmt(s)
            case For(var=var, items=items, body=body):
                seq = self.expr(items)
                if not isinstance(seq, list):
                    raise self.err(node, "for statement needs a list to iterate")
                for item in seq:
                    self.state.scope[var] = item
                    for s in body:
                        self.stmt(s)
            case ExprStmt(expr=expr):
                self.expr(expr)
            case _:
                raise AssertionError(f"unhandled statement {node!r}")

    def expr(self, node) -> Value:
        match node:
            case Str(value=v):
                return v
            case IntLit(value=v):
                return v
            case Var(name=name):
                if name == "O":
                    return self.state.out_buffer
                try:
                    return self.state.scope[name]
                except KeyError:
                    raise self.err(node, f"undefined variable ${name}") from None
            case Concat(parts=parts):
                return "".join(stringify(self.expr(p)) for p in parts)
            case Compare(op=op, left=left, right=right):
                return _compare(op, self.expr(left), self.expr(right))
            case Ternary(cond=cond, then=then, other=other):
                return self.expr(then if truthy(self.expr(cond)) else other)
            case Call(name=name, args=args):
                return self.call(node, name, args)
            case _:
                raise AssertionError(f"unhandled expression {node!r}")

    def call(self, node, name: str, args: tuple) -> Value:
        entry = BUILTINS.get(name)
        if entry is None:
            raise self.err(node, f"unknown function '{name}'")
        arity, fn = entry
        if len(args) != arity:
            raise self.err(
                node, f"{name}() takes {arity} argument(s), got {len(args)}")
        values = [self.expr(a) for a in args]
        try:
            return fn(self.state, *values)
        except EvalError as exc:
            if not exc.line:
                raise self.err(node, exc.message) from None
            raise


def eval_program(program: Program, state: EngineState) -> str:
    """Run a program against `state`; returns the final `$O`."""
    return _Evaluator(state).run(program)


# --- builtin functions --------------------------------------------------

_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")


def _htmlquote(state: EngineState, value: Value) -> str:
    text = stringify(value)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


def _file_modification_date(state: EngineState) -> str:
    ts = state.file_mtime
    if ts is None:
        ts = os.stat(state.file_path).st_mtime
    when = datetime.fromtimestamp(ts)
    return f"{_MONTHS[when.month - 1]} {when.day}, {when.year}"


def _read_starfish_conf(state: EngineState) -> str:
    from . import config  # imported late: config executes scriptlets

    config.load_for_state(state)
    return ""


def _set_style(state: EngineState, name: Value) -> str:
    style = STYLES.get(stringify(name))
    if style is None:
        known = ", ".join(sorted(STYLES))
        raise EvalError(f"unknown style '{stringify(name)}' (known: {known})")
    state.hooks = list(style.hooks)
    state.out_delims = style.out_delims
    state.line_comment = style.line_comment
    state.indent_adjust = style.indent_adjust
    return ""


def _add_hook(state: EngineState, begin: Value, end: Value) -> str:
    b, e = stringify(begin), stringify(end)
    if not b or not e:
        raise EvalError("add_hook() delimiters must be non-empty")
    state.hooks.append(BeginEnd(b, e))
    return ""


def _add_regex_hook(state: EngineState, pattern: Value, template: Value) -> str:
    p = stringify(pattern)
    if not p:
        raise EvalError("add_regex_hook() pattern must be non-empty")
    try:
        hook = Pattern(p, stringify(template))
    except re.error as exc:
        raise EvalError(f"invalid regex in add_regex_hook(): {exc}") from None
    state.hooks.append(hook)
    return ""


def _set_out_delimiters(state: EngineState, b1: Value, b2: Value,
                        e1: Value, e2: Value) -> str:
    parts = [stringify(x) for x in (b1, b2, e1, e2)]
    if not all(parts):
        raise EvalError("set_out_delimiters() needs four non-empty strings")
    state.out_delims = OutDelims(*parts)
    return ""


def _glob(state: EngineState, pattern: Value) -> list:
    pat = stringify(pattern)
    base = state.base_dir or os.path.dirname(os.path.abspath(state.file_path))
    regex = re.compile(
        "(?s)" + "".join(".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
                         for ch in pat) + r"\Z")
    return [name for name in sorted(os.listdir(base)) if regex.match(name)]


def _join(state: EngineState, sep: Value, items: Value) -> str:
    if not isinstance(items, list):
        raise EvalError("join() takes a separator and a list")
    return stringify(sep).join(stringify(item) for item in items)


def _strip_suffix(state: EngineState, value: Value, suffix: Value) -> str:
    return stringify(value).removesuffix(stringify(suffix))


BUILTINS: dict[str, tuple[int, object]] = {
    "htmlquote": (1, _htmlquote),
    "file_modification_date": (0, _file_modification_date),
    "read_starfish_conf": (0, _read_starfish_conf),
    "set_style": (1, _set_style),
    "add_hook": (2, _add_hook),
    "add_regex_hook": (2, _add_regex_hook),
    "set_out_delimiters": (4, _set_out_delimiters),
    "glob": (1, _glob),
    "join": (2, _join),
    "strip_suffix": (2, _strip_suffix),
}
