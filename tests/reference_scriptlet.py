"""A reference implementation of the scriptlet language, for differential tests.

It is written from README's "Scriptlet language" section and is slow and
plain on purpose: a lexer of its own, a parser to a tree of tuples, and an
evaluator that walks the tree and keeps `$O` as one string. It covers every
builtin that leaves the hooks alone. `tests/test_oracle.py` runs drawn
programs through it and through `textforge.scriptlet` and compares the
output, the scope and any error's type, message and offset.

The budgets are arguments, so a test can lower them. Where README is vague,
this file states the rule it checks:

- nesting counts one level for every expression (a whole statement
  expression, each call argument, each parenthesized expression and each
  `?:` branch) and for every block; the error points at the token where the
  level over the cap opens;
- an error in one `echo` argument leaves the arguments before it in `$O`
  (invisible here, since the run fails), and a later argument that reads
  `$O` sees the earlier ones;
- unknown functions and wrong arity fail when the call runs, before its
  arguments are evaluated;
- a builtin's own error points at the call's name;
- `for $O` is a parse error at the variable, since `$O` always reads the
  output and a loop variable of that name could never be read.
"""
from __future__ import annotations

import os
import sys
import time

from textforge.core import EvalError, OutDelims, ParseError

KEYWORDS = ("echo", "if", "else", "for", "in")
COMPARISONS = ("==", "!=", "<", ">")
SINGLE_OPS = "=<>?:.,;(){}"
DOUBLE_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "$": "$"}
SINGLE_ESCAPES = {"'": "'", "\\": "\\"}
MONTHS = ("January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December")


# --- lexer -----------------------------------------------------------------

def _name_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _name_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def _quoted(src: str, start: int) -> tuple[str, int]:
    """The value of the quoted string at `start` and the offset after it."""
    quote = src[start]
    escapes = DOUBLE_ESCAPES if quote == '"' else SINGLE_ESCAPES
    value = ""
    i = start + 1
    while True:
        if i == len(src):
            raise ParseError("unterminated string", at=start)
        c = src[i]
        if c == quote:
            return value, i + 1
        nxt = src[i + 1] if i + 1 < len(src) else ""
        if c == "\\" and nxt in escapes:
            value += escapes[nxt]
            i += 2
        elif c == "\\" and quote == '"':
            if nxt == "":
                raise ParseError("unterminated string", at=start)
            raise ParseError(f"unknown escape '\\{nxt}' in string", at=i)
        else:  # a single quote keeps any other backslash
            value += c
            i += 1


def lex(src: str) -> list[tuple[str, str, int]]:
    """`(kind, value, at)` tokens ending with eof, as README describes them."""
    tokens = []
    i = 0
    while True:
        while i < len(src) and src[i] in " \t\r\n#":
            if src[i] == "#":
                while i < len(src) and src[i] != "\n":
                    i += 1
            i += 1
        if i >= len(src):
            tokens.append(("eof", "", len(src)))
            return tokens
        c = src[i]
        start = i
        if src[i:i + 3] == '"""':
            close = src.find('"""', i + 3)
            if close == -1:
                raise ParseError("unterminated triple-quoted string", at=i)
            value = src[i + 3:close]
            if value[:1] == "\n":
                value = value[1:]
            tokens.append(("str", value, start))
            i = close + 3
        elif c in "'\"":
            value, i = _quoted(src, i)
            tokens.append(("str", value, start))
        elif c == "$" or _name_start(c):
            if c == "$":
                i += 1
                if i == len(src) or not _name_start(src[i]):
                    raise ParseError("'$' must be followed by a variable name",
                                     at=start)
            name_at = i
            while i < len(src) and _name_char(src[i]):
                i += 1
            tokens.append(("var" if c == "$" else "ident", src[name_at:i], start))
        elif c in "0123456789":
            while i < len(src) and src[i] in "0123456789":
                i += 1
            tokens.append(("int", src[start:i], start))
        elif src[i:i + 2] in ("==", "!="):
            tokens.append(("op", src[i:i + 2], start))
            i += 2
        elif c in SINGLE_OPS:
            tokens.append(("op", c, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", at=i)


# --- parser ----------------------------------------------------------------
#
# Statements: ("assign", name, expr), ("echo", exprs, at),
# ("if", expr, block, block), ("for", name, var_at, at, expr, block),
# ("expr", expr); a block is a list of statements. Expressions:
# ("lit", value), ("var", name, at), ("call", name, at, exprs),
# ("concat", exprs, at), ("cmp", op, expr, expr), ("cond", expr, expr, expr).

class _Parser:
    def __init__(self, tokens, max_nesting):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.max_nesting = max_nesting

    def peek(self, offset=0):
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def take(self):
        token = self.peek()
        if token[0] != "eof":
            self.i += 1
        return token

    def is_op(self, op, offset=0):
        kind, value, _ = self.peek(offset)
        return kind == "op" and value == op

    def is_word(self, word):
        kind, value, _ = self.peek()
        return kind == "ident" and value == word

    def need(self, op):
        kind, value, at = self.peek()
        if not self.is_op(op):
            raise ParseError(f"expected '{op}', got {value or kind!r}", at=at)
        self.take()

    def enter(self):
        self.depth += 1
        if self.depth > self.max_nesting:
            raise ParseError(f"nesting deeper than {self.max_nesting} levels",
                             at=self.peek()[2])

    def program(self):
        stmts = []
        while self.peek()[0] != "eof":
            stmts.append(self.statement())
        return stmts

    def statement(self):
        kind, value, at = self.peek()
        if kind == "var" and self.is_op("=", 1):
            self.take()
            self.take()
            expr = self.expression()
            self.need(";")
            return ("assign", value, expr)
        if self.is_word("echo"):
            self.take()
            args = [self.expression()]
            while self.is_op(","):
                self.take()
                args.append(self.expression())
            self.need(";")
            return ("echo", args, at)
        if self.is_word("if"):
            self.take()
            self.need("(")
            cond = self.expression()
            self.need(")")
            then = self.block()
            other = []
            if self.is_word("else"):
                self.take()
                other = self.block()
            return ("if", cond, then, other)
        if self.is_word("for"):
            self.take()
            var_kind, name, var_at = self.take()
            if var_kind != "var":
                raise ParseError("expected a loop variable after 'for'",
                                 at=var_at)
            if name == "O":
                raise ParseError("$O cannot be a loop variable", at=var_at)
            if not self.is_word("in"):
                raise ParseError("expected 'in' in for statement",
                                 at=self.peek()[2])
            self.take()
            items = self.expression()
            return ("for", name, var_at, at, items, self.block())
        expr = self.expression()
        self.need(";")
        return ("expr", expr)

    def block(self):
        self.enter()
        self.need("{")
        stmts = []
        while not self.is_op("}"):
            if self.peek()[0] == "eof":
                raise ParseError("unterminated block: missing '}'",
                                 at=self.peek()[2])
            stmts.append(self.statement())
        self.take()
        self.depth -= 1
        return stmts

    def expression(self):
        self.enter()
        expr = self.concat()
        if self.peek()[0] == "op" and self.peek()[1] in COMPARISONS:
            op = self.take()[1]
            expr = ("cmp", op, expr, self.concat())
        if self.is_op("?"):
            self.take()
            then = self.expression()
            self.need(":")
            expr = ("cond", expr, then, self.expression())
        self.depth -= 1
        return expr

    def concat(self):
        parts = [self.primary()]
        at = self.peek()[2]
        while self.is_op("."):
            self.take()
            parts.append(self.primary())
        return parts[0] if len(parts) == 1 else ("concat", parts, at)

    def primary(self):
        kind, value, at = self.take()
        if kind == "str":
            return ("lit", value)
        if kind == "int":
            limit = sys.get_int_max_str_digits()
            if limit and len(value) > limit:
                raise ParseError(
                    f"integer literal too long ({len(value)} digits)", at=at)
            return ("lit", int(value))
        if kind == "var":
            return ("var", value, at)
        if kind == "ident" and value in KEYWORDS:
            raise ParseError(f"unexpected keyword '{value}'", at=at)
        if kind == "ident":
            self.need("(")
            args = []
            if not self.is_op(")"):
                args.append(self.expression())
                while self.is_op(","):
                    self.take()
                    args.append(self.expression())
            self.need(")")
            return ("call", value, at, args)
        if kind == "op" and value == "(":
            expr = self.expression()
            self.need(")")
            return expr
        raise ParseError(f"expected an expression, got {value or kind!r}", at=at)


# --- values ----------------------------------------------------------------

def text_of(value) -> str:
    if isinstance(value, bool):
        return "1" if value else ""
    if isinstance(value, list):
        return " ".join(text_of(item) for item in value)
    return str(value)


def is_true(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    return len(value) > 0


def wildcard(pattern: str, name: str) -> bool:
    """Whether `name` matches `pattern`, where only `*` and `?` are special."""
    # can[j]: pattern[:i] matches name[:j], for the i reached so far
    can = [True] + [False] * len(name)
    for p in pattern:
        if p == "*":
            for j in range(1, len(name) + 1):
                can[j] = can[j] or can[j - 1]
        else:
            can = [False] + [can[j] and (p == "?" or p == name[j])
                             for j in range(len(name))]
    return can[-1]


# --- evaluator -------------------------------------------------------------

class Result:
    """What a run leaves behind: `out` ($O, or None after an error), the
    scope, the output delimiters and the error, if any."""

    def __init__(self, out, scope, out_delims, error):
        self.out = out
        self.scope = scope
        self.out_delims = out_delims
        self.error = error


class _Evaluator:
    def __init__(self, scope, file_path, out_delims, max_loops, max_string):
        self.scope = scope
        self.file_path = file_path
        self.out_delims = out_delims
        self.max_loops = max_loops
        self.max_string = max_string
        self.out = ""
        self.loops = 0

    def too_long(self, text, at, what="string"):
        if len(text) > self.max_string:
            raise EvalError(f"{what} longer than {self.max_string} characters",
                            at=at)
        return text

    def block(self, stmts):
        for stmt in stmts:
            self.statement(stmt)

    def statement(self, stmt):
        op = stmt[0]
        if op == "assign":
            _, name, expr = stmt
            value = self.value(expr)
            if name == "O":
                self.out = text_of(value)
            else:
                self.scope[name] = value
        elif op == "echo":
            for expr in stmt[1]:
                self.out = self.too_long(self.out + text_of(self.value(expr)),
                                         stmt[2], "output")
        elif op == "if":
            self.block(stmt[2] if is_true(self.value(stmt[1])) else stmt[3])
        elif op == "for":
            _, name, var_at, at, items, body = stmt
            items = self.value(items)
            if not isinstance(items, list):
                raise EvalError("for statement needs a list to iterate",
                                at=var_at)
            self.loops += len(items)
            if self.loops > self.max_loops:
                raise EvalError(f"more than {self.max_loops} loop iterations",
                                at=at)
            for item in items:
                self.scope[name] = item
                self.block(body)
        else:
            self.value(stmt[1])

    def value(self, expr):
        op = expr[0]
        if op == "lit":
            return expr[1]
        if op == "var":
            _, name, at = expr
            if name == "O":
                return self.out
            if name not in self.scope:
                raise EvalError(f"undefined variable ${name}", at=at)
            return self.scope[name]
        if op == "concat":
            texts = [text_of(self.value(part)) for part in expr[1]]
            return self.too_long("".join(texts), expr[2])
        if op == "cmp":
            _, how, left, right = expr
            a, b = self.value(left), self.value(right)
            if how == "==":
                return text_of(a) == text_of(b)
            if how == "!=":
                return text_of(a) != text_of(b)
            if type(a) is not int or type(b) is not int:
                a, b = text_of(a), text_of(b)
            return a < b if how == "<" else b < a
        if op == "cond":
            _, cond, then, other = expr
            return self.value(then if is_true(self.value(cond)) else other)
        return self.call(*expr[1:])

    def call(self, name, at, exprs):
        arity = {"htmlquote": 1, "file_modification_date": 0,
                 "read_starfish_conf": 0, "set_out_delimiters": 4,
                 "glob": 1, "join": 2, "strip_suffix": 2}.get(name)
        if arity is None:
            raise EvalError(f"unknown function '{name}'", at=at)
        if arity != len(exprs):
            raise EvalError(
                f"{name}() takes {arity} argument(s), got {len(exprs)}", at=at)
        args = [self.value(expr) for expr in exprs]
        if name == "htmlquote":
            text = text_of(args[0])
            for raw, quoted in (("&", "&amp;"), ("<", "&lt;"), ('"', "&quot;")):
                text = text.replace(raw, quoted)
            return self.too_long(text, at)
        if name == "file_modification_date":
            when = time.localtime(os.stat(self.file_path).st_mtime)
            return f"{MONTHS[when.tm_mon - 1]} {when.tm_mday}, {when.tm_year}"
        if name == "read_starfish_conf":  # the tests run it where no conf is
            return ""
        if name == "set_out_delimiters":
            texts = [text_of(arg) for arg in args]
            if "" in texts:
                raise EvalError(
                    "set_out_delimiters() needs four non-empty strings", at=at)
            if texts[1][0] in "0123456789":
                raise EvalError(
                    "set_out_delimiters() b2 may not start with a digit", at=at)
            self.out_delims = OutDelims(*texts)
            return ""
        if name == "glob":
            pattern = text_of(args[0])
            names = sorted(os.listdir(os.path.dirname(
                os.path.abspath(self.file_path))))
            return [n for n in names if wildcard(pattern, n)]
        if name == "join":
            if not isinstance(args[1], list):
                raise EvalError("join() takes a separator and a list", at=at)
            return self.too_long(
                text_of(args[0]).join(text_of(item) for item in args[1]), at)
        text, suffix = text_of(args[0]), text_of(args[1])
        if suffix and text.endswith(suffix):
            text = text[:len(text) - len(suffix)]
        return text


def run(source: str, *, scope: dict, file_path: str, out_delims: OutDelims,
        max_loops: int, max_string: int, max_nesting: int) -> Result:
    """Lex, parse and evaluate `source`; `scope` is updated in place."""
    evaluator = _Evaluator(scope, file_path, out_delims, max_loops, max_string)
    try:
        program = _Parser(lex(source), max_nesting).program()
        evaluator.block(program)
    except (ParseError, EvalError) as exc:
        return Result(None, scope, evaluator.out_delims, exc)
    return Result(evaluator.out, scope, evaluator.out_delims, None)
