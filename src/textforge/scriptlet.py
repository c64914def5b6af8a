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
lexicographically. ``""``, ``0``, false and the empty list are false, as in
Python. A name is a letter or ``_`` and then letters, digits and ``_``; the
keywords ``echo if else for in`` name no function. Integer literals are ASCII
digits. Strings come single-quoted (escapes ``\\'`` ``\\\\`` only),
double-quoted (escapes ``\\n \\t \\\\ \\" \\$``) or triple-double-quoted
(verbatim, multi-line; one newline directly after the opening quotes is
dropped). ``#`` comments run to end of line. Reading an undefined variable is
an error.

The parser compiles each expression, statement and program into a closure
that takes the state of one run (`_Run`), so evaluation walks no tree. What
only a run can tell (unknown functions, bad arity, undefined variables, a
``for`` over a non-list, the budgets below) fails when the closure runs, so a
bad call in a branch that never runs is harmless.
"""
from __future__ import annotations

import fnmatch
import os
import re
import time

from .core import (
    BeginEnd,
    EngineError,
    EngineState,
    EvalError,
    OutDelims,
    ParseError,
    Pattern,
    Value,
)
from .styles import STYLES

KEYWORDS = frozenset({"echo", "if", "else", "for", "in"})

_ONE_CHAR_OPS = frozenset("=<>?:.,;(){}")
_DIGITS = frozenset("0123456789")
_COMPARISONS = frozenset({"==", "!=", "<", ">"})
_DQ_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "$": "$"}
_SQ_ESCAPES = {"'": "'", "\\": "\\"}


def tokenize(source: str) -> list[tuple[str, str, int]]:
    """Lex scriptlet source into a new list of `(kind, value, at)` tuples,
    `at` being the offset of the token's first character. An operator or a
    keyword is its own kind, as in `("==", "==", 3)`; the other kinds are
    ident, var, int, str and the final eof. Raises ParseError on malformed
    input. `parse_scriptlet`'s parser reverses the list in place."""
    tokens: list[tuple[str, str, int]] = []
    append = tokens.append
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        # Tested in order of frequency: about half of all tokens are
        # one-character operators.
        if ch in _ONE_CHAR_OPS:
            if ch == "=" and source.startswith("=", i + 1):
                append(("==", "==", i))
                i += 2
            else:
                append((ch, ch, i))
                i += 1
        elif ch in " \t\r\n":
            i += 1
        elif ch == "_" or ch == "$" or ch.isalpha():
            # A name starts with a letter or "_" and goes on with letters,
            # digits and "_"; a variable is "$" and a name.
            j = i + 1
            if ch == "$":
                if j >= n or not ((c := source[j]) == "_" or c.isalpha()):
                    raise ParseError("'$' must be followed by a variable name",
                                     at=i)
                j += 1
            while j < n and ((c := source[j]).isalnum() or c == "_"):
                j += 1
            if ch == "$":
                append(("var", source[i + 1:j], i))
            else:
                name = source[i:j]
                append((name if name in KEYWORDS else "ident", name, i))
            i = j
        elif ch == '"' and source.startswith('""', i + 1):
            end = source.find('"""', i + 3)
            if end < 0:
                raise ParseError("unterminated triple-quoted string", at=i)
            value = source[i + 3:end]
            append(("str", value[1:] if value.startswith("\n") else value, i))
            i = end + 3
        elif ch == '"' or ch == "'":
            # The text between backslashes is sliced out whole.
            escapes = _DQ_ESCAPES if ch == '"' else _SQ_ESCAPES
            j = i + 1
            close = source.find(ch, j)
            parts: list[str] = []
            while (slash := source.find("\\", j, n if close < 0 else close)) >= 0:
                parts.append(source[j:slash])
                esc = source[slash + 1:slash + 2]
                if esc not in escapes and ch == '"':
                    if not esc:
                        raise ParseError("unterminated string", at=i)
                    raise ParseError(f"unknown escape '\\{esc}' in string",
                                     at=slash)
                # Single quotes keep any other backslash.
                parts.append(escapes.get(esc, "\\" + esc))
                j = slash + 2
                if j > close >= 0:  # the escape was the closing quote
                    close = source.find(ch, j)
            if close < 0:
                raise ParseError("unterminated string", at=i)
            value = source[j:close]
            append(("str", "".join(parts) + value if parts else value, i))
            i = close + 1
        elif ch in _DIGITS:
            j = i + 1
            while j < n and source[j] in _DIGITS:
                j += 1
            append(("int", source[i:j], i))
            i = j
        elif ch == "#":
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
        elif ch == "!" and source.startswith("=", i + 1):
            append(("!=", "!=", i))
            i += 2
        else:
            raise ParseError(f"unexpected character {ch!r}", at=i)
    append(("eof", "", n))
    return tokens


# Parentheses, call arguments, ?: branches and blocks, nested in any mix.
# The parser and the compiled closures recurse once per level, so this keeps
# both far from Python's recursion limit.
MAX_NESTING = 100
# Budgets of one eval_program call: iterations of all its `for` loops, and
# the length of $O, of each `.` concatenation and of each join() and
# htmlquote() result.
MAX_LOOP_ITERATIONS = 1_000_000
MAX_STRING = 2**26
# Wall-clock budget of one file's compute step in `rewriter.process_file`:
# -e code, confs, scans and snippets, from the file's reads to its write. A
# `hooks` benchmark pass takes about 0.04 s and one snippet at the loop
# budget about 0.4 s, so only a runaway (a regex that backtracks without
# end, say) comes near it.
MAX_SECONDS = 60


class _Run:
    """What one eval_program call works on. `$O` starts empty and is kept as
    a list of pieces that is joined only when it is read, assigned or the run
    ends, so a run of echoes costs time linear in the output."""

    __slots__ = ("state", "scope", "out", "out_len", "loops")

    def __init__(self, state: EngineState):
        self.state = state
        self.scope = state.scope
        self.out: list[str] = []
        self.out_len = 0
        self.loops = 0

    def read_out(self) -> str:
        text = "".join(self.out)
        self.out[:] = [text]
        return text


class _Parser:
    """Compiles tokenize's list to closures by recursive descent. `t` is the
    current token and `rest` the tokens after it, last first, so a step is
    `self.t = self.rest.pop()`; stepping stops at the final eof token."""

    __slots__ = ("rest", "t", "depth")

    def __init__(self, tokens: list[tuple[str, str, int]]):
        tokens.reverse()  # the caller's list becomes the stack
        self.rest = tokens
        self.t = tokens.pop()
        self.depth = 0

    def expect_op(self, op: str) -> None:
        kind, value, at = self.t
        if kind != op:
            raise ParseError(f"expected '{op}', got {value or kind!r}", at=at)
        self.t = self.rest.pop()

    # statements

    def statements(self, end: str):
        """Compiles statements up to the token of kind `end`, a block's `}`
        or the program's eof, into one closure that runs them in order."""
        stmts = []
        while self.t[0] != end:
            if self.t[0] == "eof":
                raise ParseError("unterminated block: missing '}'", at=self.t[2])
            stmts.append(self.statement())
        if len(stmts) == 1:
            return stmts[0]
        stmts = tuple(stmts)

        def block(run):
            for stmt in stmts:
                stmt(run)
        return block

    def statement(self):
        kind, value, at = self.t
        if kind == "var" and self.rest[-1][0] == "=":  # t is not eof
            self.rest.pop()
            self.t = self.rest.pop()
            expr = self.expression()
            self.expect_op(";")
            return _assign(value, expr)
        elif kind == "echo":
            self.t = self.rest.pop()
            args = self.expressions()
            self.expect_op(";")
            return _echo(args, at)
        elif kind == "if":
            self.t = self.rest.pop()
            self.expect_op("(")
            cond = self.expression()
            self.expect_op(")")
            then = self.block()
            other = _nothing
            if self.t[0] == "else":
                self.t = self.rest.pop()
                other = self.block()

            def if_(run):
                (then if cond(run) else other)(run)
            return if_
        elif kind == "for":
            var_kind, name, var_at = self.t = self.rest.pop()
            if var_kind != "var":
                raise ParseError("expected a loop variable after 'for'", at=var_at)
            if name == "O":  # it could never be read: $O reads the output
                raise ParseError("$O cannot be a loop variable", at=var_at)
            self.t = self.rest.pop()
            if self.t[0] != "in":
                raise ParseError("expected 'in' in for statement", at=self.t[2])
            self.t = self.rest.pop()
            items = self.expression()
            return _loop(at, name, var_at, items, self.block())
        expr = self.expression()
        self.expect_op(";")
        return expr

    def block(self):
        # Its `if`/`for` expression has checked the depth; inner ones count it.
        self.depth += 1
        self.expect_op("{")
        body = self.statements("}")
        self.t = self.rest.pop()
        self.depth -= 1
        return body

    # expressions

    def expression(self):
        """One nesting level: a concat, then an optional comparison, then
        an optional ?: whose branches are expressions."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             at=self.t[2])
        cond = self.concat()
        op = self.t[0]
        if op in _COMPARISONS:
            self.t = self.rest.pop()
            cond = _compare(op, cond, self.concat())
            op = self.t[0]
        if op == "?":
            self.t = self.rest.pop()
            then = self.expression()
            self.expect_op(":")
            other = self.expression()
            self.depth -= 1
            return lambda run: (then if cond(run) else other)(run)
        self.depth -= 1
        return cond

    def expressions(self) -> list:
        """The comma-separated expressions of an echo or a call."""
        exprs = [self.expression()]
        while self.t[0] == ",":
            self.t = self.rest.pop()
            exprs.append(self.expression())
        return exprs

    def concat(self):
        first = self.primary()
        kind, _, at = self.t
        if kind != ".":
            return first
        parts = [first]
        while self.t[0] == ".":
            self.t = self.rest.pop()
            parts.append(self.primary())
        parts = tuple(parts)

        def concat(run):
            texts = [stringify(part(run)) for part in parts]
            if sum(map(len, texts)) > MAX_STRING:
                raise EvalError(f"string longer than {MAX_STRING} characters",
                                at=at)
            return "".join(texts)
        return concat

    def primary(self):
        kind, value, at = self.t
        if kind == "eof":
            raise ParseError("expected an expression, got 'eof'", at=at)
        self.t = self.rest.pop()
        if kind == "str":
            return _literal(value)
        if kind == "var":
            return _variable(value, at)
        if kind == "ident":
            self.expect_op("(")
            args = self.expressions() if self.t[0] != ")" else []
            self.expect_op(")")
            return _call(value, at, tuple(args))
        if kind == "int":
            try:
                return _literal(int(value))
            except ValueError:  # beyond int()'s limit on digits
                raise ParseError(f"integer literal too long ({len(value)} digits)",
                                 at=at) from None
        if kind == "(":
            expr = self.expression()
            self.expect_op(")")
            return expr
        if kind in KEYWORDS:
            raise ParseError(f"unexpected keyword '{value}'", at=at)
        raise ParseError(f"expected an expression, got {value!r}", at=at)


# --- closures the parser compiles to -----------------------------------

def _nothing(run: _Run) -> None:
    pass


def _compare(op: str, left, right):
    if op == "==":
        return lambda run: stringify(left(run)) == stringify(right(run))
    if op == "!=":
        return lambda run: stringify(left(run)) != stringify(right(run))
    less = op == "<"

    def order(run):
        a, b = left(run), right(run)
        if type(a) is not int or type(b) is not int:
            a, b = stringify(a), stringify(b)
        return a < b if less else a > b
    return order


def _literal(value: str | int):
    def literal(run):
        return value
    return literal


def _assign(name: str, expr):
    if name != "O":
        def assign(run):
            run.scope[name] = expr(run)
        return assign

    def assign_out(run):
        text = stringify(expr(run))
        run.out[:] = [text]
        run.out_len = len(text)
    return assign_out


def _echo(args: list, at: int):
    args = tuple(args)

    def echo(run):
        out, size = run.out, run.out_len
        for arg in args:
            arg = arg(run)
            if type(arg) is not str:
                arg = stringify(arg)
            size += len(arg)
            if size > MAX_STRING:
                raise EvalError(f"output longer than {MAX_STRING} characters",
                                at=at)
            out.append(arg)
        run.out_len = size
    return echo


def _loop(at: int, name: str, var_at: int, items, body):
    def loop(run):
        seq = items(run)
        if not isinstance(seq, list):
            raise EvalError("for statement needs a list to iterate", at=var_at)
        run.loops += len(seq)
        if run.loops > MAX_LOOP_ITERATIONS:
            raise EvalError(f"more than {MAX_LOOP_ITERATIONS} loop iterations",
                            at=at)
        scope = run.scope
        for item in seq:
            scope[name] = item
            body(run)
    return loop


def _variable(name: str, at: int):
    if name == "O":
        return _Run.read_out

    def variable(run):
        try:
            return run.scope[name]
        except KeyError:
            raise EvalError(f"undefined variable ${name}", at=at) from None
    return variable


def _call(name: str, at: int, args: tuple):
    """A builtin call. Unknown names and bad arity fail only when run. The
    arguments are evaluated left to right before the builtin runs. An
    EngineError it raises with no offset or file takes the call's, and an
    OSError becomes an EvalError at the call that names the builtin."""
    entry = BUILTINS.get(name)
    if entry is None:
        message = f"unknown function '{name}'"
    elif len(args) != entry[0]:
        message = f"{name}() takes {entry[0]} argument(s), got {len(args)}"
    elif len(args) == 1:
        fn, (a,) = entry[1], args

        def call(run):
            x = a(run)
            try:
                return fn(run.state, x)
            except (EngineError, OSError) as exc:
                raise _blame(exc, name, at)
        return call
    elif len(args) == 2:
        fn, (a, b) = entry[1], args

        def call(run):
            x, y = a(run), b(run)
            try:
                return fn(run.state, x, y)
            except (EngineError, OSError) as exc:
                raise _blame(exc, name, at)
        return call
    else:
        fn = entry[1]

        def call(run):
            values = [arg(run) for arg in args]
            try:
                return fn(run.state, *values)
            except (EngineError, OSError) as exc:
                raise _blame(exc, name, at)
        return call

    def bad_call(run):
        raise EvalError(message, at=at)
    return bad_call


def _blame(exc: EngineError | OSError, name: str, at: int) -> EngineError:
    if isinstance(exc, OSError):  # an unreadable directory or conf, say
        return EvalError(f"{name}(): {exc}", at=at)
    if exc.at is None and exc.file is None:  # a builtin's error is the call's
        exc.at = at
    return exc


def parse_scriptlet(source: str):
    """Parse a whole scriptlet program into one closure that takes a `_Run`
    and runs the program's statements in order."""
    return _Parser(tokenize(source)).statements("eof")


# --- evaluation --------------------------------------------------------

def stringify(value: Value) -> str:
    """Render a value the way echo and concatenation see it."""
    if type(value) is str:
        return value
    if isinstance(value, bool):
        return "1" if value else ""
    if isinstance(value, int):
        return str(value)
    return " ".join(stringify(item) for item in value)


def eval_program(program, state: EngineState) -> str:
    """Run the closure `parse_scriptlet` returned against `state`, in its
    scope; returns the program's output, `$O`, which starts empty on every
    call."""
    run = _Run(state)
    program(run)
    return "".join(run.out)


# --- builtin functions --------------------------------------------------

_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")


def _htmlquote(state: EngineState, value: Value) -> str:
    text = stringify(value)
    # Quoting can grow the text sixfold, so nested calls need the cap too.
    grown = 4 * text.count("&") + 3 * text.count("<") + 5 * text.count('"')
    if len(text) + grown > MAX_STRING:
        raise EvalError(f"string longer than {MAX_STRING} characters")
    return text.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


def _file_modification_date(state: EngineState) -> str:
    when = time.localtime(os.stat(state.file_path).st_mtime)
    return f"{_MONTHS[when.tm_mon - 1]} {when.tm_mday}, {when.tm_year}"


def _read_starfish_conf(state: EngineState) -> str:
    if not state.conf_loaded:  # then no conf runs: base_dir is the file's
        from . import config  # imported late: config executes scriptlets
        config.exec_conf_chain(config.find_conf_chain(state.base_dir), state)
    return ""


def _set_style(state: EngineState, name: Value) -> str:
    style = STYLES.get(stringify(name))
    if style is None:
        known = ", ".join(sorted(STYLES))
        raise EvalError(f"unknown style '{stringify(name)}' (known: {known})")
    state.apply_style(style)
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
        compiled = re.compile(p)
    except (re.error, OverflowError, RecursionError) as exc:
        raise EvalError(f"invalid regex in add_regex_hook(): {exc}") from None
    state.hooks.append(Pattern(compiled, stringify(template)))
    return ""


def _set_out_delimiters(state: EngineState, b1: Value, b2: Value,
                        e1: Value, e2: Value) -> str:
    parts = [stringify(x) for x in (b1, b2, e1, e2)]
    if not all(parts):
        raise EvalError("set_out_delimiters() needs four non-empty strings")
    # The scanner reads the digits after b1 as the fence number.
    if "0" <= parts[1][0] <= "9":
        raise EvalError("set_out_delimiters() b2 may not start with a digit")
    state.out_delims = OutDelims(*parts)
    return ""


def _glob(state: EngineState, pattern: Value) -> list:
    # A file's snippets all run before anything is written, so one sorted
    # listing per directory, and one match per pattern in it, serve the
    # whole file.
    base, pat = state.base_dir, stringify(pattern)
    found = state.globs.get((base, pat))
    if found is None:
        if "/" in pat or os.sep in pat:  # one directory is listed, not a tree
            raise EvalError("glob() pattern may not contain a path separator")
        names = state.listings.get(base)
        if names is None:
            names = state.listings[base] = sorted(os.listdir(base))
        # Only * and ? are special, so "[" is bracketed to stay literal. The
        # translation keeps the text between stars atomic: no backtracking
        # blowup.
        match = re.compile(fnmatch.translate(pat.replace("[", "[[]"))).match
        found = state.globs[base, pat] = [name for name in names if match(name)]
    return list(found)


def _join(state: EngineState, sep: Value, items: Value) -> str:
    if not isinstance(items, list):
        raise EvalError("join() takes a separator and a list")
    sep = stringify(sep)
    texts = [stringify(item) for item in items]
    if sum(map(len, texts)) + len(sep) * (len(texts) - 1) > MAX_STRING:
        raise EvalError(f"string longer than {MAX_STRING} characters")
    return sep.join(texts)


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
