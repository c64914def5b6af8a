"""Differential tests: textforge.scriptlet against reference_scriptlet.

Drawn programs run through both implementations with the same budgets, and
must leave the same `$O`, scope and output delimiters, or fail with the same
error type, message and offset. `scripts/mutants.py` checks that these tests
catch planted faults in the engine.
"""
import contextlib
import os

import pytest
from hypothesis import given, settings, strategies as st

import reference_scriptlet
from helpers import make_state
from textforge import scriptlet
from textforge.core import EvalError, ParseError
from textforge.scriptlet import eval_program, parse_scriptlet, tokenize

# The directory glob() sees holds these files and the processed doc.txt.
_FILES = ("a.txt", "ab.txt", "b", "ba.md")


@pytest.fixture(scope="module")
def doc(tmp_path_factory):
    directory = tmp_path_factory.mktemp("oracle")
    for name in _FILES + ("doc.txt",):
        (directory / name).write_text("")
    os.utime(directory / "doc.txt", (1_600_000_000, 1_600_000_000))
    return str(directory / "doc.txt")


@contextlib.contextmanager
def _budgets(max_loops, max_string, max_nesting):
    saved = (scriptlet.MAX_LOOP_ITERATIONS, scriptlet.MAX_STRING,
             scriptlet.MAX_NESTING)
    scriptlet.MAX_LOOP_ITERATIONS = max_loops
    scriptlet.MAX_STRING = max_string
    scriptlet.MAX_NESTING = max_nesting
    try:
        yield
    finally:
        (scriptlet.MAX_LOOP_ITERATIONS, scriptlet.MAX_STRING,
         scriptlet.MAX_NESTING) = saved


def _typed(value):
    """`value` with its type spelled out, so True and 1 compare unequal."""
    if isinstance(value, list):
        return ["list", [_typed(item) for item in value]]
    return [type(value).__name__, value]


def _error(exc):
    return exc and (type(exc).__name__, exc.message, exc.at)


def _check(source, doc, budgets, scope):
    state = make_state(path=doc)
    state.scope.update(scope)
    expected = reference_scriptlet.run(
        source, scope=dict(scope), file_path=doc,
        out_delims=state.out_delims, **budgets)
    out = error = None
    with _budgets(**budgets):
        try:
            out = eval_program(parse_scriptlet(source), state)
        except (ParseError, EvalError) as exc:
            error = exc
    assert _error(error) == _error(expected.error)
    assert out == expected.out
    assert _typed(state.scope) == _typed(expected.scope)
    assert state.out_delims == expected.out_delims


_BUDGETS = st.fixed_dictionaries({
    "max_loops": st.sampled_from([1, 2, 3, 4, 5, 1_000_000]),
    "max_string": st.sampled_from([4, 9] + 6 * [2**26]),
    "max_nesting": st.sampled_from([5, 9] + 6 * [100]),
})

# --- drawn programs --------------------------------------------------------

_TEXT = st.text("ab", min_size=1, max_size=4)
# $a, $b, $i and $j are set before the run, to any kind of value.
_SCOPES = st.fixed_dictionaries(dict.fromkeys("abij", st.one_of(
    _TEXT, st.integers(0, 3), st.booleans(), st.lists(_TEXT, max_size=3))))
_GLOBS = ["glob('*')", "glob('*.txt')", "glob('?')", "glob('a*')",
          "glob('zz*')"]
# Faults that only running finds: a run fails where it reaches one. They are
# rare enough that most runs get far, and common enough to sit in both live
# and dead branches.
_FAULTS = ["$undefined", "nope()", "glob()",
           "set_out_delimiters('<', '1', 'x', 'y')"]
_VALUES = ["0", "1", "2", "10", "007", "'1'", "''", '"a\\tb"', "'it\\'s'",
           '"""\nab"""', '"<&\\""', "'\\\\'", "$a", "$b", "$i", "$j", "$O",
           "file_modification_date()", "read_starfish_conf()"] + _GLOBS
_ATOMS = st.one_of(_TEXT.map("'{}'".format), _TEXT.map('"{}"'.format),
                   st.sampled_from(20 * _VALUES + _FAULTS))
# Comparison operands that are often equal, or equal as text, and
# strip_suffix() arguments whose suffix often occurs elsewhere in the text.
_OPERANDS = st.sampled_from(["1", "01", "'1'", "'a'", "$a", "('b' == 'b')"])
_STRIPPED = st.sampled_from(["'abab'", "'aba'", "'bab'", "'abba'", "$a"])
_SUFFIXES = st.sampled_from(["'a'", "'b'", "'ab'", "$b"])
_ARITY = {"htmlquote": 1, "join": 2, "strip_suffix": 2, "glob": 1,
          "set_out_delimiters": 4, "file_modification_date": 0, "nope": 1}


@st.composite
def _compound(draw, inner):
    kind = draw(st.sampled_from([".", "<", "?", "strip", "call", "call"]))
    if kind == ".":
        return "(%s)" % " . ".join(draw(st.lists(inner, min_size=2,
                                                 max_size=3)))
    if kind == "<":
        return "(%s %s %s)" % (
            draw(_OPERANDS if draw(st.booleans()) else inner),
            draw(st.sampled_from(["==", "!=", "<", ">"])),
            draw(_OPERANDS if draw(st.booleans()) else inner))
    if kind == "?":
        return "(%s ? %s : %s)" % (draw(inner), draw(inner), draw(inner))
    if kind == "strip":
        return "strip_suffix(%s, %s)" % (
            draw(_STRIPPED if draw(st.booleans()) else inner),
            draw(_SUFFIXES if draw(st.booleans()) else inner))
    name = draw(st.sampled_from(sorted(_ARITY)))
    # Mostly the right number of arguments.
    arity = _ARITY[name] if draw(st.integers(0, 7)) else draw(
        st.integers(0, 4))
    return "%s(%s)" % (name, ", ".join(draw(inner) for _ in range(arity)))


_EXPRS = st.one_of(_ATOMS, _compound(st.one_of(_ATOMS, _compound(_ATOMS))))


@st.composite
def _statement(draw, depth):
    kinds = ["for", "if", "=", "echo", ";", "<", "s"]
    kind = draw(st.sampled_from(kinds if depth else kinds[2:]))
    # Comparisons and strip_suffix() calls are also shown on their own.
    if kind == "<":
        return "echo %s %s %s, ';';" % (
            draw(_OPERANDS if draw(st.integers(0, 3)) else _ATOMS),
            draw(st.sampled_from(["==", "!=", "<", ">"])),
            draw(_OPERANDS if draw(st.integers(0, 3)) else _ATOMS))
    if kind == "s":
        return "echo strip_suffix(%s, %s), ';';" % (draw(_STRIPPED),
                                                   draw(_SUFFIXES))
    if kind == "=":
        return "%s = %s;" % (draw(st.sampled_from(["$a", "$b", "$O"])),
                             draw(_EXPRS))
    if kind == "echo":
        return "echo %s;" % ", ".join(draw(st.lists(_EXPRS, min_size=1,
                                                     max_size=3)))
    if kind == ";":
        return draw(_EXPRS) + ";"
    block = "{ %s }" % " ".join(draw(st.lists(_statement(depth - 1),
                                              max_size=3)))
    if kind == "for":
        items = draw(st.sampled_from(_GLOBS) if draw(st.integers(0, 9))
                     else _EXPRS)
        return "for %s in %s %s" % (draw(st.sampled_from(["$i", "$j"])),
                                    items, block)
    text = "if (%s) %s" % (draw(_EXPRS), block)
    if draw(st.booleans()):
        text += " else { %s }" % " ".join(draw(st.lists(_statement(depth - 1),
                                                        max_size=3)))
    return text


_PROGRAMS = st.lists(_statement(2), min_size=1, max_size=4).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(source=_PROGRAMS, budgets=_BUDGETS, scope=_SCOPES)
def test_drawn_programs_run_as_the_reference_says(doc, source, budgets,
                                                  scope):
    _check(source, doc, budgets, scope)


# `for $O` fails the whole program's parse, so the draw above leaves it out
# and this property puts it, nested or not, between drawn programs.
@settings(max_examples=100, deadline=None)
@given(before=_PROGRAMS, after=_PROGRAMS, nest=st.booleans(),
       items=st.sampled_from(_GLOBS), budgets=_BUDGETS, scope=_SCOPES)
def test_for_output_fails_as_the_reference_says(doc, before, after, nest,
                                                items, budgets, scope):
    loop = "for $O in %s { echo $O; }" % items
    if nest:
        loop = "if (1) { %s }" % loop
    _check("\n".join([before, loop, after]), doc, budgets, scope)


_SOUP = st.sampled_from([
    "$a", "$O", "$", "=", "echo", "if", "else", "for", "in", "(", ")", "{",
    "}", "?", ":", ".", ",", ";", "==", "!=", "<", ">", "!", "'x'", '"y"',
    "1", "9" * 5000, "glob('*')", "join", "nope", "# c\n", "\n", " ",
])


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(_SOUP, max_size=25), budgets=_BUDGETS, scope=_SCOPES)
def test_lexeme_soups_fail_as_the_reference_says(doc, pieces, budgets, scope):
    _check(" ".join(pieces), doc, budgets, scope)


# --- the tokenizer alone ---------------------------------------------------

_LEXEMES = st.one_of(
    st.sampled_from([
        "é", "ǅ", "²", "½", "١", "xé1", "é²", "a_1", "_", "$", "$é", "$_",
        "$1", "$ǅ½", "'", '"', '"""', "\\", "\\'", '\\"', "\\\\", "\\n",
        "\\t", "\\$", "\\q", "#", "# note\n", "\n", " ", "\t", "\r", "==",
        "!=", "!", "=", "<", ">", "?", ":", ".", ",", ";", "(", ")", "{",
        "}", "@", "~", "0", "12", "echo",
    ]),
    st.text(max_size=3),
)


@settings(max_examples=500)
@given(st.lists(_LEXEMES, max_size=30).map("".join))
def test_tokenize_matches_the_reference_lexer(source):
    try:
        expected = reference_scriptlet.lex(source)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tokenize(source)
        assert (got.value.message, got.value.at) == (exc.message, exc.at)
    else:
        assert tokenize(source) == expected
