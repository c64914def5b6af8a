import os
import re
import time
from datetime import datetime

import pytest
from hypothesis import (
    HealthCheck, assume, example, given, settings, strategies as st)

from helpers import make_state
from textforge import scriptlet
from textforge.core import (
    BeginEnd,
    EvalError,
    OutDelims,
    ParseError,
    Pattern,
    line_col,
)
from textforge.scriptlet import (
    MAX_NESTING,
    eval_program,
    parse_scriptlet,
    stringify,
    tokenize,
)


def run(source, state=None):
    state = state if state is not None else make_state()
    return eval_program(parse_scriptlet(source), state)


# --- lexer ---------------------------------------------------------------

def test_tokenize_kinds():
    kinds = [(t[0], t[1]) for t in tokenize("$x = 'a' . 2; # rest")]
    assert kinds == [("var", "x"), ("=", "="), ("str", "a"), (".", "."),
                     ("int", "2"), (";", ";"), ("eof", "")]


def test_tokenize_double_quote_escapes():
    toks = tokenize(r'"a\nb\tc\\d\"e\$f"')
    assert toks[0][1] == 'a\nb\tc\\d"e$f'


def test_tokenize_double_quote_bare_dollar_is_literal():
    assert tokenize('"cost $5"')[0][1] == "cost $5"


def test_tokenize_unknown_escape_is_an_error():
    with pytest.raises(ParseError) as exc:
        tokenize(r'"a\qb"')
    assert "escape" in exc.value.message
    assert line_col(r'"a\qb"', exc.value.at) == (1, 3)


def test_tokenize_single_quote_escapes():
    assert tokenize(r"'it\'s'")[0][1] == "it's"
    assert tokenize(r"'a\\b'")[0][1] == "a\\b"
    # unrecognized backslash stays put in single quotes
    assert tokenize(r"'a\b'")[0][1] == "a\\b"


def test_tokenize_triple_quote_verbatim():
    assert tokenize('"""a"b""c"""')[0][1] == 'a"b""c'
    # backslashes and dollars stay raw
    assert tokenize('"""\\n$x"""')[0][1] == "\\n$x"


def test_tokenize_triple_quote_drops_one_leading_newline():
    assert tokenize('"""\nabc"""')[0][1] == "abc"
    assert tokenize('"""\n\nabc"""')[0][1] == "\nabc"
    assert tokenize('"""abc\n"""')[0][1] == "abc\n"


def test_tokenize_unterminated_strings():
    for src in ('"abc', "'abc", '"""abc'):
        with pytest.raises(ParseError):
            tokenize(src)


def test_tokenize_dollar_needs_name():
    with pytest.raises(ParseError):
        tokenize("$ = 1;")


def test_tokenize_rejects_stray_characters():
    with pytest.raises(ParseError) as exc:
        tokenize("echo 1 @ 2;")
    assert line_col("echo 1 @ 2;", exc.value.at) == (1, 8)


def test_tokenize_integers_are_ascii_digits():
    assert [t[1] for t in tokenize("0123 4")[:2]] == ["0123", "4"]
    for digit in ("\u00b2", "\u0663"):  # superscript two, Arabic-Indic three
        with pytest.raises(ParseError) as exc:
            tokenize(f"echo 1{digit};")
        assert exc.value.message == f"unexpected character {digit!r}"
        assert line_col(f"echo 1{digit};", exc.value.at) == (1, 7)


def test_parse_integer_literal_beyond_int_digit_limit():
    source = "echo 1;\n  echo " + "9" * 5000 + ";"
    with pytest.raises(ParseError) as exc:
        parse_scriptlet(source)
    assert line_col(source, exc.value.at) == (2, 8)
    assert exc.value.message == "integer literal too long (5000 digits)"


def test_tokenize_comments_run_to_end_of_line():
    kinds = [t[0] for t in tokenize("# all comment\necho 1;")]
    assert kinds == ["echo", "int", ";", "eof"]


_LEXEMES = st.sampled_from([
    "$v", "$_x1", "name", "echo", "42", "'a\\'b'", "''", '"a\\n\\"b"',
    '"""\nx\ny"""', '""""""', "==", "!=", "=", "<", ">", "?", ":", ".", ",",
    ";", "(", ")", "{", "}",
])
_GAPS = st.sampled_from([" ", "\t", "\n", "\r\n", "  # note\n", "\n\n  "])


@given(st.lists(st.tuples(_GAPS, _LEXEMES), max_size=20), _GAPS)
def test_tokenize_positions_point_at_the_token_text(pairs, tail):
    source = "".join(gap + lexeme for gap, lexeme in pairs) + tail
    tokens = tokenize(source)
    assert len(tokens) == len(pairs) + 1
    for (_, lexeme), token in zip(pairs, tokens):
        assert source.startswith(lexeme, token[2])
    assert tokens[-1][2] == len(source)


def _decode_quoted(source):
    """Reference lexer for the string opening `source`: ("str", value, end),
    or ("error", message, at) for the ParseError it must raise."""
    quote = source[0]
    escapes = ({"n": "\n", "t": "\t", "\\": "\\", '"': '"', "$": "$"}
               if quote == '"' else {"'": "'", "\\": "\\"})
    value, i = "", 1
    while i < len(source):
        c, esc = source[i], source[i + 1:i + 2]
        if c == quote:
            return "str", value, i + 1
        if c == "\\" and esc in escapes:
            value, i = value + escapes[esc], i + 2
        elif c == "\\" and quote == '"' and esc:
            return "error", f"unknown escape '\\{esc}' in string", i
        elif c == "\\" and quote == '"':
            break
        else:
            value, i = value + c, i + 1
    return "error", "unterminated string", 0


@example("'a\\")
@example('"a\\')
@given(st.sampled_from("'\"").flatmap(
    lambda q: st.text(alphabet="'\"\\ntx$", max_size=12).map(q.__add__)))
def test_tokenize_quoted_strings_match_a_reference_decoder(source):
    assume(not source.startswith('"""'))
    kind, value, at = _decode_quoted(source)
    if kind == "error":
        with pytest.raises(ParseError) as exc:
            tokenize(source)
        assert (exc.value.message, exc.value.at) == (value, at)
    else:
        assert tokenize(source[:at]) == [("str", value, 0), ("eof", "", at)]


# --- parser --------------------------------------------------------------

def test_parse_all_statement_forms():
    parse_scriptlet("""
        $x = 'a';
        echo $x, 'b';
        if ($x == 'a') { echo 'y'; } else { echo 'n'; }
        for $f in glob('*') { echo $f; }
        strip_suffix('a.b', '.b');
    """)


def test_parse_missing_semicolon():
    with pytest.raises(ParseError) as exc:
        parse_scriptlet("$x = 1")
    assert "';'" in exc.value.message


def test_parse_keyword_is_not_an_expression():
    with pytest.raises(ParseError) as exc:
        parse_scriptlet("echo in;")
    assert "keyword" in exc.value.message


def test_parse_for_requires_variable():
    with pytest.raises(ParseError):
        parse_scriptlet("for x in glob('*') { }")


def test_parse_for_requires_in():
    with pytest.raises(ParseError) as exc:
        parse_scriptlet("for $x glob('*') {}")
    assert (exc.value.message, exc.value.at) == (
        "expected 'in' in for statement", 7)


def test_parse_rejects_output_as_loop_variable():
    # $O always reads the output, so a loop variable of that name could
    # never be read.
    with pytest.raises(ParseError) as exc:
        parse_scriptlet("$l = 'ab'; for $O in glob('*') { echo $O; }")
    assert (exc.value.message, exc.value.at) == (
        "$O cannot be a loop variable", 15)


def test_parse_unterminated_block():
    with pytest.raises(ParseError) as exc:
        parse_scriptlet("if (1) { echo 'x';")
    assert "'}'" in exc.value.message


def test_parse_zero_argument_call():
    parse_scriptlet("file_modification_date();")


def test_parse_nesting_limit():
    deepest = "(" * (MAX_NESTING - 1) + "'a'" + ")" * (MAX_NESTING - 1)
    assert run(f"echo {deepest};") == "a"
    source = f"echo\n  ({deepest});"
    with pytest.raises(ParseError) as exc:
        parse_scriptlet(source)
    assert line_col(source, exc.value.at) == (2, MAX_NESTING + 3)  # the 101st "("
    assert exc.value.message == f"nesting deeper than {MAX_NESTING} levels"
    blocks = "if (1) { " * MAX_NESTING + "$x = 1;" + " }" * MAX_NESTING
    with pytest.raises(ParseError):
        parse_scriptlet(blocks)


# --- evaluation ----------------------------------------------------------

def test_echo_appends_without_separator():
    assert run("echo 'a', 1, 'b';") == "a1b"


def test_out_buffer_assignment_replaces():
    assert run("echo 'x'; $O = 'fresh'; echo '!';") == "fresh!"


def test_out_buffer_readable():
    assert run("echo 'ab'; $O = $O . $O;") == "abab"
    assert run("echo 'a'; $x = $O; echo 'b', $O, $x;") == "ababa"
    assert run("echo 'a'; $O = $O . 'b'; echo 'c', $O;") == "abcabc"


def test_out_buffer_assignment_stringifies():
    assert run("$O = 5 == 5; echo '!';") == "1!"


def test_eval_program_starts_with_an_empty_out():
    state = make_state()
    assert run("echo 'a';", state) == "a"
    assert run("echo 'b', $O;", state) == "bb"


def test_scope_persists_across_programs():
    state = make_state()
    run("$x = 'v';", state)
    assert run("echo $x;", state) == "v"


def test_undefined_variable_read():
    source = "echo 'a';\necho $nope;"
    with pytest.raises(EvalError) as exc:
        run(source)
    assert "undefined variable $nope" in exc.value.message
    assert line_col(source, exc.value.at) == (2, 6)


def test_ternary_and_equality():
    assert run("echo 1 == '1' ? 'same' : 'diff';") == "same"
    assert run("echo 'a' != 'b' ? 'ok' : 'eh';") == "ok"


def test_numeric_comparison_only_for_two_ints():
    assert run("echo 2 < 10 ? 'num' : 'lex';") == "num"
    assert run("echo '2' < '10' ? 'yes' : 'no';") == "no"


def test_bools_compare_as_strings_not_ints():
    # False stringifies to "", which sorts before "0"; as an int it would not
    assert run("$f = 1 == 2; echo $f < 0 ? 'lex' : 'num';") == "lex"


def test_if_else_truthiness():
    assert run("if ('') { echo 'y'; } else { echo 'n'; }") == "n"
    assert run("if (0) { echo 'y'; } else { echo 'n'; }") == "n"
    assert run("if ('0') { echo 'y'; } else { echo 'n'; }") == "y"
    assert run("if (1 == 2) { echo 'y'; } else { echo 'n'; }") == "n"


def test_empty_list_is_falsy(tmp_path):
    state = make_state(path=str(tmp_path / "f.txt"))
    src = "if (glob('nothing-here-*')) { echo 'y'; } else { echo 'n'; }"
    assert run(src, state) == "n"


def test_for_needs_a_list():
    with pytest.raises(EvalError) as exc:
        run("for $x in 'abc' { echo $x; }")
    assert "list" in exc.value.message


def test_unknown_function():
    with pytest.raises(EvalError) as exc:
        run("echo frobnicate(1);")
    assert "unknown function 'frobnicate'" in exc.value.message


def test_bad_calls_fail_only_when_they_run():
    program = parse_scriptlet("if (0) { frobnicate(1); echo join(' '); }\n"
                              "echo 1 ? 'ok' : nope(1, 2);")
    assert eval_program(program, make_state()) == "ok"


def test_loop_budget_is_per_eval_program_call(tmp_path, monkeypatch):
    monkeypatch.setattr(scriptlet, "MAX_LOOP_ITERATIONS", 5)
    for name in ("a", "b", "c"):
        (tmp_path / name).write_text("")
    state = make_state(path=str(tmp_path / "a"))
    once = parse_scriptlet("for $x in glob('*') { echo $x; }")
    assert eval_program(once, state) == "abc"
    assert eval_program(once, state) == "abc"  # a fresh budget per call
    source = "for $x in glob('*') {\n  for $y in glob('*') { } }"
    with pytest.raises(EvalError) as exc:
        run(source, state)
    assert exc.value.message == "more than 5 loop iterations"
    assert line_col(source, exc.value.at) == (2, 3)


def test_string_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(scriptlet, "MAX_STRING", 4)
    assert run("echo 'ab' . 'cd'; $O = 'x'; echo 'abc';") == "xabc"
    for source, at in (("echo 'a',\n 'bc' . 'def';", (2, 7)),  # concatenation
                       ("echo 'abc';\n  echo 'de';", (2, 3)),  # $O
                       ("echo 'ab';\n$O = $O . $O . $O;", (2, 9))):
        with pytest.raises(EvalError) as exc:
            run(source)
        assert line_col(source, exc.value.at) == at
    for name in ("a", "b", "c"):
        (tmp_path / name).write_text("")
    state = make_state(path=str(tmp_path / "a"))
    assert run("$j = join('', glob('*'));", state) == ""
    with pytest.raises(EvalError) as exc:
        run("$j = join(',', glob('*'));", state)
    assert exc.value.message == "string longer than 4 characters"
    assert line_col("$j = join(',', glob('*'));", exc.value.at) == (1, 6)
    assert run("echo htmlquote('<');") == "&lt;"
    with pytest.raises(EvalError) as exc:
        run("echo htmlquote('a<');")
    assert line_col("echo htmlquote('a<');", exc.value.at) == (1, 6)


_FUZZ_LEXEMES = st.sampled_from([
    "$v", "$O", "echo", "if", "else", "for", "in", "42", "\u00b2", "9" * 4400,
    "'a'", '"b\\n"', '"""c"""', "==", "!=", "=", "<", ">", "?", ":", ".",
    ",", ";", "(", ")", "{", "}", " ", "\n", "#",
    "glob('*')", "join(", "htmlquote(", "strip_suffix(", "set_style(",
    "add_hook(", "add_regex_hook(", "set_out_delimiters(", "read_starfish_conf()",
    "file_modification_date()", "nope(",
])


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(["", " ", "\n"]),
                          st.one_of(_FUZZ_LEXEMES, st.text(max_size=4))),
                max_size=40))
def test_no_source_escapes_as_a_traceback(tmp_path, pieces):
    doc = tmp_path / "doc.txt"
    doc.write_text("")
    state = make_state(path=str(doc))
    try:
        eval_program(parse_scriptlet("".join(g + p for g, p in pieces)), state)
    except (ParseError, EvalError):
        pass


def test_wrong_arity():
    with pytest.raises(EvalError) as exc:
        run("echo join(' ');")
    assert "join() takes 2 argument(s), got 1" in exc.value.message
    assert line_col("echo join(' ');", exc.value.at) == (1, 6)


def test_stringify_values():
    assert stringify(True) == "1"
    assert stringify(False) == ""
    assert stringify(7) == "7"
    assert stringify(["a", 1, ["b", "c"]]) == "a 1 b c"


def test_truthy_values(tmp_path):
    (tmp_path / "a.txt").write_text("")
    state = make_state(path=str(tmp_path / "a.txt"))
    falsy = ["''", "0", "1 < 0", "glob('nothing-*')"]
    truthy = ["'0'", "'x'", "3", "glob('*.txt')"]
    for cond in falsy + truthy:
        expected = "y" if cond in truthy else "n"
        assert run(f"echo {cond} ? 'y' : 'n';", state) == expected, cond
        source = f"if ({cond}) {{ echo 'y'; }} else {{ echo 'n'; }}"
        assert run(source, state) == expected, cond


def test_heredoc_style_assignment():
    assert run('$a = """\nline1\nline2\n"""; echo $a;') == "line1\nline2\n"


# --- builtins ------------------------------------------------------------

def test_htmlquote_escapes_and_order():
    assert run("echo htmlquote('&');") == "&amp;"
    assert run("echo htmlquote('<');") == "&lt;"
    # ampersands introduced by quoting must not be re-escaped
    assert run("""echo htmlquote('R&D <"x"> !>');""") == (
        "R&amp;D &lt;&quot;x&quot;> !>")


def test_file_modification_date_formats_mtime(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("hi")
    when = datetime(2020, 7, 4, 12, 0).timestamp()
    os.utime(f, (when, when))
    state = make_state(path=str(f))
    assert run("echo file_modification_date();", state) == "July 4, 2020"


def test_glob_sorts_and_escapes(tmp_path):
    for name in ("B.java", "A.java", "a.txt", "x+y.java", "ab.txt", "[ab]", "b"):
        (tmp_path / name).write_text("")
    state = make_state(path=str(tmp_path / "f.txt"))
    assert run("for $f in glob('*.java') { echo $f, ';'; }", state) == \
        "A.java;B.java;x+y.java;"
    assert run("echo join(',', glob('?.java'));", make_state(
        path=str(tmp_path / "f.txt"))) == "A.java,B.java"
    assert run("echo join(',', glob('zzz*'));", make_state(
        path=str(tmp_path / "f.txt"))) == ""
    assert run("echo glob('[ab]'), ';', glob('[*');", make_state(
        path=str(tmp_path / "f.txt"))) == "[ab];[ab]"


def test_glob_many_stars_stay_fast(tmp_path):
    (tmp_path / ("a" * 40)).write_text("")
    state = make_state(path=str(tmp_path / "f.txt"))
    start = time.monotonic()
    assert run("echo join(',', glob('" + "*a" * 20 + "*b'));", state) == ""
    assert time.monotonic() - start < 0.5


def _glob_oracle(pattern, name):
    """Brute-force glob: "*" is any run, "?" any one character, the rest
    literal."""
    if not pattern:
        return not name
    if pattern[0] == "*":
        return any(_glob_oracle(pattern[1:], name[i:]) for i in range(len(name) + 1))
    return (bool(name) and pattern[0] in ("?", name[0])
            and _glob_oracle(pattern[1:], name[1:]))


@given(st.text(alphabet="*?[].ab", max_size=8),
       st.sets(st.text(alphabet="[].ab", min_size=1, max_size=6), max_size=8))
def test_glob_matches_brute_force_oracle(pattern, names):
    # One name spells the pattern out, so a rule that reads "[" as a
    # character class (or any other special) has a name to miss.
    names = sorted(names | {pattern.replace("*", "").replace("?", "b") or "a"})
    state = make_state()
    state.listings[state.base_dir] = names
    expected = [name for name in names if _glob_oracle(pattern, name)]
    assert scriptlet.BUILTINS["glob"][1](state, pattern) == expected


def test_glob_returns_a_fresh_list_each_call(tmp_path):
    (tmp_path / "a.txt").write_text("")
    state = make_state(path=str(tmp_path / "f.txt"))
    glob = scriptlet.BUILTINS["glob"][1]
    first = glob(state, "*.txt")
    first.append("b.txt")
    assert glob(state, "*.txt") == ["a.txt"]


def test_glob_uses_base_dir_not_file_dir(tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    (other / "found.txt").write_text("")
    state = make_state(path=str(tmp_path / "f.txt"))
    state.base_dir = str(other)
    assert run("echo join(' ', glob('*.txt'));", state) == "found.txt"


def test_join_requires_list():
    with pytest.raises(EvalError) as exc:
        run("echo join(',', 'abc');")
    assert "list" in exc.value.message


def test_strip_suffix():
    assert run("echo strip_suffix('A.java', '.java');") == "A"
    assert run("echo strip_suffix('A.class', '.java');") == "A.class"


def test_set_style_switches_engine_settings():
    state = make_state()
    run("set_style('html');", state)
    assert state.hooks[0] == BeginEnd("<!--<?", "!>-->")
    assert state.style.line_comment is None
    assert state.out_delims == OutDelims("<!-- +", " -->", "<!-- -", " -->")
    run("set_style('python');", state)
    assert state.style.indent_adjust is True
    assert state.style.line_comment == "#"


def test_set_style_unknown_name():
    with pytest.raises(EvalError) as exc:
        run("set_style('klingon');")
    assert "unknown style 'klingon'" in exc.value.message
    assert "java" in exc.value.message  # the message lists what exists


def test_add_hook_appends_begin_end():
    state = make_state()
    run("add_hook('[[', ']]');", state)
    assert state.hooks[-1] == BeginEnd("[[", "]]")


def test_add_hook_rejects_empty_delimiter():
    for code in ("add_hook('', ']]');", "add_hook('<?', '');"):
        with pytest.raises(EvalError):
            run(code)


def test_add_regex_hook_appends_pattern():
    state = make_state()
    run("add_regex_hook('v([0-9]+)', 'version $1');", state)
    assert state.hooks[-1] == Pattern(re.compile("v([0-9]+)"), "version $1")


def test_add_regex_hook_rejects_bad_or_empty_pattern():
    with pytest.raises(EvalError):
        run("add_regex_hook('(', 'x');")
    with pytest.raises(EvalError):
        run("add_regex_hook('', 'x');")
    for pattern in ("a{4294967296}", "(" * 2000 + ")" * 2000):
        with pytest.raises(EvalError):
            run(f"add_regex_hook('{pattern}', 'x');")


def test_set_out_delimiters():
    state = make_state()
    run("set_out_delimiters('<!-- +', ' -->', '<!-- -', ' -->');", state)
    assert state.out_delims == OutDelims("<!-- +", " -->", "<!-- -", " -->")
    # Only a digit that starts b2 would read as part of the fence number.
    run("set_out_delimiters('<1', '>', '</', '2>');", state)
    assert state.out_delims == OutDelims("<1", ">", "</", "2>")


def test_set_out_delimiters_rejects_empty_part():
    with pytest.raises(EvalError):
        run("set_out_delimiters('a', '', 'c', 'd');")


def test_set_out_delimiters_rejects_an_empty_b1():
    state = make_state()
    with pytest.raises(EvalError) as exc:
        run("$x = 1; set_out_delimiters('', 'b', 'c', 'd');", state)
    assert (exc.value.message, exc.value.at) == (
        "set_out_delimiters() needs four non-empty strings", 8)
    assert state.out_delims == make_state().out_delims
