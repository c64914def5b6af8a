import os
import re
import stat as statmod
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from textforge import core, rewriter, scriptlet
from textforge.core import (
    EngineError,
    EvalError,
    OutDelims,
    ParseError,
    line_col,
)
from textforge.rewriter import (
    choose_infix,
    indent_output,
    process_file,
    strip_line_comments,
    write_if_changed,
)
from textforge.styles import STYLES

HASH = OutDelims("#", "+\n", "#", "-\n")
JAVA = OutDelims("//", "+\n", "//", "-\n")


# --- strip_line_comments ---------------------------------------------------

def test_strip_line_comments_strips_comment_prefix():
    assert strip_line_comments("#   echo 'a';\n#   echo 'b';\n", "#") == \
        "   echo 'a';\n   echo 'b';\n"


def test_strip_line_comments_leaves_plain_lines():
    assert strip_line_comments("$x = 1;", "#") == "$x = 1;"


def test_strip_line_comments_mixed_lines():
    code = " $a = 1;\n    // $b = 2;\n//$c = 3;\nplain\n"
    assert strip_line_comments(code, "//") == " $a = 1;\n $b = 2;\n$c = 3;\nplain\n"


def test_strip_line_comments_of_one_line_counts_what_it_strips():
    assert strip_line_comments("  $x = 1;", "#") == "  $x = 1;"
    assert strip_line_comments(" \t# $x = 1;", "#") == " $x = 1;"


def test_strip_line_comments_without_line_comment_is_identity():
    assert strip_line_comments("# anything\n", None) == "# anything\n"


def test_strip_line_comments_makes_commented_ternary_parse():
    code = (' $O = "    ".($Version == \'Test\' ?\n'
            "    // 'System.out.println(\"Test version\");' :\n"
            "    // 'System.out.println(\"Release version\");' );\n"
            "    //")
    from textforge.scriptlet import parse_scriptlet
    parse_scriptlet(strip_line_comments(code, "//"))  # must not raise


@pytest.mark.parametrize("bad", range(4))
def test_snippet_errors_map_back_through_stripped_prefixes(tmp_path, bad):
    lines = ["  # $a = 1;", "\t#   echo $a;", "  $b = 2;", "#echo $a;"]
    lines[bad] = lines[bad].replace(";", " . $zz;")
    text = "x = 1\n#<?" + "\n".join(lines) + "\n#!>\n"
    f = tmp_path / "x.py"
    f.write_text(text)
    with pytest.raises(EvalError) as exc:
        process_file(str(f), STYLES["python"])
    assert exc.value.message == "undefined variable $zz"
    assert (exc.value.line, exc.value.col) == line_col(text, text.index("$zz"))


# --- choose_infix ----------------------------------------------------------

def test_choose_infix_no_conflict():
    assert choose_infix('System.out.println(...);\n', JAVA) == ""


def test_choose_infix_of_output_free_of_the_fence_is_empty():
    assert choose_infix("Section 1: word &lt;42>\n", HASH) == ""


def test_choose_infix_checks_the_tail_of_output_free_of_the_fence():
    # Neither "<>" nor "aaa" occurs in "xa", but "aaa" appended to it would
    # first be found one character early.
    assert choose_infix("xa", OutDelims("<", ">", "aa", "a")) == "1"


def test_choose_infix_plain_conflict():
    assert choose_infix("text //- more\n", JAVA) == "1"


def test_choose_infix_counts_up():
    assert choose_infix("x//-y//1-z//2-w\n", JAVA) == "3"


def test_choose_infix_ignores_trailing_newline_of_markers():
    # "#-" at the very end of output has no following "\n" in it, but still
    # collides because markers are compared without their trailing newline
    assert choose_infix("tail#-", HASH) == "1"


@given(st.text(alphabet="/+-0123ab\n#", max_size=30))
def test_choose_infix_is_minimal_and_safe(output):
    for delims in (JAVA, HASH):
        infix = choose_infix(output, delims)
        assert (delims.b1 + infix + delims.b2).rstrip("\n") not in output
        assert (delims.e1 + infix + delims.e2).rstrip("\n") not in output
        smaller = [] if infix == "" else \
            [""] + [str(n) for n in range(1, int(infix))]
        for cand in smaller:
            assert ((delims.b1 + cand + delims.b2).rstrip("\n") in output
                    or (delims.e1 + cand + delims.e2).rstrip("\n") in output)


def _reference_infix(output, delims):
    """choose_infix as first written: try "", 1, 2, ... in turn against the
    whole output."""
    def clashes(infix):
        end = delims.e1 + infix + delims.e2
        return ((delims.b1 + infix + delims.b2).rstrip("\n") in output
                or end.rstrip("\n") in output
                or (output + end).find(end) < len(output))

    n = 0
    while clashes(str(n) if n else ""):
        n += 1
    return str(n) if n else ""


_DELIM_PARTS = st.text(alphabet="<>a1\n", min_size=1, max_size=3)


@given(st.one_of(
           st.just(OutDelims("<", ">", "a", "a")),
           st.builds(OutDelims, _DELIM_PARTS, _DELIM_PARTS, _DELIM_PARTS,
                     _DELIM_PARTS)),
       st.text(alphabet="<>a0123\n", max_size=30))
def test_choose_infix_matches_its_reference(delims, output):
    assert choose_infix(output, delims) == _reference_infix(output, delims)


def test_choose_infix_is_linear_in_clashing_infixes():
    output = "".join(f"#{n or ''}-" for n in range(20_000))
    started = time.perf_counter()
    assert choose_infix(output, HASH) == "20000"
    assert time.perf_counter() - started < 0.5


# --- indent_output ---------------------------------------------------------

def test_indent_output_prefixes_lines():
    assert indent_output("x\ny\n", "  ") == "  x\n  y\n"


def test_indent_output_empty_indent():
    assert indent_output("x\n", "") == "x\n"


def test_indent_output_leaves_empty_lines_bare():
    assert indent_output("a\n\nb\n", "\t") == "\ta\n\n\tb\n"


def render(tmp_path, text, replace=False, style="default", init_code=None):
    """Process `text` as a file; returns the updated file or the replace
    output."""
    f = tmp_path / "doc.txt"
    f.write_text(text)
    out = tmp_path / "out.txt" if replace else None
    process_file(str(f), STYLES[style], out_path=out and str(out),
                 init_code=init_code)
    return (out or f).read_text()


# --- rendering in update mode ----------------------------------------------

def test_update_appends_fresh_block(tmp_path):
    assert render(tmp_path, 'x<? echo "OUT\\n"; !>y') == \
        'x<? echo "OUT\\n"; !>#+\nOUT\n#-\ny'


def test_update_replaces_stale_block(tmp_path):
    assert render(tmp_path, "x<? echo 'NEW'; !>#+\nOLD#-\ny") == \
        "x<? echo 'NEW'; !>#+\nNEW#-\ny"


def test_update_empty_output_drops_block_entirely(tmp_path):
    assert render(tmp_path, "x<? $a = 1; !>#+\nOLD#-\ny") == "x<? $a = 1; !>y"


def test_update_numbers_colliding_markers(tmp_path):
    assert render(tmp_path, '<? echo "a#-b\\n"; !>') == \
        '<? echo "a#-b\\n"; !>#1+\na#-b\n#1-\n'


def test_update_indents_output_for_indent_adjust_styles(tmp_path):
    assert render(tmp_path, '  #<? echo "a\\nb\\n"; !>\n', style="makefile") == \
        '  #<? echo "a\\nb\\n"; !>#+\n  a\n  b\n#-\n\n'


def test_update_java_style_does_not_indent(tmp_path):
    assert render(tmp_path, '  //<? echo "a\\n"; !>\n', style="java") == \
        '  //<? echo "a\\n"; !>//+\na\n//-\n\n'


def test_update_keeps_literal_and_pattern_matches_verbatim(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("a @NOW@ b")
    result = process_file(str(f), STYLES["default"],
                          init_code="add_regex_hook('@([A-Z]+)@', 'later');")
    assert result is False
    assert f.read_text() == "a @NOW@ b"


# --- rendering in replace mode ---------------------------------------------

def test_replace_whole_line_snippet_takes_its_whitespace(tmp_path):
    assert render(tmp_path, "    //<? echo '    x();'; !>\nrest",
                  replace=True, style="java") == "    x();\n\nrest"


def test_replace_never_cuts_a_template_before_a_line_starting_snippet(
        tmp_path):
    # The regex match takes the newline and the indent; the snippet still
    # starts its line, but its indent is in the template, which keeps it.
    text = '<? add_regex_hook("X\\n *", "T  "); !>\nX\n  <? echo "out"; !>\nend\n'
    assert render(tmp_path, text, replace=True) == "\nT  out\n\nend\n"


def test_replace_mid_line_snippet_keeps_prefix(tmp_path):
    assert render(tmp_path, "a <? echo 'X'; !> b", replace=True) == "a X\n b"


def test_replace_empty_output_leaves_blank_line(tmp_path):
    assert render(tmp_path, "    //<? $a = 1; !>\nrest",
                  replace=True, style="java") == "\nrest"


def test_replace_drops_stale_output_block(tmp_path):
    assert render(tmp_path, "x//<? echo 'NEW'; !>//+\nOLD//-\ny",
                  replace=True, style="java") == "xNEW\ny"


def test_replace_substitutes_literal_and_pattern_outputs(tmp_path):
    assert render(tmp_path, "a @NOW@ b", replace=True,
                  init_code="add_regex_hook('@([A-Z]+)@', 'later');") == "a later b"


def test_replace_no_ensured_newline_without_newline_delims(tmp_path):
    assert render(tmp_path, "<p><!--<? echo 'X'; !>--></p>",
                  replace=True, style="html") == "<p>X</p>"


# --- process_file ----------------------------------------------------------

def test_process_update_rewrites_in_place(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("x<? echo 'hi'; !>y")
    result = process_file(str(f), STYLES["default"])
    assert result is True
    assert f.read_text() == "x<? echo 'hi'; !>#+\nhi#-\ny"


def test_process_update_is_idempotent_and_preserves_mtime(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("x<? echo 'hi'; !>y")
    process_file(str(f), STYLES["default"])
    past = 1_000_000_000
    os.utime(f, (past, past))
    before = os.stat(f).st_mtime_ns
    result = process_file(str(f), STYLES["default"])
    assert result is False
    assert os.stat(f).st_mtime_ns == before


def test_process_replace_writes_only_out_path(tmp_path):
    f = tmp_path / "doc.txt"
    out = tmp_path / "out.txt"
    original = "x<? echo 'hi'; !>y"
    f.write_text(original)
    process_file(str(f), STYLES["default"], out_path=str(out))
    assert f.read_text() == original
    assert out.read_text() == "xhi\ny"


def test_process_init_code_runs_before_snippets(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("<? echo $who; !>")
    process_file(str(f), STYLES["default"],
                 init_code="$who = 'me'; echo 'discarded';")
    assert f.read_text() == "<? echo $who; !>#+\nme#-\n"


def test_process_init_code_errors_name_the_file(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("plain")
    with pytest.raises(ParseError) as exc:
        process_file(str(f), STYLES["default"], init_code="$x = ;")
    assert exc.value.file == str(f)


def test_process_pattern_hook_replace_substitutes_captures(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("see v42.")
    out = tmp_path / "out.txt"
    init = "add_regex_hook('v([0-9]+)', 'version $1');"
    process_file(str(f), STYLES["default"], out_path=str(out), init_code=init)
    assert out.read_text() == "see version 42."


def _readme_template(template, m):
    """TEMPLATE as README's `add_regex_hook` row fills it from match `m`:
    `$1`..`$9` are its groups, "" for one that took no part or that the
    regex lacks; every other character, `$` included, stays as written."""
    groups = m.groups()
    out, i = [], 0
    while i < len(template):
        n = template[i + 1:i + 2]
        if template[i] == "$" and "1" <= n <= "9":
            n = int(n)
            out.append(groups[n - 1] or "" if n <= len(groups) else "")
            i += 2
        else:
            out.append(template[i])
            i += 1
    return "".join(out)


# Patterns that cannot match empty, so the scan takes re.sub's matches.
@given(st.sampled_from(["a(b)?", "(x+)(y)?", "(a)" + "(q)?" * 9]),
       st.lists(st.sampled_from(["$0", "$1", "$2", "$9", "$10", "$$1", "$",
                                 "a", "-", " "]), max_size=8).map("".join),
       st.lists(st.sampled_from(["ab", "a", "b", "xxy", "x", "y", "aqq", "q",
                                 " ", "\n"]), max_size=10).map("".join))
@example("a(b)?", "[$1|$0|$10|$$1|$|$2]", "ab a ab")
@example("(a)" + "(q)?" * 9, "$9$1", "aqqqqqqqqq aq")
def test_process_fills_templates_as_readme_says(pattern, template, text):
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "doc.txt")
        out = os.path.join(tmp, "out.txt")
        with open(f, "w") as fh:
            fh.write(text)
        before = os.stat(f)
        init = f"add_regex_hook('{pattern}', '{template}');"
        process_file(f, STYLES["default"], out_path=out, init_code=init)
        with open(out) as fh:
            assert fh.read() == re.compile(pattern).sub(
                lambda m: _readme_template(template, m), text)
        assert process_file(f, STYLES["default"], init_code=init) is False
        after = os.stat(f)
        with open(f) as fh:
            assert fh.read() == text
        assert (after.st_ino, after.st_mtime_ns) == \
            (before.st_ino, before.st_mtime_ns)


def test_process_hooks_added_by_snippets_apply_downstream(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("<? add_hook('[[', ']]'); !> [[ echo 'x'; ]]")
    process_file(str(f), STYLES["default"])
    assert f.read_text() == "<? add_hook('[[', ']]'); !> [[ echo 'x'; ]]#+\nx#-\n"


def test_process_out_delims_snapshot_keeps_idempotence(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("<? set_out_delimiters('[', '+', ']', '-'); echo 'a'; !>X"
                 "<? echo 'b'; !>")
    process_file(str(f), STYLES["default"])
    first = f.read_text()
    # first snippet was scanned before its own retargeting took effect
    assert first == ("<? set_out_delimiters('[', '+', ']', '-'); echo 'a'; !>"
                     "#+\na#-\nX<? echo 'b'; !>[+b]-")
    result = process_file(str(f), STYLES["default"])
    assert result is False
    assert f.read_text() == first


def test_process_error_position_single_line(tmp_path):
    f = tmp_path / "f.java"
    f.write_text("line1\n  //<? $x = $nope; !>\n")
    with pytest.raises(EvalError) as exc:
        process_file(str(f), STYLES["java"])
    assert exc.value.file == str(f)
    assert (exc.value.line, exc.value.col) == (2, 13)


def test_process_error_position_after_comment_stripping(tmp_path):
    f = tmp_path / "f.java"
    f.write_text("//<? echo 'a';\n// echo $bad;\n//!>\n")
    with pytest.raises(EvalError) as exc:
        process_file(str(f), STYLES["java"])
    assert (exc.value.line, exc.value.col) == (2, 9)


@pytest.mark.parametrize("text, init_code, error, at", [
    ("x\n  <? broken", None, ParseError, (2, 3)),
    ("x\n<? echo 'a'; !>#+\nno end", None, ParseError, (2, 16)),
    ("x\n <? echo 'a';\n echo ; !>", None, ParseError, (3, 7)),
    ("plain", "$x = 1;\n  $y = $nope;", EvalError, (2, 8)),
])
def test_process_names_the_file_at_the_error(tmp_path, text, init_code,
                                             error, at):
    f = tmp_path / "doc.txt"
    f.write_text(text)
    with pytest.raises(error) as exc:
        process_file(str(f), STYLES["default"], init_code=init_code)
    assert exc.value.file == str(f)
    assert (exc.value.line, exc.value.col) == at
    assert f.read_text() == text


def test_process_leaves_a_conf_error_naming_the_conf(tmp_path):
    conf = tmp_path / "starfish.conf"
    conf.write_text("$a = 1;\n$b = $nope;")
    f = tmp_path / "doc.txt"
    f.write_text("x\n<? read_starfish_conf(); !>")
    with pytest.raises(EvalError) as exc:
        process_file(str(f), STYLES["default"])
    assert exc.value.file == str(conf)
    assert (exc.value.line, exc.value.col) == (2, 6)


@st.composite
def _documents_with_an_error(draw):
    """A style, a document with one snippet whose code holds `$nope` or an
    unterminated string on its first or a later line, and that marker. The
    snippet's begin delimiter sits after outer text or indentation; later
    lines are indented and may carry the style's line comment; in half of
    the documents every newline is CRLF."""
    style = STYLES[draw(st.sampled_from(sorted(STYLES)))]
    begin, end = draw(st.sampled_from(style.hooks))
    marker, bad = draw(st.sampled_from([("$nope", "echo $nope;"),
                                        ("'nope", "echo 'nope")]))
    lines = [draw(st.sampled_from(["", "$v = 1;", "echo 1;  "]))
             for _ in range(draw(st.integers(1, 4)))]
    lines[draw(st.integers(0, len(lines) - 1))] = bad
    if marker == "'nope":  # nothing may close the string
        lines = lines[:lines.index(bad) + 1]
    indent = draw(st.sampled_from(["", "  ", "\t"]))
    lead = draw(st.sampled_from(["", "ab ", "a\tb"]))
    code = f" {lines[0]}"
    for line in lines[1:]:
        comment = style.line_comment if draw(st.booleans()) else None
        gap = draw(st.sampled_from(["", " ", "   "]))
        code += f"\n{indent}{comment or ''}{gap}{line}"
    document = (draw(st.text(alphabet="ab \n", max_size=8)) + f"\n{indent}{lead}"
                f"{begin}{code} {end}\n" + draw(st.text(alphabet="ab \n", max_size=8)))
    if draw(st.booleans()):
        document = document.replace("\n", "\r\n")
    return style, document, marker


@settings(deadline=None)
@given(_documents_with_an_error())
def test_process_reports_the_file_position_of_a_snippet_error(case):
    style, document, marker = case
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "doc.txt")
        with open(f, "w") as fh:
            fh.write(document)
        with pytest.raises((EvalError, ParseError)) as exc:
            process_file(f, style)
        assert exc.value.file == f
        assert (exc.value.line, exc.value.col) == \
            line_col(document, document.index(marker))
        with open(f, newline="") as fh:
            assert fh.read() == document


def test_process_scan_error_leaves_file_untouched(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("x <? broken")
    with pytest.raises(ParseError):
        process_file(str(f), STYLES["default"])
    assert f.read_text() == "x <? broken"


def test_process_changed_agrees_with_the_bytes_written(tmp_path):
    # Two file names that are not UTF-8 alone but are when concatenated:
    # the output decodes to a different str on the rerun, yet the same bytes.
    root = os.fsencode(tmp_path)
    for name in (b"z\xc3", b"\xa9y"):
        open(os.path.join(root, name), "wb").close()
    f = tmp_path / "doc.txt"
    f.write_text("<? echo glob('z*'), glob('*y'); !>")
    assert process_file(str(f), STYLES["default"]) is True
    assert f.read_bytes() == b"<? echo glob('z*'), glob('*y'); !>#+\nz\xc3\xa9y#-\n"
    before = os.stat(f)
    assert process_file(str(f), STYLES["default"]) is False
    after = os.stat(f)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_process_update_reads_the_input_once(tmp_path, monkeypatch):
    f = tmp_path / "doc.txt"
    f.write_text("x<? echo 'hi'; !>y")
    reads = []

    def counting_open(file, mode="r", *args, **kwargs):
        if file == str(f) and mode == "rb":
            reads.append(file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(core, "open", counting_open, raising=False)
    assert process_file(str(f), STYLES["default"]) is True
    assert len(reads) == 1
    reads.clear()
    assert process_file(str(f), STYLES["default"]) is False
    assert len(reads) == 1


def test_process_lists_each_glob_directory_once(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (tmp_path / "starfish.conf").write_text("$Top = glob('*.conf');")
    (sub / "starfish.conf").write_text("$Here = glob('*.conf');")
    f = sub / "doc.txt"
    f.write_text("<? read_starfish_conf(); echo $Top, $Here; !>\n"
                 + "<? echo glob('*.txt'); !>\n" * 48)
    listed = []
    real_listdir = os.listdir

    def counting_listdir(path):
        listed.append(path)
        return real_listdir(path)

    monkeypatch.setattr(scriptlet.os, "listdir", counting_listdir)
    assert process_file(str(f), STYLES["default"]) is True
    assert sorted(listed) == sorted([str(tmp_path), str(sub)])
    assert f.read_text().count("#+\ndoc.txt#-\n") == 48


def test_process_translates_each_glob_pattern_once(tmp_path, monkeypatch):
    (tmp_path / "a.txt").write_text("")
    f = tmp_path / "doc.txt"
    f.write_text("<? echo glob('*.txt'), glob('*.md'); !>\n" * 30)
    translated = []
    real_translate = scriptlet.fnmatch.translate

    def counting_translate(pattern):
        translated.append(pattern)
        return real_translate(pattern)

    monkeypatch.setattr(scriptlet.fnmatch, "translate", counting_translate)
    assert process_file(str(f), STYLES["default"]) is True
    assert sorted(translated) == ["*.md", "*.txt"]
    assert f.read_text().count("#+\na.txt doc.txt#-\n") == 30


def test_process_keys_each_glob_on_its_directory(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    (tmp_path / "starfish.conf").write_text("$Top = glob('*.txt');")
    (tmp_path / "top.txt").write_text("")
    (sub / "starfish.conf").write_text("$Here = glob('*.txt');")
    f = sub / "doc.txt"
    first = "<? echo glob('*.txt'); !>"
    second = "<? read_starfish_conf(); echo $Top, ';', $Here, ';', glob('*.txt'); !>"
    f.write_text(f"{first}\n{second}\n")
    assert process_file(str(f), STYLES["default"]) is True
    assert f.read_text() == (f"{first}#+\ndoc.txt#-\n\n"
                             f"{second}#+\ntop.txt;doc.txt;doc.txt#-\n\n")


def test_process_globs_every_directory_entry_as_listed(tmp_path):
    # Unlike a shell: subdirectories are listed, and * matches a leading dot.
    (tmp_path / ".hidden").write_text("")
    (tmp_path / "a.txt").write_text("")
    (tmp_path / "sub").mkdir()
    f = tmp_path / "t.txt"
    f.write_text("<? echo join(',', glob('*')), ';', glob('.*'); !>")
    assert process_file(str(f), STYLES["default"]) is True
    assert f.read_text().endswith("#+\n.hidden,a.txt,sub,t.txt;.hidden#-\n")


# --- write_if_changed ------------------------------------------------------

def _as_read(f):
    """The bytes and stat result of `f`, as a caller reads them first."""
    return f.read_bytes(), os.stat(f)


def test_write_if_changed_skips_identical_content(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("same")
    past = 1_000_000_000
    os.utime(f, (past, past))
    assert write_if_changed(str(f), "same", *_as_read(f)) is False
    assert os.stat(f).st_mtime_ns == past * 10**9


def test_write_if_changed_writes_new_content(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("old")
    assert write_if_changed(str(f), "new", *_as_read(f)) is True
    assert f.read_text() == "new"


def test_write_if_changed_creates_missing_file(tmp_path):
    f = tmp_path / "fresh.txt"
    assert write_if_changed(str(f), "content", None, None) is True
    assert f.read_text() == "content"


def test_write_if_changed_preserves_permissions(tmp_path):
    f = tmp_path / "a.sh"
    f.write_text("old")
    os.chmod(f, 0o750)
    write_if_changed(str(f), "new", *_as_read(f))
    assert statmod.S_IMODE(os.stat(f).st_mode) == 0o750


def test_write_if_changed_leaves_no_temp_files(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("old")
    write_if_changed(str(f), "new", *_as_read(f))
    write_if_changed(str(f), "new", *_as_read(f))
    assert os.listdir(tmp_path) == ["a.txt"]


def test_write_if_changed_cleans_up_when_the_rename_fails(tmp_path,
                                                          monkeypatch):
    f = tmp_path / "a.txt"
    f.write_text("old")
    before = os.stat(f).st_ino

    def refuse(src, dst):
        assert os.path.basename(src).startswith(".textforge-")
        raise PermissionError(13, "Permission denied", src)

    monkeypatch.setattr(rewriter.os, "replace", refuse)
    with pytest.raises(PermissionError) as exc:
        write_if_changed(str(f), "new", *_as_read(f))
    assert exc.value.filename == str(f)
    assert os.listdir(tmp_path) == ["a.txt"]
    assert f.read_text() == "old"
    assert os.stat(f).st_ino == before


def test_write_if_changed_draws_another_temp_name_when_one_exists(
        tmp_path, monkeypatch):
    f = tmp_path / "a.txt"
    f.write_text("old")
    taken = tmp_path / (".textforge-" + bytes(6).hex())
    taken.write_text("someone else's")
    draws = iter([bytes(6), b"\x01" * 6])  # the first name is taken
    monkeypatch.setattr(rewriter.os, "urandom", lambda n: next(draws))
    assert write_if_changed(str(f), "new", *_as_read(f)) is True
    assert f.read_text() == "new"
    assert taken.read_text() == "someone else's"
    assert sorted(os.listdir(tmp_path)) == [taken.name, "a.txt"]
    assert next(draws, None) is None


def test_replace_creates_its_target_under_the_umask(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("a <? echo 'x'; !> b")
    out = tmp_path / "out.txt"
    mask = os.umask(0o027)
    try:
        assert process_file(str(src), STYLES["default"], out_path=str(out))
    finally:
        os.umask(mask)
    assert out.read_text() == "a x\n b"
    assert statmod.S_IMODE(os.stat(out).st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["in.txt", "out.txt"]


# --- invariants over generated documents -----------------------------------

_OUTER = st.text(alphabet="ab @[]\n", max_size=6)
_SNIPPET_CODE = st.sampled_from([
    "echo 'x';",
    "$v = 1;",
    'echo "a\\n\\nb\\n";',
    'echo "#-\\n";',          # the plain end fence of the hash styles
    'echo "#+ x #1-";',
    'echo "//-";',            # ... of the java style
    'echo " -->";',           # ... of the html style
    'echo "]-";',             # the plain end fence set below
    'echo "[+\\n";',
    "echo '@ab@';",
    "add_regex_hook('@([ab]+)@', '<$1>');",
    "add_regex_hook('b(\\n *)', 'B$1');",  # takes a line-starting indent
    "add_hook('[[', ']]');",
    "set_out_delimiters('[', '+', ']', '-');",
    "set_out_delimiters('#', '+\\n', '#', '-\\n');",
    "set_out_delimiters('<', '1>', '</', '2>');",  # "1" would read as a fence number
    "set_out_delimiters('<', '>', 'a', 'a');",  # the end marker overlaps itself
    "echo 'xa';",
    "set_style('python');",
    "set_style('java');",
    "set_style('html');",
])


@st.composite
def _documents(draw):
    """A style and a document written with that style's hooks: outer text
    and snippets that either sit mid-line or start an indented line, some
    as commented multi-line scriptlets, and some `[[ ]]` snippets that run
    only once an `add_hook` has registered them; in half of them every
    newline is CRLF."""
    style = STYLES[draw(st.sampled_from(sorted(STYLES)))]
    (begin, end), (bare_begin, bare_end) = style.hooks
    comment = style.line_comment or ""
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        parts.append(draw(_OUTER))
        code = draw(_SNIPPET_CODE)
        indent = draw(st.sampled_from(["", "  ", "\t"]))
        shape = draw(st.sampled_from(["inline", "line", "commented", "added"]))
        if shape == "inline":
            parts.append(f"{bare_begin} {code} {bare_end}")
        elif shape == "line":
            parts.append(f"\n{indent}{begin} {code} {end}\n")
        elif shape == "commented":
            more = draw(_SNIPPET_CODE)
            parts.append(f"\n{indent}{begin} {code}\n{indent}{comment}   {more}"
                         f"\n{indent}{comment} {end}\n")
        else:
            parts.append(f"[[ {code} ]]")
    parts.append(draw(_OUTER))
    document = "".join(parts)
    if draw(st.booleans()):
        document = document.replace("\n", "\r\n")
    return style, document


@settings(deadline=None)
@given(_documents())
def test_update_is_a_fixpoint_and_commutes_with_replace(styled_document):
    style, document = styled_document
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "doc.txt")
        out = os.path.join(tmp, "out.txt")

        def read(path):
            with open(path, "rb") as fh:
                return fh.read()

        with open(f, "w") as fh:
            fh.write(document)
        try:
            process_file(f, style, out_path=out)
        except EngineError as exc:
            # A document that fails (a set_style can leave a snippet in the
            # old style's comments) fails the same way in update, untouched.
            with pytest.raises(type(exc)) as again:
                process_file(f, style)
            assert again.value.diagnostic() == exc.diagnostic()
            assert read(f) == document.encode()
            return
        replaced = read(out)

        process_file(f, style)
        past = 1_000_000_000
        os.utime(f, (past, past))
        updated = read(f)
        before = os.stat(f)
        assert process_file(f, style) is False
        after = os.stat(f)
        assert read(f) == updated
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

        process_file(f, style, out_path=out)
        assert read(out) == replaced
        if "\r\n" in document:  # no bare LF may be written
            for written in (updated, replaced):
                assert written.count(b"\n") == written.count(b"\r\n")

        # Through a symlink: the same bytes land in the target, the link
        # stays a link, and a rerun writes nothing.
        target = os.path.join(tmp, "target.txt")
        link = os.path.join(tmp, "link.txt")
        with open(target, "w") as fh:
            fh.write(document)
        os.symlink("target.txt", link)
        process_file(link, style)
        assert read(target) == updated
        assert os.path.islink(link)
        os.utime(target, (past, past))
        before = os.stat(target)
        assert process_file(link, style) is False
        after = os.stat(target)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

        # Through a hardlink: refused, or nothing to write; neither name
        # changes.
        h1, h2 = os.path.join(tmp, "h1.txt"), os.path.join(tmp, "h2.txt")
        with open(h1, "w") as fh:
            fh.write(document)
        os.link(h1, h2)
        os.utime(h1, (past, past))
        before = os.stat(h1)
        try:
            assert process_file(h1, style) is False
        except EngineError as exc:
            assert exc.diagnostic() == \
                f"{h1}:0:0: refusing to replace '{h1}': it has 2 hard links"
        for name in (h1, h2):
            after = os.stat(name)
            assert (after.st_ino, after.st_nlink, after.st_mtime_ns) == \
                (before.st_ino, 2, before.st_mtime_ns)
            assert read(name) == document.encode()
