import re
import time
import types
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import goldens
from helpers import concat_segments, make_state
from textforge import scanner, scriptlet
from textforge.core import (
    BeginEnd,
    EngineError,
    OutDelims,
    Pattern,
    UnterminatedOutputError,
    UnterminatedSnippetError,
    line_col,
)
from textforge.scanner import (
    Outer,
    PatternMatch,
    Snippet,
    detect_output_block,
    find_next_match,
    iter_segments,
)
from textforge.scriptlet import eval_program, parse_scriptlet

DEFAULT_HOOKS = [BeginEnd("#<?", "!>"), BeginEnd("<?", "!>")]
JAVA_HOOKS = [BeginEnd("//<?", "!>"), BeginEnd("<?", "!>")]
JAVA_DELIMS = OutDelims("//", "+\n", "//", "-\n")


# --- find_next_match -----------------------------------------------------

def test_find_basic_snippet():
    assert find_next_match("a<? x !>b", 0, DEFAULT_HOOKS) == (1, 1, 8, ())


def test_find_nothing():
    assert find_next_match("no hooks here", 0, DEFAULT_HOOKS) is None


def test_find_prefers_comment_hook_at_smaller_start():
    # "//<?" starts at 0, the bare "<?" only at 2: position wins.
    assert find_next_match("//<? x !>", 0, JAVA_HOOKS) == (0, 0, 9, ())


def test_find_leftmost_across_calls():
    text = "<? a !> tail <? b !>"
    _, start, end, _ = find_next_match(text, 0, DEFAULT_HOOKS)
    assert text[start:end] == "<? a !>"
    _, start, end, _ = find_next_match(text, end, DEFAULT_HOOKS)
    assert text[start:end] == "<? b !>"


def test_find_tie_on_start_prefers_shorter_match():
    hooks = [BeginEnd("<?", "!>>"), BeginEnd("<?", "!>")]
    assert find_next_match("<?x!>>", 0, hooks)[:3] == (1, 0, 5)


def test_find_full_tie_prefers_lower_hook_index():
    hooks = [BeginEnd("<?", "!>"), BeginEnd("<?", "!>")]
    assert find_next_match("<?x!>", 0, hooks)[0] == 0


def test_find_pattern_hook_captures():
    hooks = [Pattern(re.compile(r"a(b+)(c)?"), "$1")]
    _, start, end, captures = find_next_match("xxabbb", 0, hooks)
    assert (start, end) == (2, 6)
    assert captures == ("bbb", "")


def test_find_skips_zero_width_pattern_matches():
    hooks = [Pattern(re.compile("x*"), "$1")]
    assert find_next_match("yyy", 0, hooks) is None
    assert find_next_match("yyxy", 0, hooks)[1:3] == (2, 3)


def test_find_dangling_begin_is_an_error():
    with pytest.raises(UnterminatedSnippetError) as exc:
        find_next_match("a <? x", 0, DEFAULT_HOOKS)
    assert line_col("a <? x", exc.value.at) == (1, 3)


def test_find_dangling_after_complete_match_is_fine():
    text = "<? a !> <? b"
    _, start, end, _ = find_next_match(text, 0, DEFAULT_HOOKS)
    assert text[start:end] == "<? a !>"
    with pytest.raises(UnterminatedSnippetError):
        find_next_match(text, end, DEFAULT_HOOKS)


def test_find_dangling_before_complete_match_still_errors():
    hooks = [BeginEnd("[", "]"), BeginEnd("{", "}")]
    with pytest.raises(UnterminatedSnippetError):
        find_next_match("{ [x]", 0, hooks)
    assert find_next_match("[x] {", 0, hooks)[1:3] == (0, 3)


def _oracle_find(text, from_, hooks):
    """Brute-force re-derivation of the leftmost-shortest rule."""
    candidates = []
    dangling = None
    for i, hook in enumerate(hooks):
        if isinstance(hook, BeginEnd):
            starts = [s for s in range(from_, len(text) + 1)
                      if text.startswith(hook.begin, s)]
            if not starts:
                continue
            s = starts[0]
            ends = [e for e in range(s + len(hook.begin), len(text) + 1)
                    if text.startswith(hook.end, e)]
            if not ends:
                dangling = s if dangling is None else min(dangling, s)
                continue
            candidates.append((s, ends[0] + len(hook.end) - s, i))
        else:  # a Pattern whose regex matches a literal string
            literal = hook.regex.pattern
            starts = [s for s in range(from_, len(text) + 1)
                      if text.startswith(literal, s)]
            if starts:
                candidates.append((starts[0], len(literal), i))
    best = min(candidates) if candidates else None
    if dangling is not None and (best is None or dangling < best[0]):
        return "error"
    if best is None:
        return None
    return (best[2], best[0], best[0] + best[1])


@given(st.text(alphabet="ab<?!># \n", max_size=30), st.integers(0, 30))
def test_find_matches_brute_force_oracle(text, from_):
    from_ = min(from_, len(text))
    hooks = DEFAULT_HOOKS + [Pattern(re.compile("ab"), "")]
    try:
        got = find_next_match(text, from_, hooks)
    except UnterminatedSnippetError:
        got = "error"
    else:
        if got is not None:
            got = got[:3]
    assert got == _oracle_find(text, from_, hooks)


def _reference_search(text, regex, from_):
    """scanner._search for a regex hook, as first written."""
    at = from_
    while at <= len(text):
        m = regex.search(text, at)
        if m is None:
            return None
        if m.end() > m.start():
            return m.start(), m.end(), tuple(g or "" for g in m.groups()[:9])
        at = m.start() + 1
    return None


# Zero-width matches, lazy and empty alternatives, word boundaries, a group
# that does not take part, and more than nine groups.
@given(st.sampled_from(["q*", "|a", "a*?", "a??", r"\bx", "(a)(q)?",
                        "(a)" + "(q)?" * 9]),
       st.text(alphabet="aqx \n", max_size=30), st.integers(0, 32))
def test_search_matches_its_reference(pattern, text, from_):
    regex = re.compile(pattern)
    assert (scanner._search(text, Pattern(regex, ""), from_)
            == _reference_search(text, regex, from_))


# --- detect_output_block -------------------------------------------------

def test_detect_plain_block():
    out = detect_output_block("//+\nX\n//-\nrest", 0, JAVA_DELIMS)
    assert out == "//+\nX\n//-\n"


def test_detect_numbered_block_is_maximal_munch():
    out = detect_output_block("//3+\nY//-\n more\n//3-\ntail", 0, JAVA_DELIMS)
    assert out == "//3+\nY//-\n more\n//3-\n"


def test_detect_multidigit_infix():
    out = detect_output_block("#12+\nz#12-\nrest", 0, OutDelims("#", "+\n", "#", "-\n"))
    assert out == "#12+\nz#12-\n"


def test_detect_greedy_digits_do_not_backtrack():
    # b2 itself starts with a digit: "[11]" reads infix "11" and then fails
    # to see b2, rather than retrying with infix "1".
    delims = OutDelims("[", "1]", "[", "2]")
    assert detect_output_block("[11]x[12]", 0, delims) is None


def test_detect_absent():
    assert detect_output_block("plain", 0, JAVA_DELIMS) is None
    assert detect_output_block("x//+\n//-\n", 0, JAVA_DELIMS) is None  # not at 0


def test_detect_unterminated_block():
    with pytest.raises(UnterminatedOutputError) as exc:
        detect_output_block("//+\nX no end", 0, JAVA_DELIMS)
    assert line_col("//+\nX no end", exc.value.at) == (1, 1)


def test_detect_infix_mismatch_is_unterminated():
    # begin says infix "1"; a bare end marker does not close it
    with pytest.raises(UnterminatedOutputError):
        detect_output_block("//1+\nX//-\n", 0, JAVA_DELIMS)


# --- iter_segments -------------------------------------------------------

def test_scan_plain_text_is_one_outer():
    state = make_state()
    assert list(iter_segments("plain text", state)) == [Outer("plain text")]


def test_scan_basic_segments():
    state = make_state(style="java")
    segs = list(iter_segments("a//<? echo 1; !>b", state))
    assert segs[0] == Outer("a")
    assert isinstance(segs[1], Snippet)
    assert segs[1].raw == "//<? echo 1; !>"
    assert segs[1].code == " echo 1; "
    assert segs[1].code_offset == 5
    assert segs[2] == Outer("b")


def test_scan_consumes_adjacent_output_block():
    state = make_state(style="java")
    segs = list(iter_segments("x//<? c !>//+\nOLD//-\ny", state))
    snip = segs[1]
    assert snip.existing_output is not None
    assert snip.existing_output == "//+\nOLD//-\n"
    assert segs[2] == Outer("y")


def test_scan_updated_java_fixture_recovers_output():
    state = make_state(path="simple.java", style="java")
    snippets = [s for s in iter_segments(goldens.JAVA_UPDATED_TEST, state)
                if isinstance(s, Snippet)]
    assert len(snippets) == 3
    existing = snippets[2].existing_output
    assert existing is not None
    # the end marker abuts the semicolon, so no newline before it
    assert existing == '//+\n    System.out.println("Test version");//-\n'


def test_scan_block_must_touch_end_delimiter():
    state = make_state(style="java")
    segs = list(iter_segments("x//<? c !> //+\nOLD//-\n", state))
    assert segs[1].existing_output is None
    assert segs[2] == Outer(" //+\nOLD//-\n")


def test_scan_records_indent_and_whether_snippet_starts_line():
    state = make_state()
    snip = list(iter_segments("  x <? c !>", state))[1]
    assert snip.indent == "  "
    assert snip.starts_line is False
    state = make_state()
    snip = list(iter_segments("    <? c !>", state))[1]
    assert snip.indent == "    "
    assert snip.starts_line is True


def test_scan_line_leaves_out_consumed_output_blocks():
    # The block's newline must not start a new line: update inserted it,
    # and the pristine "<? a !> <? b !>" gives b no indent.
    segs = list(iter_segments("<? a !>#+\nA#-\n <? b !>#+\nB\n#-\n\n  <? c !>",
                              make_state(style="python")))
    b, c = [s for s in segs if isinstance(s, Snippet)][1:]
    assert (b.indent, b.starts_line) == ("", False)
    assert (c.indent, c.starts_line) == ("  ", True)


def test_scan_snapshots_out_delims_per_snippet():
    state = make_state()
    gen = iter_segments("<? a !>mid<? b !>", state)
    first = next(gen)
    assert isinstance(first, Snippet)
    other = OutDelims("@", "+\n", "@", "-\n")
    state.out_delims = other
    rest = list(gen)
    second = [s for s in rest if isinstance(s, Snippet)][0]
    assert first.out_delims != other
    assert second.out_delims == other


def test_scan_picks_up_hooks_added_mid_file():
    state = make_state()
    gen = iter_segments("<? a !> ZZ tail", state)
    assert isinstance(next(gen), Snippet)
    state.hooks.append(Pattern(re.compile("ZZ"), ""))
    rest = list(gen)
    matches = [s for s in rest if not isinstance(s, (Outer, Snippet))]
    assert len(matches) == 1
    assert matches[0].matched == "ZZ"


def test_scan_pattern_segment():
    state = make_state()
    state.hooks.append(Pattern(re.compile(r"v(\d+)"), "$1"))
    segs = list(iter_segments("see v42 here", state))
    assert segs[1] == PatternMatch(2, "v42", ("42",))


def test_scan_propagates_unterminated_output_position():
    state = make_state()
    with pytest.raises(UnterminatedOutputError) as exc:
        list(iter_segments("<? x !>#+\nno end", state))
    assert line_col("<? x !>#+\nno end", exc.value.at) == (1, 8)


def test_scan_is_deterministic():
    text = "a<? x !>b<? y !>#+\nQ#-\nc"
    first = list(iter_segments(text, make_state()))
    assert first == list(iter_segments(text, make_state()))


@given(st.text(alphabet="a<?!>/\n", max_size=60))
def test_scan_concat_reproduces_input(text):
    state = make_state(style="java")
    try:
        segs = list(iter_segments(text, state))
    except UnterminatedSnippetError:
        return  # dangling begin: scan aborts rather than guessing
    assert concat_segments(segs) == text


# --- linear scanning: each hook's next occurrence is remembered ------------

def _run_snippets(text, state):
    """Scan as process_file does, evaluating each snippet before the next
    segment is pulled. Returns the segments and the error that ended the
    scan (None if it ran to the end)."""
    segs = []
    try:
        for seg in iter_segments(text, state):
            segs.append(seg)
            if isinstance(seg, Snippet):
                eval_program(parse_scriptlet(seg.code), state)
    except EngineError as exc:
        return segs, (type(exc), exc.at, exc.message)
    return segs, None


def test_scan_searches_an_inert_hook_once(monkeypatch):
    searched = []
    search = scanner._search

    def counting(text, hook, from_):
        searched.append(hook)
        return search(text, hook, from_)

    monkeypatch.setattr(scanner, "_search", counting)
    text = "<? add_hook('[[', ']]'); !>\n" + "line <? $v = 1; !>\n" * 199
    segs, error = _run_snippets(text, make_state())
    assert error is None
    assert sum(isinstance(seg, Snippet) for seg in segs) == 200
    assert searched.count(BeginEnd("[[", "]]")) == 1


def test_scan_zero_width_regex_tries_each_position_about_once(monkeypatch):
    tries = 0

    class CountingRegex:
        def __init__(self, regex):
            self.rx = re.compile(regex)

        def search(self, text, pos):
            nonlocal tries
            tries += 1
            return self.rx.search(text, pos)

    monkeypatch.setattr(scriptlet, "re", types.SimpleNamespace(compile=CountingRegex))
    text = "<? add_regex_hook('q*', 'Q'); !>\n" + "".join(
        f"text{'q' if i % 50 == 0 else ''} <? $v = {i}; !>\n" for i in range(199))
    segs, error = _run_snippets(text, make_state())
    assert error is None
    assert sum(isinstance(seg, PatternMatch) for seg in segs) == 4
    assert tries <= len(text) + 200


_FRAGMENTS = st.sampled_from([
    "a", "q", "x", "ax", "qq", " ", "\n", "[[", "]]", "[[ $v = 1; ]]",
    "#+\nold#-\n", "//+\nold//-\n",
    "<? add_hook('[[', ']]'); !>",
    "<? add_hook('a', 'x'); !>",
    "<? add_regex_hook('q*', 'Q'); !>",
    "<? add_regex_hook('|a', '-'); !>",
    "<? add_regex_hook('a*?', '-'); !>",
    "<? add_regex_hook('\\bx', 'X'); !>",
    "<? add_regex_hook('(a)(q)?', '$1'); !>",
    "<? set_style('java'); !>",
    "//<? set_style('default'); !>",
    "<? echo 'x'; !>",
    "<? $v = '[['; !>",
])


@settings(deadline=None)
@given(st.lists(_FRAGMENTS, max_size=14).map("".join))
def test_scan_cache_agrees_with_fresh_searches(text):
    def uncached(text, from_, hooks, *, cache=None):
        return find_next_match(text, from_, hooks)

    cached = _run_snippets(text, make_state())
    with mock.patch.object(scanner, "find_next_match", uncached):
        fresh = _run_snippets(text, make_state())
    assert cached == fresh


# --- the source line: its indent is carried forward, never re-read ---------

def test_scan_of_many_snippets_on_one_line_is_linear():
    # Re-reading the line for each snippet took about 21 s here.
    text = "<? $a = 1; !>#+\nx#-\n " * 20_000
    started = time.perf_counter()
    segs = list(iter_segments(text, make_state(style="python")))
    assert time.perf_counter() - started < 2
    assert len(segs) == 40_000
    assert segs[-2].indent == "" and segs[-2].existing_output == "#+\nx#-\n"


def test_scan_whitespace_led_delimiter_runs_on_into_the_indent():
    state = make_state(style="python")
    state.hooks.append(BeginEnd(" [[", "]]"))
    segs = list(iter_segments("x\n   [[ c ]]\n  <? d !>", state))
    c, d = [s for s in segs if isinstance(s, Snippet)]
    assert (c.raw, c.indent, c.starts_line) == (" [[ c ]]", "   ", False)
    assert (d.raw, d.indent, d.starts_line) == ("<? d !>", "  ", True)


_LINE_PIECES = st.sampled_from([
    "x", " ", "  ", "\t", "\n", "\n  ", "<? a !>", "<? b\nc !>", "#<? e !>",
    " [[ c ]]", "\n [[ c ]]", "\n\t  [[ c ]]", "[[ d ]]", "]]", "#+\nX#-\n",
    "#+\n#-\n", "#+\nY\n#-\n",
])


@settings(max_examples=300)
@given(st.lists(_LINE_PIECES, max_size=16).map("".join), st.booleans())
def test_scan_indent_and_starts_line_match_the_rebuilt_source_line(
        text, blank_regex):
    state = make_state(style="python")
    state.hooks.append(BeginEnd(" [[", "]]"))
    if blank_regex:
        state.hooks.append(Pattern(re.compile(" +"), "_"))
    source, offset = [], 0  # the source read so far; where the scan is
    for seg in iter_segments(text, state):
        if isinstance(seg, Snippet):
            line = "".join(source).rpartition("\n")[2]
            body = line.lstrip(" \t")
            if body:
                indent, starts_line = line[:len(line) - len(body)], False
            else:
                run = re.match("[ \t]*", text[offset:]).group()
                indent, starts_line = line + run, not run
            assert (seg.indent, seg.starts_line) == (indent, starts_line)
            source.append(seg.raw)
            offset += len(seg.raw) + len(seg.existing_output or "")
        else:
            piece = seg.text if isinstance(seg, Outer) else seg.matched
            source.append(piece)
            offset += len(piece)
    assert offset == len(text)
