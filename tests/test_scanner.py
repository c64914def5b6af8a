import re
import time
import types
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import goldens
from helpers import concat_segments, make_state
from textforge import scanner, scriptlet
from textforge.core import (
    BeginEnd,
    EngineError,
    OutDelims,
    ParseError,
    Pattern,
    line_col,
)
from textforge.scanner import (
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
    assert find_next_match("a<? x !>b", 0, DEFAULT_HOOKS, []) == \
        (DEFAULT_HOOKS[1], 1, 8, None)


def test_find_nothing():
    assert find_next_match("no hooks here", 0, DEFAULT_HOOKS, []) is None


def test_find_prefers_comment_hook_at_smaller_start():
    # "//<?" starts at 0, the bare "<?" only at 2: position wins.
    assert find_next_match("//<? x !>", 0, JAVA_HOOKS, []) == \
        (JAVA_HOOKS[0], 0, 9, None)


def test_find_leftmost_across_calls():
    text = "<? a !> tail <? b !>"
    _, start, end, _ = find_next_match(text, 0, DEFAULT_HOOKS, [])
    assert text[start:end] == "<? a !>"
    _, start, end, _ = find_next_match(text, end, DEFAULT_HOOKS, [])
    assert text[start:end] == "<? b !>"


def test_find_tie_on_start_prefers_shorter_match():
    hooks = [BeginEnd("<?", "!>>"), BeginEnd("<?", "!>")]
    assert find_next_match("<?x!>>", 0, hooks, [])[:3] == (hooks[1], 0, 5)


def test_find_full_tie_prefers_lower_hook_index():
    hooks = [BeginEnd("<?", "!>"), BeginEnd("<?", "!>")]
    assert find_next_match("<?x!>", 0, hooks, [])[0] is hooks[0]


def test_find_pattern_hook_captures():
    hooks = [Pattern(re.compile(r"a(b+)(c)?"), "$1")]
    _, start, end, m = find_next_match("xxabbb", 0, hooks, [])
    assert (start, end) == (2, 6)
    assert m.groups("") == ("bbb", "")


def test_find_skips_zero_width_pattern_matches():
    hooks = [Pattern(re.compile("x*"), "$1")]
    assert find_next_match("yyy", 0, hooks, []) is None
    assert find_next_match("yyxy", 0, hooks, [])[1:3] == (2, 3)


def test_find_dangling_begin_is_an_error():
    with pytest.raises(ParseError) as exc:
        find_next_match("a <? x", 0, DEFAULT_HOOKS, [])
    assert line_col("a <? x", exc.value.at) == (1, 3)
    assert exc.value.message == "snippet begin delimiter is never terminated"


def test_find_dangling_after_complete_match_is_fine():
    text = "<? a !> <? b"
    _, start, end, _ = find_next_match(text, 0, DEFAULT_HOOKS, [])
    assert text[start:end] == "<? a !>"
    with pytest.raises(ParseError):
        find_next_match(text, end, DEFAULT_HOOKS, [])


def test_find_dangling_before_complete_match_still_errors():
    hooks = [BeginEnd("[", "]"), BeginEnd("{", "}")]
    with pytest.raises(ParseError):
        find_next_match("{ [x]", 0, hooks, [])
    assert find_next_match("[x] {", 0, hooks, [])[1:3] == (0, 3)


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
    return (hooks[best[2]], best[0], best[0] + best[1])


@given(st.text(alphabet="ab<?!># \n", max_size=30), st.integers(0, 30))
def test_find_matches_brute_force_oracle(text, from_):
    from_ = min(from_, len(text))
    # "<?" ... "##" and "<?" ... "!>" can start at one offset with only one
    # of them terminated.
    hooks = DEFAULT_HOOKS + [BeginEnd("<?", "##"),
                             Pattern(re.compile("ab"), "")]
    try:
        got = find_next_match(text, from_, hooks, [])
    except ParseError:
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
    expected = _reference_search(text, regex, from_)
    start, end, m = scanner._search(text, Pattern(regex, ""), from_)
    if m is not None:
        m = m.groups("")[:9]
    assert (start, end, m) == (scanner._ABSENT if expected is None
                               else expected)


# --- detect_output_block -------------------------------------------------

def test_detect_plain_block():
    out = detect_output_block("//+\nX\n//-\nrest", 0, JAVA_DELIMS)
    assert out == "//+\nX\n//-\n"


def test_detect_numbered_block_is_maximal_munch():
    out = detect_output_block("//3+\nY//-\n more\n//3-\ntail", 0, JAVA_DELIMS)
    assert out == "//3+\nY//-\n more\n//3-\n"


def test_detect_multidigit_infix():
    delims = OutDelims("#", "+\n", "#", "-\n")
    for block in ("#12+\nz#12-\n", "#10+\nx#10-\n", "#20+\n#2-\n#20-\n"):
        assert detect_output_block(block + "rest", 0, delims) == block


def test_detect_greedy_digits_do_not_backtrack():
    # b2 itself starts with a digit: "[11]" reads infix "11" and then fails
    # to see b2, rather than retrying with infix "1".
    delims = OutDelims("[", "1]", "[", "2]")
    assert detect_output_block("[11]x[12]", 0, delims) is None


def test_detect_absent():
    assert detect_output_block("plain", 0, JAVA_DELIMS) is None
    assert detect_output_block("x//+\n//-\n", 0, JAVA_DELIMS) is None  # not at 0


def test_detect_unterminated_block():
    with pytest.raises(ParseError) as exc:
        detect_output_block("//+\nX no end", 0, JAVA_DELIMS)
    assert line_col("//+\nX no end", exc.value.at) == (1, 1)
    assert exc.value.message == \
        "output block begin marker has no matching end marker"


def test_detect_infix_mismatch_is_unterminated():
    # begin says infix "1"; a bare end marker does not close it
    with pytest.raises(ParseError):
        detect_output_block("//1+\nX//-\n", 0, JAVA_DELIMS)


# --- iter_segments -------------------------------------------------------

def test_scan_plain_text_is_one_outer():
    state = make_state()
    assert list(iter_segments("plain text", state)) == ["plain text"]


def test_scan_basic_segments():
    # Update keeps the markup in the text before the snippet; replace drops it.
    snip = Snippet(" echo 1; ", 5, "", None)
    segs = list(iter_segments("a//<? echo 1; !>b", make_state(style="java")))
    assert segs == ["a//<? echo 1; !>", snip, "b"]
    segs = list(iter_segments("a//<? echo 1; !>b", make_state(style="java"),
                              replace=True))
    assert segs == ["a", snip, "b"]


def test_scan_consumes_adjacent_output_block():
    state = make_state(style="java")
    segs = list(iter_segments("x//<? c !>//+\nOLD//-\ny", state))
    snip = segs[1]
    assert snip.existing_output is not None
    assert snip.existing_output == "//+\nOLD//-\n"
    assert segs[2] == "y"


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
    assert segs[2] == " //+\nOLD//-\n"


def test_scan_records_indent_and_whether_snippet_starts_line():
    # Only a snippet that starts its line takes its indent with it in replace.
    segs = list(iter_segments("  x <? c !>", make_state(), replace=True))
    assert segs == ["  x ", Snippet(" c ", 6, "  ", None)]
    segs = list(iter_segments("a\n    <? c !>", make_state(), replace=True))
    assert segs == ["a\n", Snippet(" c ", 8, "    ", None)]
    segs = list(iter_segments("    <? c !>", make_state(), replace=True))
    assert segs == [Snippet(" c ", 6, "    ", None)]


def test_scan_line_leaves_out_consumed_output_blocks():
    # The block's newline must not start a new line: update inserted it,
    # and the pristine "<? a !> <? b !>" gives b no indent.
    segs = list(iter_segments("<? a !>#+\nA#-\n <? b !>#+\nB\n#-\n\n  <? c !>",
                              make_state(style="python"), replace=True))
    assert segs == [Snippet(" a ", 2, "", "#+\nA#-\n"), " ",
                    Snippet(" b ", 17, "", "#+\nB\n#-\n"), "\n",
                    Snippet(" c ", 35, "  ", None)]


def test_scan_detects_each_block_with_the_fence_in_effect():
    # Each block is read with the fence live when the scan reaches it; the
    # scan has not read past the first snippet when the fence changes.
    state = make_state()
    gen = iter_segments("<? a !>#+\nA#-\n<? b !>@+\nB@-\n<? c !>#+\nC#-\n",
                        state)
    assert next(gen) == "<? a !>"
    assert next(gen).existing_output == "#+\nA#-\n"
    state.out_delims = OutDelims("@", "+\n", "@", "-\n")
    rest = list(gen)
    assert rest[::2] == ["<? b !>", "<? c !>", "#+\nC#-\n"]
    assert [seg.existing_output for seg in rest[1::2]] == ["@+\nB@-\n", None]


def test_scan_picks_up_hooks_added_mid_file():
    state = make_state()
    gen = iter_segments("<? a !> ZZ tail", state, replace=True)
    assert isinstance(next(gen), Snippet)
    state.hooks.append(Pattern(re.compile("ZZ"), "zz"))
    assert list(gen) == [" ", "zz", " tail"]


def test_scan_pattern_segment():
    # Update leaves a match in the text around it.
    for replace, segs in ((False, ["see v42 here"]),
                          (True, ["see ", "42", " here"])):
        state = make_state()
        state.hooks.append(Pattern(re.compile(r"v(\d+)"), "$1"))
        assert list(iter_segments("see v42 here", state, replace)) == segs


# A regex of 0-10 groups, some optional or empty, that never matches empty,
# so the scan takes the matches re.sub takes.
@given(st.lists(st.sampled_from(["(a)", "(b)?", "(a|b)", "(b*)", "()"]),
                max_size=10).map(lambda groups: "x" + "".join(groups)),
       st.lists(st.sampled_from(["$0", "$1", "$2", "$9", "$10", "$$1", "$",
                                 "a", "-"]), max_size=8).map("".join),
       st.text(alphabet="xab", max_size=20))
@example("x(a)", "$1", "xa")  # the last group
@example("x(b)?(a)", "[$1|$2|$3]", "xa xba")
@example("x" + "(a)" * 10, "$10|$9", "xaaaaaaaaaa")
def test_substitute_template_matches_re_sub(pattern, template, text):
    def fill(m):
        groups = m.groups("")
        return re.sub(r"\$([1-9])", lambda ref: groups[int(ref[1]) - 1]
                      if int(ref[1]) <= len(groups) else "", template)

    regex = re.compile(pattern)
    state = make_state()
    state.hooks.append(Pattern(regex, template))
    assert "".join(iter_segments(text, state, replace=True)) == \
        regex.sub(fill, text)


def test_scan_propagates_unterminated_output_position():
    state = make_state()
    with pytest.raises(ParseError) as exc:
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
    except ParseError:
        return  # dangling begin: scan aborts rather than guessing
    assert concat_segments(segs) == text


# --- linear scanning: each hook's next occurrence is remembered ------------

def _run_snippets(text, state, replace=False):
    """Scan as process_file does, evaluating each snippet before the next
    segment is pulled. Returns the segments and the error that ended the
    scan (None if it ran to the end)."""
    segs = []
    try:
        for seg in iter_segments(text, state, replace):
            segs.append(seg)
            if isinstance(seg, Snippet):
                eval_program(parse_scriptlet(seg.code), state)
    except EngineError as exc:
        return segs, (type(exc), exc.at, exc.message)
    return segs, None


def test_scan_searches_an_inert_hook_once(monkeypatch):
    searched = []
    search = scanner._search

    def counting(text, hook, from_, *rest):
        searched.append(hook)
        return search(text, hook, from_, *rest)

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
    segs, error = _run_snippets(text, make_state(), replace=True)
    assert error is None
    assert segs.count("Q") == 4
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
    # Begin delimiters with their end far away or nowhere, and a pair whose
    # begin can end inside its end delimiter ("abc").
    "<? echo '[[[['; !>", "<? add_hook('ab', 'bc'); !>", "<? $v = 'ab'; !>",
    "abc", "bc",
])


@settings(deadline=None)
@given(st.lists(_FRAGMENTS, max_size=14).map("".join))
def test_scan_cache_agrees_with_fresh_searches(text):
    def uncached(text, from_, hooks, cache):
        return find_next_match(text, from_, hooks, [])

    cached = _run_snippets(text, make_state())
    with mock.patch.object(scanner, "find_next_match", uncached):
        fresh = _run_snippets(text, make_state())
    assert cached == fresh


def test_scan_reuses_an_end_only_for_code_that_starts_before_it():
    # The first "ab" (inside a snippet) ends at the "bc" of "abc"; the "ab"
    # of "abc" overlaps that "bc", so its code starts after that end's start
    # and it is never terminated.
    text = "<? add_hook('ab', 'bc'); !><? $v = 'ab'; !>abc"
    segs, error = _run_snippets(text, make_state())
    assert error == (ParseError, len(text) - 3,
                     "snippet begin delimiter is never terminated")
    state = make_state()
    state.hooks.append(BeginEnd("ab", "bc"))
    segs = list(iter_segments("<? ab !>ab bc<? ab !><? ab !>", state))
    assert segs[::2] == ["<? ab !>", "ab bc", "<? ab !>", "<? ab !>"]
    assert [seg.code for seg in segs[1::2]] == [" ab ", " ", " ab ", " ab "]


@pytest.mark.parametrize("tail", ["", "]]"])
def test_scan_of_begin_delimiters_far_from_an_end_is_linear(tail):
    # Searching for the end again after each "[[" took about 4 s here.
    state = make_state()
    state.hooks.append(BeginEnd("[[", "]]"))
    text = "<? echo '[['; !>" * 20_000 + tail
    started = time.perf_counter()
    segs = list(iter_segments(text, state))
    assert time.perf_counter() - started < 2
    assert len(segs) == 2 * 20_000 + bool(tail)  # markup, snippet; tail


def test_scan_with_many_inert_hooks_is_linear():
    # Comparing every hook's next match at each step took about 8 s here.
    state = make_state()
    state.hooks.extend(BeginEnd(f"[[{i}]", "]]") for i in range(2_000))
    started = time.perf_counter()
    segs = list(iter_segments("<? x !>\n" * 20_000, state))
    assert time.perf_counter() - started < 2
    assert len(segs) == 40_001  # markup and snippet each, then the last "\n"


def test_scan_cost_does_not_grow_with_the_regex_of_a_hook():
    # A cache keyed by the hook itself hashed the compiled pattern on every
    # lookup: with a 200-way alternation the scan took several times longer.
    def scan_seconds(pattern):
        state = make_state()
        state.hooks.append(Pattern(re.compile(pattern), ""))
        started = time.perf_counter()
        segs = list(iter_segments("foo " * 10_000, state, replace=True))
        assert len(segs) == 20_000
        return time.perf_counter() - started

    wide = "foo|" + "|".join(f"bar{i}" for i in range(199))
    times = {"foo": [], wide: []}
    for _ in range(3):
        for pattern in times:
            times[pattern].append(scan_seconds(pattern))
    assert min(times[wide]) <= 1.5 * min(times["foo"])


def test_scan_starts_a_fresh_cache_when_set_style_drops_the_hooks(monkeypatch):
    # The heap holds hooks by their index in the list set_style() replaces.
    sizes = []

    def recording(text, from_, hooks, cache):
        sizes.append(len(cache))
        return find_next_match(text, from_, hooks, cache)

    monkeypatch.setattr(scanner, "find_next_match", recording)
    text = "<? set_style('java'); !>\n//<? echo 1; !>\n<? echo 2; !>\n"
    segs, error = _run_snippets(text, make_state())
    assert error is None
    assert sum(isinstance(seg, Snippet) for seg in segs) == 3
    assert sizes[:2] == [0, 0] and sizes[2] > 0


# --- the source line: its indent is carried forward, never re-read ---------

def test_scan_of_many_snippets_on_one_line_is_linear():
    # Re-reading the line for each snippet took about 21 s here.
    text = "<? $a = 1; !>#+\nx#-\n " * 20_000
    started = time.perf_counter()
    segs = list(iter_segments(text, make_state(style="python")))
    assert time.perf_counter() - started < 2
    assert len(segs) == 40_001  # markup and snippet each, then the last " "
    assert segs[-2].indent == "" and segs[-2].existing_output == "#+\nx#-\n"


def test_scan_whitespace_led_delimiter_runs_on_into_the_indent():
    state = make_state(style="python")
    state.hooks.append(BeginEnd(" [[", "]]"))
    segs = list(iter_segments("x\n   [[ c ]]\n  <? d !>", state, replace=True))
    # c's own " " makes its indent "   ", but c does not start its line, so
    # the two blanks before it stay; d takes its indent with it.
    assert segs == ["x\n  ", Snippet(" c ", 7, "   ", None), "\n",
                    Snippet(" d ", 17, "  ", None)]


_LINE_PIECES = st.sampled_from([
    "x", " ", "  ", "\t", "\n", "\n  ", "<? a !>", "<? b\nc !>", "#<? e !>",
    " [[ c ]]", "\n [[ c ]]", "\n\t  [[ c ]]", "[[ d ]]", "]]", "#+\nX#-\n",
    "#+\n#-\n", "#+\nY\n#-\n",
])


@settings(max_examples=300)
@given(st.lists(_LINE_PIECES, max_size=16).map("".join), st.booleans())
def test_scan_indent_and_starts_line_match_the_rebuilt_source_line(
        text, blank_regex):
    # The indent is checked in update mode, against the source line rebuilt
    # from the text the scan keeps; whether a snippet starts its line, in
    # replace mode, where such a snippet takes its indent with it.
    def scan(replace):
        state = make_state(style="python")
        state.hooks.append(BeginEnd(" [[", "]]"))
        if blank_regex:
            state.hooks.append(Pattern(re.compile(" +"), "_"))
        return list(iter_segments(text, state, replace))

    def replaced(kept):  # each regex match as its template
        return re.sub(" +", "_", kept) if blank_regex else kept

    source, offset = "", 0  # the source kept so far; where the scan is
    last = 0  # where the source after the last snippet starts
    expected = ""  # the replace text so far
    for seg in scan(False):
        if type(seg) is str:
            source += seg
            offset += len(seg)
            continue
        # "#<?" wins over the "<?" at its end: it starts first.
        begin = next(b for b in ("#<?", " [[", "<?")
                     if text.endswith(b, 0, seg.code_offset))
        start = seg.code_offset - len(begin)
        markup = len(source) - (offset - start)  # where it starts in source
        line = source[:markup].rpartition("\n")[2]
        body = line.lstrip(" \t")
        if body:
            indent, starts_line = line[:len(line) - len(body)], False
        else:
            run = re.match("[ \t]*", text[start:]).group()
            indent, starts_line = line + run, not run
        assert seg.indent == indent
        # A blank the regex hook takes is in its template, which is never cut.
        if starts_line and not (blank_regex and " " in indent):
            markup -= len(indent)
        expected += replaced(source[last:markup])
        last = len(source)
        offset += len(seg.existing_output or "")
    assert offset == len(text)
    expected += replaced(source[last:])
    assert "".join(seg for seg in scan(True) if type(seg) is str) == expected
