import os
import re

from hypothesis import given, strategies as st

from textforge.core import (
    EngineError,
    EngineState,
    OutDelims,
    Pattern,
    line_col,
)
from textforge.styles import STYLES


def test_engine_error_diagnostic():
    source = "a\nb\n      boom"
    err = EngineError("boom", at=source.index("boom"))
    err.locate("a.txt", source)
    assert err.diagnostic() == "a.txt:3:7: boom"
    err.locate("b.txt", "")  # a located error keeps its place
    assert err.diagnostic() == "a.txt:3:7: boom"


def test_engine_error_diagnostic_without_file():
    assert EngineError("boom").diagnostic() == "<input>:0:0: boom"


def test_out_delims_markers():
    d = OutDelims("//", "+\n", "//", "-\n")
    assert d.begin() == "//+\n"
    assert d.end() == "//-\n"
    assert d.begin("3") == "//3+\n"
    assert d.end("12") == "//12-\n"


def test_new_engine_state_copies_hooks():
    style = STYLES["java"]
    state = EngineState("x.java", style)
    assert state.hooks == list(style.hooks)
    state.hooks.append(Pattern(re.compile("zz"), ""))
    # the style itself must stay pristine for the next file
    assert len(style.hooks) == 2


def test_new_engine_state_defaults():
    style = STYLES["default"]
    state = EngineState(os.path.join("some", "dir", "f.txt"), style)
    assert state.scope == {}
    assert state.conf_loaded is False
    assert state.base_dir == os.path.abspath(os.path.join("some", "dir"))
    assert state.line_comment == "#"
    assert state.indent_adjust is False


def test_line_col_examples():
    assert line_col("abc", 0) == (1, 1)
    assert line_col("abc", 2) == (1, 3)
    assert line_col("a\nbc", 2) == (2, 1)
    assert line_col("a\nbc", 3) == (2, 2)
    assert line_col("a\n\nx", 3) == (3, 1)


@given(st.text(alphabet="ab\n", max_size=40), st.integers(0, 40))
def test_line_col_matches_naive_walk(text, offset):
    offset = min(offset, len(text))
    line, col = 1, 1
    for ch in text[:offset]:
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    assert line_col(text, offset) == (line, col)
