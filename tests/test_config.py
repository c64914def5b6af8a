import os

import pytest

from helpers import make_state
from textforge.config import (
    CONF_NAME,
    exec_conf_chain,
    find_conf_chain,
)
from textforge.core import EvalError, ParseError
from textforge.rewriter import process_file
from textforge.scriptlet import eval_program, parse_scriptlet
from textforge.styles import STYLES


def _conf(directory, source):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / CONF_NAME
    path.write_text(source)
    return str(path)


# --- find_conf_chain -------------------------------------------------------

def test_chain_is_collected_top_down(tmp_path):
    top = _conf(tmp_path / "a", "$x = 1;")
    mid = _conf(tmp_path / "a" / "b", "$x = 2;")
    leaf = _conf(tmp_path / "a" / "b" / "c", "$x = 3;")
    chain = find_conf_chain(str(tmp_path / "a" / "b" / "c"))
    assert chain == (top, mid, leaf)


def test_chain_empty_without_conf(tmp_path):
    (tmp_path / "x").mkdir()
    assert find_conf_chain(str(tmp_path / "x")) == ()


def test_chain_stops_at_first_gap(tmp_path):
    _conf(tmp_path / "a", "$x = 1;")
    (tmp_path / "a" / "b").mkdir()  # no conf here
    leaf = _conf(tmp_path / "a" / "b" / "c", "$x = 3;")
    chain = find_conf_chain(str(tmp_path / "a" / "b" / "c"))
    assert chain == (leaf,)


def test_chain_starts_from_given_directory_only(tmp_path):
    _conf(tmp_path / "a", "$x = 1;")
    (tmp_path / "a" / "b").mkdir()
    assert find_conf_chain(str(tmp_path / "a" / "b")) == ()


def test_chain_terminates_at_filesystem_root():
    find_conf_chain("/")  # must not loop forever


# --- exec_conf_chain --------------------------------------------------------

def test_exec_runs_in_order_so_deeper_overrides(tmp_path):
    _conf(tmp_path / "a", "$x = 'p';")
    _conf(tmp_path / "a" / "b", "$x = $x . 'c'; $z = 'child';")
    state = make_state(path=str(tmp_path / "a" / "b" / "f.txt"))
    exec_conf_chain(find_conf_chain(str(tmp_path / "a" / "b")), state)
    assert state.scope["x"] == "pc"
    assert state.scope["z"] == "child"
    assert state.conf_loaded is True


def test_exec_discards_conf_output(tmp_path):
    _conf(tmp_path, "echo 'noise';")
    f = tmp_path / "f.txt"
    f.write_text("<? read_starfish_conf(); !>")
    assert process_file(str(f), STYLES["default"]) is False
    assert f.read_text() == "<? read_starfish_conf(); !>"


def test_read_conf_after_echo_keeps_the_snippets_output(tmp_path):
    _conf(tmp_path, "echo 'noise'; $v = 'set';")
    state = make_state(path=str(tmp_path / "f.txt"))
    program = parse_scriptlet("echo 'a'; read_starfish_conf(); echo $v, $O;")
    assert eval_program(program, state) == "asetaset"


def test_exec_resolves_paths_against_conf_directory(tmp_path):
    confdir = tmp_path / "shared"
    _conf(confdir, "$found = glob('*.marker');")
    (confdir / "here.marker").write_text("")
    filedir = tmp_path / "shared" / "posts"
    filedir.mkdir()
    state = make_state(path=str(filedir / "f.txt"))
    exec_conf_chain(find_conf_chain(str(confdir)), state)
    assert state.scope["found"] == ["here.marker"]
    # and the file's own base_dir is restored afterwards
    assert state.base_dir == str(filedir)


def test_exec_errors_name_the_conf_file(tmp_path):
    bad = _conf(tmp_path, "$x = $undefined;")
    state = make_state(path=str(tmp_path / "f.txt"))
    with pytest.raises(EvalError) as exc:
        exec_conf_chain(find_conf_chain(str(tmp_path)), state)
    assert exc.value.file == bad

    worse = _conf(tmp_path, "$x = ;")
    with pytest.raises(ParseError) as exc:
        exec_conf_chain(find_conf_chain(str(tmp_path)), make_state(
            path=str(tmp_path / "f.txt")))
    assert exc.value.file == worse


def test_exec_empty_chain_changes_nothing(tmp_path):
    state = make_state(path=str(tmp_path / "f.txt"))
    exec_conf_chain(find_conf_chain(str(tmp_path)), state)
    assert state.scope == {}
    assert state.conf_loaded is True


# --- the read_starfish_conf() builtin --------------------------------------

READ_CONF = parse_scriptlet("read_starfish_conf();")


def test_load_runs_once_per_file(tmp_path):
    _conf(tmp_path, "$n = 'fresh';")
    state = make_state(path=str(tmp_path / "f.txt"))
    eval_program(READ_CONF, state)
    assert state.scope["n"] == "fresh"
    state.scope["n"] = "changed"
    eval_program(READ_CONF, state)  # second call must not re-execute the conf
    assert state.scope["n"] == "changed"


def test_load_uses_the_processed_files_directory(tmp_path):
    _conf(tmp_path / "posts", "$here = 'posts';")
    state = make_state(path=str(tmp_path / "posts" / "entry.txt"))
    eval_program(READ_CONF, state)
    assert state.scope["here"] == "posts"
