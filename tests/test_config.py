import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import make_state
from textforge.config import (
    CONF_NAME,
    exec_conf_chain,
    find_conf_chain,
)
from textforge.core import EngineError, EvalError, ParseError
from textforge.rewriter import process_file
from textforge.scriptlet import eval_program, parse_scriptlet
from textforge.styles import STYLES

BOM = "\ufeff".encode()


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


def test_chain_ends_at_the_filesystem_root(tmp_path, monkeypatch):
    # With a conf in every directory, only the root stops the walk.
    monkeypatch.setattr(os.path, "isfile", lambda path: True)
    chain = find_conf_chain(str(tmp_path))
    monkeypatch.undo()
    assert chain == tuple(str(d / CONF_NAME)
                          for d in reversed([tmp_path, *tmp_path.parents]))
    assert chain[0] == os.path.join(os.sep, CONF_NAME)


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


def test_exec_errors_in_a_crlf_conf_are_placed_as_in_its_lf_twin(tmp_path):
    bad = tmp_path / CONF_NAME
    bad.write_bytes(b"$a = 1;\r\n  $b = $nope;\r\n")
    with pytest.raises(EvalError) as exc:
        exec_conf_chain((str(bad),), make_state(path=str(tmp_path / "f.txt")))
    assert (exc.value.file, exc.value.line, exc.value.col) == (str(bad), 2, 8)


def test_exec_errors_in_a_conf_with_a_bom_are_placed_as_an_editor_shows(
        tmp_path):
    bad = tmp_path / CONF_NAME
    bad.write_bytes(BOM + b"$x = ;")
    with pytest.raises(ParseError) as exc:
        exec_conf_chain((str(bad),), make_state(path=str(tmp_path / "f.txt")))
    assert (exc.value.file, exc.value.line, exc.value.col) == (str(bad), 1, 6)


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


def test_load_keeps_a_conf_error_where_the_conf_placed_it(tmp_path):
    # Only an error with no place of its own takes the call's.
    conf = _conf(tmp_path, "$a = 1;\n$b = ;\n")
    state = make_state(path=str(tmp_path / "f.txt"))
    with pytest.raises(ParseError) as exc:
        eval_program(parse_scriptlet("  read_starfish_conf();"), state)
    assert (exc.value.file, exc.value.line, exc.value.col) == (conf, 2, 6)


# --- a conf is read as FILE is ----------------------------------------------

# Runs of text for a conf string's lines; a string's closing quote is never
# among them, and neither is a line break.
_STRING_LINE = st.text(alphabet="ab #'$", max_size=6)


@st.composite
def _conf_sources(draw):
    """The LF source of a conf that assigns strings spanning lines, as
    triple-quoted strings (some with a line break right after the opening
    quotes) and double-quoted ones, between comment and blank lines; and
    the names it assigns."""
    lines, names = [], []
    for k in range(draw(st.integers(1, 3))):
        body = "\n".join(draw(st.lists(_STRING_LINE, min_size=1, max_size=4)))
        if draw(st.booleans()):
            lead = "\n" if draw(st.booleans()) else ""
            literal = f'"""{lead}{body}"""'
        else:
            literal = f'"{body}"'
        lines.append(draw(st.sampled_from(["", "# a comment", "$z = 1;"])))
        lines.append(f"$v{k} = {literal};")
        names.append(f"v{k}")
    return "\n".join(lines) + "\n", names


def _update_and_replace(conf: bytes, document: bytes) -> tuple[bytes, bytes]:
    """What update writes to `document` and what replace writes for it, with
    `conf` as the one conf of their directory."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, CONF_NAME), "wb") as fh:
            fh.write(conf)
        paths = [os.path.join(tmp, name) for name in ("a.txt", "b.txt", "out")]
        for path in paths[:2]:
            with open(path, "wb") as fh:
                fh.write(document)
        process_file(paths[0], STYLES["default"])
        process_file(paths[1], STYLES["default"], out_path=paths[2])
        written = []
        for path in (paths[0], paths[2]):
            with open(path, "rb") as fh:
                written.append(fh.read())
        return tuple(written)


@settings(deadline=None)
@example(('$h = """\nline one\nline two\n""";\n', ["h"]), b"")
@example(('$h = """\nline one\nline two\n""";\n', ["h"]), BOM)
@given(_conf_sources(), st.sampled_from([b"", BOM]))
def test_a_crlf_conf_gives_the_bytes_of_its_lf_twin(case, bom):
    """Also when the CRLF conf starts with a byte-order mark, which the conf
    drops and FILE, starting with one too, keeps."""
    source, names = case
    echo = ", ".join(f"${name}" for name in names)
    document = f"top\n<? read_starfish_conf(); echo {echo}; !>\nend\n"
    for newline in (b"\n", b"\r\n"):
        doc = bom + document.encode().replace(b"\n", newline)
        lf = _update_and_replace(source.encode(), doc)
        assert all(data.startswith(bom + b"top") for data in lf)
        crlf = bom + source.encode().replace(b"\n", b"\r\n")
        assert _update_and_replace(crlf, doc) == lf
        if newline == b"\r\n":
            for data in lf:
                assert data.count(b"\n") == data.count(b"\r\n")
                assert b"\r\r\n" not in data


def test_a_crlf_conf_string_takes_the_files_line_ends(tmp_path):
    (tmp_path / CONF_NAME).write_bytes(
        b'$h = """\r\nline one\r\nline two\r\n""";\r\n')
    f = tmp_path / "a.txt"
    document = b"top\r\n<? read_starfish_conf(); echo $h; !>\r\nend\r\n"
    f.write_bytes(document)
    assert process_file(str(f), STYLES["default"]) is True
    assert f.read_bytes() == (b"top\r\n<? read_starfish_conf(); echo $h; !>"
                              b"#+\r\nline one\r\nline two\r\n#-\r\n\r\nend\r\n")
    assert process_file(str(f), STYLES["default"]) is False
    g = tmp_path / "b.txt"
    g.write_bytes(document)
    process_file(str(g), STYLES["default"], out_path=str(tmp_path / "out"))
    assert (tmp_path / "out").read_bytes() == \
        b"top\r\nline one\r\nline two\r\n\r\nend\r\n"


def test_a_conf_with_mixed_newlines_runs_byte_for_byte(tmp_path):
    (tmp_path / CONF_NAME).write_bytes(
        b'$h = "a\r\nb\nc";\r\n$i = """\r\nd""";\n')
    f = tmp_path / "a.txt"
    f.write_bytes(b"<? read_starfish_conf(); echo $h, $i; !>\n")
    process_file(str(f), STYLES["default"])
    assert f.read_bytes() == \
        b"<? read_starfish_conf(); echo $h, $i; !>#+\na\r\nb\nc\r\nd#-\n\n"


def test_exec_refuses_a_conf_that_is_not_a_regular_file(tmp_path):
    state = make_state(path=str(tmp_path / "f.txt"))
    with pytest.raises(EngineError) as exc:
        exec_conf_chain((str(tmp_path),), state)
    assert exc.value.message == \
        f"refusing to read '{tmp_path}': not a regular file"
    assert exc.value.file is None
    assert state.base_dir == str(tmp_path)
