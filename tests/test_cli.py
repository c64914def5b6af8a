import gc
import importlib
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time

import pytest

import goldens
import textforge
from textforge import config, core, rewriter, scriptlet
from textforge.cli import USAGE, main, parse_args
from textforge.core import UsageError
from textforge.styles import STYLES


# --- argument parsing -------------------------------------------------------

def test_parse_plain_update():
    opts = parse_args(["simple.java"])
    assert opts.files == ["simple.java"]
    assert opts.out_path is None
    assert opts.init_code is None
    assert opts.style is None


def test_parse_replace_with_output():
    opts = parse_args(["-replace", "-o=release/simple.java", "simple.java"])
    assert opts.out_path == "release/simple.java"
    assert opts.files == ["simple.java"]


def test_parse_init_code_and_style():
    opts = parse_args(["-e=$Version = 'Release';", "-style=java", "Makefile"])
    assert opts.init_code == "$Version = 'Release';"
    assert opts.style is STYLES["java"]


def test_parse_lone_dash_is_a_file():
    assert parse_args(["-"]).files == ["-"]


def test_parse_usage_errors():
    for argv in ([],
                 ["-replace", "x"],
                 ["-o=out", "f"],
                 ["-o=", "f"],
                 ["-replace", "-o=", "f"],
                 ["-replace", "-o=out", "a", "b"],
                 ["-x", "f"],
                 ["--frob", "f"]):
        with pytest.raises(UsageError):
            parse_args(argv)


def test_main_usage_error_prints_usage(capsys):
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "no input files" in err
    assert USAGE in err


def test_main_unknown_style(tmp_path, capsys):
    f = tmp_path / "x.txt"
    f.write_text("plain")
    assert main([f"-style=klingon", str(f)]) == 2
    assert "unknown style 'klingon'" in capsys.readouterr().err


def test_main_unknown_style_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(UsageError):
        parse_args(["-style=klingon", "x.txt"])
    f = tmp_path / "x.txt"
    f.write_text("<? echo 'x'; !>")
    assert main(["-style=klingon", str(f)]) == 2
    known = ", ".join(sorted(STYLES))
    assert capsys.readouterr().err == (
        f"textforge: unknown style 'klingon' (known: {known})\n{USAGE}\n")
    assert f.read_text() == "<? echo 'x'; !>"


def test_main_escapes_line_breaks_in_the_usage_line(capsys):
    assert main(["-style=a\nb\r", "x.txt"]) == 2
    known = ", ".join(sorted(STYLES))
    assert capsys.readouterr().err == (
        f"textforge: unknown style 'a\\nb\\r' (known: {known})\n{USAGE}\n")


def test_the_console_script_prints_the_usage_without_arguments(monkeypatch,
                                                                capsys):
    # The `textforge` command an install makes, resolved without installing.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["textforge"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["textforge"])
    assert entry() == 2
    assert capsys.readouterr().err == f"textforge: no input files\n{USAGE}\n"


# --- end-to-end runs ----------------------------------------------------------

def test_main_updates_java_file(tmp_path):
    f = tmp_path / "simple.java"
    f.write_text(goldens.JAVA_PRISTINE)
    assert main([str(f)]) == 0
    assert f.read_text() == goldens.JAVA_UPDATED_TEST


def test_main_exit_zero_when_nothing_changes(tmp_path):
    f = tmp_path / "notes.txt"
    f.write_text("no snippets at all\n")
    assert main([str(f)]) == 0
    assert f.read_text() == "no snippets at all\n"


def test_main_style_override(tmp_path):
    f = tmp_path / "listing.txt"
    f.write_text("//<? echo 'j'; !>\n")
    assert main(["-style=java", str(f)]) == 0
    assert f.read_text() == "//<? echo 'j'; !>//+\nj//-\n\n"


def test_main_init_code_runs_fresh_for_each_file(tmp_path):
    sources = []
    for name in ("one.txt", "two.txt"):
        f = tmp_path / name
        f.write_text("<? $n = $n . 'x'; echo $n; !>")
        sources.append(f)
    assert main(["-e=$n = 'A';", str(sources[0]), str(sources[1])]) == 0
    for f in sources:
        assert f.read_text() == "<? $n = $n . 'x'; echo $n; !>#+\nAx#-\n"


def test_main_replace_writes_target_only(tmp_path):
    f = tmp_path / "doc.txt"
    out = tmp_path / "expanded.txt"
    f.write_text("v: <? echo 'x'; !>\n")
    assert main(["-replace", f"-o={out}", str(f)]) == 0
    assert f.read_text() == "v: <? echo 'x'; !>\n"
    assert out.read_text() == "v: x\n\n"


def test_main_refuses_an_output_path_that_is_the_input(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    source = "<? echo 'x'; !>\n"
    (tmp_path / "t.txt").write_text(source)
    (tmp_path / "l.txt").symlink_to("t.txt")
    before = os.stat("t.txt")
    for out in ("t.txt", "./t.txt", "l.txt"):
        assert main(["-replace", f"-o={out}", "t.txt"]) == 1
        assert capsys.readouterr().err == \
            f"t.txt:0:0: refusing to write '{out}': it is the input\n"
    after = os.stat("t.txt")
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert (tmp_path / "t.txt").read_text() == source
    assert sorted(os.listdir(tmp_path)) == ["l.txt", "t.txt"]


def test_main_keeps_crlf_line_endings(tmp_path):
    f = tmp_path / "t.txt"
    f.write_bytes(b'<? echo "a"; !>\r\n')
    assert main([str(f)]) == 0
    assert f.read_bytes() == b'<? echo "a"; !>#+\r\na#-\r\n\r\n'
    before = os.stat(f)
    assert main([str(f)]) == 0
    after = os.stat(f)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    out = tmp_path / "out.txt"
    assert main(["-replace", f"-o={out}", str(f)]) == 0
    assert out.read_bytes() == b"a\r\n\r\n"
    for other in (b'<? echo "a"; !>\r', b'<? echo "a"; !>\r\nx\n'):
        f.write_bytes(other)  # not all CRLF: byte for byte, with LF fences
        assert main([str(f)]) == 0
        assert f.read_bytes() == other.replace(b"!>", b"!>#+\na#-\n")


def test_main_passes_bytes_that_are_not_utf8_through(tmp_path):
    # Delimiters are matched as text; every other byte comes back as it was.
    f = tmp_path / "t.txt"
    f.write_bytes(b"\xff\xfe head <? echo 'x\xe9y'; !>\n tail \xc3\n")
    assert main([str(f)]) == 0
    updated = b"\xff\xfe head <? echo 'x\xe9y'; !>#+\nx\xe9y#-\n\n tail \xc3\n"
    assert f.read_bytes() == updated
    before = os.stat(f)
    assert main([str(f)]) == 0
    after = os.stat(f)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    out = tmp_path / "out.txt"
    assert main(["-replace", f"-o={out}", str(f)]) == 0
    assert out.read_bytes() == b"\xff\xfe head x\xe9y\n\n tail \xc3\n"
    assert f.read_bytes() == updated


def _run_cli(args, cwd):
    """Run the command in a child process that must end within 1 s; a read
    that blocks would otherwise hang the test run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(textforge.__file__)))
    return subprocess.run([sys.executable, "-m", "textforge.cli", *args],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=1)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_main_refuses_an_input_fifo(tmp_path):
    os.mkfifo(tmp_path / "ff")
    result = _run_cli(["ff"], tmp_path)
    assert (result.returncode, result.stderr) == \
        (1, "ff:0:0: refusing to read 'ff': not a regular file\n")
    assert stat.S_ISFIFO(os.stat(tmp_path / "ff").st_mode)
    assert os.listdir(tmp_path) == ["ff"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_main_refuses_a_fifo_output_path(tmp_path):
    os.mkfifo(tmp_path / "out")
    (tmp_path / "t.txt").write_text("<? echo 'x'; !>\n")
    result = _run_cli(["-replace", "-o=out", "t.txt"], tmp_path)
    assert (result.returncode, result.stderr) == \
        (1, "t.txt:0:0: refusing to read 'out': not a regular file\n")
    assert stat.S_ISFIFO(os.stat(tmp_path / "out").st_mode)
    assert sorted(os.listdir(tmp_path)) == ["out", "t.txt"]
    assert (tmp_path / "t.txt").read_text() == "<? echo 'x'; !>\n"


def test_main_refuses_a_directory(tmp_path, capsys):
    (tmp_path / "d").mkdir()
    assert main([str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == \
        f"{tmp_path / 'd'}:0:0: refusing to read '{tmp_path / 'd'}': " \
        "not a regular file\n"


def test_main_delimiter_and_regex_hooks_on_the_same_text_stay_apart(tmp_path):
    # Equal hooks share one scanner cache entry; these two must not.
    f = tmp_path / "t.txt"
    out = tmp_path / "out.txt"
    f.write_text("<? add_hook('ab', 'x'); add_regex_hook('ab', 'x'); !>\nab x\n")
    assert main(["-replace", f"-o={out}", str(f)]) == 0
    assert out.read_text() == "\nx x\n"


def test_main_keeps_going_after_a_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("x <? broken")
    good = tmp_path / "good.txt"
    good.write_text("<? echo 'ok'; !>")
    assert main([str(bad), str(good)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:1:3: " in err
    assert bad.read_text() == "x <? broken"
    assert good.read_text() == "<? echo 'ok'; !>#+\nok#-\n"


def _mixed_files(tmp_path):
    """Good files, and files that fail in every way a run can fail."""
    sources = {
        "good.txt": "<? echo 'ok', glob('*.py'); !>\n",
        "parse.txt": "<? echo 'a' 'b'; !>\n",
        "eval.txt": "<? echo $undefined; !>\n",
        "open.txt": "<? echo 1;\n",
        "loop.py": "# <? for $f in glob('*') { echo $f, '\\n'; } !>\n",
    }
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in sources] + [
        str(tmp_path / "missing.txt")]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_cyclic_collector_as_it_found_it(tmp_path, capsys,
                                                         enabled):
    files = _mixed_files(tmp_path)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(files) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    err = capsys.readouterr().err
    for name in ("parse.txt", "eval.txt", "open.txt", "missing.txt"):
        assert f"{tmp_path / name}:" in err


def test_main_leaves_no_reference_cycles_behind(tmp_path, capsys):
    files = _mixed_files(tmp_path)
    main(files)  # imports and caches settle on the first run
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert main(files) == 1
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    capsys.readouterr()


def test_main_reports_a_glob_pattern_with_a_slash(tmp_path, capsys):
    # glob() lists one directory; a pattern reaching into another would
    # match nothing there and pass unnoticed.
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "a.csv").write_text("")
    f = tmp_path / "t.txt"
    source = "csv:\n<? echo join(' ', glob('data/*.csv')); !>\n"
    f.write_text(source)
    assert main([str(f)]) == 1
    assert capsys.readouterr().err == (
        f"{f}:2:19: glob() pattern may not contain a path separator\n")
    assert f.read_text() == source


def _failing_for(real, path, errno, message):
    """`real`, except that it raises OSError(errno, message) for `path`."""
    def failing(name, *args, **kwargs):
        if os.fspath(name) == str(path):
            raise OSError(errno, message, str(path))
        return real(name, *args, **kwargs)
    return failing


# The tests run as root, where chmod denies nothing, so the OS errors below
# are injected.
def test_main_reports_an_os_error_in_a_builtin_at_its_call(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "listdir", _failing_for(
        os.listdir, tmp_path, 13, "Permission denied"))
    f = tmp_path / "t.txt"
    source = "files:\n<? echo join(' ', glob('*')); !>\n"
    f.write_text(source)
    assert main([str(f)]) == 1
    assert capsys.readouterr().err == (
        f"{f}:2:19: glob(): [Errno 13] Permission denied: '{tmp_path}'\n")
    assert f.read_text() == source

    monkeypatch.setattr(os, "stat", _failing_for(
        os.stat, f, 2, "No such file or directory"))
    f.write_text("<? echo file_modification_date(); !>")
    assert main([str(f)]) == 1
    assert capsys.readouterr().err == (
        f"{f}:1:9: file_modification_date(): [Errno 2] No such file or "
        f"directory: '{f}'\n")


def test_main_reports_an_unreadable_conf_at_the_read_starfish_conf_call(
        tmp_path, monkeypatch, capsys):
    conf = tmp_path / "starfish.conf"
    conf.write_text("$x = 1;\n")
    monkeypatch.setattr(core, "open", _failing_for(
        open, conf, 13, "Permission denied"), raising=False)
    f = tmp_path / "t.txt"
    f.write_text("a\n  <? read_starfish_conf(); echo $x; !>\n")
    assert main([str(f)]) == 1
    assert capsys.readouterr().err == (
        f"{f}:2:6: read_starfish_conf(): [Errno 13] Permission denied: "
        f"'{conf}'\n")


def test_main_reports_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main([str(missing)]) == 1
    assert f"{missing}:0:0: " in capsys.readouterr().err
    assert not missing.exists()


def test_main_reports_a_relative_file_without_a_working_directory(
        monkeypatch, capsys):
    # What a run sees once the directory it was started in is removed.
    def gone():
        raise FileNotFoundError(2, "No such file or directory")

    monkeypatch.setattr(os, "getcwd", gone)
    assert main(["f.txt"]) == 1
    err = capsys.readouterr().err
    assert err == "f.txt:0:0: [Errno 2] No such file or directory\n"
    assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_main_refuses_a_conf_swapped_for_a_fifo_at_the_call(
        tmp_path, monkeypatch, capsys):
    # The walk passes only regular files, so the conf is swapped for a FIFO
    # between the walk and the read. The refusal has no place of its own,
    # so it is placed at the read_starfish_conf() call, as an OS error is.
    conf = tmp_path / "starfish.conf"
    os.mkfifo(conf)
    monkeypatch.setattr(config, "find_conf_chain", lambda start: (str(conf),))
    f = tmp_path / "t.txt"
    f.write_text("a\n  <? read_starfish_conf(); !>\n")
    assert main([str(f)]) == 1
    assert capsys.readouterr().err == (
        f"{f}:2:6: refusing to read '{conf}': not a regular file\n")
    assert f.read_text() == "a\n  <? read_starfish_conf(); !>\n"


def test_main_writes_one_line_for_a_message_with_a_line_break(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    source = '<? set_style("a\\nb"); !>\n'
    (tmp_path / "nl.txt").write_text(source)
    assert main(["nl.txt"]) == 1
    known = ", ".join(sorted(STYLES))
    assert capsys.readouterr().err == (
        f"nl.txt:1:4: unknown style 'a\\nb' (known: {known})\n")
    assert (tmp_path / "nl.txt").read_text() == source


def test_main_writes_one_line_for_a_file_name_with_a_line_break(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["missing\nfile.txt"]) == 1
    assert capsys.readouterr().err == (
        "missing\\nfile.txt:0:0: [Errno 2] No such file or directory: "
        "'missing\\nfile.txt'\n")
    assert os.listdir(tmp_path) == []


def test_main_processes_a_file_named_twice_once(tmp_path, monkeypatch, capsys):
    # Under its second name glob('*') would list b/, and each run would
    # rewrite the file twice.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    f = tmp_path / "a" / "f.txt"
    f.write_text("<? echo join(' ', glob('*')); !>\n")
    (tmp_path / "b" / "l.txt").symlink_to(os.path.join(os.pardir, "a", "f.txt"))
    names = ["a/f.txt", "b/l.txt", "a/../a/f.txt"]
    assert main(names) == 0
    assert f.read_text() == "<? echo join(' ', glob('*')); !>#+\nf.txt#-\n\n"
    before = os.stat(f)
    assert main(names) == 0
    after = os.stat(f)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(tmp_path / "a")) == ["f.txt"]


def test_main_names_an_unwritable_output_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("<? echo 'x'; !>\n")
    assert main(["-replace", "-o=nodir/out.txt", "t.txt"]) == 1
    assert capsys.readouterr().err == \
        "t.txt:0:0: [Errno 2] No such file or directory: 'nodir/out.txt'\n"
    assert sorted(os.listdir(tmp_path)) == ["t.txt"]


def test_main_updates_through_a_symlink(tmp_path):
    target = tmp_path / "t.txt"
    target.write_text("<? echo 'x'; !>\n")
    (tmp_path / "links").mkdir()
    link = tmp_path / "links" / "link.txt"
    link.symlink_to(os.path.join(os.pardir, "t.txt"))
    assert main([str(link)]) == 0
    assert link.is_symlink()
    assert os.readlink(link) == os.path.join(os.pardir, "t.txt")
    assert target.read_text() == "<? echo 'x'; !>#+\nx#-\n\n"
    assert os.listdir(tmp_path / "links") == ["link.txt"]
    before = os.stat(target)
    assert main([str(link)]) == 0
    after = os.stat(target)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert link.is_symlink()


def test_main_refuses_to_replace_a_hardlinked_file(tmp_path, capsys):
    h1, h2 = tmp_path / "h1.txt", tmp_path / "h2.txt"
    h1.write_text("<? echo 'x'; !>\n")
    os.link(h1, h2)
    before = os.stat(h1)
    assert main([str(h1)]) == 1
    assert capsys.readouterr().err == \
        f"{h1}:0:0: refusing to replace '{h1}': it has 2 hard links\n"
    for name in (h1, h2):
        after = os.stat(name)
        assert (after.st_ino, after.st_nlink, after.st_mtime_ns) == \
            (before.st_ino, 2, before.st_mtime_ns)
        assert name.read_text() == "<? echo 'x'; !>\n"
    assert sorted(os.listdir(tmp_path)) == ["h1.txt", "h2.txt"]
    h1.write_text("<? echo 'x'; !>#+\nx#-\n\n")  # up to date: nothing to write
    assert main([str(h1)]) == 0
    assert os.stat(h2).st_nlink == 2


def test_main_nested_read_starfish_conf_is_a_no_op(tmp_path, capsys):
    (tmp_path / "starfish.conf").write_text(
        "$a = 'A'; read_starfish_conf(); $b = $a . 'B';")
    f = tmp_path / "doc.txt"
    f.write_text("<? read_starfish_conf(); echo $a, $b; !>\n")
    assert main([str(f)]) == 0
    assert capsys.readouterr().err == ""
    assert f.read_text() == "<? read_starfish_conf(); echo $a, $b; !>#+\nAAB#-\n\n"


def test_main_reports_scriptlet_error_position(tmp_path, capsys):
    f = tmp_path / "f.java"
    f.write_text("line1\n  //<? $x = $nope; !>\n")
    assert main([str(f)]) == 1
    assert f"{f}:2:13: undefined variable $nope" in capsys.readouterr().err


def test_main_rejects_a_fence_b2_starting_with_a_digit(tmp_path, capsys):
    # Read as the fence number, the "1" would hide the block from every
    # rerun, and each run would add one more.
    f = tmp_path / "t.txt"
    source = "x\n<? set_out_delimiters('<', '1>', '</', '2>'); !>\n<? echo 'a'; !>\n"
    f.write_text(source)
    assert main([str(f)]) == 1
    assert capsys.readouterr().err == \
        f"{f}:2:4: set_out_delimiters() b2 may not start with a digit\n"
    assert f.read_text() == source


def test_main_is_idempotent_when_the_end_marker_overlaps_itself(tmp_path):
    # Output "xa" and end marker "aa" overlap: the first "aa" after the
    # begin marker starts inside the output, so the plain fence would end
    # the block one character early and each run would add one more "a".
    f = tmp_path / "t.txt"
    f.write_text("<? set_out_delimiters('<', '>', 'a', 'a'); !>\n<? echo 'xa'; !>")
    runs = []
    for _ in range(3):
        assert main([str(f)]) == 0
        runs.append(f.read_bytes())
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].endswith(b"!><1>xaa1a")


def test_main_reports_deep_nesting_without_a_traceback(tmp_path, capsys):
    f = tmp_path / "deep.txt"
    source = "x\n<? echo " + "(" * 3000 + "'a'" + ")" * 3000 + "; !>\n"
    f.write_text(source)
    assert main([str(f)]) == 1
    assert capsys.readouterr().err == f"{f}:2:109: nesting deeper than 100 levels\n"
    assert f.read_text() == source


def test_main_reports_bad_integer_literals(tmp_path, capsys):
    f = tmp_path / "ints.txt"
    for literal, message in (("\u00b2", "unexpected character '\u00b2'"),
                             ("9" * 5000, "integer literal too long (5000 digits)")):
        source = f"x\n<? echo {literal}; !>\n"
        f.write_text(source)
        assert main([str(f)]) == 1
        assert capsys.readouterr().err == f"{f}:2:9: {message}\n"
        assert f.read_text() == source


def test_main_stops_runaway_loops_and_strings(tmp_path, capsys):
    for k in range(20):
        (tmp_path / f"d{k:02d}.dat").write_text("")
    nested = ("<? " + "if (1) { for $x in glob('*') { " * 49 + "echo $x;"
              + " } }" * 49 + " !>\n")
    doubling = ("<? echo 'ab'; for $f in glob('*') {"
                " for $g in glob('*') { $O = $O . $O; } } !>\n")
    for name, source, message in (
            ("nested.txt", nested, "more than 1000000 loop iterations"),
            ("doubling.txt", doubling, "string longer than 67108864 characters")):
        f = tmp_path / name
        f.write_text(source)
        start = time.monotonic()
        assert main([str(f)]) == 1
        assert time.monotonic() - start < 10
        err = capsys.readouterr().err
        assert re.fullmatch(re.escape(f"{f}:1:") + r"\d+: " + re.escape(message) + "\n",
                            err)
        assert f.read_text() == source


# --- the compute step: concurrent edits and the deadline -----------------------

def _edit_mid_run(monkeypatch, edit):
    """Make `edit()` run once, as the first snippet starts."""
    run = rewriter.eval_program
    edits = [edit]

    def eval_program(program, state):
        while edits:
            edits.pop()()
        return run(program, state)

    monkeypatch.setattr(rewriter, "eval_program", eval_program)


@pytest.mark.parametrize("target, before, edit, after", [
    ("t.txt", None, lambda p: p.write_text(p.read_text() + "USER EDIT\n"),
     "<? echo 'x'; !>\nUSER EDIT\n"),
    ("out.txt", "old\n", lambda p: p.write_text("USER EDIT\n"), "USER EDIT\n"),
    ("out.txt", None, lambda p: p.write_text("USER EDIT\n"), "USER EDIT\n"),
    ("out.txt", "old\n", lambda p: p.unlink(), None),
], ids=["update", "replace-changed", "replace-appeared", "replace-gone"])
def test_main_keeps_an_edit_made_while_it_runs(tmp_path, monkeypatch, capsys,
                                               target, before, edit, after):
    monkeypatch.chdir(tmp_path)
    source = "<? echo 'x'; !>\n"
    (tmp_path / "t.txt").write_text(source)
    args = ["t.txt"] if target == "t.txt" else ["-replace", f"-o={target}", "t.txt"]
    if before is not None:
        (tmp_path / target).write_text(before)
    _edit_mid_run(monkeypatch, lambda: edit(tmp_path / target))
    assert main(args) == 1
    assert capsys.readouterr().err == \
        f"t.txt:0:0: '{target}' changed while textforge ran; not written\n"
    if after is None:
        assert not (tmp_path / target).exists()
    else:
        assert (tmp_path / target).read_text() == after
    if target != "t.txt":
        assert (tmp_path / "t.txt").read_text() == source
    assert not [n for n in os.listdir(tmp_path) if n.startswith(".textforge-")]


def test_main_keeps_an_edit_made_while_the_file_is_read(tmp_path, monkeypatch,
                                                        capsys):
    # The edit lands before read() returns, so only a stat taken before the
    # read sees it.
    monkeypatch.chdir(tmp_path)
    source = "<? echo 'a'; !>\n"
    (tmp_path / "t.txt").write_text(source)

    def open_and_edit(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        read = fh.read

        def read_then_edit(*read_args):
            data = read(*read_args)
            with open(file, "a") as other:
                other.write("edit made during the read\n")
            return data

        fh.read = read_then_edit
        return fh

    monkeypatch.setattr(core, "open", open_and_edit, raising=False)
    assert main(["t.txt"]) == 1
    assert capsys.readouterr().err == \
        "t.txt:0:0: 't.txt' changed while textforge ran; not written\n"
    assert (tmp_path / "t.txt").read_text() == \
        source + "edit made during the read\n"
    assert os.listdir(tmp_path) == ["t.txt"]


def _no_alarm():
    """Whether no deadline is left behind: the timer is off and SIGALRM has
    its default handler."""
    return (signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            and signal.getsignal(signal.SIGALRM) == signal.SIG_DFL)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no setitimer")
def test_main_stops_a_regex_hook_that_backtracks_past_the_deadline(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scriptlet, "MAX_SECONDS", 0.3)
    monkeypatch.chdir(tmp_path)
    snippet = "<? add_regex_hook('(a|aa)*b', 'x'); echo 'hi'; !>"
    source = f"{snippet}\n{'a' * 40}\n"
    (tmp_path / "r.txt").write_text(source)
    start = time.monotonic()
    assert main(["r.txt"]) == 1
    assert time.monotonic() - start < 1.3
    # The scan had resumed right after the snippet.
    assert capsys.readouterr().err == (f"r.txt:1:{len(snippet) + 1}: time "
                                       "limit exceeded: the file took more "
                                       "than 0.3 s\n")
    assert (tmp_path / "r.txt").read_text() == source
    assert os.listdir(tmp_path) == ["r.txt"]
    assert _no_alarm()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no setitimer")
def test_main_stops_a_runaway_loop_past_the_deadline(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(scriptlet, "MAX_SECONDS", 0.3)
    monkeypatch.setattr(scriptlet, "MAX_LOOP_ITERATIONS", 10**12)
    monkeypatch.chdir(tmp_path)
    for k in range(10):
        (tmp_path / f"d{k}.dat").write_text("")
    source = ("x <? " + "for $x in glob('*') { " * 12 + "echo $x;" + " }" * 12
              + " !>\n")
    (tmp_path / "t.txt").write_text(source)
    start = time.monotonic()
    assert main(["t.txt"]) == 1
    assert time.monotonic() - start < 1.3
    assert re.fullmatch(r"t\.txt:1:\d+: time limit exceeded: the file took "
                        r"more than 0\.3 s\n", capsys.readouterr().err)
    assert (tmp_path / "t.txt").read_text() == source
    assert len(os.listdir(tmp_path)) == 11
    assert _no_alarm()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no setitimer")
def test_main_disarms_the_deadline_before_it_writes(tmp_path, monkeypatch):
    # A write slower than the limit still completes: only code runs under it.
    monkeypatch.setattr(scriptlet, "MAX_SECONDS", 0.2)
    replace = os.replace

    def slow_replace(src, dst):
        time.sleep(0.5)
        replace(src, dst)

    monkeypatch.setattr(rewriter.os, "replace", slow_replace)
    f = tmp_path / "t.txt"
    f.write_text("<? echo 'x'; !>\n")
    assert main([str(f)]) == 0
    assert f.read_text() == "<? echo 'x'; !>#+\nx#-\n\n"
    assert _no_alarm()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no setitimer")
def test_main_runs_without_a_deadline_it_cannot_own(tmp_path):
    timed, threaded = tmp_path / "timed.txt", tmp_path / "threaded.txt"
    for f in (timed, threaded):
        f.write_text("<? echo 'x'; !>\n")
    fired = []

    def handler(signum, frame):
        fired.append(signum)

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, 100)
    try:  # another part of the process owns the timer
        assert main([str(timed)]) == 0
        assert signal.getitimer(signal.ITIMER_REAL)[0] > 90
        assert signal.getsignal(signal.SIGALRM) is handler
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert fired == []
    result = []
    worker = threading.Thread(target=lambda: result.append(main([str(threaded)])))
    worker.start()  # off the main thread, where no handler can be set
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert result == [0]
    for f in (timed, threaded):
        assert f.read_text() == "<? echo 'x'; !>#+\nx#-\n\n"


# --- start-up cost ------------------------------------------------------------

def test_importing_the_cli_loads_no_heavy_stdlib_modules():
    # Each of these costs milliseconds on every call of the command.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import textforge.cli; "
            "print(*sys.modules)")
    loaded = subprocess.run([sys.executable, "-S", "-c", code, src],
                            capture_output=True, text=True, check=True).stdout.split()
    assert "textforge.cli" in loaded
    assert {"dataclasses", "inspect", "datetime", "typing",
            "tempfile"} & set(loaded) == set()
