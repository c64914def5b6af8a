import gc
import os
import re
import subprocess
import sys
import time

import pytest

import goldens
from textforge.cli import USAGE, main, parse_args
from textforge.core import UsageError


# --- argument parsing -------------------------------------------------------

def test_parse_plain_update():
    opts = parse_args(["simple.java"])
    assert opts.files == ["simple.java"]
    assert opts.out_path is None
    assert opts.init_code is None
    assert opts.style_override is None


def test_parse_replace_with_output():
    opts = parse_args(["-replace", "-o=release/simple.java", "simple.java"])
    assert opts.out_path == "release/simple.java"
    assert opts.files == ["simple.java"]


def test_parse_init_code_and_style():
    opts = parse_args(["-e=$Version = 'Release';", "-style=java", "Makefile"])
    assert opts.init_code == "$Version = 'Release';"
    assert opts.style_override == "java"


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


def test_main_reports_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main([str(missing)]) == 1
    assert f"{missing}:0:0: " in capsys.readouterr().err
    assert not missing.exists()


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
