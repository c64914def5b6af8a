"""End-to-end acceptance checks over the showcase fixtures.

Each test prints one `[ n] PASS/FAIL <description>` line on the real terminal
(bypassing capture) so a full run doubles as a checklist.
"""
import os
import random
from contextlib import contextmanager
from datetime import datetime

import pytest

import goldens
from helpers import concat_segments, make_state
from textforge.cli import main
from textforge.core import OutDelims, ParseError
from textforge.rewriter import choose_infix, process_file, write_if_changed
from textforge.scanner import detect_output_block, iter_segments
from textforge.styles import STYLES

JAVA_DELIMS = OutDelims("//", "+\n", "//", "-\n")


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(num, description):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"[{num:2d}] {'PASS' if ok else 'FAIL'} {description}")
    return _report


def _block_between(text, begin, end):
    assert begin in text, f"missing {begin!r}"
    after = text.split(begin, 1)[1]
    assert end in after, f"missing {end!r}"
    return after.split(end, 1)[0]


def test_criterion_01_first_update_appends_test_block(report, tmp_path):
    with report(1, "pristine java update appends the Test println block, byte-exact"):
        f = tmp_path / "simple.java"
        f.write_text(goldens.JAVA_PRISTINE)
        assert main([str(f)]) == 0
        updated = f.read_text()
        assert updated == goldens.JAVA_UPDATED_TEST
        assert ('//!>//+\n    System.out.println("Test version");//-\n'
                in updated)


def test_criterion_02_toggle_regenerates_release_output(report, tmp_path):
    with report(2, "toggled version lines regenerate Release output; nothing else moves"):
        toggled = (goldens.JAVA_UPDATED_TEST
                   .replace("//<?   $Version = 'Test';    !>",
                            "//<? # $Version = 'Test';    !>")
                   .replace("//<? # $Version = 'Release'; !>",
                            "//<?   $Version = 'Release'; !>"))
        assert toggled == goldens.JAVA_TOGGLED
        f = tmp_path / "simple.java"
        f.write_text(toggled)
        assert main([str(f)]) == 0
        updated = f.read_text()
        assert updated == goldens.JAVA_UPDATED_RELEASE
        # the only changed line is the generated one inside the output block
        diff = [(a, b) for a, b in zip(toggled.split("\n"), updated.split("\n"))
                if a != b]
        assert diff == [('    System.out.println("Test version");//-',
                         '    System.out.println("Release version");//-')]


def test_criterion_03_update_is_idempotent_and_mtime_safe(report, tmp_path):
    with report(3, "second update changes zero bytes and leaves mtime untouched"):
        f = tmp_path / "simple.java"
        f.write_text(goldens.JAVA_PRISTINE)
        process_file(str(f), STYLES["java"])
        assert f.read_text() == goldens.JAVA_UPDATED_TEST
        past = 1_500_000_000
        os.utime(f, (past, past))
        assert process_file(str(f), STYLES["java"]) is False
        assert f.read_text() == goldens.JAVA_UPDATED_TEST
        assert os.stat(f).st_mtime_ns == past * 10**9
        assert write_if_changed(str(f), goldens.JAVA_UPDATED_TEST,
                                f.read_bytes(), os.stat(f)) is False


def test_criterion_04_replace_yields_bare_release_source(report, tmp_path):
    with report(4, "replace on the Release-configured file emits plain source"):
        f = tmp_path / "simple.java"
        out = tmp_path / "release.java"
        f.write_text(goldens.JAVA_UPDATED_RELEASE)
        assert main(["-replace", f"-o={out}", str(f)]) == 0
        replaced = out.read_text()
        assert replaced == goldens.JAVA_REPLACED_RELEASE
        # deliberate deviation: the generated line keeps the snippet's own
        # 4-space indentation rather than deepening to 8 spaces
        assert '\n    System.out.println("Release version");\n' in replaced
        assert '        System.out.println' not in replaced
        assert f.read_text() == goldens.JAVA_UPDATED_RELEASE  # input untouched


def test_criterion_05_makefile_generates_rules(report, tmp_path):
    with report(5, "makefile update lists all/compile rules between #+ and #-"):
        for name in ("A.java", "B.java", "C.java"):
            (tmp_path / name).write_text("class X {}\n")
        mk = tmp_path / "Makefile"
        mk.write_text(goldens.MAKEFILE_PRISTINE)
        assert main([str(mk)]) == 0
        updated = mk.read_text()
        assert updated == goldens.MAKEFILE_UPDATED
        assert _block_between(updated, "#!>#+\n", "#-\n") == (
            "all: A.java B.java C.java\n"
            "A.class: A.java; javac A.java\n"
            "B.class: B.java; javac B.java\n"
            "C.class: C.java; javac C.java\n")


def test_criterion_06_html_blog_header_and_quoting(report, tmp_path):
    with report(6, "html blog gains conf-built header and htmlquoted source"):
        blog = tmp_path / "blogexample.html"
        blog.write_text(goldens.BLOG_PRISTINE)
        (tmp_path / "starfish.conf").write_text(goldens.BLOG_CONF)
        when = datetime(2020, 7, 4, 12, 0).timestamp()
        os.utime(blog, (when, when))
        assert main([str(blog)]) == 0
        updated = blog.read_text()
        assert updated == goldens.BLOG_UPDATED
        header = _block_between(updated, "<!-- + -->", "<!-- - -->")
        assert header == ("<html><title>My sample blog</title><body>\n"
                          "Blog created: July 4, 2020<br>\n"
                          "Last update: July 4, 2020\n"
                          "<h1>My sample blog</h1>\n")
        assert "Test &amp; Release" in updated
        assert "//&lt;?   $Version = 'Test';    !>" in updated
        assert "//&lt;? # $Version = 'Release'; !>" in updated


def test_criterion_07_collision_numbering_round_trips(report):
    with report(7, "500 collision-seeded outputs re-parse exactly from their blocks"):
        rng = random.Random(20200704)
        pieces = ["//-", "//+", "//1-", "//2+", "//12-", "x", "0", "\n",
                  "a//-", "-", "/", "//"]
        for _ in range(500):
            out = "".join(rng.choice(pieces)
                          for _ in range(rng.randint(0, 10)))
            out += rng.choice(["//-", "//+"])  # guarantee a plain marker clash
            infix = choose_infix(out, JAVA_DELIMS)
            assert infix != ""
            begin = JAVA_DELIMS.b1 + infix + JAVA_DELIMS.b2
            end = JAVA_DELIMS.e1 + infix + JAVA_DELIMS.e2
            assert begin.rstrip("\n") not in out
            assert end.rstrip("\n") not in out
            block = begin + out + end
            found = detect_output_block(block, 0, JAVA_DELIMS)
            assert found is not None
            assert found == block  # so its inner text and infix are too


def test_criterion_08_segmentation_is_lossless(report):
    with report(8, "1000 randomized delimiter-rich inputs reassemble byte-exact"):
        rng = random.Random(8)
        alphabet = "a<?!>/\n"
        for _ in range(1000):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 60)))
            for _ in range(80):
                state = make_state(path="doc.java", style="java")
                try:
                    segs = list(iter_segments(text, state))
                    break
                except ParseError:
                    text += "!>"  # close the dangling snippet and rescan
            else:
                raise AssertionError(f"unterminable input: {text!r}")
            assert concat_segments(segs) == text


def test_criterion_09_replace_commutes_with_update(report, tmp_path):
    with report(9, "replace(update(x)) equals replace(x) for java and makefile"):
        def setup(d, name, content):
            d.mkdir()
            f = d / name
            f.write_text(content)
            if name == "Makefile":
                for j in ("A.java", "B.java", "C.java"):
                    (d / j).write_text("")
            return f

        for name, content in (("simple.java", goldens.JAVA_PRISTINE),
                              ("Makefile", goldens.MAKEFILE_PRISTINE)):
            via = setup(tmp_path / f"via-update-{name}", name, content)
            assert main([str(via)]) == 0  # update first
            out_a = via.parent / "expanded.out"
            assert main(["-replace", f"-o={out_a}", str(via)]) == 0

            direct = setup(tmp_path / f"direct-{name}", name, content)
            out_b = direct.parent / "expanded.out"
            assert main(["-replace", f"-o={out_b}", str(direct)]) == 0

            assert out_a.read_bytes() == out_b.read_bytes()


def test_criterion_10_conf_hierarchy(report, tmp_path):
    with report(10, "conf chain runs top-down, stops at gaps, loads once"):
        def write(path, text):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

        # top-down order, deeper-sees-then-overrides
        write(tmp_path / "t1" / "a" / "starfish.conf",
              "$x = 'p'; $v = 'top';")
        write(tmp_path / "t1" / "a" / "b" / "starfish.conf",
              "$x = $x . 'c'; $v = 'deep'; $z = 'child';")
        probe = tmp_path / "t1" / "a" / "b" / "probe.txt"
        write(probe, "<? read_starfish_conf(); echo $x, '|', $v, '|', $z; !>")
        assert main([str(probe)]) == 0
        assert _block_between(probe.read_text(), "#+\n", "#-\n") == \
            "pc|deep|child"

        # a directory without a conf ends the upward walk
        write(tmp_path / "t2" / "a" / "starfish.conf", "$g = 'set';")
        (tmp_path / "t2" / "a" / "b").mkdir()
        write(tmp_path / "t2" / "a" / "b" / "c" / "starfish.conf",
              "$y = 'leaf';")
        ok = tmp_path / "t2" / "a" / "b" / "c" / "ok.txt"
        write(ok, "<? read_starfish_conf(); echo $y; !>")
        assert main([str(ok)]) == 0
        assert _block_between(ok.read_text(), "#+\n", "#-\n") == "leaf"
        orphan = tmp_path / "t2" / "a" / "b" / "c" / "orphan.txt"
        orphan_src = "<? read_starfish_conf(); echo $g; !>"
        write(orphan, orphan_src)
        assert main([str(orphan)]) == 1  # $g lives above the gap: undefined
        assert orphan.read_text() == orphan_src

        # a second read_starfish_conf() in the same file is a no-op
        once = tmp_path / "t1" / "a" / "b" / "once.txt"
        write(once, "<? read_starfish_conf(); $x = $x . '!';\n"
                    "read_starfish_conf(); echo $x; !>")
        assert main([str(once)]) == 0
        assert _block_between(once.read_text(), "#+\n", "#-\n") == "pc!"
