from hypothesis import given, strategies as st

from textforge.core import BeginEnd, OutDelims
from textforge.styles import STYLES, detect_style


def test_registry_has_exactly_the_builtin_styles():
    assert sorted(STYLES) == \
        ["default", "html", "java", "makefile", "perl", "python"]


def test_default_style():
    s = STYLES["default"]
    assert s.hooks == (BeginEnd("#<?", "!>"), BeginEnd("<?", "!>"))
    assert s.line_comment == "#"
    assert s.out_delims == OutDelims("#", "+\n", "#", "-\n")
    assert s.indent_adjust is False
    assert s.extensions == ()


def test_makefile_and_python_adjust_indentation():
    for name in ("makefile", "python"):
        s = STYLES[name]
        assert s.indent_adjust is True
        assert s.hooks == (BeginEnd("#<?", "!>"), BeginEnd("<?", "!>"))
    assert STYLES["makefile"].extensions == ("Makefile", "makefile", ".mk")
    assert STYLES["python"].extensions == (".py",)
    assert STYLES["perl"].indent_adjust is False
    assert STYLES["perl"].extensions == (".pl", ".pm")


def test_java_style():
    s = STYLES["java"]
    assert s.hooks == (BeginEnd("//<?", "!>"), BeginEnd("<?", "!>"))
    assert s.line_comment == "//"
    assert s.out_delims == OutDelims("//", "+\n", "//", "-\n")
    assert s.extensions == (".java",)


def test_html_style():
    s = STYLES["html"]
    assert s.hooks == (BeginEnd("<!--<?", "!>-->"), BeginEnd("<?", "!>"))
    assert s.line_comment is None
    assert s.out_delims == OutDelims("<!-- +", " -->", "<!-- -", " -->")
    assert s.extensions == (".html", ".htm")


def test_comment_hook_always_precedes_bare_hook():
    # leftmost matching then swallows the comment prefix along with the snippet
    for style in STYLES.values():
        first, second = style.hooks[0], style.hooks[1]
        assert first.begin != second.begin
        assert first.begin.endswith(second.begin)


def test_detect_style_by_suffix_and_basename():
    assert detect_style("simple.java").name == "java"
    assert detect_style("/a/b/Makefile").name == "makefile"
    assert detect_style("makefile").name == "makefile"
    assert detect_style("build.mk").name == "makefile"
    assert detect_style("x.py").name == "python"
    assert detect_style("x.pl").name == "perl"
    assert detect_style("x.pm").name == "perl"
    assert detect_style("blog.html").name == "html"
    assert detect_style("blog.htm").name == "html"


def test_detect_style_falls_back_to_default():
    assert detect_style("notes.xyz").name == "default"
    assert detect_style("x.HTML").name == "default"  # case-sensitive
    assert detect_style("no_extension").name == "default"


def _oracle_style(path):
    """The README rule by brute force: exact basename, then the longest
    suffix that some style lists, then default."""
    base = path.rsplit("/", 1)[-1]
    for style in STYLES.values():
        if base in style.extensions and not base.startswith("."):
            return style.name
    for start in range(len(base)):
        suffix = base[start:]
        for style in STYLES.values():
            if suffix.startswith(".") and suffix in style.extensions:
                return style.name
    return "default"


_NAME_FRAGMENTS = ("Makefile", "makefile", ".mk", ".py", ".pl", ".pm", ".java",
                   ".html", ".htm", ".HTML", "x", ".", "/")


@given(st.lists(st.sampled_from(_NAME_FRAGMENTS), max_size=6))
def test_detect_style_matches_the_readme_rule(fragments):
    path = "".join(fragments)
    assert detect_style(path).name == _oracle_style(path)


def test_registry_add_and_get():
    assert STYLES.get("nope") is None
    for name, style in STYLES.items():
        assert style.name == name
