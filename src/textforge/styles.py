"""Built-in styles and file-type detection.

Every style lists its comment-prefixed hook before the bare hook so that, in
replace mode, the comment marker in front of a snippet disappears together
with the snippet.
"""
from __future__ import annotations

import os

from .core import BeginEnd, OutDelims, Style

_HASH_HOOKS = (BeginEnd("#<?", "!>"), BeginEnd("<?", "!>"))
_HASH_DELIMS = OutDelims("#", "+\n", "#", "-\n")

# Name -> built-in style.
STYLES: dict[str, Style] = {style.name: style for style in (
    Style(
        name="default",
        hooks=_HASH_HOOKS,
        line_comment="#",
        out_delims=_HASH_DELIMS,
    ),
    Style(
        name="makefile",
        hooks=_HASH_HOOKS,
        line_comment="#",
        out_delims=_HASH_DELIMS,
        indent_adjust=True,
        extensions=("Makefile", "makefile", ".mk"),
    ),
    Style(
        name="python",
        hooks=_HASH_HOOKS,
        line_comment="#",
        out_delims=_HASH_DELIMS,
        indent_adjust=True,
        extensions=(".py",),
    ),
    Style(
        name="perl",
        hooks=_HASH_HOOKS,
        line_comment="#",
        out_delims=_HASH_DELIMS,
        extensions=(".pl", ".pm"),
    ),
    Style(
        name="java",
        hooks=(BeginEnd("//<?", "!>"), BeginEnd("<?", "!>")),
        line_comment="//",
        out_delims=OutDelims("//", "+\n", "//", "-\n"),
        extensions=(".java",),
    ),
    Style(
        name="html",
        hooks=(BeginEnd("<!--<?", "!>-->"), BeginEnd("<?", "!>")),
        line_comment=None,
        out_delims=OutDelims("<!-- +", " -->", "<!-- -", " -->"),
        extensions=(".html", ".htm"),
    ),
)}


# Exact base name or "."-suffix -> the style that lists it. No suffix holds
# a second ".", so the longest matching suffix is the one from the last ".".
_BY_NAME = {ext: style for style in STYLES.values() for ext in style.extensions}


def detect_style(path: str) -> Style:
    """Pick a style for `path`: exact basename first, then the longest
    matching suffix, else `default`."""
    base = os.path.basename(path)
    _, dot, suffix = base.rpartition(".")  # all of `base` if it has no "."
    return (_BY_NAME.get(base) or _BY_NAME.get(dot + suffix)
            or STYLES["default"])
