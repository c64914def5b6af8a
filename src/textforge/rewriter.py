"""Processing one file: `process_file` renders its segments, each as soon
as it is evaluated, and writes the result.

Update keeps every snippet in place and appends its output directly after
the end delimiter, wrapped in output markers whose shared digit infix is
chosen so neither marker collides with the output text. Replace drops the
snippet markup (including the line's leading whitespace when the snippet
starts its line) and keeps only the bare output.
"""
from __future__ import annotations

import os
import re
import stat

from .core import EngineError, EngineState, OutDelims, Style
from .scanner import Outer, Snippet, iter_segments
from .scriptlet import eval_program, parse_scriptlet


def strip_line_comments(code: str, line_comment: str | None) -> tuple[str, list[int]]:
    """Strip the style's line-comment prefix from commented snippet lines.

    A line whose first non-whitespace characters equal `line_comment` loses
    the comment string and the whitespace before it; everything after stays,
    so multi-line scriptlets written inside host-language comments parse as
    one program. Also returns, per line, how many characters were removed
    from its start, so error positions map back to the file.
    """
    if not line_comment:
        return code, []
    out = []
    removed = []
    for line in code.split("\n"):
        body = line.lstrip(" \t")
        if body.startswith(line_comment):
            out.append(body[len(line_comment):])
            removed.append(len(line) - len(body) + len(line_comment))
        else:
            out.append(line)
            removed.append(0)
    return "\n".join(out), removed


def choose_infix(output: str, delims: OutDelims) -> str:
    """Smallest digit infix whose markers cannot be mistaken for output text.

    Markers are compared without their trailing newlines, so an output line
    that merely *ends* like a marker still forces a numbered infix. The end
    marker also clashes when it overlaps itself across the output's tail:
    the scanner takes the first end marker after the begin marker, which
    must be the one appended after the output.
    """
    marker = delims.end("")
    if not (delims.begin("").rstrip("\n") in output
            or marker.rstrip("\n") in output) and _clears_tail(output, marker):
        return ""
    # Numbered infixes of up to `width` digits are looked up among those
    # found in one scan of the output per marker shape. Passing them all
    # takes 10**width - 1 clashes, more than the output holds markers; a
    # longer infix is checked against the output itself.
    width = len(str(len(output))) + 1
    taken = (_digits_between(output, delims.b1, delims.b2.rstrip("\n"), width)
             | _digits_between(output, delims.e1, delims.e2.rstrip("\n"), width))
    n = 1
    while True:
        infix = str(n)
        marker = delims.end(infix)
        if len(infix) <= width:
            clash = infix in taken
        else:
            clash = (delims.begin(infix).rstrip("\n") in output
                     or marker.rstrip("\n") in output)
        if not clash and _clears_tail(output, marker):
            return infix
        n += 1


def _clears_tail(output: str, marker: str) -> bool:
    """Whether `marker` appended to `output` is first found there; only one
    starting in the output's last len(marker) - 1 characters can overlap."""
    tail = output[max(0, len(output) - len(marker) + 1):]
    return (tail + marker).find(marker) == len(tail)


def _digits_between(output: str, prefix: str, suffix: str,
                    width: int) -> set[str]:
    """Every run of 1 to `width` ASCII digits that occurs in `output` right
    after `prefix` and right before `suffix`."""
    found = set()
    at = output.find(prefix)
    while at >= 0:
        start = stop = at + len(prefix)
        end = min(start + width, len(output))
        while stop < end and "0" <= output[stop] <= "9":
            stop += 1
            if output.startswith(suffix, stop):
                found.add(output[start:stop])
        at = output.find(prefix, at + 1)
    return found


def indent_output(output: str, indent: str) -> str:
    """Prefix `indent` to every non-empty line of `output`."""
    if not indent:
        return output
    return "\n".join(indent + line if line else line
                     for line in output.split("\n"))


_CAPTURE_REF = re.compile(r"\$([1-9])")


def _substitute_template(parts: list[str], captures: tuple[str, ...]) -> str:
    """A regex hook's template, split by `_CAPTURE_REF` into `parts`, with
    each `$N` replaced by capture N ("" past the last capture)."""
    out = parts[:]
    for k in range(1, len(parts), 2):
        i = int(parts[k]) - 1
        out[k] = captures[i] if i < len(captures) else ""
    return "".join(out)


def _eval_snippet(seg: Snippet, state: EngineState) -> str:
    """Run one snippet. An error's offset into the stripped code becomes its
    offset into the scanned text; one without an offset points at the start
    of the code, and one from a conf is left alone."""
    prepared, removed = strip_line_comments(seg.code, state.line_comment)
    try:
        return eval_program(parse_scriptlet(prepared), state)
    except EngineError as exc:
        if exc.file is None:
            at = exc.at or 0
            line = prepared.count("\n", 0, at)
            exc.at = seg.code_offset + at + sum(removed[:line + 1])
        raise


def _render_snippet(parts: list[str], seg: Snippet, out: str,
                    replace: bool) -> None:
    """Append one evaluated snippet to `parts`.

    Update mode keeps the snippet verbatim and appends a fresh output block
    (nothing for empty output); the stale block it was scanned with is
    dropped. Replace mode drops the markup and keeps the bare output. There,
    a snippet that starts its line (after whitespace only) takes that
    whitespace with it, and output followed by a newline-terminated end
    marker in update mode keeps a terminating newline, so both modes agree
    on line structure.
    """
    if seg.indent_adjust and seg.indent:
        out = indent_output(out, seg.indent)
    delims = seg.out_delims
    if not replace:
        parts.append(seg.raw)
        if out:
            infix = choose_infix(out, delims)
            parts.append(delims.begin(infix) + out + delims.end(infix))
        return
    if (seg.starts_line and seg.indent
            and parts and parts[-1].endswith(seg.indent)):
        parts[-1] = parts[-1][:-len(seg.indent)]
    if out and delims.e2.endswith("\n") and not out.endswith("\n"):
        out += "\n"
    parts.append(out)


def process_file(path: str, style: Style, *, out_path: str | None = None,
                 init_code: str | None = None) -> bool:
    """Process one file with `style`: read it, run `init_code` if given,
    evaluate and render each segment in document order, and write the
    result. Each call starts from a fresh `EngineState`. Returns whether a
    file was written.

    Without `out_path` the file is updated in place (written only when its
    bytes change) and regex-hook matches stay as they are. With `out_path`
    it is replaced: the output goes there, each regex-hook match becomes
    its template, and the input is never touched; an `out_path` that is
    the input itself, by any name, is refused. A file whose every newline
    is CRLF is processed with LF and written with CRLF; any other file is
    processed byte for byte. Every `EngineError` it raises is located at
    `path`: its offset is read against the text as processed, or against
    `init_code` for an error there. One from a conf keeps the conf's name.
    """
    state = EngineState(path, style)
    replace = out_path is not None
    source = ""  # what the offset of an error points into
    try:
        with open(path, "rb") as fh:
            data = fh.read()
            st = os.fstat(fh.fileno())
        if (replace and os.path.exists(out_path)
                and os.path.samefile(out_path, path)):
            raise EngineError(f"refusing to write '{out_path}': it is the input")
        text = data.decode("utf-8", "surrogateescape")
        # A one-character search is cheap; counting is not, so it comes last.
        crlf = "\r" in text and 0 < text.count("\r\n") == text.count("\n")
        if crlf:
            text = text.replace("\r\n", "\n")
        if init_code:
            source = init_code
            eval_program(parse_scriptlet(init_code), state)
        source = text

        parts: list[str] = []
        templates: dict[str, list[str]] = {}  # each split once
        for seg in iter_segments(text, state):
            if isinstance(seg, Outer):
                parts.append(seg.text)
            elif isinstance(seg, Snippet):
                _render_snippet(parts, seg, _eval_snippet(seg, state), replace)
            elif not replace:  # a regex-hook match stays as is
                parts.append(seg.matched)
            else:
                template = state.hooks[seg.hook_index].template
                split = templates.get(template)
                if split is None:
                    split = templates[template] = _CAPTURE_REF.split(template)
                parts.append(_substitute_template(split, seg.captures))
        new_text = "".join(parts)
        if crlf:
            new_text = new_text.replace("\n", "\r\n")

        if replace:
            return write_if_changed(out_path, new_text)
        return write_if_changed(path, new_text, data, st)
    except EngineError as exc:
        exc.locate(path, source)
        raise


def write_if_changed(path: str, text: str, current: bytes | None = None,
                     current_stat: os.stat_result | None = None) -> bool:
    """Write `text` to `path` atomically, but only when its bytes differ.

    Identical content means no write at all, so timestamps survive untouched.
    A caller that already holds the target's bytes and stat result passes
    them as `current` and `current_stat`; otherwise the target is read here
    (a missing target always differs). Updates go through a temp file in the
    same directory followed by a rename; an existing file keeps its
    permission bits. A symlink is written through: the file it resolves to
    is replaced and the link stays. A target with more than one hard link
    is refused with an EngineError when its bytes would change. A failed
    write raises an OSError that names `path`.
    """
    data = text.encode("utf-8", "surrogateescape")
    if current is None:
        try:
            with open(path, "rb") as fh:
                current = fh.read()
                current_stat = os.fstat(fh.fileno())
        except FileNotFoundError:
            pass
    if current == data:
        return False
    if current_stat is not None and current_stat.st_nlink > 1:
        # Renaming would split the links; writing in place could clobber
        # the file if the write fails. Neither is acceptable.
        raise EngineError(f"refusing to replace '{path}': it has "
                          f"{current_stat.st_nlink} hard links")
    mode = None if current_stat is None else stat.S_IMODE(current_stat.st_mode)

    target = os.path.realpath(path)
    # O_BINARY: no newline translation on Windows. A new target is created
    # 0o666 less the umask, as open() would; a replacement stays private
    # until it takes the old file's mode.
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
    created_mode = 0o666 if mode is None else 0o600
    tmp = None
    try:
        while tmp is None:
            name = os.path.join(os.path.dirname(target),
                                ".textforge-" + os.urandom(6).hex())
            try:
                fd = os.open(name, flags, created_mode)
            except FileExistsError:
                continue
            tmp = name
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):  # it would name the temp file
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise
    return True
