"""Processing one file: `process_file` renders its segments, each as soon
as it is evaluated, and writes the result.

The scanner yields the source text each mode keeps; this module renders
each snippet's output where the scan marks it. Update appends it directly
after the end delimiter, wrapped in output markers whose shared digit infix
is chosen so neither marker collides with the output text. Replace keeps
only the bare output.
"""
from __future__ import annotations

import os
import signal
import stat

from . import scriptlet
from .core import (EngineError, EngineState, EvalError, OutDelims, Style,
                   read_regular, read_text)
from .scanner import Snippet, iter_segments
from .scriptlet import eval_program, parse_scriptlet


def strip_line_comments(code: str, line_comment: str | None) -> str:
    """Strip the style's line-comment prefix from commented snippet lines.

    A line whose first non-whitespace characters equal `line_comment` loses
    the comment string and the whitespace before it; everything after stays,
    so multi-line scriptlets written inside host-language comments parse as
    one program. Text goes only from the start of a line, so an offset into
    the result is as far from the end of its line as in `code`.
    """
    if not line_comment:
        return code
    out = []
    for line in code.split("\n"):
        body = line.lstrip(" \t")
        out.append(body[len(line_comment):] if body.startswith(line_comment)
                   else line)
    return "\n".join(out)


def choose_infix(output: str, delims: OutDelims) -> str:
    """Smallest digit infix whose markers cannot be mistaken for output text.

    Markers are compared without their trailing newlines, so an output line
    that merely *ends* like a marker still forces a numbered infix. The end
    marker also clashes when it overlaps itself across the output's tail:
    the scanner takes the first end marker after the begin marker, which
    must be the one appended after the output.
    """
    b1, b2, e1, e2 = delims
    marker = e1 + e2
    if not ((b1 + b2).rstrip("\n") in output
            or marker.rstrip("\n") in output) and _clears_tail(output, marker):
        return ""
    # Numbered infixes of up to `width` digits are looked up among those
    # found in one scan of the output per marker shape. At most one infix of
    # exactly `width` digits clashes per place a marker shape can start in
    # the output and per length of overlap with its tail, 3 * len(output) in
    # all, fewer than the 9 * 10**(width - 1) there are, so none is longer.
    width = len(str(len(output))) + 1
    taken = (_digits_between(output, b1, b2.rstrip("\n"), width)
             | _digits_between(output, e1, e2.rstrip("\n"), width))
    n = 1
    while True:
        infix = str(n)
        if infix not in taken and _clears_tail(output, e1 + infix + e2):
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


def _run_snippet(seg: Snippet, state: EngineState, replace: bool) -> str:
    """Run one snippet and return its rendered output, under the fence and
    indent setting in effect before it ran (its own `set_out_delimiters()`
    cannot re-fence it). An error's offset into the stripped code becomes
    one into the scanned text, or the code's start if it has none; a conf's
    is kept.

    Update mode returns a fresh output block (nothing for empty output); the
    stale block the snippet was scanned with is dropped. Replace mode returns
    the bare output, with a terminating newline where update's end marker
    ends in one, so both modes agree on line structure. The markup around it,
    and in replace mode the indent a snippet takes with it, is the scanner's.
    """
    delims, style = state.out_delims, state.style
    code = strip_line_comments(seg.code, style.line_comment)
    try:
        out = eval_program(parse_scriptlet(code), state)
    except EngineError as exc:
        if exc.file is None:
            # Stripping keeps each offset's distance to its line's end.
            at = exc.at or 0
            after = code.count("\n", at)
            exc.at = (seg.code_offset + at
                      + len(seg.code.rsplit("\n", after)[0])
                      - len(code.rsplit("\n", after)[0]))
        raise
    if style.indent_adjust and seg.indent:
        out = indent_output(out, seg.indent)
    if not out:
        return out
    if not replace:
        infix = choose_infix(out, delims)
        return (delims.b1 + infix + delims.b2 + out
                + delims.e1 + infix + delims.e2)
    if delims.e2.endswith("\n") and not out.endswith("\n"):
        out += "\n"
    return out


def process_file(path: str, style: Style, *, out_path: str | None = None,
                 init_code: str | None = None) -> bool:
    """Process one file with `style`: read it, run `init_code` if given,
    evaluate and render each segment in document order, and write the
    result. Each call starts from a fresh `EngineState`. Returns whether a
    file was written.

    Without `out_path` the file is updated in place (written only when its
    bytes change). With `out_path` it is replaced: the output goes there,
    and the input is never touched. Every file is read before any code
    runs, so an `out_path` that is the input itself, by any name, or that
    exists but is not a readable regular file, is refused first. The code
    runs under a deadline of `scriptlet.MAX_SECONDS` (see `_Deadline`),
    which ends before the write starts. FILE is read by `read_text`, and
    one read as all-CRLF is written with CRLF. Every error it raises is an
    `EngineError` located at `path`: its offset is read against the text as
    processed, or against `init_code` for an error there, and an `OSError`
    becomes one at `path`:0:0 with the same text. One from a conf keeps the
    conf's name.
    """
    replace = out_path is not None
    source = ""  # what the offset of an error points into
    try:
        state = EngineState(path, style)  # abspath fails without a cwd
        text, crlf, data, st = read_text(path)
        target, current, current_stat = path, data, st
        if replace:
            target = out_path
            try:
                current, current_stat = read_regular(out_path)
            except FileNotFoundError:
                current = current_stat = None
            if current_stat is not None and os.path.samestat(current_stat, st):
                raise EngineError(f"refusing to write '{out_path}': it is the input")

        with _Deadline():
            if init_code:
                source = init_code
                eval_program(parse_scriptlet(init_code), state)
            source = text
            new_text = "".join(
                seg if type(seg) is str else _run_snippet(seg, state, replace)
                for seg in iter_segments(text, state, replace))
            if crlf:
                new_text = new_text.replace("\n", "\r\n")
        return write_if_changed(target, new_text, current, current_stat)
    except OSError as exc:
        raise EngineError(str(exc), file=path) from None
    except EngineError as exc:
        exc.locate(path, source)
        raise


class _Deadline:
    """A block in which an `EvalError` with no offset is raised, from a
    SIGALRM handler, once `scriptlet.MAX_SECONDS` have passed. Leaving it
    disarms the real-time timer and puts the previous handler back. There
    is no deadline where `signal.setitimer` is missing, off the main
    thread, or while the real-time timer is already running for another
    part of the process."""

    def __enter__(self):
        try:
            self.armed = not signal.getitimer(signal.ITIMER_REAL)[0]
            if self.armed:
                self.previous = signal.signal(signal.SIGALRM, _expire)
        except (AttributeError, ValueError):  # no setitimer; not the main thread
            self.armed = False
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, scriptlet.MAX_SECONDS)

    def __exit__(self, *exc_info):
        if self.armed:
            try:
                signal.setitimer(signal.ITIMER_REAL, 0)
            finally:  # runs even if the alarm went off just before the disarm
                signal.signal(signal.SIGALRM, self.previous)


def _expire(signum, frame):
    raise EvalError(f"time limit exceeded: the file took more than "
                    f"{scriptlet.MAX_SECONDS} s")


def _version(info: os.stat_result | None) -> tuple | None:
    """What tells a file from itself after an edit; None for no file."""
    if info is None:
        return None
    return info.st_ino, info.st_size, info.st_mtime_ns, info.st_ctime_ns


def write_if_changed(path: str, text: str, current: bytes | None,
                     current_stat: os.stat_result | None) -> bool:
    """Write `text` to `path` atomically, but only when its bytes differ
    from `current`, the target's bytes as the caller read them, and
    `current_stat` its stat result from when it was opened for that read
    (both None for a target that was missing).

    Identical content means no write at all, so timestamps survive untouched.
    Updates go through a temp file in the same directory followed by a
    rename; an existing file keeps its permission bits. A symlink is written
    through: the file it resolves to is replaced and the link stays. A
    target with more than one hard link is refused with an EngineError when
    its bytes would change, and so is a target that changed since it was
    opened for the read, during the read too: just before the rename, its
    inode, size, mtime or ctime differ from `current_stat`, or it has
    appeared or gone. Then the temp file is removed and nothing is written.
    A failed write raises an OSError naming `path`.
    """
    data = text.encode("utf-8", "surrogateescape")
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
        try:
            fh = os.fdopen(fd, "wb")
        except BaseException:
            os.close(fd)
            raise
        with fh:
            fh.write(data)
        if mode is not None:
            os.chmod(tmp, mode)
        try:
            now = os.stat(path)
        except FileNotFoundError:
            now = None
        if _version(now) != _version(current_stat):
            raise EngineError(f"'{path}' changed while textforge ran; "
                              "not written")
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
