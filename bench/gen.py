"""Seeded inputs for the benchmark workloads, together with their oracle.

Every workload is built from a small data model, and the expected bytes of
an update run and of a replace run are written from that same model. The
oracle never runs textforge: it re-states the documented rules for output
fences, fence numbering, re-indentation and replace-mode line handling (see
README.md, "Styles") on the values the generator chose itself.

`build(workload, seed, scale)` returns a `Workload`; the same arguments always
give the same bytes. `scale` is 1.0 for the measured size and 0.5 for the
half-size traced run that the growth metrics compare against.
"""
from __future__ import annotations

import fnmatch
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("tree", "hooks", "scripts")

# Oracle view of the built-in styles: snippet delimiters used by the
# generator, output fence (b1, b2, e1, e2), line comment, re-indenting.
HASH_FENCE = ("#", "+\n", "#", "-\n")
STYLES = {
    "default": ("<?", "!>", HASH_FENCE, "#", False),
    "makefile": ("#<?", "!>", HASH_FENCE, "#", True),
    "python": ("#<?", "!>", HASH_FENCE, "#", True),
    "perl": ("#<?", "!>", HASH_FENCE, "#", False),
    "java": ("//<?", "!>", ("//", "+\n", "//", "-\n"), "//", False),
    "html": ("<!--<?", "!>-->", ("<!-- +", " -->", "<!-- -", " -->"), None, False),
}
# File names per style; the first entry of makefile is an exact base name.
SUFFIXES = {
    "default": (".txt",),
    "makefile": (".mk",),
    "python": (".py",),
    "perl": (".pl", ".pm"),
    "java": (".java",),
    "html": (".html", ".htm"),
}

SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "de", "po",
             "gu", "fa", "be", "zo", "hi", "ju")


def word(rng: random.Random, lo: int = 2, hi: int = 4) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(lo, hi)))


def words(rng: random.Random, n: int) -> str:
    return " ".join(word(rng) for _ in range(n))


def choose_infix(out: str, fence: tuple[str, str, str, str]) -> str:
    b1, b2, e1, e2 = fence
    n = 0
    while True:
        infix = str(n) if n else ""
        if ((b1 + infix + b2).rstrip("\n") not in out
                and (e1 + infix + e2).rstrip("\n") not in out):
            return infix
        n += 1


def htmlquote(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


class Doc:
    """One processed file, kept as pristine / updated / replaced pieces."""

    def __init__(self, style: str):
        self.style = style
        self.pristine: list[str] = []
        self.updated: list[str] = []
        self.replaced: list[str] = []
        self.line = ""  # pristine text since the last newline

    def _source(self, s: str) -> None:
        self.pristine.append(s)
        self.updated.append(s)
        cut = s.rfind("\n")
        self.line = self.line + s if cut < 0 else s[cut + 1:]

    def text(self, s: str) -> None:
        self._source(s)
        self.replaced.append(s)

    def snippet(self, code: str, out: str) -> None:
        """Append a snippet whose evaluation yields `out`. The snippet's
        fence and re-indenting follow the style in effect before it runs."""
        begin, end, fence, _, adjust = STYLES[self.style]
        line = self.line
        indent = line[:len(line) - len(line.lstrip(" \t"))]
        self._source(begin + code + end)
        if adjust and indent:
            out = "\n".join(indent + ln if ln else ln for ln in out.split("\n"))
        if out:
            infix = choose_infix(out, fence)
            self.updated.append(fence[0] + infix + fence[1] + out
                                + fence[2] + infix + fence[3])
        if indent and line == indent and self.replaced[-1].endswith(indent):
            self.replaced[-1] = self.replaced[-1][:-len(indent)]
        if out and fence[3].endswith("\n") and not out.endswith("\n"):
            out += "\n"
        self.replaced.append(out)

    def match(self, matched: str, replacement: str) -> None:
        """Plain text that a regex hook rewrites in replace mode."""
        self._source(matched)
        self.replaced.append(replacement)

    def render(self) -> tuple[bytes, bytes, bytes]:
        return tuple("".join(p).encode() for p in
                     (self.pristine, self.updated, self.replaced))


@dataclass
class Workload:
    """Generated inputs: every file (targets, data and confs) by relative
    path, the targets in processing order, and the oracle's bytes."""

    files: dict[str, bytes] = field(default_factory=dict)
    targets: list[str] = field(default_factory=list)
    expect_update: dict[str, bytes] = field(default_factory=dict)
    expect_replace: dict[str, bytes] = field(default_factory=dict)

    def add(self, path: str, doc: Doc) -> None:
        pristine, updated, replaced = doc.render()
        if updated == pristine:
            raise ValueError(f"{path}: generated file would not change")
        self.files[path] = pristine
        self.targets.append(path)
        self.expect_update[path] = updated
        self.expect_replace[path] = replaced

    def materialize(self, root: str) -> None:
        for rel, data in self.files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)


def build(workload: str, seed: int, scale: float = 1.0) -> Workload:
    builders = {"tree": _tree, "hooks": _hooks, "scripts": _scripts}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    return builders[workload](random.Random(f"{workload}:{seed}"), scale)


# --- tree: many small files, every style, conf chains ------------------

TREE_LEAVES = 40
TREE_FILES_PER_LEAF = 50
TREE_STYLES = ("default", "makefile", "python", "perl", "java", "html")


def _tree(rng: random.Random, scale: float) -> Workload:
    wl = Workload()
    project = word(rng, 3, 3)
    n_leaves = max(2, round(TREE_LEAVES * scale))
    levels: dict[str, str] = {}  # conf directory -> the level it appends
    owners: dict[str, str] = {}  # middle conf directory -> $Owner
    for leaf in range(n_leaves):
        top, mid = f"tree/t{leaf // 4}", f"tree/t{leaf // 4}/m{leaf // 2 % 2}"
        leaf_dir = f"{mid}/l{leaf % 2}"
        # Leaves under even tops sit under a three-level conf chain; the
        # chain stops at tree/, which has no conf.
        conf = None
        if (leaf // 4) % 2 == 0:
            for d in (top, mid, leaf_dir):
                if d not in levels:
                    levels[d] = f"L{word(rng, 1, 1)}"
            if mid not in owners:
                owners[mid] = word(rng)
            wl.files[f"{top}/starfish.conf"] = (
                f"$Project = '{project}';\n$Level = '{levels[top]}';\n").encode()
            wl.files[f"{mid}/starfish.conf"] = (
                f"$Level = $Level . '/' . '{levels[mid]}';\n"
                f"$Owner = '{owners[mid]}';\n").encode()
            wl.files[f"{leaf_dir}/starfish.conf"] = (
                f"# deepest conf\n$Level = $Level . '/{levels[leaf_dir]}';\n").encode()
            conf = (project, owners[mid], "/".join(levels[d] for d in (top, mid, leaf_dir)))
        dats = sorted(f"d{k}_{word(rng)}.dat" for k in range(3))
        for name in dats:
            wl.files[f"{leaf_dir}/{name}"] = (words(rng, 5) + "\n").encode()
        for i in range(TREE_FILES_PER_LEAF):
            style = TREE_STYLES[i % len(TREE_STYLES)]
            if style == "makefile" and i < len(TREE_STYLES):
                name = "Makefile"
            else:
                name = f"f{i:02d}_{word(rng, 1, 2)}{rng.choice(SUFFIXES[style])}"
            wl.add(f"{leaf_dir}/{name}", _tree_file(rng, style, dats, conf))
    return wl


def _filler(rng: random.Random, style: str, lines: int) -> str:
    lead = {"java": "// ", "html": "<p>", "default": ""}.get(style, "# ")
    tail = "</p>" if style == "html" else ""
    return "".join(f"{lead}{words(rng, rng.randint(3, 8))}{tail}\n"
                   for _ in range(lines))


def _tree_file(rng: random.Random, style: str, dats: list[str],
               conf: tuple[str, str, str] | None) -> Doc:
    doc = Doc(style)
    doc.text(_filler(rng, style, rng.randint(2, 5)))
    if style == "default" and rng.random() < 0.5:
        target = rng.choice(("java", "html"))
        doc.snippet(f" set_style('{target}'); ", "")
        doc.style = target
        doc.text("\n" + _filler(rng, target, 1))
    kinds = ["plain", "glob", "quote"] + (["conf"] if conf else [])
    for k in range(rng.randint(1, 3)):
        kind = rng.choice(kinds)
        indent = ""
        if STYLES[doc.style][4] and rng.random() < 0.5:
            doc.text(f"def {word(rng)}():\n")
            indent = "    "
        doc.text(indent)
        if kind == "plain":
            w, n = word(rng), rng.randint(0, 99999)
            doc.snippet(f" $x = '{w}'; echo $x . \"-\" . {n}, \"\\n\"; ",
                        f"{w}-{n}\n")
        elif kind == "glob":
            if rng.random() < 0.5:
                doc.snippet(" echo join(' ', glob('*.dat')), \"\\n\"; ",
                            " ".join(dats) + "\n")
            else:
                doc.snippet(" for $f in glob('d?_*.dat') { echo strip_suffix($f, '.dat'), "
                            "\"\\n\"; } ",
                            "".join(d[:-4] + "\n" for d in dats))
        elif kind == "quote":
            s = " ".join(rng.choice((word(rng), "<b>", "a&b", '"q"', "x>y"))
                         for _ in range(4))
            doc.snippet(f" echo htmlquote('{s}'), \"\\n\"; ", htmlquote(s) + "\n")
        else:
            project, owner, level = conf
            doc.snippet(" read_starfish_conf(); echo $Project, ':', $Owner, ':', "
                        "$Level, \"\\n\"; ", f"{project}:{owner}:{level}\n")
        doc.text("\n" + _filler(rng, doc.style, rng.randint(1, 4)))
    return doc


# --- hooks: one large file scanned with extra hooks -------------------

HOOK_PARAGRAPHS = 1000
HOOK_PARAGRAPH_CHARS = 700
ZW_SNIPPETS = 100
ZW_CHARS_PER_SNIPPET = 100


def _hooks(rng: random.Random, scale: float) -> Workload:
    wl = Workload()
    doc = Doc("default")
    doc.text("Release notes\n")
    # An inert hook whose delimiter never occurs, and a rewriting regex
    # hook that matches in most paragraphs.
    doc.snippet(" add_hook('[[', ']]'); add_regex_hook('TICKET-([0-9]+)', "
                "'(see T$1)'); ", "")
    doc.text("\n")
    for p in range(max(1, round(HOOK_PARAGRAPHS * scale))):
        n, w = rng.randint(1, 99999), word(rng)
        doc.snippet(f" echo \"Section {p}: \", htmlquote('{w} <{n}>'), \"\\n\"; ",
                    f"Section {p}: {w} &lt;{n}>\n")
        body = _paragraph(rng, HOOK_PARAGRAPH_CHARS)
        if rng.random() < 0.8:
            cut = body.index(" ", len(body) // 2)
            t = rng.randint(1, 9999)
            doc.text("\n" + body[:cut] + " ")
            doc.match(f"TICKET-{t}", f"(see T{t})")
            doc.text(body[cut:] + "\n\n")
        else:
            doc.text("\n" + body + "\n\n")
    wl.add("hooks/notes.txt", doc)

    # A zero-width-capable regex: q* matches the empty string almost
    # everywhere and a real run of q only rarely.
    zw = Doc("default")
    zw.snippet(" add_regex_hook('q*', 'Q'); ", "")
    zw.text("\n")
    n_snippets = max(1, round(ZW_SNIPPETS * scale))
    for s in range(n_snippets):
        zw.snippet(f" echo 'item {s}'; ", f"item {s}")
        text = "\n" + _paragraph(rng, ZW_CHARS_PER_SNIPPET)
        if s == n_snippets // 2:
            zw.text(text + " ")
            zw.match("qq", "Q")
            zw.text(" end\n")
        else:
            zw.text(text + "\n")
    wl.add("hooks/sparse.txt", zw)
    return wl


def _paragraph(rng: random.Random, chars: int) -> str:
    out = []
    size = 0
    while size < chars:
        w = word(rng)
        out.append(w)
        size += len(w) + 1
    return " ".join(out)


# --- scripts: long scriptlets in indent-adjusting styles --------------

# The scripts sit under a three-level conf chain (app, app/src, app/src/gen).
SCRIPT_DIR = "app/src/gen"
SCRIPT_FILES = (("tables.py", "python", "    "),
                ("views.py", "python", "        "),
                ("Makefile", "makefile", ""),
                ("rules.mk", "makefile", "\t"))
SCRIPT_SNIPPETS_PER_FILE = 2
SCRIPT_STATEMENTS = 400
SCRIPT_DATA_FILES = 60


def _scripts(rng: random.Random, scale: float) -> Workload:
    wl = Workload()
    project, levels = word(rng, 3, 3), [f"L{word(rng, 1, 1)}" for _ in range(3)]
    wl.files["app/starfish.conf"] = (
        f"$Project = '{project}';\n$Level = '{levels[0]}';\n").encode()
    wl.files["app/src/starfish.conf"] = f"$Level = $Level . '/{levels[1]}';\n".encode()
    wl.files[f"{SCRIPT_DIR}/starfish.conf"] = f"$Level = $Level . '/{levels[2]}';\n".encode()
    header = f"# {project} {'/'.join(levels)}\n"
    items = sorted(f"item_{k:02d}{word(rng, 1, 2)}.csv"
                   for k in range(SCRIPT_DATA_FILES))
    for name in items:
        wl.files[f"{SCRIPT_DIR}/{name}"] = (words(rng, 4) + "\n").encode()
    wl.files[f"{SCRIPT_DIR}/notes.txt"] = b"not matched by the globs\n"
    n_stmts = max(4, round(SCRIPT_STATEMENTS * scale))
    for name, style, indent in SCRIPT_FILES:
        doc = Doc(style)
        doc.text(f"# generated by scriptlets below ({style})\n")
        for s in range(SCRIPT_SNIPPETS_PER_FILE):
            head = f"def section_{s}():\n" if style == "python" else f"target{s}:\n"
            doc.text(head + indent)
            code, out = _program(rng, n_stmts, items, indent)
            doc.snippet(code, header + out)
            doc.text("\n" + indent + ("return None\n\n" if style == "python"
                                       else "@true\n\n"))
        wl.add(f"{SCRIPT_DIR}/{name}", doc)
    return wl


def _program(rng: random.Random, n_stmts: int, items: list[str],
             indent: str) -> tuple[str, str]:
    """A multi-line scriptlet written inside line comments, and the output
    of its statements. It first runs the conf chain and echoes a header
    line, which the caller adds to the expected output."""
    values: dict[str, str] = {}
    lines: list[str] = []
    out: list[str] = []
    # Fence-like output lines force a numbered fence: none gives "", the
    # plain fence gives 1, and each numbered one present pushes it higher.
    fences = rng.choice(((), ("#+",), ("#-", "#1+"), ("#+", "#1-", "#2+")))
    for i in range(n_stmts):
        roll = rng.random()
        name = f"v{i}"
        if i < 2 or roll < 0.25:
            w = word(rng)
            lines.append(f"${name} = '{w}';")
            values[name] = w
        elif roll < 0.40:
            src = rng.choice(sorted(values))
            n = rng.randint(0, 999)
            lines.append(f"${name} = ${src} . '-' . {n};")
            values[name] = f"{values[src]}-{n}"
        elif roll < 0.60:
            src = rng.choice(sorted(values))
            n = rng.randint(0, 999)
            lines.append(f"echo \"  \", ${src}, \" \", {n}, \"\\n\";")
            out.append(f"  {values[src]} {n}\n")
        elif roll < 0.72:
            src = rng.choice(sorted(values))
            probe = values[src] if rng.random() < 0.5 else word(rng)
            lines.append(f"if (${src} == '{probe}') {{")
            lines.append(f"  echo \"same {i}\\n\";")
            lines.append("} else {")
            lines.append(f"  echo \"differs {i}\\n\";")
            lines.append("}")
            out.append(f"{'same' if probe == values[src] else 'differs'} {i}\n")
        elif roll < 0.80:
            a, b = rng.randint(0, 500), rng.randint(0, 500)
            lines.append(f"echo {a} < {b} ? \"lt {i}\\n\" : \"ge {i}\\n\";")
            out.append(f"{'lt' if a < b else 'ge'} {i}\n")
        elif roll < 0.95:
            src = rng.choice(sorted(values))
            pattern = rng.choice(("item_*.csv", "item_0?*.csv", "item_?5*.csv"))
            hits = [f for f in items if fnmatch.fnmatchcase(f, pattern)]
            lines.append(f"for $f in glob('{pattern}') {{")
            lines.append(f"  echo strip_suffix($f, '.csv'), \" = \", ${src}, \"\\n\";")
            lines.append("}")
            out.extend(f"{h[:-4]} = {values[src]}\n" for h in hits)
        else:
            fence = rng.choice(fences) if fences else "no"
            lines.append(f"echo \"{fence} looks like a fence {i}\\n\";")
            out.append(f"{fence} looks like a fence {i}\n")
    body = "".join(f"\n{indent}# {ln}" for ln in lines)
    return (f" read_starfish_conf(); echo '# ', $Project, ' ', $Level, \"\\n\";{body}"
            f"\n{indent}# "), "".join(out)
