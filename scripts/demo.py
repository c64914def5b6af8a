#!/usr/bin/env python3
"""Run the three showcase documents through an update and show the diffs.

    PYTHONPATH=src python3 scripts/demo.py

The update is then run again, and the demo exits 1 if that rerun changes
the bytes or the mtime of any of the three files: an update is idempotent.
Everything happens in a throwaway directory; the sources live inline here so
the demo works from a bare checkout.
"""
import difflib
import os
import subprocess
import sys
import tempfile
from datetime import datetime

JAVA = """\
public class simple {

  public static void main(String argv[]) {
    //<?   $Version = 'Test';    !>
    //<? # $Version = 'Release'; !>

    // Uncomment version:
    //<? $O = "    ".($Version == 'Test' ?
    //     'System.out.println("Test version");' :
    //     'System.out.println("Release version");'); !>
    return 0;
  }
}
"""

MAKEFILE = r"""# Build the java sources found next to this makefile.
#<? $sources = glob('*.java');
#   echo 'all: ' . join(' ', $sources) . "\n";
#   for $f in $sources {
#     $c = strip_suffix($f, '.java');
#     echo $c . '.class: ' . $f . '; javac ' . $f . "\n";
#   }
#!>
"""

BLOG = '''\
<!--<? $date_created = 'July 4, 2020';
       $title = 'My sample blog';
       read_starfish_conf();
       echo $blog_header; !>-->
Here is a piece of my code:
<!--<? $src = """
/**
 * Demo of how to switch between Test & Release versions.
 */
public class simple {

  public static void main(String argv[]) {
    //<?   $Version = 'Test';    !>
    //<? # $Version = 'Release'; !>
//etc...
""";
echo '<PRE>' . htmlquote($src) . '</PRE>'; !>-->
'''

CONF = r"""$blog_header = "<html><title>" . $title . "</title><body>\n"
  . "Blog created: " . $date_created . "<br>\n"
  . "Last update: " . file_modification_date() . "\n"
  . "<h1>" . $title . "</h1>\n";
"""


def show(title, before, after):
    print(f"=== {title} " + "=" * max(0, 60 - len(title)))
    diff = difflib.unified_diff(before.splitlines(keepends=True),
                                after.splitlines(keepends=True),
                                fromfile="before", tofile="after")
    sys.stdout.writelines(diff)
    print()


def snapshot(paths):
    """Path -> (bytes, mtime in ns) of each of `paths`."""
    found = {}
    for path in paths:
        with open(path, "rb") as f:
            found[path] = (f.read(), os.stat(path).st_mtime_ns)
    return found


def main():
    with tempfile.TemporaryDirectory() as d:
        java = os.path.join(d, "simple.java")
        with open(java, "w") as f:
            f.write(JAVA)

        mk = os.path.join(d, "Makefile")
        with open(mk, "w") as f:
            f.write(MAKEFILE)
        for name in ("A.java", "B.java", "C.java"):
            open(os.path.join(d, name), "w").close()

        blog = os.path.join(d, "blogexample.html")
        with open(blog, "w") as f:
            f.write(BLOG)
        with open(os.path.join(d, "starfish.conf"), "w") as f:
            f.write(CONF)
        when = datetime(2020, 7, 4, 12, 0).timestamp()
        os.utime(blog, (when, when))

        update = [sys.executable, "-m", "textforge.cli", java, mk, blog]
        subprocess.run(update, check=True)

        for title, path, before in (("simple.java (update)", java, JAVA),
                                    ("Makefile (update)", mk, MAKEFILE),
                                    ("blogexample.html (update)", blog, BLOG)):
            with open(path) as f:
                show(title, before, f.read())

        # file_modification_date() reads the blog's mtime, which the update
        # moved to now; pin it again, so the rerun sees the date printed
        # (README, Limitations: the run after a later-day write).
        os.utime(blog, (when, when))
        before = snapshot((java, mk, blog))
        subprocess.run(update, check=True)
        after = snapshot((java, mk, blog))
        changed = [os.path.basename(p) for p in before if before[p] != after[p]]
        if changed:
            print(f"demo: the rerun changed {', '.join(changed)}",
                  file=sys.stderr)
            return 1
        print("=== rerun: no file changed " + "=" * 33)
        print()

        out = os.path.join(d, "simple-release.java")
        subprocess.run([sys.executable, "-m", "textforge.cli",
                        "-replace", f"-o={out}", java], check=True)
        with open(out) as f:
            print("=== simple.java (replace) " + "=" * 34)
            print(f.read())
    return 0


if __name__ == "__main__":
    sys.exit(main())
