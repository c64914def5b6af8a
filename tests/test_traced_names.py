"""Every function name the benchmark reads names a function of textforge.

`bench/tracer.py` wraps textforge's public functions by name, and
`bench/run.py` turns the spans of some of those names into metrics. A metric
whose function was renamed or deleted reads 0 without a word, so each name
they use must be a function defined in the module it names. The bench files
are read as text, never imported or changed.
"""
import ast
import importlib
import os
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Names the bench files still read though the functions are gone from src/;
# ROADMAP item 6 deletes them together with the metrics they feed.
GONE = frozenset({
    "rewriter.assemble_update",
    "rewriter.assemble_replace",
    "scriptlet.parse_expression",
    "scriptlet.eval_expression",
    "scriptlet.truthy",
    "styles.builtin_registry",
})


def _tree(name):
    with open(os.path.join(ROOT, "bench", name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _strings(nodes):
    return {n.value for n in nodes
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _run_py_span_names():
    """The names in `s(...)`, `calls.get(...)` and `span[0] == ...`."""
    names = set()
    for node in ast.walk(_tree("run.py")):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "s":
                names |= _strings(node.args)
            elif (isinstance(f, ast.Attribute) and f.attr == "get"
                  and isinstance(f.value, ast.Name) and f.value.id == "calls"):
                names |= _strings(node.args[:1])
        elif (isinstance(node, ast.Compare)
              and isinstance(node.left, ast.Subscript)
              and isinstance(node.left.value, ast.Name)
              and node.left.value.id == "span"):
            names |= _strings(node.comparators)
    return names


def _tracer_names():
    """The keys of `COUNTERS` and the members of `UNTRACED`."""
    names = set()
    for node in _tree("tracer.py").body:
        if not (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)):
            continue
        if node.targets[0].id == "COUNTERS":
            names |= _strings(node.value.keys)
        elif node.targets[0].id == "UNTRACED":
            names |= _strings(ast.walk(node.value))
    return names


def _is_function_of_its_module(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"textforge.{layer}")
    fn = getattr(module, attr, None)
    return (isinstance(fn, types.FunctionType)
            and fn.__module__ == module.__name__)


def test_the_bench_files_name_what_they_read():
    # A parse that finds nothing would pass the test below vacuously.
    assert {"scanner.find_next_match", "rewriter.indent_output",
            "rewriter.write_if_changed"} <= _run_py_span_names()
    assert {"scanner.detect_output_block", "scriptlet.tokenize",
            "scriptlet.stringify"} <= _tracer_names()


def test_every_traced_name_is_a_function_of_its_module():
    names = _run_py_span_names() | _tracer_names()
    assert GONE <= names  # a name the bench stops reading leaves GONE
    assert ({n: _is_function_of_its_module(n) for n in names}
            == {n: n not in GONE for n in names})
