#!/usr/bin/env python3
"""textforge benchmark: the CLI end to end, and its layers from a traced run.

    python3 bench/run.py --workload {hooks,scripts,tree} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; textforge is imported from ./src in a
fresh child interpreter for every pass, as each CLI call would start one.
Inputs are generated from the seed (gen.py) into a fresh directory under
./.bench_work, which is removed at the end. They live in the checkout
because the benchmark writes nowhere else. On a disk file system that makes
passes that create many files too noisy to bound, which is why `tree` can
be run by hand but is not in BENCHMARK.json (see README.md).

One iteration runs three passes over a working copy of the pristine inputs,
each pass in its own child process, and then resets the copy:

  update   `textforge FILE...` over the copy: every file gains its blocks
  rerun    the same command again: must leave every byte, mtime and inode
  replace  `textforge -replace -o=OUT FILE` for each pristine file, one
           `main` call per file in a single child

The first iteration also replaces the updated files, to check that
replace(update(x)) == replace(x). Every output is compared with the bytes the
generator wrote from its own model. Iterations repeat until --seconds are
used, and each metric is the median over the iterations.

--trace 0 prints the end-to-end metrics (END_TO_END). --trace 1 runs, in
each iteration, the untraced passes, the same passes with the tracer.py
wrappers installed, and the traced passes over a half-size workload, and
prints the per-layer metrics (PER_LAYER), summed over the traced
update, rerun and replace passes. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; "failed" / "attempted" is the
fail ratio over (file, pass) operations.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gen
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
WORK = os.path.join(os.getcwd(), ".bench_work")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT = 60
HALF = 0.5

END_TO_END = {
    "setup_s": "s",      # child spawn until textforge.cli.main can be entered
    "update_s": "s",     # update pass over pristine inputs
    "rerun_s": "s",      # update pass over updated inputs, a no-op
    "replace_s": "s",    # -replace of every pristine input, one child
    "peak_rss_mb": "MB",  # largest ru_maxrss of the three pass children
}

_SCAN = "moves update_s, rerun_s and replace_s on hooks"
_SCRIPT = "moves update_s and rerun_s on scripts, rerun_s on tree"
_TREE = "moves update_s and rerun_s on tree; small on scripts"
_ASSEMBLE = "moves update_s and replace_s on scripts"
_GROWTH = "self time at full / half size; ~2 when linear"

# Per-layer metric -> (unit, which end-to-end metric it moves on which
# workload, or what it means).
PER_LAYER = {
    "scanner.find_s": ("s", _SCAN),
    "scanner.find_calls": ("count", _SCAN),
    "scanner.detect_output_s": ("s", _SCAN),
    "scanner.output_blocks": ("count", _SCAN),
    "scanner.busy_s": ("s", _SCAN),
    "scriptlet.tokenize_s": ("s", _SCRIPT),
    "scriptlet.tokens": ("count", _SCRIPT),
    "scriptlet.parse_s": ("s", _SCRIPT),
    "scriptlet.eval_s": ("s", _SCRIPT),
    "scriptlet.programs": ("count", _SCRIPT),
    "scriptlet.busy_s": ("s", _SCRIPT),
    "config.find_s": ("s", _TREE),
    "config.exec_s": ("s", _TREE),
    "config.confs_run": ("count", _TREE),
    "config.busy_s": ("s", _TREE),
    "styles.detect_s": ("s", _TREE),
    "styles.registry_builds": ("count", _TREE),
    "styles.busy_s": ("s", _TREE),
    "rewriter.write_s": ("s", "moves update_s on tree, never rerun_s"),
    "rewriter.files_written": ("count", "moves update_s on tree, never rerun_s"),
    "rewriter.write_ratio.update": ("ratio", "files written / write calls in update; 1"),
    "rewriter.write_ratio.rerun": ("ratio", "files written / write calls in rerun; must be 0"),
    "rewriter.self_s": ("s", "moves rerun_s on tree"),
    "rewriter.assemble_s": ("s", _ASSEMBLE),
    "rewriter.infix_s": ("s", _ASSEMBLE),
    "rewriter.indent_s": ("s", _ASSEMBLE),
    "rewriter.numbered_fences": ("count", _ASSEMBLE),
    "rewriter.bytes_out": ("bytes", _ASSEMBLE),
    "rewriter.busy_s": ("s", "moves update_s, rerun_s and replace_s on every workload"),
    "cli.self_s": ("s", "moves update_s and replace_s on tree"),
    **{f"{layer}.growth": ("ratio", _GROWTH) for layer in LAYERS},
    "trace.overhead": ("ratio", "traced / untraced wall time, same seed"),
    "trace.coverage": ("ratio", "layer self times / traced wall time; ~1"),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Ops:
    """(file, pass) operations attempted and failed, and other problems
    found by the checks, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(reason)

    def problem(self, reason: str) -> None:
        self.problems += 1
        self._note(reason)

    def _note(self, reason: str) -> None:
        if len(self.reasons) < 10:
            self.reasons.append(reason)


class Runner:
    """Spawns child passes inside one work directory."""

    def __init__(self, work: str):
        self.work = work
        self.jobs = 0

    def spawn(self, calls: list[list[str]], trace: bool = False) -> dict:
        self.jobs += 1
        job = os.path.join(self.work, f"job{self.jobs}.json")
        out = os.path.join(self.work, f"result{self.jobs}.json")
        with open(job, "w") as fh:
            json.dump({"calls": calls, "trace": trace}, fh)
        env = dict(os.environ)
        env.pop("TEXTFORGE_NO_CONF", None)  # conf chains are part of the work
        # An installed CLI imports cached bytecode; let the first child
        # write it under src/ so set-up does not include compiling.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        started = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, SRC, job, out],
                                  env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child pass exceeded {CHILD_TIMEOUT} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"child pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(out) as fh:
            result = json.load(fh)
        os.unlink(job)
        os.unlink(out)
        result["setup_s"] = result["ready"] - started
        return result


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _identity(path: str) -> tuple[int, int]:
    st = os.stat(path)
    return st.st_mtime_ns, st.st_ino


def _file_set(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


class Iteration:
    """Runs the passes of one iteration over a workload and checks them
    against the oracle. The working copy is reset in place between
    iterations, which costs less than making a fresh copy each time."""

    def __init__(self, runner: Runner, wl: gen.Workload, name: str, ops: Ops):
        self.runner = runner
        self.wl = wl
        self.ops = ops
        self.pristine = os.path.join(runner.work, f"{name}-pristine")
        self.tree = os.path.join(runner.work, f"{name}-copy")
        self.outs = os.path.join(runner.work, f"{name}-out")
        for root in (self.pristine, self.tree):
            wl.materialize(root)
        self.paths = [os.path.join(self.tree, t) for t in wl.targets]

    def run(self, trace: bool = False, commute: bool = False) -> dict:
        """update, rerun and replace; returns the child results by pass."""
        paths = self.paths
        passes = {"update": self.runner.spawn([paths], trace)}
        self._check_update("update", passes["update"])
        before = [_identity(p) for p in paths]
        passes["rerun"] = self.runner.spawn([paths], trace)
        self._check_update("rerun", passes["rerun"], before)
        passes["replace"] = self._replace(
            [os.path.join(self.pristine, t) for t in self.wl.targets], trace)
        if commute:
            self._replace(paths, False)
        for rel, path in zip(self.wl.targets, paths):
            with open(path, "wb") as fh:
                fh.write(self.wl.files[rel])
        return passes

    def _check_update(self, name: str, result: dict, before: list | None = None) -> None:
        """Each file must match the oracle; with `before`, it must also
        keep its mtime and inode (the rerun writes nothing)."""
        ok = result["codes"] == [0]
        for k, (rel, path) in enumerate(zip(self.wl.targets, self.paths)):
            if before is not None and _identity(path) != before[k]:
                self.ops.record(False, f"{name}: {path} was rewritten")
                continue
            self.ops.record(ok and _read(path) == self.wl.expect_update[rel],
                            f"{name}: {path} differs from the oracle")
        stray = _file_set(self.tree) - set(self.wl.files)
        if stray:
            self.ops.problem(f"{name}: stray files {sorted(stray)[:3]}")

    def _replace(self, inputs: list[str], trace: bool) -> dict:
        """One `main` call per input, each into a new file under outs."""
        shutil.rmtree(self.outs, ignore_errors=True)
        os.makedirs(self.outs)
        outs = [os.path.join(self.outs, f"{k}.out") for k in range(len(inputs))]
        result = self.runner.spawn(
            [["-replace", f"-o={o}", i] for o, i in zip(outs, inputs)], trace)
        for rel, code, out, source in zip(self.wl.targets, result["codes"], outs, inputs):
            self.ops.record(code == 0 and _read(out) == self.wl.expect_replace[rel],
                            f"replace of {source} differs from the oracle")
        return result


def _self_times(results) -> tuple[dict, dict]:
    """Self time (ns) and call count per span name over child results."""
    selfs: dict[str, int] = {}
    calls: dict[str, int] = {}
    for result in results:
        spans = result["spans"]
        covered = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, parent, start, end) in enumerate(spans):
            selfs[name] = selfs.get(name, 0) + end - start - covered[i]
            calls[name] = calls.get(name, 0) + 1
    return selfs, calls


def _busy(selfs: dict) -> dict:
    busy: dict[str, float] = {}
    for name, ns in selfs.items():
        layer = name.split(".", 1)[0]
        busy[layer] = busy.get(layer, 0.0) + ns / 1e9
    return busy


def _write_ratio(result: dict) -> float:
    """Files written / write_if_changed calls in one pass."""
    writes = sum(1 for span in result["spans"] if span[0] == "rewriter.write_if_changed")
    return result["counts"].get("rewriter.files_written", 0) / writes if writes else 0.0


def layer_metrics(full: dict, half: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced iteration (see PER_LAYER)."""
    results = list(full.values())
    selfs, calls = _self_times(results)
    counts: dict[str, int] = {}
    for result in results:
        for key, value in result["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def s(*names):
        return sum(selfs.get(n, 0) for n in names) / 1e9

    busy = _busy(selfs)
    half_busy = _busy(_self_times(half.values())[0])
    wall = sum(r["wall"] for r in results)
    m = {
        "scanner.find_s": s("scanner.find_next_match"),
        "scanner.find_calls": calls.get("scanner.find_next_match", 0),
        "scanner.detect_output_s": s("scanner.detect_output_block"),
        "scanner.output_blocks": counts.get("scanner.output_blocks", 0),
        "scriptlet.tokenize_s": s("scriptlet.tokenize"),
        "scriptlet.tokens": counts.get("scriptlet.tokens", 0),
        "scriptlet.parse_s": s("scriptlet.parse_scriptlet", "scriptlet.parse_expression"),
        "scriptlet.eval_s": s("scriptlet.eval_program", "scriptlet.eval_expression"),
        "scriptlet.programs": calls.get("scriptlet.eval_program", 0),
        "config.find_s": s("config.find_conf_chain"),
        "config.exec_s": s("config.exec_conf_chain"),
        "config.confs_run": counts.get("config.confs_run", 0),
        "styles.detect_s": s("styles.detect_style"),
        "styles.registry_builds": calls.get("styles.builtin_registry", 0),
        "rewriter.write_s": s("rewriter.write_if_changed"),
        "rewriter.files_written": counts.get("rewriter.files_written", 0),
        "rewriter.write_ratio.update": _write_ratio(full["update"]),
        "rewriter.write_ratio.rerun": _write_ratio(full["rerun"]),
        "rewriter.self_s": s("rewriter.process_file"),
        "rewriter.assemble_s": s("rewriter.assemble_update", "rewriter.assemble_replace"),
        "rewriter.infix_s": s("rewriter.choose_infix"),
        "rewriter.indent_s": s("rewriter.indent_output"),
        "rewriter.numbered_fences": counts.get("rewriter.numbered_fences", 0),
        "rewriter.bytes_out": counts.get("rewriter.bytes_out", 0),
        "cli.self_s": busy.get("cli", 0.0),
        "trace.overhead": wall / untraced_wall,
        "trace.coverage": sum(busy.values()) / wall,
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        m[f"{layer}.growth"] = (busy.get(layer, 0.0) / half_busy[layer]
                                if half_busy.get(layer) else 0.0)
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: str) -> tuple[dict, Ops]:
    """Iterate until `seconds` are used; returns the medians and the ops."""
    runner = Runner(work)
    ops = Ops()
    full = Iteration(runner, gen.build(workload, seed), "full", ops)
    if trace:
        half = Iteration(runner, gen.build(workload, seed, HALF), "half", ops)
    runner.spawn([], False)  # compiles textforge's bytecode; not measured

    samples: dict[str, list[float]] = {}
    setups: list[float] = []
    start = time.monotonic()
    k = 0
    while True:
        began = time.monotonic()
        passes = full.run(commute=(k == 0))
        if trace:
            untraced_wall = sum(r["wall"] for r in passes.values())
            traced = full.run(trace=True)
            halved = half.run(trace=True)
            for result in (*traced.values(), *halved.values()):
                if result.get("wrappers_left"):
                    ops.problem(f"{result['wrappers_left']} tracing wrappers left")
                coverage = sum(_busy(_self_times([result])[0]).values()) / result["wall"]
                if not 0.9 <= coverage <= 1.001:
                    ops.problem(f"layer self times cover {coverage:.3f} of the wall time")
            values = layer_metrics(traced, halved, untraced_wall)
        else:
            setups.extend(r["setup_s"] for r in passes.values())
            values = {f"{p}_s": r["wall"] for p, r in passes.items()}
            values["peak_rss_mb"] = max(r["maxrss_kb"] for r in passes.values()) / 1024
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
        k += 1
        now = time.monotonic()
        if now + (now - began) > start + seconds:
            break
    medians = {key: statistics.median(v) for key, v in samples.items()}
    if setups:
        medians["setup_s"] = statistics.median(setups)
    return medians, ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "textforge", "cli.py")):
        print(f"bench: no textforge sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        medians, ops = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    units = ({k: v[0] for k, v in PER_LAYER.items()} if args.trace else END_TO_END)
    for reason in ops.reasons:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"fail_ratio={ops.failed}/{ops.attempted}")
    for name, unit in units.items():
        note = f"  # {PER_LAYER[name][1]}" if args.trace else ""
        print(f"{name:30s} {medians[name]:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": ops.failed == 0 and ops.problems == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": medians[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
