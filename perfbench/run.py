"""End-to-end benchmark of the nbx command line.

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Runs the workload's commands (see ``workloads.py``) one after another, each
in a fresh ``python -m nbx.cli`` process with ``PYTHONPATH=src``: a closed
loop with one client and never more than one child at a time.  Passes over
the commands repeat until ``--seconds`` have gone by (at least one pass).
Every output is checked by ``checks.py``, which uses no nbx code.

``--trace 0`` reports the end-to-end metrics: medians over the passes of
the summed wall and CPU time and of the largest resident set, and the
median time for a fresh interpreter to import ``nbx.cli`` (``setup_s``).
``--trace 1`` alternates untraced passes with passes whose commands run
under ``trace_child.py`` and reports the per-layer metrics instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the inputs, per-command figures, repeat-checked counts and provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from checks import CheckFailed
from trace_child import COUNT_NAMES, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15
COMMAND_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
    units.update(dict.fromkeys(COUNT_NAMES, "count"))
    units.update({"search.nodes_per_s": "1/s", "families.pairs_per_s": "1/s",
                  "bounds.cells_per_s": "1/s", "cli.bytes_out": "bytes", "cli.import_s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


class SetupFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    """The environment every command sees: no NBX_* knobs, no inherited
    PYTHON* settings (so bytecode is cached as for any user), a fixed hash
    seed, and nbx from ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("NBX_", "PYTHON"))}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


class Launcher:
    """Runs commands one at a time through ``launcher.py``, so that their
    peak RSS is not inflated by this process's own."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], out: Path, err: Path) -> dict:
        """Run one command to its exit; see ``launcher.run`` for the reply.
        Adds ``scale``, the factor that converts its running time to the
        reference speed, and ``span_scale``, the factor that does the same
        for times taken inside the command, which include the pauses."""
        req = {"argv": [sys.executable, *argv], "env": self.env, "out": str(out), "err": str(err),
               "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        reply["scale"] = reply["ref_wall_s"] / reply["wall_s"]
        reply["span_scale"] = reply["ref_wall_s"] / (reply["wall_s"] + reply["paused_s"])
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def measure_setup(launcher: Launcher, work: Path) -> list[float]:
    """Wall times of fresh interpreters that import nbx.cli and exit, after
    one unmeasured import that fills the bytecode cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        res = launcher.run(["-c", "import nbx.cli"], work / "setup.out", work / "setup.err")
        if res["status"] != 0:
            raise SetupFailed((work / "setup.err").read_text(errors="replace").strip())
        if i:
            samples.append(res["ref_wall_s"])
    return samples


def run_pass(cmds: list, launcher: Launcher, work: Path, traced: bool) -> dict:
    """One pass over the commands; each record holds its figures, the facts
    its check returned, and the error that failed it, if any."""
    state: dict = {}
    records = []
    for i, cmd in enumerate(cmds):
        out, err, spans = work / f"{i}.out", work / f"{i}.err", work / f"{i}.spans.json"
        if traced:
            argv = [str(HERE / "trace_child.py"), str(spans), *cmd.args]
        else:
            argv = ["-m", "nbx.cli", *cmd.args]
        res = launcher.run(argv, out, err)
        rec = {"name": cmd.name, "wall_s": res["ref_wall_s"], "cpu_s": res["cpu_s"] * res["scale"],
               "raw_wall_s": res["wall_s"], "scale": res["scale"],
               "span_scale": res["span_scale"], "rss_kib": res["rss_kib"],
               "bytes_out": out.stat().st_size, "facts": {}, "error": None}
        try:
            if res["status"] != cmd.exit_code:
                raise CheckFailed(f"exit status {res['status']}, expected {cmd.exit_code}")
            stderr = err.read_text(errors="replace").strip()
            if stderr:
                raise CheckFailed(f"stderr: {stderr[-300:]}")
            rec["facts"] = cmd.check(out.read_text(encoding="utf-8"), state)
            if traced:
                rec["trace"] = json.loads(spans.read_text())
        except Exception as exc:  # any malformed output fails this command only
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return {"traced": traced, "commands": records,
            "wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": max(r["rss_kib"] for r in records) / 1024}


def check_repeats(passes: list[dict]) -> None:
    """The facts each check returned (node counts, violation counts, ...)
    must be the same in every pass, and the trace counts in every traced
    pass; a command that differs from the first such pass fails."""
    def compare(ref_cmds: list, cmds: list, key) -> None:
        for ref, rec in zip(ref_cmds, cmds):
            if rec["error"] is None and ref["error"] is None and key(rec) != key(ref):
                rec["error"] = f"{key(rec)} differs from the first pass: {key(ref)}"

    for p in passes[1:]:
        compare(passes[0]["commands"], p["commands"], lambda r: r["facts"])
    traced = [p["commands"] for p in passes if p["traced"]]
    for cmds in traced[1:]:
        compare(traced[0], cmds, lambda r: r["trace"]["counts"])


def _rate(count: float, secs: float) -> float:
    return count / secs if secs > 0 else 0.0


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass: calls, total and self time of
    each span name, the counts, and rates derived from them."""
    stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    counts = dict.fromkeys(COUNT_NAMES, 0)
    imports = []
    for rec in p["commands"]:
        trace = rec.get("trace")
        if trace is None:
            continue
        spans, scale = trace["spans"], rec["span_scale"]
        covered = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, _, start, end), child in zip(spans, covered):
            s = stats[name]
            s[0] += 1
            s[1] += (end - start) * scale
            s[2] += (end - start - child) * scale
        for key, value in trace["counts"].items():
            counts[key] += value
        imports.append(trace["import_s"] * scale)
    out: dict[str, float] = {}
    for name, (calls, total, self_s) in stats.items():
        out.update({f"{name}.calls": calls, f"{name}.total_s": total, f"{name}.self_s": self_s})
    out.update(counts)
    out["search.nodes_per_s"] = _rate(counts["search.nodes"], stats["search.max_family"][1])
    out["families.pairs_per_s"] = _rate(counts["families.pairs"],
                                        stats["families.verify_neighborly"][1])
    out["bounds.cells_per_s"] = _rate(counts["bounds.cells"], stats["bounds.bounds_table"][1])
    out["cli.bytes_out"] = sum(r["bytes_out"] for r in p["commands"])
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the nbx CLI.")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nbx" / "cli.py").is_file():
        print(f"error: no nbx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    launcher = None
    try:
        launcher = Launcher(child_env())
        try:
            setup = measure_setup(launcher, work)
        except SetupFailed as exc:
            print(f"error: importing nbx.cli failed: {exc}", file=sys.stderr)
            return 1
        cmds, inputs = workloads.build(args.workload, args.seed, work)
        passes = []
        deadline = perf_counter() + args.seconds
        while True:
            passes.append(run_pass(cmds, launcher, work, traced=False))
            if args.trace:
                passes.append(run_pass(cmds, launcher, work, traced=True))
            if perf_counter() >= deadline:
                break
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    check_repeats(passes)
    records = [r for p in passes for r in p["commands"]]
    failed = sum(r["error"] is not None for r in records)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                          / statistics.median(p["wall_s"] for p in plain))
        units = per_layer_units()
    else:
        values = {name: statistics.median(p[name] for p in plain)
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup)
        units = END_TO_END

    def per_command(i: int) -> dict:
        runs = [p["commands"][i] for p in plain]
        out = {key: statistics.median(r[key] for r in runs)
               for key in ("wall_s", "cpu_s", "raw_wall_s", "scale")}
        out.update(name=cmds[i].name, rss_mb=max(r["rss_kib"] for r in runs) / 1024,
                   bytes_out=runs[0]["bytes_out"], facts=runs[0]["facts"],
                   errors=[p["commands"][i]["error"] for p in passes if p["commands"][i]["error"]])
        return out

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "commit": git_commit(), "inputs": inputs, "passes": len(passes),
        "setup_samples_s": setup, "error_rate": failed / len(records),
        "commands": [per_command(i) for i in range(len(cmds))],
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
