"""Repo benchmark for chainmail: one workload per run, metrics as JSON.

    python3 perfbench/run.py --workload census8 --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  ``--trace 0`` times whole passes and prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and prints
the per-layer metrics.  Every pass's outputs go through the invariant
gate outside the timers.  The last line of standard output is the JSON
result; the lines before it are the full record, with units, quartiles,
sample counts and the run context.  Exit status: 0 ok, 1 an invariant
failed, 2 the package source is missing, 3 usage error.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import chainmail; "
                "print(time.perf_counter() - t)")


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def percentile(xs, q):
    """Nearest-rank percentile: at 900 samples p98 leaves 18 beyond it."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def peak_rss_mb():
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


# -- context ----------------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def context(workload):
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "commit": git_commit(),
            "src_lines": src_lines(), "jobs": workload.jobs}


# -- set-up and passes -------------------------------------------------------------

def import_seconds():
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout)


def set_up(workload, pops, seed, tmp_dir):
    """Import plus population build, SETUP_REPEATS times; median and state."""
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = perf_counter()
        state = workload.setup(pops, random.Random(seed), tmp_dir)
        times.append(imported + perf_counter() - t0)
    return statistics.median(times), state


def timed_pass(workload, state):
    """(output, wall, cpu) of one untraced pass."""
    workload.prepare(state)
    c0 = cpu_seconds()
    t0 = perf_counter()
    output = workload.run(state)
    wall = perf_counter() - t0
    return output, wall, cpu_seconds() - c0


def traced_pass(workload, state, tmp_dir):
    workload.prepare(state)
    tr = tracer.Tracer(tmp_dir)
    tr.install()
    try:
        t0 = tr.root()
        output = workload.run(state)
        wall, harness_self = tr.close_root(t0)
    finally:
        tr.uninstall()
    tr.merge_worker_dumps()
    return output, wall, harness_self, tr


def layer_metrics(tr, output, suite_names, traced_wall, harness_self,
                  untraced_wall, core_util):
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    get = tr.get
    canon = get("canonical", "canonical_labeling")
    walks = get("enumeration", "enumerate_posets").calls
    # every walk starts at the one-element poset; every other visited
    # class is a child the acceptance test kept
    roots = (walks + get("enumeration", "count_chainmails").calls
             + get("enumeration", "emit_catalog").calls)
    visited = get("enumeration", "_accepted").hits + roots
    hom = [get("category", name) for name in
           ("monotone_tables", "chainmail_morphism_tables",
            "join_preserving_tables", "connectivity_hom_tables")]
    checks = get("verify", "check_adjunction_bijection").durations
    m = {
        "canonical.calls": (canon.calls, "count"),
        "canonical.colored_calls": (canon.hits, "count"),
        "canonical.self_s": (tr.layer_self("canonical"), "s"),
        "canonical.us_per_call": (
            ratio(canon.self, canon.calls) * 1e6, "us"),
        "enumeration.self_s": (tr.layer_self("enumeration"), "s"),
        "enumeration.visited": (visited, "count"),
        "enumeration.labelings_per_visited": (
            ratio(canon.calls, visited), "ratio"),
        "enumeration.walks": (walks, "count"),
        "enumeration.core_util": (core_util, "ratio"),
    }
    for name, fn in (("is_chainmail", "poset_is_chainmail"),
                     ("d_lattice", "d_lattice"),
                     ("as_chainmail", "as_chainmail")):
        st = get("mails", fn)
        m[f"mails.{name}_calls"] = (st.calls, "count")
        m[f"mails.{name}_self_s"] = (st.self, "s")
    m["lattice.calls"] = (sum(st.calls for (lay, _), st in tr.stats.items()
                              if lay == "lattice"), "count")
    m["lattice.self_s"] = (tr.layer_self("lattice"), "s")
    for fn in ("d_on_morphism", "k_on_morphism", "k_chainmail",
               "validate_map"):
        st = get("category", fn)
        m[f"category.{fn}_calls"] = (st.calls, "count")
        m[f"category.{fn}_self_s"] = (st.self, "s")
    m["category.hom_enum_self_s"] = (sum(st.self for st in hom), "s")
    m["category.hom_keep_ratio"] = (ratio(hom[3].yields, hom[2].yields),
                                    "ratio")
    m["category.mail_keep_ratio"] = (ratio(hom[1].yields, hom[0].yields),
                                     "ratio")
    m["category.self_s"] = (tr.layer_self("category"), "s")
    m["verify.self_s"] = (tr.layer_self("verify"), "s")
    m["verify.bijection_self_s"] = (
        get("verify", "check_adjunction_bijection").self, "s")
    m["verify.check_p50_ms"] = (
        percentile(checks, 50) * 1e3 if checks else 0.0, "ms")
    m["verify.check_p98_ms"] = (
        percentile(checks, 98) * 1e3 if checks else 0.0, "ms")
    suite_s = output.get("suite_s", {})
    for name in suite_names:
        m[f"verify.suite_s.{name}"] = (suite_s.get(name, 0.0), "s")
    st = get("poset", "to_dot")
    m["poset.to_dot_calls"] = (st.calls, "count")
    m["poset.to_dot_self_s"] = (st.self, "s")
    m["catalog.bytes"] = (output.get("catalog_bytes", 0), "bytes")
    m["tracing.wall_s"] = (traced_wall, "s")
    m["tracing.untraced_wall_s"] = (untraced_wall, "s")
    m["tracing.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["tracing.layers_self_s"] = (
        sum(tr.layer_self(layer) for layer in tracer.TRACED), "s")
    m["tracing.harness_self_s"] = (harness_self, "s")
    return m


def ratio(a, b):
    return a / b if b else 0.0


# -- reporting -----------------------------------------------------------------------

def print_record(out, workload, args, metrics, detail, gate, ctx):
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}", file=out)
    for name, (value, unit) in metrics.items():
        extra = detail.get(name, "")
        print(f"  {name:40s} {value:>16.6g} {unit:6s} {extra}", file=out)
    frac = ratio(gate.failed, gate.attempted)
    print(f"  {'fail_frac':40s} {frac:>16.6g} {'ratio':6s} "
          f"failed={gate.failed} attempted={gate.attempted}", file=out)
    for message in gate.messages[:20]:
        print(f"  FAILED {message}", file=out)
    print("  context " + json.dumps(ctx, sort_keys=True), file=out)


def run(args, pops, out, workloads):
    wl = workloads.WORKLOADS[args.workload]
    gate = workloads.Gate()
    tmp_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s, state = set_up(wl, pops, args.seed, tmp_dir)
        if args.trace:
            output, untraced, cpu = timed_pass(wl, state)
            wl.check(pops, state, output, gate)
            core_util = cpu / (wl.jobs * untraced)
            output, wall, harness_self, tr = traced_pass(wl, state, tmp_dir)
            wl.check(pops, state, output, gate)
            metrics = layer_metrics(tr, output, workloads.SUITE_NAMES, wall,
                                    harness_self, untraced, core_util)
            detail = {}
        else:
            metrics, detail = measure(wl, pops, state, gate, args.seconds,
                                      setup_s)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    print_record(out, wl, args, metrics, detail, gate, context(wl))
    result = {"correct": gate.ok(), "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), file=out)
    return 0 if gate.ok() else 1


def measure(wl, pops, state, gate, seconds, setup_s):
    """Whole passes until ``seconds`` would be exceeded; at least one."""
    walls, cpus, latencies = [], [], []
    start = perf_counter()
    while True:
        output, wall, cpu = timed_pass(wl, state)
        wl.check(pops, state, output, gate)
        walls.append(wall)
        cpus.append(cpu)
        latencies.extend(output.get("latencies", ()))
        if perf_counter() - start + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {}
    for name, xs in (("wall_s", walls), ("cpu_s", cpus)):
        q1, q3 = quartiles(xs)
        detail[name] = f"q1={q1:.6g} q3={q3:.6g} n={len(xs)}"
    utils = [c / (wl.jobs * w) for c, w in zip(cpus, walls)]
    detail["cpu_s"] += f" core_util={statistics.median(utils):.4g}"
    if latencies:
        detail["wall_s"] += (
            f" check_p50_ms={percentile(latencies, 50) * 1e3:.6g}"
            f" check_p98_ms={percentile(latencies, 98) * 1e3:.6g}"
            f" checks={len(latencies)}")
    return metrics, detail


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(3)


def parse_args(argv):
    parser = _Parser(prog="perfbench/run.py", description=__doc__.split(
        "\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args, parser


def main(argv=None, pops=None, out=None):
    """Run one workload; ``pops`` replaces the full populations in tests."""
    out = out or sys.stdout
    args, parser = parse_args(argv)
    if not (ROOT / "src" / "chainmail" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'chainmail'}",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    return run(args, pops or workloads.FULL, out, workloads)


if __name__ == "__main__":
    sys.exit(main())
