#!/usr/bin/env python3
"""squash end-to-end benchmark.

Run one workload (from the root of the repository):

    python3 perf_e2e/run.py --workload suite-paper --seed 1 --seconds 10 --trace 0

The first invocation configures and builds perf_e2e/driver.cpp against the
squash sources with CMake (Release) into $CARGO_TARGET_DIR/perf_e2e, or
.bench_build/perf_e2e when that variable is unset; later invocations only
rebuild what changed. Build output goes to stderr. The driver then sets up,
runs closed-loop ops for --seconds, and checks every op against
perf_e2e/expected_outputs.tsv.

With --trace 0 the last line of stdout is a JSON object holding every
end_to_end metric of BENCHMARK.json; with --trace 1, every per_layer
metric. The lines before it print the same metrics, plus the op time's
median and p90 with their sample counts, which are reported but not
bounded. The exit code is 0 only when every output was correct and every
check of the run held.

Why the bounded op time is relative: on a shared host, whole runs slow
down by 30-50% for seconds to minutes at a time, so between identical runs
the median and p90 of op seconds move by 15-40%, and even each program's
fastest op by 10-20%. The driver times a fixed reference kernel just before
every op; an op's time in multiples of that kernel moves by 2-7%. So
op_rel.best, the geometric mean over the programs of each one's fastest
op in kernel multiples, is the op time a change is judged by; the seconds
are printed beside it. The set-up is repeated at even intervals over the
run and setup_s is the median.

Other modes:

    python3 perf_e2e/run.py compare BASE CHANGE
        BASE and CHANGE are directories (or files) holding saved stdout of
        untraced runs. Prints, per workload and end-to-end metric, each
        side's median and quartiles and a verdict (better, worse, same or
        unresolved) against the metric's bound in BENCHMARK.json.

    python3 perf_e2e/run.py --generate-expected
        Rewrites perf_e2e/expected_outputs.tsv from the unsquashed baseline
        interpreter.

    python3 -m unittest discover -s perf_e2e/tests
        Self-tests of the statistics and the compare verdict.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

EXPECTED = HERE / "expected_outputs.tsv"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Traced runs: the spans of each op must account for its measured wall
#: time to within this share; the remainder is trace.unattributed_s.
HOST_TIME_TOLERANCE = 0.10

#: Tail percentile reported beside the median of each op timing.
TAIL_Q = 0.9

#: Seconds the driver may take once built (the benchmark must end in 180).
DRIVER_TIMEOUT = 170

TRAP_PATH_SPANS = ("trap.decompress", "trap.create_stub", "region.fill",
                   "decode", "cache.hit")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Building and running the driver
# --------------------------------------------------------------------------

def build_driver():
    """Configures (once) and builds the driver; returns its path or None."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    build = (target if target.is_absolute() else Path.cwd() / target) / "perf_e2e"
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", str(build), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return build / "perf_e2e_driver"


def run_driver(driver, args):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", str(EXPECTED)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT)
    if proc.returncode != 0:
        log(f"perf_e2e: driver exited with code {proc.returncode}")
        return None
    return json.loads(proc.stdout)


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------

def per_group_mean(records, key):
    """Sum of key over each group's records, averaged over the groups that
    have it (a group is one pass over the programs, or one set-up)."""
    sums = defaultdict(float)
    for r in records:
        if key in r["values"]:
            sums[r["group"]] += r["values"][key]
    return sum(sums.values()) / len(sums) if sums else 0.0


def total(records, key):
    return sum(r["values"].get(key, 0.0) for r in records)


def ratio(num, den):
    return num / den if den else 0.0


def per_program_constant(records, key, problems):
    """The value of key for each program; it must be identical every time
    the program ran or was squashed."""
    seen = {}
    for r in records:
        if key not in r["values"]:
            continue
        v = r["values"][key]
        if seen.setdefault(r["program"], v) != v:
            problems.append(f"{key} of {r['program']} changed between "
                            f"repeats ({seen[r['program']]} vs {v})")
    return seen


class Result:
    """Raw driver records of one invocation, split the ways metrics need."""

    def __init__(self, raw):
        self.raw = raw
        self.workload = raw["workload"]
        recs = raw["records"]
        self.records = recs
        self.ops = [r for r in recs if r["op"]]
        self.runs = [r for r in recs if r["kind"] == "run"]
        self.squashes = [r for r in recs if r["kind"] == "squash"]
        self.setups = [r for r in recs if r["kind"] == "setup"]
        self.setup_totals = [r["values"]["setup_s"] for r in recs
                             if r["kind"] == "setup_total"]
        self.baselines = [r for r in recs if r["kind"] == "baseline"]
        self.problems = []
        self.absent = []

    def traced(self, records):
        return [r for r in records if r["traced"]]

    # ---- end-to-end (untraced) ----

    def op_times(self):
        return [r["values"]["wall_s"] for r in self.ops if not r["traced"]]

    def best_per_program(self, measure):
        """Each program's smallest measure(values) over its untraced ops."""
        best = {}
        for r in self.ops:
            if not r["traced"]:
                m = measure(r["values"])
                best[r["program"]] = min(m, best.get(r["program"], m))
        return best

    def end_to_end(self):
        best = self.best_per_program(
            lambda v: v["wall_s"] / v["reference_s"])
        cycles = per_program_constant(self.runs, "cycles", self.problems)
        base = per_program_constant(self.runs, "base_cycles", self.problems)
        foot = per_program_constant(self.squashes, "footprint_bytes",
                                    self.problems)
        orig = per_program_constant(self.squashes, "original_code_bytes",
                                    self.problems)
        per_program_constant(self.squashes, "image_crc", self.problems)
        return {
            "setup_s": stats.median(self.setup_totals),
            "op_rel.best": stats.geomean(list(best.values())),
            "sim_cycles_ratio": stats.geomean(
                [cycles[p] / base[p] for p in cycles]),
            "footprint_ratio": stats.geomean(
                [foot[p] / orig[p] for p in foot]),
            "peak_rss_mb": self.raw["peak_rss_kb"] / 1024.0,
        }

    def unbounded_lines(self):
        """Median and tail of op time, and guest throughput: reported with
        their sample counts, but too noisy on a shared host to bound."""
        times = self.op_times()
        n = len(times)
        p90 = stats.tail_percentile(times, TAIL_Q)
        tail = (f"{p90:16.6g} s        n={n}, "
                f"{stats.samples_beyond(n, TAIL_Q)} beyond" if p90 is not None
                else f"{'-':>16s}          n={n}: fewer than "
                     f"{stats.MIN_BEYOND} samples beyond, not reported")
        minstr = ratio(total(self.runs, "instrs"),
                       total(self.runs, "wall_s")) / 1e6
        best = self.best_per_program(lambda v: v["wall_s"])
        ref = [r["values"]["reference_s"] for r in self.ops
               if not r["traced"]]
        return [
            f"  {'op_s.best (unbounded)':34s} "
            f"{stats.geomean(list(best.values())):16.6g} s        "
            f"geomean of each program's fastest op",
            f"  {'op_s.p50 (unbounded)':34s} {stats.median(times):16.6g} s"
            f"        n={n}",
            f"  {'op_s.p90 (unbounded)':34s} {tail}",
            f"  {'reference kernel (unbounded)':34s} {min(ref):16.6g} s"
            f"        fastest; median {stats.median(ref):.6g} s",
            f"  {'guest_minstr_per_s (unbounded)':34s} {minstr:16.6g} "
            f"Minstr/s over {len(self.runs)} runs",
        ]

    # ---- per layer (traced) ----

    def per_layer(self):
        runs, squashes = self.traced(self.runs), self.traced(self.squashes)
        setups = self.traced(self.setups)
        ops_traced = self.traced(self.ops)
        ops_plain = [r for r in self.ops if not r["traced"]]
        trap_self = sum(total(runs, f"trace.{s}.self_s")
                        for s in TRAP_PATH_SPANS)
        m = {
            "sim.baseline_ns_per_instr": 1e9 * ratio(
                total(self.baselines, "wall_s"),
                total(self.baselines, "instrs")),
            "sim.run_s": per_group_mean(runs, "trace.machine.run.total_s"),
            "runtime.attach_s": per_group_mean(
                runs, "trace.runtime.attach.total_s"),
            "huff.decode_ns_per_instr": 1e9 * ratio(
                total(runs, "huff.decode_s"),
                total(runs, "runtime.decoded_instrs")),
            "runtime.hit_ratio": ratio(total(runs, "runtime.hits"),
                                       total(runs, "runtime.requests")),
            "compact.removed_frac": 1 - ratio(
                total(setups, "compact.output_instrs"),
                total(setups, "compact.input_instrs")),
            "trace.unattributed_s": per_group_mean(
                ops_traced, "trace.unattributed_s"),
            "trace.overhead": ratio(total(ops_traced, "wall_s"),
                                    total(ops_plain, "wall_s")),
            "trace.dropped": total(self.traced(self.records), "trace.dropped"),
            "trace.interpreter_share": ratio(
                total(runs, "trace.machine.run.self_s"),
                total(runs, "wall_s")),
            "trace.trap_path_share": ratio(trap_self, total(runs, "wall_s")),
            "trace.codec_select_rewrite_share": ratio(
                total(squashes, "pass.codec-select_s")
                + total(squashes, "pass.rewrite_s"),
                total(squashes, "wall_s")),
        }
        for key in ("workloads.build_s", "compact.s", "link.layout_s",
                    "sim.profile_s"):
            m[key] = per_group_mean(setups, key)
        self.check_trace()
        return m, runs, squashes

    def per_layer_value(self, name, computed, runs, squashes):
        """Metrics not computed specially are per-pass means of the key of
        the same name, over traced runs or squashes; a name no record
        carries reads 0 and is listed in the report."""
        if name in computed:
            return computed[name]
        source = squashes if name.startswith(
            ("pass.", "huff.encode", "codec.", "size.", "trace.squash.")) \
            else runs
        if not any(name in r["values"] for r in source):
            self.absent.append(name)
        return per_group_mean(source, name)

    def check_trace(self):
        if total(self.records, "trace.dropped"):
            self.problems.append("the span rings dropped spans")
        for r in self.traced(self.ops):
            wall = r["values"]["wall_s"]
            gap = abs(r["values"]["trace.unattributed_s"])
            if gap > HOST_TIME_TOLERANCE * wall:
                self.problems.append(
                    f"{r['kind']} {r['program']} ({r['group']}): spans "
                    f"leave {gap:.6f} s of {wall:.6f} s unattributed "
                    f"(tolerance {HOST_TIME_TOLERANCE:.0%})")


def evaluate(raw, bench, trace):
    """Returns (result line dict, human-readable lines, exit code)."""
    res = Result(raw)
    specs = bench["per_layer" if trace else "end_to_end"]
    if trace:
        computed, runs, squashes = res.per_layer()
        values = {s["name"]: res.per_layer_value(s["name"], computed, runs,
                                                 squashes) for s in specs}
    else:
        computed = res.end_to_end()
        missing = [s["name"] for s in specs if s["name"] not in computed]
        if missing:
            raise KeyError(f"no computation for metrics {missing}")
        values = {s["name"]: computed[s["name"]] for s in specs}

    checked = [r for r in res.records if r["kind"] != "setup_total"]
    failed = [r for r in checked if not r["ok"]]
    for r in failed[:10]:
        res.problems.append(f"FAILED {r['kind']} {r['program']} "
                            f"({r['group']}): {r['error']}")
    correct = not failed and not res.problems

    lines = []
    passes = {r["group"] for r in res.ops}
    times = res.op_times()
    op_name = "squashProgram" if res.workload == "squash-compile" \
        else "runSquashed incl. attach"
    lines.append(f"perf_e2e: workload={res.workload} seed={raw['seed']} "
                 f"trace={raw['trace']} passes={len(passes)} "
                 f"ops={len(res.ops)} (closed loop, 1 caller; op = {op_name})")
    notes = {} if trace else {
        "setup_s": f"median of {len(res.setup_totals)} set-ups "
                   f"(fastest {min(res.setup_totals):.6g} s)",
        "op_rel.best": f"geomean over {len({r['program'] for r in res.ops})} "
                       f"programs of each one's fastest of n={len(times)} "
                       f"ops, in reference-kernel times",
    }
    for s in specs:
        lines.append(f"  {s['name']:34s} {values[s['name']]:16.6g} "
                     f"{s['unit']:8s} {notes.get(s['name'], '')}")
    if not trace:
        lines += res.unbounded_lines()
    lines.append(f"  {'failed_frac':34s} "
                 f"{ratio(len(failed), len(checked)):16.6g} {'':8s} "
                 f"{len(failed)}/{len(checked)} checked calls")
    for name in res.absent:
        lines.append(f"  note: no traced record carries {name}")
    for p in res.problems:
        lines.append(f"  problem: {p}")

    result = {
        "correct": correct,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }
    return result, lines, 0 if correct else 1


# --------------------------------------------------------------------------
# Compare mode
# --------------------------------------------------------------------------

def load_results(path):
    """workload -> list of (seed, metrics) from saved stdout files."""
    files = sorted(Path(path).rglob("*")) if Path(path).is_dir() \
        else [Path(path)]
    out = defaultdict(list)
    for f in files:
        if not f.is_file():
            continue
        lines = f.read_text().strip().splitlines()
        header = next((ln for ln in lines if ln.startswith("perf_e2e:")),
                      None)
        if not header or not lines:
            continue
        fields = dict(kv.split("=", 1) for kv in header.split()[1:4])
        if fields.get("trace") != "0":
            continue
        result = json.loads(lines[-1])
        out[fields["workload"]].append(
            (int(fields["seed"]),
             {k: v["value"] for k, v in result["metrics"].items()}))
    for runs in out.values():
        runs.sort(key=lambda sv: sv[0])
    return out


def compare(base_path, change_path, bench):
    """Prints one row per workload and end-to-end metric; returns 1 when
    any verdict is "worse"."""
    base, change = load_results(base_path), load_results(change_path)
    row = "{:15s} {:18s} {:34s} {:34s} {:>8s}  {}"
    print(row.format("workload", "metric", "base median [q1, q3]",
                     "change median [q1, q3]", "delta", "verdict"))
    worse = False
    for workload in sorted(set(base) | set(change)):
        b_runs, c_runs = base.get(workload, []), change.get(workload, [])
        if not b_runs or not c_runs:
            print(f"{workload:15s} (runs on one side only)")
            continue
        for spec in bench["end_to_end"]:
            name = spec["name"]
            b = [m[name] for _, m in b_runs if name in m]
            c = [m[name] for _, m in c_runs if name in m]
            if not b or not c:
                continue
            v = stats.verdict(b, c, spec["better"], spec["bound"])
            worse |= v == "worse"
            bq, cq = stats.quartiles(b), stats.quartiles(c)
            delta = (cq[1] - bq[1]) / bq[1] if bq[1] else math.nan
            print(row.format(
                workload, name,
                f"{bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]",
                f"{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]",
                f"{delta:+.2%}",
                f"{v} (bound {spec['bound']:.0%}, n={len(b)}/{len(c)})"))
    return 1 if worse else 0


# --------------------------------------------------------------------------

def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare BASE CHANGE")
            return 2
        return compare(argv[1], argv[2], load_benchmark())

    ap = argparse.ArgumentParser(description="squash end-to-end benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--generate-expected", action="store_true")
    args = ap.parse_args(argv)

    try:
        bench = load_benchmark()
    except (OSError, ValueError) as e:
        log(f"perf_e2e: cannot read {BENCHMARK_JSON}: {e}")
        return 2
    names = [w["name"] for w in bench["workloads"]]
    if not args.generate_expected and args.workload not in names:
        log(f"perf_e2e: --workload must be one of {names}")
        return 2

    driver = build_driver()
    if driver is None:
        log("perf_e2e: build failed")
        return 2
    if args.generate_expected:
        out = subprocess.run([str(driver), "--generate-expected"],
                             stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            return out.returncode
        EXPECTED.write_text(out.stdout)
        log(f"perf_e2e: wrote {EXPECTED}")
        return 0

    raw = run_driver(driver, args)
    if raw is None:
        return 2
    result, lines, code = evaluate(raw, bench, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
