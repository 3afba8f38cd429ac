"""End-to-end benchmark of `vortexlab run` on three canonical pipelines.

    python3 perfbench/run.py --workload dichotomy-ez --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the repository root; the program is imported from ./src.  Each
repetition is a fresh child process (perfbench/child.py, which calls
`vortexlab.cli.main(["run", config])`), started one at a time from this
process, with a fixed environment and one BLAS thread.  Before each
repetition a set-up probe process imports the CLI and loads the config,
then exits.  Repetitions continue until --seconds is spent (at least two,
so that artifacts can be compared byte for byte).

--trace 0 reports the end-to-end metrics: median wall time of a run
(e2e_s), median time from spawn to the entry of `cli.run` (setup_s, over
probes and runs), median child peak RSS (peak_rss_mb) and the share of runs
that passed the output check (pass_frac = 1 - fail_frac).  --trace 1
alternates traced and plain runs and reports per-layer spans and counters
of the package's public functions, plus the tracing overhead.

Every run is checked: exit code 0, the exact artifact set, no invariant
failures, final residuals <= 1e-10, develop errors under recorded bounds,
field summaries equal to the recorded seed-0 reference, every artifact
byte-identical across the runs (report.json without its timing block), and
every deterministic counter repeating exactly.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS, check_run, check_summaries, digests, make_config, summaries

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_RUNS = 2
HARD_LIMIT_S = 165.0  # a run of this script must end within 180 s
THREADS = "1"

SPAN_TIMES = (
    "entire.log_abs",
    "entire.eval",
    "entire.zeros",
    "grid.residual",
    "grid.rhs_prime",
    "grid.write_field_csv",
    "solve.solve_complete",
    "solve.two_solutions",
    "invariants.checks",
    "invariants.completeness_probe",
    "invariants.write_rays_csv",
    "surfaces.normalize",
    "surfaces.develop",
    "surfaces.holonomy_defect",
    "surfaces.reconstruct_metric",
    "surfaces.export_mesh",
    "surfaces.write_gauss_csv",
    "cli.load_config",
    "cli.run",
)
SPAN_CALLS = ("entire.log_abs", "entire.eval", "grid.residual", "grid.rhs_prime", "solve.solve_newton")
SPAN_SELF = ("solve.solve_newton", "cli.run")
SPAN_BYTES = (
    "grid.write_field_csv",
    "invariants.write_rays_csv",
    "surfaces.export_mesh",
    "surfaces.write_gauss_csv",
)

# deterministic counters; each must repeat exactly across the runs of a workload
COUNTERS = (
    "solve.newton_steps",
    "solve.rungs",
    "solve.stabilized",
    "solve.backtracks",
    "solve.cg_iterations",
    "grid.residual.calls",
    "grid.rhs_prime.calls",
    "solve.solve_newton.calls",
    "entire.log_abs.calls",
    "entire.eval.calls",
    "surfaces.develop_nodes",
    "invariants.failed",
    "cli.artifact_bytes",
)


def child_env() -> dict:
    env = {
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C",
        "PATH": os.defpath,
    }
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VORTEXLAB_THREADS"):
        env[key] = THREADS
    return env


def spawn(rundir: str, mode: str, timeout: float) -> dict:
    """Start one child in rundir, wait for it, return times, status and rusage."""
    args = [sys.executable, CHILD, "config.json", "record.json"] + ([mode] if mode else [])
    with open(os.path.join(rundir, "stdout.txt"), "wb") as out, open(
        os.path.join(rundir, "stderr.txt"), "wb"
    ) as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            args, cwd=rundir, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    try:
        with open(os.path.join(rundir, "record.json")) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        pass
    entry = record.get("run_entry")
    return {
        "wall_s": t1 - t0,
        "setup_s": None if entry is None else entry - t0,
        "exit": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "record": record,
    }


def fresh_dir(name: str, cfg: dict) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    with open(os.path.join(path, "config.json"), "w") as fh:
        json.dump(cfg, fh)
    return path


def stderr_tail(rundir: str) -> str:
    with open(os.path.join(rundir, "stderr.txt"), errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def layer_metrics(spans: list, import_s: float) -> dict:
    """Per-layer seconds, self seconds, calls and counters from one traced run."""
    incl, self_s, calls, extra = {}, {}, {}, {}
    child_s = [0.0] * len(spans)
    for name, start, end, parent, counts in spans:
        if parent is not None:
            child_s[parent] += end - start
    for idx, (name, start, end, parent, counts) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[idx]
        up = parent
        while up is not None and spans[up][0] != name:
            up = spans[up][3]
        if up is None:  # not nested in a span of the same name
            incl[name] = incl.get(name, 0.0) + (end - start)
        for key, value in counts.items():
            extra[(name, key)] = extra.get((name, key), 0) + value
    m = {"cli.import.s": import_s}
    for name in SPAN_TIMES:
        m[name + ".s"] = incl.get(name, 0.0)
    for name in SPAN_CALLS:
        m[name + ".calls"] = calls.get(name, 0)
    for name in SPAN_SELF:
        m[name + ".self_s"] = self_s.get(name, 0.0)
    for name in SPAN_BYTES:
        m[name + ".bytes"] = extra.get((name, "bytes"), 0)
    steps = extra.get(("solve.solve_newton", "newton_steps"), 0)
    backtracks = extra.get(("solve.solve_newton", "backtracks"), 0)
    m["solve.newton_steps"] = steps
    m["solve.backtracks"] = backtracks
    m["solve.cg_iterations"] = extra.get(("solve.solve_newton", "cg_iterations"), 0)
    m["solve.rungs"] = extra.get(("solve.solve_complete", "rungs"), 0)
    ladders = calls.get("solve.solve_complete", 0)
    stabilized = extra.get(("solve.solve_complete", "stabilized"), 0)
    m["solve.stabilized"] = int(ladders > 0 and stabilized == ladders)
    # no step taken means no step rejected
    m["solve.step_accept_ratio"] = steps / (steps + backtracks) if steps + backtracks else 1.0
    m["solve.s_per_newton_step"] = m["solve.solve_newton.self_s"] / steps if steps else 0.0
    m["surfaces.develop_nodes"] = extra.get(("surfaces.develop", "develop_nodes"), 0)
    return m


def out_counters(out: str) -> dict:
    """Counters read from the artifacts of a run (traced or not).  The byte
    count leaves out report.json, whose timing block varies in length."""
    with open(os.path.join(out, "invariants.json")) as fh:
        failed = len(json.load(fh)["failures"])
    size = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out) if f != "report.json")
    return {"invariants.failed": failed, "cli.artifact_bytes": size}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    cfg = make_config(wl, seed)
    start = time.monotonic()
    hard_end = start + HARD_LIMIT_S

    warm = spawn(fresh_dir("probe", cfg), "--setup-only", HARD_LIMIT_S)
    if warm["exit"] != 0 or warm["setup_s"] is None:
        raise SystemExit(
            "perfbench: vortexlab cannot be started from %s: %s"
            % (os.path.join(ROOT, "src"), stderr_tail(os.path.join(WORK, "probe")))
        )
    env = warm["record"]["env"]

    setup, runs, reference_digests, summary = [], [], None, None
    counter_sets = {}
    while True:
        now = time.monotonic()
        cost = statistics.median(r["cost_s"] for r in runs) if runs else 0.0
        if len(runs) >= MIN_RUNS and now + cost > start + seconds:
            break
        if runs and now + cost > hard_end:
            break
        traced = trace and len(runs) % 2 == 0
        t0 = time.monotonic()
        probe = spawn(fresh_dir("probe", cfg), "--setup-only", hard_end - now)
        if probe["exit"] == 0 and probe["setup_s"] is not None:
            setup.append(probe["setup_s"])
        rundir = fresh_dir("run", cfg)
        r = spawn(rundir, "--trace" if traced else "", hard_end - time.monotonic())
        os.sync()  # write the artifacts back now, not during the next run
        r["traced"] = traced
        out = os.path.join(rundir, "out")
        problems = []
        if r["exit"] != 0:
            problems.append("exit %s: %s" % (r["exit"], stderr_tail(rundir)))
        else:
            problems += check_run(wl, out)
        if not problems:
            if r["setup_s"] is not None:
                setup.append(r["setup_s"])
            got = digests(out)
            if reference_digests is None:
                reference_digests = got
                summary = summaries(wl, cfg, out)
                problems += check_summaries(wl, summary)
            else:
                problems += [
                    "%s differs from the first run" % f
                    for f in sorted(set(got) | set(reference_digests))
                    if got.get(f) != reference_digests.get(f)
                ]
            counters = out_counters(out)
            if traced:
                missing = r["record"].get("missing", [])
                if missing:
                    problems.append("traced functions missing: %s" % ", ".join(missing))
                r["layers"] = layer_metrics(r["record"]["spans"], r["record"]["import_s"])
                r["layers"].update(counters)
                counters = {k: r["layers"][k] for k in COUNTERS}
            for key, value in counters.items():
                first = counter_sets.setdefault(key, value)
                if value != first:
                    problems.append("counter %s = %r, first run %r" % (key, value, first))
        r.pop("record")
        r["problems"] = problems
        r["cost_s"] = time.monotonic() - t0
        runs.append(r)
    shutil.rmtree(os.path.join(WORK, "run"), ignore_errors=True)
    shutil.rmtree(os.path.join(WORK, "probe"), ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "quarter_turns": seed % 4,
        "phi": cfg["phi"],
        "trace": int(trace),
        "elapsed_s": time.monotonic() - start,
        "env": dict(machine(), **env),
        "setup_samples": setup,
        "runs": runs,
        "counters": counter_sets,
        "summary": summary,
    }


def median_of(runs: list, key: str) -> tuple:
    """(median, sample count); 0.0 when there is no sample, which only
    happens when runs failed, and then the result is not correct anyway."""
    values = [r[key] for r in runs if r[key] is not None]
    return (statistics.median(values) if values else 0.0), len(values)


def end_to_end(result: dict) -> dict:
    runs = result["runs"]
    ok = [r for r in runs if not r["problems"]] or runs
    plain = [r for r in ok if not r["traced"]]
    e2e, n_e2e = median_of(plain, "wall_s")
    rss, n_rss = median_of(plain, "peak_rss_mb")
    setup = result["setup_samples"]
    passed = sum(1 for r in runs if not r["problems"])
    return {
        "e2e_s": (e2e, "s", n_e2e),
        "setup_s": (statistics.median(setup) if setup else 0.0, "s", len(setup)),
        "peak_rss_mb": (rss, "MB", n_rss),
        "pass_frac": (passed / len(runs), "frac", len(runs)),
    }


def per_layer(result: dict, units: dict) -> dict:
    """Median over the traced runs of every metric BENCHMARK.json lists."""
    runs = result["runs"]
    traced = [r for r in runs if r["traced"] and "layers" in r]
    plain = [r for r in runs if not r["traced"]]
    out = {}
    for key, unit in units.items():
        if traced and key != "trace_overhead_frac":
            values = [r["layers"][key] for r in traced]
            out[key] = (statistics.median(values), unit, len(values))
    t_traced, n_traced = median_of(traced, "wall_s")
    t_plain, n_plain = median_of(plain, "wall_s")
    overhead = t_traced / t_plain - 1.0 if n_traced and n_plain else 0.0
    out["trace_overhead_frac"] = (overhead, "frac", min(n_traced, n_plain))
    return out


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            parts = []
            for field in ("level", "type", "size"):
                with open(os.path.join(base, idx, field)) as fh:
                    parts.append(fh.read().strip())
            caches.append("L%s %s %s" % tuple(parts))
        except OSError:
            continue
    info["caches"] = caches
    info["child_threads_env"] = THREADS
    return info


def load_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_table(result: dict, metrics: dict) -> None:
    head = "%s seed %d (phi turned %d quarter turns) trace %d: %d runs in %.1f s" % (
        result["workload"],
        result["seed"],
        result["quarter_turns"],
        result["trace"],
        len(result["runs"]),
        result["elapsed_s"],
    )
    print(head)
    print("  phi %s" % json.dumps(result["phi"], sort_keys=True))
    for key, (value, unit, count) in metrics.items():
        print("  %-34s %14.6g %-6s n=%d" % (key, value, unit, count))
    runs = result["runs"]
    failed = sum(1 for r in runs if r["problems"])
    print("  %-34s %14.6g %-6s n=%d" % ("fail_frac", failed / len(runs), "frac", len(runs)))
    for i, r in enumerate(runs):
        print(
            "  run %d %s wall %.3f s setup %s s rss %.1f MB cpu %.3f s %s"
            % (
                i,
                "traced" if r["traced"] else "plain ",
                r["wall_s"],
                "-" if r["setup_s"] is None else "%.3f" % r["setup_s"],
                r["peak_rss_mb"],
                r["cpu_s"],
                "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"]),
            )
        )
    print("  counters %s" % json.dumps(result["counters"], sort_keys=True))
    print("  summary %s" % json.dumps(result["summary"], sort_keys=True))
    print("  env %s" % json.dumps(result["env"], sort_keys=True))


def verdict(results: list, metrics: dict) -> dict:
    runs = [r for res in results for r in res["runs"]]
    failed = sum(1 for r in runs if r["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vortexlab", "cli.py")):
        print("perfbench: no vortexlab sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    units = load_layer_units()
    os.makedirs(WORK, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results, combined = [], {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        metrics = per_layer(result, units) if args.trace else end_to_end(result)
        print_table(result, metrics)
        results.append(result)
        prefix = "" if len(names) == 1 else name + "."
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(verdict(results, combined)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
