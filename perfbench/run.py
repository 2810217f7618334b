#!/usr/bin/env python3
"""Repo benchmark: `tstream-bench run` end to end, plus a traced layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quick-cold --seed 1 --seconds 15 --trace 0

The first run builds the tree (Release, without tests) and the layer
probe into $CARGO_TARGET_DIR (default `.bench_build`). Scratch files go
to `.bench_run/`. Workloads, metrics and their expected movements are
described in perfbench/README.md.

With --trace 0 the benchmark sets up the workload, then runs the CLI
command closed-loop (one command at a time, from this process) until
--seconds have passed, at least once. Every timed run is checked
against the committed reference report. The end-to-end metrics are
medians over the timed runs.

With --trace 1 it runs each bench binary alone, one CLI run with
--telemetry-out, and the layer probe (perfbench/layer_probe.cc) with
and without its spans, then prints the per-layer metrics and
reconciles the probe's counts with the CLI's telemetry.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
JOBS = 3  # the CLI's --jobs; layer_probe.cc's kJobs matches it
DEADLINE_S = 170.0  # a run (after the build) must end within this
SETUP_REPS = 9  # set-ups per cold run; setup_s is their median

BENCHES = [  # `tstream-bench run ... all`, in its order
    ("fig1", "fig1_miss_classification"),
    ("fig2", "fig2_stream_fraction"),
    ("fig3", "fig3_stride_breakdown"),
    ("fig4", "fig4_length_reuse"),
    ("table3", "table3_web_origins"),
    ("table4", "table4_oltp_origins"),
    ("table5", "table5_dss_origins"),
    ("table6", "table6_scenario_origins"),
    ("ablation_a", "ablation_stream_detector"),
    ("ablation_b", "ablation_l2_sweep"),
    ("ext", "ext_prefetcher"),
]

# workload -> (CLI flags, bench aliases, warm cache?, reference report)
WORKLOADS = {
    "quick-cold": (["--quick"], "all", False, "quick_all.json"),
    "quick-warm": (["--quick"], "all", True, "quick_all.json"),
    "paper-fig2-cold": ([], "fig2", False, "paper_fig2.json"),
}

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "trace_cache_mb": "MB",
}

LAYER_UNITS = {
    "sim.calls": "count",
    "sim.busy_s": "s",
    "sim.instructions": "count",
    "sim.misses": "count",
    "sim.minstr_per_s": "Minstr/s",
    "sim.ns_per_miss": "ns",
    "sim.rss_rise_mb": "MB",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "trace.store_s": "s",
    "trace.load_s": "s",
    "trace.bytes": "bytes",
    "trace.bytes_per_miss": "bytes",
    "trace.load_mrec_per_s": "Mrec/s",
    "analysis.calls": "count",
    "analysis.busy_s": "s",
    "analysis.ns_per_miss": "ns",
    "analysis.grammar_rules": "count",
    "analysis.rss_rise_mb": "MB",
    "sequitur.busy_s": "s",
    "sequitur.ns_per_symbol": "ns",
    "sequitur.rules": "count",
    "modules.calls": "count",
    "modules.busy_s": "s",
    "prefetch.calls": "count",
    "prefetch.fixed.busy_s": "s",
    "prefetch.hybrid.busy_s": "s",
    "prefetch.fixed_d8.accuracy": "ratio",
    "prefetch.fixed_d8.coverage": "ratio",
    "prefetch.hybrid.coverage": "ratio",
    "report.write_s": "s",
    "report.check_equal_s": "s",
    "report.bytes": "bytes",
    "pool.busy_s": "s",
    "pool.idle_s": "s",
    "pool.queue_wait_p50_s": "s",
    "pool.queue_wait_p90_s": "s",
}
for _alias, _ in BENCHES:
    LAYER_UNITS["bench.%s.wall_s" % _alias] = "s"
LAYER_UNITS["probe.trace_overhead_s"] = "s"
LAYER_UNITS["probe.cpu_explained"] = "ratio"


class BenchError(Exception):
    """A failure that makes the run produce no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        flags, names, warm, ref = WORKLOADS[workload]
        self.flags = flags
        self.warm = warm
        self.aliases = [a for a, _ in BENCHES] if names == "all" else [names]
        self.names = names
        self.ref = os.path.join(HERE, "ref", ref)
        self.build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.work = os.path.join(ROOT, ".bench_run", workload)
        self.cache = os.path.join(self.work, "cache")
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("TSTREAM_")}
        # Compilers and tools write their temporary files inside the checkout.
        self.env["TMPDIR"] = os.path.join(ROOT, ".bench_run", "tmp")
        self.deadline = None
        self.checks = []  # (name, ok, detail)

    # ---- processes --------------------------------------------------------

    def spawn(self, argv, cache=None, out=None):
        """Run argv to completion; returns (rc, wall_s, cpu_s, maxrss_mb)."""
        env = dict(self.env)
        if cache:
            env["TSTREAM_TRACE_CACHE"] = cache
        timeout = None
        if self.deadline is not None:
            timeout = self.deadline - time.monotonic()
            if timeout <= 0:
                raise BenchError("out of time before: %s" % " ".join(argv))
        sink = open(out, "wb") if out else subprocess.DEVNULL
        try:
            t0 = time.monotonic()
            p = subprocess.Popen(argv, env=env, cwd=self.work, stdout=sink,
                                 stderr=subprocess.STDOUT if out else subprocess.DEVNULL,
                                 start_new_session=True)
            try:
                rc, ru = self._wait(p, timeout)
            except BaseException:
                os.killpg(p.pid, signal.SIGKILL)
                p.wait()
                raise
            wall = time.monotonic() - t0
        finally:
            if out:
                sink.close()
        return rc, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    @staticmethod
    def _wait(p, timeout):
        """wait4 the child; rusage covers it and every descendant it reaped."""
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid == p.pid:
                p.returncode = os.waitstatus_to_exitcode(status)
                return p.returncode, ru
            if end is not None and time.monotonic() > end:
                raise BenchError("timed out: %s" % " ".join(p.args))
            time.sleep(0.005)

    def tool(self, *args):
        return os.path.join(self.build, *args)

    # ---- build ------------------------------------------------------------

    def configure_and_build(self):
        if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
                and os.path.isdir(os.path.join(ROOT, "src"))):
            raise BenchError("no tstream source tree in %s" % ROOT)
        if not os.path.isfile(self.ref):
            raise BenchError("missing reference report %s" % self.ref)
        os.makedirs(self.build, exist_ok=True)
        os.makedirs(self.env["TMPDIR"], exist_ok=True)
        blog = os.path.join(self.build, "perfbench-build.log")
        if not os.path.isfile(os.path.join(self.build, "CMakeCache.txt")):
            with open(blog, "ab") as f:
                rc = subprocess.call(["cmake", "-S", HERE, "-B", self.build,
                                      "-DCMAKE_BUILD_TYPE=Release"],
                                     stdout=f, stderr=subprocess.STDOUT, env=self.env)
            if rc != 0:
                shutil.rmtree(self.build, ignore_errors=True)
                raise BenchError("cmake configure failed")
        cmd = ["cmake", "--build", self.build, "-j", "4", "--target",
               "tstream_bench", "layer_probe"] + ["bench_" + b for _, b in BENCHES]
        with open(blog, "ab") as f:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT, env=self.env) != 0:
                raise BenchError("build failed (see %s)" % blog)

    # ---- workload steps ---------------------------------------------------

    def reset_cache(self, path=None):
        path = path or self.cache
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)

    def cli_argv(self, out, extra=()):
        return ([self.tool("tools", "tstream-bench"), "run"] + self.flags +
                ["--jobs", str(JOBS)] + list(extra) + ["-o", out, self.names])

    def cli_run(self, tag, extra=()):
        """One CLI command; returns (spawn result, report path)."""
        out = os.path.join(self.work, tag + ".json")
        if os.path.exists(out):
            os.remove(out)
        res = self.spawn(self.cli_argv(out, extra), self.cache,
                         os.path.join(self.work, tag + ".log"))
        return res, out

    def compare(self, out):
        """Both gate readers on one report: (check-equal rc, cells, failed, mismatched)."""
        got = subprocess.run([self.tool("layer_probe"), "compare", self.ref, out],
                             capture_output=True, text=True, env=self.env)
        if got.returncode != 0:
            raise BenchError("cannot read reference %s: %s" % (self.ref, got.stderr.strip()))
        fields = dict(kv.split("=") for kv in got.stdout.split())
        eq = subprocess.run([self.tool("tools", "tstream-bench"), "check-equal", self.ref, out],
                            capture_output=True, text=True, env=self.env)
        return eq.returncode, int(fields["cells"]), int(fields["failed"]), int(fields["mismatched"])

    def check_report(self, tag, rc, out):
        """Check-equal one report against the reference.

        Returns (cells, failed, mismatched). A run that exited non-zero
        or wrote no report fails all its cells.
        """
        eq_rc, cells, failed, mismatched = self.compare(out)
        if rc != 0 or not os.path.isfile(out):
            failed, mismatched = cells, 0
        ok = rc == 0 and eq_rc == 0 and failed == 0 and mismatched == 0
        self.checks.append(("check-equal %s" % tag, ok,
                            "rc=%d check-equal=%d failed=%d mismatched=%d"
                            % (rc, eq_rc, failed, mismatched)))
        return cells, failed, mismatched

    def fingerprint(self, path=None):
        """(file count, bytes, sorted names) of the cache directory."""
        path = path or self.cache
        names = sorted(os.listdir(path)) if os.path.isdir(path) else []
        total = sum(os.path.getsize(os.path.join(path, n)) for n in names)
        return len(names), total, tuple(names)

    def setup_once(self):
        """The preparation before the timed runs.

        Empties the cache and has the gate's two report readers load the
        reference and find it equal to itself; with a warm cache it then
        fills the cache with one cold run.
        """
        self.reset_cache()
        eq_rc, cells, failed, mismatched = self.compare(self.ref)
        if eq_rc != 0 or cells == 0 or failed or mismatched:
            raise BenchError("reference %s does not check-equal itself" % self.ref)
        if self.warm:
            (rc, *_), out = self.cli_run("fill")
            self.check_report("fill", rc, out)

    # ---- end-to-end run ---------------------------------------------------

    def run_e2e(self, seconds):
        setups = []
        for _ in range(1 if self.warm else SETUP_REPS):
            t0 = time.monotonic()
            self.setup_once()
            setups.append(time.monotonic() - t0)

        walls, cpus, rsss, cache_mb = [], [], [], []
        attempted = failed = mismatched = 0
        t_start = time.monotonic()
        rep = 0
        while rep == 0 or time.monotonic() - t_start < seconds:
            if self.warm:
                before = self.fingerprint()
            else:
                self.reset_cache()
            (rc, wall, cpu, rss), out = self.cli_run("timed%d" % rep)
            cells, f, m = self.check_report("timed%d" % rep, rc, out)
            if self.warm:
                after = self.fingerprint()
                self.checks.append(("cache unchanged by timed%d" % rep, before == after,
                                    "files %d->%d bytes %d->%d" % (before[0], after[0],
                                                                   before[1], after[1])))
            attempted += cells
            failed += f
            mismatched += m
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
            cache_mb.append(self.fingerprint()[1] / 1e6)
            rep += 1

        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rsss),
            "setup_s": statistics.median(setups),
            "trace_cache_mb": statistics.median(cache_mb),
        }
        print("workload %s: %d timed run(s) of `tstream-bench run %s --jobs %d %s`, "
              "CLI seed 42 (--seed %d not applicable)"
              % (self.workload, rep, " ".join(self.flags), JOBS, self.names, self.seed))
        print("  setup runs: %s" % " ".join("%.3f" % s for s in setups))
        print("  wall_s runs: %s" % " ".join("%.3f" % w for w in walls))
        print("  %-32s %.6g fraction (%d of %d cells)"
              % ("failed_cell_frac", failed / attempted, failed, attempted))
        print("  %-32s %d count" % ("cells_mismatched", mismatched))
        return metrics, attempted, failed + mismatched

    # ---- traced run -------------------------------------------------------

    def run_traced(self):
        self.setup_once()
        metrics = {}
        cli_cpu = 0.0

        # Each bench binary alone, in CLI order, against the cache state
        # it sees inside the CLI run.
        if self.warm:
            before = self.fingerprint()
        else:
            self.reset_cache()
        for alias, binary in BENCHES:
            if alias not in self.aliases:
                metrics["bench.%s.wall_s" % alias] = 0.0
                continue
            part = os.path.join(self.work, "alone.%s.json" % binary)
            argv = [self.tool("bench", binary)] + self.flags + ["--jobs", str(JOBS),
                                                                "--json", part]
            rc, wall, cpu, _ = self.spawn(argv, self.cache,
                                          os.path.join(self.work, "alone.%s.log" % binary))
            if rc != 0:
                raise BenchError("%s failed alone (rc %d)" % (binary, rc))
            metrics["bench.%s.wall_s" % alias] = wall
            cli_cpu += cpu

        # One CLI run with telemetry, same cache state as the workload.
        if not self.warm:
            self.reset_cache()
        tele = os.path.join(self.work, "tele")
        (rc, *_), out = self.cli_run("telemetry", extra=["--telemetry-out", tele])
        self.check_report("telemetry", rc, out)
        counts = {"driver.cells": 0, "trace_cache.hits": 0, "trace_cache.misses": 0,
                  "trace_cache.stores": 0, "analysis.sequitur": 0}
        for alias, binary in BENCHES:
            if alias not in self.aliases:
                continue
            with open("%s.%s.json" % (tele, binary)) as f:
                t = json.load(f)
            for k in counts:
                if k == "analysis.sequitur":
                    counts[k] += t["spans"]["byName"].get(k, {}).get("count", 0)
                else:
                    counts[k] += t["counters"].get(k, 0)
        if self.warm:
            after = self.fingerprint()
            self.checks.append(("cache unchanged by the traced CLI runs", before == after,
                                "files %d->%d bytes %d->%d" % (before[0], after[0],
                                                               before[1], after[1])))
        cli_trace_bytes = sum(os.path.getsize(os.path.join(self.cache, n))
                              for n in os.listdir(self.cache) if n.endswith(".tst"))

        # The layer probe: untraced, then traced, each on the workload's
        # cache state (its own directory, filled first when warm).
        pcache = os.path.join(self.work, "probe-cache")
        self.reset_cache(pcache)
        passes = []
        if self.warm:
            passes.append(self.probe(pcache, spans=False, tag="fill"))
        for spans in (False, True):
            if not self.warm:
                self.reset_cache(pcache)
            passes.append(self.probe(pcache, spans=spans, tag="spans%d" % spans))
        untraced, traced = passes[-2], passes[-1]
        p = traced

        for name in LAYER_UNITS:
            if name in p:
                metrics[name] = p[name]
        busy = sum(p[k] for k in ("sim.busy_s", "trace.load_s", "trace.store_s",
                                  "analysis.busy_s", "modules.busy_s",
                                  "prefetch.fixed.busy_s", "prefetch.hybrid.busy_s"))
        metrics["probe.cpu_explained"] = busy / cli_cpu if cli_cpu else 0.0

        # Reconciliation with the CLI and exact-count checks.
        def check(name, ok, detail):
            self.checks.append((name, bool(ok), detail))

        pairs = [("cells", "driver.cells"), ("cache.hits", "trace_cache.hits"),
                 ("cache.misses", "trace_cache.misses"), ("cache.stores", "trace_cache.stores"),
                 ("analysis.nonempty_calls", "analysis.sequitur")]
        for mine, theirs in pairs:
            check("probe %s == CLI %s" % (mine, theirs), p[mine] == counts[theirs],
                  "%d vs %d" % (p[mine], counts[theirs]))
        check("configHash per cell == reference config_hash",
              p["hash.mismatches"] == 0 and p["hash.cells"] > 0,
              "%d of %d cells differ" % (p["hash.mismatches"], p["hash.cells"]))
        check("sequitur.rules == analysis.grammar_rules per trace",
              p["sequitur.rule_mismatches"] == 0 and p["sequitur.rules"] == p["analysis.grammar_rules"],
              "%d of %d traces differ" % (p["sequitur.rule_mismatches"], p["sequitur.traces"]))
        check("report layer round trip check-equals", p["report.mismatches"] == 0,
              "%d of %d docs differ" % (p["report.mismatches"], p["report.docs"]))
        check("probe cells did not fail", p["failed_cells"] == 0, "%d failed" % p["failed_cells"])
        for k in ("sim.instructions", "sim.misses", "trace.bytes", "cache.hits",
                  "analysis.calls", "prefetch.calls"):
            vals = [untraced[k], traced[k]]
            check("%s repeats exactly across probe passes" % k, len(set(vals)) == 1,
                  " ".join(str(v) for v in vals))
        if self.seed == 42:
            check("probe trace bytes == CLI trace bytes (seed 42)",
                  p["trace.bytes"] == cli_trace_bytes, "%d vs %d" % (p["trace.bytes"], cli_trace_bytes))
            with open(self.ref) as f:
                ref = json.load(f)
            simulated = {c["config_hash"]: c["instructions"]
                         for d in ref.get("benches", [ref]) for c in d["cells"]}
            check("probe sim.instructions == reference's distinct cells (seed 42)",
                  passes[0]["sim.instructions"] == sum(simulated.values()),
                  "%d vs %d" % (passes[0]["sim.instructions"], sum(simulated.values())))

        print("workload %s: traced layer run, probe seed %d, %d jobs" % (self.workload, self.seed, JOBS))
        print("  CLI telemetry counts: %s" % json.dumps(counts, sort_keys=True))
        print("  probe spans: %d at %.0f ns each = %.3g s (probe.trace_overhead_s)"
              % (p["probe.spans"], p["probe.span_ns"], p["probe.trace_overhead_s"]))
        print("  probe pipeline wall: untraced %.3f s, traced %.3f s, difference %.3f s"
              " (host drift, not span cost: it does not resolve below 10-20%% of the wall)"
              % (untraced["pipeline_wall_s"], traced["pipeline_wall_s"],
                 traced["pipeline_wall_s"] - untraced["pipeline_wall_s"]))
        print("  summed layer busy time %.3f s explains %.1f%% of CLI cpu_s %.3f s"
              " (sequitur probe excluded)" % (busy, 100 * metrics["probe.cpu_explained"], cli_cpu))
        if p["pool.queue_wait_samples"] < 100:  # fewer than 10 beyond p90
            print("  pool.queue_wait_p90_s rests on %d samples (fewer than 10 beyond p90)"
                  % p["pool.queue_wait_samples"])
        return metrics, p["cells"], p["failed_cells"]

    def probe(self, pcache, spans, tag):
        out = os.path.join(self.work, "probe-%s.json" % tag)
        argv = [self.tool("layer_probe"), "run", "--workload", self.workload,
                "--seed", str(self.seed), "--spans", "1" if spans else "0",
                "--ref", self.ref, "--tmp", self.work, "--out", out]
        rc, *_ = self.spawn(argv, pcache, os.path.join(self.work, "probe-%s.log" % tag))
        if rc != 0:
            raise BenchError("layer probe failed (rc %d)" % rc)
        with open(out) as f:
            return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    r = Runner(args.workload, args.seed)
    try:
        r.configure_and_build()
        shutil.rmtree(r.work, ignore_errors=True)
        os.makedirs(r.work)
        r.deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            metrics, attempted, failed = r.run_traced()
            units = LAYER_UNITS
        else:
            metrics, attempted, failed = r.run_e2e(args.seconds)
            units = E2E_UNITS
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1

    for name, ok, detail in r.checks:
        print("  %-4s %s (%s)" % ("ok" if ok else "FAIL", name, detail))
    for name in units:
        print("  %-32s %.6g %s" % (name, metrics[name], units[name]))
    correct = all(ok for _, ok, _ in r.checks) and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
