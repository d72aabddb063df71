"""The difflie benchmark: seeded batches of real CLI jobs, golden-checked.

    python3 bench/run.py --workload complex --seed 1 --seconds 43 --trace 0

Each job is one ``difflie`` call in a fresh interpreter, spawned and waited
for one at a time by this single process, so every job pays start-up,
import and any lazy set-up, as a CLI user does, and no process-wide cache
carries over from one job to the next.  The runner repeats passes over the
workload's job list until the next pass, judged by the longest so far,
would overrun ``--seconds``, checks every report against the golden answers
in ``bench/golden.json``, and prints as its last line one JSON object with
the metrics.

With ``--trace 0`` the metrics are the end-to-end ones:

  setup_s      median time for a fresh interpreter to import difflie.cli and
               build its argument parser
  wall_s       the summed wall time of one pass over the job list, taking
               each job's median over the passes
  job_gmean_s  geometric mean wall time of one job, over every job run of
               every pass (jobs x passes samples): the typical wait, with
               each job weighted alike whatever its size
  peak_rss_mb  largest resident set of any job process

With ``--trace 1`` the passes alternate untraced and traced (jobs run under
bench/spans.py) and the metrics are the per-layer ones of bench/spans.py,
medians over the traced passes, plus ``trace.wall_s`` (traced pass wall) and
``trace.overhead_ratio`` (traced over untraced pass wall, minus one).
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402

CLI = "import sys; from difflie.cli import main; sys.exit(main())"
SETUP = "import difflie.cli as c; c.build_parser()"
SETUP_SAMPLES_PER_PASS = 5
JOB_TIMEOUT_S = 100


@contextlib.contextmanager
def work_dir(prefix):
    """A fresh directory under .bench_work in the checkout, removed on
    exit."""
    parent = os.path.join(ROOT, ".bench_work")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix + "-", dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Runner:
    """Spawns jobs in fresh interpreters inside one work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def spawn(self, argv, stdout=subprocess.DEVNULL):
        """Run one process to completion; returns (exit code, wall seconds
        from spawn to exit, peak RSS in MiB)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                stdout=stdout, stderr=subprocess.DEVNULL)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def setup_samples(self, n):
        """Wall times of n fresh interpreters importing difflie.cli and
        building its parser."""
        argv = [sys.executable, "-c", SETUP]
        out = []
        for _ in range(n):
            code, wall, _ = self.spawn(argv)
            if code != 0:
                raise SystemExit("error: cannot import difflie.cli from %s"
                                 % os.path.join(ROOT, "src"))
            out.append(wall)
        return out

    def write(self, files):
        for name, doc in files.items():
            with open(os.path.join(self.workdir, name), "w") as fh:
                json.dump(doc, fh)

    def run_pass(self, jobs, traced=False):
        """One pass over the job list.  Returns a list of per-job results
        and, when traced, the span file paths."""
        results, span_files, reports = [], [], {}
        for k, job in enumerate(jobs):
            if job.after is not None:
                files = gen.follow_up(job, reports.get(job.after))
                if files is None:
                    results.append(dict(name=job.name, code=None, wall=0.0,
                                        rss=0.0, report=None, ok=False))
                    continue
                self.write(files)
            out_path = os.path.join(self.workdir, "out.json")
            if traced:
                sp = os.path.join(self.workdir, "spans-%d.json" % k)
                argv = [sys.executable, os.path.join(HERE, "spans.py"), sp]
            else:
                argv = [sys.executable, "-c", CLI]
            with open(out_path, "wb") as out:
                code, wall, rss = self.spawn(argv + job.argv, stdout=out)
            try:
                with open(out_path) as fh:
                    report = json.load(fh)
            except ValueError:
                report = None
            reports[job.name] = report
            ok = gen.check(job, code, report)
            if traced:
                # a job killed by the timeout writes no spans: it counts as
                # failed and is left out of the per-layer sums
                if os.path.exists(sp):
                    span_files.append(sp)
                else:
                    ok = False
            results.append(dict(name=job.name, code=code, wall=wall, rss=rss,
                                report=report, ok=ok))
        return results, span_files


def measure(workload, seed, seconds, trace):
    jobs = gen.WORKLOADS[workload](seed)
    with work_dir(workload) as workdir:
        runner = Runner(workdir)
        for job in jobs:
            runner.write(job.files)
        runner.setup_samples(1)  # compiles bytecode; not counted
        setup = []
        passes = []  # (traced, pass wall, results, per-layer metrics)
        start = time.perf_counter()
        longest = {False: 0.0, True: 0.0}  # longest iteration of each kind
        while True:
            traced = trace and len(passes) % 2 == 1
            t0 = time.perf_counter()
            if passes and (not trace or len(passes) >= 2) \
                    and t0 - start + longest[traced] > seconds:
                break
            setup += runner.setup_samples(SETUP_SAMPLES_PER_PASS)
            results, files = runner.run_pass(jobs, traced)
            layer = spans.summarize(files) if traced else None
            for path in files:
                os.remove(path)
            passes.append((traced, sum(r["wall"] for r in results),
                           results, layer))
            longest[traced] = max(longest[traced], time.perf_counter() - t0)
    return statistics.median(setup), passes, jobs


def end_to_end(setup, passes, jobs):
    per_job = [statistics.median(p[2][k]["wall"] for p in passes)
               for k in range(len(jobs))]
    # a follow-up job skipped because its source job failed never ran
    runs = [r["wall"] for p in passes for r in p[2] if r["code"] is not None]
    rss = max(r["rss"] for p in passes for r in p[2])
    return {"setup_s": (setup, "s"),
            "wall_s": (sum(per_job), "s"),
            "job_gmean_s": (statistics.geometric_mean(runs), "s"),
            "peak_rss_mb": (rss, "MiB")}


def per_layer(passes):
    traced = [p for p in passes if p[0]]
    plain = [p for p in passes if not p[0]]
    out = {}
    for name in traced[0][3]:
        out[name] = (statistics.median(p[3][name] for p in traced),
                     spans.UNITS[name])
    t_wall = statistics.median(p[1] for p in traced)
    u_wall = statistics.median(p[1] for p in plain)
    out["trace.wall_s"] = (t_wall, "s")
    out["trace.overhead_ratio"] = (t_wall / u_wall - 1, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "difflie", "cli.py")):
        sys.stderr.write("error: no difflie sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2

    setup, passes, jobs = measure(args.workload, args.seed, args.seconds,
                                  args.trace)
    attempted = sum(len(p[2]) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p[2])
    metrics = per_layer(passes) if args.trace else \
        end_to_end(setup, passes, jobs)
    for k, job in enumerate(jobs):
        walls = [p[2][k]["wall"] for p in passes if not p[0]]
        bad = sum(not p[2][k]["ok"] for p in passes)
        print("%-34s median %8.4f s over %d passes%s"
              % (job.name, statistics.median(walls), len(walls),
                 "  FAILED %d" % bad if bad else ""))
    print("passes %d, jobs attempted %d, failed %d, failed_frac %.4f"
          % (len(passes), attempted, failed, failed / attempted))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": val, "unit": unit}
                    for name, (val, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
