"""Self-test of the benchmark's golden gate.

    python3 bench/selftest.py

1. Two different seeds give different input documents, and every job of
   every workload passes the gate under both.  The gate compares the exit
   code and every checked field with one golden answer, so passing under
   both seeds means the checked fields are identical.
2. A document with one corrupted structure constant is counted as failed,
   which shows that the gate is live.

Prints one line per check and exits 0 when every check holds, 1 otherwise.
"""

import copy
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402

SEEDS = (101, 202)
CORRUPT = ("cohomology-heis-difflie", "check-axioms-sl2")


def one_pass(jobs):
    with run.work_dir("selftest") as workdir:
        runner = run.Runner(workdir)
        for job in jobs:
            runner.write(job.files)
        return runner.run_pass(jobs)[0]


def corrupted(job):
    """The job with the first nonzero structure constant of its document
    increased by one."""
    bad = copy.deepcopy(job)
    (doc,) = bad.files.values()
    vec = doc["brackets"][0][2]
    k = next(i for i, c in enumerate(vec) if Fraction(c) != 0)
    vec[k] = gen.fmt(Fraction(vec[k]) + 1)
    return bad


def main():
    ok = True
    for name, make in sorted(gen.WORKLOADS.items()):
        docs = []
        for seed in SEEDS:
            jobs = make(seed)
            results = one_pass(jobs)
            failed = [r["name"] for r in results if not r["ok"]]
            print("%s seed %d: %d jobs, failed %s"
                  % (name, seed, len(jobs), failed or "none"))
            ok = ok and not failed
            docs.append(json.dumps([j.files for j in jobs], sort_keys=True))
        differ = docs[0] != docs[1]
        print("%s: inputs differ across seeds %s" % (name, differ))
        ok = ok and differ
    jobs = {j.name: j for make in gen.WORKLOADS.values()
            for j in make(SEEDS[0])}
    for name in CORRUPT:
        (result,) = one_pass([corrupted(jobs[name])])
        print("corrupted %s: counted as failed %s" % (name, not result["ok"]))
        ok = ok and not result["ok"]
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
