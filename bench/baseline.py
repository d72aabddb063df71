"""The ROADMAP item-1 baseline table, measured with the benchmark's runner.

    python3 bench/baseline.py

Runs each of the four single-job baselines REPEATS times in a fresh
interpreter on the catalog-basis documents and prints the median wall
time, the exit code and the report's answer fields as one JSON object.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402

TABLE = [
    ("cohomology sl2+aff1, max-degree 4",
     ["cohomology", "sl2aff1.json", "--max-degree", "4"]),
    ("cohomology --flavor tilde sl2+aff1, max-degree 3",
     ["cohomology", "sl2aff1.json", "--flavor", "tilde",
      "--max-degree", "3"]),
    ("twist sl2+aff1, max-degree 2",
     ["twist", "sl2aff1.json", "--max-degree", "2"]),
    ("key-formula --order 50, dim 5",
     ["key-formula", "kf5.json", "--seed", "7", "--order", "50"]),
]
ANSWERS = ("dims_H", "bridge_zero", "all_zero", "nonzero_samples")
REPEATS = 3


def main():
    out = {}
    with run.work_dir("baseline") as workdir:
        runner = run.Runner(workdir)
        runner.write({"sl2aff1.json": gen.load_base("sl2aff1"),
                      "kf5.json": {"dim": 5}})
        report_path = os.path.join(workdir, "out.json")
        for label, args in TABLE:
            walls = []
            for _ in range(REPEATS):
                with open(report_path, "wb") as fh:
                    code, wall, _ = runner.spawn(
                        [sys.executable, "-c", run.CLI] + args, stdout=fh)
                walls.append(wall)
            with open(report_path) as fh:
                report = json.load(fh)
            out[label] = {"wall_s": statistics.median(walls), "exit": code,
                          "answer": {k: report[k] for k in ANSWERS
                                     if k in report}}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
