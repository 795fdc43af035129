"""One cold measurement in a fresh interpreter, so that nothing computed
earlier in the run can serve it.

    python3 perfbench/cold.py setup --workload analyze_p5 --seed 0
    python3 perfbench/cold.py pass --workload analyze_p5 --seed 0

`setup` prints the seconds taken to import arithjet and build every
input, as wall time and at the reference speed (see speed.py), as one
JSON object.  The harness's own modules and the list of inputs come
before the clock starts, so the figure is arithjet's alone.  `pass`
builds the inputs, calls the operation once per input and prints one
JSON object: the pass's wall time, each operation's seconds (wall and at
the reference speed) and output summary, and the process's peak
resident memory in MB.
"""

import argparse
import json
import resource
import sys
from pathlib import Path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "pass"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import inputs  # the harness's; imports no arithjet
    import speed
    wl = inputs.WORKLOADS[args.workload]
    cases = wl.cases(args.seed)

    with speed.Clock() as clock:
        import arithjet.characters  # noqa: F401  (everything a pass imports)
        import arithjet.jet  # noqa: F401
        groups = [inputs.build(c) for c in cases]
    if args.mode == "setup":
        print(json.dumps({"wall_s": clock.wall_s, "ref_s": clock.ref_s}))
        return

    import workloads
    outcomes, wall = workloads.run_pass(wl.op, cases, groups)
    print(json.dumps({
        "wall_s": wall,
        "ops": [{"seconds": o.seconds, "ref_seconds": o.ref_seconds,
                 "summary": workloads.summary(wl.op, o)} for o in outcomes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main()
