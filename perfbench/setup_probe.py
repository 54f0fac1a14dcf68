"""A process that only sets a workload up, for ``run.py`` to time.

It imports the simulator and builds the workload (``suite.build``) with
the calibration sampler running, prints ``READY``, then one line
``SETUP <json>`` with the sampler's own seconds (``spent_s``) and the
loop times seen during set-up plus one probe after it (``loop_s``).
The launcher times interpreter start to ``READY`` and rescales it.
"""

from __future__ import annotations

import argparse
import json

from perfbench import calibrate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sampler = calibrate.Sampler()
    with sampler:
        from perfbench import suite

        suite.build(args.workload, args.seed)
    print("READY", flush=True)
    loop_s = sampler.samples + [calibrate.probe()]
    print("SETUP " + json.dumps({"spent_s": sampler.spent, "loop_s": loop_s}), flush=True)


if __name__ == "__main__":
    main()
