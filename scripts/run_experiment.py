#!/usr/bin/env python3
"""Run the full pipeline for one experiment configuration.

Synthesizes the controller, simulates the configured closed loop, compares
periodic against event-triggered transmission, and audits the numerical
checks, writing all outputs into one directory. The exit code is the worst
exit code of the individual stages, so a failing verification stage is
visible to shell scripts without hiding the artifacts of earlier stages.
"""

import argparse
import sys

from etcontrol.cli import add_common_options
from etcontrol.cli import main as etcontrol_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_common_options(parser)
    args = parser.parse_args(argv)

    common = ["--config", args.config, "--out", args.out]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    worst = 0
    for command in ("synth", "simulate", "compare", "verify"):
        print(f"==> {command}")
        code = etcontrol_main([command] + common)
        if code != 0:
            print(f"{command} exited with code {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
