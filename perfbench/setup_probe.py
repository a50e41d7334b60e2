"""Set-up cost of qladder in a fresh interpreter: import ``qladder`` and
``qladder.cli``, then build each of the six families once at its reference
parameters.  Prints the wall seconds taken and the same scaled to the speed
probe's reference speed (see speed.py) as one JSON line.

Usage: python3 perfbench/setup_probe.py <checkout root>
"""

import json
import os
import sys

import speed


def main() -> int:
    sys.path.insert(0, os.path.join(sys.argv[1], "src"))
    speed.probe()  # the first runs of the kernel are slower
    with speed.Meter() as meter:
        import qladder  # noqa: F401
        import qladder.cli  # noqa: F401
        from qladder.families import FAMILY_NAMES, make_family, reference_params
        from qladder.qkernel import QBase

        for name in FAMILY_NAMES:
            make_family(name, reference_params(name), QBase(0.5))
    print(json.dumps({"setup_s": meter.scaled, "wall_s": meter.wall}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
