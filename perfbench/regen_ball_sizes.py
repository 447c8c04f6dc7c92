"""Regenerate ball_sizes.json: the cumulative ball sizes of block(1,2,2)
at radii 5 and 6, from ball_exhaustive (never from ball, whose output
they check).  Takes about 70 s on one core.

    python3 perfbench/regen_ball_sizes.py
"""

from __future__ import annotations

import json
import time

import ball_growth
import harness


def main() -> None:
    cd = harness.use_source_tree()
    from catdistort.navigator import ball_exhaustive

    t0 = time.perf_counter()
    spec = cd.build_block(cd.BlockParams(1, 2, 2), certify=False)
    sizes = ball_exhaustive(spec, ball_growth.CURVE_RADIUS).sizes
    doc = {
        "group": ball_growth.B2,
        "source": "catdistort.navigator.ball_exhaustive",
        "sizes": {str(r): sizes[r] for r in range(ball_growth.EXHAUSTIVE_RADIUS + 1,
                                                  ball_growth.CURVE_RADIUS + 1)},
    }
    ball_growth.STORED.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {ball_growth.STORED.name}: {doc['sizes']} "
          f"({time.perf_counter() - t0:.1f} s)")


if __name__ == "__main__":
    main()
