"""The benchmark's tracer still finds every series name it wraps.

``perfbench/tracing.py`` wraps ``MSeries`` multiplication, ``reciprocal``,
``sqrt1`` and ``substitute``, rebinds ``fixed_point_solve``,
``check_identity`` and ``identity_ids``, and replaces each ``EQUATIONS``
entry's ``step``.  A rename under ``src/`` would leave those counters at
zero without failing anything else, so this runs five identities under
the tracer in a fresh interpreter and reads the counters back.  Between
them they solve every registered equation, so the series built on the
unknowns of each solve go through the wrapped methods too.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

IDENTITIES = ["stat132-system", "schroder-cubic", "gf-263514-schroder",
              "kernel-root-closed", "kernel-524361-vanishes"]
COUNTERS = ["series.mul", "series.sqrt1", "series.reciprocal", "series.substitute",
            "series.fixed_point_solve"]

SCRIPT = f"""
import json
from tracing import Tracer, install
tracer = Tracer()
install(tracer)
from permlab import cli
from permlab.series import EQUATIONS
codes = [cli.main(["verify", "--id", i, "--order", "8"]) for i in {IDENTITIES!r}]
steps = {{e: tracer.counts["series.fixed_point.iterations." + e] for e in EQUATIONS}}
print(json.dumps({{"codes": codes, "steps": steps,
                  "calls": {{k: tracer.calls[k] for k in {COUNTERS!r}}}}}))
"""


def test_traced_identities_pass_and_count_every_series_layer():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench")),
    )
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["codes"] == [0] * len(IDENTITIES)
    for name in COUNTERS:
        assert got["calls"][name] > 0, (name, got["calls"])
    assert len(got["steps"]) == 4
    for equation_id, steps in got["steps"].items():
        assert steps > 0, (equation_id, got["steps"])
