"""The benchmark's tracer still finds every series name it wraps.

``perfbench/tracing.py`` wraps ``MSeries`` multiplication, ``reciprocal``,
``sqrt1`` and ``substitute``, rebinds ``fixed_point_solve``,
``check_identity`` and ``identity_ids``, and replaces each ``EQUATIONS``
entry's ``step``.  A rename under ``src/`` would leave those counters at
zero without failing anything else, so this runs three identities under
the tracer in a fresh interpreter and reads the counters back.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

IDENTITIES = ["stat132-system", "schroder-cubic", "gf-263514-schroder"]
COUNTERS = ["series.mul", "series.sqrt1", "series.reciprocal", "series.fixed_point_solve"]

SCRIPT = f"""
import json
from tracing import Tracer, install
tracer = Tracer()
install(tracer)
from permlab import cli
codes = [cli.main(["verify", "--id", i, "--order", "8"]) for i in {IDENTITIES!r}]
print(json.dumps({{"codes": codes, "calls": {{k: tracer.calls[k] for k in {COUNTERS!r}}}}}))
"""


def test_traced_identities_pass_and_count_every_series_layer():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench")),
    )
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    for name in COUNTERS:
        assert got["calls"][name] > 0, (name, got["calls"])
