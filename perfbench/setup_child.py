"""One cold start, timed from inside a fresh interpreter.

Imports ``cicy_bundles.cli`` and answers one ``chi`` through ``cli.main``;
interpreter start-up and ``site`` are left out of the timing.  Nothing but
``io`` (loaded by every interpreter at start-up), ``sys`` and ``time`` is
imported before the clock starts, so modules the engine needs are paid for
inside the measurement.  Afterwards it times the reference kernel, so the
parent can put the set-up time on the run's common speed scale.  Prints one
JSON line.
"""

import io
import sys
import time

start = time.perf_counter()
from cicy_bundles import cli  # noqa: E402

imported = time.perf_counter()
captured = io.StringIO()
stdout, sys.stdout = sys.stdout, captured
try:
    code = cli.main(["chi", "--threefold", "5", "--c1", "2", "--c2", "5"])
finally:
    sys.stdout = stdout
done = time.perf_counter()

import json  # noqa: E402

from refkernel import reference_seconds  # noqa: E402

print(json.dumps({"import_s": imported - start, "chi_s": done - imported,
                  "total_s": done - start, "ref_s": reference_seconds(5),
                  "code": code, "output": captured.getvalue()}))
